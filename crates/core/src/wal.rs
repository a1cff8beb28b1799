//! The coordinator's durable epoch write-ahead log.
//!
//! Every fault PR so far assumed the coordinator was immortal: the
//! two-phase epoch state machine lived entirely in coordinator memory,
//! so a control-plane crash mid-round would wedge the experiment. This
//! module is the durable half of the fix. Every epoch transition
//! (round-open, per-node ack/done, exclusion, commit/abort,
//! resume-release, membership changes) is a [`WalRecord`] the
//! [`Coordinator`](crate::Coordinator) appends and then applies: the
//! record *is* the state change. After a crash the coordinator replays
//! the log through the same interpretation, which rebuilds the epoch
//! counter, the per-epoch records, the open rounds and the membership
//! deltas, then classifies each round left open.
//!
//! Records are encoded with the same hand-rolled [`Enc`]/[`Dec`] codec
//! the checkpoint image store uses, one tagged frame per record, so a
//! log survives byte-identically across same-seed runs. The log itself
//! is an in-memory, append-only list of frames behind the cheap-clone
//! [`Wal`] handle, which survives the coordinator's crashes.

use std::sync::{Arc, Mutex, MutexGuard};

use ckptstore::{Dec, DecodeError, Enc};

/// Recovery classification codes, carried in the node field of the
/// `shadow.recover` trace instant so the shadow checker (and failure
/// artifacts) can see *how* a restarted coordinator resolved a round.
pub mod recover_code {
    /// Barrier was complete but the commit was not durable: rolled
    /// forward and committed.
    pub const ROLL_FORWARD: u32 = 1;
    /// Commit was durable but the resume never published: released.
    pub const RELEASE: u32 = 2;
    /// No participant had acked: aborted (nodes never suspended).
    pub const ABORT: u32 = 3;
    /// Mid-flight (some acks or dones): aborted, and every participant
    /// that had reported done gets its next capture forced full — the
    /// rollback may have raced its local sequence.
    pub const ABORT_FORCE_FULL: u32 = 4;
}

/// One durable epoch transition. `at_ns` is the true-time stamp of the
/// transition so recovery rebuilds [`EpochRecord`](crate::EpochRecord)
/// timestamps exactly.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// A round opened: notification published to `participants`.
    RoundOpen {
        at_ns: u64,
        group: u32,
        epoch: u64,
        /// Resume withheld at the barrier (swap-out / time travel).
        hold: bool,
        /// Scheduled target clock reading; `None` for event-driven.
        notify_at_clock_ns: Option<f64>,
        /// Participant addresses, sorted.
        participants: Vec<u32>,
        /// Participants notified with the full-capture flag, sorted.
        forced_full: Vec<u32>,
        /// The round's causal trace context, `(trace_id, span_id)` as
        /// minted by `TraceCtx::for_round` — lets a flight-recorder WAL
        /// tail be joined against the trace ring's flow events without
        /// re-deriving the packing.
        trace: (u32, u32),
    },
    /// A participant's notification ack was accepted.
    Ack { at_ns: u64, group: u32, epoch: u64, node: u32 },
    /// A participant's done report was accepted (implies ack).
    Done { at_ns: u64, group: u32, epoch: u64, node: u32, image_bytes: u64 },
    /// The failure detector re-published the notification.
    Retry { at_ns: u64, group: u32, epoch: u64 },
    /// A participant was excluded from the barrier (presumed crashed).
    Exclude { at_ns: u64, group: u32, epoch: u64, node: u32 },
    /// The epoch committed; `excluded` is the exclusion count (zero =
    /// clean, nonzero = degraded).
    Commit { at_ns: u64, group: u32, epoch: u64, excluded: u32 },
    /// The epoch aborted.
    Abort { at_ns: u64, group: u32, epoch: u64 },
    /// The resume was published for a committed epoch.
    Resume { at_ns: u64, group: u32, epoch: u64 },
    /// The round was abandoned (time travel replaced its state).
    Abandon { at_ns: u64, group: u32, epoch: u64 },
    /// A node was evicted from its group after a degraded commit.
    Evict { at_ns: u64, group: u32, node: u32 },
    /// An evicted node was re-admitted (next capture forced full).
    Rejoin { at_ns: u64, group: u32, node: u32 },
    /// A node's next capture was force-full'd outside a rejoin (e.g. a
    /// recovery abort after the node had reported done).
    ForceFull { at_ns: u64, node: u32 },
    /// A forced-full node's capture committed: its chain is whole again.
    ForceFullHealed { at_ns: u64, node: u32 },
}

const TAG_ROUND_OPEN: u8 = 1;
const TAG_ACK: u8 = 2;
const TAG_DONE: u8 = 3;
const TAG_RETRY: u8 = 4;
const TAG_EXCLUDE: u8 = 5;
const TAG_COMMIT: u8 = 6;
const TAG_ABORT: u8 = 7;
const TAG_RESUME: u8 = 8;
const TAG_ABANDON: u8 = 9;
const TAG_EVICT: u8 = 10;
const TAG_REJOIN: u8 = 11;
const TAG_FORCE_FULL: u8 = 12;
const TAG_FORCE_FULL_HEALED: u8 = 13;

impl WalRecord {
    /// Encodes the record as one self-contained WAL frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            WalRecord::RoundOpen {
                at_ns,
                group,
                epoch,
                hold,
                notify_at_clock_ns,
                participants,
                forced_full,
                trace,
            } => {
                e.u8(TAG_ROUND_OPEN);
                e.u64(*at_ns);
                e.u32(*group);
                e.u64(*epoch);
                e.bool(*hold);
                e.u32(trace.0);
                e.u32(trace.1);
                match notify_at_clock_ns {
                    Some(t) => {
                        e.bool(true);
                        e.f64(*t);
                    }
                    None => e.bool(false),
                }
                e.seq(participants.len());
                for n in participants {
                    e.u32(*n);
                }
                e.seq(forced_full.len());
                for n in forced_full {
                    e.u32(*n);
                }
            }
            WalRecord::Ack { at_ns, group, epoch, node } => {
                e.u8(TAG_ACK);
                e.u64(*at_ns);
                e.u32(*group);
                e.u64(*epoch);
                e.u32(*node);
            }
            WalRecord::Done { at_ns, group, epoch, node, image_bytes } => {
                e.u8(TAG_DONE);
                e.u64(*at_ns);
                e.u32(*group);
                e.u64(*epoch);
                e.u32(*node);
                e.u64(*image_bytes);
            }
            WalRecord::Retry { at_ns, group, epoch } => {
                e.u8(TAG_RETRY);
                e.u64(*at_ns);
                e.u32(*group);
                e.u64(*epoch);
            }
            WalRecord::Exclude { at_ns, group, epoch, node } => {
                e.u8(TAG_EXCLUDE);
                e.u64(*at_ns);
                e.u32(*group);
                e.u64(*epoch);
                e.u32(*node);
            }
            WalRecord::Commit { at_ns, group, epoch, excluded } => {
                e.u8(TAG_COMMIT);
                e.u64(*at_ns);
                e.u32(*group);
                e.u64(*epoch);
                e.u32(*excluded);
            }
            WalRecord::Abort { at_ns, group, epoch } => {
                e.u8(TAG_ABORT);
                e.u64(*at_ns);
                e.u32(*group);
                e.u64(*epoch);
            }
            WalRecord::Resume { at_ns, group, epoch } => {
                e.u8(TAG_RESUME);
                e.u64(*at_ns);
                e.u32(*group);
                e.u64(*epoch);
            }
            WalRecord::Abandon { at_ns, group, epoch } => {
                e.u8(TAG_ABANDON);
                e.u64(*at_ns);
                e.u32(*group);
                e.u64(*epoch);
            }
            WalRecord::Evict { at_ns, group, node } => {
                e.u8(TAG_EVICT);
                e.u64(*at_ns);
                e.u32(*group);
                e.u32(*node);
            }
            WalRecord::Rejoin { at_ns, group, node } => {
                e.u8(TAG_REJOIN);
                e.u64(*at_ns);
                e.u32(*group);
                e.u32(*node);
            }
            WalRecord::ForceFull { at_ns, node } => {
                e.u8(TAG_FORCE_FULL);
                e.u64(*at_ns);
                e.u32(*node);
            }
            WalRecord::ForceFullHealed { at_ns, node } => {
                e.u8(TAG_FORCE_FULL_HEALED);
                e.u64(*at_ns);
                e.u32(*node);
            }
        }
        e.into_bytes()
    }

    /// Decodes one WAL frame.
    pub fn decode(frame: &[u8]) -> Result<WalRecord, DecodeError> {
        let mut d = Dec::new(frame);
        let at = d.position();
        let tag = d.u8()?;
        let rec = match tag {
            TAG_ROUND_OPEN => {
                let at_ns = d.u64()?;
                let group = d.u32()?;
                let epoch = d.u64()?;
                let hold = d.bool()?;
                let trace = (d.u32()?, d.u32()?);
                let notify_at_clock_ns = if d.bool()? { Some(d.f64()?) } else { None };
                let n = d.seq()?;
                let mut participants = Vec::with_capacity(n);
                for _ in 0..n {
                    participants.push(d.u32()?);
                }
                let n = d.seq()?;
                let mut forced_full = Vec::with_capacity(n);
                for _ in 0..n {
                    forced_full.push(d.u32()?);
                }
                WalRecord::RoundOpen {
                    at_ns,
                    group,
                    epoch,
                    hold,
                    notify_at_clock_ns,
                    participants,
                    forced_full,
                    trace,
                }
            }
            TAG_ACK => WalRecord::Ack {
                at_ns: d.u64()?,
                group: d.u32()?,
                epoch: d.u64()?,
                node: d.u32()?,
            },
            TAG_DONE => WalRecord::Done {
                at_ns: d.u64()?,
                group: d.u32()?,
                epoch: d.u64()?,
                node: d.u32()?,
                image_bytes: d.u64()?,
            },
            TAG_RETRY => WalRecord::Retry { at_ns: d.u64()?, group: d.u32()?, epoch: d.u64()? },
            TAG_EXCLUDE => WalRecord::Exclude {
                at_ns: d.u64()?,
                group: d.u32()?,
                epoch: d.u64()?,
                node: d.u32()?,
            },
            TAG_COMMIT => WalRecord::Commit {
                at_ns: d.u64()?,
                group: d.u32()?,
                epoch: d.u64()?,
                excluded: d.u32()?,
            },
            TAG_ABORT => WalRecord::Abort { at_ns: d.u64()?, group: d.u32()?, epoch: d.u64()? },
            TAG_RESUME => WalRecord::Resume { at_ns: d.u64()?, group: d.u32()?, epoch: d.u64()? },
            TAG_ABANDON => {
                WalRecord::Abandon { at_ns: d.u64()?, group: d.u32()?, epoch: d.u64()? }
            }
            TAG_EVICT => WalRecord::Evict { at_ns: d.u64()?, group: d.u32()?, node: d.u32()? },
            TAG_REJOIN => WalRecord::Rejoin { at_ns: d.u64()?, group: d.u32()?, node: d.u32()? },
            TAG_FORCE_FULL => WalRecord::ForceFull { at_ns: d.u64()?, node: d.u32()? },
            TAG_FORCE_FULL_HEALED => {
                WalRecord::ForceFullHealed { at_ns: d.u64()?, node: d.u32()? }
            }
            tag => return Err(DecodeError::BadTag { at, tag, what: "wal record" }),
        };
        if d.remaining() != 0 {
            return Err(DecodeError::Invalid("trailing bytes after wal record"));
        }
        Ok(rec)
    }
}

/// Cheap-clone handle to the epoch log, mirroring the `Buggify` and
/// `Telemetry` handle idiom. Every coordinator makes its own; a crash
/// loses the coordinator's volatile state but not the log. A clone
/// (`Coordinator::wal().clone()`) lets a checker read or rewrite the log
/// from outside. The handle is `Send` so a coordinator can run on a
/// shard of the sharded engine; nothing contends for the lock.
#[derive(Clone)]
pub struct Wal {
    /// The encoded records, one frame each, in append order.
    frames: Arc<Mutex<Vec<Vec<u8>>>>,
}

impl Wal {
    /// An empty in-memory log.
    pub fn in_memory() -> Self {
        Wal { frames: Arc::default() }
    }

    fn frames(&self) -> MutexGuard<'_, Vec<Vec<u8>>> {
        self.frames.lock().expect("wal lock poisoned")
    }

    /// Appends one record.
    pub fn append(&self, rec: &WalRecord) {
        self.frames().push(rec.encode());
    }

    /// Decodes the whole log, in append order.
    ///
    /// # Panics
    ///
    /// Panics on a corrupt frame: the WAL is the recovery source of
    /// truth, and in the simulation a decode failure is always a bug.
    pub fn replay(&self) -> Vec<WalRecord> {
        self.frames()
            .iter()
            .map(|f| WalRecord::decode(f).expect("corrupt wal frame"))
            .collect()
    }

    /// Number of records appended.
    pub fn len(&self) -> usize {
        self.frames().len()
    }

    /// True when nothing was ever appended.
    pub fn is_empty(&self) -> bool {
        self.frames().is_empty()
    }

    /// Total encoded bytes.
    pub fn byte_len(&self) -> usize {
        self.frames().iter().map(Vec::len).sum()
    }

    /// Discards the log (experiment teardown).
    pub fn clear(&self) {
        self.frames().clear();
    }
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("records", &self.len())
            .field("bytes", &self.byte_len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<WalRecord> {
        vec![
            WalRecord::RoundOpen {
                at_ns: 12,
                group: 0,
                epoch: 1,
                hold: false,
                notify_at_clock_ns: Some(1.5e9),
                participants: vec![1, 2, 3],
                forced_full: vec![2],
                trace: (0, 1),
            },
            WalRecord::RoundOpen {
                at_ns: 13,
                group: 7,
                epoch: 2,
                hold: true,
                notify_at_clock_ns: None,
                participants: vec![9],
                forced_full: vec![],
                trace: (7, 2),
            },
            WalRecord::Ack { at_ns: 20, group: 0, epoch: 1, node: 2 },
            WalRecord::Done { at_ns: 30, group: 0, epoch: 1, node: 2, image_bytes: 1 << 20 },
            WalRecord::Retry { at_ns: 35, group: 0, epoch: 1 },
            WalRecord::Exclude { at_ns: 40, group: 0, epoch: 1, node: 3 },
            WalRecord::Commit { at_ns: 50, group: 0, epoch: 1, excluded: 1 },
            WalRecord::Abort { at_ns: 60, group: 0, epoch: 2 },
            WalRecord::Resume { at_ns: 70, group: 0, epoch: 1 },
            WalRecord::Abandon { at_ns: 80, group: 0, epoch: 3 },
            WalRecord::Evict { at_ns: 90, group: 0, node: 3 },
            WalRecord::Rejoin { at_ns: 95, group: 0, node: 3 },
            WalRecord::ForceFull { at_ns: 96, node: 3 },
            WalRecord::ForceFullHealed { at_ns: 99, node: 3 },
        ]
    }

    #[test]
    fn every_record_round_trips() {
        for rec in samples() {
            let bytes = rec.encode();
            assert_eq!(WalRecord::decode(&bytes).unwrap(), rec, "{rec:?}");
        }
    }

    #[test]
    fn decode_rejects_bad_tag_and_truncation() {
        assert!(matches!(
            WalRecord::decode(&[200, 0, 0]),
            Err(DecodeError::BadTag { tag: 200, .. })
        ));
        let good = WalRecord::Ack { at_ns: 1, group: 0, epoch: 1, node: 2 }.encode();
        assert!(WalRecord::decode(&good[..good.len() - 1]).is_err());
        let mut padded = good.clone();
        padded.push(0);
        assert!(matches!(
            WalRecord::decode(&padded),
            Err(DecodeError::Invalid(_))
        ));
    }

    #[test]
    fn wal_replays_in_append_order_and_survives_clones() {
        let wal = Wal::in_memory();
        let handle = wal.clone();
        for rec in samples() {
            wal.append(&rec);
        }
        // The clone sees everything the original appended: the log
        // outlives any one holder (the crash-survival property).
        assert_eq!(handle.replay(), samples());
        assert_eq!(handle.len(), samples().len());
        assert!(handle.byte_len() > 0);
        handle.clear();
        assert!(wal.is_empty());
    }

    #[test]
    fn encoding_is_deterministic() {
        let a: Vec<Vec<u8>> = samples().iter().map(|r| r.encode()).collect();
        let b: Vec<Vec<u8>> = samples().iter().map(|r| r.encode()).collect();
        assert_eq!(a, b);
    }
}
