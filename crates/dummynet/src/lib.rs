//! Dummynet-style traffic shaping with live checkpoint support (§4.4).
//!
//! Emulab realizes an experimenter's link characteristics (bandwidth,
//! latency, loss) by interposing *delay nodes* running FreeBSD Dummynet.
//! The paper checkpoints the network core by checkpointing exactly this
//! subsystem: "This state consists of a hierarchy of pipes, router queues,
//! and the packets queued in those pipes and queues. For the checkpoint, we
//! implement functions serializing and deserializing the state of this
//! hierarchy... During a checkpoint we suspend Dummynet and serialize the
//! state non-destructively. After the checkpoint completes, we resume
//! execution by unblocking Dummynet and virtualizing time to account for
//! the time spent in the checkpoint."
//!
//! This crate is the pure state machine: [`Pipe`]s shape [`Frame`]s, a
//! [`Dummynet`] instance groups pipes and implements suspend / serialize /
//! restore / time-shifted resume, and logs packets that arrive while
//! suspended (the in-flight packets bounded by checkpoint skew, §3.2) for
//! pacing-preserving replay. The event-loop glue lives in the `checkpoint`
//! crate's delay-node host.

mod pipe;

pub use pipe::{EnqueueOutcome, Pipe, PipeConfig, PipeImage, PipeStats};

use ckptstore::{Dec, DecodeError, Enc};
use hwsim::Frame;
use sim::telemetry::names;
use sim::{CounterId, SimRng, SimTime, Telemetry, TraceTag, TrackId};

/// Identifies a pipe within a [`Dummynet`] instance.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PipeId(pub usize);

/// A suspension-window arrival log as [`Dummynet::log`] hands it out and
/// [`Dummynet::install_log`] takes it back: `(offset from the suspension,
/// pipe, frame)` per packet, in arrival order.
pub type PipeLog = Vec<(sim::SimDuration, PipeId, Frame)>;

/// A serialized Dummynet instance: everything needed to rebuild shaping
/// state on restore, with times stored relative to the serialization
/// instant so the image is position-independent in time.
#[derive(Clone)]
pub struct DummynetImage {
    pipes: Vec<PipeImage>,
}

impl DummynetImage {
    /// Approximate byte size of the image (queued packet bytes plus
    /// per-packet and per-pipe metadata), used to cost its transfer.
    pub fn byte_size(&self) -> u64 {
        self.pipes.iter().map(|p| p.byte_size()).sum::<u64>() + 64
    }

    /// Number of packets captured in the image.
    pub fn packets(&self) -> usize {
        self.pipes.iter().map(|p| p.packets()).sum()
    }

    /// Serializes the image; queued frames go into the `frames` side-table
    /// (their payloads are type-erased and cannot byte-serialize).
    pub fn encode_wire(&self, e: &mut Enc, frames: &mut Vec<Frame>) {
        e.seq(self.pipes.len());
        for p in &self.pipes {
            p.encode_wire(e, frames);
        }
    }

    /// Inverse of [`DummynetImage::encode_wire`].
    pub fn decode_wire(d: &mut Dec<'_>, frames: &[Frame]) -> Result<Self, DecodeError> {
        let n = d.seq()?;
        let mut pipes = Vec::with_capacity(n);
        for _ in 0..n {
            pipes.push(PipeImage::decode_wire(d, frames)?);
        }
        Ok(DummynetImage { pipes })
    }
}

/// A packet arrival observed while the instance was suspended.
#[derive(Clone)]
struct LoggedArrival {
    at: SimTime,
    pipe: PipeId,
    frame: Frame,
}

/// A replay instruction produced by [`Dummynet::resume`]: re-enqueue
/// `frame` on `pipe` at absolute time `at`.
pub struct ReplayAction {
    pub at: SimTime,
    pub pipe: PipeId,
    pub frame: Frame,
}

/// A group of pipes plus checkpoint state, mirroring one delay node's
/// Dummynet module.
///
/// # Examples
///
/// ```
/// use dummynet::{Dummynet, PipeConfig};
/// use hwsim::{Frame, NodeAddr};
/// use sim::{SimDuration, SimRng, SimTime};
///
/// let mut dn = Dummynet::new();
/// let pipe = dn.add_pipe(PipeConfig {
///     bandwidth_bps: Some(8_000_000),
///     delay: SimDuration::from_millis(1),
///     plr: 0.0,
///     queue_slots: 50,
/// });
/// let mut rng = SimRng::from_seed(1);
/// let frame = Frame::new(NodeAddr(1), NodeAddr(2), 1000, ());
/// dn.enqueue(SimTime::ZERO, pipe, frame, &mut rng);
/// // 1000 B at 1 B/µs + 1 ms delay = ready at 2 ms.
/// assert_eq!(dn.next_ready(), Some(SimTime::from_nanos(2_000_000)));
/// ```
#[derive(Clone, Default)]
pub struct Dummynet {
    pipes: Vec<Pipe>,
    suspended_at: Option<SimTime>,
    log: Vec<LoggedArrival>,
    /// Total packets logged while suspended, across all checkpoints.
    pub total_logged: u64,
    /// Trace/counter handles, present once a hosting component attaches
    /// the shared registry. Not part of checkpointed state: restore
    /// leaves it empty and the host re-attaches.
    tele: Option<DnTele>,
}

/// Telemetry handles of an attached [`Dummynet`] instance.
#[derive(Clone)]
struct DnTele {
    t: Telemetry,
    track: TrackId,
    ev_suspended: TraceTag,
    ev_drain: TraceTag,
    logged: CounterId,
    replayed: CounterId,
}

impl Dummynet {
    /// Creates an instance with no pipes.
    pub fn new() -> Self {
        Dummynet::default()
    }

    /// Adds a pipe, returning its id.
    pub fn add_pipe(&mut self, cfg: PipeConfig) -> PipeId {
        self.pipes.push(Pipe::new(cfg));
        PipeId(self.pipes.len() - 1)
    }

    /// Number of pipes.
    pub fn pipe_count(&self) -> usize {
        self.pipes.len()
    }

    /// Immutable access to a pipe.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn pipe(&self, id: PipeId) -> &Pipe {
        &self.pipes[id.0]
    }

    /// True while suspended for a checkpoint.
    pub fn suspended(&self) -> bool {
        self.suspended_at.is_some()
    }

    /// Attaches the shared telemetry registry, putting this instance's
    /// suspend/drain activity on the `dummynet` track of `host`.
    /// Idempotent; hosts call it again after a restore.
    pub fn attach_telemetry(&mut self, t: &Telemetry, host: u32) {
        if self.tele.is_some() {
            return;
        }
        self.tele = Some(DnTele {
            t: t.clone(),
            track: t.track(host, names::TRACK_DUMMYNET),
            ev_suspended: t.trace_tag(names::EV_DN_SUSPENDED),
            ev_drain: t.trace_tag(names::EV_DN_DRAIN),
            logged: t.counter(names::DN_LOGGED_FRAMES),
            replayed: t.counter(names::DN_REPLAYED_FRAMES),
        });
    }

    /// Offers a frame to a pipe. While suspended, the frame is logged
    /// instead of shaped (it was physically in flight at checkpoint time).
    pub fn enqueue(
        &mut self,
        now: SimTime,
        id: PipeId,
        frame: Frame,
        rng: &mut SimRng,
    ) -> EnqueueOutcome {
        if self.suspended_at.is_some() {
            self.log.push(LoggedArrival {
                at: now,
                pipe: id,
                frame,
            });
            self.total_logged += 1;
            if let Some(tele) = &self.tele {
                tele.t.inc(tele.logged);
            }
            return EnqueueOutcome::LoggedSuspended;
        }
        self.pipes[id.0].enqueue(now, frame, rng)
    }

    /// Earliest instant any pipe will have a frame ready to emit.
    pub fn next_ready(&self) -> Option<SimTime> {
        self.pipes.iter().filter_map(Pipe::next_ready).min()
    }

    /// Pops every frame ready at `now`, handing each to `sink` tagged with
    /// its pipe: pipes in id order, each pipe's frames in FIFO order.
    /// Nothing is emitted while suspended.
    pub fn drain_ready(&mut self, now: SimTime, mut sink: impl FnMut(PipeId, Frame)) {
        if self.suspended_at.is_some() {
            return;
        }
        for (i, p) in self.pipes.iter_mut().enumerate() {
            p.pop_ready(now, |f| sink(PipeId(i), f));
        }
    }

    /// [`Dummynet::drain_ready`] collected into a vector.
    pub fn pop_ready(&mut self, now: SimTime) -> Vec<(PipeId, Frame)> {
        let mut out = Vec::new();
        self.drain_ready(now, |pipe, frame| out.push((pipe, frame)));
        out
    }

    /// Suspends shaping: no frames are emitted, arrivals are logged.
    ///
    /// # Panics
    ///
    /// Panics if already suspended.
    pub fn suspend(&mut self, now: SimTime) {
        assert!(self.suspended_at.is_none(), "double suspend");
        self.suspended_at = Some(now);
        if let Some(tele) = &self.tele {
            tele.t.trace_begin(tele.track, tele.ev_suspended, now, 0);
        }
    }

    /// Serializes the full pipe hierarchy non-destructively.
    ///
    /// # Panics
    ///
    /// Panics if not suspended; the paper serializes only suspended state.
    pub fn serialize(&self, now: SimTime) -> DummynetImage {
        let at = self.suspended_at.expect("serialize while running");
        debug_assert!(at <= now);
        DummynetImage {
            pipes: self.pipes.iter().map(|p| p.serialize(at)).collect(),
        }
    }

    /// Resumes after a checkpoint: shifts all internal deadlines by the
    /// downtime (time virtualization) and converts logged arrivals into
    /// replay actions that preserve their original pacing relative to the
    /// suspension instant.
    ///
    /// # Panics
    ///
    /// Panics if not suspended.
    pub fn resume(&mut self, now: SimTime) -> Vec<ReplayAction> {
        let at = self.suspended_at.take().expect("resume while running");
        let downtime = now.saturating_duration_since(at);
        for p in &mut self.pipes {
            p.shift(downtime);
        }
        let log = std::mem::take(&mut self.log);
        let actions: Vec<ReplayAction> = log
            .into_iter()
            .map(|l| ReplayAction {
                at: l.at + downtime,
                pipe: l.pipe,
                frame: l.frame,
            })
            .collect();
        if let Some(tele) = &self.tele {
            tele.t
                .trace_end(tele.track, tele.ev_suspended, now, downtime.as_nanos() as i64);
            if !actions.is_empty() {
                // The drain window is fully determined here: it spans
                // from the resume to the last (time-shifted) replay.
                let n = actions.len() as i64;
                let last = actions.iter().map(|a| a.at).max().unwrap_or(now).max(now);
                tele.t.add(tele.replayed, n as u64);
                tele.t.trace_begin(tele.track, tele.ev_drain, now, n);
                tele.t.trace_end(tele.track, tele.ev_drain, last, n);
            }
        }
        actions
    }

    /// The suspension-window arrival log as offsets from the suspension
    /// instant, copied: swap-out and snapshots preserve it while the
    /// instance keeps its own (§3.2).
    ///
    /// # Panics
    ///
    /// Panics if not suspended.
    pub fn log(&self) -> PipeLog {
        let at = self.suspended_at.expect("log only exists while suspended");
        self.log
            .iter()
            .map(|l| (l.at.saturating_duration_since(at), l.pipe, l.frame.clone()))
            .collect()
    }

    /// Installs a preserved suspension log into a suspended instance; the
    /// entries replay (with original pacing) at the next [`Dummynet::resume`].
    ///
    /// # Panics
    ///
    /// Panics if not suspended.
    pub fn install_log(&mut self, log: PipeLog) {
        let at = self.suspended_at.expect("instance must be suspended");
        self.log = log
            .into_iter()
            .map(|(off, pipe, frame)| LoggedArrival {
                at: at + off,
                pipe,
                frame,
            })
            .collect();
    }

    /// Rebuilds an instance from an image at time `now` (restore path of a
    /// swap-in or time-travel). Deadlines stored as offsets in the image
    /// become absolute again relative to `now`.
    pub fn restore(image: &DummynetImage, now: SimTime) -> Self {
        Dummynet {
            pipes: image.pipes.iter().map(|pi| Pipe::restore(pi, now)).collect(),
            suspended_at: None,
            log: Vec::new(),
            total_logged: 0,
            tele: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwsim::NodeAddr;
    use sim::SimDuration;

    fn frame(bytes: u32, tag: u32) -> Frame {
        Frame::new(NodeAddr(1), NodeAddr(2), bytes, tag)
    }

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    fn shaped_cfg() -> PipeConfig {
        PipeConfig {
            bandwidth_bps: Some(8_000_000), // 1 byte/µs
            delay: SimDuration::from_millis(1),
            plr: 0.0,
            queue_slots: 50,
        }
    }

    #[test]
    fn frames_emerge_shaped_and_delayed() {
        let mut dn = Dummynet::new();
        let p = dn.add_pipe(shaped_cfg());
        let mut rng = SimRng::from_seed(1);
        // 1000-byte frame: 1000 µs serialization + 1000 µs delay.
        let out = dn.enqueue(t(0), p, frame(1000, 0), &mut rng);
        assert!(matches!(out, EnqueueOutcome::Queued { .. }));
        assert_eq!(dn.next_ready(), Some(t(2000)));
        assert!(dn.pop_ready(t(1999)).is_empty());
        let ready = dn.pop_ready(t(2000));
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].0, p);
    }

    #[test]
    fn back_to_back_frames_paced_at_bandwidth() {
        let mut dn = Dummynet::new();
        let p = dn.add_pipe(shaped_cfg());
        let mut rng = SimRng::from_seed(1);
        for i in 0..3u32 {
            dn.enqueue(t(0), p, frame(1000, i), &mut rng);
        }
        // Departures at 1000, 2000, 3000 µs; ready at +1 ms each.
        for (i, expect) in [(0u32, 2000u64), (1, 3000), (2, 4000)] {
            let got = dn.pop_ready(t(expect));
            assert_eq!(got.len(), 1, "frame {i} at {expect}µs");
            assert_eq!(*got[0].1.payload::<u32>().unwrap(), i);
        }
    }

    #[test]
    fn drain_ready_visits_pipes_in_id_order_and_is_silent_while_suspended() {
        let mut dn = Dummynet::new();
        let slow = dn.add_pipe(shaped_cfg());
        let fast = dn.add_pipe(PipeConfig::passthrough());
        let mut rng = SimRng::from_seed(1);
        dn.enqueue(t(0), fast, frame(100, 10), &mut rng);
        dn.enqueue(t(0), slow, frame(1000, 20), &mut rng); // ready at 2000 µs
        dn.enqueue(t(5), fast, frame(100, 11), &mut rng);
        let mut twin = dn.clone();

        dn.suspend(t(10));
        dn.drain_ready(t(5_000), |_, _| panic!("suspended: nothing emits"));
        assert!(dn.pop_ready(t(5_000)).is_empty());
        let _ = dn.resume(t(10));

        let mut got = Vec::new();
        dn.drain_ready(t(5_000), |p, f| got.push((p, *f.payload::<u32>().unwrap())));
        assert_eq!(got, vec![(slow, 20), (fast, 10), (fast, 11)]);
        let popped: Vec<(PipeId, u32)> = twin
            .pop_ready(t(5_000))
            .iter()
            .map(|(p, f)| (*p, *f.payload::<u32>().unwrap()))
            .collect();
        assert_eq!(popped, got, "the Vec form is the sink form, collected");
    }

    #[test]
    fn suspended_arrivals_are_logged_and_replayed_with_pacing() {
        let mut dn = Dummynet::new();
        let p = dn.add_pipe(shaped_cfg());
        let mut rng = SimRng::from_seed(1);
        dn.suspend(t(100));
        assert!(matches!(
            dn.enqueue(t(150), p, frame(100, 1), &mut rng),
            EnqueueOutcome::LoggedSuspended
        ));
        assert!(matches!(
            dn.enqueue(t(250), p, frame(100, 2), &mut rng),
            EnqueueOutcome::LoggedSuspended
        ));
        let actions = dn.resume(t(10_100));
        assert_eq!(actions.len(), 2);
        // Original offsets from suspension: +50 µs and +150 µs.
        assert_eq!(actions[0].at, t(10_150));
        assert_eq!(actions[1].at, t(10_250));
        assert_eq!(dn.total_logged, 2);
    }

    #[test]
    fn resume_shifts_queued_deadlines_by_downtime() {
        let mut dn = Dummynet::new();
        let p = dn.add_pipe(shaped_cfg());
        let mut rng = SimRng::from_seed(1);
        dn.enqueue(t(0), p, frame(1000, 7), &mut rng); // ready at 2000 µs
        dn.suspend(t(500));
        assert!(dn.pop_ready(t(5_000)).is_empty(), "suspended: nothing emits");
        let _ = dn.resume(t(20_500)); // 20 ms downtime
        assert_eq!(dn.next_ready(), Some(t(22_000)), "deadline shifted by downtime");
    }

    #[test]
    fn serialize_restore_preserves_queue_contents_and_relative_times() {
        let mut dn = Dummynet::new();
        let p = dn.add_pipe(shaped_cfg());
        let mut rng = SimRng::from_seed(1);
        dn.enqueue(t(0), p, frame(1000, 1), &mut rng); // ready 2000
        dn.enqueue(t(0), p, frame(1000, 2), &mut rng); // ready 3000
        dn.suspend(t(500));
        let img = dn.serialize(t(500));
        assert_eq!(img.packets(), 2);
        assert!(img.byte_size() >= 2000);

        // Restore in a fresh "machine" at t = 1 s.
        let mut dn2 = Dummynet::restore(&img, t(1_000_000));
        // Offsets were 1500/2500 µs from suspension.
        assert_eq!(dn2.next_ready(), Some(t(1_001_500)));
        let got = dn2.pop_ready(t(1_002_500));
        assert_eq!(got.len(), 2);
        assert_eq!(*got[0].1.payload::<u32>().unwrap(), 1);
        assert_eq!(*got[1].1.payload::<u32>().unwrap(), 2);
    }

    #[test]
    fn image_wire_round_trip_preserves_schedule() {
        let mut dn = Dummynet::new();
        let p = dn.add_pipe(shaped_cfg());
        let mut rng = SimRng::from_seed(1);
        dn.enqueue(t(0), p, frame(1000, 1), &mut rng); // ready 2000
        dn.enqueue(t(0), p, frame(1000, 2), &mut rng); // ready 3000
        dn.suspend(t(500));
        let img = dn.serialize(t(500));

        use ckptstore::{Dec, Enc};
        let mut frames = Vec::new();
        let mut e = Enc::new();
        img.encode_wire(&mut e, &mut frames);
        let bytes = e.into_bytes();
        assert_eq!(frames.len(), 2);
        let mut d = Dec::new(&bytes);
        let back = DummynetImage::decode_wire(&mut d, &frames).unwrap();
        assert_eq!(d.remaining(), 0);
        assert_eq!(back.packets(), 2);
        assert_eq!(back.byte_size(), img.byte_size());

        // The decoded image restores with the same relative schedule.
        let mut dn2 = Dummynet::restore(&back, t(1_000_000));
        assert_eq!(dn2.next_ready(), Some(t(1_001_500)));
        let got = dn2.pop_ready(t(1_002_500));
        assert_eq!(got.len(), 2);
        assert_eq!(*got[0].1.payload::<u32>().unwrap(), 1);
        assert_eq!(*got[1].1.payload::<u32>().unwrap(), 2);

        // A frame index outside the side-table is a typed error.
        let mut d = Dec::new(&bytes);
        assert!(DummynetImage::decode_wire(&mut d, &frames[..1]).is_err());
    }

    #[test]
    fn serialize_is_nondestructive() {
        let mut dn = Dummynet::new();
        let p = dn.add_pipe(shaped_cfg());
        let mut rng = SimRng::from_seed(1);
        dn.enqueue(t(0), p, frame(1000, 1), &mut rng);
        dn.suspend(t(100));
        let _ = dn.serialize(t(100));
        let _ = dn.resume(t(100));
        assert_eq!(dn.pop_ready(t(2_000)).len(), 1, "packet survived serialization");
    }

    #[test]
    #[should_panic(expected = "double suspend")]
    fn double_suspend_panics() {
        let mut dn = Dummynet::new();
        dn.suspend(t(1));
        dn.suspend(t(2));
    }
}
