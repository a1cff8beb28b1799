//! Shadow model of the coordinator's two-phase epoch protocol.
//!
//! [`ShadowEpochState`] is an *independent* re-implementation of the
//! protocol's state machine, stepped from the per-node `shadow.*` trace
//! instants the coordinator emits on its timeline track. Because the
//! shadow never shares code or state with the coordinator, a bookkeeping
//! bug in either one surfaces as a divergence between them — the
//! FoundationDB-style safety net behind the randomized fault explorer.
//!
//! Invariants checked after every transition:
//!
//! - **Ack-complete commits** — a clean commit requires every
//!   participant to have acked and reported done.
//! - **Exact degraded exclusion** — a degraded commit excludes exactly
//!   the nodes that never acked (presumed crashed), at least one node,
//!   and never all of them; every survivor reported done.
//! - **Unique terminal outcome** — no epoch is both committed and
//!   aborted, and no epoch terminates twice.
//! - **Monotone, non-overlapping epochs** — per group, epoch ids only
//!   grow and a new round cannot publish while one is undecided.
//! - **Resume discipline** — resumes follow commits; aborted epochs
//!   never resume.
//! - **No wedged epochs** — at [`ShadowEpochState::finish`], every
//!   published epoch has reached a terminal outcome.

use std::collections::{HashMap, HashSet};

use sim::telemetry::names;
use sim::TraceEvent;

/// Bits of the packed shadow `arg` holding the node address.
const NODE_BITS: u32 = 20;
/// Bits holding the epoch id.
const EPOCH_BITS: u32 = 24;

/// Packs `(group, epoch, node)` into a trace-event `arg`.
///
/// Layout (low to high): 20 bits node, 24 bits epoch, 19 bits group.
/// All three are far below their widths in any simulated testbed.
pub fn pack(group: u32, epoch: u64, node: u32) -> i64 {
    debug_assert!(node < (1 << NODE_BITS), "node {node} overflows shadow arg");
    debug_assert!(epoch < (1 << EPOCH_BITS), "epoch {epoch} overflows shadow arg");
    ((group as i64) << (NODE_BITS + EPOCH_BITS))
        | (((epoch as i64) & ((1 << EPOCH_BITS) - 1)) << NODE_BITS)
        | ((node as i64) & ((1 << NODE_BITS) - 1))
}

/// Inverse of [`pack`].
pub fn unpack(arg: i64) -> (u32, u64, u32) {
    let node = (arg & ((1 << NODE_BITS) - 1)) as u32;
    let epoch = ((arg >> NODE_BITS) & ((1 << EPOCH_BITS) - 1)) as u64;
    let group = (arg >> (NODE_BITS + EPOCH_BITS)) as u32;
    (group, epoch, node)
}

/// Terminal fate of an epoch, as the shadow saw it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShadowOutcome {
    /// Clean commit: every participant acked and reported done.
    Committed,
    /// Commit with the never-acked set excluded.
    Degraded,
    /// Deadline abort.
    Aborted,
    /// Round abandoned (its state was replaced behind the protocol).
    Abandoned,
}

/// One protocol-invariant violation. The explorer treats any of these
/// as a failed iteration and dumps the full trace for replay.
#[derive(Clone, Debug, PartialEq)]
pub enum ShadowViolation {
    /// A new epoch published while the previous one was undecided.
    OverlappingRound { group: u32, open_epoch: u64, new_epoch: u64 },
    /// Epoch ids moved backwards (or repeated) within a group.
    NonMonotoneEpoch { group: u32, last: u64, epoch: u64 },
    /// An ack was accepted from a node outside the epoch's barrier.
    AckOutsideRound { group: u32, epoch: u64, node: u32 },
    /// A done report was accepted from a node outside the barrier.
    DoneOutsideRound { group: u32, epoch: u64, node: u32 },
    /// A done report was accepted from an excluded (presumed crashed)
    /// node — its state must not enter the global checkpoint.
    DoneFromExcluded { group: u32, epoch: u64, node: u32 },
    /// A node that acked (provably alive) was excluded: degrading away
    /// live state breaks global consistency.
    ExcludedLiveNode { group: u32, epoch: u64, node: u32 },
    /// A clean commit with acks or done reports missing.
    CommitIncomplete { group: u32, epoch: u64, missing: Vec<u32> },
    /// The commit event's excluded count disagrees with the exclusions
    /// the shadow observed.
    ExclusionMismatch { group: u32, epoch: u64, reported: u32, observed: u32 },
    /// A degraded commit that excluded every participant (nothing was
    /// actually checkpointed) — must abort instead.
    DegradedToEmpty { group: u32, epoch: u64 },
    /// An epoch reached a second terminal outcome.
    DoubleTerminal {
        group: u32,
        epoch: u64,
        first: ShadowOutcome,
        second: ShadowOutcome,
    },
    /// A resume published for an epoch that did not commit.
    ResumeWithoutCommit { group: u32, epoch: u64 },
    /// A terminal event for an epoch the shadow never saw publish.
    TerminalWithoutRound { group: u32, epoch: u64 },
    /// A recovering coordinator classified a round the shadow does not
    /// consider open — recovery invented (or resurrected) an epoch.
    RecoverOutsideRound { group: u32, epoch: u64 },
    /// An epoch still undecided when the run ended.
    Wedged { group: u32, epoch: u64 },
}

impl std::fmt::Display for ShadowViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use ShadowViolation::*;
        match self {
            OverlappingRound { group, open_epoch, new_epoch } => write!(
                f,
                "group {group}: epoch {new_epoch} published while epoch {open_epoch} undecided"
            ),
            NonMonotoneEpoch { group, last, epoch } => {
                write!(f, "group {group}: epoch {epoch} published after epoch {last}")
            }
            AckOutsideRound { group, epoch, node } => {
                write!(f, "group {group} epoch {epoch}: ack from non-participant node {node}")
            }
            DoneOutsideRound { group, epoch, node } => {
                write!(f, "group {group} epoch {epoch}: done from non-participant node {node}")
            }
            DoneFromExcluded { group, epoch, node } => {
                write!(f, "group {group} epoch {epoch}: done accepted from excluded node {node}")
            }
            ExcludedLiveNode { group, epoch, node } => {
                write!(f, "group {group} epoch {epoch}: excluded node {node} had acked")
            }
            CommitIncomplete { group, epoch, missing } => write!(
                f,
                "group {group} epoch {epoch}: clean commit missing {missing:?}"
            ),
            ExclusionMismatch { group, epoch, reported, observed } => write!(
                f,
                "group {group} epoch {epoch}: commit reports {reported} excluded, shadow saw {observed}"
            ),
            DegradedToEmpty { group, epoch } => {
                write!(f, "group {group} epoch {epoch}: degraded commit excluded every node")
            }
            DoubleTerminal { group, epoch, first, second } => write!(
                f,
                "group {group} epoch {epoch}: terminal {second:?} after {first:?}"
            ),
            ResumeWithoutCommit { group, epoch } => {
                write!(f, "group {group} epoch {epoch}: resume without a commit")
            }
            TerminalWithoutRound { group, epoch } => {
                write!(f, "group {group} epoch {epoch}: terminal event for unknown round")
            }
            RecoverOutsideRound { group, epoch } => {
                write!(f, "group {group} epoch {epoch}: recovery classified a round never published")
            }
            Wedged { group, epoch } => {
                write!(f, "group {group} epoch {epoch}: undecided at end of run")
            }
        }
    }
}

/// One in-flight epoch as the shadow tracks it.
#[derive(Clone, Debug)]
struct EpochShadow {
    epoch: u64,
    participants: HashSet<u32>,
    acked: HashSet<u32>,
    done: HashSet<u32>,
    excluded: HashSet<u32>,
    outcome: Option<ShadowOutcome>,
}

/// Per-group shadow state.
#[derive(Clone, Debug, Default)]
struct GroupShadow {
    current: Option<EpochShadow>,
    last_epoch: u64,
    /// Terminal outcomes of closed epochs, for double-terminal checks.
    closed: HashMap<u64, ShadowOutcome>,
}

/// The shadow state machine. Feed it the coordinator's trace events (in
/// ring order) with [`ShadowEpochState::step`]; collected violations are
/// in [`ShadowEpochState::violations`].
#[derive(Clone, Default)]
pub struct ShadowEpochState {
    groups: HashMap<u32, GroupShadow>,
    violations: Vec<ShadowViolation>,
    /// Epochs that reached a terminal outcome under the shadow's eyes.
    pub epochs_checked: u64,
}

impl ShadowEpochState {
    /// A fresh shadow with no protocol knowledge yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replays a full event slice and runs the end-of-run checks.
    /// Convenience for `new` + `step`* + `finish`.
    pub fn replay(events: &[TraceEvent]) -> Vec<ShadowViolation> {
        let mut s = ShadowEpochState::new();
        for ev in events {
            s.step(ev);
        }
        s.finish();
        s.violations
    }

    /// Violations found so far.
    pub fn violations(&self) -> &[ShadowViolation] {
        &self.violations
    }

    /// Steps the model over one trace event; non-shadow events are
    /// ignored, so the whole ring can be fed unfiltered.
    pub fn step(&mut self, ev: &TraceEvent) {
        if !ev.name.starts_with("shadow.") {
            return;
        }
        let (group, epoch, node) = unpack(ev.arg);
        match ev.name {
            names::EV_SHADOW_JOIN => self.on_join(group, epoch, node),
            names::EV_SHADOW_ACK => self.on_ack(group, epoch, node),
            names::EV_SHADOW_DONE => self.on_done(group, epoch, node),
            names::EV_SHADOW_EXCLUDE => self.on_exclude(group, epoch, node),
            names::EV_SHADOW_COMMIT => self.on_commit(group, epoch, node),
            names::EV_SHADOW_ABORT => self.on_terminal(group, epoch, ShadowOutcome::Aborted),
            names::EV_SHADOW_ABANDON => self.on_terminal(group, epoch, ShadowOutcome::Abandoned),
            names::EV_SHADOW_RESUME => self.on_resume(group, epoch),
            names::EV_SHADOW_REJOIN => {} // Membership change; no epoch state.
            names::EV_SHADOW_RECOVER => self.on_recover(group, epoch),
            _ => {}
        }
    }

    /// End-of-run check: every published epoch must have terminated.
    /// Call once after the simulation drained.
    pub fn finish(&mut self) {
        let mut wedged = Vec::new();
        for (g, gs) in &self.groups {
            if let Some(cur) = &gs.current {
                if cur.outcome.is_none() {
                    wedged.push(ShadowViolation::Wedged { group: *g, epoch: cur.epoch });
                }
            }
        }
        wedged.sort_by_key(|v| match v {
            ShadowViolation::Wedged { group, epoch } => (*group, *epoch),
            _ => unreachable!(),
        });
        self.violations.extend(wedged);
    }

    fn group(&mut self, group: u32) -> &mut GroupShadow {
        self.groups.entry(group).or_default()
    }

    fn on_join(&mut self, group: u32, epoch: u64, node: u32) {
        let gs = self.groups.entry(group).or_default();
        if let Some(cur) = gs.current.as_mut() {
            if cur.epoch == epoch {
                // Another participant of the same publication burst.
                cur.participants.insert(node);
                return;
            }
        }
        // First join of a new epoch: the previous round must be decided
        // (a held-but-committed round may legally be superseded).
        if let Some(prev) = gs.current.take() {
            match prev.outcome {
                None => self.violations.push(ShadowViolation::OverlappingRound {
                    group,
                    open_epoch: prev.epoch,
                    new_epoch: epoch,
                }),
                Some(o) => {
                    gs.closed.insert(prev.epoch, o);
                }
            }
        }
        let gs = self.groups.entry(group).or_default();
        if epoch <= gs.last_epoch {
            let last = gs.last_epoch;
            self.violations
                .push(ShadowViolation::NonMonotoneEpoch { group, last, epoch });
        }
        let gs = self.groups.entry(group).or_default();
        gs.last_epoch = gs.last_epoch.max(epoch);
        gs.current = Some(EpochShadow {
            epoch,
            participants: HashSet::from([node]),
            acked: HashSet::new(),
            done: HashSet::new(),
            excluded: HashSet::new(),
            outcome: None,
        });
    }

    /// The open round of `group` iff it is `epoch`. A free function over
    /// the field so callers can push violations while holding it.
    fn current_of(
        groups: &mut HashMap<u32, GroupShadow>,
        group: u32,
        epoch: u64,
    ) -> Option<&mut EpochShadow> {
        groups
            .get_mut(&group)
            .and_then(|gs| gs.current.as_mut())
            .filter(|cur| cur.epoch == epoch)
    }

    fn on_ack(&mut self, group: u32, epoch: u64, node: u32) {
        match Self::current_of(&mut self.groups, group, epoch) {
            Some(cur) if cur.participants.contains(&node) => {
                cur.acked.insert(node);
            }
            _ => self
                .violations
                .push(ShadowViolation::AckOutsideRound { group, epoch, node }),
        }
    }

    fn on_done(&mut self, group: u32, epoch: u64, node: u32) {
        match Self::current_of(&mut self.groups, group, epoch) {
            Some(cur) if cur.excluded.contains(&node) => {
                self.violations
                    .push(ShadowViolation::DoneFromExcluded { group, epoch, node });
            }
            Some(cur) if cur.participants.contains(&node) => {
                // Done implies ack (the report proves delivery).
                cur.acked.insert(node);
                cur.done.insert(node);
            }
            _ => self
                .violations
                .push(ShadowViolation::DoneOutsideRound { group, epoch, node }),
        }
    }

    fn on_exclude(&mut self, group: u32, epoch: u64, node: u32) {
        match Self::current_of(&mut self.groups, group, epoch) {
            Some(cur) if cur.participants.contains(&node) => {
                let acked = cur.acked.contains(&node);
                cur.excluded.insert(node);
                if acked {
                    self.violations
                        .push(ShadowViolation::ExcludedLiveNode { group, epoch, node });
                }
            }
            _ => self
                .violations
                .push(ShadowViolation::DoneOutsideRound { group, epoch, node }),
        }
    }

    fn on_commit(&mut self, group: u32, epoch: u64, reported_excluded: u32) {
        let Some(cur) = Self::current_of(&mut self.groups, group, epoch) else {
            return self.on_terminal_unknown(group, epoch, ShadowOutcome::Committed);
        };
        if let Some(first) = cur.outcome {
            let second = if reported_excluded == 0 {
                ShadowOutcome::Committed
            } else {
                ShadowOutcome::Degraded
            };
            self.violations
                .push(ShadowViolation::DoubleTerminal { group, epoch, first, second });
            return;
        }
        let observed = cur.excluded.len() as u32;
        if observed != reported_excluded {
            self.violations.push(ShadowViolation::ExclusionMismatch {
                group,
                epoch,
                reported: reported_excluded,
                observed,
            });
        }
        if observed == 0 {
            // Clean commit: ack-complete and done-complete.
            let mut missing: Vec<u32> = cur
                .participants
                .iter()
                .filter(|n| !cur.acked.contains(n) || !cur.done.contains(n))
                .copied()
                .collect();
            missing.sort_unstable();
            cur.outcome = Some(ShadowOutcome::Committed);
            if !missing.is_empty() {
                self.violations
                    .push(ShadowViolation::CommitIncomplete { group, epoch, missing });
            }
        } else {
            // Degraded: some — but not all — participants excluded, and
            // every survivor reported done. (Excluded-yet-acked nodes
            // were already flagged by `on_exclude`.)
            if cur.excluded.len() == cur.participants.len() {
                cur.outcome = Some(ShadowOutcome::Degraded);
                self.violations
                    .push(ShadowViolation::DegradedToEmpty { group, epoch });
                return;
            }
            let mut missing: Vec<u32> = cur
                .participants
                .iter()
                .filter(|n| !cur.excluded.contains(n) && !cur.done.contains(n))
                .copied()
                .collect();
            missing.sort_unstable();
            cur.outcome = Some(ShadowOutcome::Degraded);
            if !missing.is_empty() {
                self.violations
                    .push(ShadowViolation::CommitIncomplete { group, epoch, missing });
            }
        }
        self.epochs_checked += 1;
    }

    fn on_terminal(&mut self, group: u32, epoch: u64, outcome: ShadowOutcome) {
        let Some(cur) = Self::current_of(&mut self.groups, group, epoch) else {
            return self.on_terminal_unknown(group, epoch, outcome);
        };
        if let Some(first) = cur.outcome {
            self.violations
                .push(ShadowViolation::DoubleTerminal { group, epoch, first, second: outcome });
            return;
        }
        cur.outcome = Some(outcome);
        self.epochs_checked += 1;
        // Aborted/abandoned rounds close immediately: no resume follows.
        let gs = self.group(group);
        if let Some(cur) = gs.current.take() {
            gs.closed.insert(cur.epoch, outcome);
        }
    }

    /// A terminal event with no matching open round: either a protocol
    /// bug, or a second terminal for an already-closed epoch.
    fn on_terminal_unknown(&mut self, group: u32, epoch: u64, outcome: ShadowOutcome) {
        let gs = self.group(group);
        if let Some(&first) = gs.closed.get(&epoch) {
            self.violations
                .push(ShadowViolation::DoubleTerminal { group, epoch, first, second: outcome });
        } else {
            self.violations
                .push(ShadowViolation::TerminalWithoutRound { group, epoch });
        }
    }

    /// A restarted coordinator announced its WAL-derived classification
    /// of this round (the node field carries the classification code and
    /// is not checked here). The round itself must still be open in the
    /// shadow's eyes: the terminal events recovery emits next are judged
    /// by the ordinary invariants.
    fn on_recover(&mut self, group: u32, epoch: u64) {
        if Self::current_of(&mut self.groups, group, epoch).is_none() {
            self.violations
                .push(ShadowViolation::RecoverOutsideRound { group, epoch });
        }
    }

    fn on_resume(&mut self, group: u32, epoch: u64) {
        let gs = self.group(group);
        match &gs.current {
            Some(cur) if cur.epoch == epoch => match cur.outcome {
                Some(ShadowOutcome::Committed) | Some(ShadowOutcome::Degraded) => {
                    let cur = gs.current.take().expect("checked");
                    gs.closed.insert(cur.epoch, cur.outcome.expect("checked"));
                }
                _ => self
                    .violations
                    .push(ShadowViolation::ResumeWithoutCommit { group, epoch }),
            },
            _ => {
                // Resume for a closed epoch: legal only if that epoch
                // committed (e.g. resume repeats on a lossy LAN would be
                // published together, but a *later* duplicate is fine).
                match gs.closed.get(&epoch) {
                    Some(ShadowOutcome::Committed) | Some(ShadowOutcome::Degraded) => {}
                    _ => self
                        .violations
                        .push(ShadowViolation::ResumeWithoutCommit { group, epoch }),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::{SimTime, TracePhase};

    fn ev(name: &'static str, arg: i64) -> TraceEvent {
        TraceEvent {
            at: SimTime::ZERO,
            host: 100,
            subsystem: "coordinator",
            name,
            phase: TracePhase::Instant,
            arg,
        }
    }

    fn join(g: u32, e: u64, n: u32) -> TraceEvent {
        ev(names::EV_SHADOW_JOIN, pack(g, e, n))
    }
    fn ack(g: u32, e: u64, n: u32) -> TraceEvent {
        ev(names::EV_SHADOW_ACK, pack(g, e, n))
    }
    fn done(g: u32, e: u64, n: u32) -> TraceEvent {
        ev(names::EV_SHADOW_DONE, pack(g, e, n))
    }
    fn exclude(g: u32, e: u64, n: u32) -> TraceEvent {
        ev(names::EV_SHADOW_EXCLUDE, pack(g, e, n))
    }
    fn commit(g: u32, e: u64, excluded: u32) -> TraceEvent {
        ev(names::EV_SHADOW_COMMIT, pack(g, e, excluded))
    }
    fn abort(g: u32, e: u64) -> TraceEvent {
        ev(names::EV_SHADOW_ABORT, pack(g, e, 0))
    }
    fn resume(g: u32, e: u64) -> TraceEvent {
        ev(names::EV_SHADOW_RESUME, pack(g, e, 0))
    }
    fn recover(g: u32, e: u64, code: u32) -> TraceEvent {
        ev(names::EV_SHADOW_RECOVER, pack(g, e, code))
    }

    #[test]
    fn pack_round_trips() {
        for &(g, e, n) in &[(0u32, 0u64, 0u32), (3, 17, 42), (511, 1 << 20, 99_999)] {
            assert_eq!(unpack(pack(g, e, n)), (g, e, n));
        }
    }

    #[test]
    fn clean_epoch_passes() {
        let evs = vec![
            join(0, 1, 1),
            join(0, 1, 2),
            ack(0, 1, 1),
            ack(0, 1, 2),
            done(0, 1, 1),
            done(0, 1, 2),
            commit(0, 1, 0),
            resume(0, 1),
        ];
        assert_eq!(ShadowEpochState::replay(&evs), vec![]);
    }

    #[test]
    fn implicit_ack_via_done_passes() {
        let evs = vec![
            join(0, 1, 1),
            join(0, 1, 2),
            done(0, 1, 1),
            done(0, 1, 2),
            commit(0, 1, 0),
            resume(0, 1),
        ];
        assert_eq!(ShadowEpochState::replay(&evs), vec![]);
    }

    #[test]
    fn commit_without_done_is_flagged() {
        let evs = vec![
            join(0, 1, 1),
            join(0, 1, 2),
            done(0, 1, 1),
            commit(0, 1, 0),
            resume(0, 1),
        ];
        let v = ShadowEpochState::replay(&evs);
        assert_eq!(
            v,
            vec![ShadowViolation::CommitIncomplete { group: 0, epoch: 1, missing: vec![2] }]
        );
    }

    #[test]
    fn degraded_epoch_passes_when_exclusion_is_exact() {
        let evs = vec![
            join(0, 1, 1),
            join(0, 1, 2),
            join(0, 1, 3),
            done(0, 1, 1),
            done(0, 1, 3),
            exclude(0, 1, 2),
            commit(0, 1, 1),
            resume(0, 1),
        ];
        assert_eq!(ShadowEpochState::replay(&evs), vec![]);
    }

    #[test]
    fn excluding_an_acked_node_is_flagged() {
        let evs = vec![
            join(0, 1, 1),
            join(0, 1, 2),
            ack(0, 1, 2),
            done(0, 1, 1),
            exclude(0, 1, 2),
            commit(0, 1, 1),
            resume(0, 1),
        ];
        let v = ShadowEpochState::replay(&evs);
        assert_eq!(
            v,
            vec![ShadowViolation::ExcludedLiveNode { group: 0, epoch: 1, node: 2 }]
        );
    }

    #[test]
    fn exclusion_count_mismatch_is_flagged() {
        let evs = vec![
            join(0, 1, 1),
            join(0, 1, 2),
            done(0, 1, 1),
            done(0, 1, 2),
            commit(0, 1, 1), // Claims one excluded; shadow saw none.
            resume(0, 1),
        ];
        let v = ShadowEpochState::replay(&evs);
        assert!(v.contains(&ShadowViolation::ExclusionMismatch {
            group: 0,
            epoch: 1,
            reported: 1,
            observed: 0,
        }));
    }

    #[test]
    fn commit_then_abort_is_double_terminal() {
        let evs = vec![
            join(0, 1, 1),
            done(0, 1, 1),
            commit(0, 1, 0),
            resume(0, 1),
            abort(0, 1),
        ];
        let v = ShadowEpochState::replay(&evs);
        assert_eq!(
            v,
            vec![ShadowViolation::DoubleTerminal {
                group: 0,
                epoch: 1,
                first: ShadowOutcome::Committed,
                second: ShadowOutcome::Aborted,
            }]
        );
    }

    #[test]
    fn aborted_epoch_resuming_is_flagged() {
        let evs = vec![join(0, 1, 1), abort(0, 1), resume(0, 1)];
        let v = ShadowEpochState::replay(&evs);
        assert_eq!(v, vec![ShadowViolation::ResumeWithoutCommit { group: 0, epoch: 1 }]);
    }

    #[test]
    fn overlapping_rounds_are_flagged() {
        let evs = vec![join(0, 1, 1), join(0, 2, 1)];
        let v = ShadowEpochState::replay(&evs);
        assert!(v.contains(&ShadowViolation::OverlappingRound {
            group: 0,
            open_epoch: 1,
            new_epoch: 2,
        }));
    }

    #[test]
    fn non_monotone_epoch_is_flagged() {
        let evs = vec![
            join(0, 5, 1),
            done(0, 5, 1),
            commit(0, 5, 0),
            resume(0, 5),
            join(0, 3, 1),
            done(0, 3, 1),
            commit(0, 3, 0),
            resume(0, 3),
        ];
        let v = ShadowEpochState::replay(&evs);
        assert!(v.contains(&ShadowViolation::NonMonotoneEpoch { group: 0, last: 5, epoch: 3 }));
    }

    #[test]
    fn undecided_epoch_wedges_at_finish() {
        let evs = vec![join(0, 1, 1), ack(0, 1, 1)];
        let v = ShadowEpochState::replay(&evs);
        assert_eq!(v, vec![ShadowViolation::Wedged { group: 0, epoch: 1 }]);
    }

    #[test]
    fn groups_are_independent() {
        let evs = vec![
            join(0, 1, 1),
            join(1, 2, 5),
            done(0, 1, 1),
            done(1, 2, 5),
            commit(1, 2, 0),
            resume(1, 2),
            commit(0, 1, 0),
            resume(0, 1),
        ];
        assert_eq!(ShadowEpochState::replay(&evs), vec![]);
    }

    #[test]
    fn non_shadow_events_are_ignored() {
        let evs = vec![
            ev("epoch.notify", 1),
            join(0, 1, 1),
            ev("vm.freeze", 7),
            done(0, 1, 1),
            commit(0, 1, 0),
            resume(0, 1),
        ];
        assert_eq!(ShadowEpochState::replay(&evs), vec![]);
    }

    #[test]
    fn recovery_abort_of_an_open_round_passes() {
        let evs = vec![
            join(0, 1, 1),
            join(0, 1, 2),
            ack(0, 1, 1),
            recover(0, 1, 3), // crash + restart: classified as abort
            abort(0, 1),
        ];
        assert_eq!(ShadowEpochState::replay(&evs), vec![]);
    }

    #[test]
    fn recovery_roll_forward_passes() {
        let evs = vec![
            join(0, 1, 1),
            join(0, 1, 2),
            done(0, 1, 1),
            done(0, 1, 2),
            recover(0, 1, 1), // barrier was complete: roll forward
            commit(0, 1, 0),
            resume(0, 1),
        ];
        assert_eq!(ShadowEpochState::replay(&evs), vec![]);
    }

    #[test]
    fn recovery_of_an_unpublished_round_is_flagged() {
        let evs = vec![recover(0, 7, 3), abort(0, 7)];
        let v = ShadowEpochState::replay(&evs);
        assert!(v.contains(&ShadowViolation::RecoverOutsideRound { group: 0, epoch: 7 }));
    }

    #[test]
    fn degrading_away_every_node_is_flagged() {
        let evs = vec![
            join(0, 1, 1),
            exclude(0, 1, 1),
            commit(0, 1, 1),
            resume(0, 1),
        ];
        let v = ShadowEpochState::replay(&evs);
        assert!(v.contains(&ShadowViolation::DegradedToEmpty { group: 0, epoch: 1 }));
    }
}
