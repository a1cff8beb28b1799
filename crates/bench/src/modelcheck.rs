//! Exhaustive small-scope model check of the shipped epoch protocol.
//!
//! The lab is shipped parts only: an [`Engine`], an event-driven
//! [`Coordinator`] without notify retries, one explorer
//! `ModelNode` per node (the shipped [`Participant`], watchdog set),
//! and, in place of the control LAN, a `HoldLan` that keeps every frame
//! until the checker delivers it. At each state the checker may trigger
//! the round, deliver a held frame (identical frames are one choice),
//! dispatch the next engine event, or crash the coordinator whenever it
//! is up and crashes remain, also after the round decided. While crashes
//! remain, the trigger, the dispatch and deliveries to the coordinator
//! are also offered with the `coord.crash_*` points forced on. A choice
//! ends by running all that is due at its instant: the frames' hand-offs
//! to the holder, which only the checker reads, and timers sharing a
//! dispatched event's instant. The search is breadth-first and stateless
//! (each state re-runs its choice prefix from the seed) and replays each
//! state's trace ring through [`ShadowEpochState`]; a quiescent state
//! must also have no node held, no undecided record and the coordinator up.
//!
//! The dedup key hashes the WAL records without `at_ns`; the
//! coordinator's crashed flag, crash count, idle flag and record
//! outcomes; each node's participant, held flag and capture count; the
//! held frames as a multiset; and the pending-event count. Dropping
//! absolute times is sound because no protocol decision reads `at_ns` or
//! a record timestamp: times only order pending events. The key leaves
//! out which events are pending and when, the telemetry, the buggify
//! streams (forced crashes' outages) and the coordinator's generation.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashSet, VecDeque};
use std::hash::{Hash, Hasher};

use checkpoint::{BusMsg, Coordinator, FailurePolicy, Participant, ShadowEpochState};
use checkpoint::{TriggerMode, Wal, WalRecord};
use hwsim::{Frame, IfaceId, LanTransmit, LinkDeliver, NodeAddr};
use sim::buggify::points;
use sim::{Component, ComponentId, Ctx, Engine, Payload, SimDuration};

use crate::explore::{events_csv, ModelNode};

const SEED: u64 = 0x3C;
const COORD: NodeAddr = NodeAddr(100);
/// Node `n` captures in `CAPTURE_MS + n`: captures begun together end apart.
const CAPTURE_MS: u64 = 9;
/// Longer than a capture, shorter than the epoch deadline.
const CRASH_DOWNTIME: SimDuration = SimDuration::from_millis(100);
/// Beyond the epoch deadline plus two of the longest forced outages.
const WATCHDOG: SimDuration = SimDuration::from_secs(5);
const CRASH_POINTS: [&str; 4] = [
    points::COORD_CRASH_PRE_NOTIFY,
    points::COORD_CRASH_MID_ACKS,
    points::COORD_CRASH_PRE_RESUME,
    points::COORD_CRASH_POST_COMMIT,
];

/// Model-check scope.
#[derive(Clone, Copy, Debug)]
pub struct ModelConfig {
    /// Nodes in the checkpoint group (1–3).
    pub nodes: u8,
    /// Coordinator crashes allowed along one path.
    pub max_crashes: u8,
    /// At each crash, forge `WalRecord::Done` for every node that acked
    /// but has not reported done; the checker must catch the roll-forward.
    pub sabotage: bool,
}

/// What the checker found.
#[derive(Clone, Debug, Default)]
pub struct ModelReport {
    pub states_explored: u64,
    /// Choices taken, including those into already-visited states.
    pub transitions: u64,
    pub quiescent: u64,
    pub max_depth: u32,
    /// The first problem found; the search stops there.
    pub counterexample: Option<Counterexample>,
}

/// A replayable problem.
#[derive(Clone, Debug)]
pub struct Counterexample {
    #[cfg_attr(not(test), allow(dead_code))] // Re-run by the replay test.
    choices: Vec<Choice>,
    /// Each choice, named by its frame or by the event it dispatched.
    pub labels: Vec<String>,
    pub problems: Vec<String>,
    /// The path's shadow events, rendered by [`events_csv`].
    pub events_csv: String,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Step {
    Trigger,
    /// Deliver the held frame at this index.
    Deliver(u16),
    Dispatch,
    Crash,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Choice {
    step: Step,
    /// With the `coord.crash_*` points forced on.
    forced: bool,
}

/// A WAL rewrite applied right after each coordinator crash.
type Tamper = fn(&Wal);

/// Holds every frame handed to it until the checker delivers it.
#[derive(Default)]
struct HoldLan {
    held: Vec<Frame>,
}

impl Component for HoldLan {
    fn handle(&mut self, _ctx: &mut Ctx<'_>, payload: Payload) {
        if let Ok(t) = payload.downcast::<LanTransmit>() {
            self.held.push(t.frame);
        }
    }
    sim::component_boilerplate!();
}

fn same_frame(a: &Frame, b: &Frame) -> bool {
    a.src == b.src && a.dst == b.dst && a.payload::<BusMsg>() == b.payload::<BusMsg>()
}

fn describe(f: &Frame) -> String {
    let name = |a: NodeAddr| if a == COORD { "coord".to_string() } else { format!("n{}", a.0) };
    format!("{} → {} {:?}", name(f.src), name(f.dst), f.payload::<BusMsg>().expect("bus frame"))
}

struct Lab {
    e: Engine,
    lan: ComponentId,
    coord: ComponentId,
    nodes: Vec<ComponentId>,
    wal: Wal,
    cfg: ModelConfig,
    tamper: Option<Tamper>,
}

impl Lab {
    /// The lab after `choices`.
    fn new(cfg: &ModelConfig, tamper: Option<Tamper>, choices: &[Choice]) -> Lab {
        let mut e = Engine::new(SEED);
        let lan = e.add_component(Box::new(HoldLan::default()));
        let policy = FailurePolicy { max_notify_retries: 0, ..FailurePolicy::default() };
        let coord = Coordinator::builder(COORD, lan).mode(TriggerMode::EventDriven);
        let coord = coord.policy(policy).build();
        let wal = coord.wal().clone();
        let coord = e.add_component(Box::new(coord));
        let nodes = (1..=u32::from(cfg.nodes))
            .map(|n| {
                let mut participant = Participant::default();
                participant.suspend_watchdog = Some(WATCHDOG);
                let capture_ms = CAPTURE_MS + u64::from(n);
                let node = ModelNode::new(participant, NodeAddr(n), lan, COORD, capture_ms, true);
                e.with_component::<Coordinator, _>(coord, |c, _| c.subscribe(NodeAddr(n)));
                e.add_component(Box::new(node))
            })
            .collect();
        let mut lab = Lab { e, lan, coord, nodes, wal, cfg: *cfg, tamper };
        for &c in choices {
            lab.apply(c);
        }
        lab
    }

    fn with_coordinator(&mut self, f: impl FnOnce(&mut Coordinator, &mut Ctx<'_>)) {
        self.e.with_component(self.coord, f);
    }

    fn coordinator(&self) -> &Coordinator {
        self.e.component_ref(self.coord).expect("coordinator")
    }

    fn nodes(&self) -> impl Iterator<Item = &ModelNode> {
        self.nodes.iter().map(|&n| self.e.component_ref::<ModelNode>(n).expect("node"))
    }

    fn held(&self) -> &[Frame] {
        &self.e.component_ref::<HoldLan>(self.lan).expect("lan").held
    }

    /// Every choice enabled here, in a fixed order.
    fn choices(&self) -> Vec<Choice> {
        let (c, held) = (self.coordinator(), self.held());
        // Each step, and whether it may run coordinator code.
        let mut steps = Vec::new();
        if !c.is_crashed() && self.wal.is_empty() {
            steps.push((Step::Trigger, true));
        }
        for (i, f) in held.iter().enumerate() {
            if !held[..i].iter().any(|g| same_frame(f, g)) {
                steps.push((Step::Deliver(i as u16), f.dst == COORD));
            }
        }
        if self.e.pending_events() > 0 {
            steps.push((Step::Dispatch, true));
        }
        let mut out: Vec<Choice> =
            steps.iter().map(|&(step, _)| Choice { step, forced: false }).collect();
        if !c.is_crashed() && c.crash_count() < u64::from(self.cfg.max_crashes) {
            out.push(Choice { step: Step::Crash, forced: false });
            // Forcing a step that runs no coordinator code would repeat it.
            let forced = steps.into_iter().filter(|&(_, coordinator)| coordinator);
            out.extend(forced.map(|(step, _)| Choice { step, forced: true }));
        }
        out
    }

    fn apply(&mut self, c: Choice) {
        let bg = self.e.buggify().clone();
        CRASH_POINTS.iter().filter(|_| c.forced).for_each(|p| bg.force(p, 1.0));
        let crashes = self.coordinator().crash_count();
        match c.step {
            Step::Trigger => self.with_coordinator(|c, ctx| c.trigger(ctx)),
            Step::Deliver(i) => {
                let lan = self.e.component_mut::<HoldLan>(self.lan).expect("lan");
                let frame = lan.held.remove(usize::from(i));
                let dst = match frame.dst {
                    COORD => self.coord,
                    NodeAddr(n) => self.nodes[n as usize - 1],
                };
                self.e.post(dst, SimDuration::ZERO, LinkDeliver { iface: IfaceId::CONTROL, frame });
            }
            Step::Dispatch => _ = self.e.step(),
            Step::Crash => self.with_coordinator(|c, ctx| c.crash(ctx, CRASH_DOWNTIME)),
        }
        self.e.run_until(self.e.now());
        CRASH_POINTS.iter().filter(|_| c.forced).for_each(|p| bg.clear_force(p));
        if let Some(tamper) = self.tamper.filter(|_| self.coordinator().crash_count() > crashes) {
            tamper(&self.wal);
        }
    }

    /// [`Lab::apply`], naming the choice.
    fn apply_labelled(&mut self, c: Choice) -> String {
        let crashes = self.coordinator().crash_count();
        let mut label = match c.step {
            Step::Deliver(i) => format!("deliver {}", describe(&self.held()[usize::from(i)])),
            step => format!("{step:?}"),
        };
        for &n in &self.nodes {
            self.e.component_mut::<ModelNode>(n).expect("node").fired = None;
        }
        self.apply(c);
        if c.step == Step::Dispatch {
            let fired = self.nodes().enumerate().filter_map(|(i, n)| Some((i + 1, n.fired?)));
            let what = fired.map(|(n, t)| format!("n{n} {t:?}")).collect::<Vec<_>>().join(", ");
            let what = if what.is_empty() { "coordinator timer" } else { &what };
            label = format!("dispatch @ {} ns: {what}", self.e.now().as_nanos());
        }
        let forced = if c.forced { " [crash points forced]" } else { "" };
        let crashed = self.coordinator().crash_count() > crashes;
        format!("{label}{forced}{}", if crashed { " → coordinator crashed" } else { "" })
    }

    fn key(&self) -> u64 {
        let mut h = DefaultHasher::new();
        for rec in self.wal.replay() {
            // Every record encodes as its tag, its `at_ns`, then the rest.
            let frame = rec.encode();
            (frame[0], &frame[9..]).hash(&mut h);
        }
        let c = self.coordinator();
        (c.is_crashed(), c.crash_count(), c.idle()).hash(&mut h);
        c.records().iter().for_each(|r| format!("{:?}", r.outcome).hash(&mut h));
        for n in self.nodes() {
            (format!("{:?}", n.participant), n.world.held, n.world.captures).hash(&mut h);
        }
        let mut frames: Vec<String> = self.held().iter().map(describe).collect();
        frames.sort_unstable();
        (frames, self.e.pending_events()).hash(&mut h);
        h.finish()
    }

    /// The shadow's violations over the trace ring and, at quiescence,
    /// the end-of-run checks.
    fn verdict(&self) -> Vec<String> {
        let mut shadow = ShadowEpochState::new();
        self.e.telemetry().trace_view().iter().for_each(|ev| shadow.step(&ev));
        let quiescent = self.choices().is_empty();
        if quiescent {
            shadow.finish();
        }
        let mut out: Vec<String> = shadow.violations().iter().map(|v| format!("{v:?}")).collect();
        if quiescent {
            let c = self.coordinator();
            let held = self.nodes().enumerate().filter(|(_, n)| n.world.held);
            out.extend(held.map(|(i, _)| format!("node {} held at quiescence", i + 1)));
            let undecided = c.records().iter().filter(|r| r.outcome.is_none());
            out.extend(undecided.map(|r| format!("epoch {} undecided at quiescence", r.epoch)));
            out.extend(c.is_crashed().then(|| "coordinator down at quiescence".to_string()));
        }
        out
    }

    fn shadow_csv(&self) -> String {
        let trace = self.e.telemetry().trace_view();
        let events: Vec<_> = trace.iter().filter(|ev| ev.name.starts_with("shadow.")).collect();
        events_csv(&events)
    }
}

/// The sabotage: a `Done` record for every node that acked but has not
/// reported done.
fn forge_done(wal: &Wal) {
    let log = wal.replay();
    for r in &log {
        let WalRecord::Ack { group, epoch, node, .. } = *r else { continue };
        // The lab runs one round, so a node's done record is for this epoch.
        if !log.iter().any(|d| matches!(*d, WalRecord::Done { node: n, .. } if n == node)) {
            wal.append(&WalRecord::Done { at_ns: 0, group, epoch, node, image_bytes: 0 });
        }
    }
}

/// Runs the exhaustive check; stops at the first problem.
pub fn check(cfg: &ModelConfig) -> ModelReport {
    search(cfg, cfg.sabotage.then_some(forge_done as Tamper))
}

fn search(cfg: &ModelConfig, tamper: Option<Tamper>) -> ModelReport {
    assert!((1..=3).contains(&cfg.nodes), "model scope is 1-3 nodes");
    let mut visited = HashSet::from([Lab::new(cfg, tamper, &[]).key()]);
    // Each unexpanded state as its choice prefix.
    let mut queue = VecDeque::from([Vec::new()]);
    let mut report = ModelReport { states_explored: 1, ..ModelReport::default() };
    while let Some(prefix) = queue.pop_front() {
        report.max_depth = report.max_depth.max(prefix.len() as u32);
        let mut lab = Some(Lab::new(cfg, tamper, &prefix));
        let choices = lab.as_ref().expect("fresh").choices();
        report.quiescent += u64::from(choices.is_empty());
        for c in choices {
            report.transitions += 1;
            let mut next = lab.take().unwrap_or_else(|| Lab::new(cfg, tamper, &prefix));
            next.apply(c);
            let problems = next.verdict();
            let choices = [&prefix[..], &[c]].concat();
            if !problems.is_empty() {
                let mut lab = Lab::new(cfg, tamper, &[]);
                let labels = choices.iter().map(|&c| lab.apply_labelled(c)).collect();
                let cx = Counterexample { choices, labels, problems, events_csv: lab.shadow_csv() };
                report.counterexample = Some(cx);
                return report;
            }
            if visited.insert(next.key()) {
                report.states_explored += 1;
                queue.push_back(choices);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCOPE: ModelConfig = ModelConfig { nodes: 2, max_crashes: 1, sabotage: false };

    /// Rewrites the log without its `Abort` records: a coordinator that
    /// never made its aborts durable.
    fn drop_aborts(wal: &Wal) {
        let kept: Vec<WalRecord> = wal
            .replay()
            .into_iter()
            .filter(|r| !matches!(r, WalRecord::Abort { .. }))
            .collect();
        wal.clear();
        for r in &kept {
            wal.append(r);
        }
    }

    #[test]
    fn the_key_drops_exactly_at_ns() {
        // `Lab::key` hashes each WAL frame without its bytes 1..9.
        let records = |at_ns| {
            [
                WalRecord::Ack { at_ns, group: 0, epoch: 1, node: 2 },
                WalRecord::Done { at_ns, group: 0, epoch: 1, node: 2, image_bytes: 7 },
                WalRecord::Commit { at_ns, group: 0, epoch: 1, excluded: 1 },
                WalRecord::Abort { at_ns, group: 0, epoch: 1 },
                WalRecord::Resume { at_ns, group: 0, epoch: 1 },
                WalRecord::ForceFull { at_ns, node: 2 },
            ]
        };
        for (a, b) in records(1).iter().zip(records(u64::MAX)) {
            let (a, b) = (a.encode(), b.encode());
            assert_eq!((a[0], &a[9..]), (b[0], &b[9..]));
            assert_ne!(a[1..9], b[1..9]);
        }
    }

    #[test]
    fn two_nodes_one_crash_is_clean() {
        let report = check(&SCOPE);
        assert!(report.counterexample.is_none(), "{:?}", report.counterexample);
        assert!(report.quiescent > 0 && report.states_explored > 1_000);
    }

    #[test]
    fn a_second_crash_is_clean_and_adds_states() {
        let one = check(&SCOPE);
        let two = check(&ModelConfig { max_crashes: 2, ..SCOPE });
        assert!(two.counterexample.is_none(), "{:?}", two.counterexample);
        assert!(two.states_explored > one.states_explored);
    }

    #[test]
    fn crashless_scope_is_clean_and_smaller() {
        let with = check(&ModelConfig { nodes: 1, max_crashes: 1, sabotage: false });
        let without = check(&ModelConfig { nodes: 1, max_crashes: 0, sabotage: false });
        assert!(with.counterexample.is_none() && without.counterexample.is_none());
        assert!(without.states_explored < with.states_explored);
    }

    #[test]
    fn forged_done_records_are_caught() {
        let report = check(&ModelConfig { sabotage: true, ..SCOPE });
        let cx = report.counterexample.expect("the planted bug must be found");
        assert!(
            cx.problems.iter().any(|p| p.starts_with("CommitIncomplete")),
            "{:?}",
            cx.problems
        );
        assert!(cx.events_csv.contains("shadow.recover"));
    }

    #[test]
    fn a_crash_after_the_decision_is_explored() {
        let cfg = SCOPE;
        let cx = search(&cfg, Some(drop_aborts)).counterexample.expect("lost abort must show");
        assert!(
            cx.problems
                .iter()
                .any(|p| p.starts_with("RecoverOutsideRound") || p.starts_with("DoubleTerminal")),
            "{:?}",
            cx.problems
        );
    }

    #[test]
    fn a_counterexample_replays() {
        let cfg = ModelConfig { sabotage: true, ..SCOPE };
        let cx = check(&cfg).counterexample.expect("the planted bug must be found");
        assert_eq!(cx.labels.len(), cx.choices.len());
        let lab = Lab::new(&cfg, Some(forge_done), &cx.choices);
        assert_eq!(lab.verdict(), cx.problems);
        assert_eq!(lab.shadow_csv(), cx.events_csv);
    }
}
