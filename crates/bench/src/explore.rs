//! sim::explore — buggify-style randomized fault exploration with a
//! shadow epoch-protocol checker.
//!
//! Each iteration derives a complete scenario (topology, capture-time
//! mix, failure policy, trigger cadence, crash schedule) from a single
//! `u64` seed, arms the engine-wide [`Buggify`] registry under a preset,
//! runs several checkpoint epochs over a faulty control LAN, and then
//! replays the trace ring through [`ShadowEpochState`] — an independent
//! model of the coordinator's two-phase protocol. Any shadow violation
//! fails the iteration; because everything (component jitter, buggify
//! draws, fault plans, the scenario itself) flows from the one seed, a
//! failing iteration replays byte-identically from the printed seed.
//!
//! The library half (this module) builds rigs and runs single
//! iterations so `cargo test` can replay the committed seed corpus; the
//! `tcd explore` experiment drives multi-thousand-iteration sweeps.

use checkpoint::{
    Coordinator, FailurePolicy, NodeHooks, Participant, ShadowEpochState, ShadowViolation,
    TriggerMode, WalRecord,
};
use checkpoint::{shadow, BusMsg, BUS_MSG_BYTES};
use emulab::{ExperimentSpec, ScalePlan};
use hwsim::{profile, ControlLan, Endpoint, Frame, IfaceId, LanTransmit, LinkDeliver, NodeAddr};
use sim::telemetry::names;
use sim::{
    Buggify, Component, ComponentId, Ctx, Engine, FaultPlan, Payload, Preset, SimDuration, SimRng,
    SimTime, TraceCtx, TraceEvent,
};

/// SplitMix64 step: turns `root_seed + index` into a well-mixed
/// per-iteration seed. Matches the generator used by `SimRng` seeding,
/// so nearby iterations share no stream structure.
pub fn iteration_seed(root_seed: u64, index: u64) -> u64 {
    let mut z = root_seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A crash scheduled against one model node, with an optional heal
/// (LAN plan swap) and rejoin attempt later in the run.
#[derive(Clone, Copy, Debug)]
pub struct CrashPlan {
    /// Address payload of the crashed node (`NodeAddr.0`).
    pub node: u32,
    /// Virtual time the node's control traffic stops.
    pub at_ms: u64,
    /// Virtual time the LAN heals (`None`: stays dead all run).
    pub heal_at_ms: Option<u64>,
}

/// A scheduled coordinator process crash: at `at_ms` the coordinator
/// loses all volatile protocol state and drops every message for
/// `downtime_ms`, then restarts and recovers from its epoch WAL.
#[derive(Clone, Copy, Debug)]
pub struct CoordCrashPlan {
    /// Virtual time the coordinator process dies.
    pub at_ms: u64,
    /// How long it stays down before the WAL-replaying restart.
    pub downtime_ms: u64,
}

/// Occasional cross-shard probe riding an iteration: a ≥64-node scale lab
/// run at 1 shard and at `shards` shards, each held to the lab's
/// invariants (every round committed, a clean shadow, conserved bytes),
/// whose merged fingerprints must match byte for byte.
#[derive(Clone, Copy, Debug)]
pub struct ScaleProbePlan {
    pub groups: u32,
    pub per_group: u32,
    /// The multi-shard layout compared against the 1-shard baseline.
    pub shards: u32,
    pub epochs: u32,
}

impl ScaleProbePlan {
    /// Leaf nodes in the probe topology.
    pub fn nodes(&self) -> u32 {
        self.groups * self.per_group
    }
}

/// Everything one iteration does, derived deterministically from the
/// seed. Public so failure reports can print the whole scenario.
#[derive(Clone, Debug)]
pub struct Scenario {
    pub seed: u64,
    /// Preset the buggify registry is armed with.
    pub preset: Preset,
    /// True when the preset came from a CLI override rather than the
    /// seed's own draw (the repro line must then repeat the override).
    pub preset_overridden: bool,
    /// Per-node local capture times (length = node count).
    pub capture_ms: Vec<u64>,
    /// Nodes ack notifications explicitly (vs. implied by done).
    pub ack_explicit: bool,
    /// Scheduled ("checkpoint at t") vs. event-driven notification.
    pub scheduled_lead_ms: Option<u64>,
    pub policy: FailurePolicy,
    /// Periodic trigger interval.
    pub interval_ms: u64,
    /// Main run length before the drain phase.
    pub run_ms: u64,
    pub crash: Option<CrashPlan>,
    /// Scheduled coordinator process crash/restart (WAL recovery).
    pub coord_crash: Option<CoordCrashPlan>,
    /// Occasional sharded-engine determinism probe (1 vs N shards).
    pub scale_probe: Option<ScaleProbePlan>,
}

impl Scenario {
    /// Derives the full scenario from `seed`. The preset draw always
    /// happens (fixed draw order) and is then overridden if asked, so
    /// `--preset` replays perturb nothing else.
    pub fn derive(seed: u64, preset_override: Option<Preset>) -> Scenario {
        let mut rng = SimRng::from_seed(seed ^ 0x00E4_B07E_5EED_u64);
        let drawn = match rng.range_u64(0, 3) {
            0 => Preset::Calm,
            1 => Preset::Moderate,
            _ => Preset::Chaos,
        };
        let preset = preset_override.unwrap_or(drawn);
        let nodes = rng.range_u64(2, 9) as usize;
        let capture_ms: Vec<u64> = (0..nodes).map(|_| rng.range_u64(2, 81)).collect();
        let ack_explicit = rng.chance(0.7);
        let scheduled_lead_ms = if rng.chance(0.2) {
            Some(rng.range_u64(5, 51))
        } else {
            None
        };
        let policy = FailurePolicy {
            ack_timeout: SimDuration::from_millis(rng.range_u64(5, 41)),
            max_notify_retries: rng.range_u64(1, 7) as u32,
            epoch_deadline: SimDuration::from_millis(rng.range_u64(150, 601)),
            allow_degraded: rng.chance(0.8),
            resume_repeats: rng.range_u64(0, 3) as u32,
            evict_excluded: rng.chance(0.5),
        };
        let interval_ms = rng.range_u64(80, 401);
        let run_ms = interval_ms * rng.range_u64(4, 13);
        let crash = if rng.chance(0.5) {
            let node = rng.range_u64(1, nodes as u64 + 1) as u32;
            let at_ms = rng.range_u64(0, run_ms / 2 + 1);
            let heal_at_ms = if rng.chance(0.5) {
                Some(rng.range_u64(at_ms + 1, run_ms + 2))
            } else {
                None
            };
            Some(CrashPlan { node, at_ms, heal_at_ms })
        } else {
            None
        };
        // Drawn last so older corpus seeds keep their earlier draws:
        // every field above replays exactly as it did before the
        // coordinator-crash dimension existed.
        let coord_crash = if rng.chance(0.35) {
            Some(CoordCrashPlan {
                at_ms: rng.range_u64(0, run_ms),
                downtime_ms: rng.range_u64(5, 401),
            })
        } else {
            None
        };
        // Also drawn at the end, for the same corpus-stability reason:
        // a sharded-engine probe on ~15% of seeds, always ≥64 nodes.
        let scale_probe = if rng.chance(0.15) {
            Some(ScaleProbePlan {
                groups: rng.range_u64(8, 13) as u32,
                per_group: rng.range_u64(8, 13) as u32,
                shards: if rng.chance(0.5) { 2 } else { 4 },
                epochs: 2,
            })
        } else {
            None
        };
        Scenario {
            seed,
            preset,
            preset_overridden: preset_override.is_some(),
            capture_ms,
            ack_explicit,
            scheduled_lead_ms,
            policy,
            interval_ms,
            run_ms,
            crash,
            coord_crash,
            scale_probe,
        }
    }

    /// Node count.
    pub fn nodes(&self) -> usize {
        self.capture_ms.len()
    }
}

/// The explorer's and the model check's node: the shipped
/// [`Participant`] over a hook table whose local world is a timer — a
/// capture holds the node from its start, completes `capture_ms` later,
/// and stays held until the participant releases or rolls it back.
/// Explorer traces and model-check states therefore exercise the real
/// node-side protocol (de-duplication, lost-resolution release,
/// resume/abort idempotence) without guest-domain mechanics.
pub(crate) struct ModelNode {
    pub(crate) participant: Participant,
    pub(crate) world: TimerWorld,
    /// The last timer this node handled, for the model check's
    /// counterexample labels.
    pub(crate) fired: Option<NodeTimer>,
}

impl ModelNode {
    /// A node at `addr` that talks to `coord_addr` through `lan`.
    pub(crate) fn new(
        participant: Participant,
        addr: NodeAddr,
        lan: ComponentId,
        coord_addr: NodeAddr,
        capture_ms: u64,
        ack: bool,
    ) -> ModelNode {
        ModelNode {
            participant,
            world: TimerWorld { addr, lan, coord_addr, capture_ms, ack, held: false, captures: 0 },
            fired: None,
        }
    }
}

pub(crate) struct TimerWorld {
    addr: NodeAddr,
    lan: ComponentId,
    coord_addr: NodeAddr,
    capture_ms: u64,
    /// Scenario dimension: `false` drops the explicit acks on the floor
    /// (the coordinator then takes the done report as the implied ack).
    ack: bool,
    pub(crate) held: bool,
    /// Captures begun; a completion timer of an earlier capture is stale.
    pub(crate) captures: u64,
}

#[derive(Clone, Copy, Debug)]
pub(crate) enum NodeTimer {
    Wake { token: u64 },
    CaptureDone { capture: u64 },
}

/// [`NodeHooks`] over the timer world and the event being handled.
struct ModelIo<'a, 'c> {
    w: &'a mut TimerWorld,
    ctx: &'a mut Ctx<'c>,
}

impl NodeHooks for ModelIo<'_, '_> {
    fn send(&mut self, msg: BusMsg) {
        if self.w.ack || !matches!(msg, BusMsg::NotifyAck { .. }) {
            let frame = Frame::new(self.w.addr, self.w.coord_addr, BUS_MSG_BYTES, msg);
            self.ctx.post(self.w.lan, SimDuration::ZERO, LanTransmit { frame });
        }
    }

    fn wake_at_clock_ns(&mut self, clock_ns: f64, token: u64) {
        // The model node's clock is ideal: it reads true time.
        let at = SimTime::from_nanos(clock_ns as u64).max(self.ctx.now());
        self.ctx.post_at(self.ctx.self_id(), at, NodeTimer::Wake { token });
    }

    fn wake_after(&mut self, d: SimDuration, token: u64) {
        self.ctx.post_self(d, NodeTimer::Wake { token });
    }

    fn begin_capture(&mut self, _trace: TraceCtx) -> bool {
        if self.w.held {
            return false;
        }
        self.w.held = true;
        self.w.captures += 1;
        let d = SimDuration::from_millis(self.w.capture_ms);
        self.ctx.post_self(d, NodeTimer::CaptureDone { capture: self.w.captures });
        true
    }

    fn held(&self) -> bool {
        self.w.held
    }

    fn release(&mut self) {
        self.w.held = false;
    }

    fn rollback(&mut self) -> bool {
        std::mem::take(&mut self.w.held)
    }

    fn image_bytes(&self) -> u64 {
        1 << 20
    }
}

impl Component for ModelNode {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        let latest = self.world.captures;
        let mut io = ModelIo { w: &mut self.world, ctx };
        let payload = match payload.downcast::<LinkDeliver>() {
            Ok(del) => {
                if let Some(&msg) = del.frame.payload::<BusMsg>() {
                    self.participant.on_msg(&mut io, msg);
                }
                return;
            }
            Err(p) => p,
        };
        let Ok(timer) = payload.downcast::<NodeTimer>() else {
            return;
        };
        self.fired = Some(timer);
        match timer {
            NodeTimer::Wake { token } => self.participant.on_wake(&mut io, token),
            NodeTimer::CaptureDone { capture } if capture == latest => {
                self.participant.on_captured(&mut io);
            }
            _ => {}
        }
    }
    sim::component_boilerplate!();
}

/// What one iteration produced.
pub struct IterationOutcome {
    pub scenario: Scenario,
    /// (committed, aborted, degraded) epoch counts from the coordinator.
    pub outcomes: (u64, u64, u64),
    /// Notification retries the failure detector issued.
    pub retries: u64,
    /// Coordinator process crashes injected (scheduled + buggify).
    pub coord_crashes: u64,
    /// WAL-replaying restarts that completed.
    pub coord_recoveries: u64,
    /// Total buggify fires across all points.
    pub buggify_fires: u64,
    /// Epochs the shadow model checked to a terminal outcome.
    pub epochs_checked: u64,
    /// The full trace-ring contents (shadow events included).
    pub events: Vec<TraceEvent>,
    /// Shadow-invariant violations; empty on a clean iteration.
    pub violations: Vec<ShadowViolation>,
    /// The coordinator's full epoch WAL (the flight recorder dumps its
    /// tail; recovery classification replays it).
    pub wal_records: Vec<WalRecord>,
    /// Telemetry metrics snapshot (counters/gauges/histograms CSV) at
    /// the end of the run.
    pub metrics_csv: String,
    /// The scale probe's verdict: `Err` names a broken invariant (a
    /// shadow violation among them) or a 1-shard vs N-shard divergence;
    /// `None` when the scenario drew no probe.
    pub scale_probe_result: Option<Result<(), String>>,
}

impl IterationOutcome {
    /// FNV-1a over the CSV rendering of the trace: two runs of the same
    /// seed are byte-identical iff their fingerprints match.
    pub fn fingerprint(&self) -> u64 {
        sim::stats::fnv1a(events_csv(&self.events).as_bytes())
    }
}

/// Renders a trace as CSV: the failure artifact format, and the byte
/// string replays are compared over. Shadow events get their packed
/// `(group, epoch, node)` columns unpacked; other events leave them
/// blank.
pub fn events_csv(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 48 + 64);
    out.push_str("at_ns,host,subsystem,name,phase,arg,group,epoch,node\n");
    for ev in events {
        let phase = ev.phase.code();
        let unpacked = if ev.name.starts_with("shadow.") {
            let (g, e, n) = shadow::unpack(ev.arg);
            format!("{g},{e},{n}")
        } else if ev.name.starts_with("flow.") {
            let ctx = TraceCtx::from_arg(ev.arg);
            format!("{},{},", ctx.trace_id, ctx.span_id)
        } else {
            ",,".to_string()
        };
        out.push_str(&format!(
            "{},{},{},{},{},{},{}\n",
            ev.at.as_nanos(),
            ev.host,
            ev.subsystem,
            ev.name,
            phase,
            ev.arg,
            unpacked
        ));
    }
    out
}

/// Runs one exploration iteration: build the rig from the scenario,
/// arm buggify, drive periodic epochs (with the scripted crash/heal/
/// rejoin), drain, then replay the trace through the shadow model.
///
/// `sabotage` deliberately discards node 1's `shadow.done` instants
/// before handing the trace to the shadow — a synthetic bookkeeping
/// bug (the coordinator commits over a done report the model never
/// saw) that must surface as `CommitIncomplete` and must reproduce
/// byte-identically from the seed (the replay self-test).
pub fn run_iteration(scenario: &Scenario, sabotage: bool) -> IterationOutcome {
    let s = scenario;
    let mut e = Engine::new(s.seed);
    e.arm_buggify(Buggify::armed(s.seed, s.preset));

    let lan = e.add_component(Box::new(ControlLan::new(
        profile::CTRL_LAN_BPS,
        profile::CTRL_LAN_LATENCY,
        profile::CTRL_LAN_JITTER,
    )));
    let coord_addr = NodeAddr(100);
    let mode = match s.scheduled_lead_ms {
        Some(lead) => TriggerMode::Scheduled { lead: SimDuration::from_millis(lead) },
        None => TriggerMode::EventDriven,
    };
    // Keep a clone of the WAL handle: the flight recorder dumps its
    // tail when the iteration fails.
    let coord = Coordinator::builder(coord_addr, lan).mode(mode).policy(s.policy).build();
    let wal = coord.wal().clone();
    let coord = e.add_component(Box::new(coord));
    for (i, &ms) in s.capture_ms.iter().enumerate() {
        let addr = NodeAddr(i as u32 + 1);
        let n = e.add_component(Box::new(ModelNode::new(
            Participant::default(),
            addr,
            lan,
            coord_addr,
            ms,
            s.ack_explicit,
        )));
        e.with_component::<ControlLan, _>(lan, |l, _| {
            l.attach(addr, Endpoint { component: n, iface: IfaceId::CONTROL });
        });
        e.with_component::<Coordinator, _>(coord, |c, _| c.subscribe(addr));
    }
    e.with_component::<ControlLan, _>(lan, |l, _| {
        l.attach(coord_addr, Endpoint { component: coord, iface: IfaceId::CONTROL });
    });

    if let Some(crash) = s.crash {
        let plan = FaultPlan::new(s.seed)
            .with_crash(crash.node, SimTime::from_nanos(crash.at_ms * 1_000_000));
        e.with_component::<ControlLan, _>(lan, |l, _| l.inject_faults(plan));
    }

    e.with_component::<Coordinator, _>(coord, |c, ctx| {
        c.start_periodic(ctx, SimDuration::from_millis(s.interval_ms));
    });

    // Main run, split at the scripted marks: the heal instant (swap in
    // a clean fault plan and re-admit the node if it was evicted) and
    // the coordinator process crash. Marks run in time order; a heal
    // that lands while the coordinator is down still heals the LAN, and
    // its rejoin is a no-op (the crash already merged the roster back —
    // recovery re-derives evictions from the WAL).
    #[derive(Clone, Copy)]
    enum Mark {
        Heal,
        CoordCrash,
    }
    let mut marks: Vec<(u64, Mark)> = Vec::new();
    if let Some(heal_ms) = s.crash.and_then(|c| c.heal_at_ms).filter(|&h| h < s.run_ms) {
        marks.push((heal_ms, Mark::Heal));
    }
    if let Some(cc) = s.coord_crash.filter(|c| c.at_ms < s.run_ms) {
        marks.push((cc.at_ms, Mark::CoordCrash));
    }
    marks.sort_by_key(|&(ms, m)| (ms, matches!(m, Mark::CoordCrash) as u8));
    let mut now_ms = 0;
    for (ms, mark) in marks {
        e.run_for(SimDuration::from_millis(ms - now_ms));
        now_ms = ms;
        match mark {
            Mark::Heal => {
                e.with_component::<ControlLan, _>(lan, |l, _| {
                    l.inject_faults(FaultPlan::new(s.seed ^ 1));
                });
                let node = NodeAddr(s.crash.unwrap().node);
                e.with_component::<Coordinator, _>(coord, |c, ctx| {
                    c.rejoin(ctx, node);
                });
            }
            Mark::CoordCrash => {
                let downtime = SimDuration::from_millis(s.coord_crash.unwrap().downtime_ms);
                e.with_component::<Coordinator, _>(coord, |c, ctx| {
                    c.crash(ctx, downtime);
                });
            }
        }
    }
    e.run_for(SimDuration::from_millis(s.run_ms - now_ms));

    // Drain: stop triggering and let the in-flight round (if any) reach
    // its deadline-bounded terminal outcome. The slack past the deadline
    // covers a buggify coordinator crash firing at the very tail of the
    // round (max 400 ms downtime before the WAL-replaying restart),
    // plus the scheduled outage when one lands near the end of the run.
    e.with_component::<Coordinator, _>(coord, |c, _| c.stop_periodic());
    let crash_slack = s.coord_crash.map_or(0, |c| c.downtime_ms);
    let drain = s.policy.epoch_deadline + SimDuration::from_millis(800 + crash_slack);
    e.run_for(drain);

    let c = e.component_ref::<Coordinator>(coord).expect("coordinator");
    assert!(
        !c.is_crashed(),
        "coordinator still down after the drain (seed {:#x})",
        s.seed
    );
    let outcomes = c.outcome_counts();
    let retries = c.total_retries();
    let coord_crashes = c.crash_count();
    let coord_recoveries = c.recovery_count();
    let buggify_fires = e.buggify().total_fires();

    let mut events = e.telemetry().trace_events();
    if sabotage {
        events.retain(|ev| {
            ev.name != names::EV_SHADOW_DONE || shadow::unpack(ev.arg).2 != 1
        });
    }
    let mut shadow_state = ShadowEpochState::new();
    for ev in &events {
        shadow_state.step(ev);
    }
    shadow_state.finish();
    let violations = shadow_state.violations().to_vec();

    let scale_probe_result = s.scale_probe.map(|p| run_scale_probe(p, s.seed));

    IterationOutcome {
        scenario: scenario.clone(),
        outcomes,
        retries,
        coord_crashes,
        coord_recoveries,
        buggify_fires,
        epochs_checked: shadow_state.epochs_checked,
        events,
        violations,
        wal_records: wal.replay(),
        metrics_csv: e.telemetry().to_csv(),
        scale_probe_result,
    }
}

/// The scale probe, outside the iteration's engine: the real protocol on
/// a `groups` × `per_group` star at 1 shard and at the drawn layout.
fn run_scale_probe(p: ScaleProbePlan, seed: u64) -> Result<(), String> {
    let spec = ExperimentSpec::star("probe", p.nodes(), 100_000_000, SimDuration::from_millis(5));
    let plan = ScalePlan::from_spec(&spec, p.groups).map_err(|e| e.to_string())?;
    let run_lab = |shards: u32| {
        let mut lab = plan.build_lab(seed, shards, p.epochs, SimDuration::from_millis(200));
        lab.run();
        lab.check_invariants().map_err(|e| format!("{shards} shard(s): {e}"))?;
        Ok::<_, String>(lab.outcome())
    };
    if run_lab(1)? == run_lab(p.shards)? {
        Ok(())
    } else {
        Err(format!("fingerprints differ between 1 and {} shards", p.shards))
    }
}

/// Convenience: derive the scenario and run it.
pub fn run_seed(seed: u64, preset_override: Option<Preset>, sabotage: bool) -> IterationOutcome {
    run_iteration(&Scenario::derive(seed, preset_override), sabotage)
}

/// The command line that replays iteration `seed` byte-identically.
pub fn repro_line(scenario: &Scenario, sabotage: bool) -> String {
    let mut line = format!(
        "cargo run --release -p tcd-bench -- explore --replay-seed={}",
        scenario.seed
    );
    if scenario.preset_overridden {
        line.push_str(&format!(" --preset={}", scenario.preset.name()));
    }
    if sabotage {
        line.push_str(" --sabotage");
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_derivation_is_deterministic() {
        let a = Scenario::derive(42, None);
        let b = Scenario::derive(42, None);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(a.nodes() >= 2 && a.nodes() <= 8);
    }

    #[test]
    fn preset_override_perturbs_nothing_else() {
        let a = Scenario::derive(7, None);
        let b = Scenario::derive(7, Some(Preset::Chaos));
        assert_eq!(a.capture_ms, b.capture_ms);
        assert_eq!(a.interval_ms, b.interval_ms);
        assert_eq!(format!("{:?}", a.crash), format!("{:?}", b.crash));
    }

    #[test]
    fn same_seed_replays_byte_identically() {
        let a = run_seed(1234, None, false);
        let b = run_seed(1234, None, false);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(events_csv(&a.events), events_csv(&b.events));
        assert!(a.violations.is_empty(), "clean seed violated: {:?}", a.violations);
    }

    #[test]
    fn scale_probe_draws_and_passes() {
        // Find a seed that draws a probe (p = 0.15, so a handful of
        // tries suffices) and check the probe's guarantees: ≥64 nodes, the
        // lab's invariants, and a passing 1-vs-N-shard comparison.
        let seed = (0..64)
            .find(|&s| Scenario::derive(s, None).scale_probe.is_some())
            .expect("some seed in 0..64 draws a probe");
        let s = Scenario::derive(seed, None);
        let p = s.scale_probe.unwrap();
        assert!(p.nodes() >= 64, "probe labs must be at least 64 nodes");
        assert!(p.shards == 2 || p.shards == 4);
        let out = run_iteration(&s, false);
        assert_eq!(out.scale_probe_result, Some(Ok(())), "seed {seed:#x}");
        // Seeds without a probe report None, not a pass.
        let bare = (0..64)
            .find(|&s| Scenario::derive(s, None).scale_probe.is_none())
            .expect("some seed in 0..64 skips the probe");
        assert!(run_iteration(&Scenario::derive(bare, None), false)
            .scale_probe_result
            .is_none());
    }

    #[test]
    fn sabotage_forces_a_violation_that_replays_identically() {
        // Seed picked to commit at least one epoch cleanly under calm.
        let a = run_seed(5, Some(Preset::Calm), true);
        let b = run_seed(5, Some(Preset::Calm), true);
        assert!(
            !a.violations.is_empty(),
            "sabotaged run must violate the shadow model"
        );
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.violations, b.violations);
    }
}
