//! The scale lab: the coordinated-epoch protocol run over the sharded
//! engine at thousands of nodes.
//!
//! The full coordinator ([`crate::Coordinator`]) drives real VM hosts
//! with capture caches, WALs, and store traffic — rich, but `!Send` and
//! O(hosts) state per epoch message. This module is the protocol's
//! *scale silhouette*, as plain [`sim::Component`]s that are `Send`: the
//! same two-phase shape (notify → capture → done-barrier → commit →
//! resume) with per-node cost driven toward O(1) and fan-out/fan-in
//! aggregated through per-group relays, so a 1,000–10,000-node star or
//! tree topology runs as `groups + 1` cross-shard conversations per
//! epoch instead of `nodes` of them.
//!
//! Placement is derived from the topology, never from the shard count:
//! a group (relay plus its leaf nodes) is an atomic placement unit on
//! shard `group % shards`, the coordinator rides shard 0, and all
//! cross-group traffic traverses hub links whose latency is the engine
//! lookahead. Node behavior (partners, jitter draws, dirty-size draws)
//! depends only on component ids, so the same seed produces byte-identical
//! merged telemetry for any shard count — the invariant the
//! cross-shard determinism suite and `bench_scale` both pin.

use sim::stats::fnv1a;
use sim::{Component, ComponentId, Ctx, Payload, ShardedEngine, SimDuration, SimTime, Telemetry};

/// Topology and cadence of a scale-lab run.
#[derive(Clone, Debug)]
pub struct ScaleConfig {
    /// Leaf nodes per group; one relay fronts each group. Group
    /// placement unit = relay + its leaves.
    pub group_sizes: Vec<u32>,
    /// Epoch cadence (start-to-start target).
    pub epoch_period: SimDuration,
    /// Rounds to drive.
    pub epochs: u32,
    /// Coordinator ↔ relay latency: the minimum cross-group latency,
    /// and therefore the engine lookahead.
    pub hub_latency: SimDuration,
    /// Relay ↔ node latency (intra-group, may be below the lookahead).
    pub leaf_latency: SimDuration,
    /// Self-posted steps each node's capture takes (its O(1)-per-event
    /// work chain).
    pub capture_steps: u32,
    /// Background node gossip cadence; `ZERO` disables gossip.
    pub gossip_period: SimDuration,
    /// Mean dirty set per node capture, in KiB (drawn uniformly from
    /// `[mean/2, 3*mean/2)` per node per epoch).
    pub dirty_kb_mean: u64,
}

impl ScaleConfig {
    /// A uniform topology: `groups` groups of `per_group` nodes with
    /// bench-friendly defaults (5 ms hub links, 300 µs leaf links,
    /// 200 ms epochs, light gossip).
    pub fn uniform(groups: u32, per_group: u32) -> ScaleConfig {
        ScaleConfig {
            group_sizes: vec![per_group; groups as usize],
            epoch_period: SimDuration::from_millis(200),
            epochs: 4,
            hub_latency: SimDuration::from_millis(5),
            leaf_latency: SimDuration::from_micros(300),
            capture_steps: 4,
            gossip_period: SimDuration::from_millis(20),
            dirty_kb_mean: 256,
        }
    }

    /// Total leaf nodes.
    pub fn nodes(&self) -> u32 {
        self.group_sizes.iter().sum()
    }
}

// ---------------------------------------------------------------------------
// Messages (all small; cross-shard ones ride the mailboxes).
// ---------------------------------------------------------------------------

/// Driver → coordinator: start the next epoch round.
struct StartRound;
/// Coordinator → relay: begin capturing `epoch`.
struct Notify {
    epoch: u64,
}
/// Relay → node: begin capturing `epoch`.
struct NodeNotify {
    epoch: u64,
}
/// Node self-post: one step of the local capture chain.
struct CaptureStep {
    epoch: u64,
    left: u32,
}
/// Node → relay: local capture done, `bytes` of dirty state.
struct NodeDone {
    epoch: u64,
    bytes: u64,
}
/// Relay → coordinator: every node of the group reported.
struct GroupDone {
    epoch: u64,
    nodes: u32,
    bytes: u64,
}
/// Coordinator → relay: epoch committed, resume normal operation.
struct Resume {
    epoch: u64,
}
/// Node self-post: gossip tick.
struct Tick;
/// Node → node (intra-group): background traffic.
struct Ping;

// ---------------------------------------------------------------------------
// Components.
// ---------------------------------------------------------------------------

/// One committed round, as recorded by the coordinator.
#[derive(Clone, Copy, Debug)]
pub struct ScaleEpochRecord {
    /// Epoch number (1-based).
    pub epoch: u64,
    /// Commit time.
    pub committed_at: SimTime,
    /// Nodes that reported a capture.
    pub nodes: u32,
    /// Dirty bytes captured across all nodes.
    pub bytes: u64,
}

/// Lazily-registered telemetry ids (components are `Send`, so they hold
/// `Copy` ids, never the registry handle).
#[derive(Clone, Copy)]
struct CoordIds {
    track: sim::TrackId,
    tag_notify: sim::TraceTag,
    tag_commit: sim::TraceTag,
    c_commits: sim::CounterId,
    c_bytes: sim::CounterId,
    h_round_ns: sim::HistogramId,
}

struct ScaleCoordinator {
    relays: Vec<ComponentId>,
    period: SimDuration,
    hub_latency: SimDuration,
    epochs_target: u32,
    epoch: u64,
    round_started: SimTime,
    pending_groups: u32,
    round_nodes: u32,
    round_bytes: u64,
    records: Vec<ScaleEpochRecord>,
    ids: Option<CoordIds>,
}

impl ScaleCoordinator {
    fn ids(&mut self, t: &Telemetry) -> CoordIds {
        *self.ids.get_or_insert_with(|| CoordIds {
            track: t.track(0, "scale.coord"),
            tag_notify: t.trace_tag("epoch.notify"),
            tag_commit: t.trace_tag("epoch.commit"),
            c_commits: t.counter("scale.coord.commits"),
            c_bytes: t.counter("scale.coord.bytes"),
            h_round_ns: t.histogram("scale.coord.round_ns"),
        })
    }
}

impl Component for ScaleCoordinator {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        let ids = self.ids(ctx.telemetry());
        let payload = match payload.downcast::<StartRound>() {
            Ok(StartRound) => {
                self.epoch += 1;
                self.round_started = ctx.now();
                self.pending_groups = self.relays.len() as u32;
                self.round_nodes = 0;
                self.round_bytes = 0;
                ctx.telemetry()
                    .trace_instant(ids.track, ids.tag_notify, ctx.now(), self.epoch as i64);
                let (epoch, hub) = (self.epoch, self.hub_latency);
                for &relay in &self.relays.clone() {
                    ctx.post(relay, hub, Notify { epoch });
                }
                return;
            }
            Err(p) => p,
        };
        match payload.downcast::<GroupDone>() {
            Ok(GroupDone {
                epoch,
                nodes,
                bytes,
            }) => {
                assert_eq!(epoch, self.epoch, "group done for a stale round");
                self.pending_groups -= 1;
                self.round_nodes += nodes;
                self.round_bytes += bytes;
                if self.pending_groups > 0 {
                    return;
                }
                // Barrier complete: commit, resume, schedule the next round.
                let t = ctx.telemetry();
                t.trace_instant(ids.track, ids.tag_commit, ctx.now(), self.round_bytes as i64);
                t.inc(ids.c_commits);
                t.add(ids.c_bytes, self.round_bytes);
                let round = ctx.now().saturating_duration_since(self.round_started);
                t.record(ids.h_round_ns, round.as_nanos() as f64);
                self.records.push(ScaleEpochRecord {
                    epoch: self.epoch,
                    committed_at: ctx.now(),
                    nodes: self.round_nodes,
                    bytes: self.round_bytes,
                });
                let (epoch, hub) = (self.epoch, self.hub_latency);
                for &relay in &self.relays.clone() {
                    ctx.post(relay, hub, Resume { epoch });
                }
                if self.epoch < self.epochs_target as u64 {
                    // Aim for start-to-start cadence; if the round ran
                    // long, start the next one a hub latency out.
                    let next_in = if round < self.period {
                        self.period - round
                    } else {
                        self.hub_latency
                    };
                    ctx.post_self(next_in, StartRound);
                }
            }
            Err(p) => panic!("coordinator got unexpected payload {p:?}"),
        }
    }
    sim::component_boilerplate!();
}

#[derive(Clone, Copy)]
struct RelayIds {
    track: sim::TrackId,
    tag_done: sim::TraceTag,
    tag_resume: sim::TraceTag,
    c_rounds: sim::CounterId,
}

/// Per-group aggregation point: fans a notify out to its nodes, fans
/// node completions in, and reports one `GroupDone` upward — the O(G)
/// cross-shard traffic pattern that keeps 10,000-node epochs cheap.
struct ScaleRelay {
    group: u32,
    coordinator: ComponentId,
    nodes: Vec<ComponentId>,
    hub_latency: SimDuration,
    leaf_latency: SimDuration,
    epoch: u64,
    pending: u32,
    bytes: u64,
    ids: Option<RelayIds>,
}

impl ScaleRelay {
    fn ids(&mut self, t: &Telemetry) -> RelayIds {
        let group = self.group;
        *self.ids.get_or_insert_with(|| RelayIds {
            // Hosts 1.. are relays (host 0 is the coordinator).
            track: t.track(group + 1, "scale.relay"),
            tag_done: t.trace_tag("group.done"),
            tag_resume: t.trace_tag("group.resume"),
            c_rounds: t.counter("scale.relay.rounds"),
        })
    }
}

impl Component for ScaleRelay {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        let ids = self.ids(ctx.telemetry());
        let payload = match payload.downcast::<Notify>() {
            Ok(Notify { epoch }) => {
                self.epoch = epoch;
                self.pending = self.nodes.len() as u32;
                self.bytes = 0;
                let leaf = self.leaf_latency;
                for &node in &self.nodes.clone() {
                    ctx.post(node, leaf, NodeNotify { epoch });
                }
                return;
            }
            Err(p) => p,
        };
        let payload = match payload.downcast::<NodeDone>() {
            Ok(NodeDone { epoch, bytes }) => {
                assert_eq!(epoch, self.epoch, "node done for a stale round");
                self.pending -= 1;
                self.bytes += bytes;
                if self.pending == 0 {
                    let t = ctx.telemetry();
                    t.trace_instant(ids.track, ids.tag_done, ctx.now(), self.bytes as i64);
                    t.inc(ids.c_rounds);
                    ctx.post(
                        self.coordinator,
                        self.hub_latency,
                        GroupDone {
                            epoch,
                            nodes: self.nodes.len() as u32,
                            bytes: self.bytes,
                        },
                    );
                }
                return;
            }
            Err(p) => p,
        };
        match payload.downcast::<Resume>() {
            Ok(Resume { epoch }) => {
                ctx.telemetry()
                    .trace_instant(ids.track, ids.tag_resume, ctx.now(), epoch as i64);
            }
            Err(p) => panic!("relay got unexpected payload {p:?}"),
        }
    }
    sim::component_boilerplate!();
}

#[derive(Clone, Copy)]
struct NodeIds {
    c_captures: sim::CounterId,
    c_bytes: sim::CounterId,
    c_pings: sim::CounterId,
    h_capture_ns: sim::HistogramId,
}

/// A leaf node: O(1) state, a short self-posted capture chain per
/// epoch, and optional background gossip to its in-group neighbor.
/// While capturing, gossip sends pause (the closed world is frozen).
struct ScaleNode {
    relay: ComponentId,
    neighbor: ComponentId,
    leaf_latency: SimDuration,
    capture_steps: u32,
    gossip_period: SimDuration,
    dirty_kb_mean: u64,
    capture_started: Option<SimTime>,
    ids: Option<NodeIds>,
}

impl ScaleNode {
    fn ids(&mut self, t: &Telemetry) -> NodeIds {
        *self.ids.get_or_insert_with(|| NodeIds {
            c_captures: t.counter("scale.node.captures"),
            c_bytes: t.counter("scale.node.bytes"),
            c_pings: t.counter("scale.node.pings"),
            h_capture_ns: t.histogram("scale.node.capture_ns"),
        })
    }
}

impl Component for ScaleNode {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        let ids = self.ids(ctx.telemetry());
        let payload = match payload.downcast::<NodeNotify>() {
            Ok(NodeNotify { epoch }) => {
                self.capture_started = Some(ctx.now());
                let step_ns = ctx.rng().range_u64(20_000, 120_000);
                ctx.post_self(
                    SimDuration::from_nanos(step_ns),
                    CaptureStep {
                        epoch,
                        left: self.capture_steps,
                    },
                );
                return;
            }
            Err(p) => p,
        };
        let payload = match payload.downcast::<CaptureStep>() {
            Ok(CaptureStep { epoch, left }) => {
                if left > 1 {
                    let step_ns = ctx.rng().range_u64(20_000, 120_000);
                    ctx.post_self(
                        SimDuration::from_nanos(step_ns),
                        CaptureStep {
                            epoch,
                            left: left - 1,
                        },
                    );
                    return;
                }
                let mean = self.dirty_kb_mean.max(2);
                let kb = ctx.rng().range_u64(mean / 2, mean + mean / 2);
                let bytes = kb * 1024;
                let started = self.capture_started.take().expect("capture chain started");
                let t = ctx.telemetry();
                t.inc(ids.c_captures);
                t.add(ids.c_bytes, bytes);
                t.record(
                    ids.h_capture_ns,
                    ctx.now().saturating_duration_since(started).as_nanos() as f64,
                );
                ctx.post(self.relay, self.leaf_latency, NodeDone { epoch, bytes });
                return;
            }
            Err(p) => p,
        };
        let payload = match payload.downcast::<Tick>() {
            Ok(Tick) => {
                if self.capture_started.is_none() {
                    ctx.post(self.neighbor, self.leaf_latency, Ping);
                }
                let period = self.gossip_period.as_nanos();
                let jitter = ctx.rng().range_u64(0, period.max(4) / 4);
                ctx.post_self(SimDuration::from_nanos(period + jitter), Tick);
                return;
            }
            Err(p) => p,
        };
        match payload.downcast::<Ping>() {
            Ok(Ping) => ctx.telemetry().inc(ids.c_pings),
            Err(p) => panic!("node got unexpected payload {p:?}"),
        }
    }
    sim::component_boilerplate!();
}

// ---------------------------------------------------------------------------
// Lab assembly.
// ---------------------------------------------------------------------------

/// A built scale experiment: the sharded engine plus the ids needed to
/// drive and interrogate it.
pub struct ScaleLab {
    /// The engine; exposed so drivers (benches) can flip parallel mode
    /// or inspect counters directly.
    pub engine: ShardedEngine,
    coordinator: ComponentId,
    cfg: ScaleConfig,
}

/// Result summary of a completed run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScaleOutcome {
    /// Epochs committed (must equal `cfg.epochs`).
    pub epochs_committed: u64,
    /// Dirty bytes captured across all nodes and epochs.
    pub bytes_captured: u64,
    /// Leaf nodes in the topology.
    pub nodes: u32,
    /// Total events dispatched.
    pub events: u64,
    /// Gossip pings received across all nodes.
    pub pings: u64,
    /// FNV-1a fingerprint of the merged telemetry CSV.
    pub fingerprint_metrics: u64,
    /// FNV-1a fingerprint of the merged Perfetto trace export.
    pub fingerprint_trace: u64,
}

/// Builds the lab on `shards` shards. Identical `cfg` + `seed` produce
/// identical runs for every `shards` value — placement varies,
/// component ids and behavior do not.
pub fn build_scale_lab(cfg: &ScaleConfig, seed: u64, shards: u32) -> ScaleLab {
    assert!(!cfg.group_sizes.is_empty(), "need at least one group");
    assert!(
        cfg.leaf_latency <= cfg.hub_latency,
        "leaf latency above hub latency would understate the lookahead"
    );
    let mut engine = ShardedEngine::new(seed, shards, cfg.hub_latency);
    // Registration order is topology order: coordinator, then each
    // group's relay followed by its nodes. Only `shard` varies with S.
    let coordinator = engine.add_component_on(
        0,
        Box::new(ScaleCoordinator {
            relays: Vec::new(),
            period: cfg.epoch_period,
            hub_latency: cfg.hub_latency,
            epochs_target: cfg.epochs,
            epoch: 0,
            round_started: SimTime::ZERO,
            pending_groups: 0,
            round_nodes: 0,
            round_bytes: 0,
            records: Vec::new(),
            ids: None,
        }),
    );
    let mut relays = Vec::new();
    for (g, &size) in cfg.group_sizes.iter().enumerate() {
        assert!(size >= 1, "empty group {g}");
        let shard = g as u32 % shards;
        let relay = engine.add_component_on(
            shard,
            Box::new(ScaleRelay {
                group: g as u32,
                coordinator,
                nodes: Vec::new(),
                hub_latency: cfg.hub_latency,
                leaf_latency: cfg.leaf_latency,
                epoch: 0,
                pending: 0,
                bytes: 0,
                ids: None,
            }),
        );
        let nodes: Vec<ComponentId> = (0..size)
            .map(|_| {
                engine.add_component_on(
                    shard,
                    Box::new(ScaleNode {
                        relay,
                        neighbor: relay, // rewired below
                        leaf_latency: cfg.leaf_latency,
                        capture_steps: cfg.capture_steps.max(1),
                        gossip_period: cfg.gossip_period,
                        dirty_kb_mean: cfg.dirty_kb_mean,
                        capture_started: None,
                        ids: None,
                    }),
                )
            })
            .collect();
        for (i, &node) in nodes.iter().enumerate() {
            let neighbor = nodes[(i + 1) % nodes.len()];
            engine.component_mut::<ScaleNode>(node).unwrap().neighbor = neighbor;
        }
        engine.component_mut::<ScaleRelay>(relay).unwrap().nodes = nodes.clone();
        relays.push(relay);
        // Gossip kickoff: deterministic per-node stagger spreads ticks
        // across the period (a function of the node's id).
        if cfg.gossip_period > SimDuration::ZERO {
            let period = cfg.gossip_period.as_nanos();
            for (i, &node) in nodes.iter().enumerate() {
                let stagger = (node.0 as u64 * 97 + i as u64) % period.max(1);
                engine.post(node, SimDuration::from_nanos(stagger), Tick);
            }
        }
    }
    engine
        .component_mut::<ScaleCoordinator>(coordinator)
        .unwrap()
        .relays = relays;
    // First round starts one period in, leaving gossip time to spin up.
    engine.post(coordinator, cfg.epoch_period, StartRound);
    ScaleLab {
        engine,
        coordinator,
        cfg: cfg.clone(),
    }
}

impl ScaleLab {
    /// The fixed run horizon: identical across shard counts (it must
    /// be — fingerprints are compared across layouts), generous enough
    /// for every round to commit.
    pub fn horizon(&self) -> SimTime {
        SimTime::ZERO + self.cfg.epoch_period * (self.cfg.epochs as u64 + 2)
    }

    /// Runs the experiment to its horizon.
    pub fn run(&mut self) {
        let horizon = self.horizon();
        self.engine.run_until(horizon);
    }

    /// The committed rounds, in order.
    pub fn records(&self) -> &[ScaleEpochRecord] {
        &self
            .engine
            .component_ref::<ScaleCoordinator>(self.coordinator)
            .expect("coordinator exists")
            .records
    }

    /// Merged (deterministic) telemetry across shards.
    pub fn merged_telemetry(&self) -> Telemetry {
        self.engine.merged_telemetry()
    }

    /// Summarizes the run and fingerprints its exports.
    pub fn outcome(&self) -> ScaleOutcome {
        let m = self.merged_telemetry();
        ScaleOutcome {
            epochs_committed: m.counter_value("scale.coord.commits").unwrap_or(0),
            bytes_captured: m.counter_value("scale.coord.bytes").unwrap_or(0),
            nodes: self.cfg.nodes(),
            events: self.engine.events_dispatched(),
            pings: m.counter_value("scale.node.pings").unwrap_or(0),
            fingerprint_metrics: fnv1a(m.to_csv().as_bytes()),
            fingerprint_trace: fnv1a(m.trace_to_perfetto().as_bytes()),
        }
    }

    /// Protocol invariants every run must satisfy; returns the first
    /// violation as an error string.
    pub fn check_invariants(&self) -> Result<(), String> {
        let records = self.records();
        if records.len() != self.cfg.epochs as usize {
            return Err(format!(
                "committed {} epochs, wanted {}",
                records.len(),
                self.cfg.epochs
            ));
        }
        let nodes = self.cfg.nodes();
        let mut last_commit = SimTime::ZERO;
        for r in records {
            if r.nodes != nodes {
                return Err(format!(
                    "epoch {}: {} nodes reported, topology has {nodes}",
                    r.epoch, r.nodes
                ));
            }
            if r.bytes == 0 {
                return Err(format!("epoch {}: zero bytes captured", r.epoch));
            }
            if r.committed_at <= last_commit {
                return Err(format!("epoch {}: commits not monotone", r.epoch));
            }
            last_commit = r.committed_at;
        }
        let m = self.merged_telemetry();
        let node_bytes = m.counter_value("scale.node.bytes").unwrap_or(0);
        let coord_bytes = m.counter_value("scale.coord.bytes").unwrap_or(0);
        if node_bytes != coord_bytes {
            return Err(format!(
                "byte conservation broken: nodes captured {node_bytes}, \
                 coordinator committed {coord_bytes}"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_lab_commits_all_epochs() {
        let cfg = ScaleConfig {
            epochs: 3,
            ..ScaleConfig::uniform(4, 4)
        };
        let mut lab = build_scale_lab(&cfg, 11, 2);
        lab.run();
        lab.check_invariants().unwrap();
        let o = lab.outcome();
        assert_eq!(o.epochs_committed, 3);
        assert_eq!(o.nodes, 16);
        assert!(o.pings > 0, "gossip ran");
        assert!(o.bytes_captured > 0);
    }

    #[test]
    fn outcome_is_shard_count_invariant() {
        let cfg = ScaleConfig {
            epochs: 2,
            ..ScaleConfig::uniform(6, 3)
        };
        let run = |shards: u32| {
            let mut lab = build_scale_lab(&cfg, 42, shards);
            lab.run();
            lab.check_invariants().unwrap();
            lab.outcome()
        };
        let base = run(1);
        assert_eq!(run(2), base);
        assert_eq!(run(3), base);
    }

    #[test]
    fn ragged_group_sizes_work() {
        let cfg = ScaleConfig {
            group_sizes: vec![5, 1, 9, 2],
            epochs: 2,
            ..ScaleConfig::uniform(1, 1)
        };
        let mut lab = build_scale_lab(&cfg, 3, 3);
        lab.run();
        lab.check_invariants().unwrap();
        assert_eq!(lab.outcome().nodes, 17);
    }
}
