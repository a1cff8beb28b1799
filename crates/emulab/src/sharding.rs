//! Topology-driven shard planning, and the scale lab a plan builds.
//!
//! The planner reads only the static topology: the hub is the
//! highest-degree node (ties broken by name, so plans are stable across
//! runs and machines), every hub-less connected component becomes an
//! atomic placement group, components are dealt round-robin into the
//! requested number of groups in first-appearance order, and the
//! lookahead is the minimum latency of any hub-incident link — exactly
//! the conservative-window bound the sharded engine needs, derived from
//! the same spec the testbed swaps in.
//!
//! [`ScalePlan::build_lab`] runs the shipped epoch protocol over such a
//! plan on the sharded engine: the hub is the ops node, an unmodified
//! [`Coordinator`], and every other node a [`ScaleNode`] — the shipped
//! [`Participant`](checkpoint::Participant) over a cheap local world.

use std::collections::HashMap;
use std::fmt;

use checkpoint::{
    Coordinator, ScaleMsg, ScaleNode, ShadowEpochState, TriggerMode, GOSSIP_PERIOD,
};
use hwsim::{ControlLan, Endpoint, IfaceId, NodeAddr};
use sim::stats::fnv1a;
use sim::telemetry::names;
use sim::{ComponentId, ShardedEngine, SimDuration, SimTime};

use crate::spec::ExperimentSpec;

/// Why a spec could not be planned into shards.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// The spec has no nodes.
    EmptySpec,
    /// The spec failed [`ExperimentSpec::validate`].
    InvalidSpec(String),
    /// Every node is the hub's neighbor-less island: nothing to group.
    NoLeafNodes,
    /// A hub-incident link has zero delay, so no positive lookahead
    /// window exists.
    ZeroLookahead,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::EmptySpec => write!(f, "experiment spec has no nodes"),
            PlanError::InvalidSpec(e) => write!(f, "invalid spec: {e}"),
            PlanError::NoLeafNodes => {
                write!(f, "topology has no nodes besides the hub")
            }
            PlanError::ZeroLookahead => {
                write!(f, "a hub-incident link has zero delay; lookahead would be empty")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// A deterministic partition of an experiment topology into shardable
/// groups around a hub.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScalePlan {
    /// The chosen hub node name.
    pub hub: String,
    /// Node names per group; each group is an atomic placement unit.
    pub groups: Vec<Vec<String>>,
    /// Minimum hub-incident latency: the engine lookahead.
    pub lookahead: SimDuration,
}

impl ScalePlan {
    /// Plans `spec` into at most `target_groups` groups.
    ///
    /// Hub selection: highest degree over links and LANs, name as
    /// tie-break. Grouping: connected components of the graph minus the
    /// hub, dealt round-robin in order of each component's
    /// first-registered node. Lookahead: the minimum delay among links
    /// and LANs touching the hub.
    pub fn from_spec(spec: &ExperimentSpec, target_groups: u32) -> Result<ScalePlan, PlanError> {
        assert!(target_groups >= 1, "need at least one group");
        if spec.nodes.is_empty() {
            return Err(PlanError::EmptySpec);
        }
        spec.validate()
            .map_err(|e| PlanError::InvalidSpec(format!("{e:?}")))?;

        let n = spec.nodes.len();
        let index: HashMap<&str, usize> = spec
            .nodes
            .iter()
            .enumerate()
            .map(|(i, node)| (node.name.as_str(), i))
            .collect();

        // Adjacency + degree over links and LANs (a LAN is a clique for
        // degree purposes but we only need neighbor sets).
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut edge = |a: usize, b: usize| {
            adj[a].push(b);
            adj[b].push(a);
        };
        for l in &spec.links {
            edge(index[l.a.as_str()], index[l.b.as_str()]);
        }
        for lan in &spec.lans {
            for (i, a) in lan.members.iter().enumerate() {
                for b in &lan.members[i + 1..] {
                    edge(index[a.as_str()], index[b.as_str()]);
                }
            }
        }

        // Hub: max degree, smallest name on ties.
        let hub_idx = (0..n)
            .max_by(|&a, &b| {
                adj[a]
                    .len()
                    .cmp(&adj[b].len())
                    .then_with(|| spec.nodes[b].name.cmp(&spec.nodes[a].name))
            })
            .expect("non-empty");
        if n == 1 {
            return Err(PlanError::NoLeafNodes);
        }

        // Lookahead: min delay of anything touching the hub.
        let hub_name = spec.nodes[hub_idx].name.as_str();
        let link_delays = spec
            .links
            .iter()
            .filter(|l| l.a == hub_name || l.b == hub_name)
            .map(|l| l.delay);
        let lan_delays = spec
            .lans
            .iter()
            .filter(|lan| lan.members.iter().any(|m| m == hub_name))
            .map(|lan| lan.delay);
        let lookahead = link_delays.chain(lan_delays).min().ok_or(PlanError::NoLeafNodes)?;
        if lookahead == SimDuration::ZERO {
            return Err(PlanError::ZeroLookahead);
        }

        // Connected components of the graph minus the hub, discovered
        // in node-registration order so the plan is deterministic.
        let mut comp_of: Vec<Option<usize>> = vec![None; n];
        let mut components: Vec<Vec<usize>> = Vec::new();
        for start in 0..n {
            if start == hub_idx || comp_of[start].is_some() {
                continue;
            }
            let cid = components.len();
            let mut stack = vec![start];
            let mut members = Vec::new();
            comp_of[start] = Some(cid);
            while let Some(v) = stack.pop() {
                members.push(v);
                for &w in &adj[v] {
                    if w != hub_idx && comp_of[w].is_none() {
                        comp_of[w] = Some(cid);
                        stack.push(w);
                    }
                }
            }
            members.sort_unstable();
            components.push(members);
        }
        if components.is_empty() {
            return Err(PlanError::NoLeafNodes);
        }

        // Deal components round-robin into the target group count.
        let group_count = (target_groups as usize).min(components.len());
        let mut groups: Vec<Vec<String>> = vec![Vec::new(); group_count];
        for (i, comp) in components.into_iter().enumerate() {
            let g = &mut groups[i % group_count];
            g.extend(comp.into_iter().map(|v| spec.nodes[v].name.clone()));
        }

        Ok(ScalePlan {
            hub: hub_name.to_string(),
            groups,
            lookahead,
        })
    }

    /// Leaf nodes across all groups (excludes the hub).
    pub fn nodes(&self) -> usize {
        self.groups.iter().map(Vec::len).sum()
    }

    /// Builds the scale lab over this plan on `shards` shards: `epochs`
    /// rounds, one every `epoch_period` from the first period on; the same
    /// inputs give the same bytes for every `shards`. The hub is a
    /// [`Coordinator`] (event-driven: scale nodes model no NTP clock)
    /// publishing on a downlink LAN every node is attached to, on shard 0;
    /// group `g` sends on its own uplink LAN (its edge switch, the
    /// coordinator attached), on shard `g % shards` with its nodes. Every
    /// LAN's latency is the lookahead, so every cross-shard delivery
    /// clears the window.
    ///
    /// # Panics
    ///
    /// Panics on an empty group.
    pub fn build_lab(
        &self,
        seed: u64,
        shards: u32,
        epochs: u32,
        epoch_period: SimDuration,
    ) -> ScaleLab {
        let lan = || Box::new(ControlLan::new(LAN_BPS, self.lookahead, LAN_JITTER));
        let ctrl = |component| Endpoint { component, iface: IfaceId::CONTROL };
        let mut engine = ShardedEngine::new(seed, shards, self.lookahead);
        // Registration order is topology order; only `shard` varies with S.
        let downlink = engine.add_component_on(0, lan());
        let coordinator = Coordinator::builder(OPS, downlink).mode(TriggerMode::EventDriven);
        let coordinator = engine.add_component_on(0, Box::new(coordinator.build()));
        let mut nodes = Vec::with_capacity(self.nodes());
        for (g, group) in self.groups.iter().enumerate() {
            assert!(!group.is_empty(), "empty group {g}");
            let shard = g as u32 % shards;
            let uplink = engine.add_component_on(shard, lan());
            let first = nodes.len() as u32 + 1;
            let size = group.len() as u32;
            for i in 0..size {
                let addr = NodeAddr(first + i);
                let neighbor = NodeAddr(first + (i + 1) % size);
                let node = ScaleNode::new(addr, OPS, uplink, neighbor);
                let node = engine.add_component_on(shard, Box::new(node));
                for lan in [uplink, downlink] {
                    engine.component_mut::<ControlLan>(lan).unwrap().attach(addr, ctrl(node));
                }
                engine.component_mut::<Coordinator>(coordinator).unwrap().subscribe(addr);
                nodes.push(node);
            }
            engine.component_mut::<ControlLan>(uplink).unwrap().attach(OPS, ctrl(coordinator));
        }
        engine.component_mut::<ControlLan>(downlink).unwrap().attach(OPS, ctrl(coordinator));
        // Only the coordinator traces: size its shard's ring to keep every
        // epoch event (3 per node per round, plus the round's own), so the
        // shadow model sees whole rounds at any node count.
        let trace_cap = (3 * nodes.len() + 16) * epochs as usize;
        engine.with_component::<Coordinator, _>(coordinator, |_, ctx| {
            ctx.telemetry().set_trace_capacity(trace_cap.max(1 << 16));
        });
        // Gossip kickoff: a per-node stagger spreads the ticks over the
        // period, a function of the node's id alone.
        let period = GOSSIP_PERIOD.as_nanos();
        for &node in &nodes {
            let stagger = SimDuration::from_nanos(node.0 as u64 * 97 % period);
            engine.post(node, stagger, ScaleMsg::Gossip);
        }
        ScaleLab { engine, coordinator, nodes: nodes.len() as u32, epochs, epoch_period }
    }
}

/// Port rate of the scale lab's LANs.
const LAN_BPS: u64 = 1_000_000_000;
/// Mean queueing jitter of the scale lab's LANs, on top of the lookahead.
const LAN_JITTER: SimDuration = SimDuration::from_micros(20);
/// The scale lab's ops node; its nodes are `1..=n` in plan order.
const OPS: NodeAddr = NodeAddr(0);

/// A built scale lab: the sharded engine plus what drives and
/// interrogates it. See [`ScalePlan::build_lab`].
pub struct ScaleLab {
    /// The engine; exposed so drivers can flip threaded mode or read its
    /// counters.
    pub engine: ShardedEngine,
    coordinator: ComponentId,
    nodes: u32,
    epochs: u32,
    epoch_period: SimDuration,
}

/// Summary of a completed run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScaleOutcome {
    /// Epochs committed (must equal the epochs asked for).
    pub epochs_committed: u64,
    /// Image bytes the coordinator accounted across all epochs.
    pub bytes_captured: u64,
    /// Scale nodes (the ops node excluded).
    pub nodes: u32,
    /// Total events dispatched.
    pub events: u64,
    /// Gossip frames received across all nodes.
    pub pings: u64,
    /// FNV-1a of the merged telemetry CSV.
    pub fingerprint_metrics: u64,
    /// FNV-1a of the merged Perfetto trace export.
    pub fingerprint_trace: u64,
}

impl ScaleLab {
    /// Runs the experiment: each round is a `trigger` between two
    /// `run_until` slices, and the run ends two periods after the last
    /// round — a horizon that depends on nothing but the inputs, as it
    /// must for fingerprints to compare across layouts.
    pub fn run(&mut self) {
        let at = |k: u64| SimTime::ZERO + self.epoch_period * k;
        for k in 1..=u64::from(self.epochs) {
            self.engine.run_until(at(k));
            self.engine
                .with_component::<Coordinator, _>(self.coordinator, |c, ctx| c.trigger(ctx));
        }
        self.engine.run_until(at(u64::from(self.epochs) + 2));
    }

    /// The ops node.
    pub fn coordinator(&self) -> &Coordinator {
        self.engine.component_ref(self.coordinator).expect("the coordinator exists")
    }

    /// Summarizes the run and fingerprints its exports.
    pub fn outcome(&self) -> ScaleOutcome {
        let m = self.engine.merged_telemetry();
        ScaleOutcome {
            epochs_committed: self.coordinator().outcome_counts().0,
            bytes_captured: m.counter_value(names::COORD_CAPTURED_BYTES).unwrap_or(0),
            nodes: self.nodes,
            events: self.engine.events_dispatched(),
            pings: m.counter_value(names::SCALE_NODE_PINGS).unwrap_or(0),
            fingerprint_metrics: fnv1a(m.to_csv().as_bytes()),
            fingerprint_trace: fnv1a(m.trace_to_perfetto().as_bytes()),
        }
    }

    /// The protocol's own invariants: every round committed, the shadow
    /// model is clean over the merged trace and checked every round, and
    /// the bytes the nodes captured are the bytes the coordinator
    /// accounted. Returns the first violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        let counts = self.coordinator().outcome_counts();
        let want = (u64::from(self.epochs), 0, 0);
        if counts != want {
            return Err(format!("(committed, aborted, degraded) = {counts:?}, wanted {want:?}"));
        }
        let m = self.engine.merged_telemetry();
        let mut shadow = ShadowEpochState::new();
        for ev in &m.trace_events() {
            shadow.step(ev);
        }
        shadow.finish();
        if let Some(v) = shadow.violations().first() {
            return Err(format!("shadow violation: {v}"));
        }
        if shadow.epochs_checked != want.0 {
            let checked = shadow.epochs_checked;
            return Err(format!("shadow checked {checked} epochs, wanted {}", want.0));
        }
        let node_bytes = m.counter_value(names::SCALE_NODE_BYTES).unwrap_or(0);
        let coord_bytes = m.counter_value(names::COORD_CAPTURED_BYTES).unwrap_or(0);
        if node_bytes != coord_bytes || coord_bytes == 0 {
            return Err(format!(
                "byte conservation broken: nodes captured {node_bytes}, \
                 coordinator accounted {coord_bytes}"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_plan_picks_hub_and_balances_groups() {
        let spec = ExperimentSpec::star("s", 40, 100_000_000, SimDuration::from_millis(5));
        let plan = ScalePlan::from_spec(&spec, 4).unwrap();
        assert_eq!(plan.hub, "hub");
        assert_eq!(plan.groups.len(), 4);
        assert_eq!(plan.nodes(), 40);
        assert!(plan.groups.iter().all(|g| g.len() == 10));
        assert_eq!(plan.lookahead, SimDuration::from_millis(5));
    }

    #[test]
    fn tree_plan_keeps_subtrees_whole() {
        let trunk = SimDuration::from_millis(4);
        let leaf = SimDuration::from_micros(250);
        let spec = ExperimentSpec::tree("t", 3, 2, 1_000_000_000, trunk, leaf);
        // Root n0 has degree 3; children have degree 4 — a child wins
        // the hub vote, its removal splits the rest into components.
        let plan = ScalePlan::from_spec(&spec, 3).unwrap();
        assert_eq!(plan.nodes(), 12);
        assert_eq!(plan.lookahead, leaf, "hub's cheapest incident link");
        let total: usize = plan.groups.iter().map(Vec::len).sum();
        assert_eq!(total, 12);
    }

    #[test]
    fn plan_is_deterministic() {
        let spec = ExperimentSpec::star("s", 33, 1_000_000, SimDuration::from_millis(2));
        let a = ScalePlan::from_spec(&spec, 4).unwrap();
        let b = ScalePlan::from_spec(&spec, 4).unwrap();
        assert_eq!(a.groups, b.groups);
        assert_eq!(a.hub, b.hub);
    }

    #[test]
    fn zero_delay_hub_link_is_rejected() {
        let spec = ExperimentSpec::new("z")
            .node("a")
            .node("b")
            .link("a", "b", 1, SimDuration::ZERO, 0.0);
        assert_eq!(
            ScalePlan::from_spec(&spec, 2),
            Err(PlanError::ZeroLookahead)
        );
    }

    #[test]
    fn degenerate_specs_are_rejected() {
        assert_eq!(
            ScalePlan::from_spec(&ExperimentSpec::new("e"), 1),
            Err(PlanError::EmptySpec)
        );
        assert_eq!(
            ScalePlan::from_spec(&ExperimentSpec::new("one").node("a"), 1),
            Err(PlanError::NoLeafNodes)
        );
    }

    #[test]
    fn plan_builds_a_lab_that_commits_every_round() {
        let spec = ExperimentSpec::star("s", 64, 100_000_000, SimDuration::from_millis(5));
        let plan = ScalePlan::from_spec(&spec, 8).unwrap();
        let mut lab = plan.build_lab(7, 4, 2, SimDuration::from_millis(100));
        lab.run();
        lab.check_invariants().unwrap();
        assert_eq!(lab.engine.now(), SimTime::from_nanos(400_000_000));
        let o = lab.outcome();
        assert_eq!((o.nodes, o.epochs_committed), (64, 2));
        assert!(o.pings > 0, "gossip ran");
        assert_eq!(lab.coordinator().records().len(), 2);
    }
}
