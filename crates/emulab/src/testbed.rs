//! The testbed facade: allocation, swap-in, experiment control.
//!
//! [`Testbed`] plays Emulab's role as "an operating system for a computer
//! network" (§9): it owns the event engine, the control LAN, the ops node
//! (NTP + checkpoint coordinator) and the file server, manages a pool of
//! physical machines with per-machine image caches, maps experiment specs
//! onto machines (interposing delay nodes on shaped links, §2), and offers
//! the experiment-control operations the paper builds: coordinated
//! transparent checkpoints, stateful swapping ([`crate::swap`]) and time
//! travel ([`crate::timetravel`]).

use std::collections::HashMap;
use std::sync::Arc;

use checkpoint::{Coordinator, DelayNodeHost, GroupId, Strategy};
use ckptstore::{CaptureCache, PutReport, Segment, StoreClient};
use cowstore::{BranchingStore, CowMode, GoldenImage, GoldenImageBuilder, StoreLayout};
use dummynet::PipeConfig;
use guestos::{GuestProg, Kernel, KernelConfig, Tid};
use hwsim::{profile, ControlLan, Endpoint, IfaceId, NodeAddr, Wire};
use sim::buggify;
use sim::buggify::points as bg_points;
use sim::telemetry::names;
use sim::{
    transmission_time, Buggify, ComponentId, CounterId, Engine, HistogramId, SimDuration, SimTime,
    SpanId, Telemetry, TraceCtx, TraceTag, TrackId,
};
use vmm::{ExpPort, VmHost, VmHostConfig};

use crate::errors::{SwapError, TestbedError};
use crate::services::FileServer;
use crate::spec::ExperimentSpec;
use crate::swap::SwappedExperiment;
use crate::timetravel::TimeTravelTree;

/// Ops-node (coordinator) control address.
pub const OPS_ADDR: NodeAddr = NodeAddr(10_000);

/// File-server control address.
pub const FS_ADDR: NodeAddr = NodeAddr(10_001);

/// Shards the file server's store service runs: enough to show put
/// batches pipelining without inflating the telemetry export.
pub const FS_STORE_SHARDS: usize = 2;

/// Fixed swap-in overhead with a cached image: node configuration plus VM
/// boot — §7.2's "initial swap-in took eight seconds".
pub const BOOT_OVERHEAD: SimDuration = SimDuration::from_secs(8);

/// Delay-node orphaned-suspension watchdog, armed under fault
/// injection: must exceed the coordinator's epoch deadline (2 s) plus
/// its worst-case crash downtime (400 ms), or the watchdog would abort
/// live rounds that are merely slow.
pub const SUSPEND_WATCHDOG: SimDuration = SimDuration::from_secs(4);

/// Splices a shaped link between two hosts, each given as its component
/// and address, through the delay node `dn`: four wires at `line_bps`
/// with `propagation` (host → node, node → host, for each host), one
/// pipe shaped by `shape` per direction — frames from `a` enter on the
/// node's interface 1, frames from `b` on interface 2 — and each host's
/// route to the other.
pub fn splice_shaped_link(
    e: &mut Engine,
    dn: ComponentId,
    a: (ComponentId, NodeAddr),
    b: (ComponentId, NodeAddr),
    line_bps: u64,
    propagation: SimDuration,
    shape: PipeConfig,
) {
    let wire = |component, iface| Wire::new(Endpoint { component, iface }, line_bps, propagation);
    e.with_component::<DelayNodeHost, _>(dn, |d, _| {
        d.add_path(IfaceId(1), shape, wire(b.0, IfaceId::EXPERIMENT));
        d.add_path(IfaceId(2), shape, wire(a.0, IfaceId::EXPERIMENT));
    });
    e.with_component::<VmHost, _>(a.0, |h, _| {
        h.add_exp_route(b.1, ExpPort::Wire(wire(dn, IfaceId(1))));
    });
    e.with_component::<VmHost, _>(b.0, |h, _| {
        h.add_exp_route(a.1, ExpPort::Wire(wire(dn, IfaceId(2))));
    });
}

/// One physical machine in the pool.
#[derive(Clone, Debug)]
pub struct PhysMachine {
    pub id: usize,
    /// Golden images cached on the local disk.
    pub cached_images: Vec<String>,
    pub in_use: bool,
}

/// A live experiment node.
pub struct NodeHandle {
    pub name: String,
    pub addr: NodeAddr,
    pub host: ComponentId,
    pub machine: usize,
}

/// A live delay node.
pub struct DelayNodeHandle {
    pub addr: NodeAddr,
    pub component: ComponentId,
    pub machine: usize,
    /// Which spec link this node shapes.
    pub link_index: usize,
}

/// A swapped-in experiment.
pub struct Experiment {
    pub spec: ExperimentSpec,
    pub nodes: Vec<NodeHandle>,
    pub delay_nodes: Vec<DelayNodeHandle>,
    /// Experiment LAN components (for teardown).
    pub plumbing: Vec<ComponentId>,
    /// The time-travel tree of this experiment.
    pub tt: TimeTravelTree,
}

/// Telemetry instrument ids of the testbed control paths (registered
/// once at construction; recording is index-based and allocation-free).
#[derive(Clone, Copy)]
pub(crate) struct TestbedTele {
    pub(crate) swap_ins: CounterId,
    pub(crate) swap_outs: CounterId,
    pub(crate) checkpoints: CounterId,
    pub(crate) swap_in_ns: HistogramId,
    pub(crate) swap_out_ns: HistogramId,
    pub(crate) stateful_swap_in_ns: HistogramId,
    pub(crate) swap_in_span: SpanId,
    pub(crate) swap_out_span: SpanId,
    /// Testbed control-plane trace track (on the ops node's pid).
    pub(crate) track: TrackId,
    pub(crate) ev_golden_fetch: TraceTag,
}

impl TestbedTele {
    fn register(t: &Telemetry) -> Self {
        TestbedTele {
            swap_ins: t.counter(names::TB_SWAP_INS),
            swap_outs: t.counter(names::TB_SWAP_OUTS),
            checkpoints: t.counter(names::TB_CHECKPOINTS),
            swap_in_ns: t.histogram(names::TB_SWAP_IN_NS),
            swap_out_ns: t.histogram(names::TB_SWAP_OUT_NS),
            stateful_swap_in_ns: t.histogram(names::TB_STATEFUL_SWAP_IN_NS),
            swap_in_span: t.span(names::SPAN_TESTBED, names::SPAN_SWAP_IN),
            swap_out_span: t.span(names::SPAN_TESTBED, names::SPAN_SWAP_OUT),
            track: t.track(OPS_ADDR.0, names::TRACK_TESTBED),
            ev_golden_fetch: t.trace_tag(names::EV_GOLDEN_FETCH),
        }
    }
}

/// The testbed.
///
/// # Examples
///
/// ```
/// use emulab::{ExperimentSpec, Testbed};
/// use sim::SimDuration;
///
/// let mut tb = Testbed::new(1, 4);
/// tb.swap_in(ExperimentSpec::new("demo").node("n")).unwrap();
/// tb.run_for(SimDuration::from_secs(1));
/// assert_eq!(tb.free_machines(), 3);
/// ```
pub struct Testbed {
    pub engine: Engine,
    lan: ComponentId,
    coordinator: ComponentId,
    fileserver: ComponentId,
    pool: Vec<PhysMachine>,
    images: HashMap<String, Arc<GoldenImage>>,
    experiments: HashMap<String, Experiment>,
    swapped: HashMap<String, SwappedExperiment>,
    next_addr: u32,
    next_group: u32,
    /// Experiment name → checkpoint group.
    groups: HashMap<String, GroupId>,
    /// File-server uplink reservation: bulk transfers serialize here.
    fs_uplink_free: SimTime,
    /// The file server's content-addressed image store — a client handle
    /// to the sharded store service. Swapped-out node state is chunked
    /// and deduplicated here, and swap transfer sizes are driven by the
    /// *new physical* bytes each image actually adds.
    fs_store: StoreClient,
    /// Per-node capture hash caches for swap-out serialization, keyed by
    /// `experiment:node`: chunks unchanged since the node's previous
    /// swap-out are re-admitted by cached hash instead of re-hashed.
    swap_caches: HashMap<String, CaptureCache>,
    /// The checkpointing strategy hosts and coordinator are wired for.
    strategy: Strategy,
    /// Control-path instrument ids (engine-owned registry).
    pub(crate) tele: TestbedTele,
}

impl Testbed {
    /// Creates a testbed with `machines` physical machines, running the
    /// paper's transparent checkpoint strategy.
    pub fn new(seed: u64, machines: usize) -> Self {
        Self::with_strategy(seed, machines, Strategy::Transparent)
    }

    /// Creates a testbed whose coordinator and hosts follow `strategy`
    /// (trigger mode, downtime concealment, notification jitter) — the
    /// baseline-comparison knob of the XTRA experiments.
    pub fn with_strategy(seed: u64, machines: usize, strategy: Strategy) -> Self {
        let mut engine = Engine::new(seed);
        let lan = engine.add_component(Box::new(ControlLan::new(
            profile::CTRL_LAN_BPS,
            profile::CTRL_LAN_LATENCY,
            profile::CTRL_LAN_JITTER,
        )));
        let coordinator = engine.add_component(Box::new(
            Coordinator::builder(OPS_ADDR, lan)
                .mode(strategy.trigger_mode())
                .build(),
        ));
        let fileserver = engine.add_component(Box::new(FileServer::new(FS_ADDR, lan)));
        engine.with_component::<ControlLan, _>(lan, |l, _| {
            l.attach(OPS_ADDR, Endpoint { component: coordinator, iface: IfaceId::CONTROL });
            l.attach(FS_ADDR, Endpoint { component: fileserver, iface: IfaceId::CONTROL });
        });
        let mut images = HashMap::new();
        // The standard image library: a 6 GB FC4 image.
        let disk_blocks = profile::GUEST_DISK_BYTES / 4096;
        images.insert(
            "FC4-STD".to_string(),
            Arc::new(
                GoldenImageBuilder::new("FC4-STD", disk_blocks, 4096, 0xFC4)
                    .compression(0.12)
                    .build(),
            ),
        );
        let tele = TestbedTele::register(engine.telemetry());
        // The file server runs the store as a two-shard service so put
        // batches pipeline across shards; replication stays at 1 (the
        // testbed's swap images are already content-addressed dedup
        // copies of live state).
        let fs_store = StoreClient::builder()
            .shards(FS_STORE_SHARDS)
            .telemetry(engine.telemetry(), FS_ADDR.0)
            .build();
        Testbed {
            engine,
            lan,
            coordinator,
            fileserver,
            pool: (0..machines)
                .map(|id| PhysMachine {
                    id,
                    cached_images: Vec::new(),
                    in_use: false,
                })
                .collect(),
            images,
            experiments: HashMap::new(),
            swapped: HashMap::new(),
            next_addr: 1,
            next_group: 1,
            groups: HashMap::new(),
            fs_uplink_free: SimTime::ZERO,
            fs_store,
            swap_caches: HashMap::new(),
            strategy,
            tele,
        }
    }

    /// The engine's telemetry registry: every layer of the testbed
    /// (coordinator, hosts, dedup store, swap paths) records into it.
    pub fn telemetry(&self) -> &Telemetry {
        self.engine.telemetry()
    }

    /// Arms randomized fault exploration across every layer: the engine's
    /// components (LAN, coordinator, hosts, delay nodes) see the registry
    /// through their dispatch context, and the file server's store gets
    /// its own clone for the `store.*` points.
    pub fn arm_buggify(&mut self, bg: Buggify) {
        self.fs_store.attach_buggify(&bg);
        self.engine.arm_buggify(bg);
        // Under fault injection the coordinator can crash while a delay
        // node sits suspended awaiting its resume; arm the orphan
        // watchdog on every delay node, existing and future, so no
        // suspension outlives the protocol.
        let dns: Vec<ComponentId> = self
            .experiments
            .values()
            .flat_map(|exp| exp.delay_nodes.iter().map(|d| d.component))
            .collect();
        for dn in dns {
            self.engine.with_component::<DelayNodeHost, _>(dn, |d, _| {
                d.participant.suspend_watchdog = Some(SUSPEND_WATCHDOG);
            });
        }
    }

    /// The exploration registry (disarmed unless [`Testbed::arm_buggify`]
    /// ran).
    pub fn buggify(&self) -> &Buggify {
        self.engine.buggify()
    }

    /// The strategy this testbed runs.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The file server's store client (dedup accounting: `stats()`
    /// reports logical vs physical bytes of preserved state). The handle
    /// is cheap to clone; all access goes through it.
    pub fn fileserver_store(&self) -> &StoreClient {
        &self.fs_store
    }

    /// Stores a node's swap-out image — the encoder's segments, which the
    /// store adopts — through that node's capture hash cache: chunks
    /// unchanged since its previous swap-out skip the re-hash.
    /// Observably identical to a plain `put_image` (the timed
    /// put additionally records shard batch events and commit latency).
    /// When `flow` carries a round's causal context (swap-out puts land
    /// inside the held suspend round), the put's quorum-commit instant
    /// joins that round's flow as a `flow.store_commit` step.
    pub(crate) fn fs_put_cached(
        &mut self,
        cache_key: &str,
        segments: Vec<Segment>,
        flow: TraceCtx,
    ) -> PutReport {
        let cache = self.swap_caches.entry(cache_key.to_string()).or_default();
        let now = self.engine.now();
        let put = self.fs_store.put_segments_at(segments, Some(cache), now);
        {
            let t = self.engine.telemetry();
            let track = t.track(FS_ADDR.0, names::TRACK_STORE_SHARD);
            let tag = t.trace_tag(names::FLOW_STORE_COMMIT);
            t.flow_step(track, tag, put.commit_at, flow);
        }
        put.report
    }

    /// The causal context of `group`'s in-flight epoch round (NONE when
    /// the group is idle). See [`checkpoint::Coordinator::trace_ctx_in`].
    pub(crate) fn round_flow_in(&self, group: GroupId) -> TraceCtx {
        self.engine
            .component_ref::<Coordinator>(self.coordinator)
            .map(|c| c.trace_ctx_in(group))
            .unwrap_or(TraceCtx::NONE)
    }

    /// A registered golden image by name (restore-time decode anchor).
    ///
    /// # Panics
    ///
    /// Panics on an unknown image name (specs are validated at swap-in).
    pub(crate) fn golden_image(&self, name: &str) -> Arc<GoldenImage> {
        self.images
            .get(name)
            .unwrap_or_else(|| panic!("unknown golden image {name}"))
            .clone()
    }

    /// The checkpoint group of an experiment.
    ///
    /// # Panics
    ///
    /// Panics if the experiment is not swapped in (or swapped state).
    pub fn group_of(&self, exp: &str) -> GroupId {
        *self
            .groups
            .get(exp)
            .unwrap_or_else(|| panic!("no group for experiment {exp}"))
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// The control-LAN component (advanced wiring).
    pub fn lan(&self) -> ComponentId {
        self.lan
    }

    /// The coordinator component id.
    pub fn coordinator(&self) -> ComponentId {
        self.coordinator
    }

    /// The file-server component id.
    pub fn fileserver(&self) -> ComponentId {
        self.fileserver
    }

    /// Access to a live experiment.
    ///
    /// # Panics
    ///
    /// Panics if the experiment is not swapped in.
    pub fn experiment(&self, name: &str) -> &Experiment {
        self.experiments
            .get(name)
            .unwrap_or_else(|| panic!("experiment {name} not swapped in"))
    }

    /// Mutable access to a live experiment.
    ///
    /// # Panics
    ///
    /// Panics if the experiment is not swapped in.
    pub fn experiments_mut(&mut self, name: &str) -> &mut Experiment {
        self.experiments
            .get_mut(name)
            .unwrap_or_else(|| panic!("experiment {name} not swapped in"))
    }

    /// Whether an experiment is currently swapped in.
    pub fn swapped_in(&self, name: &str) -> bool {
        self.experiments.contains_key(name)
    }

    /// Free machines in the pool.
    pub fn free_machines(&self) -> usize {
        self.pool.iter().filter(|m| !m.in_use).count()
    }

    /// Runs the simulation for `d`.
    pub fn run_for(&mut self, d: SimDuration) {
        let target = self.engine.now() + d;
        self.run_until(target);
    }

    /// Runs the simulation until `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.engine.run_until(t);
    }

    /// Spawns a program immediately; returns its thread id.
    pub fn spawn(&mut self, exp: &str, node: &str, prog: Box<dyn GuestProg>) -> Tid {
        let host = self.host_id(exp, node);
        self.engine
            .with_component::<VmHost, _>(host, |h, _| h.kernel_mut().spawn(prog))
    }

    /// The host component of a node.
    ///
    /// # Panics
    ///
    /// Panics on unknown experiment or node.
    pub fn host_id(&self, exp: &str, node: &str) -> ComponentId {
        self.experiment(exp)
            .nodes
            .iter()
            .find(|n| n.name == node)
            .unwrap_or_else(|| panic!("no node {node} in {exp}"))
            .host
    }

    /// The host components of `exp`'s nodes, in spec order.
    pub(crate) fn hosts_of(&self, exp: &str) -> Vec<ComponentId> {
        self.experiment(exp).nodes.iter().map(|n| n.host).collect()
    }

    /// The delay-node components of `exp`, in spec link order.
    pub(crate) fn delay_nodes_of(&self, exp: &str) -> Vec<ComponentId> {
        self.experiment(exp).delay_nodes.iter().map(|d| d.component).collect()
    }

    /// The experiment-network address of a node.
    pub fn node_addr(&self, exp: &str, node: &str) -> NodeAddr {
        self.experiment(exp)
            .nodes
            .iter()
            .find(|n| n.name == node)
            .unwrap_or_else(|| panic!("no node {node} in {exp}"))
            .addr
    }

    /// Read-only access to a node's guest kernel.
    pub fn kernel<R>(&self, exp: &str, node: &str, f: impl FnOnce(&Kernel) -> R) -> R {
        let host = self.host_id(exp, node);
        let h = self
            .engine
            .component_ref::<VmHost>(host)
            .expect("host exists");
        f(h.kernel())
    }

    /// Mutable access to a node's host (instrumentation, tracing).
    pub fn with_host<R>(&mut self, exp: &str, node: &str, f: impl FnOnce(&mut VmHost) -> R) -> R {
        let host = self.host_id(exp, node);
        self.engine.with_component::<VmHost, _>(host, |h, _| f(h))
    }

    // ------------------------------------------------------------------
    // Allocation and transfers.
    // ------------------------------------------------------------------

    /// Claims a free machine. Callers check capacity up front
    /// ([`Testbed::swap_in_with`]) so a partial allocation never leaks.
    fn alloc_machine(&mut self) -> Option<usize> {
        let m = self.pool.iter_mut().find(|m| !m.in_use)?;
        m.in_use = true;
        Some(m.id)
    }

    fn free_machine(&mut self, id: usize) {
        self.pool[id].in_use = false;
    }

    /// Reserves the file-server uplink for `bytes` and returns the
    /// transfer's completion time (bulk state moves serialize on this,
    /// §7.2: "use of the 100 Mbps control network is clearly a
    /// bottleneck").
    pub(crate) fn uplink_transfer(&mut self, bytes: u64) -> SimTime {
        let start = self.fs_uplink_free.max(self.engine.now());
        let end = start + transmission_time(bytes, profile::CTRL_LAN_BPS);
        self.fs_uplink_free = end;
        end
    }

    /// Fetches an image to a machine's cache if missing; returns when it
    /// is available (Frisbee-style compressed transfer).
    fn ensure_image_cached(&mut self, machine: usize, image: &str) -> SimTime {
        let cached = self.pool[machine].cached_images.iter().any(|i| i == image);
        // Buggified cache loss: a cached golden image fails its checksum
        // at validation and must be re-fetched — the Frisbee transfer
        // repeats even though the cache says the image is present.
        let bg = self.engine.buggify().clone();
        let refetch = cached && buggify!(bg, bg_points::GOLDEN_REFETCH);
        if cached && !refetch {
            return self.engine.now();
        }
        let wire = self.images[image].wire_size();
        let done = self.uplink_transfer(wire);
        if !cached {
            self.pool[machine].cached_images.push(image.to_string());
        }
        let t = self.engine.telemetry();
        t.trace_instant(self.tele.track, self.tele.ev_golden_fetch, done, wire as i64);
        done
    }

    fn next_node_addr(&mut self) -> NodeAddr {
        let a = NodeAddr(self.next_addr);
        self.next_addr += 1;
        a
    }

    // ------------------------------------------------------------------
    // Swap-in (fresh).
    // ------------------------------------------------------------------

    /// Swaps in a fresh experiment: allocates machines, loads images,
    /// builds the topology, boots. Returns the swap-in duration.
    pub fn swap_in(&mut self, spec: ExperimentSpec) -> Result<SimDuration, SwapError> {
        self.swap_in_with(spec, None)
    }

    /// Plans a scale-out run of `spec`: partitions the topology into
    /// shardable groups (see [`crate::ScalePlan`]) without swapping the
    /// experiment in. Scale runs execute on the sharded engine's
    /// aggregated lab rather than on per-VM hosts, so they are not
    /// bounded by the testbed's free machines — this is the on-ramp
    /// from a validated testbed spec to a thousands-of-nodes run.
    pub fn plan_scale_out(
        &self,
        spec: &ExperimentSpec,
        target_groups: u32,
    ) -> Result<crate::ScalePlan, crate::PlanError> {
        crate::ScalePlan::from_spec(spec, target_groups)
    }

    /// Swap-in used both fresh (state `None`) and stateful (§5).
    pub(crate) fn swap_in_with(
        &mut self,
        spec: ExperimentSpec,
        state: Option<&SwappedExperiment>,
    ) -> Result<SimDuration, SwapError> {
        spec.validate()?;
        if self.experiments.contains_key(&spec.name) {
            return Err(SwapError::AlreadySwappedIn { name: spec.name });
        }
        // All resource checks happen before anything is claimed, so a
        // failed swap-in leaves the testbed untouched.
        for n in &spec.nodes {
            if !self.images.contains_key(&n.image) {
                return Err(TestbedError::UnknownImage { image: n.image.clone() }.into());
            }
        }
        let needed = spec.machines_needed();
        let free = self.free_machines();
        if needed > free {
            return Err(TestbedError::NoFreeMachines { needed, free }.into());
        }
        // Stateful swap-in: the preserved state is loaded and decoded before
        // any allocation, so a corrupt image leaves the testbed untouched.
        let frozen = state.map(|sw| self.decode_swapped(&spec, sw)).transpose()?;
        let t0 = self.engine.now();
        let span = self.engine.telemetry().span_enter(self.tele.swap_in_span, t0);

        // Allocate machines: nodes then delay nodes.
        let mut machines = Vec::new();
        for _ in 0..needed {
            machines.push(self.alloc_machine().expect("capacity checked above"));
        }

        // Image distribution (cached images skip the transfer).
        let mut images_done = self.engine.now();
        for (i, n) in spec.nodes.iter().enumerate() {
            let done = self.ensure_image_cached(machines[i], &n.image);
            images_done = images_done.max(done);
        }
        self.engine.run_until(images_done);

        // Build node hosts.
        let mut nodes = Vec::new();
        let mut rngseed = 0u32;
        for (i, nspec) in spec.nodes.iter().enumerate() {
            // Addresses are part of the preserved state: restored kernels
            // hold live connections to them.
            let addr = match state {
                Some(sw) => sw.node_state(&nspec.name).addr,
                None => self.next_node_addr(),
            };
            let golden = self.images[&nspec.image].clone();
            let layout = StoreLayout::for_image(&golden);
            let mut store = BranchingStore::new(golden.clone(), CowMode::Branch, layout);
            store.set_snoop(cowstore::Ext3Snoop::new());
            let mut kcfg = KernelConfig::pc3000_guest(addr);
            kcfg.disk_blocks = golden.blocks();
            let kernel = Kernel::new(kcfg);
            if let Some(sw) = state {
                store.install_aggregate(sw.node_state(&nspec.name).aggregate.clone());
            }
            rngseed += 1;
            // Per-node clock personality: deterministic from the node index.
            let off = 1_500_000 + 700_000 * (rngseed as i64 % 7) - 2_000_000;
            let drift = 10.0 + 9.0 * (rngseed as f64 % 8.0) - 35.0;
            let host = VmHost::new(
                VmHostConfig {
                    node: addr,
                    lan: self.lan,
                    ntp_server: OPS_ADDR,
                    services: FS_ADDR,
                    clock_offset_ns: off,
                    clock_drift_ppm: drift,
                    coordinator: Some(OPS_ADDR),
                    trigger_jitter_mean: self.strategy.processing_jitter_mean(),
                    conceal_downtime: self.strategy.conceals_downtime(),
                },
                store,
                kernel,
            );
            let host_id = self.engine.add_component(Box::new(host));
            nodes.push(NodeHandle {
                name: nspec.name.clone(),
                addr,
                host: host_id,
                machine: machines[i],
            });
        }

        // A delay node per shaped link, spliced in with raw wires.
        let mut plumbing = Vec::new();
        let mut delay_nodes = Vec::new();
        for (li, lspec) in spec.links.iter().enumerate() {
            let machine = machines[spec.nodes.len() + li];
            let dn_addr = match state {
                Some(sw) => sw.delay_node_addrs[li],
                None => self.next_node_addr(),
            };
            let dn = self.engine.add_component(Box::new(DelayNodeHost::new(
                dn_addr,
                self.lan,
                OPS_ADDR,
                ((li as i64) - 1) * 900_000,
                12.0 - 3.0 * li as f64,
            )));
            let a = nodes
                .iter()
                .find(|n| n.name == lspec.a)
                .expect("validated");
            let b = nodes
                .iter()
                .find(|n| n.name == lspec.b)
                .expect("validated");
            // Queue sizing follows the link: at least the default 50
            // slots, and enough to hold ~5 ms at the configured rate so
            // checkpoint-resume transients (backlog + replayed in-flight
            // packets + the freshly resumed sender) do not droptail.
            let slots =
                ((lspec.bandwidth_bps / 8 / 1500) / 200).clamp(50, 4096) as usize;
            let shape = PipeConfig {
                bandwidth_bps: Some(lspec.bandwidth_bps),
                delay: lspec.delay,
                plr: lspec.loss,
                queue_slots: slots,
            };
            // Raw wires at experiment line rate.
            splice_shaped_link(
                &mut self.engine,
                dn,
                (a.host, a.addr),
                (b.host, b.addr),
                profile::EXP_LINK_BPS,
                SimDuration::from_micros(5),
                shape,
            );
            if self.engine.buggify().is_armed() {
                self.engine.with_component::<DelayNodeHost, _>(dn, |d, _| {
                    d.participant.suspend_watchdog = Some(SUSPEND_WATCHDOG);
                });
            }
            delay_nodes.push(DelayNodeHandle {
                addr: dn_addr,
                component: dn,
                machine,
                link_index: li,
            });
        }

        // Experiment LANs.
        for lspec in &spec.lans {
            let lan_id = self.engine.add_component(Box::new(ControlLan::new(
                lspec.bandwidth_bps,
                lspec.delay,
                SimDuration::from_micros(10),
            )));
            for m in &lspec.members {
                let n = nodes.iter().find(|n| n.name == *m).expect("validated");
                let (host, addr) = (n.host, n.addr);
                self.engine.with_component::<ControlLan, _>(lan_id, |l, _| {
                    l.attach(addr, Endpoint { component: host, iface: IfaceId::EXPERIMENT });
                });
                // Route to every other member through this LAN.
                let others: Vec<NodeAddr> = lspec
                    .members
                    .iter()
                    .filter(|o| **o != *m)
                    .map(|o| nodes.iter().find(|n| n.name == *o).expect("validated").addr)
                    .collect();
                self.engine.with_component::<VmHost, _>(host, |h, _| {
                    for o in others {
                        h.add_exp_route(o, ExpPort::Lan { lan: lan_id });
                    }
                });
            }
            plumbing.push(lan_id);
        }

        let name = spec.name.clone();
        self.experiments.insert(
            name.clone(),
            Experiment {
                spec,
                nodes,
                delay_nodes,
                plumbing,
                tt: TimeTravelTree::new(),
            },
        );
        // The preserved world goes in frozen; it resumes once the state
        // transfers complete (`swap_in_stateful`).
        if let Some(frozen) = frozen {
            self.install_frozen(&name, frozen);
        }

        // Control LAN attachment + bus subscriptions (per-experiment
        // checkpoint group, as Emulab coordinates per experiment) + boot.
        let group = *self.groups.entry(name.clone()).or_insert_with(|| {
            let g = GroupId(self.next_group);
            self.next_group += 1;
            g
        });
        let exp = &self.experiments[&name];
        let (lan, coord) = (self.lan, self.coordinator);
        for n in &exp.nodes {
            let (host, addr) = (n.host, n.addr);
            self.engine.with_component::<ControlLan, _>(lan, |l, _| {
                l.attach(addr, Endpoint { component: host, iface: IfaceId::CONTROL });
            });
            self.engine
                .with_component::<Coordinator, _>(coord, |c, _| c.subscribe_in(addr, group));
        }
        for d in &exp.delay_nodes {
            let (comp, addr) = (d.component, d.addr);
            self.engine.with_component::<ControlLan, _>(lan, |l, _| {
                l.attach(addr, Endpoint { component: comp, iface: IfaceId::CONTROL });
            });
            self.engine
                .with_component::<Coordinator, _>(coord, |c, _| c.subscribe_in(addr, group));
            self.engine
                .with_component::<DelayNodeHost, _>(comp, |dn, ctx| dn.start(ctx));
        }
        for n in &exp.nodes {
            self.engine
                .with_component::<VmHost, _>(n.host, |h, ctx| h.start(ctx));
        }

        // Boot/config overhead.
        self.engine.run_for(BOOT_OVERHEAD);

        let dur = self.engine.now() - t0;
        let t = self.engine.telemetry();
        t.span_exit(span, self.engine.now());
        t.record_duration(self.tele.swap_in_ns, dur);
        t.inc(self.tele.swap_ins);
        Ok(dur)
    }

    // ------------------------------------------------------------------
    // Coordinated checkpoint controls.
    // ------------------------------------------------------------------

    /// Starts periodic coordinated checkpoints of every swapped-in
    /// experiment's group (single-experiment setups: "the experiment").
    pub fn start_periodic_checkpoints(&mut self, interval: SimDuration) {
        // Periodic mode drives one group; with several experiments, call
        // checkpoint_experiment per experiment instead.
        let group = self
            .experiments
            .keys()
            .next()
            .map(|n| self.group_of(n))
            .unwrap_or(GroupId::DEFAULT);
        let coord = self.coordinator;
        self.engine.with_component::<Coordinator, _>(coord, |c, ctx| {
            c.start_periodic_in(ctx, group, interval)
        });
    }

    /// Stops periodic checkpoints.
    pub fn stop_periodic_checkpoints(&mut self) {
        let coord = self.coordinator;
        self.engine
            .with_component::<Coordinator, _>(coord, |c, _| c.stop_periodic());
    }

    /// Triggers one checkpoint of the (single) experiment and runs until
    /// it completes.
    pub fn checkpoint_once(&mut self) {
        let name = self
            .experiments
            .keys()
            .next()
            .expect("an experiment is swapped in")
            .clone();
        self.checkpoint_experiment(&name);
    }

    /// Triggers one checkpoint of `exp`'s group and runs to completion.
    /// Other experiments are untouched (per-experiment coordination).
    pub fn checkpoint_experiment(&mut self, exp: &str) {
        let group = self.group_of(exp);
        let coord = self.coordinator;
        self.engine.telemetry().inc(self.tele.checkpoints);
        self.engine
            .with_component::<Coordinator, _>(coord, |c, ctx| c.trigger_in(ctx, group));
        // Lead (200 ms) + capture + barrier: poll to completion.
        for _ in 0..100 {
            self.engine.run_for(SimDuration::from_millis(50));
            let done = self
                .engine
                .component_ref::<Coordinator>(coord)
                .expect("coordinator")
                .idle_in(group);
            if done {
                return;
            }
        }
        panic!("checkpoint did not complete within 5 s");
    }

    /// Suspends one experiment (checkpoint without resume); used by
    /// swapping and time travel. Runs until the barrier completes.
    pub(crate) fn suspend_all(&mut self, exp: &str) {
        let group = self.group_of(exp);
        let coord = self.coordinator;
        self.engine
            .with_component::<Coordinator, _>(coord, |c, ctx| c.suspend_in(ctx, group));
        // A suspension under disk-intensive load legitimately takes many
        // seconds (the frozen guest's in-flight I/O must drain before the
        // capture); poll generously, but fail fast if the round dies.
        for _ in 0..600 {
            self.engine.run_for(SimDuration::from_millis(100));
            let c = self
                .engine
                .component_ref::<Coordinator>(coord)
                .expect("coordinator");
            if c.barrier_complete_in(group) {
                return;
            }
            if c.idle_in(group) {
                // The round is gone without a completed barrier: aborted.
                panic!(
                    "suspend round aborted instead of reaching the barrier: \
                     outcomes {:?}, last record {:?}",
                    c.outcome_counts_in(group),
                    c.records().last()
                );
            }
        }
        panic!("suspend barrier did not complete within 60 s");
    }

    /// Abandons a held suspension of `exp`'s group without resuming (the
    /// suspended state left the testbed: swap-out preserved it, or time
    /// travel replaced it). Closes the round's epoch trace slice so the
    /// critical-path analyzer sees the round's full extent.
    pub(crate) fn abandon_round_of(&mut self, exp: &str) {
        let group = self.group_of(exp);
        let coord = self.coordinator;
        self.engine
            .with_component::<Coordinator, _>(coord, |c, ctx| c.abandon_round_in(ctx, group));
    }

    /// Releases a held suspension of `exp`'s group.
    pub(crate) fn release_all(&mut self, exp: &str) {
        let group = self.group_of(exp);
        let coord = self.coordinator;
        self.engine
            .with_component::<Coordinator, _>(coord, |c, ctx| c.release_resume_in(ctx, group));
        self.engine.run_for(SimDuration::from_millis(10));
    }

    // ------------------------------------------------------------------
    // Teardown (used by swap-out).
    // ------------------------------------------------------------------

    pub(crate) fn teardown(&mut self, name: &str) -> Experiment {
        let exp = self
            .experiments
            .remove(name)
            .unwrap_or_else(|| panic!("experiment {name} not swapped in"));
        for n in &exp.nodes {
            self.engine.remove_component(n.host);
            let (lan, coord, addr) = (self.lan, self.coordinator, n.addr);
            self.engine
                .with_component::<ControlLan, _>(lan, |l, _| l.detach(addr));
            self.engine
                .with_component::<Coordinator, _>(coord, |c, _| c.unsubscribe(addr));
            self.free_machine(n.machine);
        }
        for d in &exp.delay_nodes {
            self.engine.remove_component(d.component);
            let (lan, coord, addr) = (self.lan, self.coordinator, d.addr);
            self.engine
                .with_component::<ControlLan, _>(lan, |l, _| l.detach(addr));
            self.engine
                .with_component::<Coordinator, _>(coord, |c, _| c.unsubscribe(addr));
            self.free_machine(d.machine);
        }
        for p in &exp.plumbing {
            self.engine.remove_component(*p);
        }
        exp
    }

    /// Stored swapped-out state (inspection).
    pub fn swapped_state(&self, name: &str) -> Option<&SwappedExperiment> {
        self.swapped.get(name)
    }

    pub(crate) fn store_swapped(&mut self, name: String, st: SwappedExperiment) {
        self.swapped.insert(name, st);
    }

    pub(crate) fn take_swapped(&mut self, name: &str) -> Option<SwappedExperiment> {
        self.swapped.remove(name)
    }
}
