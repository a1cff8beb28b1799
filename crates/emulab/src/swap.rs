//! Stateful swapping (paper §5).
//!
//! Swap-out preserves "the run-time state of an experiment — the memory
//! and disk state of experiment nodes" instead of discarding it:
//!
//! 1. **Eager pre-copy**: while the experiment still runs, the current
//!    delta streams to the file server through rate-limited mirror
//!    synchronization ("during the swap-out we eagerly begin copying the
//!    delta image to persistent storage before the guest's execution is
//!    suspended"); blocks dirtied after being copied are re-sent.
//! 2. **Suspend**: a coordinated transparent checkpoint with the resume
//!    held back.
//! 3. **Final state transfer**: the residual dirty delta (after free-block
//!    elimination, §5.1) and the memory images move over the control net.
//! 4. **Offline merge**: the current delta merges into the aggregated
//!    delta with vba reordering (locality restoration, §5.3).
//! 5. **Teardown**: machines return to the pool; golden images stay
//!    cached.
//!
//! Swap-in reverses it: allocate, fetch uncached images, download the
//! memory images, and either download the whole aggregated delta up front
//! or attach a lazy copy-in mirror ("individual disk blocks copied to
//! local disk on first reference" with background sync).

use ckptstore::{Enc, ImageId};
use cowstore::{merge_reorder, DeltaMap, Direction, MirrorTransfer};
use dummynet::{DummynetImage, PipeLog};
use guestos::GuestResidue;
use hwsim::NodeAddr;
use sim::buggify;
use sim::buggify::points as bg_points;
use sim::telemetry::names;
use sim::SimDuration;
use vmm::{DomainImage, MirrorConfig, RxLog, VmHost};

use crate::errors::SwapError;
use crate::restore::{decode_image, FrozenNode, FrozenState};
use crate::spec::ExperimentSpec;
use crate::testbed::Testbed;

/// Image kind tag of a swapped-out node's serialized domain.
pub(crate) const SWAP_IMAGE_KIND: &str = "emulab.swap-node";

/// Preserved state of one node.
pub struct NodeState {
    pub name: String,
    /// The node's experiment-network address — stable across swaps, like
    /// an Emulab experiment's IP addresses, because the preserved kernels
    /// hold live connections to these addresses.
    pub addr: NodeAddr,
    /// The frozen domain, serialized into the file server's dedup store.
    pub image_id: ImageId,
    /// Unserializable guest residue (programs, app messages) riding
    /// beside the byte image.
    pub residue: GuestResidue,
    /// Aggregated delta after the offline merge.
    pub aggregate: DeltaMap,
    /// In-flight packets logged during the suspension (§3.2), as offsets
    /// from the freeze; replayed after the swap-in resume.
    pub rx_log: RxLog,
}

/// Preserved state of a whole experiment on the file server.
pub struct SwappedExperiment {
    pub spec: ExperimentSpec,
    pub nodes: Vec<NodeState>,
    pub delay_nodes: Vec<Option<DummynetImage>>,
    /// Per-delay-node suspension logs (in-flight packets that arrived
    /// while suspended; §3.2).
    pub delay_node_logs: Vec<PipeLog>,
    /// Delay-node control addresses (stable across swaps).
    pub delay_node_addrs: Vec<NodeAddr>,
}

impl SwappedExperiment {
    /// State of a node by name.
    ///
    /// # Panics
    ///
    /// Panics if the node is unknown.
    pub fn node_state(&self, name: &str) -> &NodeState {
        self.nodes
            .iter()
            .find(|n| n.name == name)
            .unwrap_or_else(|| panic!("no swapped state for node {name}"))
    }

    /// Total aggregated-delta bytes (the eager swap-in download).
    pub fn aggregate_bytes(&self, block_size: u32) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.aggregate.byte_size(block_size))
            .sum()
    }
}

/// Timings and volumes of a swap-out.
#[derive(Clone, Copy, Debug)]
pub struct SwapOutReport {
    /// Total wall time of the operation.
    pub total: SimDuration,
    /// Time spent pre-copying while the experiment still ran.
    pub precopy: SimDuration,
    /// Pre-copy blocks re-sent because the guest dirtied them.
    pub dirty_resends: u64,
    /// Delta bytes transferred (after elimination).
    pub delta_bytes: u64,
    /// Memory-image bytes captured (logical guest memory across nodes).
    pub memory_bytes: u64,
    /// Serialized checkpoint-state bytes across nodes (logical image
    /// size as stored on the file server).
    pub state_logical_bytes: u64,
    /// Chunk bytes the dedup store actually had to ingest — what the
    /// final state transfer moved on the control net.
    pub state_physical_bytes: u64,
    /// Blocks dropped by free-block elimination.
    pub eliminated_blocks: u64,
    /// Guest time (max over nodes) at the suspension instant; the
    /// continuity anchor for swap-in checks.
    pub guest_ns_at_suspend: u64,
}

/// A non-fatal degradation of a swap-in.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SwapInWarning {
    /// The preserved run-time state could not be restored (missing or
    /// corrupt stored image); the experiment came back from its golden
    /// images instead — swapped in, but as a fresh boot.
    StateLost { reason: String },
}

/// Timings of a swap-in.
#[derive(Clone, Debug)]
pub struct SwapInReport {
    pub total: SimDuration,
    /// Golden-image fetch time (zero when cached).
    pub image_fetch: SimDuration,
    /// Aggregated-delta download time (zero when lazy).
    pub delta_download: SimDuration,
    /// Memory-image download time.
    pub memory_download: SimDuration,
    /// Whether the delta was left to lazy copy-in.
    pub lazy: bool,
    /// Set when the swap-in degraded (e.g. preserved state was lost and
    /// the experiment rebooted from golden images).
    pub warning: Option<SwapInWarning>,
}

/// Pre-copy sync rate: deliberately below the control-net line rate so the
/// experiment's own traffic and disk keep priority (the paper's
/// rate-limiting function).
const PRECOPY_BPS: u64 = 85_000_000;

/// Lazy copy-in background rate (gentler: the guest is already running).
const LAZY_BPS: u64 = 40_000_000;

impl Testbed {
    /// Stateful swap-out: preserves node-local state on the file server
    /// and releases the hardware.
    ///
    /// # Panics
    ///
    /// Panics if the experiment is not swapped in.
    pub fn swap_out_stateful(&mut self, name: &str) -> SwapOutReport {
        let t0 = self.now();
        let span = self.engine.telemetry().span_enter(self.tele.swap_out_span, t0);
        let node_hosts: Vec<(String, sim::ComponentId)> = self
            .experiment(name)
            .nodes
            .iter()
            .map(|n| (n.name.clone(), n.host))
            .collect();
        let node_addrs: Vec<NodeAddr> =
            self.experiment(name).nodes.iter().map(|n| n.addr).collect();

        // Phase 1: eager pre-copy of the (filtered) current delta while
        // the experiment runs.
        for (_, host) in &node_hosts {
            let host = *host;
            self.engine.with_component::<VmHost, _>(host, |h, ctx| {
                // A lazy copy-in from the previous swap-in may still be
                // syncing; its residue is subsumed by this swap-out.
                let _ = h.detach_mirror();
                let (filtered, _) = h.store().filtered_delta();
                let blocks = filtered.vbas();
                let transfer = MirrorTransfer::new(
                    Direction::CopyOut,
                    blocks,
                    h.store().block_size(),
                    PRECOPY_BPS,
                );
                h.attach_mirror(
                    ctx,
                    transfer,
                    MirrorConfig {
                        latency: SimDuration::from_micros(200),
                        net_bps: PRECOPY_BPS,
                        notify: None,
                        idle_priority: true,
                    },
                );
            });
        }
        // Run until the pre-copy mostly drains — or stops converging. A
        // write-heavy guest re-dirties blocks as fast as they are sent, so
        // the loop gives up chasing (the residue moves after suspension),
        // exactly like a real pre-copy round limit.
        let mut prev_left = u64::MAX;
        let mut stalled = 0;
        for _ in 0..600 {
            self.run_for(SimDuration::from_millis(500));
            let max_left = self.max_mirror_remaining(&node_hosts);
            if max_left < 256 {
                break;
            }
            if prev_left.saturating_sub(max_left) < 128 {
                stalled += 1;
                if stalled >= 4 {
                    break; // Not converging: the guest dirties too fast.
                }
            } else {
                stalled = 0;
            }
            prev_left = max_left;
        }
        let precopy = self.now() - t0;

        // Phase 2: coordinated suspend, resume held.
        self.suspend_all(name);

        // Phase 3: drain the residual pre-copy (guest is frozen: nothing
        // dirties), then move the remainder + memory images.
        for _ in 0..600 {
            if self.max_mirror_remaining(&node_hosts) == 0 {
                break;
            }
            self.run_for(SimDuration::from_millis(500));
        }

        let mut dirty_resends = 0;
        let mut delta_bytes = 0;
        let mut memory_bytes = 0;
        let mut state_logical = 0;
        let mut state_physical = 0;
        let mut eliminated_total = 0;
        let mut guest_ns_at_suspend = 0;
        let mut states = Vec::new();
        let mut transfers_done = self.now();
        // The suspend round is still pending (resume held), so its causal
        // context links every swap-out put into the round's flow.
        let round_flow = self.round_flow_in(self.group_of(name));
        for ((node_name, host), addr) in node_hosts.iter().zip(node_addrs.iter()) {
            let host = *host;
            let (image, filtered, eliminated, resends, block_size, old_agg, rx_log) = self
                .engine
                .with_component::<VmHost, _>(host, |h, _| {
                    let resends = h
                        .mirror_transfer()
                        .map(|t| t.dirty_requeues)
                        .unwrap_or(0);
                    let _ = h.detach_mirror();
                    let (filtered, eliminated) = h.store().filtered_delta();
                    let image = h
                        .last_image()
                        .expect("suspend_all captured an image")
                        .clone();
                    let bs = h.store().block_size();
                    let agg = h.store().aggregate().clone();
                    let rx_log = h.rx_log();
                    (image, filtered, eliminated, resends, bs, agg, rx_log)
                });
            dirty_resends += resends;
            guest_ns_at_suspend = guest_ns_at_suspend.max(image.guest_ns);
            // The pre-copy already moved (most of) the delta; the residue
            // was synced by the mirror above.
            delta_bytes += filtered.byte_size(block_size);
            memory_bytes += image.mem_bytes;
            eliminated_total += eliminated;
            // Serialize the frozen domain into the file server's dedup
            // store. The uplink is charged the dirtied guest memory plus
            // only the *new physical* chunk bytes of the state image —
            // chunks already on the file server (from a previous swap of
            // this or a sibling node) never move again.
            let mut residue = GuestResidue::new();
            let mut e = Enc::new();
            e.begin_image(SWAP_IMAGE_KIND);
            image.encode_wire(&mut e, &mut residue);
            let put = self.fs_put_cached(&format!("{name}:{node_name}"), e.into_segments(), round_flow);
            // Buggified storage corruption on the swap-out write path:
            // every copy of one stored chunk is damaged, so the later
            // swap-in must degrade to a golden reload (`StateLost`)
            // instead of wedging on the unusable preserved state.
            let bg = self.buggify().clone();
            if put.chunks_total > 0 && buggify!(bg, bg_points::SWAP_PUT_CORRUPT) {
                let chunk =
                    bg.magnitude(bg_points::SWAP_PUT_CORRUPT, 0, put.chunks_total) as usize;
                let _ = self.fileserver_store().corrupt_chunk(put.image, chunk, 1);
            }
            state_logical += put.logical_bytes;
            state_physical += put.new_physical_bytes;
            let done = self.uplink_transfer(image.dirty_bytes + put.new_physical_bytes);
            transfers_done = transfers_done.max(done);
            // Offline merge with locality reordering (on the file server).
            let (merged, stats) = merge_reorder(&old_agg, &filtered);
            {
                let t = self.engine.telemetry();
                let track = t.track(addr.0, names::TRACK_COW);
                let ev = t.trace_tag(names::EV_COW_SEAL);
                t.trace_begin(track, ev, done, stats.delta_blocks as i64);
                t.trace_end(track, ev, done, stats.merged_blocks as i64);
                stats.record(t);
            }
            states.push(NodeState {
                name: node_name.clone(),
                addr: *addr,
                image_id: put.image,
                residue,
                aggregate: merged,
                rx_log,
            });
        }
        self.engine.run_until(transfers_done);

        // Collect delay-node images and their in-flight logs.
        let mut dn_images = Vec::new();
        let mut dn_logs = Vec::new();
        for dn in self.delay_nodes_of(name) {
            let d = self
                .engine
                .component_ref::<checkpoint::DelayNodeHost>(dn)
                .expect("delay node");
            dn_images.push(d.last_image().cloned());
            dn_logs.push(d.suspended_log());
        }
        let dn_addrs: Vec<NodeAddr> =
            self.experiment(name).delay_nodes.iter().map(|d| d.addr).collect();

        // Phase 5: teardown. The suspend round never resumes — its state
        // just left the testbed — so abandon it first: the epoch's trace
        // slice closes (the critical-path analyzer needs the round's
        // extent) and the WAL records the resolution instead of leaving
        // the round pending forever.
        self.abandon_round_of(name);
        let exp = self.teardown(name);
        let swapped = SwappedExperiment {
            spec: exp.spec,
            nodes: states,
            delay_nodes: dn_images,
            delay_node_logs: dn_logs,
            delay_node_addrs: dn_addrs,
        };
        self.store_swapped(name.to_string(), swapped);

        let tele = self.engine.telemetry();
        tele.span_exit(span, self.now());
        tele.record_duration(self.tele.swap_out_ns, self.now() - t0);
        tele.inc(self.tele.swap_outs);
        SwapOutReport {
            total: self.now() - t0,
            precopy,
            dirty_resends,
            delta_bytes,
            memory_bytes,
            state_logical_bytes: state_logical,
            state_physical_bytes: state_physical,
            eliminated_blocks: eliminated_total,
            guest_ns_at_suspend,
        }
    }

    /// Loads and decodes `sw`'s preserved state — every chunk re-hashed —
    /// into the frozen world a stateful swap-in installs.
    /// The largest block count any of `hosts` still has to mirror (zero
    /// once every mirror has drained or none is attached).
    fn max_mirror_remaining(&self, hosts: &[(String, sim::ComponentId)]) -> u64 {
        hosts
            .iter()
            .map(|&(_, h)| {
                let host = self.engine.component_ref::<VmHost>(h).expect("host");
                host.mirror_remaining().unwrap_or(0) as u64
            })
            .max()
            .unwrap_or(0)
    }

    pub(crate) fn decode_swapped(
        &self,
        spec: &ExperimentSpec,
        sw: &SwappedExperiment,
    ) -> Result<FrozenState, SwapError> {
        let mut nodes = Vec::with_capacity(spec.nodes.len());
        for nspec in &spec.nodes {
            let st = sw.node_state(&nspec.name);
            let node = || nspec.name.clone();
            let chunks = self
                .fileserver_store()
                .load_image_chunks(st.image_id)
                .map_err(|source| SwapError::StateLoad { node: node(), source })?;
            let image = decode_image(&chunks, SWAP_IMAGE_KIND, |d| {
                DomainImage::decode_wire(d, &st.residue)
            })
            .map_err(|source| SwapError::StateDecode { node: node(), source })?;
            nodes.push(FrozenNode { image, store: None, rx_log: st.rx_log.clone() });
        }
        let delay_nodes = sw
            .delay_nodes
            .iter()
            .zip(&sw.delay_node_logs)
            .map(|(image, log)| image.clone().map(|image| (image, log.clone())))
            .collect();
        Ok(FrozenState { nodes, delay_nodes })
    }

    /// Stateful swap-in: restores a swapped experiment. With `lazy`, the
    /// aggregated delta pages in on demand with background sync; otherwise
    /// it downloads up front.
    ///
    /// # Panics
    ///
    /// Panics if no swapped state exists under `name`.
    pub fn swap_in_stateful(&mut self, name: &str, lazy: bool) -> SwapInReport {
        let t0 = self.now();
        let swapped = self
            .take_swapped(name)
            .unwrap_or_else(|| panic!("no swapped state for {name}"));

        // Rebuild topology with restored kernels/aggregates/pipes. A
        // rebuild failure here means the preserved state is unusable
        // (missing or corrupt stored image — `swap_in_with` decodes every
        // image before allocating, so the testbed is untouched on error):
        // degrade to a golden-image reload rather than wedging the
        // experiment.
        let fetch_start = self.now();
        if let Err(err) = self.swap_in_with(swapped.spec.clone(), Some(&swapped)) {
            for n in &swapped.nodes {
                let _ = self.fileserver_store().remove_image(n.image_id);
            }
            self.swap_in_with(swapped.spec.clone(), None)
                .expect("golden-image rebuild");
            return SwapInReport {
                total: self.now() - t0,
                image_fetch: self.now() - fetch_start,
                delta_download: SimDuration::ZERO,
                memory_download: SimDuration::ZERO,
                lazy: false,
                warning: Some(SwapInWarning::StateLost { reason: err.to_string() }),
            };
        }
        // Realize the latency debt of buggified slow store loads: the
        // rebuild decoded every preserved image through `load_image`, and
        // any `store.get_slow` firings accrued there.
        let penalty = self.fileserver_store().take_get_penalty_ns();
        if penalty > 0 {
            self.run_for(SimDuration::from_nanos(penalty));
        }
        let image_fetch = self.now() - fetch_start;

        // The rebuild installed the frozen images. Download volume is the
        // *serialized* state images as stored on the file server —
        // typically much smaller than guest memory.
        let mem_bytes: u64 = swapped
            .nodes
            .iter()
            .map(|n| self.fileserver_store().image_len(n.image_id).unwrap_or(0))
            .sum();

        // Delta: eager download or lazy mirror.
        let delta_t0 = self.now();
        if lazy {
            for (host, st) in self.hosts_of(name).into_iter().zip(&swapped.nodes) {
                let blocks = st.aggregate.vbas();
                if blocks.is_empty() {
                    continue;
                }
                self.engine.with_component::<VmHost, _>(host, |h, ctx| {
                    let transfer = MirrorTransfer::new(
                        Direction::CopyIn,
                        blocks,
                        h.store().block_size(),
                        LAZY_BPS,
                    );
                    h.attach_mirror(
                        ctx,
                        transfer,
                        MirrorConfig {
                            latency: SimDuration::from_micros(200),
                            net_bps: LAZY_BPS,
                            notify: None,
                            idle_priority: false,
                        },
                    );
                });
            }
        } else {
            let bytes = swapped.aggregate_bytes(4096);
            let done = self.uplink_transfer(bytes);
            self.engine.run_until(done);
        }
        let delta_download = self.now() - delta_t0;

        // Memory images.
        let mem_t0 = self.now();
        let mut done = self.uplink_transfer(mem_bytes);
        // Buggified swap-in stall: the restore pipeline hiccups (a busy
        // file server, a slow target disk) before the resume.
        let bg = self.buggify().clone();
        if buggify!(bg, bg_points::SWAP_IN_STALL) {
            done += SimDuration::from_micros(bg.magnitude(bg_points::SWAP_IN_STALL, 1_000, 500_000));
        }
        self.engine.run_until(done);
        let memory_download = self.now() - mem_t0;

        // Resume everyone (back-to-back: zero resume skew); the preserved
        // in-flight logs replay.
        self.resume_restored(name);
        self.engine.run_for(SimDuration::from_millis(1));

        // The state images were consumed by the rebuild; release their
        // chunks on the file server deterministically.
        for n in &swapped.nodes {
            let _ = self.fileserver_store().remove_image(n.image_id);
        }

        self.engine
            .telemetry()
            .record_duration(self.tele.stateful_swap_in_ns, self.now() - t0);
        SwapInReport {
            total: self.now() - t0,
            image_fetch,
            delta_download,
            memory_download,
            lazy,
            warning: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExperimentSpec;

    /// A corrupt stored state image degrades the stateful swap-in to a
    /// golden-image reload with a typed warning — the experiment comes
    /// back (freshly booted) instead of the testbed panicking.
    #[test]
    fn corrupt_stored_state_degrades_to_golden_reload() {
        let mut tb = Testbed::new(84, 8);
        tb.swap_in(ExperimentSpec::new("x").node("n")).expect("swap-in");
        tb.run_for(SimDuration::from_secs(10));
        tb.swap_out_stateful("x");

        let image_id = tb.swapped_state("x").expect("swapped").nodes[0].image_id;
        assert!(
            tb.fileserver_store().corrupt_chunk(image_id, 0, 7).is_ok(),
            "corruption injected"
        );

        let rep = tb.swap_in_stateful("x", false);
        match &rep.warning {
            Some(SwapInWarning::StateLost { reason }) => {
                assert!(reason.contains("swap-in n"), "reason names the node: {reason}");
            }
            other => panic!("expected StateLost warning, got {other:?}"),
        }
        assert_eq!(rep.delta_download, SimDuration::ZERO);
        assert_eq!(rep.memory_download, SimDuration::ZERO);

        // The preserved state was consumed (released, not leaked) and the
        // fresh experiment is alive and runnable.
        assert!(tb.swapped_state("x").is_none());
        assert_eq!(tb.fileserver_store().image_count(), 0);
        let tid = tb.spawn(
            "x",
            "n",
            Box::new(workloads::UsleepLoop::new(10_000_000, 1_000_000)),
        );
        tb.run_for(SimDuration::from_secs(2));
        let samples = tb.kernel("x", "n", |k| {
            k.prog(tid)
                .unwrap()
                .as_any()
                .downcast_ref::<workloads::UsleepLoop>()
                .unwrap()
                .samples
                .len()
        });
        assert!(samples > 50, "golden reload runs (got {samples} samples)");
    }

    /// Forcing the `swap.put_corrupt` buggify point damages the stored
    /// state during swap-out; the later swap-in must degrade to a golden
    /// reload with `StateLost` — not wedge, not panic. Forced-only mode
    /// keeps every other catalog point silent, so this aims exactly one
    /// fault.
    #[test]
    fn buggified_swap_out_corruption_degrades_swap_in() {
        let mut tb = Testbed::new(86, 8);
        let bg = sim::Buggify::disabled();
        bg.force(bg_points::SWAP_PUT_CORRUPT, 1.0);
        tb.arm_buggify(bg);

        tb.swap_in(ExperimentSpec::new("x").node("n")).expect("swap-in");
        tb.run_for(SimDuration::from_secs(10));
        tb.swap_out_stateful("x");

        let rep = tb.swap_in_stateful("x", false);
        assert!(
            matches!(rep.warning, Some(SwapInWarning::StateLost { .. })),
            "expected StateLost, got {:?}",
            rep.warning
        );

        // The degraded experiment is alive: the preserved state was
        // released and the golden reboot runs programs.
        assert!(tb.swapped_state("x").is_none());
        let tid = tb.spawn(
            "x",
            "n",
            Box::new(workloads::UsleepLoop::new(10_000_000, 1_000_000)),
        );
        tb.run_for(SimDuration::from_secs(2));
        let samples = tb.kernel("x", "n", |k| {
            k.prog(tid)
                .unwrap()
                .as_any()
                .downcast_ref::<workloads::UsleepLoop>()
                .unwrap()
                .samples
                .len()
        });
        assert!(samples > 50, "golden reload runs (got {samples} samples)");
    }

    /// The healthy stateful path reports no warning.
    #[test]
    fn healthy_stateful_swap_in_carries_no_warning() {
        let mut tb = Testbed::new(85, 8);
        tb.swap_in(ExperimentSpec::new("x").node("n")).expect("swap-in");
        tb.run_for(SimDuration::from_secs(10));
        tb.swap_out_stateful("x");
        let rep = tb.swap_in_stateful("x", false);
        assert!(rep.warning.is_none());
    }

    /// Regression (tab_swap): swap-out under a disk-intensive load. The
    /// looping writer keeps dirtying blocks through the pre-copy, and
    /// once the guest freezes its in-flight block I/O must drain before
    /// the local capture — pushing the suspend round far past the 2 s
    /// epoch deadline. The round is held, so it runs against the suspend
    /// deadline instead: the swap must complete, not abort.
    #[test]
    fn disk_loaded_swap_out_survives_the_slow_suspend() {
        use guestos::prog::FileId;
        let mut tb = Testbed::new(10_001, 4);
        tb.swap_in(ExperimentSpec::new("x").node("n")).expect("swap-in");
        // Two of tab_swap's disk-loaded cycles: a session's worth of disk
        // state, then a looping writer straight through the swap-out. The
        // second cycle's larger accumulated delta is what pushed the
        // suspend past the old 2 s epoch deadline.
        for cycle in 0..2u64 {
            tb.spawn(
                "x",
                "n",
                Box::new(workloads::FileWriter::new(FileId(100 + cycle), 275 << 20)),
            );
            tb.run_for(SimDuration::from_secs(120));
            tb.spawn(
                "x",
                "n",
                Box::new(workloads::FileWriter::new(FileId(900 + cycle), 64 << 20).looping()),
            );
            tb.run_for(SimDuration::from_secs(2));
            // Before held rounds got their own deadline this panicked
            // inside suspend_all ("suspend round aborted instead of
            // reaching the barrier").
            let _ = tb.swap_out_stateful("x");
            tb.run_for(SimDuration::from_secs(30));
            let rep = tb.swap_in_stateful("x", true);
            assert!(rep.warning.is_none(), "loaded swap cycle must come back clean");
        }
        // The critical path of the suspend rounds proves the regression
        // scenario was real: the slowest capture wait must exceed the 2 s
        // epoch deadline that used to kill the round.
        let paths = sim::telemetry::critpath::analyze(&tb.telemetry().trace_events());
        let worst = paths
            .iter()
            .filter(|p| p.committed)
            .map(|p| p.capture_wait_ns)
            .max()
            .expect("suspend rounds analyzed");
        assert!(
            worst > 2_000_000_000,
            "the loaded capture must outlive the epoch deadline (worst wait {} ms)",
            worst / 1_000_000
        );
    }
}
