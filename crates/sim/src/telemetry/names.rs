//! Canonical instrument and trace-event names.
//!
//! Instrument sites and their readers (benches, tests, the transparency
//! auditor) used to agree on string literals by convention; a typo at
//! either end silently produced an always-empty summary. Every layer
//! that records into the shared registry now names its instruments
//! through these constants, so the two sides cannot drift apart.
//!
//! Naming scheme: `subsystem.metric[_unit]` for counters, gauges and
//! histograms; `subsystem.event` for trace-event tags; bare subsystem
//! identifiers for trace tracks and span components.

// ---------------------------------------------------------------------
// Coordinator (core crate).
// ---------------------------------------------------------------------

/// Histogram: notification publish → all acks received, ns.
pub const COORD_NOTIFY_TO_ACKS_NS: &str = "coordinator.notify_to_acks_ns";
/// Histogram: barrier completion → resume publication, ns.
pub const COORD_BARRIER_HOLD_NS: &str = "coordinator.barrier_hold_ns";
/// Counter: notification retransmissions.
pub const COORD_RETRIES: &str = "coordinator.retries";
/// Counter: epochs committed cleanly.
pub const COORD_EPOCHS_COMMITTED: &str = "coordinator.epochs_committed";
/// Counter: epochs aborted.
pub const COORD_EPOCHS_ABORTED: &str = "coordinator.epochs_aborted";
/// Counter: epochs committed degraded (nodes excluded).
pub const COORD_EPOCHS_DEGRADED: &str = "coordinator.epochs_degraded";
/// Counter: nodes excluded from barriers.
pub const COORD_NODES_EXCLUDED: &str = "coordinator.nodes_excluded";
/// Counter: checkpoint image bytes reported at barriers.
pub const COORD_CAPTURED_BYTES: &str = "coordinator.captured_bytes";
/// Counter: coordinator process crashes (fault injection).
pub const COORD_CRASHES: &str = "coordinator.crashes";
/// Counter: coordinator restarts that replayed the epoch WAL.
pub const COORD_RECOVERIES: &str = "coordinator.recoveries";

// ---------------------------------------------------------------------
// Scale-lab nodes (core crate).
// ---------------------------------------------------------------------

/// Counter: image bytes the nodes captured (the coordinator's
/// `captured_bytes` must equal it when every round commits).
pub const SCALE_NODE_BYTES: &str = "scale.node.bytes";
/// Counter: gossip frames the nodes received.
pub const SCALE_NODE_PINGS: &str = "scale.node.pings";

// ---------------------------------------------------------------------
// VmHost (vmm crate).
// ---------------------------------------------------------------------

/// Histogram: freeze → resume real downtime, ns.
pub const VMHOST_DOWNTIME_NS: &str = "vmhost.downtime_ns";
/// Counter: temporal-firewall freezes.
pub const VMHOST_FREEZES: &str = "vmhost.freezes";

// ---------------------------------------------------------------------
// Checkpoint image store (ckptstore crate).
// ---------------------------------------------------------------------

/// Counter: chunks inserted with novel content.
pub const CKPT_CHUNKS_NEW: &str = "ckptstore.chunks_new";
/// Counter: chunk insertions deduplicated against existing content.
pub const CKPT_DEDUP_HITS: &str = "ckptstore.dedup_hits";
/// Counter: logical bytes offered to the store.
pub const CKPT_LOGICAL_BYTES: &str = "ckptstore.logical_bytes";
/// Counter: new physical bytes actually stored.
pub const CKPT_NEW_PHYSICAL_BYTES: &str = "ckptstore.new_physical_bytes";
/// Counter: corrupt replicas repaired from healthy copies.
pub const CKPT_REPLICA_REPAIRS: &str = "ckptstore.replica_repairs";
/// Counter: corruptions healed by scrubbing.
pub const CKPT_SCRUB_HEALS: &str = "ckptstore.scrub_heals";
/// Counter: redundant replicas added.
pub const CKPT_REPLICAS_ADDED: &str = "ckptstore.replicas_added";
/// Counter: capture chunks re-admitted by cached hash (no re-hash).
pub const CKPT_HASH_CACHE_HITS: &str = "ckptstore.hash_cache_hits";
/// Counter: capture chunks hashed because the cache could not vouch.
pub const CKPT_HASH_CACHE_MISSES: &str = "ckptstore.hash_cache_misses";

// ---------------------------------------------------------------------
// Sharded store service (ckptstore crate, service layer).
// ---------------------------------------------------------------------

/// Counter: put_image calls against the service.
pub const STORESVC_PUTS: &str = "storesvc.puts";
/// Counter: replica writes retried inline to reach the put quorum.
pub const STORESVC_QUORUM_RETRIES: &str = "storesvc.quorum_retries";
/// Counter: tasks placed on the gossip repair queue.
pub const STORESVC_REPAIRS_ENQUEUED: &str = "storesvc.repairs_enqueued";
/// Counter: repair-queue tasks that rewrote a copy.
pub const STORESVC_REPAIRS_DONE: &str = "storesvc.repairs_done";
/// Histogram: put submit → quorum durability on every chunk, ns.
pub const STORESVC_COMMIT_NS: &str = "storesvc.commit_ns";
/// Per-shard counter prefix: `storesvc.shard<i>.{chunks,bytes,repair_writes}`.
pub const STORESVC_SHARD_PREFIX: &str = "storesvc.shard";

// ---------------------------------------------------------------------
// COW store (cowstore crate).
// ---------------------------------------------------------------------

/// Counter: branch seals (delta merged into the aggregate).
pub const COW_SEALS: &str = "cowstore.seals";
/// Counter: delta blocks offered to seal merges.
pub const COW_SEAL_DELTA_BLOCKS: &str = "cowstore.seal_delta_blocks";
/// Counter: blocks superseded during seal merges (newest wins).
pub const COW_SEAL_SUPERSEDED: &str = "cowstore.seal_superseded_blocks";
/// Counter: blocks in merged aggregates after seals.
pub const COW_SEAL_MERGED_BLOCKS: &str = "cowstore.seal_merged_blocks";

// ---------------------------------------------------------------------
// Dummynet delay nodes (dummynet crate).
// ---------------------------------------------------------------------

/// Counter: frames logged while shaping was suspended.
pub const DN_LOGGED_FRAMES: &str = "dummynet.logged_frames";
/// Counter: logged frames re-enqueued at resume.
pub const DN_REPLAYED_FRAMES: &str = "dummynet.replayed_frames";

// ---------------------------------------------------------------------
// Testbed control paths (emulab crate).
// ---------------------------------------------------------------------

/// Counter: experiment swap-ins.
pub const TB_SWAP_INS: &str = "testbed.swap_ins";
/// Counter: experiment swap-outs.
pub const TB_SWAP_OUTS: &str = "testbed.swap_outs";
/// Counter: coordinated checkpoints triggered via the testbed.
pub const TB_CHECKPOINTS: &str = "testbed.checkpoints";
/// Histogram: swap-in wall time, ns.
pub const TB_SWAP_IN_NS: &str = "testbed.swap_in_ns";
/// Histogram: swap-out wall time, ns.
pub const TB_SWAP_OUT_NS: &str = "testbed.swap_out_ns";
/// Histogram: stateful swap-in wall time, ns.
pub const TB_STATEFUL_SWAP_IN_NS: &str = "testbed.stateful_swap_in_ns";

// ---------------------------------------------------------------------
// Span families (component, label).
// ---------------------------------------------------------------------

/// Span component of the coordinator's epoch lifecycle.
pub const SPAN_COORDINATOR: &str = "coordinator";
/// Span label: one coordinated epoch, publish → resume.
pub const SPAN_EPOCH: &str = "epoch";
/// Span component of the VmHost freeze window.
pub const SPAN_VMHOST: &str = "vmhost";
/// Span label: one freeze → resume window.
pub const SPAN_FREEZE: &str = "freeze";
/// Span component of the testbed swap paths.
pub const SPAN_TESTBED: &str = "testbed";
/// Span label: one swap-in.
pub const SPAN_SWAP_IN: &str = "swap_in";
/// Span label: one swap-out.
pub const SPAN_SWAP_OUT: &str = "swap_out";

// ---------------------------------------------------------------------
// Trace tracks (the `tid` rows of the timeline export).
// ---------------------------------------------------------------------

/// Track: hypervisor/dom0 activity of a host.
pub const TRACK_VMHOST: &str = "vmhost";
/// Track: guest-observable clock events of a host's domain.
pub const TRACK_GUEST: &str = "guest";
/// Track: COW store seal/merge activity of a host.
pub const TRACK_COW: &str = "cow";
/// Track: Dummynet shaping state of a delay node.
pub const TRACK_DUMMYNET: &str = "dummynet";
/// Track: coordinator epoch phases (on the ops node's pid).
pub const TRACK_COORDINATOR: &str = "coordinator";
/// Track: testbed control-plane operations (on the ops node's pid).
pub const TRACK_TESTBED: &str = "testbed";
/// Track prefix: one store shard's put/repair activity
/// (`store.shard<i>` on the store host's pid).
pub const TRACK_STORE_SHARD: &str = "store.shard";

// ---------------------------------------------------------------------
// Trace event tags.
// ---------------------------------------------------------------------

/// B/E: the VmHost freeze window (`arg` of E = real downtime, ns).
pub const EV_VM_FREEZE: &str = "vm.freeze";
/// B/E: dom0 capturing the dirty state (`arg` of E = dirty bytes).
pub const EV_VM_CAPTURE: &str = "vm.capture";
/// B/E: post-resume replay of frames logged during the freeze
/// (`arg` = frames replayed).
pub const EV_VM_RX_REPLAY: &str = "vm.rx_replay";
/// Instant: a guest `gettimeofday` observation (`arg` = guest ns).
pub const EV_GUEST_CLOCK_READ: &str = "guest.clock_read";
/// Instant: a guest timer tick (`arg` = guest ns at the tick).
pub const EV_GUEST_TICK: &str = "guest.tick";
/// B/E: the temporal firewall held closed (`arg` = guest ns at the
/// close / reopen — equal when downtime is concealed).
pub const EV_GUEST_FW_CLOSED: &str = "guest.fw_closed";
/// B/E: a COW branch seal merge (`arg` of E = merged blocks).
pub const EV_COW_SEAL: &str = "cow.seal";
/// B/E: Dummynet suspended for a checkpoint (`arg` of E = downtime ns).
pub const EV_DN_SUSPENDED: &str = "dn.suspended";
/// B/E: Dummynet replaying its suspension log (`arg` = frames).
pub const EV_DN_DRAIN: &str = "dn.drain";
/// B/E: one coordinated epoch, publish → resume (`arg` = epoch).
pub const EV_EPOCH: &str = "epoch";
/// Instant: epoch notification published (`arg` = epoch).
pub const EV_EPOCH_NOTIFY: &str = "epoch.notify";
/// Instant: every participant acked the notification (`arg` = epoch).
pub const EV_EPOCH_ALL_ACKED: &str = "epoch.all_acked";
/// Instant: every participant reported done (`arg` = epoch).
pub const EV_EPOCH_BARRIER: &str = "epoch.barrier";
/// Instant: a held resume was released (`arg` = epoch).
pub const EV_EPOCH_RESUME_RELEASED: &str = "epoch.resume_released";
/// Instant: an epoch was abandoned or aborted (`arg` = epoch).
pub const EV_EPOCH_ABANDONED: &str = "epoch.abandoned";
/// Instant: a golden image fetched to a machine's cache
/// (`arg` = compressed wire bytes).
pub const EV_GOLDEN_FETCH: &str = "golden.fetch";
/// Instant: one shard made a put batch durable (`arg` = batch bytes).
pub const EV_STORE_PUT_BATCH: &str = "store.put_batch";
/// Instant: one shard resolved a repair task (`arg` = copy index).
pub const EV_STORE_REPAIR: &str = "store.repair";

// ---------------------------------------------------------------------
// Causal flow tags (one flow per epoch round; the event `arg` is the
// packed `TraceCtx` minted by the coordinator, so every arrow of a
// round shares one Perfetto flow id).
// ---------------------------------------------------------------------

/// FlowStart: the coordinator published the round's notification.
pub const FLOW_NOTIFY: &str = "flow.notify";
/// FlowStep: a node's participant acked the notification.
pub const FLOW_ACK: &str = "flow.ack";
/// FlowStep: a node finished capturing its checkpoint state.
pub const FLOW_CAPTURE: &str = "flow.capture";
/// FlowStep: a delay node suspended shaping for the round.
pub const FLOW_DN_SUSPEND: &str = "flow.dn_suspend";
/// FlowStep: a delay node finished draining its suspension log.
pub const FLOW_DN_DRAIN: &str = "flow.dn_drain";
/// FlowStep: a store put reached quorum durability for the round.
pub const FLOW_STORE_COMMIT: &str = "flow.store_commit";
/// FlowStep: the coordinator's done barrier completed.
pub const FLOW_BARRIER: &str = "flow.barrier";
/// FlowEnd: the resume was published; the round's flow terminates.
pub const FLOW_RESUME: &str = "flow.resume";

// ---------------------------------------------------------------------
// Shadow-protocol trace tags (coordinator track).
//
// Per-node instants mirroring every transition of the two-phase epoch
// machine, consumed by the shadow checker (`checkpoint::shadow`). The
// `arg` packs `(group, epoch, node)` — see `shadow::pack` — except
// where noted.
// ---------------------------------------------------------------------

/// Instant: a node joined an epoch's barrier at publication.
pub const EV_SHADOW_JOIN: &str = "shadow.join";
/// Instant: a node's notification ack was accepted.
pub const EV_SHADOW_ACK: &str = "shadow.ack";
/// Instant: a node's done report was accepted (implies ack).
pub const EV_SHADOW_DONE: &str = "shadow.done";
/// Instant: a node was excluded from the barrier (presumed crashed).
pub const EV_SHADOW_EXCLUDE: &str = "shadow.exclude";
/// Instant: the epoch committed (node field = excluded count; zero =
/// clean commit, nonzero = degraded).
pub const EV_SHADOW_COMMIT: &str = "shadow.commit";
/// Instant: the epoch aborted at its deadline.
pub const EV_SHADOW_ABORT: &str = "shadow.abort";
/// Instant: the resume was published for a committed epoch.
pub const EV_SHADOW_RESUME: &str = "shadow.resume";
/// Instant: the round was abandoned (time travel replaced its state).
pub const EV_SHADOW_ABANDON: &str = "shadow.abandon";
/// Instant: an evicted node was re-admitted to its group.
pub const EV_SHADOW_REJOIN: &str = "shadow.rejoin";
/// Instant: a restarted coordinator classified this round from its WAL
/// (node field = recovery classification code, see `checkpoint::wal`).
pub const EV_SHADOW_RECOVER: &str = "shadow.recover";
/// Instant: the coordinator process crashed (`arg` = downtime ns).
pub const EV_COORD_CRASH: &str = "coord.crash";
