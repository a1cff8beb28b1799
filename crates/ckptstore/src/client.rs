//! The client handle and the per-shard worker component.
//!
//! [`StoreClient`] is the one way into a [`StoreService`]: a cheap
//! `Clone` handle (an `Rc<RefCell<..>>`, same idiom as the coordinator
//! WAL's `WalStore` handle) that every subsystem — testbed fileserver,
//! swap, time travel, benches — holds by value. All methods take
//! `&self`; the interior service is single-threaded under the sim
//! engine, so borrows are short and never reentrant.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use sim::{Buggify, Component, ComponentId, Ctx, Engine, Payload, SimDuration, SimTime, Telemetry};

use crate::error::StoreError;
use crate::service::{
    CaptureCache, ImageId, ImageStats, PutReport, RepairStats, RepairTask, StoreBuilder,
    StoreService, TimedPut, REPAIR_BATCH,
};

/// Cheap-`Clone` handle to a sharded store service. Build one with
/// [`StoreClient::builder`].
#[derive(Clone)]
pub struct StoreClient {
    svc: Rc<RefCell<StoreService>>,
}

impl Default for StoreClient {
    /// A single-shard, replication-1, in-memory store with the default
    /// chunk size.
    fn default() -> Self {
        Self::builder().build()
    }
}

impl fmt::Debug for StoreClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let svc = self.svc.borrow();
        f.debug_struct("StoreClient")
            .field("shards", &svc.shard_count())
            .field("replication", &svc.replication())
            .field("images", &svc.image_count())
            .field("chunks", &svc.chunk_count())
            .finish()
    }
}

impl StoreClient {
    /// Configures a sharded, replicated store; `build()` returns the
    /// handle to drive it with.
    pub fn builder() -> StoreBuilder {
        StoreBuilder::default()
    }

    pub(crate) fn from_service(svc: StoreService) -> Self {
        StoreClient { svc: Rc::new(RefCell::new(svc)) }
    }

    // -- configuration & wiring ---------------------------------------

    pub fn chunk_size(&self) -> usize {
        self.svc.borrow().chunk_size()
    }

    pub fn shard_count(&self) -> usize {
        self.svc.borrow().shard_count()
    }

    pub fn replication(&self) -> usize {
        self.svc.borrow().replication()
    }

    /// Majority quorum a put must reach before it reports durable.
    pub fn quorum(&self) -> usize {
        self.svc.borrow().quorum()
    }

    /// Sets the copies kept per chunk inserted from now on (existing
    /// chunks keep their count until a redundancy rebuild).
    pub fn set_replication(&self, copies: usize) {
        self.svc.borrow_mut().set_replication(copies);
    }

    /// Arms randomized fault exploration: the `store.*` buggify points
    /// (put corruption, slow gets, shard-fail replica writes, skipped
    /// scrub passes) fire from the registry's per-point streams.
    pub fn attach_buggify(&self, bg: &Buggify) {
        self.svc.borrow_mut().attach_buggify(bg);
    }

    /// Attaches telemetry after the fact (prefer the builder's
    /// `telemetry` knob, which also names the shard tracks at build).
    pub fn attach_telemetry(&self, telemetry: &Telemetry, host: u32) {
        self.svc.borrow_mut().attach_telemetry(telemetry, host);
    }

    /// Fault injection: flip one byte in the primary copy of roughly
    /// `per_million` of every million chunks inserted from now on.
    pub fn inject_write_faults(&self, seed: u64, per_million: u32) {
        self.svc.borrow_mut().inject_write_faults(seed, per_million);
    }

    pub fn clear_write_faults(&self) {
        self.svc.borrow_mut().clear_write_faults();
    }

    /// Drains the accumulated extra latency owed by buggified slow loads
    /// (ns since the last drain). The component that schedules load
    /// completions adds this to its completion time.
    pub fn take_get_penalty_ns(&self) -> u64 {
        self.svc.borrow_mut().take_get_penalty_ns()
    }

    // -- the batched, pipelined write path ----------------------------

    /// Stores an image: chunks it, fans new chunks out to their shards
    /// (with replication and quorum-ack), bumps refcounts on shared
    /// ones. Untimed — use [`StoreClient::put_image_at`] inside a
    /// simulation to also get the commit instant.
    pub fn put_image(&self, bytes: &[u8]) -> PutReport {
        self.svc.borrow_mut().put_image_inner(bytes, None, None).report
    }

    /// [`StoreClient::put_image`] through a [`CaptureCache`]: a chunk
    /// whose bytes are unchanged since the cache's image is re-admitted
    /// under its cached content address without re-hashing. Observably
    /// identical to `put_image` — same manifest, same [`PutReport`],
    /// same dedup accounting — only the wall-clock hashing work differs.
    pub fn put_image_cached(&self, bytes: &[u8], cache: &mut CaptureCache) -> PutReport {
        self.svc.borrow_mut().put_image_inner(bytes, Some(cache), None).report
    }

    /// The timed put: batches land on each shard's pipeline clock, and
    /// the returned [`TimedPut`] carries the instant the slowest chunk
    /// reached quorum durability. Pass the capture cache when one
    /// exists; `now` is the submit instant.
    pub fn put_image_at(
        &self,
        bytes: &[u8],
        cache: Option<&mut CaptureCache>,
        now: SimTime,
    ) -> TimedPut {
        self.svc.borrow_mut().put_image_inner(bytes, cache, Some(now))
    }

    /// [`StoreClient::put_image_cached`] of an encoder's segment list
    /// ([`Enc::into_segments`](crate::Enc::into_segments)), handed over
    /// instead of lent: same manifest, report, dedup accounting and cache
    /// behaviour as the put of their concatenation, but a store running
    /// at the segment size keeps the segments themselves as its chunks
    /// and cache entries — no contiguous image, no second copy.
    pub fn put_segments_cached(
        &self,
        segments: Vec<Arc<[u8]>>,
        cache: &mut CaptureCache,
    ) -> PutReport {
        self.svc.borrow_mut().put_segments(segments, Some(cache), None).report
    }

    /// [`StoreClient::put_image_at`] of an encoder's segment list, handed
    /// over as in [`StoreClient::put_segments_cached`].
    pub fn put_segments_at(
        &self,
        segments: Vec<Arc<[u8]>>,
        cache: Option<&mut CaptureCache>,
        now: SimTime,
    ) -> TimedPut {
        self.svc.borrow_mut().put_segments(segments, cache, Some(now))
    }

    // -- reads & lifecycle --------------------------------------------

    /// Reassembles an image into one buffer: the concatenation of
    /// [`StoreClient::load_image_chunks`], with the same checks.
    pub fn load_image(&self, id: ImageId) -> Result<Vec<u8>, StoreError> {
        self.svc.borrow_mut().load_image(id)
    }

    /// Loads an image as its verified chunk list (decode it in place
    /// with [`crate::Dec::chunked`]), re-hashing every chunk on the way
    /// out. A corrupt primary is served from the first intact replica
    /// (counted in [`StoreClient::repaired_chunks`], with read-repair
    /// enqueued); the typed error surfaces only when every copy is
    /// damaged.
    pub fn load_image_chunks(&self, id: ImageId) -> Result<Vec<Arc<[u8]>>, StoreError> {
        self.svc.borrow_mut().load_image_chunks(id)
    }

    /// Drops an image, decrementing refcounts and releasing chunks whose
    /// last reference this was. Returns the physical bytes freed.
    pub fn remove_image(&self, id: ImageId) -> Result<u64, StoreError> {
        self.svc.borrow_mut().remove_image(id)
    }

    pub fn contains(&self, id: ImageId) -> bool {
        self.svc.borrow().contains(id)
    }

    /// Byte length of a stored image.
    pub fn image_len(&self, id: ImageId) -> Result<u64, StoreError> {
        self.svc.borrow().image_len(id)
    }

    pub fn image_count(&self) -> usize {
        self.svc.borrow().image_count()
    }

    pub fn chunk_count(&self) -> usize {
        self.svc.borrow().chunk_count()
    }

    pub fn physical_bytes(&self) -> u64 {
        self.svc.borrow().physical_bytes()
    }

    pub fn replica_bytes(&self) -> u64 {
        self.svc.borrow().replica_bytes()
    }

    pub fn repaired_chunks(&self) -> u64 {
        self.svc.borrow().repaired_chunks()
    }

    pub fn stats(&self) -> ImageStats {
        self.svc.borrow().stats()
    }

    // -- gossip repair ------------------------------------------------

    /// Enqueues a repair task for every damaged or missing copy found by
    /// a hash-order scan (skippable at the `store.scrub_skip` point).
    pub fn schedule_scrub(&self) -> u64 {
        self.svc.borrow_mut().schedule_scrub()
    }

    /// Raises under-replicated chunks' target copy counts, enqueueing
    /// the missing copies for background repair.
    pub fn schedule_redundancy_rebuild(&self) -> u64 {
        self.svc.borrow_mut().schedule_redundancy_rebuild()
    }

    /// Resolves up to `max` queued tasks owned by `shard` (or any shard
    /// when `None`). Returns `(healed, added)` copy counts.
    pub fn pump_repairs(&self, shard: Option<usize>, max: usize, at: Option<SimTime>) -> (u64, u64) {
        self.svc.borrow_mut().pump_repairs(shard, max, at)
    }

    /// Synchronously drains the whole repair queue.
    pub fn drain_repairs(&self) -> (u64, u64) {
        self.svc.borrow_mut().drain_repairs()
    }

    /// Tasks currently waiting on the repair queue (oldest first) — the
    /// deterministic repair schedule.
    pub fn pending_repairs(&self) -> Vec<RepairTask> {
        self.svc.borrow().pending_repairs()
    }

    pub fn repair_backlog(&self) -> usize {
        self.svc.borrow().repair_backlog()
    }

    pub fn repair_stats(&self) -> RepairStats {
        self.svc.borrow().repair_stats()
    }

    /// Spawns one [`ShardWorker`] per shard on the engine, each pumping
    /// its shard's repair backlog every `period`. The workers re-post
    /// themselves forever, so drive such an engine with `run_until` /
    /// `run_for` rather than `run_to_completion`.
    pub fn spawn_repair_workers(
        &self,
        engine: &mut Engine,
        period: SimDuration,
    ) -> Vec<ComponentId> {
        (0..self.shard_count())
            .map(|shard| {
                let id = engine.add_component(Box::new(ShardWorker {
                    client: self.clone(),
                    shard,
                    period,
                }));
                engine.post(id, period, PumpTick);
                id
            })
            .collect()
    }

    // -- corruption hooks (fault-injection surface) -------------------

    /// Flips one byte inside *every* stored copy of a chunk so the next
    /// load must report [`StoreError::CorruptChunk`].
    #[doc(hidden)]
    pub fn corrupt_chunk(
        &self,
        image: ImageId,
        chunk_index: usize,
        byte: usize,
    ) -> Result<(), StoreError> {
        self.svc.borrow_mut().corrupt_chunk(image, chunk_index, byte)
    }

    /// Flips one byte in the primary copy only, leaving replicas intact.
    #[doc(hidden)]
    pub fn corrupt_primary(
        &self,
        image: ImageId,
        chunk_index: usize,
        byte: usize,
    ) -> Result<(), StoreError> {
        self.svc.borrow_mut().corrupt_primary(image, chunk_index, byte)
    }
}

struct PumpTick;

/// One shard's independently-owned repair worker: a sim component that
/// drains its shard's slice of the gossip repair queue in bounded
/// batches, stamping per-shard trace events as it goes.
pub struct ShardWorker {
    client: StoreClient,
    shard: usize,
    period: SimDuration,
}

impl ShardWorker {
    pub fn shard(&self) -> usize {
        self.shard
    }
}

impl Component for ShardWorker {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        if payload.downcast_ref::<PumpTick>().is_some() {
            let now = ctx.now();
            self.client.pump_repairs(Some(self.shard), REPAIR_BATCH, Some(now));
            ctx.post_self(self.period, PumpTick);
        }
    }

    sim::component_boilerplate!();
}
