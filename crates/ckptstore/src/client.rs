//! The checkpoint store: placement, refcounted dedup, quorum-ack puts,
//! and the gossip repair queue, all behind one type.
//!
//! [`StoreClient`] is a cheap-`Clone` handle (an `Rc<RefCell<..>>`) that
//! every subsystem — testbed file server, swap, time travel, benches —
//! holds by value. Behind it sits one arena of chunk entries — a chunk's
//! address, refcount and every copy of it — that manifests name by slot,
//! and an address table from content hash to slot that only puts and the
//! repair queue probe. Copies are spread over N hash-partitioned shards
//! by computation, not by storage: FNV-1a over the content hash picks the
//! home shard and copy `r` lands on `(home + r) % N`, which is where its
//! bytes, batch time and repair work are charged. Every
//! operation is a `&self` method on the handle that borrows the state for
//! its own duration; the store is single-threaded under the sim engine,
//! so the borrows are short and never nest. Shard repair pumps run as
//! [`ShardWorker`] components on the sim engine.
//!
//! # Write path
//!
//! One loop (`put_chunks`) takes an image as its chunks in order — slices
//! borrowed from a caller's buffer (`put_image*`) or segments handed over
//! whole (`put_segments*`, which adopts an encoder's segments, block
//! records still fingerprints, as the stored chunks) — and batches new
//! chunks per shard. The
//! primary copy is written synchronously; replica copies may fail at the
//! buggify `store.shard_fail` point. The put blocks (retries) until a
//! majority quorum of copies is durable; copies that failed beyond the
//! quorum are enqueued on the repair queue instead of retried inline —
//! gossip-driven background repair replaces the old synchronous scrub.
//!
//! # Determinism
//!
//! Placement is a pure function of the content hash; the arena is in
//! insertion order (freed slots reused last-freed first) and the address
//! table is hashed, so every scan that enqueues work (scrub scheduling,
//! redundancy rebuild) sorts the live chunks by address first and walks
//! in hash order; the repair queue is an explicit FIFO.
//! Same seed ⇒ byte-identical shard assignment, reports, and repair
//! schedule.

use std::cell::RefCell;
use std::collections::{hash_map, HashMap, HashSet, VecDeque};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use sim::buggify;
use sim::buggify::points as bg_points;
use sim::telemetry::names;
use sim::{
    Buggify, Component, ComponentId, CounterId, Ctx, Engine, HistogramId, IntMap, Payload,
    SimDuration, SimTime, Telemetry, TraceTag, TrackId,
};

use crate::error::StoreError;
use crate::hash::{chunk_hash, splitmix64, ChunkHash};
use crate::segment::Segment;

/// Default chunk size. Matches the COW stores' 4 KB block size so an
/// aligned block record maps 1:1 onto a chunk.
pub const DEFAULT_CHUNK_SIZE: usize = 4096;

/// Hard cap on copies per chunk (placement packs the copy index into a
/// `u8`, and more copies than this buys nothing in the simulated fleet).
pub const MAX_REPLICATION: usize = 8;

/// Handle to a stored image (opaque, store-local).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ImageId(pub u64);

/// Store-wide dedup accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImageStats {
    /// Sum of the byte lengths of every live image.
    pub logical_bytes: u64,
    /// Bytes actually held in chunks (each distinct chunk counted once).
    pub physical_bytes: u64,
    /// `logical / physical`; 1.0 for an empty store.
    pub dedup_ratio: f64,
    /// Distinct chunks referenced by more than one manifest entry.
    pub chunks_shared: u64,
}

/// What one `put_image` call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PutReport {
    pub image: ImageId,
    /// Byte length of the stored image.
    pub logical_bytes: u64,
    /// Bytes of chunks this put added to the store (the image's physical
    /// residual against everything already stored — what a transfer of
    /// this image on top of its parent actually has to move).
    pub new_physical_bytes: u64,
    /// Chunks in this image's manifest.
    pub chunks_total: u64,
    /// Chunks that were not already in the store.
    pub chunks_new: u64,
    /// Distinct shards that received writes from this put.
    pub shards_touched: u32,
    /// Replica copies acknowledged durable (primaries excluded),
    /// including quorum-shortfall retries.
    pub replica_acks: u64,
    /// Replica copies that failed past quorum and were handed to the
    /// background repair queue instead of retried inline.
    pub repairs_enqueued: u64,
}

/// A [`PutReport`] plus the simulated commit instant: when the slowest
/// chunk of the image reached quorum durability across its shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedPut {
    pub report: PutReport,
    /// When the put reached quorum on every chunk (equals the submit
    /// instant for a fully deduplicated put).
    pub commit_at: SimTime,
}

/// Cumulative repair-path accounting (the gossip queue's lifetime view).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Tasks ever placed on the repair queue.
    pub enqueued: u64,
    /// Tasks taken off the queue and resolved (including drops).
    pub processed: u64,
    /// Damaged copies rewritten from an intact sibling.
    pub healed_copies: u64,
    /// Missing copies written for the first time.
    pub added_copies: u64,
    /// Replica writes retried inline to reach the put quorum.
    pub quorum_retries: u64,
}

/// Capture-side page-hash cache: the chunk list of one domain's last
/// committed image. A cached put re-admits a chunk whose bytes are
/// unchanged since that image under its cached content address without
/// re-hashing — incremental capture in wall-clock terms — and keeps the
/// cached segment in place of the new one, so an unchanged chunk is one
/// allocation however many captures hold it. "Unchanged" is a comparison
/// of bytes (`Segment`'s `==`): two records by fingerprint, a record and
/// bytes 1 KiB of the record at a time, bytes by memcmp.
///
/// Safety invariant: every cached `(hash, segment)` pair satisfies
/// `hash == chunk_hash(bytes of segment)` by construction — an entry is
/// the segment that was just hashed, or a previous entry that compared
/// equal; fault injection damages a private copy, never that segment — so
/// a stale cache, a cache from another domain, or a cache surviving a
/// store reset can only cause extra misses, never a wrong content address.
#[derive(Default)]
pub struct CaptureCache {
    pub(crate) chunks: Vec<(ChunkHash, Segment)>,
    hits: u64,
    misses: u64,
}

impl CaptureCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Chunks re-admitted by cached hash (cumulative).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Chunks that had to be hashed (cumulative).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Forgets the cached image; the next capture hashes every chunk.
    pub fn clear(&mut self) {
        self.chunks.clear();
    }
}

// Simulated shard timing: ~1 GB/s per shard with a 50 µs batch floor —
// disk-array shaped, slow enough that fan-out across shards is visible.

/// Fixed per-batch overhead on a shard (request dispatch + fsync).
const PUT_OVERHEAD_NS: u64 = 50_000;
/// Per-byte cost of making a batch durable on one shard.
const SHARD_NS_PER_BYTE: u64 = 1;
/// Repair tasks a shard worker resolves per pump tick.
const REPAIR_BATCH: usize = 32;

/// One queued background-repair task: (re)write `copy` of `hash` on its
/// placement shard from an intact sibling copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairTask {
    pub hash: ChunkHash,
    pub copy: u8,
}

/// What resolving one repair task did.
enum TaskOutcome {
    /// The chunk's last reference was dropped before the task ran.
    DeadChunk,
    /// The destination copy was already intact (a later put or an
    /// earlier pump beat this task).
    AlreadyIntact,
    /// Every sibling copy is damaged too — nothing to repair from.
    Hopeless,
    /// A damaged copy was rewritten from an intact sibling.
    Healed,
    /// A missing copy was written for the first time.
    Added,
}

/// Deterministic write-fault state (SplitMix64 over an injected seed).
struct WriteFaults {
    state: u64,
    per_million: u32,
}

/// One chunk on its way into the store: a slice of a caller's buffer, or
/// a segment handed over whole.
enum Chunk<'a> {
    Borrowed(&'a [u8]),
    Owned(Segment),
}

impl Chunk<'_> {
    fn len(&self) -> usize {
        match self {
            Chunk::Borrowed(b) => b.len(),
            Chunk::Owned(s) => s.len(),
        }
    }

    fn hash(&self) -> ChunkHash {
        match self {
            Chunk::Borrowed(b) => chunk_hash(b),
            Chunk::Owned(s) => s.hash(),
        }
    }

    /// Whether `seg` holds this chunk's bytes.
    fn same_bytes(&self, seg: &Segment) -> bool {
        match self {
            Chunk::Borrowed(b) => seg.eq_bytes(b),
            Chunk::Owned(s) => s == seg,
        }
    }

    /// The chunk as a shared segment: the one handed over, or a copy of
    /// the borrowed bytes made at the first call and shared after.
    fn share(&mut self) -> Segment {
        let seg = match self {
            Chunk::Owned(s) => return s.clone(),
            Chunk::Borrowed(b) => Segment::Bytes(Arc::from(*b)),
        };
        *self = Chunk::Owned(seg.clone());
        seg
    }
}

/// An image: its length and the arena slot of each chunk, in order.
struct Manifest {
    logical_len: u64,
    chunks: Vec<u32>,
}

/// One chunk in the arena: its content address, the manifest entries
/// naming it, and its copies. Placement is derived ([`shard_of`]), so no
/// copy records where it lives; the length is copy 0's, which every
/// damage path keeps.
struct Entry {
    hash: ChunkHash,
    /// Copy 0, the primary: a put writes it synchronously, so it is
    /// always present.
    primary: Segment,
    /// Copies `1..want`, `None` while missing. Its length is the copy
    /// count this chunk should hold less one: the replication factor at
    /// insert, possibly raised later by a redundancy rebuild. Empty, and
    /// so unallocated, at replication 1.
    replicas: Box<[Option<Segment>]>,
    refs: u32,
}

impl Entry {
    /// Copies this chunk should hold.
    fn want(&self) -> u8 {
        self.replicas.len() as u8 + 1
    }

    fn len(&self) -> u64 {
        self.primary.len() as u64
    }

    fn copy(&self, r: u8) -> Option<&Segment> {
        match r {
            0 => Some(&self.primary),
            _ => self.replicas[usize::from(r) - 1].as_ref(),
        }
    }

    /// Whether copy `r` is present and hashes to the chunk's address.
    fn intact(&self, r: u8) -> bool {
        self.copy(r).is_some_and(|c| c.hash() == self.hash)
    }
}

/// Home shard of a chunk's copy `r`: FNV-1a over the content hash picks
/// the base shard, replicas stride to the following shards.
pub fn shard_of(hash: ChunkHash, copy: u8, n_shards: usize) -> usize {
    debug_assert!(n_shards > 0);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in hash.0.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    ((h % n_shards as u64) as usize + copy as usize) % n_shards
}

/// Per-shard telemetry handles.
struct ShardTele {
    chunks: CounterId,
    bytes: CounterId,
    repair_writes: CounterId,
    track: TrackId,
}

/// Telemetry instrument handles (attached by the builder).
struct StoreTele {
    t: Telemetry,
    chunks_new: CounterId,
    dedup_hits: CounterId,
    logical_bytes: CounterId,
    new_physical_bytes: CounterId,
    repairs: CounterId,
    scrub_heals: CounterId,
    replicas_added: CounterId,
    hash_cache_hits: CounterId,
    hash_cache_misses: CounterId,
    puts: CounterId,
    quorum_retries: CounterId,
    repairs_enqueued: CounterId,
    repairs_done: CounterId,
    commit_ns: HistogramId,
    ev_put_batch: TraceTag,
    ev_repair: TraceTag,
    shards: Vec<ShardTele>,
}

impl StoreTele {
    /// Dedup counters land under `ckptstore.*`, store-level and per-shard
    /// counters under `storesvc.*`, and each shard gets its own trace
    /// track on `host`'s timeline.
    fn new(telemetry: &Telemetry, host: u32, n_shards: usize) -> Self {
        let t = telemetry.clone();
        let shards = (0..n_shards)
            .map(|i| ShardTele {
                chunks: t.counter(&format!("{}{}.chunks", names::STORESVC_SHARD_PREFIX, i)),
                bytes: t.counter(&format!("{}{}.bytes", names::STORESVC_SHARD_PREFIX, i)),
                repair_writes: t
                    .counter(&format!("{}{}.repair_writes", names::STORESVC_SHARD_PREFIX, i)),
                track: t.track(host, &format!("{}{}", names::TRACK_STORE_SHARD, i)),
            })
            .collect();
        StoreTele {
            chunks_new: t.counter(names::CKPT_CHUNKS_NEW),
            dedup_hits: t.counter(names::CKPT_DEDUP_HITS),
            logical_bytes: t.counter(names::CKPT_LOGICAL_BYTES),
            new_physical_bytes: t.counter(names::CKPT_NEW_PHYSICAL_BYTES),
            repairs: t.counter(names::CKPT_REPLICA_REPAIRS),
            scrub_heals: t.counter(names::CKPT_SCRUB_HEALS),
            replicas_added: t.counter(names::CKPT_REPLICAS_ADDED),
            hash_cache_hits: t.counter(names::CKPT_HASH_CACHE_HITS),
            hash_cache_misses: t.counter(names::CKPT_HASH_CACHE_MISSES),
            puts: t.counter(names::STORESVC_PUTS),
            quorum_retries: t.counter(names::STORESVC_QUORUM_RETRIES),
            repairs_enqueued: t.counter(names::STORESVC_REPAIRS_ENQUEUED),
            repairs_done: t.counter(names::STORESVC_REPAIRS_DONE),
            commit_ns: t.histogram(names::STORESVC_COMMIT_NS),
            ev_put_batch: t.trace_tag(names::EV_STORE_PUT_BATCH),
            ev_repair: t.trace_tag(names::EV_STORE_REPAIR),
            shards,
            t,
        }
    }
}

/// One shard: the bytes of the copies placed on it and its pipeline
/// clock. The copies themselves live in the chunk arena; which shard
/// holds copy `r` of a chunk is [`shard_of`].
#[derive(Default)]
struct Shard {
    /// Payload bytes across the live copies.
    bytes: u64,
    /// Virtual pipeline clock: when this shard finishes its last
    /// accepted batch. Timed puts queue behind it.
    free_at_ns: u64,
}

/// Majority quorum over `copies`: the durable copies a put waits for.
fn majority(copies: usize) -> usize {
    copies / 2 + 1
}

/// Rejects a copy count outside `1..=MAX_REPLICATION`.
fn check_replication(copies: usize) {
    assert!((1..=MAX_REPLICATION).contains(&copies), "replication must be 1..={MAX_REPLICATION}");
}

/// Everything a [`StoreClient`] handle shares, and the helpers more than
/// one of its operations run.
struct State {
    chunk_size: usize,
    replication: usize,
    shards: Vec<Shard>,
    /// The chunk arena: slot `i` holds a live chunk, or `None` once freed.
    arena: Vec<Option<Entry>>,
    /// Freed slots, reused last-freed first.
    free: Vec<u32>,
    /// Content address → arena slot, for every live chunk.
    slots: IntMap<ChunkHash, u32>,
    images: HashMap<u64, Manifest>,
    next_image: u64,
    /// Primary-copy bytes (each distinct chunk once).
    physical_bytes: u64,
    repair_q: VecDeque<RepairTask>,
    /// Membership set suppressing duplicate queue entries.
    queued: HashSet<(u128, u8)>,
    repair_stats: RepairStats,
    /// Chunks served from a replica because the primary was corrupt.
    repaired: u64,
    write_faults: Option<WriteFaults>,
    tele: Option<StoreTele>,
    /// Randomized fault exploration (`store.*` buggify points). Disarmed
    /// by default: a disarmed registry never draws, so stores outside an
    /// exploration run behave exactly as before.
    buggify: Buggify,
    /// Extra read latency owed by buggified slow loads (ns), accumulated
    /// here because the store itself has no clock; the timed component
    /// driving it drains the debt via `take_get_penalty_ns`.
    get_penalty_ns: u64,
}

impl State {
    /// The one put loop, over the image's chunks in order.
    fn put_chunks<'a>(
        &mut self,
        chunks: impl ExactSizeIterator<Item = Chunk<'a>>,
        mut cache: Option<&mut CaptureCache>,
        now: Option<SimTime>,
    ) -> TimedPut {
        let n_chunks = chunks.len();
        let n_shards = self.shards.len();
        let quorum = majority(self.replication);
        let mut manifest = Vec::with_capacity(n_chunks);
        // Room for every chunk to be new, made once: the arena and the
        // address table grow at most once per put, and a first capture
        // allocates them at their size, not through every doubling below.
        self.arena.reserve(n_chunks.saturating_sub(self.free.len()));
        self.slots.reserve(n_chunks);
        let mut next_cache: Option<Vec<(ChunkHash, Segment)>> =
            cache.as_ref().map(|_| Vec::with_capacity(n_chunks));
        let mut logical = 0u64;
        let mut new_physical = 0u64;
        let mut chunks_new = 0u64;
        let mut cache_hits = 0u64;
        let mut cache_misses = 0u64;
        let mut replica_acks = 0u64;
        let mut quorum_retries = 0u64;
        let mut repairs_enqueued = 0u64;
        // Per-shard batch accumulation for the timing model, and the
        // shards each new chunk's durable copies landed on (for the
        // per-chunk quorum commit instant).
        let mut batch_bytes = vec![0u64; n_shards];
        let mut batch_chunks = vec![0u64; n_shards];
        let mut chunk_placements: Vec<[u8; MAX_REPLICATION]> = Vec::new();
        let mut chunk_copy_counts: Vec<u8> = Vec::new();

        for (idx, mut chunk) in chunks.enumerate() {
            let len = chunk.len() as u64;
            logical += len;
            // Cached-hash fast path: when the bytes at this position are
            // unchanged since the previous capture, its hash is reused
            // and its segment stands in for this one from here on.
            let h = match cache.as_deref_mut() {
                Some(c) => match c.chunks.get(idx) {
                    Some((h, prev)) if chunk.same_bytes(prev) => {
                        cache_hits += 1;
                        chunk = Chunk::Owned(prev.clone());
                        *h
                    }
                    _ => {
                        cache_misses += 1;
                        chunk.hash()
                    }
                },
                None => chunk.hash(),
            };
            let slot = match self.slots.entry(h) {
                hash_map::Entry::Occupied(o) => {
                    let slot = *o.get();
                    self.arena[slot as usize].as_mut().expect("a live slot").refs += 1;
                    slot
                }
                hash_map::Entry::Vacant(v) => {
                    new_physical += len;
                    chunks_new += 1;
                    let want = self.replication.min(MAX_REPLICATION) as u8;
                    let clean = chunk.share();
                    let mut primary = clean.clone();
                    // Write-path fault injection damages the primary only;
                    // replicas land clean (independent write paths). The
                    // damage is done to a copy: `clean` is never written.
                    if let Some(wf) = self.write_faults.as_mut() {
                        let draw = splitmix64(&mut wf.state);
                        if len > 0 && draw % 1_000_000 < u64::from(wf.per_million) {
                            primary = clean.damaged((draw >> 32) as usize);
                        }
                    }
                    // Buggified write corruption: same shape as the injected
                    // faults above (primary damaged, replicas clean), drawn
                    // from the exploration registry's own stream.
                    if len > 0 && buggify!(self.buggify, bg_points::STORE_PUT_CORRUPT) {
                        let i =
                            self.buggify.magnitude(bg_points::STORE_PUT_CORRUPT, 0, len) as usize;
                        primary = primary.damaged(i);
                    }

                    // Primary write is synchronous and always durable.
                    let mut placements = [0u8; MAX_REPLICATION];
                    let home = shard_of(h, 0, n_shards);
                    self.shards[home].bytes += len;
                    placements[0] = home as u8;
                    let mut written = 1usize;
                    batch_bytes[home] += len;
                    batch_chunks[home] += 1;

                    // Replica fan-out: each copy may fail at the shard-fail
                    // point; failures beyond the quorum go to background
                    // repair, shortfalls are retried inline until the put
                    // holds a majority of durable copies.
                    let mut replicas: Box<[Option<Segment>]> = match want {
                        1 => Box::default(),
                        _ => vec![None; usize::from(want) - 1].into(),
                    };
                    let mut failed: VecDeque<u8> = VecDeque::new();
                    for r in 1..want {
                        if buggify!(self.buggify, bg_points::STORE_SHARD_FAIL) {
                            failed.push_back(r);
                            continue;
                        }
                        let s = shard_of(h, r, n_shards);
                        self.shards[s].bytes += len;
                        replicas[usize::from(r) - 1] = Some(clean.clone());
                        placements[written] = s as u8;
                        written += 1;
                        replica_acks += 1;
                        batch_bytes[s] += len;
                        batch_chunks[s] += 1;
                    }
                    while written < quorum.min(want as usize) {
                        let r = failed.pop_front().expect("quorum <= want copies");
                        let s = shard_of(h, r, n_shards);
                        self.shards[s].bytes += len;
                        replicas[usize::from(r) - 1] = Some(clean.clone());
                        placements[written] = s as u8;
                        written += 1;
                        replica_acks += 1;
                        quorum_retries += 1;
                        batch_bytes[s] += len;
                        batch_chunks[s] += 1;
                    }
                    for r in failed {
                        if self.queued.insert((h.0, r)) {
                            self.repair_q.push_back(RepairTask { hash: h, copy: r });
                            self.repair_stats.enqueued += 1;
                            repairs_enqueued += 1;
                        }
                    }

                    self.physical_bytes += len;
                    chunk_placements.push(placements);
                    chunk_copy_counts.push(written as u8);
                    let entry = Some(Entry { hash: h, primary, replicas, refs: 1 });
                    let slot = match self.free.pop() {
                        Some(slot) => {
                            self.arena[slot as usize] = entry;
                            slot
                        }
                        None => {
                            self.arena.push(entry);
                            u32::try_from(self.arena.len() - 1).expect("arena slots fit a u32")
                        }
                    };
                    *v.insert(slot)
                }
            };
            if let Some(nc) = next_cache.as_mut() {
                // `chunk` is the bytes that hashed to `h` (or the cached
                // segment they were compared equal to), never a damaged
                // primary: the cache invariant holds by construction.
                nc.push((h, chunk.share()));
            }
            manifest.push(slot);
        }
        if let Some(c) = cache {
            c.chunks = next_cache.expect("cache refresh list built alongside");
            c.hits += cache_hits;
            c.misses += cache_misses;
        }
        self.repair_stats.quorum_retries += quorum_retries;

        // Timing model: each touched shard makes its batch durable after
        // a fixed overhead plus a per-byte cost, queued behind whatever
        // the shard was already committing. A chunk commits when its
        // quorum-th durable copy lands; the image commits with its
        // slowest chunk.
        let mut commit_at = now.unwrap_or(SimTime::ZERO);
        if let Some(now) = now {
            let now_ns = now.as_nanos();
            let mut done_ns = vec![0u64; n_shards];
            for (s, shard) in self.shards.iter_mut().enumerate() {
                if batch_chunks[s] == 0 {
                    continue;
                }
                let start = now_ns.max(shard.free_at_ns);
                let done = start + PUT_OVERHEAD_NS + batch_bytes[s] * SHARD_NS_PER_BYTE;
                shard.free_at_ns = done;
                done_ns[s] = done;
            }
            let mut commit_ns = now_ns;
            for (placements, &copies) in chunk_placements.iter().zip(&chunk_copy_counts) {
                let mut times: Vec<u64> = placements[..copies as usize]
                    .iter()
                    .map(|&s| done_ns[s as usize])
                    .collect();
                times.sort_unstable();
                commit_ns = commit_ns.max(times[quorum.min(times.len()) - 1]);
            }
            commit_at = SimTime::from_nanos(commit_ns);
            if let Some(t) = &self.tele {
                for (s, st) in t.shards.iter().enumerate() {
                    if batch_chunks[s] > 0 {
                        t.t.trace_instant(
                            st.track,
                            t.ev_put_batch,
                            SimTime::from_nanos(done_ns[s]),
                            batch_bytes[s] as i64,
                        );
                    }
                }
                t.t.record(t.commit_ns, (commit_ns - now_ns) as f64);
            }
        }

        let id = ImageId(self.next_image);
        self.next_image += 1;
        let chunks_total = manifest.len() as u64;
        let shards_touched = batch_chunks.iter().filter(|&&c| c > 0).count() as u32;
        if let Some(t) = &self.tele {
            t.t.inc(t.puts);
            t.t.add(t.chunks_new, chunks_new);
            t.t.add(t.dedup_hits, chunks_total - chunks_new);
            t.t.add(t.logical_bytes, logical);
            t.t.add(t.new_physical_bytes, new_physical);
            t.t.add(t.hash_cache_hits, cache_hits);
            t.t.add(t.hash_cache_misses, cache_misses);
            t.t.add(t.quorum_retries, quorum_retries);
            t.t.add(t.repairs_enqueued, repairs_enqueued);
            for (s, st) in t.shards.iter().enumerate() {
                t.t.add(st.chunks, batch_chunks[s]);
                t.t.add(st.bytes, batch_bytes[s]);
            }
        }
        self.images.insert(id.0, Manifest { logical_len: logical, chunks: manifest });
        TimedPut {
            report: PutReport {
                image: id,
                logical_bytes: logical,
                new_physical_bytes: new_physical,
                chunks_total,
                chunks_new,
                shards_touched,
                replica_acks,
                repairs_enqueued,
            },
            commit_at,
        }
    }

    fn enqueue_repair(&mut self, task: RepairTask) {
        if self.queued.insert((task.hash.0, task.copy)) {
            self.repair_q.push_back(task);
            self.repair_stats.enqueued += 1;
            if let Some(t) = &self.tele {
                t.t.inc(t.repairs_enqueued);
            }
        }
    }

    /// Every live chunk's slot, in ascending address order: the order
    /// scans enqueue in.
    fn slots_by_hash(&self) -> Vec<u32> {
        let mut live: Vec<(ChunkHash, u32)> = (0u32..)
            .zip(&self.arena)
            .filter_map(|(slot, e)| Some((e.as_ref()?.hash, slot)))
            .collect();
        live.sort_unstable();
        live.into_iter().map(|(_, slot)| slot).collect()
    }

    fn entry(&self, slot: u32) -> &Entry {
        self.arena[slot as usize].as_ref().expect("a live slot")
    }

    /// Writes copy `r` of the chunk in `slot` in place of any copy it
    /// held (repair heals in place), and keeps its shard's byte count.
    fn write_copy(&mut self, slot: u32, r: u8, data: Segment) {
        let e = self.arena[slot as usize].as_mut().expect("a live slot");
        let home = shard_of(e.hash, r, self.shards.len());
        let shard = &mut self.shards[home];
        shard.bytes += data.len() as u64;
        let old = match r {
            0 => Some(std::mem::replace(&mut e.primary, data)),
            _ => e.replicas[usize::from(r) - 1].replace(data),
        };
        if let Some(old) = old {
            shard.bytes -= old.len() as u64;
        }
    }

    /// Resolves one already-dequeued repair task: rewrites the target
    /// copy from an intact sibling. A task whose chunk died (or that names
    /// a copy its chunk no longer keeps: the chunk died and came back at
    /// a lower replication), or with no intact source left, is dropped —
    /// the load path surfaces the latter as [`StoreError::CorruptChunk`].
    fn resolve_task(&mut self, task: RepairTask, at: Option<SimTime>) -> TaskOutcome {
        self.repair_stats.processed += 1;
        let Some(&slot) = self.slots.get(&task.hash) else { return TaskOutcome::DeadChunk };
        let e = self.entry(slot);
        if task.copy >= e.want() {
            return TaskOutcome::DeadChunk;
        }
        // Already intact (a later put or an earlier pump beat us)?
        let was_present = e.copy(task.copy).is_some();
        if e.intact(task.copy) {
            return TaskOutcome::AlreadyIntact;
        }
        // Find an intact source among the other copies.
        let source = (0..e.want()).find(|&r| r != task.copy && e.intact(r));
        let Some(clean) = source.and_then(|r| e.copy(r)).cloned() else {
            return TaskOutcome::Hopeless;
        };
        self.write_copy(slot, task.copy, clean);
        self.repair_stats.repaired_write(was_present);
        if let Some(t) = &self.tele {
            let dest = shard_of(task.hash, task.copy, self.shards.len());
            t.t.inc(t.repairs_done);
            t.t.add(t.scrub_heals, u64::from(was_present));
            t.t.add(t.replicas_added, u64::from(!was_present));
            t.t.inc(t.shards[dest].repair_writes);
            if let Some(at) = at {
                t.t.trace_instant(t.shards[dest].track, t.ev_repair, at, i64::from(task.copy));
            }
        }
        if was_present {
            TaskOutcome::Healed
        } else {
            TaskOutcome::Added
        }
    }

    /// The slot of a non-empty chunk of `image`, for the corruption
    /// hooks.
    fn chunk_of(&self, image: ImageId, chunk_index: usize) -> Result<u32, StoreError> {
        let m = self.images.get(&image.0).ok_or(StoreError::UnknownImage(image))?;
        m.chunks
            .get(chunk_index)
            .copied()
            .filter(|&slot| self.entry(slot).len() > 0)
            .ok_or(StoreError::NoSuchChunk { image, chunk_index })
    }
}

impl RepairStats {
    fn repaired_write(&mut self, was_present: bool) {
        if was_present {
            self.healed_copies += 1;
        } else {
            self.added_copies += 1;
        }
    }
}

/// Cheap-`Clone` handle to a sharded, replicated checkpoint store. Build
/// one with [`StoreClient::builder`]; every clone drives the same store.
#[derive(Clone)]
pub struct StoreClient {
    inner: Rc<RefCell<State>>,
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
        let s = self.inner.borrow();
        f.debug_struct("StoreClient")
            .field("shards", &s.shards.len())
            .field("replication", &s.replication)
            .field("images", &s.images.len())
            .field("chunks", &s.slots.len())
            .finish()
    }
}

impl StoreClient {
    /// Configures a sharded, replicated store; `build()` returns the
    /// handle to drive it with.
    pub fn builder() -> StoreBuilder {
        StoreBuilder::default()
    }

    // -- configuration ------------------------------------------------

    pub fn chunk_size(&self) -> usize {
        self.inner.borrow().chunk_size
    }

    pub fn shard_count(&self) -> usize {
        self.inner.borrow().shards.len()
    }

    pub fn replication(&self) -> usize {
        self.inner.borrow().replication
    }

    /// Majority quorum a put must reach before it reports durable.
    pub fn quorum(&self) -> usize {
        majority(self.inner.borrow().replication)
    }

    /// Sets the copies kept per chunk inserted from now on (existing
    /// chunks keep their count until a redundancy rebuild).
    ///
    /// # Panics
    ///
    /// Panics outside `1..=MAX_REPLICATION`.
    pub fn set_replication(&self, copies: usize) {
        check_replication(copies);
        self.inner.borrow_mut().replication = copies;
    }

    /// Arms randomized fault exploration: the `store.*` buggify points
    /// (put corruption, slow gets, shard-fail replica writes, skipped
    /// scrub passes) fire from the registry's per-point streams.
    pub fn attach_buggify(&self, bg: &Buggify) {
        self.inner.borrow_mut().buggify = bg.clone();
    }

    /// Fault injection: flip one byte in the *primary* copy of roughly
    /// `per_million` out of every million chunks inserted from now on.
    /// Replicas are written clean, so replication >= 2 repairs these
    /// corruptions transparently. Deterministic in `seed`.
    pub fn inject_write_faults(&self, seed: u64, per_million: u32) {
        self.inner.borrow_mut().write_faults = Some(WriteFaults { state: seed, per_million });
    }

    pub fn clear_write_faults(&self) {
        self.inner.borrow_mut().write_faults = None;
    }

    /// Drains the accumulated extra latency owed by buggified slow loads
    /// (ns since the last drain). The component that schedules load
    /// completions adds this to its completion time.
    pub fn take_get_penalty_ns(&self) -> u64 {
        std::mem::take(&mut self.inner.borrow_mut().get_penalty_ns)
    }

    // -- the batched, pipelined write path ----------------------------

    /// Stores an image: chunks it, fans new chunks out to their shards
    /// (with replication and quorum-ack), bumps refcounts on shared
    /// ones. Untimed — use [`StoreClient::put_image_at`] inside a
    /// simulation to also get the commit instant.
    pub fn put_image(&self, bytes: &[u8]) -> PutReport {
        self.put_bytes(bytes, None, None).report
    }

    /// [`StoreClient::put_image`] through a [`CaptureCache`]: a chunk
    /// whose bytes are unchanged since the cache's image is re-admitted
    /// under its cached content address without re-hashing. Observably
    /// identical to `put_image` — same manifest, same [`PutReport`],
    /// same dedup accounting — only the wall-clock hashing work differs.
    pub fn put_image_cached(&self, bytes: &[u8], cache: &mut CaptureCache) -> PutReport {
        self.put_bytes(bytes, Some(cache), None).report
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
        self.put_bytes(bytes, cache, Some(now))
    }

    /// [`StoreClient::put_image_cached`] of an encoder's segment list
    /// ([`Enc::into_segments`](crate::Enc::into_segments)), handed over
    /// instead of lent: same manifest, report, dedup accounting and cache
    /// behaviour as the put of their concatenation, but a store running
    /// at the segment size keeps the segments themselves as its chunks
    /// and cache entries — no contiguous image, no second copy, and no
    /// block record written out.
    pub fn put_segments_cached(
        &self,
        segments: Vec<Segment>,
        cache: &mut CaptureCache,
    ) -> PutReport {
        self.put_segments(segments, Some(cache), None).report
    }

    /// [`StoreClient::put_image_at`] of an encoder's segment list, handed
    /// over as in [`StoreClient::put_segments_cached`].
    pub fn put_segments_at(
        &self,
        segments: Vec<Segment>,
        cache: Option<&mut CaptureCache>,
        now: SimTime,
    ) -> TimedPut {
        self.put_segments(segments, cache, Some(now))
    }

    /// The borrowed entry: the image's bytes, chunked where they lie.
    fn put_bytes(
        &self,
        bytes: &[u8],
        cache: Option<&mut CaptureCache>,
        now: Option<SimTime>,
    ) -> TimedPut {
        let s = &mut *self.inner.borrow_mut();
        s.put_chunks(bytes.chunks(s.chunk_size).map(Chunk::Borrowed), cache, now)
    }

    /// The owned entry: when the segments are chunk-shaped — all
    /// `chunk_size` long but a shorter, non-empty last — the store adopts
    /// them: the segment the encoder sealed is the chunk the shards hold,
    /// the capture cache remembers and a later load returns. A store
    /// running at another chunk size re-slices their concatenation.
    fn put_segments(
        &self,
        segments: Vec<Segment>,
        cache: Option<&mut CaptureCache>,
        now: Option<SimTime>,
    ) -> TimedPut {
        let chunk_size = self.chunk_size();
        let chunk_shaped = segments.split_last().is_none_or(|(last, full)| {
            full.iter().all(|s| s.len() == chunk_size) && (1..=chunk_size).contains(&last.len())
        });
        if chunk_shaped {
            self.inner.borrow_mut().put_chunks(segments.into_iter().map(Chunk::Owned), cache, now)
        } else {
            self.put_bytes(&concat(&segments), cache, now)
        }
    }

    // -- reads & lifecycle --------------------------------------------

    /// Reassembles an image into one buffer: the concatenation of
    /// [`StoreClient::load_image_chunks`], with the same checks.
    pub fn load_image(&self, id: ImageId) -> Result<Vec<u8>, StoreError> {
        Ok(concat(&self.load_image_chunks(id)?))
    }

    /// Loads an image as its verified segment list (decode it in place
    /// with [`crate::Dec::chunked`]): walks the manifest's arena slots in
    /// order, recomputes each chunk's address from what its copy holds,
    /// and hands back the very segments it verified. A corrupt
    /// primary is served from the first intact replica (counted in
    /// [`StoreClient::repaired_chunks`]), and the damaged copies it
    /// skipped are enqueued for background read-repair; the typed error
    /// surfaces only when every copy is damaged.
    pub fn load_image_chunks(&self, id: ImageId) -> Result<Vec<Segment>, StoreError> {
        let s = &mut *self.inner.borrow_mut();
        // Buggified slow get: the store has no clock, so the latency debt
        // accumulates for the timed caller to drain (`take_get_penalty_ns`).
        if buggify!(s.buggify, bg_points::STORE_GET_SLOW) {
            let ns = s.buggify.magnitude(
                bg_points::STORE_GET_SLOW,
                100_000,     // 100 µs: a seek's worth of stall
                200_000_000, // 200 ms: a raid rebuild in the way
            );
            s.get_penalty_ns += ns;
        }
        let Some(m) = s.images.get(&id.0) else { return Err(StoreError::UnknownImage(id)) };
        let mut out = Vec::with_capacity(m.chunks.len());
        let mut served_from_replica = 0u64;
        let mut read_repairs: Vec<RepairTask> = Vec::new();
        for (i, &slot) in m.chunks.iter().enumerate() {
            let Some(e) = &s.arena[slot as usize] else {
                return Err(StoreError::MissingChunk { image: id, chunk_index: i });
            };
            let actual = e.primary.hash();
            if actual == e.hash {
                out.push(e.primary.clone());
                continue;
            }
            let Some(r) = (1..e.want()).find(|&r| e.intact(r)) else {
                return Err(StoreError::CorruptChunk {
                    image: id,
                    chunk_index: i,
                    expected: e.hash,
                    actual,
                });
            };
            served_from_replica += 1;
            // Read-repair: the damaged or missing copies skipped go on the
            // gossip queue.
            read_repairs.extend((0..r).map(|bad| RepairTask { hash: e.hash, copy: bad }));
            out.push(e.copy(r).expect("an intact copy").clone());
        }
        debug_assert_eq!(
            out.iter().map(|c| c.len() as u64).sum::<u64>(),
            m.logical_len,
            "manifest drifted"
        );
        s.repaired += served_from_replica;
        if let Some(t) = &s.tele {
            t.t.add(t.repairs, served_from_replica);
        }
        for task in read_repairs {
            s.enqueue_repair(task);
        }
        Ok(out)
    }

    /// Drops an image, decrementing refcounts and releasing chunks whose
    /// last reference this was. Returns the physical bytes freed.
    pub fn remove_image(&self, id: ImageId) -> Result<u64, StoreError> {
        let s = &mut *self.inner.borrow_mut();
        let m = s.images.remove(&id.0).ok_or(StoreError::UnknownImage(id))?;
        let n_shards = s.shards.len();
        let mut freed = 0u64;
        for &slot in &m.chunks {
            let e = s.arena[slot as usize].as_mut().expect("manifest chunk missing on remove");
            e.refs -= 1;
            if e.refs > 0 {
                continue;
            }
            // No manifest names the slot any more: free it.
            let e = s.arena[slot as usize].take().expect("a live slot");
            s.slots.remove(&e.hash);
            s.free.push(slot);
            freed += e.len();
            s.physical_bytes -= e.len();
            for r in 0..e.want() {
                if let Some(copy) = e.copy(r) {
                    s.shards[shard_of(e.hash, r, n_shards)].bytes -= copy.len() as u64;
                }
                s.queued.remove(&(e.hash.0, r));
            }
        }
        Ok(freed)
    }

    pub fn contains(&self, id: ImageId) -> bool {
        self.inner.borrow().images.contains_key(&id.0)
    }

    /// Byte length of a stored image.
    pub fn image_len(&self, id: ImageId) -> Result<u64, StoreError> {
        self.inner
            .borrow()
            .images
            .get(&id.0)
            .map(|m| m.logical_len)
            .ok_or(StoreError::UnknownImage(id))
    }

    pub fn image_count(&self) -> usize {
        self.inner.borrow().images.len()
    }

    pub fn chunk_count(&self) -> usize {
        self.inner.borrow().slots.len()
    }

    /// Bytes held in primary chunks (each distinct chunk once; replica
    /// copies are accounted by `replica_bytes`).
    pub fn physical_bytes(&self) -> u64 {
        self.inner.borrow().physical_bytes
    }

    /// Bytes held in replica copies beyond the primaries.
    pub fn replica_bytes(&self) -> u64 {
        let s = self.inner.borrow();
        let total: u64 = s.shards.iter().map(|s| s.bytes).sum();
        total - s.physical_bytes
    }

    /// Chunks served from a replica because their primary copy was
    /// corrupt (cumulative over the store's lifetime).
    pub fn repaired_chunks(&self) -> u64 {
        self.inner.borrow().repaired
    }

    pub fn stats(&self) -> ImageStats {
        let s = self.inner.borrow();
        let logical: u64 = s.images.values().map(|m| m.logical_len).sum();
        let physical = s.physical_bytes;
        ImageStats {
            logical_bytes: logical,
            physical_bytes: physical,
            dedup_ratio: if physical == 0 { 1.0 } else { logical as f64 / physical as f64 },
            chunks_shared: s.arena.iter().flatten().filter(|e| e.refs > 1).count() as u64,
        }
    }

    // -- gossip repair ------------------------------------------------

    /// Walks every chunk in hash order and enqueues a repair task for
    /// each damaged or missing copy. One buggify draw per pass: a fired
    /// `store.scrub_skip` models a scrubber whose whole pass silently
    /// did nothing, leaving damage to fester until the next.
    pub fn schedule_scrub(&self) -> u64 {
        let s = &mut *self.inner.borrow_mut();
        if buggify!(s.buggify, bg_points::STORE_SCRUB_SKIP) {
            return 0;
        }
        let mut tasks: Vec<RepairTask> = Vec::new();
        for slot in s.slots_by_hash() {
            let e = s.entry(slot);
            let damaged = (0..e.want()).filter(|&r| !e.intact(r));
            tasks.extend(damaged.map(|copy| RepairTask { hash: e.hash, copy }));
        }
        let mut enqueued = 0u64;
        for task in tasks {
            let before = s.repair_stats.enqueued;
            s.enqueue_repair(task);
            enqueued += s.repair_stats.enqueued - before;
        }
        enqueued
    }

    /// Raises every chunk admitted below the current replication factor:
    /// bumps its target copy count and enqueues the missing copies on
    /// the repair queue. Respects the same `store.scrub_skip` pass draw
    /// as scrubbing. Returns the chunks whose target was raised.
    pub fn schedule_redundancy_rebuild(&self) -> u64 {
        let s = &mut *self.inner.borrow_mut();
        if buggify!(s.buggify, bg_points::STORE_SCRUB_SKIP) {
            return 0;
        }
        let want = s.replication.min(MAX_REPLICATION) as u8;
        let mut raised = 0u64;
        let mut tasks: Vec<RepairTask> = Vec::new();
        for slot in s.slots_by_hash() {
            let e = s.arena[slot as usize].as_mut().expect("a live slot");
            if e.want() >= want {
                continue;
            }
            tasks.extend((e.want()..want).map(|copy| RepairTask { hash: e.hash, copy }));
            let mut replicas = std::mem::take(&mut e.replicas).into_vec();
            replicas.resize(usize::from(want) - 1, None);
            e.replicas = replicas.into_boxed_slice();
            raised += 1;
        }
        for task in tasks {
            s.enqueue_repair(task);
        }
        raised
    }

    /// Resolves up to `max` queued repair tasks owned by `shard` (or any
    /// shard when `None`); tasks owned by other shards rotate to the
    /// back of the queue for their worker. Returns `(healed, added)`
    /// copy counts; `at` timestamps the trace events when telemetry is
    /// attached.
    pub fn pump_repairs(&self, shard: Option<usize>, max: usize, at: Option<SimTime>) -> (u64, u64) {
        let s = &mut *self.inner.borrow_mut();
        let n_shards = s.shards.len();
        let mut healed = 0u64;
        let mut added = 0u64;
        let mut scanned = 0usize;
        let mut done = 0usize;
        let backlog = s.repair_q.len();
        while done < max && scanned < backlog {
            let Some(task) = s.repair_q.pop_front() else { break };
            scanned += 1;
            if let Some(owner) = shard {
                if shard_of(task.hash, task.copy, n_shards) != owner {
                    s.repair_q.push_back(task);
                    continue;
                }
            }
            s.queued.remove(&(task.hash.0, task.copy));
            done += 1;
            match s.resolve_task(task, at) {
                TaskOutcome::Healed => healed += 1,
                TaskOutcome::Added => added += 1,
                _ => {}
            }
        }
        (healed, added)
    }

    /// Synchronously drains the whole repair queue (no shard filter).
    /// Returns `(healed, added)` copy counts.
    pub fn drain_repairs(&self) -> (u64, u64) {
        // Resolving a task never enqueues one, so a pump over the current
        // backlog empties the queue.
        self.pump_repairs(None, usize::MAX, None)
    }

    /// Tasks currently waiting on the repair queue (oldest first) — the
    /// deterministic repair schedule.
    pub fn pending_repairs(&self) -> Vec<RepairTask> {
        self.inner.borrow().repair_q.iter().copied().collect()
    }

    pub fn repair_backlog(&self) -> usize {
        self.inner.borrow().repair_q.len()
    }

    pub fn repair_stats(&self) -> RepairStats {
        self.inner.borrow().repair_stats
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

    /// Flips one byte inside *every* stored copy of a chunk of `image`
    /// so the next load must report [`StoreError::CorruptChunk`] (no
    /// replica can save it). A record copy is written out to be damaged.
    #[doc(hidden)]
    pub fn corrupt_chunk(
        &self,
        image: ImageId,
        chunk_index: usize,
        byte: usize,
    ) -> Result<(), StoreError> {
        let s = &mut *self.inner.borrow_mut();
        let slot = s.chunk_of(image, chunk_index)?;
        for r in 0..s.entry(slot).want() {
            if let Some(copy) = s.entry(slot).copy(r) {
                let damaged = copy.damaged(byte);
                s.write_copy(slot, r, damaged);
            }
        }
        Ok(())
    }

    /// Flips one byte in the *primary* copy only, leaving replicas
    /// intact (exercises transparent repair).
    #[doc(hidden)]
    pub fn corrupt_primary(
        &self,
        image: ImageId,
        chunk_index: usize,
        byte: usize,
    ) -> Result<(), StoreError> {
        let s = &mut *self.inner.borrow_mut();
        let slot = s.chunk_of(image, chunk_index)?;
        let damaged = s.entry(slot).primary.damaged(byte);
        s.write_copy(slot, 0, damaged);
        Ok(())
    }
}

/// The bytes of `segments`, end to end.
fn concat(segments: &[Segment]) -> Vec<u8> {
    let mut out = Vec::with_capacity(segments.iter().map(Segment::len).sum());
    for seg in segments {
        seg.extend_vec(&mut out);
    }
    out
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

/// Configures and builds a sharded store, returning the cheap-`Clone`
/// [`StoreClient`] handle every caller goes through. Obtained via
/// [`StoreClient::builder`].
pub struct StoreBuilder {
    chunk_size: usize,
    shards: usize,
    replication: usize,
    telemetry: Option<(Telemetry, u32)>,
}

impl Default for StoreBuilder {
    fn default() -> Self {
        StoreBuilder {
            chunk_size: DEFAULT_CHUNK_SIZE,
            shards: 1,
            replication: 1,
            telemetry: None,
        }
    }
}

impl StoreBuilder {
    pub fn chunk_size(mut self, bytes: usize) -> Self {
        self.chunk_size = bytes;
        self
    }

    /// Hash-partitioned shards the store runs (default 1).
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Copies kept per chunk, spread across shards (default 1).
    pub fn replication(mut self, copies: usize) -> Self {
        self.replication = copies;
        self
    }

    /// Attaches telemetry at build: `ckptstore.*`/`storesvc.*` counters
    /// plus one trace track per shard on `host`'s timeline.
    pub fn telemetry(mut self, t: &Telemetry, host: u32) -> Self {
        self.telemetry = Some((t.clone(), host));
        self
    }

    /// Builds the store and hands back its client.
    ///
    /// # Panics
    ///
    /// Panics on a zero chunk size or shard count, or a replication
    /// outside `1..=MAX_REPLICATION`.
    pub fn build(self) -> StoreClient {
        assert!(self.chunk_size > 0, "zero chunk size");
        assert!(self.shards > 0, "store needs at least one shard");
        check_replication(self.replication);
        let state = State {
            chunk_size: self.chunk_size,
            replication: self.replication,
            shards: (0..self.shards).map(|_| Shard::default()).collect(),
            arena: Vec::new(),
            free: Vec::new(),
            slots: IntMap::default(),
            images: HashMap::new(),
            next_image: 0,
            physical_bytes: 0,
            repair_q: VecDeque::new(),
            queued: HashSet::new(),
            repair_stats: RepairStats::default(),
            repaired: 0,
            write_faults: None,
            tele: self.telemetry.map(|(t, host)| StoreTele::new(&t, host, self.shards)),
            buggify: Buggify::disabled(),
            get_penalty_ns: 0,
        };
        StoreClient { inner: Rc::new(RefCell::new(state)) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::record_hash;
    use std::collections::BTreeMap;

    /// The arena is in insertion order and the address table is hashed;
    /// the repair queue must still fill in the order a walk of the chunks
    /// as a `BTreeMap` gives, which is what it did when the table was one.
    #[test]
    fn scans_enqueue_repairs_in_ascending_hash_order() {
        let store = StoreClient::builder().chunk_size(64).shards(3).build();
        store.inject_write_faults(0xBAD, 300_000);
        let image: Vec<u8> = (0..400u32)
            .flat_map(|i| {
                let mut chunk = [0u8; 64];
                chunk[..4].copy_from_slice(&i.to_le_bytes());
                chunk
            })
            .collect();
        store.put_image(&image);

        let s = store.inner.borrow();
        let walk: BTreeMap<ChunkHash, &Entry> =
            s.arena.iter().flatten().map(|e| (e.hash, e)).collect();
        let mut want = Vec::new();
        for (&h, e) in &walk {
            want.extend(
                (0..e.want()).filter(|&r| !e.intact(r)).map(|copy| RepairTask { hash: h, copy }),
            );
        }
        let walk: BTreeMap<ChunkHash, u8> = walk.into_iter().map(|(h, e)| (h, e.want())).collect();
        drop(s);
        assert!(want.len() > 50, "write faults damaged {} of 400 primaries", want.len());
        assert_eq!(store.schedule_scrub(), want.len() as u64);
        assert_eq!(store.pending_repairs(), want, "scrub order");

        store.set_replication(3);
        for (&h, &copies) in &walk {
            want.extend((copies..3).map(|copy| RepairTask { hash: h, copy }));
        }
        assert_eq!(store.schedule_redundancy_rebuild(), walk.len() as u64);
        assert_eq!(store.pending_repairs(), want, "rebuild order, behind the scrub's");
    }

    /// Placement over the addresses of 10,000 block records: every shard
    /// gets its fair share to within 5 %, and the copies of a chunk land on
    /// as many distinct shards as there are copies.
    #[test]
    fn placement_is_balanced_and_copies_are_spread() {
        let hashes: Vec<ChunkHash> = (0..10_000u64).map(record_hash).collect();
        for n in [2, 3, 4, 8] {
            let mut load = vec![0usize; n];
            for &h in &hashes {
                load[shard_of(h, 0, n)] += 1;
            }
            let fair = hashes.len() as f64 / n as f64;
            for (s, &got) in load.iter().enumerate() {
                let off = (got as f64 - fair).abs() / fair;
                assert!(off <= 0.05, "{n} shards: shard {s} got {got}, fair share {fair:.0}");
            }
            for r in 1..=n.min(4) as u8 {
                for &h in &hashes {
                    let mut homes: Vec<usize> = (0..r).map(|c| shard_of(h, c, n)).collect();
                    homes.sort_unstable();
                    homes.dedup();
                    assert_eq!(homes.len(), r as usize, "{r} copies on {n} shards share a shard");
                }
            }
        }
    }
}
