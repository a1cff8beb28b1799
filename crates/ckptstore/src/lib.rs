//! Content-addressed, deduplicated checkpoint image store: sharded,
//! replicated, and reached through one cheap-`Clone` type, [`StoreClient`].
//!
//! Checkpoint state (guest kernels, COW deltas, delay-node queues) is
//! serialized by the owning crates into a *self-describing binary image*
//! using the hand-rolled [`Enc`]/[`Dec`] codec — no serde, per the
//! minimal-deps rule (DESIGN.md §3.6). The store splits the image into
//! fixed-size chunks, content-addresses each chunk with an in-repo
//! 128-bit hash, and stores every distinct chunk exactly once with a
//! reference count. A child snapshot that differs from its parent in a
//! few blocks physically stores only the differing chunks — the
//! simulator's stand-in for the paper's three-level LVM branching
//! storage, and the mechanism behind the dedup ratios `tab_imgstore`
//! reports.
//!
//! # Store architecture (DESIGN.md §10)
//!
//! Storage is N hash-partitioned shards — FNV-1a over the chunk's
//! content hash picks the home shard ([`shard_of`]), replica copy `r`
//! strides to `(home + r) % N` — while the chunks themselves, every copy
//! included, live in one in-memory arena that manifests index by slot.
//! Every operation is a method of the [`StoreClient`]
//! handle built by [`StoreClient::builder`]; its state is private. Puts
//! fan chunk batches out to shards with R-copy replication and quorum-ack
//! commit, and copies that fail past the quorum land on a gossip repair
//! queue drained by per-shard [`ShardWorker`] components on the sim
//! engine.
//!
//! # Image format
//!
//! Every image produced through this crate has three layers:
//!
//! **1. Payload header** (written by [`Enc::begin_image`], checked by
//! [`Dec::expect_image`]) — makes the byte stream self-describing:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "CKPT"
//! 4       2     format version (little-endian u16, currently 1)
//! 6       4+n   kind tag (u32 length + UTF-8, e.g. "emulab.snapshot")
//! ```
//!
//! After the header the owning crate writes its state with the [`Enc`]
//! primitives: fixed-width little-endian integers, `u32`-length-prefixed
//! strings and sequences, IEEE-754 bit-pattern floats, and explicit
//! `pad_to` alignment so bulk block data lands on chunk boundaries
//! (alignment is what lets unchanged parent blocks dedup under
//! fixed-size chunking).
//!
//! **2. Chunk table (manifest)** — when an image is stored, as bytes via
//! [`StoreClient::put_image`] or as the encoder's own [`Segment`]s via
//! [`StoreClient::put_segments_cached`] (which the store keeps as the
//! chunks, uncopied), the store records a manifest per image:
//!
//! ```text
//! logical_len : u64          total payload bytes
//! chunks      : [u32]        arena slot of each chunk_size slice, in
//!                            order; the final chunk may be short
//! ```
//!
//! **3. Chunks** — `chunk_size` (default 4096) byte slices, one arena
//! entry each, found by [`ChunkHash`] through the address table when put,
//! charged to their shards once per copy, with a refcount equal to the
//! number of manifest entries across all live images that reference
//! them. A slot is freed, and may be reused, only when that count is 0.
//!
//! # Block records
//!
//! A chunk is held as its bytes or, when it is a whole *block record* —
//! `cowstore`'s stand-in for a block's payload: a fingerprint, then a
//! SplitMix64 fill seeded by it — as that fingerprint
//! ([`Segment::Record`]). [`Enc::record`] seals one on a segment boundary,
//! and nothing writes its 4 KiB out unless bytes are asked for
//! ([`write_record`] is the one place that does). An address is always
//! [`chunk_hash`] of the bytes, whichever form holds them:
//! [`record_hash`] computes it for a record without keeping the record,
//! so placement, refcounts, byte counts and every sim-time result are
//! those of the bytes.
//!
//! # Integrity
//!
//! A load re-hashes every chunk on the way out (a record copy by
//! [`record_hash`]), in one loop with two shapes of result:
//! [`StoreClient::load_image_chunks`] hands back the verified segments
//! themselves, to be decoded in place by [`Dec::chunked`], and
//! [`StoreClient::load_image`] concatenates them. Every damage path
//! writes a record out into a damaged byte copy, so damage to a compact
//! chunk is caught like any other. A
//! corrupt primary is served from the first intact replica (with
//! read-repair enqueued), and only when every copy is damaged does the
//! typed [`StoreError::CorruptChunk`] surface — never a panic — so a
//! flipped bit in the store shows up at restore time exactly like a bad
//! LVM extent would. [`StoreClient::remove_image`] decrements refcounts
//! and releases chunks deterministically when the last reference drops
//! (time-travel pruning).

mod client;
mod codec;
mod error;
mod hash;
mod segment;

pub use client::{
    shard_of, CaptureCache, ImageId, ImageStats, PutReport, RepairStats, RepairTask, ShardWorker,
    StoreBuilder, StoreClient, TimedPut, DEFAULT_CHUNK_SIZE, MAX_REPLICATION,
};
pub use codec::{Dec, DecodeError, Enc, IMAGE_FORMAT_VERSION, IMAGE_MAGIC, SEGMENT_SIZE};
pub use error::StoreError;
pub use hash::{chunk_hash, record_hash, ChunkHash};
pub use segment::{records_materialised, write_record, Segment};

/// The store under its older name. Exists only because `benchmark/`
/// calls `ChunkStore::builder()` and changes only with the benchmark;
/// in-tree code says [`StoreClient`].
pub type ChunkStore = StoreClient;
