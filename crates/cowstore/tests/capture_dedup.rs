//! What a capture of a branching-store delta dedups to, through the real
//! encoder and the real cached put.
//!
//! `benchmark/`'s `state_save` reports a dedup ratio of 1.01 and a 1.1 %
//! hash-cache hit rate over ten snapshots of the same two nodes, and the
//! question was whether record framing shifts chunk boundaries between
//! captures. It does not: [`DeltaMap::encode_wire`] pads to the block size
//! and an overwrite keeps its log slot, so a block that did not change
//! lands in the same chunk with the same bytes, and exactly the rewritten
//! share of the image is new. `state_save`'s looping 64 MB `FileWriter`
//! runs at 38.8 sim-MB/s with a fresh version-stamped fingerprint per
//! write and its snapshots are ≥ 2 sim-s apart — every block of the file
//! is rewritten between two captures, which is the last case below.

use ckptstore::{CaptureCache, Enc, PutReport, StoreClient, SEGMENT_SIZE};
use cowstore::{BlockData, DeltaMap};

const BLOCKS: u64 = 1024;
const BLOCK_SIZE: u32 = SEGMENT_SIZE as u32;

fn capture(delta: &DeltaMap, store: &StoreClient, cache: &mut CaptureCache) -> PutReport {
    let mut e = Enc::new();
    e.begin_image("test.delta");
    delta.encode_wire(&mut e, BLOCK_SIZE);
    store.put_segments_cached(e.into_segments(), cache)
}

#[test]
fn a_capture_is_new_by_the_share_of_blocks_rewritten_since_the_last() {
    let store = StoreClient::default();
    let mut cache = CaptureCache::new();
    let mut delta = DeltaMap::new();
    for i in 0..BLOCKS {
        delta.put(100 + i * 3, BlockData::Opaque(i + 1));
    }
    let first = capture(&delta, &store, &mut cache);
    assert_eq!(first.chunks_new, first.chunks_total);
    let meta_chunks = first.chunks_total - BLOCKS;
    assert!((1..=4).contains(&meta_chunks), "9 bytes of metadata per block");
    assert_eq!((cache.hits(), cache.misses()), (0, first.chunks_total));

    // A quarter of the blocks rewritten: a quarter of the image is new
    // and the other three quarters are cache hits, never re-hashed.
    for i in (0..BLOCKS).filter(|i| i % 4 == 1) {
        delta.put(100 + i * 3, BlockData::Opaque(1_000_000 + i));
    }
    let second = capture(&delta, &store, &mut cache);
    assert_eq!(second.chunks_total, first.chunks_total, "records stay chunk-aligned");
    assert_eq!(second.chunks_new, BLOCKS / 4);
    assert_eq!(second.new_physical_bytes, BLOCKS / 4 * u64::from(BLOCK_SIZE));
    assert_eq!(cache.hits(), second.chunks_total - BLOCKS / 4);
    let hit_share = cache.hits() as f64 / second.chunks_total as f64;
    assert!((0.745..0.755).contains(&hit_share), "hit share {hit_share}");
    assert!(store.stats().dedup_ratio > 1.59, "two captures, 1.25 images stored");

    // Every block rewritten — `state_save`'s workload: only the metadata
    // chunks (same vbas, same tags) survive, and the capture dedups to
    // nothing. That is the workload, not the framing.
    for i in 0..BLOCKS {
        delta.put(100 + i * 3, BlockData::Opaque(2_000_000 + i));
    }
    let hits_before = cache.hits();
    let third = capture(&delta, &store, &mut cache);
    assert_eq!(third.chunks_new, BLOCKS);
    assert_eq!(cache.hits() - hits_before, meta_chunks);
}
