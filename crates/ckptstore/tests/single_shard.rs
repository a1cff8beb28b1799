//! Single-shard observable semantics of the store through the client
//! handle — the cases that date from the one-struct store and pin what a
//! default build (one shard, replication 1, in-memory) keeps bit-for-bit.

use ckptstore::{CaptureCache, StoreClient, StoreError};
use sim::Telemetry;

fn store64() -> StoreClient {
    StoreClient::builder().chunk_size(64).build()
}

fn image_with(pattern: impl Fn(usize) -> u8, len: usize) -> Vec<u8> {
    (0..len).map(pattern).collect()
}

/// One synchronous scrub pass; returns the copies healed.
fn scrub(s: &StoreClient) -> u64 {
    s.schedule_scrub();
    s.drain_repairs().0
}

#[test]
fn identical_images_share_everything() {
    let s = store64();
    let img = image_with(|i| (i / 64) as u8, 4096);
    let r1 = s.put_image(&img);
    let r2 = s.put_image(&img);
    assert_eq!(r1.chunks_new, r1.chunks_total);
    assert_eq!(r2.chunks_new, 0, "second copy stores nothing");
    assert_eq!(r2.new_physical_bytes, 0);
    let st = s.stats();
    assert_eq!(st.logical_bytes, 8192);
    assert_eq!(st.physical_bytes, 4096);
    assert!((st.dedup_ratio - 2.0).abs() < 1e-12);
    assert_eq!(st.chunks_shared, 64);
}

#[test]
fn child_stores_only_the_delta() {
    let s = store64();
    let parent = image_with(|i| (i / 64) as u8, 64 * 100);
    let mut child = parent.clone();
    // Change chunks 10 and 20 only.
    child[64 * 10] ^= 0xFF;
    child[64 * 20] ^= 0xFF;
    let rp = s.put_image(&parent);
    let rc = s.put_image(&child);
    assert_eq!(rp.chunks_new, 100);
    assert_eq!(rc.chunks_new, 2);
    assert_eq!(rc.new_physical_bytes, 128);
    assert_eq!(s.load_image(rc.image).unwrap(), child);
}

#[test]
fn remove_releases_exactly_the_unshared_chunks() {
    let s = store64();
    let parent = image_with(|i| (i / 64) as u8, 64 * 10);
    let mut child = parent.clone();
    child[0] ^= 0xFF;
    let rp = s.put_image(&parent);
    let rc = s.put_image(&child);
    assert_eq!(s.chunk_count(), 11);

    // Dropping the child frees only its private chunk.
    let freed = s.remove_image(rc.image).unwrap();
    assert_eq!(freed, 64);
    assert_eq!(s.chunk_count(), 10);
    assert_eq!(s.load_image(rp.image).unwrap(), parent);

    // Dropping the parent empties the store.
    let freed = s.remove_image(rp.image).unwrap();
    assert_eq!(freed, 64 * 10);
    assert_eq!(s.chunk_count(), 0);
    assert_eq!(s.physical_bytes(), 0);
    assert!(matches!(s.load_image(rp.image), Err(StoreError::UnknownImage(_))));
}

#[test]
fn double_remove_is_a_typed_error() {
    let s = StoreClient::default();
    let r = s.put_image(b"hello");
    s.remove_image(r.image).unwrap();
    assert_eq!(s.remove_image(r.image), Err(StoreError::UnknownImage(r.image)));
}

#[test]
fn redundancy_two_repairs_a_corrupt_primary_transparently() {
    let s = store64();
    s.set_replication(2);
    let img = image_with(|i| (i % 313 % 256) as u8, 640);
    let r = s.put_image(&img);
    assert_eq!(s.replica_bytes(), 640, "one replica per chunk");
    assert_eq!(s.physical_bytes(), 640, "replicas not in primary accounting");
    s.corrupt_primary(r.image, 4, 9).unwrap();
    assert_eq!(s.load_image(r.image).unwrap(), img, "served from the replica");
    assert_eq!(s.repaired_chunks(), 1);
    // Scrub rewrites the damaged primary; later loads are clean again.
    assert_eq!(scrub(&s), 1);
    assert_eq!(s.load_image(r.image).unwrap(), img);
    assert_eq!(s.repaired_chunks(), 1, "no further replica reads needed");
}

#[test]
fn redundancy_one_has_no_fallback() {
    let s = store64();
    let img = image_with(|i| i as u8, 256);
    let r = s.put_image(&img);
    s.corrupt_primary(r.image, 1, 0).unwrap();
    assert!(matches!(
        s.load_image(r.image),
        Err(StoreError::CorruptChunk { chunk_index: 1, .. })
    ));
    assert_eq!(scrub(&s), 0, "nothing intact to repair from");
}

#[test]
fn write_faults_damage_primaries_deterministically() {
    let make = |seed| {
        let s = store64();
        s.set_replication(2);
        // Every chunk write is hit: each primary is damaged, each
        // replica lands clean.
        s.inject_write_faults(seed, 1_000_000);
        let img = image_with(|i| (i % 199) as u8, 64 * 8);
        let r = s.put_image(&img);
        (s, r, img)
    };
    let (s1, r1, img) = make(7);
    assert_eq!(s1.load_image(r1.image).unwrap(), img, "replicas repair every chunk");
    assert_eq!(s1.repaired_chunks(), 8);
    let (s2, r2, _) = make(7);
    let (s3, r3, _) = make(8);
    // Same seed: identical corruption; different seed: different bytes
    // flipped (compare primaries via scrub-free raw loads).
    assert_eq!(s2.load_image(r2.image).unwrap(), s3.load_image(r3.image).unwrap());
    assert_eq!(s2.repaired_chunks(), s1.repaired_chunks());

    // At redundancy 1 the same faults are fatal.
    let s = store64();
    s.inject_write_faults(7, 1_000_000);
    let r = s.put_image(&image_with(|i| (i % 199) as u8, 64 * 8));
    assert!(matches!(s.load_image(r.image), Err(StoreError::CorruptChunk { .. })));
}

#[test]
fn rebuild_raises_chunks_inserted_before_the_setting() {
    let s = store64();
    // Ten chunks stored at redundancy 1, two more after raising it.
    let old = image_with(|i| (i / 64) as u8, 64 * 10);
    let r_old = s.put_image(&old).image;
    s.set_replication(3);
    let new = image_with(|i| 100 + (i / 64) as u8, 64 * 2);
    let r_new = s.put_image(&new).image;
    assert_eq!(s.replica_bytes(), 64 * 2 * 2, "only post-setting chunks carry replicas");

    assert_eq!(s.schedule_redundancy_rebuild(), 10, "every pre-setting chunk is raised");
    assert_eq!(s.drain_repairs(), (0, 20), "two new copies each");
    assert_eq!(s.replica_bytes(), 64 * 12 * 2, "all chunks at 3 copies");
    assert_eq!(s.schedule_redundancy_rebuild(), 0, "idempotent once raised");

    // The retrofitted replicas are real: a corrupt primary in the old
    // image now repairs transparently instead of failing the load.
    s.corrupt_primary(r_old, 2, 5).unwrap();
    assert_eq!(s.load_image(r_old).unwrap(), old);
    assert_eq!(s.repaired_chunks(), 1);
    assert_eq!(s.load_image(r_new).unwrap(), new);
}

#[test]
fn rebuild_skips_chunks_with_no_intact_copy() {
    let s = store64();
    let img = image_with(|i| i as u8, 64 * 2);
    let r = s.put_image(&img).image;
    // Damage every copy of chunk 0 (redundancy 1: just the primary).
    s.corrupt_chunk(r, 0, 3).unwrap();
    s.set_replication(2);
    assert_eq!(s.schedule_redundancy_rebuild(), 2);
    assert_eq!(s.drain_repairs(), (0, 1), "the chunk with no intact copy is skipped");
    assert!(matches!(
        s.load_image(r),
        Err(StoreError::CorruptChunk { chunk_index: 0, .. })
    ));
}

#[test]
fn telemetry_counts_dedup_repairs_and_rebuilds() {
    let t = Telemetry::new();
    let s = StoreClient::builder().chunk_size(64).telemetry(&t, 0).build();
    let img = image_with(|i| (i / 64) as u8, 64 * 4);
    let r = s.put_image(&img).image;
    s.put_image(&img); // fully deduplicated second copy
    assert_eq!(t.counter_value("ckptstore.chunks_new"), Some(4));
    assert_eq!(t.counter_value("ckptstore.dedup_hits"), Some(4));
    assert_eq!(t.counter_value("ckptstore.logical_bytes"), Some(512));
    assert_eq!(t.counter_value("ckptstore.new_physical_bytes"), Some(256));

    s.set_replication(2);
    s.schedule_redundancy_rebuild();
    s.drain_repairs();
    assert_eq!(t.counter_value("ckptstore.replicas_added"), Some(4));

    s.corrupt_primary(r, 1, 7).unwrap();
    s.load_image(r).unwrap();
    assert_eq!(t.counter_value("ckptstore.replica_repairs"), Some(1));
    assert_eq!(scrub(&s), 1);
    assert_eq!(t.counter_value("ckptstore.scrub_heals"), Some(1));
}

#[test]
fn cached_put_is_observably_identical_and_counts_hits() {
    let plain = store64();
    let cached = store64();
    let mut cache = CaptureCache::new();

    let base = image_with(|i| (i / 64) as u8, 64 * 20);
    let mut next = base.clone();
    next[64 * 3] ^= 0xFF; // dirty chunk 3
    next[64 * 11] ^= 0xFF; // dirty chunk 11

    for img in [&base, &next] {
        let rp = plain.put_image(img);
        let rc = cached.put_image_cached(img, &mut cache);
        assert_eq!(rp.logical_bytes, rc.logical_bytes);
        assert_eq!(rp.new_physical_bytes, rc.new_physical_bytes);
        assert_eq!(rp.chunks_total, rc.chunks_total);
        assert_eq!(rp.chunks_new, rc.chunks_new);
        assert_eq!(cached.load_image(rc.image).unwrap(), *img);
    }
    // First put: cold cache, all 20 miss. Second: 18 clean chunks
    // re-admitted by cached hash, the 2 dirty ones hashed.
    assert_eq!(cache.misses(), 22);
    assert_eq!(cache.hits(), 18);
}

#[test]
fn stale_or_foreign_cache_only_misses() {
    let s = store64();
    let mut cache = CaptureCache::new();
    let a = image_with(|i| i as u8, 64 * 4);
    s.put_image_cached(&a, &mut cache);

    // A completely different image through the same cache: every
    // chunk misses, content still round-trips.
    let b = image_with(|i| (100 + i % 251) as u8, 64 * 6);
    let r = s.put_image_cached(&b, &mut cache);
    assert_eq!(cache.hits(), 0);
    assert_eq!(cache.misses(), 10);
    assert_eq!(s.load_image(r.image).unwrap(), b);

    // The now-refreshed cache also works against a *different* store
    // (cache entries carry their own verified bytes).
    let other = store64();
    let r2 = other.put_image_cached(&b, &mut cache);
    assert_eq!(r2.chunks_new, 6);
    assert_eq!(cache.hits(), 6);
    assert_eq!(other.load_image(r2.image).unwrap(), b);
}

#[test]
fn cached_put_never_caches_fault_damaged_bytes() {
    let s = store64();
    s.set_replication(2);
    s.inject_write_faults(7, 1_000_000); // every insert damaged
    let mut cache = CaptureCache::new();
    let img = image_with(|i| (i % 199) as u8, 64 * 8);
    let r1 = s.put_image_cached(&img, &mut cache);
    assert_eq!(r1.chunks_new, 8);
    // Recapturing the same clean bytes must hit the cache (the cache
    // holds clean payloads, not the damaged primaries) and dedup.
    let r2 = s.put_image_cached(&img, &mut cache);
    assert_eq!(cache.hits(), 8);
    assert_eq!(r2.chunks_new, 0);
    assert_eq!(s.load_image(r2.image).unwrap(), img, "replicas repair");
    assert_eq!(s.repaired_chunks(), 8);
}

#[test]
fn telemetry_counts_hash_cache_traffic() {
    let t = Telemetry::new();
    let s = StoreClient::builder().chunk_size(64).telemetry(&t, 0).build();
    let mut cache = CaptureCache::new();
    let img = image_with(|i| (i / 64) as u8, 64 * 4);
    s.put_image_cached(&img, &mut cache);
    s.put_image_cached(&img, &mut cache);
    assert_eq!(t.counter_value("ckptstore.hash_cache_hits"), Some(4));
    assert_eq!(t.counter_value("ckptstore.hash_cache_misses"), Some(4));
    // Uncached puts do not touch the cache counters.
    s.put_image(&img);
    assert_eq!(t.counter_value("ckptstore.hash_cache_hits"), Some(4));
    assert_eq!(t.counter_value("ckptstore.hash_cache_misses"), Some(4));
}

#[test]
fn stats_on_empty_store() {
    let st = StoreClient::default().stats();
    assert_eq!(st.logical_bytes, 0);
    assert_eq!(st.physical_bytes, 0);
    assert_eq!(st.dedup_ratio, 1.0);
    assert_eq!(st.chunks_shared, 0);
}
