//! The owned put — an encoder's segments handed to the store — against
//! the borrowed put of the same bytes: one loop, so every observable must
//! agree, and the segments must end up *being* the stored chunks: a byte
//! segment the very buffer, a block record its fingerprint.

use std::sync::Arc;

use ckptstore::{CaptureCache, Enc, Segment, StoreClient, StoreError, SEGMENT_SIZE};

/// An image the way a capture builds one: header and small fields, a
/// padded metadata section, then `blocks` block records sealed as their
/// fingerprints. Records below `dirty_from` are the same in every version.
fn capture(blocks: usize, dirty_from: usize, version: u8) -> Enc {
    let mut e = Enc::new();
    e.begin_image("test.capture");
    e.u64(blocks as u64);
    for i in 0..blocks {
        e.u64(i as u64 * 7);
        e.u8(2);
    }
    e.pad_to(SEGMENT_SIZE);
    for i in 0..blocks {
        let salt = if i < dirty_from { 0 } else { version };
        e.record((i as u64) << 8 | u64::from(salt), SEGMENT_SIZE);
    }
    e.u32(0xC0DA); // A short tail after the data section.
    e
}

/// The bytes of `segments`, end to end.
fn bytes(segments: &[Segment]) -> Vec<u8> {
    let mut out = Vec::new();
    for seg in segments {
        seg.extend_vec(&mut out);
    }
    out
}

/// The same segment, not an equal copy: a record held as its
/// fingerprint, or the very buffer.
fn is_same(a: &Segment, b: &Segment) -> bool {
    match (a, b) {
        (Segment::Bytes(a), Segment::Bytes(b)) => Arc::ptr_eq(a, b),
        (Segment::Record(a), Segment::Record(b)) => a == b,
        _ => false,
    }
}

/// Puts three successive captures into `borrowed` as bytes and into
/// `adopted` as segments, and holds every observable equal.
fn assert_puts_agree(borrowed: &StoreClient, adopted: &StoreClient) {
    let (mut cache_b, mut cache_a) = (CaptureCache::new(), CaptureCache::new());
    for version in 1..=3u8 {
        let e = capture(24, 18, version);
        let bytes = e.clone().into_bytes();
        let rb = borrowed.put_image_cached(&bytes, &mut cache_b);
        let ra = adopted.put_segments_cached(e.into_segments(), &mut cache_a);
        assert_eq!(rb, ra, "PutReport, version {version}");
        assert_eq!(borrowed.stats(), adopted.stats(), "ImageStats, version {version}");
        assert_eq!(
            (cache_b.hits(), cache_b.misses()),
            (cache_a.hits(), cache_a.misses()),
            "cache traffic, version {version}"
        );
        assert_eq!(borrowed.replica_bytes(), adopted.replica_bytes());
        assert_eq!(borrowed.pending_repairs(), adopted.pending_repairs());
        // Same manifest: the same chunks, cut at the same places.
        match (borrowed.load_image_chunks(rb.image), adopted.load_image_chunks(ra.image)) {
            (Ok(cb), Ok(ca)) => {
                assert_eq!(cb, ca, "chunk lists, version {version}");
                assert_eq!(self::bytes(&ca), bytes);
            }
            (Err(eb), Err(ea)) => assert_eq!(eb, ea, "load error, version {version}"),
            (b, a) => panic!("loads disagree: {:?} vs {:?}", b.map(|c| c.len()), a.map(|c| c.len())),
        }
    }
    assert!(cache_a.hits() > 0 && cache_a.misses() > 0, "the captures must hit and miss");
    assert_eq!(borrowed.repaired_chunks(), adopted.repaired_chunks());
}

#[test]
fn adopted_put_agrees_with_borrowed_put() {
    assert_puts_agree(&StoreClient::default(), &StoreClient::default());
}

#[test]
fn adopted_put_agrees_under_write_faults() {
    let build = || {
        let s = StoreClient::builder().shards(3).replication(2).build();
        s.inject_write_faults(11, 300_000);
        s
    };
    assert_puts_agree(&build(), &build());
    // And with nothing to repair from: both report the same corrupt chunk.
    let build = || {
        let s = StoreClient::default();
        s.inject_write_faults(11, 300_000);
        s
    };
    assert_puts_agree(&build(), &build());
}

#[test]
fn adopted_put_agrees_at_replication_three() {
    let build = || StoreClient::builder().shards(4).replication(3).build();
    assert_puts_agree(&build(), &build());
}

/// A store whose chunk size is not the segment size cannot adopt: it
/// re-slices, and still agrees with the borrowed put.
#[test]
fn adopted_put_reslices_for_another_chunk_size() {
    for chunk_size in [1024, 3000, 2 * SEGMENT_SIZE] {
        let build = || StoreClient::builder().chunk_size(chunk_size).build();
        assert_puts_agree(&build(), &build());
    }
}

/// "No second copy", asserted: the segment the encoder sealed is the
/// chunk the store returns — a record still a record — and the next
/// capture's unchanged chunks are that same segment again (the cache's
/// entry, not the new one).
#[test]
fn the_store_returns_the_very_buffers_the_encoder_wrote() {
    let store = StoreClient::default();
    let mut cache = CaptureCache::new();
    let first = capture(8, 6, 1).into_segments();
    let put = store.put_segments_cached(first.clone(), &mut cache);
    let loaded = store.load_image_chunks(put.image).unwrap();
    assert_eq!(loaded.len(), first.len());
    for (i, (seg, chunk)) in first.iter().zip(&loaded).enumerate() {
        assert!(is_same(seg, chunk), "chunk {i} is a copy of its segment");
    }
    assert_eq!(first.iter().filter(|s| matches!(s, Segment::Record(_))).count(), 8);

    let second = capture(8, 6, 2).into_segments();
    let put2 = store.put_segments_cached(second.clone(), &mut cache);
    let loaded2 = store.load_image_chunks(put2.image).unwrap();
    let (mut shared, mut fresh) = (0, 0);
    for ((c, f), s) in loaded2.iter().zip(&first).zip(&second) {
        if is_same(c, f) {
            shared += 1;
        } else if is_same(c, s) {
            fresh += 1;
        }
    }
    assert_eq!(shared as u64, put2.chunks_total - put2.chunks_new, "clean chunks: the first capture's buffers");
    assert_eq!(fresh as u64, put2.chunks_new, "dirty chunks: the second capture's own");
    assert!(shared > 0 && fresh > 0);
}

/// Fault injection damages a private copy. The adopted buffer — shared
/// with the caller, the replicas and the capture cache — is never
/// written, and the damaged primary is in none of those places.
#[test]
fn a_damaged_primary_never_aliases_the_adopted_buffer_or_the_cache() {
    // Replication 1, every insert damaged: the load names the chunk, and
    // the segment the caller still holds is the clean one it expected.
    let store = StoreClient::default();
    store.inject_write_faults(5, 1_000_000);
    let mut cache = CaptureCache::new();
    let segs = capture(6, 6, 1).into_segments();
    let clean = bytes(&segs);
    let put = store.put_segments_cached(segs.clone(), &mut cache);
    assert_eq!(bytes(&segs), clean, "the adopted buffer was written to");
    match store.load_image_chunks(put.image) {
        Err(StoreError::CorruptChunk { chunk_index: 0, expected, actual, .. }) => {
            assert_eq!(expected, segs[0].hash());
            assert_ne!(actual, expected);
        }
        other => panic!("expected chunk 0 corrupt, got {:?}", other.map(|c| c.len())),
    }
    // The cache took the clean buffers: the same capture again is all
    // hits, and a hit is only ever taken after comparing the bytes.
    store.clear_write_faults();
    let again = store.put_segments_cached(capture(6, 6, 1).into_segments(), &mut cache);
    assert_eq!((cache.hits(), again.chunks_new), (put.chunks_total, 0));

    // Replication 2: the replica *is* the adopted buffer, the primary is not.
    let store = StoreClient::builder().shards(2).replication(2).build();
    store.inject_write_faults(5, 1_000_000);
    let put = store.put_segments_cached(segs.clone(), &mut CaptureCache::new());
    let loaded = store.load_image_chunks(put.image).unwrap();
    assert_eq!(store.repaired_chunks(), put.chunks_total, "every primary was damaged");
    for (seg, chunk) in segs.iter().zip(&loaded) {
        assert!(is_same(seg, chunk), "served from the replica, which is the segment");
    }
}
