//! Block records in the store. A record segment is kept as its
//! fingerprint; nothing may be able to tell: damage to one is caught on
//! load and healed by repair like damage to any chunk, and the capture
//! cache hits exactly where the bytes are equal.

use std::sync::Arc;

use ckptstore::{
    write_record, CaptureCache, Enc, ImageId, RepairTask, Segment, StoreClient, StoreError,
    SEGMENT_SIZE,
};
use sim::buggify::points;
use sim::Buggify;

/// `n` block records and nothing else, so every chunk is compact.
fn records(n: u64) -> Vec<Segment> {
    let mut e = Enc::new();
    for i in 0..n {
        e.record(0xF00D_0000 + i, SEGMENT_SIZE);
    }
    let segs = e.into_segments();
    assert!(segs.iter().all(|s| matches!(s, Segment::Record(_))));
    segs
}

#[derive(Clone, Copy, Debug)]
enum Damage {
    /// `corrupt_chunk`: every copy of one chunk.
    EveryCopy,
    /// `corrupt_primary`: the primary copy of one chunk.
    Primary,
    /// `inject_write_faults` at one per million per million: every
    /// primary, as it is written.
    WriteFaults,
    /// The `store.put_corrupt` buggify point forced on: every primary.
    Buggified,
}

const RECORDS: u64 = 8;
/// The chunk the two corruption hooks damage.
const HIT: usize = 3;

/// A store of `copies` copies per chunk holding one image of records,
/// damaged by `damage`.
fn damaged(copies: usize, damage: Damage) -> (StoreClient, ImageId) {
    let store = StoreClient::builder().shards(3).replication(copies).build();
    match damage {
        Damage::WriteFaults => store.inject_write_faults(7, 1_000_000),
        Damage::Buggified => {
            let bg = Buggify::disabled();
            bg.force(points::STORE_PUT_CORRUPT, 1.0);
            store.attach_buggify(&bg);
        }
        Damage::EveryCopy | Damage::Primary => {}
    }
    let image = store.put_segments_cached(records(RECORDS), &mut CaptureCache::new()).image;
    match damage {
        Damage::EveryCopy => store.corrupt_chunk(image, HIT, 100).unwrap(),
        Damage::Primary => store.corrupt_primary(image, HIT, 100).unwrap(),
        Damage::WriteFaults | Damage::Buggified => {}
    }
    (store, image)
}

/// The chunks whose primary `damage` hit, and whether it hit the
/// replicas too.
fn hit(damage: Damage) -> (Vec<usize>, bool) {
    match damage {
        Damage::EveryCopy => (vec![HIT], true),
        Damage::Primary => (vec![HIT], false),
        Damage::WriteFaults | Damage::Buggified => ((0..RECORDS as usize).collect(), false),
    }
}

/// Asserts that loading `image` reports its first damaged chunk as
/// corrupt, naming the record's own address.
fn assert_corrupt(store: &StoreClient, image: ImageId, first: usize, what: &str) {
    match store.load_image_chunks(image) {
        Err(StoreError::CorruptChunk { chunk_index, expected, actual, .. }) => {
            assert_eq!(chunk_index, first, "{what}");
            assert_eq!(expected, records(RECORDS)[first].hash(), "{what}");
            assert_ne!(actual, expected, "{what}");
        }
        other => panic!("{what}: expected a corrupt chunk, got {:?}", other.map(|c| c.len())),
    }
}

#[test]
fn damage_to_record_chunks_is_caught_and_repaired() {
    let want = records(RECORDS);
    for copies in [1, 2] {
        for damage in [Damage::EveryCopy, Damage::Primary, Damage::WriteFaults, Damage::Buggified] {
            let what = format!("{damage:?} at replication {copies}");
            let (bad, all_copies) = hit(damage);
            let healable = copies > 1 && !all_copies;

            // On load: served from the replica with read-repair enqueued,
            // or, with no intact copy, the typed error.
            let (store, image) = damaged(copies, damage);
            if healable {
                let got = store.load_image_chunks(image).unwrap();
                assert_eq!(got, want, "{what}: served bytes");
                assert_eq!(store.repaired_chunks(), bad.len() as u64, "{what}: served from replicas");
                let read_repairs: Vec<RepairTask> =
                    bad.iter().map(|&i| RepairTask { hash: want[i].hash(), copy: 0 }).collect();
                assert_eq!(store.pending_repairs(), read_repairs, "{what}: read-repair");
            } else {
                assert_corrupt(&store, image, bad[0], &what);
            }

            // A scrub finds the damaged copies without a load, and the
            // repair pump heals them from the intact ones.
            let (store, image) = damaged(copies, damage);
            let damaged_copies = bad.len() * if all_copies { copies } else { 1 };
            assert_eq!(store.schedule_scrub(), damaged_copies as u64, "{what}: scrub");
            let (healed, added) = store.drain_repairs();
            assert_eq!(added, 0, "{what}");
            if healable {
                assert_eq!(healed, bad.len() as u64, "{what}: healed copies");
                assert_eq!(store.load_image_chunks(image).unwrap(), want, "{what}: healed bytes");
                assert_eq!(store.repaired_chunks(), 0, "{what}: the primaries are whole again");
                assert_eq!(store.schedule_scrub(), 0, "{what}: nothing left to scrub");
            } else {
                assert_eq!(healed, 0, "{what}: nothing intact to heal from");
                assert_corrupt(&store, image, bad[0], &what);
            }
        }
    }
}

/// The bytes of `segments`, end to end.
fn bytes(segments: &[Segment]) -> Vec<u8> {
    let mut out = Vec::new();
    for seg in segments {
        seg.extend_vec(&mut out);
    }
    out
}

/// Captures that mix records, the same records written out as bytes, and
/// other bytes, position by position: the cache must hit exactly where
/// the bytes at a position equal the previous capture's, whatever holds
/// them, and a put of the segments must agree with a put of their bytes.
#[test]
fn the_capture_cache_hits_where_the_bytes_are_equal() {
    let written = |fp: u64| -> Segment {
        let mut rec = vec![0u8; SEGMENT_SIZE];
        write_record(fp, &mut rec);
        Segment::Bytes(rec.into())
    };
    let other = |tag: u8| Segment::Bytes(Arc::from(vec![tag; SEGMENT_SIZE]));
    let mut rng = sim::SimRng::from_seed(41);
    let (adopted, borrowed) = (StoreClient::default(), StoreClient::default());
    let (mut cache_a, mut cache_b) = (CaptureCache::new(), CaptureCache::new());
    let mut prev: Vec<Segment> = Vec::new();
    let (mut hits, mut misses) = (0u64, 0u64);
    for capture in 0..40 {
        let segs: Vec<Segment> = (0..12)
            .map(|_| {
                let fp = rng.range_u64(1, 4);
                match rng.index(3) {
                    0 => Segment::Record(fp),
                    1 => written(fp),
                    _ => other(fp as u8),
                }
            })
            .collect();
        for (i, seg) in segs.iter().enumerate() {
            let one = |s: &Segment| bytes(std::slice::from_ref(s));
            let same = prev.get(i).is_some_and(|p| one(p) == one(seg));
            assert_eq!(prev.get(i) == Some(seg), same, "capture {capture} position {i}: ==");
            if same {
                hits += 1;
            } else {
                misses += 1;
            }
        }
        let image = bytes(&segs);
        let ra = adopted.put_segments_cached(segs.clone(), &mut cache_a);
        let rb = borrowed.put_image_cached(&image, &mut cache_b);
        assert_eq!(ra, rb, "capture {capture}: reports");
        assert_eq!((cache_a.hits(), cache_a.misses()), (hits, misses), "capture {capture}: segments");
        assert_eq!((cache_b.hits(), cache_b.misses()), (hits, misses), "capture {capture}: bytes");
        assert_eq!(bytes(&adopted.load_image_chunks(ra.image).unwrap()), image, "capture {capture}");
        prev = segs;
    }
    assert!(hits > 30 && misses > 30, "the mix must both hit and miss: {hits} / {misses}");
    assert_eq!(adopted.stats(), borrowed.stats());
}
