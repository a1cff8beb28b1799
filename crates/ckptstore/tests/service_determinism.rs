//! Integration properties of the sharded store service (DESIGN.md §10):
//! same-seed runs are byte-identical end to end (shard assignment, put
//! reports, commit instants, repair schedule), and the segment-log
//! backend survives a crash/reopen with contents identical to the
//! in-mem reference backend.

use std::sync::Arc;

use ckptstore::{
    chunk_hash, shard_of, ChunkBackend, MemBackend, PutReport, RepairStats,
    SegmentLogBackend, SegmentMedia, StoreClient,
};
use sim::buggify::{points, Buggify, Preset};
use sim::{SimDuration, SimTime};

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

const SHARDS: usize = 4;
const CHUNK: usize = 256;

/// Everything externally observable about one seeded run: shard
/// placement per chunk, every put's report and commit instant, the
/// repair queue in schedule order, and the cumulative repair stats
/// after a partial pump.
#[derive(Debug, PartialEq)]
struct RunTrace {
    placements: Vec<usize>,
    reports: Vec<PutReport>,
    commit_ns: Vec<u64>,
    repair_schedule: Vec<(u128, u8)>,
    pumped: (u64, u64),
    stats: RepairStats,
}

fn seeded_run(seed: u64) -> RunTrace {
    let client: StoreClient = StoreClient::builder()
        .chunk_size(CHUNK)
        .shards(SHARDS)
        .replication(3)
        .build();
    let bg = Buggify::armed(seed, Preset::Moderate);
    bg.force(points::STORE_SHARD_FAIL, 0.25);
    client.attach_buggify(&bg);

    let mut g = Rng(seed);
    let mut trace = RunTrace {
        placements: Vec::new(),
        reports: Vec::new(),
        commit_ns: Vec::new(),
        repair_schedule: Vec::new(),
        pumped: (0, 0),
        stats: RepairStats::default(),
    };
    let mut image: Vec<u8> = (0..CHUNK * 32).map(|_| g.next() as u8).collect();
    for put in 0..12u64 {
        // Dirty a few chunks, then checkpoint at a deterministic instant.
        for _ in 0..4 {
            let c = (g.next() as usize) % 32;
            let fill = g.next() as u8;
            image[c * CHUNK..(c + 1) * CHUNK].fill(fill);
        }
        for slice in image.chunks(CHUNK) {
            trace.placements.push(shard_of(chunk_hash(slice), 0, SHARDS));
        }
        let timed = client.put_image_at(&image, None, SimTime::from_nanos(put * 1_000_000));
        trace.reports.push(timed.report);
        trace.commit_ns.push(timed.commit_at.as_nanos());
    }
    trace.repair_schedule =
        client.pending_repairs().iter().map(|t| (t.hash.0, t.copy)).collect();
    // Pump a bounded batch (the worker-tick path), then record totals.
    trace.pumped = client.pump_repairs(None, 5, Some(SimTime::from_nanos(20_000_000)));
    trace.stats = client.repair_stats();
    trace
}

/// Same seed ⇒ the full observable history is byte-identical: placement,
/// `PutReport`s, quorum commit instants, and the repair schedule.
#[test]
fn same_seed_runs_are_byte_identical() {
    let a = seeded_run(0xD15C_0541);
    let b = seeded_run(0xD15C_0541);
    assert_eq!(a, b);
    assert!(
        a.repair_schedule.len() >= 2,
        "forced shard failures must leave a repair backlog to compare"
    );
    assert!(a.reports.iter().any(|r| r.shards_touched > 1), "puts must fan out across shards");

    // And a different seed must actually change the fault history (the
    // equality above is not vacuous).
    let c = seeded_run(0xD15C_0542);
    assert_ne!(
        (&a.repair_schedule, &a.stats),
        (&c.repair_schedule, &c.stats),
        "different seeds should draw different shard failures"
    );
}

/// Repair workers on the engine drain the backlog deterministically:
/// two engines with the same seed pump the same tasks in the same order.
#[test]
fn repair_workers_drain_identically_across_engines() {
    let run = |seed: u64| {
        let mut engine = sim::Engine::new(seed);
        let client: StoreClient =
            StoreClient::builder().chunk_size(CHUNK).shards(SHARDS).replication(3).build();
        let bg = Buggify::armed(seed, Preset::Moderate);
        bg.force(points::STORE_SHARD_FAIL, 0.3);
        client.attach_buggify(&bg);
        client.spawn_repair_workers(&mut engine, SimDuration::from_millis(1));
        let mut g = Rng(seed ^ 0xABCD);
        let image: Vec<u8> = (0..CHUNK * 48).map(|_| g.next() as u8).collect();
        let timed = client.put_image_at(&image, None, engine.now());
        let backlog = client.repair_backlog();
        engine.run_for(SimDuration::from_millis(50));
        (timed.report, backlog, client.repair_stats(), client.repair_backlog())
    };
    let (ra, backlog_a, stats_a, end_a) = run(99);
    let (rb, backlog_b, stats_b, end_b) = run(99);
    assert_eq!((ra, backlog_a, &stats_a, end_a), (rb, backlog_b, &stats_b, end_b));
    assert!(backlog_a > 0, "forced failures must enqueue repairs");
    assert_eq!(end_a, 0, "workers must drain the backlog");
    assert_eq!(stats_a.processed, stats_a.enqueued);
}

/// Drives the same randomized put/replace/remove churn through a
/// segment-log backend and the in-mem reference, "crashes" (drops the
/// backend, keeping only the media), reopens, and compares contents
/// key by key.
#[test]
fn segment_log_reopen_matches_mem_backend() {
    for case in 0..20u64 {
        let mut g = Rng(0x5E6_106 + case);
        let media = SegmentMedia::with_roll_bytes(4096);
        let mut log = SegmentLogBackend::open(media.clone()).unwrap();
        let mut mem = MemBackend::new();
        let mut keys: Vec<(u128, u8)> = Vec::new();
        for _ in 0..120 {
            match g.next() % 3 {
                0 | 1 => {
                    let len = (g.next() % 300) as usize + 1;
                    let data: Arc<[u8]> = (0..len).map(|_| g.next() as u8).collect();
                    let hash = chunk_hash(&data);
                    let copy = (g.next() % 3) as u8;
                    log.put(hash, copy, Arc::clone(&data));
                    mem.put(hash, copy, data);
                    keys.push((hash.0, copy));
                }
                _ => {
                    if !keys.is_empty() {
                        let idx = (g.next() as usize) % keys.len();
                        let (h, copy) = keys.swap_remove(idx);
                        let hash = ckptstore::ChunkHash(h);
                        assert_eq!(log.remove(hash, copy), mem.remove(hash, copy));
                    }
                }
            }
        }
        drop(log); // crash: only the media survives

        let reopened = SegmentLogBackend::open(media).unwrap();
        assert_eq!(reopened.copy_count(), mem.copy_count(), "case {case}");
        assert_eq!(reopened.payload_bytes(), mem.payload_bytes(), "case {case}");
        for &(h, copy) in &keys {
            let hash = ckptstore::ChunkHash(h);
            assert_eq!(
                reopened.get(hash, copy).as_deref(),
                mem.get(hash, copy).as_deref(),
                "case {case}: payload for ({h:#x}, {copy})"
            );
        }
    }
}

/// The same service-level put history lands the same chunks whether the
/// shards persist to memory or to segment logs, and a store rebuilt
/// over the crashed media still holds every copy's bytes.
#[test]
fn service_over_segment_log_survives_reopen() {
    let media: Vec<SegmentMedia> = (0..2).map(|_| SegmentMedia::new()).collect();
    let seglog: StoreClient = StoreClient::builder()
        .chunk_size(CHUNK)
        .shards(2)
        .replication(2)
        .backend_segment_log_media(media.clone())
        .build();
    let mem: StoreClient =
        StoreClient::builder().chunk_size(CHUNK).shards(2).replication(2).build();

    let mut g = Rng(0xFEED);
    let image: Vec<u8> = (0..CHUNK * 40).map(|_| g.next() as u8).collect();
    let ra = seglog.put_image(&image);
    let rb = mem.put_image(&image);
    assert_eq!(ra, rb, "backend choice must not change the put report");
    assert_eq!(seglog.load_image(ra.image).unwrap(), image);

    // Crash the service; replay the media into bare backends and verify
    // every copy of every chunk is still there, byte for byte.
    drop(seglog);
    let reopened: Vec<SegmentLogBackend> =
        media.into_iter().map(|m| SegmentLogBackend::open(m).unwrap()).collect();
    let total_copies: usize = reopened.iter().map(|b| b.copy_count()).sum();
    assert_eq!(total_copies as u64, ra.chunks_total * 2, "every chunk must keep 2 copies");
    for slice in image.chunks(CHUNK) {
        let hash = chunk_hash(slice);
        for copy in 0..2u8 {
            let shard = shard_of(hash, copy, 2);
            assert_eq!(
                reopened[shard].get(hash, copy).as_deref(),
                Some(slice),
                "copy {copy} of chunk {:#x} lost across reopen",
                hash.0
            );
        }
    }
}
