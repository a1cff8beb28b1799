//! Integration properties of the sharded store (DESIGN.md §10): same-seed
//! runs are byte-identical end to end (shard assignment, put reports,
//! commit instants, repair schedule).

use ckptstore::{chunk_hash, shard_of, PutReport, RepairStats, StoreClient};
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
