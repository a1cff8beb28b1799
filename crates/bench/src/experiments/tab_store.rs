//! TAB-STORE — shard-count sweep over the checkpoint-store service.
//!
//! The fig*/tab* regenerators pin simulated observables of the paper's
//! experiments; this table pins the *store service* model itself: N
//! experiments checkpoint simultaneously against one sharded, replicated
//! store service (behind its [`StoreClient`]) and we report, per shard count,
//!
//! - aggregate MB/s: new physical bytes admitted per simulated second of
//!   commit makespan (the shard pipeline is the bottleneck, so this is
//!   the scaling claim — DESIGN.md §10 expects ≥2x at 4 shards vs 1);
//! - p50/p99 commit latency: submit → quorum-durable per put, from
//!   [`ckptstore::TimedPut::commit_at`];
//! - repair-path traffic: with `store.shard_fail` forced to 10%, replica
//!   writes fail, quorum top-ups retry inline, and the leftovers drain
//!   through the gossip repair queue via per-shard
//!   [`ckptstore::ShardWorker`]s.
//!
//! Every sweep runs twice with the same seed and must produce a
//! byte-identical fingerprint (every `PutReport`, every commit instant,
//! every repair counter) — shard placement, fault draws, and the repair
//! schedule are all deterministic functions of the seed.
//!
//! Every number is simulated time, so `results/tab_store.csv` (one row
//! per shard count) is machine-independent and CI-pinned like the rest.

use std::fmt::Write as _;

use ckptstore::{CaptureCache, StoreClient};
use sim::buggify::{points, Buggify, Preset};
use sim::{stats, Engine, SimDuration, SimTime};

use crate::{banner, write_csv};

const SEED: u64 = 42;
const CHUNK: usize = 4096;
const REPLICATION: usize = 3;
/// Forced probability for `store.shard_fail` — high enough that every
/// epoch exercises quorum retries and feeds the repair queue.
const SHARD_FAIL_PROB: f64 = 0.10;
/// Repair workers pump every 2 sim-ms.
const REPAIR_PERIOD: SimDuration = SimDuration::from_millis(2);

// ---------------------------------------------------------------------------
// Workload: N experiments checkpointing simultaneously.
// ---------------------------------------------------------------------------

struct Workload {
    experiments: usize,
    epochs: usize,
    /// Chunks per experiment image.
    chunks: usize,
    /// Chunks rewritten per epoch (~25% of the image).
    dirty: usize,
}

/// xorshift64* — deterministic dirty-chunk selection and payload bytes,
/// independent of the store's own seeded draws.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// Appends words to the fingerprint's byte stream, little-endian.
fn push_words<const N: usize>(fp: &mut Vec<u8>, words: [u64; N]) {
    for w in words {
        fp.extend_from_slice(&w.to_le_bytes());
    }
}

struct SweepResult {
    shards: usize,
    puts: u64,
    /// Σ new physical bytes over all puts (primary copies).
    bytes: u64,
    /// Simulated commit makespan per epoch, summed (submit → last quorum).
    makespan_ns: u64,
    mb_per_sec: f64,
    p50_commit_us: f64,
    p99_commit_us: f64,
    replica_acks: u64,
    quorum_retries: u64,
    repairs_enqueued: u64,
    repairs_done: u64,
    repair_backlog_end: u64,
    fingerprint: u64,
}

/// One full run at a given shard count: `experiments` images each
/// rewritten `epochs` times, all submitted at the same instant per epoch
/// (the "N experiments checkpoint simultaneously" shape), with shard
/// failures forced on and repair workers draining between epochs.
fn run_sweep(shards: usize, wl: &Workload) -> SweepResult {
    let mut engine = Engine::new(SEED);
    let client = StoreClient::builder()
        .chunk_size(CHUNK)
        .shards(shards)
        .replication(REPLICATION)
        .telemetry(engine.telemetry(), 1)
        .build();
    let bg = Buggify::armed(SEED, Preset::Moderate);
    bg.force(points::STORE_SHARD_FAIL, SHARD_FAIL_PROB);
    client.attach_buggify(&bg);
    client.spawn_repair_workers(&mut engine, REPAIR_PERIOD);

    // Per-experiment image buffers + capture caches. Distinct first bytes
    // keep the experiments' chunks from dedup'ing against each other.
    let mut images: Vec<Vec<u8>> = (0..wl.experiments)
        .map(|e| {
            let mut rng = Rng(SEED ^ (e as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            (0..wl.chunks * CHUNK).map(|_| rng.next() as u8).collect()
        })
        .collect();
    let mut caches: Vec<CaptureCache> = (0..wl.experiments).map(|_| CaptureCache::default()).collect();
    let mut dirt = Rng(SEED.wrapping_mul(0xd134_2543_de82_ef95) | 1);

    // Every observable of the sweep, in order; its FNV-1a is the fingerprint.
    let mut fp: Vec<u8> = Vec::new();
    let mut commit_us: Vec<f64> = Vec::new();
    let mut prev_ids: Vec<Option<ckptstore::ImageId>> = vec![None; wl.experiments];
    let mut bytes = 0u64;
    let mut puts = 0u64;
    let mut replica_acks = 0u64;
    let mut makespan_ns = 0u64;

    for _epoch in 0..wl.epochs {
        let submit = engine.now();
        let mut epoch_commit = submit;
        for e in 0..wl.experiments {
            // Dirty ~25% of the chunks with fresh bytes.
            for _ in 0..wl.dirty {
                let c = (dirt.next() as usize) % wl.chunks;
                let fill = dirt.next();
                for (i, b) in images[e][c * CHUNK..(c + 1) * CHUNK].iter_mut().enumerate() {
                    *b = (fill as u8).wrapping_add(i as u8);
                }
            }
            let image = std::mem::take(&mut images[e]);
            let timed = client.put_image_at(&image, Some(&mut caches[e]), submit);
            images[e] = image;
            let r = timed.report;
            commit_us.push((timed.commit_at.as_nanos() - submit.as_nanos()) as f64 / 1e3);
            epoch_commit = epoch_commit.max(timed.commit_at);
            bytes += r.new_physical_bytes;
            puts += 1;
            replica_acks += r.replica_acks;
            push_words(
                &mut fp,
                [
                    r.image.0,
                    r.new_physical_bytes,
                    r.chunks_new,
                    r.shards_touched as u64,
                    r.replica_acks,
                    r.repairs_enqueued,
                    timed.commit_at.as_nanos(),
                ],
            );
            // Drop the previous epoch's image so refcounts stay bounded
            // and each epoch's residual is against one parent.
            if let Some(old) = prev_ids[e].replace(r.image) {
                client.remove_image(old).expect("previous epoch image");
            }
        }
        makespan_ns += epoch_commit.as_nanos() - submit.as_nanos();
        // Epoch barrier: run the engine past the last commit so the
        // shard workers pump the repair queue before the next epoch.
        engine.run_until(SimTime::from_nanos(epoch_commit.as_nanos()) + REPAIR_PERIOD * 4);
    }
    // Let the repair queue drain fully before reading the final stats.
    engine.run_for(REPAIR_PERIOD * 16);

    let rs = client.repair_stats();
    push_words(&mut fp, [rs.enqueued, rs.processed, rs.healed_copies, rs.added_copies, rs.quorum_retries]);
    for t in client.pending_repairs() {
        fp.extend_from_slice(&t.hash.0.to_le_bytes());
        fp.push(t.copy);
    }
    push_words(&mut fp, [client.physical_bytes(), client.replica_bytes()]);

    let mb_per_sec = bytes as f64 / 1e6 / (makespan_ns as f64 / 1e9);
    SweepResult {
        shards,
        puts,
        bytes,
        makespan_ns,
        mb_per_sec,
        p50_commit_us: stats::percentile(&commit_us, 0.50),
        p99_commit_us: stats::percentile(&commit_us, 0.99),
        replica_acks,
        quorum_retries: rs.quorum_retries,
        repairs_enqueued: rs.enqueued,
        repairs_done: rs.processed,
        repair_backlog_end: client.repair_backlog() as u64,
        fingerprint: stats::fnv1a(&fp),
    }
}

const CSV_HEADER: &str = "shards,puts,bytes,makespan_ns,mb_per_sec,p50_commit_us,p99_commit_us,\
    replica_acks,quorum_retries,repairs_enqueued,repairs_done,repair_backlog_end,fingerprint\n";

fn csv_row(csv: &mut String, r: &SweepResult) {
    let _ = writeln!(
        csv,
        "{},{},{},{},{:.1},{:.1},{:.1},{},{},{},{},{},{:016x}",
        r.shards,
        r.puts,
        r.bytes,
        r.makespan_ns,
        r.mb_per_sec,
        r.p50_commit_us,
        r.p99_commit_us,
        r.replica_acks,
        r.quorum_retries,
        r.repairs_enqueued,
        r.repairs_done,
        r.repair_backlog_end,
        r.fingerprint
    );
}

pub fn run() {
    banner("TAB-STORE", "sharded store service: MB/s + commit latency vs shard count");

    let wl = Workload { experiments: 6, epochs: 8, chunks: 256, dirty: 64 };
    println!(
        "  workload: {} experiments x {} epochs, {} chunks/image ({} dirty/epoch), replication {}",
        wl.experiments, wl.epochs, wl.chunks, wl.dirty, REPLICATION
    );
    println!("  faults:   {} forced to {:.0}%\n", points::STORE_SHARD_FAIL, SHARD_FAIL_PROB * 100.0);

    let mut rows = Vec::new();
    for shards in [1, 2, 4, 8] {
        let r = run_sweep(shards, &wl);
        // Same seed, same config: the entire observable history must be
        // byte-identical on a second run.
        let r2 = run_sweep(shards, &wl);
        assert_eq!(
            r.fingerprint, r2.fingerprint,
            "shard sweep at {shards} shards is not deterministic"
        );
        println!(
            "  {:>2} shard(s): {:>8.1} MB/s  p50 {:>9.1} us  p99 {:>9.1} us  \
             retries {:>3}  repairs {:>3}/{:<3}  fp {:016x}",
            r.shards,
            r.mb_per_sec,
            r.p50_commit_us,
            r.p99_commit_us,
            r.quorum_retries,
            r.repairs_done,
            r.repairs_enqueued,
            r.fingerprint
        );
        assert!(r.puts == (wl.experiments * wl.epochs) as u64, "every put must commit");
        assert!(
            r.repairs_enqueued > 0,
            "forced shard failures must exercise the repair queue"
        );
        rows.push(r);
    }

    let speedup = rows[2].mb_per_sec / rows[0].mb_per_sec;
    println!("\n  4-shard speedup over 1 shard: {speedup:.2}x (floor: 2.0x)");
    assert!(
        speedup >= 2.0,
        "4-shard aggregate MB/s must be >= 2.0x the 1-shard baseline, got {speedup:.2}x"
    );

    let mut csv = String::from(CSV_HEADER);
    for r in &rows {
        csv_row(&mut csv, r);
    }
    println!("  sweep: {}", write_csv("tab_store.csv", &csv).display());
}
