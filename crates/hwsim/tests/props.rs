//! Randomized property tests for the hardware models: clock inversion,
//! disk service-time sanity, and CPU-sharing conservation.
//!
//! Hand-rolled case generation driven by `SimRng`; gated behind the
//! `props` feature. Generation is deterministic per case index.
#![cfg(feature = "props")]

use hwsim::{Disk, DiskOp, DiskProfile, DiskRequest, HardwareClock, SharedCpu};
use sim::{SimDuration, SimRng, SimTime};

const CASES: u64 = 256;

/// `when_reads` inverts `read_ns` for any drift/offset/slew state:
/// scheduling a wakeup at a clock reading hits that reading.
#[test]
fn clock_when_reads_inverts_read() {
    for case in 0..CASES {
        let mut g = SimRng::for_component(0xC10C_14E4, case as u32);
        let offset_ns = g.range_u64(0, 100_000_000) as i64 - 50_000_000;
        let drift_ppm = g.range_f64(-200.0, 200.0);
        let slew_ppm = g.range_f64(-400.0, 400.0);
        let now_s = g.range_f64(0.0, 10_000.0);
        let ahead_s = g.range_f64(0.000001, 1_000.0);

        let mut c = HardwareClock::new(offset_ns, drift_ppm);
        let now = SimTime::from_nanos((now_s * 1e9) as u64);
        c.set_slew_ppm(now, slew_ppm);
        let target = c.read_ns(now) + ahead_s * 1e9;
        let fire = c.when_reads(now, target);
        assert!(fire >= now, "case {case}");
        let achieved = c.read_ns(fire);
        // Rounding to whole ns bounds the inversion error by ~1 tick.
        assert!(
            (achieved - target).abs() < 10.0,
            "case {case}: target {target} achieved {achieved}"
        );
    }
}

/// Clock error growth is linear in elapsed time at the configured rate
/// (no hidden state jumps).
#[test]
fn clock_error_is_linear() {
    for case in 0..CASES {
        let mut g = SimRng::for_component(0x11EA4, case as u32);
        let drift_ppm = g.range_f64(-200.0, 200.0);
        let dt_s = g.range_f64(0.0, 1_000.0);

        let c = HardwareClock::new(0, drift_ppm);
        let e1 = c.error_ns(SimTime::from_nanos((dt_s * 1e9) as u64));
        let expect = dt_s * 1e9 * drift_ppm * 1e-6;
        assert!(
            (e1 - expect).abs() < 2.0,
            "case {case}: err {e1} expect {expect}"
        );
    }
}

/// Disk service times: sequential runs cost exactly the transfer time;
/// any request costs at least the transfer time; completion ordering in
/// the queue is FIFO.
#[test]
fn disk_service_bounds() {
    for case in 0..CASES {
        let mut g = SimRng::for_component(0xD15C, case as u32);
        let n_reqs = g.range_u64(1, 40) as usize;
        let reqs: Vec<(u64, u64, bool)> = (0..n_reqs)
            .map(|_| {
                (
                    g.range_u64(0, 100_000),
                    g.range_u64(1, 64),
                    g.chance(0.5),
                )
            })
            .collect();

        let profile = DiskProfile {
            min_seek: SimDuration::from_micros(500),
            max_seek: SimDuration::from_millis(9),
            rpm: 10_000,
            transfer_bps: 70_000_000,
            blocks: 200_000,
            block_size: 4096,
        };
        let mut disk = Disk::new(profile.clone());
        let mut rng = SimRng::from_seed(1);
        for (block, n, write) in reqs {
            let op = if write { DiskOp::Write } else { DiskOp::Read };
            let sequential = block == disk.head();
            let t = disk.service(&mut rng, DiskRequest { op, block, nblocks: n });
            let transfer = sim::transmission_time(n * 4096, profile.transfer_bps * 8);
            assert!(t >= transfer, "case {case}: service faster than media rate");
            if sequential {
                assert_eq!(t, transfer, "case {case}: sequential run paid a seek");
            } else {
                assert!(
                    t <= transfer + profile.max_seek + profile.rotation(),
                    "case {case}: service exceeded worst-case mechanics"
                );
            }
        }
    }
}

/// CPU sharing conserves work: a guest burst's completion time equals
/// start + work + exactly the dom0 time that overlapped it.
#[test]
fn cpu_sharing_conserves_work() {
    for case in 0..CASES {
        let mut g = SimRng::for_component(0xC9A, case as u32);
        let n_dom0 = g.range_u64(0, 20) as usize;
        let dom0: Vec<(u64, u64)> = (0..n_dom0)
            .map(|_| (g.range_u64(0, 1_000), g.range_u64(1, 50)))
            .collect();
        let start_ms = g.range_u64(0, 1_000);
        let work_ms = g.range_u64(1, 200);

        let mut cpu = SharedCpu::new();
        for (at, len) in dom0 {
            cpu.reserve_dom0(
                SimTime::ZERO + SimDuration::from_millis(at),
                SimDuration::from_millis(len),
            );
        }
        let start = SimTime::ZERO + SimDuration::from_millis(start_ms);
        let work = SimDuration::from_millis(work_ms);
        let done = cpu.guest_completion(start, work);
        let stolen = cpu.dom0_time_in(start, done);
        assert_eq!(done, start + work + stolen, "case {case}: work not conserved");
    }
}

/// The scanning definition of `guest_completion` the O(1) early-out
/// replaced, over an explicit interval list: the reference.
fn scanning_completion(
    dom0_busy: &[(SimTime, SimTime)],
    start: SimTime,
    work: SimDuration,
) -> SimTime {
    let mut t = start;
    let mut left = work;
    loop {
        let naive_end = t + left;
        let next = dom0_busy
            .iter()
            .filter(|&&(s, e)| e > t && s < naive_end)
            .min_by_key(|&&(s, _)| s);
        match next {
            None => return naive_end,
            Some(&(s, e)) => {
                if s > t {
                    left = left.saturating_sub(s - t);
                }
                if left.is_zero() {
                    return s;
                }
                t = e;
            }
        }
    }
}

/// `guest_completion` equals the scanning reference on every query —
/// before, inside, between, on the edges of and after all dom0 intervals
/// — and pruning history before a horizon changes no answer at or after
/// that horizon.
#[test]
fn guest_completion_matches_the_scanning_reference() {
    let at = |us: u64| SimTime::ZERO + SimDuration::from_micros(us);
    let mut inside_or_between = 0u64;
    let mut past_the_end = 0u64;
    for case in 0..4 * CASES {
        let mut g = SimRng::for_component(0xD0_30, case as u32);
        // Sorted, non-overlapping intervals, some touching, some empty.
        let mut cpu = SharedCpu::new();
        let mut intervals = Vec::new();
        let mut t = g.range_u64(0, 5_000);
        for _ in 0..g.range_u64(0, 24) {
            t += if g.chance(0.2) { 0 } else { g.range_u64(1, 4_000) };
            let len = if g.chance(0.1) { 0 } else { g.range_u64(1, 3_000) };
            let got = cpu.reserve_dom0(at(t), SimDuration::from_micros(len));
            assert_eq!(got, (at(t), at(t + len)), "case {case}: generator keeps order");
            intervals.push(got);
            t += len;
        }
        let span_end = t + 5_000;
        let mut queries: Vec<(u64, u64)> = (0..8)
            .map(|_| (g.range_u64(0, span_end), g.range_u64(0, 6_000)))
            .collect();
        // Edge starts: each interval's start, last busy instant and end.
        if let Some(&(s, e)) = intervals.get(g.range_u64(0, intervals.len().max(1) as u64) as usize) {
            let (s, e) = (s.as_nanos() / 1_000, e.as_nanos() / 1_000);
            queries.extend([(s, 1), (e.saturating_sub(1), 1), (e, 0), (e, 2_500)]);
        }
        for &(start, work) in &queries {
            let (start, work) = (at(start), SimDuration::from_micros(work));
            assert_eq!(
                cpu.guest_completion(start, work),
                scanning_completion(&intervals, start, work),
                "case {case}: start {start:?} work {work:?} over {intervals:?}"
            );
            match intervals.last() {
                Some(&(_, end)) if start < end => inside_or_between += 1,
                _ => past_the_end += 1,
            }
        }
        // Forget everything before a horizon: queries from there on must
        // not notice (the reference still sees the full history).
        let horizon = at(g.range_u64(0, span_end));
        cpu.forget_before(horizon);
        for &(start, work) in &queries {
            let (start, work) = (at(start).max(horizon), SimDuration::from_micros(work));
            assert_eq!(
                cpu.guest_completion(start, work),
                scanning_completion(&intervals, start, work),
                "case {case}: after forget_before({horizon:?}), start {start:?} work {work:?}"
            );
        }
    }
    assert!(inside_or_between > 1_000 && past_the_end > 1_000, "both paths exercised");
}
