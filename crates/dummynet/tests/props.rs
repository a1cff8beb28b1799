//! Randomized property tests: shaping conserves packets, preserves FIFO
//! order, and checkpoints (suspend → serialize → restore/resume) never
//! lose, duplicate, or reorder anything.
//!
//! Hand-rolled case generation driven by `SimRng`; gated behind the
//! `props` feature. Generation is deterministic per case index.
#![cfg(feature = "props")]

use dummynet::{Dummynet, EnqueueOutcome, PipeConfig, PipeId};
use hwsim::{Frame, NodeAddr};
use sim::{SimDuration, SimRng, SimTime};

const CASES: u64 = 128;

fn t(us: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_micros(us)
}

fn tagged(tag: u32) -> Frame {
    Frame::new(NodeAddr(1), NodeAddr(2), 400, tag)
}

fn tag_of(f: &Frame) -> u32 {
    *f.payload::<u32>().expect("tagged frame")
}

/// With no loss and a large queue, every packet comes out exactly once,
/// in order, shaped no earlier than bandwidth+delay allow.
#[test]
fn conservation_and_fifo() {
    for case in 0..CASES {
        let mut g = SimRng::for_component(0xF1F0, case as u32);
        let n = g.range_u64(1, 80) as usize;
        let mut arrivals: Vec<u64> = (0..n).map(|_| g.range_u64(0, 50_000)).collect();
        arrivals.sort_unstable();
        let bw_kbps = g.range_u64(1_000, 1_000_000);
        let delay_us = g.range_u64(0, 5_000);

        let mut dn = Dummynet::new();
        let p = dn.add_pipe(PipeConfig {
            bandwidth_bps: Some(bw_kbps * 1000),
            delay: SimDuration::from_micros(delay_us),
            plr: 0.0,
            queue_slots: 10_000,
        });
        let mut rng = SimRng::from_seed(1);
        for (i, &at) in arrivals.iter().enumerate() {
            let out = dn.enqueue(t(at), p, tagged(i as u32), &mut rng);
            let accepted = matches!(out, EnqueueOutcome::Queued { .. });
            assert!(accepted, "case {case}");
        }
        let got = drain_tags(&mut dn);
        assert_eq!(got.len(), arrivals.len(), "case {case}: conservation");
        let sorted: Vec<u32> = (0..arrivals.len() as u32).collect();
        assert_eq!(got, sorted, "case {case}: FIFO order");
    }
}

/// A suspend/serialize/resume cycle at an arbitrary point preserves
/// exactly-once, in-order delivery: packets enqueued before, during
/// (logged in-flight), and after the checkpoint all come out once, in
/// arrival order.
#[test]
fn checkpoint_preserves_delivery_order() {
    for case in 0..CASES {
        let mut g = SimRng::for_component(0x0C4E_C0DE, case as u32);
        let n = g.range_u64(1, 60) as usize;
        let mut arrivals: Vec<u64> = (0..n).map(|_| g.range_u64(0, 20_000)).collect();
        arrivals.sort_unstable();
        let suspend_at = g.range_u64(0, 25_000);
        let downtime_us = g.range_u64(1, 100_000);

        let cfg = PipeConfig {
            bandwidth_bps: Some(10_000_000),
            delay: SimDuration::from_millis(2),
            plr: 0.0,
            queue_slots: 10_000,
        };
        let mut dn = Dummynet::new();
        let p = dn.add_pipe(cfg);
        let mut rng = SimRng::from_seed(2);
        let resume_at = t(suspend_at) + SimDuration::from_micros(downtime_us);
        let mut suspended = false;
        let mut post_resume: Vec<(u64, u32)> = Vec::new();
        for (i, &at) in arrivals.iter().enumerate() {
            if !suspended && at >= suspend_at {
                dn.suspend(t(suspend_at));
                let _ = dn.serialize(t(suspend_at));
                suspended = true;
            }
            if suspended && t(at) >= resume_at {
                // Arrives after the system resumed: deliver shifted.
                post_resume.push((at, i as u32));
            } else {
                // Normal or logged-in-flight arrival.
                let _ = dn.enqueue(t(at), p, tagged(i as u32), &mut rng);
            }
        }
        let replays: Vec<(SimTime, PipeId, Frame)> = if suspended {
            dn.resume(resume_at)
                .into_iter()
                .map(|a| (a.at, a.pipe, a.frame))
                .collect()
        } else {
            Vec::new()
        };
        // Replayed in-flight packets re-enter first (the §3.2 queue-behind
        // rule), then fresh post-resume arrivals.
        for (rat, rp, rf) in replays {
            let _ = dn.enqueue(rat, rp, rf, &mut rng);
        }
        for (at, tag) in post_resume {
            let shifted = t(at) + SimDuration::from_micros(downtime_us);
            let _ = dn.enqueue(shifted.max(resume_at), p, tagged(tag), &mut rng);
        }
        let got = drain_tags(&mut dn);
        let expect: Vec<u32> = (0..arrivals.len() as u32).collect();
        assert_eq!(got, expect, "case {case}: lost, duplicated, or reordered");
    }
}

/// Serialize → restore is lossless for queue contents and preserves
/// relative deadlines.
#[test]
fn serialize_restore_roundtrip() {
    for case in 0..CASES {
        let mut g = SimRng::for_component(0x4E5704E, case as u32);
        let n = g.range_u64(1, 50) as usize;
        let rebase_us = g.range_u64(0, 1_000_000);

        let mut dn = Dummynet::new();
        let p = dn.add_pipe(PipeConfig {
            bandwidth_bps: Some(8_000_000),
            delay: SimDuration::from_millis(1),
            plr: 0.0,
            queue_slots: 10_000,
        });
        let mut rng = SimRng::from_seed(3);
        for i in 0..n {
            let _ = dn.enqueue(t(0), p, tagged(i as u32), &mut rng);
        }
        dn.suspend(t(10));
        let img = dn.serialize(t(10));
        assert_eq!(img.packets(), n, "case {case}");
        let mut restored = Dummynet::restore(&img, t(rebase_us));
        let got = drain_tags(&mut restored);
        assert_eq!(got, (0..n as u32).collect::<Vec<_>>(), "case {case}");
    }
}

/// Drains `dn` to empty through `pop_ready`, and a clone of it through
/// the sink form at the same instants: both must hand out the same frames
/// from the same pipes in the same order, and a suspended clone nothing.
fn drain_tags(dn: &mut Dummynet) -> Vec<u32> {
    let mut twin = dn.clone();
    let mut got = Vec::new();
    let mut guard = 0;
    while let Some(next) = dn.next_ready() {
        guard += 1;
        assert!(guard < 100_000);
        assert_eq!(twin.next_ready(), Some(next));

        let mut held = twin.clone();
        held.suspend(next);
        held.drain_ready(next, |_, _| panic!("suspended instance emitted through the sink"));
        assert!(held.pop_ready(next).is_empty(), "suspended instance emitted a vector");

        let popped: Vec<(PipeId, u32)> =
            dn.pop_ready(next).iter().map(|(p, f)| (*p, tag_of(f))).collect();
        let mut sunk = Vec::new();
        twin.drain_ready(next, |p, f| sunk.push((p, tag_of(&f))));
        assert_eq!(popped, sunk, "sink form and Vec form disagree at {next:?}");
        got.extend(popped.iter().map(|&(_, tag)| tag));
    }
    assert_eq!(twin.next_ready(), None);
    got
}
