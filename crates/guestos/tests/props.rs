//! Randomized property tests over the guest kernel's core data
//! structures: TCP reliability under arbitrary loss, buffer-cache
//! equivalence with a reference model, filesystem allocation invariants,
//! timer-wheel completeness, and the temporal-firewall time-freeze
//! property.
//!
//! Hand-rolled case generation driven by `SimRng`; gated behind the
//! `props` feature. Generation is deterministic per case index.
#![cfg(feature = "props")]

use std::collections::{HashMap, HashSet, VecDeque};

use cowstore::BlockData;
use guestos::fs::{BufferCache, Ext3Fs};
use guestos::net::tcp::TcpConn;
use guestos::prog::FileId;
use guestos::timer::{sleep_to_wake_jiffy, TimerWheel};
use guestos::Tid;
use sim::SimRng;

// ---------------------------------------------------------------------
// TCP: exactly-once in-order byte delivery under arbitrary loss.
// ---------------------------------------------------------------------

/// Whatever subset of data segments the network drops, the receiver's
/// application sees exactly the bytes that were sent, and the sender
/// repairs every hole (conservation through retransmission).
#[test]
fn tcp_delivers_every_byte_under_loss() {
    for case in 0..48u64 {
        let mut g = SimRng::for_component(0x7C9, case as u32);
        let total = g.range_u64(1, 200) * 1024;
        let n_drops = g.range_u64(0, 40) as usize;
        let drops: HashSet<usize> =
            (0..n_drops).map(|_| g.range_u64(0, 400) as usize).collect();

        let (mut a, syn) = TcpConn::connect(1000, 2000, 0);
        let (mut b, synack) = TcpConn::accept(2000, 1000, &syn, 0);
        // Caller-owned buffers, as the kernel holds them: one segment
        // scratch per direction in flight, one inbox (no markers here).
        let (mut tx, mut acks, mut unsent) = (Vec::new(), Vec::new(), Vec::new());
        let mut inbox = VecDeque::new();
        a.on_segment(&synack, 0, &mut tx, &mut inbox);
        for seg in tx.drain(..) {
            b.on_segment(&seg, 0, &mut acks, &mut inbox);
        }
        assert!(a.established() && b.established(), "case {case}");
        assert!(acks.is_empty(), "case {case}: a bare handshake ACK is not answered");

        let mut now: u64 = 0;
        let mut sent = 0u64;
        let mut a_to_b: u64 = 0; // Data-segment counter for drop decisions.
        let mut guard = 0;
        while b.stats.bytes_delivered < total {
            guard += 1;
            assert!(
                guard < 100_000,
                "case {case}: transfer stuck at {}/{}",
                b.stats.bytes_delivered,
                total
            );
            now += 1_000_000; // 1 ms per round.
            // App keeps the send buffer full; both entry points append to
            // the same buffer, send's segments before the tick's.
            if sent < total {
                sent += a.send(total - sent, None, now, &mut tx);
            }
            a.on_tick(now, &mut tx);
            // Deliver surviving segments to B; collect B's ACKs.
            for seg in tx.drain(..) {
                if seg.len > 0 {
                    a_to_b += 1;
                    if drops.contains(&(a_to_b as usize)) {
                        continue;
                    }
                }
                b.on_segment(&seg, now, &mut acks, &mut inbox);
            }
            let _ = b.recv(u64::MAX);
            for ack in std::mem::take(&mut acks) {
                a.on_segment(&ack, now, &mut tx, &mut inbox);
                for seg in tx.drain(..) {
                    if seg.len > 0 {
                        a_to_b += 1;
                        if drops.contains(&(a_to_b as usize)) {
                            continue;
                        }
                    }
                    b.on_segment(&seg, now, &mut acks, &mut inbox);
                    for a2 in acks.drain(..) {
                        // What A would send in reply stays unsent, as it
                        // always did here: the next round's tick repairs.
                        a.on_segment(&a2, now, &mut unsent, &mut inbox);
                        unsent.clear();
                    }
                }
                let _ = b.recv(u64::MAX);
            }
        }
        assert_eq!(b.stats.bytes_delivered, total, "case {case}: exact byte count");
        assert!(inbox.is_empty(), "case {case}: no markers were sent");
    }
}

/// The frozen-clock property at the TCP layer: however long the
/// connection sits with unacknowledged data, no retransmission timer can
/// fire while virtual time stands still.
#[test]
fn tcp_rto_never_fires_under_frozen_clock() {
    for case in 0..48u64 {
        let mut g = SimRng::for_component(0x470, case as u32);
        let ticks = g.range_u64(1, 500) as u32;
        let freeze_ns = g.range_u64(0, u32::MAX as u64);

        let (mut a, syn) = TcpConn::connect(1, 2, 0);
        let (b, synack) = TcpConn::accept(2, 1, &syn, 0);
        let (mut tx, mut inbox) = (Vec::new(), VecDeque::new());
        a.on_segment(&synack, 0, &mut tx, &mut inbox);
        tx.clear();
        a.send(100_000, None, freeze_ns, &mut tx);
        assert!(!tx.is_empty(), "case {case}");
        let _ = b;
        tx.clear();
        for _ in 0..ticks {
            a.on_tick(freeze_ns, &mut tx);
            assert!(tx.is_empty(), "case {case}");
        }
        assert_eq!(a.stats.timeouts, 0, "case {case}");
    }
}

// ---------------------------------------------------------------------
// Buffer cache vs reference model.
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum CacheOp {
    Read(u64),
    Put(u64, u64, bool),
    TakeDirty(usize),
    Invalidate(u64),
}

fn cache_op(g: &mut SimRng) -> CacheOp {
    // Weights 3:4:1:1, matching the original strategy.
    match g.range_u64(0, 9) {
        0..=2 => CacheOp::Read(g.range_u64(0, 64)),
        3..=6 => CacheOp::Put(g.range_u64(0, 64), g.range_u64(0, u64::MAX), g.chance(0.5)),
        7 => CacheOp::TakeDirty(g.range_u64(1, 16) as usize),
        _ => CacheOp::Invalidate(g.range_u64(0, 64)),
    }
}

/// The O(1) LRU cache never exceeds capacity, never loses a dirty block
/// silently (every dirty block is either still cached, handed back by
/// `take_dirty`, or returned as an eviction), and reads always return
/// the latest written content.
#[test]
fn cache_honors_capacity_and_dirty_accounting() {
    for case in 0..96u64 {
        let mut g = SimRng::for_component(0xCAC4E, case as u32);
        let cap = g.range_u64(2, 16) as usize;
        let n_ops = g.range_u64(1, 200) as usize;
        let ops: Vec<CacheOp> = (0..n_ops).map(|_| cache_op(&mut g)).collect();

        let mut cache = BufferCache::new(cap);
        let mut latest: HashMap<u64, u64> = HashMap::new();
        // Dirty blocks the cache is responsible for.
        let mut dirty_owned: HashMap<u64, u64> = HashMap::new();
        for op in ops {
            match op {
                CacheOp::Read(vba) => {
                    if let Some(data) = cache.read(vba) {
                        assert_eq!(data, BlockData::Opaque(latest[&vba]), "case {case}");
                    }
                }
                CacheOp::Put(vba, d, dirty) => {
                    latest.insert(vba, d);
                    // A put over an already-dirty block keeps it dirty (the
                    // kernel never clean-overwrites, but the structure's
                    // semantics are content-updating either way).
                    if dirty || dirty_owned.contains_key(&vba) {
                        dirty_owned.insert(vba, d);
                    }
                    if let Some((ev_vba, ev_data)) = cache.put(vba, BlockData::Opaque(d), dirty) {
                        // An evicted dirty block must carry its latest data.
                        let want = dirty_owned.remove(&ev_vba).expect("evicted block was dirty");
                        assert_eq!(ev_data, BlockData::Opaque(want), "case {case}");
                    }
                }
                CacheOp::TakeDirty(n) => {
                    for (vba, data) in cache.take_dirty(n) {
                        let want = dirty_owned.remove(&vba).expect("taken block was dirty");
                        assert_eq!(data, BlockData::Opaque(want), "case {case}");
                    }
                }
                CacheOp::Invalidate(vba) => {
                    cache.invalidate(vba);
                    dirty_owned.remove(&vba);
                    latest.remove(&vba);
                }
            }
            assert!(cache.len() <= cap, "case {case}: capacity violated");
            assert!(cache.dirty_count() <= cache.len(), "case {case}");
        }
        // Every dirty block we still own must be in the cache with the
        // right content.
        for (vba, d) in &dirty_owned {
            assert!(cache.contains(*vba), "case {case}: dirty block {vba} lost");
            assert_eq!(cache.read(*vba), Some(BlockData::Opaque(*d)), "case {case}");
        }
    }
}

// ---------------------------------------------------------------------
// Filesystem allocation invariants.
// ---------------------------------------------------------------------

/// Allocation bookkeeping: allocated_blocks always equals the blocks
/// reachable from live files; deletes free everything; no double
/// allocation ever happens.
#[test]
fn fs_allocation_is_consistent() {
    for case in 0..64u64 {
        let mut g = SimRng::for_component(0xF5, case as u32);
        let n_ops = g.range_u64(1, 60) as usize;
        let ops: Vec<(u64, u64, bool)> = (0..n_ops)
            .map(|_| (g.range_u64(0, 8), g.range_u64(0, 6), g.chance(0.5)))
            .collect();

        let mut fs = Ext3Fs::format(4096, 4096, 512);
        let mut live_blocks: HashMap<u64, Vec<u64>> = HashMap::new();
        for (file, blocks, delete) in ops {
            let fid = FileId(file);
            if delete {
                if fs.exists(fid) {
                    let (_, freed) = fs.delete(fid).unwrap();
                    let mut had: Vec<u64> = live_blocks.remove(&file).unwrap_or_default();
                    had.sort_unstable();
                    let mut freed = freed;
                    freed.sort_unstable();
                    assert_eq!(freed, had, "case {case}: delete freed a different set");
                }
            } else {
                if !fs.exists(fid) {
                    fs.create(fid).unwrap();
                    live_blocks.entry(file).or_default();
                }
                let offset = live_blocks[&file].len() as u64 * 4096;
                if blocks > 0 {
                    if let Ok(writes) = fs.write(fid, offset, blocks * 4096) {
                        for w in writes {
                            if matches!(w.data, BlockData::Opaque(_)) {
                                // Freshly allocated data blocks only; a
                                // rewrite would reuse, but offsets only grow.
                                let all: Vec<u64> =
                                    live_blocks.values().flatten().copied().collect();
                                assert!(
                                    !all.contains(&w.vba)
                                        || live_blocks[&file].contains(&w.vba),
                                    "case {case}: double allocation of {}",
                                    w.vba
                                );
                                if !live_blocks[&file].contains(&w.vba) {
                                    live_blocks.get_mut(&file).unwrap().push(w.vba);
                                }
                            }
                        }
                    }
                }
            }
            let expect: u64 = live_blocks.values().map(|v| v.len() as u64).sum();
            assert_eq!(
                fs.allocated_blocks(),
                expect,
                "case {case}: allocation count drifted"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Timer wheel completeness.
// ---------------------------------------------------------------------

/// Every armed timer fires exactly once, at the first expire() whose
/// jiffy reaches it, in jiffy order.
#[test]
fn timer_wheel_fires_everything_once() {
    for case in 0..128u64 {
        let mut g = SimRng::for_component(0x713E4, case as u32);
        let n_arms = g.range_u64(1, 80) as usize;
        let arms: Vec<(u64, u32)> = (0..n_arms)
            .map(|_| (g.range_u64(0, 200), g.range_u64(0, 100) as u32))
            .collect();
        let step = g.range_u64(1, 50);

        let mut w = TimerWheel::new();
        for &(j, tid) in &arms {
            w.arm(j, Tid(tid));
        }
        let mut fired: Vec<(u64, Tid)> = Vec::new();
        let mut j = 0;
        while !w.is_empty() {
            j += step;
            for tid in w.expire(j) {
                fired.push((j, tid));
            }
            assert!(j < 1_000, "case {case}: wheel never drained");
        }
        assert_eq!(fired.len(), arms.len(), "case {case}: lost or duplicated timers");
        // Each fires at the first step boundary >= its arm jiffy.
        let mut remaining = arms.clone();
        for (at, tid) in fired {
            let pos = remaining
                .iter()
                .position(|&(j0, t0)| {
                    Tid(t0) == tid && j0 <= at && j0 + step > at - ((at - 1) % step)
                })
                .or_else(|| {
                    remaining
                        .iter()
                        .position(|&(j0, t0)| Tid(t0) == tid && j0 <= at)
                });
            assert!(pos.is_some(), "case {case}: timer fired that was never armed");
            remaining.remove(pos.unwrap());
        }
    }
}

/// usleep rounding: the wake jiffy is always strictly in the future and
/// sleeps at least the requested time once tick quantization is
/// accounted for.
#[test]
fn sleep_rounding_bounds() {
    for case in 0..128u64 {
        let mut g = SimRng::for_component(0x51EE9, case as u32);
        let now = g.range_u64(0, 1_000_000);
        let ns = g.range_u64(0, 10_000_000_000);

        let tick = 10_000_000u64;
        let wake = sleep_to_wake_jiffy(now, ns, tick);
        assert!(wake > now, "case {case}: wake not in the future");
        let slept_ns = (wake - now - 1) * tick; // Worst case: armed just after a tick.
        assert!(slept_ns + tick > ns, "case {case}: woke too early even in the best case");
    }
}
