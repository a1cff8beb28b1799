//! Background data transfer for stateful swapping (§5.3).
//!
//! "To implement background data transfer, we take advantage of LVM mirror
//! volumes... By locating half of a mirror volume on a remote machine
//! across NFS, we get automatic remote redirection of reads and remote
//! mirroring of writes. The original implementation of LVM mirror volumes
//! synchronizes data aggressively... we added a rate-limiting function that
//! slows synchronization activity relative to normal system I/O."
//!
//! [`MirrorTransfer`] is the synchronization scheduler: it tracks which
//! blocks still need to move, paces them with a token-style
//! [`RateLimiter`], promotes on-demand blocks to the front (lazy copy-in
//! pages blocks "on first reference"), and re-queues blocks dirtied after
//! being copied (eager copy-out "blocks overwritten during pre-copy may be
//! sent more than once"). The owner performs the actual disk/network ops.

use std::collections::VecDeque;

use sim::{transmission_time, SimTime};

use crate::block::BlockTable;

/// Paces a byte stream at a configured rate.
#[derive(Clone, Debug)]
pub struct RateLimiter {
    bps: u64,
    available_at: SimTime,
}

impl RateLimiter {
    /// Creates a limiter at `bps` bytes *of payload* per second... rate is
    /// expressed in bits per second to match link conventions.
    pub fn new(bps: u64) -> Self {
        assert!(bps > 0, "zero-rate limiter");
        RateLimiter {
            bps,
            available_at: SimTime::ZERO,
        }
    }

    /// Reserves `bytes` of budget; returns when the transfer may start.
    pub fn acquire(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let start = self.available_at.max(now);
        self.available_at = start + transmission_time(bytes, self.bps);
        start
    }

    /// When the limiter next has budget.
    pub fn available_at(&self) -> SimTime {
        self.available_at
    }

    /// Current rate, bits per second.
    pub fn bps(&self) -> u64 {
        self.bps
    }
}

/// Transfer direction of a mirror synchronization.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Swap-in: remote → local, lazily.
    CopyIn,
    /// Swap-out: local → remote, eagerly (pre-copy).
    CopyOut,
}

/// The mirror-synchronization scheduler for one swap operation.
#[derive(Clone, Debug)]
pub struct MirrorTransfer {
    direction: Direction,
    pending: VecDeque<u64>,
    /// The blocks in `pending`, and the blocks already synchronized: both
    /// sets, every value 0.
    queued: BlockTable,
    copied: BlockTable,
    block_size: u32,
    limiter: RateLimiter,
    /// Blocks re-sent because they were dirtied after copy (CopyOut).
    pub dirty_requeues: u64,
    /// Blocks promoted by on-demand access (CopyIn).
    pub demand_promotions: u64,
}

impl MirrorTransfer {
    /// Creates a transfer over `blocks`, paced at `rate_bps`.
    pub fn new(direction: Direction, blocks: Vec<u64>, block_size: u32, rate_bps: u64) -> Self {
        let mut queued = BlockTable::new();
        for &vba in &blocks {
            queued.insert(vba, 0);
        }
        MirrorTransfer {
            direction,
            pending: blocks.into(),
            queued,
            copied: BlockTable::new(),
            block_size,
            limiter: RateLimiter::new(rate_bps),
            dirty_requeues: 0,
            demand_promotions: 0,
        }
    }

    /// Transfer direction.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// Blocks still waiting to move.
    pub fn remaining(&self) -> usize {
        self.pending.len()
    }

    /// True when every queued block has been copied.
    pub fn done(&self) -> bool {
        self.pending.is_empty()
    }

    /// Whether a block has already been synchronized.
    pub fn is_copied(&self, vba: u64) -> bool {
        self.copied.contains(vba)
    }

    /// Pops the next block to move; returns it with the earliest start
    /// time the rate limiter allows.
    pub fn pop_next(&mut self, now: SimTime) -> Option<(u64, SimTime)> {
        let vba = self.pending.pop_front()?;
        self.queued.remove(vba);
        let start = self.limiter.acquire(now, self.block_size as u64);
        Some((vba, start))
    }

    /// Marks a block as synchronized (owner finished its disk+net op).
    pub fn mark_copied(&mut self, vba: u64) {
        self.copied.insert(vba, 0);
    }

    /// On-demand access during lazy copy-in: if the block is still queued,
    /// move it to the front (it will be fetched next, outside the rate
    /// limit budget — the guest is waiting on it). Returns true if the
    /// block still needs fetching.
    pub fn promote(&mut self, vba: u64) -> bool {
        if self.copied.contains(vba) {
            return false;
        }
        if self.queued.contains(vba) {
            // Move to front.
            if let Some(pos) = self.pending.iter().position(|&b| b == vba) {
                self.pending.remove(pos);
                self.pending.push_front(vba);
                self.demand_promotions += 1;
            }
            true
        } else {
            false
        }
    }

    /// A block was overwritten after being copied (eager copy-out): it
    /// must be sent again.
    ///
    /// # Panics
    ///
    /// Panics if called on a copy-in transfer.
    pub fn mark_dirty(&mut self, vba: u64) {
        assert_eq!(
            self.direction,
            Direction::CopyOut,
            "mark_dirty only applies to pre-copy"
        );
        if self.copied.remove(vba).is_some() {
            self.dirty_requeues += 1;
            if self.queued.insert(vba, 0).is_none() {
                self.pending.push_back(vba);
            }
        }
        // If still queued and not yet copied, nothing to do: the queued
        // copy will pick up the new content.
    }

    /// Copy-out write hook: a block was (re)written. If it was already
    /// copied it is re-queued; if it is brand new it joins the set; if it
    /// is still queued the queued copy will pick up the new content.
    ///
    /// # Panics
    ///
    /// Panics if called on a copy-in transfer.
    pub fn enqueue_or_dirty(&mut self, vba: u64) {
        assert_eq!(
            self.direction,
            Direction::CopyOut,
            "enqueue_or_dirty only applies to pre-copy"
        );
        if self.copied.remove(vba).is_some() {
            self.dirty_requeues += 1;
        }
        if self.queued.insert(vba, 0).is_none() {
            self.pending.push_back(vba);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn rate_limiter_paces_sequential_acquires() {
        // 8 Mbps = 1 byte/µs: 1000 bytes = 1 ms apart.
        let mut rl = RateLimiter::new(8_000_000);
        assert_eq!(rl.acquire(t(0), 1000), t(0));
        assert_eq!(rl.acquire(t(0), 1000), t(1));
        assert_eq!(rl.acquire(t(0), 1000), t(2));
        // After a long idle period, budget does not accumulate beyond now.
        assert_eq!(rl.acquire(t(100), 1000), t(100));
    }

    #[test]
    fn transfer_drains_in_order_with_pacing() {
        let mut m = MirrorTransfer::new(Direction::CopyOut, vec![10, 11, 12], 4096, 32_768_000);
        // 4096 B at 32.768 Mbps = 1 ms.
        let (b0, s0) = m.pop_next(t(0)).unwrap();
        let (b1, s1) = m.pop_next(t(0)).unwrap();
        assert_eq!((b0, b1), (10, 11));
        assert_eq!(s0, t(0));
        assert_eq!(s1, t(1));
        m.mark_copied(b0);
        m.mark_copied(b1);
        assert!(!m.done());
        let (b2, _) = m.pop_next(t(5)).unwrap();
        m.mark_copied(b2);
        assert!(m.done());
    }

    #[test]
    fn promote_moves_block_to_front() {
        let mut m = MirrorTransfer::new(Direction::CopyIn, vec![1, 2, 3, 4], 4096, 8_000_000);
        assert!(m.promote(3));
        let (next, _) = m.pop_next(t(0)).unwrap();
        assert_eq!(next, 3, "promoted block fetched first");
        assert_eq!(m.demand_promotions, 1);
    }

    #[test]
    fn promote_copied_block_is_noop() {
        let mut m = MirrorTransfer::new(Direction::CopyIn, vec![1], 4096, 8_000_000);
        let (b, _) = m.pop_next(t(0)).unwrap();
        m.mark_copied(b);
        assert!(!m.promote(1), "already local");
    }

    #[test]
    fn dirty_block_is_resent() {
        let mut m = MirrorTransfer::new(Direction::CopyOut, vec![1, 2], 4096, 8_000_000);
        let (b, _) = m.pop_next(t(0)).unwrap();
        m.mark_copied(b);
        m.mark_dirty(1);
        assert_eq!(m.dirty_requeues, 1);
        // Block 1 is queued again behind 2.
        let (n1, _) = m.pop_next(t(0)).unwrap();
        let (n2, _) = m.pop_next(t(0)).unwrap();
        assert_eq!((n1, n2), (2, 1));
        assert!(!m.is_copied(1));
    }

    #[test]
    fn dirtying_a_still_queued_block_does_not_duplicate() {
        let mut m = MirrorTransfer::new(Direction::CopyOut, vec![1, 2], 4096, 8_000_000);
        m.mark_dirty(1); // Not yet copied: queued copy picks up new content.
        assert_eq!(m.remaining(), 2);
        assert_eq!(m.dirty_requeues, 0);
    }

    #[test]
    #[should_panic(expected = "pre-copy")]
    fn mark_dirty_on_copy_in_panics() {
        let mut m = MirrorTransfer::new(Direction::CopyIn, vec![1], 4096, 8_000_000);
        m.mark_dirty(1);
    }
}
