//! The guest buffer (page) cache: an O(1) LRU with dirty tracking.
//!
//! Bonnie++ in the paper operates on a file "twice the size of the guest
//! system's memory" precisely to defeat this cache; the cache therefore
//! has to behave like the real thing — hits are free, misses go to the
//! branching store, dirty evictions force writeback, and a dirty
//! high-water mark throttles writers to disk speed.

use ckptstore::{Dec, DecodeError, Enc};
use cowstore::{BlockData, BlockTable};

/// Slab index used by the intrusive LRU list.
type Slot = u32;

const NIL: Slot = u32::MAX;

#[derive(Clone, Debug)]
struct Node {
    vba: u64,
    data: BlockData,
    dirty: bool,
    prev: Slot,
    next: Slot,
}

/// An LRU block cache with all operations O(1).
#[derive(Clone, Debug)]
pub struct BufferCache {
    cap: usize,
    /// vba → its slab slot.
    map: BlockTable,
    slab: Vec<Node>,
    free: Vec<Slot>,
    head: Slot, // Most recently used.
    tail: Slot, // Least recently used.
    dirty: usize,
    /// Hit/miss counters.
    pub hits: u64,
    pub misses: u64,
}

impl BufferCache {
    /// Creates a cache holding up to `cap` blocks. The table and the slab
    /// start empty and grow with what is cached: `cap` bounds `len()`, it
    /// is not reserved up front, so cloning a kernel for a checkpoint
    /// copies the blocks it caches and not a table sized for the most it
    /// could.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "zero-capacity cache");
        BufferCache {
            cap,
            map: BlockTable::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            dirty: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of cached blocks.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Number of dirty blocks.
    pub fn dirty_count(&self) -> usize {
        self.dirty
    }

    /// Capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    fn unlink(&mut self, s: Slot) {
        let (p, n) = {
            let node = &self.slab[s as usize];
            (node.prev, node.next)
        };
        if p != NIL {
            self.slab[p as usize].next = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.slab[n as usize].prev = p;
        } else {
            self.tail = p;
        }
    }

    fn push_front(&mut self, s: Slot) {
        self.slab[s as usize].prev = NIL;
        self.slab[s as usize].next = self.head;
        if self.head != NIL {
            self.slab[self.head as usize].prev = s;
        }
        self.head = s;
        if self.tail == NIL {
            self.tail = s;
        }
    }

    fn touch(&mut self, s: Slot) {
        if self.head == s {
            return;
        }
        self.unlink(s);
        self.push_front(s);
    }

    /// Looks up a block, promoting it to most-recently-used.
    pub fn read(&mut self, vba: u64) -> Option<BlockData> {
        match self.map.get(vba) {
            Some(s) => {
                let s = s as Slot;
                self.hits += 1;
                self.touch(s);
                Some(self.slab[s as usize].data.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// True if `vba` is cached (no LRU promotion, no counters).
    pub fn contains(&self, vba: u64) -> bool {
        self.map.contains(vba)
    }

    /// Inserts or updates a block. Returns any dirty block evicted to make
    /// room (the caller must write it back).
    pub fn put(&mut self, vba: u64, data: BlockData, dirty: bool) -> Option<(u64, BlockData)> {
        if let Some(s) = self.map.get(vba) {
            let s = s as Slot;
            let node = &mut self.slab[s as usize];
            if dirty && !node.dirty {
                self.dirty += 1;
            }
            node.data = data;
            node.dirty = node.dirty || dirty;
            self.touch(s);
            return None;
        }
        let evicted = if self.map.len() >= self.cap {
            self.evict_lru()
        } else {
            None
        };
        let s = match self.free.pop() {
            Some(s) => {
                self.slab[s as usize] = Node {
                    vba,
                    data,
                    dirty,
                    prev: NIL,
                    next: NIL,
                };
                s
            }
            None => {
                self.slab.push(Node {
                    vba,
                    data,
                    dirty,
                    prev: NIL,
                    next: NIL,
                });
                (self.slab.len() - 1) as Slot
            }
        };
        if dirty {
            self.dirty += 1;
        }
        self.map.insert(vba, u64::from(s));
        self.push_front(s);
        evicted
    }

    fn evict_lru(&mut self) -> Option<(u64, BlockData)> {
        // Prefer evicting a clean block: walk from the tail. (Bounded scan;
        // if everything is dirty, evict the LRU dirty block and return it.)
        let mut s = self.tail;
        let mut scanned = 0;
        while s != NIL && scanned < 32 {
            if !self.slab[s as usize].dirty {
                let vba = self.slab[s as usize].vba;
                self.remove_slot(s);
                self.map.remove(vba);
                return None;
            }
            s = self.slab[s as usize].prev;
            scanned += 1;
        }
        // Evict the dirtiest-positioned LRU block and hand it back.
        let s = self.tail;
        let node = self.slab[s as usize].clone();
        self.remove_slot(s);
        self.map.remove(node.vba);
        if node.dirty {
            self.dirty -= 1;
            Some((node.vba, node.data))
        } else {
            None
        }
    }

    fn remove_slot(&mut self, s: Slot) {
        self.unlink(s);
        self.free.push(s);
    }

    /// Removes a block outright (file deletion invalidates its pages).
    pub fn invalidate(&mut self, vba: u64) {
        if let Some(s) = self.map.remove(vba) {
            let s = s as Slot;
            if self.slab[s as usize].dirty {
                self.dirty -= 1;
            }
            self.remove_slot(s);
        }
    }

    /// Takes up to `limit` dirty blocks (LRU-first), marking them clean.
    /// The caller writes them back.
    pub fn take_dirty(&mut self, limit: usize) -> Vec<(u64, BlockData)> {
        let mut out = Vec::new();
        let mut s = self.tail;
        while s != NIL && out.len() < limit {
            let node = &mut self.slab[s as usize];
            if node.dirty {
                node.dirty = false;
                self.dirty -= 1;
                out.push((node.vba, node.data.clone()));
            }
            s = self.slab[s as usize].prev;
        }
        out
    }

    /// Serializes the cache as blocks in LRU→MRU order; decode replays them
    /// through [`BufferCache::put`] so the recency list, slab, and dirty
    /// count come back identical without serializing the intrusive links.
    pub fn encode_wire(&self, e: &mut Enc) {
        e.u64(self.cap as u64);
        e.u64(self.hits);
        e.u64(self.misses);
        e.seq(self.map.len());
        let mut s = self.tail;
        while s != NIL {
            let node = &self.slab[s as usize];
            e.u64(node.vba);
            node.data.encode_wire(e);
            e.bool(node.dirty);
            s = node.prev;
        }
    }

    /// Inverse of [`BufferCache::encode_wire`], for a disk of
    /// `disk_blocks` blocks: a cached vba at or beyond it is refused.
    pub fn decode_wire(d: &mut Dec<'_>, disk_blocks: u64) -> Result<Self, DecodeError> {
        let cap = d.u64()? as usize;
        if cap == 0 {
            return Err(DecodeError::Invalid("zero-capacity cache"));
        }
        let hits = d.u64()?;
        let misses = d.u64()?;
        let n = d.seq()?;
        if n > cap {
            return Err(DecodeError::Invalid("cache block count exceeds capacity"));
        }
        let mut c = BufferCache::new(cap);
        for _ in 0..n {
            let vba = d.u64()?;
            if vba >= disk_blocks {
                return Err(DecodeError::Invalid("cached block beyond the disk"));
            }
            let data = BlockData::decode_wire(d)?;
            let dirty = d.bool()?;
            if c.contains(vba) {
                return Err(DecodeError::Invalid("duplicate cached vba"));
            }
            c.put(vba, data, dirty);
        }
        c.hits = hits;
        c.misses = misses;
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(x: u64) -> BlockData {
        BlockData::Opaque(x)
    }

    #[test]
    fn hit_and_miss_counting() {
        let mut c = BufferCache::new(4);
        assert!(c.read(1).is_none());
        c.put(1, d(10), false);
        assert_eq!(c.read(1), Some(d(10)));
        assert_eq!((c.hits, c.misses), (1, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used_clean_block() {
        let mut c = BufferCache::new(3);
        c.put(1, d(1), false);
        c.put(2, d(2), false);
        c.put(3, d(3), false);
        let _ = c.read(1); // 1 is now MRU; LRU is 2.
        c.put(4, d(4), false);
        assert!(c.contains(1));
        assert!(!c.contains(2), "2 was LRU");
        assert!(c.contains(3) && c.contains(4));
    }

    #[test]
    fn dirty_eviction_hands_block_back_for_writeback() {
        let mut c = BufferCache::new(2);
        assert!(c.put(1, d(1), true).is_none());
        assert!(c.put(2, d(2), true).is_none());
        let ev = c.put(3, d(3), true);
        assert_eq!(ev, Some((1, d(1))), "LRU dirty block must be written back");
        assert_eq!(c.dirty_count(), 2);
    }

    #[test]
    fn clean_blocks_preferred_for_eviction() {
        let mut c = BufferCache::new(3);
        c.put(1, d(1), true);
        c.put(2, d(2), false);
        c.put(3, d(3), true);
        let ev = c.put(4, d(4), false);
        assert!(ev.is_none(), "clean block 2 evicted silently");
        assert!(c.contains(1) && c.contains(3) && c.contains(4));
    }

    #[test]
    fn take_dirty_cleans_and_returns_lru_first() {
        let mut c = BufferCache::new(4);
        c.put(1, d(1), true);
        c.put(2, d(2), false);
        c.put(3, d(3), true);
        let taken = c.take_dirty(10);
        assert_eq!(taken, vec![(1, d(1)), (3, d(3))]);
        assert_eq!(c.dirty_count(), 0);
        assert!(c.contains(1), "writeback does not evict");
    }

    #[test]
    fn overwrite_marks_dirty_once() {
        let mut c = BufferCache::new(4);
        c.put(1, d(1), true);
        c.put(1, d(2), true);
        assert_eq!(c.dirty_count(), 1);
        assert_eq!(c.read(1), Some(d(2)));
    }

    #[test]
    fn invalidate_removes_and_uncounts() {
        let mut c = BufferCache::new(4);
        c.put(1, d(1), true);
        c.invalidate(1);
        assert!(!c.contains(1));
        assert_eq!(c.dirty_count(), 0);
        assert_eq!(c.len(), 0);
    }

    /// The constructor before the slab grew on demand: reserved at
    /// capacity. Kept here as the reference.
    fn reserved_at_capacity(cap: usize) -> BufferCache {
        BufferCache {
            slab: Vec::with_capacity(cap),
            ..BufferCache::new(cap)
        }
    }

    #[test]
    fn grown_cache_behaves_as_one_reserved_at_capacity() {
        // 3,000 blocks is eleven doublings of an empty table and slab;
        // the op mix then runs well past capacity so both evict.
        let cap = 3_000;
        let mut grown = BufferCache::new(cap);
        let mut reserved = reserved_at_capacity(cap);
        assert!(grown.slab.capacity() < cap && reserved.slab.capacity() >= cap);
        let mut evictions = 0;
        for i in 0..40_000u64 {
            let vba = (i * 7919) % 5_000;
            let dirty = i % 3 != 0;
            let ev = grown.put(vba, d(i), dirty);
            assert_eq!(ev, reserved.put(vba, d(i), dirty), "eviction differs at op {i}");
            evictions += ev.is_some() as u32;
            let probe = (i * 31) % 5_000;
            assert_eq!(grown.read(probe), reserved.read(probe));
            if i % 64 == 0 {
                assert_eq!(grown.take_dirty(16), reserved.take_dirty(16));
                grown.invalidate(probe);
                reserved.invalidate(probe);
            }
            assert_eq!(grown.len(), reserved.len());
        }
        assert!(evictions > 0 && grown.len() == cap, "the mix must fill and evict");
        assert!(grown.hits > 0 && grown.misses > 0);
        assert_eq!(
            (grown.hits, grown.misses, grown.dirty_count()),
            (reserved.hits, reserved.misses, reserved.dirty_count())
        );
        let wire = |c: &BufferCache| {
            let mut e = Enc::new();
            c.encode_wire(&mut e);
            e.into_bytes()
        };
        let bytes = wire(&grown);
        assert_eq!(bytes, wire(&reserved));
        let back = BufferCache::decode_wire(&mut Dec::new(&bytes), 5_000).unwrap();
        assert_eq!(wire(&back), bytes, "decode -> encode is the identity");
    }

    #[test]
    fn heavy_churn_preserves_capacity_invariant() {
        let mut c = BufferCache::new(64);
        for i in 0..10_000u64 {
            let _ = c.put(i % 200, d(i), i % 3 == 0);
            let _ = c.read(i % 97);
            assert!(c.len() <= 64);
            if i % 50 == 0 {
                let _ = c.take_dirty(8);
            }
        }
    }
}
