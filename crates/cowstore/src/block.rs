//! Block content representation and delta maps.
//!
//! The simulator does not shuffle real 4 KiB buffers around; a block's
//! content is a compact [`BlockData`] value that is enough to (a) verify
//! read-your-writes correctness, and (b) let the free-block-elimination
//! plugin *decode* filesystem allocation bitmaps exactly as the paper's
//! ext3 snooping plugin does below the guest (§5.1). An opaque block's
//! payload in a checkpoint image is its block record
//! ([`ckptstore::write_record`]: the fingerprint, then a SplitMix64 fill
//! seeded by it), which the encoder seals as the fingerprint alone, so
//! capture stores and restore reads 4 KiB per dirty block without ever
//! making those bytes.
//!
//! Every table keyed by a block number — a delta's index, the guest's
//! inode maps and buffer cache, a mirror's queues — is a [`BlockTable`].

use std::sync::Arc;

use ckptstore::{Dec, DecodeError, Enc, Wire};

/// Entries per [`BlockTable`] page: 4 KiB of values.
const PAGE: usize = 512;

/// The value of an empty [`BlockTable`] entry.
const EMPTY: u64 = u64::MAX;

/// A map from a block number to a `u64`, stored densely.
///
/// The keys are disk addresses or file block indices: small, dense, and
/// written in runs. The table is a `Vec` of 512-entry pages, a page
/// allocated when a key in its range is first inserted, so a lookup is
/// two loads and a run of sequential keys walks one page in order, where
/// a hash table probes a scattered bucket per key. Memory is one pointer
/// per 512 keys up to the largest key inserted, plus 4 KiB per page
/// touched; a page stays allocated until [`BlockTable::clear`]. Callers
/// bound their keys — decoders refuse a block number beyond the disk.
///
/// `u64::MAX` marks an empty entry and cannot be stored.
#[derive(Clone, Debug, Default)]
pub struct BlockTable {
    pages: Vec<Option<Box<[u64; PAGE]>>>,
    len: usize,
}

impl BlockTable {
    /// An empty table.
    pub fn new() -> Self {
        BlockTable::default()
    }

    /// Number of keys present.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no key is present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value stored for `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<u64> {
        let page = self.pages.get(usize::try_from(key / PAGE as u64).ok()?)?.as_deref()?;
        let v = page[(key % PAGE as u64) as usize];
        (v != EMPTY).then_some(v)
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Stores `value` for `key`, returning the value it replaced.
    ///
    /// # Panics
    ///
    /// Panics if `value` is `u64::MAX`, or if the page index of `key`
    /// does not fit a `usize`.
    #[inline]
    pub fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
        assert_ne!(value, EMPTY, "u64::MAX marks an empty block-table entry");
        let p = usize::try_from(key / PAGE as u64).expect("block number fits the address space");
        if p >= self.pages.len() {
            self.pages.resize_with(p + 1, || None);
        }
        let page = self.pages[p].get_or_insert_with(|| Box::new([EMPTY; PAGE]));
        let old = std::mem::replace(&mut page[(key % PAGE as u64) as usize], value);
        if old == EMPTY {
            self.len += 1;
            None
        } else {
            Some(old)
        }
    }

    /// Removes `key`, returning its value.
    #[inline]
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        let p = usize::try_from(key / PAGE as u64).ok()?;
        let page = self.pages.get_mut(p)?.as_deref_mut()?;
        let old = std::mem::replace(&mut page[(key % PAGE as u64) as usize], EMPTY);
        if old == EMPTY {
            None
        } else {
            self.len -= 1;
            Some(old)
        }
    }

    /// Removes every key and frees every page.
    pub fn clear(&mut self) {
        self.pages.clear();
        self.len = 0;
    }

    /// `(key, value)` pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.pages.iter().enumerate().flat_map(|(p, page)| {
            let base = (p * PAGE) as u64;
            page.iter().flat_map(move |page| {
                page.iter()
                    .enumerate()
                    .filter(|&(_, &v)| v != EMPTY)
                    .map(move |(i, &v)| (base + i as u64, v))
            })
        })
    }
}

/// Content of one virtual disk block.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BlockData {
    /// An all-zero block (never written, or explicitly zeroed).
    Zero,
    /// Arbitrary data identified by a fingerprint (stand-in for 4 KiB of
    /// payload; equality models bit-for-bit equality).
    Opaque(u64),
    /// An ext3-style block-allocation bitmap covering one block group.
    Bitmap(BitmapBlock),
}

impl BlockData {
    /// True if this is the zero block.
    pub fn is_zero(&self) -> bool {
        matches!(self, BlockData::Zero)
    }
}

// A single block value inline (fingerprints stay compact; bulk delta
// payloads go through `DeltaMap::encode_wire` instead, which emits
// chunk-aligned full-size records for dedup).
ckptstore::wire!(enum BlockData: "block data" { Zero = 0, Opaque(fp) = 1, Bitmap(bm) = 2 });

/// An allocation bitmap for one block group.
///
/// Bit `i` set ⇔ block `group_start + i` is allocated. The words are
/// shared (`Arc`) because the same bitmap content is stored in the delta,
/// the snoop's shadow copy, and possibly several snapshots.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BitmapBlock {
    /// Index of the block group this bitmap describes.
    pub group: u32,
    /// First data block covered.
    pub group_start: u64,
    /// Number of blocks covered.
    pub group_blocks: u32,
    words: Arc<Vec<u64>>,
}

impl BitmapBlock {
    /// Creates an all-free bitmap for a group.
    pub fn new_free(group: u32, group_start: u64, group_blocks: u32) -> Self {
        let words = vec![0u64; group_blocks.div_ceil(64) as usize];
        BitmapBlock {
            group,
            group_start,
            group_blocks,
            words: Arc::new(words),
        }
    }

    /// Whether block-in-group `i` is allocated.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside the group.
    pub fn get(&self, i: u32) -> bool {
        assert!(i < self.group_blocks, "bit {i} outside group");
        (self.words[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    /// Returns a copy with block-in-group `i` set to `allocated`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside the group.
    pub fn with(&self, i: u32, allocated: bool) -> Self {
        assert!(i < self.group_blocks, "bit {i} outside group");
        let mut words = (*self.words).clone();
        if allocated {
            words[(i / 64) as usize] |= 1 << (i % 64);
        } else {
            words[(i / 64) as usize] &= !(1 << (i % 64));
        }
        BitmapBlock {
            words: Arc::new(words),
            ..self.clone()
        }
    }

    /// Number of allocated blocks in the group.
    pub fn allocated_count(&self) -> u32 {
        let mut n: u32 = self.words.iter().map(|w| w.count_ones()).sum();
        // Mask padding bits beyond group_blocks.
        let excess = (self.words.len() as u32 * 64).saturating_sub(self.group_blocks);
        debug_assert!(excess < 64);
        if excess > 0 {
            if let Some(last) = self.words.last() {
                let pad_mask = !0u64 << (64 - excess);
                n -= (last & pad_mask).count_ones();
            }
        }
        n
    }

    /// Whether the *absolute* block number `vba` is allocated, if covered
    /// by this group.
    pub fn covers_and_allocated(&self, vba: u64) -> Option<bool> {
        if vba >= self.group_start && vba < self.group_start + self.group_blocks as u64 {
            Some(self.get((vba - self.group_start) as u32))
        } else {
            None
        }
    }

    /// Index of the first free block in the group, if any.
    pub fn first_free(&self) -> Option<u32> {
        let (w, word) = self.words.iter().enumerate().find(|&(_, &word)| word != u64::MAX)?;
        // A zero bit past `group_blocks` is padding in the last word.
        let bit = w as u32 * 64 + word.trailing_ones();
        (bit < self.group_blocks).then_some(bit)
    }
}

// The words inline, length-prefixed.
ckptstore::wire!(struct BitmapBlock {
    group,
    group_start,
    group_blocks,
    words,
    check words.len() == group_blocks.div_ceil(64) as usize => "bitmap word count",
});

/// An ordered map of dirty blocks: the in-memory index of a redo-log delta.
///
/// Keeps both the index (vba → slot) the paper describes as "a single
/// hash lookup to index into the log" — whose cost is the disk model's,
/// in simulated time; on the host it is a [`BlockTable`] — and the append
/// order, which is the physical layout of the log on disk.
#[derive(Clone, Debug, Default)]
pub struct DeltaMap {
    index: BlockTable,
    entries: Vec<(u64, BlockData)>,
}

impl DeltaMap {
    /// Creates an empty delta.
    pub fn new() -> Self {
        DeltaMap::default()
    }

    /// Number of distinct blocks in the delta.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if no blocks were written.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Looks up a block; returns its log slot and content.
    pub fn get(&self, vba: u64) -> Option<(usize, &BlockData)> {
        self.index.get(vba).map(|slot| (slot as usize, &self.entries[slot as usize].1))
    }

    /// Inserts or overwrites a block. A fresh vba appends a new log slot;
    /// an overwrite reuses the existing slot (the log stores one live copy
    /// per block; superseded copies are reclaimed on merge). Returns the
    /// slot and whether it was newly appended.
    pub fn put(&mut self, vba: u64, data: BlockData) -> (usize, bool) {
        match self.index.get(vba) {
            Some(slot) => {
                self.entries[slot as usize].1 = data;
                (slot as usize, false)
            }
            None => {
                let slot = self.entries.len();
                self.entries.push((vba, data));
                self.index.insert(vba, slot as u64);
                (slot, true)
            }
        }
    }

    /// Removes a block from the delta (free-block elimination).
    pub fn remove(&mut self, vba: u64) -> bool {
        if let Some(slot) = self.index.remove(vba) {
            // Keep the entries vector slot as a tombstone so other slots
            // stay valid; merged/serialized output skips tombstones.
            let slot = slot as usize;
            self.entries[slot].1 = BlockData::Zero;
            self.entries[slot].0 = u64::MAX;
            true
        } else {
            false
        }
    }

    /// Iterates live `(vba, data)` pairs in log (append) order.
    pub fn iter_log_order(&self) -> impl Iterator<Item = (u64, &BlockData)> {
        self.entries
            .iter()
            .filter(|(vba, _)| *vba != u64::MAX)
            .map(|(vba, d)| (*vba, d))
    }

    /// Iterates live `(vba, data)` pairs in vba order (the
    /// locality-restoring order).
    pub fn iter_vba_order(&self) -> impl Iterator<Item = (u64, &BlockData)> {
        self.index.iter().map(|(vba, slot)| (vba, &self.entries[slot as usize].1))
    }

    /// All live vbas in log order — the order a mirror leg walks the
    /// delta volume, and one that does not depend on the index's hasher.
    pub fn vbas(&self) -> Vec<u64> {
        self.iter_log_order().map(|(vba, _)| vba).collect()
    }

    /// Delta payload size in bytes for a given block size.
    pub fn byte_size(&self, block_size: u32) -> u64 {
        self.len() as u64 * block_size as u64
    }

    /// Serializes the delta in two sections.
    ///
    /// The *meta* section records the full log — every slot's vba and a
    /// content tag, with tombstones and bitmap/zero payloads inline. The
    /// *data* section, padded to a `block_size` boundary, then carries
    /// one exactly-`block_size`-byte block record per live opaque block in
    /// log order ([`Enc::record`]: the 8-byte fingerprint followed by a
    /// SplitMix64 fill seeded by it, the simulator's stand-in for the
    /// block's 4 KiB payload). At the store's chunk size each record is
    /// one segment, sealed as its fingerprint: the image is as long, and
    /// its chunks have the addresses, that the written-out bytes would
    /// have, but no record is written out. Because the log is append-only
    /// and records are chunk-aligned, a child delta's encoding shares
    /// every parent block's chunks — which is what the content-addressed
    /// store dedups.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is not a positive multiple of 16.
    pub fn encode_wire(&self, e: &mut Enc, block_size: u32) {
        assert!(block_size >= 16 && block_size.is_multiple_of(16), "bad block size");
        e.seq(self.entries.len());
        for (vba, data) in &self.entries {
            e.u64(*vba);
            if *vba == u64::MAX {
                e.u8(0); // Tombstone (eliminated block); no payload anywhere.
                continue;
            }
            match data {
                BlockData::Zero => e.u8(1),
                BlockData::Opaque(_) => e.u8(2), // Payload in the data section.
                BlockData::Bitmap(bm) => {
                    e.u8(3);
                    bm.put(e, &mut ());
                }
            }
        }
        e.pad_to(block_size as usize);
        for (vba, data) in &self.entries {
            if *vba == u64::MAX {
                continue;
            }
            if let BlockData::Opaque(fp) = data {
                e.record(*fp, block_size as usize);
            }
        }
    }

    /// Inverse of [`DeltaMap::encode_wire`], for a disk of `blocks`
    /// blocks: a live vba at or beyond it is refused.
    pub fn decode_wire(d: &mut Dec<'_>, block_size: u32, blocks: u64) -> Result<Self, DecodeError> {
        let n = d.seq()?;
        let mut entries = Vec::with_capacity(d.capacity_for::<(u64, BlockData)>(n));
        // Slots whose payload lives in the data section, in log order.
        let mut opaque_slots = Vec::new();
        for slot in 0..n {
            let vba = d.u64()?;
            if vba != u64::MAX && vba >= blocks {
                return Err(DecodeError::Invalid("delta block beyond the disk"));
            }
            let at = d.position();
            match d.u8()? {
                0 => {
                    if vba != u64::MAX {
                        return Err(DecodeError::Invalid("tombstone with a live vba"));
                    }
                    entries.push((u64::MAX, BlockData::Zero));
                }
                1 => entries.push((vba, BlockData::Zero)),
                2 => {
                    opaque_slots.push(slot);
                    entries.push((vba, BlockData::Opaque(0))); // Patched below.
                }
                3 => entries.push((vba, BlockData::Bitmap(Wire::get(d, &())?))),
                tag => return Err(DecodeError::BadTag { at, tag, what: "block data" }),
            }
        }
        d.align_to(block_size as usize)?;
        for slot in opaque_slots {
            let fp = read_block_record(d, block_size)?;
            entries[slot].1 = BlockData::Opaque(fp);
        }
        let mut index = BlockTable::new();
        for (slot, (vba, _)) in entries.iter().enumerate() {
            if *vba != u64::MAX && index.insert(*vba, slot as u64).is_some() {
                return Err(DecodeError::Invalid("duplicate delta vba"));
            }
        }
        Ok(DeltaMap { index, entries })
    }
}

/// Reads one block record back, returning the fingerprint. The fill is
/// skipped, never made — the store's content hash already guards its
/// integrity.
fn read_block_record(d: &mut Dec<'_>, block_size: u32) -> Result<u64, DecodeError> {
    let fp = d.u64()?;
    d.skip(block_size as usize - 8)?;
    Ok(fp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_set_get_roundtrip() {
        let b = BitmapBlock::new_free(0, 1000, 200);
        assert!(!b.get(5));
        let b2 = b.with(5, true);
        assert!(b2.get(5));
        assert!(!b.get(5), "original is immutable");
        assert_eq!(b2.allocated_count(), 1);
    }

    #[test]
    fn bitmap_absolute_lookup() {
        let b = BitmapBlock::new_free(0, 1000, 200).with(10, true);
        assert_eq!(b.covers_and_allocated(1010), Some(true));
        assert_eq!(b.covers_and_allocated(1011), Some(false));
        assert_eq!(b.covers_and_allocated(999), None);
        assert_eq!(b.covers_and_allocated(1200), None);
    }

    #[test]
    fn bitmap_allocated_count_ignores_padding() {
        // 10-block group: padding bits in the single word must not count.
        let mut b = BitmapBlock::new_free(0, 0, 10);
        for i in 0..10 {
            b = b.with(i, true);
        }
        assert_eq!(b.allocated_count(), 10);
    }

    #[test]
    fn first_free_scans_in_order() {
        let b = BitmapBlock::new_free(0, 0, 4).with(0, true).with(1, true);
        assert_eq!(b.first_free(), Some(2));
        let full = b.with(2, true).with(3, true);
        assert_eq!(full.first_free(), None);
    }

    #[test]
    fn first_free_agrees_with_the_bit_by_bit_scan() {
        fn bitwise(b: &BitmapBlock) -> Option<u32> {
            (0..b.group_blocks).find(|&i| !b.get(i))
        }
        // Whole words, a partial last word, and a group inside one word.
        for blocks in [256u32, 200, 129, 65, 64, 63, 17, 1] {
            let mut b = BitmapBlock::new_free(0, 0, blocks);
            assert_eq!(b.first_free(), Some(0));
            // Fill front to back: the answer walks every bit, then None.
            for i in 0..blocks {
                b = b.with(i, true);
                assert_eq!(b.first_free(), bitwise(&b), "{blocks} blocks, {i} filled");
            }
            assert_eq!(b.first_free(), None, "{blocks} blocks, full");
            // Holes: freeing any one bit of a full group finds that bit.
            for i in (0..blocks).step_by(7).chain([blocks - 1]) {
                let holed = b.with(i, false);
                assert_eq!(holed.first_free(), Some(i));
                let two = holed.with(blocks / 2, false);
                assert_eq!(two.first_free(), bitwise(&two));
            }
        }
    }

    #[test]
    fn delta_overwrite_reuses_slot() {
        let mut d = DeltaMap::new();
        let (s1, fresh1) = d.put(42, BlockData::Opaque(1));
        let (s2, fresh2) = d.put(42, BlockData::Opaque(2));
        assert!(fresh1 && !fresh2);
        assert_eq!(s1, s2);
        assert_eq!(d.len(), 1);
        assert_eq!(d.get(42).unwrap().1, &BlockData::Opaque(2));
    }

    #[test]
    fn delta_log_order_preserved() {
        let mut d = DeltaMap::new();
        d.put(5, BlockData::Opaque(50));
        d.put(1, BlockData::Opaque(10));
        d.put(9, BlockData::Opaque(90));
        let order: Vec<u64> = d.iter_log_order().map(|(v, _)| v).collect();
        assert_eq!(order, vec![5, 1, 9]);
        let sorted: Vec<(u64, &BlockData)> = d.iter_vba_order().collect();
        assert_eq!(
            sorted,
            vec![
                (1, &BlockData::Opaque(10)),
                (5, &BlockData::Opaque(50)),
                (9, &BlockData::Opaque(90))
            ]
        );
    }

    #[test]
    fn delta_remove_tombstones() {
        let mut d = DeltaMap::new();
        d.put(5, BlockData::Opaque(50));
        d.put(6, BlockData::Opaque(60));
        assert!(d.remove(5));
        assert!(!d.remove(5));
        assert_eq!(d.len(), 1);
        assert!(d.get(5).is_none());
        let order: Vec<u64> = d.iter_log_order().map(|(v, _)| v).collect();
        assert_eq!(order, vec![6]);
    }

    #[test]
    fn delta_byte_size() {
        let mut d = DeltaMap::new();
        d.put(1, BlockData::Opaque(1));
        d.put(2, BlockData::Opaque(2));
        assert_eq!(d.byte_size(4096), 8192);
    }

    fn delta_eq(a: &DeltaMap, b: &DeltaMap) {
        let av: Vec<_> = a.iter_log_order().map(|(v, d)| (v, d.clone())).collect();
        let bv: Vec<_> = b.iter_log_order().map(|(v, d)| (v, d.clone())).collect();
        assert_eq!(av, bv);
        assert_eq!(a.entries.len(), b.entries.len(), "tombstones preserved");
    }

    #[test]
    fn delta_wire_round_trip_with_all_content_kinds() {
        let mut d = DeltaMap::new();
        d.put(5, BlockData::Opaque(0xAB));
        d.put(1, BlockData::Zero);
        d.put(9, BlockData::Bitmap(BitmapBlock::new_free(2, 4000, 100).with(7, true)));
        d.put(12, BlockData::Opaque(0xCD));
        d.remove(5); // Tombstone mid-log.

        let mut e = Enc::new();
        d.encode_wire(&mut e, 4096);
        let bytes = e.into_bytes();
        let mut dec = Dec::new(&bytes);
        let back = DeltaMap::decode_wire(&mut dec, 4096, 13).unwrap();
        delta_eq(&d, &back);
        assert_eq!(back.get(9).unwrap().1, d.get(9).unwrap().1);
        assert!(back.get(5).is_none());
    }

    /// A capture seals each live opaque block as its fingerprint, and a
    /// decode from those segments reads the fingerprints and skips the
    /// fills: neither writes a record out.
    #[test]
    fn delta_decode_from_record_segments_writes_no_record_out() {
        let mut d = DeltaMap::new();
        for i in 0..40u64 {
            d.put(i * 3, BlockData::Opaque(i ^ 0xA5A5));
        }
        d.put(500, BlockData::Zero);
        d.put(501, BlockData::Bitmap(BitmapBlock::new_free(1, 64, 100).with(3, true)));
        d.remove(9); // Tombstone: no record.
        let before = ckptstore::records_materialised();
        let mut e = Enc::new();
        d.encode_wire(&mut e, 4096);
        let segs = e.into_segments();
        let records = segs.iter().filter(|s| matches!(s, ckptstore::Segment::Record(_))).count();
        assert_eq!(records, 39, "one record per live opaque block");
        let back = DeltaMap::decode_wire(&mut Dec::chunked(&segs), 4096, 600).unwrap();
        assert_eq!(ckptstore::records_materialised(), before, "a record was written out");
        delta_eq(&d, &back);
    }

    #[test]
    fn delta_encoding_is_append_stable() {
        // A child delta that extends the parent's log shares every byte
        // of the parent's data section — the dedup-bearing property.
        let mut parent = DeltaMap::new();
        for i in 0..20u64 {
            parent.put(i * 7, BlockData::Opaque(i + 100));
        }
        let mut child = parent.clone();
        child.put(999, BlockData::Opaque(7777));

        let (mut ep, mut ec) = (Enc::new(), Enc::new());
        parent.encode_wire(&mut ep, 4096);
        child.encode_wire(&mut ec, 4096);
        let (pb, cb) = (ep.into_bytes(), ec.into_bytes());
        // Data sections start at the first 4096 boundary; the parent's
        // whole data section is a prefix of the child's.
        assert_eq!(pb[4096..], cb[4096..4096 + (pb.len() - 4096)]);
    }

    #[test]
    fn block_record_bytes_match_the_field_by_field_encoding() {
        // The reference: one `Enc::u64` push per word.
        fn by_words(e: &mut Enc, fp: u64, block_size: u32) {
            e.u64(fp);
            let mut state = fp;
            for _ in 0..(block_size as usize / 8 - 1) {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                e.u64(z ^ (z >> 31));
            }
        }
        // Records need not start aligned; the ones that do (4096 with no
        // prefix) are sealed as their fingerprint and written out by
        // `into_bytes`.
        for (block_size, prefix) in [(16u32, 1), (48, 1), (4096, 1), (4096, 0)] {
            let (mut got, mut want) = (Enc::new(), Enc::new());
            for e in [&mut got, &mut want] {
                e.raw(&[0xEE; 1][..prefix]);
            }
            for fp in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
                got.record(fp, block_size as usize);
                by_words(&mut want, fp, block_size);
            }
            assert_eq!(got.into_bytes(), want.into_bytes(), "block size {block_size}");
        }
    }

    #[test]
    fn delta_wire_truncation_is_typed_error() {
        let mut d = DeltaMap::new();
        d.put(1, BlockData::Opaque(42));
        let mut e = Enc::new();
        d.encode_wire(&mut e, 4096);
        let mut bytes = e.into_bytes();
        bytes.truncate(bytes.len() - 100);
        let mut dec = Dec::new(&bytes);
        assert!(DeltaMap::decode_wire(&mut dec, 4096, 2).is_err());
    }

    #[test]
    fn delta_wire_refuses_blocks_beyond_the_disk_and_duplicates() {
        let mut d = DeltaMap::new();
        d.put(7, BlockData::Opaque(1));
        d.put(8, BlockData::Zero);
        d.remove(8);
        let mut e = Enc::new();
        d.encode_wire(&mut e, 4096);
        let bytes = e.into_bytes();
        // Meta section: a u32 count, then per slot a u64 vba and a tag.
        let vba_at = |slot: usize| 4 + slot * 9;
        assert!(DeltaMap::decode_wire(&mut Dec::new(&bytes), 4096, 8).is_ok());
        assert_eq!(
            DeltaMap::decode_wire(&mut Dec::new(&bytes), 4096, 7).err(),
            Some(DecodeError::Invalid("delta block beyond the disk"))
        );
        let mut dup = bytes.clone();
        dup[vba_at(1)..vba_at(1) + 8].copy_from_slice(&7u64.to_le_bytes());
        dup[vba_at(1) + 8] = 1; // A live zero block where the tombstone was.
        assert_eq!(
            DeltaMap::decode_wire(&mut Dec::new(&dup), 4096, 8).err(),
            Some(DecodeError::Invalid("duplicate delta vba"))
        );
    }

    /// The reference every [`BlockTable`] operation is checked against.
    fn check_against(t: &BlockTable, want: &std::collections::BTreeMap<u64, u64>) {
        assert_eq!(t.len(), want.len());
        assert_eq!(t.is_empty(), want.is_empty());
        let got: Vec<(u64, u64)> = t.iter().collect();
        let want: Vec<(u64, u64)> = want.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(got, want, "iteration is the reference's, in key order");
    }

    #[test]
    fn block_table_agrees_with_a_btreemap() {
        use std::collections::BTreeMap;
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        // Key shapes: sequential runs (a file written front to back),
        // the block-group stride (bitmap blocks), and sparse keys.
        type Shape = fn(u64, u64) -> u64;
        let shapes: [(&str, Shape); 3] = [
            ("runs", |i, r| (r % 64) * 1000 + i % 700),
            ("group stride", |i, r| (i % 40) * 8192 + r % 3),
            ("sparse", |_, r| r % 1_000_000),
        ];
        for (name, key) in shapes {
            let mut t = BlockTable::new();
            let mut want = BTreeMap::new();
            for i in 0..20_000u64 {
                let r = next();
                let k = key(i, r);
                match r >> 60 {
                    0..=8 => {
                        let v = r >> 4;
                        assert_eq!(t.insert(k, v), want.insert(k, v), "{name}: insert {k}");
                    }
                    9..=12 => assert_eq!(t.remove(k), want.remove(&k), "{name}: remove {k}"),
                    _ => {}
                }
                if i % 6_000 == 5_999 {
                    t.clear();
                    want.clear();
                }
                assert_eq!(t.get(k), want.get(&k).copied(), "{name}: get {k}");
                assert_eq!(t.contains(k), want.contains_key(&k), "{name}: contains {k}");
                if i % 2_500 == 0 {
                    check_against(&t, &want);
                    // A clone is independent of its source, both ways.
                    let mut copy = t.clone();
                    let mut copy_want = want.clone();
                    copy.insert(k, 1);
                    copy_want.insert(k, 1);
                    copy.remove(k + 1);
                    copy_want.remove(&(k + 1));
                    check_against(&copy, &copy_want);
                    check_against(&t, &want);
                    t.insert(k + 2, 2);
                    want.insert(k + 2, 2);
                    check_against(&copy, &copy_want);
                }
            }
            check_against(&t, &want);
            assert!(!want.is_empty(), "{name}: the mix must leave keys behind");
        }
    }

    #[test]
    fn block_table_looks_up_keys_it_never_allocated() {
        let mut t = BlockTable::new();
        assert_eq!(t.get(u64::MAX), None);
        assert_eq!(t.remove(u64::MAX - 1), None);
        t.insert(511, 5);
        t.insert(512, 6);
        let got = (t.get(511), t.get(512), t.get(513), t.get(1 << 40));
        assert_eq!(got, (Some(5), Some(6), None, None));
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(511, 5), (512, 6)]);
    }

    #[test]
    #[should_panic(expected = "empty block-table entry")]
    fn block_table_refuses_the_empty_marker_as_a_value() {
        BlockTable::new().insert(3, u64::MAX);
    }
}
