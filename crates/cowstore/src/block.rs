//! Block content representation and delta maps.
//!
//! The simulator does not shuffle real 4 KiB buffers around; a block's
//! content is a compact [`BlockData`] value that is enough to (a) verify
//! read-your-writes correctness, and (b) let the free-block-elimination
//! plugin *decode* filesystem allocation bitmaps exactly as the paper's
//! ext3 snooping plugin does below the guest (§5.1).

use std::sync::Arc;

use ckptstore::{Dec, DecodeError, Enc};
use sim::IntMap;

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

    /// Serializes a single block value inline (fingerprints stay compact;
    /// bulk delta payloads go through [`DeltaMap::encode_wire`] instead,
    /// which emits chunk-aligned full-size records for dedup).
    pub fn encode_wire(&self, e: &mut Enc) {
        match self {
            BlockData::Zero => e.u8(0),
            BlockData::Opaque(fp) => {
                e.u8(1);
                e.u64(*fp);
            }
            BlockData::Bitmap(bm) => {
                e.u8(2);
                bm.encode_wire(e);
            }
        }
    }

    /// Inverse of [`BlockData::encode_wire`].
    pub fn decode_wire(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let at = d.position();
        match d.u8()? {
            0 => Ok(BlockData::Zero),
            1 => Ok(BlockData::Opaque(d.u64()?)),
            2 => Ok(BlockData::Bitmap(BitmapBlock::decode_wire(d)?)),
            tag => Err(DecodeError::BadTag { at, tag, what: "block data" }),
        }
    }
}

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

    /// Serializes the bitmap (words inline, length-prefixed).
    pub fn encode_wire(&self, e: &mut Enc) {
        e.u32(self.group);
        e.u64(self.group_start);
        e.u32(self.group_blocks);
        e.seq(self.words.len());
        for w in self.words.iter() {
            e.u64(*w);
        }
    }

    /// Inverse of [`BitmapBlock::encode_wire`].
    pub fn decode_wire(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let group = d.u32()?;
        let group_start = d.u64()?;
        let group_blocks = d.u32()?;
        let n = d.seq()?;
        if n != group_blocks.div_ceil(64) as usize {
            return Err(DecodeError::Invalid("bitmap word count"));
        }
        let mut words = Vec::with_capacity(n);
        for _ in 0..n {
            words.push(d.u64()?);
        }
        Ok(BitmapBlock { group, group_start, group_blocks, words: Arc::new(words) })
    }
}

/// An ordered map of dirty blocks: the in-memory index of a redo-log delta.
///
/// Keeps both the hash index (vba → slot) the paper describes ("writes
/// incur the cost of a single hash lookup to index into the log") and the
/// append order, which is the physical layout of the log on disk.
#[derive(Clone, Debug, Default)]
pub struct DeltaMap {
    index: IntMap<u64, usize>,
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
        self.index.get(&vba).map(|&slot| (slot, &self.entries[slot].1))
    }

    /// Inserts or overwrites a block. A fresh vba appends a new log slot;
    /// an overwrite reuses the existing slot (the log stores one live copy
    /// per block; superseded copies are reclaimed on merge). Returns the
    /// slot and whether it was newly appended.
    pub fn put(&mut self, vba: u64, data: BlockData) -> (usize, bool) {
        match self.index.get(&vba) {
            Some(&slot) => {
                self.entries[slot].1 = data;
                (slot, false)
            }
            None => {
                let slot = self.entries.len();
                self.entries.push((vba, data));
                self.index.insert(vba, slot);
                (slot, true)
            }
        }
    }

    /// Removes a block from the delta (free-block elimination).
    pub fn remove(&mut self, vba: u64) -> bool {
        if let Some(slot) = self.index.remove(&vba) {
            // Keep the entries vector slot as a tombstone so other slots
            // stay valid; merged/serialized output skips tombstones.
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

    /// Live `(vba, data)` pairs sorted by vba (locality-restoring order).
    pub fn sorted_by_vba(&self) -> Vec<(u64, BlockData)> {
        let mut v: Vec<(u64, BlockData)> = self
            .iter_log_order()
            .map(|(vba, d)| (vba, d.clone()))
            .collect();
        v.sort_by_key(|&(vba, _)| vba);
        v
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
    /// one exactly-`block_size`-byte record per live opaque block in log
    /// order: the 8-byte fingerprint followed by a fill synthesized
    /// deterministically from it (the simulator's stand-in for the
    /// block's 4 KiB payload). Because the log is append-only and records
    /// are chunk-aligned, a child delta's encoding shares every parent
    /// block's chunks — which is what the content-addressed store dedups.
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
                    bm.encode_wire(e);
                }
            }
        }
        e.pad_to(block_size as usize);
        for (vba, data) in &self.entries {
            if *vba == u64::MAX {
                continue;
            }
            if let BlockData::Opaque(fp) = data {
                synth_block_record(e, *fp, block_size);
            }
        }
    }

    /// Inverse of [`DeltaMap::encode_wire`].
    pub fn decode_wire(d: &mut Dec<'_>, block_size: u32) -> Result<Self, DecodeError> {
        let n = d.seq()?;
        let mut entries: Vec<(u64, BlockData)> = Vec::with_capacity(n);
        // Slots whose payload lives in the data section, in log order.
        let mut opaque_slots = Vec::new();
        for slot in 0..n {
            let vba = d.u64()?;
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
                3 => entries.push((vba, BlockData::Bitmap(BitmapBlock::decode_wire(d)?))),
                tag => return Err(DecodeError::BadTag { at, tag, what: "block data" }),
            }
        }
        d.align_to(block_size as usize)?;
        for slot in opaque_slots {
            let fp = read_block_record(d, block_size)?;
            entries[slot].1 = BlockData::Opaque(fp);
        }
        let mut index = IntMap::with_capacity_and_hasher(entries.len(), Default::default());
        for (slot, (vba, _)) in entries.iter().enumerate() {
            if *vba != u64::MAX {
                index.insert(*vba, slot);
            }
        }
        Ok(DeltaMap { index, entries })
    }
}

/// Writes one data-section block record: the fingerprint plus a
/// SplitMix64 fill expanded from it, exactly `block_size` bytes total.
fn synth_block_record(e: &mut Enc, fp: u64, block_size: u32) {
    e.fill(block_size as usize, |record| {
        let mut words = record.chunks_exact_mut(8);
        words.next().expect("block_size >= 16").copy_from_slice(&fp.to_le_bytes());
        let mut state = fp;
        for word in words {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            word.copy_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
    });
}

/// Reads one block record back, returning the fingerprint. The fill is
/// skipped — the store's content hash already guards its integrity.
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
        let sorted: Vec<u64> = d.sorted_by_vba().into_iter().map(|(v, _)| v).collect();
        assert_eq!(sorted, vec![1, 5, 9]);
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
        let back = DeltaMap::decode_wire(&mut dec, 4096).unwrap();
        delta_eq(&d, &back);
        assert_eq!(back.get(9).unwrap().1, d.get(9).unwrap().1);
        assert!(back.get(5).is_none());
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
        // prefix) are written in place in an encoder segment.
        for (block_size, prefix) in [(16u32, 1), (48, 1), (4096, 1), (4096, 0)] {
            let (mut got, mut want) = (Enc::new(), Enc::new());
            for e in [&mut got, &mut want] {
                e.raw(&[0xEE; 1][..prefix]);
            }
            for fp in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
                synth_block_record(&mut got, fp, block_size);
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
        assert!(DeltaMap::decode_wire(&mut dec, 4096).is_err());
    }
}
