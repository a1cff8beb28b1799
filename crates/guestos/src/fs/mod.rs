//! An ext3-like filesystem: block groups, allocation bitmaps, flat inodes.
//!
//! What matters for the paper is the *on-disk metadata shape*: allocation
//! state lives in per-group bitmap blocks at fixed addresses, and every
//! allocate/free updates the corresponding bitmap block through the block
//! layer — which is what the free-block-elimination snoop decodes below
//! the guest (§5.1). Files are flat (id → block list); directories and
//! permissions add nothing to the evaluation and are omitted.

pub mod cache;

pub use cache::BufferCache;

use ckptstore::{Dec, DecodeError, Enc};
use cowstore::{BitmapBlock, BlockData, BlockTable};
use sim::IntMap;

use crate::prog::FileId;

/// A file's metadata.
#[derive(Clone, Debug, Default)]
pub struct Inode {
    /// Logical block index → vba. Every index is below
    /// ⌈`size` ÷ block size⌉.
    pub blocks: BlockTable,
    /// File size in bytes.
    pub size: u64,
}

/// A block write the filesystem needs persisted (through the cache).
#[derive(Clone, Debug, PartialEq)]
pub struct FsWrite {
    pub vba: u64,
    pub data: BlockData,
}

/// The filesystem.
#[derive(Clone, Debug)]
pub struct Ext3Fs {
    block_size: u32,
    blocks_per_group: u32,
    groups: Vec<BitmapBlock>,
    files: IntMap<FileId, Inode>,
    rotor: u32,
    /// Monotonic content version, so rewrites produce distinct block data.
    version: u64,
    /// Allocation failures (disk full).
    pub enospc: u64,
}

impl Ext3Fs {
    /// Formats a filesystem over `total_blocks`. The first block of each
    /// group is its allocation bitmap (pre-allocated in itself).
    pub fn format(total_blocks: u64, block_size: u32, blocks_per_group: u32) -> Self {
        assert!(blocks_per_group >= 16, "group too small");
        let ngroups = total_blocks.div_ceil(blocks_per_group as u64) as u32;
        let mut groups = Vec::with_capacity(ngroups as usize);
        for g in 0..ngroups {
            let start = g as u64 * blocks_per_group as u64;
            let count = blocks_per_group.min((total_blocks - start) as u32);
            // Bit 0 = the bitmap block itself: allocated.
            let bm = BitmapBlock::new_free(g, start, count).with(0, true);
            groups.push(bm);
        }
        Ext3Fs {
            block_size,
            blocks_per_group,
            groups,
            files: IntMap::default(),
            rotor: 0,
            version: 0,
            enospc: 0,
        }
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> u32 {
        self.block_size
    }

    /// The vba of group `g`'s bitmap block.
    pub fn bitmap_vba(&self, g: u32) -> u64 {
        g as u64 * self.blocks_per_group as u64
    }

    /// Blocks the groups cover: the disk's size, and the largest file.
    pub fn span(&self) -> u64 {
        span_of(&self.groups)
    }

    /// Total allocated data blocks (excluding bitmap blocks themselves).
    pub fn allocated_blocks(&self) -> u64 {
        self.groups
            .iter()
            .map(|b| b.allocated_count() as u64 - 1)
            .sum()
    }

    /// Whether a file exists.
    pub fn exists(&self, file: FileId) -> bool {
        self.files.contains_key(&file)
    }

    /// A file's current size in bytes.
    pub fn size_of(&self, file: FileId) -> Option<u64> {
        self.files.get(&file).map(|i| i.size)
    }

    /// Creates an empty file.
    ///
    /// Returns `Err` if it already exists.
    pub fn create(&mut self, file: FileId) -> Result<(), &'static str> {
        if self.files.contains_key(&file) {
            return Err("exists");
        }
        self.files.insert(file, Inode::default());
        Ok(())
    }

    fn alloc_block(&mut self) -> Option<(u64, FsWrite)> {
        let ngroups = self.groups.len() as u32;
        for probe in 0..ngroups {
            let g = ((self.rotor + probe) % ngroups) as usize;
            if let Some(bit) = self.groups[g].first_free() {
                let newbm = self.groups[g].with(bit, true);
                let vba = newbm.group_start + bit as u64;
                let write = FsWrite {
                    vba: self.bitmap_vba(g as u32),
                    data: BlockData::Bitmap(newbm.clone()),
                };
                self.groups[g] = newbm;
                self.rotor = g as u32;
                return Some((vba, write));
            }
        }
        self.enospc += 1;
        None
    }

    /// Writes `[offset, offset+bytes)` of `file`, allocating blocks as
    /// needed. Returns the block writes to persist (data blocks plus any
    /// bitmap updates) — the caller pushes them through the buffer cache.
    ///
    /// Returns `Err` if the file does not exist, if the write would end
    /// beyond the disk's size (a file is never larger than its disk, so
    /// every block index is below the disk's block count), or if the disk
    /// fills up. A write that fills the disk is short: the blocks it
    /// mapped stay, and the file's size grows over them.
    pub fn write(
        &mut self,
        file: FileId,
        offset: u64,
        bytes: u64,
    ) -> Result<Vec<FsWrite>, &'static str> {
        if bytes == 0 {
            return Ok(Vec::new());
        }
        if !self.files.contains_key(&file) {
            return Err("no such file");
        }
        let bs = self.block_size as u64;
        let end = offset
            .checked_add(bytes)
            .filter(|&end| end <= self.span().saturating_mul(bs))
            .ok_or("efbig")?;
        let first = offset / bs;
        let last = (end - 1) / bs;
        let mut out = Vec::new();
        self.version += 1;
        let version = self.version;
        for idx in first..=last {
            let existing = self.files.get(&file).expect("checked").blocks.get(idx);
            let vba = match existing {
                Some(v) => v,
                None => {
                    let Some((vba, bmw)) = self.alloc_block() else {
                        // Short write: it ends where this block begins, so
                        // the size covers every index it mapped.
                        if idx > first {
                            let inode = self.files.get_mut(&file).expect("checked");
                            inode.size = inode.size.max(idx * bs);
                        }
                        return Err("enospc");
                    };
                    // Dedupe consecutive bitmap writes to the same group.
                    if out.last().map(|w: &FsWrite| w.vba) != Some(bmw.vba) {
                        out.push(bmw);
                    } else {
                        *out.last_mut().expect("nonempty") = bmw;
                    }
                    self.files
                        .get_mut(&file)
                        .expect("checked")
                        .blocks
                        .insert(idx, vba);
                    vba
                }
            };
            // Content fingerprint: (file, block index, version).
            let fp = file.0 ^ idx.wrapping_mul(0x9E37_79B9) ^ version.wrapping_mul(0xDEAD_BEEF);
            out.push(FsWrite {
                vba,
                data: BlockData::Opaque(fp),
            });
        }
        let inode = self.files.get_mut(&file).expect("checked");
        inode.size = inode.size.max(end);
        Ok(out)
    }

    /// Resolves `[offset, offset+bytes)` of `file` to vbas for reading.
    /// Holes (never-written blocks) are absent from the result — they read
    /// as zeros with no I/O.
    pub fn read_vbas(&self, file: FileId, offset: u64, bytes: u64) -> Result<Vec<u64>, &'static str> {
        let inode = self.files.get(&file).ok_or("no such file")?;
        if bytes == 0 {
            return Ok(Vec::new());
        }
        let bs = self.block_size as u64;
        let first = offset / bs;
        let last = (offset + bytes - 1) / bs;
        Ok((first..=last)
            .filter_map(|idx| inode.blocks.get(idx))
            .collect())
    }

    /// Deletes a file, freeing its blocks. Returns the bitmap writes to
    /// persist and the freed vbas (for cache invalidation).
    pub fn delete(&mut self, file: FileId) -> Result<(Vec<FsWrite>, Vec<u64>), &'static str> {
        let inode = self.files.remove(&file).ok_or("no such file")?;
        let mut freed: Vec<u64> = inode.blocks.iter().map(|(_, vba)| vba).collect();
        freed.sort_unstable();
        // Batch bitmap updates per group.
        let mut touched: IntMap<u32, BitmapBlock> = IntMap::default();
        for &vba in &freed {
            let g = (vba / self.blocks_per_group as u64) as u32;
            let bm = touched
                .entry(g)
                .or_insert_with(|| self.groups[g as usize].clone());
            let bit = (vba - bm.group_start) as u32;
            *bm = bm.with(bit, false);
        }
        let mut writes = Vec::new();
        for (g, bm) in touched {
            self.groups[g as usize] = bm.clone();
            writes.push(FsWrite {
                vba: self.bitmap_vba(g),
                data: BlockData::Bitmap(bm),
            });
        }
        writes.sort_by_key(|w| w.vba);
        Ok((writes, freed))
    }

    /// Serializes the filesystem: geometry, group bitmaps in order, files
    /// sorted by id with their block maps sorted by logical index.
    pub fn encode_wire(&self, e: &mut Enc) {
        e.u32(self.block_size);
        e.u32(self.blocks_per_group);
        e.seq(self.groups.len());
        for g in &self.groups {
            g.encode_wire(e);
        }
        let mut ids: Vec<FileId> = self.files.keys().copied().collect();
        ids.sort_unstable_by_key(|f| f.0);
        e.seq(ids.len());
        for id in ids {
            let inode = &self.files[&id];
            e.u64(id.0);
            e.u64(inode.size);
            e.seq(inode.blocks.len());
            for (idx, vba) in inode.blocks.iter() {
                e.u64(idx);
                e.u64(vba);
            }
        }
        e.u32(self.rotor);
        e.u64(self.version);
        e.u64(self.enospc);
    }

    /// Inverse of [`Ext3Fs::encode_wire`]. Refuses a group that is not
    /// where and as large as [`Ext3Fs::format`] makes it, a file larger
    /// than the disk, a file block at or beyond the groups' span, and a
    /// block index at or beyond its file's size. Every block number is
    /// thereby below the span, which the bitmap words read bound: no
    /// table is sized by a number the image could make arbitrarily large.
    pub fn decode_wire(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let block_size = d.u32()?;
        if block_size == 0 {
            return Err(DecodeError::Invalid("zero fs block size"));
        }
        let blocks_per_group = d.u32()?;
        let ngroups = d.seq()?;
        let mut groups = Vec::with_capacity(ngroups);
        for g in 0..ngroups {
            let bm = BitmapBlock::decode_wire(d)?;
            let last = g + 1 == ngroups;
            if bm.group as usize != g
                || bm.group_start != g as u64 * u64::from(blocks_per_group)
                || bm.group_blocks > blocks_per_group
                || (!last && bm.group_blocks != blocks_per_group)
            {
                return Err(DecodeError::Invalid("fs block group geometry"));
            }
            groups.push(bm);
        }
        let span = span_of(&groups);
        let nfiles = d.seq()?;
        let mut files = IntMap::with_capacity_and_hasher(nfiles, Default::default());
        for _ in 0..nfiles {
            let id = FileId(d.u64()?);
            let size = d.u64()?;
            let indices = size.div_ceil(u64::from(block_size));
            if indices > span {
                return Err(DecodeError::Invalid("file larger than the disk"));
            }
            let nblocks = d.seq()?;
            let mut blocks = BlockTable::new();
            for _ in 0..nblocks {
                let idx = d.u64()?;
                let vba = d.u64()?;
                if idx >= indices {
                    return Err(DecodeError::Invalid("inode block index beyond the file size"));
                }
                if vba >= span {
                    return Err(DecodeError::Invalid("inode block beyond the disk"));
                }
                if blocks.insert(idx, vba).is_some() {
                    return Err(DecodeError::Invalid("duplicate inode block index"));
                }
            }
            if files.insert(id, Inode { blocks, size }).is_some() {
                return Err(DecodeError::Invalid("duplicate file id"));
            }
        }
        Ok(Ext3Fs {
            block_size,
            blocks_per_group,
            groups,
            files,
            rotor: d.u32()?,
            version: d.u64()?,
            enospc: d.u64()?,
        })
    }
}

/// The blocks `groups` cover, in order from block 0.
fn span_of(groups: &[BitmapBlock]) -> u64 {
    groups.last().map_or(0, |g| g.group_start + u64::from(g.group_blocks))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> Ext3Fs {
        Ext3Fs::format(10_000, 4096, 1000)
    }

    #[test]
    fn format_reserves_bitmap_blocks() {
        let f = fs();
        assert_eq!(f.allocated_blocks(), 0);
        // Bitmap vbas at group starts.
        assert_eq!(f.bitmap_vba(0), 0);
        assert_eq!(f.bitmap_vba(3), 3000);
    }

    #[test]
    fn write_allocates_blocks_and_updates_bitmaps() {
        let mut f = fs();
        f.create(FileId(1)).unwrap();
        // 3 blocks worth of data.
        let writes = f.write(FileId(1), 0, 3 * 4096).unwrap();
        let bitmap_writes = writes
            .iter()
            .filter(|w| matches!(w.data, BlockData::Bitmap(_)))
            .count();
        let data_writes = writes.len() - bitmap_writes;
        assert_eq!(data_writes, 3);
        assert!(bitmap_writes >= 1, "allocation persisted a bitmap");
        assert_eq!(f.allocated_blocks(), 3);
        assert_eq!(f.size_of(FileId(1)), Some(3 * 4096));
    }

    #[test]
    fn rewrite_does_not_reallocate() {
        let mut f = fs();
        f.create(FileId(1)).unwrap();
        let w1 = f.write(FileId(1), 0, 4096).unwrap();
        let w2 = f.write(FileId(1), 0, 4096).unwrap();
        assert_eq!(f.allocated_blocks(), 1);
        // Rewrite has no bitmap update and different content.
        assert!(w2.iter().all(|w| matches!(w.data, BlockData::Opaque(_))));
        let d1 = w1.iter().find(|w| matches!(w.data, BlockData::Opaque(_))).unwrap();
        let d2 = &w2[0];
        assert_eq!(d1.vba, d2.vba);
        assert_ne!(d1.data, d2.data, "new version, new content");
    }

    #[test]
    fn sequential_writes_allocate_contiguously() {
        let mut f = fs();
        f.create(FileId(1)).unwrap();
        let writes = f.write(FileId(1), 0, 10 * 4096).unwrap();
        let data_vbas: Vec<u64> = writes
            .iter()
            .filter(|w| matches!(w.data, BlockData::Opaque(_)))
            .map(|w| w.vba)
            .collect();
        for pair in data_vbas.windows(2) {
            assert_eq!(pair[1], pair[0] + 1, "contiguous allocation");
        }
    }

    #[test]
    fn delete_frees_blocks_in_bitmaps() {
        let mut f = fs();
        f.create(FileId(1)).unwrap();
        let _ = f.write(FileId(1), 0, 5 * 4096).unwrap();
        assert_eq!(f.allocated_blocks(), 5);
        let (writes, freed) = f.delete(FileId(1)).unwrap();
        assert_eq!(freed.len(), 5);
        assert_eq!(f.allocated_blocks(), 0);
        assert!(writes
            .iter()
            .all(|w| matches!(w.data, BlockData::Bitmap(_))));
        assert!(!f.exists(FileId(1)));
    }

    #[test]
    fn read_vbas_skips_holes() {
        let mut f = fs();
        f.create(FileId(1)).unwrap();
        // Write only the third block.
        let _ = f.write(FileId(1), 2 * 4096, 4096).unwrap();
        let vbas = f.read_vbas(FileId(1), 0, 3 * 4096).unwrap();
        assert_eq!(vbas.len(), 1);
    }

    #[test]
    fn disk_fills_up_with_enospc() {
        let mut f = Ext3Fs::format(64, 4096, 32);
        f.create(FileId(1)).unwrap();
        // 62 data blocks available (2 bitmaps).
        let r = f.write(FileId(1), 0, 63 * 4096);
        assert_eq!(r, Err("enospc"));
        assert_eq!(f.enospc, 1);
        // The write was short: the 62 blocks it mapped are inside the
        // file, so the image round-trips.
        assert_eq!(f.size_of(FileId(1)), Some(62 * 4096));
        assert_eq!(f.read_vbas(FileId(1), 0, 63 * 4096).unwrap().len(), 62);
        let mut e = Enc::new();
        f.encode_wire(&mut e);
        let bytes = e.into_bytes();
        let back = Ext3Fs::decode_wire(&mut Dec::new(&bytes)).unwrap();
        let mut e = Enc::new();
        back.encode_wire(&mut e);
        assert!(e.into_bytes() == bytes, "decode -> encode is the identity");
        // Failing on its first block, a write changes no size.
        f.create(FileId(2)).unwrap();
        assert_eq!(f.write(FileId(2), 5 * 4096, 4096), Err("enospc"));
        assert_eq!(f.size_of(FileId(2)), Some(0));
    }

    #[test]
    fn a_file_ends_inside_its_disk() {
        let mut f = Ext3Fs::format(64, 4096, 32);
        f.create(FileId(1)).unwrap();
        assert_eq!(f.span(), 64);
        assert_eq!(f.write(FileId(1), 63 * 4096, 4097), Err("efbig"));
        assert_eq!(f.write(FileId(1), u64::MAX - 1, 2), Err("efbig"));
        assert_eq!((f.size_of(FileId(1)), f.enospc), (Some(0), 0));
        assert!(f.write(FileId(1), 63 * 4096, 4096).is_ok(), "the disk's last byte");
        assert_eq!(f.size_of(FileId(1)), Some(64 * 4096));
    }

    #[test]
    fn create_twice_fails() {
        let mut f = fs();
        f.create(FileId(1)).unwrap();
        assert_eq!(f.create(FileId(1)), Err("exists"));
    }

    /// A file as the reference sees it: size and index → vba, ordered.
    type RefFile = (u64, std::collections::BTreeMap<u64, u64>);

    /// What [`Ext3Fs::encode_wire`] wrote when inode maps were hash maps
    /// sorted at encode time, with the reference's maps in their place.
    fn reference_wire(f: &Ext3Fs, files: &std::collections::BTreeMap<u64, RefFile>) -> Vec<u8> {
        let mut e = Enc::new();
        e.u32(f.block_size);
        e.u32(f.blocks_per_group);
        e.seq(f.groups.len());
        for g in &f.groups {
            g.encode_wire(&mut e);
        }
        e.seq(files.len());
        for (&id, (size, blocks)) in files {
            e.u64(id);
            e.u64(*size);
            e.seq(blocks.len());
            for (&idx, &vba) in blocks {
                e.u64(idx);
                e.u64(vba);
            }
        }
        e.u32(f.rotor);
        e.u64(f.version);
        e.u64(f.enospc);
        e.into_bytes()
    }

    #[test]
    fn block_tables_answer_as_ordered_maps_do() {
        use std::collections::BTreeMap;
        let bs = 4096u64;
        let mut f = Ext3Fs::format(50_000, 4096, 8192);
        let mut files: BTreeMap<u64, RefFile> = BTreeMap::new();
        let mut state = 0xF5_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let (mut deletes, mut holes) = (0, 0);
        for step in 0..4_000u32 {
            let r = next();
            let id = r % 6;
            if let std::collections::btree_map::Entry::Vacant(new) = files.entry(id) {
                f.create(FileId(id)).unwrap();
                new.insert((0, BTreeMap::new()));
            }
            if step % 97 == 96 {
                // Delete: the freed vbas are the reference's, sorted.
                let (_, freed) = f.delete(FileId(id)).unwrap();
                let (_, blocks) = files.remove(&id).unwrap();
                let mut want: Vec<u64> = blocks.into_values().collect();
                want.sort_unstable();
                assert_eq!(freed, want, "step {step}: freed blocks of file {id}");
                deletes += 1;
                continue;
            }
            // Write at a random offset inside the first 1,000 blocks, up
            // to 16 blocks long and not block-aligned: the rest are holes.
            let offset = (r >> 8) % (1_000 * bs);
            let bytes = (r >> 40) % (16 * bs) + 1;
            let writes = f.write(FileId(id), offset, bytes).unwrap();
            let data: Vec<u64> = writes
                .iter()
                .filter(|w| matches!(w.data, BlockData::Opaque(_)))
                .map(|w| w.vba)
                .collect();
            let (size, blocks) = files.get_mut(&id).unwrap();
            let first = offset / bs;
            assert_eq!(data.len() as u64, (offset + bytes - 1) / bs - first + 1);
            for (idx, vba) in (first..).zip(data) {
                assert_eq!(*blocks.entry(idx).or_insert(vba), vba, "an index keeps its block");
            }
            *size = (*size).max(offset + bytes);
            // Reads over a random range skip the same holes.
            let (from, len) = ((r >> 20) % (1_100 * bs), (r >> 50) % (64 * bs) + 1);
            let range = from / bs..=(from + len - 1) / bs;
            let want: Vec<u64> = blocks.range(range).map(|(_, &v)| v).collect();
            holes += ((from + len - 1) / bs - from / bs + 1) as usize - want.len();
            assert_eq!(f.read_vbas(FileId(id), from, len).unwrap(), want, "step {step}");
            if step % 500 == 0 {
                let wire = reference_wire(&f, &files);
                let mut e = Enc::new();
                f.encode_wire(&mut e);
                assert!(e.into_bytes() == wire, "step {step}: the encoding is the reference's");
                let back = Ext3Fs::decode_wire(&mut Dec::new(&wire)).unwrap();
                let mut e = Enc::new();
                back.encode_wire(&mut e);
                assert!(e.into_bytes() == wire, "step {step}: decode -> encode is the identity");
            }
        }
        assert!(deletes > 30 && holes > 5_000, "{deletes} deletes, {holes} holes read");
    }
}
