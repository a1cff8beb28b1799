//! Free-block elimination by filesystem snooping (§5.1).
//!
//! "We eliminate free blocks by implementing filesystem-specific plugins to
//! snoop on writes at the level below the guest system. A plugin constructs
//! a free-block metadata map that is consistent with respect to the data
//! blocks on the disk. We have implemented free block elimination for the
//! Linux ext3 filesystem."
//!
//! The [`Ext3Snoop`] watches every block write passing through the store;
//! when it sees an allocation-bitmap block it decodes it and updates its
//! shadow map. Because the shadow map is rebuilt from the very writes that
//! land on disk, it is consistent with on-disk state by construction — a
//! data block is only considered free if the *newest on-disk bitmap*
//! says so.

use ckptstore::{Dec, DecodeError, Enc, Wire};
use sim::IntMap;

use crate::block::{BitmapBlock, BlockData};

/// The ext3 snooping plugin: a shadow copy of the allocation bitmaps.
#[derive(Clone, Debug, Default)]
pub struct Ext3Snoop {
    /// Group → its newest bitmap. Groups cover disjoint block ranges, so
    /// the scans below do not depend on iteration order; the encoding
    /// sorts by group.
    bitmaps: IntMap<u32, BitmapBlock>,
    /// Bitmap-block writes observed.
    pub bitmap_writes: u64,
    /// Non-bitmap writes observed.
    pub data_writes: u64,
}

impl Ext3Snoop {
    /// Creates a snoop with no knowledge (all blocks assumed allocated).
    pub fn new() -> Self {
        Ext3Snoop::default()
    }

    /// Observes one block write below the guest.
    pub fn on_write(&mut self, _vba: u64, data: &BlockData) {
        match data {
            BlockData::Bitmap(b) => {
                self.bitmap_writes += 1;
                self.bitmaps.insert(b.group, b.clone());
            }
            _ => self.data_writes += 1,
        }
    }

    /// Whether `vba` is known-free per the newest snooped bitmaps.
    ///
    /// Unknown blocks (no bitmap observed for their group) are treated as
    /// allocated — elimination must never drop live data.
    pub fn is_free(&self, vba: u64) -> bool {
        self.bitmaps
            .values()
            .find_map(|b| b.covers_and_allocated(vba))
            .map(|allocated| !allocated)
            .unwrap_or(false)
    }

    /// Number of block groups with snooped bitmaps.
    pub fn groups_known(&self) -> usize {
        self.bitmaps.len()
    }

    /// Total allocated blocks across known groups.
    pub fn allocated_blocks(&self) -> u64 {
        self.bitmaps.values().map(|b| b.allocated_count() as u64).sum()
    }
}

/// The shadow bitmaps in group order, then the counters. Hand-written
/// because the map is keyed by a field of its values: the stream holds
/// the bitmaps alone.
impl<Cx> Wire<Cx> for Ext3Snoop {
    fn put(&self, e: &mut Enc, cx: &mut Cx) {
        let mut groups: Vec<&BitmapBlock> = self.bitmaps.values().collect();
        groups.sort_by_key(|b| b.group);
        e.seq(groups.len());
        for b in groups {
            b.put(e, cx);
        }
        e.u64(self.bitmap_writes);
        e.u64(self.data_writes);
    }

    fn get(d: &mut Dec<'_>, cx: &Cx) -> Result<Self, DecodeError> {
        let n = d.seq()?;
        let cap = d.capacity_for::<(u32, BitmapBlock)>(n);
        let mut bitmaps = IntMap::with_capacity_and_hasher(cap, Default::default());
        for _ in 0..n {
            let b: BitmapBlock = Wire::get(d, cx)?;
            if bitmaps.insert(b.group, b).is_some() {
                return Err(DecodeError::Invalid("duplicate snoop bitmap group"));
            }
        }
        let bitmap_writes = d.u64()?;
        let data_writes = d.u64()?;
        Ok(Ext3Snoop { bitmaps, bitmap_writes, data_writes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bitmap(group: u32, start: u64, n: u32, allocated: &[u32]) -> BlockData {
        let mut b = BitmapBlock::new_free(group, start, n);
        for &i in allocated {
            b = b.with(i, true);
        }
        BlockData::Bitmap(b)
    }

    #[test]
    fn unknown_groups_are_conservatively_allocated() {
        let s = Ext3Snoop::new();
        assert!(!s.is_free(12345));
    }

    #[test]
    fn snooped_bitmap_classifies_blocks() {
        let mut s = Ext3Snoop::new();
        s.on_write(100, &bitmap(0, 1000, 100, &[0, 1, 2]));
        assert!(!s.is_free(1000));
        assert!(!s.is_free(1002));
        assert!(s.is_free(1003), "unallocated per bitmap");
        assert!(!s.is_free(2000), "outside any group");
    }

    #[test]
    fn newer_bitmap_write_supersedes_older() {
        let mut s = Ext3Snoop::new();
        s.on_write(100, &bitmap(0, 1000, 100, &[5]));
        assert!(!s.is_free(1005));
        // The file is deleted: a new bitmap marks block 5 free.
        s.on_write(100, &bitmap(0, 1000, 100, &[]));
        assert!(s.is_free(1005));
        assert_eq!(s.bitmap_writes, 2);
    }

    #[test]
    fn snoop_wire_round_trip() {
        use ckptstore::{Dec, Enc};
        let mut s = Ext3Snoop::new();
        s.on_write(1, &BlockData::Opaque(9));
        s.on_write(2, &bitmap(0, 0, 100, &[1, 2]));
        s.on_write(3, &bitmap(1, 100, 100, &[50]));
        let mut e = Enc::new();
        s.put(&mut e, &mut ());
        let bytes = e.into_bytes();
        let back = Ext3Snoop::get(&mut Dec::new(&bytes), &()).unwrap();
        assert_eq!(back.groups_known(), 2);
        assert_eq!(back.bitmap_writes, 2);
        assert_eq!(back.data_writes, 1);
        assert!(back.is_free(3));
        assert!(!back.is_free(1));
        assert!(!back.is_free(150));
    }

    #[test]
    fn counters_distinguish_write_kinds() {
        let mut s = Ext3Snoop::new();
        s.on_write(1, &BlockData::Opaque(9));
        s.on_write(2, &bitmap(0, 0, 10, &[]));
        assert_eq!(s.data_writes, 1);
        assert_eq!(s.bitmap_writes, 1);
        assert_eq!(s.groups_known(), 1);
    }
}
