//! The three-level branching store and its block-address translation.
//!
//! Fig 3 of the paper: a logical disk is stitched from an immutable golden
//! image (linear addressing, VBA == PBA), an immutable aggregated delta
//! (all changes from previous swap-ins, laid out in vba-sorted order for
//! locality), and a mutable current delta implemented as a redo log with a
//! hash index. Writes append to the log — "copy-on-write is always a
//! complete overwrite and never requires a read-before-write" — while the
//! pre-optimization LVM behaviour ([`CowMode::BranchOrig`]) pays the
//! read-before-write on every first touch of a chunk, and a raw disk
//! ([`CowMode::Base`]) is the Fig 8 baseline.
//!
//! Physical placement matters only for timing (the `hwsim` disk is a
//! service-time model; content lives in the maps here): the golden region
//! occupies the front of the disk, the aggregated delta and the redo log
//! follow, and on a *fresh* disk each log segment must update a metadata
//! region distributed far across the disk — the extra seeks behind the
//! paper's 17% fresh-disk overhead, which "disappears as the disk ages".

use std::sync::Arc;

use ckptstore::{Dec, DecodeError, Enc, Wire};
use hwsim::{DiskOp, DiskQueue, DiskRequest};
use sim::telemetry::names;
use sim::{IntMap, SimRng, SimTime, Telemetry, TraceTag, TrackId};

use crate::block::{BlockData, BlockTable, DeltaMap};
use crate::freeblock::Ext3Snoop;
use crate::golden::GoldenImage;
use crate::merge::{merge_reorder, MergeStats};

/// Which copy-on-write strategy the store uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CowMode {
    /// Raw disk: reads/writes go straight to the vba (Fig 8 "Base").
    Base,
    /// Original LVM snapshot behaviour: chunk-granular COW with
    /// read-before-write on first touch (Fig 8 "Branch-Orig").
    BranchOrig {
        /// COW chunk size in blocks (LVM default chunking).
        chunk_blocks: u64,
    },
    /// The paper's redo-log branching storage (Fig 8 "Branch").
    Branch,
}

ckptstore::wire!(enum CowMode: "cow mode" { Base = 0, BranchOrig { chunk_blocks } = 1, Branch = 2 });

/// Physical layout and aging knobs.
#[derive(Clone, Copy, Debug)]
pub struct StoreLayout {
    /// Blocks in the golden region (= golden image capacity).
    pub golden_blocks: u64,
    /// Capacity reserved for the aggregated delta, in blocks.
    pub agg_cap: u64,
    /// Capacity reserved for the redo log / snapshot area, in blocks.
    pub log_cap: u64,
    /// A metadata region must be updated every this many fresh log
    /// appends (one log segment).
    pub meta_interval: u64,
    /// Fresh disk: metadata regions are spread across the whole disk and
    /// cost a long seek. Aged disk: they are already allocated next to the
    /// log and updates are nearly free.
    pub aged: bool,
}

ckptstore::wire!(struct StoreLayout { golden_blocks, agg_cap, log_cap, meta_interval, aged });

impl StoreLayout {
    /// A layout sized for `golden`, with paper-calibrated segment size
    /// (4 MiB segments at 4 KiB blocks).
    pub fn for_image(golden: &GoldenImage) -> Self {
        StoreLayout {
            golden_blocks: golden.blocks(),
            agg_cap: golden.blocks() / 4,
            log_cap: golden.blocks() / 2,
            meta_interval: 1024,
            aged: false,
        }
    }

    fn agg_start(&self) -> u64 {
        self.golden_blocks
    }

    fn log_start(&self) -> u64 {
        self.golden_blocks + self.agg_cap
    }

    /// Physical address of the metadata region for log segment `seg` on a
    /// fresh disk: scattered pseudo-randomly over the golden region span.
    fn meta_block(&self, seg: u64) -> u64 {
        (seg.wrapping_mul(7919)) % self.golden_blocks.max(1)
    }
}

/// Counters for the experiment post-processing.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreStats {
    pub reads: u64,
    pub writes: u64,
    pub log_appends: u64,
    pub log_overwrites: u64,
    pub meta_writes: u64,
    pub rbw_reads: u64,
    pub golden_reads: u64,
    pub agg_reads: u64,
    pub cur_reads: u64,
}

ckptstore::wire!(struct StoreStats {
    reads,
    writes,
    log_appends,
    log_overwrites,
    meta_writes,
    rbw_reads,
    golden_reads,
    agg_reads,
    cur_reads,
});

/// The branching store for one virtual disk.
///
/// # Examples
///
/// ```
/// use cowstore::{BlockData, BranchingStore, CowMode, GoldenImageBuilder, StoreLayout};
/// use std::sync::Arc;
///
/// let golden = Arc::new(GoldenImageBuilder::new("base", 1000, 4096, 7).build());
/// let layout = StoreLayout::for_image(&golden);
/// let mut store = BranchingStore::new(golden.clone(), CowMode::Branch, layout);
///
/// // Reads fall through to the golden image until written.
/// assert_eq!(store.peek(5), golden.read(5));
/// // (Timed writes go through `write_block` with a disk queue.)
/// ```
#[derive(Clone, Debug)]
pub struct BranchingStore {
    mode: CowMode,
    layout: StoreLayout,
    golden: Arc<GoldenImage>,
    agg: DeltaMap,
    /// Aggregate vba → its slot in the vba-sorted aggregate region.
    agg_slots: BlockTable,
    cur: DeltaMap,
    /// BranchOrig: chunk index (a block number at chunk granularity) →
    /// chunk slot in the snapshot area.
    chunks: BlockTable,
    next_chunk_slot: u64,
    /// Base mode: raw writes by vba (content only; placement is linear).
    /// Not a [`BlockTable`]: it holds block contents, and Base mode is
    /// Fig 8's baseline only.
    base_writes: IntMap<u64, BlockData>,
    appends_since_meta: u64,
    snoop: Option<Ext3Snoop>,
    /// Activity counters.
    pub stats: StoreStats,
    /// Trace handles, present once the hosting component attaches the
    /// shared registry. Not serialized; restore paths re-attach.
    tele: Option<CowTele>,
}

/// Telemetry handles of an attached [`BranchingStore`].
#[derive(Clone, Debug)]
struct CowTele {
    t: Telemetry,
    track: TrackId,
    ev_seal: TraceTag,
}

impl BranchingStore {
    /// Creates a store over `golden` with an empty aggregated delta.
    pub fn new(golden: Arc<GoldenImage>, mode: CowMode, layout: StoreLayout) -> Self {
        BranchingStore {
            mode,
            layout,
            golden,
            agg: DeltaMap::new(),
            agg_slots: BlockTable::new(),
            cur: DeltaMap::new(),
            chunks: BlockTable::new(),
            next_chunk_slot: 0,
            base_writes: IntMap::default(),
            appends_since_meta: 0,
            snoop: None,
            stats: StoreStats::default(),
            tele: None,
        }
    }

    /// Attaches the shared telemetry registry, putting this store's seal
    /// activity on the `cow` track of `host`. Idempotent.
    pub fn attach_telemetry(&mut self, t: &Telemetry, host: u32) {
        if self.tele.is_some() {
            return;
        }
        self.tele = Some(CowTele {
            t: t.clone(),
            track: t.track(host, names::TRACK_COW),
            ev_seal: t.trace_tag(names::EV_COW_SEAL),
        });
    }

    /// Installs an aggregated delta (swap-in path). Slots are assigned in
    /// vba-sorted order — the locality-restoring layout the offline merge
    /// produces (§5.3).
    pub fn install_aggregate(&mut self, agg: DeltaMap) {
        self.agg_slots.clear();
        for (slot, (vba, _)) in agg.iter_vba_order().enumerate() {
            self.agg_slots.insert(vba, slot as u64);
        }
        self.agg = agg;
    }

    /// Attaches the filesystem-snooping plugin (free-block elimination).
    pub fn set_snoop(&mut self, snoop: Ext3Snoop) {
        self.snoop = Some(snoop);
    }

    /// The snoop, if attached.
    pub fn snoop(&self) -> Option<&Ext3Snoop> {
        self.snoop.as_ref()
    }

    /// The store's block size.
    pub fn block_size(&self) -> u32 {
        self.golden.block_size()
    }

    /// Logical capacity in blocks.
    pub fn blocks(&self) -> u64 {
        self.golden.blocks()
    }

    /// The live current delta.
    pub fn current_delta(&self) -> &DeltaMap {
        &self.cur
    }

    /// The installed aggregated delta.
    pub fn aggregate(&self) -> &DeltaMap {
        &self.agg
    }

    /// Current COW mode.
    pub fn mode(&self) -> CowMode {
        self.mode
    }

    /// Reads block content without charging disk time (used by tests and
    /// by layers that account time themselves, e.g. the buffer cache).
    pub fn peek(&self, vba: u64) -> BlockData {
        assert!(vba < self.blocks(), "read out of range");
        if self.mode == CowMode::Base {
            return self
                .base_writes
                .get(&vba)
                .cloned()
                .unwrap_or_else(|| self.golden.read(vba));
        }
        if let Some((_, d)) = self.cur.get(vba) {
            return d.clone();
        }
        if let Some((_, d)) = self.agg.get(vba) {
            return d.clone();
        }
        self.golden.read(vba)
    }

    /// Physical block address a read of `vba` resolves to (for timing).
    fn read_location(&mut self, vba: u64) -> u64 {
        match self.mode {
            CowMode::Base => vba,
            CowMode::BranchOrig { chunk_blocks } => {
                if self.cur.get(vba).is_some() {
                    self.stats.cur_reads += 1;
                    let chunk = vba / chunk_blocks;
                    let slot =
                        self.chunks.get(chunk).expect("a written block's chunk is broken out");
                    self.layout.log_start() + slot * chunk_blocks + (vba % chunk_blocks)
                } else if let Some(slot) = self.agg_slots.get(vba) {
                    self.stats.agg_reads += 1;
                    self.layout.agg_start() + slot
                } else {
                    self.stats.golden_reads += 1;
                    vba
                }
            }
            CowMode::Branch => {
                if let Some((slot, _)) = self.cur.get(vba) {
                    self.stats.cur_reads += 1;
                    self.layout.log_start() + slot as u64
                } else if let Some(slot) = self.agg_slots.get(vba) {
                    self.stats.agg_reads += 1;
                    self.layout.agg_start() + slot
                } else {
                    self.stats.golden_reads += 1;
                    vba
                }
            }
        }
    }

    /// Reads one block with disk timing; returns content and completion.
    pub fn read_block(
        &mut self,
        now: SimTime,
        vba: u64,
        dq: &mut DiskQueue,
        rng: &mut SimRng,
    ) -> (BlockData, SimTime) {
        self.stats.reads += 1;
        let data = self.peek(vba);
        let phys = self.read_location(vba);
        let done = dq.submit(
            now,
            rng,
            DiskRequest {
                op: DiskOp::Read,
                block: phys,
                nblocks: 1,
            },
        );
        (data, done)
    }

    /// Writes one block with disk timing; returns completion.
    pub fn write_block(
        &mut self,
        now: SimTime,
        vba: u64,
        data: BlockData,
        dq: &mut DiskQueue,
        rng: &mut SimRng,
    ) -> SimTime {
        assert!(vba < self.blocks(), "write out of range");
        self.stats.writes += 1;
        if let Some(sn) = self.snoop.as_mut() {
            sn.on_write(vba, &data);
        }
        match self.mode {
            CowMode::Base => {
                self.base_writes.insert(vba, data);
                dq.submit(
                    now,
                    rng,
                    DiskRequest {
                        op: DiskOp::Write,
                        block: vba,
                        nblocks: 1,
                    },
                )
            }
            CowMode::Branch => {
                let (slot, fresh) = self.cur.put(vba, data);
                let phys = self.layout.log_start() + slot as u64;
                let mut done = dq.submit(
                    now,
                    rng,
                    DiskRequest {
                        op: DiskOp::Write,
                        block: phys,
                        nblocks: 1,
                    },
                );
                if fresh {
                    self.stats.log_appends += 1;
                    self.appends_since_meta += 1;
                    if self.appends_since_meta >= self.layout.meta_interval {
                        self.appends_since_meta = 0;
                        done = self.write_metadata(now, slot as u64, dq, rng);
                    }
                } else {
                    self.stats.log_overwrites += 1;
                }
                done
            }
            CowMode::BranchOrig { chunk_blocks } => {
                let chunk = vba / chunk_blocks;
                let mut done;
                if let Some(slot) = self.chunks.get(chunk) {
                    // Chunk already broken out: in-place write.
                    let phys = self.layout.log_start() + slot * chunk_blocks + (vba % chunk_blocks);
                    done = dq.submit(
                        now,
                        rng,
                        DiskRequest {
                            op: DiskOp::Write,
                            block: phys,
                            nblocks: 1,
                        },
                    );
                } else {
                    // First touch: read-before-write of the whole chunk
                    // from the lower level, then write it to the snapshot
                    // area, then a metadata update.
                    let slot = self.next_chunk_slot;
                    self.next_chunk_slot += 1;
                    self.chunks.insert(chunk, slot);
                    let origin = chunk * chunk_blocks;
                    self.stats.rbw_reads += 1;
                    let _ = dq.submit(
                        now,
                        rng,
                        DiskRequest {
                            op: DiskOp::Read,
                            block: origin.min(self.blocks() - 1),
                            nblocks: chunk_blocks.min(self.blocks() - origin.min(self.blocks() - 1)),
                        },
                    );
                    let phys = self.layout.log_start() + slot * chunk_blocks;
                    let _ = dq.submit(
                        now,
                        rng,
                        DiskRequest {
                            op: DiskOp::Write,
                            block: phys,
                            nblocks: chunk_blocks,
                        },
                    );
                    done = self.write_metadata(now, slot, dq, rng);
                    // Populate the current delta with the old chunk content
                    // so reads resolve correctly.
                    for i in 0..chunk_blocks {
                        let cvba = chunk * chunk_blocks + i;
                        if cvba < self.blocks() && cvba != vba && self.cur.get(cvba).is_none() {
                            let old = self.peek(cvba);
                            self.cur.put(cvba, old);
                        }
                    }
                    done = done.max(now);
                }
                self.cur.put(vba, data);
                done
            }
        }
    }

    fn write_metadata(
        &mut self,
        now: SimTime,
        seg_hint: u64,
        dq: &mut DiskQueue,
        rng: &mut SimRng,
    ) -> SimTime {
        self.stats.meta_writes += 1;
        let block = if self.layout.aged {
            // Aged disk: the metadata region neighbours the log — model as
            // a write right next to the current head (no long seek).
            dq.disk().head()
        } else {
            self.layout.meta_block(seg_hint / self.layout.meta_interval.max(1))
        };
        dq.submit(
            now,
            rng,
            DiskRequest {
                op: DiskOp::Write,
                block,
                nblocks: 1,
            },
        )
    }

    /// Returns the current delta with free blocks eliminated (if a snoop
    /// is attached), plus how many blocks elimination removed. This is the
    /// delta actually saved at swap-out (§5.1).
    pub fn filtered_delta(&self) -> (DeltaMap, u64) {
        let mut out = DeltaMap::new();
        let mut removed = 0;
        for (vba, data) in self.cur.iter_log_order() {
            let free = self
                .snoop
                .as_ref()
                .map(|s| s.is_free(vba) && !matches!(data, BlockData::Bitmap(_)))
                .unwrap_or(false);
            if free {
                removed += 1;
            } else {
                out.put(vba, data.clone());
            }
        }
        (out, removed)
    }

    /// Seals the current branch: merges the current delta into the
    /// aggregated delta (with locality reordering) and starts a fresh,
    /// empty branch — the device-level effect of a swap cycle or
    /// snapshot. `now` stamps the seal on the trace timeline when
    /// telemetry is attached (the merge itself is offline and free at
    /// experiment time, so the slice is zero-width).
    pub fn seal_branch(&mut self, now: SimTime) -> MergeStats {
        let cur = self.take_current_delta();
        let (merged, stats) = merge_reorder(&self.agg, &cur);
        self.install_aggregate(merged);
        if let Some(tele) = &self.tele {
            tele.t.trace_begin(tele.track, tele.ev_seal, now, stats.delta_blocks as i64);
            tele.t.trace_end(tele.track, tele.ev_seal, now, stats.merged_blocks as i64);
            stats.record(&tele.t);
        }
        stats
    }

    /// Takes the current delta, leaving it empty (swap-out completion).
    pub fn take_current_delta(&mut self) -> DeltaMap {
        self.chunks.clear();
        self.next_chunk_slot = 0;
        self.appends_since_meta = 0;
        std::mem::take(&mut self.cur)
    }

    /// Serializes the store's full device state — everything except the
    /// golden image, which is immutable, cached on physical nodes, and
    /// therefore never part of a checkpoint image (§5.1). The golden is
    /// identified by name so restore can validate it got the right one.
    ///
    /// Hand-written, with [`BranchingStore::decode_wire`]: the decode
    /// checks the golden image it is handed, bounds the deltas and the
    /// chunk table by its geometry, and rebuilds the store through
    /// [`BranchingStore::new`] and [`BranchingStore::install_aggregate`].
    pub fn encode_wire(&self, e: &mut Enc) {
        let cx = &mut ();
        self.mode.put(e, cx);
        self.layout.put(e, cx);
        e.str(self.golden.name());
        e.u64(self.golden.blocks());
        e.u32(self.block_size());
        let bs = self.block_size();
        self.agg.encode_wire(e, bs);
        self.cur.encode_wire(e, bs);
        self.chunks.iter().collect::<Vec<_>>().put(e, cx);
        e.u64(self.next_chunk_slot);
        // Base-mode raw writes travel as a delta map (vba-sorted so the
        // encoding is deterministic).
        let mut base = DeltaMap::new();
        let mut vbas: Vec<u64> = self.base_writes.keys().copied().collect();
        vbas.sort_unstable();
        for vba in vbas {
            base.put(vba, self.base_writes[&vba].clone());
        }
        base.encode_wire(e, bs);
        e.u64(self.appends_since_meta);
        self.snoop.put(e, cx);
        self.stats.put(e, cx);
    }

    /// Inverse of [`BranchingStore::encode_wire`]. `golden` must be the
    /// image named in the encoding (the restore host's cached copy); the
    /// aggregate's slot layout is re-derived exactly as
    /// [`BranchingStore::install_aggregate`] assigned it.
    pub fn decode_wire(
        d: &mut Dec<'_>,
        golden: Arc<GoldenImage>,
    ) -> Result<Self, DecodeError> {
        let mode = CowMode::get(d, &())?;
        let layout = StoreLayout::get(d, &())?;
        let name = d.str()?;
        if name != golden.name() {
            return Err(DecodeError::Invalid("golden image name mismatch"));
        }
        if d.u64()? != golden.blocks() || d.u32()? != golden.block_size() {
            return Err(DecodeError::Invalid("golden image geometry mismatch"));
        }
        let (bs, blocks) = (golden.block_size(), golden.blocks());
        let agg = DeltaMap::decode_wire(d, bs, blocks)?;
        let cur = DeltaMap::decode_wire(d, bs, blocks)?;
        let chunk_span = match mode {
            CowMode::BranchOrig { chunk_blocks } if chunk_blocks > 0 => {
                blocks.div_ceil(chunk_blocks)
            }
            _ => 0,
        };
        let mut chunks = BlockTable::new();
        for (chunk, slot) in Vec::<(u64, u64)>::get(d, &())? {
            if chunk >= chunk_span || slot == u64::MAX {
                return Err(DecodeError::Invalid("cow chunk entry out of range"));
            }
            if chunks.insert(chunk, slot).is_some() {
                return Err(DecodeError::Invalid("duplicate chunk entry"));
            }
        }
        let next_chunk_slot = d.u64()?;
        let base = DeltaMap::decode_wire(d, bs, blocks)?;
        let mut base_writes = IntMap::with_capacity_and_hasher(base.len(), Default::default());
        for (vba, data) in base.iter_log_order() {
            base_writes.insert(vba, data.clone());
        }
        let appends_since_meta = d.u64()?;
        let snoop = Option::get(d, &())?;
        let stats = StoreStats::get(d, &())?;
        let mut store = BranchingStore::new(golden, mode, layout);
        store.install_aggregate(agg);
        store.cur = cur;
        store.chunks = chunks;
        store.next_chunk_slot = next_chunk_slot;
        store.base_writes = base_writes;
        store.appends_since_meta = appends_since_meta;
        store.snoop = snoop;
        store.stats = stats;
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden::GoldenImageBuilder;
    use hwsim::{Disk, DiskProfile};
    use sim::SimDuration;

    fn setup(mode: CowMode) -> (BranchingStore, DiskQueue, SimRng) {
        let golden = Arc::new(GoldenImageBuilder::new("base", 100_000, 4096, 1).build());
        let layout = StoreLayout {
            golden_blocks: 100_000,
            agg_cap: 25_000,
            log_cap: 50_000,
            meta_interval: 1024,
            aged: false,
        };
        let store = BranchingStore::new(golden, mode, layout);
        let disk = Disk::new(DiskProfile {
            min_seek: SimDuration::from_micros(500),
            max_seek: SimDuration::from_millis(9),
            rpm: 10_000,
            transfer_bps: 70_000_000,
            blocks: 200_000,
            block_size: 4096,
        });
        (store, DiskQueue::new(disk), SimRng::from_seed(9))
    }

    #[test]
    fn unwritten_blocks_read_golden_content() {
        let (mut s, mut dq, mut rng) = setup(CowMode::Branch);
        let golden_val = s.peek(42);
        let (d, _) = s.read_block(SimTime::ZERO, 42, &mut dq, &mut rng);
        assert_eq!(d, golden_val);
        assert_eq!(s.stats.golden_reads, 1);
    }

    #[test]
    fn read_your_writes_across_all_modes() {
        for mode in [
            CowMode::Base,
            CowMode::Branch,
            CowMode::BranchOrig { chunk_blocks: 64 },
        ] {
            let (mut s, mut dq, mut rng) = setup(mode);
            let now = SimTime::ZERO;
            s.write_block(now, 7, BlockData::Opaque(77), &mut dq, &mut rng);
            s.write_block(now, 7, BlockData::Opaque(78), &mut dq, &mut rng);
            s.write_block(now, 9, BlockData::Opaque(99), &mut dq, &mut rng);
            assert_eq!(s.peek(7), BlockData::Opaque(78), "{mode:?}");
            assert_eq!(s.peek(9), BlockData::Opaque(99), "{mode:?}");
            // Untouched neighbours still come from golden.
            assert_eq!(s.peek(8), s.golden.read(8), "{mode:?}");
        }
    }

    #[test]
    fn aggregate_level_resolves_between_cur_and_golden() {
        let (mut s, mut dq, mut rng) = setup(CowMode::Branch);
        let mut agg = DeltaMap::new();
        agg.put(5, BlockData::Opaque(500));
        agg.put(6, BlockData::Opaque(600));
        s.install_aggregate(agg);
        assert_eq!(s.peek(5), BlockData::Opaque(500));
        // A current write shadows the aggregate.
        s.write_block(SimTime::ZERO, 5, BlockData::Opaque(501), &mut dq, &mut rng);
        assert_eq!(s.peek(5), BlockData::Opaque(501));
        // Timed read of the agg-resolved block accounts an agg read.
        let (_, _) = s.read_block(SimTime::ZERO, 6, &mut dq, &mut rng);
        assert_eq!(s.stats.agg_reads, 1);
    }

    #[test]
    fn branch_sequential_writes_do_not_read_before_write() {
        let (mut s, mut dq, mut rng) = setup(CowMode::Branch);
        let now = SimTime::ZERO;
        for i in 0..100 {
            s.write_block(now, 1000 + i, BlockData::Opaque(i), &mut dq, &mut rng);
        }
        assert_eq!(s.stats.rbw_reads, 0);
        assert_eq!(dq.disk().stats.blocks_read, 0, "no reads at all");
        assert_eq!(s.stats.log_appends, 100);
    }

    #[test]
    fn branch_orig_pays_read_before_write_once_per_chunk() {
        let (mut s, mut dq, mut rng) = setup(CowMode::BranchOrig { chunk_blocks: 64 });
        let now = SimTime::ZERO;
        // 128 sequential blocks = 2 chunks.
        for i in 0..128 {
            s.write_block(now, 1000 + i, BlockData::Opaque(i), &mut dq, &mut rng);
        }
        // vba 1000 is not chunk-aligned (1000/64 = 15.6): touches chunks
        // 15..=17 → 3 chunk copies.
        assert_eq!(s.stats.rbw_reads, 3);
        assert!(dq.disk().stats.blocks_read >= 3 * 63, "chunks were read");
    }

    #[test]
    fn branch_is_much_faster_than_branch_orig_for_fresh_writes() {
        let n = 2048;
        let mut times = Vec::new();
        for mode in [CowMode::Branch, CowMode::BranchOrig { chunk_blocks: 64 }] {
            let (mut s, mut dq, mut rng) = setup(mode);
            let mut done = SimTime::ZERO;
            for i in 0..n {
                let _ = s.write_block(done, 4096 + i, BlockData::Opaque(i), &mut dq, &mut rng);
                done = dq.free_at();
            }
            times.push(done.as_secs_f64());
        }
        assert!(
            times[1] > times[0] * 2.0,
            "BranchOrig {:.3}s should be >2x Branch {:.3}s",
            times[1],
            times[0]
        );
    }

    #[test]
    fn metadata_writes_happen_every_interval_on_fresh_disk() {
        let (mut s, mut dq, mut rng) = setup(CowMode::Branch);
        let now = SimTime::ZERO;
        for i in 0..2048 {
            s.write_block(now, i, BlockData::Opaque(i), &mut dq, &mut rng);
        }
        assert_eq!(s.stats.meta_writes, 2);
    }

    #[test]
    fn aged_disk_metadata_is_cheap() {
        let mut totals = Vec::new();
        for aged in [false, true] {
            let (mut s, mut dq, mut rng) = setup(CowMode::Branch);
            s.layout.aged = aged;
            let mut done = SimTime::ZERO;
            for i in 0..8192 {
                s.write_block(done, i, BlockData::Opaque(i), &mut dq, &mut rng);
                done = dq.free_at();
            }
            totals.push(done.as_secs_f64());
        }
        assert!(
            totals[1] < totals[0],
            "aged {:.4}s must beat fresh {:.4}s",
            totals[1],
            totals[0]
        );
    }

    #[test]
    fn store_wire_round_trip_across_modes() {
        for mode in [
            CowMode::Base,
            CowMode::Branch,
            CowMode::BranchOrig { chunk_blocks: 64 },
        ] {
            let (mut s, mut dq, mut rng) = setup(mode);
            let now = SimTime::ZERO;
            let mut agg = DeltaMap::new();
            agg.put(5, BlockData::Opaque(500));
            agg.put(3, BlockData::Opaque(300));
            s.install_aggregate(agg);
            s.set_snoop(Ext3Snoop::new());
            for i in 0..50 {
                s.write_block(now, 1000 + i * 3, BlockData::Opaque(i), &mut dq, &mut rng);
            }
            s.write_block(now, 2, BlockData::Zero, &mut dq, &mut rng);

            let mut e = Enc::new();
            s.encode_wire(&mut e);
            let bytes = e.into_bytes();
            let mut d = Dec::new(&bytes);
            let mut back = BranchingStore::decode_wire(&mut d, s.golden.clone()).unwrap();
            assert_eq!(d.remaining(), 0, "{mode:?}: trailing bytes");

            assert_eq!(back.mode(), mode);
            assert_eq!(back.stats.writes, s.stats.writes, "{mode:?}");
            assert_eq!(back.snoop().unwrap().data_writes, s.snoop().unwrap().data_writes);
            for vba in [2u64, 3, 5, 1000, 1003, 1147, 77_777] {
                assert_eq!(back.peek(vba), s.peek(vba), "{mode:?} vba {vba}");
            }
            // agg_slots re-derivation: timed reads resolve identically.
            let (_, _) = s.read_block(now, 3, &mut dq, &mut rng);
            let (_, _) = back.read_block(now, 3, &mut dq, &mut rng);
            assert_eq!(back.stats.agg_reads, s.stats.agg_reads, "{mode:?}");
        }
    }

    #[test]
    fn store_wire_rejects_wrong_golden() {
        let (mut s, mut dq, mut rng) = setup(CowMode::Branch);
        s.write_block(SimTime::ZERO, 7, BlockData::Opaque(1), &mut dq, &mut rng);
        let mut e = Enc::new();
        s.encode_wire(&mut e);
        let bytes = e.into_bytes();

        let other = Arc::new(GoldenImageBuilder::new("other", 100_000, 4096, 1).build());
        let mut d = Dec::new(&bytes);
        assert!(matches!(
            BranchingStore::decode_wire(&mut d, other),
            Err(DecodeError::Invalid("golden image name mismatch"))
        ));

        let wrong_geom = Arc::new(GoldenImageBuilder::new("base", 50_000, 4096, 1).build());
        let mut d = Dec::new(&bytes);
        assert!(matches!(
            BranchingStore::decode_wire(&mut d, wrong_geom),
            Err(DecodeError::Invalid("golden image geometry mismatch"))
        ));
    }

    #[test]
    fn take_current_delta_resets_state() {
        let (mut s, mut dq, mut rng) = setup(CowMode::Branch);
        s.write_block(SimTime::ZERO, 3, BlockData::Opaque(1), &mut dq, &mut rng);
        let delta = s.take_current_delta();
        assert_eq!(delta.len(), 1);
        assert!(s.current_delta().is_empty());
        // Content falls back to golden after the delta is taken.
        assert_eq!(s.peek(3), s.golden.read(3));
    }
}
