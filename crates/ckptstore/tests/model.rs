//! The store against a reference model. Seeded sequences of operations —
//! borrowed and segment puts that deduplicate on purpose, removals that
//! free chunks under live images, every damage path, replication raised
//! and lowered with a redundancy rebuild, scrubs, per-shard pumps and
//! drains — run against a [`StoreClient`] and against a model kept in
//! `BTreeMap`s: each chunk's bytes, refcount and copies, each image's
//! list of addresses, and the repair queue. After every operation
//! everything the handle shows is compared: each live image's load
//! (bytes or error), the report or result of the operation, `stats()`,
//! the byte and chunk counts, the repair queue in order and its
//! statistics. The model has no slots, free list or address table, so
//! the store's must be invisible: a slot reused while an image names it,
//! or an address left pointing at a freed slot, shows up as a wrong
//! load.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use ckptstore::{
    chunk_hash, shard_of, write_record, CaptureCache, ChunkHash, ImageId, ImageStats, PutReport,
    RepairStats, RepairTask, Segment, StoreClient, StoreError, SEGMENT_SIZE,
};

const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64: the generator of the op sequences, and the store's own
/// write-fault draw, so the model knows which primaries a fault damages.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        splitmix64(&mut self.0) % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

/// `bytes` with byte `i` (modulo the length) flipped: what every damage
/// path of the store writes in place of a copy.
fn damaged(bytes: &[u8], i: usize) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let i = i % out.len();
    out[i] ^= 0x01;
    out
}

fn bytes_of(seg: &Segment) -> Vec<u8> {
    let mut out = Vec::with_capacity(seg.len());
    seg.extend_vec(&mut out);
    out
}

struct Chunk {
    bytes: Vec<u8>,
    refs: u32,
    /// Copy `r` as it is held, `None` while missing; copy 0 is always
    /// there.
    copies: Vec<Option<Vec<u8>>>,
}

impl Chunk {
    fn intact(&self, r: usize) -> bool {
        self.copies[r].as_deref() == Some(&self.bytes[..])
    }
}

struct Image {
    len: u64,
    chunks: Vec<ChunkHash>,
}

/// What a run did, for the floors at the end.
#[derive(Default, Clone, Copy)]
struct Reached {
    ops: u64,
    /// New chunks stored while a freed slot was waiting to be reused.
    slot_reuses: u64,
    dedup_hits: u64,
    replica_loads: u64,
    healed: u64,
    added: u64,
}

impl Reached {
    fn add(&mut self, o: Reached) {
        self.ops += o.ops;
        self.slot_reuses += o.slot_reuses;
        self.dedup_hits += o.dedup_hits;
        self.replica_loads += o.replica_loads;
        self.healed += o.healed;
        self.added += o.added;
    }
}

/// The store's observable state, kept the plain way.
struct Model {
    shards: usize,
    replication: usize,
    chunks: BTreeMap<ChunkHash, Chunk>,
    images: BTreeMap<u64, Image>,
    next_image: u64,
    queue: VecDeque<RepairTask>,
    queued: BTreeSet<(ChunkHash, u8)>,
    repair: RepairStats,
    repaired: u64,
    /// Write-fault generator state and rate.
    faults: Option<(u64, u32)>,
    /// Chunks freed and not yet replaced by a new one.
    freed: u64,
    reached: Reached,
}

impl Model {
    fn new(shards: usize, replication: usize) -> Self {
        Model {
            shards,
            replication,
            chunks: BTreeMap::new(),
            images: BTreeMap::new(),
            next_image: 0,
            queue: VecDeque::new(),
            queued: BTreeSet::new(),
            repair: RepairStats::default(),
            repaired: 0,
            faults: None,
            freed: 0,
            reached: Reached::default(),
        }
    }

    fn put(&mut self, chunks: Vec<Vec<u8>>) -> PutReport {
        let id = ImageId(self.next_image);
        self.next_image += 1;
        let mut report = PutReport {
            image: id,
            logical_bytes: 0,
            new_physical_bytes: 0,
            chunks_total: chunks.len() as u64,
            chunks_new: 0,
            shards_touched: 0,
            replica_acks: 0,
            repairs_enqueued: 0,
        };
        let mut touched = BTreeSet::new();
        let mut manifest = Vec::new();
        for bytes in chunks {
            let h = chunk_hash(&bytes);
            let len = bytes.len() as u64;
            report.logical_bytes += len;
            manifest.push(h);
            if let Some(c) = self.chunks.get_mut(&h) {
                c.refs += 1;
                self.reached.dedup_hits += 1;
                continue;
            }
            report.chunks_new += 1;
            report.new_physical_bytes += len;
            let mut primary = bytes.clone();
            if let Some((state, per_million)) = &mut self.faults {
                let draw = splitmix64(state);
                if len > 0 && draw % 1_000_000 < u64::from(*per_million) {
                    primary = damaged(&bytes, (draw >> 32) as usize);
                }
            }
            let mut copies = vec![Some(primary)];
            copies.extend((1..self.replication).map(|_| Some(bytes.clone())));
            touched.extend((0..self.replication).map(|r| shard_of(h, r as u8, self.shards)));
            report.replica_acks += self.replication as u64 - 1;
            if self.freed > 0 {
                self.freed -= 1;
                self.reached.slot_reuses += 1;
            }
            self.chunks.insert(h, Chunk { bytes, refs: 1, copies });
        }
        report.shards_touched = touched.len() as u32;
        self.images.insert(id.0, Image { len: report.logical_bytes, chunks: manifest });
        report
    }

    fn enqueue(&mut self, task: RepairTask) -> bool {
        let fresh = self.queued.insert((task.hash, task.copy));
        if fresh {
            self.queue.push_back(task);
            self.repair.enqueued += 1;
        }
        fresh
    }

    fn load(&mut self, id: ImageId) -> Result<Vec<Vec<u8>>, StoreError> {
        let image = self.images.get(&id.0).ok_or(StoreError::UnknownImage(id))?;
        let mut out = Vec::new();
        // A load that fails changes nothing: these land at the end.
        let mut served = 0;
        let mut repairs = Vec::new();
        for (i, h) in image.chunks.iter().enumerate() {
            let c = &self.chunks[h];
            if !c.intact(0) {
                let Some(r) = (1..c.copies.len()).find(|&r| c.intact(r)) else {
                    let actual = chunk_hash(c.copies[0].as_ref().expect("copy 0"));
                    return Err(StoreError::CorruptChunk {
                        image: id,
                        chunk_index: i,
                        expected: *h,
                        actual,
                    });
                };
                repairs.extend((0..r as u8).map(|copy| RepairTask { hash: *h, copy }));
                served += 1;
            }
            out.push(c.bytes.clone());
        }
        self.repaired += served;
        for task in repairs {
            self.enqueue(task);
        }
        Ok(out)
    }

    fn remove(&mut self, id: ImageId) -> Result<u64, StoreError> {
        let image = self.images.remove(&id.0).ok_or(StoreError::UnknownImage(id))?;
        let mut freed = 0;
        for h in image.chunks {
            let c = self.chunks.get_mut(&h).expect("a named chunk");
            c.refs -= 1;
            if c.refs == 0 {
                let c = self.chunks.remove(&h).expect("a named chunk");
                freed += c.bytes.len() as u64;
                self.freed += 1;
                for r in 0..c.copies.len() as u8 {
                    self.queued.remove(&(h, r));
                }
            }
        }
        Ok(freed)
    }

    fn chunk_of(&self, image: ImageId, chunk_index: usize) -> Result<ChunkHash, StoreError> {
        let m = self.images.get(&image.0).ok_or(StoreError::UnknownImage(image))?;
        m.chunks
            .get(chunk_index)
            .copied()
            .filter(|h| !self.chunks[h].bytes.is_empty())
            .ok_or(StoreError::NoSuchChunk { image, chunk_index })
    }

    fn corrupt(
        &mut self,
        image: ImageId,
        idx: usize,
        byte: usize,
        every: bool,
    ) -> Result<(), StoreError> {
        let h = self.chunk_of(image, idx)?;
        let c = self.chunks.get_mut(&h).expect("a named chunk");
        let n = if every { c.copies.len() } else { 1 };
        for copy in c.copies[..n].iter_mut().flatten() {
            *copy = damaged(copy, byte);
        }
        Ok(())
    }

    fn scrub(&mut self) -> u64 {
        let mut tasks = Vec::new();
        for (&hash, c) in &self.chunks {
            let bad = (0..c.copies.len()).filter(|&r| !c.intact(r));
            tasks.extend(bad.map(|r| RepairTask { hash, copy: r as u8 }));
        }
        tasks.into_iter().map(|t| u64::from(self.enqueue(t))).sum()
    }

    fn rebuild(&mut self) -> u64 {
        let want = self.replication;
        let mut tasks = Vec::new();
        for (&hash, c) in self.chunks.iter_mut() {
            if c.copies.len() < want {
                tasks.extend((c.copies.len()..want).map(|r| RepairTask { hash, copy: r as u8 }));
                c.copies.resize(want, None);
            }
        }
        let raised = tasks.iter().map(|t| t.hash).collect::<BTreeSet<_>>().len() as u64;
        for task in tasks {
            self.enqueue(task);
        }
        raised
    }

    fn pump(&mut self, shard: Option<usize>, max: usize) -> (u64, u64) {
        let (mut healed, mut added) = (0, 0);
        let (mut scanned, mut done) = (0, 0);
        let backlog = self.queue.len();
        while done < max && scanned < backlog {
            let Some(task) = self.queue.pop_front() else { break };
            scanned += 1;
            if shard.is_some_and(|s| shard_of(task.hash, task.copy, self.shards) != s) {
                self.queue.push_back(task);
                continue;
            }
            self.queued.remove(&(task.hash, task.copy));
            done += 1;
            self.repair.processed += 1;
            // A task whose chunk died, that names a copy the chunk does
            // not keep, whose copy is intact, or with no intact sibling
            // is dropped.
            let Some(c) = self.chunks.get_mut(&task.hash) else { continue };
            let r = usize::from(task.copy);
            if r >= c.copies.len() || c.intact(r) {
                continue;
            }
            if !(0..c.copies.len()).any(|s| s != r && c.intact(s)) {
                continue;
            }
            let was_present = c.copies[r].is_some();
            c.copies[r] = Some(c.bytes.clone());
            if was_present {
                healed += 1;
                self.repair.healed_copies += 1;
            } else {
                added += 1;
                self.repair.added_copies += 1;
            }
        }
        (healed, added)
    }

    fn stats(&self) -> ImageStats {
        let logical: u64 = self.images.values().map(|m| m.len).sum();
        let physical = self.physical_bytes();
        ImageStats {
            logical_bytes: logical,
            physical_bytes: physical,
            dedup_ratio: if physical == 0 { 1.0 } else { logical as f64 / physical as f64 },
            chunks_shared: self.chunks.values().filter(|c| c.refs > 1).count() as u64,
        }
    }

    fn physical_bytes(&self) -> u64 {
        self.chunks.values().map(|c| c.bytes.len() as u64).sum()
    }

    fn replica_bytes(&self) -> u64 {
        let replicas = self.chunks.values().flat_map(|c| c.copies[1..].iter().flatten());
        replicas.map(|copy| copy.len() as u64).sum()
    }
}

/// Loads every live image from both and compares everything else the
/// handle shows.
fn check(store: &StoreClient, model: &mut Model, what: &str) {
    let ids: Vec<u64> = model.images.keys().copied().collect();
    for id in ids {
        let got = store.load_image_chunks(ImageId(id));
        let want = model.load(ImageId(id));
        match (got, want) {
            (Ok(got), Ok(want)) => {
                assert_eq!(got.len(), want.len(), "{what}: chunks of image {id}");
                for (i, (seg, bytes)) in got.iter().zip(&want).enumerate() {
                    assert!(bytes_of(seg) == *bytes, "{what}: chunk {i} of image {id} differs");
                }
            }
            (got, want) => assert_eq!(got.err(), want.err(), "{what}: load of image {id}"),
        }
    }
    assert_eq!(store.image_count(), model.images.len(), "{what}: images");
    assert_eq!(store.stats(), model.stats(), "{what}: stats");
    assert_eq!(store.physical_bytes(), model.physical_bytes(), "{what}: physical bytes");
    assert_eq!(store.replica_bytes(), model.replica_bytes(), "{what}: replica bytes");
    assert_eq!(store.chunk_count(), model.chunks.len(), "{what}: chunks");
    assert_eq!(store.pending_repairs(), Vec::from(model.queue.clone()), "{what}: repair queue");
    assert_eq!(store.repair_stats(), model.repair, "{what}: repair stats");
    assert_eq!(store.repaired_chunks(), model.repaired, "{what}: replica-served chunks");
}

/// A full chunk from one of three families, each small enough that the
/// sequence draws the same chunk again: byte patterns, block records, and
/// block records written out as bytes (one chunk with the record: same
/// address).
#[derive(Clone, Copy, Debug)]
enum Piece {
    Pattern(u64),
    Record(u64),
    RecordBytes(u64),
}

impl Piece {
    fn draw(rng: &mut Rng) -> Piece {
        // A pool of six per family, and now and then one never seen.
        let tag = if rng.below(5) == 0 { 1_000 + rng.below(1 << 40) } else { rng.below(6) };
        match rng.below(3) {
            0 => Piece::Pattern(tag),
            1 => Piece::Record(0xF00D_0000 + tag),
            _ => Piece::RecordBytes(0xF00D_0000 + tag),
        }
    }

    fn bytes(self) -> Vec<u8> {
        let mut out = vec![0u8; SEGMENT_SIZE];
        match self {
            Piece::Pattern(tag) => {
                for (j, b) in out.iter_mut().enumerate() {
                    *b = (tag as usize * 31 + j * 7 + (j >> 8)) as u8;
                }
            }
            Piece::Record(fp) | Piece::RecordBytes(fp) => write_record(fp, &mut out),
        }
        out
    }

    fn segment(self) -> Segment {
        match self {
            Piece::Record(fp) => Segment::Record(fp),
            other => Segment::Bytes(other.bytes().into()),
        }
    }
}

/// An image's chunks: one to four full ones and, half the time, a short
/// tail from a small pool of lengths.
fn draw_image(rng: &mut Rng) -> (Vec<Piece>, Option<Vec<u8>>) {
    let pieces = (0..1 + rng.below(4)).map(|_| Piece::draw(rng)).collect();
    let tail = (rng.below(2) == 0).then(|| {
        let len = rng.pick(&[1usize, 100, 4095]);
        let tag = rng.below(3) as u8;
        (0..len).map(|j| tag ^ (j as u8)).collect()
    });
    (pieces, tail)
}

const SHARDS: [usize; 3] = [1, 2, 3];
const COPIES: [usize; 3] = [1, 2, 3];
const OPS: u64 = 400;
/// Live images past which the sequence removes one.
const MAX_LIVE: usize = 6;

/// One seeded sequence of `OPS` operations on a fresh store.
fn run(shards: usize, copies: usize, seed: u64) -> Reached {
    let store = StoreClient::builder().shards(shards).replication(copies).build();
    let mut model = Model::new(shards, copies);
    let mut cache = CaptureCache::new();
    let mut rng = Rng(seed);
    let live = |m: &Model, rng: &mut Rng| -> ImageId {
        // Now and then an id that was never stored, or was removed.
        let ids: Vec<u64> = m.images.keys().copied().collect();
        if ids.is_empty() || rng.below(10) == 0 {
            ImageId(rng.below(m.next_image + 2))
        } else {
            ImageId(rng.pick(&ids))
        }
    };
    for op in 0..OPS {
        let mut roll = rng.below(100);
        if model.images.len() > MAX_LIVE {
            roll = 45;
        }
        let what =
            format!("{shards} shards x {copies} copies, seed {seed:#x}, op {op} (roll {roll})");
        match roll {
            0..=21 => {
                let (pieces, tail) = draw_image(&mut rng);
                let mut chunks: Vec<Vec<u8>> = pieces.iter().map(|p| p.bytes()).collect();
                chunks.extend(tail);
                let got = if rng.below(2) == 0 {
                    store.put_image(&chunks.concat())
                } else {
                    store.put_image_cached(&chunks.concat(), &mut cache)
                };
                assert_eq!(got, model.put(chunks), "{what}: borrowed put");
            }
            22..=43 => {
                let (pieces, tail) = draw_image(&mut rng);
                let mut segments: Vec<Segment> = pieces.iter().map(|p| p.segment()).collect();
                segments.extend(tail.clone().map(|t| Segment::Bytes(t.into())));
                let mut chunks: Vec<Vec<u8>> = pieces.iter().map(|p| p.bytes()).collect();
                chunks.extend(tail);
                let got = store.put_segments_cached(segments, &mut cache);
                assert_eq!(got, model.put(chunks), "{what}: segment put");
            }
            44..=55 => {
                let id = live(&model, &mut rng);
                assert_eq!(store.remove_image(id), model.remove(id), "{what}: remove");
            }
            56..=67 => {
                let (id, idx, byte) =
                    (live(&model, &mut rng), rng.below(6) as usize, rng.below(5000) as usize);
                let every = roll >= 63;
                let got = if every {
                    store.corrupt_chunk(id, idx, byte)
                } else {
                    store.corrupt_primary(id, idx, byte)
                };
                assert_eq!(got, model.corrupt(id, idx, byte, every), "{what}: damage");
            }
            68..=71 => {
                let (fault_seed, rate) = (rng.below(1 << 32), rng.pick(&[300_000, 1_000_000]));
                store.inject_write_faults(fault_seed, rate);
                model.faults = Some((fault_seed, rate));
            }
            72..=74 => {
                store.clear_write_faults();
                model.faults = None;
            }
            75..=79 => {
                let n = rng.pick(&COPIES);
                store.set_replication(n);
                model.replication = n;
                assert_eq!(store.schedule_redundancy_rebuild(), model.rebuild(), "{what}: rebuild");
            }
            80..=85 => assert_eq!(store.schedule_scrub(), model.scrub(), "{what}: scrub"),
            86..=93 => {
                let (shard, max) = (rng.below(shards as u64) as usize, 1 + rng.below(4) as usize);
                let got = store.pump_repairs(Some(shard), max, None);
                assert_eq!(got, model.pump(Some(shard), max), "{what}: pump");
            }
            _ => assert_eq!(store.drain_repairs(), model.pump(None, usize::MAX), "{what}: drain"),
        }
        check(&store, &mut model, &what);
    }
    Reached {
        ops: OPS,
        replica_loads: model.repaired,
        healed: model.repair.healed_copies,
        added: model.repair.added_copies,
        ..model.reached
    }
}

#[test]
fn the_store_matches_its_reference_model() {
    let mut total = Reached::default();
    for shards in SHARDS {
        for copies in COPIES {
            let seed = 0x5EED_0000 + (shards * 10 + copies) as u64;
            let r = run(shards, copies, seed);
            println!(
                "model: {shards} shard(s) x {copies} cop(ies): {} ops, {} slot reuses, {} dedup \
                 hits, {} replica-served loads, {} healed, {} added",
                r.ops, r.slot_reuses, r.dedup_hits, r.replica_loads, r.healed, r.added
            );
            assert!(r.slot_reuses >= 100, "{shards}x{copies}: too few slot reuses to test reuse");
            assert!(r.dedup_hits >= 100, "{shards}x{copies}: too few dedup hits");
            total.add(r);
        }
    }
    assert!(total.replica_loads >= 1000, "{} replica-served loads", total.replica_loads);
    assert!(total.healed >= 100, "{} healed copies", total.healed);
    assert!(total.added >= 100, "{} added copies", total.added);
}

/// What each shard's byte count adds up to, through `replica_bytes`: a
/// record counts its 4096, a copy written in place of another is counted
/// once, and a copy that was never written is not subtracted when its
/// chunk goes.
#[test]
fn replica_bytes_count_each_present_copy_once() {
    let store = StoreClient::builder().shards(3).replication(2).build();
    let record = store.put_segments_cached(vec![Segment::Record(9)], &mut CaptureCache::new());
    assert_eq!((store.physical_bytes(), store.replica_bytes()), (4096, 4096));

    // Damage writes a byte copy over each copy, and repair writes the
    // replica back over the primary: still one copy each.
    store.corrupt_chunk(record.image, 0, 7).unwrap();
    assert_eq!(store.replica_bytes(), 4096);
    store.corrupt_chunk(record.image, 0, 7).unwrap();
    store.corrupt_primary(record.image, 0, 1).unwrap();
    store.schedule_scrub();
    assert_eq!(store.drain_repairs(), (1, 0));
    assert_eq!(store.replica_bytes(), 4096);

    // A chunk whose replicas were asked for but never written.
    store.set_replication(1);
    let bytes = store.put_image(&[5u8; 100]);
    store.set_replication(3);
    assert_eq!(store.schedule_redundancy_rebuild(), 2);
    assert_eq!(store.replica_bytes(), 4096, "a rebuild writes nothing by itself");
    assert_eq!(store.remove_image(bytes.image), Ok(100));
    assert_eq!(store.replica_bytes(), 4096);
    assert_eq!(store.remove_image(record.image), Ok(4096));
    assert_eq!((store.physical_bytes(), store.replica_bytes()), (0, 0));
    assert_eq!(store.drain_repairs(), (0, 0), "the queued copies died with their chunks");
}

/// A repair task names a chunk by address. When the chunk dies with the
/// task queued and the same bytes come back at a lower replication, the
/// task names a copy the new chunk does not keep: it writes nothing.
#[test]
fn a_repair_task_that_outlives_its_chunk_writes_no_copy() {
    let store = StoreClient::builder().shards(3).build();
    let image = [7u8; 64];
    let first = store.put_image(&image);
    store.set_replication(3);
    assert_eq!(store.schedule_redundancy_rebuild(), 1);
    assert_eq!(store.repair_backlog(), 2, "copies 1 and 2 to add");
    store.remove_image(first.image).unwrap();

    store.set_replication(1);
    let again = store.put_image(&image);
    assert_eq!(again.chunks_new, 1);
    assert_eq!(store.drain_repairs(), (0, 0), "the tasks belonged to the dead chunk");
    assert_eq!(store.replica_bytes(), 0);
    assert_eq!(store.repair_stats().added_copies, 0);
    store.remove_image(again.image).unwrap();
    assert_eq!((store.physical_bytes(), store.replica_bytes()), (0, 0));
}
