//! The three restore decoders — `DomainImage`, `BranchingStore`,
//! `DummynetImage` — cannot tell a verified chunk list
//! ([`Dec::chunked`]) from the contiguous buffer it concatenates to
//! ([`Dec::new`]): same values, same offsets, and on a truncated image
//! the same typed error, never a panic. A block number beyond the disk is
//! a typed error too, refused before anything is sized by it.
//!
//! The binary's `#[global_allocator]` notes the largest single request
//! each thread makes, for that last check.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use checkpoint::DelayNodeHost;
use ckptstore::{Dec, DecodeError, Enc, Segment, Wire};
use cowstore::{
    BitmapBlock, BlockData, BranchingStore, CowMode, DeltaMap, GoldenImage, GoldenImageBuilder,
    StoreLayout,
};
use dummynet::{DummynetImage, FrameResidue};
use emulab::{ExperimentSpec, Testbed};
use guestos::fs::{BufferCache, Ext3Fs};
use guestos::prog::FileId;
use guestos::{GuestResidue, Kernel, KernelConfig};
use hwsim::{Frame, NodeAddr};
use sim::SimDuration;
use vmm::{Domain, DomainImage, VmHost};
use workloads::{FileWriter, IperfReceiver, IperfSender};

thread_local! {
    /// The largest size this thread has asked the allocator for.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: a thread being torn down still frees and allocates.
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

struct Largest;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the note touches a thread-local
// `Cell` with a `const` initializer, which neither allocates nor
// registers a destructor.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Largest = Largest;

const NODE_KIND: &str = "test.node";
const DN_KIND: &str = "test.delaynode";

/// What the decoders need beside the bytes.
struct Side {
    residue: GuestResidue,
    golden: Arc<GoldenImage>,
    frames: FrameResidue,
}

/// A delta holding every kind of entry the wire format knows: opaque
/// blocks (data-section records), a zero block, a bitmap block, and a
/// tombstone mid-log.
fn delta(opaque: u64, salt: u64) -> DeltaMap {
    let mut d = DeltaMap::new();
    d.put(1, BlockData::Zero);
    d.put(2, BlockData::Opaque(salt));
    d.put(
        3,
        BlockData::Bitmap(BitmapBlock::new_free(1, 64, 100).with(7, true)),
    );
    for i in 0..opaque {
        d.put(
            10 + i,
            BlockData::Opaque(salt ^ (i + 1).wrapping_mul(0x9E37_79B9)),
        );
    }
    d.remove(2);
    d
}

/// A `Branch` store over a `block_size` golden image whose aggregate
/// and current delta each hold `opaque` records and one of everything
/// else.
fn block_store(opaque: u64, block_size: u32) -> (BranchingStore, Arc<GoldenImage>) {
    let golden = Arc::new(GoldenImageBuilder::new("base", 4096, block_size, 1).build());
    let layout = StoreLayout::for_image(&golden);
    let mut store = BranchingStore::new(golden.clone(), CowMode::Branch, layout);
    store.install_aggregate(delta(opaque, 0xA66));
    let mut dq = hwsim::DiskQueue::new(hwsim::Disk::new(hwsim::DiskProfile::pc3000_scsi()));
    let mut rng = sim::SimRng::from_seed(7);
    for (vba, data) in delta(opaque, 0xC0).iter_log_order() {
        store.write_block(
            sim::SimTime::ZERO,
            100 + vba,
            data.clone(),
            &mut dq,
            &mut rng,
        );
    }
    (store, golden)
}

fn encode_node(
    domain: &DomainImage,
    store: &BranchingStore,
    residue: &mut GuestResidue,
) -> Vec<u8> {
    let mut e = Enc::new();
    e.begin_image(NODE_KIND);
    domain.encode_wire(&mut e, residue);
    store.encode_wire(&mut e);
    e.into_bytes()
}

/// A node image of a freshly booted guest over 48-byte blocks: under
/// 3 KB, small enough to truncate at every byte.
fn small_node_image() -> (Vec<u8>, Side) {
    let mut cfg = KernelConfig::pc3000_guest(NodeAddr(1));
    cfg.disk_blocks = 10_000;
    cfg.cache_blocks = 128;
    let mut domain = Domain::new(Kernel::new(cfg), 256 << 20);
    domain.freeze(1.0e9);
    let mut image = domain.capture(32 << 20);
    image.pending_bursts.push((7, 123_456));
    let (store, golden) = block_store(3, 48);
    let mut residue = GuestResidue::new();
    let node = encode_node(&image, &store, &mut residue);
    (
        node,
        Side {
            residue,
            golden,
            frames: FrameResidue::default(),
        },
    )
}

/// A node image and a delay-node image captured from a live two-node TCP
/// experiment — the kernel holds real sockets, timers and buffers, the
/// pipes hold queued frames — with 2 × 512 block records of 4 KiB: a
/// 4 MB image, nearly all of it data section.
fn live_images() -> (Vec<u8>, Vec<u8>, Side) {
    let mut tb = Testbed::new(95, 8);
    let spec = ExperimentSpec::new("x").node("a").node("b").link(
        "a",
        "b",
        100_000_000,
        SimDuration::from_millis(20),
        0.0,
    );
    tb.swap_in(spec).expect("swap-in");
    tb.run_for(SimDuration::from_secs(5));
    let b_addr = tb.node_addr("x", "b");
    tb.spawn("x", "b", Box::new(IperfReceiver::new(5001)));
    tb.spawn("x", "a", Box::new(IperfSender::new(b_addr, 5001)));
    tb.run_for(SimDuration::from_secs(5));
    tb.snapshot("x", "s");

    let host = tb.host_id("x", "a");
    let domain = tb
        .engine
        .component_ref::<VmHost>(host)
        .unwrap()
        .last_image()
        .expect("captured");
    let dn = tb.experiment("x").delay_nodes[0].component;
    let pipes = tb
        .engine
        .component_ref::<DelayNodeHost>(dn)
        .unwrap()
        .last_image()
        .expect("captured");
    assert!(pipes.packets() > 0, "frames were in flight");

    let (store, golden) = block_store(512, 4096);
    let mut residue = GuestResidue::new();
    let node = encode_node(domain, &store, &mut residue);
    let mut frames = FrameResidue::default();
    let mut e = Enc::new();
    e.begin_image(DN_KIND);
    pipes.put(&mut e, &mut frames);
    (
        node,
        e.into_bytes(),
        Side {
            residue,
            golden,
            frames,
        },
    )
}

/// Decodes a node image as `try_travel_to` does, noting `position()`
/// after each decoder; the values come back re-encoded.
fn decode_node(d: &mut Dec<'_>, side: &Side) -> Result<(Vec<usize>, Vec<u8>), DecodeError> {
    let mut at = Vec::new();
    d.expect_image(NODE_KIND)?;
    at.push(d.position());
    let domain = DomainImage::decode_wire(d, &side.residue)?;
    at.push(d.position());
    let store = BranchingStore::decode_wire(d, side.golden.clone())?;
    at.push(d.position());
    at.push(d.remaining());
    let mut e = Enc::new();
    e.begin_image(NODE_KIND);
    domain.encode_wire(&mut e, &mut GuestResidue::new());
    store.encode_wire(&mut e);
    Ok((at, e.into_bytes()))
}

/// The same for a delay-node image.
fn decode_dn(d: &mut Dec<'_>, side: &Side) -> Result<(Vec<usize>, Vec<u8>), DecodeError> {
    d.expect_image(DN_KIND)?;
    let header = d.position();
    let pipes = DummynetImage::get(d, &side.frames)?;
    let mut e = Enc::new();
    e.begin_image(DN_KIND);
    pipes.put(&mut e, &mut FrameResidue::default());
    Ok((vec![header, d.position(), d.remaining()], e.into_bytes()))
}

type Decoder = fn(&mut Dec<'_>, &Side) -> Result<(Vec<usize>, Vec<u8>), DecodeError>;

fn cut(bytes: &[u8], size: usize) -> Vec<Segment> {
    bytes.chunks(size).map(|c| Segment::Bytes(Arc::from(c))).collect()
}

/// The whole image decodes to the bytes it was encoded from, through
/// either form and at every cut size, with equal offsets.
fn assert_whole_image_equivalent(bytes: &[u8], side: &Side, decode: Decoder, cuts: &[usize]) {
    let (at, back) = decode(&mut Dec::new(bytes), side).expect("contiguous decode");
    assert!(back == bytes, "decode is lossless");
    assert_eq!(at.last(), Some(&0), "nothing trails the image");
    for &size in cuts {
        let chunks = cut(bytes, size.min(bytes.len()));
        let got = decode(&mut Dec::chunked(&chunks), side).expect("chunked decode");
        assert_eq!(got.0, at, "offsets at cut {size}");
        assert!(got.1 == bytes, "values at cut {size}");
    }
}

/// Every listed prefix fails to decode, with the same error from both
/// forms (the chunk list cut small enough that reads straddle, and at
/// the store's own chunk size).
fn assert_truncations_equivalent(
    bytes: &[u8],
    side: &Side,
    decode: Decoder,
    prefixes: impl Iterator<Item = usize>,
) {
    let by_7 = cut(bytes, 7);
    let by_4096 = cut(bytes, 4096);
    for len in prefixes {
        let want = decode(&mut Dec::new(&bytes[..len]), side).expect_err("a prefix decoded");
        assert!(
            matches!(want, DecodeError::UnexpectedEof { at, want } if at + want > len),
            "prefix {len}: {want:?}"
        );
        for (size, whole) in [(7, &by_7), (4096, &by_4096)] {
            // The whole chunks below `len`, then the partial one.
            let mut chunks = whole[..len / size].to_vec();
            chunks.push(Segment::Bytes(Arc::from(&bytes[len / size * size..len])));
            let got = decode(&mut Dec::chunked(&chunks), side).expect_err("a prefix decoded");
            assert_eq!(got, want, "prefix {len} cut {size}");
        }
    }
}

const ALL_CUTS: [usize; 5] = [1, 3, 7, 4096, usize::MAX];

#[test]
fn small_image_decodes_alike_whole_and_at_every_prefix() {
    let (node, side) = small_node_image();
    assert_whole_image_equivalent(&node, &side, decode_node, &ALL_CUTS);
    assert_truncations_equivalent(&node, &side, decode_node, 0..node.len());
}

#[test]
fn live_images_decode_alike_whole_and_at_sampled_prefixes() {
    let (node, dn, side) = live_images();
    assert!(node.len() > 4 << 20);
    // No 1- or 3-byte cut of the node image: that is millions of
    // allocations.
    assert_whole_image_equivalent(&node, &side, decode_node, &[7, 4096, usize::MAX]);
    assert_whole_image_equivalent(&dn, &side, decode_dn, &ALL_CUTS);
    assert_truncations_equivalent(&dn, &side, decode_dn, 0..dn.len());
    // 64 prefixes of the node image: half inside the guest kernel, half
    // spread over the block store, all nudged off chunk boundaries.
    let (at, _) = decode_node(&mut Dec::new(&node), &side).unwrap();
    let (kernel_end, step) = (at[1], node.len() / 32);
    let prefixes = (0..32)
        .map(|i| i * (kernel_end / 32) + i % 7)
        .chain((0..32).map(|i| i * step + 1 + i % 7));
    assert_truncations_equivalent(&node, &side, decode_node, prefixes);
}

/// The offset of the one occurrence of `pattern` in `bytes`.
fn find_once(bytes: &[u8], pattern: &[u8]) -> usize {
    let hits: Vec<usize> = bytes
        .windows(pattern.len())
        .enumerate()
        .filter(|(_, w)| *w == pattern)
        .map(|(i, _)| i)
        .collect();
    assert_eq!(hits.len(), 1, "the field to patch is ambiguous");
    hits[0]
}

/// Decodes `bytes` with each `(offset, value)` of `patches` written
/// over the `u64` there: the result must be the typed error `want`, and
/// no single allocation on the way may be larger than 4 MB.
fn assert_refused<T>(
    bytes: &[u8],
    patches: &[(usize, u64)],
    want: &'static str,
    decode: &impl Fn(&mut Dec<'_>) -> Result<T, DecodeError>,
) {
    let mut patched = bytes.to_vec();
    for &(at, value) in patches {
        patched[at..at + 8].copy_from_slice(&value.to_le_bytes());
    }
    LARGEST.with(|l| l.set(0));
    let got = decode(&mut Dec::new(&patched)).err();
    let largest = LARGEST.with(Cell::get);
    assert_eq!(got, Some(DecodeError::Invalid(want)), "patched {patches:?}");
    assert!(
        largest <= 4 << 20,
        "{want}: a {largest}-byte allocation for {patches:?}"
    );
}

fn encoded(encode: impl FnOnce(&mut Enc)) -> Vec<u8> {
    let mut e = Enc::new();
    encode(&mut e);
    e.into_bytes()
}

#[test]
fn block_numbers_beyond_the_disk_are_typed_errors_in_every_image_kind() {
    const BLOCKS: u64 = 10_000;
    // The first block number past the disk, and one no table could hold.
    const BEYOND: [u64; 2] = [BLOCKS, u64::MAX - 1];
    let fp = 0x5EED_F00D_u64;

    // A redo-log entry of a block store: vba, then the opaque tag.
    let golden = Arc::new(GoldenImageBuilder::new("base", BLOCKS, 48, 1).build());
    let layout = StoreLayout::for_image(&golden);
    let mut store = BranchingStore::new(golden.clone(), CowMode::Branch, layout);
    let mut dq = hwsim::DiskQueue::new(hwsim::Disk::new(hwsim::DiskProfile::pc3000_scsi()));
    let mut rng = sim::SimRng::from_seed(7);
    store.write_block(
        sim::SimTime::ZERO,
        3_333,
        BlockData::Opaque(fp),
        &mut dq,
        &mut rng,
    );
    let bytes = encoded(|e| store.encode_wire(e));
    let at = find_once(&bytes, &[&3_333u64.to_le_bytes()[..], &[2]].concat());
    let decode = |d: &mut Dec<'_>| BranchingStore::decode_wire(d, golden.clone());
    assert!(decode(&mut Dec::new(&bytes)).is_ok());
    for v in BEYOND {
        assert_refused(&bytes, &[(at, v)], "delta block beyond the disk", &decode);
    }

    // An inode: its size, its block count, then (index, vba) pairs. The
    // index is checked against the size, the size and the vba against
    // the disk.
    let mut fs = Ext3Fs::format(BLOCKS, 4096, 1000);
    fs.create(FileId(0xF11E)).unwrap();
    let writes = fs.write(FileId(0xF11E), 7 * 4096, 4096).unwrap();
    let vba = writes.last().unwrap().vba;
    let bytes = encoded(|e| fs.put(e, &mut ()));
    let at = find_once(&bytes, &[7u64.to_le_bytes(), vba.to_le_bytes()].concat());
    let size_at = at - 12;
    assert_eq!(bytes[size_at..size_at + 8], (8 * 4096u64).to_le_bytes());
    let decode = |d: &mut Dec<'_>| Ext3Fs::get(d, &());
    assert!(decode(&mut Dec::new(&bytes)).is_ok());
    let index_error = "inode block index beyond the file size";
    for v in BEYOND {
        assert_refused(&bytes, &[(at, v)], index_error, &decode);
        assert_refused(&bytes, &[(at + 8, v)], "inode block beyond the disk", &decode);
        // A size grown as far as the disk allows still bounds the index.
        assert_refused(&bytes, &[(size_at, BLOCKS * 4096), (at, v)], index_error, &decode);
    }
    let too_big = "file larger than the disk";
    assert_refused(&bytes, &[(size_at, BLOCKS * 4096 + 1)], too_big, &decode);
    let both = [(size_at, u64::MAX - 1), (at, u64::MAX - 1)];
    assert_refused(&bytes, &both, too_big, &decode);
    // A group short of `blocks_per_group` that is not the last: the span
    // would no longer be bounded by the bitmap words read.
    let mut short = bytes.clone();
    short[24..28].copy_from_slice(&999u32.to_le_bytes()); // Group 0's size.
    let got = decode(&mut Dec::new(&short)).err();
    assert_eq!(got, Some(DecodeError::Invalid("fs block group geometry")));

    // A buffer-cache entry: vba, then the block's inline encoding.
    let mut cache = BufferCache::new(64);
    cache.insert(4_321, BlockData::Opaque(fp), true);
    let bytes = encoded(|e| Wire::put(&cache, e, &mut { BLOCKS }));
    let at = find_once(
        &bytes,
        &[&4_321u64.to_le_bytes()[..], &[1], &fp.to_le_bytes()].concat(),
    );
    let decode = |d: &mut Dec<'_>| BufferCache::get(d, &BLOCKS);
    assert!(decode(&mut Dec::new(&bytes)).is_ok());
    for v in BEYOND {
        assert_refused(&bytes, &[(at, v)], "cached block beyond the disk", &decode);
    }

    // A kernel whose guest wrote three blocks: the cache's bound is the
    // decoded filesystem's span, which the image's `disk_blocks` must
    // equal, so patching both together is refused too.
    let mut cfg = KernelConfig::pc3000_guest(NodeAddr(1));
    cfg.disk_blocks = BLOCKS;
    cfg.cache_blocks = 128;
    let mut kernel = Kernel::new(cfg);
    kernel.spawn(Box::new(FileWriter::new(FileId(0xF11E), 3 * 4096)));
    kernel.on_timer_tick(10_000_000);
    // The hypervisor takes the sync's writeback batch, so the image holds
    // the blocks in the cache only.
    let mut actions = Vec::new();
    kernel.drain_actions(&mut actions);
    assert!(matches!(actions[..], [guestos::GuestAction::BlockIo(_)]));
    let mut residue = GuestResidue::new();
    let bytes = encoded(|e| kernel.put(e, &mut residue));
    // The third data block, cached with its opaque tag.
    let at = find_once(&bytes, &[&3u64.to_le_bytes()[..], &[1]].concat());
    let disk_at = 16; // After hz, node and cache_blocks.
    assert_eq!(bytes[disk_at..disk_at + 8], BLOCKS.to_le_bytes());
    let decode = |d: &mut Dec<'_>| Kernel::get(d, &residue);
    assert!(decode(&mut Dec::new(&bytes)).is_ok());
    let span_error = "fs does not span the disk";
    for v in BEYOND {
        assert_refused(&bytes, &[(at, v)], "cached block beyond the disk", &decode);
    }
    for v in [BLOCKS + 1, u64::MAX - 1] {
        assert_refused(&bytes, &[(disk_at, v)], span_error, &decode);
        assert_refused(&bytes, &[(disk_at, v), (at, v)], span_error, &decode);
    }
}

/// FNV-1a over an encoding: any change to the bytes of the format moves it.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn image_encodings_keep_their_pinned_digests() {
    let (small, side) = small_node_image();
    let (node, dn, live) = live_images();
    // Each decodes and re-encodes to the bytes it came from.
    assert!(decode_node(&mut Dec::new(&small), &side).unwrap().1 == small);
    assert!(decode_node(&mut Dec::new(&node), &live).unwrap().1 == node);
    assert!(decode_dn(&mut Dec::new(&dn), &live).unwrap().1 == dn);
    let got = [&small, &node, &dn].map(|b| (b.len(), digest(b)));
    // Taken from the hand-written encoders the field lists replaced.
    let want = [
        (0x8c1, 0xdfb3_c32d_1274_064d),
        (0x43_6051, 0x26c2_906c_bf71_b748),
        (0x896, 0x693c_1426_70e8_24d5),
    ];
    assert_eq!(got, want);
}

/// Decodes `bytes` with the `u32` count at each `at` overwritten by
/// `count`: the result must be a typed error, and no single allocation
/// on the way larger than 4 MB — a count read from an image sizes no
/// reservation the bytes after it could not fill.
fn assert_count_bounded<T>(
    what: &str,
    bytes: &[u8],
    at: usize,
    count: u32,
    decode: &impl Fn(&mut Dec<'_>) -> Result<T, DecodeError>,
) {
    assert!(decode(&mut Dec::new(bytes)).is_ok(), "{what}: the unpatched image decodes");
    let mut patched = bytes.to_vec();
    patched[at..at + 4].copy_from_slice(&count.to_le_bytes());
    LARGEST.with(|l| l.set(0));
    let got = decode(&mut Dec::new(&patched)).err();
    let largest = LARGEST.with(Cell::get);
    assert!(got.is_some(), "{what}: a count of {count} decoded");
    assert!(largest <= 4 << 20, "{what}: a {largest}-byte allocation for a count of {count}");
}

/// The `u32` at `at`.
fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

#[test]
fn a_patched_count_sizes_no_allocation_beyond_the_image() {
    // The small node image: header (19 B), then the kernel's
    // configuration (32 B) and clocks (24 B), the thread count, the
    // empty run queue, wheel, firewall state (27 B) and socket table
    // (14 B), then the capture's enabled flag and record count. The
    // action count sits before `exited`, the domain's clocks and sizes
    // (24 B) and its one pending burst (4 + 16 B).
    let (node, side) = small_node_image();
    let decode = |d: &mut Dec<'_>| decode_node(d, &side);
    let (threads, trace) = (19 + 32 + 24, 19 + 32 + 24 + 4 + 4 + 4 + 27 + 14 + 1);
    let (at, _) = decode(&mut Dec::new(&node)).unwrap();
    let actions = at[1] - 20 - 24 - 4 - 4;
    assert_eq!(u32_at(&node, actions - 8 - 8 - 1 - 4), 0, "no outstanding batches");
    for (what, at) in [("threads", threads), ("trace records", trace), ("actions", actions)] {
        assert_eq!(u32_at(&node, at), 0, "{what}: the count patched is the empty one");
        for count in [1_000_000, 50_000_000, u32::MAX] {
            assert_count_bounded(what, &node, at, count, &decode);
        }
    }

    // A delay-node image: header (24 B), the pipe count, then the first
    // pipe's shaping (1 + 8 + 8 + 8 + 8 B) and busy offset before its
    // queued-frame count.
    let mut dn = dummynet::Dummynet::new();
    let pipe = dn.add_pipe(dummynet::PipeConfig {
        bandwidth_bps: Some(8_000_000),
        delay: SimDuration::from_millis(1),
        plr: 0.0,
        queue_slots: 50,
    });
    let mut rng = sim::SimRng::from_seed(1);
    for _ in 0..3 {
        dn.enqueue(sim::SimTime::ZERO, pipe, Frame::new(NodeAddr(1), NodeAddr(2), 1000, ()), &mut rng);
    }
    dn.suspend(sim::SimTime::ZERO);
    let image = dn.serialize(sim::SimTime::ZERO);
    let mut frames = FrameResidue::default();
    let mut e = Enc::new();
    e.begin_image(DN_KIND);
    image.put(&mut e, &mut frames);
    let bytes = e.into_bytes();
    let side = Side { frames, ..small_node_image().1 };
    let decode = |d: &mut Dec<'_>| decode_dn(d, &side);
    let (pipes, entries) = (24, 24 + 4 + 33 + 8);
    assert_eq!((u32_at(&bytes, pipes), u32_at(&bytes, entries)), (1, 3));
    for count in [1_000_000, 50_000_000, u32::MAX] {
        assert_count_bounded("pipes", &bytes, pipes, count, &decode);
        assert_count_bounded("queued frames", &bytes, entries, count, &decode);
    }

    // A WAL frame: tag, clock, group, epoch, hold, trace context and the
    // target clock reading (1 + 8 + 4 + 8 + 1 + 8 + 9 B) before the
    // participant count.
    let frame = checkpoint::WalRecord::RoundOpen {
        at_ns: 12,
        group: 0,
        epoch: 1,
        hold: false,
        notify_at_clock_ns: Some(1.5e9),
        participants: vec![1, 2, 3],
        forced_full: vec![2],
        trace: (0, 1),
    }
    .encode();
    assert_eq!(u32_at(&frame, 39), 3);
    let decode = |d: &mut Dec<'_>| {
        let n = d.remaining();
        checkpoint::WalRecord::decode(&d.raw(n)?)
    };
    for count in [1_000_000, 50_000_000, u32::MAX] {
        assert_count_bounded("participants", &frame, 39, count, &decode);
    }
}
