//! The three restore decoders — `DomainImage`, `BranchingStore`,
//! `DummynetImage` — cannot tell a verified chunk list
//! ([`Dec::chunked`]) from the contiguous buffer it concatenates to
//! ([`Dec::new`]): same values, same offsets, and on a truncated image
//! the same typed error, never a panic.

use std::sync::Arc;

use checkpoint::DelayNodeHost;
use ckptstore::{Dec, DecodeError, Enc};
use cowstore::{
    BitmapBlock, BlockData, BranchingStore, CowMode, DeltaMap, GoldenImage, GoldenImageBuilder,
    StoreLayout,
};
use dummynet::DummynetImage;
use emulab::{ExperimentSpec, Testbed};
use guestos::{GuestResidue, Kernel, KernelConfig};
use hwsim::{Frame, NodeAddr};
use sim::SimDuration;
use vmm::{Domain, DomainImage, VmHost};
use workloads::{IperfReceiver, IperfSender};

const NODE_KIND: &str = "test.node";
const DN_KIND: &str = "test.delaynode";

/// What the decoders need beside the bytes.
struct Side {
    residue: GuestResidue,
    golden: Arc<GoldenImage>,
    frames: Vec<Frame>,
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
            frames: Vec::new(),
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
    let mut frames = Vec::new();
    let mut e = Enc::new();
    e.begin_image(DN_KIND);
    pipes.encode_wire(&mut e, &mut frames);
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
    let pipes = DummynetImage::decode_wire(d, &side.frames)?;
    let mut e = Enc::new();
    e.begin_image(DN_KIND);
    pipes.encode_wire(&mut e, &mut Vec::new());
    Ok((vec![header, d.position(), d.remaining()], e.into_bytes()))
}

type Decoder = fn(&mut Dec<'_>, &Side) -> Result<(Vec<usize>, Vec<u8>), DecodeError>;

fn cut(bytes: &[u8], size: usize) -> Vec<Arc<[u8]>> {
    bytes.chunks(size).map(Arc::from).collect()
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
            chunks.push(Arc::from(&bytes[len / size * size..len]));
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
