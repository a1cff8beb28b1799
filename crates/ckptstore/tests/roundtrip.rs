//! Randomized round-trip properties for the codec and the chunk store:
//! serialize→deserialize identity over randomized state, dedup
//! refcounting vs a reference model, and corruption injection.
//!
//! Uses a local SplitMix64 so the crate stays dependency-free; every
//! case is deterministic in its index.

use ckptstore::{Dec, DecodeError, Enc, ImageId, Segment, StoreClient, StoreError};
use std::collections::HashMap;
use std::sync::Arc;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One randomly chosen field of "guest/device state" to encode.
#[derive(Debug, Clone, PartialEq)]
enum Field {
    U8(u8),
    U16(u16),
    U32(u32),
    U64(u64),
    U128(u128),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
    Raw(Vec<u8>),
    Pad(usize),
}

fn random_field(g: &mut Rng) -> Field {
    match g.below(11) {
        0 => Field::U8(g.next() as u8),
        1 => Field::U16(g.next() as u16),
        2 => Field::U32(g.next() as u32),
        3 => Field::U64(g.next()),
        4 => Field::U128(((g.next() as u128) << 64) | g.next() as u128),
        5 => Field::I64(g.next() as i64),
        6 => Field::F64(f64::from_bits(g.next() & 0x7FEF_FFFF_FFFF_FFFF)),
        7 => Field::Bool(g.next() & 1 == 1),
        8 => {
            let n = g.below(40) as usize;
            Field::Str((0..n).map(|_| (b'a' + g.below(26) as u8) as char).collect())
        }
        9 => {
            let n = g.below(300) as usize;
            Field::Raw((0..n).map(|_| g.next() as u8).collect())
        }
        _ => Field::Pad([1usize, 8, 64, 4096][g.below(4) as usize]),
    }
}

fn encode(fields: &[Field], e: &mut Enc) {
    e.seq(fields.len());
    for f in fields {
        match f {
            Field::U8(v) => {
                e.u8(0);
                e.u8(*v);
            }
            Field::U16(v) => {
                e.u8(1);
                e.u16(*v);
            }
            Field::U32(v) => {
                e.u8(2);
                e.u32(*v);
            }
            Field::U64(v) => {
                e.u8(3);
                e.u64(*v);
            }
            Field::U128(v) => {
                e.u8(4);
                e.u128(*v);
            }
            Field::I64(v) => {
                e.u8(5);
                e.i64(*v);
            }
            Field::F64(v) => {
                e.u8(6);
                e.f64(*v);
            }
            Field::Bool(v) => {
                e.u8(7);
                e.bool(*v);
            }
            Field::Str(v) => {
                e.u8(8);
                e.str(v);
            }
            Field::Raw(v) => {
                e.u8(9);
                e.seq(v.len());
                e.raw(v);
            }
            Field::Pad(align) => {
                e.u8(10);
                e.u32(*align as u32);
                e.pad_to(*align);
            }
        }
    }
}

/// Decodes a field list, noting `position()` after every field.
fn decode(d: &mut Dec<'_>, positions: &mut Vec<usize>) -> Result<Vec<Field>, DecodeError> {
    let n = d.seq()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        positions.push(d.position());
        out.push(match d.u8()? {
            0 => Field::U8(d.u8()?),
            1 => Field::U16(d.u16()?),
            2 => Field::U32(d.u32()?),
            3 => Field::U64(d.u64()?),
            4 => Field::U128(d.u128()?),
            5 => Field::I64(d.i64()?),
            6 => Field::F64(d.f64()?),
            7 => Field::Bool(d.bool()?),
            8 => Field::Str(d.str()?),
            9 => {
                let n = d.seq()?;
                Field::Raw(d.raw(n)?.to_vec())
            }
            10 => {
                let align = d.u32()? as usize;
                d.align_to(align)?;
                Field::Pad(align)
            }
            tag => {
                return Err(DecodeError::BadTag { at: d.position(), tag, what: "field" });
            }
        });
    }
    Ok(out)
}

/// Serialize→deserialize identity over randomized field sequences, both
/// directly and through a store round trip.
#[test]
fn codec_round_trips_randomized_state() {
    for case in 0..200u64 {
        let mut g = Rng(0xC0DE_C000 + case);
        let n = g.below(60) as usize + 1;
        let fields: Vec<Field> = (0..n).map(|_| random_field(&mut g)).collect();

        let mut e = Enc::new();
        e.begin_image("test.state");
        encode(&fields, &mut e);
        let bytes = e.into_bytes();

        let mut d = Dec::new(&bytes);
        d.expect_image("test.state").unwrap();
        let mut positions = Vec::new();
        assert_eq!(decode(&mut d, &mut positions).unwrap(), fields, "case {case}: direct");

        // Same bytes through a chunked, content-addressed store, as one
        // buffer and as the chunk list decoded in place.
        let s = StoreClient::builder().build();
        let r = s.put_image(&bytes);
        let loaded = s.load_image(r.image).unwrap();
        assert_eq!(loaded, bytes, "case {case}: store round trip");
        let chunks = s.load_image_chunks(r.image).unwrap();
        let mut d = Dec::chunked(&chunks);
        d.expect_image("test.state").unwrap();
        let mut chunked_positions = Vec::new();
        assert_eq!(decode(&mut d, &mut chunked_positions).unwrap(), fields, "case {case}");
        assert_eq!(chunked_positions, positions, "case {case}: store chunks");
    }
}

fn cut(bytes: &[u8], size: usize) -> Vec<Segment> {
    bytes.chunks(size).map(|c| Segment::Bytes(Arc::from(c))).collect()
}

/// A decoder cannot tell a chunk list from the buffer it concatenates
/// to: every cut size yields the same fields, the same `position()`
/// after every field, and — on any truncation — the same typed error.
#[test]
fn chunked_decoder_matches_contiguous_at_every_cut() {
    for case in 0..60u64 {
        let mut g = Rng(0x5E6_0000 + case);
        let n = g.below(60) as usize + 1;
        let fields: Vec<Field> = (0..n).map(|_| random_field(&mut g)).collect();
        let mut e = Enc::new();
        encode(&fields, &mut e);
        let bytes = e.into_bytes();

        let mut positions = Vec::new();
        let mut d = Dec::new(&bytes);
        assert_eq!(decode(&mut d, &mut positions).unwrap(), fields);
        let end = (d.position(), d.remaining());

        for size in [1, 3, 7, 4096, bytes.len()] {
            let chunks = cut(&bytes, size);
            let mut d = Dec::chunked(&chunks);
            let mut got = Vec::new();
            assert_eq!(decode(&mut d, &mut got).unwrap(), fields, "case {case} cut {size}");
            assert_eq!(got, positions, "case {case} cut {size}");
            assert_eq!((d.position(), d.remaining()), end, "case {case} cut {size}");
        }

        // Truncations: all of a short image, a sample of a long one.
        let step = (bytes.len() / 64).max(1);
        for len in (0..bytes.len()).step_by(step) {
            let want = decode(&mut Dec::new(&bytes[..len]), &mut Vec::new());
            assert!(want.is_err(), "case {case}: prefix {len} decoded");
            for size in [1, 7, 4096] {
                let chunks = cut(&bytes[..len], size);
                let got = decode(&mut Dec::chunked(&chunks), &mut Vec::new());
                assert_eq!(got, want, "case {case} prefix {len} cut {size}");
            }
        }
    }
}

/// `load_image` is the concatenation of `load_image_chunks`, at the
/// sizes where chunking has edges.
#[test]
fn contiguous_load_is_the_concatenation_of_the_chunk_list() {
    let store = StoreClient::builder().chunk_size(256).build();
    for len in [0usize, 1, 256, 257] {
        let img: Vec<u8> = (0..len).map(|i| (i * 7 + len) as u8).collect();
        let id = store.put_image(&img).image;
        let chunks = store.load_image_chunks(id).unwrap();
        assert_eq!(chunks.len(), len.div_ceil(256), "len {len}");
        let mut concat = Vec::new();
        chunks.iter().for_each(|c| c.extend_vec(&mut concat));
        assert_eq!(concat, img, "len {len}");
        assert_eq!(store.load_image(id).unwrap(), img, "len {len}");
    }
}

/// Randomized put/load/remove interleavings against a flat model: loads
/// always reproduce the exact bytes, removal accounting never leaks or
/// over-frees, and an emptied store holds zero physical bytes.
#[test]
fn store_matches_model_under_random_churn() {
    for case in 0..100u64 {
        let mut g = Rng(0x57_04E + case);
        let s = StoreClient::builder().chunk_size(256).build();
        let mut model: HashMap<ImageId, Vec<u8>> = HashMap::new();
        let mut live: Vec<ImageId> = Vec::new();
        // A shared "base" most images derive from, so dedup paths get
        // exercised, with random point mutations.
        let base: Vec<u8> = (0..8192).map(|i| (i % 253) as u8).collect();
        for _ in 0..40 {
            match g.below(4) {
                0 | 1 => {
                    let mut img = base.clone();
                    for _ in 0..g.below(5) {
                        let at = g.below(img.len() as u64) as usize;
                        img[at] ^= g.next() as u8 | 1;
                    }
                    img.truncate(img.len() - g.below(300) as usize);
                    let r = s.put_image(&img);
                    model.insert(r.image, img);
                    live.push(r.image);
                }
                2 => {
                    if let Some(&id) = live.get(g.below(live.len().max(1) as u64) as usize) {
                        assert_eq!(s.load_image(id).unwrap(), model[&id], "case {case}");
                    }
                }
                _ => {
                    if !live.is_empty() {
                        let idx = g.below(live.len() as u64) as usize;
                        let id = live.swap_remove(idx);
                        model.remove(&id);
                        s.remove_image(id).unwrap();
                    }
                }
            }
            let st = s.stats();
            let logical: u64 = model.values().map(|v| v.len() as u64).sum();
            assert_eq!(st.logical_bytes, logical, "case {case}");
            assert!(st.physical_bytes <= logical, "case {case}: physical exceeds logical");
        }
        for id in live.drain(..) {
            s.remove_image(id).unwrap();
        }
        assert_eq!(s.physical_bytes(), 0, "case {case}: chunks leaked");
        assert_eq!(s.chunk_count(), 0, "case {case}");
    }
}

/// Flip one byte anywhere in any stored chunk: the next load must
/// surface `CorruptChunk` as an error (never a panic), and the reported
/// index must point at the corrupted chunk.
#[test]
fn corruption_injection_always_detected() {
    for case in 0..100u64 {
        let mut g = Rng(0xBAD_B17 + case);
        let s = StoreClient::builder().chunk_size(128).build();
        let len = g.below(4000) as usize + 100;
        let img: Vec<u8> = (0..len).map(|_| g.next() as u8).collect();
        let r = s.put_image(&img);
        let chunk = g.below(r.chunks_total) as usize;
        let byte = g.below(4096) as usize;
        assert!(s.corrupt_chunk(r.image, chunk, byte).is_ok(), "case {case}");
        match s.load_image(r.image) {
            Err(StoreError::CorruptChunk { chunk_index, .. }) => {
                assert_eq!(chunk_index, chunk, "case {case}")
            }
            other => panic!("case {case}: expected CorruptChunk, got {other:?}"),
        }
    }
}
