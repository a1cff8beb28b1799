//! The unit an image is built, stored and read in: [`SEGMENT_SIZE`]
//! bytes, held as written or, for a block record, as its fingerprint.
//!
//! A *block record* is the simulator's stand-in for one block's 4 KiB of
//! payload: the fingerprint `fp` as a little-endian word, then SplitMix64
//! seeded with `fp` — word `i >= 1` is the `i`-th output of the generator
//! started at state `fp`. Its bytes are a pure function of `fp`, so a
//! segment that is a whole record is kept as [`Segment::Record`] and its
//! bytes are made only when something reads them: [`write_record`] is the
//! one place that writes them out, and [`crate::record_hash`] gives their
//! content address without writing them.
//!
//! A record's address is `chunk_hash` of its bytes, whichever form holds
//! it, so a record and the same bytes held as [`Segment::Bytes`] are one
//! chunk to the store: same address, same placement, same byte counts.

use std::cell::Cell;
use std::sync::Arc;

use crate::hash::{chunk_hash, record_hash, splitmix64, ChunkHash, GAMMA};
use crate::SEGMENT_SIZE;

/// One segment of an image. Two segments are equal when their bytes are:
/// records by fingerprint, a record and bytes 1 KiB of the record at a time.
#[derive(Clone, Debug)]
pub enum Segment {
    /// Bytes as written: [`SEGMENT_SIZE`] of them, or fewer for the last
    /// segment of an image.
    Bytes(Arc<[u8]>),
    /// The [`SEGMENT_SIZE`]-byte block record of this fingerprint.
    Record(u64),
}

thread_local! {
    /// Record fills written or read on this thread; see [`records_materialised`].
    static MATERIALISED: Cell<u64> = const { Cell::new(0) };
}

fn count_materialised() {
    MATERIALISED.with(|n| n.set(n.get() + 1));
}

/// How many times this thread has produced the fill of a record — a
/// [`write_record`], or a read of the bytes past a [`Segment::Record`]'s
/// fingerprint. Reading a fingerprint and skipping its fill counts
/// nothing; tests use the difference across a call to show that it made
/// no record bytes.
#[doc(hidden)]
pub fn records_materialised() -> u64 {
    MATERIALISED.with(Cell::get)
}

/// Writes the block record of `fp` into `out`: `fp`, then SplitMix64 words
/// seeded by it, as many as `out` holds.
///
/// # Panics
///
/// Panics unless `out.len()` is a positive multiple of 8.
pub fn write_record(fp: u64, out: &mut [u8]) {
    assert!(!out.is_empty() && out.len().is_multiple_of(8), "a record is whole words");
    count_materialised();
    write_record_words(fp, 0, out);
}

/// The one materialiser: writes words `first..` of the record of `fp`
/// into `out`, as many whole words as it holds. SplitMix64's state after
/// `j` steps is `fp + j·γ`, so any word can be the first.
pub(crate) fn write_record_words(fp: u64, first: usize, out: &mut [u8]) {
    let mut words = out.chunks_exact_mut(8);
    if first == 0 {
        if let Some(word) = words.next() {
            word.copy_from_slice(&fp.to_le_bytes());
        }
    }
    let mut state = fp.wrapping_add((first.max(1) as u64 - 1).wrapping_mul(GAMMA));
    for word in words {
        word.copy_from_slice(&splitmix64(&mut state).to_le_bytes());
        // Keeps LLVM from vectorising the loop for the baseline x86-64
        // target: SSE2 has no 64-bit multiply, and the three `pmuludq`s it
        // takes for one run at about two thirds of scalar `imul`'s speed
        // (`record_hash` makes records with AVX-512 when the CPU has it).
        // It emits nothing.
        std::hint::black_box(());
    }
}

/// Copies bytes `at..at + out.len()` of the record of `fp` into `out`.
pub(crate) fn read_record(fp: u64, at: usize, out: &mut [u8]) {
    let end = at + out.len();
    debug_assert!(end <= SEGMENT_SIZE);
    if end > 8 {
        count_materialised();
    }
    for w in at / 8..end.div_ceil(8) {
        let mut word = [0u8; 8];
        write_record_words(fp, w, &mut word);
        let (lo, hi) = ((8 * w).max(at), (8 * w + 8).min(end));
        out[lo - at..hi - at].copy_from_slice(&word[lo - 8 * w..hi - 8 * w]);
    }
}

/// Whether `bytes` are the record of `fp`, compared one 1 KiB piece at a
/// time without writing the record out whole.
fn is_record(fp: u64, bytes: &[u8]) -> bool {
    const PIECE: usize = 1024;
    let mut piece = [0u8; PIECE];
    bytes.len() == SEGMENT_SIZE
        && bytes.chunks_exact(PIECE).enumerate().all(|(p, want)| {
            write_record_words(fp, p * PIECE / 8, &mut piece);
            piece == want
        })
}

impl Segment {
    /// Byte length.
    pub fn len(&self) -> usize {
        match self {
            Segment::Bytes(b) => b.len(),
            Segment::Record(_) => SEGMENT_SIZE,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The content address: `chunk_hash` of the bytes.
    pub fn hash(&self) -> ChunkHash {
        match self {
            Segment::Bytes(b) => chunk_hash(b),
            Segment::Record(fp) => record_hash(*fp),
        }
    }

    /// Whether the segment's bytes are `bytes`.
    pub(crate) fn eq_bytes(&self, bytes: &[u8]) -> bool {
        match self {
            Segment::Bytes(b) => **b == *bytes,
            Segment::Record(fp) => is_record(*fp, bytes),
        }
    }

    /// Appends the segment's bytes to `out`.
    pub fn extend_vec(&self, out: &mut Vec<u8>) {
        match self {
            Segment::Bytes(b) => out.extend_from_slice(b),
            Segment::Record(fp) => {
                let at = out.len();
                out.resize(at + SEGMENT_SIZE, 0);
                write_record(*fp, &mut out[at..]);
            }
        }
    }

    /// A byte copy with byte `i` (taken modulo the length) flipped: what
    /// the store's damage paths write in place of a copy.
    pub(crate) fn damaged(&self, i: usize) -> Segment {
        let mut bytes = Vec::with_capacity(self.len());
        self.extend_vec(&mut bytes);
        let i = i % bytes.len();
        bytes[i] ^= 0x01;
        Segment::Bytes(bytes.into())
    }
}

impl PartialEq for Segment {
    fn eq(&self, other: &Segment) -> bool {
        match (self, other) {
            (Segment::Record(a), Segment::Record(b)) => a == b,
            (Segment::Bytes(b), s) | (s, Segment::Bytes(b)) => s.eq_bytes(b),
        }
    }
}

impl Eq for Segment {}
