//! Hand-rolled binary codec: fixed-width little-endian primitives,
//! length-prefixed strings/sequences, and explicit alignment padding.
//!
//! Encoding never fails; decoding returns [`DecodeError`] instead of
//! panicking so a truncated or corrupted image surfaces as a typed
//! error at restore time.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use crate::segment::{read_record, write_record, Segment};

/// Magic bytes opening every checkpoint image payload.
pub const IMAGE_MAGIC: [u8; 4] = *b"CKPT";

/// Current payload format version.
pub const IMAGE_FORMAT_VERSION: u16 = 1;

/// Size of an encoder segment: the store's default chunk size, so a store
/// running at that size adopts an encoder's segments as its chunks.
pub const SEGMENT_SIZE: usize = crate::client::DEFAULT_CHUNK_SIZE;

/// Byte-stream encoder. All integers are little-endian.
///
/// The output is built as [`Segment`]s: every [`SEGMENT_SIZE`] bytes
/// written are sealed into an `Arc<[u8]>` that is never copied again, a
/// block record written on a segment boundary ([`Enc::record`]) is sealed
/// as its fingerprint, and [`Enc::into_segments`] hands the list to a
/// store put that keeps those very segments as its chunks. An encoding
/// shorter than one segment never leaves `open`, so small encodings (WAL
/// entries, log frames) cost what a plain `Vec` costs and
/// [`Enc::into_bytes`] returns it as it is.
#[derive(Debug, Default, Clone)]
pub struct Enc {
    /// Sealed segments, each exactly [`SEGMENT_SIZE`] bytes.
    sealed: Vec<Segment>,
    /// The bytes after the last sealed segment. Its capacity is never
    /// grown past one segment, so "fits the capacity" — the test `Vec`
    /// makes on every append anyway — is the only test a field write
    /// needs; sealing happens on the cold path that test falls into.
    open: Vec<u8>,
}

impl Enc {
    pub fn new() -> Self {
        Enc::default()
    }

    /// Writes the self-describing image header: magic, version, kind tag.
    pub fn begin_image(&mut self, kind: &str) {
        self.raw(&IMAGE_MAGIC);
        self.u16(IMAGE_FORMAT_VERSION);
        self.str(kind);
    }

    /// Seals every whole segment `open` holds. (More than one only if the
    /// allocator handed `open` more room than was asked for.)
    fn seal_full(&mut self) {
        while self.open.len() >= SEGMENT_SIZE {
            self.sealed.push(Segment::Bytes(Arc::from(&self.open[..SEGMENT_SIZE])));
            self.open.drain(..SEGMENT_SIZE);
        }
    }

    /// The append that does not fit `open` as it stands: seals what is
    /// full, grows `open` (doubling, up to one segment) or splits `bytes`
    /// at the segment boundary.
    #[cold]
    fn append_cold(&mut self, mut bytes: &[u8]) {
        loop {
            self.seal_full();
            if self.open.is_empty() {
                // Whole segments of a bulk write skip the staging buffer.
                while let Some((seg, rest)) = bytes.split_at_checked(SEGMENT_SIZE) {
                    self.sealed.push(Segment::Bytes(Arc::from(seg)));
                    bytes = rest;
                }
            }
            if bytes.is_empty() {
                return;
            }
            let k = bytes.len().min(SEGMENT_SIZE - self.open.len());
            let (len, cap) = (self.open.len(), self.open.capacity());
            if cap < len + k {
                let want = (len + k).max(2 * cap).clamp(64, SEGMENT_SIZE);
                self.open.reserve_exact(want - len);
            }
            self.open.extend_from_slice(&bytes[..k]);
            bytes = &bytes[k..];
        }
    }

    pub fn u8(&mut self, v: u8) {
        self.raw(&[v]);
    }

    pub fn u16(&mut self, v: u16) {
        self.raw(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    pub fn u128(&mut self, v: u128) {
        self.raw(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.raw(&v.to_le_bytes());
    }

    /// IEEE-754 bit pattern; round-trips NaN payloads exactly.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Raw bytes, no length prefix (caller fixes the framing). Every
    /// write comes through here: inlined into a fixed-width field it is
    /// one compare and one append.
    #[inline]
    pub fn raw(&mut self, bytes: &[u8]) {
        if self.open.capacity() - self.open.len() >= bytes.len() {
            self.open.extend_from_slice(bytes);
        } else {
            self.append_cold(bytes);
        }
    }

    /// Appends the `n`-byte block record of `fp` ([`write_record`]). A
    /// record of exactly one segment that starts on a segment boundary —
    /// a block record after [`Enc::pad_to`] — is sealed as
    /// [`Segment::Record`], and its bytes are never made; any other is
    /// written out and appended.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a positive multiple of 8.
    pub fn record(&mut self, fp: u64, n: usize) {
        self.seal_full();
        if n == SEGMENT_SIZE && self.open.is_empty() {
            self.sealed.push(Segment::Record(fp));
        } else {
            let mut staged = vec![0u8; n];
            write_record(fp, &mut staged);
            self.raw(&staged);
        }
    }

    /// `u32` length prefix + UTF-8 bytes.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.raw(s.as_bytes());
    }

    /// Sequence length prefix (`u32`); the caller writes the elements.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds `u32::MAX` — image sections are bounded far
    /// below that.
    pub fn seq(&mut self, n: usize) {
        assert!(n <= u32::MAX as usize, "sequence too long for u32 prefix");
        self.u32(n as u32);
    }

    /// Zero-pads to the next multiple of `align` bytes. Aligning bulk
    /// block data to the store's chunk size is what makes unchanged
    /// parent data dedup under fixed-size chunking.
    ///
    /// # Panics
    ///
    /// Panics if `align` is zero.
    pub fn pad_to(&mut self, align: usize) {
        const ZEROS: [u8; 256] = [0; 256];
        assert!(align > 0, "zero alignment");
        let mut pad = (align - self.len() % align) % align;
        while pad > 0 {
            let k = pad.min(ZEROS.len());
            self.raw(&ZEROS[..k]);
            pad -= k;
        }
    }

    pub fn len(&self) -> usize {
        self.sealed.len() * SEGMENT_SIZE + self.open.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The encoding as its segment list: every segment but the last is
    /// exactly [`SEGMENT_SIZE`] bytes, the last is 1 to `SEGMENT_SIZE`.
    /// Decode it with [`Dec::chunked`]; store it with
    /// [`StoreClient::put_segments_cached`](crate::StoreClient::put_segments_cached).
    pub fn into_segments(mut self) -> Vec<Segment> {
        self.seal_full();
        if !self.open.is_empty() {
            self.sealed.push(Segment::Bytes(Arc::from(self.open)));
        }
        self.sealed
    }

    /// The encoding as one contiguous buffer, records written out: free
    /// below one segment, a copy above — use [`Enc::into_segments`] for
    /// anything image-sized.
    pub fn into_bytes(self) -> Vec<u8> {
        if self.sealed.is_empty() {
            return self.open;
        }
        let mut out = Vec::with_capacity(self.len());
        for seg in &self.sealed {
            seg.extend_vec(&mut out);
        }
        out.extend_from_slice(&self.open);
        out
    }
}

/// Typed decode failure: where it happened and what was expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Ran out of bytes at `at` while needing `want` more.
    UnexpectedEof { at: usize, want: usize },
    /// A tag byte held an out-of-range value.
    BadTag { at: usize, tag: u8, what: &'static str },
    /// The image header's magic bytes were wrong.
    BadMagic,
    /// The image header's version is not one we read.
    BadVersion(u16),
    /// The image header's kind tag did not match the expected kind.
    WrongKind { expected: String, found: String },
    /// A length or value field was internally inconsistent.
    Invalid(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof { at, want } => {
                write!(f, "unexpected end of image at byte {at} (needed {want} more)")
            }
            DecodeError::BadTag { at, tag, what } => {
                write!(f, "bad {what} tag {tag} at byte {at}")
            }
            DecodeError::BadMagic => write!(f, "bad image magic"),
            DecodeError::BadVersion(v) => write!(f, "unsupported image format version {v}"),
            DecodeError::WrongKind { expected, found } => {
                write!(f, "image kind mismatch: expected {expected:?}, found {found:?}")
            }
            DecodeError::Invalid(what) => write!(f, "invalid image field: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Byte-stream decoder over a borrowed image: one contiguous buffer
/// ([`Dec::new`]) or the verified segment list a store load hands back
/// ([`Dec::chunked`]), read as the concatenation of its segments.
/// Offsets — [`Dec::position`], [`Dec::remaining`], [`Dec::align_to`] and
/// the `at` of every error — are absolute over the whole image in both
/// forms, so a decoder cannot tell which one it was given.
#[derive(Debug, Clone)]
pub struct Dec<'a> {
    /// The segment being read and the read offset inside it.
    cur: Cur<'a>,
    off: usize,
    /// Segments after `cur`.
    rest: &'a [Segment],
    /// Absolute offset of `cur[0]`.
    base: usize,
    /// Image length across all segments.
    total: usize,
}

/// The segment a [`Dec`] is reading.
#[derive(Debug, Clone, Copy)]
enum Cur<'a> {
    Bytes(&'a [u8]),
    /// A [`Segment::Record`]: bytes are made only where a read lands,
    /// and a [`Dec::skip`] over the fill makes none.
    Record(u64),
}

impl Cur<'_> {
    fn len(self) -> usize {
        match self {
            Cur::Bytes(b) => b.len(),
            Cur::Record(_) => SEGMENT_SIZE,
        }
    }

    /// Copies the segment's bytes `at..at + out.len()` into `out`.
    fn copy_to(self, at: usize, out: &mut [u8]) {
        match self {
            Cur::Bytes(b) => out.copy_from_slice(&b[at..at + out.len()]),
            Cur::Record(fp) => read_record(fp, at, out),
        }
    }
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { cur: Cur::Bytes(buf), off: 0, rest: &[], base: 0, total: buf.len() }
    }

    /// Decodes the concatenation of `segments` without building it. Reads
    /// that fall inside one byte segment borrow from it; a fixed-width
    /// read that straddles a boundary or lands in a record is assembled
    /// on the stack.
    pub fn chunked(segments: &'a [Segment]) -> Self {
        let total = segments.iter().map(Segment::len).sum();
        Dec { cur: Cur::Bytes(&[]), off: 0, rest: segments, base: 0, total }
    }

    fn eof(&self, want: usize) -> DecodeError {
        DecodeError::UnexpectedEof { at: self.position(), want }
    }

    /// Steps over exhausted segments; false once the image is consumed.
    fn refill(&mut self) -> bool {
        while self.off == self.cur.len() {
            let Some((next, rest)) = self.rest.split_first() else { return false };
            self.base += self.cur.len();
            self.cur = match next {
                Segment::Bytes(b) => Cur::Bytes(b),
                Segment::Record(fp) => Cur::Record(*fp),
            };
            self.off = 0;
            self.rest = rest;
        }
        true
    }

    /// Copies the next `out.len()` bytes, which the caller has checked
    /// are there, across as many segments as they span.
    fn copy_across(&mut self, out: &mut [u8]) {
        let mut filled = 0;
        while filled < out.len() {
            let more = self.refill();
            debug_assert!(more, "caller checked remaining()");
            let k = (self.cur.len() - self.off).min(out.len() - filled);
            self.cur.copy_to(self.off, &mut out[filled..filled + k]);
            self.off += k;
            filled += k;
        }
    }

    /// A fixed-width field.
    fn fixed<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut out = [0u8; N];
        if let Some(s) = self.bytes_here(N) {
            out.copy_from_slice(s);
        } else if self.remaining() < N {
            return Err(self.eof(N));
        } else {
            self.copy_across(&mut out);
        }
        Ok(out)
    }

    /// The next `n` bytes, consumed, if `cur` is a byte segment holding
    /// them whole.
    #[inline]
    fn bytes_here(&mut self, n: usize) -> Option<&'a [u8]> {
        let Cur::Bytes(b) = self.cur else { return None };
        let s = b.get(self.off..self.off + n)?;
        self.off += n;
        Some(s)
    }

    /// A variable-length field: borrowed when one byte segment holds it
    /// whole.
    fn take(&mut self, n: usize) -> Result<Cow<'a, [u8]>, DecodeError> {
        if self.remaining() < n {
            return Err(self.eof(n));
        }
        self.refill();
        if let Some(s) = self.bytes_here(n) {
            return Ok(Cow::Borrowed(s));
        }
        let mut out = vec![0u8; n];
        self.copy_across(&mut out);
        Ok(Cow::Owned(out))
    }

    /// Checks the self-describing header and the expected kind tag.
    pub fn expect_image(&mut self, kind: &str) -> Result<(), DecodeError> {
        if self.fixed::<4>()? != IMAGE_MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let v = self.u16()?;
        if v != IMAGE_FORMAT_VERSION {
            return Err(DecodeError::BadVersion(v));
        }
        let found = self.str()?;
        if found != kind {
            return Err(DecodeError::WrongKind { expected: kind.to_string(), found });
        }
        Ok(())
    }

    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.fixed::<1>()?[0])
    }

    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.fixed()?))
    }

    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.fixed()?))
    }

    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.fixed()?))
    }

    pub fn u128(&mut self) -> Result<u128, DecodeError> {
        Ok(u128::from_le_bytes(self.fixed()?))
    }

    pub fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(i64::from_le_bytes(self.fixed()?))
    }

    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        let at = self.position();
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::BadTag { at, tag, what: "bool" }),
        }
    }

    /// Raw bytes, no length prefix (mirror of [`Enc::raw`]). Owned only
    /// when they straddle a segment boundary or lie in a record; use
    /// [`Dec::skip`] to discard bytes without looking at them.
    pub fn raw(&mut self, n: usize) -> Result<Cow<'a, [u8]>, DecodeError> {
        self.take(n)
    }

    /// Discards `n` bytes without touching them.
    pub fn skip(&mut self, n: usize) -> Result<(), DecodeError> {
        if self.remaining() < n {
            return Err(self.eof(n));
        }
        let mut left = n;
        while left > self.cur.len() - self.off {
            left -= self.cur.len() - self.off;
            self.off = self.cur.len();
            self.refill();
        }
        self.off += left;
        Ok(())
    }

    pub fn str(&mut self) -> Result<String, DecodeError> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.into_owned())
            .map_err(|_| DecodeError::Invalid("non-UTF-8 string"))
    }

    /// Sequence length prefix (mirror of [`Enc::seq`]).
    pub fn seq(&mut self) -> Result<usize, DecodeError> {
        Ok(self.u32()? as usize)
    }

    /// Skips padding to the next multiple of `align` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `align` is zero.
    pub fn align_to(&mut self, align: usize) -> Result<(), DecodeError> {
        assert!(align > 0, "zero alignment");
        match self.position() % align {
            0 => Ok(()),
            rem => self.skip(align - rem),
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.total - self.position()
    }

    /// Current read offset (for error reporting).
    pub fn position(&self) -> usize {
        self.base + self.off
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut e = Enc::new();
        e.u8(7);
        e.u16(300);
        e.u32(70_000);
        e.u64(1 << 40);
        e.u128(1 << 100);
        e.i64(-12345);
        e.f64(-0.25);
        e.bool(true);
        e.bool(false);
        e.str("hello");
        e.seq(3);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u16().unwrap(), 300);
        assert_eq!(d.u32().unwrap(), 70_000);
        assert_eq!(d.u64().unwrap(), 1 << 40);
        assert_eq!(d.u128().unwrap(), 1 << 100);
        assert_eq!(d.i64().unwrap(), -12345);
        assert_eq!(d.f64().unwrap(), -0.25);
        assert!(d.bool().unwrap());
        assert!(!d.bool().unwrap());
        assert_eq!(d.str().unwrap(), "hello");
        assert_eq!(d.seq().unwrap(), 3);
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn header_round_trip_and_mismatches() {
        let mut e = Enc::new();
        e.begin_image("test.kind");
        let bytes = e.into_bytes();

        let mut d = Dec::new(&bytes);
        assert!(d.expect_image("test.kind").is_ok());

        let mut d = Dec::new(&bytes);
        assert!(matches!(
            d.expect_image("other.kind"),
            Err(DecodeError::WrongKind { .. })
        ));

        let mut garbled = bytes.clone();
        garbled[0] ^= 0xFF;
        let mut d = Dec::new(&garbled);
        assert_eq!(d.expect_image("test.kind"), Err(DecodeError::BadMagic));
    }

    #[test]
    fn padding_aligns_and_skips() {
        let mut e = Enc::new();
        e.u8(1);
        e.pad_to(16);
        assert_eq!(e.len(), 16);
        e.u8(2);
        e.pad_to(16);
        let bytes = e.into_bytes();
        assert_eq!(bytes.len(), 32);
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 1);
        d.align_to(16).unwrap();
        assert_eq!(d.u8().unwrap(), 2);
        d.align_to(16).unwrap();
        assert_eq!(d.remaining(), 0);
        // Already aligned: no-op.
        d.align_to(16).unwrap();
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let mut e = Enc::new();
        e.u64(99);
        let mut bytes = e.into_bytes();
        bytes.truncate(5);
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u64(), Err(DecodeError::UnexpectedEof { at: 0, want: 8 }));
    }

    #[test]
    fn chunked_reads_cross_boundaries_with_absolute_offsets() {
        let mut e = Enc::new();
        e.u64(0x0102_0304_0506_0708);
        e.str("straddle");
        e.raw(&[9; 5]);
        e.u8(7);
        e.pad_to(32);
        let bytes = e.into_bytes();
        // Cut every 3 bytes, with empty segments thrown in.
        let mut chunks = vec![bytes_segment(&[])];
        for c in bytes.chunks(3) {
            chunks.push(bytes_segment(c));
            chunks.push(bytes_segment(&[]));
        }
        let mut d = Dec::chunked(&chunks);
        assert_eq!(d.remaining(), 32);
        assert_eq!(d.u64().unwrap(), 0x0102_0304_0506_0708);
        assert_eq!(d.position(), 8);
        assert_eq!(d.str().unwrap(), "straddle");
        assert_eq!(&*d.raw(2).unwrap(), &[9, 9]);
        d.skip(3).unwrap();
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.position(), 26);
        d.align_to(32).unwrap();
        assert_eq!((d.position(), d.remaining()), (32, 0));
        d.skip(0).unwrap();
        assert_eq!(d.skip(1), Err(DecodeError::UnexpectedEof { at: 32, want: 1 }));
        assert_eq!(d.u16(), Err(DecodeError::UnexpectedEof { at: 32, want: 2 }));

        // A short read fails where the contiguous decoder fails, and
        // consumes nothing.
        let mut d = Dec::chunked(&chunks[..4]);
        assert_eq!(d.u8().unwrap(), 8);
        assert_eq!(d.u64(), Err(DecodeError::UnexpectedEof { at: 1, want: 8 }));
        assert_eq!(d.raw(9).unwrap_err(), DecodeError::UnexpectedEof { at: 1, want: 9 });
        assert_eq!(d.position(), 1);
        assert_eq!(Dec::chunked(&[]).u8(), Err(DecodeError::UnexpectedEof { at: 0, want: 1 }));
    }

    fn bytes_segment(bytes: &[u8]) -> Segment {
        Segment::Bytes(Arc::from(bytes))
    }

    fn concat(segments: &[Segment]) -> Vec<u8> {
        let mut out = Vec::new();
        segments.iter().for_each(|s| s.extend_vec(&mut out));
        out
    }

    #[test]
    fn raw_borrows_inside_a_segment_and_owns_across_one() {
        let chunks = vec![bytes_segment(&[1, 2, 3]), bytes_segment(&[4, 5])];
        let mut d = Dec::chunked(&chunks);
        assert!(matches!(d.raw(3).unwrap(), Cow::Borrowed(&[1, 2, 3])));
        assert!(matches!(d.raw(2).unwrap(), Cow::Borrowed(&[4, 5])));
        let mut d = Dec::chunked(&chunks);
        d.skip(1).unwrap();
        assert_eq!(d.raw(3).unwrap(), Cow::<[u8]>::Owned(vec![2, 3, 4]));
    }

    /// One encoder operation, applied to an [`Enc`] and to the plain
    /// `Vec` that is the reference for what it must produce.
    fn random_op(rng: &mut sim::SimRng, e: &mut Enc, want: &mut Vec<u8>) {
        let v = (u128::from(rng.range_u64(0, u64::MAX)) << 64) | u128::from(rng.range_u64(0, u64::MAX));
        match rng.index(10) {
            0 => {
                e.u8(v as u8);
                want.push(v as u8);
            }
            1 => {
                e.u16(v as u16);
                want.extend_from_slice(&(v as u16).to_le_bytes());
            }
            2 => {
                e.u32(v as u32);
                want.extend_from_slice(&(v as u32).to_le_bytes());
            }
            3 => {
                e.u64(v as u64);
                want.extend_from_slice(&(v as u64).to_le_bytes());
            }
            4 => {
                e.u128(v);
                want.extend_from_slice(&v.to_le_bytes());
            }
            5 => {
                let s = "segment ".repeat(rng.index(40));
                e.str(&s);
                want.extend_from_slice(&(s.len() as u32).to_le_bytes());
                want.extend_from_slice(s.as_bytes());
            }
            6 => {
                // Up to a little over two segments, so some cross several.
                let bytes: Vec<u8> = (0..rng.index(2 * SEGMENT_SIZE + 99)).map(|i| (i as u8) ^ (v as u8)).collect();
                e.raw(&bytes);
                want.extend_from_slice(&bytes);
            }
            7 => {
                let align = [1, 16, 512, SEGMENT_SIZE, 3 * SEGMENT_SIZE][rng.index(5)];
                e.pad_to(align);
                want.resize(want.len().next_multiple_of(align), 0);
            }
            _ => {
                // A block record, after a pad half the time so that it
                // starts on a segment boundary and is sealed as its
                // fingerprint. The reference writes it word by word.
                if rng.chance(0.5) {
                    e.pad_to(SEGMENT_SIZE);
                    want.resize(want.len().next_multiple_of(SEGMENT_SIZE), 0);
                }
                let n = [16, 48, SEGMENT_SIZE, SEGMENT_SIZE + 16][rng.index(4)];
                let fp = v as u64;
                e.record(fp, n);
                want.extend_from_slice(&fp.to_le_bytes());
                let mut state = fp;
                for _ in 1..n / 8 {
                    want.extend_from_slice(&crate::hash::splitmix64(&mut state).to_le_bytes());
                }
            }
        }
    }

    /// Reads the same random field sequence from two decoders over the
    /// same image, asserting equal values, errors and offsets throughout.
    fn assert_decoders_agree(rng: &mut sim::SimRng, a: &mut Dec<'_>, b: &mut Dec<'_>, round: usize) {
        loop {
            let at = (a.position(), a.remaining());
            assert_eq!(at, (b.position(), b.remaining()), "round {round}");
            if at.1 == 0 {
                assert_eq!(a.u8(), b.u8(), "round {round}: past the end");
                return;
            }
            let k = rng.index(2 * SEGMENT_SIZE + 40);
            let ok = match rng.index(8) {
                0 => compare(a.u8(), b.u8()),
                1 => compare(a.u16(), b.u16()),
                2 => compare(a.u64(), b.u64()),
                3 => compare(a.u128(), b.u128()),
                4 => compare(a.raw(k).map(Cow::into_owned), b.raw(k).map(Cow::into_owned)),
                5 => compare(a.skip(k), b.skip(k)),
                6 => compare(a.align_to(8), b.align_to(8)),
                _ => compare(a.skip(k % 13), b.skip(k % 13)),
            };
            assert!(ok, "round {round}: reads at {at:?} disagree");
        }
    }

    fn compare<T: PartialEq>(a: Result<T, DecodeError>, b: Result<T, DecodeError>) -> bool {
        a == b
    }

    #[test]
    fn random_op_sequences_encode_as_a_plain_vec_and_decode_from_segments() {
        let mut rng = sim::SimRng::from_seed(24);
        let mut records = 0;
        for round in 0..60 {
            let (mut e, mut want) = (Enc::new(), Vec::new());
            for _ in 0..rng.index(if round % 3 == 0 { 8 } else { 120 }) {
                random_op(&mut rng, &mut e, &mut want);
                assert_eq!(e.len(), want.len());
                assert_eq!(e.is_empty(), want.is_empty());
            }
            assert_eq!(e.clone().into_bytes(), want, "round {round}");
            let segs = e.into_segments();
            assert_eq!(concat(&segs), want, "round {round}");
            if let Some((last, full)) = segs.split_last() {
                assert!(full.iter().all(|s| s.len() == SEGMENT_SIZE), "round {round}");
                assert!((1..=SEGMENT_SIZE).contains(&last.len()), "round {round}");
            }
            records += segs.iter().filter(|s| matches!(s, Segment::Record(_))).count();
            // The segment list reads back as the bytes that went in, whole
            // and field by field.
            let mut d = Dec::chunked(&segs);
            assert_eq!(d.remaining(), want.len());
            assert_eq!(&*d.raw(want.len()).unwrap(), &want[..]);
            assert_decoders_agree(&mut rng, &mut Dec::chunked(&segs), &mut Dec::new(&want), round);
        }
        assert!(records > 50, "only {records} records were sealed as fingerprints");
    }

    #[test]
    fn typed_fields_round_trip_across_segment_boundaries() {
        // Two bytes short of a boundary, so every wider field straddles it.
        let mut e = Enc::new();
        e.raw(&vec![0xAA; SEGMENT_SIZE - 2]);
        e.u64(0x0102_0304_0506_0708);
        e.pad_to(SEGMENT_SIZE);
        e.raw(&vec![0xBB; SEGMENT_SIZE - 3]);
        e.u128(7 << 100);
        e.str("straddling string");
        let segs = e.into_segments();
        assert_eq!(segs.len(), 4);
        let mut d = Dec::chunked(&segs);
        d.skip(SEGMENT_SIZE - 2).unwrap();
        assert_eq!(d.u64().unwrap(), 0x0102_0304_0506_0708);
        d.align_to(SEGMENT_SIZE).unwrap();
        d.skip(SEGMENT_SIZE - 3).unwrap();
        assert_eq!(d.u128().unwrap(), 7 << 100);
        assert_eq!(d.str().unwrap(), "straddling string");
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn a_short_encoding_stays_one_plain_buffer() {
        let mut e = Enc::new();
        e.begin_image("small");
        e.u64(9);
        let len = e.len();
        let bytes = e.clone().into_bytes();
        assert_eq!(bytes.len(), len);
        assert!(bytes.capacity() <= SEGMENT_SIZE);
        let segs = e.into_segments();
        assert_eq!(segs.len(), 1);
        assert!(matches!(&segs[0], Segment::Bytes(b) if b[..] == bytes[..]));
        assert!(Enc::new().into_segments().is_empty());
    }

    #[test]
    fn bad_bool_tag_is_a_typed_error() {
        let bytes = [2u8];
        let mut d = Dec::new(&bytes);
        assert_eq!(
            d.bool(),
            Err(DecodeError::BadTag { at: 0, tag: 2, what: "bool" })
        );
    }
}
