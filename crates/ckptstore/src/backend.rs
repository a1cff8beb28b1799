//! Pluggable chunk persistence behind [`ChunkBackend`], mirroring the
//! `WalStore` precedent in the core crate: the service logic (refcounts,
//! manifests, placement, repair) is backend-agnostic, and each shard
//! owns one backend instance.
//!
//! Two implementations ship in-tree:
//!
//! - [`MemBackend`] — a hash map of payload arcs; the default, and the
//!   reference semantics every other backend must match.
//! - [`SegmentLogBackend`] — an append-only segment log over a shared
//!   [`SegmentMedia`] handle, with the full index rebuilt by replaying
//!   the log on open. The media survives the backend being dropped, so a
//!   crash/reopen round-trip is: drop the backend, `open` the media
//!   again, compare contents.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use sim::IntMap;

use crate::codec::{Dec, DecodeError, Enc};
use crate::error::StoreError;
use crate::hash::ChunkHash;

/// One shard's chunk persistence. Copies are keyed by
/// `(content hash, copy index)`: copy 0 is the primary, higher indices
/// are replication copies placed on other shards by the service.
///
/// `put` on an existing key replaces the payload (repair heals in
/// place); `remove` of an absent key is a no-op returning `false`.
pub trait ChunkBackend {
    /// Short backend name for diagnostics ("mem", "segment-log").
    fn kind(&self) -> &'static str;
    /// Stores (or replaces) one copy's payload.
    fn put(&mut self, hash: ChunkHash, copy: u8, data: Arc<[u8]>);
    /// Fetches one copy's payload, if present.
    fn get(&self, hash: ChunkHash, copy: u8) -> Option<Arc<[u8]>>;
    /// Whether a copy is present (without materializing it).
    fn contains(&self, hash: ChunkHash, copy: u8) -> bool;
    /// Drops one copy. Returns whether it was present.
    fn remove(&mut self, hash: ChunkHash, copy: u8) -> bool;
    /// Live copies held.
    fn copy_count(&self) -> usize;
    /// Payload bytes held across live copies (logical, not media).
    fn payload_bytes(&self) -> u64;
}

/// The in-memory reference backend.
#[derive(Default)]
pub struct MemBackend {
    copies: IntMap<(u128, u8), Arc<[u8]>>,
    bytes: u64,
}

impl MemBackend {
    pub fn new() -> Self {
        Self::default()
    }
}

impl ChunkBackend for MemBackend {
    fn kind(&self) -> &'static str {
        "mem"
    }

    fn put(&mut self, hash: ChunkHash, copy: u8, data: Arc<[u8]>) {
        self.bytes += data.len() as u64;
        if let Some(old) = self.copies.insert((hash.0, copy), data) {
            self.bytes -= old.len() as u64;
        }
    }

    fn get(&self, hash: ChunkHash, copy: u8) -> Option<Arc<[u8]>> {
        self.copies.get(&(hash.0, copy)).cloned()
    }

    fn contains(&self, hash: ChunkHash, copy: u8) -> bool {
        self.copies.contains_key(&(hash.0, copy))
    }

    fn remove(&mut self, hash: ChunkHash, copy: u8) -> bool {
        match self.copies.remove(&(hash.0, copy)) {
            Some(old) => {
                self.bytes -= old.len() as u64;
                true
            }
            None => false,
        }
    }

    fn copy_count(&self) -> usize {
        self.copies.len()
    }

    fn payload_bytes(&self) -> u64 {
        self.bytes
    }
}

/// Record tags of the segment-log frame format.
const REC_PUT: u8 = 1;
const REC_DEL: u8 = 2;

/// Default segment roll size: a new segment starts once the current one
/// crosses this many bytes.
pub const DEFAULT_SEGMENT_ROLL_BYTES: usize = 1 << 20;

struct MediaInner {
    segments: Vec<Vec<u8>>,
    roll_bytes: usize,
}

/// The durable medium under a [`SegmentLogBackend`]: an ordered list of
/// append-only byte segments behind a cheap `Clone` handle. Dropping the
/// backend leaves the media intact — reopening it replays the log and
/// rebuilds the index, which is the crash-recovery story.
#[derive(Clone)]
pub struct SegmentMedia {
    inner: Rc<RefCell<MediaInner>>,
}

impl Default for SegmentMedia {
    fn default() -> Self {
        Self::new()
    }
}

impl SegmentMedia {
    pub fn new() -> Self {
        Self::with_roll_bytes(DEFAULT_SEGMENT_ROLL_BYTES)
    }

    /// # Panics
    ///
    /// Panics on a zero roll size.
    pub fn with_roll_bytes(roll_bytes: usize) -> Self {
        assert!(roll_bytes > 0, "zero segment roll size");
        SegmentMedia {
            inner: Rc::new(RefCell::new(MediaInner { segments: vec![Vec::new()], roll_bytes })),
        }
    }

    /// Total bytes written to the media (live and superseded records —
    /// the log is append-only and never compacted in-place).
    pub fn byte_len(&self) -> u64 {
        self.inner.borrow().segments.iter().map(|s| s.len() as u64).sum()
    }

    /// Segments the log has rolled over.
    pub fn segment_count(&self) -> usize {
        self.inner.borrow().segments.len()
    }

    /// Test hook: truncates the final segment to `len` bytes, simulating
    /// a crash that tore the last append mid-record.
    #[doc(hidden)]
    pub fn truncate_tail_for_test(&self, len: usize) {
        let mut inner = self.inner.borrow_mut();
        let last = inner.segments.last_mut().expect("media always has a segment");
        last.truncate(len);
    }

    fn append(&self, frame: &[u8]) -> (u32, u32) {
        let mut inner = self.inner.borrow_mut();
        let roll = inner.roll_bytes;
        if inner.segments.last().expect("media always has a segment").len() >= roll {
            inner.segments.push(Vec::new());
        }
        let seg = inner.segments.len() - 1;
        let last = inner.segments.last_mut().expect("media always has a segment");
        let off = last.len();
        last.extend_from_slice(frame);
        (seg as u32, off as u32)
    }
}

/// Where one live copy's payload sits in the media.
#[derive(Clone, Copy)]
struct IndexEntry {
    seg: u32,
    /// Offset of the payload bytes (past the record header).
    off: u32,
    len: u32,
}

/// Append-only segment-log backend: every `put` and `remove` appends a
/// record; the in-memory index maps each live `(hash, copy)` to its
/// newest payload location and is rebuilt from the log on
/// [`SegmentLogBackend::open`].
pub struct SegmentLogBackend {
    media: SegmentMedia,
    index: HashMap<(u128, u8), IndexEntry>,
    bytes: u64,
}

impl SegmentLogBackend {
    /// A backend over fresh media.
    pub fn new() -> Self {
        SegmentLogBackend { media: SegmentMedia::new(), index: HashMap::new(), bytes: 0 }
    }

    /// Opens existing media, replaying every record to rebuild the
    /// index. A torn record at the very tail of the final segment (a
    /// crash mid-append) is discarded, exactly like a torn WAL tail;
    /// any other malformed record is a typed [`StoreError::Backend`].
    pub fn open(media: SegmentMedia) -> Result<Self, StoreError> {
        let mut index: HashMap<(u128, u8), IndexEntry> = HashMap::new();
        let mut bytes = 0u64;
        {
            let inner = media.inner.borrow();
            let last_seg = inner.segments.len() - 1;
            for (seg, segment) in inner.segments.iter().enumerate() {
                let mut d = Dec::new(segment);
                while d.remaining() > 0 {
                    match Self::replay_record(&mut d, seg as u32) {
                        Ok((key, entry)) => {
                            let upd = |b: &mut u64, old: Option<IndexEntry>| {
                                if let Some(o) = old {
                                    *b -= o.len as u64;
                                }
                            };
                            match entry {
                                Some(e) => {
                                    bytes += e.len as u64;
                                    upd(&mut bytes, index.insert(key, e));
                                }
                                None => upd(&mut bytes, index.remove(&key)),
                            }
                        }
                        Err(DecodeError::UnexpectedEof { .. }) if seg == last_seg => break,
                        Err(source) => {
                            return Err(StoreError::Backend { backend: "segment-log", source })
                        }
                    }
                }
            }
        }
        Ok(SegmentLogBackend { media, index, bytes })
    }

    /// The media handle (clone it before dropping the backend to keep
    /// the log reopenable).
    pub fn media(&self) -> SegmentMedia {
        self.media.clone()
    }

    fn replay_record(
        d: &mut Dec<'_>,
        seg: u32,
    ) -> Result<((u128, u8), Option<IndexEntry>), DecodeError> {
        let tag = d.u8()?;
        let hash = d.u128()?;
        let copy = d.u8()?;
        match tag {
            REC_PUT => {
                let len = d.u32()?;
                let off = d.position() as u32;
                d.skip(len as usize)?;
                Ok(((hash, copy), Some(IndexEntry { seg, off, len })))
            }
            REC_DEL => Ok(((hash, copy), None)),
            tag => Err(DecodeError::BadTag { at: d.position() - 18, tag, what: "segment record" }),
        }
    }
}

impl Default for SegmentLogBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl ChunkBackend for SegmentLogBackend {
    fn kind(&self) -> &'static str {
        "segment-log"
    }

    fn put(&mut self, hash: ChunkHash, copy: u8, data: Arc<[u8]>) {
        let mut e = Enc::new();
        e.u8(REC_PUT);
        e.u128(hash.0);
        e.u8(copy);
        e.u32(data.len() as u32);
        let payload_off = e.len();
        e.raw(&data);
        let frame = e.into_bytes();
        let (seg, off) = self.media.append(&frame);
        let entry = IndexEntry { seg, off: off + payload_off as u32, len: data.len() as u32 };
        self.bytes += data.len() as u64;
        if let Some(old) = self.index.insert((hash.0, copy), entry) {
            self.bytes -= old.len as u64;
        }
    }

    fn get(&self, hash: ChunkHash, copy: u8) -> Option<Arc<[u8]>> {
        let e = self.index.get(&(hash.0, copy))?;
        let inner = self.media.inner.borrow();
        let seg = &inner.segments[e.seg as usize];
        Some(Arc::from(&seg[e.off as usize..(e.off + e.len) as usize]))
    }

    fn contains(&self, hash: ChunkHash, copy: u8) -> bool {
        self.index.contains_key(&(hash.0, copy))
    }

    fn remove(&mut self, hash: ChunkHash, copy: u8) -> bool {
        let Some(old) = self.index.remove(&(hash.0, copy)) else { return false };
        self.bytes -= old.len as u64;
        let mut e = Enc::new();
        e.u8(REC_DEL);
        e.u128(hash.0);
        e.u8(copy);
        self.media.append(&e.into_bytes());
        true
    }

    fn copy_count(&self) -> usize {
        self.index.len()
    }

    fn payload_bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::chunk_hash;

    fn payload(tag: u8, len: usize) -> Arc<[u8]> {
        (0..len).map(|i| tag ^ (i as u8)).collect::<Vec<_>>().into()
    }

    fn exercise(backend: &mut dyn ChunkBackend) {
        let a = payload(1, 100);
        let b = payload(2, 50);
        let ha = chunk_hash(&a);
        let hb = chunk_hash(&b);
        backend.put(ha, 0, a.clone());
        backend.put(ha, 1, a.clone());
        backend.put(hb, 0, b.clone());
        assert_eq!(backend.copy_count(), 3);
        assert_eq!(backend.payload_bytes(), 250);
        assert_eq!(backend.get(ha, 0).as_deref(), Some(a.as_ref()));
        assert_eq!(backend.get(ha, 1).as_deref(), Some(a.as_ref()));
        assert!(backend.contains(hb, 0));
        assert!(!backend.contains(hb, 1));

        // Replace shrinks the accounting to the new payload.
        backend.put(hb, 0, payload(3, 20));
        assert_eq!(backend.payload_bytes(), 220);
        assert_eq!(backend.copy_count(), 3);

        assert!(backend.remove(ha, 1));
        assert!(!backend.remove(ha, 1), "double remove is a no-op");
        assert_eq!(backend.copy_count(), 2);
        assert_eq!(backend.payload_bytes(), 120);
        assert!(backend.get(ha, 1).is_none());
    }

    #[test]
    fn mem_backend_semantics() {
        exercise(&mut MemBackend::new());
    }

    #[test]
    fn segment_log_matches_mem_semantics() {
        exercise(&mut SegmentLogBackend::new());
    }

    #[test]
    fn segment_log_reopen_rebuilds_the_index() {
        let mut log = SegmentLogBackend::new();
        let a = payload(1, 300);
        let b = payload(2, 40);
        let ha = chunk_hash(&a);
        let hb = chunk_hash(&b);
        log.put(ha, 0, a.clone());
        log.put(hb, 0, b.clone());
        log.put(hb, 1, b.clone());
        log.remove(hb, 1);
        log.put(ha, 0, payload(9, 300)); // supersede in place
        let media = log.media();
        drop(log);

        let reopened = SegmentLogBackend::open(media).unwrap();
        assert_eq!(reopened.copy_count(), 2);
        assert_eq!(reopened.payload_bytes(), 340);
        assert_eq!(reopened.get(ha, 0).as_deref(), Some(payload(9, 300).as_ref()));
        assert_eq!(reopened.get(hb, 0).as_deref(), Some(b.as_ref()));
        assert!(!reopened.contains(hb, 1), "deletion record replayed");
    }

    #[test]
    fn segment_log_rolls_segments() {
        let media = SegmentMedia::with_roll_bytes(256);
        let mut log = SegmentLogBackend::open(media.clone()).unwrap();
        for i in 0..10u8 {
            let p = payload(i, 100);
            log.put(chunk_hash(&p), 0, p);
        }
        assert!(media.segment_count() > 1, "log rolled past 256-byte segments");
        let reopened = SegmentLogBackend::open(media).unwrap();
        assert_eq!(reopened.copy_count(), 10);
    }

    #[test]
    fn torn_tail_is_discarded_but_mid_log_corruption_is_typed() {
        let mut log = SegmentLogBackend::new();
        let a = payload(1, 64);
        let ha = chunk_hash(&a);
        log.put(ha, 0, a.clone());
        let full = log.media().byte_len() as usize;
        let b = payload(2, 64);
        log.put(chunk_hash(&b), 0, b);
        let media = log.media();
        drop(log);

        // Tear the second record: the reopen keeps the first, drops the tail.
        media.truncate_tail_for_test(full + 10);
        let reopened = SegmentLogBackend::open(media.clone()).unwrap();
        assert_eq!(reopened.copy_count(), 1);
        assert!(reopened.contains(ha, 0));

        // A bad record *tag* mid-log is not a torn tail: typed error.
        media.truncate_tail_for_test(full);
        media.append(&[0xFF; 40]);
        match SegmentLogBackend::open(media) {
            Err(StoreError::Backend { backend, .. }) => assert_eq!(backend, "segment-log"),
            other => panic!("expected Backend error, got {:?}", other.map(|_| ())),
        }
    }
}
