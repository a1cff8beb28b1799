//! Event identifiers, the slot-arena scheduler, and payload storage.
//!
//! The scheduler is the hottest structure in the workspace: every NIC
//! frame, guest tick, NTP poll, and checkpoint phase transition passes
//! through it, tens of millions of times per experiment. It is built for
//! wall-clock throughput without giving up determinism:
//!
//! - **Slot arena with generation-stamped ids.** Each pending event lives
//!   in a reusable slot; an [`EventId`] packs `(generation << 32) | slot`.
//!   Firing or cancelling bumps the slot's generation, so ids of fired or
//!   cancelled events can never match again (generations start at 1, and
//!   a fabricated id with generation 0 is always rejected), and `len()`
//!   is exact.
//! - **Indexed 4-ary min-heap.** Shallower than a binary heap, and a
//!   sift step's children share a cache line. Each live slot tracks its
//!   heap position, so cancellation removes its entry eagerly with one
//!   localized sift — no tombstones for pops to wade through, and
//!   cancel-heavy workloads (armed-then-cancelled timeouts) never
//!   inflate the heap. Ordering is a single packed `(time << 64) | seq`
//!   `u128` compare: equal-timestamp events fire in schedule order,
//!   exactly as before.
//! - **Inline payloads with a pooled-box fallback.** Payload values up
//!   to 40 bytes are stored inline in the arena slot — no allocation
//!   at all, guarded by a per-type `TypeId` + dropper record. 40 is the
//!   size of a frame event: `hwsim`'s `LinkTransmit`, `LinkDeliver` and
//!   `LanTransmit` (a 32-byte `Frame` plus a port), and the message
//!   enums of the VM host and the delay node, fit — each asserts so
//!   with [`fits_inline`] next to its definition — so a packet hop
//!   touches neither the allocator nor the pool. Larger payloads fall
//!   back to boxed `Option<T>` values drawn from a per-type
//!   thread-local free list, so even they rarely touch the allocator.
//!   Storage strategy only decides where bytes live — payload values,
//!   delivery order, and drop observability are unchanged, so simulated
//!   time is unaffected.

use std::any::{Any, TypeId};
use std::cell::{Cell, RefCell};
use std::mem::{align_of, size_of, ManuallyDrop, MaybeUninit};

use crate::time::SimTime;

/// Identifies a component registered with the engine.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ComponentId(pub u32);

/// Identifies a scheduled event, usable for cancellation.
///
/// Encodes `(generation << 32) | slot` into the arena; a given value is
/// only ever valid for the one scheduling it was returned from.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId(pub u64);

impl EventId {
    fn pack(slot: u32, gen: u32) -> Self {
        EventId(((gen as u64) << 32) | slot as u64)
    }

    fn slot(self) -> u32 {
        self.0 as u32
    }

    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

// ---------------------------------------------------------------------------
// Payload pool.
// ---------------------------------------------------------------------------

/// Payload values at most this large (and at most 8-aligned) are stored
/// *inline in the arena slot*: a post of a tick, a frame hand-off, or any
/// other message up to the size of a frame event touches no allocator, no
/// thread-local pool — just a write into the slot it already owns. Larger
/// payloads fall back to pooled boxes.
const INLINE_BYTES: usize = 40;
const INLINE_ALIGN: usize = 8;

/// True if an event payload of type `T` is stored inline in its arena
/// slot. Per-packet message types assert this in a `const` next to their
/// definition, so a field added later cannot silently put every packet
/// back on the boxed path.
pub const fn fits_inline<T>() -> bool {
    size_of::<T>() <= INLINE_BYTES && align_of::<T>() <= INLINE_ALIGN
}

/// 8-aligned inline payload storage. Only the leading `size_of::<T>()`
/// bytes are initialized; `MaybeUninit` makes moving the rest sound.
#[repr(align(8))]
struct InlineBuf(MaybeUninit<[u8; INLINE_BYTES]>);

/// Per-type metadata for inline payloads: the `TypeId` that guards every
/// read and the in-place dropper. One `&'static` instance per payload
/// type (promoted from an inline `const`), so each stored value carries
/// a single pointer instead of 24 bytes of metadata.
struct PayloadMeta {
    tid: TypeId,
    drop_fn: unsafe fn(*mut u8),
}

fn meta_of<T: Any>() -> &'static PayloadMeta {
    const {
        &PayloadMeta {
            tid: TypeId::of::<T>(),
            drop_fn: drop_in_place_as::<T>,
        }
    }
}

/// A small payload value stored inline: the bytes plus the metadata of
/// the type they hold.
///
/// Invariants (upheld by [`store_payload`], the only constructor):
/// - the buffer holds a valid, owned `T` with `meta == meta_of::<T>()`;
/// - ownership leaves exactly once — either `Payload::downcast` moves the
///   value out (suppressing `Drop` via `ManuallyDrop`), or `Drop` runs
///   `meta.drop_fn`, never both.
struct InlineValue {
    buf: InlineBuf,
    meta: &'static PayloadMeta,
}

impl InlineValue {
    fn as_ptr(&self) -> *const u8 {
        self.buf.0.as_ptr() as *const u8
    }

    fn as_mut_ptr(&mut self) -> *mut u8 {
        self.buf.0.as_mut_ptr() as *mut u8
    }
}

impl Drop for InlineValue {
    fn drop(&mut self) {
        // SAFETY: per the struct invariant the buffer still owns a valid
        // value of the type `meta.drop_fn` was monomorphized for.
        unsafe { (self.meta.drop_fn)(self.as_mut_ptr()) }
    }
}

unsafe fn drop_in_place_as<T>(p: *mut u8) {
    // SAFETY: caller (InlineValue::drop) guarantees `p` points at a
    // valid, owned `T`.
    unsafe { std::ptr::drop_in_place(p.cast::<T>()) }
}

/// An event payload at rest: inline bytes for small types, a pooled
/// `Box<Option<T>>` otherwise.
enum Stored {
    Inline(InlineValue),
    Boxed(Box<dyn Any>),
}

/// Packs `value` for storage. The size/align test is a compile-time
/// constant per `T`, so each monomorphization keeps only one arm.
fn store_payload<T: Any>(value: T) -> Stored {
    if fits_inline::<T>() {
        let mut buf = InlineBuf(MaybeUninit::uninit());
        // SAFETY: `T` fits the buffer and its alignment divides the
        // buffer's (checked above); ownership of `value` moves into the
        // buffer, guarded from here on by `tid` + `drop_fn`.
        unsafe { buf.0.as_mut_ptr().cast::<T>().write(value) };
        INLINE_STORES.with(|c| c.set(c.get() + 1));
        Stored::Inline(InlineValue {
            buf,
            meta: meta_of::<T>(),
        })
    } else {
        Stored::Boxed(pool_wrap(value))
    }
}

thread_local! {
    /// Posts whose payload was stored inline (no allocation).
    static INLINE_STORES: Cell<u64> = const { Cell::new(0) };
}

/// Per-type cap on pooled boxes; beyond this, reclaimed boxes are freed.
const POOL_PER_TYPE_CAP: usize = 128;

/// One per-type free list. The workspace posts a few dozen payload types
/// at most, and one or two dominate any given run, so buckets live in a
/// move-to-front vector: the dominant type is found at index 0 with a
/// single `TypeId` compare — no hashing at all on the hot path.
struct Bucket {
    /// `TypeId::of::<Option<T>>()` — recoverable from a reclaimed
    /// `Box<dyn Any>` at runtime, so both pool directions agree.
    key: TypeId,
    boxes: Vec<Box<dyn Any>>,
}

struct Pool {
    buckets: Vec<Bucket>,
    hits: u64,
    misses: u64,
}

impl Pool {
    /// Index of the bucket for `key`, moved to front on lookup.
    fn bucket_idx(&mut self, key: TypeId) -> Option<usize> {
        let i = self.buckets.iter().position(|b| b.key == key)?;
        if i > 2 {
            // Keep hot types at the front without churning on every call.
            self.buckets.swap(i, i / 2);
            return Some(i / 2);
        }
        Some(i)
    }
}

thread_local! {
    /// The engine is single-threaded; one pool per thread serves every
    /// engine on it. Pooling is invisible to simulated time — it only
    /// decides whether a post allocates. Const-initialized so access
    /// compiles to the no-lazy-check fast path.
    static POOL: RefCell<Pool> = const {
        RefCell::new(Pool { buckets: Vec::new(), hits: 0, misses: 0 })
    };
}

/// Wraps a payload value into a (possibly recycled) `Box<Option<T>>`.
/// Returned as the concrete box so callers can coerce to either
/// `Box<dyn Any>` (local storage) or `Box<dyn Any + Send>` (cross-shard
/// transport, when `T: Send`).
fn pool_wrap<T: Any>(value: T) -> Box<Option<T>> {
    let key = TypeId::of::<Option<T>>();
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        if let Some(i) = p.bucket_idx(key) {
            if let Some(b) = p.buckets[i].boxes.pop() {
                p.hits += 1;
                let mut b = b.downcast::<Option<T>>().expect("pool bucket keyed by type");
                *b = Some(value);
                return b;
            }
        }
        p.misses += 1;
        Box::new(Some(value))
    })
}

/// A payload boxed for cross-shard transport: `Box<Option<T>>` with
/// `T: Send`, type-erased behind `Send` so it can cross the shard
/// mailboxes of [`crate::shard::ShardedEngine`]. On arrival it is stored
/// as a plain boxed payload, so the receiving component's
/// [`Payload::downcast`] path (including pool reclamation, now into the
/// *receiving* thread's pool) is exactly the local one.
pub(crate) struct RemotePayload {
    boxed: Box<dyn Any + Send>,
}

impl RemotePayload {
    /// Boxes `value` for transport (drawing from this thread's pool when
    /// a box of the right type is free).
    pub(crate) fn wrap<T: Any + Send>(value: T) -> Self {
        RemotePayload {
            boxed: pool_wrap(value),
        }
    }
}

/// Returns a payload box (`Option<T>`, spent or not) to the pool. A
/// still-occupied box (from a cancelled or undelivered event) keeps its
/// value until the box is reused; payloads are inert data, so deferring
/// that drop is unobservable, and the per-type cap bounds the memory.
fn pool_reclaim(b: Box<dyn Any>) {
    let key = (*b).type_id();
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        match p.bucket_idx(key) {
            Some(i) => {
                let bucket = &mut p.buckets[i].boxes;
                if bucket.len() < POOL_PER_TYPE_CAP {
                    bucket.push(b);
                }
            }
            None => p.buckets.push(Bucket { key, boxes: vec![b] }),
        }
    });
}

/// Where this thread's posts have stored their payloads since process
/// start.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PayloadPoolStats {
    /// Posts stored inline in the arena slot: no allocator, no pool.
    pub inline: u64,
    /// Posts too large to inline that recycled a pooled box.
    pub pool_hits: u64,
    /// Posts too large to inline that allocated a fresh box.
    pub pool_misses: u64,
}

/// Payload storage counters for this thread since process start.
pub fn payload_pool_stats() -> PayloadPoolStats {
    let inline = INLINE_STORES.with(|c| c.get());
    POOL.with(|p| {
        let p = p.borrow();
        PayloadPoolStats {
            inline,
            pool_hits: p.hits,
            pool_misses: p.misses,
        }
    })
}

/// An event payload in flight, as delivered to [`Component::handle`].
///
/// Consume it with [`Payload::downcast`], which returns the value and
/// recycles the underlying box; a failed downcast hands the payload back
/// so handlers can try the next message type. Dropping an unconsumed
/// payload also recycles the box (its value is dropped with it).
///
/// [`Component::handle`]: crate::Component::handle
pub struct Payload {
    repr: Option<Stored>,
}

impl Payload {
    fn new(stored: Stored) -> Self {
        Payload { repr: Some(stored) }
    }

    /// Consumes the payload as a `T`, or hands it back unchanged.
    pub fn downcast<T: Any>(mut self) -> Result<T, Payload> {
        match self.repr.take().expect("payload consumed twice") {
            Stored::Inline(iv) => {
                if iv.meta.tid == TypeId::of::<T>() {
                    let iv = ManuallyDrop::new(iv);
                    // SAFETY: the `tid` match proves the buffer holds an
                    // owned `T`; `ManuallyDrop` suppresses the in-place
                    // drop because ownership moves out here.
                    Ok(unsafe { iv.as_ptr().cast::<T>().read() })
                } else {
                    self.repr = Some(Stored::Inline(iv));
                    Err(self)
                }
            }
            Stored::Boxed(b) => match b.downcast::<Option<T>>() {
                Ok(mut opt) => {
                    let v = opt.take().expect("payload box holds a value");
                    pool_reclaim(opt);
                    Ok(v)
                }
                Err(b) => {
                    self.repr = Some(Stored::Boxed(b));
                    Err(self)
                }
            },
        }
    }

    /// True if the payload is a `T`.
    pub fn is<T: Any>(&self) -> bool {
        self.downcast_ref::<T>().is_some()
    }

    /// Borrows the payload as a `T` without consuming it.
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        match self.repr.as_ref().expect("payload consumed") {
            Stored::Inline(iv) if iv.meta.tid == TypeId::of::<T>() => {
                // SAFETY: the `tid` match proves the buffer holds a `T`.
                Some(unsafe { &*iv.as_ptr().cast::<T>() })
            }
            Stored::Inline(_) => None,
            Stored::Boxed(b) => b.downcast_ref::<Option<T>>()?.as_ref(),
        }
    }

    /// Mutably borrows the payload as a `T` without consuming it.
    pub fn downcast_mut<T: Any>(&mut self) -> Option<&mut T> {
        match self.repr.as_mut().expect("payload consumed") {
            Stored::Inline(iv) if iv.meta.tid == TypeId::of::<T>() => {
                // SAFETY: the `tid` match proves the buffer holds a `T`.
                Some(unsafe { &mut *iv.as_mut_ptr().cast::<T>() })
            }
            Stored::Inline(_) => None,
            Stored::Boxed(b) => b.downcast_mut::<Option<T>>()?.as_mut(),
        }
    }
}

impl Drop for Payload {
    fn drop(&mut self) {
        match self.repr.take() {
            // An unconsumed boxed payload goes back to the pool; an
            // inline one drops its value in place (InlineValue::drop).
            Some(Stored::Boxed(b)) => pool_reclaim(b),
            Some(Stored::Inline(_)) | None => {}
        }
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.repr {
            Some(Stored::Inline(iv)) => write!(f, "Payload({:?})", iv.meta.tid),
            Some(Stored::Boxed(b)) => write!(f, "Payload({:?})", (**b).type_id()),
            None => write!(f, "Payload(<consumed>)"),
        }
    }
}

// ---------------------------------------------------------------------------
// Scheduler.
// ---------------------------------------------------------------------------

/// A heap entry: the ordering key plus a stamped pointer into the arena.
/// 24 bytes, `Copy` — sifts move these, never the payloads.
///
/// The key packs `(time << 64) | seq` into one `u128`, so the strict
/// `(time, seq)` order — equal-timestamp events fire in schedule order —
/// is a single integer comparison per sift step.
#[derive(Clone, Copy)]
struct HeapEntry {
    key: u128,
    slot: u32,
    gen: u32,
}

impl HeapEntry {
    #[inline]
    fn new(time: SimTime, seq: u64, slot: u32, gen: u32) -> Self {
        HeapEntry {
            key: ((time.as_nanos() as u128) << 64) | seq as u128,
            slot,
            gen,
        }
    }

    #[inline]
    fn time(&self) -> SimTime {
        SimTime::from_nanos((self.key >> 64) as u64)
    }
}

/// One arena slot. `payload: Some` ⇔ a live event occupies the slot with
/// the slot's current generation; freeing (fire or cancel) bumps the
/// generation so outstanding [`EventId`]s go stale. While live,
/// `heap_pos` tracks the slot's entry in the heap (maintained by every
/// sift), making cancellation an indexed removal instead of a tombstone.
struct Slot {
    gen: u32,
    heap_pos: u32,
    target: ComponentId,
    payload: Option<Stored>,
}

// The arena's per-event footprint: three stamps, the inline bytes and
// their type descriptor. A reviewed number, not an accident of field
// order — widening it costs cache on every sift.
const _: () = assert!(size_of::<Slot>() == 72);

impl Slot {
    fn retire(&mut self) {
        self.payload = None;
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // Generation 0 marks "never valid" (fabricated ids); skip it.
            self.gen = 1;
        }
    }
}

/// A popped event, ready for dispatch.
pub(crate) struct Fired {
    pub time: SimTime,
    pub target: ComponentId,
    /// The low 64 bits of the heap ordering key: the internal sequence
    /// number for [`Scheduler::push`], or the caller's explicit key for
    /// the keyed pushes. The sharded engine stamps trace events with it
    /// so merged trace order is dispatch order.
    pub key: u64,
    pub payload: Payload,
}

/// The pending-event store: a slot arena indexed by a 4-ary min-heap.
///
/// The heap holds exactly the live events: cancellation removes its
/// entry eagerly via the slot's `heap_pos` back-pointer (one localized
/// sift), so pops never wade through tombstones and cancel-heavy
/// workloads don't inflate the heap.
pub(crate) struct Scheduler {
    heap: Vec<HeapEntry>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    next_seq: u64,
}

impl Scheduler {
    pub fn new() -> Self {
        Scheduler {
            heap: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedules `value` for `target` at absolute `time`.
    pub fn push<T: Any>(&mut self, time: SimTime, target: ComponentId, value: T) -> EventId {
        let payload = store_payload(value);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(time, seq, target, payload)
    }

    /// Schedules `value` with an explicit equal-timestamp tie-break key
    /// instead of the internal sequence counter.
    ///
    /// The sharded engine derives `key` from the *posting* component's
    /// global id and per-poster sequence number, which makes the total
    /// event order — `(time, key)` ascending — a function of the
    /// simulated behavior alone, independent of how components are
    /// partitioned into shards. Callers must keep `(time, key)` unique
    /// per scheduler and must not mix keyed and unkeyed pushes on one
    /// scheduler (the internal counter knows nothing about caller keys).
    pub fn push_keyed<T: Any>(
        &mut self,
        time: SimTime,
        target: ComponentId,
        key: u64,
        value: T,
    ) -> EventId {
        let payload = store_payload(value);
        self.insert(time, key, target, payload)
    }

    /// Schedules an already-boxed cross-shard payload with an explicit
    /// tie-break key (see [`Scheduler::push_keyed`]).
    pub fn push_remote(
        &mut self,
        time: SimTime,
        target: ComponentId,
        key: u64,
        payload: RemotePayload,
    ) -> EventId {
        self.insert(time, key, target, Stored::Boxed(payload.boxed))
    }

    fn insert(&mut self, time: SimTime, seq: u64, target: ComponentId, payload: Stored) -> EventId {
        let (slot, gen) = match self.free.pop() {
            Some(s) => {
                let sl = &mut self.slots[s as usize];
                debug_assert!(sl.payload.is_none(), "free-list slot occupied");
                sl.target = target;
                sl.payload = Some(payload);
                (s, sl.gen)
            }
            None => {
                let s = u32::try_from(self.slots.len()).expect("slot arena full");
                self.slots.push(Slot {
                    gen: 1,
                    heap_pos: 0,
                    target,
                    payload: Some(payload),
                });
                (s, 1)
            }
        };
        let i = self.heap.len();
        self.heap.push(HeapEntry::new(time, seq, slot, gen));
        self.sift_up(i);
        EventId::pack(slot, gen)
    }

    /// Cancels a pending event. Returns false if the id's event already
    /// fired, was already cancelled, or never existed — stale ids can
    /// never alias a reused slot thanks to the generation stamp.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.slots.get_mut(id.slot() as usize) {
            Some(sl) if sl.gen == id.gen() => {
                debug_assert!(sl.payload.is_some(), "live generation without payload");
                let pos = sl.heap_pos as usize;
                sl.retire();
                self.free.push(id.slot());
                debug_assert_eq!(self.heap[pos].slot, id.slot(), "heap_pos out of sync");
                self.remove_at(pos);
                true
            }
            _ => false,
        }
    }

    /// Cancels every pending event addressed to `target`, returning how
    /// many were cancelled. Used by component removal so a dead slot
    /// never has live events pointed at it.
    ///
    /// O(slots) scan plus one localized heap removal per hit — removal
    /// is a cold administrative path, not a hot one.
    pub fn cancel_target(&mut self, target: ComponentId) -> u64 {
        let mut cancelled = 0;
        for i in 0..self.slots.len() {
            let sl = &mut self.slots[i];
            if sl.payload.is_none() || sl.target != target {
                continue;
            }
            let pos = sl.heap_pos as usize;
            sl.retire();
            self.free.push(i as u32);
            debug_assert_eq!(self.heap[pos].slot, i as u32, "heap_pos out of sync");
            self.remove_at(pos);
            cancelled += 1;
        }
        cancelled
    }

    /// Pops the next event.
    pub fn pop(&mut self) -> Option<Fired> {
        self.pop_before(SimTime::MAX)
    }

    /// Pops the next event only if it fires at or before `limit` — the
    /// engine's `run_until` loop in one heap traversal, instead of a
    /// peek followed by a pop touching the root twice.
    pub fn pop_before(&mut self, limit: SimTime) -> Option<Fired> {
        let e = *self.heap.first()?;
        let limit_key = ((limit.as_nanos() as u128) << 64) | u64::MAX as u128;
        if e.key > limit_key {
            return None;
        }
        self.remove_at(0);
        let sl = &mut self.slots[e.slot as usize];
        debug_assert_eq!(sl.gen, e.gen, "heap entry stale despite eager removal");
        let payload = sl.payload.take().expect("live generation without payload");
        let target = sl.target;
        sl.retire();
        self.free.push(e.slot);
        Some(Fired {
            time: e.time(),
            target,
            key: e.key as u64,
            payload: Payload::new(payload),
        })
    }

    /// Returns the firing time of the next event without popping it.
    /// (The engine pops via [`Scheduler::pop_before`]; peeking remains
    /// for tests and the property-test reference model.)
    #[cfg(test)]
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.heap.first().map(|e| e.time())
    }

    /// Number of live events still queued (exact: the heap holds no
    /// tombstones, so its length is the live count).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    // 4-ary heap primitives, ordered by packed `(time, seq)` ascending.
    // Every entry move also updates the owning slot's `heap_pos`.

    fn sift_up(&mut self, mut i: usize) {
        let e = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 4;
            let p = self.heap[parent];
            if p.key <= e.key {
                break;
            }
            self.heap[i] = p;
            self.slots[p.slot as usize].heap_pos = i as u32;
            i = parent;
        }
        self.heap[i] = e;
        self.slots[e.slot as usize].heap_pos = i as u32;
    }

    /// Removes the entry at heap index `i`, restoring the heap invariant
    /// by moving the tail entry into the hole and sifting it whichever
    /// way it violates order.
    fn remove_at(&mut self, i: usize) {
        let last = self.heap.pop().expect("remove_at on empty heap");
        if i == self.heap.len() {
            return; // removed the tail entry itself
        }
        self.heap[i] = last;
        if i > 0 && last.key < self.heap[(i - 1) / 4].key {
            self.sift_up(i);
        } else {
            self.sift_down(i);
        }
    }

    /// Bottom-up sift: percolate the min-child chain up into the hole all
    /// the way to a leaf, then bubble the displaced entry back up from
    /// there. The entry being sifted is almost always a recently-pushed
    /// tail (far-future) element that belongs near the leaves, so this
    /// saves the entry-vs-min-child comparison every level that the
    /// classical top-down sift pays.
    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        let e = self.heap[i];
        loop {
            let first = 4 * i + 1;
            if first >= n {
                break;
            }
            // One bounds check per level: scan the child block as a slice.
            let mut min = first;
            let mut min_key = self.heap[first].key;
            for (j, c) in self.heap[first..(first + 4).min(n)].iter().enumerate().skip(1) {
                if c.key < min_key {
                    min = first + j;
                    min_key = c.key;
                }
            }
            let m = self.heap[min];
            self.heap[i] = m;
            self.slots[m.slot as usize].heap_pos = i as u32;
            i = min;
        }
        // `i` is now a leaf hole; walk `e` back up to its place (usually
        // zero or one step for far-future entries).
        while i > 0 {
            let parent = (i - 1) / 4;
            let p = self.heap[parent];
            if p.key <= e.key {
                break;
            }
            self.heap[i] = p;
            self.slots[p.slot as usize].heap_pos = i as u32;
            i = parent;
        }
        self.heap[i] = e;
        self.slots[e.slot as usize].heap_pos = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::time::SimTime;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn pop_value<T: Any>(s: &mut Scheduler) -> Option<T> {
        s.pop().map(|f| f.payload.downcast::<T>().unwrap())
    }

    #[test]
    fn pops_in_time_order() {
        let mut s = Scheduler::new();
        s.push(t(30), ComponentId(0), 3u32);
        s.push(t(10), ComponentId(0), 1u32);
        s.push(t(20), ComponentId(0), 2u32);
        let order: Vec<u32> = std::iter::from_fn(|| pop_value(&mut s)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_fire_in_push_order() {
        let mut s = Scheduler::new();
        for i in 0..10u32 {
            s.push(t(5), ComponentId(0), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| pop_value(&mut s)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cancellation_skips_event() {
        let mut s = Scheduler::new();
        let a = s.push(t(1), ComponentId(0), 1u32);
        s.push(t(2), ComponentId(0), 2u32);
        assert!(s.cancel(a));
        assert!(!s.cancel(a), "double-cancel reports false");
        assert_eq!(pop_value::<u32>(&mut s), Some(2));
        assert!(s.pop().is_none());
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut s = Scheduler::new();
        let a = s.push(t(1), ComponentId(0), ());
        s.push(t(7), ComponentId(0), ());
        s.cancel(a);
        assert_eq!(s.peek_time(), Some(t(7)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut s = Scheduler::new();
        assert!(!s.cancel(EventId(99)));
    }

    #[test]
    fn cancel_after_fire_is_false_and_len_stays_exact() {
        // Regression: the tombstone-set scheduler accepted ids of events
        // that had already fired, returning true and leaving a permanent
        // tombstone that made `len()` drift (and eventually underflow).
        let mut s = Scheduler::new();
        let a = s.push(t(1), ComponentId(0), 1u32);
        assert_eq!(s.len(), 1);
        assert_eq!(pop_value::<u32>(&mut s), Some(1));
        assert_eq!(s.len(), 0);
        assert!(!s.cancel(a), "cancel after fire must report false");
        assert_eq!(s.len(), 0, "failed cancel must not corrupt len");
        // And the queue still works normally afterwards.
        s.push(t(2), ComponentId(0), 2u32);
        assert_eq!(s.len(), 1);
        assert!(!s.cancel(a), "stale id stays dead after slot reuse");
        assert_eq!(pop_value::<u32>(&mut s), Some(2));
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn event_ids_are_reuse_safe_across_generations() {
        let mut s = Scheduler::new();
        let a = s.push(t(1), ComponentId(0), 1u32);
        assert!(s.cancel(a));
        // The freed slot is reused; the old id must not cancel the new
        // occupant, and the new id must work exactly once.
        let b = s.push(t(2), ComponentId(0), 2u32);
        assert_ne!(a, b, "reused slot gets a fresh generation");
        assert!(!s.cancel(a));
        assert_eq!(s.len(), 1);
        assert!(s.cancel(b));
        assert!(!s.cancel(b));
        assert_eq!(s.len(), 0);
        assert!(s.pop().is_none());
    }

    #[test]
    fn payload_pool_round_trip() {
        // A type private to this test and too large to inline, so no
        // other pool traffic interferes.
        #[derive(Debug, PartialEq)]
        struct Msg([u64; 6]);
        assert!(!fits_inline::<Msg>());
        let mut s = Scheduler::new();
        let before = payload_pool_stats();
        s.push(t(1), ComponentId(0), Msg([7; 6]));
        let got = pop_value::<Msg>(&mut s).unwrap();
        assert_eq!(got, Msg([7; 6]));
        // The consumed box went back to the pool; the next post recycles it.
        s.push(t(2), ComponentId(0), Msg([8; 6]));
        let after = payload_pool_stats();
        assert_eq!(after.pool_misses, before.pool_misses + 1, "first post boxes anew");
        assert_eq!(after.pool_hits, before.pool_hits + 1, "second post recycles the box");
        assert_eq!(after.inline, before.inline, "neither post is inline");
        assert_eq!(pop_value::<Msg>(&mut s), Some(Msg([8; 6])));
    }

    /// Posts one `T` and reports `(inline, boxed)` posts it caused.
    fn storage_of<T: Any>(value: T) -> (u64, u64) {
        let mut s = Scheduler::new();
        let before = payload_pool_stats();
        s.push(t(1), ComponentId(0), value);
        let after = payload_pool_stats();
        assert!(s.pop().unwrap().payload.is::<T>());
        (
            after.inline - before.inline,
            (after.pool_hits + after.pool_misses) - (before.pool_hits + before.pool_misses),
        )
    }

    #[test]
    fn inline_boundary_follows_the_constant() {
        #[repr(align(16))]
        struct OverAligned(#[allow(dead_code)] u8);
        assert!(fits_inline::<[u8; INLINE_BYTES]>() && fits_inline::<[u64; 5]>());
        assert!(!fits_inline::<[u8; INLINE_BYTES + 1]>() && !fits_inline::<[u64; 6]>());
        assert!(!fits_inline::<OverAligned>(), "small but 16-aligned");
        // What `fits_inline` promises is what `push` does.
        assert_eq!(storage_of([1u8; INLINE_BYTES]), (1, 0));
        assert_eq!(storage_of([1u64; 5]), (1, 0));
        assert_eq!(storage_of([1u8; INLINE_BYTES + 1]), (0, 1));
        assert_eq!(storage_of(OverAligned(1)), (0, 1));
        // And the value survives either path intact.
        let mut s = Scheduler::new();
        s.push(t(1), ComponentId(0), [9u64, 8, 7, 6, 5]);
        s.push(t(2), ComponentId(0), [4u8; 41]);
        assert_eq!(pop_value::<[u64; 5]>(&mut s), Some([9, 8, 7, 6, 5]));
        assert_eq!(pop_value::<[u8; 41]>(&mut s), Some([4; 41]));
    }

    /// A frame-shaped inline payload: addressing words plus a shared,
    /// type-erased body, padded out to exactly the inline limit.
    struct FrameLike {
        _hdr: [u32; 3],
        _port: u64,
        body: Arc<dyn Any + Send + Sync>,
    }

    fn frame_like(probe: &Arc<u32>) -> FrameLike {
        assert_eq!(size_of::<FrameLike>(), INLINE_BYTES);
        FrameLike {
            _hdr: [1, 2, 1500],
            _port: 1,
            body: probe.clone(),
        }
    }

    #[test]
    fn inline_payload_owning_an_arc_drops_exactly_once() {
        let probe = Arc::new(7u32);
        let mut s = Scheduler::new();
        // Consumed: ownership moves out through `downcast`, the slot's
        // copy of the bytes must not be dropped again.
        s.push(t(1), ComponentId(0), frame_like(&probe));
        assert_eq!(Arc::strong_count(&probe), 2);
        let got = pop_value::<FrameLike>(&mut s).unwrap();
        assert_eq!(Arc::strong_count(&probe), 2, "moved, not duplicated");
        assert_eq!(got.body.downcast_ref::<u32>(), Some(&7));
        drop(got);
        assert_eq!(Arc::strong_count(&probe), 1);
        // Delivered but never consumed: the payload's own drop runs it.
        s.push(t(2), ComponentId(0), frame_like(&probe));
        let unconsumed = s.pop().unwrap().payload;
        let unconsumed = unconsumed.downcast::<u32>().unwrap_err(); // wrong type: handed back
        assert_eq!(Arc::strong_count(&probe), 2);
        drop(unconsumed);
        assert_eq!(Arc::strong_count(&probe), 1);
        // Never delivered: dropping the scheduler drops the slot.
        s.push(t(3), ComponentId(0), frame_like(&probe));
        drop(s);
        assert_eq!(Arc::strong_count(&probe), 1);
    }

    #[test]
    fn cancel_releases_an_inline_payload_at_once() {
        let probe = Arc::new(7u32);
        let mut s = Scheduler::new();
        let before = payload_pool_stats();
        let id = s.push(t(1), ComponentId(0), frame_like(&probe));
        let kept = s.push(t(2), ComponentId(1), frame_like(&probe));
        assert_eq!(payload_pool_stats().inline, before.inline + 2);
        assert_eq!(Arc::strong_count(&probe), 3);
        assert!(s.cancel(id));
        assert_eq!(Arc::strong_count(&probe), 2, "cancel drops the value, not the next reuse");
        assert_eq!(s.cancel_target(ComponentId(1)), 1);
        assert_eq!(Arc::strong_count(&probe), 1);
        assert!(!s.cancel(kept));
    }

    #[test]
    fn payload_chained_downcast_hands_back() {
        let mut s = Scheduler::new();
        s.push(t(1), ComponentId(0), 5u32);
        let p = s.pop().unwrap().payload;
        let p = p.downcast::<String>().unwrap_err();
        assert!(p.is::<u32>());
        assert_eq!(p.downcast_ref::<u32>(), Some(&5));
        assert_eq!(p.downcast::<u32>().unwrap(), 5);
    }

    #[test]
    fn keyed_pushes_pop_in_key_order_regardless_of_insertion() {
        // Equal-timestamp keyed events pop in ascending key order no
        // matter the insertion order — the property the sharded engine's
        // determinism rests on (mailbox drain order varies across runs).
        let keys = [7u64, 3, 9, 1, 5];
        let mut s = Scheduler::new();
        for &k in &keys {
            s.push_keyed(t(100), ComponentId(0), k, k);
        }
        let order: Vec<u64> = std::iter::from_fn(|| pop_value(&mut s)).collect();
        assert_eq!(order, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn remote_payload_round_trips_through_push_remote() {
        #[derive(Debug, PartialEq)]
        struct Big([u64; 8]); // > INLINE_BYTES, so it exercises the boxed path
        let mut s = Scheduler::new();
        let p = RemotePayload::wrap(Big([9; 8]));
        s.push_remote(t(5), ComponentId(2), 1, p);
        let f = s.pop().unwrap();
        assert_eq!(f.target, ComponentId(2));
        assert_eq!(f.key, 1);
        assert_eq!(f.payload.downcast::<Big>().unwrap(), Big([9; 8]));
    }

    #[test]
    fn cancel_target_removes_only_that_targets_events() {
        let mut s = Scheduler::new();
        s.push(t(1), ComponentId(0), 10u64);
        let kept = s.push(t(2), ComponentId(1), 20u64);
        s.push(t(3), ComponentId(0), 30u64);
        assert_eq!(s.cancel_target(ComponentId(0)), 2);
        assert_eq!(s.len(), 1);
        assert_eq!(s.cancel_target(ComponentId(0)), 0);
        assert_eq!(pop_value::<u64>(&mut s), Some(20));
        assert!(!s.cancel(kept), "popped event's id is stale");
        assert!(s.pop().is_none());
    }

    /// Reference model with the documented semantics: a sorted map keyed
    /// by `(time, seq)`, O(n) cancellation, exact length.
    struct ModelScheduler {
        queue: BTreeMap<(u64, u64), (u64, u64)>, // (time, seq) -> (model id, value)
        next_seq: u64,
        next_id: u64,
    }

    impl ModelScheduler {
        fn new() -> Self {
            ModelScheduler {
                queue: BTreeMap::new(),
                next_seq: 0,
                next_id: 0,
            }
        }

        fn push(&mut self, time: u64, value: u64) -> u64 {
            let id = self.next_id;
            self.next_id += 1;
            self.queue.insert((time, self.next_seq), (id, value));
            self.next_seq += 1;
            id
        }

        fn cancel(&mut self, id: u64) -> bool {
            let key = self
                .queue
                .iter()
                .find(|(_, &(mid, _))| mid == id)
                .map(|(&k, _)| k);
            match key {
                Some(k) => {
                    self.queue.remove(&k);
                    true
                }
                None => false,
            }
        }

        fn pop(&mut self) -> Option<(u64, u64)> {
            let (&(time, _), _) = self.queue.iter().next()?;
            let key = *self.queue.keys().next().unwrap();
            let (_, value) = self.queue.remove(&key).unwrap();
            Some((time, value))
        }

        fn peek_time(&self) -> Option<u64> {
            self.queue.keys().next().map(|&(t, _)| t)
        }
    }

    /// Seeded randomized schedule/cancel/peek/pop sequences: the arena
    /// scheduler must be observably identical to the reference model —
    /// same pop order and values (equal-timestamp FIFO), same peek/pop
    /// agreement, same cancel outcomes (including stale and reused ids),
    /// same exact length.
    #[test]
    fn randomized_sequences_match_reference_model() {
        for seed in 0..32u64 {
            let mut rng = SimRng::for_component(0xe7e17, seed as u32);
            let mut real = Scheduler::new();
            let mut model = ModelScheduler::new();
            // Ids from both sides, aligned by issue order; includes ids
            // whose events have long since fired or been cancelled, so
            // cancel constantly probes stale generations.
            let mut ids: Vec<(EventId, u64)> = Vec::new();
            let mut clock = 0u64; // lower bound for new event times
            for _ in 0..400 {
                match rng.range_u64(0, 10) {
                    // Weighted: push > pop > cancel > peek.
                    0..=3 => {
                        let time = clock + rng.range_u64(0, 50);
                        let value = rng.range_u64(0, u64::MAX);
                        let rid = real.push(t(time), ComponentId(0), value);
                        let mid = model.push(time, value);
                        ids.push((rid, mid));
                    }
                    4..=6 => {
                        let got = real.pop().map(|f| {
                            (f.time.as_nanos(), f.payload.downcast::<u64>().unwrap())
                        });
                        let want = model.pop();
                        assert_eq!(got, want, "seed {seed}: pop mismatch");
                        if let Some((time, _)) = got {
                            clock = clock.max(time);
                        }
                    }
                    7..=8 => {
                        if !ids.is_empty() {
                            let pick = rng.range_u64(0, ids.len() as u64) as usize;
                            let (rid, mid) = ids[pick];
                            assert_eq!(
                                real.cancel(rid),
                                model.cancel(mid),
                                "seed {seed}: cancel outcome mismatch"
                            );
                        }
                    }
                    _ => {
                        assert_eq!(
                            real.peek_time().map(|t| t.as_nanos()),
                            model.peek_time(),
                            "seed {seed}: peek mismatch"
                        );
                    }
                }
                assert_eq!(real.len(), model.queue.len(), "seed {seed}: len mismatch");
            }
            // Drain: remaining order must match exactly.
            loop {
                let got = real
                    .pop()
                    .map(|f| (f.time.as_nanos(), f.payload.downcast::<u64>().unwrap()));
                let want = model.pop();
                assert_eq!(got, want, "seed {seed}: drain mismatch");
                if got.is_none() {
                    break;
                }
            }
            assert_eq!(real.len(), 0);
        }
    }
}
