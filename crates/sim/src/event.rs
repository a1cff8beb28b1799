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
//! - **Indexed 4-ary min-heap of 24-byte entries.** Shallower than a
//!   binary heap, and a sift step's children share a cache line. Each
//!   live slot tracks its heap position, so cancellation removes its
//!   entry eagerly with one localized sift — no tombstones for pops to
//!   wade through, and cancel-heavy workloads (armed-then-cancelled
//!   timeouts) never inflate the heap. An entry is three plain words —
//!   time, sequence number, event id — compared as the packed
//!   `(time << 64) | seq`: equal-timestamp events fire in schedule
//!   order. The heap on the per-packet workloads is a dozen entries
//!   deep, so what it costs is not depth but stalls: an entry padded to
//!   32 bytes, or reloaded right after it was stored in pieces of
//!   another width, makes every sift wait for the store buffer.
//! - **A same-instant lane beside the heap.** Posts for the instant being
//!   dispatched (a host handing a frame to a LAN: a third of all posts on
//!   the BitTorrent swarm's LAN, a thousandth of a percent on a shaped
//!   point-to-point link, whose wires belong to their senders) skip the
//!   heap for a FIFO that is sorted by construction;
//!   a pop takes the smaller of the lane's front and the heap's root, so
//!   the `(time, seq)` order is the heap's exactly (see [`Scheduler`]).
//! - **Inline payloads with a boxed fallback.** Payload values up to 40
//!   bytes are stored inline in the arena slot — no allocation at all,
//!   guarded by a per-type `TypeId` + dropper record. 40 is the size of
//!   a frame event: `hwsim`'s `LinkDeliver` and `LanTransmit` (a 32-byte
//!   `Frame` plus a port), and the message enums of the VM host and the
//!   delay node, fit — each asserts so with [`fits_inline`] next to its
//!   definition — so none of a packet hop's four events (`NetTxDone`,
//!   the delivery at the delay node, `PipeWake`, the delivery at the
//!   receiver) touches the allocator. No payload the workspace posts on a
//!   plain engine is larger; one that is, and every payload that crosses
//!   shards, travels as a `Box<T>` in the slot. Storage strategy only
//!   decides where bytes live — payload values, delivery order, and
//!   drop observability are unchanged, so simulated time is unaffected.
//! - **No payload copy that a frame boundary forces.** A post packs the
//!   value into its slot in the function that knows its type; a pop
//!   copies the slot's 48 bytes once, into the argument the handler
//!   receives, whose `downcast` reads the value out. Nothing in between
//!   is materialised in one frame and reloaded in the next — the reload,
//!   16 bytes at a time of what was stored field by field, was 6 % of a
//!   per-packet run.

use std::any::{Any, TypeId};
use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
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
    /// An id no event ever has (generation 0 is never issued), so every
    /// `cancel` refuses it.
    pub(crate) const NEVER: EventId = EventId(0);

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
// Payload storage.
// ---------------------------------------------------------------------------

/// Payload values at most this large (and at most 8-aligned) are stored
/// *inline in the arena slot*: a post of a tick, a frame hand-off, or any
/// other message up to the size of a frame event touches no allocator —
/// just a write into the slot it already owns. Larger payloads fall back
/// to a box.
const INLINE_BYTES: usize = 40;
const INLINE_ALIGN: usize = 8;

/// True if an event payload of type `T` is stored inline in its arena
/// slot. Per-packet message types assert this in a `const` next to their
/// definition, so a field added later cannot silently put every packet
/// back on the boxed path.
pub const fn fits_inline<T>() -> bool {
    size_of::<T>() <= INLINE_BYTES && align_of::<T>() <= INLINE_ALIGN
}

/// 8-aligned inline payload storage. Only the leading bytes of the value
/// it holds are initialized; `MaybeUninit` makes moving the rest sound.
#[repr(align(8))]
struct InlineBuf(MaybeUninit<[u8; INLINE_BYTES]>);

/// Per-type metadata of a stored payload: the `TypeId` that guards every
/// read, whether the buffer holds the value or a box of it, and the
/// in-place dropper of whichever it is. One `&'static` instance per
/// payload type and form (promoted from an inline `const`), so each
/// stored value carries a single pointer instead of 32 bytes of metadata.
struct PayloadMeta {
    tid: TypeId,
    boxed: bool,
    drop_fn: unsafe fn(*mut u8),
}

fn inline_meta<T: Any>() -> &'static PayloadMeta {
    const {
        &PayloadMeta {
            tid: TypeId::of::<T>(),
            boxed: false,
            drop_fn: drop_in_place_as::<T>,
        }
    }
}

fn boxed_meta<T: Any>() -> &'static PayloadMeta {
    const {
        &PayloadMeta {
            tid: TypeId::of::<T>(),
            boxed: true,
            drop_fn: drop_in_place_as::<Box<T>>,
        }
    }
}

/// An event payload at rest, in an arena slot or in a [`Payload`]: the
/// bytes plus the metadata of what they hold. 48 bytes; `Option<Stored>`
/// is no larger (the `meta` reference is the niche).
///
/// Invariants (upheld by [`Stored::write`]'s two callers, the only
/// constructors):
/// - with `meta == inline_meta::<T>()` the buffer holds a valid, owned
///   `T`; with `meta == boxed_meta::<T>()` a valid, owned `Box<T>`;
/// - ownership leaves exactly once — either `Payload::downcast` moves the
///   value out (suppressing `Drop` via `ManuallyDrop`), or `Drop` runs
///   `meta.drop_fn`, never both.
struct Stored {
    buf: InlineBuf,
    meta: &'static PayloadMeta,
    /// The bytes may be a value that is neither `Send` nor `Sync`, so
    /// what holds them must be neither.
    _erased: PhantomData<Box<dyn Any>>,
}

impl Stored {
    /// Moves `value` into a fresh buffer under `meta`.
    ///
    /// # Safety
    ///
    /// `U` must fit the buffer ([`fits_inline`]) and `meta` must be the
    /// record whose `drop_fn` drops a `U`: `inline_meta::<U>()`, or
    /// `boxed_meta::<T>()` for `U = Box<T>`.
    unsafe fn write<U>(value: U, meta: &'static PayloadMeta) -> Stored {
        let mut buf = InlineBuf(MaybeUninit::uninit());
        // SAFETY: `U` fits the buffer and its alignment divides the
        // buffer's (caller's contract); ownership of `value` moves into
        // the buffer, guarded from here on by `meta`.
        unsafe { buf.0.as_mut_ptr().cast::<U>().write(value) };
        Stored {
            buf,
            meta,
            _erased: PhantomData,
        }
    }

    fn as_ptr(&self) -> *const u8 {
        self.buf.0.as_ptr() as *const u8
    }

    fn as_mut_ptr(&mut self) -> *mut u8 {
        self.buf.0.as_mut_ptr() as *mut u8
    }
}

impl Drop for Stored {
    fn drop(&mut self) {
        // SAFETY: per the struct invariant the buffer still owns a valid
        // value of the type `meta.drop_fn` was monomorphized for.
        unsafe { (self.meta.drop_fn)(self.as_mut_ptr()) }
    }
}

unsafe fn drop_in_place_as<T>(p: *mut u8) {
    // SAFETY: caller (Stored::drop) guarantees `p` points at a valid,
    // owned `T`.
    unsafe { std::ptr::drop_in_place(p.cast::<T>()) }
}

/// Packs `value` for storage. The size/align test is a compile-time
/// constant per `T`, so each monomorphization keeps only one arm.
fn store_payload<T: Any>(value: T) -> Stored {
    if fits_inline::<T>() {
        INLINE_STORES.with(|c| c.set(c.get() + 1));
        // SAFETY: `T` fits (checked above) and `inline_meta::<T>()`
        // drops a `T`.
        unsafe { Stored::write(value, inline_meta::<T>()) }
    } else {
        store_boxed(new_box(value))
    }
}

/// Boxes a payload that will not travel inline, counting it.
fn new_box<T>(value: T) -> Box<T> {
    BOXED_STORES.with(|c| c.set(c.get() + 1));
    Box::new(value)
}

/// Packs an already-boxed value: the box rides in the slot, so a value
/// that was never taken (a cancelled or undelivered event) is dropped
/// when its event is, like an inline one.
fn store_boxed<T: Any>(b: Box<T>) -> Stored {
    const { assert!(fits_inline::<Box<T>>()) };
    // SAFETY: a `Box<T>` is one pointer (asserted to fit above) and
    // `boxed_meta::<T>()` drops a `Box<T>`.
    unsafe { Stored::write(b, boxed_meta::<T>()) }
}

thread_local! {
    /// Posts whose payload was stored inline (no allocation).
    static INLINE_STORES: Cell<u64> = const { Cell::new(0) };
    /// Posts whose payload was boxed: too large to inline, or bound for
    /// another shard.
    static BOXED_STORES: Cell<u64> = const { Cell::new(0) };
}

/// A payload boxed for cross-shard transport: a `Box<T>` with `T: Send`,
/// type-erased behind `Send` so it can cross the shard mailboxes of
/// [`crate::shard::ShardedEngine`], plus the function that names `T`
/// again on arrival. There it is stored as a plain boxed payload, so the
/// receiving component's [`Payload::downcast`] path is exactly the local
/// one.
pub(crate) struct RemotePayload {
    boxed: Box<dyn Any + Send>,
    store: fn(Box<dyn Any + Send>) -> Stored,
}

impl RemotePayload {
    /// Boxes `value` for transport.
    pub(crate) fn wrap<T: Any + Send>(value: T) -> Self {
        RemotePayload {
            boxed: new_box(value),
            store: |b| store_boxed::<T>(b.downcast().expect("remote payload boxed as its own type")),
        }
    }
}

/// Where this thread's posts have stored their payloads since process
/// start.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PayloadStoreStats {
    /// Posts stored inline in the arena slot: no allocation.
    pub inline: u64,
    /// Posts that allocated a box: too large to inline, or cross-shard.
    pub boxed: u64,
}

/// Payload storage counters for this thread since process start.
pub fn payload_store_stats() -> PayloadStoreStats {
    PayloadStoreStats {
        inline: INLINE_STORES.with(Cell::get),
        boxed: BOXED_STORES.with(Cell::get),
    }
}

/// An event payload in flight, as delivered to [`Component::handle`].
///
/// Consume it with [`Payload::downcast`], which returns the value (and
/// frees the box of one too large to travel inline); a failed downcast
/// hands the payload back so handlers can try the next message type.
/// Dropping an unconsumed payload drops its value.
///
/// A payload may hold a value that must stay on its thread, so it is
/// neither `Send` nor `Sync` whatever it holds:
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<sim::Payload>();
/// ```
///
/// ```compile_fail
/// fn assert_sync<T: Sync>() {}
/// assert_sync::<sim::Payload>();
/// ```
///
/// [`Component::handle`]: crate::Component::handle
pub struct Payload(Stored);

// What every handler receives by value, and what a pop copies out of the
// slot: the inline bytes and one pointer, no tag word.
const _: () = assert!(size_of::<Payload>() == 48);

impl Payload {
    /// True if the payload is a `T`.
    #[inline]
    pub fn is<T: Any>(&self) -> bool {
        self.0.meta.tid == TypeId::of::<T>()
    }

    /// Given `self.is::<T>()`: true if the buffer holds a `Box<T>`,
    /// false if it holds the `T` itself. A `T` too large for the buffer
    /// is never stored any other way than boxed; one that fits is boxed
    /// only when it crossed shards.
    #[inline]
    fn holds_box<T: Any>(&self) -> bool {
        !fits_inline::<T>() || self.0.meta.boxed
    }

    /// Consumes the payload as a `T`, or hands it back unchanged.
    #[inline]
    pub fn downcast<T: Any>(self) -> Result<T, Payload> {
        if !self.is::<T>() {
            return Err(self);
        }
        // Ownership of the stored value moves out below, so the in-place
        // drop must not run as well.
        let this = ManuallyDrop::new(self);
        let p = this.0.as_ptr();
        if this.holds_box::<T>() {
            // SAFETY: a matching `tid` on a boxed value is
            // `boxed_meta::<T>()`, so the buffer holds an owned
            // `Box<T>`; it is read out exactly once.
            Ok(*unsafe { p.cast::<Box<T>>().read() })
        } else {
            // SAFETY: a matching `tid` on an unboxed value is
            // `inline_meta::<T>()`, so the buffer holds an owned `T`; it
            // is read out exactly once.
            Ok(unsafe { p.cast::<T>().read() })
        }
    }

    /// Borrows the payload as a `T` without consuming it.
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        if !self.is::<T>() {
            return None;
        }
        let p = self.0.as_ptr();
        if self.holds_box::<T>() {
            // SAFETY: as in `downcast`, the buffer holds a `Box<T>`.
            Some(unsafe { &**p.cast::<Box<T>>() })
        } else {
            // SAFETY: as in `downcast`, the buffer holds a `T`.
            Some(unsafe { &*p.cast::<T>() })
        }
    }

    /// Mutably borrows the payload as a `T` without consuming it.
    pub fn downcast_mut<T: Any>(&mut self) -> Option<&mut T> {
        if !self.is::<T>() {
            return None;
        }
        let boxed = self.holds_box::<T>();
        let p = self.0.as_mut_ptr();
        if boxed {
            // SAFETY: as in `downcast`, the buffer holds a `Box<T>`.
            Some(unsafe { &mut **p.cast::<Box<T>>() })
        } else {
            // SAFETY: as in `downcast`, the buffer holds a `T`.
            Some(unsafe { &mut *p.cast::<T>() })
        }
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Payload({:?})", self.0.meta.tid)
    }
}

// ---------------------------------------------------------------------------
// Scheduler.
// ---------------------------------------------------------------------------

/// A queue entry: the ordering key plus a stamped pointer into the arena
/// (the event's id). `Copy` — sifts move these, never the payloads.
///
/// Three plain words, 24 bytes and no padding, read and written a word
/// at a time. (The key used to be one `u128`, whose 16-byte alignment
/// rounded the entry up to 32: every sift copied 8 bytes of padding, in
/// pieces that straddled the wide store which had just written the
/// entry, and the load stalled on it.) The strict `(time, seq)` order —
/// equal-timestamp events fire in schedule order — is still one 128-bit
/// integer comparison per sift step, assembled from the two halves by
/// [`HeapEntry::key`].
#[derive(Clone, Copy)]
struct HeapEntry {
    time: u64,
    seq: u64,
    id: EventId,
}

const _: () = assert!(size_of::<HeapEntry>() == 24);

impl HeapEntry {
    #[inline]
    fn key(&self) -> u128 {
        ((self.time as u128) << 64) | self.seq as u128
    }

    #[inline]
    fn slot(&self) -> usize {
        self.id.slot() as usize
    }
}

/// `Slot::pos` of a live event queued in the same-instant lane.
const IN_LANE: u32 = u32::MAX;

/// `Slot::pos` of the last slot on the free list, and the list's head
/// when it is empty.
const NO_SLOT: u32 = u32::MAX;

/// One arena slot. `payload: Some` ⇔ a live event occupies the slot with
/// the slot's current generation; freeing (fire or cancel) bumps the
/// generation so outstanding [`EventId`]s go stale. While live, `pos`
/// says where the slot's entry is queued — its index in the heap
/// (maintained by every sift) or [`IN_LANE`] — making cancellation an
/// indexed removal instead of a tombstone. While free, `pos` links the
/// slot to the next free one.
struct Slot {
    gen: u32,
    pos: u32,
    target: ComponentId,
    payload: Option<Stored>,
}

// The arena's per-event footprint: three stamps, the inline bytes and
// their type descriptor — one cache line. A reviewed number, not an
// accident of field order — widening it costs cache on every sift.
const _: () = assert!(size_of::<Slot>() == 64);

/// The next event to fire, as found by [`Scheduler::next_before`]: what
/// the dispatcher needs before it calls the handler, and where
/// [`Scheduler::take`] finds the rest.
pub(crate) struct Due {
    pub time: SimTime,
    pub target: ComponentId,
    /// The low 64 bits of the ordering key: the internal sequence
    /// number for [`Scheduler::push`], or the caller's explicit key for
    /// the keyed pushes. A linked engine stamps trace events with it
    /// so merged trace order is dispatch order.
    pub key: u64,
    slot: u32,
}

/// The pending-event store: a slot arena indexed by a 4-ary min-heap and
/// a same-instant lane.
///
/// Between them the two queues hold exactly the live events:
/// cancellation removes the entry eagerly via the slot's `pos`
/// back-pointer (one localized sift, or a scan of the lane), so pops
/// never wade through tombstones and cancel-heavy workloads don't
/// inflate the heap.
///
/// **The lane.** A host handing a frame to a LAN posts it for the instant
/// being dispatched (a third of all pushes on a LAN workload) — a heap's
/// worst case: such posts sift to the root
/// on push and cost a full sift on pop, to answer an ordering question
/// that is settled when they are posted. An unkeyed push for the lane's
/// instant (that of the last pop) appends to a FIFO instead. Every lane
/// entry has that one time and a sequence number above its predecessor's,
/// so the lane is sorted by construction; a pop takes the lane's front
/// or the heap's root, whichever key is smaller, which is therefore the
/// minimum of all. The instant moves on only at a heap pop that finds the
/// lane empty — and a later heap key can be the minimum only then.
pub(crate) struct Scheduler {
    heap: Vec<HeapEntry>,
    lane: VecDeque<HeapEntry>,
    /// The time every lane entry carries, and the one a push must carry
    /// to join them.
    lane_time: u64,
    slots: Vec<Slot>,
    /// Head of the free list threaded through `Slot::pos`, last freed
    /// first.
    free_head: u32,
    next_seq: u64,
}

impl Scheduler {
    pub fn new() -> Self {
        Scheduler {
            heap: Vec::new(),
            lane: VecDeque::new(),
            lane_time: 0,
            slots: Vec::new(),
            free_head: NO_SLOT,
            next_seq: 0,
        }
    }

    /// Schedules `value` for `target` at absolute `time`.
    pub fn push<T: Any>(&mut self, time: SimTime, target: ComponentId, value: T) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let time = time.as_nanos();
        let in_lane = time == self.lane_time;
        let id = self.store(target, if in_lane { IN_LANE } else { 0 }, value);
        if in_lane {
            self.lane.push_back(HeapEntry { time, seq, id });
        } else {
            self.heap_push(HeapEntry { time, seq, id });
        }
        id
    }

    /// Schedules `value` with an explicit equal-timestamp tie-break key
    /// instead of the internal sequence counter.
    ///
    /// A linked engine derives `key` from the *posting* component's
    /// id and per-poster sequence number, which makes the total
    /// event order — `(time, key)` ascending — a function of the
    /// simulated behavior alone, independent of how components are
    /// partitioned into shards. Callers must keep `(time, key)` unique
    /// per scheduler and must not mix keyed and unkeyed pushes on one
    /// scheduler (the internal counter knows nothing about caller keys).
    /// Keyed pushes always go to the heap: arrival order says nothing
    /// about their keys, so the lane's argument does not cover them.
    pub fn push_keyed<T: Any>(
        &mut self,
        time: SimTime,
        target: ComponentId,
        key: u64,
        value: T,
    ) -> EventId {
        let id = self.store(target, 0, value);
        self.heap_push(HeapEntry { time: time.as_nanos(), seq: key, id });
        id
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
        let (id, place) = self.claim_slot(target, 0);
        *place = Some((payload.store)(payload.boxed));
        self.heap_push(HeapEntry { time: time.as_nanos(), seq: key, id });
        id
    }

    /// Claims a slot queued at `pos` and packs `value` straight into it,
    /// here where its type is known: a `Stored` built in this frame and
    /// handed on would be written field by field and read back sixteen
    /// bytes at a time, which stalls the load.
    #[inline]
    fn store<T: Any>(&mut self, target: ComponentId, pos: u32, value: T) -> EventId {
        let (id, place) = self.claim_slot(target, pos);
        *place = Some(store_payload(value));
        id
    }

    /// Claims a slot for a new live event queued at `pos`: its id, and
    /// where its payload goes.
    #[inline]
    fn claim_slot(&mut self, target: ComponentId, pos: u32) -> (EventId, &mut Option<Stored>) {
        let s = match self.free_head {
            NO_SLOT => self.grow_arena(),
            s => s,
        };
        let sl = &mut self.slots[s as usize];
        debug_assert!(sl.payload.is_none(), "free-list slot occupied");
        self.free_head = sl.pos;
        sl.pos = pos;
        sl.target = target;
        (EventId::pack(s, sl.gen), &mut sl.payload)
    }

    /// Appends one free slot to the arena and returns its index.
    #[cold]
    fn grow_arena(&mut self) -> u32 {
        let s = u32::try_from(self.slots.len()).ok().filter(|&s| s != NO_SLOT);
        self.slots.push(Slot {
            gen: 1,
            pos: NO_SLOT,
            target: ComponentId(0),
            payload: None,
        });
        s.expect("slot arena full")
    }

    /// Ends the life of the event in `slot`: drops its payload if it is
    /// still there, stales its id and puts the slot on the free list.
    #[inline]
    fn release_slot(&mut self, slot: u32) {
        let sl = &mut self.slots[slot as usize];
        sl.payload = None;
        sl.gen = sl.gen.wrapping_add(1);
        if sl.gen == 0 {
            // Generation 0 marks "never valid" (fabricated ids); skip it.
            sl.gen = 1;
        }
        sl.pos = self.free_head;
        self.free_head = slot;
    }

    /// Frees the live slot `slot` and removes its queue entry.
    fn unlink(&mut self, slot: u32) {
        let pos = self.slots[slot as usize].pos;
        self.release_slot(slot);
        if pos == IN_LANE {
            // The lane holds one instant's posts that have not fired
            // yet: a short scan, on a path nothing hot takes.
            let i = self.lane.iter().position(|e| e.id.slot() == slot);
            self.lane.remove(i.expect("slot marked IN_LANE has a lane entry"));
        } else {
            debug_assert_eq!(self.heap[pos as usize].id.slot(), slot, "slot pos out of sync");
            self.remove_at(pos as usize);
        }
    }

    /// Cancels a pending event. Returns false if the id's event already
    /// fired, was already cancelled, or never existed — stale ids can
    /// never alias a reused slot thanks to the generation stamp.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.slots.get(id.slot() as usize) {
            Some(sl) if sl.gen == id.gen() => {
                debug_assert!(sl.payload.is_some(), "live generation without payload");
                self.unlink(id.slot());
                true
            }
            _ => false,
        }
    }

    /// Cancels every pending event addressed to `target`, returning how
    /// many were cancelled. Used by component removal so a dead slot
    /// never has live events pointed at it.
    ///
    /// O(slots) scan plus one localized removal per hit — removal is a
    /// cold administrative path, not a hot one.
    pub fn cancel_target(&mut self, target: ComponentId) -> u64 {
        let mut cancelled = 0;
        for i in 0..self.slots.len() {
            let sl = &self.slots[i];
            if sl.payload.is_some() && sl.target == target {
                self.unlink(i as u32);
                cancelled += 1;
            }
        }
        cancelled
    }

    /// Finds the next event, if it fires at or before `limit`, without
    /// removing it: the lane's front or the heap's root, whichever key
    /// is smaller.
    #[inline]
    pub fn next_before(&self, limit: SimTime) -> Option<Due> {
        let e = match (self.lane.front(), self.heap.first()) {
            (Some(l), Some(h)) if h.key() < l.key() => h,
            (Some(l), _) => l,
            (None, Some(h)) => h,
            (None, None) => return None,
        };
        if e.time > limit.as_nanos() {
            return None;
        }
        let sl = &self.slots[e.slot()];
        debug_assert_eq!(sl.gen, e.id.gen(), "queue entry stale despite eager removal");
        Some(Due {
            time: SimTime::from_nanos(e.time),
            target: sl.target,
            key: e.seq,
            slot: e.id.slot(),
        })
    }

    /// Pops the event [`Scheduler::next_before`] just found (nothing may
    /// have touched the scheduler in between) and returns its payload.
    /// Find-then-take instead of one pop returning both, so that the
    /// payload — this function's whole return value, which the caller
    /// hands on as it is — is copied once, from its slot into the argument
    /// the handler receives, instead of through a field of a struct in
    /// one frame that the next reloads.
    #[inline]
    pub fn take(&mut self, due: &Due) -> Payload {
        if self.slots[due.slot as usize].pos == IN_LANE {
            let front = self.lane.pop_front();
            debug_assert_eq!(front.map(|e| e.id.slot()), Some(due.slot), "stale Due");
        } else {
            debug_assert_eq!(self.heap[0].id.slot(), due.slot, "stale Due");
            self.remove_at(0);
            if self.lane.is_empty() {
                self.lane_time = due.time.as_nanos();
            }
        }
        // The payload leaves its slot last, with nothing that can unwind
        // between here and the handler call: a copy that must survive a
        // call is one the optimizer keeps in a frame of its own.
        let payload = self.slots[due.slot as usize].payload.take();
        self.release_slot(due.slot);
        Payload(payload.expect("live generation without payload"))
    }

    /// Returns the firing time of the next event without popping it.
    /// (The engines pop via [`Scheduler::next_before`]; peeking remains
    /// for tests and the property-test reference model.)
    #[cfg(test)]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.next_before(SimTime::MAX).map(|due| due.time)
    }

    /// Number of live events still queued (exact: neither queue holds a
    /// tombstone, so their lengths are the live count).
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len()
    }

    // 4-ary heap primitives, ordered by `(time, seq)` ascending. Every
    // entry move also updates the owning slot's `pos`. The entry being
    // placed travels by value: reloading one that was just stored is the
    // kind of load that waits for the store.

    /// Writes `e` at heap index `i`.
    #[inline]
    fn place(&mut self, i: usize, e: HeapEntry) {
        self.heap[i] = e;
        self.slots[e.slot()].pos = i as u32;
    }

    /// Adds `e` to the heap: the new tail is a hole (any entry will do;
    /// handing `e` itself to `Vec::push` spills it for the capacity
    /// check and reloads it wider than it was spilled) that `sift_up`
    /// fills, or moves up and fills, once it knows where `e` belongs.
    #[inline]
    fn heap_push(&mut self, e: HeapEntry) {
        let i = self.heap.len();
        self.heap.push(HeapEntry { time: 0, seq: 0, id: EventId(0) });
        self.sift_up(i, e);
    }

    /// Places `e` at the hole `i`, moving it up past every ancestor with
    /// a greater key. Always inlined: a 24-byte argument is passed in
    /// memory, which is the store-then-wider-load this file avoids.
    #[inline(always)]
    fn sift_up(&mut self, mut i: usize, e: HeapEntry) {
        while i > 0 {
            let parent = (i - 1) / 4;
            let p = self.heap[parent];
            if p.key() <= e.key() {
                break;
            }
            self.place(i, p);
            i = parent;
        }
        self.place(i, e);
    }

    /// Removes the entry at heap index `i`, restoring the heap invariant
    /// by moving the tail entry into the hole and sifting it whichever
    /// way it violates order.
    fn remove_at(&mut self, i: usize) {
        let last = self.heap.pop().expect("remove_at on empty heap");
        if i == self.heap.len() {
            return; // removed the tail entry itself
        }
        if i > 0 && last.key() < self.heap[(i - 1) / 4].key() {
            self.sift_up(i, last);
        } else {
            self.sift_down(i, last);
        }
    }

    /// Places `e` at the hole `i`, bottom-up: percolate the min-child
    /// chain up into the hole all the way to a leaf, then bubble `e` back
    /// up from there. The entry being sifted is almost always a
    /// recently-pushed tail (far-future) element that belongs near the
    /// leaves, so this saves the entry-vs-min-child comparison every
    /// level that the classical top-down sift pays.
    #[inline]
    fn sift_down(&mut self, mut i: usize, e: HeapEntry) {
        let n = self.heap.len();
        loop {
            let first = 4 * i + 1;
            if first >= n {
                break;
            }
            // One bounds check per level: scan the child block as a slice.
            let mut min = first;
            let mut min_key = self.heap[first].key();
            for (j, c) in self.heap[first..(first + 4).min(n)].iter().enumerate().skip(1) {
                if c.key() < min_key {
                    min = first + j;
                    min_key = c.key();
                }
            }
            self.place(i, self.heap[min]);
            i = min;
        }
        // `i` is now a leaf hole; walk `e` back up to its place (usually
        // zero or one step for far-future entries).
        self.sift_up(i, e);
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

    /// A popped event: both halves of the engine's find-then-take.
    struct Fired {
        time: SimTime,
        target: ComponentId,
        key: u64,
        payload: Payload,
    }

    impl Scheduler {
        fn pop(&mut self) -> Option<Fired> {
            let due = self.next_before(SimTime::MAX)?;
            let payload = self.take(&due);
            Some(Fired {
                time: due.time,
                target: due.target,
                key: due.key,
                payload,
            })
        }
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

    /// Posts one `T` and reports `(inline, boxed)` posts it caused.
    fn storage_of<T: Any>(value: T) -> (u64, u64) {
        let mut s = Scheduler::new();
        let before = payload_store_stats();
        s.push(t(1), ComponentId(0), value);
        let after = payload_store_stats();
        assert!(s.pop().unwrap().payload.is::<T>());
        (after.inline - before.inline, after.boxed - before.boxed)
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
        let before = payload_store_stats();
        let id = s.push(t(1), ComponentId(0), frame_like(&probe));
        let kept = s.push(t(2), ComponentId(1), frame_like(&probe));
        assert_eq!(payload_store_stats().inline, before.inline + 2);
        assert_eq!(Arc::strong_count(&probe), 3);
        assert!(s.cancel(id));
        assert_eq!(Arc::strong_count(&probe), 2, "cancel drops the value, not the next reuse");
        assert_eq!(s.cancel_target(ComponentId(1)), 1);
        assert_eq!(Arc::strong_count(&probe), 1);
        assert!(!s.cancel(kept));
    }

    #[test]
    fn boxed_payload_owning_an_arc_drops_exactly_once_and_at_once() {
        #[allow(dead_code)]
        struct Wide([u64; 6], Arc<u32>);
        assert!(!fits_inline::<Wide>());
        let probe = Arc::new(7u32);
        let wide = || Wide([0; 6], probe.clone());
        let mut s = Scheduler::new();
        // Consumed, handed back unconsumed, cancelled, never delivered.
        s.push(t(1), ComponentId(0), wide());
        let mut p = s.pop().unwrap().payload;
        assert!(p.is::<Wide>() && !p.is::<Arc<u32>>());
        assert!(p.downcast_ref::<u32>().is_none() && p.downcast_mut::<Wide>().is_some());
        assert_eq!(Arc::strong_count(&probe), 2);
        drop(p.downcast::<Wide>().ok().unwrap());
        assert_eq!(Arc::strong_count(&probe), 1);
        s.push(t(2), ComponentId(0), wide());
        drop(s.pop().unwrap().payload.downcast::<u32>().unwrap_err());
        assert_eq!(Arc::strong_count(&probe), 1, "dropped with the payload");
        let id = s.push(t(3), ComponentId(0), wide());
        assert!(s.cancel(id));
        assert_eq!(Arc::strong_count(&probe), 1, "dropped with the event");
        s.push(t(4), ComponentId(0), wide());
        drop(s);
        assert_eq!(Arc::strong_count(&probe), 1);
    }

    #[test]
    fn small_remote_payload_arrives_boxed_and_reads_as_itself() {
        // A value that would be inline locally crosses shards in a box;
        // every accessor must look at the form, not only the type.
        let mut s = Scheduler::new();
        s.push_remote(t(1), ComponentId(0), 1, RemotePayload::wrap(41u32));
        s.push_remote(t(2), ComponentId(0), 2, RemotePayload::wrap(5u32));
        let mut p = s.pop().unwrap().payload;
        assert!(p.is::<u32>());
        *p.downcast_mut::<u32>().unwrap() += 1;
        assert_eq!(p.downcast_ref::<u32>(), Some(&42));
        assert_eq!(p.downcast::<u64>().unwrap_err().downcast::<u32>().unwrap(), 42);
        assert_eq!(pop_value::<u32>(&mut s), Some(5));
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
        queue: BTreeMap<(u64, u64), (u64, u32, u64)>, // (time, seq) -> (model id, target, value)
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

        fn push(&mut self, time: u64, target: u32, value: u64) -> u64 {
            let id = self.next_id;
            self.next_id += 1;
            self.queue.insert((time, self.next_seq), (id, target, value));
            self.next_seq += 1;
            id
        }

        fn cancel(&mut self, id: u64) -> bool {
            let before = self.queue.len();
            self.queue.retain(|_, &mut (mid, _, _)| mid != id);
            self.queue.len() < before
        }

        fn cancel_target(&mut self, target: u32) -> u64 {
            let before = self.queue.len();
            self.queue.retain(|_, &mut (_, t, _)| t != target);
            (before - self.queue.len()) as u64
        }

        fn pop(&mut self) -> Option<(u64, u32, u64)> {
            let ((time, _), (_, target, value)) = self.queue.pop_first()?;
            Some((time, target, value))
        }

        fn peek_time(&self) -> Option<u64> {
            self.queue.keys().next().map(|&(t, _)| t)
        }
    }

    fn pop_real(s: &mut Scheduler) -> Option<(u64, u32, u64)> {
        let f = s.pop()?;
        Some((f.time.as_nanos(), f.target.0, f.payload.downcast::<u64>().unwrap()))
    }

    /// Seeded randomized schedule/cancel/peek/pop sequences: the arena
    /// scheduler must be observably identical to the reference model —
    /// same pop order and values (equal-timestamp FIFO), same peek/pop
    /// agreement, same cancel outcomes (including stale and reused ids),
    /// same exact length — with a third of the pushes landing on the
    /// instant being dispatched, as on a LAN's per-packet path, so the lane
    /// and the heap are merged on nearly every pop.
    #[test]
    fn randomized_sequences_match_reference_model() {
        // What the sequences reached, over all seeds: cancels of a lane
        // entry at the lane's front, behind it, and of ids that already
        // fired; pops that took the heap's root past a waiting lane.
        let (mut front, mut behind, mut fired, mut heap_first) = (0, 0, 0, 0);
        for seed in 0..48u64 {
            let mut rng = SimRng::for_component(0xe7e17, seed as u32);
            let mut real = Scheduler::new();
            let mut model = ModelScheduler::new();
            // Ids from both sides, aligned by issue order; includes ids
            // whose events have long since fired or been cancelled, so
            // cancel constantly probes stale generations.
            let mut ids: Vec<(EventId, u64)> = Vec::new();
            let mut now = 0u64; // time of the last pop: the current instant
            for _ in 0..600 {
                match rng.range_u64(0, 20) {
                    // Weighted: push > pop > cancel > cancel_target.
                    0..=8 => {
                        let time = match rng.range_u64(0, 3) {
                            0 => now,
                            _ => now + rng.range_u64(0, 50),
                        };
                        let target = rng.range_u64(0, 4) as u32;
                        let value = rng.range_u64(0, u64::MAX);
                        let rid = real.push(t(time), ComponentId(target), value);
                        ids.push((rid, model.push(time, target, value)));
                    }
                    9..=14 => {
                        let lane_before = real.lane.len();
                        let got = pop_real(&mut real);
                        assert_eq!(got, model.pop(), "seed {seed}: pop mismatch");
                        if let Some((time, ..)) = got {
                            heap_first += (lane_before > 0 && real.lane.len() == lane_before) as u32;
                            now = time;
                        }
                    }
                    15..=18 if !ids.is_empty() => {
                        // Half the picks among the newest ids, which are
                        // the ones still waiting in the lane.
                        let newest = ids.len().saturating_sub(4) as u64;
                        let from = if rng.chance(0.5) { newest } else { 0 };
                        let (rid, mid) = ids[rng.range_u64(from, ids.len() as u64) as usize];
                        let sl = &real.slots[rid.slot() as usize];
                        if sl.gen == rid.gen() && sl.pos == IN_LANE {
                            let at_front = real.lane.front().map(|e| e.id) == Some(rid);
                            front += at_front as u32;
                            behind += !at_front as u32;
                        }
                        let hit = real.cancel(rid);
                        assert_eq!(hit, model.cancel(mid), "seed {seed}: cancel outcome mismatch");
                        fired += !hit as u32;
                    }
                    19 => {
                        let target = rng.range_u64(0, 4) as u32;
                        assert_eq!(
                            real.cancel_target(ComponentId(target)),
                            model.cancel_target(target),
                            "seed {seed}: cancel_target count mismatch"
                        );
                    }
                    _ => {}
                }
                assert_eq!(
                    real.peek_time().map(|t| t.as_nanos()),
                    model.peek_time(),
                    "seed {seed}: peek mismatch"
                );
                assert_eq!(real.len(), model.queue.len(), "seed {seed}: len mismatch");
            }
            // Drain: remaining order must match exactly.
            loop {
                let got = pop_real(&mut real);
                assert_eq!(got, model.pop(), "seed {seed}: drain mismatch");
                if got.is_none() {
                    break;
                }
            }
            assert_eq!(real.len(), 0);
        }
        assert!(
            front > 20 && behind > 20 && fired > 100 && heap_first > 20,
            "sequences must reach the lane: {front} front / {behind} behind / {fired} stale cancels, \
             {heap_first} heap pops past a waiting lane"
        );
    }

    /// Pops one event at `at` so that `at` is the instant being
    /// dispatched — the state every handler posts from.
    fn at_instant(at: u64) -> Scheduler {
        let mut s = Scheduler::new();
        s.push(t(at), ComponentId(9), 0u32);
        assert_eq!(pop_value::<u32>(&mut s), Some(0));
        s
    }

    #[test]
    fn same_instant_posts_fire_after_earlier_posts_for_that_instant() {
        // B was posted for t=7 before the instant began, X and Y during
        // it: schedule order is B, X, Y, and a later event comes last.
        let mut s = Scheduler::new();
        s.push(t(7), ComponentId(0), 'a');
        s.push(t(7), ComponentId(0), 'b');
        s.push(t(8), ComponentId(0), 'z');
        assert_eq!(pop_value::<char>(&mut s), Some('a'));
        s.push(t(7), ComponentId(0), 'x');
        s.push(t(7), ComponentId(0), 'y');
        assert_eq!((s.lane.len(), s.heap.len(), s.len()), (2, 2, 4));
        let order: Vec<char> = std::iter::from_fn(|| pop_value(&mut s)).collect();
        assert_eq!(order, vec!['b', 'x', 'y', 'z']);
    }

    #[test]
    fn cancel_target_reaches_lane_entries() {
        let mut s = at_instant(5);
        s.push(t(5), ComponentId(0), 10u64);
        let kept = s.push(t(5), ComponentId(1), 20u64);
        s.push(t(5), ComponentId(0), 30u64);
        s.push(t(9), ComponentId(0), 40u64);
        s.push(t(5), ComponentId(1), 50u64);
        assert_eq!((s.lane.len(), s.heap.len()), (4, 1));
        assert_eq!(s.cancel_target(ComponentId(0)), 3, "two in the lane, one in the heap");
        assert_eq!(s.len(), 2);
        assert_eq!(s.cancel_target(ComponentId(0)), 0);
        assert_eq!(s.peek_time(), Some(t(5)));
        assert_eq!(pop_value::<u64>(&mut s), Some(20));
        assert!(!s.cancel(kept), "popped event's id is stale");
        assert_eq!(pop_value::<u64>(&mut s), Some(50));
        assert!(s.pop().is_none());
    }

    #[test]
    fn keyed_pushes_at_the_current_instant_order_by_key_not_arrival() {
        // The sharded engine's schedulers: keys say nothing about arrival
        // order, so a keyed push must never take the FIFO lane.
        let mut s = Scheduler::new();
        s.push_keyed(t(3), ComponentId(0), 50, 50u64);
        assert_eq!(pop_value::<u64>(&mut s), Some(50));
        for k in [9u64, 2, 7, 4] {
            s.push_keyed(t(3), ComponentId(0), k, k);
        }
        s.push_remote(t(3), ComponentId(0), 5, RemotePayload::wrap(5u64));
        assert!(s.lane.is_empty());
        let order: Vec<u64> = std::iter::from_fn(|| pop_value(&mut s)).collect();
        assert_eq!(order, vec![2, 4, 5, 7, 9]);
    }

    #[test]
    fn cancelled_lane_entry_leaves_nothing_behind_for_its_slot_s_next_event() {
        // The lane keeps no tombstone: a cancelled entry is gone at once,
        // so when its slot is handed to the next event there is no stale
        // entry that could fire it early, twice, or under the old id.
        let mut s = at_instant(4);
        let x = s.push(t(4), ComponentId(0), 1u32);
        let w = s.push(t(4), ComponentId(0), 2u32);
        assert!(s.cancel(x));
        assert_eq!((s.lane.len(), s.len()), (1, 1));
        let y = s.push(t(6), ComponentId(0), 3u32);
        assert_eq!(y.slot(), x.slot(), "the freed slot is reused");
        assert_ne!(y, x);
        assert!(!s.cancel(x), "the old id is stale");
        let z = s.push(t(4), ComponentId(0), 4u32);
        assert_eq!(s.len(), 3);
        assert_eq!(pop_value::<u32>(&mut s), Some(2));
        assert!(!s.cancel(w), "fired");
        assert_eq!(pop_value::<u32>(&mut s), Some(4));
        assert!(!s.cancel(z));
        assert_eq!(s.peek_time(), Some(t(6)));
        assert!(s.cancel(y));
        assert_eq!(s.len(), 0);
        assert!(s.pop().is_none());
    }

    #[test]
    fn pushes_for_the_current_instant_before_any_pop_and_after_the_clock_moved_on() {
        // Before any pop the instant is zero: posts for it are in order
        // among themselves and ahead of everything later.
        let mut s = Scheduler::new();
        s.push(t(5), ComponentId(0), 50u32);
        s.push(t(0), ComponentId(0), 1u32);
        s.push(t(0), ComponentId(0), 2u32);
        assert_eq!(s.peek_time(), Some(t(0)));
        assert_eq!(pop_value::<u32>(&mut s), Some(1));
        assert_eq!(pop_value::<u32>(&mut s), Some(2));
        assert_eq!(pop_value::<u32>(&mut s), Some(50));
        // `run_until` then moves the engine's clock past the last event
        // (to 100, say) without the scheduler hearing of it: posts "now"
        // are posts for an instant the scheduler has not reached.
        s.push(t(100), ComponentId(0), 3u32);
        s.push(t(120), ComponentId(0), 5u32);
        s.push(t(100), ComponentId(0), 4u32);
        assert!(s.lane.is_empty());
        assert_eq!(pop_value::<u32>(&mut s), Some(3));
        s.push(t(100), ComponentId(0), 6u32);
        let order: Vec<u32> = std::iter::from_fn(|| pop_value(&mut s)).collect();
        assert_eq!(order, vec![4, 6, 5]);
    }

    #[test]
    fn a_push_into_the_past_while_the_lane_waits_still_pops_in_key_order() {
        // The engine never posts into the past, the scheduler need not
        // trust that: the lane's instant stays put while it has entries.
        let mut s = at_instant(10);
        s.push(t(10), ComponentId(0), 3u32);
        s.push(t(2), ComponentId(0), 1u32);
        assert_eq!(pop_value::<u32>(&mut s), Some(1));
        s.push(t(2), ComponentId(0), 2u32);
        s.push(t(10), ComponentId(0), 4u32);
        let order: Vec<u32> = std::iter::from_fn(|| pop_value(&mut s)).collect();
        assert_eq!(order, vec![2, 3, 4]);
    }
}
