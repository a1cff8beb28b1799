//! The sharded deterministic engine: shard-local event queues advanced
//! in lookahead windows, with cross-shard messages batched through
//! mailboxes — multi-core parallelism that cannot perturb seeded runs.
//!
//! # Model
//!
//! A [`ShardedEngine`] partitions its components into `S` shards. Each
//! shard owns a private slot-arena `Scheduler`, dense component and
//! RNG tables indexed by *shard-local* id, and its own [`Telemetry`]
//! registry. Simulated time advances in **windows** of the engine's
//! `lookahead` `L` (SimBricks-style conservative synchronization): every
//! shard independently runs all of its events with `time < window_end`,
//! then shards exchange the cross-shard messages they produced, then the
//! next window starts. A message to another shard must be posted with
//! `delay >= L` (in the intended topologies, `L` is the minimum
//! cross-shard link latency, so this is a physical fact, not a tax);
//! therefore a message sent during window `k` always fires in window
//! `k+1` or later, and the exchange point sees every message the
//! receiving window could need. Within the contract the window barrier
//! is invisible: shards never run ahead of what their inputs allow.
//!
//! # Determinism across shard counts
//!
//! Every event carries an explicit 64-bit ordering key
//! `(poster_global_id << 32) | poster_seq` (the driver posts under a
//! reserved id), and shard queues order by `(time, key)` — a total order
//! over all events of the run that depends only on which component
//! posted what and when, never on shard layout or on the order mailbox
//! batches drain into the heap. Per-component RNG streams are derived
//! from the *global* component id, and per-shard telemetry registries
//! merge through [`Telemetry::merge_shards`], which restores global
//! dispatch order from `(time, key)` stamps. Consequently a run with 1
//! shard, N shards, or N shards on real threads exports byte-identical
//! telemetry — the property the cross-shard determinism suite pins.
//!
//! # Parallel mode
//!
//! [`ShardedEngine::set_parallel`] runs each shard's window on its own
//! scoped thread with two barriers per window (run+flush, then drain).
//! Components must be `Send` ([`ShardComponent`] requires it), which
//! statically prevents them from smuggling an `Rc`-based handle across
//! shards; payloads cross shard boundaries as `Send` boxes. Sequential
//! and parallel modes produce identical bytes; per-window per-shard busy
//! time is tracked either way, and the accumulated per-window maximum
//! (the critical path) is the denominator for aggregate-throughput
//! reporting on machines with fewer cores than shards.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use crate::event::{ComponentId, EventId, Payload, RemotePayload, Scheduler};
use crate::rng::SimRng;
use crate::telemetry::Telemetry;
use crate::time::{SimDuration, SimTime};

/// A simulated entity dispatched by a [`ShardedEngine`].
///
/// Like [`Component`](crate::Component), but `Send`: shards migrate to
/// worker threads in parallel mode, so components must not hold
/// thread-bound state (the bound also statically keeps `Rc`-based
/// telemetry handles from being stashed inside a component and carried
/// across shards — register ids, which are `Copy`, instead).
pub trait ShardComponent: Any + Send {
    /// Handles one event addressed to this component.
    fn handle(&mut self, ctx: &mut ShardCtx<'_>, payload: Payload);

    /// Upcast for engine-side downcasting; implement as `self`.
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast; implement as `self`.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Where a global component id lives: `(shard, dense local index)`.
#[derive(Clone, Copy)]
struct CompLoc {
    shard: u32,
    local: u32,
}

/// A cross-shard message in flight between windows.
struct RemoteMsg {
    time: SimTime,
    /// Global id of the target (resolved to a local id at drain).
    target: ComponentId,
    key: u64,
    payload: RemotePayload,
}

/// Everything a shard owns except its component table, so dispatch can
/// take the component out of its slot and hand the rest to [`ShardCtx`]
/// as one disjoint borrow (mirrors the unsharded engine's split).
struct ShardInner {
    idx: u32,
    seed: u64,
    now: SimTime,
    sched: Scheduler,
    /// Local index → global component id.
    globals: Vec<u32>,
    /// Per-local-component RNG streams, derived from the *global* id so
    /// draws are identical under any shard layout.
    rngs: Vec<Option<SimRng>>,
    /// Per-local-component post counters: the low half of ordering keys.
    post_seq: Vec<u32>,
    telemetry: Telemetry,
    /// Outgoing cross-shard messages, bucketed by destination shard and
    /// appended to the destination mailbox at the window flush.
    outbox: Vec<Vec<RemoteMsg>>,
    dispatched: u64,
    dropped: u64,
    /// Wall-clock nanoseconds this shard spent running windows.
    busy_ns: u64,
}

impl ShardInner {
    fn rng(&mut self, local: u32) -> &mut SimRng {
        let seed = self.seed;
        let gid = self.globals[local as usize];
        self.rngs[local as usize].get_or_insert_with(|| SimRng::for_component(seed, gid))
    }

    /// Mints the next ordering key for a post by `local`.
    fn next_key(&mut self, local: u32) -> u64 {
        let gid = self.globals[local as usize];
        let seq = self.post_seq[local as usize];
        self.post_seq[local as usize] += 1;
        ((gid as u64) << 32) | seq as u64
    }
}

/// One shard: its component table plus everything else ([`ShardInner`]).
struct Shard {
    comps: Vec<Option<Box<dyn ShardComponent>>>,
    inner: ShardInner,
}

// SAFETY: a `Shard` is only moved between threads at window barriers of
// `ShardedEngine::run_until`, never aliased across them. The one non-Send
// field is the shard's `Telemetry` (an `Rc` registry): every clone of
// that `Rc` is reachable only from the shard itself — components are
// `Send` (so the type system forbids them from holding a `Telemetry`,
// which is !Send, or any erased container thereof, which would also be
// !Send), `ShardCtx` hands out only a short-lived `&Telemetry`, and the
// engine reads shard registries (`merged_telemetry`) only after the
// scoped threads have joined. Scheduler payloads are `Send` too: both
// `ShardCtx` post methods and the cross-shard path bound `T: Send`.
unsafe impl Send for Shard {}

impl Shard {
    fn new(idx: u32, shards: u32, seed: u64) -> Shard {
        Shard {
            comps: Vec::new(),
            inner: ShardInner {
                idx,
                seed,
                now: SimTime::ZERO,
                sched: Scheduler::new(),
                globals: Vec::new(),
                rngs: Vec::new(),
                post_seq: Vec::new(),
                telemetry: Telemetry::new(),
                outbox: (0..shards).map(|_| Vec::new()).collect(),
                dispatched: 0,
                dropped: 0,
                busy_ns: 0,
            },
        }
    }

    /// Runs every local event with `time < end`, then advances the shard
    /// clock to `end`.
    fn run_window(&mut self, end: SimTime, locs: &[CompLoc], lookahead: SimDuration) {
        // `next_before` is inclusive; windows are half-open `[start, end)`.
        let limit = SimTime::from_nanos(end.as_nanos() - 1);
        while let Some(ev) = self.inner.sched.next_before(limit) {
            let payload = self.inner.sched.take(&ev);
            debug_assert!(ev.time >= self.inner.now, "time went backwards in shard");
            self.inner.now = ev.time;
            let slot = &mut self.comps[ev.target.0 as usize];
            let Some(mut comp) = slot.take() else {
                self.inner.dropped += 1;
                continue;
            };
            // Stamp trace emissions with the dispatch key so merged
            // rings can restore global record order.
            self.inner.telemetry.set_trace_order(ev.key);
            let mut ctx = ShardCtx {
                self_local: ev.target.0,
                inner: &mut self.inner,
                locs,
                lookahead,
            };
            comp.handle(&mut ctx, payload);
            self.comps[ev.target.0 as usize] = Some(comp);
            self.inner.dispatched += 1;
        }
        self.inner.now = end;
    }

    /// Appends this window's outgoing messages to the destination
    /// mailboxes (uncontended in sequential mode; one lock per
    /// destination shard per window in parallel mode).
    fn flush_outbox(&mut self, mailboxes: &[Mutex<Vec<RemoteMsg>>]) {
        for (dest, buf) in self.inner.outbox.iter_mut().enumerate() {
            if !buf.is_empty() {
                mailboxes[dest].lock().expect("mailbox poisoned").append(buf);
            }
        }
    }

    /// Moves the messages other shards sent this shard into the local
    /// queue. Heap insertion order varies with thread timing in parallel
    /// mode, but pop order is governed purely by `(time, key)`, so the
    /// variation is unobservable.
    fn drain_mailbox(&mut self, mailbox: &Mutex<Vec<RemoteMsg>>, locs: &[CompLoc]) {
        let msgs = std::mem::take(&mut *mailbox.lock().expect("mailbox poisoned"));
        for m in msgs {
            let local = locs[m.target.0 as usize].local;
            self.inner
                .sched
                .push_remote(m.time, ComponentId(local), m.key, m.payload);
        }
    }
}

/// The dispatch context handed to [`ShardComponent::handle`].
///
/// Deliberately smaller than [`Ctx`](crate::Ctx): no mid-run component
/// registration, no buggify, and no way to observe the shard layout —
/// a component that behaved differently depending on which shard it
/// landed on would break shard-count invariance, so the API only
/// exposes global ids and simulated facts.
pub struct ShardCtx<'a> {
    self_local: u32,
    inner: &'a mut ShardInner,
    locs: &'a [CompLoc],
    lookahead: SimDuration,
}

impl ShardCtx<'_> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.inner.now
    }

    /// The *global* id of the component currently handling an event.
    pub fn self_id(&self) -> ComponentId {
        ComponentId(self.inner.globals[self.self_local as usize])
    }

    /// The current component's random stream (identical under any shard
    /// layout: derived from the global id).
    pub fn rng(&mut self) -> &mut SimRng {
        self.inner.rng(self.self_local)
    }

    /// This shard's telemetry registry. Register ids (they are `Copy`)
    /// and record through them; the engine merges shard registries into
    /// one deterministic view at export.
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner.telemetry
    }

    /// Schedules `payload` on `target` (a global id) after `delay`.
    ///
    /// # Panics
    ///
    /// Panics if `target` lives on another shard and `delay` is below
    /// the engine lookahead — such a message could arrive inside the
    /// current window, which the window protocol cannot deliver. Keep
    /// cross-shard latencies at or above the lookahead (the topology
    /// planner derives the lookahead as exactly their minimum).
    pub fn post<T: Any + Send>(&mut self, target: ComponentId, delay: SimDuration, payload: T) {
        let time = self.inner.now + delay;
        let key = self.inner.next_key(self.self_local);
        let loc = self.locs[target.0 as usize];
        if loc.shard == self.inner.idx {
            self.inner
                .sched
                .push_keyed(time, ComponentId(loc.local), key, payload);
        } else {
            assert!(
                delay >= self.lookahead,
                "cross-shard post below lookahead: delay {delay:?} < {:?} \
                 (from {:?} to {target:?})",
                self.lookahead,
                ComponentId(self.inner.globals[self.self_local as usize]),
            );
            self.inner.outbox[loc.shard as usize].push(RemoteMsg {
                time,
                target,
                key,
                payload: RemotePayload::wrap(payload),
            });
        }
    }

    /// Schedules `payload` on the current component after `delay`,
    /// returning an id usable with [`ShardCtx::cancel`] (self-posts are
    /// always shard-local, so they are the one cancellable kind).
    pub fn post_self<T: Any + Send>(&mut self, delay: SimDuration, payload: T) -> EventId {
        let time = self.inner.now + delay;
        let key = self.inner.next_key(self.self_local);
        self.inner
            .sched
            .push_keyed(time, ComponentId(self.self_local), key, payload)
    }

    /// Cancels a pending self-post. Returns false if it already fired or
    /// was already cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.inner.sched.cancel(id)
    }
}

/// Reserved poster id for driver posts ([`ShardedEngine::post`]);
/// component ids stay strictly below it.
const DRIVER_GID: u32 = u32::MAX;

/// The sharded simulation engine. See the [module docs](self).
pub struct ShardedEngine {
    shards: Vec<Shard>,
    mailboxes: Vec<Mutex<Vec<RemoteMsg>>>,
    locs: Vec<CompLoc>,
    now: SimTime,
    lookahead: SimDuration,
    parallel: bool,
    driver_seq: u32,
    critpath_ns: u64,
    windows: u64,
}

impl ShardedEngine {
    /// Creates an engine with `shards` shards under one global seed.
    ///
    /// `lookahead` is the window length: the minimum latency any
    /// cross-shard message must have. Must be positive (use the minimum
    /// cross-shard link latency of the topology; with a single shard the
    /// value only sets the window stride).
    pub fn new(seed: u64, shards: u32, lookahead: SimDuration) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(
            lookahead > SimDuration::ZERO,
            "lookahead must be positive (windows would not advance)"
        );
        ShardedEngine {
            shards: (0..shards).map(|i| Shard::new(i, shards, seed)).collect(),
            mailboxes: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
            locs: Vec::new(),
            now: SimTime::ZERO,
            lookahead,
            parallel: false,
            driver_seq: 0,
            critpath_ns: 0,
            windows: 0,
        }
    }

    /// Switches between sequential (default) and threaded window
    /// execution. Produces identical bytes either way; flip freely.
    pub fn set_parallel(&mut self, parallel: bool) {
        self.parallel = parallel;
    }

    /// Number of shards.
    pub fn shard_count(&self) -> u32 {
        self.shards.len() as u32
    }

    /// The engine's lookahead (window length).
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// Current simulation time (the start of the next window).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Registers a component on `shard`, returning its global id.
    ///
    /// Global ids are assigned in registration order; for shard-count
    /// invariance, drivers must register the same components in the same
    /// order under every layout and vary only the `shard` argument.
    pub fn add_component_on(&mut self, shard: u32, c: Box<dyn ShardComponent>) -> ComponentId {
        let gid = u32::try_from(self.locs.len()).expect("component table full");
        assert!(gid < DRIVER_GID, "component id space exhausted");
        let sh = &mut self.shards[shard as usize];
        let local = sh.comps.len() as u32;
        sh.comps.push(Some(c));
        sh.inner.globals.push(gid);
        sh.inner.rngs.push(None);
        sh.inner.post_seq.push(0);
        self.locs.push(CompLoc { shard, local });
        ComponentId(gid)
    }

    /// Injects an event from outside the simulation after `delay`.
    /// Driver posts order under a reserved poster id, after all
    /// same-timestamp component posts; like registration, the driver
    /// must issue the same posts in the same order under every layout.
    pub fn post<T: Any + Send>(&mut self, target: ComponentId, delay: SimDuration, payload: T) {
        let key = ((DRIVER_GID as u64) << 32) | self.driver_seq as u64;
        self.driver_seq += 1;
        let loc = self.locs[target.0 as usize];
        let sh = &mut self.shards[loc.shard as usize];
        sh.inner
            .sched
            .push_keyed(self.now + delay, ComponentId(loc.local), key, payload);
    }

    /// Runs until simulation time `t` in lookahead windows.
    pub fn run_until(&mut self, t: SimTime) {
        if t <= self.now {
            return;
        }
        if self.parallel && self.shards.len() > 1 {
            self.run_windows_parallel(t);
        } else {
            self.run_windows_sequential(t);
        }
        self.now = t;
    }

    /// Runs for a span of simulation time.
    pub fn run_for(&mut self, d: SimDuration) {
        self.run_until(self.now + d);
    }

    fn run_windows_sequential(&mut self, t: SimTime) {
        let mut now = self.now;
        while now < t {
            let end = t.min(now + self.lookahead);
            let mut max_busy = 0u64;
            for shard in &mut self.shards {
                let t0 = Instant::now();
                shard.run_window(end, &self.locs, self.lookahead);
                let ns = t0.elapsed().as_nanos() as u64;
                shard.inner.busy_ns += ns;
                max_busy = max_busy.max(ns);
            }
            self.critpath_ns += max_busy;
            self.windows += 1;
            for shard in &mut self.shards {
                shard.flush_outbox(&self.mailboxes);
            }
            for (i, shard) in self.shards.iter_mut().enumerate() {
                shard.drain_mailbox(&self.mailboxes[i], &self.locs);
            }
            now = end;
        }
    }

    fn run_windows_parallel(&mut self, t: SimTime) {
        /// Moves a `&mut Shard` into a worker thread (see the `Send`
        /// rationale on [`Shard`]; the `unsafe impl Send for Shard`
        /// makes `&mut Shard` itself `Send`).
        struct ShardSlot<'a>(&'a mut Shard, u32);

        let n = self.shards.len();
        let start = self.now;
        let lookahead = self.lookahead;
        let locs = &self.locs;
        let mailboxes = &self.mailboxes;
        let barrier = Barrier::new(n);
        let window_busy: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let critpath = AtomicU64::new(self.critpath_ns);
        let windows = AtomicU64::new(self.windows);
        std::thread::scope(|scope| {
            for (idx, shard) in self.shards.iter_mut().enumerate() {
                let slot = ShardSlot(shard, idx as u32);
                let (barrier, window_busy, critpath, windows) =
                    (&barrier, &window_busy, &critpath, &windows);
                scope.spawn(move || {
                    let ShardSlot(shard, idx) = slot;
                    let mut now = start;
                    // Every worker computes the same window sequence, so
                    // the barriers always pair up across threads.
                    while now < t {
                        let end = t.min(now + lookahead);
                        let t0 = Instant::now();
                        shard.run_window(end, locs, lookahead);
                        let ns = t0.elapsed().as_nanos() as u64;
                        shard.inner.busy_ns += ns;
                        window_busy[idx as usize].store(ns, Ordering::Relaxed);
                        shard.flush_outbox(mailboxes);
                        barrier.wait();
                        // All flushes are in; safe to drain. Fresh sends
                        // for the next window only start after the
                        // second barrier, so the take cannot race them.
                        shard.drain_mailbox(&mailboxes[idx as usize], locs);
                        if idx == 0 {
                            let max = window_busy
                                .iter()
                                .map(|b| b.load(Ordering::Relaxed))
                                .max()
                                .unwrap_or(0);
                            critpath.fetch_add(max, Ordering::Relaxed);
                            windows.fetch_add(1, Ordering::Relaxed);
                        }
                        barrier.wait();
                        now = end;
                    }
                });
            }
        });
        self.critpath_ns = critpath.into_inner();
        self.windows = windows.into_inner();
    }

    /// Total events dispatched across all shards.
    pub fn events_dispatched(&self) -> u64 {
        self.shards.iter().map(|s| s.inner.dispatched).sum()
    }

    /// Events dropped because their target slot was empty.
    pub fn events_dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.inner.dropped).sum()
    }

    /// Live queued events across all shards.
    pub fn pending_events(&self) -> usize {
        self.shards.iter().map(|s| s.inner.sched.len()).sum()
    }

    /// Wall-clock nanoseconds each shard spent running windows.
    pub fn busy_ns(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.inner.busy_ns).collect()
    }

    /// Accumulated critical path: the per-window maximum of shard busy
    /// times, summed over windows. This is the wall time an `S`-way
    /// parallel run needs when every shard has its own core, so
    /// `events / critical_path` is the aggregate throughput the shard
    /// layout supports — measurable even on machines with fewer cores
    /// than shards, where raw wall time cannot show the parallelism.
    pub fn critical_path_ns(&self) -> u64 {
        self.critpath_ns
    }

    /// Number of lookahead windows executed so far.
    pub fn windows_run(&self) -> u64 {
        self.windows
    }

    /// Merges the per-shard telemetry registries into one deterministic
    /// view (see [`Telemetry::merge_shards`]); exports from the merged
    /// registry are byte-identical across shard counts and execution
    /// modes.
    pub fn merged_telemetry(&self) -> Telemetry {
        let parts: Vec<Telemetry> = self
            .shards
            .iter()
            .map(|s| s.inner.telemetry.clone())
            .collect();
        Telemetry::merge_shards(&parts)
    }

    /// Borrows a component by global id, downcast to its concrete type.
    pub fn component_ref<T: ShardComponent>(&self, id: ComponentId) -> Option<&T> {
        let loc = *self.locs.get(id.0 as usize)?;
        self.shards[loc.shard as usize].comps[loc.local as usize]
            .as_deref()?
            .as_any()
            .downcast_ref::<T>()
    }

    /// Mutably borrows a component by global id, downcast to its
    /// concrete type.
    pub fn component_mut<T: ShardComponent>(&mut self, id: ComponentId) -> Option<&mut T> {
        let loc = *self.locs.get(id.0 as usize)?;
        self.shards[loc.shard as usize].comps[loc.local as usize]
            .as_deref_mut()?
            .as_any_mut()
            .downcast_mut::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sends a counter value around a ring of peers with a fixed hop
    /// latency, recording arrivals; peers may live on any shard.
    struct RingNode {
        next: Option<ComponentId>,
        hop: SimDuration,
        seen: Vec<(SimTime, u64)>,
        limit: u64,
    }

    impl ShardComponent for RingNode {
        fn handle(&mut self, ctx: &mut ShardCtx<'_>, payload: Payload) {
            let v = payload.downcast::<u64>().expect("u64 token");
            self.seen.push((ctx.now(), v));
            if v < self.limit {
                if let Some(next) = self.next {
                    ctx.post(next, self.hop, v + 1);
                }
            }
        }
        crate::component_boilerplate!();
    }

    fn ring(shards: u32, n: usize, hop_ms: u64) -> ShardedEngine {
        let hop = SimDuration::from_millis(hop_ms);
        let mut e = ShardedEngine::new(7, shards, hop);
        let ids: Vec<ComponentId> = (0..n)
            .map(|i| {
                e.add_component_on(
                    i as u32 % shards,
                    Box::new(RingNode {
                        next: None,
                        hop,
                        seen: vec![],
                        limit: 20,
                    }),
                )
            })
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            e.component_mut::<RingNode>(id).unwrap().next = Some(ids[(i + 1) % n]);
        }
        e.post(ids[0], SimDuration::ZERO, 0u64);
        e
    }

    fn ring_trace(shards: u32, parallel: bool) -> Vec<(u32, u64, u64)> {
        let mut e = ring(shards, 4, 5);
        e.set_parallel(parallel);
        e.run_until(SimTime::from_nanos(500 * 1_000_000));
        let mut all = Vec::new();
        for gid in 0..4u32 {
            for &(at, v) in &e
                .component_ref::<RingNode>(ComponentId(gid))
                .unwrap()
                .seen
            {
                all.push((gid, at.as_nanos(), v));
            }
        }
        all.sort_unstable();
        all
    }

    #[test]
    fn ring_is_identical_across_shard_counts_and_modes() {
        let base = ring_trace(1, false);
        assert_eq!(base.len(), 21, "token 0..=20 each observed once");
        assert_eq!(ring_trace(2, false), base);
        assert_eq!(ring_trace(4, false), base);
        assert_eq!(ring_trace(2, true), base);
        assert_eq!(ring_trace(4, true), base);
    }

    #[test]
    fn rng_streams_follow_global_ids() {
        // The same component's draws must not depend on shard placement.
        struct Drawer {
            draws: Vec<u64>,
        }
        struct Go;
        impl ShardComponent for Drawer {
            fn handle(&mut self, ctx: &mut ShardCtx<'_>, _p: Payload) {
                let v = ctx.rng().range_u64(0, 1_000_000);
                self.draws.push(v);
                if self.draws.len() < 8 {
                    ctx.post_self(SimDuration::from_millis(1), Go);
                }
            }
            crate::component_boilerplate!();
        }
        let run = |shards: u32| -> Vec<Vec<u64>> {
            let mut e = ShardedEngine::new(99, shards, SimDuration::from_millis(10));
            let ids: Vec<ComponentId> = (0..3)
                .map(|i| e.add_component_on(i % shards, Box::new(Drawer { draws: vec![] })))
                .collect();
            for &id in &ids {
                e.post(id, SimDuration::ZERO, Go);
            }
            e.run_until(SimTime::from_nanos(100 * 1_000_000));
            ids.iter()
                .map(|&id| e.component_ref::<Drawer>(id).unwrap().draws.clone())
                .collect()
        };
        assert_eq!(run(1), run(3));
    }

    #[test]
    #[should_panic(expected = "cross-shard post below lookahead")]
    fn sub_lookahead_cross_shard_post_panics() {
        let mut e = ShardedEngine::new(0, 2, SimDuration::from_millis(5));
        let a = e.add_component_on(
            0,
            Box::new(RingNode {
                next: None,
                hop: SimDuration::from_millis(1), // < lookahead, cross-shard
                seen: vec![],
                limit: 10,
            }),
        );
        let b = e.add_component_on(
            1,
            Box::new(RingNode {
                next: None,
                hop: SimDuration::from_millis(1),
                seen: vec![],
                limit: 10,
            }),
        );
        e.component_mut::<RingNode>(a).unwrap().next = Some(b);
        e.post(a, SimDuration::ZERO, 0u64);
        e.run_until(SimTime::from_nanos(100 * 1_000_000));
    }

    #[test]
    fn cancel_of_self_posts_works() {
        struct Canceller {
            armed: Option<EventId>,
            fired: u32,
        }
        struct Arm;
        struct Fire;
        struct Disarm;
        impl ShardComponent for Canceller {
            fn handle(&mut self, ctx: &mut ShardCtx<'_>, payload: Payload) {
                if payload.is::<Arm>() {
                    self.armed = Some(ctx.post_self(SimDuration::from_millis(50), Fire));
                } else if payload.is::<Disarm>() {
                    assert!(ctx.cancel(self.armed.take().unwrap()));
                } else {
                    self.fired += 1;
                }
            }
            crate::component_boilerplate!();
        }
        let mut e = ShardedEngine::new(0, 2, SimDuration::from_millis(1));
        let id = e.add_component_on(
            1,
            Box::new(Canceller {
                armed: None,
                fired: 0,
            }),
        );
        e.post(id, SimDuration::ZERO, Arm);
        e.post(id, SimDuration::from_millis(10), Disarm);
        e.run_until(SimTime::from_nanos(200 * 1_000_000));
        assert_eq!(e.component_ref::<Canceller>(id).unwrap().fired, 0);
        assert_eq!(e.events_dispatched(), 2);
    }

    #[test]
    fn merged_telemetry_is_identical_across_layouts() {
        struct Tracer {
            peer: Option<ComponentId>,
            hop: SimDuration,
        }
        impl ShardComponent for Tracer {
            fn handle(&mut self, ctx: &mut ShardCtx<'_>, payload: Payload) {
                let v = payload.downcast::<u64>().expect("u64");
                let gid = ctx.self_id().0;
                let t = ctx.telemetry();
                let track = t.track(gid, "tracer");
                let tag = t.trace_tag("hop");
                t.trace_instant(track, tag, ctx.now(), v as i64);
                let c = t.counter("hops.total");
                t.inc(c);
                let h = t.histogram("hop.value");
                t.record(h, v as f64);
                if v < 12 {
                    if let Some(peer) = self.peer {
                        ctx.post(peer, self.hop, v + 1);
                    }
                }
            }
            crate::component_boilerplate!();
        }
        let run = |shards: u32, parallel: bool| -> (String, String, String) {
            let hop = SimDuration::from_millis(3);
            let mut e = ShardedEngine::new(5, shards, hop);
            let ids: Vec<ComponentId> = (0..3)
                .map(|i| e.add_component_on(i % shards, Box::new(Tracer { peer: None, hop })))
                .collect();
            for (i, &id) in ids.iter().enumerate() {
                e.component_mut::<Tracer>(id).unwrap().peer = Some(ids[(i + 1) % 3]);
            }
            e.set_parallel(parallel);
            e.post(ids[0], SimDuration::ZERO, 0u64);
            e.run_until(SimTime::from_nanos(100 * 1_000_000));
            let m = e.merged_telemetry();
            (m.to_csv(), m.trace_to_csv(), m.trace_to_perfetto())
        };
        let base = run(1, false);
        assert_eq!(run(2, false), base);
        assert_eq!(run(3, false), base);
        assert_eq!(run(3, true), base);
    }
}
