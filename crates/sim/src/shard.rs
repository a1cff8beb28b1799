//! The sharded engine: a window driver over one [`Engine`] per shard —
//! multi-core parallelism that cannot perturb seeded runs.
//!
//! # Model
//!
//! A [`ShardedEngine`] partitions its components over `S` *linked*
//! engines (see the [`Engine`] module docs for what the link changes).
//! Simulated time advances in **windows** of the `lookahead` `L`
//! (SimBricks-style conservative synchronization): every shard
//! independently runs all of its events with `time < window_end`, then
//! shards exchange the cross-shard messages they produced, then the next
//! window starts. A message to another shard must be posted with
//! `delay >= L` (in the intended topologies, `L` is the minimum
//! cross-shard link latency, so this is a physical fact, not a tax);
//! therefore a message sent during window `k` always fires in window
//! `k+1` or later, and the exchange point sees every message the
//! receiving window could need. Within the contract the window barrier
//! is invisible: shards never run ahead of what their inputs allow.
//!
//! This module is only that driver: windows, mailboxes, threads, the
//! merged telemetry view and critical-path accounting. Components are
//! plain [`Component`]s handed a plain [`Ctx`], addressed by
//! ids that are global to the sharded engine.
//!
//! # Determinism across shard counts
//!
//! A linked engine orders events by `(time, poster id, poster's post
//! count)` — a total order over all events of the run that depends only
//! on which component posted what and when, never on shard layout or on
//! the order mailbox batches drain into the heap. Per-component RNG
//! streams are derived from the component id, and per-shard telemetry
//! registries merge through [`Telemetry::merge_shards`], which restores
//! global dispatch order from `(time, key)` stamps. Consequently a run
//! with 1 shard, N shards, or N shards on real threads exports
//! byte-identical telemetry — the property the cross-shard determinism
//! suite pins.
//!
//! # Threaded mode
//!
//! [`ShardedEngine::set_parallel`] runs each shard's windows on its own
//! scoped thread with two barriers per window (run+flush, then drain).
//! Components must be `Send` ([`ShardedEngine::add_component_on`]
//! requires it), which statically prevents them from smuggling an
//! `Rc`-based handle across shards; payloads are `Send` on every engine.
//! Sequential and threaded modes produce identical bytes; per-window
//! per-shard busy time is tracked either way, and the accumulated
//! per-window maximum (the critical path) is the denominator for
//! aggregate-throughput reporting on machines with fewer cores than
//! shards.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use crate::engine::{Component, Ctx, Engine, RemoteMsg, DRIVER};
use crate::event::ComponentId;
use crate::telemetry::Telemetry;
use crate::time::{SimDuration, SimTime};

/// One shard: a linked engine and the wall-clock time it has spent
/// running windows.
struct Shard {
    engine: Engine,
    busy_ns: u64,
}

// SAFETY: a `Shard` is only moved between threads at the window barriers
// of `ShardedEngine::run_until`, never aliased across them. An `Engine`
// is not `Send` for three reasons, each confined to the shard:
// - its components are `Box<dyn Component>`. A linked engine's table is
//   filled only by `add_component_on`, which takes `Box<dyn Component +
//   Send>` (mid-run registration panics on a linked engine), so every
//   component in it is `Send`;
// - its `Telemetry` and `Buggify` are `Rc` registries. Every clone of
//   either is reachable only from the shard itself: components are
//   `Send`, so the type system forbids them from holding one (or any
//   erased container of one); `Ctx` hands out only a short-lived
//   reference; and the driver reads shard registries
//   (`merged_telemetry`) only after the scoped threads have joined;
// - its scheduler stores type-erased payloads. Every post method of
//   `Ctx` and `Engine` bounds `T: Send`, as does the cross-shard path.
unsafe impl Send for Shard {}

impl Shard {
    /// Runs one window and returns the wall-clock time it took.
    fn run_window(&mut self, end: SimTime) -> u64 {
        let t0 = Instant::now();
        self.engine.run_window(end);
        let ns = t0.elapsed().as_nanos() as u64;
        self.busy_ns += ns;
        ns
    }
}

/// The sharded simulation engine. See the [module docs](self).
pub struct ShardedEngine {
    shards: Vec<Shard>,
    mailboxes: Vec<Mutex<Vec<RemoteMsg>>>,
    /// Component id → owning shard.
    owner: Vec<u32>,
    now: SimTime,
    lookahead: SimDuration,
    parallel: bool,
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
        let driver_seq = Arc::new(AtomicU32::new(0));
        ShardedEngine {
            shards: (0..shards)
                .map(|i| Shard {
                    engine: Engine::new_linked(seed, i, shards, lookahead, driver_seq.clone()),
                    busy_ns: 0,
                })
                .collect(),
            mailboxes: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
            owner: Vec::new(),
            now: SimTime::ZERO,
            lookahead,
            parallel: false,
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

    /// Registers a component on `shard`, returning its id.
    ///
    /// Ids are assigned in registration order; for shard-count
    /// invariance, drivers must register the same components in the same
    /// order under every layout and vary only the `shard` argument.
    pub fn add_component_on(&mut self, shard: u32, c: Box<dyn Component + Send>) -> ComponentId {
        let id = ComponentId(u32::try_from(self.owner.len()).expect("component table full"));
        assert!(id < DRIVER, "component id space exhausted");
        self.owner.push(shard);
        for sh in &mut self.shards {
            sh.engine.note_owner(id, shard);
        }
        self.shards[shard as usize].engine.add_component_at(id, c);
        id
    }

    /// Injects an event from outside the simulation after `delay`.
    /// Driver posts order under a reserved poster id, after all
    /// same-timestamp component posts; like registration, the driver
    /// must issue the same posts in the same order under every layout.
    pub fn post<T: Any + Send>(&mut self, target: ComponentId, delay: SimDuration, payload: T) {
        let shard = self.owner[target.0 as usize];
        self.shards[shard as usize].engine.post(target, delay, payload);
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
                max_busy = max_busy.max(shard.run_window(end));
            }
            self.critpath_ns += max_busy;
            self.windows += 1;
            for shard in &mut self.shards {
                shard.engine.flush_outbox(&self.mailboxes);
            }
            for (shard, mailbox) in self.shards.iter_mut().zip(&self.mailboxes) {
                shard.engine.drain_mailbox(mailbox);
            }
            now = end;
        }
    }

    fn run_windows_parallel(&mut self, t: SimTime) {
        let n = self.shards.len();
        let start = self.now;
        let lookahead = self.lookahead;
        let mailboxes = &self.mailboxes;
        let barrier = Barrier::new(n);
        let window_busy: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let critpath = AtomicU64::new(self.critpath_ns);
        let windows = AtomicU64::new(self.windows);
        // A panic in a worker (a handler's, or the engine's own
        // sub-lookahead assert) must not unwind past a barrier the other
        // workers will wait at forever. It is caught and kept, with the
        // number of the phase it happened in; every worker leaves at the
        // barrier that ends that phase, and the driver thread re-raises
        // it. Phases are numbered, not flagged: a worker that is already
        // in the next phase when it fails must not stop one that has yet
        // to look at the outcome of this one.
        let failed_in = AtomicU64::new(u64::MAX);
        let panic = Mutex::new(None);
        std::thread::scope(|scope| {
            // `&mut Shard` is `Send` because `Shard` is (see above).
            for (idx, shard) in self.shards.iter_mut().enumerate() {
                let (barrier, window_busy, critpath, windows, failed_in, panic) =
                    (&barrier, &window_busy, &critpath, &windows, &failed_in, &panic);
                scope.spawn(move || {
                    let mut phases = 0u64;
                    // Runs one phase and waits for the others to finish
                    // it; false if any worker panicked in it.
                    let mut phase = |work: &mut dyn FnMut()| {
                        if let Err(p) = catch_unwind(AssertUnwindSafe(work)) {
                            panic.lock().expect("no panic while held").get_or_insert(p);
                            failed_in.fetch_min(phases, Ordering::SeqCst);
                        }
                        barrier.wait();
                        phases += 1;
                        failed_in.load(Ordering::SeqCst) >= phases
                    };
                    let mut now = start;
                    // Every worker computes the same window sequence, so
                    // the barriers always pair up across threads.
                    while now < t {
                        let end = t.min(now + lookahead);
                        let ran = phase(&mut || {
                            let ns = shard.run_window(end);
                            window_busy[idx].store(ns, Ordering::Relaxed);
                            shard.engine.flush_outbox(mailboxes);
                        });
                        // All flushes are in; safe to drain. Fresh sends
                        // for the next window only start after the second
                        // barrier, so the take cannot race them.
                        let drained = ran
                            && phase(&mut || {
                                shard.engine.drain_mailbox(&mailboxes[idx]);
                                if idx == 0 {
                                    let max = window_busy
                                        .iter()
                                        .map(|b| b.load(Ordering::Relaxed))
                                        .max()
                                        .unwrap_or(0);
                                    critpath.fetch_add(max, Ordering::Relaxed);
                                    windows.fetch_add(1, Ordering::Relaxed);
                                }
                            });
                        if !drained {
                            return;
                        }
                        now = end;
                    }
                });
            }
        });
        if let Some(p) = panic.into_inner().expect("no panic while held") {
            resume_unwind(p);
        }
        self.critpath_ns = critpath.into_inner();
        self.windows = windows.into_inner();
    }

    /// Total events dispatched across all shards.
    pub fn events_dispatched(&self) -> u64 {
        self.shards.iter().map(|s| s.engine.events_dispatched()).sum()
    }

    /// Events dropped because their target slot was empty.
    pub fn events_dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.engine.events_dropped()).sum()
    }

    /// Live queued events across all shards.
    pub fn pending_events(&self) -> usize {
        self.shards.iter().map(|s| s.engine.pending_events()).sum()
    }

    /// Wall-clock nanoseconds each shard spent running windows.
    pub fn busy_ns(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.busy_ns).collect()
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
            .map(|s| s.engine.telemetry().clone())
            .collect();
        Telemetry::merge_shards(&parts)
    }

    /// Borrows a component, downcast to its concrete type.
    pub fn component_ref<T: Component>(&self, id: ComponentId) -> Option<&T> {
        let shard = *self.owner.get(id.0 as usize)?;
        self.shards[shard as usize].engine.component_ref(id)
    }

    /// Mutably borrows a component, downcast to its concrete type.
    pub fn component_mut<T: Component>(&mut self, id: ComponentId) -> Option<&mut T> {
        let shard = *self.owner.get(id.0 as usize)?;
        self.shards[shard as usize].engine.component_mut(id)
    }

    /// Runs a closure against a component with a live [`Ctx`] between
    /// windows, as [`Engine::with_component`] does. Its posts are the
    /// component's own (keyed and bounded by the lookahead as from a
    /// handler); its trace records are stamped like a driver post. Like
    /// registration, the driver must make the same calls in the same order
    /// under every layout.
    ///
    /// # Panics
    ///
    /// Panics if the component does not exist or has the wrong type.
    pub fn with_component<T: Component, R>(
        &mut self,
        id: ComponentId,
        f: impl FnOnce(&mut T, &mut Ctx<'_>) -> R,
    ) -> R {
        let engine = &mut self.shards[self.owner[id.0 as usize] as usize].engine;
        engine.stamp_driver_call();
        engine.with_component(id, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventId, Payload};
    use crate::Ctx;

    /// Sends a counter value around a ring of peers with a fixed hop
    /// latency, recording arrivals; peers may live on any shard.
    struct RingNode {
        next: Option<ComponentId>,
        hop: SimDuration,
        seen: Vec<(SimTime, u64)>,
        limit: u64,
    }

    impl Component for RingNode {
        fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
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
        impl Component for Drawer {
            fn handle(&mut self, ctx: &mut Ctx<'_>, _p: Payload) {
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

    /// Two ring nodes on two shards whose hop is below the lookahead.
    fn sub_lookahead_ring(parallel: bool) -> ShardedEngine {
        let mut e = ShardedEngine::new(0, 2, SimDuration::from_millis(5));
        let node = || RingNode {
            next: None,
            hop: SimDuration::from_millis(1), // < lookahead, cross-shard
            seen: vec![],
            limit: 10,
        };
        let a = e.add_component_on(0, Box::new(node()));
        let b = e.add_component_on(1, Box::new(node()));
        e.component_mut::<RingNode>(a).unwrap().next = Some(b);
        e.set_parallel(parallel);
        e.post(a, SimDuration::ZERO, 0u64);
        e
    }

    #[test]
    #[should_panic(expected = "cross-shard post below lookahead")]
    fn sub_lookahead_cross_shard_post_panics() {
        sub_lookahead_ring(false).run_until(SimTime::from_nanos(100 * 1_000_000));
    }

    #[test]
    fn sub_lookahead_cross_shard_post_panics_on_threads_too() {
        // Regression: the worker that panicked unwound past its barrier
        // and the other waited there forever. Run under a watchdog, so
        // that coming back is what is tested.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let run = || sub_lookahead_ring(true).run_until(SimTime::from_nanos(100 * 1_000_000));
            tx.send(catch_unwind(run)).ok();
        });
        let outcome = rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("threaded run hung after a worker panicked");
        let panic = outcome.expect_err("the run must panic");
        let msg = panic.downcast_ref::<String>().expect("assert message");
        assert!(msg.contains("cross-shard post below lookahead"), "{msg}");
    }

    #[test]
    fn a_shard_refuses_what_depends_on_placement() {
        // By name, so a component author learns what to do without.
        struct Asks(&'static str);
        impl Component for Asks {
            fn handle(&mut self, ctx: &mut Ctx<'_>, _p: Payload) {
                match self.0 {
                    "stop" => ctx.stop(),
                    _ => drop(ctx.add_component(Box::new(Asks("")))),
                }
            }
            crate::component_boilerplate!();
        }
        let refused = |run: &mut dyn FnMut()| -> String {
            let panic = catch_unwind(AssertUnwindSafe(run)).expect_err("must be refused");
            panic.downcast_ref::<String>().expect("message").clone()
        };
        for (what, name) in [("stop", "Ctx::stop"), ("add", "Ctx::add_component")] {
            let mut e = ShardedEngine::new(0, 1, SimDuration::from_millis(1));
            let id = e.add_component_on(0, Box::new(Asks(what)));
            e.post(id, SimDuration::ZERO, ());
            let msg = refused(&mut || e.run_for(SimDuration::from_millis(1)));
            assert!(msg.starts_with(name), "{msg}");
        }
        let mut e = ShardedEngine::new(0, 1, SimDuration::from_millis(1));
        let id = e.add_component_on(0, Box::new(Asks("")));
        let msg = refused(&mut || drop(e.shards[0].engine.remove_component(id)));
        assert!(msg.starts_with("Engine::remove_component"), "{msg}");
    }

    #[test]
    fn only_self_posts_are_cancellable_under_every_layout() {
        // A post to another component returns an id `cancel` refuses
        // even when both live on one shard: were it honoured there, the
        // run would depend on the layout.
        struct Poster {
            peer: ComponentId,
            cancelled: Vec<bool>,
            got: u32,
        }
        struct Go;
        impl Component for Poster {
            fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
                if payload.is::<Go>() {
                    let hop = SimDuration::from_millis(2);
                    let to_peer = ctx.post(self.peer, hop, 1u32);
                    let to_self = ctx.post(ctx.self_id(), hop, 2u32);
                    let by_post_self = ctx.post_self(hop, 3u32);
                    self.cancelled = [to_peer, to_self, by_post_self].map(|id| ctx.cancel(id)).into();
                } else {
                    self.got += 1;
                }
            }
            crate::component_boilerplate!();
        }
        for shards in [1, 2] {
            let mut e = ShardedEngine::new(0, shards, SimDuration::from_millis(2));
            let poster = |peer| Poster { peer, cancelled: vec![], got: 0 };
            let a = e.add_component_on(0, Box::new(poster(ComponentId(1))));
            let b = e.add_component_on(shards - 1, Box::new(poster(a)));
            e.post(a, SimDuration::ZERO, Go);
            e.run_for(SimDuration::from_millis(10));
            let (a, b) = (e.component_ref::<Poster>(a).unwrap(), e.component_ref::<Poster>(b).unwrap());
            assert_eq!(a.cancelled, [false, true, true], "S = {shards}");
            assert_eq!((a.got, b.got), (0, 1), "S = {shards}: only the peer's copy fires");
        }
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
        impl Component for Canceller {
            fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
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
        impl Component for Tracer {
            fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
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

    #[test]
    fn driver_calls_are_layout_blind() {
        // Between windows the driver pokes a node as the scale lab's ops
        // loop does: a trace record for an instant another node's event
        // is due at, and a post from the poked node. Exports must not
        // depend on which shard ran what last.
        struct Node {
            peer: Option<ComponentId>,
            pokes: u32,
        }
        impl Component for Node {
            fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
                let v = payload.downcast::<u64>().expect("u64");
                let t = ctx.telemetry();
                let track = t.track(ctx.self_id().0, "node");
                t.trace_instant(track, t.trace_tag("hop"), ctx.now(), v as i64);
                if let (Some(peer), true) = (self.peer, v < 40) {
                    ctx.post(peer, SimDuration::from_millis(3), v + 1);
                }
            }
            crate::component_boilerplate!();
        }
        let run = |shards: u32, parallel: bool| -> (String, Vec<u32>) {
            let mut e = ShardedEngine::new(5, shards, SimDuration::from_millis(3));
            let ids: Vec<ComponentId> = (0..3)
                .map(|i| e.add_component_on(i % shards, Box::new(Node { peer: None, pokes: 0 })))
                .collect();
            for (i, &id) in ids.iter().enumerate() {
                e.component_mut::<Node>(id).unwrap().peer = Some(ids[(i + 1) % 3]);
            }
            e.set_parallel(parallel);
            e.post(ids[0], SimDuration::ZERO, 0u64);
            for ms in [9, 24, 48] {
                e.run_until(SimTime::from_nanos(ms * 1_000_000));
                for &id in &ids {
                    e.with_component::<Node, _>(id, |n, ctx| {
                        n.pokes += 1;
                        let t = ctx.telemetry();
                        let track = t.track(ctx.self_id().0, "node");
                        t.trace_instant(track, t.trace_tag("poke"), ctx.now(), ms as i64);
                        ctx.post(n.peer.unwrap(), SimDuration::from_millis(3), 100u64);
                    });
                }
            }
            e.run_until(SimTime::from_nanos(100 * 1_000_000));
            let pokes = ids.iter().map(|&id| e.component_ref::<Node>(id).unwrap().pokes).collect();
            (e.merged_telemetry().trace_to_csv(), pokes)
        };
        let base = run(1, false);
        assert_eq!(base.1, [3, 3, 3]);
        assert_eq!(run(2, false), base);
        assert_eq!(run(3, false), base);
        assert_eq!(run(3, true), base);
    }
}
