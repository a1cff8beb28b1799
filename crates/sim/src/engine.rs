//! The discrete-event engine: components, dispatch context, main loop.
//!
//! Components are state machines addressed by [`ComponentId`]; events carry
//! [`Payload`]s (by convention, each component defines one public message
//! enum that all senders post). The engine is single-threaded and fully
//! deterministic: equal-timestamp events fire in schedule order and random
//! draws come from per-component seeded streams.
//!
//! An engine is either *plain* — the whole world, everything
//! [`Engine::new`] hands out — or *linked*: one shard of a
//! [`ShardedEngine`](crate::ShardedEngine), which owns it and is the only
//! way to hold one. The two differ in how equal-timestamp events are
//! ordered and in nothing a user can set:
//!
//! - plain: the scheduler's global post sequence, with the same-instant
//!   lane beside the heap;
//! - linked: `(poster id << 32) | poster's post count`, a key that does
//!   not depend on which shard holds which component. Posts to a
//!   component of another shard wait in an outbox for the driver's next
//!   window exchange, and trace records are stamped with the key of the
//!   event being handled so the shards' rings merge into dispatch order.
//!
//! A linked engine refuses what cannot be made placement-independent:
//! mid-run registration, removal and `stop` panic, and only a component's
//! posts to itself return an id that `cancel` accepts.

use std::any::Any;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

use crate::buggify::Buggify;
use crate::event::{ComponentId, EventId, Payload, RemotePayload, Scheduler};
use crate::rng::SimRng;
use crate::telemetry::Telemetry;
use crate::time::{SimDuration, SimTime};

/// A simulated entity that reacts to events.
///
/// Implementations should keep all state explicit (plain data) so that the
/// checkpointing layers can snapshot guest state with `Clone`.
pub trait Component: Any {
    /// Handles one event addressed to this component.
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload);

    /// Upcast for engine-side downcasting; implement as `self`.
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast; implement as `self`.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Lazily-created per-component RNG streams under one global seed.
/// Component ids are dense, so this is a plain vector lookup — the
/// stream derivation (`SimRng::for_component`) is unchanged, keeping
/// every seeded trace identical.
struct RngStore {
    seed: u64,
    streams: Vec<Option<SimRng>>,
}

impl RngStore {
    fn get(&mut self, id: ComponentId) -> &mut SimRng {
        let idx = id.0 as usize;
        if self.streams.len() <= idx {
            self.streams.resize_with(idx + 1, || None);
        }
        let seed = self.seed;
        self.streams[idx].get_or_insert_with(|| SimRng::for_component(seed, id.0))
    }
}

/// Reserved poster id for posts from outside the simulation on a linked
/// engine; component ids stay strictly below it.
pub(crate) const DRIVER: ComponentId = ComponentId(u32::MAX);

/// A cross-shard message in flight between windows.
pub(crate) struct RemoteMsg {
    time: SimTime,
    target: ComponentId,
    key: u64,
    payload: RemotePayload,
}

/// What makes an engine one shard of a `ShardedEngine`.
struct ShardLink {
    shard: u32,
    /// The minimum delay of a post to another shard: the window length.
    lookahead: SimDuration,
    /// Component id → owning shard, for every component of every shard.
    owner: Vec<u32>,
    /// Posts made so far by each component of this shard: the low half
    /// of its ordering keys.
    post_seq: Vec<u32>,
    /// Posts made so far from outside the simulation, on any shard — one
    /// count for all of them, or the keys would depend on the layout.
    /// Only the driver's thread posts, and only between windows.
    driver_seq: Arc<AtomicU32>,
    /// This window's posts to other shards, by destination.
    outbox: Vec<Vec<RemoteMsg>>,
}

/// Everything the engine owns *except* the component table. Handlers run
/// with the target component taken out of the table and a borrow of this
/// struct — disjoint borrows, so [`Ctx`] is two words instead of a fan
/// of per-field references rebuilt on every dispatch.
struct EngineInner {
    now: SimTime,
    sched: Scheduler,
    rngs: RngStore,
    next_component_id: u32,
    stop: bool,
    events_dispatched: u64,
    events_dropped: u64,
    telemetry: Telemetry,
    buggify: Buggify,
    /// Components registered from inside a handler, grafted into the
    /// table after it returns; the buffer is reused across dispatches.
    pending: Vec<(ComponentId, Box<dyn Component>)>,
    /// `Some` on a linked engine. Tested before the scheduler is touched,
    /// never between a pop and its handler, and acted on out of line.
    link: Option<Box<ShardLink>>,
}

impl EngineInner {
    /// Schedules `payload` for `at`: by post sequence on a plain engine,
    /// under `poster`'s next key on a linked one.
    #[inline]
    fn post_from<T: Any + Send>(
        &mut self,
        poster: ComponentId,
        target: ComponentId,
        at: SimTime,
        payload: T,
    ) -> EventId {
        if self.link.is_some() {
            return self.post_linked(poster, target, at, payload);
        }
        self.sched.push(at, target, payload)
    }

    #[cold]
    #[inline(never)]
    fn post_linked<T: Any + Send>(
        &mut self,
        poster: ComponentId,
        target: ComponentId,
        at: SimTime,
        payload: T,
    ) -> EventId {
        let link = self.link.as_mut().expect("post_linked on a plain engine");
        let seq = if poster == DRIVER {
            link.driver_seq.fetch_add(1, Ordering::Relaxed)
        } else {
            let seq = &mut link.post_seq[poster.0 as usize];
            *seq += 1;
            *seq - 1
        };
        let key = ((poster.0 as u64) << 32) | seq as u64;
        let dest = link.owner[target.0 as usize];
        if dest == link.shard {
            let id = self.sched.push_keyed(at, target, key, payload);
            // The same answer under every layout: another component may
            // live on another shard, where no id could reach its event.
            return if target == poster { id } else { EventId::NEVER };
        }
        let delay = at.saturating_duration_since(self.now);
        assert!(
            delay >= link.lookahead,
            "cross-shard post below lookahead: delay {delay:?} < {:?} (from {poster:?} to {target:?})",
            link.lookahead,
        );
        link.outbox[dest as usize].push(RemoteMsg {
            time: at,
            target,
            key,
            payload: RemotePayload::wrap(payload),
        });
        EventId::NEVER
    }

    /// Panics if the engine is linked: `what` has no placement-independent
    /// meaning on a shard.
    fn plain_only(&self, what: &str) {
        assert!(self.link.is_none(), "{what} is not available on a shard of a ShardedEngine");
    }
}

/// The dispatch context handed to [`Component::handle`].
///
/// Allows scheduling/cancelling events, drawing random numbers, adding new
/// components, and requesting a stop — everything a component may do besides
/// mutating its own state.
pub struct Ctx<'a> {
    self_id: ComponentId,
    inner: &'a mut EngineInner,
}

impl Ctx<'_> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.inner.now
    }

    /// The id of the component currently handling an event.
    pub fn self_id(&self) -> ComponentId {
        self.self_id
    }

    /// Schedules `payload` on `target` after `delay`.
    ///
    /// On a shard of a [`ShardedEngine`](crate::ShardedEngine) the id
    /// returned for a post to *another* component is one `cancel` always
    /// refuses, wherever the target lives; only posts to oneself are
    /// cancellable there.
    ///
    /// # Panics
    ///
    /// Panics if `target` lives on another shard and `delay` is below the
    /// sharded engine's lookahead — such a message could be due inside
    /// the window being run, which the window protocol cannot deliver.
    pub fn post<T: Any + Send>(&mut self, target: ComponentId, delay: SimDuration, payload: T) -> EventId {
        let at = self.inner.now + delay;
        self.inner.post_from(self.self_id, target, at, payload)
    }

    /// Schedules `payload` on `target` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past; the simulation cannot rewind.
    pub fn post_at<T: Any + Send>(&mut self, target: ComponentId, at: SimTime, payload: T) -> EventId {
        let now = self.inner.now;
        assert!(at >= now, "post_at into the past: {at:?} < {now:?}");
        self.inner.post_from(self.self_id, target, at, payload)
    }

    /// Schedules `payload` on the current component after `delay`.
    pub fn post_self<T: Any + Send>(&mut self, delay: SimDuration, payload: T) -> EventId {
        self.post(self.self_id, delay, payload)
    }

    /// Cancels a previously scheduled event. Returns false if it already
    /// fired or was already cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.inner.sched.cancel(id)
    }

    /// The current component's random stream.
    pub fn rng(&mut self) -> &mut SimRng {
        self.inner.rngs.get(self.self_id)
    }

    /// Registers a new component mid-run; it can receive events immediately
    /// (its slot becomes live as soon as the current handler returns, which
    /// is before any posted event can fire).
    ///
    /// # Panics
    ///
    /// Panics on a shard of a `ShardedEngine`: ids are assigned in
    /// registration order, which shards running side by side do not have.
    pub fn add_component(&mut self, c: Box<dyn Component>) -> ComponentId {
        self.inner.plain_only("Ctx::add_component");
        let id = ComponentId(self.inner.next_component_id);
        self.inner.next_component_id += 1;
        self.inner.pending.push((id, c));
        id
    }

    /// Requests that the engine stop after the current event.
    ///
    /// # Panics
    ///
    /// Panics on a shard of a `ShardedEngine`: the other shards would run
    /// on to the end of the window.
    pub fn stop(&mut self) {
        self.inner.plain_only("Ctx::stop");
        self.inner.stop = true;
    }

    /// The engine-wide telemetry registry (clone the handle to keep it).
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner.telemetry
    }

    /// The engine-wide fault-injection registry (disarmed unless the run
    /// installed one via [`Engine::arm_buggify`]).
    pub fn buggify(&self) -> &Buggify {
        &self.inner.buggify
    }
}

/// The simulation engine.
pub struct Engine {
    components: Vec<Option<Box<dyn Component>>>,
    inner: EngineInner,
}

impl Engine {
    /// Creates an engine with the given global random seed.
    pub fn new(seed: u64) -> Self {
        Engine {
            components: Vec::new(),
            inner: EngineInner {
                now: SimTime::ZERO,
                sched: Scheduler::new(),
                rngs: RngStore {
                    seed,
                    streams: Vec::new(),
                },
                next_component_id: 0,
                stop: false,
                events_dispatched: 0,
                events_dropped: 0,
                telemetry: Telemetry::new(),
                buggify: Buggify::disabled(),
                pending: Vec::new(),
                link: None,
            },
        }
    }

    /// Creates shard `shard` of `shards`. `driver_seq` is the one count
    /// of driver posts all shards of a sharded engine share.
    pub(crate) fn new_linked(
        seed: u64,
        shard: u32,
        shards: u32,
        lookahead: SimDuration,
        driver_seq: Arc<AtomicU32>,
    ) -> Self {
        let mut e = Engine::new(seed);
        e.inner.link = Some(Box::new(ShardLink {
            shard,
            lookahead,
            owner: Vec::new(),
            post_seq: Vec::new(),
            driver_seq,
            outbox: (0..shards).map(|_| Vec::new()).collect(),
        }));
        e
    }

    /// Records that component `id` (the next unregistered one) lives on
    /// shard `owner`; every shard of a sharded engine is told of every
    /// component.
    pub(crate) fn note_owner(&mut self, id: ComponentId, owner: u32) {
        let link = self.inner.link.as_mut().expect("note_owner on a plain engine");
        assert_eq!(link.owner.len(), id.0 as usize, "owners are noted in id order");
        link.owner.push(owner);
        link.post_seq.push(0);
    }

    /// Registers a component under an id assigned elsewhere: a sharded
    /// engine numbers components across its shards, and each shard keeps
    /// its own in a table indexed by those ids, empty where a component
    /// lives on another shard.
    pub(crate) fn add_component_at(&mut self, id: ComponentId, c: Box<dyn Component>) {
        self.ensure_slot(id);
        self.components[id.0 as usize] = Some(c);
    }

    /// Runs every event with `time < end`, then advances the clock to
    /// `end`: one window of a sharded run, half-open so that a message
    /// another shard sends for `end` itself still arrives in time.
    pub(crate) fn run_window(&mut self, end: SimTime) {
        let limit = SimTime::from_nanos(end.as_nanos() - 1);
        while self.dispatch_next(limit) {}
        self.inner.now = end;
    }

    /// Stamps the trace records of the next driver call
    /// (`ShardedEngine::with_component`) with the next driver key, the key
    /// a driver post would get: left alone they would carry the key of the
    /// shard's last dispatched event, which depends on the layout.
    pub(crate) fn stamp_driver_call(&mut self) {
        let link = self.inner.link.as_ref().expect("stamp_driver_call on a plain engine");
        let seq = link.driver_seq.fetch_add(1, Ordering::Relaxed);
        self.inner.telemetry.set_trace_order(((DRIVER.0 as u64) << 32) | seq as u64);
    }

    /// Appends this window's posts to other shards to their mailboxes
    /// (uncontended in sequential mode; one lock per destination shard
    /// per window in threaded mode).
    pub(crate) fn flush_outbox(&mut self, mailboxes: &[Mutex<Vec<RemoteMsg>>]) {
        let link = self.inner.link.as_mut().expect("flush_outbox on a plain engine");
        for (dest, buf) in link.outbox.iter_mut().enumerate() {
            if !buf.is_empty() {
                mailboxes[dest].lock().expect("mailbox poisoned").append(buf);
            }
        }
    }

    /// Moves what other shards sent this one into the queue. The order
    /// of arrival varies with thread timing, but pops follow
    /// `(time, key)` alone, so the variation is unobservable.
    pub(crate) fn drain_mailbox(&mut self, mailbox: &Mutex<Vec<RemoteMsg>>) {
        let msgs = std::mem::take(&mut *mailbox.lock().expect("mailbox poisoned"));
        for m in msgs {
            self.inner.sched.push_remote(m.time, m.target, m.key, m.payload);
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.inner.now
    }

    /// The engine-wide telemetry registry. All components dispatched by
    /// this engine record into it via [`Ctx::telemetry`]; external code
    /// (benches, testbed drivers) may clone the handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner.telemetry
    }

    /// The engine-wide fault-injection registry. Disarmed (free) by
    /// default; components evaluate points through [`Ctx::buggify`],
    /// external layers clone the handle.
    pub fn buggify(&self) -> &Buggify {
        &self.inner.buggify
    }

    /// Replaces the fault-injection registry, arming the run. Call
    /// before components start evaluating points.
    pub fn arm_buggify(&mut self, bg: Buggify) {
        self.inner.buggify = bg;
    }

    /// Total events dispatched so far.
    pub fn events_dispatched(&self) -> u64 {
        self.inner.events_dispatched
    }

    /// Events dropped because their target slot was empty (removed).
    pub fn events_dropped(&self) -> u64 {
        self.inner.events_dropped
    }

    /// Number of live queued events.
    pub fn pending_events(&self) -> usize {
        self.inner.sched.len()
    }

    /// Registers a component and returns its id.
    pub fn add_component(&mut self, c: Box<dyn Component>) -> ComponentId {
        let id = ComponentId(self.inner.next_component_id);
        self.inner.next_component_id += 1;
        self.ensure_slot(id);
        self.components[id.0 as usize] = Some(c);
        id
    }

    fn ensure_slot(&mut self, id: ComponentId) {
        if self.components.len() <= id.0 as usize {
            self.components.resize_with(id.0 as usize + 1, || None);
        }
    }

    /// Grafts components registered during a handler into the table,
    /// returning the buffer so its capacity is reused.
    fn graft_pending(&mut self) {
        let mut pending = std::mem::take(&mut self.inner.pending);
        for (cid, c) in pending.drain(..) {
            self.ensure_slot(cid);
            self.components[cid.0 as usize] = Some(c);
        }
        self.inner.pending = pending;
    }

    /// Removes a component, returning it. Its still-pending events are
    /// cancelled eagerly (counted in [`Engine::events_dropped`]), so the
    /// dead slot never has live events pointed at it; events posted to
    /// the id *after* removal are still dropped lazily when they fire.
    ///
    /// # Panics
    ///
    /// Panics on a shard of a `ShardedEngine`, whose other shards may
    /// hold messages for the component.
    pub fn remove_component(&mut self, id: ComponentId) -> Option<Box<dyn Component>> {
        self.inner.plain_only("Engine::remove_component");
        let c = self.components.get_mut(id.0 as usize).and_then(Option::take);
        if c.is_some() {
            self.inner.events_dropped += self.inner.sched.cancel_target(id);
        }
        c
    }

    /// Injects an event from outside the simulation after `delay`.
    pub fn post<T: Any + Send>(&mut self, target: ComponentId, delay: SimDuration, payload: T) -> EventId {
        let at = self.inner.now + delay;
        self.inner.post_from(DRIVER, target, at, payload)
    }

    /// Injects an event from outside the simulation at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn post_at<T: Any + Send>(&mut self, target: ComponentId, at: SimTime, payload: T) -> EventId {
        assert!(at >= self.inner.now, "post_at into the past");
        self.inner.post_from(DRIVER, target, at, payload)
    }

    /// Cancels a scheduled event from outside the simulation.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.inner.sched.cancel(id)
    }

    /// Borrows a component, downcast to its concrete type.
    pub fn component_ref<T: Component>(&self, id: ComponentId) -> Option<&T> {
        self.components
            .get(id.0 as usize)?
            .as_deref()?
            .as_any()
            .downcast_ref::<T>()
    }

    /// Mutably borrows a component, downcast to its concrete type.
    pub fn component_mut<T: Component>(&mut self, id: ComponentId) -> Option<&mut T> {
        self.components
            .get_mut(id.0 as usize)?
            .as_deref_mut()?
            .as_any_mut()
            .downcast_mut::<T>()
    }

    /// Runs a closure against a component with a live [`Ctx`], so external
    /// drivers (tests, experiment controllers) can poke components in a way
    /// that lets them schedule follow-up events.
    ///
    /// # Panics
    ///
    /// Panics if the component does not exist or has the wrong type.
    pub fn with_component<T: Component, R>(
        &mut self,
        id: ComponentId,
        f: impl FnOnce(&mut T, &mut Ctx<'_>) -> R,
    ) -> R {
        let mut slot = self
            .components
            .get_mut(id.0 as usize)
            .and_then(Option::take)
            .unwrap_or_else(|| panic!("with_component: no component at {id:?}"));
        let r = {
            let mut ctx = Ctx {
                self_id: id,
                inner: &mut self.inner,
            };
            let t = slot
                .as_any_mut()
                .downcast_mut::<T>()
                .unwrap_or_else(|| panic!("with_component: wrong type at {id:?}"));
            f(t, &mut ctx)
        };
        self.components[id.0 as usize] = Some(slot);
        if !self.inner.pending.is_empty() {
            self.graft_pending();
        }
        r
    }

    /// Dispatches the next event. Returns false when the queue is empty or a
    /// stop was requested.
    pub fn step(&mut self) -> bool {
        !self.inner.stop && self.dispatch_next(SimTime::MAX)
    }

    /// Pops the next event due at or before `limit` and runs its handler;
    /// false if there is none.
    #[inline]
    fn dispatch_next(&mut self, limit: SimTime) -> bool {
        let inner = &mut self.inner;
        let Some(due) = inner.sched.next_before(limit) else {
            return false;
        };
        debug_assert!(due.time >= inner.now, "time went backwards");
        inner.now = due.time;
        if inner.link.is_some() {
            // Trace records carry the key of the event being handled, so
            // the shards' rings merge back into dispatch order.
            inner.telemetry.set_trace_order(due.key);
        }
        let target = due.target;
        // The component is borrowed in place: `components` is disjoint
        // from the `inner` borrow Ctx holds, and nothing a handler can
        // reach touches the table (mid-run registrations wait in
        // `pending`).
        let Some(comp) = self
            .components
            .get_mut(target.0 as usize)
            .and_then(Option::as_deref_mut)
        else {
            drop(inner.sched.take(&due));
            inner.events_dropped += 1;
            return true;
        };
        // Taken only once the handler is known, so the payload has one
        // owner on one path: slot to argument in a single copy.
        let payload = inner.sched.take(&due);
        let mut ctx = Ctx {
            self_id: target,
            inner,
        };
        comp.handle(&mut ctx, payload);
        self.inner.events_dispatched += 1;
        if !self.inner.pending.is_empty() {
            self.graft_pending();
        }
        true
    }

    /// Runs until simulation time `t`: every event with `time <= t` fires,
    /// then `now` advances to exactly `t`.
    pub fn run_until(&mut self, t: SimTime) {
        while !self.inner.stop && self.dispatch_next(t) {}
        if self.inner.stop {
            return;
        }
        if self.inner.now < t {
            self.inner.now = t;
        }
    }

    /// Runs for a span of simulation time.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.inner.now + d;
        self.run_until(t);
    }

    /// Runs until the event queue drains or a stop is requested.
    pub fn run_to_completion(&mut self) {
        while self.step() {}
    }

    /// True if a component requested a stop.
    pub fn stopped(&self) -> bool {
        self.inner.stop
    }

    /// Clears a stop request so the engine can continue.
    pub fn clear_stop(&mut self) {
        self.inner.stop = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pings itself `remaining` times at a fixed period, recording times.
    struct Ticker {
        period: SimDuration,
        remaining: u32,
        fired_at: Vec<SimTime>,
    }

    struct Tick;

    impl Component for Ticker {
        fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
            assert!(payload.downcast::<Tick>().is_ok());
            self.fired_at.push(ctx.now());
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.post_self(self.period, Tick);
            }
        }
        crate::component_boilerplate!();
    }

    /// Forwards a u64 to a partner with +1, until a limit.
    struct PingPong {
        partner: Option<ComponentId>,
        log: Vec<u64>,
    }

    impl Component for PingPong {
        fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
            let v = payload.downcast::<u64>().expect("u64 payload");
            self.log.push(v);
            if v < 5 {
                if let Some(p) = self.partner {
                    ctx.post(p, SimDuration::from_millis(1), v + 1);
                }
            }
        }
        crate::component_boilerplate!();
    }

    #[test]
    fn ticker_fires_on_schedule() {
        let mut e = Engine::new(0);
        let id = e.add_component(Box::new(Ticker {
            period: SimDuration::from_millis(10),
            remaining: 3,
            fired_at: vec![],
        }));
        e.post(id, SimDuration::ZERO, Tick);
        e.run_to_completion();
        let t = &e.component_ref::<Ticker>(id).unwrap().fired_at;
        assert_eq!(t.len(), 4);
        assert_eq!(t[3].as_nanos(), 30_000_000);
    }

    #[test]
    fn ping_pong_alternates() {
        let mut e = Engine::new(0);
        let a = e.add_component(Box::new(PingPong {
            partner: None,
            log: vec![],
        }));
        let b = e.add_component(Box::new(PingPong {
            partner: Some(a),
            log: vec![],
        }));
        e.component_mut::<PingPong>(a).unwrap().partner = Some(b);
        e.post(a, SimDuration::ZERO, 0u64);
        e.run_to_completion();
        assert_eq!(e.component_ref::<PingPong>(a).unwrap().log, vec![0, 2, 4]);
        assert_eq!(e.component_ref::<PingPong>(b).unwrap().log, vec![1, 3, 5]);
    }

    #[test]
    fn run_until_advances_clock_even_with_no_events() {
        let mut e = Engine::new(0);
        e.run_until(SimTime::from_nanos(123));
        assert_eq!(e.now().as_nanos(), 123);
    }

    #[test]
    fn events_to_removed_components_are_dropped() {
        let mut e = Engine::new(0);
        let id = e.add_component(Box::new(PingPong {
            partner: None,
            log: vec![],
        }));
        e.post(id, SimDuration::from_millis(1), 9u64);
        e.remove_component(id);
        e.run_to_completion();
        assert_eq!(e.events_dropped(), 1);
    }

    #[test]
    fn remove_component_cancels_pending_events_eagerly() {
        // Regression: removal used to leave the removed component's
        // events live in the queue, to be dropped only when they fired.
        // They must be cancelled at removal — post → remove → run never
        // dispatches to the dead slot, and the queue is empty right away.
        let mut e = Engine::new(0);
        let victim = e.add_component(Box::new(PingPong {
            partner: None,
            log: vec![],
        }));
        let bystander = e.add_component(Box::new(PingPong {
            partner: None,
            log: vec![],
        }));
        e.post(victim, SimDuration::from_millis(1), 1u64);
        e.post(bystander, SimDuration::from_millis(2), 2u64);
        e.post(victim, SimDuration::from_millis(3), 3u64);
        assert_eq!(e.pending_events(), 3);
        let removed = e.remove_component(victim);
        assert!(removed.is_some());
        assert_eq!(
            e.pending_events(),
            1,
            "victim's events are cancelled at removal, not at fire time"
        );
        assert_eq!(e.events_dropped(), 2);
        // Posts to the dead id after removal still drop lazily.
        e.post(victim, SimDuration::from_millis(4), 4u64);
        e.run_to_completion();
        assert_eq!(e.events_dropped(), 3);
        assert_eq!(e.events_dispatched(), 1, "only the bystander's event ran");
        assert_eq!(e.component_ref::<PingPong>(bystander).unwrap().log, vec![2]);
        // Removing an id twice (or a never-registered id) is a no-op.
        assert!(e.remove_component(victim).is_none());
        assert_eq!(e.events_dropped(), 3);
    }

    #[test]
    fn cancel_prevents_dispatch() {
        let mut e = Engine::new(0);
        let id = e.add_component(Box::new(PingPong {
            partner: None,
            log: vec![],
        }));
        let ev = e.post(id, SimDuration::from_millis(1), 9u64);
        assert!(e.cancel(ev));
        e.run_to_completion();
        assert!(e.component_ref::<PingPong>(id).unwrap().log.is_empty());
    }

    #[test]
    fn identical_seeds_identical_traces() {
        fn trace(seed: u64) -> Vec<SimTime> {
            struct Jitterer {
                fired: Vec<SimTime>,
                left: u32,
            }
            struct Go;
            impl Component for Jitterer {
                fn handle(&mut self, ctx: &mut Ctx<'_>, _p: Payload) {
                    self.fired.push(ctx.now());
                    if self.left > 0 {
                        self.left -= 1;
                        let ns = ctx.rng().range_u64(1, 1_000_000);
                        ctx.post_self(SimDuration::from_nanos(ns), Go);
                    }
                }
                crate::component_boilerplate!();
            }
            let mut e = Engine::new(seed);
            let id = e.add_component(Box::new(Jitterer {
                fired: vec![],
                left: 50,
            }));
            e.post(id, SimDuration::ZERO, Go);
            e.run_to_completion();
            e.component_ref::<Jitterer>(id).unwrap().fired.clone()
        }
        assert_eq!(trace(7), trace(7));
        assert_ne!(trace(7), trace(8));
    }

    #[test]
    fn zero_delay_posts_keep_schedule_order_before_the_first_event_and_after_the_clock_ran_on() {
        let mut e = Engine::new(0);
        let id = e.add_component(Box::new(PingPong {
            partner: None,
            log: vec![],
        }));
        // Before anything was dispatched: "now" is zero.
        e.post(id, SimDuration::from_millis(1), 30u64);
        e.post(id, SimDuration::ZERO, 10u64);
        e.post_at(id, SimTime::ZERO, 20u64);
        e.run_until(SimTime::from_nanos(5_000_000));
        // The clock is now 4 ms past the last event; "now" is an instant
        // the scheduler never dispatched.
        e.post(id, SimDuration::from_millis(1), 60u64);
        e.post(id, SimDuration::ZERO, 40u64);
        e.post_at(id, e.now(), 50u64);
        e.run_to_completion();
        let log = &e.component_ref::<PingPong>(id).unwrap().log;
        assert_eq!(log, &[10, 20, 30, 40, 50, 60]);
    }

    #[test]
    fn with_component_allows_scheduling() {
        let mut e = Engine::new(0);
        let id = e.add_component(Box::new(PingPong {
            partner: None,
            log: vec![],
        }));
        e.with_component::<PingPong, _>(id, |_c, ctx| {
            ctx.post_self(SimDuration::from_millis(2), 5u64);
        });
        e.run_to_completion();
        assert_eq!(e.component_ref::<PingPong>(id).unwrap().log, vec![5]);
    }
}
