//! Differential test of the engine against a reference engine.
//!
//! A few hundred seeded graphs of nodes that post to each other at delay
//! zero and at small delays (so the same-instant lane and the heap hold
//! events for one instant together), cancel, register nodes mid-run and
//! have nodes removed under them, run once on [`Engine`] and once on a
//! forty-line loop over a `BTreeMap<(time, seq), _>`. The node logic is
//! written once, against [`World`]; both runs must dispatch the same
//! `(time, target, value)` sequence, answer every cancel alike, and agree
//! on the clock, the drop count and the queue length after every slice.
//!
//! Every tenth graph also runs, same nodes, on a [`ShardedEngine`] at one,
//! two and three shards, in sequence and on threads. A shard orders events
//! by poster, not by post sequence, so these runs have no reference but
//! each other: every node must log the same events under every layout.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use sim::{
    Component, ComponentId, Ctx, Engine, EventId, Payload, ShardedEngine, SimDuration, SimRng, SimTime,
};

/// What a node may do while it handles an event. A post returns a ticket
/// — the number of posts made before it, on either engine — to cancel by.
trait World {
    fn population(&self) -> u32;
    fn post(&mut self, target: u32, delay: u64, value: u64) -> usize;
    fn cancel(&mut self, ticket: usize) -> bool;
    fn spawn(&mut self, node: Node) -> u32;
}

/// Node state: its own random stream, a bound on its activity, and the
/// tickets of what it posted.
struct Node {
    rng: SimRng,
    fuel: u32,
    tickets: Vec<usize>,
}

/// A cancel outcome in the trace: `(time, CANCEL, hit)`.
const CANCEL: u32 = u32::MAX;

impl Node {
    fn new(seed: u64) -> Node {
        Node {
            rng: SimRng::from_seed(seed),
            fuel: 24,
            tickets: Vec::new(),
        }
    }

    fn delay(&mut self) -> u64 {
        match self.rng.range_u64(0, 10) {
            0..=3 => 0,
            4..=7 => self.rng.range_u64(1, 4),
            _ => self.rng.range_u64(4, 40),
        }
    }

    /// The one definition of what a node does with an event; returns the
    /// cancel outcomes it saw, for the trace.
    fn react(&mut self, w: &mut dyn World) -> Vec<bool> {
        let mut cancels = Vec::new();
        if self.fuel == 0 {
            return cancels;
        }
        self.fuel -= 1;
        for _ in 0..self.rng.range_u64(0, 4) {
            // Any id handed out so far: removed nodes get mail too.
            let target = self.rng.range_u64(0, w.population() as u64) as u32;
            let (delay, value) = (self.delay(), self.rng.range_u64(0, 1 << 40));
            self.tickets.push(w.post(target, delay, value));
        }
        if self.rng.chance(0.3) && !self.tickets.is_empty() {
            // Mostly the newest post (still waiting, often for this very
            // instant), sometimes an old one that has fired since.
            let newest = self.tickets.len() - 1;
            let pick = if self.rng.chance(0.6) {
                newest
            } else {
                self.rng.range_u64(0, newest as u64 + 1) as usize
            };
            cancels.push(w.cancel(self.tickets[pick]));
        }
        if self.rng.chance(0.03) {
            let child = w.spawn(Node::new(self.rng.range_u64(0, u64::MAX)));
            let delay = self.delay();
            self.tickets.push(w.post(child, delay, 1));
        }
        cancels
    }
}

type Trace = Vec<(u64, u32, u64)>;

// ---------------------------------------------------------------------------
// The reference: a sorted map, popped from the front.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct RefEngine {
    now: u64,
    queue: BTreeMap<(u64, u64), (u32, u64)>,
    /// Firing time per ticket; the ticket is the sequence number.
    times: Vec<u64>,
    nodes: Vec<Option<Node>>,
    dropped: u64,
    trace: Trace,
}

impl RefEngine {
    fn run_until(&mut self, limit: u64) {
        while let Some((&(time, seq), &(target, value))) = self.queue.first_key_value() {
            if time > limit {
                break;
            }
            self.queue.remove(&(time, seq));
            self.now = time;
            let Some(mut node) = self.nodes[target as usize].take() else {
                self.dropped += 1;
                continue;
            };
            self.trace.push((time, target, value));
            for hit in node.react(self) {
                self.trace.push((time, CANCEL, hit as u64));
            }
            self.nodes[target as usize] = Some(node);
        }
    }

    fn remove(&mut self, id: u32) {
        if self.nodes[id as usize].take().is_some() {
            let before = self.queue.len();
            self.queue.retain(|_, &mut (target, _)| target != id);
            self.dropped += (before - self.queue.len()) as u64;
        }
    }
}

impl World for RefEngine {
    fn population(&self) -> u32 {
        self.nodes.len() as u32
    }

    fn post(&mut self, target: u32, delay: u64, value: u64) -> usize {
        let time = self.now + delay;
        self.queue.insert((time, self.times.len() as u64), (target, value));
        self.times.push(time);
        self.times.len() - 1
    }

    fn cancel(&mut self, ticket: usize) -> bool {
        self.queue.remove(&(self.times[ticket], ticket as u64)).is_some()
    }

    fn spawn(&mut self, node: Node) -> u32 {
        self.nodes.push(Some(node));
        self.nodes.len() as u32 - 1
    }
}

// ---------------------------------------------------------------------------
// The engine under test, behind the same `World`.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Shared {
    ids: Vec<EventId>,
    population: u32,
    trace: Trace,
    /// Zero on a plain engine. On a sharded one, what a post to a node of
    /// another group (see [`group`]) waits longer: groups are what is
    /// placed, so an edge between two may cross shards.
    lookahead: u64,
}

/// Placement unit of a node on a sharded engine: group `g` lives on shard
/// `g % shards`, so three groups spread over up to three shards.
fn group(id: u32) -> u32 {
    id % 3
}

/// Every fifth value travels in a payload too large for an event slot, so
/// both storage forms and the hand-back of a failed downcast are on the
/// path.
struct Big([u64; 7]);

struct RealNode {
    node: Node,
    shared: Arc<Mutex<Shared>>,
}

struct InHandler<'a, 'c> {
    ctx: &'a mut Ctx<'c>,
    shared: &'a Arc<Mutex<Shared>>,
}

impl World for InHandler<'_, '_> {
    fn population(&self) -> u32 {
        self.shared.lock().unwrap().population
    }

    fn post(&mut self, target: u32, delay: u64, value: u64) -> usize {
        let far = group(target) != group(self.ctx.self_id().0);
        let delay = delay + if far { self.shared.lock().unwrap().lookahead } else { 0 };
        let (target, delay) = (ComponentId(target), SimDuration::from_nanos(delay));
        let id = if value.is_multiple_of(5) {
            self.ctx.post(target, delay, Big([value; 7]))
        } else {
            self.ctx.post(target, delay, value)
        };
        let mut shared = self.shared.lock().unwrap();
        shared.ids.push(id);
        shared.ids.len() - 1
    }

    fn cancel(&mut self, ticket: usize) -> bool {
        let id = self.shared.lock().unwrap().ids[ticket];
        self.ctx.cancel(id)
    }

    fn spawn(&mut self, node: Node) -> u32 {
        {
            let mut shared = self.shared.lock().unwrap();
            if shared.lookahead > 0 {
                // A shard registers nothing mid-run: the child's mail goes
                // to its parent.
                return self.ctx.self_id().0;
            }
            shared.population += 1;
        }
        let shared = self.shared.clone();
        self.ctx.add_component(Box::new(RealNode { node, shared })).0
    }
}

impl Component for RealNode {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        let value = match payload.downcast::<u64>() {
            Ok(v) => v,
            Err(p) => p.downcast::<Big>().expect("u64 or Big").0[6],
        };
        let (now, me) = (ctx.now().as_nanos(), ctx.self_id().0);
        let mut world = InHandler {
            ctx,
            shared: &self.shared,
        };
        let cancels = self.node.react(&mut world);
        // One record under one lock: shards on threads log side by side.
        let trace = &mut self.shared.lock().unwrap().trace;
        trace.push((now, me, value));
        trace.extend(cancels.into_iter().map(|hit| (now, CANCEL, hit as u64)));
    }
    sim::component_boilerplate!();
}

/// Both engines, driven in lockstep from outside.
struct Pair {
    real: Engine,
    shared: Arc<Mutex<Shared>>,
    reference: RefEngine,
}

impl Pair {
    fn add_node(&mut self, seed: u64) -> u32 {
        self.shared.lock().unwrap().population += 1;
        let shared = self.shared.clone();
        let node = Node::new(seed);
        let id = self.real.add_component(Box::new(RealNode { node, shared }));
        assert_eq!(id.0, self.reference.spawn(Node::new(seed)));
        id.0
    }

    fn post(&mut self, target: u32, delay: u64, value: u64) {
        let id = self.real.post(ComponentId(target), SimDuration::from_nanos(delay), value);
        self.shared.lock().unwrap().ids.push(id);
        self.reference.post(target, delay, value);
    }

    fn check(&self, case: u64, at: &str) {
        let shared = self.shared.lock().unwrap();
        if let Some(i) = (0..shared.trace.len().max(self.reference.trace.len()))
            .find(|&i| shared.trace.get(i) != self.reference.trace.get(i))
        {
            panic!(
                "case {case}, {at}: traces part at entry {i}: engine {:?}, reference {:?}",
                shared.trace.get(i),
                self.reference.trace.get(i)
            );
        }
        assert_eq!(self.real.events_dropped(), self.reference.dropped, "case {case}, {at}: drops");
        assert_eq!(self.real.pending_events(), self.reference.queue.len(), "case {case}, {at}: queue");
    }
}

/// Graph `case` on a sharded engine, driven from outside between slices:
/// what each node logged.
fn sharded_logs(case: u64, shards: u32, parallel: bool) -> Vec<Trace> {
    const LOOKAHEAD: u64 = 8;
    let mut g = SimRng::for_component(0xE46_14E, case as u32);
    let mut e = ShardedEngine::new(case, shards, SimDuration::from_nanos(LOOKAHEAD));
    e.set_parallel(parallel);
    let population = g.range_u64(2, 7) as u32;
    let shared = Arc::new(Mutex::new(Shared {
        population,
        lookahead: LOOKAHEAD,
        ..Shared::default()
    }));
    for id in 0..population {
        let (node, shared) = (Node::new(g.range_u64(0, u64::MAX)), shared.clone());
        e.add_component_on(group(id) % shards, Box::new(RealNode { node, shared }));
    }
    let mut clock = 0;
    for _ in 0..12 {
        for _ in 0..g.range_u64(1, 4) {
            let target = ComponentId(g.range_u64(0, population as u64) as u32);
            e.post(target, SimDuration::from_nanos(g.range_u64(0, 3)), g.range_u64(0, 1 << 40));
        }
        // Slices end where they end: most cut a window short.
        clock += g.range_u64(1, 40);
        e.run_until(SimTime::from_nanos(clock));
    }
    // The nodes' fuel bounds the run.
    while e.pending_events() > 0 {
        e.run_for(SimDuration::from_nanos(200));
    }
    let mut logs = vec![Trace::new(); population as usize];
    let mut node = 0;
    for &entry in &shared.lock().unwrap().trace {
        if entry.1 != CANCEL {
            node = entry.1 as usize;
        }
        logs[node].push(entry);
    }
    logs
}

#[test]
fn engine_dispatches_exactly_as_the_reference_loop() {
    let (mut dispatched, mut sharded) = (0, 0);
    for case in 0..300u64 {
        let mut g = SimRng::for_component(0xE46_14E, case as u32);
        let mut pair = Pair {
            real: Engine::new(case),
            shared: Arc::default(),
            reference: RefEngine::default(),
        };
        for _ in 0..g.range_u64(2, 7) {
            pair.add_node(g.range_u64(0, u64::MAX));
        }
        // Before anything was dispatched: posts for instant zero and later.
        for _ in 0..g.range_u64(1, 6) {
            let target = g.range_u64(0, pair.reference.population() as u64) as u32;
            pair.post(target, g.range_u64(0, 3), g.range_u64(0, 1 << 40));
        }
        let mut clock = 0;
        for slice in 0..10 {
            clock += g.range_u64(1, 40);
            pair.real.run_until(SimTime::from_nanos(clock));
            pair.reference.run_until(clock);
            pair.reference.now = clock;
            assert_eq!(pair.real.now().as_nanos(), clock);
            pair.check(case, &format!("slice {slice}"));
            // From outside, with the clock past the last event: remove a
            // node, add one, cancel a ticket, post for "now".
            let population = pair.reference.population() as u64;
            match g.range_u64(0, 5) {
                0 => {
                    let victim = g.range_u64(0, population) as u32;
                    let removed = pair.real.remove_component(ComponentId(victim)).is_some();
                    assert_eq!(removed, pair.reference.nodes[victim as usize].is_some());
                    pair.reference.remove(victim);
                }
                1 => {
                    let id = pair.add_node(g.range_u64(0, u64::MAX));
                    pair.post(id, 0, 2);
                }
                2 if !pair.reference.times.is_empty() => {
                    let ticket = g.range_u64(0, pair.reference.times.len() as u64) as usize;
                    let id = pair.shared.lock().unwrap().ids[ticket];
                    assert_eq!(pair.real.cancel(id), pair.reference.cancel(ticket), "case {case}");
                }
                _ => pair.post(g.range_u64(0, population) as u32, 0, 3),
            }
            pair.check(case, &format!("after slice {slice}'s driver step"));
        }
        pair.real.run_to_completion();
        pair.reference.run_until(u64::MAX);
        pair.check(case, "drained");
        assert_eq!(pair.real.pending_events(), 0);
        assert_eq!(pair.real.now().as_nanos(), pair.reference.now);
        dispatched += pair.real.events_dispatched();
        if case.is_multiple_of(10) {
            let base = sharded_logs(case, 1, false);
            sharded += base.iter().map(Vec::len).sum::<usize>();
            for (shards, parallel) in [(2, false), (3, false), (2, true), (3, true)] {
                let logs = sharded_logs(case, shards, parallel);
                assert_eq!(logs, base, "case {case}: {shards} shards, threads {parallel}");
            }
        }
    }
    assert!(dispatched > 20_000, "the graphs must do work: {dispatched} events");
    assert!(sharded > 4_000, "and so must the sharded ones: {sharded} log entries");
}
