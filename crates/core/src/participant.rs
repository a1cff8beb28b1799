//! The node side of the epoch protocol (§4.3), written once.
//!
//! VM hosts and delay nodes alike walk one sequence: notification → ack
//! → local capture → done → resume or abort. [`Participant`] is that
//! sequence as plain data with three entry points; everything it may do
//! to the node it runs on goes through one hook table, [`NodeHooks`] (the
//! DMTCP plugin seam: uniform capture/resume hooks per participant, one
//! coordinator-facing state machine above them). Implementors close over
//! their own context, so this module knows nothing of the simulator or of
//! any node kind and is unit-tested against a scripted recorder.
//! DESIGN.md §5 "The participant" states the rules the machine keeps.

use sim::{SimDuration, TraceCtx};

use crate::bus::BusMsg;

/// Wake-token kinds, packed above the epoch number. A bare epoch starts
/// the capture (scheduled time reached, or trigger delay elapsed).
const DONE_BIT: u64 = 1 << 63;
const WATCHDOG_BIT: u64 = 1 << 62;

/// Everything a participant may do to its local world.
pub trait NodeHooks {
    /// Sends a bus message to the coordinator.
    fn send(&mut self, msg: BusMsg);

    /// Requests [`Participant::on_wake`] with `token` when the node's
    /// *local clock* reads `clock_ns` (immediately if that is past).
    fn wake_at_clock_ns(&mut self, clock_ns: f64, token: u64);

    /// Requests [`Participant::on_wake`] with `token` after a real delay.
    fn wake_after(&mut self, d: SimDuration, token: u64);

    /// Processing delay between an event-driven trigger's arrival and
    /// the capture start; `None` starts the capture inline.
    fn trigger_delay(&mut self) -> Option<SimDuration> {
        None
    }

    /// Starts the local capture for the round `trace` names — completion
    /// comes back through [`Participant::on_captured`] — or returns
    /// `false` if the node is still busy with an earlier capture.
    fn begin_capture(&mut self, trace: TraceCtx) -> bool;

    /// True while a captured (or restored) frozen state awaits release.
    fn held(&self) -> bool;

    /// Resumes from the held state, keeping the capture.
    fn release(&mut self);

    /// Abandons the epoch's capture in whatever phase it is in, so the
    /// node ends up running as if never triggered. Returns `true` when an
    /// already captured image was rolled back.
    fn rollback(&mut self) -> bool;

    /// Demands that the next capture be full (non-incremental).
    fn request_full(&mut self) {}

    /// Size of the last captured image.
    fn image_bytes(&self) -> u64;
}

/// The epoch-protocol state of one node.
#[derive(Clone, Copy, Debug, Default)]
pub struct Participant {
    /// Fault injection: hold the done report this long after capture (a
    /// straggler node as seen by the coordinator).
    pub done_stall: Option<SimDuration>,
    /// Re-send the done report at this interval until a resume or abort
    /// resolves the epoch (at-least-once over a lossy control plane).
    pub done_resend: Option<SimDuration>,
    /// Release a capture whose epoch is still unresolved this long after
    /// it began: the coordinator crashed mid-round and its recovery may
    /// have abandoned us. Must exceed the epoch deadline plus the
    /// worst-case coordinator downtime, or healthy rounds self-release.
    pub suspend_watchdog: Option<SimDuration>,
    /// Checkpoints reported done (less those an abort rolled back).
    pub completed: u64,
    /// Epochs rolled back on coordinator abort or watchdog release.
    pub aborted: u64,
    /// Captures released by the watchdog (resolution never arrived).
    pub watchdog_releases: u64,
    epoch: u64,
    /// The current round's context, echoed on the done report.
    trace: TraceCtx,
    /// Epoch aborted last; its stale wakes and reports are suppressed.
    aborted_epoch: Option<u64>,
    /// Epoch counted in `completed` (un-counted again if it aborts).
    counted_epoch: Option<u64>,
    /// Epoch whose capture is in flight: begun, not yet captured.
    capturing: Option<u64>,
}

impl Participant {
    /// A control-network bus message arrived.
    pub fn on_msg(&mut self, io: &mut impl NodeHooks, msg: BusMsg) {
        match msg {
            BusMsg::CheckpointAt { epoch, at_clock_ns, full, trace } => {
                self.on_notify(io, epoch, full, trace, Some(at_clock_ns));
            }
            BusMsg::CheckpointNow { epoch, full, trace } => {
                self.on_notify(io, epoch, full, trace, None);
            }
            BusMsg::Resume { epoch, .. } => {
                // `held` absorbs duplicated resume frames.
                if epoch == self.epoch && self.aborted_epoch != Some(epoch) && io.held() {
                    self.capturing = None;
                    io.release();
                }
            }
            BusMsg::Abort { epoch, .. } => {
                if epoch == self.epoch && self.aborted_epoch != Some(epoch) {
                    self.abort(io, epoch);
                }
            }
            BusMsg::NotifyAck { .. } | BusMsg::NodeDone { .. } | BusMsg::RequestCheckpoint => {}
        }
    }

    /// A wakeup requested through [`NodeHooks::wake_at_clock_ns`] or
    /// [`NodeHooks::wake_after`] fired.
    pub fn on_wake(&mut self, io: &mut impl NodeHooks, token: u64) {
        let epoch = token & !(DONE_BIT | WATCHDOG_BIT);
        if epoch != self.epoch || self.aborted_epoch == Some(epoch) {
            return; // A wake for an epoch that aborted or moved on.
        }
        if token & DONE_BIT != 0 {
            if self.counted_epoch == Some(epoch) && !io.held() {
                return; // Resolved while the resend timer was pending.
            }
            // The stalled first report comes due, or a resend fires.
            self.send_done(io, epoch);
        } else if token & WATCHDOG_BIT != 0 {
            if io.held() {
                // No resolution ever arrived (a recovering coordinator
                // abandoned the round): adopt the abort outcome locally.
                self.watchdog_releases += 1;
                self.abort(io, epoch);
            }
        } else {
            self.start_capture(io);
        }
    }

    /// The local capture finished and the node is held: report done and
    /// wait for the coordinator's resume. A capture belongs to the epoch
    /// it was *begun* under: if a newer round arrived while it was in
    /// flight (acked, but `begin_capture` refused a second capture), it is
    /// rolled back instead — a done for epoch n+1 carrying an image frozen
    /// for epoch n would break the consistent cut — and the coordinator's
    /// deadline resolves the newer round, as for any straggler.
    pub fn on_captured(&mut self, io: &mut impl NodeHooks) {
        let Some(begun) = self.capturing.take() else {
            return; // The epoch resolved while the capture was due.
        };
        if !io.held() {
            return;
        }
        if begun != self.epoch {
            io.rollback();
            return;
        }
        match self.done_stall {
            Some(stall) => io.wake_after(stall, begun | DONE_BIT),
            None => self.send_done(io, begun),
        }
    }

    fn on_notify(
        &mut self,
        io: &mut impl NodeHooks,
        epoch: u64,
        full: bool,
        trace: TraceCtx,
        at_clock_ns: Option<f64>,
    ) {
        if epoch < self.epoch {
            return; // Stale retry of a finished epoch.
        }
        if full {
            // Our incremental chain is broken (e.g. re-admitted after a
            // crash). Safe on retries — the latch is idempotent.
            io.request_full();
        }
        io.send(BusMsg::NotifyAck { epoch, trace });
        if epoch == self.epoch {
            return; // Duplicate: the capture is already armed.
        }
        if io.held() {
            // The previous epoch's resume or abort was lost: release, join.
            self.capturing = None;
            io.release();
        }
        self.epoch = epoch;
        self.trace = trace;
        match at_clock_ns {
            Some(at) => io.wake_at_clock_ns(at, epoch),
            None => match io.trigger_delay() {
                Some(d) => io.wake_after(d, epoch),
                None => self.start_capture(io),
            },
        }
    }

    fn start_capture(&mut self, io: &mut impl NodeHooks) {
        if !io.begin_capture(self.trace) {
            return; // Still busy with an older capture: sit this round out.
        }
        self.capturing = Some(self.epoch);
        if let Some(timeout) = self.suspend_watchdog {
            io.wake_after(timeout, self.epoch | WATCHDOG_BIT);
        }
    }

    fn send_done(&mut self, io: &mut impl NodeHooks, epoch: u64) {
        if self.counted_epoch != Some(epoch) {
            self.completed += 1;
            self.counted_epoch = Some(epoch);
        }
        let image_bytes = io.image_bytes();
        io.send(BusMsg::NodeDone { epoch, image_bytes, trace: self.trace });
        if let Some(interval) = self.done_resend {
            io.wake_after(interval, epoch | DONE_BIT);
        }
    }

    fn abort(&mut self, io: &mut impl NodeHooks, epoch: u64) {
        self.aborted_epoch = Some(epoch);
        self.aborted += 1;
        self.capturing = None;
        if io.rollback() && self.counted_epoch == Some(epoch) {
            // The captured image was rolled back: un-count it.
            self.completed -= 1;
            self.counted_epoch = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    enum Phase {
        #[default]
        Idle,
        Capturing,
        Held,
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Op {
        Send(BusMsg),
        Wake(u64),
        Begin(u32),
        Release,
        Rollback(bool),
        RequestFull,
    }

    /// A scripted local world plus the invariant monitors. Two shapes of
    /// node: `hold_from_start` (a delay node: suspended from the capture's
    /// start, a timer completes it, releasing early makes the timer stale)
    /// and not (a VM host: runs until the capture completes, an abort
    /// mid-capture unwinds silently and keeps the node busy until then).
    #[derive(Clone, Debug, Default)]
    struct World {
        hold_from_start: bool,
        jitter: bool,
        phase: Phase,
        /// A begun capture whose completion has not been delivered.
        in_flight: bool,
        unwinding: bool,
        /// Epoch (the trace's span id) the latest capture was begun for.
        image_epoch: u32,
        pending_wakes: Vec<u64>,
        // Monitors.
        begins: [u8; 3],
        done_sent: u8,
        rolled_after_done: u8,
        abort_seen: u8,
        failure: Option<String>,
        /// What the current entry point did (not part of the state).
        ops: Vec<Op>,
    }

    impl World {
        fn new(hold_from_start: bool, jitter: bool) -> World {
            World { hold_from_start, jitter, ..World::default() }
        }

        fn fail(&mut self, why: String) {
            self.failure.get_or_insert(why);
        }

        fn wake(&mut self, token: u64) {
            self.ops.push(Op::Wake(token));
            self.pending_wakes.push(token);
            self.pending_wakes.sort_unstable();
        }
    }

    impl NodeHooks for World {
        fn send(&mut self, msg: BusMsg) {
            if let BusMsg::NodeDone { epoch, .. } = msg {
                if self.abort_seen & (1 << epoch) != 0 {
                    self.fail(format!("NodeDone({epoch}) after Abort({epoch})"));
                }
                if self.phase == Phase::Held && u64::from(self.image_epoch) != epoch {
                    self.fail(format!(
                        "NodeDone({epoch}) over an image frozen for epoch {}",
                        self.image_epoch
                    ));
                }
                self.done_sent |= 1 << epoch;
            }
            self.ops.push(Op::Send(msg));
        }

        fn wake_at_clock_ns(&mut self, _clock_ns: f64, token: u64) {
            self.wake(token);
        }

        fn wake_after(&mut self, _d: SimDuration, token: u64) {
            self.wake(token);
        }

        fn trigger_delay(&mut self) -> Option<SimDuration> {
            self.jitter.then(|| SimDuration::from_micros(3))
        }

        fn begin_capture(&mut self, trace: TraceCtx) -> bool {
            if self.phase != Phase::Idle {
                return false;
            }
            let e = trace.span_id;
            self.begins[e as usize] += 1;
            if self.begins[e as usize] > 1 {
                self.fail(format!("second begin_capture for epoch {e}"));
            }
            self.image_epoch = e;
            self.in_flight = true;
            self.phase = if self.hold_from_start { Phase::Held } else { Phase::Capturing };
            self.ops.push(Op::Begin(e));
            true
        }

        fn held(&self) -> bool {
            self.phase == Phase::Held
        }

        fn release(&mut self) {
            if self.phase != Phase::Held {
                self.fail("release while not held".into());
            }
            self.phase = Phase::Idle;
            self.in_flight = false;
            self.ops.push(Op::Release);
        }

        fn rollback(&mut self) -> bool {
            let rolled = match self.phase {
                Phase::Idle => false,
                Phase::Capturing => {
                    self.unwinding = true;
                    false
                }
                Phase::Held => {
                    self.rolled_after_done |= self.done_sent & (1 << self.image_epoch);
                    self.phase = Phase::Idle;
                    self.in_flight = false;
                    true
                }
            };
            self.ops.push(Op::Rollback(rolled));
            rolled
        }

        fn request_full(&mut self) {
            self.ops.push(Op::RequestFull);
        }

        fn image_bytes(&self) -> u64 {
            4096
        }
    }

    #[derive(Clone, Copy, Debug)]
    enum Input {
        /// A notification for `epoch`; scheduled when `at`. The two styles
        /// carry different contexts so an ack echoing the stored round's
        /// instead of the notification's own shows.
        Notify { epoch: u64, at: bool },
        Resume(u64),
        Abort(u64),
        /// The pending wake with this token fires.
        Wake(u64),
        /// The local capture completes.
        Captured,
    }

    fn notify_trace(epoch: u64, at: bool) -> TraceCtx {
        TraceCtx { trace_id: if at { 1 } else { 2 }, span_id: epoch as u32 }
    }

    /// Applies one input and checks everything that can be judged from
    /// this call alone. `cur` is the monitor's own idea of the current
    /// epoch (the machine's may be sabotaged). `no_dedup` plants the bug
    /// the suite must catch: the duplicate-notification guard is gone.
    fn step(p: &mut Participant, w: &mut World, cur: &mut u64, input: Input, no_dedup: bool) {
        w.ops.clear();
        let was_held = w.phase == Phase::Held;
        match input {
            Input::Notify { epoch, at } => {
                if no_dedup && epoch == p.epoch && epoch > 0 {
                    p.epoch -= 1; // The machine now takes the copy for a new round.
                }
                let trace = notify_trace(epoch, at);
                let full = epoch == 2;
                let msg = if at {
                    BusMsg::CheckpointAt { epoch, at_clock_ns: 1e9, full, trace }
                } else {
                    BusMsg::CheckpointNow { epoch, full, trace }
                };
                p.on_msg(w, msg);
                let acks: Vec<&Op> = w
                    .ops
                    .iter()
                    .filter(|op| matches!(op, Op::Send(BusMsg::NotifyAck { .. })))
                    .collect();
                if epoch < *cur {
                    if !w.ops.is_empty() {
                        w.fail(format!("stale notify({epoch}) did {:?}", w.ops));
                    }
                } else if acks != [&Op::Send(BusMsg::NotifyAck { epoch, trace })] {
                    w.fail(format!("notify({epoch}) acked with {acks:?}"));
                }
                if epoch == *cur
                    && w.ops.iter().any(|op| !matches!(op, Op::Send(_) | Op::RequestFull))
                {
                    w.fail(format!("duplicate notify({epoch}) did {:?}", w.ops));
                }
                if epoch > *cur && was_held {
                    let release = w.ops.iter().position(|op| *op == Op::Release);
                    let join = w
                        .ops
                        .iter()
                        .position(|op| matches!(op, Op::Begin(_) | Op::Wake(_)));
                    if release.is_none() || release > join {
                        w.fail(format!("new round over a held capture did {:?}", w.ops));
                    }
                }
                *cur = (*cur).max(epoch);
            }
            Input::Resume(epoch) => p.on_msg(w, BusMsg::Resume { epoch, trace: TraceCtx::NONE }),
            Input::Abort(epoch) => {
                if epoch == *cur {
                    w.abort_seen |= 1 << epoch;
                }
                p.on_msg(w, BusMsg::Abort { epoch, trace: TraceCtx::NONE });
            }
            Input::Wake(token) => {
                let i = w.pending_wakes.iter().position(|&t| t == token).expect("pending");
                w.pending_wakes.remove(i);
                p.on_wake(w, token);
            }
            Input::Captured => {
                if w.hold_from_start {
                    // A released or rolled-back capture's timer is stale.
                    if std::mem::take(&mut w.in_flight) {
                        p.on_captured(w);
                    }
                } else if w.phase == Phase::Capturing {
                    w.in_flight = false;
                    if std::mem::take(&mut w.unwinding) {
                        w.phase = Phase::Idle;
                    } else {
                        w.phase = Phase::Held;
                        p.on_captured(w);
                    }
                }
            }
        }
        let commits = (w.done_sent & !w.rolled_after_done).count_ones() as u64;
        if p.completed != commits {
            w.fail(format!("completed {} but {commits} un-rolled-back dones", p.completed));
        }
    }

    /// Every input sequence up to `depth` steps over two epochs, explored
    /// breadth-first over distinct (machine, world, monitor) states — the
    /// monitors are part of the state, so merging equal states loses no
    /// sequence. Returns the states visited, or the first failure with
    /// the inputs that reach it.
    fn explore(p0: Participant, w0: World, depth: usize, no_dedup: bool) -> Result<usize, String> {
        let key = |p: &Participant, w: &World, cur: u64| {
            let mut w = w.clone();
            w.ops.clear();
            format!("{p:?}{w:?}{cur}")
        };
        let mut seen = HashSet::from([key(&p0, &w0, 0)]);
        let mut frontier = vec![(p0, w0, 0u64, Vec::<Input>::new())];
        for _ in 0..depth {
            let mut next = Vec::new();
            for (p, w, cur, path) in frontier {
                let mut inputs = vec![Input::Captured];
                for epoch in [1, 2] {
                    inputs.push(Input::Notify { epoch, at: true });
                    inputs.push(Input::Notify { epoch, at: false });
                    inputs.push(Input::Resume(epoch));
                    inputs.push(Input::Abort(epoch));
                }
                let mut wakes = w.pending_wakes.clone();
                wakes.dedup();
                inputs.extend(wakes.into_iter().map(Input::Wake));
                for input in inputs {
                    let (mut p, mut w, mut cur) = (p, w.clone(), cur);
                    let mut path = path.clone();
                    path.push(input);
                    step(&mut p, &mut w, &mut cur, input, no_dedup);
                    if let Some(why) = w.failure {
                        return Err(format!("{why} after {path:?}"));
                    }
                    if seen.insert(key(&p, &w, cur)) {
                        next.push((p, w, cur, path));
                    }
                }
            }
            frontier = next;
        }
        Ok(seen.len())
    }

    fn configs() -> Vec<(Participant, World)> {
        let on = |b: usize, d: SimDuration| (b != 0).then_some(d);
        (0..32)
            .map(|bits: usize| {
                let p = Participant {
                    done_stall: on(bits & 1, SimDuration::from_millis(50)),
                    done_resend: on(bits & 2, SimDuration::from_millis(100)),
                    suspend_watchdog: on(bits & 4, SimDuration::from_secs(4)),
                    ..Participant::default()
                };
                (p, World::new(bits & 8 != 0, bits & 16 != 0))
            })
            .collect()
    }

    #[test]
    fn every_short_input_sequence_keeps_the_invariants() {
        let mut states = 0;
        for (p, w) in configs() {
            states += explore(p, w, 8, false).unwrap_or_else(|e| panic!("{e}"));
        }
        // Not vacuous: the walk reaches well past the happy path.
        assert!(states > 10_000, "only {states} states");
    }

    #[test]
    fn dropping_the_duplicate_guard_fails_the_suite() {
        let caught = configs()
            .into_iter()
            .filter(|(p, w)| explore(*p, w.clone(), 8, true).is_err())
            .count();
        assert_eq!(caught, 32, "the sabotaged machine must fail under every configuration");
    }

    /// Scripted sequences with their exact hook traffic.
    #[test]
    fn scripted_sequences() {
        use Input::*;
        let t = |e| notify_trace(e, false);
        let ack = |e| Op::Send(BusMsg::NotifyAck { epoch: e, trace: t(e) });
        let done = |e| Op::Send(BusMsg::NodeDone { epoch: e, image_bytes: 4096, trace: t(e) });
        let now = |epoch| Notify { epoch, at: false };
        // (name, done_resend armed, inputs to a host-shaped node, hook traffic)
        let cases: Vec<(&str, bool, Vec<Input>, Vec<Op>)> = vec![
            (
                "a round, its duplicate notification, its duplicated resume",
                false,
                vec![now(1), now(1), Captured, Resume(1), Resume(1)],
                vec![ack(1), Op::Begin(1), ack(1), done(1), Op::Release],
            ),
            (
                "lost resolution: the next round releases, then joins",
                false,
                vec![now(1), Captured, now(2)],
                vec![ack(1), Op::Begin(1), done(1), Op::RequestFull, ack(2), Op::Release, Op::Begin(2)],
            ),
            (
                "resends stop at the abort, which rolls the counted image back",
                true,
                vec![now(1), Captured, Wake(1 | DONE_BIT), Abort(1), Wake(1 | DONE_BIT), Abort(1)],
                vec![
                    ack(1),
                    Op::Begin(1),
                    done(1),
                    Op::Wake(1 | DONE_BIT),
                    done(1),
                    Op::Wake(1 | DONE_BIT),
                    Op::Rollback(true),
                ],
            ),
            (
                // The regression: a newer round lands while the capture is
                // in flight. It is acked, starts no second capture, and the
                // finished capture is rolled back instead of reported.
                "a notification mid-capture neither restarts nor mislabels the capture",
                false,
                vec![now(1), now(2), Captured],
                vec![ack(1), Op::Begin(1), Op::RequestFull, ack(2), Op::Rollback(true)],
            ),
            (
                "an abort mid-capture keeps the node out of the next round",
                false,
                vec![now(1), Abort(1), now(2), Captured, now(2)],
                vec![ack(1), Op::Begin(1), Op::Rollback(false), Op::RequestFull, ack(2), Op::RequestFull, ack(2)],
            ),
        ];
        for (name, resend, inputs, want) in cases {
            let mut p = Participant {
                done_resend: resend.then_some(SimDuration::from_millis(100)),
                ..Participant::default()
            };
            let mut w = World::new(false, false);
            let (mut cur, mut got) = (0, Vec::new());
            for input in inputs {
                step(&mut p, &mut w, &mut cur, input, false);
                got.append(&mut w.ops);
            }
            assert_eq!(w.failure, None, "{name}");
            assert_eq!(got, want, "{name}");
        }
    }
}
