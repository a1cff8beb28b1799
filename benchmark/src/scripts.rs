//! The four workloads: fixed closed-world scripts on a fresh
//! `Testbed::new(seed, 8)`, each split into a set-up phase and a measured
//! phase, each checking its own outputs.
//!
//! A script runs in one of three modes. `Full` is the workload. `NoCkpt`
//! (programs on, checkpoint-class operations off) and `Idle` (fixture
//! swapped in, nothing running) are the differential reps of the traced
//! run: they share the fixture and the `run_for` windows so that host-time
//! differences between modes are the cost of what was switched off.

use std::collections::BTreeMap;

use emulab::{ExperimentSpec, SnapshotId, Testbed};
use guestos::prog::FileId;
use guestos::Tid;
use sim::{audit_transparency, SimDuration, SimTime};
use workloads::{BtPeer, CpuLoop, FileWriter, IperfReceiver, IperfSender};

use crate::layers::{self, Lab, LayerAcc, Reenactor};
use crate::spans::{Tok, Tracer};

pub const WORKLOADS: [&str; 4] = ["iperf_ckpt", "bt_lan", "state_save", "state_load"];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    Full,
    NoCkpt,
    Idle,
}

#[derive(Clone, Copy)]
pub struct RepCfg {
    pub seed: u64,
    /// Scripts cut to about a fifth of their length (smoke runs).
    pub quick: bool,
    pub mode: Mode,
}

/// What one rep of a script produced.
pub struct Rep {
    /// Host seconds from rep start to the start of the measured phase.
    pub setup_s: f64,
    /// Host ms of the measured phase.
    pub host_ms: f64,
    /// Simulated seconds the measured phase advanced.
    pub sim_s: f64,
    /// Simulated ms of every checkpoint-class operation, in script order.
    pub op_sim_ms: Vec<f64>,
    /// Guest-visible application bytes moved in the measured phase.
    pub app_bytes: u64,
    pub attempted: u64,
    /// One message per failed operation or check.
    pub failures: Vec<String>,
    /// FNV-1a 64 of the telemetry CSV export at the end of the rep.
    pub fingerprint: u64,
    /// Per-layer values (traced reps only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Host ms of every step of the measured phase, in script order: each
    /// `run_for` slice and each checkpoint-class operation. Same seed, same
    /// steps, so step `i` of one rep is the same work as step `i` of another.
    pub steps_ms: Vec<f64>,
}

/// Slice length of `run_for` windows: each window is driven in slices so
/// the traced run can report the per-slice host-time distribution. Both
/// traced and untraced reps slice, so they execute identical calls.
const SLICE: SimDuration = SimDuration::from_millis(250);

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Per-rep measuring state shared by the scripts.
struct Run<'a> {
    tr: &'a mut Tracer,
    cfg: RepCfg,
    rep_tok: Tok,
    setup_tok: Option<Tok>,
    setup_s: f64,
    measured_tok: Option<Tok>,
    sim_start: SimTime,
    /// Host ms of every `run_for` slice in the measured phase.
    slices_ms: Vec<f64>,
    run_for_ms: f64,
    run_for_events: u64,
    op_seq: u32,
    op_sim_ms: Vec<f64>,
    /// `(kind, host ms, re-enacted children ms)` per checkpoint-class op.
    ops_host: Vec<(&'static str, f64, f64)>,
    app_bytes: u64,
    attempted: u64,
    failures: Vec<String>,
    acc: Option<LayerAcc>,
    reenact: Option<Reenactor>,
    /// Host ms the measured phase spent re-enacting (traced reps): taken
    /// out of its host time, so the traced rep stays comparable.
    reenact_ms: f64,
    steps_ms: Vec<f64>,
}

impl<'a> Run<'a> {
    fn begin(tr: &'a mut Tracer, cfg: RepCfg) -> Self {
        let rep_tok = tr.enter("rep", 0);
        let setup_tok = Some(tr.enter("setup", 0));
        Run {
            tr,
            cfg,
            rep_tok,
            setup_tok,
            setup_s: 0.0,
            measured_tok: None,
            sim_start: SimTime::ZERO,
            slices_ms: Vec::new(),
            run_for_ms: 0.0,
            run_for_events: 0,
            op_seq: 0,
            op_sim_ms: Vec::new(),
            ops_host: Vec::new(),
            app_bytes: 0,
            attempted: 0,
            failures: Vec::new(),
            acc: None,
            reenact: None,
            reenact_ms: 0.0,
            steps_ms: Vec::new(),
        }
    }

    fn full(&self) -> bool {
        self.cfg.mode == Mode::Full
    }

    fn programs(&self) -> bool {
        self.cfg.mode != Mode::Idle
    }

    /// A fresh testbed; the traced rep widens the trace ring so the
    /// critical-path analysis sees every round of the measured phase.
    fn testbed(&mut self) -> Testbed {
        let tb = Testbed::new(self.cfg.seed, 8);
        if self.tr.on() {
            tb.telemetry().set_trace_capacity(1 << 21);
        }
        tb
    }

    /// Ends set-up and starts the measured phase.
    fn start_measured(&mut self, tb: &Testbed, lab: Lab) {
        let tok = self.setup_tok.take().expect("set-up phase is open");
        self.setup_s = self.tr.exit(tok) / 1e3;
        if self.tr.on() {
            self.acc = Some(LayerAcc::new(tb, lab));
        }
        if let Some(r) = self.reenact.as_mut() {
            r.sampling = true;
        }
        self.sim_start = tb.now();
        self.measured_tok = Some(self.tr.enter("measured", 0));
    }

    /// True while the measured phase is open (set-up calls are not
    /// sampled).
    fn measuring(&self) -> bool {
        self.measured_tok.is_some()
    }

    /// `tb.run_for(d)`, in slices.
    fn run_for(&mut self, tb: &mut Testbed, d: SimDuration) {
        let tok = self.tr.enter("emulab.run_for", 0);
        let ev0 = tb.engine.events_dispatched();
        let mut left = d;
        while !left.is_zero() {
            let step = left.min(SLICE);
            let t = std::time::Instant::now();
            tb.run_for(step);
            if self.measuring() {
                let ms = t.elapsed().as_secs_f64() * 1e3;
                self.slices_ms.push(ms);
                self.steps_ms.push(ms);
            }
            left -= step;
        }
        let ms = self.tr.exit(tok);
        if self.measuring() {
            self.run_for_ms += ms;
            self.run_for_events += tb.engine.events_dispatched() - ev0;
            self.step_counts(tb);
        }
    }

    fn step_counts(&mut self, tb: &Testbed) {
        if let Some(acc) = self.acc.as_mut() {
            acc.step(tb);
        }
    }

    /// Times a checkpoint-class operation: `op` runs inside a span of its
    /// own and returns its simulated duration; `reenact` then repeats the
    /// operation's layer calls as children of that (closed) span.
    fn op<R>(
        &mut self,
        tb: &mut Testbed,
        kind: &'static str,
        op: impl FnOnce(&mut Testbed) -> (R, SimDuration),
        reenact: impl FnOnce(&mut Reenactor, &mut Tracer, Tok, &Testbed, &R) -> f64,
    ) -> R {
        self.op_seq += 1;
        let tok = self.tr.enter(kind, self.op_seq);
        let (result, sim) = op(tb);
        let ms = self.tr.exit(tok);
        let children_ms = self.reenacting(|r, tr| reenact(r, tr, tok, tb, &result));
        if self.measuring() {
            self.attempted += 1;
            self.op_sim_ms.push(sim.as_millis_f64());
            self.ops_host.push((kind, ms, children_ms));
            self.steps_ms.push(ms);
            self.step_counts(tb);
        }
        result
    }

    /// Runs `f` on the re-enactor of a traced state rep, keeping its host
    /// time out of the phase it runs in.
    fn reenacting(&mut self, f: impl FnOnce(&mut Reenactor, &mut Tracer) -> f64) -> f64 {
        let Some(r) = self.reenact.as_mut() else {
            return 0.0;
        };
        let t = std::time::Instant::now();
        let children_ms = f(r, self.tr);
        if self.measured_tok.is_some() {
            self.reenact_ms += t.elapsed().as_secs_f64() * 1e3;
        }
        children_ms
    }

    fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(msg());
        }
    }

    /// Ends the measured phase and the rep.
    fn finish(mut self, tb: &Testbed) -> Rep {
        let tok = self.measured_tok.take().expect("measured phase is open");
        let host_ms = self.tr.exit(tok) - self.reenact_ms;
        let sim_s = (tb.now() - self.sim_start).as_secs_f64();
        let fingerprint = fnv1a64(tb.telemetry().to_csv().as_bytes());
        let mut layer_vals = BTreeMap::new();
        if let Some(acc) = self.acc.take() {
            layers::collect(
                &mut layer_vals,
                tb,
                &acc,
                self.sim_start,
                &layers::HostTimes {
                    slices_ms: &self.slices_ms,
                    run_for_ms: self.run_for_ms,
                    run_for_events: self.run_for_events,
                    ops: &self.ops_host,
                },
                self.reenact.as_ref(),
            );
            layer_vals.insert("workloads.app_bytes", self.app_bytes as f64);
        }
        self.tr.exit(self.rep_tok);
        Rep {
            setup_s: self.setup_s,
            host_ms,
            sim_s,
            op_sim_ms: self.op_sim_ms,
            app_bytes: self.app_bytes,
            attempted: self.attempted,
            failures: self.failures,
            fingerprint,
            layers: layer_vals,
            steps_ms: self.steps_ms,
        }
    }
}

pub fn run_rep(workload: &str, cfg: RepCfg, tr: &mut Tracer) -> Rep {
    let run = Run::begin(tr, cfg);
    match workload {
        "iperf_ckpt" => iperf_ckpt(run),
        "bt_lan" => bt_lan(run),
        "state_save" => state_save(run),
        "state_load" => state_load(run),
        other => panic!("unknown workload {other}"),
    }
}

// ---------------------------------------------------------------------
// Network workloads: periodic coordinated checkpoints under traffic.
// ---------------------------------------------------------------------

/// TCP totals summed over `nodes`: (retransmissions, timeouts).
fn tcp_disturbance(tb: &Testbed, exp: &str, nodes: &[&str]) -> (u64, u64) {
    nodes.iter().fold((0, 0), |(r, t), n| {
        let tot = tb.kernel(exp, n, |k| k.net_totals());
        (r + tot.retransmissions, t + tot.timeouts)
    })
}

fn epoch_counters(tb: &Testbed) -> (u64, u64) {
    let c = |name| tb.telemetry().counter_value(name).unwrap_or(0);
    use sim::telemetry::names as n;
    (
        c(n::COORD_EPOCHS_COMMITTED),
        c(n::COORD_EPOCHS_ABORTED) + c(n::COORD_EPOCHS_DEGRADED),
    )
}

/// The measured phase both network workloads share: `rounds` periodic
/// checkpoints 5 s apart under the already-running traffic, then the
/// checks. `delivered` reads the application byte counter.
fn checkpointed_window(
    run: &mut Run<'_>,
    tb: &mut Testbed,
    exp: &str,
    nodes: &[&str],
    rounds: u64,
    delivered: &dyn Fn(&Testbed) -> u64,
) {
    let interval = secs(5);
    let (retx0, to0) = tcp_disturbance(tb, exp, nodes);
    let (committed0, failed0) = epoch_counters(tb);
    let bytes0 = delivered(tb);
    let t0 = tb.now();
    if run.full() {
        tb.start_periodic_checkpoints(interval);
    }
    // The last round is kicked at the end of the window; half a second
    // more lets it commit inside the measured phase.
    run.run_for(tb, interval * rounds + SimDuration::from_millis(500));
    if run.full() {
        tb.stop_periodic_checkpoints();
    }
    run.app_bytes = delivered(tb) - bytes0;
    if !run.full() {
        return;
    }

    let (committed, failed) = epoch_counters(tb);
    let (committed, failed) = (committed - committed0, failed - failed0);
    run.attempted += rounds;
    if committed != rounds || failed != 0 {
        run.failures.push(format!(
            "expected {rounds} committed rounds, saw {committed} committed and {failed} aborted/degraded"
        ));
    }
    // notify → resume released, from the coordinator's own epoch spans.
    run.op_sim_ms = tb
        .telemetry()
        .span_records()
        .iter()
        .filter(|s| s.name == "coordinator/epoch" && s.start >= t0)
        .map(|s| (s.end - s.start).as_millis_f64())
        .collect();
    let n_spans = run.op_sim_ms.len() as u64;
    run.check(n_spans == rounds, || {
        format!("expected {rounds} epoch spans, saw {n_spans}")
    });
    let (retx, to) = tcp_disturbance(tb, exp, nodes);
    run.check(retx == retx0 && to == to0, || {
        format!(
            "checkpoints disturbed TCP: {} retransmissions, {} timeouts",
            retx - retx0,
            to - to0
        )
    });
    let audit = audit_transparency(tb.telemetry());
    run.check(audit.passed(), || {
        format!("transparency audit: {}", audit.verdict())
    });
}

const IPERF_LAB: Lab = &[("ip", &["a", "b"])];

/// Paper Fig 6: a bulk TCP stream over a shaped gigabit link (one delay
/// node), checkpointed every 5 s.
fn iperf_ckpt(mut run: Run<'_>) -> Rep {
    let mut tb = run.testbed();
    let spec = ExperimentSpec::new("ip").node("a").node("b").link(
        "a",
        "b",
        1_000_000_000,
        SimDuration::from_micros(100),
        0.0,
    );
    tb.swap_in(spec).expect("swap-in");
    run.run_for(&mut tb, secs(2));
    if run.programs() {
        let b_addr = tb.node_addr("ip", "b");
        tb.spawn("ip", "b", Box::new(IperfReceiver::new(5001)));
        tb.spawn("ip", "a", Box::new(IperfSender::new(b_addr, 5001)));
    }
    run.run_for(&mut tb, secs(3));

    run.start_measured(&tb, IPERF_LAB);
    let rounds = if run.cfg.quick { 2 } else { 8 };
    checkpointed_window(&mut run, &mut tb, "ip", &["a", "b"], rounds, &|tb| {
        tb.kernel("ip", "b", |k| k.net_totals().bytes_delivered)
    });
    run.finish(&tb)
}

const BT_LAB: Lab = &[("bt", &["seeder", "c1", "c2", "c3"])];
const BT_CLIENTS: [&str; 3] = ["c1", "c2", "c3"];

/// Paper Fig 7: one seeder and three leechers on a 100 Mbps LAN share a
/// 3 GB file in 128 KiB pieces.
fn bt_lan(mut run: Run<'_>) -> Rep {
    let mut tb = run.testbed();
    let spec = ExperimentSpec::new("bt")
        .node("seeder")
        .node("c1")
        .node("c2")
        .node("c3")
        .lan(
            &["seeder", "c1", "c2", "c3"],
            100_000_000,
            SimDuration::from_micros(50),
        );
    tb.swap_in(spec).expect("swap-in");
    run.run_for(&mut tb, secs(5));
    let mut tids: Vec<(&str, Tid)> = Vec::new();
    if run.programs() {
        let piece = 128 * 1024u64;
        let npieces = ((3u64 << 30) / piece) as u32;
        let seeder = tb.node_addr("bt", "seeder");
        for (i, c) in BT_CLIENTS.iter().enumerate() {
            let mut peers = vec![seeder];
            for (j, o) in BT_CLIENTS.iter().enumerate() {
                if j != i {
                    peers.push(tb.node_addr("bt", o));
                }
            }
            let peer = BtPeer::leecher(6881, peers, npieces, piece, FileId(1));
            tids.push((c, tb.spawn("bt", c, Box::new(peer))));
        }
        tb.spawn(
            "bt",
            "seeder",
            Box::new(BtPeer::seeder(6881, npieces, piece, FileId(1))),
        );
    }
    run.run_for(&mut tb, secs(5));

    run.start_measured(&tb, BT_LAB);
    let rounds = if run.cfg.quick { 1 } else { 3 };
    checkpointed_window(&mut run, &mut tb, "bt", &BT_CLIENTS, rounds, &|tb| {
        tids.iter()
            .map(|(c, tid)| {
                tb.kernel("bt", c, |k| {
                    let p = k.prog(*tid).expect("leecher thread");
                    p.as_any()
                        .downcast_ref::<BtPeer>()
                        .expect("BtPeer")
                        .downloaded_bytes()
                })
            })
            .sum()
    });
    run.finish(&tb)
}

// ---------------------------------------------------------------------
// State workloads: the write and the read use of the state path.
// ---------------------------------------------------------------------

const STATE_LAB: Lab = &[("tt", &["a", "b"]), ("sw", &["n"])];

/// The `state_lab` fixture and what the capture script leaves behind.
struct StateLab {
    tb: Testbed,
    cpu_tid: Option<Tid>,
    /// `(snapshot, CpuLoop sample count right after it)`.
    snaps: Vec<(SnapshotId, usize)>,
}

impl StateLab {
    /// Experiment `tt` (nodes a,b on a shaped link; a CPU loop on a, a
    /// looping 64 MB file writer on b) and experiment `sw` (one node, one
    /// 275 MB write session — §7.2's session size).
    fn build(run: &mut Run<'_>) -> StateLab {
        let mut tb = run.testbed();
        let tt = ExperimentSpec::new("tt").node("a").node("b").link(
            "a",
            "b",
            100_000_000,
            SimDuration::from_millis(1),
            0.0,
        );
        tb.swap_in(tt).expect("swap-in tt");
        tb.swap_in(ExperimentSpec::new("sw").node("n"))
            .expect("swap-in sw");
        run.run_for(&mut tb, secs(2));
        let mut cpu_tid = None;
        if run.programs() {
            cpu_tid = Some(tb.spawn("tt", "a", Box::new(CpuLoop::new(100_000_000, 1_000_000))));
            tb.spawn(
                "tt",
                "b",
                Box::new(FileWriter::new(FileId(1), 64 << 20).looping()),
            );
            tb.spawn("sw", "n", Box::new(FileWriter::new(FileId(1), 275 << 20)));
        }
        run.run_for(&mut tb, secs(3));
        StateLab {
            tb,
            cpu_tid,
            snaps: Vec::new(),
        }
    }

    fn cpu_samples(&self) -> usize {
        let tid = self.cpu_tid.expect("programs are running");
        self.tb.kernel("tt", "a", |k| {
            let p = k.prog(tid).expect("cpu loop thread");
            p.as_any()
                .downcast_ref::<CpuLoop>()
                .expect("CpuLoop")
                .samples
                .len()
        })
    }

    /// A `run_for` window; blocks the looping writer on tt/b pushed to its
    /// virtual disk inside the window count as application bytes. Deltas
    /// are taken per window, so a `travel_to` roll-back never counts.
    fn window(&mut self, run: &mut Run<'_>, d: SimDuration) {
        let writes = |tb: &Testbed| layers::host(tb, "tt", "b").store().stats.writes;
        let w0 = writes(&self.tb);
        run.run_for(&mut self.tb, d);
        if run.measuring() {
            let bs = layers::host(&self.tb, "tt", "b").store().block_size() as u64;
            run.app_bytes += (writes(&self.tb) - w0) * bs;
        }
    }

    /// The capture script: snapshots of `tt` 2 s apart, a long quiet
    /// stretch, then the stateful swap-out of `sw`.
    fn capture(&mut self, run: &mut Run<'_>) {
        let (snaps, quiet) = if run.cfg.quick { (2, 20) } else { (10, 100) };
        for i in 0..snaps {
            self.window(run, secs(2));
            if !run.full() {
                continue;
            }
            let id = run.op(
                &mut self.tb,
                "emulab.snapshot",
                |tb| {
                    let t0 = tb.now();
                    let id = tb.snapshot("tt", &format!("s{i}"));
                    (id, tb.now() - t0)
                },
                |r, tr, tok, tb, id| r.after_snapshot(tr, tok, tb, *id),
            );
            self.snaps.push((id, self.cpu_samples()));
        }
        self.window(run, secs(quiet));
        if !run.full() {
            return;
        }
        run.op(
            &mut self.tb,
            "emulab.swap_out",
            |tb| ((), tb.swap_out_stateful("sw").total),
            |r, tr, tok, tb, ()| r.after_swap_out(tr, tok, tb),
        );
        if run.measuring() {
            let len = self.tb.experiment("tt").tt.len();
            run.check(len == snaps, || {
                format!("expected {snaps} snapshots in the tree, found {len}")
            });
            let swapped = self.tb.swapped_state("sw").is_some() && !self.tb.swapped_in("sw");
            run.check(swapped, || {
                "swap-out left no preserved state for sw".to_string()
            });
        }
    }
}

/// §5 stateful swap-out and §6 time-travel capture.
fn state_save(mut run: Run<'_>) -> Rep {
    if run.tr.on() {
        run.reenact = Some(Reenactor::new(false));
    }
    let mut lab = StateLab::build(&mut run);
    run.start_measured(&lab.tb, STATE_LAB);
    lab.capture(&mut run);
    run.finish(&lab.tb)
}

/// The read side of the same layers: lazy stateful swap-in, then time
/// travel across the ten snapshots in a scattered order.
fn state_load(mut run: Run<'_>) -> Rep {
    if run.tr.on() {
        run.reenact = Some(Reenactor::new(true));
    }
    let mut lab = StateLab::build(&mut run);
    // Capture is set-up here: its cost shows in `setup_s`.
    lab.capture(&mut run);
    run.start_measured(&lab.tb, STATE_LAB);

    if run.full() {
        // The swap-in releases the preserved images; keep a copy to
        // re-enact on.
        run.reenacting(|r, _| {
            r.before_swap_in(&lab.tb);
            0.0
        });
        let warning = run.op(
            &mut lab.tb,
            "emulab.swap_in",
            |tb| {
                let report = tb.swap_in_stateful("sw", true);
                (report.warning, report.total)
            },
            |r, tr, tok, _, _| r.after_swap_in(tr, tok),
        );
        if let Some(w) = warning {
            run.failures
                .push(format!("stateful swap-in degraded: {w:?}"));
        }
    }
    let travels = if run.cfg.quick { 3 } else { 12 };
    for k in 0..travels {
        if run.full() {
            let (snap, recorded) = lab.snaps[(7 * k + 3) % lab.snaps.len()];
            let result = run.op(
                &mut lab.tb,
                "emulab.travel_to",
                |tb| {
                    let t0 = tb.now();
                    let result = tb.try_travel_to("tt", snap);
                    (result, tb.now() - t0)
                },
                |r, tr, tok, _, _| r.after_travel(tr, tok, snap),
            );
            match result {
                Err(e) => run.failures.push(format!("travel to {snap:?} failed: {e}")),
                Ok(()) => {
                    // The count was read 10 ms of guest time after the
                    // capture, this one 1 ms after the restore: at most
                    // one 100 ms iteration apart.
                    let restored = lab.cpu_samples();
                    if restored > recorded || restored + 1 < recorded {
                        run.failures.push(format!(
                            "travel to {snap:?} restored {restored} CpuLoop samples, snapshot had {recorded}"
                        ));
                    }
                }
            }
        }
        lab.window(&mut run, secs(1));
    }
    run.finish(&lab.tb)
}
