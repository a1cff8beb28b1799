//! Per-layer metrics of the traced run: counters read at the layer
//! boundaries, host time of layer calls re-enacted on the real bytes, and
//! stand-alone probes of the hot inner paths. Everything here goes through
//! public functions and public counters of the crates; nothing in the
//! program is instrumented.

use std::any::Any;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use checkpoint::DelayNodeHost;
use ckptstore::{CaptureCache, ChunkStore, Dec, Enc, ImageId, StoreClient};
use cowstore::{BlockData, BranchingStore, CowMode, GoldenImage, GoldenImageBuilder, StoreLayout};
use dummynet::{Dummynet, PipeConfig};
use emulab::{SnapshotId, Testbed};
use guestos::GuestResidue;
use hwsim::{Disk, DiskProfile, DiskQueue, Frame, NodeAddr};
use sim::telemetry::{critpath, names};
use sim::{audit_transparency, Component, Ctx, Engine, SimDuration, SimRng, SimTime};
use vmm::{DomainImage, VmHost};

use crate::spans::{Tok, Tracer};
use crate::stats::{median, percentile};

/// Experiments of a workload and their nodes.
pub type Lab = &'static [(&'static str, &'static [&'static str])];

pub fn host<'a>(tb: &'a Testbed, exp: &str, node: &str) -> &'a VmHost {
    tb.engine
        .component_ref::<VmHost>(tb.host_id(exp, node))
        .expect("node host")
}

// ---------------------------------------------------------------------
// Counters.
// ---------------------------------------------------------------------

const FRAMES: usize = 0;
const DISK_IOS: usize = 1;
const TCP_SEGMENTS: usize = 2;
const RETRANSMISSIONS: usize = 3;
const TIMEOUTS: usize = 4;
const COW_WRITES: usize = 5;
const COW_READS: usize = 6;
const DN_FORWARDED: usize = 7;
const N_COUNTS: usize = 8;

/// Counters that live in host, kernel, store and delay-node state. That
/// state is rolled back by `travel_to` and dropped by swap-out, so they
/// are accumulated as per-step deltas, a step that went backwards
/// counting as zero.
fn read_counts(tb: &Testbed, lab: Lab) -> [u64; N_COUNTS] {
    let mut c = [0u64; N_COUNTS];
    for (exp, nodes) in lab {
        if !tb.swapped_in(exp) {
            continue;
        }
        for node in *nodes {
            let h = host(tb, exp, node);
            c[FRAMES] += h.stats.frames_tx + h.stats.frames_rx;
            c[DISK_IOS] += h.stats.block_batches;
            let net = h.kernel().net_totals();
            c[TCP_SEGMENTS] += net.segments_sent;
            c[RETRANSMISSIONS] += net.retransmissions;
            c[TIMEOUTS] += net.timeouts;
            c[COW_WRITES] += h.store().stats.writes;
            c[COW_READS] += h.store().stats.reads;
        }
        for dn in &tb.experiment(exp).delay_nodes {
            let d = tb
                .engine
                .component_ref::<DelayNodeHost>(dn.component)
                .expect("delay node");
            c[DN_FORWARDED] += d.stats.forwarded;
        }
    }
    c
}

/// Telemetry counters the layer metrics read. They are monotonic; their
/// measured-phase value is a plain end − start.
const TELE_COUNTERS: [&str; 8] = [
    names::VMHOST_FREEZES,
    names::DN_LOGGED_FRAMES,
    names::COORD_EPOCHS_COMMITTED,
    names::COORD_EPOCHS_ABORTED,
    names::COORD_EPOCHS_DEGRADED,
    names::COW_SEAL_MERGED_BLOCKS,
    names::CKPT_LOGICAL_BYTES,
    names::CKPT_NEW_PHYSICAL_BYTES,
];

fn read_tele(tb: &Testbed) -> [u64; TELE_COUNTERS.len()] {
    TELE_COUNTERS.map(|name| tb.telemetry().counter_value(name).unwrap_or(0))
}

pub struct LayerAcc {
    lab: Lab,
    prev: [u64; N_COUNTS],
    total: [u64; N_COUNTS],
    tele0: [u64; TELE_COUNTERS.len()],
    events0: u64,
    /// Freezes each node of the first experiment had seen at the start.
    freezes0: usize,
}

impl LayerAcc {
    pub fn new(tb: &Testbed, lab: Lab) -> Self {
        let (exp, nodes) = lab[0];
        LayerAcc {
            lab,
            prev: read_counts(tb, lab),
            total: [0; N_COUNTS],
            tele0: read_tele(tb),
            events0: tb.engine.events_dispatched(),
            freezes0: host(tb, exp, nodes[0]).stats.freeze_history.len(),
        }
    }

    pub fn step(&mut self, tb: &Testbed) {
        let now = read_counts(tb, self.lab);
        for (total, (now, prev)) in self.total.iter_mut().zip(now.iter().zip(&self.prev)) {
            *total += now.saturating_sub(*prev);
        }
        self.prev = now;
    }
}

/// Host-time samples the script took around its own calls.
pub struct HostTimes<'a> {
    pub slices_ms: &'a [f64],
    pub run_for_ms: f64,
    pub run_for_events: u64,
    /// `(kind, host ms, re-enacted children ms)` per checkpoint-class op.
    pub ops: &'a [(&'static str, f64, f64)],
}

/// Fills `out` with every per-layer value a traced rep can give.
pub fn collect(
    out: &mut BTreeMap<&'static str, f64>,
    tb: &Testbed,
    acc: &LayerAcc,
    measured_from: SimTime,
    times: &HostTimes<'_>,
    reenact: Option<&Reenactor>,
) {
    // emulab: host time of the front-door calls.
    out.insert("emulab.run_for.host_ms", times.run_for_ms);
    out.insert(
        "emulab.run_for.slice_ms_p50",
        percentile(times.slices_ms, 50.0),
    );
    out.insert(
        "emulab.run_for.slice_ms_p90",
        percentile(times.slices_ms, 90.0),
    );
    let of = |kind: &str| -> Vec<f64> {
        times
            .ops
            .iter()
            .filter(|o| o.0 == kind)
            .map(|o| o.1)
            .collect()
    };
    for (kind, p50, p90) in [
        (
            "emulab.snapshot",
            "emulab.snapshot.host_ms_p50",
            "emulab.snapshot.host_ms_p90",
        ),
        (
            "emulab.travel_to",
            "emulab.travel_to.host_ms_p50",
            "emulab.travel_to.host_ms_p90",
        ),
    ] {
        let v = of(kind);
        if !v.is_empty() {
            out.insert(p50, percentile(&v, 50.0));
            out.insert(p90, percentile(&v, 90.0));
        }
    }
    for (kind, name) in [
        ("emulab.swap_out", "emulab.swap_out.host_ms"),
        ("emulab.swap_in", "emulab.swap_in.host_ms"),
    ] {
        if let Some(ms) = of(kind).first() {
            out.insert(name, *ms);
        }
    }
    if !times.ops.is_empty() {
        let selfs: Vec<f64> = times.ops.iter().map(|o| o.1 - o.2).collect();
        out.insert("emulab.op_self_ms", median(&selfs));
    }

    // sim: events and host time per event inside the run_for windows.
    out.insert(
        "sim.events",
        (tb.engine.events_dispatched() - acc.events0) as f64,
    );
    if times.run_for_events > 0 {
        let ns = times.run_for_ms * 1e6;
        out.insert("sim.host_ns_per_event", ns / times.run_for_events as f64);
        out.insert(
            "sim.events_per_host_s",
            times.run_for_events as f64 / (ns / 1e9),
        );
    }

    for (name, i) in [
        ("hwsim.frames", FRAMES),
        ("hwsim.disk_ios", DISK_IOS),
        ("guestos.tcp_segments", TCP_SEGMENTS),
        ("guestos.retransmissions", RETRANSMISSIONS),
        ("guestos.timeouts", TIMEOUTS),
        ("cowstore.writes", COW_WRITES),
        ("cowstore.reads", COW_READS),
        ("dummynet.forwarded", DN_FORWARDED),
    ] {
        out.insert(name, acc.total[i] as f64);
    }
    let tele = read_tele(tb);
    let delta = |name: &str| -> f64 {
        let i = TELE_COUNTERS
            .iter()
            .position(|n| *n == name)
            .expect("listed counter");
        (tele[i] - acc.tele0[i]) as f64
    };
    out.insert("vmm.freezes", delta(names::VMHOST_FREEZES));
    out.insert("dummynet.logged_frames", delta(names::DN_LOGGED_FRAMES));
    out.insert(
        "checkpoint.epochs_committed",
        delta(names::COORD_EPOCHS_COMMITTED),
    );
    out.insert(
        "checkpoint.epochs_failed",
        delta(names::COORD_EPOCHS_ABORTED) + delta(names::COORD_EPOCHS_DEGRADED),
    );
    out.insert(
        "cowstore.seal_merged_blocks",
        delta(names::COW_SEAL_MERGED_BLOCKS),
    );
    out.insert(
        "guestos.audit_violations",
        audit_transparency(tb.telemetry()).violations.len() as f64,
    );

    // clocksync: how far apart the nodes of one round froze.
    let (exp, nodes) = acc.lab[0];
    if tb.swapped_in(exp) {
        let hist: Vec<&[SimTime]> = nodes
            .iter()
            .map(|n| &host(tb, exp, n).stats.freeze_history[acc.freezes0..])
            .collect();
        let rounds = hist.iter().map(|h| h.len()).min().unwrap_or(0);
        let skew = (0..rounds)
            .map(|r| {
                let at = hist.iter().map(|h| h[r]);
                let (lo, hi) = (at.clone().min().expect("nodes"), at.max().expect("nodes"));
                (hi - lo).as_micros_f64()
            })
            .fold(0.0, f64::max);
        out.insert("clocksync.skew_sim_us_max", skew);
    }

    // vmm: real downtime of every freeze in the measured phase.
    let downtimes: Vec<f64> = tb
        .telemetry()
        .span_records()
        .iter()
        .filter(|s| s.name == "vmhost/freeze" && s.start >= measured_from)
        .map(|s| (s.end - s.start).as_millis_f64())
        .collect();
    if !downtimes.is_empty() {
        out.insert("vmm.downtime_sim_ms_p50", median(&downtimes));
    }

    // checkpoint: where each round's simulated time went.
    let paths: Vec<critpath::EpochPath> = critpath::analyze(&tb.telemetry().trace_events())
        .into_iter()
        .filter(|p| p.begin_ns >= measured_from.as_nanos())
        .collect();
    if !paths.is_empty() {
        let us = |f: fn(&critpath::EpochPath) -> u64| -> f64 {
            median(&paths.iter().map(|p| f(p) as f64 / 1e3).collect::<Vec<_>>())
        };
        out.insert(
            "checkpoint.notify_to_acks_sim_us_p50",
            us(|p| p.notify_fanout_ns),
        );
        out.insert(
            "checkpoint.barrier_hold_sim_us_p50",
            us(|p| p.barrier_hold_ns),
        );
        let wall: u64 = paths.iter().map(|p| p.wall_ns()).sum();
        let capture: u64 = paths.iter().map(|p| p.capture_wait_ns).sum();
        out.insert(
            "checkpoint.capture_wait_sim_pct",
            100.0 * capture as f64 / wall as f64,
        );
    }

    // ckptstore / codecs: the re-enactments' own accounting, plus what
    // the file server's store saw (its counters are in the registry).
    let mut logical = delta(names::CKPT_LOGICAL_BYTES);
    let mut new_physical = delta(names::CKPT_NEW_PHYSICAL_BYTES);
    if let Some(r) = reenact {
        logical += r.tree_logical as f64;
        new_physical += r.tree_new_physical as f64;
        r.report(out);
    }
    if logical > 0.0 {
        out.insert("ckptstore.logical_mb", logical / 1e6);
        out.insert("ckptstore.new_physical_mb", new_physical / 1e6);
    }
}

// ---------------------------------------------------------------------
// Re-enactment of the state path on the operation's own bytes.
// ---------------------------------------------------------------------

/// Image kind tags the testbed writes (`emulab::timetravel`, `emulab::swap`);
/// repeated here so the re-enacted bytes equal the stored ones.
const NODE_IMAGE_KIND: &str = "emulab.tt-node";
const SWAP_IMAGE_KIND: &str = "emulab.swap-node";

/// One re-enacted node image in the side store.
struct SideImage {
    id: ImageId,
    residue: GuestResidue,
}

/// The kinds of re-enacted child, and the metric each reports under.
const VMM_ENCODE: usize = 0;
const VMM_DECODE: usize = 1;
const COW_ENCODE: usize = 2;
const COW_DECODE: usize = 3;
const PUT: usize = 4;
const LOAD: usize = 5;
const CHILD_HOST_MS: [&str; 6] = [
    "vmm.encode.host_ms",
    "vmm.decode.host_ms",
    "cowstore.encode.host_ms",
    "cowstore.decode.host_ms",
    "ckptstore.put.host_ms",
    "ckptstore.load.host_ms",
];

/// Host time and bytes of one kind of re-enacted child, per operation.
#[derive(Default)]
struct Timing {
    ops: Vec<(f64, u64)>,
}

impl Timing {
    /// Adds a child to the operation opened last.
    fn add(&mut self, ms: f64, bytes: usize) {
        let op = self.ops.last_mut().expect("an operation is open");
        op.0 += ms;
        op.1 += bytes as u64;
    }

    /// The operations that had this kind of child.
    fn used(&self) -> impl Iterator<Item = &(f64, u64)> {
        self.ops.iter().filter(|op| op.1 > 0)
    }

    /// Median host ms per operation. The median, because the last
    /// re-enactments of a rep run on memory the process has never touched
    /// and cost several times the rest.
    fn ms_per_op(&self) -> Option<f64> {
        let ms: Vec<f64> = self.used().map(|op| op.0).collect();
        (!ms.is_empty()).then(|| median(&ms))
    }

    fn mb_per_s(&self) -> Option<f64> {
        let rates: Vec<f64> = self
            .used()
            .map(|op| op.1 as f64 / 1e6 / (op.0 / 1e3))
            .collect();
        (!rates.is_empty()).then(|| median(&rates))
    }
}

/// Repeats, right after (or before) a `Testbed` state operation, the
/// layer calls that operation makes — on the same images, against side
/// stores built like the testbed's — and times each one.
pub struct Reenactor {
    /// Built like a time-travel tree's store (`StoreClient::default()`).
    tree_store: StoreClient,
    tree_caches: Vec<CaptureCache>,
    /// Built like the file server's store (two shards), minus telemetry.
    fs_store: StoreClient,
    fs_cache: CaptureCache,
    /// Whether every snapshot's side image is kept (the read workload
    /// re-enacts loads of them) or only the latest one (enough for the next
    /// put to deduplicate against, and the side store then grows no faster
    /// than one image, as a put in the real tree costs).
    retain: bool,
    snaps: BTreeMap<usize, Vec<SideImage>>,
    /// Preserved images of the swapped-out experiment, in the side store.
    swapped: Vec<SideImage>,
    golden: Option<Arc<GoldenImage>>,
    pub tree_logical: u64,
    pub tree_new_physical: u64,
    tree_dedup_ratio: f64,
    image_bytes: Vec<f64>,
    /// Indexed by child kind.
    timings: [Timing; 6],
    /// Only samples taken in the measured phase are reported.
    pub sampling: bool,
}

impl Reenactor {
    pub fn new(retain: bool) -> Self {
        Reenactor {
            retain,
            tree_store: ChunkStore::builder().build(),
            tree_caches: Vec::new(),
            fs_store: ChunkStore::builder().shards(2).build(),
            fs_cache: CaptureCache::new(),
            snaps: BTreeMap::new(),
            swapped: Vec::new(),
            golden: None,
            tree_logical: 0,
            tree_new_physical: 0,
            tree_dedup_ratio: 0.0,
            image_bytes: Vec::new(),
            timings: Default::default(),
            sampling: false,
        }
    }

    /// Opens a sampled operation on every child kind.
    fn begin_op(&mut self) {
        if self.sampling {
            for t in &mut self.timings {
                t.ops.push((0.0, 0));
            }
        }
    }

    /// `snapshot`: encode each node's frozen domain and its branching
    /// store, put the image through the node's capture cache.
    pub fn after_snapshot(
        &mut self,
        tr: &mut Tracer,
        op: Tok,
        tb: &Testbed,
        snap: SnapshotId,
    ) -> f64 {
        self.begin_op();
        let mut children = 0.0;
        let mut op_bytes = 0;
        let mut images = Vec::new();
        let nodes: Vec<_> = tb.experiment("tt").nodes.iter().map(|n| n.host).collect();
        self.tree_caches.resize_with(nodes.len(), CaptureCache::new);
        for (i, id) in nodes.into_iter().enumerate() {
            let h = tb.engine.component_ref::<VmHost>(id).expect("node host");
            let image = h.last_image().expect("snapshot captured an image");
            let mut residue = GuestResidue::new();
            let mut e = Enc::new();
            e.begin_image(NODE_IMAGE_KIND);
            let (_, ms) = tr.reenact(op, "vmm.encode", || image.encode_wire(&mut e, &mut residue));
            let domain_len = e.len();
            let (_, ms2) = tr.reenact(op, "cowstore.encode", || h.store().encode_wire(&mut e));
            let bytes = e.into_bytes();
            let cache = &mut self.tree_caches[i];
            let (put, ms3) = tr.reenact(op, "ckptstore.put", || {
                self.tree_store.put_image_cached(&bytes, cache)
            });
            children += ms + ms2 + ms3;
            op_bytes += bytes.len();
            if self.sampling {
                self.timings[VMM_ENCODE].add(ms, domain_len);
                self.timings[COW_ENCODE].add(ms2, bytes.len() - domain_len);
                self.timings[PUT].add(ms3, bytes.len());
            }
            if self.golden.is_none() {
                let name = &tb.experiment("tt").spec.nodes[i].image;
                let (blocks, bs) = (h.store().blocks(), h.store().block_size());
                self.golden = Some(Arc::new(
                    GoldenImageBuilder::new(name, blocks, bs, 0).build(),
                ));
            }
            images.push(SideImage {
                id: put.image,
                residue,
            });
        }
        if self.sampling {
            self.image_bytes.push(op_bytes as f64);
            // What the real tree stored for this snapshot.
            let stored = tb.experiment("tt").tt.get(snap);
            self.tree_logical += stored.logical_bytes;
            self.tree_new_physical += stored.new_physical_bytes;
        }
        if !self.retain {
            for old in std::mem::take(&mut self.snaps).into_values().flatten() {
                self.tree_store
                    .remove_image(old.id)
                    .expect("side image is live");
            }
        }
        self.snaps.insert(snap.0, images);
        self.tree_dedup_ratio = tb.experiment("tt").tt.stats().dedup_ratio;
        children
    }

    /// `travel_to`: load and verify each node image, decode the domain and
    /// the branching store.
    pub fn after_travel(&mut self, tr: &mut Tracer, op: Tok, snap: SnapshotId) -> f64 {
        self.begin_op();
        let mut children = 0.0;
        let golden = self.golden.clone().expect("a snapshot was re-enacted");
        for img in &self.snaps[&snap.0] {
            let (bytes, ms) =
                tr.reenact(op, "ckptstore.load", || self.tree_store.load_image(img.id));
            let bytes = bytes.expect("side store image loads");
            let mut d = Dec::new(&bytes);
            d.expect_image(NODE_IMAGE_KIND).expect("image header");
            let (image, ms2) = tr.reenact(op, "vmm.decode", || {
                DomainImage::decode_wire(&mut d, &img.residue)
            });
            let domain_len = d.position();
            let (store, ms3) = tr.reenact(op, "cowstore.decode", || {
                BranchingStore::decode_wire(&mut d, golden.clone())
            });
            black_box((
                image.expect("domain decodes"),
                store.expect("store decodes"),
            ));
            children += ms + ms2 + ms3;
            if self.sampling {
                self.timings[LOAD].add(ms, bytes.len());
                self.timings[VMM_DECODE].add(ms2, domain_len);
                self.timings[COW_DECODE].add(ms3, bytes.len() - domain_len);
            }
        }
        children
    }

    /// `swap_out_stateful`: the preserved domain images are on the file
    /// server now; decode one back to time the encode and the put.
    pub fn after_swap_out(&mut self, tr: &mut Tracer, op: Tok, tb: &Testbed) -> f64 {
        self.begin_op();
        let mut children = 0.0;
        let swapped = tb.swapped_state("sw").expect("sw was swapped out");
        for node in &swapped.nodes {
            let stored = tb
                .fileserver_store()
                .load_image(node.image_id)
                .expect("stored image");
            let mut d = Dec::new(&stored);
            d.expect_image(SWAP_IMAGE_KIND).expect("image header");
            let image = DomainImage::decode_wire(&mut d, &node.residue).expect("domain decodes");
            let mut e = Enc::new();
            e.begin_image(SWAP_IMAGE_KIND);
            let mut residue = GuestResidue::new();
            let (_, ms) = tr.reenact(op, "vmm.encode", || image.encode_wire(&mut e, &mut residue));
            let bytes = e.into_bytes();
            let cache = &mut self.fs_cache;
            let (put, ms2) = tr.reenact(op, "ckptstore.put", || {
                self.fs_store.put_image_cached(&bytes, cache)
            });
            black_box(put);
            children += ms + ms2;
            if self.sampling {
                self.timings[VMM_ENCODE].add(ms, bytes.len());
                self.timings[PUT].add(ms2, bytes.len());
                self.image_bytes.push(bytes.len() as f64);
            }
        }
        children
    }

    /// Copies the preserved images of `sw` into the side store: the
    /// swap-in about to run releases them.
    pub fn before_swap_in(&mut self, tb: &Testbed) {
        let swapped = tb.swapped_state("sw").expect("sw is swapped out");
        for node in &swapped.nodes {
            let bytes = tb
                .fileserver_store()
                .load_image(node.image_id)
                .expect("stored image loads");
            let id = self.fs_store.put_image(&bytes).image;
            self.swapped.push(SideImage {
                id,
                residue: node.residue.clone(),
            });
        }
    }

    /// `swap_in_stateful`: load and verify each preserved image, decode
    /// the domain.
    pub fn after_swap_in(&mut self, tr: &mut Tracer, op: Tok) -> f64 {
        self.begin_op();
        let mut children = 0.0;
        for img in &self.swapped {
            let (bytes, ms) = tr.reenact(op, "ckptstore.load", || self.fs_store.load_image(img.id));
            let bytes = bytes.expect("side store image loads");
            let mut d = Dec::new(&bytes);
            d.expect_image(SWAP_IMAGE_KIND).expect("image header");
            let (image, ms2) = tr.reenact(op, "vmm.decode", || {
                DomainImage::decode_wire(&mut d, &img.residue)
            });
            black_box(image.expect("domain decodes"));
            children += ms + ms2;
            if self.sampling {
                self.timings[LOAD].add(ms, bytes.len());
                self.timings[VMM_DECODE].add(ms2, bytes.len());
            }
        }
        children
    }

    fn report(&self, out: &mut BTreeMap<&'static str, f64>) {
        if !self.image_bytes.is_empty() {
            out.insert("vmm.image_mb", median(&self.image_bytes) / 1e6);
        }
        for (name, t) in CHILD_HOST_MS.iter().zip(&self.timings) {
            if let Some(ms) = t.ms_per_op() {
                out.insert(name, ms);
            }
        }
        if let Some(rate) = self.timings[PUT].mb_per_s() {
            out.insert("ckptstore.put.mb_per_s", rate);
        }
        if let Some(rate) = self.timings[LOAD].mb_per_s() {
            out.insert("ckptstore.load.mb_per_s", rate);
        }
        if self.tree_dedup_ratio > 0.0 {
            out.insert("ckptstore.dedup_ratio", self.tree_dedup_ratio);
        }
        let (hits, misses) = self
            .tree_caches
            .iter()
            .chain(std::iter::once(&self.fs_cache))
            .fold((0, 0), |(h, m), c| (h + c.hits(), m + c.misses()));
        if hits + misses > 0 {
            out.insert(
                "ckptstore.hash_cache_hit_pct",
                100.0 * hits as f64 / (hits + misses) as f64,
            );
        }
    }
}

// ---------------------------------------------------------------------
// Probes: the hot inner path of a layer, alone, on a fixed input.
// ---------------------------------------------------------------------

/// Self-reposting periodic source: the dispatch path every simulated
/// NIC, timer and tick shares.
struct Ticker {
    period: SimDuration,
}

impl Component for Ticker {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: sim::Payload) {
        let n = payload.downcast::<u64>().expect("tick payload");
        ctx.post_self(self.period, n + 1);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Arms three timeouts and cancels all three on every dispatch: the TCP
/// retransmit-timer pattern.
struct Churner {
    period: SimDuration,
    cancels: u64,
}

impl Component for Churner {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: sim::Payload) {
        let n = payload.downcast::<u64>().expect("churn payload");
        let t1 = ctx.post_self(self.period * 3, n);
        let t2 = ctx.post_self(self.period * 5, n);
        let t3 = ctx.post_self(self.period * 7, n);
        assert!(ctx.cancel(t1) && ctx.cancel(t2) && ctx.cancel(t3));
        self.cancels += 3;
        ctx.post_self(self.period, n + 1);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Median over five bursts of `ns per unit`, `units` counted by `run`.
fn burst_median(mut run: impl FnMut() -> u64) -> f64 {
    let per_unit: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let units = run();
            t.elapsed().as_nanos() as f64 / units as f64
        })
        .collect();
    median(&per_unit)
}

/// Host ns per dispatched event on a bare engine: a 64-ticker storm, as
/// `bench_hotpath` drives it.
fn probe_dispatch_ns() -> f64 {
    let mut e = Engine::new(7);
    for i in 0..64u64 {
        let id = e.add_component(Box::new(Ticker {
            period: SimDuration::from_nanos(900 + 17 * i),
        }));
        e.post(id, SimDuration::from_nanos(100 + i), 0u64);
    }
    e.run_for(SimDuration::from_millis(1));
    burst_median(|| {
        let before = e.events_dispatched();
        e.run_for(SimDuration::from_millis(20));
        e.events_dispatched() - before
    })
}

/// Host ns per scheduler operation (push, cancel or pop) under
/// arm-3-cancel-3 churn.
fn probe_cancel_ns() -> f64 {
    let mut e = Engine::new(11);
    let ids: Vec<_> = (0..64u64)
        .map(|i| {
            let period = SimDuration::from_nanos(1100 + 23 * i);
            let id = e.add_component(Box::new(Churner { period, cancels: 0 }));
            e.post(id, SimDuration::from_nanos(100 + i), 0u64);
            id
        })
        .collect();
    e.run_for(SimDuration::from_millis(1));
    let cancels = |e: &Engine| -> u64 {
        ids.iter()
            .map(|&id| e.component_ref::<Churner>(id).expect("churner").cancels)
            .sum()
    };
    burst_median(|| {
        let (d0, c0) = (e.events_dispatched(), cancels(&e));
        e.run_for(SimDuration::from_millis(10));
        // Every cancel had a push; every dispatch a push and a pop.
        2 * (cancels(&e) - c0) + 2 * (e.events_dispatched() - d0)
    })
}

const PROBE_PIPE: PipeConfig = PipeConfig {
    bandwidth_bps: Some(1_000_000_000),
    delay: SimDuration::from_micros(100),
    plr: 0.0,
    queue_slots: 512,
};

fn probe_frame(i: u64) -> Frame {
    Frame::new(NodeAddr(1), NodeAddr(2), 1500, i)
}

/// Host ns per frame through `enqueue` + `pop_ready` on the iperf
/// workload's pipe shape, at line rate.
fn probe_dummynet_pkt_ns() -> f64 {
    let mut dn = Dummynet::new();
    let pipe = dn.add_pipe(PROBE_PIPE);
    let mut rng = SimRng::from_seed(1);
    let mut i = 0u64;
    burst_median(|| {
        let n = 200_000;
        let mut popped = 0;
        for _ in 0..n {
            let now = SimTime::ZERO + SimDuration::from_micros(12 * i);
            black_box(dn.enqueue(now, pipe, probe_frame(i), &mut rng));
            popped += dn.pop_ready(now).len();
            i += 1;
        }
        black_box(popped);
        n
    })
}

/// Host µs to suspend, serialize and restore a pipe with a full queue.
fn probe_dummynet_serialize_restore_us() -> f64 {
    let mut rng = SimRng::from_seed(2);
    burst_median(|| {
        let mut dn = Dummynet::new();
        let pipe = dn.add_pipe(PROBE_PIPE);
        for i in 0..512 {
            dn.enqueue(SimTime::ZERO, pipe, probe_frame(i), &mut rng);
        }
        let at = SimTime::ZERO + SimDuration::from_micros(1);
        dn.suspend(at);
        let image = dn.serialize(at);
        black_box(Dummynet::restore(&image, at));
        1000 // ns → µs
    })
}

/// Host ns per block written to, then read from, a fresh branching store.
fn probe_cowstore_ns() -> (f64, f64) {
    let blocks = 1 << 20;
    let golden = Arc::new(GoldenImageBuilder::new("probe", blocks, 4096, 1).build());
    let n = 100_000u64;
    let mut rng = SimRng::from_seed(3);
    let fresh = || {
        let layout = StoreLayout::for_image(&golden);
        let store = BranchingStore::new(golden.clone(), CowMode::Branch, layout);
        (store, DiskQueue::new(Disk::new(DiskProfile::pc3000_scsi())))
    };
    let (mut store, mut dq) = fresh();
    let write = burst_median(|| {
        (store, dq) = fresh();
        for i in 0..n {
            let vba = (i * 7919) % blocks;
            black_box(store.write_block(
                SimTime::ZERO,
                vba,
                BlockData::Opaque(i),
                &mut dq,
                &mut rng,
            ));
        }
        n
    });
    let read = burst_median(|| {
        for i in 0..n {
            let vba = (i * 7919) % blocks;
            black_box(store.read_block(SimTime::ZERO, vba, &mut dq, &mut rng));
        }
        n
    });
    (write, read)
}

pub fn probes(out: &mut BTreeMap<&'static str, f64>) {
    out.insert("sim.probe.dispatch_ns", probe_dispatch_ns());
    out.insert("sim.probe.cancel_ns", probe_cancel_ns());
    out.insert("dummynet.probe.pkt_ns", probe_dummynet_pkt_ns());
    out.insert(
        "dummynet.probe.serialize_restore_us",
        probe_dummynet_serialize_restore_us(),
    );
    let (write, read) = probe_cowstore_ns();
    out.insert("cowstore.probe.write_ns", write);
    out.insert("cowstore.probe.read_ns", read);
}
