//! Experiment time travel (paper §6), backed by the content-addressed
//! checkpoint image store.
//!
//! "Time-travel in Emulab allows a user to preserve the execution of an
//! experiment and later, if desired, play it forward from any point in
//! time... every replay run creates a new branch in the execution history
//! of a system. The result is that time-travel sessions form a tree, with
//! internal nodes representing checkpoints and leaves representing
//! checkpoints or active executions."
//!
//! Snapshots are taken with the transparent coordinated checkpoint
//! (resume held). Each node's frozen domain and branching-store state is
//! serialized into a self-describing byte image and stored through the
//! tree's [`StoreClient`]: chunks shared with the parent snapshot are
//! stored once,
//! so a deep snapshot chain costs physical space proportional to what
//! actually changed — the paper's three-level branching storage, expressed
//! as content-addressed dedup. Restoring travels the other way: the image
//! is loaded (every chunk re-hashed — a flipped bit surfaces as
//! [`TimeTravelError::Corrupt`], never a panic), decoded, and installed
//! with the in-flight packets of the freeze, through the restore path
//! stateful swap-in uses too (`restore.rs`).
//! Replay is non-deterministic (as in the paper's prototype): re-executing
//! from a snapshot under different conditions diverges and forms a new
//! branch. [`TimeTravelTree::prune`] drops an abandoned subtree and
//! releases its chunks deterministically via the store's refcounts.

use std::fmt;

use checkpoint::DelayNodeHost;
use ckptstore::{CaptureCache, DecodeError, Enc, ImageId, ImageStats, Segment, StoreClient, StoreError};
use cowstore::BranchingStore;
use dummynet::{DummynetImage, PipeLog};
use guestos::GuestResidue;
use hwsim::Frame;
use sim::SimTime;
use vmm::{DomainImage, RxLog, VmHost};

use crate::restore::{decode_image, FrozenNode, FrozenState};
use crate::testbed::Testbed;

/// Image kind tag of a serialized node snapshot (domain + device store).
pub(crate) const NODE_IMAGE_KIND: &str = "emulab.tt-node";

/// Image kind tag of a serialized delay-node snapshot.
pub(crate) const DN_IMAGE_KIND: &str = "emulab.tt-delaynode";

/// An encoded image as the store adopts it: the encoder's segments.
type Segments = Vec<Segment>;

/// Identifies a snapshot within an experiment's tree.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SnapshotId(pub usize);

/// Typed time-travel failure. Restores never panic on bad snapshot data.
#[derive(Debug, Clone, PartialEq)]
pub enum TimeTravelError {
    /// The id was never assigned in this tree.
    UnknownSnapshot(SnapshotId),
    /// The snapshot existed but was pruned; its chunks are released.
    Pruned(SnapshotId),
    /// Pruning this subtree would drop the snapshot the running execution
    /// branched from.
    SnapshotInUse(SnapshotId),
    /// The chunk store failed integrity verification on load.
    Corrupt(StoreError),
    /// The image bytes verified but did not decode as a snapshot.
    Decode(DecodeError),
}

impl fmt::Display for TimeTravelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimeTravelError::UnknownSnapshot(id) => write!(f, "unknown snapshot {id:?}"),
            TimeTravelError::Pruned(id) => write!(f, "snapshot {id:?} was pruned"),
            TimeTravelError::SnapshotInUse(id) => {
                write!(f, "snapshot {id:?} anchors the running execution")
            }
            TimeTravelError::Corrupt(e) => write!(f, "snapshot image corrupt: {e}"),
            TimeTravelError::Decode(e) => write!(f, "snapshot image malformed: {e:?}"),
        }
    }
}

impl std::error::Error for TimeTravelError {}

impl From<StoreError> for TimeTravelError {
    fn from(e: StoreError) -> Self {
        TimeTravelError::Corrupt(e)
    }
}

impl From<DecodeError> for TimeTravelError {
    fn from(e: DecodeError) -> Self {
        TimeTravelError::Decode(e)
    }
}

/// One captured point in the experiment's execution history. The byte
/// state lives in the tree's chunk store; only the side-table residue
/// (program objects, in-flight logs and frame payloads) rides here.
pub struct Snapshot {
    pub id: SnapshotId,
    pub parent: Option<SnapshotId>,
    pub label: String,
    /// True testbed time of the capture.
    pub taken_at: SimTime,
    /// Per-node serialized images, in experiment node order.
    node_images: Vec<ImageId>,
    /// Per-delay-node serialized images (None if none was captured).
    dn_images: Vec<Option<ImageId>>,
    /// Per-node unserializable residue (guest programs, app messages).
    node_residues: Vec<GuestResidue>,
    /// Per-node §3.2 in-flight logs: frames that reached a frozen guest.
    rx_logs: Vec<RxLog>,
    /// Per-delay-node suspension logs: frames that reached a suspended
    /// Dummynet.
    dn_logs: Vec<PipeLog>,
    /// In-flight frame payloads referenced by the delay-node images.
    frames: Vec<Frame>,
    /// Serialized bytes of this snapshot across all its images.
    pub logical_bytes: u64,
    /// Chunk bytes this snapshot newly added to the store — what a child
    /// physically costs on top of its ancestors.
    pub new_physical_bytes: u64,
}

/// The branching execution history of one experiment, with its dedup
/// store. Pruned snapshots leave tombstones so ids stay stable.
#[derive(Default)]
pub struct TimeTravelTree {
    snaps: Vec<Option<Snapshot>>,
    current: Option<SnapshotId>,
    store: StoreClient,
    /// Per-node capture hash caches (experiment node order): chunks
    /// unchanged since the node's previous snapshot are re-admitted by
    /// cached hash instead of being re-hashed.
    node_caches: Vec<CaptureCache>,
    /// Per-delay-node capture hash caches.
    dn_caches: Vec<CaptureCache>,
}

impl TimeTravelTree {
    /// An empty tree.
    pub fn new() -> Self {
        TimeTravelTree::default()
    }

    /// Number of live (unpruned) snapshots.
    pub fn len(&self) -> usize {
        self.snaps.iter().flatten().count()
    }

    /// True if no live snapshot exists.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The snapshot the current execution branched from.
    pub fn current(&self) -> Option<SnapshotId> {
        self.current
    }

    /// A snapshot by id.
    ///
    /// # Panics
    ///
    /// Panics on an unknown or pruned id; use [`TimeTravelTree::try_get`]
    /// for a typed error.
    pub fn get(&self, id: SnapshotId) -> &Snapshot {
        self.try_get(id)
            .unwrap_or_else(|e| panic!("snapshot lookup failed: {e}"))
    }

    /// A snapshot by id, with a typed error for unknown or pruned ids.
    pub fn try_get(&self, id: SnapshotId) -> Result<&Snapshot, TimeTravelError> {
        match self.snaps.get(id.0) {
            None => Err(TimeTravelError::UnknownSnapshot(id)),
            Some(None) => Err(TimeTravelError::Pruned(id)),
            Some(Some(s)) => Ok(s),
        }
    }

    /// Children of a snapshot (branches that started there).
    pub fn children(&self, id: SnapshotId) -> Vec<SnapshotId> {
        self.snaps
            .iter()
            .flatten()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.id)
            .collect()
    }

    /// Depth of a snapshot (root = 0).
    pub fn depth(&self, id: SnapshotId) -> usize {
        let mut d = 0;
        let mut cur = self.get(id).parent;
        while let Some(p) = cur {
            d += 1;
            cur = self.get(p).parent;
        }
        d
    }

    /// Store-wide dedup accounting: logical vs physical bytes across
    /// every live snapshot.
    pub fn stats(&self) -> ImageStats {
        self.store.stats()
    }

    /// The backing chunk store's client handle (cheap to clone; the
    /// corruption hooks and replication knobs live on it too).
    pub fn store(&self) -> &StoreClient {
        &self.store
    }

    /// Stores a new snapshot's payloads — each image an encoder's segment
    /// list, which the store adopts as the image's chunks, beside the
    /// residue and in-flight log that ride with it — and makes it current.
    pub(crate) fn insert(
        &mut self,
        parent: Option<SnapshotId>,
        label: &str,
        taken_at: SimTime,
        node_payloads: Vec<(Segments, GuestResidue, RxLog)>,
        dn_payloads: Vec<(Option<Segments>, PipeLog)>,
        frames: Vec<Frame>,
    ) -> SnapshotId {
        let mut node_images = Vec::with_capacity(node_payloads.len());
        let mut node_residues = Vec::with_capacity(node_payloads.len());
        let mut rx_logs = Vec::with_capacity(node_payloads.len());
        let mut logical_bytes = 0;
        let mut new_physical_bytes = 0;
        if self.node_caches.len() < node_payloads.len() {
            self.node_caches.resize_with(node_payloads.len(), CaptureCache::new);
        }
        for (i, (segments, residue, rx_log)) in node_payloads.into_iter().enumerate() {
            let put = self.store.put_segments_cached(segments, &mut self.node_caches[i]);
            logical_bytes += put.logical_bytes;
            new_physical_bytes += put.new_physical_bytes;
            node_images.push(put.image);
            node_residues.push(residue);
            rx_logs.push(rx_log);
        }
        let mut dn_images = Vec::with_capacity(dn_payloads.len());
        let mut dn_logs = Vec::with_capacity(dn_payloads.len());
        if self.dn_caches.len() < dn_payloads.len() {
            self.dn_caches.resize_with(dn_payloads.len(), CaptureCache::new);
        }
        for (i, (segments, log)) in dn_payloads.into_iter().enumerate() {
            dn_images.push(segments.map(|segments| {
                let put = self.store.put_segments_cached(segments, &mut self.dn_caches[i]);
                logical_bytes += put.logical_bytes;
                new_physical_bytes += put.new_physical_bytes;
                put.image
            }));
            dn_logs.push(log);
        }
        let id = SnapshotId(self.snaps.len());
        self.snaps.push(Some(Snapshot {
            id,
            parent,
            label: label.to_string(),
            taken_at,
            node_images,
            dn_images,
            node_residues,
            rx_logs,
            dn_logs,
            frames,
            logical_bytes,
            new_physical_bytes,
        }));
        self.current = Some(id);
        id
    }

    /// Prunes the subtree rooted at `id`, removing every snapshot in it
    /// and releasing their chunks through the store's refcounts. Returns
    /// the physical bytes freed. Fails with
    /// [`TimeTravelError::SnapshotInUse`] if the running execution
    /// branched from a snapshot inside the subtree.
    pub fn prune(&mut self, id: SnapshotId) -> Result<u64, TimeTravelError> {
        self.try_get(id)?;
        let mut subtree = vec![id];
        let mut i = 0;
        while i < subtree.len() {
            let p = subtree[i];
            for s in self.snaps.iter().flatten() {
                if s.parent == Some(p) {
                    subtree.push(s.id);
                }
            }
            i += 1;
        }
        if let Some(cur) = self.current {
            if subtree.contains(&cur) {
                return Err(TimeTravelError::SnapshotInUse(cur));
            }
        }
        let before = self.store.physical_bytes();
        for sid in subtree {
            let snap = self.snaps[sid.0].take().expect("subtree members are live");
            for img in snap.node_images.iter().chain(snap.dn_images.iter().flatten()) {
                self.store
                    .remove_image(*img)
                    .expect("live snapshot images are in the store");
            }
        }
        Ok(before - self.store.physical_bytes())
    }

    /// Redirects the current-branch anchor (testbed internal).
    pub(crate) fn set_current(&mut self, id: SnapshotId) {
        self.current = Some(id);
    }
}

impl Testbed {
    /// Takes a time-travel snapshot of a running experiment: a coordinated
    /// transparent checkpoint whose state is serialized into the tree's
    /// dedup store, after which execution continues.
    ///
    /// # Panics
    ///
    /// Panics if the experiment is not swapped in.
    pub fn snapshot(&mut self, exp: &str, label: &str) -> SnapshotId {
        self.suspend_all(exp);

        let mut node_payloads = Vec::new();
        for host in self.hosts_of(exp) {
            let h = self
                .engine
                .component_ref::<VmHost>(host)
                .expect("host exists");
            let image = h.last_image().expect("suspend captured");
            let mut residue = GuestResidue::new();
            let mut e = Enc::new();
            e.begin_image(NODE_IMAGE_KIND);
            image.encode_wire(&mut e, &mut residue);
            h.store().encode_wire(&mut e);
            node_payloads.push((e.into_segments(), residue, h.rx_log()));
        }
        let mut frames = Vec::new();
        let mut dn_payloads = Vec::new();
        for dn in self.delay_nodes_of(exp) {
            let d = self
                .engine
                .component_ref::<DelayNodeHost>(dn)
                .expect("delay node");
            let segments = d.last_image().map(|img| {
                let mut e = Enc::new();
                e.begin_image(DN_IMAGE_KIND);
                img.encode_wire(&mut e, &mut frames);
                e.into_segments()
            });
            dn_payloads.push((segments, d.suspended_log()));
        }

        self.release_all(exp);

        let taken_at = self.now();
        let parent = self.experiment(exp).tt.current();
        self.experiments_mut(exp)
            .tt
            .insert(parent, label, taken_at, node_payloads, dn_payloads, frames)
    }

    /// Travels back: restores the experiment to `snap` and resumes
    /// execution from there, creating a new branch. State mutation between
    /// `travel_to` and the resume — or simply different ambient conditions
    /// — makes the replay non-deterministic, as in the paper's prototype.
    ///
    /// # Panics
    ///
    /// Panics if the experiment or snapshot is unknown, or the snapshot
    /// fails integrity verification; use [`Testbed::try_travel_to`] for a
    /// typed error.
    pub fn travel_to(&mut self, exp: &str, snap: SnapshotId) {
        self.try_travel_to(exp, snap)
            .unwrap_or_else(|e| panic!("time travel to {snap:?} failed: {e}"));
    }

    /// Fallible [`Testbed::travel_to`]: loads the snapshot's images from
    /// the dedup store (re-hashing every chunk), decodes them straight
    /// out of the verified chunks, and only then quiesces and restores the
    /// experiment — a corrupt or malformed snapshot returns a typed error
    /// and leaves the running execution untouched.
    pub fn try_travel_to(
        &mut self,
        exp: &str,
        snap: SnapshotId,
    ) -> Result<(), TimeTravelError> {
        // Load, verify, decode: nothing is mutated on failure.
        let frozen = {
            let experiment = self.experiment(exp);
            let s = experiment.tt.try_get(snap)?;
            let store = experiment.tt.store();
            let mut nodes = Vec::with_capacity(s.node_images.len());
            for (i, id) in s.node_images.iter().enumerate() {
                let golden = self.golden_image(&experiment.spec.nodes[i].image);
                let chunks = store.load_image_chunks(*id)?;
                let (image, disk) = decode_image(&chunks, NODE_IMAGE_KIND, |d| {
                    let image = DomainImage::decode_wire(d, &s.node_residues[i])?;
                    Ok((image, BranchingStore::decode_wire(d, golden)?))
                })?;
                let rx_log = s.rx_logs[i].clone();
                nodes.push(FrozenNode { image, store: Some(disk), rx_log });
            }
            let mut delay_nodes = Vec::with_capacity(s.dn_images.len());
            for (id, log) in s.dn_images.iter().zip(&s.dn_logs) {
                let pipes = match id {
                    Some(id) => {
                        let chunks = store.load_image_chunks(*id)?;
                        let image = decode_image(&chunks, DN_IMAGE_KIND, |d| {
                            DummynetImage::decode_wire(d, &s.frames)
                        })?;
                        Some((image, log.clone()))
                    }
                    None => None,
                };
                delay_nodes.push(pipes);
            }
            FrozenState { nodes, delay_nodes }
        };
        self.restore_running(exp, frozen);
        self.experiments_mut(exp).tt.set_current(snap);
        self.run_for(sim::SimDuration::from_millis(1));
        Ok(())
    }

    /// Quiesces `exp` — its current execution is abandoned; take a
    /// snapshot beforehand to keep it — and puts `state` in its place,
    /// resumed at one instant. The held suspend round is abandoned, not
    /// resumed.
    fn restore_running(&mut self, exp: &str, state: FrozenState) {
        self.suspend_all(exp);
        self.install_frozen(exp, state);
        self.resume_restored(exp);
        self.abandon_round_of(exp);
    }

    /// Travels to `snap`, falling back along the ancestor chain when the
    /// stored snapshot is damaged: a snapshot whose image fails integrity
    /// verification ([`TimeTravelError::Corrupt`]) or decoding
    /// ([`TimeTravelError::Decode`]) is skipped and its parent tried
    /// instead, so one bad image does not strand the whole tree. Returns
    /// the snapshot actually restored. Structural errors (unknown,
    /// pruned, in use) abort the walk immediately; if every ancestor up
    /// to the root is damaged, the last integrity error surfaces and the
    /// running execution stays untouched.
    pub fn try_travel_to_nearest(
        &mut self,
        exp: &str,
        snap: SnapshotId,
    ) -> Result<SnapshotId, TimeTravelError> {
        let mut cur = snap;
        loop {
            match self.try_travel_to(exp, cur) {
                Ok(()) => return Ok(cur),
                Err(e @ (TimeTravelError::Corrupt(_) | TimeTravelError::Decode(_))) => {
                    match self.experiment(exp).tt.get(cur).parent {
                        Some(parent) => cur = parent,
                        None => return Err(e),
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Prunes the subtree rooted at `snap` from `exp`'s time-travel tree,
    /// releasing its chunks. Returns the physical bytes freed.
    pub fn prune_snapshot(
        &mut self,
        exp: &str,
        snap: SnapshotId,
    ) -> Result<u64, TimeTravelError> {
        self.experiments_mut(exp).tt.prune(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic one-node snapshot payload: `shared` chunk-sized records
    /// identical across every call (dedup fodder) followed by `unique`
    /// records salted by `salt`.
    fn payload(shared: usize, unique: usize, salt: u8) -> Vec<(Segments, GuestResidue, RxLog)> {
        let mut e = Enc::new();
        e.begin_image(NODE_IMAGE_KIND);
        e.pad_to(4096);
        for i in 0..shared {
            e.raw(&[i as u8; 4096]);
        }
        for i in 0..unique {
            e.raw(&[salt ^ (i as u8).wrapping_mul(31); 4096]);
        }
        vec![(e.into_segments(), GuestResidue::new(), RxLog::new())]
    }

    fn insert(
        tt: &mut TimeTravelTree,
        parent: Option<SnapshotId>,
        label: &str,
        salt: u8,
    ) -> SnapshotId {
        tt.insert(
            parent,
            label,
            SimTime::ZERO,
            payload(8, 2, salt),
            Vec::new(),
            Vec::new(),
        )
    }

    #[test]
    fn tree_structure_tracks_branches() {
        let mut tt = TimeTravelTree::new();
        assert!(tt.is_empty());
        let a = insert(&mut tt, None, "a", 1);
        let b = insert(&mut tt, Some(a), "b", 2);
        // Travel back to `a`, then snapshot again: a second child of `a`.
        tt.set_current(a);
        let c = insert(&mut tt, Some(a), "c", 3);
        assert_eq!(tt.len(), 3);
        assert_eq!(tt.current(), Some(c));
        let mut kids = tt.children(a);
        kids.sort_by_key(|s| s.0);
        assert_eq!(kids, vec![b, c]);
        assert_eq!(tt.depth(a), 0);
        assert_eq!(tt.depth(b), 1);
        assert_eq!(tt.depth(c), 1);
        assert_eq!(tt.get(b).label, "b");
        assert_eq!(tt.get(b).parent, Some(a));
    }

    #[test]
    fn deep_chains_report_depth_and_dedup() {
        let mut tt = TimeTravelTree::new();
        let mut parent = None;
        let mut last = SnapshotId(0);
        for i in 0..10 {
            last = insert(&mut tt, parent, &format!("s{i}"), i);
            parent = Some(last);
        }
        assert_eq!(tt.depth(last), 9);
        assert!(tt.children(last).is_empty());
        // The shared prefix chunks are stored once across all ten
        // snapshots: physical < logical, by a wide margin.
        let st = tt.stats();
        assert!(st.physical_bytes < st.logical_bytes);
        assert!(st.dedup_ratio > 3.0, "ratio {}", st.dedup_ratio);
        assert!(st.chunks_shared >= 8);
        // Children after the first paid only their unique chunks.
        assert!(tt.get(last).new_physical_bytes < tt.get(last).logical_bytes / 2);
    }

    #[test]
    fn prune_releases_subtree_chunks_and_leaves_typed_tombstones() {
        let mut tt = TimeTravelTree::new();
        let a = insert(&mut tt, None, "a", 1);
        let b = insert(&mut tt, Some(a), "b", 2);
        let c = insert(&mut tt, Some(b), "c", 3);
        // The running execution branches from the leaf: pruning any
        // subtree that contains it is refused.
        assert_eq!(tt.prune(b), Err(TimeTravelError::SnapshotInUse(c)));
        tt.set_current(a);
        let physical_before = tt.store().physical_bytes();
        let freed = tt.prune(b).expect("prune b+c");
        assert!(freed > 0);
        assert_eq!(tt.store().physical_bytes(), physical_before - freed);
        assert_eq!(tt.len(), 1, "a survives");
        assert!(matches!(tt.try_get(b), Err(TimeTravelError::Pruned(_))));
        assert!(matches!(tt.try_get(c), Err(TimeTravelError::Pruned(_))));
        assert!(matches!(tt.prune(b), Err(TimeTravelError::Pruned(_))));
        assert!(matches!(
            tt.try_get(SnapshotId(99)),
            Err(TimeTravelError::UnknownSnapshot(_))
        ));
        // `a` itself is intact and loadable.
        assert!(tt.store().contains(tt.get(a).node_images[0]));
    }

    use crate::ExperimentSpec;
    use guestos::prog::FileId;
    use sim::SimDuration;
    use workloads::{FileWriter, IperfReceiver, IperfSender, UsleepLoop};

    /// Builds a 2-node TCP experiment with packet tracing on both kernels
    /// and a warm iperf stream.
    fn live_tcp_testbed(seed: u64) -> Testbed {
        let mut tb = Testbed::new(seed, 8);
        let spec = ExperimentSpec::new("det")
            .node("a")
            .node("b")
            .link("a", "b", 10_000_000, SimDuration::from_millis(1), 0.0);
        tb.swap_in(spec).expect("swap-in");
        tb.run_for(SimDuration::from_secs(10));
        for n in ["a", "b"] {
            let host = tb.host_id("det", n);
            tb.engine
                .with_component::<VmHost, _>(host, |h, _| h.kernel_mut().trace.enable());
        }
        let b_addr = tb.node_addr("det", "b");
        tb.spawn("det", "b", Box::new(IperfReceiver::new(5001)));
        tb.spawn("det", "a", Box::new(IperfSender::new(b_addr, 5001)));
        tb.run_for(SimDuration::from_secs(2));
        tb
    }

    fn observe(tb: &Testbed) -> (u64, u64, String, String) {
        (
            tb.kernel("det", "a", |k| k.state_fingerprint()),
            tb.kernel("det", "b", |k| k.state_fingerprint()),
            tb.kernel("det", "a", |k| format!("{:?}", k.trace.records())),
            tb.kernel("det", "b", |k| format!("{:?}", k.trace.records())),
        )
    }

    /// The image pipeline is lossless: restoring from a serialized,
    /// chunked, deduplicated image replays *identically* to restoring
    /// from in-memory clones of the same frozen state — byte-equal
    /// kernel fingerprints and packet-for-packet equal traces.
    #[test]
    fn image_restore_replays_identically_to_clone_restore() {
        // Path A: snapshot through the store, travel back through it.
        let mut a = live_tcp_testbed(90);
        let snap = a.snapshot("det", "s");
        a.run_for(SimDuration::from_secs(3));
        a.travel_to("det", snap);
        a.run_for(SimDuration::from_secs(3));
        let obs_a = observe(&a);

        // Path B: the same testbed, same seed, but state preserved as
        // direct clones — no serialization, chunking, or store involved —
        // and restored through the same install and resume.
        let mut b = live_tcp_testbed(90);
        b.suspend_all("det");
        let nodes = b
            .hosts_of("det")
            .into_iter()
            .map(|host| {
                let h = b.engine.component_ref::<VmHost>(host).unwrap();
                FrozenNode {
                    image: h.last_image().expect("suspended").clone(),
                    store: Some(h.store().clone()),
                    rx_log: h.rx_log(),
                }
            })
            .collect();
        let delay_nodes = b
            .delay_nodes_of("det")
            .into_iter()
            .map(|dn| {
                let d = b.engine.component_ref::<DelayNodeHost>(dn).unwrap();
                d.last_image().map(|img| (img.clone(), d.suspended_log()))
            })
            .collect();
        b.release_all("det");
        b.run_for(SimDuration::from_secs(3));
        b.restore_running("det", FrozenState { nodes, delay_nodes });
        b.run_for(sim::SimDuration::from_millis(1));
        b.run_for(SimDuration::from_secs(3));
        let obs_b = observe(&b);

        // The streams actually ran (a real trace, not two empty logs).
        let recs = b.kernel("det", "a", |k| k.trace.records().len());
        assert!(recs > 50, "only {recs} trace records");
        assert_eq!(obs_a.0, obs_b.0, "kernel a fingerprint diverged");
        assert_eq!(obs_a.1, obs_b.1, "kernel b fingerprint diverged");
        assert_eq!(obs_a.2, obs_b.2, "node a packet traces diverged");
        assert_eq!(obs_a.3, obs_b.3, "node b packet traces diverged");
    }

    /// Bytes after a well-formed image are one typed decode error on every
    /// image kind: a time-travel node image, a delay-node image, and a
    /// stateful swap's node image (where the swap-in degrades to a golden
    /// reload naming the node).
    #[test]
    fn trailing_bytes_rejected_after_node_and_delay_node_images() {
        let trailing = DecodeError::Invalid("trailing bytes after image");
        let mut tb = live_tcp_testbed(94);
        let snap = tb.snapshot("det", "s");
        // Re-stores image `id` with one byte appended.
        let lengthened = |store: &StoreClient, id: ImageId| {
            let mut bytes = store.load_image(id).unwrap();
            bytes.push(0);
            store.put_image(&bytes).image
        };
        fn stored(tb: &mut Testbed, snap: SnapshotId) -> &mut Snapshot {
            tb.experiments_mut("det").tt.snaps[snap.0].as_mut().expect("live snapshot")
        }
        let tt_store = tb.experiment("det").tt.store().clone();

        let dn = stored(&mut tb, snap).dn_images[0].expect("the shaped link has a delay node");
        stored(&mut tb, snap).dn_images[0] = Some(lengthened(&tt_store, dn));
        let decode = TimeTravelError::Decode(trailing.clone());
        assert_eq!(tb.try_travel_to("det", snap), Err(decode.clone()));
        stored(&mut tb, snap).dn_images[0] = Some(dn);

        let node = stored(&mut tb, snap).node_images[1];
        stored(&mut tb, snap).node_images[1] = lengthened(&tt_store, node);
        assert_eq!(tb.try_travel_to("det", snap), Err(decode));
        stored(&mut tb, snap).node_images[1] = node;

        tb.try_travel_to("det", snap).expect("the stored snapshot itself is intact");

        tb.swap_out_stateful("det");
        let mut swapped = tb.take_swapped("det").expect("swapped out");
        let id = swapped.nodes[1].image_id;
        swapped.nodes[1].image_id = lengthened(tb.fileserver_store(), id);
        tb.store_swapped("det".to_string(), swapped);
        let expected = crate::SwapError::StateDecode { node: "b".into(), source: trailing };
        assert_eq!(
            tb.swap_in_stateful("det", false).warning,
            Some(crate::SwapInWarning::StateLost { reason: expected.to_string() })
        );
    }

    /// One node running a sleep loop, with enough file data written that
    /// its image has a block data section, snapshotted once.
    fn snapshotted_node(seed: u64, replication: usize) -> (Testbed, guestos::Tid, SnapshotId) {
        let mut tb = Testbed::new(seed, 4);
        tb.swap_in(ExperimentSpec::new("c").node("n")).expect("swap-in");
        tb.run_for(SimDuration::from_secs(5));
        let tid = tb.spawn("c", "n", Box::new(UsleepLoop::new(10_000_000, 1_000_000)));
        tb.spawn("c", "n", Box::new(FileWriter::new(FileId(1), 256 << 10)));
        tb.run_for(SimDuration::from_secs(2));
        tb.experiment("c").tt.store().set_replication(replication);
        let snap = tb.snapshot("c", "s");
        tb.run_for(SimDuration::from_secs(1));
        (tb, tid, snap)
    }

    /// The chunks of a snapshot's (single) node image.
    fn node_image_chunks(tb: &Testbed, snap: SnapshotId) -> (ImageId, Vec<Vec<u8>>) {
        let tt = &tb.experiment("c").tt;
        let img = tt.get(snap).node_images[0];
        let bytes = tt.store().load_image(img).unwrap();
        (img, bytes.chunks(tt.store().chunk_size()).map(<[u8]>::to_vec).collect())
    }

    /// A flipped bit in any stored chunk of a node image — the first,
    /// the last, the one where the block store's metadata ends and its
    /// data section begins, and every other — surfaces as a typed
    /// [`TimeTravelError::Corrupt`] from `try_travel_to` naming that
    /// chunk, and the running execution is left untouched and keeps
    /// running.
    #[test]
    fn corrupt_snapshot_rejected_without_disturbing_execution() {
        let (mut tb, tid, snap) = snapshotted_node(91, 1);
        let (img, chunks) = node_image_chunks(&tb, snap);
        assert!(chunks.len() > 64, "metadata chunks and a data section");
        let store = tb.experiment("c").tt.store().clone();
        for (i, chunk) in chunks.iter().enumerate() {
            // Identical chunks are stored once: the load trips over the
            // damage at the first index that references it.
            let first = chunks.iter().position(|c| c == chunk).unwrap();
            assert!(store.corrupt_chunk(img, i, 7).is_ok(), "corruption injected");
            let err = tb.try_travel_to("c", snap).unwrap_err();
            assert!(
                matches!(
                    err,
                    TimeTravelError::Corrupt(StoreError::CorruptChunk { chunk_index, .. })
                        if chunk_index == first
                ),
                "chunk {i}: got {err}"
            );
            // The flip is an XOR: the same call undoes it.
            assert!(store.corrupt_chunk(img, i, 7).is_ok());
        }
        assert!(store.corrupt_chunk(img, 0, 7).is_ok());
        assert!(tb.try_travel_to("c", snap).is_err());
        // Unknown snapshots are typed too.
        assert!(matches!(
            tb.try_travel_to("c", SnapshotId(42)),
            Err(TimeTravelError::UnknownSnapshot(_))
        ));

        // The failed restore did not quiesce or perturb the experiment.
        let samples = |tb: &Testbed| {
            tb.kernel("c", "n", |k| {
                k.prog(tid)
                    .unwrap()
                    .as_any()
                    .downcast_ref::<UsleepLoop>()
                    .unwrap()
                    .samples
                    .len()
            })
        };
        let before = samples(&tb);
        tb.run_for(SimDuration::from_secs(2));
        assert!(samples(&tb) > before + 50, "execution kept running");
    }

    /// With redundancy 1 a damaged snapshot is unrecoverable, but
    /// `try_travel_to_nearest` degrades to the nearest intact ancestor
    /// instead of failing the whole tree.
    #[test]
    fn nearest_intact_ancestor_restores_when_child_is_corrupt() {
        let mut tb = Testbed::new(92, 4);
        tb.swap_in(ExperimentSpec::new("c").node("n")).expect("swap-in");
        tb.run_for(SimDuration::from_secs(5));
        let tid = tb.spawn("c", "n", Box::new(UsleepLoop::new(10_000_000, 1_000_000)));
        tb.run_for(SimDuration::from_secs(2));
        let s1 = tb.snapshot("c", "parent");
        tb.run_for(SimDuration::from_secs(1));
        let s2 = tb.snapshot("c", "child");
        tb.run_for(SimDuration::from_secs(1));
        assert_eq!(tb.experiment("c").tt.get(s2).parent, Some(s1));

        // Damage a chunk private to the child: the injected flip is an
        // XOR, so a corruption that also lands on a chunk shared with the
        // parent is undone and the next index tried.
        let img1 = tb.experiment("c").tt.get(s1).node_images[0];
        let img2 = tb.experiment("c").tt.get(s2).node_images[0];
        let store = tb.experiment("c").tt.store().clone();
        let mut idx = 0;
        loop {
            assert!(
                store.corrupt_chunk(img2, idx, 3).is_ok(),
                "ran out of chunks without finding one private to the child"
            );
            if store.load_image(img1).is_ok() {
                break;
            }
            let _ = store.corrupt_chunk(img2, idx, 3); // undo the shared flip
            idx += 1;
        }
        assert!(store.load_image(img2).is_err(), "child really is damaged");

        let restored = tb.try_travel_to_nearest("c", s2).expect("fallback restore");
        assert_eq!(restored, s1, "fell back to the intact parent");
        assert_eq!(tb.experiment("c").tt.current(), Some(s1));
        let samples = |tb: &Testbed| {
            tb.kernel("c", "n", |k| {
                k.prog(tid)
                    .unwrap()
                    .as_any()
                    .downcast_ref::<UsleepLoop>()
                    .unwrap()
                    .samples
                    .len()
            })
        };
        let before = samples(&tb);
        tb.run_for(SimDuration::from_secs(2));
        assert!(samples(&tb) > before + 50, "restored execution runs");
    }

    /// With redundancy 2 a corrupt primary chunk — any chunk of the
    /// image — is served from its replica transparently: the travel
    /// succeeds on the damaged snapshot itself, the repair is counted,
    /// and the damaged copy is queued for read-repair.
    #[test]
    fn redundancy_two_repairs_snapshot_transparently() {
        let (mut tb, _, snap) = snapshotted_node(93, 2);
        let (img, chunks) = node_image_chunks(&tb, snap);
        let store = tb.experiment("c").tt.store().clone();
        for (i, chunk) in chunks.iter().enumerate() {
            let references = chunks.iter().filter(|c| *c == chunk).count() as u64;
            assert!(store.corrupt_primary(img, i, 7).is_ok());
            let before = store.repaired_chunks();
            tb.try_travel_to("c", snap).expect("replica repairs the load");
            assert_eq!(store.repaired_chunks(), before + references, "chunk {i}");
            let queued = store.pending_repairs();
            assert_eq!(queued.len(), 1, "chunk {i}: read-repair queued");
            assert_eq!(queued[0].copy, 0, "chunk {i}: the primary is what gets rewritten");
            assert_eq!(store.drain_repairs().0, 1, "chunk {i}: healed before the next flip");
        }
    }
}
