//! Allocation budgets for the per-packet path, for a capture and for the
//! trace readers, and a retention budget for a long checkpointed run,
//! checked by the machine.
//!
//! The two-node shaped-link iperf lab of Fig 6 (`benchmark/`'s
//! `iperf_ckpt`) transmits about 76,000 frames per simulated second,
//! each a packet hop of three events (`NetTxDone`, the delivery at the
//! delay node, the delivery at the receiver, which the delay node posts
//! when its pipe takes the frame). What
//! each frame may cost the allocator is a design decision — frame events
//! ride inline in their event slots, the guest kernel, TCP, dummynet and
//! the VM host work in caller-owned scratch, and the one allocation left
//! per frame is its payload `Arc`, made where the guest kernel queues the
//! segment and kept by the netback's queue and the frame — so it is
//! asserted here, as a count, together with the events a frame costs and
//! how many events the queue holds while it runs. Counts repeat exactly
//! for a seed: this is not a timing assertion.
//!
//! A capture (`Testbed::snapshot`) has a budget in bytes instead: the
//! encoder writes the image into the segments the store keeps, and a
//! block record into one as its fingerprint, so what one snapshot
//! allocates is the image's other bytes once over plus bookkeeping per
//! record — not 4 KiB per record, nor a contiguous copy of the image and
//! a re-sliced third.
//!
//! What the lab keeps has a budget too: a checkpoint saves a VM's state,
//! which the paper bounds by the VM's memory, so nothing the lab holds
//! (a guest program's fields, a kernel, the images a VM host keeps) may
//! grow with simulated time. Each freeze clones the guest kernel into an
//! image, so a history kept anywhere in a guest is paid once in the guest
//! and again in every image. The live heap is read twice in the second
//! half of `iperf_ckpt`'s 40.5 sim-s window and its growth is bounded; a
//! receiver that pushed `(time, bytes)` per delivery read +29.6 MiB
//! against the 4 MiB budget.
//!
//! The trace readers have a budget too: the transparency audit and the
//! CSV export walk the trace ring where it is, so reading it costs a
//! constant number of allocations — the audit's per-host index of the
//! guest events (4 bytes each), the export's one `String` of its own
//! size — and nothing per event. Resolving the ring into events that
//! owned their track and tag names cost two `String`s per event: over
//! 10,275 ring events the audit read 20,576 allocations and the export
//! 20,566.
//!
//! The binary has its own counting `#[global_allocator]`, so it holds
//! these four tests and nothing else, and they take turns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

use ckptstore::{ImageId, Segment, SEGMENT_SIZE};
use emulab_checkpoint::emulab::{ExperimentSpec, Testbed};
use emulab_checkpoint::sim::telemetry::names;
use emulab_checkpoint::sim::{audit_transparency, payload_store_stats, SimDuration};
use emulab_checkpoint::guestos::prog::FileId;
use emulab_checkpoint::workloads::{FileWriter, IperfReceiver, IperfSender};

/// Calls into the allocator that hand out memory (`alloc`, `alloc_zeroed`,
/// `realloc`), process-wide. A statistic: `Relaxed` publishes nothing.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Bytes those calls asked for (a `realloc` counts its whole new size:
/// it may move). A statistic, as above.
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Bytes allocated and not yet freed: `alloc` and `alloc_zeroed` add
/// their size, `dealloc` subtracts it, and `realloc` adds the difference.
/// A statistic, as above.
static LIVE: AtomicI64 = AtomicI64::new(0);

/// The counters are process-wide and the harness runs tests on parallel
/// threads: each test holds this for as long as it reads them.
static TURN: Mutex<()> = Mutex::new(());

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no memory the
// allocator manages.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Most allocations a transmitted frame may cost on the iperf lab,
/// checkpoints included. The frame's `Arc` is 1.0, and that is what this
/// window measures. With a `Vec` returned per packet at eight sites it
/// was 7 (1.17 per event at six events a frame); the cheapest of those
/// (draining the clock witness by `mem::take`) costs about 0.5 per frame
/// when put back, so 1.2 is a bound that any one of them fails.
const MAX_ALLOCS_PER_FRAME: f64 = 1.2;

/// Fewest a working counter can report: the per-frame `Arc` is still
/// there, so a counter that counts nothing cannot pass.
const MIN_ALLOCS_PER_FRAME: f64 = 0.6;

/// Most engine events a transmitted frame may cost: the three of its hop,
/// plus the rest of the window (the checkpoint round and the frames it
/// replays, guest ticks, NTP) spread over the frames, 0.013 here. A
/// forwarding component between a sender and its wire adds an event per
/// wire: a hop of six events read 6.013 on this window, and one with an
/// event at the delay node to hand each frame to its wire read 4.013.
const MAX_EVENTS_PER_FRAME: f64 = 3.05;

/// Most events the queue may hold on average over the same window, read
/// after every dispatch: 21.7, of which about 8 are the deliveries of the
/// frames in the delay node's pipes, posted when the pipe took them (14.2
/// when each waited for an event at its ready instant). Folding
/// `NetTxDone` into the send was rejected for what it did here: it moved a
/// TCP window of netback backlog into the heap and doubled
/// `Scheduler::remove_at`.
const MAX_MEAN_PENDING_EVENTS: f64 = 23.0;

/// Largest share of posts that may box their payload.
const MAX_BOXED_POST_SHARE: f64 = 0.01;

/// Most bytes one `snapshot` may allocate per image byte that is not a
/// block record: those bytes themselves (every chunk is new in this lab)
/// plus the suspend round's clone of the guest kernel come to about 1.0.
/// Encoding into a contiguous buffer and then copying every chunk out of
/// it measured 2.0.
const MAX_CAPTURE_BYTES_PER_OTHER_BYTE: f64 = 1.15;

/// Most bytes one `snapshot` may allocate per block record it stores. A
/// record is kept as its fingerprint, so this is bookkeeping only: the
/// encoder's segment-list entry (~30 B) and, as for any new chunk, the
/// manifest and capture-cache entries and the store's arena entry and
/// address-table bucket, both reserved once for the put. The snapshot
/// below reads ~350 B per record beyond its other bytes (~560 B when the
/// store kept a chunk index and a shard copy table, both grown from empty
/// by doubling). Writing each record's 4 KiB out, as the encoder once
/// did, is 4096 more.
const MAX_CAPTURE_BYTES_PER_RECORD: u64 = 600;

/// The lab exactly as `benchmark/src/scripts.rs::iperf_ckpt` builds it:
/// swapped in, 2 sim-s idle, then the iperf pair spawned.
fn iperf_lab() -> Testbed {
    let mut tb = Testbed::new(1, 8);
    let spec = ExperimentSpec::new("ip").node("a").node("b").link(
        "a",
        "b",
        1_000_000_000,
        SimDuration::from_micros(100),
        0.0,
    );
    tb.swap_in(spec).expect("swap-in");
    tb.run_for(SimDuration::from_secs(2));
    let b_addr = tb.node_addr("ip", "b");
    tb.spawn("ip", "b", Box::new(IperfReceiver::new(5001)));
    tb.spawn("ip", "a", Box::new(IperfSender::new(b_addr, 5001)));
    tb
}

/// Checkpoint rounds committed so far.
fn committed(tb: &Testbed) -> u64 {
    tb.telemetry()
        .counter_value(names::COORD_EPOCHS_COMMITTED)
        .unwrap_or(0)
}

/// Bytes the iperf lab's receiving kernel has delivered to the program.
fn delivered(tb: &Testbed) -> u64 {
    tb.kernel("ip", "b", |k| k.net_totals().bytes_delivered)
}

/// Most bytes the iperf lab's live heap may grow by over the second half
/// of `iperf_ckpt`'s window: from 20.5 to 40.5 sim-s of 5 s checkpoints.
/// Every buffer, queue and image the lab keeps has reached its size by
/// then, except the telemetry trace ring, which grows by doubling to its
/// fixed cap: its last doubling (1.5 MiB, at 34.5 s) is the whole
/// +1.5 MiB this window reads. A receiver that kept a `(time, bytes)`
/// pair per delivery, copied into every checkpoint image, read +29.6 MiB.
const MAX_RETAINED_GROWTH: i64 = 4 << 20;

/// Most allocations one read of the trace ring may make, whatever its
/// length: a reader's own buffers, never one per event.
const MAX_TRACE_READ_ALLOCS: u64 = 16;

/// Most bytes one read of the trace ring may allocate per guest event,
/// beyond [`TRACE_READ_FIXED_BYTES`] and, for an export, the document
/// itself. The audit's index of guest events is 4 per event.
const MAX_TRACE_READ_BYTES_PER_GUEST_EVENT: u64 = 8;

/// Bytes a read of the trace ring may allocate whatever its length.
const TRACE_READ_FIXED_BYTES: u64 = 4096;

/// Runs `f`, returning its result with the allocations and bytes it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (allocs0, bytes0) = (ALLOCATIONS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    let out = f();
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs0;
    (out, allocs, BYTES.load(Ordering::Relaxed) - bytes0)
}

#[test]
fn per_packet_path_stays_within_its_allocation_budget() {
    // Nothing the lock guards can be left half-updated by a panic.
    let _turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let mut tb = iperf_lab();

    // Warm-up: 3 sim-s, the last two under 1 s periodic checkpoints, so
    // every scratch buffer, replay log and queue has reached its size.
    tb.run_for(SimDuration::from_secs(1));
    tb.start_periodic_checkpoints(SimDuration::from_secs(1));
    tb.run_for(SimDuration::from_secs(2));

    // The window: 1 sim-s holding one whole coordinated round, stepped
    // one dispatch at a time to read the queue's length after each.
    let sent = |tb: &mut Testbed| {
        ["a", "b"].iter().map(|n| tb.with_host("ip", n, |h| h.stats.frames_tx)).sum::<u64>()
    };
    let (rounds0, bytes0, frames0) = (committed(&tb), delivered(&tb), sent(&mut tb));
    let events0 = tb.engine.events_dispatched();
    let stored0 = payload_store_stats();
    let end = tb.now() + SimDuration::from_secs(1);
    let (mut pending_sum, mut pending_max, mut steps) = (0u64, 0usize, 0u64);
    let allocs0 = ALLOCATIONS.load(Ordering::Relaxed);
    while tb.now() < end && tb.engine.step() {
        let pending = tb.engine.pending_events();
        pending_sum += pending as u64;
        pending_max = pending_max.max(pending);
        steps += 1;
    }
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs0;
    let stored1 = payload_store_stats();
    let events = tb.engine.events_dispatched() - events0;
    let frames = sent(&mut tb) - frames0;

    let rounds = committed(&tb) - rounds0;
    let mbytes = (delivered(&tb) - bytes0) as f64 / 1e6;
    assert!(rounds >= 1, "the window must hold a committed checkpoint round");
    assert!(frames > 25_000 && mbytes > 10.0, "the stream must be running");

    let per_frame = allocs as f64 / frames as f64;
    let events_per_frame = events as f64 / frames as f64;
    let boxed = stored1.boxed - stored0.boxed;
    let posts = boxed + (stored1.inline - stored0.inline);
    let boxed_share = boxed as f64 / posts as f64;
    let mean_pending = pending_sum as f64 / steps as f64;
    println!(
        "alloc_budget: {allocs} allocations / {frames} frames = {per_frame:.4} per frame \
         (budget {MIN_ALLOCS_PER_FRAME}..={MAX_ALLOCS_PER_FRAME}); \
         {events} events = {events_per_frame:.4} per frame (budget <= {MAX_EVENTS_PER_FRAME}); \
         {boxed} of {posts} posts boxed = {:.4} % (budget < {} %); \
         {rounds} round(s), {mbytes:.1} MB delivered",
        boxed_share * 100.0,
        MAX_BOXED_POST_SHARE * 100.0,
    );
    println!(
        "alloc_budget: {mean_pending:.2} events pending on average over {steps} dispatches \
         (budget <= {MAX_MEAN_PENDING_EVENTS}), at most {pending_max}"
    );
    assert!(
        per_frame <= MAX_ALLOCS_PER_FRAME,
        "{per_frame:.4} allocations per transmitted frame: something on the per-packet \
         path is allocating again (a returned Vec, a mem::take'n buffer, a boxed payload)"
    );
    assert!(
        per_frame >= MIN_ALLOCS_PER_FRAME,
        "{per_frame:.4} allocations per transmitted frame is below the frame's Arc: \
         the counter is not counting"
    );
    assert!(
        events_per_frame <= MAX_EVENTS_PER_FRAME,
        "{events_per_frame:.4} events per transmitted frame: a packet hop costs more \
         than its three events (a component forwarding between a sender and its wire, \
         or a delay node handing frames to its wire in an event of their own?)"
    );
    assert!(
        mean_pending <= MAX_MEAN_PENDING_EVENTS,
        "{mean_pending:.2} events pending on average: something keeps a backlog in the \
         event queue that belongs in its own FIFO"
    );
    assert!(
        boxed_share < MAX_BOXED_POST_SHARE,
        "{:.2} % of posts boxed their payload: a per-packet message outgrew the inline slot",
        boxed_share * 100.0
    );
}

#[test]
fn a_capture_allocates_its_image_once() {
    let _turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    // One node, a 16 MiB file written through the guest filesystem: the
    // node's image is its kernel plus 4,096 block records.
    let mut tb = Testbed::new(1, 4);
    tb.swap_in(ExperimentSpec::new("cap").node("n")).expect("swap-in");
    tb.run_for(SimDuration::from_secs(2));
    tb.spawn("cap", "n", Box::new(FileWriter::new(FileId(1), 16 << 20)));
    tb.run_for(SimDuration::from_secs(3));

    let bytes0 = BYTES.load(Ordering::Relaxed);
    let snap = tb.snapshot("cap", "s");
    let allocated = BYTES.load(Ordering::Relaxed) - bytes0;

    let tt = &tb.experiment("cap").tt;
    let stored = tt.get(snap);
    let image = stored.logical_bytes;
    assert!(image > 16 << 20, "the image must hold the file's blocks: {image} bytes");
    assert_eq!(stored.new_physical_bytes, image, "a first capture stores every chunk");
    // The tree's store holds this one image; its block records are the
    // segments kept as fingerprints.
    assert_eq!(tt.store().image_count(), 1);
    let segments = tt.store().load_image_chunks(ImageId(0)).expect("the snapshot loads");
    let records = segments.iter().filter(|s| matches!(s, Segment::Record(_))).count() as u64;
    let other = image - records * SEGMENT_SIZE as u64;
    let budget = MAX_CAPTURE_BYTES_PER_OTHER_BYTE * other as f64
        + (MAX_CAPTURE_BYTES_PER_RECORD * records) as f64;
    println!(
        "alloc_budget: one snapshot allocated {allocated} bytes for a {image}-byte image of \
         {records} block records and {other} other bytes (budget <= \
         {MAX_CAPTURE_BYTES_PER_OTHER_BYTE} x {other} + {MAX_CAPTURE_BYTES_PER_RECORD} x \
         {records} = {budget:.0})"
    );
    assert!(records >= 4096, "the file's blocks must be stored as records: {records}");
    assert!(
        allocated as f64 <= budget,
        "{allocated} bytes allocated: the capture path is writing out block records or \
         building the image somewhere other than in the segments the store keeps"
    );
    assert!(allocated >= other, "{allocated} < {other}: the byte counter is not counting");
}

#[test]
fn the_iperf_lab_retains_no_state_that_grows_with_simulated_time() {
    let _turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    // `iperf_ckpt`'s set-up and its 40.5 sim-s window of 5 s checkpoints.
    let mut tb = iperf_lab();
    tb.run_for(SimDuration::from_secs(3));
    tb.start_periodic_checkpoints(SimDuration::from_secs(5));
    let rounds0 = committed(&tb);

    // Both readings are half a second after a round was kicked, when it
    // has committed: the 4th round's and the 8th's.
    tb.run_for(SimDuration::from_millis(20_500));
    let (live0, bytes0) = (LIVE.load(Ordering::Relaxed), delivered(&tb));
    tb.run_for(SimDuration::from_secs(20));
    let (live1, bytes1) = (LIVE.load(Ordering::Relaxed), delivered(&tb));

    let rounds = committed(&tb) - rounds0;
    let growth = live1 - live0;
    let mib = |b: i64| b as f64 / (1 << 20) as f64;
    let mbytes = (bytes1 - bytes0) as f64 / 1e6;
    println!(
        "alloc_budget: live heap {:.2} MiB at 20.5 s and {:.2} MiB at 40.5 s of 5 s \
         checkpoints = {:+.2} MiB (budget <= {:.2} MiB); {rounds} rounds, {mbytes:.0} MB \
         delivered in the last 20 s",
        mib(live0),
        mib(live1),
        mib(growth),
        mib(MAX_RETAINED_GROWTH),
    );
    assert_eq!(rounds, 8, "the window must commit its eight checkpoint rounds");
    assert!(mbytes > 1_000.0, "the stream must be running");
    assert!(live0 >= 1 << 20, "{live0} live bytes: the live counter is not counting");
    assert!(
        growth <= MAX_RETAINED_GROWTH,
        "the live heap grew {:.2} MiB in 20 sim-s: something on the iperf lab keeps a \
         history that grows with simulated time (a per-delivery Vec in a guest program is \
         copied into every checkpoint image as well)",
        mib(growth)
    );
}

#[test]
fn reading_the_trace_ring_allocates_nothing_per_event() {
    let _turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    // About 10 sim-s of the iperf lab under 2 s checkpoints.
    let mut tb = iperf_lab();
    tb.run_for(SimDuration::from_secs(1));
    tb.start_periodic_checkpoints(SimDuration::from_secs(2));
    tb.run_for(SimDuration::from_secs(9));
    let t = tb.telemetry();
    let events = t.trace_events();
    let guest = events.iter().filter(|e| e.subsystem == names::TRACK_GUEST).count() as u64;
    let ring = events.len();
    drop(events);
    assert_eq!(t.trace_dropped(), 0, "the ring must hold the whole run");

    let (report, audit_allocs, audit_bytes) = counted(|| audit_transparency(t));
    let (csv, csv_allocs, csv_bytes) = counted(|| t.trace_to_csv());
    let csv_len = csv.len() as u64;
    drop(csv);

    let budget = TRACE_READ_FIXED_BYTES + MAX_TRACE_READ_BYTES_PER_GUEST_EVENT * guest;
    println!(
        "alloc_budget: {ring} ring events, {guest} on guest tracks; the audit made \
         {audit_allocs} allocations of {audit_bytes} bytes, the CSV export {csv_allocs} of \
         {csv_bytes} bytes for a {csv_len}-byte document (budget <= {MAX_TRACE_READ_ALLOCS} \
         allocations and {TRACE_READ_FIXED_BYTES} + {MAX_TRACE_READ_BYTES_PER_GUEST_EVENT} x \
         {guest} = {budget} bytes beyond the document); {}",
        report.verdict()
    );
    assert!(report.passed() && report.firewall_cycles >= 4, "{}", report.verdict());
    assert!(guest > 1_000, "{guest} guest events: the guests must be tracing");
    let reads = [
        ("audit", audit_allocs, audit_bytes),
        ("CSV export", csv_allocs, csv_bytes - csv_len),
    ];
    for (what, allocs, bytes) in reads {
        assert!(
            allocs <= MAX_TRACE_READ_ALLOCS,
            "the {what} made {allocs} allocations over {ring} ring events: something \
             allocates per event (a resolved event that owns its names?)"
        );
        assert!(
            bytes <= budget,
            "the {what} allocated {bytes} bytes beyond its output for {guest} guest events: \
             it copies the ring instead of reading it in place"
        );
    }
}
