//! The guest kernel: syscall dispatch, wakeups, and checkpoint hooks.
//!
//! The kernel is driven entirely by its hypervisor (the `vmm` crate)
//! through the entry points `on_timer_tick`, `on_net_rx`,
//! `on_block_complete`, and `on_compute_done`; each entry updates the
//! guest-visible clock (supplied by the vmm's paravirtual time machinery),
//! processes the event, runs the firewall-gated scheduler, and leaves a
//! queue of [`GuestAction`]s for the vmm to perform.
//!
//! Checkpoint participation follows §4.1: `prepare_suspend` closes the
//! temporal firewall and reports whether in-flight block I/O still needs
//! draining (those completions are the IRQs allowed through the firewall);
//! once quiescent the vmm saves state (a clone) and later calls
//! `finish_resume`, which reopens the firewall. Guest time across the gap
//! is continuous because the vmm froze it — nothing in here needs to know
//! the checkpoint happened, which is the whole point.

use std::sync::Arc;

use cowstore::BlockData;
use hwsim::{profile, NodeAddr};
use sim::IntMap;

use crate::actions::{BlockBatch, BlockBatchOp, GuestAction};
use crate::audit::{ClockEventKind, ClockWitness};
use crate::firewall::FirewallState;
use crate::fs::{BufferCache, Ext3Fs};
use crate::net::socket::SocketTable;
use crate::net::tcp::{TcpConn, TcpSegment, TcpStats};
use crate::net::{NetTrace, PacketDir};
use crate::prog::{CtrlResp, FileId, GuestProg, SockFd, Syscall, SysRet};
use crate::sched::{RunQueue, Thread, ThreadState, Tid};
use crate::timer::{sleep_to_wake_jiffy, TimerWheel};
use crate::wire::GuestResidue;

/// Dirty-block fraction (of cache capacity) that starts async writeback.
const WB_HIGH_FRAC: f64 = 0.25;

/// Dirty-block fraction that throttles writers (blocking writeback).
const WB_HARD_FRAC: f64 = 0.5;

/// Max blocks per writeback batch.
const WB_CHUNK: usize = 2048;

/// Periodic writeback interval in jiffies (pdflush-style, 5 s at HZ=100).
const WB_PERIOD_JIFFIES: u64 = 500;

/// Step budget per dispatch: a guard against non-blocking-syscall loops.
const STEP_BUDGET: u32 = 1_000_000;

/// Static configuration of a guest kernel.
#[derive(Clone, Debug)]
pub struct KernelConfig {
    /// Timer frequency (ticks per second).
    pub hz: u32,
    /// This node's experiment-network address.
    pub node: NodeAddr,
    /// Buffer-cache capacity in blocks.
    pub cache_blocks: usize,
    /// Virtual disk capacity in blocks.
    pub disk_blocks: u64,
    /// Filesystem block size.
    pub block_size: u32,
    /// Filesystem blocks per allocation group.
    pub blocks_per_group: u32,
}

ckptstore::wire!(struct KernelConfig in GuestResidue {
    hz,
    node,
    cache_blocks,
    disk_blocks,
    block_size,
    blocks_per_group,
});

impl KernelConfig {
    /// The §7 evaluation guest: HZ=100, 256 MB memory (≈200 MB page
    /// cache), 6 GB disk, ext3 with 8192-block groups.
    pub fn pc3000_guest(node: NodeAddr) -> Self {
        KernelConfig {
            hz: profile::GUEST_HZ,
            node,
            cache_blocks: 51_200,
            disk_blocks: profile::GUEST_DISK_BYTES / 4096,
            block_size: 4096,
            blocks_per_group: 8192,
        }
    }

    /// Timer tick length in nanoseconds.
    pub fn tick_ns(&self) -> u64 {
        1_000_000_000 / self.hz as u64
    }
}

/// Why a block batch was issued (decides completion handling).
#[derive(Clone, Debug)]
enum BatchKind {
    /// Cache-miss reads: fill the cache, wake the reader.
    Read,
    /// Writeback: blocks were already marked clean when taken.
    Writeback,
}

ckptstore::wire!(enum BatchKind: "batch kind" { Read = 0, Writeback = 1 });

#[derive(Clone, Debug)]
struct BatchInfo {
    kind: BatchKind,
    waiters: Vec<Tid>,
}

ckptstore::wire!(struct BatchInfo { kind, waiters });

/// Aggregate network counters for one kernel.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetTotals {
    pub retransmissions: u64,
    pub timeouts: u64,
    pub dup_acks: u64,
    pub window_shrinks: u64,
    pub bytes_delivered: u64,
    pub segments_sent: u64,
}

/// The guest kernel.
#[derive(Clone)]
pub struct Kernel {
    cfg: KernelConfig,
    /// Guest-visible time at the last entry (vmm-supplied).
    now_ns: u64,
    jiffies: u64,
    /// Guest wall clock (xtime), updated on ticks.
    xtime_ns: u64,
    threads: Vec<Thread>,
    runq: RunQueue,
    wheel: TimerWheel,
    fw: FirewallState,
    socks: SocketTable,
    /// In-guest packet capture.
    pub trace: NetTrace,
    fs: Ext3Fs,
    cache: BufferCache,
    next_batch: u64,
    /// Outstanding block batches by id; only looked up, and encoded in
    /// id order.
    batches: IntMap<u64, BatchInfo>,
    wb_in_flight: bool,
    next_burst: u64,
    next_rpc: u64,
    actions: Vec<GuestAction>,
    /// Scratch the TCP connections append outbound segments to; flushed
    /// into `actions` before the entry point that filled it returns, so
    /// it is always empty at rest and never part of the wire image.
    tx: Vec<TcpSegment>,
    /// Threads that exited (for experiment completion checks).
    pub exited: u32,
    /// Guest-observable clock events awaiting a vmm drain. Not guest
    /// state: excluded from the wire image, drained before capture.
    pub witness: ClockWitness,
}

// The entire kernel; program objects and message markers land in the
// residue. `Kernel::new` formats the disk whole, so the filesystem must
// span it: the span is bounded by the bitmap words just read, and it
// bounds the cache's block numbers in turn.
ckptstore::wire!(struct Kernel in GuestResidue {
    cfg,
    now_ns,
    jiffies,
    xtime_ns,
    threads,
    runq,
    wheel,
    fw,
    socks,
    trace,
    fs,
    check fs.span() == cfg.disk_blocks => "fs does not span the disk",
    cache in fs.span(),
    next_batch,
    batches,
    wb_in_flight,
    next_burst,
    next_rpc,
    actions,
    exited,
    derived tx = Vec::new(),
    derived witness = ClockWitness::default(),
});

impl Kernel {
    /// Boots a kernel: formats the filesystem, starts services.
    pub fn new(cfg: KernelConfig) -> Self {
        let fs = Ext3Fs::format(cfg.disk_blocks, cfg.block_size, cfg.blocks_per_group);
        let cache = BufferCache::new(cfg.cache_blocks);
        Kernel {
            cfg,
            now_ns: 0,
            jiffies: 0,
            xtime_ns: 0,
            threads: Vec::new(),
            runq: RunQueue::new(),
            wheel: TimerWheel::new(),
            fw: FirewallState::new(),
            socks: SocketTable::new(),
            trace: NetTrace::new(),
            fs,
            cache,
            next_batch: 1,
            batches: IntMap::default(),
            wb_in_flight: false,
            next_burst: 1,
            next_rpc: 1,
            actions: Vec::new(),
            tx: Vec::new(),
            exited: 0,
            witness: ClockWitness::default(),
        }
    }

    /// The kernel's configuration.
    pub fn config(&self) -> &KernelConfig {
        &self.cfg
    }

    /// Guest-visible time at the last entry.
    pub fn guest_now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Current jiffies.
    pub fn jiffies(&self) -> u64 {
        self.jiffies
    }

    /// The temporal firewall state.
    pub fn firewall(&self) -> &FirewallState {
        &self.fw
    }

    /// Spawns a user program as a new thread.
    pub fn spawn(&mut self, prog: Box<dyn GuestProg>) -> Tid {
        let tid = Tid(self.threads.len() as u32);
        self.threads.push(Thread::user(tid, prog));
        self.runq.push(tid);
        tid
    }

    /// Borrows a program back out (downcast in the caller) to read results.
    pub fn prog(&self, tid: Tid) -> Option<&dyn GuestProg> {
        self.threads.get(tid.0 as usize)?.prog.as_deref()
    }

    /// Drains the pending hypervisor actions into `out` by trading
    /// buffers: the caller gets the queue, the kernel keeps filling the
    /// caller's (empty) vector, and neither side reallocates per drain.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not empty.
    pub fn drain_actions(&mut self, out: &mut Vec<GuestAction>) {
        assert!(out.is_empty(), "drain_actions into a non-empty buffer");
        std::mem::swap(&mut self.actions, out);
    }

    /// Aggregate TCP counters across all sockets.
    pub fn net_totals(&self) -> NetTotals {
        let mut t = NetTotals::default();
        for (_, e) in self.socks.iter() {
            let s: &TcpStats = &e.conn.stats;
            t.retransmissions += s.retransmissions;
            t.timeouts += s.timeouts;
            t.dup_acks += s.dup_acks;
            t.window_shrinks += s.window_shrinks;
            t.bytes_delivered += s.bytes_delivered;
            t.segments_sent += s.segments_sent;
        }
        t
    }

    /// A stable digest of guest-observable state, used by tests to verify
    /// that a checkpoint/restore cycle is invisible from inside.
    pub fn state_fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        mix(self.jiffies);
        mix(self.xtime_ns);
        mix(self.threads.len() as u64);
        for t in &self.threads {
            mix(t.state.tag() as u64);
        }
        for (fd, e) in self.socks.iter() {
            mix(fd.0 as u64);
            mix(e.conn.stats.bytes_sent);
            mix(e.conn.stats.bytes_delivered);
        }
        mix(self.fs.allocated_blocks());
        mix(self.cache.len() as u64);
        h
    }

    // ------------------------------------------------------------------
    // Entry points from the vmm.
    // ------------------------------------------------------------------

    /// Timer interrupt: advances jiffies, expires timers, runs TCP tick
    /// processing and periodic writeback, then schedules.
    pub fn on_timer_tick(&mut self, guest_now_ns: u64) {
        if self.fw.closed() {
            // The vmm should not deliver ticks during a checkpoint; being
            // defensive costs nothing.
            return;
        }
        self.now_ns = guest_now_ns;
        self.jiffies += 1;
        self.xtime_ns = guest_now_ns;
        self.witness
            .record(ClockEventKind::Tick, guest_now_ns, self.jiffies);

        for tid in self.wheel.expire(self.jiffies) {
            if let Some(ret) = self.wake(tid) {
                *ret = SysRet::Ok;
            }
        }

        // TCP retransmit timers, in fd order. `rtx` allocates only when
        // an RTO actually fires.
        let now = self.now_ns;
        let mut rtx: Vec<(NodeAddr, TcpSegment)> = Vec::new();
        for (_, e) in self.socks.iter_mut() {
            e.conn.on_tick(now, &mut self.tx);
            rtx.extend(self.tx.drain(..).map(|seg| (e.remote, seg)));
        }
        for (dst, seg) in rtx {
            self.transmit(dst, seg);
        }

        // pdflush-style periodic writeback.
        if self.jiffies.is_multiple_of(WB_PERIOD_JIFFIES) && self.cache.dirty_count() > 0 {
            self.start_writeback(None);
        }

        self.run_threads();
    }

    /// A frame arrived from the virtual NIC.
    pub fn on_net_rx(&mut self, guest_now_ns: u64, src: NodeAddr, seg: &TcpSegment) {
        assert!(
            !self.fw.closed(),
            "vmm delivered rx while the device was suspended"
        );
        self.now_ns = guest_now_ns;
        self.trace.record(self.now_ns, PacketDir::Rx, seg);

        let fd = match self.socks.demux(src, seg) {
            Some(fd) => fd,
            None if seg.flags.syn && self.socks.listening(seg.dst_port) => {
                let (conn, synack) = TcpConn::accept(seg.dst_port, seg.src_port, seg, self.now_ns);
                let fd = self.socks.register(conn, src);
                self.transmit(src, synack);
                fd
            }
            None => return, // No listener / stale segment: drop (no RST modeled).
        };

        let now = self.now_ns;
        let e = self.socks.get_mut(fd).expect("demuxed fd exists");
        let fx = e.conn.on_segment(seg, now, &mut self.tx, &mut e.inbox);
        let (remote, local_port) = (e.remote, e.conn.local_port);
        self.flush_tx(remote);
        if fx.connected {
            // Passive side: park in the accept backlog; active side: wake
            // the connecting thread.
            let mut woke_connector = false;
            for i in 0..self.threads.len() {
                if let ThreadState::ConnectWait { fd: wfd } = self.threads[i].state {
                    if wfd == fd.0 {
                        let tid = self.threads[i].tid;
                        if let Some(ret) = self.wake(tid) {
                            *ret = SysRet::Sock(fd);
                        }
                        woke_connector = true;
                        break;
                    }
                }
            }
            if !woke_connector {
                self.socks.push_ready(local_port, fd);
                self.wake_acceptors(local_port);
            }
        }
        self.service_socket_waiters(fd);
        self.run_threads();
    }

    /// A block batch completed; `read_data` carries content for its reads.
    pub fn on_block_complete(&mut self, guest_now_ns: u64, batch_id: u64, read_data: Vec<(u64, BlockData)>) {
        // Block completions are allowed through the firewall (drain path).
        if !self.fw.closed() {
            self.now_ns = guest_now_ns;
        }
        let Some(info) = self.batches.remove(&batch_id) else {
            panic!("completion for unknown batch {batch_id}");
        };
        match info.kind {
            BatchKind::Read => {
                for (vba, data) in read_data {
                    if let Some((wb_vba, wb_data)) = self.cache.insert(vba, data, false) {
                        // Filling the cache displaced a dirty block; write
                        // it back asynchronously.
                        self.start_writeback(Some(vec![(wb_vba, wb_data)]));
                    }
                }
            }
            BatchKind::Writeback => {
                self.wb_in_flight = false;
            }
        }
        for tid in info.waiters {
            if let Some(ret) = self.wake(tid) {
                *ret = SysRet::Ok;
            }
        }
        self.run_threads();
    }

    /// A control-service RPC reply arrived (timestamps already transduced
    /// to guest time by the vmm boundary).
    pub fn on_ctrl_rpc(&mut self, guest_now_ns: u64, rpc_id: u64, resp: CtrlResp) {
        self.now_ns = guest_now_ns;
        for i in 0..self.threads.len() {
            if let ThreadState::RpcWait { id } = self.threads[i].state {
                if id == rpc_id {
                    let tid = self.threads[i].tid;
                    if let Some(ret) = self.wake(tid) {
                        *ret = SysRet::Rpc(resp);
                    }
                    break;
                }
            }
        }
        self.run_threads();
    }

    /// A CPU burst finished.
    pub fn on_compute_done(&mut self, guest_now_ns: u64, burst_id: u64) {
        self.now_ns = guest_now_ns;
        for i in 0..self.threads.len() {
            if let ThreadState::Computing { burst } = self.threads[i].state {
                if burst == burst_id {
                    let tid = self.threads[i].tid;
                    if let Some(ret) = self.wake(tid) {
                        *ret = SysRet::Ok;
                    }
                    break;
                }
            }
        }
        self.run_threads();
    }

    // ------------------------------------------------------------------
    // Checkpoint hooks (§4.1).
    // ------------------------------------------------------------------

    /// Begins suspension: closes the temporal firewall. Returns true if
    /// the guest is already quiescent (no in-flight block I/O); otherwise
    /// the vmm must keep delivering block completions and poll
    /// [`Kernel::suspend_ready`].
    pub fn prepare_suspend(&mut self, guest_now_ns: u64) -> bool {
        self.now_ns = guest_now_ns;
        self.fw.close(guest_now_ns);
        self.witness
            .record(ClockEventKind::FirewallClosed, guest_now_ns, self.jiffies);
        self.suspend_ready()
    }

    /// True once in-flight block I/O has drained.
    pub fn suspend_ready(&self) -> bool {
        self.batches.is_empty()
    }

    /// Completes resume: reopens the firewall. The vmm guarantees guest
    /// time is continuous with the freeze point.
    pub fn finish_resume(&mut self, guest_now_ns: u64) {
        self.fw.open(guest_now_ns);
        self.now_ns = guest_now_ns;
        self.witness
            .record(ClockEventKind::FirewallOpened, guest_now_ns, self.jiffies);
        self.run_threads();
    }

    // ------------------------------------------------------------------
    // Internals.
    // ------------------------------------------------------------------

    /// Queues `seg` for the vmm, moving it once: into the allocation the
    /// frame that carries it will share.
    fn transmit(&mut self, dst: NodeAddr, seg: TcpSegment) {
        self.trace.record(self.now_ns, PacketDir::Tx, &seg);
        self.actions.push(GuestAction::NetTx { dst, seg: Arc::new(seg) });
    }

    /// Transmits to `dst` everything a connection appended to the `tx`
    /// scratch, leaving it empty with its capacity in place.
    fn flush_tx(&mut self, dst: NodeAddr) {
        let mut tx = std::mem::take(&mut self.tx);
        for seg in tx.drain(..) {
            self.transmit(dst, seg);
        }
        self.tx = tx;
    }

    /// Makes blocked thread `tid` runnable and hands back the slot its
    /// syscall's answer goes in, for the caller to write the answer into
    /// in place; `None` if the thread has exited.
    fn wake(&mut self, tid: Tid) -> Option<&mut SysRet> {
        let t = &mut self.threads[tid.0 as usize];
        if t.exited() {
            return None;
        }
        t.state = ThreadState::Runnable;
        self.runq.push(tid);
        Some(&mut t.pending_ret)
    }

    fn wake_acceptors(&mut self, port: u16) {
        for i in 0..self.threads.len() {
            if let ThreadState::AcceptWait { port: p } = self.threads[i].state {
                if p == port {
                    if let Some(fd) = self.socks.pop_ready(port) {
                        let tid = self.threads[i].tid;
                        if let Some(ret) = self.wake(tid) {
                            *ret = SysRet::Sock(fd);
                        }
                    }
                }
            }
        }
    }

    /// Re-checks threads blocked on a socket after its state changed.
    fn service_socket_waiters(&mut self, fd: SockFd) {
        for i in 0..self.threads.len() {
            let tid = self.threads[i].tid;
            match self.threads[i].state {
                ThreadState::RecvWait { fd: wfd, max } if wfd == fd.0 => {
                    let ready = {
                        let e = self.socks.get(fd).expect("fd exists");
                        e.conn.readable() > 0 || !e.inbox.is_empty()
                    };
                    if ready {
                        let answer = self.do_recv(fd, max);
                        if let Some(ret) = self.wake(tid) {
                            *ret = answer;
                        }
                    }
                }
                ThreadState::SendWait { fd: wfd, bytes } if wfd == fd.0 => {
                    let now = self.now_ns;
                    let msg = self.threads[i].send_msg.clone();
                    let e = self.socks.get_mut(fd).expect("fd exists");
                    let accepted = e.conn.send(bytes, msg, now, &mut self.tx);
                    let remote = e.remote;
                    self.flush_tx(remote);
                    if accepted > 0 {
                        self.threads[i].send_msg = None;
                        if let Some(ret) = self.wake(tid) {
                            *ret = SysRet::Sent(accepted);
                        }
                    }
                }
                _ => {}
            }
        }
    }

    fn do_recv(&mut self, fd: SockFd, max: u64) -> SysRet {
        let e = self.socks.get_mut(fd).expect("fd exists");
        let bytes = e.conn.recv(max);
        let msgs: Vec<_> = e.inbox.drain(..).collect();
        SysRet::Recvd { bytes, msgs }
    }

    fn start_writeback(&mut self, forced: Option<Vec<(u64, BlockData)>>) {
        let blocks = match forced {
            Some(b) => b,
            None => {
                if self.wb_in_flight {
                    return;
                }
                self.cache.take_dirty(WB_CHUNK)
            }
        };
        if blocks.is_empty() {
            return;
        }
        self.wb_in_flight = true;
        let id = self.next_batch;
        self.next_batch += 1;
        let ops = blocks
            .into_iter()
            .map(|(vba, data)| BlockBatchOp {
                write: true,
                vba,
                data: Some(data),
            })
            .collect();
        self.batches.insert(
            id,
            BatchInfo {
                kind: BatchKind::Writeback,
                waiters: Vec::new(),
            },
        );
        self.actions.push(GuestAction::BlockIo(BlockBatch { id, ops }));
    }

    /// The dispatch loop: runs threads until everything blocks.
    fn run_threads(&mut self) {
        let mut budget = STEP_BUDGET;
        loop {
            let threads = &self.threads;
            let classes = |tid: Tid| threads[tid.0 as usize].class;
            let Some(tid) = self.runq.pick_next(&self.fw, &classes) else {
                return;
            };
            // A thread may appear in the queue after being re-blocked by a
            // racing wake; skip anything not actually runnable.
            if !matches!(self.threads[tid.0 as usize].state, ThreadState::Runnable) {
                continue;
            }
            // What the program's next step is told: the answer its wake
            // left, then each syscall answered inline.
            let t = &mut self.threads[tid.0 as usize];
            let mut ret = std::mem::replace(&mut t.pending_ret, SysRet::Ok);
            loop {
                budget = budget.checked_sub(1).expect(
                    "guest step budget exhausted: a program is spinning on non-blocking syscalls",
                );
                let prog = self.threads[tid.0 as usize].prog.as_mut();
                let sys = prog.expect("user thread has a program").step(ret);
                match self.handle_syscall(tid, sys) {
                    Some(answer) => ret = answer,
                    None => break, // Thread blocked, yielded, or exited.
                }
            }
        }
    }

    /// Executes a syscall for `tid`. A call answered inline returns its
    /// answer, which the dispatch loop hands straight to the program's next
    /// step; a call that blocks (or yields, or exits) returns `None` and
    /// leaves the thread's `pending_ret` to its wake.
    fn handle_syscall(&mut self, tid: Tid, sys: Syscall) -> Option<SysRet> {
        match sys {
            Syscall::Gettimeofday => {
                self.witness
                    .record(ClockEventKind::ClockRead, self.now_ns, self.jiffies);
                Some(SysRet::Time(self.now_ns))
            }
            Syscall::Sleep { ns } => {
                let wake = sleep_to_wake_jiffy(self.jiffies, ns, self.cfg.tick_ns());
                self.wheel.arm(wake, tid);
                self.threads[tid.0 as usize].state = ThreadState::Sleeping;
                None
            }
            Syscall::Compute { ns } => {
                let id = self.next_burst;
                self.next_burst += 1;
                self.threads[tid.0 as usize].state = ThreadState::Computing { burst: id };
                self.actions.push(GuestAction::Compute { id, ns });
                None
            }
            Syscall::Yield => {
                self.runq.push(tid);
                None
            }
            Syscall::Listen { port } => {
                self.socks.listen(port);
                Some(SysRet::Ok)
            }
            Syscall::AcceptNb { port } => {
                if !self.socks.listening(port) {
                    self.socks.listen(port);
                }
                Some(match self.socks.pop_ready(port) {
                    Some(fd) => SysRet::Sock(fd),
                    None => SysRet::Ok,
                })
            }
            Syscall::Accept { port } => {
                if !self.socks.listening(port) {
                    return Some(SysRet::Err("not listening"));
                }
                match self.socks.pop_ready(port) {
                    Some(fd) => Some(SysRet::Sock(fd)),
                    None => {
                        self.threads[tid.0 as usize].state = ThreadState::AcceptWait { port };
                        None
                    }
                }
            }
            Syscall::Connect { dst, port } => {
                let local = self.socks.ephemeral_port();
                let (conn, syn) = TcpConn::connect(local, port, self.now_ns);
                let fd = self.socks.register(conn, dst);
                self.transmit(dst, syn);
                self.threads[tid.0 as usize].state = ThreadState::ConnectWait { fd: fd.0 };
                None
            }
            Syscall::Send { fd, bytes, msg } => {
                let Some(e) = self.socks.get_mut(fd) else {
                    return Some(SysRet::Err("bad fd"));
                };
                let accepted = e.conn.send(bytes, msg.clone(), self.now_ns, &mut self.tx);
                let remote = e.remote;
                self.flush_tx(remote);
                if accepted > 0 {
                    Some(SysRet::Sent(accepted))
                } else {
                    let t = &mut self.threads[tid.0 as usize];
                    t.state = ThreadState::SendWait { fd: fd.0, bytes };
                    t.send_msg = msg;
                    None
                }
            }
            Syscall::RecvNb { fd, max } => {
                let Some(e) = self.socks.get(fd) else {
                    return Some(SysRet::Err("bad fd"));
                };
                Some(if e.conn.readable() > 0 || !e.inbox.is_empty() {
                    self.do_recv(fd, max)
                } else {
                    SysRet::Recvd {
                        bytes: 0,
                        msgs: Vec::new(),
                    }
                })
            }
            Syscall::SendNb { fd, bytes, msg } => {
                let Some(e) = self.socks.get_mut(fd) else {
                    return Some(SysRet::Err("bad fd"));
                };
                let accepted = e.conn.send(bytes, msg, self.now_ns, &mut self.tx);
                let remote = e.remote;
                self.flush_tx(remote);
                Some(SysRet::Sent(accepted))
            }
            Syscall::Recv { fd, max } => {
                let Some(e) = self.socks.get(fd) else {
                    return Some(SysRet::Err("bad fd"));
                };
                if e.conn.readable() > 0 || !e.inbox.is_empty() {
                    Some(self.do_recv(fd, max))
                } else {
                    self.threads[tid.0 as usize].state = ThreadState::RecvWait { fd: fd.0, max };
                    None
                }
            }
            Syscall::CloseSock { fd } => {
                let now = self.now_ns;
                if let Some(e) = self.socks.get_mut(fd) {
                    let fin = e.conn.close(now);
                    let remote = e.remote;
                    if let Some(seg) = fin {
                        self.transmit(remote, seg);
                    }
                }
                Some(SysRet::Ok)
            }
            Syscall::Create { file } => {
                Some(match self.fs.create(file) {
                    Ok(()) => SysRet::Ok,
                    Err(e) => SysRet::Err(e),
                })
            }
            Syscall::Write { file, offset, bytes } => self.sys_write(tid, file, offset, bytes),
            Syscall::Read { file, offset, bytes } => self.sys_read(tid, file, offset, bytes),
            Syscall::Delete { file } => Some(match self.fs.delete(file) {
                Ok((bitmap_writes, freed)) => {
                    for vba in freed {
                        self.cache.invalidate(vba);
                    }
                    let mut forced = Vec::new();
                    for w in bitmap_writes {
                        if let Some(ev) = self.cache.insert(w.vba, w.data, true) {
                            forced.push(ev);
                        }
                    }
                    if !forced.is_empty() {
                        self.start_writeback(Some(forced));
                    }
                    SysRet::Ok
                }
                Err(e) => SysRet::Err(e),
            }),
            Syscall::Sync => {
                let dirty = self.cache.take_dirty(usize::MAX >> 1);
                if dirty.is_empty() && self.batches.is_empty() {
                    return Some(SysRet::Ok);
                }
                let id = self.next_batch;
                self.next_batch += 1;
                let ops = dirty
                    .into_iter()
                    .map(|(vba, data)| BlockBatchOp {
                        write: true,
                        vba,
                        data: Some(data),
                    })
                    .collect::<Vec<_>>();
                if ops.is_empty() {
                    // Outstanding batches but nothing new: wait on a no-op
                    // marker batch to preserve ordering.
                    self.batches.insert(
                        id,
                        BatchInfo {
                            kind: BatchKind::Writeback,
                            waiters: vec![tid],
                        },
                    );
                    self.actions
                        .push(GuestAction::BlockIo(BlockBatch { id, ops: Vec::new() }));
                } else {
                    self.batches.insert(
                        id,
                        BatchInfo {
                            kind: BatchKind::Writeback,
                            waiters: vec![tid],
                        },
                    );
                    self.wb_in_flight = true;
                    self.actions.push(GuestAction::BlockIo(BlockBatch { id, ops }));
                }
                self.threads[tid.0 as usize].state = ThreadState::IoWait { batch: id };
                None
            }
            Syscall::CtrlRpc { req } => {
                let id = self.next_rpc;
                self.next_rpc += 1;
                self.threads[tid.0 as usize].state = ThreadState::RpcWait { id };
                self.actions.push(GuestAction::CtrlRpc { id, req });
                None
            }
            Syscall::TriggerCheckpoint => {
                self.actions.push(GuestAction::TriggerCheckpoint);
                Some(SysRet::Ok)
            }
            Syscall::Exit => {
                // The program object is kept so experiments can read its
                // recorded results after the run.
                self.threads[tid.0 as usize].state = ThreadState::Exited;
                self.exited += 1;
                None
            }
        }
    }

    fn sys_write(&mut self, tid: Tid, file: FileId, offset: u64, bytes: u64) -> Option<SysRet> {
        let writes = match self.fs.write(file, offset, bytes) {
            Ok(w) => w,
            Err(e) => {
                return Some(SysRet::Err(e));
            }
        };
        let mut forced = Vec::new();
        for w in writes {
            if let Some(ev) = self.cache.insert(w.vba, w.data, true) {
                forced.push(ev);
            }
        }
        if !forced.is_empty() {
            self.start_writeback(Some(forced));
        }
        let hard = (self.cache.capacity() as f64 * WB_HARD_FRAC) as usize;
        let high = (self.cache.capacity() as f64 * WB_HIGH_FRAC) as usize;
        if self.cache.dirty_count() >= hard {
            // Throttle the writer behind a blocking writeback.
            let blocks = self.cache.take_dirty(WB_CHUNK);
            let id = self.next_batch;
            self.next_batch += 1;
            let ops = blocks
                .into_iter()
                .map(|(vba, data)| BlockBatchOp {
                    write: true,
                    vba,
                    data: Some(data),
                })
                .collect();
            self.batches.insert(
                id,
                BatchInfo {
                    kind: BatchKind::Writeback,
                    waiters: vec![tid],
                },
            );
            self.wb_in_flight = true;
            self.actions.push(GuestAction::BlockIo(BlockBatch { id, ops }));
            self.threads[tid.0 as usize].state = ThreadState::IoWait { batch: id };
            None
        } else {
            if self.cache.dirty_count() >= high {
                self.start_writeback(None);
            }
            Some(SysRet::Ok)
        }
    }

    fn sys_read(&mut self, tid: Tid, file: FileId, offset: u64, bytes: u64) -> Option<SysRet> {
        let vbas = match self.fs.read_vbas(file, offset, bytes) {
            Ok(v) => v,
            Err(e) => {
                return Some(SysRet::Err(e));
            }
        };
        let mut misses = Vec::new();
        for vba in vbas {
            if self.cache.read(vba).is_none() {
                misses.push(vba);
            }
        }
        if misses.is_empty() {
            return Some(SysRet::Ok);
        }
        let id = self.next_batch;
        self.next_batch += 1;
        let ops = misses
            .iter()
            .map(|&vba| BlockBatchOp {
                write: false,
                vba,
                data: None,
            })
            .collect();
        self.batches.insert(
            id,
            BatchInfo {
                kind: BatchKind::Read,
                waiters: vec![tid],
            },
        );
        self.actions.push(GuestAction::BlockIo(BlockBatch { id, ops }));
        self.threads[tid.0 as usize].state = ThreadState::IoWait { batch: id };
        None
    }
}

#[cfg(test)]
mod tests {
    use ckptstore::{Dec, Enc, Wire};

    use super::*;
    use crate::prog::{CtrlReq, GuestProg, NullProg, SockFd};
    use std::any::Any;

    fn small_kernel() -> Kernel {
        let mut cfg = KernelConfig::pc3000_guest(NodeAddr(1));
        cfg.disk_blocks = 10_000;
        cfg.cache_blocks = 64;
        Kernel::new(cfg)
    }

    /// A program driven by a script of syscalls; records returns.
    #[derive(Clone)]
    struct Scripted {
        script: Vec<u8>, // Opcode stream, interpreted in `step`.
        pc: usize,
        pub rets: Vec<String>,
    }

    impl Scripted {
        fn new(script: &[u8]) -> Self {
            Scripted {
                script: script.to_vec(),
                pc: 0,
                rets: Vec::new(),
            }
        }
    }

    impl GuestProg for Scripted {
        fn step(&mut self, ret: SysRet) -> Syscall {
            self.rets.push(format!("{ret:?}"));
            let op = self.script.get(self.pc).copied().unwrap_or(255);
            self.pc += 1;
            match op {
                0 => Syscall::AcceptNb { port: 80 },
                1 => Syscall::Listen { port: 80 },
                2 => Syscall::RecvNb {
                    fd: SockFd(999),
                    max: 10,
                },
                3 => Syscall::CtrlRpc {
                    req: CtrlReq::NfsGetattr { file: 1 },
                },
                4 => Syscall::TriggerCheckpoint,
                5 => Syscall::Gettimeofday,
                _ => Syscall::Exit,
            }
        }
        fn clone_box(&self) -> Box<dyn GuestProg> {
            Box::new(self.clone())
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    fn drained(k: &mut Kernel) -> Vec<GuestAction> {
        let mut actions = Vec::new();
        k.drain_actions(&mut actions);
        actions
    }

    fn rets(k: &Kernel, tid: Tid) -> Vec<String> {
        k.prog(tid)
            .unwrap()
            .as_any()
            .downcast_ref::<Scripted>()
            .unwrap()
            .rets
            .clone()
    }

    #[test]
    fn accept_nb_returns_ok_when_no_connection_waits() {
        let mut k = small_kernel();
        let tid = k.spawn(Box::new(Scripted::new(&[1, 0, 255])));
        k.on_timer_tick(10_000_000);
        let r = rets(&k, tid);
        // Start, Ok (listen), Ok (accept-nb empty), then exit.
        assert_eq!(r[1], "Ok");
        assert_eq!(r[2], "Ok", "empty backlog must not block");
        assert_eq!(k.exited, 1);
    }

    #[test]
    fn recv_nb_on_bad_fd_errors_inline() {
        let mut k = small_kernel();
        let tid = k.spawn(Box::new(Scripted::new(&[2, 255])));
        k.on_timer_tick(10_000_000);
        let r = rets(&k, tid);
        assert_eq!(r[1], "Err(bad fd)");
    }

    #[test]
    fn ctrl_rpc_blocks_until_reply_arrives() {
        let mut k = small_kernel();
        let tid = k.spawn(Box::new(Scripted::new(&[3, 255])));
        k.on_timer_tick(10_000_000);
        // The thread is parked in RpcWait; one CtrlRpc action emitted.
        let rpc_id = drained(&mut k)
            .iter()
            .find_map(|a| match a {
                GuestAction::CtrlRpc { id, .. } => Some(*id),
                _ => None,
            })
            .expect("rpc action emitted");
        assert_eq!(k.exited, 0, "thread is blocked");
        // Reply wakes it with the (transduced) response.
        k.on_ctrl_rpc(
            11_000_000,
            rpc_id,
            CtrlResp::NfsAttr { size: 4096, mtime_ns: 5 },
        );
        let r = rets(&k, tid);
        assert!(r.last().unwrap().starts_with("Rpc("), "{:?}", r.last());
        assert_eq!(k.exited, 1);
    }

    #[test]
    fn trigger_checkpoint_emits_the_action_and_continues() {
        let mut k = small_kernel();
        let _ = k.spawn(Box::new(Scripted::new(&[4, 255])));
        k.on_timer_tick(10_000_000);
        assert!(drained(&mut k)
            .iter()
            .any(|a| matches!(a, GuestAction::TriggerCheckpoint)));
        assert_eq!(k.exited, 1, "trigger is non-blocking");
    }

    #[test]
    fn exited_programs_remain_inspectable() {
        let mut k = small_kernel();
        let tid = k.spawn(Box::new(NullProg));
        k.on_timer_tick(10_000_000);
        assert_eq!(k.exited, 1);
        assert!(k.prog(tid).is_some(), "program kept for result readout");
    }

    #[test]
    fn fingerprint_tracks_guest_activity() {
        let mut k1 = small_kernel();
        let mut k2 = small_kernel();
        assert_eq!(k1.state_fingerprint(), k2.state_fingerprint());
        k1.on_timer_tick(10_000_000);
        assert_ne!(k1.state_fingerprint(), k2.state_fingerprint());
        k2.on_timer_tick(10_000_000);
        assert_eq!(k1.state_fingerprint(), k2.state_fingerprint());
    }

    #[test]
    fn clone_is_a_faithful_checkpoint() {
        let mut k = small_kernel();
        k.spawn(Box::new(Scripted::new(&[5, 5, 5, 255])));
        k.on_timer_tick(10_000_000);
        let image = k.clone();
        assert_eq!(image.state_fingerprint(), k.state_fingerprint());
        // Advancing the original does not disturb the image.
        k.on_timer_tick(20_000_000);
        assert_ne!(image.state_fingerprint(), k.state_fingerprint());
    }

    #[test]
    fn wire_round_trip_is_a_faithful_checkpoint() {
        let mut k = small_kernel();
        k.trace.enable();
        k.spawn(Box::new(Scripted::new(&[1, 5, 3, 255])));
        k.spawn(Box::new(Scripted::new(&[5, 5, 255])));
        k.on_timer_tick(10_000_000);
        k.on_timer_tick(20_000_000);

        let mut residue = GuestResidue::new();
        let mut e = Enc::new();
        k.put(&mut e, &mut residue);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let mut back = Kernel::get(&mut d, &residue).unwrap();
        assert_eq!(d.remaining(), 0, "image fully consumed");
        assert_eq!(back.state_fingerprint(), k.state_fingerprint());
        assert_eq!(back.jiffies(), k.jiffies());
        assert_eq!(back.exited, k.exited);
        assert_eq!(back.trace.records().len(), k.trace.records().len());

        // The restored kernel behaves identically going forward: deliver
        // the pending RPC reply to both and compare.
        let rpc_id = drained(&mut k)
            .iter()
            .find_map(|a| match a {
                GuestAction::CtrlRpc { id, .. } => Some(*id),
                _ => None,
            })
            .expect("rpc action pending");
        let back_rpc_id = drained(&mut back)
            .iter()
            .find_map(|a| match a {
                GuestAction::CtrlRpc { id, .. } => Some(*id),
                _ => None,
            })
            .expect("restored rpc action pending");
        assert_eq!(rpc_id, back_rpc_id);
        let resp = CtrlResp::NfsAttr { size: 1, mtime_ns: 2 };
        k.on_ctrl_rpc(30_000_000, rpc_id, resp);
        back.on_ctrl_rpc(30_000_000, back_rpc_id, resp);
        k.on_timer_tick(40_000_000);
        back.on_timer_tick(40_000_000);
        assert_eq!(back.state_fingerprint(), k.state_fingerprint());
        assert_eq!(rets(&k, Tid(0)), rets(&back, Tid(0)));
    }

    #[test]
    fn wire_decode_rejects_truncated_image() {
        let mut k = small_kernel();
        k.spawn(Box::new(Scripted::new(&[5, 255])));
        k.on_timer_tick(10_000_000);
        let mut residue = GuestResidue::new();
        let mut e = Enc::new();
        k.put(&mut e, &mut residue);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes[..bytes.len() / 2]);
        assert!(Kernel::get(&mut d, &residue).is_err());
    }
}
