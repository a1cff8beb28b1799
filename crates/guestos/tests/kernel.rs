//! Kernel-level integration tests: a miniature hand-rolled "hypervisor"
//! pumps actions between two kernels and a fake disk/CPU, validating the
//! syscall surface end-to-end before the real vmm is layered on top.

use std::any::Any;
use std::collections::VecDeque;

use cowstore::BlockData;
use guestos::{
    BlockBatch, GuestAction, GuestProg, Kernel, KernelConfig, Syscall, SysRet,
};
use hwsim::NodeAddr;

/// A pending world event for the mini-hypervisor.
enum Ev {
    Tick { node: usize },
    Rx { node: usize, src: NodeAddr, seg: std::sync::Arc<guestos::TcpSegment> },
    BlockDone { node: usize, batch: BlockBatch },
    ComputeDone { node: usize, id: u64 },
}

/// Mini-hypervisor over N kernels: fixed network delay, instant-ish disk,
/// exact CPU. Time in ns.
struct MiniVmm {
    kernels: Vec<Kernel>,
    now: u64,
    queue: VecDeque<(u64, Ev)>,
    net_delay: u64,
    disk_ns_per_block: u64,
    /// The buffer traded with each kernel's action queue on every drain.
    actions: Vec<GuestAction>,
}

impl MiniVmm {
    fn new(n: usize) -> Self {
        let kernels = (0..n)
            .map(|i| {
                let mut cfg = KernelConfig::pc3000_guest(NodeAddr(i as u32));
                cfg.disk_blocks = 100_000;
                cfg.cache_blocks = 4096;
                Kernel::new(cfg)
            })
            .collect();
        MiniVmm {
            kernels,
            now: 0,
            queue: VecDeque::new(),
            net_delay: 100_000, // 100 µs
            disk_ns_per_block: 60_000,
            actions: Vec::new(),
        }
    }

    fn post(&mut self, at: u64, ev: Ev) {
        let pos = self.queue.iter().position(|&(t, _)| t > at);
        match pos {
            Some(p) => self.queue.insert(p, (at, ev)),
            None => self.queue.push_back((at, ev)),
        }
    }

    fn drain_actions(&mut self, node: usize) {
        let mut actions = std::mem::take(&mut self.actions);
        self.kernels[node].drain_actions(&mut actions);
        for a in actions.drain(..) {
            match a {
                GuestAction::NetTx { dst, seg } => {
                    let at = self.now + self.net_delay;
                    self.post(
                        at,
                        Ev::Rx {
                            node: dst.0 as usize,
                            src: NodeAddr(node as u32),
                            seg,
                        },
                    );
                }
                GuestAction::BlockIo(batch) => {
                    let cost = self.disk_ns_per_block * batch.ops.len().max(1) as u64;
                    let at = self.now + cost;
                    self.post(at, Ev::BlockDone { node, batch });
                }
                GuestAction::Compute { id, ns } => {
                    let at = self.now + ns;
                    self.post(at, Ev::ComputeDone { node, id });
                }
                GuestAction::CtrlRpc { .. } | GuestAction::TriggerCheckpoint => {
                    // No control services or coordinator here.
                }
            }
        }
        self.actions = actions;
    }

    fn run_until(&mut self, t_end: u64) {
        // Seed periodic ticks.
        while let Some(&(t, _)) = self.queue.front() {
            if t > t_end {
                break;
            }
            let (t, ev) = self.queue.pop_front().expect("peeked");
            self.now = t;
            match ev {
                Ev::Tick { node } => {
                    self.kernels[node].on_timer_tick(self.now);
                    let next = self.now + 10_000_000;
                    self.post(next, Ev::Tick { node });
                    self.drain_actions(node);
                }
                Ev::Rx { node, src, seg } => {
                    self.kernels[node].on_net_rx(self.now, src, &seg);
                    self.drain_actions(node);
                }
                Ev::BlockDone { node, batch } => {
                    // Fabricate read contents (the real vmm reads cowstore).
                    let reads: Vec<(u64, BlockData)> = batch
                        .ops
                        .iter()
                        .filter(|o| !o.write)
                        .map(|o| (o.vba, BlockData::Opaque(o.vba)))
                        .collect();
                    self.kernels[node].on_block_complete(self.now, batch.id, reads);
                    self.drain_actions(node);
                }
                Ev::ComputeDone { node, id } => {
                    self.kernels[node].on_compute_done(self.now, id);
                    self.drain_actions(node);
                }
            }
        }
        self.now = t_end;
    }

    fn start(&mut self) {
        for i in 0..self.kernels.len() {
            self.post(10_000_000, Ev::Tick { node: i });
            self.drain_actions(i);
        }
    }
}

// ---------------------------------------------------------------------
// Test programs.
// ---------------------------------------------------------------------

/// usleep-loop microbenchmark (the Fig 4 workload shape).
#[derive(Clone)]
struct UsleepBench {
    remaining: u32,
    t_prev: Option<u64>,
    samples_ns: Vec<u64>,
    state: u8, // 0 = need time, 1 = sleeping done -> need time
}

impl UsleepBench {
    fn new(iters: u32) -> Self {
        UsleepBench {
            remaining: iters,
            t_prev: None,
            samples_ns: Vec::new(),
            state: 0,
        }
    }
}

impl GuestProg for UsleepBench {
    fn step(&mut self, ret: SysRet) -> Syscall {
        if let SysRet::Time(t) = ret {
            if let Some(prev) = self.t_prev {
                self.samples_ns.push(t - prev);
                if self.remaining == 0 {
                    return Syscall::Exit;
                }
                self.remaining -= 1;
            }
            self.t_prev = Some(t);
            self.state = 1;
            return Syscall::Sleep { ns: 10_000_000 };
        }
        // Start, or sleep completed: read the clock.
        Syscall::Gettimeofday
    }
    fn clone_box(&self) -> Box<dyn GuestProg> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Bulk TCP sender.
#[derive(Clone)]
struct Sender {
    dst: NodeAddr,
    port: u16,
    total: u64,
    sent: u64,
    fd: Option<guestos::prog::SockFd>,
    done: bool,
}

impl GuestProg for Sender {
    fn step(&mut self, ret: SysRet) -> Syscall {
        match ret {
            SysRet::Start => Syscall::Connect {
                dst: self.dst,
                port: self.port,
            },
            SysRet::Sock(fd) => {
                self.fd = Some(fd);
                Syscall::Send {
                    fd,
                    bytes: (self.total - self.sent).min(64 * 1024),
                    msg: None,
                }
            }
            SysRet::Sent(n) => {
                self.sent += n;
                if self.sent >= self.total {
                    self.done = true;
                    return Syscall::Exit;
                }
                Syscall::Send {
                    fd: self.fd.expect("connected"),
                    bytes: (self.total - self.sent).min(64 * 1024),
                    msg: None,
                }
            }
            other => panic!("sender: unexpected {other:?}"),
        }
    }
    fn clone_box(&self) -> Box<dyn GuestProg> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Bulk TCP receiver.
#[derive(Clone)]
struct Receiver {
    port: u16,
    got: u64,
    fd: Option<guestos::prog::SockFd>,
    listening: bool,
}

impl GuestProg for Receiver {
    fn step(&mut self, ret: SysRet) -> Syscall {
        match ret {
            SysRet::Start => Syscall::Listen { port: self.port },
            SysRet::Ok if !self.listening => {
                self.listening = true;
                Syscall::Accept { port: self.port }
            }
            SysRet::Sock(fd) => {
                self.fd = Some(fd);
                Syscall::Recv { fd, max: u64::MAX }
            }
            SysRet::Recvd { bytes, .. } => {
                self.got += bytes;
                Syscall::Recv {
                    fd: self.fd.expect("accepted"),
                    max: u64::MAX,
                }
            }
            other => panic!("receiver: unexpected {other:?}"),
        }
    }
    fn clone_box(&self) -> Box<dyn GuestProg> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Sequential file writer + reader + deleter.
#[derive(Clone)]
struct FileChurn {
    phase: u8,
    chunk: u64,
    written: u64,
    read: u64,
    total: u64,
    pub done: bool,
}

impl GuestProg for FileChurn {
    fn step(&mut self, ret: SysRet) -> Syscall {
        if matches!(ret, SysRet::Err(e) if e != "exists") {
            panic!("file churn error: {ret:?}");
        }
        match self.phase {
            0 => {
                self.phase = 1;
                Syscall::Create {
                    file: guestos::prog::FileId(7),
                }
            }
            1 => {
                if self.written >= self.total {
                    self.phase = 2;
                    return Syscall::Sync;
                }
                let off = self.written;
                self.written += self.chunk;
                Syscall::Write {
                    file: guestos::prog::FileId(7),
                    offset: off,
                    bytes: self.chunk,
                }
            }
            2 => {
                if self.read >= self.total {
                    self.phase = 3;
                    return Syscall::Delete {
                        file: guestos::prog::FileId(7),
                    };
                }
                let off = self.read;
                self.read += self.chunk;
                Syscall::Read {
                    file: guestos::prog::FileId(7),
                    offset: off,
                    bytes: self.chunk,
                }
            }
            _ => {
                self.done = true;
                Syscall::Exit
            }
        }
    }
    fn clone_box(&self) -> Box<dyn GuestProg> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

// ---------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------

#[test]
fn usleep_loop_measures_two_ticks_per_iteration() {
    let mut vmm = MiniVmm::new(1);
    let tid = vmm.kernels[0].spawn(Box::new(UsleepBench::new(50)));
    vmm.start();
    vmm.run_until(3_000_000_000);
    let prog = vmm.kernels[0]
        .prog(tid)
        .expect("prog alive or kept")
        .as_any()
        .downcast_ref::<UsleepBench>();
    // Program may have exited (prog dropped); read before exit instead.
    if let Some(p) = prog {
        assert!(!p.samples_ns.is_empty());
        for &s in &p.samples_ns {
            assert_eq!(s, 20_000_000, "usleep(10ms) measures exactly 2 ticks here");
        }
    } else {
        panic!("program exited and was dropped before inspection");
    }
}

#[test]
fn tcp_transfer_between_kernels_delivers_all_bytes_cleanly() {
    let mut vmm = MiniVmm::new(2);
    let total = 2_000_000u64;
    vmm.kernels[0].spawn(Box::new(Sender {
        dst: NodeAddr(1),
        port: 5001,
        total,
        sent: 0,
        fd: None,
        done: false,
    }));
    vmm.kernels[1].spawn(Box::new(Receiver {
        port: 5001,
        got: 0,
        fd: None,
        listening: false,
    }));
    vmm.start();
    vmm.run_until(20_000_000_000);
    let totals = vmm.kernels[1].net_totals();
    assert_eq!(totals.bytes_delivered, total);
    assert_eq!(vmm.kernels[0].net_totals().retransmissions, 0);
    assert_eq!(vmm.kernels[0].net_totals().timeouts, 0);
}

#[test]
fn file_write_read_delete_cycle_completes_and_frees_blocks() {
    let mut vmm = MiniVmm::new(1);
    let total = 8 * 1024 * 1024u64; // 8 MB: exceeds the small test cache.
    let tid = vmm.kernels[0].spawn(Box::new(FileChurn {
        phase: 0,
        chunk: 64 * 1024,
        written: 0,
        read: 0,
        total,
        done: false,
    }));
    vmm.start();
    vmm.run_until(60_000_000_000);
    assert_eq!(vmm.kernels[0].exited, 1, "program ran to completion");
    let _ = tid;
}

#[test]
fn checkpoint_clone_restore_is_invisible_to_guest_state() {
    let mut vmm = MiniVmm::new(1);
    vmm.kernels[0].spawn(Box::new(UsleepBench::new(1000)));
    vmm.start();
    vmm.run_until(1_000_000_000);

    // Suspend: firewall closes; guest must be quiescent (no disk I/O here).
    let k = &mut vmm.kernels[0];
    let now = k.guest_now_ns();
    assert!(k.prepare_suspend(now), "sleep workload has no in-flight I/O");
    let fp_before = {
        // Fingerprint ignoring firewall bookkeeping: resume a clone first.
        let mut probe = k.clone();
        probe.finish_resume(now);
        probe.state_fingerprint()
    };
    // Save = clone (this is the checkpoint image).
    let image = k.clone();

    // ... arbitrary real time passes; the guest sees none of it ...

    // Restore from the image and resume at the same guest time.
    let mut restored = image;
    restored.finish_resume(now);
    assert_eq!(
        restored.state_fingerprint(),
        fp_before,
        "restore changed guest-observable state"
    );
    assert!(!restored.firewall().closed());
}

#[test]
fn firewall_blocks_user_threads_until_resume() {
    let mut vmm = MiniVmm::new(1);
    vmm.kernels[0].spawn(Box::new(UsleepBench::new(1000)));
    vmm.start();
    vmm.run_until(500_000_000);
    let k = &mut vmm.kernels[0];
    let now = k.guest_now_ns();
    let fp = k.state_fingerprint();
    assert!(k.prepare_suspend(now));
    // Deliver a (buggy) tick while suspended: the kernel must ignore it.
    k.on_timer_tick(now + 10_000_000);
    assert_eq!(k.state_fingerprint(), fp, "no state change while suspended");
    k.finish_resume(now);
}

/// Two kernels' worth of bulk streams, cut mid-transfer: `streams` senders
/// on node 0 with distinct volumes in flight to `streams` receivers on
/// node 1. Returns node 0's and node 1's fingerprints and the order (by
/// local port) in which node 0 retransmits once every RTO has expired.
fn multi_socket_run(streams: u16) -> (u64, u64, Vec<u16>) {
    let mut vmm = MiniVmm::new(2);
    for i in 0..streams {
        vmm.kernels[1].spawn(Box::new(Receiver {
            port: 5001 + i,
            got: 0,
            fd: None,
            listening: false,
        }));
        vmm.kernels[0].spawn(Box::new(Sender {
            dst: NodeAddr(1),
            port: 5001 + i,
            // Far more than the run can move: every stream still has
            // data in flight at the cut.
            total: 1 << 40,
            sent: 0,
            fd: None,
            done: false,
        }));
    }
    vmm.start();
    vmm.run_until(45_000_000);
    let sender_fp = vmm.kernels[0].state_fingerprint();
    let receiver_fp = vmm.kernels[1].state_fingerprint();
    // The network goes silent; far past every RTO, one tick retransmits
    // the head of every stream, in the socket table's iteration order.
    let k = &mut vmm.kernels[0];
    let mut actions = Vec::new();
    k.drain_actions(&mut actions);
    actions.clear();
    k.on_timer_tick(vmm.now + 120_000_000_000);
    k.drain_actions(&mut actions);
    let rto_order = actions
        .iter()
        .filter_map(|a| match a {
            GuestAction::NetTx { seg, .. } if seg.len > 0 => Some(seg.src_port),
            _ => None,
        })
        .collect();
    (sender_fp, receiver_fp, rto_order)
}

/// Same construction, same observable state and same transmission order:
/// the socket table iterates by fd, not by a per-process hash seed.
#[test]
fn socket_order_is_the_same_in_every_identically_built_kernel() {
    const STREAMS: u16 = 6;
    let first = multi_socket_run(STREAMS);
    let second = multi_socket_run(STREAMS);
    assert_eq!(first.0, second.0, "sender-side fingerprints differ");
    assert_eq!(first.1, second.1, "receiver-side fingerprints differ");
    assert_eq!(first.2, second.2, "RTO retransmission order differs");
    // And the order is the one the wire image already used: by fd, which
    // here is connect order, which is ephemeral-port order.
    assert_eq!(first.2.len(), STREAMS as usize, "every stream had data in flight");
    assert!(first.2.is_sorted(), "not in fd order: {:?}", first.2);
}
