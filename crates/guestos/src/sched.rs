//! Threads and the firewall-aware scheduler core.
//!
//! §4.1: "we modified the schedule function, which computes the next
//! thread to run, to selectively stop threads inside the kernel... The
//! threads needed for checkpointing continue to run and share the CPU."
//! [`RunQueue::pick_next`] is that modified `schedule()`: with the temporal firewall
//! closed it refuses every thread whose class lives inside the firewall
//! and only yields checkpoint-participating threads.

use std::collections::VecDeque;

use ckptstore::{Dec, DecodeError, Enc};

use crate::firewall::FirewallState;
use crate::net::tcp::AppMsg;
use crate::prog::{GuestProg, SysRet};
use crate::wire::{decode_sysret, encode_sysret, GuestResidue};

/// Thread identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Tid(pub u32);

/// Scheduling class, deciding which side of the temporal firewall the
/// thread runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ThreadClass {
    /// User-level program: always inside the firewall.
    User,
    /// Ordinary kernel thread (workqueue processors): inside the firewall.
    Kernel,
    /// The suspend thread and its helpers: outside the firewall — they run
    /// during a checkpoint.
    CheckpointSuspend,
}

/// Why a thread is not runnable.
///
/// Plain data: a state is rewritten on every block and wake, so it owns
/// nothing that needs dropping and a write is a few stores. The message a
/// blocked sender still has to send waits in [`Thread::send_msg`].
#[derive(Clone, Copy)]
pub enum ThreadState {
    Runnable,
    /// Waiting on the timer wheel.
    Sleeping,
    /// Waiting for a connection on a port.
    AcceptWait { port: u16 },
    /// Waiting for a connect handshake on a socket.
    ConnectWait { fd: u32 },
    /// Waiting for readable bytes on a socket.
    RecvWait { fd: u32, max: u64 },
    /// Waiting for send-buffer space on a socket (retries the send, with
    /// the thread's `send_msg`, once space opens).
    SendWait { fd: u32, bytes: u64 },
    /// Waiting for a block I/O batch.
    IoWait { batch: u64 },
    /// Waiting for a control-service RPC reply.
    RpcWait { id: u64 },
    /// Waiting for a CPU burst completion.
    Computing { burst: u64 },
    Exited,
}

impl std::fmt::Debug for ThreadState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThreadState::Runnable => write!(f, "Runnable"),
            ThreadState::Sleeping => write!(f, "Sleeping"),
            ThreadState::AcceptWait { port } => write!(f, "AcceptWait({port})"),
            ThreadState::ConnectWait { fd } => write!(f, "ConnectWait({fd})"),
            ThreadState::RecvWait { fd, max } => write!(f, "RecvWait({fd}, {max})"),
            ThreadState::SendWait { fd, bytes, .. } => write!(f, "SendWait({fd}, {bytes})"),
            ThreadState::IoWait { batch } => write!(f, "IoWait(#{batch})"),
            ThreadState::RpcWait { id } => write!(f, "RpcWait(#{id})"),
            ThreadState::Computing { burst } => write!(f, "Computing(#{burst})"),
            ThreadState::Exited => write!(f, "Exited"),
        }
    }
}

/// Discriminant tag for state fingerprinting (checkpoint invariants).
impl ThreadState {
    /// A small stable code for the state kind.
    pub fn tag(&self) -> u8 {
        match self {
            ThreadState::Runnable => 0,
            ThreadState::Sleeping => 1,
            ThreadState::AcceptWait { .. } => 2,
            ThreadState::ConnectWait { .. } => 3,
            ThreadState::RecvWait { .. } => 4,
            ThreadState::SendWait { .. } => 5,
            ThreadState::IoWait { .. } => 6,
            ThreadState::Computing { .. } => 7,
            ThreadState::Exited => 8,
            ThreadState::RpcWait { .. } => 9,
        }
    }
}

impl ThreadClass {
    fn wire_tag(self) -> u8 {
        match self {
            ThreadClass::User => 0,
            ThreadClass::Kernel => 1,
            ThreadClass::CheckpointSuspend => 2,
        }
    }

    fn from_wire_tag(at: usize, tag: u8) -> Result<Self, DecodeError> {
        Ok(match tag {
            0 => ThreadClass::User,
            1 => ThreadClass::Kernel,
            2 => ThreadClass::CheckpointSuspend,
            tag => return Err(DecodeError::BadTag { at, tag, what: "thread class" }),
        })
    }
}

impl ThreadState {
    /// Serializes the state; wire tags reuse [`ThreadState::tag`] codes.
    pub fn encode_wire(&self, e: &mut Enc) {
        e.u8(self.tag());
        match self {
            ThreadState::Runnable | ThreadState::Sleeping | ThreadState::Exited => {}
            ThreadState::AcceptWait { port } => e.u16(*port),
            ThreadState::ConnectWait { fd } => e.u32(*fd),
            ThreadState::RecvWait { fd, max } => {
                e.u32(*fd);
                e.u64(*max);
            }
            ThreadState::SendWait { fd, bytes } => {
                e.u32(*fd);
                e.u64(*bytes);
            }
            ThreadState::IoWait { batch } => e.u64(*batch),
            ThreadState::Computing { burst } => e.u64(*burst),
            ThreadState::RpcWait { id } => e.u64(*id),
        }
    }

    /// Inverse of [`ThreadState::encode_wire`].
    pub fn decode_wire(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let at = d.position();
        Ok(match d.u8()? {
            0 => ThreadState::Runnable,
            1 => ThreadState::Sleeping,
            2 => ThreadState::AcceptWait { port: d.u16()? },
            3 => ThreadState::ConnectWait { fd: d.u32()? },
            4 => ThreadState::RecvWait { fd: d.u32()?, max: d.u64()? },
            5 => ThreadState::SendWait { fd: d.u32()?, bytes: d.u64()? },
            6 => ThreadState::IoWait { batch: d.u64()? },
            7 => ThreadState::Computing { burst: d.u64()? },
            8 => ThreadState::Exited,
            9 => ThreadState::RpcWait { id: d.u64()? },
            tag => return Err(DecodeError::BadTag { at, tag, what: "thread state" }),
        })
    }
}

/// One guest thread.
#[derive(Clone)]
pub struct Thread {
    pub tid: Tid,
    pub class: ThreadClass,
    pub state: ThreadState,
    /// The message marker of the send a `SendWait` thread retries.
    pub send_msg: Option<AppMsg>,
    /// The user program (user threads only).
    pub prog: Option<Box<dyn GuestProg>>,
    /// Value handed to the program on its next step.
    pub pending_ret: SysRet,
}

impl Thread {
    /// Creates a runnable user thread around a program.
    pub fn user(tid: Tid, prog: Box<dyn GuestProg>) -> Self {
        Thread {
            tid,
            class: ThreadClass::User,
            state: ThreadState::Runnable,
            send_msg: None,
            prog: Some(prog),
            pending_ret: SysRet::Start,
        }
    }

    /// True if the thread has exited.
    pub fn exited(&self) -> bool {
        matches!(self.state, ThreadState::Exited)
    }

    /// Serializes the thread; the program object goes into the residue.
    /// A sender's message marker follows its `SendWait` state.
    pub fn encode_wire(&self, e: &mut Enc, residue: &mut GuestResidue) {
        e.u32(self.tid.0);
        e.u8(self.class.wire_tag());
        self.state.encode_wire(e);
        if let ThreadState::SendWait { .. } = self.state {
            e.bool(self.send_msg.is_some());
            if let Some(m) = &self.send_msg {
                e.u32(residue.push_msg(m));
            }
        }
        e.bool(self.prog.is_some());
        if let Some(p) = &self.prog {
            e.u32(residue.push_prog(p.as_ref()));
        }
        encode_sysret(e, &self.pending_ret, residue);
    }

    /// Inverse of [`Thread::encode_wire`].
    pub fn decode_wire(d: &mut Dec<'_>, residue: &GuestResidue) -> Result<Self, DecodeError> {
        let tid = Tid(d.u32()?);
        let at = d.position();
        let class = ThreadClass::from_wire_tag(at, d.u8()?)?;
        let state = ThreadState::decode_wire(d)?;
        let has_msg = matches!(state, ThreadState::SendWait { .. }) && d.bool()?;
        let send_msg = if has_msg { Some(residue.msg(d.u32()?)?) } else { None };
        let prog = if d.bool()? { Some(residue.prog(d.u32()?)?) } else { None };
        let pending_ret = decode_sysret(d, residue)?;
        Ok(Thread { tid, class, state, send_msg, prog, pending_ret })
    }
}

/// The run queue plus the firewall-gated `schedule()`.
#[derive(Clone, Debug, Default)]
pub struct RunQueue {
    q: VecDeque<Tid>,
}

impl RunQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        RunQueue::default()
    }

    /// Enqueues a thread (idempotence is the caller's concern; the kernel
    /// only enqueues on state transitions to `Runnable`).
    pub fn push(&mut self, tid: Tid) {
        self.q.push_back(tid);
    }

    /// The modified `schedule()`: pops the next thread allowed to run
    /// given the firewall state. Disallowed threads stay parked in order.
    pub fn pick_next(&mut self, fw: &FirewallState, classes: &dyn Fn(Tid) -> ThreadClass) -> Option<Tid> {
        if !fw.closed() {
            return self.q.pop_front();
        }
        // Firewall closed: scan for a checkpoint-class thread without
        // disturbing the order of the stopped ones.
        let pos = self
            .q
            .iter()
            .position(|&t| classes(t) == ThreadClass::CheckpointSuspend)?;
        self.q.remove(pos)
    }

    /// Number of queued threads.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// True if no thread is queued.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Serializes the queue in scheduling order.
    pub fn encode_wire(&self, e: &mut Enc) {
        e.seq(self.q.len());
        for t in &self.q {
            e.u32(t.0);
        }
    }

    /// Inverse of [`RunQueue::encode_wire`].
    pub fn decode_wire(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let n = d.seq()?;
        let mut q = VecDeque::with_capacity(n);
        for _ in 0..n {
            q.push_back(Tid(d.u32()?));
        }
        Ok(RunQueue { q })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_blocked_sender_round_trips_with_its_message_after_its_state() {
        use crate::prog::NullProg;
        let mut t = Thread::user(Tid(3), Box::new(NullProg));
        t.state = ThreadState::SendWait { fd: 7, bytes: 1_000 };
        t.send_msg = Some(std::sync::Arc::new(42u32));
        let mut residue = GuestResidue::new();
        let mut e = Enc::new();
        t.encode_wire(&mut e, &mut residue);
        let bytes = e.into_bytes();
        // Tid, class, the state's tag and fields, then the marker (present,
        // residue index 0): the layout from when the marker was a field of
        // the state.
        let mut want = Enc::new();
        want.u32(3);
        want.u8(0);
        want.u8(5);
        want.u32(7);
        want.u64(1_000);
        want.bool(true);
        want.u32(0);
        let want = want.into_bytes();
        assert_eq!(&bytes[..want.len()], &want[..]);
        let back = Thread::decode_wire(&mut Dec::new(&bytes), &residue).unwrap();
        assert!(matches!(back.state, ThreadState::SendWait { fd: 7, bytes: 1_000 }));
        let msg = back.send_msg.expect("the marker comes back");
        assert_eq!(msg.downcast_ref::<u32>(), Some(&42));
    }

    #[test]
    fn open_firewall_is_fifo() {
        let fw = FirewallState::new();
        let mut rq = RunQueue::new();
        rq.push(Tid(1));
        rq.push(Tid(2));
        let classes = |_t: Tid| ThreadClass::User;
        assert_eq!(rq.pick_next(&fw, &classes), Some(Tid(1)));
        assert_eq!(rq.pick_next(&fw, &classes), Some(Tid(2)));
        assert_eq!(rq.pick_next(&fw, &classes), None);
    }

    #[test]
    fn closed_firewall_parks_inside_threads() {
        let mut fw = FirewallState::new();
        fw.close(0);
        let mut rq = RunQueue::new();
        rq.push(Tid(1)); // user
        rq.push(Tid(2)); // suspend thread
        rq.push(Tid(3)); // user
        let classes = |t: Tid| {
            if t == Tid(2) {
                ThreadClass::CheckpointSuspend
            } else {
                ThreadClass::User
            }
        };
        assert_eq!(rq.pick_next(&fw, &classes), Some(Tid(2)), "only checkpoint threads run");
        assert_eq!(rq.pick_next(&fw, &classes), None, "users stay parked");
        // Reopen: parked threads resume in order.
        fw.open(0);
        assert_eq!(rq.pick_next(&fw, &classes), Some(Tid(1)));
        assert_eq!(rq.pick_next(&fw, &classes), Some(Tid(3)));
    }
}
