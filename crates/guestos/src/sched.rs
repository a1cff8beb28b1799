//! Threads and the firewall-aware scheduler core.
//!
//! §4.1: "we modified the schedule function, which computes the next
//! thread to run, to selectively stop threads inside the kernel... The
//! threads needed for checkpointing continue to run and share the CPU."
//! [`RunQueue::pick_next`] is that modified `schedule()`: with the temporal firewall
//! closed it refuses every thread whose class lives inside the firewall
//! and only yields checkpoint-participating threads.

use std::collections::VecDeque;

use crate::firewall::FirewallState;
use crate::net::tcp::AppMsg;
use crate::prog::{GuestProg, SysRet};
use crate::wire::GuestResidue;

/// Thread identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Tid(pub u32);

ckptstore::wire!(struct Tid(id));

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

ckptstore::wire!(enum ThreadClass: "thread class" { User = 0, Kernel = 1, CheckpointSuspend = 2 });

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

// Wire tags are the `ThreadState::tag` codes.
ckptstore::wire!(enum ThreadState: "thread state" {
    Runnable = 0,
    Sleeping = 1,
    AcceptWait { port } = 2,
    ConnectWait { fd } = 3,
    RecvWait { fd, max } = 4,
    SendWait { fd, bytes } = 5,
    IoWait { batch } = 6,
    Computing { burst } = 7,
    Exited = 8,
    RpcWait { id } = 9,
});

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
}

// The program object goes into the residue. A sender's message marker
// follows its `SendWait` state, and only that state's.
ckptstore::wire!(struct Thread in GuestResidue {
    tid,
    class,
    state,
    send_msg if matches!(state, ThreadState::SendWait { .. }),
    prog,
    pending_ret,
});

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
}

// The queue in scheduling order.
ckptstore::wire!(struct RunQueue { q });

#[cfg(test)]
mod tests {
    use ckptstore::{Dec, Enc, Wire};

    use super::*;

    #[test]
    fn every_state_is_written_under_its_tag() {
        let states = [
            ThreadState::Runnable,
            ThreadState::Sleeping,
            ThreadState::AcceptWait { port: 1 },
            ThreadState::ConnectWait { fd: 2 },
            ThreadState::RecvWait { fd: 3, max: 4 },
            ThreadState::SendWait { fd: 5, bytes: 6 },
            ThreadState::IoWait { batch: 7 },
            ThreadState::Computing { burst: 8 },
            ThreadState::Exited,
            ThreadState::RpcWait { id: 9 },
        ];
        for s in states {
            let mut e = Enc::new();
            s.put(&mut e, &mut ());
            assert_eq!(e.into_bytes()[0], s.tag(), "{s:?}");
        }
    }

    #[test]
    fn a_blocked_sender_round_trips_with_its_message_after_its_state() {
        use crate::prog::NullProg;
        let mut t = Thread::user(Tid(3), Box::new(NullProg));
        t.state = ThreadState::SendWait { fd: 7, bytes: 1_000 };
        t.send_msg = Some(std::sync::Arc::new(42u32));
        let mut residue = GuestResidue::new();
        let mut e = Enc::new();
        t.put(&mut e, &mut residue);
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
        let back = Thread::get(&mut Dec::new(&bytes), &residue).unwrap();
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
