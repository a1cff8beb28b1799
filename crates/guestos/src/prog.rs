//! The guest-program (user process) interface.
//!
//! Programs are coroutine-style state machines: the kernel calls
//! [`GuestProg::step`] with the result of the previous syscall, and the
//! program returns its next [`Syscall`]. Blocking syscalls suspend the
//! thread until the kernel completes them; non-blocking ones are answered
//! in the same dispatch. Programs observe time *only* through
//! [`Syscall::Gettimeofday`] — which returns virtualized guest time, so a
//! transparent checkpoint is invisible to them by construction and any
//! residual error shows up exactly where the paper measures it.

use std::any::Any;

use hwsim::NodeAddr;

use crate::net::tcp::AppMsg;
use crate::wire::GuestResidue;

/// A user-visible socket descriptor.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SockFd(pub u32);

ckptstore::wire!(struct SockFd(fd));

/// A file handle (paths are pre-resolved ids; the FS is flat).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FileId(pub u64);

ckptstore::wire!(struct FileId(id));

/// Identifies a program instance within a kernel.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ProgId(pub u32);

/// A request to an Emulab control service (NFS/DNS on the ops node).
///
/// Experiments in Emulab routinely use the NFS-mounted project storage for
/// scripts and results (§2); §5.2's timestamp transduction exists exactly
/// because these services live *outside* the checkpointed world.
#[derive(Clone, Copy, Debug)]
pub enum CtrlReq {
    /// Stat a file on the NFS server.
    NfsGetattr { file: u64 },
    /// Append `bytes` to a file (server stamps mtime).
    NfsWrite { file: u64, bytes: u64 },
    /// Read a file (returns size + mtime).
    NfsRead { file: u64 },
    /// Resolve a testbed host name.
    DnsLookup { host: u32 },
}

ckptstore::wire!(enum CtrlReq: "ctrl req" {
    NfsGetattr { file } = 0,
    NfsWrite { file, bytes } = 1,
    NfsRead { file } = 2,
    DnsLookup { host } = 3,
});

/// A control-service response. All timestamps are transduced to guest
/// virtual time by the hypervisor boundary before delivery (§5.2).
#[derive(Clone, Copy, Debug)]
pub enum CtrlResp {
    NfsAttr { size: u64, mtime_ns: u64 },
    NfsWriteOk { size: u64, mtime_ns: u64 },
    NfsData { bytes: u64, mtime_ns: u64 },
    DnsAddr { addr: u32 },
    NotFound,
}

ckptstore::wire!(enum CtrlResp: "ctrl resp" {
    NfsAttr { size, mtime_ns } = 0,
    NfsWriteOk { size, mtime_ns } = 1,
    NfsData { bytes, mtime_ns } = 2,
    DnsAddr { addr } = 3,
    NotFound = 4,
});

/// A system call issued by a guest program.
pub enum Syscall {
    /// Read the wall clock (non-blocking). Returns [`SysRet::Time`].
    Gettimeofday,
    /// Sleep at least `ns`. Linux rounds up to the next timer tick plus
    /// one: usleep(10 ms) at HZ=100 sleeps ~20 ms (the Fig 4 baseline).
    Sleep { ns: u64 },
    /// Burn `ns` of CPU time (stretched by dom0 contention).
    Compute { ns: u64 },
    /// Give up the CPU for one scheduling round.
    Yield,

    /// Open a listening port. Returns [`SysRet::Ok`].
    Listen { port: u16 },
    /// Block until a connection arrives on `port`. Returns
    /// [`SysRet::Sock`].
    Accept { port: u16 },
    /// Non-blocking accept: returns [`SysRet::Sock`] if a handshake-complete
    /// connection is queued, [`SysRet::Ok`] otherwise.
    AcceptNb { port: u16 },
    /// Actively connect to `dst:port`. Blocks until established.
    Connect { dst: NodeAddr, port: u16 },
    /// Queue `bytes` for transmission, optionally ending with an
    /// application message marker. Blocks while the send buffer is full.
    /// Returns [`SysRet::Sent`].
    Send {
        fd: SockFd,
        bytes: u64,
        msg: Option<AppMsg>,
    },
    /// Block until at least one byte or message is readable; consumes up
    /// to `max` bytes. Returns [`SysRet::Recvd`].
    Recv { fd: SockFd, max: u64 },
    /// Non-blocking receive: returns immediately, possibly with zero bytes
    /// and no messages (poll-loop servers such as BitTorrent use this).
    RecvNb { fd: SockFd, max: u64 },
    /// Non-blocking send: returns [`SysRet::Sent`] with zero if the send
    /// buffer is full.
    SendNb {
        fd: SockFd,
        bytes: u64,
        msg: Option<AppMsg>,
    },
    /// Close a socket (sends FIN).
    CloseSock { fd: SockFd },

    /// Create an empty file. Returns [`SysRet::Ok`].
    Create { file: FileId },
    /// Write `bytes` at `offset`; may block on writeback throttling.
    /// Byte-at-a-time stdio workloads (Bonnie's character tests) pair this
    /// with an explicit [`Syscall::Compute`] for their per-byte CPU cost.
    /// Returns [`SysRet::Ok`].
    Write {
        file: FileId,
        offset: u64,
        bytes: u64,
    },
    /// Read `bytes` at `offset`; blocks on cache misses.
    Read {
        file: FileId,
        offset: u64,
        bytes: u64,
    },
    /// Delete a file, freeing its blocks (bitmap updates).
    Delete { file: FileId },
    /// Flush the buffer cache; blocks until stable.
    Sync,

    /// Issue an RPC to the Emulab control services (NFS/DNS); blocks until
    /// the reply arrives. Returns [`SysRet::Rpc`].
    CtrlRpc { req: CtrlReq },

    /// Request an immediate coordinated checkpoint of the whole experiment
    /// — the §4.3 event-driven trigger ("execution of a break or watch
    /// point"). Non-blocking: the checkpoint happens shortly after, and is
    /// transparent, so the program cannot observe when.
    TriggerCheckpoint,

    /// Terminate the program.
    Exit,
}

/// The kernel's answer to the previous syscall.
#[derive(Clone)]
pub enum SysRet {
    /// First activation: no previous syscall.
    Start,
    /// Generic success.
    Ok,
    /// `Gettimeofday` result, guest-virtual nanoseconds.
    Time(u64),
    /// A new socket (from `Accept` or `Connect`).
    Sock(SockFd),
    /// Bytes accepted into the send buffer.
    Sent(u64),
    /// Bytes read plus any application messages that surfaced.
    Recvd { bytes: u64, msgs: Vec<AppMsg> },
    /// A control-service reply (timestamps already in guest time).
    Rpc(CtrlResp),
    /// The operation failed.
    Err(&'static str),
}

ckptstore::wire!(enum SysRet in GuestResidue: "sysret" {
    Start = 0,
    Ok = 1,
    Time(t) = 2,
    Sock(fd) = 3,
    Sent(n) = 4,
    Recvd { bytes, msgs } = 5,
    Rpc(resp) = 6,
    Err(s) = 7,
});

impl std::fmt::Debug for SysRet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SysRet::Start => write!(f, "Start"),
            SysRet::Ok => write!(f, "Ok"),
            SysRet::Time(t) => write!(f, "Time({t})"),
            SysRet::Sock(fd) => write!(f, "Sock({fd:?})"),
            SysRet::Sent(n) => write!(f, "Sent({n})"),
            SysRet::Recvd { bytes, msgs } => write!(f, "Recvd({bytes}B, {} msgs)", msgs.len()),
            SysRet::Rpc(r) => write!(f, "Rpc({r:?})"),
            SysRet::Err(e) => write!(f, "Err({e})"),
        }
    }
}

/// A guest user program.
///
/// Implementations keep explicit state so kernels (and therefore
/// checkpoints) can be cloned.
pub trait GuestProg: Send {
    /// Advances the program: `ret` answers the previous syscall.
    fn step(&mut self, ret: SysRet) -> Syscall;

    /// Clones the program state (checkpointing).
    fn clone_box(&self) -> Box<dyn GuestProg>;

    /// Upcast so experiments can read results back out.
    fn as_any(&self) -> &dyn Any;

    /// Program name for diagnostics.
    fn name(&self) -> &str {
        "prog"
    }
}

impl Clone for Box<dyn GuestProg> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// A trivial program that exits immediately (placeholder / tests).
#[derive(Clone, Debug, Default)]
pub struct NullProg;

impl GuestProg for NullProg {
    fn step(&mut self, _ret: SysRet) -> Syscall {
        Syscall::Exit
    }
    fn clone_box(&self) -> Box<dyn GuestProg> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn name(&self) -> &str {
        "null"
    }
}
