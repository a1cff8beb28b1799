//! A scripted syscall driver for unit-testing guest programs as pure
//! state machines, with a tiny in-memory "kernel" good enough to answer
//! file, timer, and compute syscalls deterministically, and a two-node
//! [`Loopback`] that also answers the non-blocking socket calls.

#![cfg(test)]

use std::collections::{HashMap, VecDeque};

use guestos::net::tcp::AppMsg;
use guestos::prog::{FileId, SockFd};
use guestos::{GuestProg, Syscall, SysRet};

/// Drives a program against a fake kernel until it exits or `max_steps`.
pub struct Driver {
    pub now_ns: u64,
    files: HashMap<FileId, u64>,
    /// Log of syscall kinds, for assertions.
    pub issued: Vec<&'static str>,
    pub exited: bool,
}

impl Driver {
    pub fn new() -> Self {
        Driver {
            now_ns: 0,
            files: HashMap::new(),
            issued: Vec::new(),
            exited: false,
        }
    }

    /// Runs the program; panics if it doesn't block on the network (which
    /// the fake kernel cannot answer) or exit within `max_steps`.
    pub fn run(&mut self, prog: &mut dyn GuestProg, max_steps: usize) {
        let mut ret = SysRet::Start;
        for _ in 0..max_steps {
            ret = match self.answer(prog.step(ret)) {
                Ok(ret) => ret,
                Err(Syscall::Exit) => {
                    self.exited = true;
                    return;
                }
                Err(_) => panic!("fake kernel cannot answer a network syscall"),
            };
        }
        panic!("program did not exit within the step budget");
    }

    /// Answers a file, timer or compute syscall; hands anything else back.
    fn answer(&mut self, sys: Syscall) -> Result<SysRet, Syscall> {
        Ok(match sys {
            Syscall::Gettimeofday => {
                self.issued.push("gettimeofday");
                SysRet::Time(self.now_ns)
            }
            Syscall::Sleep { ns } => {
                self.issued.push("sleep");
                // Tick quantization: round up to 10 ms + one tick.
                let tick = 10_000_000;
                self.now_ns += ns.div_ceil(tick) * tick + tick;
                SysRet::Ok
            }
            Syscall::Compute { ns } => {
                self.issued.push("compute");
                self.now_ns += ns;
                SysRet::Ok
            }
            Syscall::Yield => {
                self.issued.push("yield");
                SysRet::Ok
            }
            Syscall::Create { file } => {
                self.issued.push("create");
                if let std::collections::hash_map::Entry::Vacant(e) = self.files.entry(file) {
                    e.insert(0);
                    SysRet::Ok
                } else {
                    SysRet::Err("exists")
                }
            }
            Syscall::Write { file, offset, bytes } => {
                self.issued.push("write");
                // Charge disk-ish time: 4 KiB ≈ 58 µs at 70 MB/s.
                self.now_ns += bytes * 1_000 / 70;
                let size = self.files.get_mut(&file).expect("file exists");
                *size = (*size).max(offset + bytes);
                SysRet::Ok
            }
            Syscall::Read { file, bytes, .. } => {
                self.issued.push("read");
                self.now_ns += bytes * 1_000 / 70;
                assert!(self.files.contains_key(&file), "read of missing file");
                SysRet::Ok
            }
            Syscall::Delete { file } => {
                self.issued.push("delete");
                self.files.remove(&file).expect("delete of missing file");
                SysRet::Ok
            }
            Syscall::Sync => {
                self.issued.push("sync");
                self.now_ns += 5_000_000;
                SysRet::Ok
            }
            other => return Err(other),
        })
    }

    /// Size of a file, if it exists.
    pub fn file_size(&self, file: FileId) -> Option<u64> {
        self.files.get(&file).copied()
    }

    /// Number of live files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }
}

/// One end of a [`Loopback`] connection.
struct FakeSock {
    /// The other end's descriptor on the other node.
    peer: SockFd,
    /// What the other end sent and this end has not received yet.
    inbox: VecDeque<(u64, Option<AppMsg>)>,
}

/// Two fake kernels (node `n` has address `NodeAddr(n)`) joined by an
/// instant, lossless wire with unbounded buffers: `Listen`, `Connect`,
/// `AcceptNb`, `SendNb` and `RecvNb` are answered by shuttling byte
/// counts and `msg` markers between the nodes' sockets; everything else
/// goes to the node's own [`Driver`]. No TCP, no engine — enough to run
/// two poll-loop programs against each other as pure state machines.
pub struct Loopback {
    pub nodes: [Driver; 2],
    rets: [SysRet; 2],
    listening: [Vec<u16>; 2],
    /// Established connections `AcceptNb` has not handed out yet.
    accept_q: [VecDeque<(u16, SockFd)>; 2],
    socks: [Vec<FakeSock>; 2],
    /// Every message marker sent, in order, with the sending node.
    pub sent: Vec<(usize, AppMsg)>,
}

impl Loopback {
    pub fn new() -> Self {
        Loopback {
            nodes: [Driver::new(), Driver::new()],
            rets: [SysRet::Start, SysRet::Start],
            listening: Default::default(),
            accept_q: Default::default(),
            socks: Default::default(),
            sent: Vec::new(),
        }
    }

    fn open(&mut self, n: usize, peer: SockFd) -> SockFd {
        self.socks[n].push(FakeSock {
            peer,
            inbox: VecDeque::new(),
        });
        SockFd(self.socks[n].len() as u32 - 1)
    }

    /// Runs node `n`'s program for one syscall.
    pub fn step(&mut self, n: usize, prog: &mut dyn GuestProg) {
        let ret = std::mem::replace(&mut self.rets[n], SysRet::Ok);
        self.rets[n] = match self.nodes[n].answer(prog.step(ret)) {
            Ok(ret) => ret,
            Err(Syscall::Listen { port }) => {
                self.listening[n].push(port);
                SysRet::Ok
            }
            Err(Syscall::Connect { dst, port }) => {
                let m = dst.0 as usize;
                assert!(m != n && m < 2, "connect to an unknown node");
                assert!(self.listening[m].contains(&port), "connect before listen");
                let theirs = SockFd(self.socks[m].len() as u32);
                let ours = self.open(n, theirs);
                self.open(m, ours);
                self.accept_q[m].push_back((port, theirs));
                SysRet::Sock(ours)
            }
            Err(Syscall::AcceptNb { port }) => {
                let q = &mut self.accept_q[n];
                match q.iter().position(|&(p, _)| p == port) {
                    Some(i) => SysRet::Sock(q.remove(i).expect("found above").1),
                    None => SysRet::Ok,
                }
            }
            Err(Syscall::SendNb { fd, bytes, msg }) => {
                let peer = self.socks[n][fd.0 as usize].peer;
                if let Some(m) = &msg {
                    self.sent.push((n, m.clone()));
                }
                self.socks[1 - n][peer.0 as usize].inbox.push_back((bytes, msg));
                SysRet::Sent(bytes)
            }
            Err(Syscall::RecvNb { fd, .. }) => {
                let inbox = &mut self.socks[n][fd.0 as usize].inbox;
                let bytes = inbox.iter().map(|&(b, _)| b).sum();
                let msgs = inbox.drain(..).filter_map(|(_, m)| m).collect();
                SysRet::Recvd { bytes, msgs }
            }
            Err(_) => panic!("loopback cannot answer a blocking network syscall"),
        };
    }
}
