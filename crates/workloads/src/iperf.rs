//! iperf: a one-directional bulk TCP stream (Fig 6's workload).

use std::any::Any;

use guestos::prog::SockFd;
use guestos::{GuestProg, Syscall, SysRet};
use hwsim::NodeAddr;

/// The sending side: connect and keep the send buffer full.
#[derive(Clone, Debug)]
pub struct IperfSender {
    dst: NodeAddr,
    port: u16,
    chunk: u64,
    fd: Option<SockFd>,
    /// Bytes handed to the socket so far.
    pub sent: u64,
}

impl IperfSender {
    /// Creates an unbounded sender to `dst:port`.
    pub fn new(dst: NodeAddr, port: u16) -> Self {
        IperfSender {
            dst,
            port,
            chunk: 64 * 1024,
            fd: None,
            sent: 0,
        }
    }
}

impl GuestProg for IperfSender {
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
                    bytes: self.chunk,
                    msg: None,
                }
            }
            SysRet::Sent(n) => {
                self.sent += n;
                Syscall::Send {
                    fd: self.fd.expect("connected"),
                    bytes: self.chunk,
                    msg: None,
                }
            }
            other => panic!("iperf sender: unexpected {other:?}"),
        }
    }
    fn clone_box(&self) -> Box<dyn GuestProg> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn name(&self) -> &str {
        "iperf-send"
    }
}

/// The receiving side: accept one stream and drain it, recording arrival
/// progress `(guest time, cumulative bytes)` for throughput binning.
#[derive(Clone, Debug)]
pub struct IperfReceiver {
    port: u16,
    fd: Option<SockFd>,
    listening: bool,
    pending_sample: bool,
    sampled: u64,
    /// Cumulative bytes received.
    pub received: u64,
    /// `(guest time ns, bytes in this delivery)` samples.
    pub deliveries: Vec<(u64, u64)>,
}

impl IperfReceiver {
    /// Creates a receiver on `port`.
    pub fn new(port: u16) -> Self {
        IperfReceiver {
            port,
            fd: None,
            listening: false,
            pending_sample: false,
            sampled: 0,
            received: 0,
            deliveries: Vec::new(),
        }
    }
}

impl GuestProg for IperfReceiver {
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
                self.received += bytes;
                self.pending_sample = true;
                // Timestamp the delivery before the next recv.
                Syscall::Gettimeofday
            }
            SysRet::Time(t) => {
                if self.pending_sample {
                    self.pending_sample = false;
                    self.deliveries.push((t, self.received - self.sampled));
                    self.sampled = self.received;
                }
                Syscall::Recv {
                    fd: self.fd.expect("accepted"),
                    max: u64::MAX,
                }
            }
            other => panic!("iperf receiver: unexpected {other:?}"),
        }
    }
    fn clone_box(&self) -> Box<dyn GuestProg> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn name(&self) -> &str {
        "iperf-recv"
    }
}
