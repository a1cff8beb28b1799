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

/// The receiving side: accept one stream and drain it, reading the clock
/// after every delivery.
///
/// The program keeps only its byte count, so its state (and every
/// checkpoint image of it) stays the same size however long it runs.
/// Fig 6's per-delivery throughput comes from the guest kernel's opt-in
/// [`NetTrace`], not from here. The clock read after each `Recvd` is part
/// of the workload: the kernel's clock witness records every
/// `Gettimeofday`, and the transparency audit reads that witness.
///
/// [`NetTrace`]: guestos::net::NetTrace
#[derive(Clone, Debug)]
pub struct IperfReceiver {
    port: u16,
    fd: Option<SockFd>,
    listening: bool,
    /// Cumulative bytes received.
    pub received: u64,
}

impl IperfReceiver {
    /// Creates a receiver on `port`.
    pub fn new(port: u16) -> Self {
        IperfReceiver {
            port,
            fd: None,
            listening: false,
            received: 0,
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
                // The clock read the audit witnesses (see the type's doc).
                Syscall::Gettimeofday
            }
            SysRet::Time(_) => Syscall::Recv {
                fd: self.fd.expect("accepted"),
                max: u64::MAX,
            },
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

#[cfg(test)]
mod tests {
    use super::*;

    /// One syscall as a comparable line; the receiver issues no others.
    fn kind(sys: Syscall) -> String {
        match sys {
            Syscall::Listen { port } => format!("listen {port}"),
            Syscall::Accept { port } => format!("accept {port}"),
            Syscall::Recv { fd, max } => format!("recv {} {max}", fd.0),
            Syscall::Gettimeofday => "gettimeofday".into(),
            _ => panic!("iperf receiver issued an unexpected syscall"),
        }
    }

    /// Listen → Accept → Recv, then Gettimeofday → Recv after every
    /// delivery: the kernel's clock witness records each of those clock
    /// reads, so this sequence is part of what the transparency audit
    /// sees and must not change.
    #[test]
    fn receiver_reads_the_clock_after_every_delivery() {
        let mut p = IperfReceiver::new(5001);
        let mut issued = vec![
            kind(p.step(SysRet::Start)),
            kind(p.step(SysRet::Ok)),
            kind(p.step(SysRet::Sock(SockFd(3)))),
        ];
        let mut expected: Vec<String> = ["listen 5001", "accept 5001"].map(String::from).to_vec();
        expected.push(format!("recv 3 {}", u64::MAX));
        let deliveries = [1_448, 65_160, 0, 2_896];
        for (i, bytes) in deliveries.into_iter().enumerate() {
            issued.push(kind(p.step(SysRet::Recvd {
                bytes,
                msgs: Vec::new(),
            })));
            issued.push(kind(p.step(SysRet::Time(1_000 * i as u64))));
            expected.push("gettimeofday".into());
            expected.push(format!("recv 3 {}", u64::MAX));
        }
        assert_eq!(issued, expected);
        assert_eq!(p.received, deliveries.iter().sum::<u64>());
    }
}
