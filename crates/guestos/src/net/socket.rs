//! The socket table: fd allocation, demultiplexing, listener backlogs.

use std::collections::{BTreeMap, VecDeque};

use ckptstore::{Dec, DecodeError, Enc};
use hwsim::NodeAddr;

use crate::net::tcp::{AppMsg, TcpConn, TcpSegment};
use crate::prog::SockFd;
use crate::wire::GuestResidue;

/// One open socket.
#[derive(Clone)]
pub struct SockEntry {
    pub conn: TcpConn,
    pub remote: NodeAddr,
    /// Application messages delivered by the stream, awaiting `Recv`.
    pub inbox: VecDeque<AppMsg>,
}

/// A listening port.
#[derive(Clone, Default)]
pub struct Listener {
    /// Connections that completed their handshake, awaiting `Accept`.
    pub ready: VecDeque<SockFd>,
}

/// All sockets of one guest kernel.
///
/// A guest holds a handful of sockets, so the tables are small ordered
/// maps: no hashing on the per-packet `demux` → `get_mut` path, and
/// iteration (RTO processing, fingerprints, totals, the wire image) is in
/// fd order — the same in every process, which a hashed table's is not.
#[derive(Clone, Default)]
pub struct SocketTable {
    next_fd: u32,
    next_ephemeral: u16,
    socks: BTreeMap<u32, SockEntry>,
    listeners: BTreeMap<u16, Listener>,
    /// (local port, remote port, remote addr) → fd.
    demux: BTreeMap<(u16, u16, NodeAddr), u32>,
}

impl SocketTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        SocketTable {
            next_fd: 1,
            next_ephemeral: 32768,
            ..SocketTable::default()
        }
    }

    /// Number of open sockets.
    pub fn len(&self) -> usize {
        self.socks.len()
    }

    /// True if no sockets are open.
    pub fn is_empty(&self) -> bool {
        self.socks.is_empty()
    }

    /// Allocates an ephemeral local port.
    pub fn ephemeral_port(&mut self) -> u16 {
        let p = self.next_ephemeral;
        self.next_ephemeral = self.next_ephemeral.wrapping_add(1).max(32768);
        p
    }

    /// Opens a listener; idempotent.
    pub fn listen(&mut self, port: u16) {
        self.listeners.entry(port).or_default();
    }

    /// True if `port` has a listener.
    pub fn listening(&self, port: u16) -> bool {
        self.listeners.contains_key(&port)
    }

    /// Registers a connection, returning its fd.
    pub fn register(&mut self, conn: TcpConn, remote: NodeAddr) -> SockFd {
        let fd = self.next_fd;
        self.next_fd += 1;
        self.demux
            .insert((conn.local_port, conn.remote_port, remote), fd);
        self.socks.insert(
            fd,
            SockEntry {
                conn,
                remote,
                inbox: VecDeque::new(),
            },
        );
        SockFd(fd)
    }

    /// Finds the socket a segment from `src` belongs to.
    pub fn demux(&self, src: NodeAddr, seg: &TcpSegment) -> Option<SockFd> {
        self.demux
            .get(&(seg.dst_port, seg.src_port, src))
            .map(|&fd| SockFd(fd))
    }

    /// Mutable access to a socket.
    pub fn get_mut(&mut self, fd: SockFd) -> Option<&mut SockEntry> {
        self.socks.get_mut(&fd.0)
    }

    /// Immutable access to a socket.
    pub fn get(&self, fd: SockFd) -> Option<&SockEntry> {
        self.socks.get(&fd.0)
    }

    /// Iterates all sockets mutably, in fd order (timer ticks).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (SockFd, &mut SockEntry)> {
        self.socks.iter_mut().map(|(&fd, e)| (SockFd(fd), e))
    }

    /// Iterates all sockets, in fd order.
    pub fn iter(&self) -> impl Iterator<Item = (SockFd, &SockEntry)> {
        self.socks.iter().map(|(&fd, e)| (SockFd(fd), e))
    }

    /// Marks a handshake-complete passive connection ready for `Accept`.
    pub fn push_ready(&mut self, port: u16, fd: SockFd) {
        if let Some(l) = self.listeners.get_mut(&port) {
            l.ready.push_back(fd);
        }
    }

    /// Pops a ready connection for `Accept`.
    pub fn pop_ready(&mut self, port: u16) -> Option<SockFd> {
        self.listeners.get_mut(&port)?.ready.pop_front()
    }

    /// Removes a socket.
    pub fn remove(&mut self, fd: SockFd) {
        if let Some(e) = self.socks.remove(&fd.0) {
            self.demux
                .remove(&(e.conn.local_port, e.conn.remote_port, e.remote));
        }
    }

    /// Serializes the table: sockets in fd order, listeners in port order.
    /// The demux map is rebuilt on decode.
    pub fn encode_wire(&self, e: &mut Enc, residue: &mut GuestResidue) {
        e.u32(self.next_fd);
        e.u16(self.next_ephemeral);
        e.seq(self.socks.len());
        for (&fd, entry) in &self.socks {
            e.u32(fd);
            e.u32(entry.remote.0);
            entry.conn.encode_wire(e, residue);
            e.seq(entry.inbox.len());
            for m in &entry.inbox {
                e.u32(residue.push_msg(m));
            }
        }
        e.seq(self.listeners.len());
        for (&port, l) in &self.listeners {
            e.u16(port);
            e.seq(l.ready.len());
            for fd in &l.ready {
                e.u32(fd.0);
            }
        }
    }

    /// Inverse of [`SocketTable::encode_wire`].
    pub fn decode_wire(d: &mut Dec<'_>, residue: &GuestResidue) -> Result<Self, DecodeError> {
        let next_fd = d.u32()?;
        let next_ephemeral = d.u16()?;
        let n = d.seq()?;
        let mut socks = BTreeMap::new();
        let mut demux = BTreeMap::new();
        for _ in 0..n {
            let fd = d.u32()?;
            let remote = NodeAddr(d.u32()?);
            let conn = TcpConn::decode_wire(d, residue)?;
            let m = d.seq()?;
            let mut inbox = VecDeque::with_capacity(m);
            for _ in 0..m {
                inbox.push_back(residue.msg(d.u32()?)?);
            }
            demux.insert((conn.local_port, conn.remote_port, remote), fd);
            if socks.insert(fd, SockEntry { conn, remote, inbox }).is_some() {
                return Err(DecodeError::Invalid("duplicate socket fd"));
            }
        }
        let np = d.seq()?;
        let mut listeners = BTreeMap::new();
        for _ in 0..np {
            let port = d.u16()?;
            let nr = d.seq()?;
            let mut ready = VecDeque::with_capacity(nr);
            for _ in 0..nr {
                ready.push_back(SockFd(d.u32()?));
            }
            if listeners.insert(port, Listener { ready }).is_some() {
                return Err(DecodeError::Invalid("duplicate listener port"));
            }
        }
        Ok(SocketTable { next_fd, next_ephemeral, socks, listeners, demux })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::tcp::TcpConn;

    #[test]
    fn register_and_demux_roundtrip() {
        let mut t = SocketTable::new();
        let (conn, syn) = TcpConn::connect(1000, 80, 0);
        let fd = t.register(conn, NodeAddr(9));
        // A reply from the server (ports swapped) demuxes to our fd.
        let mut reply = syn.clone();
        reply.src_port = 80;
        reply.dst_port = 1000;
        assert_eq!(t.demux(NodeAddr(9), &reply), Some(fd));
        // Same ports from a different host do not.
        assert_eq!(t.demux(NodeAddr(8), &reply), None);
        t.remove(fd);
        assert_eq!(t.demux(NodeAddr(9), &reply), None);
    }

    #[test]
    fn iteration_and_wire_image_are_in_fd_and_port_order() {
        let mut t = SocketTable::new();
        // Remotes and ports chosen so neither demux-key order nor
        // registration order of the listeners is fd/port order.
        let fds: Vec<SockFd> = [(9, 700), (3, 900), (5, 800)]
            .into_iter()
            .map(|(remote, port)| t.register(TcpConn::connect(port, 80, 0).0, NodeAddr(remote)))
            .collect();
        t.listen(90);
        t.listen(80);
        assert_eq!(t.iter().map(|(fd, _)| fd).collect::<Vec<_>>(), fds);
        assert_eq!(t.iter_mut().map(|(fd, _)| fd).collect::<Vec<_>>(), fds);

        let encode = |t: &SocketTable| {
            let (mut e, mut residue) = (Enc::new(), GuestResidue::new());
            t.encode_wire(&mut e, &mut residue);
            (e.into_bytes(), residue)
        };
        let (bytes, residue) = encode(&t);
        // next_fd, next_ephemeral, socket count, then the lowest fd's record.
        let mut d = Dec::new(&bytes);
        assert_eq!((d.u32().unwrap(), d.u16().unwrap(), d.seq().unwrap()), (4, 32768, 3));
        assert_eq!(d.u32().unwrap(), fds[0].0);
        let back = SocketTable::decode_wire(&mut Dec::new(&bytes), &residue).unwrap();
        assert_eq!(back.iter().map(|(fd, _)| fd).collect::<Vec<_>>(), fds);
        assert_eq!(encode(&back).0, bytes, "decode → encode is the identity");
        // Removing the middle socket leaves the rest in order and demuxable.
        t.remove(fds[1]);
        assert_eq!(t.iter().map(|(fd, _)| fd).collect::<Vec<_>>(), [fds[0], fds[2]]);
    }

    #[test]
    fn listener_backlog_fifo() {
        let mut t = SocketTable::new();
        t.listen(80);
        assert!(t.listening(80));
        t.push_ready(80, SockFd(5));
        t.push_ready(80, SockFd(6));
        assert_eq!(t.pop_ready(80), Some(SockFd(5)));
        assert_eq!(t.pop_ready(80), Some(SockFd(6)));
        assert_eq!(t.pop_ready(80), None);
    }

    #[test]
    fn ephemeral_ports_advance() {
        let mut t = SocketTable::new();
        let a = t.ephemeral_port();
        let b = t.ephemeral_port();
        assert_ne!(a, b);
        assert!(a >= 32768);
    }
}
