//! A BitTorrent-like peer-to-peer file distribution workload (Fig 7).
//!
//! "BitTorrent is a popular peer-to-peer program for cooperatively
//! downloading large files... To get more predictable behavior, we
//! modified BitTorrent to use a static tracker." The static tracker is a
//! configured peer list; peers exchange piece requests over TCP, verify
//! received pieces (hash-check CPU), write them to disk, and announce
//! possession so other leechers can download from them too.
//!
//! The peer runs as a single poll-loop program (select-style servers were
//! the norm for 2008 BitTorrent clients): each round it accepts new
//! connections, drains every socket non-blockingly, serves queued
//! requests, issues new requests, then sleeps one poll interval.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::Arc;

use guestos::prog::{FileId, SockFd};
use guestos::{GuestProg, Syscall, SysRet};
use hwsim::NodeAddr;

/// Protocol messages riding the TCP streams as [`guestos::net::tcp::AppMsg`]
/// markers.
#[derive(Clone, Debug)]
pub enum BtMsg {
    /// Peer introduction with its current piece set as the protocol's
    /// bitfield: bit `p % 64` of word `p / 64` is piece `p`. A receiver
    /// truncates or zero-extends it to its own piece count.
    Handshake { bitfield: Vec<u64> },
    /// Ask for one piece.
    Request { piece: u32 },
    /// Marks the end of `piece`'s data bytes.
    Piece { piece: u32 },
    /// Announce newly acquired piece.
    Have { piece: u32 },
}

/// Control-message wire size (tiny).
const CTRL_BYTES: u64 = 68;

/// Per-byte hash-check CPU cost (SHA1 era): ~5 ns/byte.
const HASH_NS_PER_BYTE: f64 = 5.0;

/// A set of piece indices below a piece count fixed at construction: the
/// BitTorrent *bitfield*, one bit per piece in 64-bit words, plus its
/// population count. Bits at or above the piece count are always zero, so
/// word-wise combinations of sets of one size need no masking. Unlike a
/// std hash set (whose per-process `RandomState` would order a
/// handshake's elements differently in every process) it has one
/// representation per value, and nothing a peer sends can grow it.
#[derive(Clone, Debug)]
struct PieceSet {
    words: Vec<u64>,
    npieces: u32,
    count: u32,
}

impl PieceSet {
    fn empty(npieces: u32) -> Self {
        PieceSet {
            words: vec![0; npieces.div_ceil(64) as usize],
            npieces,
            count: 0,
        }
    }

    fn full(npieces: u32) -> Self {
        let mut s = PieceSet::empty(npieces);
        s.words.fill(u64::MAX);
        s.trim();
        s
    }

    /// Clears the tail word's bits at or above `npieces` and recounts.
    fn trim(&mut self) {
        let tail = self.npieces % 64;
        if tail != 0 {
            *self.words.last_mut().expect("npieces > 0") &= (1u64 << tail) - 1;
        }
        self.count = self.words.iter().map(|w| w.count_ones()).sum();
    }

    fn len(&self) -> usize {
        self.count as usize
    }

    /// Adds `piece`; `false` if it was already present or is out of range
    /// (an index from the wire must not index past the bitfield).
    fn insert(&mut self, piece: u32) -> bool {
        if piece >= self.npieces {
            return false;
        }
        let (w, bit) = (piece as usize / 64, 1u64 << (piece % 64));
        let fresh = self.words[w] & bit == 0;
        self.words[w] |= bit;
        self.count += fresh as u32;
        fresh
    }

    /// Adds every piece of a bitfield from the wire, truncated or
    /// zero-extended to this set's piece count.
    fn union_words(&mut self, bitfield: &[u64]) {
        for (w, &b) in self.words.iter_mut().zip(bitfield) {
            *w |= b;
        }
        self.trim();
    }
}

/// Picks a piece to request from a peer owning `remote` (random-ish
/// rarest proxy: lowest-numbered missing piece the peer has that nobody
/// else is fetching — deterministic, good enough for throughput shape):
/// the lowest set bit of `!have & !requested & remote`.
fn pick_piece(have: &PieceSet, requested: &PieceSet, remote: &PieceSet) -> Option<u32> {
    let held = have.words.iter().zip(&requested.words);
    held.zip(&remote.words).enumerate().find_map(|(w, ((&h, &r), &p))| {
        let wanted = !h & !r & p;
        (wanted != 0).then(|| w as u32 * 64 + wanted.trailing_zeros())
    })
}

/// One peer connection's state.
#[derive(Clone, Debug)]
struct PeerConn {
    fd: SockFd,
    sent_handshake: bool,
    got_handshake: bool,
    remote_have: PieceSet,
    /// Piece we requested from this peer and are waiting for.
    outstanding: Option<u32>,
    /// Requests from the peer we have not served yet.
    serve_q: VecDeque<u32>,
}

impl PeerConn {
    fn new(fd: SockFd, npieces: u32) -> Self {
        PeerConn {
            fd,
            sent_handshake: false,
            got_handshake: false,
            remote_have: PieceSet::empty(npieces),
            outstanding: None,
            serve_q: VecDeque::new(),
        }
    }
}

/// What the previous syscall was for.
#[derive(Clone, Debug)]
enum Op {
    Idle,
    Sleeping,
    Listened,
    ConnectPeer,
    AcceptNb,
    Recv(usize),
    SendHandshake(usize),
    Serve(usize),
    Request(usize, u32),
    HashCheck(u32),
    DiskWrite(u32),
    Announce,
    Stamp,
    CreateFile,
}

/// A queued action for this round.
#[derive(Clone, Debug)]
enum Todo {
    Accept,
    Recv(usize),
    Handshake(usize),
    Serve(usize),
    Request(usize),
}

/// One BitTorrent peer.
#[derive(Clone, Debug)]
pub struct BtPeer {
    // Configuration.
    port: u16,
    peers_to_connect: Vec<NodeAddr>,
    npieces: u32,
    piece_bytes: u64,
    poll_ns: u64,
    file: FileId,

    // State.
    have: PieceSet,
    requested: PieceSet,
    conns: Vec<PeerConn>,
    todo: VecDeque<Todo>,
    last_op: Op,
    started: bool,
    pending_announce: Vec<u32>,
    announce_cursor: usize,
    /// Received messages not yet acted on (a Piece pauses processing for
    /// its hash check, so later messages wait here).
    backlog: VecDeque<(usize, Arc<BtMsg>)>,

    /// Download progress: `(guest time ns, cumulative bytes)`.
    pub progress: Vec<(u64, u64)>,
    /// Pieces served to other peers.
    pub served: u64,
}

impl BtPeer {
    /// Creates a seeder: owns all pieces, never requests.
    pub fn seeder(port: u16, npieces: u32, piece_bytes: u64, file: FileId) -> Self {
        let mut p = BtPeer::leecher(port, Vec::new(), npieces, piece_bytes, file);
        p.have = PieceSet::full(npieces);
        p
    }

    /// Creates a leecher that will connect to `peers`.
    pub fn leecher(
        port: u16,
        peers: Vec<NodeAddr>,
        npieces: u32,
        piece_bytes: u64,
        file: FileId,
    ) -> Self {
        BtPeer {
            port,
            peers_to_connect: peers,
            npieces,
            piece_bytes,
            poll_ns: 20_000_000,
            file,
            have: PieceSet::empty(npieces),
            requested: PieceSet::empty(npieces),
            conns: Vec::new(),
            todo: VecDeque::new(),
            last_op: Op::Idle,
            started: false,
            pending_announce: Vec::new(),
            announce_cursor: 0,
            backlog: VecDeque::new(),
            progress: Vec::new(),
            served: 0,
        }
    }

    /// Pieces currently held.
    pub fn pieces(&self) -> usize {
        self.have.len()
    }

    /// Cumulative downloaded bytes.
    pub fn downloaded_bytes(&self) -> u64 {
        self.progress.last().map(|&(_, b)| b).unwrap_or(0)
    }

    fn conn_idx(&self, fd: SockFd) -> Option<usize> {
        self.conns.iter().position(|c| c.fd == fd)
    }

    fn rebuild_round(&mut self) {
        self.todo.clear();
        self.todo.push_back(Todo::Accept);
        for i in 0..self.conns.len() {
            self.todo.push_back(Todo::Recv(i));
            if !self.conns[i].sent_handshake {
                self.todo.push_back(Todo::Handshake(i));
            }
            if !self.conns[i].serve_q.is_empty() {
                self.todo.push_back(Todo::Serve(i));
            }
            if self.conns[i].got_handshake && self.conns[i].outstanding.is_none() {
                self.todo.push_back(Todo::Request(i));
            }
        }
    }

    fn next_action(&mut self) -> Syscall {
        // Flush pending Have announcements first (to every conn).
        if self.announce_cursor < self.pending_announce.len() * self.conns.len().max(1)
            && !self.pending_announce.is_empty()
        {
            let per = self.conns.len().max(1);
            let idx = self.announce_cursor;
            self.announce_cursor += 1;
            let piece = self.pending_announce[idx / per];
            let conn = idx % per;
            if conn < self.conns.len() {
                let fd = self.conns[conn].fd;
                self.last_op = Op::Announce;
                return Syscall::SendNb {
                    fd,
                    bytes: CTRL_BYTES,
                    msg: Some(Arc::new(BtMsg::Have { piece })),
                };
            }
        }
        if self.announce_cursor >= self.pending_announce.len() * self.conns.len().max(1) {
            self.pending_announce.clear();
            self.announce_cursor = 0;
        }

        while let Some(t) = self.todo.pop_front() {
            match t {
                Todo::Accept => {
                    self.last_op = Op::AcceptNb;
                    return Syscall::AcceptNb { port: self.port };
                }
                Todo::Recv(i) => {
                    if i >= self.conns.len() {
                        continue;
                    }
                    let fd = self.conns[i].fd;
                    self.last_op = Op::Recv(i);
                    return Syscall::RecvNb { fd, max: u64::MAX };
                }
                Todo::Handshake(i) => {
                    if i >= self.conns.len() || self.conns[i].sent_handshake {
                        continue;
                    }
                    let fd = self.conns[i].fd;
                    let bitfield = self.have.words.clone();
                    self.last_op = Op::SendHandshake(i);
                    return Syscall::SendNb {
                        fd,
                        bytes: CTRL_BYTES + self.have.len() as u64 / 8,
                        msg: Some(Arc::new(BtMsg::Handshake { bitfield })),
                    };
                }
                Todo::Serve(i) => {
                    if i >= self.conns.len() {
                        continue;
                    }
                    let Some(&piece) = self.conns[i].serve_q.front() else {
                        continue;
                    };
                    let fd = self.conns[i].fd;
                    self.last_op = Op::Serve(i);
                    return Syscall::SendNb {
                        fd,
                        bytes: self.piece_bytes,
                        msg: Some(Arc::new(BtMsg::Piece { piece })),
                    };
                }
                Todo::Request(i) => {
                    if i >= self.conns.len() || self.conns[i].outstanding.is_some() {
                        continue;
                    }
                    let remote = &self.conns[i].remote_have;
                    let Some(piece) = pick_piece(&self.have, &self.requested, remote) else {
                        continue;
                    };
                    let fd = self.conns[i].fd;
                    self.last_op = Op::Request(i, piece);
                    return Syscall::SendNb {
                        fd,
                        bytes: CTRL_BYTES,
                        msg: Some(Arc::new(BtMsg::Request { piece })),
                    };
                }
            }
        }
        // Round complete: sleep.
        self.last_op = Op::Sleeping;
        Syscall::Sleep { ns: self.poll_ns }
    }

    /// Processes backlogged messages; a Piece pauses the drain and returns
    /// the hash-check syscall.
    fn drain_backlog(&mut self) -> Option<Syscall> {
        while let Some((i, msg)) = self.backlog.pop_front() {
            if i >= self.conns.len() {
                continue;
            }
            match &*msg {
                BtMsg::Handshake { bitfield } => {
                    self.conns[i].got_handshake = true;
                    self.conns[i].remote_have.union_words(bitfield);
                }
                BtMsg::Request { piece } => {
                    self.conns[i].serve_q.push_back(*piece);
                }
                BtMsg::Have { piece } => {
                    self.conns[i].remote_have.insert(*piece);
                }
                BtMsg::Piece { piece } => {
                    // Verify the piece (hash check), then persist it.
                    let piece = *piece;
                    self.conns[i].outstanding = None;
                    self.last_op = Op::HashCheck(piece);
                    return Some(Syscall::Compute {
                        ns: (self.piece_bytes as f64 * HASH_NS_PER_BYTE) as u64,
                    });
                }
            }
        }
        None
    }
}

impl GuestProg for BtPeer {
    fn step(&mut self, ret: SysRet) -> Syscall {
        if !self.started {
            self.started = true;
            self.last_op = Op::CreateFile;
            return Syscall::Create { file: self.file };
        }
        let op = std::mem::replace(&mut self.last_op, Op::Idle);
        match op {
            Op::CreateFile => {
                // Listen before connecting out: two peers dialing each
                // other simultaneously would otherwise deadlock waiting
                // for a listener that never comes.
                self.last_op = Op::Listened;
                return Syscall::Listen { port: self.port };
            }
            Op::Listened | Op::ConnectPeer => {
                if let SysRet::Sock(fd) = ret {
                    self.conns.push(PeerConn::new(fd, self.npieces));
                }
                if let Some(addr) = self.peers_to_connect.pop() {
                    self.last_op = Op::ConnectPeer;
                    return Syscall::Connect {
                        dst: addr,
                        port: self.port,
                    };
                }
                // Fall into the poll loop.
            }
            Op::AcceptNb => {
                if let SysRet::Sock(fd) = ret {
                    if self.conn_idx(fd).is_none() {
                        self.conns.push(PeerConn::new(fd, self.npieces));
                    }
                }
            }
            Op::Recv(i) => {
                if let SysRet::Recvd { msgs, .. } = ret {
                    for m in msgs {
                        if let Ok(bt) = m.downcast::<BtMsg>() {
                            self.backlog.push_back((i, bt));
                        }
                    }
                }
            }
            Op::SendHandshake(i) => {
                if let SysRet::Sent(n) = ret {
                    if n > 0 && i < self.conns.len() {
                        self.conns[i].sent_handshake = true;
                    }
                }
            }
            Op::Serve(i) => {
                if let SysRet::Sent(n) = ret {
                    if n > 0 && i < self.conns.len() {
                        self.conns[i].serve_q.pop_front();
                        self.served += 1;
                    }
                }
            }
            Op::Request(i, piece) => {
                if let SysRet::Sent(n) = ret {
                    if n > 0 && i < self.conns.len() {
                        self.conns[i].outstanding = Some(piece);
                        self.requested.insert(piece);
                    }
                }
            }
            Op::HashCheck(piece) => {
                // Hash verified: write the piece to disk.
                self.last_op = Op::DiskWrite(piece);
                return Syscall::Write {
                    file: self.file,
                    offset: piece as u64 * self.piece_bytes,
                    bytes: self.piece_bytes,
                };
            }
            Op::DiskWrite(piece) => {
                self.have.insert(piece);
                self.pending_announce.push(piece);
                self.last_op = Op::Stamp;
                return Syscall::Gettimeofday;
            }
            Op::Stamp => {
                if let SysRet::Time(t) = ret {
                    let bytes = self.have.len() as u64 * self.piece_bytes;
                    self.progress.push((t, bytes));
                }
            }
            Op::Announce => {}
            Op::Sleeping => {
                self.rebuild_round();
            }
            Op::Idle => {}
        }
        if let Some(sys) = self.drain_backlog() {
            return sys;
        }
        self.next_action()
    }
    fn clone_box(&self) -> Box<dyn GuestProg> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn name(&self) -> &str {
        "bittorrent"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::Loopback;
    use sim::SimRng;

    /// Piece counts around the word boundary, plus Fig 7's.
    const SIZES: [u32; 6] = [0, 1, 63, 64, 65, 24_576];

    impl PieceSet {
        fn contains(&self, piece: u32) -> bool {
            piece < self.npieces && self.words[piece as usize / 64] >> (piece % 64) & 1 == 1
        }

        fn iter(&self) -> impl Iterator<Item = u32> + '_ {
            (0..self.npieces).filter(|&p| self.contains(p))
        }
    }

    /// The picker's definition: the scan the bitfield replaced.
    fn pick_by_scan(have: &PieceSet, requested: &PieceSet, remote: &PieceSet) -> Option<u32> {
        (0..have.npieces)
            .find(|&p| !have.contains(p) && !requested.contains(p) && remote.contains(p))
    }

    #[test]
    fn piece_set_counts_iterates_and_masks_its_tail() {
        let mut s = PieceSet::empty(70);
        for p in [69, 3, 64, 3, 63, 69] {
            s.insert(p);
        }
        assert!(!s.insert(3), "second insert of a piece reports it present");
        assert_eq!(s.len(), 4);
        assert_eq!(s.iter().collect::<Vec<_>>(), [3, 63, 64, 69]);
        for n in SIZES.into_iter().chain([70, 130]) {
            let full = PieceSet::full(n);
            assert_eq!(full.len(), n as usize);
            assert_eq!(full.iter().count(), n as usize);
            assert_eq!(full.words.len(), n.div_ceil(64) as usize);
            let ones: u32 = full.words.iter().map(|w| w.count_ones()).sum();
            assert_eq!(ones, n, "no bit at or above npieces = {n} is set");
        }
    }

    #[test]
    fn word_wise_pick_equals_the_scan_it_replaced() {
        let mut rng = SimRng::from_seed(16);
        let (mut picked, mut nothing) = (0, 0);
        for n in [0, 1, 63, 64, 65, 130, 1_000, 24_576] {
            for trial in 0..if n > 1_000 { 40 } else { 160 } {
                // Densities from empty to full, drawn per set, so that both
                // early hits and misses over the whole range occur.
                let draw = |rng: &mut SimRng| {
                    let density = [0.0, 0.02, 0.5, 0.98, 1.0][rng.index(5)];
                    let mut s = PieceSet::empty(n);
                    for p in 0..n {
                        if rng.chance(density) {
                            s.insert(p);
                        }
                    }
                    s
                };
                let (have, requested) = (draw(&mut rng), draw(&mut rng));
                let mut remote = draw(&mut rng);
                if trial % 4 == 0 {
                    // The hot case: a fellow leecher owning nothing we lack.
                    let owned: Vec<u32> = remote.iter().collect();
                    remote = PieceSet::empty(n);
                    for p in owned {
                        if have.contains(p) || requested.contains(p) {
                            remote.insert(p);
                        }
                    }
                }
                let expect = pick_by_scan(&have, &requested, &remote);
                assert_eq!(pick_piece(&have, &requested, &remote), expect, "npieces {n}");
                match expect {
                    Some(_) => picked += 1,
                    None => nothing += 1,
                }
            }
        }
        assert!(picked + nothing >= 1_000 && picked > 100 && nothing > 100);
    }

    #[test]
    fn a_piece_index_from_the_wire_cannot_grow_or_panic_the_bitfield() {
        for n in SIZES {
            let mut s = PieceSet::empty(n);
            assert!(!s.insert(n) && !s.insert(u32::MAX));
            assert_eq!((s.len(), s.words.len()), (0, n.div_ceil(64) as usize));
            // A bitfield of another length: truncated, or zero-extended.
            s.union_words(&[u64::MAX]);
            assert_eq!(s.len(), n.min(64) as usize);
            s.union_words(&vec![u64::MAX; s.words.len() + 3]);
            assert_eq!((s.len(), s.words.len()), (n as usize, n.div_ceil(64) as usize));

            // The same through the messages a peer can send.
            let mut p = BtPeer::leecher(6881, Vec::new(), n, 1 << 17, FileId(1));
            p.started = true;
            p.conns.push(PeerConn::new(SockFd(0), n));
            for msg in [
                BtMsg::Have { piece: n },
                BtMsg::Have { piece: u32::MAX },
                BtMsg::Handshake { bitfield: vec![u64::MAX; 1_000] },
                BtMsg::Piece { piece: u32::MAX },
            ] {
                p.backlog.push_back((0, Arc::new(msg)));
            }
            // Hash check, disk write, time stamp, back to the poll loop.
            for _ in 0..4 {
                p.step(SysRet::Ok);
            }
            assert_eq!(p.conns[0].remote_have.len(), n as usize);
            assert_eq!(p.conns[0].remote_have.words.len(), n.div_ceil(64) as usize);
            assert_eq!(p.pieces(), 0, "piece u32::MAX is not one of ours");
            let first = pick_piece(&p.have, &p.requested, &p.conns[0].remote_have);
            assert_eq!(first, (n > 0).then_some(0));
        }
    }

    #[test]
    fn two_peer_loopback_downloads_every_piece_once_in_order() {
        let (n, piece_bytes) = (130u32, 128 * 1024u64);
        let mut seeder = BtPeer::seeder(6881, n, piece_bytes, FileId(1));
        let mut leecher = BtPeer::leecher(6881, vec![NodeAddr(0)], n, piece_bytes, FileId(1));
        let mut lb = Loopback::new();
        let mut requests = Vec::new();
        let mut steps = 0;
        while leecher.downloaded_bytes() < n as u64 * piece_bytes {
            steps += 1;
            assert!(steps < 100_000, "swarm stalled at {} pieces", leecher.pieces());
            lb.step(0, &mut seeder);
            let seen = lb.sent.len();
            lb.step(1, &mut leecher);
            for (from, msg) in &lb.sent[seen..] {
                if let Some(BtMsg::Request { piece }) = msg.downcast_ref::<BtMsg>() {
                    assert_eq!(*from, 1, "the seeder never requests");
                    assert!(!leecher.have.contains(*piece), "requested a held piece");
                    requests.push(*piece);
                }
            }
        }
        assert_eq!(requests, (0..n).collect::<Vec<_>>(), "once each, ascending");
        assert_eq!(leecher.pieces(), n as usize);
        assert_eq!(seeder.served, n as u64);
        assert_eq!(lb.nodes[1].file_size(FileId(1)), Some(n as u64 * piece_bytes));
    }
}
