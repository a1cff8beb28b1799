//! A miniature but real TCP: sliding window, cumulative/duplicate ACKs,
//! RTT estimation, RTO with exponential backoff, fast retransmit, slow
//! start / congestion avoidance, and receive-buffer flow control.
//!
//! Fidelity here is what makes the paper's central claim *testable*: "We
//! inspected the packet trace to confirm that checkpoints caused no
//! retransmissions, double acknowledgements, or changes of window size for
//! the TCP session" (§7.1). The connection counts exactly those events.
//!
//! The stream is byte-counted (segments carry lengths, not payload bytes);
//! applications needing message boundaries attach [`AppMsg`] markers to
//! stream offsets, which surface at the receiver when the stream passes
//! them — semantically identical to framing bytes in-band.

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use ckptstore::{Dec, DecodeError, Enc};

use crate::wire::GuestResidue;

/// Maximum segment size (payload bytes), Ethernet MTU minus headers.
pub const MSS: u32 = 1448;

/// Wire overhead per segment (IP + TCP + Ethernet framing).
pub const HEADER_BYTES: u32 = 78;

/// Initial retransmission timeout (ns): 1 s, per classic BSD defaults.
const INITIAL_RTO_NS: u64 = 1_000_000_000;

/// Minimum RTO (ns): 200 ms, Linux-style lower bound.
const MIN_RTO_NS: u64 = 200_000_000;

/// Maximum RTO (ns): 60 s cap.
const MAX_RTO_NS: u64 = 60_000_000_000;

/// An application-level message marker riding the stream.
pub type AppMsg = Arc<dyn Any + Send + Sync>;

/// TCP header flags (only the ones the simulator uses).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TcpFlags {
    pub syn: bool,
    pub ack: bool,
    pub fin: bool,
}

/// One TCP segment as it crosses the network.
#[derive(Clone)]
pub struct TcpSegment {
    pub src_port: u16,
    pub dst_port: u16,
    /// Sequence number of the first payload byte.
    pub seq: u64,
    /// Cumulative acknowledgment.
    pub ack: u64,
    /// Payload length in bytes.
    pub len: u32,
    pub flags: TcpFlags,
    /// Advertised receive window (bytes).
    pub wnd: u32,
    /// Message markers whose stream offset falls within this segment
    /// (offset, message). Retransmissions re-carry them; the receiver
    /// deduplicates by offset.
    pub msgs: Vec<(u64, AppMsg)>,
}

impl std::fmt::Debug for TcpSegment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Tcp[{}->{} seq={} ack={} len={} {}{}{} wnd={}]",
            self.src_port,
            self.dst_port,
            self.seq,
            self.ack,
            self.len,
            if self.flags.syn { "S" } else { "" },
            if self.flags.ack { "A" } else { "" },
            if self.flags.fin { "F" } else { "" },
            self.wnd
        )
    }
}

impl TcpSegment {
    /// Bytes this segment occupies on the wire.
    pub fn wire_bytes(&self) -> u32 {
        self.len + HEADER_BYTES
    }

    /// Serializes the segment; message markers go into the residue.
    pub fn encode_wire(&self, e: &mut Enc, residue: &mut GuestResidue) {
        e.u16(self.src_port);
        e.u16(self.dst_port);
        e.u64(self.seq);
        e.u64(self.ack);
        e.u32(self.len);
        e.bool(self.flags.syn);
        e.bool(self.flags.ack);
        e.bool(self.flags.fin);
        e.u32(self.wnd);
        e.seq(self.msgs.len());
        for (off, m) in &self.msgs {
            e.u64(*off);
            e.u32(residue.push_msg(m));
        }
    }

    /// Inverse of [`TcpSegment::encode_wire`].
    pub fn decode_wire(d: &mut Dec<'_>, residue: &GuestResidue) -> Result<Self, DecodeError> {
        let src_port = d.u16()?;
        let dst_port = d.u16()?;
        let seq = d.u64()?;
        let ack = d.u64()?;
        let len = d.u32()?;
        let flags = TcpFlags { syn: d.bool()?, ack: d.bool()?, fin: d.bool()? };
        let wnd = d.u32()?;
        let n = d.seq()?;
        let mut msgs = Vec::with_capacity(n);
        for _ in 0..n {
            let off = d.u64()?;
            msgs.push((off, residue.msg(d.u32()?)?));
        }
        Ok(TcpSegment { src_port, dst_port, seq, ack, len, flags, wnd, msgs })
    }
}

/// Connection lifecycle states (simplified state machine).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TcpState {
    SynSent,
    SynRcvd,
    Established,
    FinSent,
    Closed,
}

/// Counters the evaluation cares about.
#[derive(Clone, Copy, Debug, Default)]
pub struct TcpStats {
    pub segments_sent: u64,
    pub segments_received: u64,
    pub bytes_sent: u64,
    pub bytes_delivered: u64,
    /// Data retransmissions (fast retransmit + timeout).
    pub retransmissions: u64,
    /// RTO expirations.
    pub timeouts: u64,
    /// Duplicate ACKs received.
    pub dup_acks: u64,
    /// Times the peer's advertised window shrank below a quarter of its
    /// observed maximum — the receive-buffer pressure a checkpoint replay
    /// would cause (§3.2); the §7.1 "changes of window size" metric.
    pub window_shrinks: u64,
}

/// What feeding a segment into a connection did, besides the segments and
/// application messages it pushed into the caller's buffers.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TcpEffects {
    pub delivered_bytes: u64,
    pub connected: bool,
    pub closed: bool,
}

/// One end of a TCP connection.
///
/// Every entry point that can emit segments ([`TcpConn::on_segment`],
/// [`TcpConn::send`], [`TcpConn::on_tick`]) appends them to a `tx` buffer
/// the caller owns and reuses: the connection allocates nothing per packet.
///
/// # Examples
///
/// ```
/// use std::collections::VecDeque;
/// use guestos::net::tcp::TcpConn;
///
/// // Three-way handshake between two ends.
/// let (mut a, syn) = TcpConn::connect(1000, 80, 0);
/// let (mut b, synack) = TcpConn::accept(80, 1000, &syn, 0);
/// let (mut tx, mut inbox) = (Vec::new(), VecDeque::new());
/// assert!(a.on_segment(&synack, 1_000, &mut tx, &mut inbox).connected);
/// for seg in std::mem::take(&mut tx) {
///     b.on_segment(&seg, 2_000, &mut tx, &mut inbox);
/// }
/// assert!(a.established() && b.established());
/// ```
#[derive(Clone)]
pub struct TcpConn {
    pub local_port: u16,
    pub remote_port: u16,
    state: TcpState,

    // Send side.
    snd_una: u64,
    snd_nxt: u64,
    send_q: u64,
    send_buf_cap: u64,
    cwnd: u64,
    ssthresh: u64,
    peer_wnd: u64,
    last_peer_wnd: Option<u64>,
    dup_ack_count: u32,
    recover: u64,
    in_recovery: bool,
    pending_msgs: BTreeMap<u64, AppMsg>,

    // RTT estimation.
    srtt_ns: Option<u64>,
    rttvar_ns: u64,
    rto_ns: u64,
    rto_deadline_ns: Option<u64>,
    rtt_sample: Option<(u64, u64)>,
    backoff: u32,

    // Receive side.
    rcv_nxt: u64,
    ooo: BTreeMap<u64, u32>,
    rcv_buf_cap: u64,
    rcv_pending: u64,
    /// Message markers received but whose offset the in-order stream has
    /// not passed yet; keyed by offset (deduplicates retransmissions).
    msg_stash: BTreeMap<u64, AppMsg>,

    /// Counters.
    pub stats: TcpStats,
}

impl TcpConn {
    /// Creates the active-open end; returns the connection and the SYN.
    pub fn connect(local_port: u16, remote_port: u16, now_ns: u64) -> (Self, TcpSegment) {
        let mut c = TcpConn::raw(local_port, remote_port, TcpState::SynSent);
        let syn = c.make_segment(0, TcpFlags { syn: true, ack: false, fin: false });
        c.snd_nxt = 1; // SYN consumes a sequence number.
        c.arm_rto(now_ns);
        c.stats.segments_sent += 1;
        (c, syn)
    }

    /// Creates the passive end in response to a SYN; returns conn + SYN|ACK.
    pub fn accept(local_port: u16, remote_port: u16, syn: &TcpSegment, now_ns: u64) -> (Self, TcpSegment) {
        debug_assert!(syn.flags.syn);
        let mut c = TcpConn::raw(local_port, remote_port, TcpState::SynRcvd);
        c.rcv_nxt = syn.seq + 1;
        c.peer_wnd = syn.wnd as u64;
        let mut synack = c.make_segment(0, TcpFlags { syn: true, ack: true, fin: false });
        synack.ack = c.rcv_nxt;
        c.snd_nxt = 1;
        c.arm_rto(now_ns);
        c.stats.segments_sent += 1;
        (c, synack)
    }

    fn raw(local_port: u16, remote_port: u16, state: TcpState) -> Self {
        TcpConn {
            local_port,
            remote_port,
            state,
            snd_una: 0,
            snd_nxt: 0,
            send_q: 0,
            send_buf_cap: 256 * 1024,
            cwnd: 2 * MSS as u64,
            ssthresh: u64::MAX / 2,
            peer_wnd: MSS as u64,
            last_peer_wnd: None,
            dup_ack_count: 0,
            recover: 0,
            in_recovery: false,
            pending_msgs: BTreeMap::new(),
            srtt_ns: None,
            rttvar_ns: 0,
            rto_ns: INITIAL_RTO_NS,
            rto_deadline_ns: None,
            rtt_sample: None,
            backoff: 0,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            rcv_buf_cap: 256 * 1024,
            rcv_pending: 0,
            msg_stash: BTreeMap::new(),
            stats: TcpStats::default(),
        }
    }

    /// Current state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// True once the three-way handshake completed.
    pub fn established(&self) -> bool {
        self.state == TcpState::Established
    }

    /// Bytes accepted from the app but not yet delivered to the peer's app.
    pub fn unacked_and_queued(&self) -> u64 {
        (self.snd_nxt - self.snd_una) + self.send_q
    }

    /// Free space in the send buffer.
    pub fn send_space(&self) -> u64 {
        self.send_buf_cap.saturating_sub(self.unacked_and_queued())
    }

    /// Bytes available for the application to read.
    pub fn readable(&self) -> u64 {
        self.rcv_pending
    }

    fn advertised_wnd(&self) -> u32 {
        self.rcv_buf_cap.saturating_sub(self.rcv_pending).min(u32::MAX as u64) as u32
    }

    fn make_segment(&self, len: u32, flags: TcpFlags) -> TcpSegment {
        TcpSegment {
            src_port: self.local_port,
            dst_port: self.remote_port,
            seq: self.snd_nxt,
            ack: self.rcv_nxt,
            len,
            flags,
            wnd: self.advertised_wnd(),
            msgs: Vec::new(),
        }
    }

    fn arm_rto(&mut self, now_ns: u64) {
        self.rto_deadline_ns = Some(now_ns + self.rto_ns.saturating_mul(1 << self.backoff.min(6)));
    }

    fn flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Queues `bytes` for transmission, optionally ending with a message
    /// marker. Returns bytes accepted (zero if the buffer is full); any
    /// segments now transmittable are appended to `tx`.
    pub fn send(
        &mut self,
        bytes: u64,
        msg: Option<AppMsg>,
        now_ns: u64,
        tx: &mut Vec<TcpSegment>,
    ) -> u64 {
        if self.state != TcpState::Established {
            return 0;
        }
        let accepted = bytes.min(self.send_space());
        // All-or-nothing for marker integrity: partial message sends
        // would misplace the marker.
        if accepted == 0 || (accepted < bytes && msg.is_some()) {
            return 0;
        }
        self.send_q += accepted;
        if let Some(m) = msg {
            let marker_off = self.snd_nxt + self.send_q;
            self.pending_msgs.insert(marker_off, m);
        }
        self.pump(now_ns, tx);
        accepted
    }

    /// Emits whatever the window permits, appending to `tx`.
    fn pump(&mut self, now_ns: u64, tx: &mut Vec<TcpSegment>) {
        if self.state != TcpState::Established {
            return;
        }
        let mut emitted = false;
        let wnd = self.cwnd.min(self.peer_wnd);
        while self.send_q > 0 && self.flight() < wnd {
            let len = (self.send_q).min(MSS as u64).min(wnd - self.flight()) as u32;
            if len == 0 {
                break;
            }
            let mut seg = self.make_segment(len, TcpFlags { syn: false, ack: true, fin: false });
            seg.msgs = self.msgs_in_range(seg.seq, seg.seq + len as u64);
            self.snd_nxt += len as u64;
            self.send_q -= len as u64;
            if self.rtt_sample.is_none() {
                self.rtt_sample = Some((seg.seq + len as u64, now_ns));
            }
            self.stats.segments_sent += 1;
            self.stats.bytes_sent += len as u64;
            tx.push(seg);
            emitted = true;
        }
        if emitted && self.rto_deadline_ns.is_none() {
            self.arm_rto(now_ns);
        }
    }

    fn msgs_in_range(&self, start: u64, end: u64) -> Vec<(u64, AppMsg)> {
        self.pending_msgs
            .range(start + 1..=end)
            .map(|(&off, m)| (off, m.clone()))
            .collect()
    }

    /// The application reads up to `max` bytes.
    pub fn recv(&mut self, max: u64) -> u64 {
        let n = self.rcv_pending.min(max);
        self.rcv_pending -= n;
        n
    }

    /// Processes an incoming segment. Segments to transmit in response are
    /// appended to `tx` (ACKs first, then whatever the window now permits);
    /// application messages the stream has passed are appended to `inbox`.
    pub fn on_segment(
        &mut self,
        seg: &TcpSegment,
        now_ns: u64,
        tx: &mut Vec<TcpSegment>,
        inbox: &mut VecDeque<AppMsg>,
    ) -> TcpEffects {
        let mut fx = TcpEffects::default();
        self.stats.segments_received += 1;

        // Track anomalous peer-window shrinkage (the §7.1 transparency
        // metric): dips below a quarter of the largest window seen mean
        // the peer's receive buffer is filling — the §3.2 replay hazard.
        let w = seg.wnd as u64;
        let prev_max = self.last_peer_wnd.unwrap_or(0).max(self.peer_wnd);
        if prev_max > 0 && w < prev_max / 4 {
            self.stats.window_shrinks += 1;
        }
        self.last_peer_wnd = Some(self.last_peer_wnd.unwrap_or(0).max(w));
        self.peer_wnd = w.max(1); // Avoid total stall on zero-window; fine for our workloads.

        match self.state {
            TcpState::SynSent => {
                if seg.flags.syn && seg.flags.ack && seg.ack >= 1 {
                    self.snd_una = 1;
                    self.rcv_nxt = seg.seq + 1;
                    self.state = TcpState::Established;
                    self.rto_deadline_ns = None;
                    self.backoff = 0;
                    fx.connected = true;
                    // Final handshake ACK.
                    let ack = self.make_segment(0, TcpFlags { syn: false, ack: true, fin: false });
                    self.stats.segments_sent += 1;
                    tx.push(ack);
                }
                return fx;
            }
            TcpState::SynRcvd => {
                if seg.flags.ack && seg.ack >= 1 {
                    self.snd_una = 1;
                    self.state = TcpState::Established;
                    self.rto_deadline_ns = None;
                    self.backoff = 0;
                    fx.connected = true;
                    // Fall through: the ACK may carry data.
                } else {
                    return fx;
                }
            }
            TcpState::Closed => return fx,
            _ => {}
        }

        // ACK processing (sender side).
        if seg.flags.ack {
            if seg.ack > self.snd_una {
                let newly = seg.ack - self.snd_una;
                self.snd_una = seg.ack;
                self.dup_ack_count = 0;
                // Drop delivered message markers.
                while let Some(m) = self.pending_msgs.first_entry() {
                    if *m.key() > self.snd_una {
                        break;
                    }
                    m.remove();
                }
                // RTT sample (Karn: only if not retransmitted — approximated
                // by dropping the sample on any retransmission).
                if let Some((sample_seq, t0)) = self.rtt_sample {
                    if seg.ack >= sample_seq {
                        self.update_rtt(now_ns.saturating_sub(t0));
                        self.rtt_sample = None;
                    }
                }
                self.backoff = 0;
                if self.in_recovery && seg.ack >= self.recover {
                    self.in_recovery = false;
                    self.cwnd = self.ssthresh;
                }
                // Congestion window growth.
                if !self.in_recovery {
                    if self.cwnd < self.ssthresh {
                        self.cwnd += newly.min(MSS as u64); // Slow start.
                    } else {
                        // Congestion avoidance: +MSS per cwnd of data ACKed.
                        self.cwnd += (MSS as u64 * MSS as u64 / self.cwnd).max(1);
                    }
                }
                if self.flight() == 0 {
                    self.rto_deadline_ns = None;
                } else {
                    self.arm_rto(now_ns);
                }
            } else if seg.ack == self.snd_una && seg.len == 0 && !seg.flags.syn && self.flight() > 0
            {
                self.stats.dup_acks += 1;
                self.dup_ack_count += 1;
                if self.dup_ack_count == 3 && !self.in_recovery {
                    // Fast retransmit + recovery.
                    self.ssthresh = (self.flight() / 2).max(2 * MSS as u64);
                    self.cwnd = self.ssthresh + 3 * MSS as u64;
                    self.in_recovery = true;
                    self.recover = self.snd_nxt;
                    tx.push(self.retransmit_head(now_ns));
                }
            }
        }

        // Data processing (receiver side).
        if seg.len > 0 {
            let start = seg.seq;
            let end = seg.seq + seg.len as u64;
            for (off, m) in &seg.msgs {
                // Stash by offset; surfaced in order below. Entry semantics
                // deduplicate markers re-carried by retransmissions.
                self.msg_stash.entry(*off).or_insert_with(|| m.clone());
            }
            if start <= self.rcv_nxt && end > self.rcv_nxt {
                let advance = end - self.rcv_nxt;
                self.rcv_nxt = end;
                self.deliver(advance, &mut fx);
                // Pull any contiguous out-of-order data.
                while let Some((&s, &l)) = self.ooo.iter().next() {
                    if s > self.rcv_nxt {
                        break;
                    }
                    self.ooo.remove(&s);
                    let e = s + l as u64;
                    if e > self.rcv_nxt {
                        let adv = e - self.rcv_nxt;
                        self.rcv_nxt = e;
                        self.deliver(adv, &mut fx);
                    }
                }
            } else if start > self.rcv_nxt {
                self.ooo.insert(start, seg.len);
            }
            // else: duplicate data, ignore.

            // Surface message markers the stream has passed.
            while let Some(m) = self.msg_stash.first_entry() {
                if *m.key() > self.rcv_nxt {
                    break;
                }
                inbox.push_back(m.remove());
            }

            // ACK everything we have (immediate ACK policy).
            let ack = self.make_segment(0, TcpFlags { syn: false, ack: true, fin: false });
            self.stats.segments_sent += 1;
            tx.push(ack);
        }

        if seg.flags.fin && seg.seq <= self.rcv_nxt {
            self.rcv_nxt = self.rcv_nxt.max(seg.seq + 1);
            self.state = TcpState::Closed;
            fx.closed = true;
            let ack = self.make_segment(0, TcpFlags { syn: false, ack: true, fin: false });
            self.stats.segments_sent += 1;
            tx.push(ack);
        }

        // Window may have opened: transmit more.
        self.pump(now_ns, tx);
        fx
    }

    fn deliver(&mut self, bytes: u64, fx: &mut TcpEffects) {
        self.rcv_pending += bytes;
        self.stats.bytes_delivered += bytes;
        fx.delivered_bytes += bytes;
    }

    fn update_rtt(&mut self, sample_ns: u64) {
        match self.srtt_ns {
            None => {
                self.srtt_ns = Some(sample_ns);
                self.rttvar_ns = sample_ns / 2;
            }
            Some(srtt) => {
                let diff = srtt.abs_diff(sample_ns);
                self.rttvar_ns = (3 * self.rttvar_ns + diff) / 4;
                self.srtt_ns = Some((7 * srtt + sample_ns) / 8);
            }
        }
        let srtt = self.srtt_ns.expect("just set");
        self.rto_ns = (srtt + 4 * self.rttvar_ns).clamp(MIN_RTO_NS, MAX_RTO_NS);
    }

    fn retransmit_head(&mut self, now_ns: u64) -> TcpSegment {
        let len = (self.flight()).min(MSS as u64) as u32;
        let mut seg = TcpSegment {
            src_port: self.local_port,
            dst_port: self.remote_port,
            seq: self.snd_una,
            ack: self.rcv_nxt,
            len,
            flags: TcpFlags { syn: false, ack: true, fin: false },
            wnd: self.advertised_wnd(),
            msgs: Vec::new(),
        };
        seg.msgs = self.msgs_in_range(seg.seq, seg.seq + len as u64);
        self.stats.retransmissions += 1;
        self.stats.segments_sent += 1;
        self.rtt_sample = None; // Karn's algorithm.
        self.arm_rto(now_ns);
        seg
    }

    /// Clock tick: fires the RTO if expired, appending the retransmission
    /// to `tx`. Call with the guest's virtual time; a frozen clock ⇒ no
    /// spurious timeouts during checkpoints, which is precisely the
    /// temporal-firewall effect.
    pub fn on_tick(&mut self, now_ns: u64, tx: &mut Vec<TcpSegment>) {
        if let Some(deadline) = self.rto_deadline_ns {
            if now_ns >= deadline {
                match self.state {
                    TcpState::Established if self.flight() > 0 => {
                        self.stats.timeouts += 1;
                        self.ssthresh = (self.flight() / 2).max(2 * MSS as u64);
                        self.cwnd = MSS as u64;
                        self.in_recovery = false;
                        self.backoff = (self.backoff + 1).min(10);
                        tx.push(self.retransmit_head(now_ns));
                    }
                    TcpState::SynSent | TcpState::SynRcvd => {
                        // Retransmit handshake segment.
                        self.stats.timeouts += 1;
                        self.backoff = (self.backoff + 1).min(10);
                        let flags = TcpFlags {
                            syn: true,
                            ack: self.state == TcpState::SynRcvd,
                            fin: false,
                        };
                        let mut seg = TcpSegment {
                            src_port: self.local_port,
                            dst_port: self.remote_port,
                            seq: 0,
                            ack: self.rcv_nxt,
                            len: 0,
                            flags,
                            wnd: self.advertised_wnd(),
                            msgs: Vec::new(),
                        };
                        if !seg.flags.ack {
                            seg.ack = 0;
                        }
                        self.stats.segments_sent += 1;
                        self.stats.retransmissions += 1;
                        self.arm_rto(now_ns);
                        tx.push(seg);
                    }
                    _ => {
                        self.rto_deadline_ns = None;
                    }
                }
            }
        }
    }

    /// Initiates close; returns the FIN.
    pub fn close(&mut self, _now_ns: u64) -> Option<TcpSegment> {
        if self.state != TcpState::Established {
            self.state = TcpState::Closed;
            return None;
        }
        let seg = self.make_segment(0, TcpFlags { syn: false, ack: true, fin: true });
        self.snd_nxt += 1;
        self.state = TcpState::FinSent;
        self.stats.segments_sent += 1;
        Some(seg)
    }

    /// Serializes every connection field in declaration order; stashed
    /// message markers go into the residue.
    pub fn encode_wire(&self, e: &mut Enc, residue: &mut GuestResidue) {
        e.u16(self.local_port);
        e.u16(self.remote_port);
        e.u8(match self.state {
            TcpState::SynSent => 0,
            TcpState::SynRcvd => 1,
            TcpState::Established => 2,
            TcpState::FinSent => 3,
            TcpState::Closed => 4,
        });
        e.u64(self.snd_una);
        e.u64(self.snd_nxt);
        e.u64(self.send_q);
        e.u64(self.send_buf_cap);
        e.u64(self.cwnd);
        e.u64(self.ssthresh);
        e.u64(self.peer_wnd);
        e.bool(self.last_peer_wnd.is_some());
        if let Some(w) = self.last_peer_wnd {
            e.u64(w);
        }
        e.u32(self.dup_ack_count);
        e.u64(self.recover);
        e.bool(self.in_recovery);
        e.seq(self.pending_msgs.len());
        for (&off, m) in &self.pending_msgs {
            e.u64(off);
            e.u32(residue.push_msg(m));
        }
        e.bool(self.srtt_ns.is_some());
        if let Some(s) = self.srtt_ns {
            e.u64(s);
        }
        e.u64(self.rttvar_ns);
        e.u64(self.rto_ns);
        e.bool(self.rto_deadline_ns.is_some());
        if let Some(t) = self.rto_deadline_ns {
            e.u64(t);
        }
        e.bool(self.rtt_sample.is_some());
        if let Some((seq, t0)) = self.rtt_sample {
            e.u64(seq);
            e.u64(t0);
        }
        e.u32(self.backoff);
        e.u64(self.rcv_nxt);
        e.seq(self.ooo.len());
        for (&s, &l) in &self.ooo {
            e.u64(s);
            e.u32(l);
        }
        e.u64(self.rcv_buf_cap);
        e.u64(self.rcv_pending);
        e.seq(self.msg_stash.len());
        for (&off, m) in &self.msg_stash {
            e.u64(off);
            e.u32(residue.push_msg(m));
        }
        e.u64(self.stats.segments_sent);
        e.u64(self.stats.segments_received);
        e.u64(self.stats.bytes_sent);
        e.u64(self.stats.bytes_delivered);
        e.u64(self.stats.retransmissions);
        e.u64(self.stats.timeouts);
        e.u64(self.stats.dup_acks);
        e.u64(self.stats.window_shrinks);
    }

    /// Inverse of [`TcpConn::encode_wire`].
    pub fn decode_wire(d: &mut Dec<'_>, residue: &GuestResidue) -> Result<Self, DecodeError> {
        let local_port = d.u16()?;
        let remote_port = d.u16()?;
        let at = d.position();
        let state = match d.u8()? {
            0 => TcpState::SynSent,
            1 => TcpState::SynRcvd,
            2 => TcpState::Established,
            3 => TcpState::FinSent,
            4 => TcpState::Closed,
            tag => return Err(DecodeError::BadTag { at, tag, what: "tcp state" }),
        };
        let snd_una = d.u64()?;
        let snd_nxt = d.u64()?;
        let send_q = d.u64()?;
        let send_buf_cap = d.u64()?;
        let cwnd = d.u64()?;
        let ssthresh = d.u64()?;
        let peer_wnd = d.u64()?;
        let last_peer_wnd = if d.bool()? { Some(d.u64()?) } else { None };
        let dup_ack_count = d.u32()?;
        let recover = d.u64()?;
        let in_recovery = d.bool()?;
        let mut pending_msgs = BTreeMap::new();
        for _ in 0..d.seq()? {
            let off = d.u64()?;
            if pending_msgs.insert(off, residue.msg(d.u32()?)?).is_some() {
                return Err(DecodeError::Invalid("duplicate pending message offset"));
            }
        }
        let srtt_ns = if d.bool()? { Some(d.u64()?) } else { None };
        let rttvar_ns = d.u64()?;
        let rto_ns = d.u64()?;
        let rto_deadline_ns = if d.bool()? { Some(d.u64()?) } else { None };
        let rtt_sample = if d.bool()? { Some((d.u64()?, d.u64()?)) } else { None };
        let backoff = d.u32()?;
        let rcv_nxt = d.u64()?;
        let mut ooo = BTreeMap::new();
        for _ in 0..d.seq()? {
            let s = d.u64()?;
            if ooo.insert(s, d.u32()?).is_some() {
                return Err(DecodeError::Invalid("duplicate ooo segment start"));
            }
        }
        let rcv_buf_cap = d.u64()?;
        let rcv_pending = d.u64()?;
        let mut msg_stash = BTreeMap::new();
        for _ in 0..d.seq()? {
            let off = d.u64()?;
            if msg_stash.insert(off, residue.msg(d.u32()?)?).is_some() {
                return Err(DecodeError::Invalid("duplicate stashed message offset"));
            }
        }
        let stats = TcpStats {
            segments_sent: d.u64()?,
            segments_received: d.u64()?,
            bytes_sent: d.u64()?,
            bytes_delivered: d.u64()?,
            retransmissions: d.u64()?,
            timeouts: d.u64()?,
            dup_acks: d.u64()?,
            window_shrinks: d.u64()?,
        };
        Ok(TcpConn {
            local_port,
            remote_port,
            state,
            snd_una,
            snd_nxt,
            send_q,
            send_buf_cap,
            cwnd,
            ssthresh,
            peer_wnd,
            last_peer_wnd,
            dup_ack_count,
            recover,
            in_recovery,
            pending_msgs,
            srtt_ns,
            rttvar_ns,
            rto_ns,
            rto_deadline_ns,
            rtt_sample,
            backoff,
            rcv_nxt,
            ooo,
            rcv_buf_cap,
            rcv_pending,
            msg_stash,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shuttles segments between two connections with a fixed one-way
    /// delay, processing in timestamp order; an optional loss set drops
    /// the nth a→b data segment.
    struct Harness {
        a: TcpConn,
        b: TcpConn,
        now: u64,
        delay: u64,
        drop_nth_ab: Option<u64>,
        ab_count: u64,
        /// In-flight (deliver_at, to_a?, segment).
        wire: Vec<(u64, bool, TcpSegment)>,
        /// The caller-owned segment buffer every entry point appends to.
        tx: Vec<TcpSegment>,
        /// Application messages surfaced at each end, in delivery order.
        inbox_a: VecDeque<AppMsg>,
        inbox_b: VecDeque<AppMsg>,
    }

    impl Harness {
        fn connect() -> Harness {
            let (a, syn) = TcpConn::connect(1000, 2000, 0);
            let (b, synack) = TcpConn::accept(2000, 1000, &syn, 0);
            let mut h = Harness {
                a,
                b,
                now: 0,
                delay: 1_000_000, // 1 ms one way
                drop_nth_ab: None,
                ab_count: 0,
                wire: Vec::new(),
                tx: Vec::new(),
                inbox_a: VecDeque::new(),
                inbox_b: VecDeque::new(),
            };
            h.wire.push((h.delay, true, synack));
            h.pump_until_quiet();
            assert!(h.a.established() && h.b.established());
            h
        }

        /// Puts everything the last entry point appended to `tx` on the
        /// wire, leaving the buffer empty.
        fn push_tx(&mut self, from_a: bool) {
            for s in std::mem::take(&mut self.tx) {
                if from_a {
                    self.ab_count += 1;
                    if Some(self.ab_count) == self.drop_nth_ab {
                        continue;
                    }
                }
                self.wire.push((self.now + self.delay, !from_a, s));
            }
        }

        /// Delivers the earliest in-flight segment; false once the wire
        /// is empty.
        fn deliver_next(&mut self) -> bool {
            if self.wire.is_empty() {
                return false;
            }
            self.wire.sort_by_key(|&(t, _, _)| t);
            let (t, to_a, seg) = self.wire.remove(0);
            self.now = self.now.max(t);
            if to_a {
                self.a.on_segment(&seg, self.now, &mut self.tx, &mut self.inbox_a);
            } else {
                self.b.on_segment(&seg, self.now, &mut self.tx, &mut self.inbox_b);
            }
            self.push_tx(to_a);
            true
        }

        fn pump_until_quiet(&mut self) {
            let mut guard = 0;
            while self.deliver_next() {
                guard += 1;
                assert!(guard < 100_000, "harness livelock");
            }
        }

        /// `a` queues `bytes` (and a marker); what it emits goes on the wire.
        fn send_a(&mut self, bytes: u64, msg: Option<AppMsg>) -> u64 {
            let n = self.a.send(bytes, msg, self.now, &mut self.tx);
            self.push_tx(true);
            n
        }

        fn tick_both(&mut self, step_ns: u64) {
            self.now += step_ns;
            self.a.on_tick(self.now, &mut self.tx);
            self.push_tx(true);
            self.b.on_tick(self.now, &mut self.tx);
            self.push_tx(false);
            self.pump_until_quiet();
        }
    }

    #[test]
    fn handshake_establishes_both_ends() {
        let h = Harness::connect();
        assert_eq!(h.a.state(), TcpState::Established);
        assert_eq!(h.b.state(), TcpState::Established);
    }

    #[test]
    fn bulk_transfer_delivers_every_byte_without_retransmissions() {
        let mut h = Harness::connect();
        let total: u64 = 1_000_000;
        let mut sent = 0;
        while sent < total {
            sent += h.send_a(total - sent, None);
            h.pump_until_quiet();
            let _ = h.b.recv(u64::MAX); // App drains the receive buffer.
        }
        h.pump_until_quiet();
        assert_eq!(h.b.stats.bytes_delivered, total);
        assert_eq!(h.a.stats.retransmissions, 0);
        assert_eq!(h.a.stats.timeouts, 0);
        assert_eq!(h.b.stats.dup_acks, 0);
    }

    #[test]
    fn flow_control_blocks_sender_when_receiver_stops_reading() {
        let mut h = Harness::connect();
        // Receiver never reads: at most rcv_buf_cap bytes can be delivered.
        let accepted = h.send_a(10_000_000, None);
        assert!(accepted <= h.a.send_buf_cap);
        h.pump_until_quiet();
        assert!(
            h.b.rcv_pending <= h.b.rcv_buf_cap,
            "receive buffer never overflows"
        );
        // Window opens when the app reads.
        let before = h.b.stats.bytes_delivered;
        let _ = h.b.recv(u64::MAX);
        // Sender needs an ACK/window update; trigger via tick + more send.
        h.send_a(0, None);
        h.tick_both(300_000_000);
        assert!(h.b.stats.bytes_delivered >= before);
    }

    #[test]
    fn lost_segment_triggers_fast_retransmit_and_recovers() {
        let mut h = Harness::connect();
        h.drop_nth_ab = Some(5);
        let total: u64 = 300_000;
        let mut sent = 0;
        let mut guard = 0;
        while h.b.stats.bytes_delivered < total {
            guard += 1;
            assert!(guard < 10_000, "transfer stuck");
            if sent < total {
                sent += h.send_a(total - sent, None);
            }
            h.pump_until_quiet();
            let _ = h.b.recv(u64::MAX);
            if h.b.stats.bytes_delivered < total {
                h.tick_both(10_000_000);
            }
        }
        assert_eq!(h.b.stats.bytes_delivered, total, "no byte lost to the app");
        assert!(h.a.stats.retransmissions >= 1, "the hole was repaired");
    }

    #[test]
    fn rto_fires_when_acks_stop() {
        let (mut a, _syn) = TcpConn::connect(1, 2, 0);
        // Force establishment without a peer.
        a.state = TcpState::Established;
        a.snd_una = 1;
        a.snd_nxt = 1;
        a.peer_wnd = 1 << 20;
        let mut tx = Vec::new();
        a.send(5000, None, 0, &mut tx);
        assert!(!tx.is_empty());
        // No ACKs arrive; tick past the initial RTO.
        let mut rtx = Vec::new();
        a.on_tick(2_000_000_000, &mut rtx);
        assert_eq!(rtx.len(), 1);
        assert_eq!(rtx[0].seq, 1, "retransmit from snd_una");
        assert_eq!(a.stats.timeouts, 1);
        assert_eq!(a.cwnd, MSS as u64, "cwnd collapsed");
    }

    #[test]
    fn frozen_clock_never_times_out() {
        // The temporal-firewall property at TCP level: if virtual time does
        // not advance, no RTO can fire no matter how long the real gap.
        let (mut a, _syn) = TcpConn::connect(1, 2, 0);
        a.state = TcpState::Established;
        a.snd_una = 1;
        a.snd_nxt = 1;
        a.peer_wnd = 1 << 20;
        let mut tx = Vec::new();
        a.send(5000, None, 1000, &mut tx);
        let sent = tx.len();
        for _ in 0..100 {
            a.on_tick(1000, &mut tx);
            assert_eq!(tx.len(), sent, "time frozen at 1 µs");
        }
        assert_eq!(a.stats.timeouts, 0);
    }

    #[test]
    fn app_messages_surface_in_order_exactly_once() {
        let mut h = Harness::connect();
        let m1: AppMsg = Arc::new(1u32);
        let m2: AppMsg = Arc::new(2u32);
        h.send_a(10_000, Some(m1));
        h.send_a(20_000, Some(m2));

        let mut guard = 0;
        while h.inbox_b.len() < 2 {
            guard += 1;
            assert!(guard < 1000);
            if !h.deliver_next() {
                h.tick_both(10_000_000);
            }
            let _ = h.b.recv(u64::MAX);
        }
        let got: Vec<u32> = h.inbox_b.iter().map(|m| *m.downcast_ref::<u32>().unwrap()).collect();
        assert_eq!(got, vec![1, 2]);
        assert!(h.inbox_a.is_empty(), "markers surface at the receiver only");
    }

    #[test]
    fn ack_of_new_data_that_carries_data_pushes_ack_then_pumped_segments() {
        // `b` has more queued than its window lets out; the next segment
        // from `a` both acknowledges what `b` has in flight and carries
        // data of its own. The response must be, in this order: the ACK
        // of `a`'s data, then the segments the opened window releases.
        let mut h = Harness::connect();
        let queued = h.b.send(100_000, None, h.now, &mut h.tx);
        assert_eq!(queued, 100_000);
        let first_flight: Vec<TcpSegment> = std::mem::take(&mut h.tx);
        assert!(!first_flight.is_empty() && h.b.send_q > 0, "window-limited");
        // `a` receives the flight (its ACKs are discarded: the combined
        // segment below stands in for them) and then sends data, which
        // piggybacks the cumulative ACK.
        for seg in &first_flight {
            h.a.on_segment(seg, h.now, &mut h.tx, &mut h.inbox_a);
        }
        h.tx.clear();
        assert_eq!(h.a.send(500, None, h.now, &mut h.tx), 500);
        let combined = h.tx.pop().expect("one data segment");
        assert!(h.tx.is_empty());
        assert!(combined.len == 500 && combined.flags.ack && combined.ack > h.b.snd_una);

        let snd_nxt = h.b.snd_nxt;
        let fx = h.b.on_segment(&combined, h.now + 1, &mut h.tx, &mut h.inbox_b);
        assert_eq!(fx.delivered_bytes, 500);
        assert!(h.tx.len() >= 2, "an ACK and at least one pumped segment: {:?}", h.tx);
        let ack = &h.tx[0];
        assert_eq!((ack.len, ack.ack, ack.seq), (0, combined.seq + 500, snd_nxt));
        let mut seq = snd_nxt;
        for seg in &h.tx[1..] {
            assert!(seg.len > 0, "pumped data follows the ACK: {seg:?}");
            assert_eq!(seg.seq, seq, "in sequence order");
            seq += seg.len as u64;
        }
        assert_eq!(seq, h.b.snd_nxt);
    }

    #[test]
    fn cwnd_grows_in_slow_start() {
        let mut h = Harness::connect();
        let initial = h.a.cwnd;
        h.send_a(200_000, None);
        h.pump_until_quiet();
        let _ = h.b.recv(u64::MAX);
        assert!(h.a.cwnd > initial, "cwnd grew: {} -> {}", initial, h.a.cwnd);
    }

    #[test]
    fn fin_closes_receiver() {
        let mut h = Harness::connect();
        let fin = h.a.close(h.now).expect("fin");
        h.tx.push(fin);
        h.push_tx(true);
        h.pump_until_quiet();
        assert_eq!(h.b.state(), TcpState::Closed);
    }
}
