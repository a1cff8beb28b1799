//! Guest networking: the TCP engine, the socket table, and packet capture.

pub mod socket;
pub mod tcp;

use tcp::TcpSegment;

/// Direction of a captured packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PacketDir {
    Rx,
    Tx,
}

ckptstore::wire!(enum PacketDir: "packet dir" { Rx = 0, Tx = 1 });

/// One captured packet, as `tcpdump` on the guest would record it.
///
/// Timestamps are *guest virtual time*: the evaluation's point is that
/// these traces look undisturbed across checkpoints.
#[derive(Clone, Debug)]
pub struct PacketRecord {
    pub t_guest_ns: u64,
    pub dir: PacketDir,
    pub src_port: u16,
    pub dst_port: u16,
    pub seq: u64,
    pub ack: u64,
    pub len: u32,
    pub wnd: u32,
    pub syn: bool,
    pub fin: bool,
}

ckptstore::wire!(struct PacketRecord { t_guest_ns, dir, src_port, dst_port, seq, ack, len, wnd, syn, fin });

/// An in-guest packet capture buffer.
#[derive(Clone, Debug, Default)]
pub struct NetTrace {
    records: Vec<PacketRecord>,
    enabled: bool,
}

ckptstore::wire!(struct NetTrace { enabled, records });

impl NetTrace {
    /// Creates a disabled trace (enable per experiment).
    pub fn new() -> Self {
        NetTrace::default()
    }

    /// Starts capturing.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// True if capturing.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a segment if capturing.
    pub fn record(&mut self, t_guest_ns: u64, dir: PacketDir, seg: &TcpSegment) {
        if !self.enabled {
            return;
        }
        self.records.push(PacketRecord {
            t_guest_ns,
            dir,
            src_port: seg.src_port,
            dst_port: seg.dst_port,
            seq: seg.seq,
            ack: seg.ack,
            len: seg.len,
            wnd: seg.wnd,
            syn: seg.flags.syn,
            fin: seg.flags.fin,
        });
    }

    /// The captured records.
    pub fn records(&self) -> &[PacketRecord] {
        &self.records
    }

    /// Inter-arrival gaps (ns) between consecutive received *data* packets.
    pub fn rx_data_gaps_ns(&self) -> Vec<u64> {
        let rx: Vec<&PacketRecord> = self
            .records
            .iter()
            .filter(|r| r.dir == PacketDir::Rx && r.len > 0)
            .collect();
        rx.windows(2)
            .map(|w| w[1].t_guest_ns.saturating_sub(w[0].t_guest_ns))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::tcp::TcpFlags;
    use super::*;

    fn seg(len: u32) -> TcpSegment {
        TcpSegment {
            src_port: 1,
            dst_port: 2,
            seq: 0,
            ack: 0,
            len,
            flags: TcpFlags::default(),
            wnd: 1000,
            msgs: Vec::new(),
        }
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = NetTrace::new();
        t.record(10, PacketDir::Rx, &seg(100));
        assert!(t.records().is_empty());
    }

    #[test]
    fn gaps_ignore_pure_acks_and_tx() {
        let mut t = NetTrace::new();
        t.enable();
        t.record(1000, PacketDir::Rx, &seg(100));
        t.record(1500, PacketDir::Tx, &seg(100)); // ignored: tx
        t.record(2000, PacketDir::Rx, &seg(0)); // ignored: pure ack
        t.record(4000, PacketDir::Rx, &seg(100));
        assert_eq!(t.rx_data_gaps_ns(), vec![3000]);
    }
}
