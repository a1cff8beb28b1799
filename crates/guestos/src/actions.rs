//! Actions the guest kernel requests from the hypervisor.
//!
//! The kernel is passive data; after every entry point the vmm drains the
//! action queue and performs the physical work: transmitting frames,
//! running block I/O against the branching store, and scheduling CPU
//! bursts on the shared processor.

use std::sync::Arc;

use ckptstore::{Dec, DecodeError, Enc};
use cowstore::BlockData;
use hwsim::NodeAddr;

use crate::net::tcp::TcpSegment;
use crate::prog::CtrlReq;
use crate::wire::{decode_ctrl_req, encode_ctrl_req, GuestResidue};

/// One block operation within a batch.
#[derive(Clone, Debug)]
pub struct BlockBatchOp {
    /// True for write, false for read.
    pub write: bool,
    /// Virtual block address.
    pub vba: u64,
    /// Content for writes; `None` for reads (vmm fills them in on
    /// completion).
    pub data: Option<BlockData>,
}

/// A batch of block operations issued to the virtual block device.
///
/// Batches complete as a unit (one completion interrupt), mirroring how a
/// real frontend rings the backend once per request queue run.
#[derive(Clone, Debug)]
pub struct BlockBatch {
    pub id: u64,
    pub ops: Vec<BlockBatchOp>,
}

impl BlockBatch {
    /// Number of read ops in the batch.
    pub fn reads(&self) -> usize {
        self.ops.iter().filter(|o| !o.write).count()
    }

    /// Number of write ops in the batch.
    pub fn writes(&self) -> usize {
        self.ops.iter().filter(|o| o.write).count()
    }

    /// Serializes the batch.
    pub fn encode_wire(&self, e: &mut Enc) {
        e.u64(self.id);
        e.seq(self.ops.len());
        for op in &self.ops {
            e.bool(op.write);
            e.u64(op.vba);
            e.bool(op.data.is_some());
            if let Some(data) = &op.data {
                data.encode_wire(e);
            }
        }
    }

    /// Inverse of [`BlockBatch::encode_wire`].
    pub fn decode_wire(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let id = d.u64()?;
        let n = d.seq()?;
        let mut ops = Vec::with_capacity(n);
        for _ in 0..n {
            let write = d.bool()?;
            let vba = d.u64()?;
            let data = if d.bool()? { Some(BlockData::decode_wire(d)?) } else { None };
            ops.push(BlockBatchOp { write, vba, data });
        }
        Ok(BlockBatch { id, ops })
    }
}

/// An action for the hypervisor.
#[derive(Clone)]
pub enum GuestAction {
    /// Transmit a TCP segment to `dst` on the experiment network. The
    /// segment is already in the shared allocation the frame carrying it
    /// keeps, so handing it on moves a pointer, not the segment.
    NetTx { dst: NodeAddr, seg: Arc<TcpSegment> },
    /// Run a block I/O batch against the virtual disk.
    BlockIo(BlockBatch),
    /// Consume `ns` of guest CPU; deliver a completion with `id`.
    Compute { id: u64, ns: u64 },
    /// Forward an RPC to the control services; reply via
    /// [`crate::Kernel::on_ctrl_rpc`].
    CtrlRpc { id: u64, req: CtrlReq },
    /// The guest requested an immediate coordinated checkpoint (§4.3's
    /// event-driven trigger, e.g. a watchpoint hit).
    TriggerCheckpoint,
}

impl GuestAction {
    /// Serializes the action; segment message markers go into the residue.
    pub fn encode_wire(&self, e: &mut Enc, residue: &mut GuestResidue) {
        match self {
            GuestAction::NetTx { dst, seg } => {
                e.u8(0);
                e.u32(dst.0);
                seg.encode_wire(e, residue);
            }
            GuestAction::BlockIo(b) => {
                e.u8(1);
                b.encode_wire(e);
            }
            GuestAction::Compute { id, ns } => {
                e.u8(2);
                e.u64(*id);
                e.u64(*ns);
            }
            GuestAction::CtrlRpc { id, req } => {
                e.u8(3);
                e.u64(*id);
                encode_ctrl_req(e, req);
            }
            GuestAction::TriggerCheckpoint => e.u8(4),
        }
    }

    /// Inverse of [`GuestAction::encode_wire`].
    pub fn decode_wire(d: &mut Dec<'_>, residue: &GuestResidue) -> Result<Self, DecodeError> {
        let at = d.position();
        Ok(match d.u8()? {
            0 => GuestAction::NetTx {
                dst: NodeAddr(d.u32()?),
                seg: Arc::new(TcpSegment::decode_wire(d, residue)?),
            },
            1 => GuestAction::BlockIo(BlockBatch::decode_wire(d)?),
            2 => GuestAction::Compute { id: d.u64()?, ns: d.u64()? },
            3 => GuestAction::CtrlRpc { id: d.u64()?, req: decode_ctrl_req(d)? },
            4 => GuestAction::TriggerCheckpoint,
            tag => return Err(DecodeError::BadTag { at, tag, what: "guest action" }),
        })
    }
}

impl std::fmt::Debug for GuestAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GuestAction::NetTx { dst, seg } => write!(f, "NetTx(to {dst:?}, {seg:?})"),
            GuestAction::BlockIo(b) => {
                write!(f, "BlockIo(#{} r{} w{})", b.id, b.reads(), b.writes())
            }
            GuestAction::Compute { id, ns } => write!(f, "Compute(#{id}, {ns}ns)"),
            GuestAction::CtrlRpc { id, req } => write!(f, "CtrlRpc(#{id}, {req:?})"),
            GuestAction::TriggerCheckpoint => write!(f, "TriggerCheckpoint"),
        }
    }
}
