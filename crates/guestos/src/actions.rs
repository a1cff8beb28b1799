//! Actions the guest kernel requests from the hypervisor.
//!
//! The kernel is passive data; after every entry point the vmm drains the
//! action queue and performs the physical work: transmitting frames,
//! running block I/O against the branching store, and scheduling CPU
//! bursts on the shared processor.

use std::sync::Arc;

use cowstore::BlockData;
use hwsim::NodeAddr;

use crate::net::tcp::TcpSegment;
use crate::prog::CtrlReq;
use crate::wire::GuestResidue;

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

ckptstore::wire!(struct BlockBatchOp { write, vba, data });

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
}

ckptstore::wire!(struct BlockBatch { id, ops });

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

// Segment message markers go into the residue.
ckptstore::wire!(enum GuestAction in GuestResidue: "guest action" {
    NetTx { dst, seg } = 0,
    BlockIo(batch) = 1,
    Compute { id, ns } = 2,
    CtrlRpc { id, req } = 3,
    TriggerCheckpoint = 4,
});

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
