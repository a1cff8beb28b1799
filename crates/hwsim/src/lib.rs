//! Hardware models for the simulated Emulab testbed.
//!
//! This crate supplies the physical substrate the paper's evaluation runs
//! on: drifting hardware clocks and TSCs ([`clock`]), a position-aware
//! mechanical disk model ([`disk`]), CPU sharing between dom0 and a guest
//! ([`cpu`]), raw wires plus the shared control LAN ([`net`]), and the
//! pc3000 calibration constants ([`profile`]).

pub mod clock;
pub mod cpu;
pub mod disk;
pub mod net;
pub mod profile;

pub use clock::{HardwareClock, Tsc};
pub use cpu::SharedCpu;
pub use disk::{Disk, DiskOp, DiskProfile, DiskQueue, DiskRequest, DiskStats};
pub use net::{ControlLan, Endpoint, Frame, IfaceId, LanTransmit, LinkDeliver, NodeAddr, Wire};
