//! Checkpoint-image wire support: the residue side table, and the
//! [`Wire`] impls of the values that travel in it.
//!
//! Almost all guest state byte-serializes into the checkpoint image: each
//! image type declares its fields once with [`ckptstore::wire!`], beside
//! the type. Two things cannot: user programs (`Box<dyn GuestProg>` state
//! machines) and application message markers (`AppMsg = Arc<dyn Any>`).
//! Those travel in a typed [`GuestResidue`] side table captured alongside
//! the image, which is the `Cx` of every guest type that holds one — the
//! kernel, its threads, sockets, connections, segments, actions and
//! syscall returns — and the byte stream stores only indices into it. The
//! residue is the simulator's stand-in for opaque process memory pages —
//! bytes to the checkpoint, structure to the restored guest.

use ckptstore::{Dec, DecodeError, Enc, Wire};
use hwsim::NodeAddr;

use crate::net::tcp::AppMsg;
use crate::prog::GuestProg;

/// Guest state that rides beside the byte image: program state machines
/// and in-flight application message markers, indexed by the stream.
#[derive(Default)]
pub struct GuestResidue {
    /// Program objects in thread order.
    pub progs: Vec<Box<dyn GuestProg>>,
    /// Message markers in stream-encounter order.
    pub msgs: Vec<AppMsg>,
}

impl Clone for GuestResidue {
    fn clone(&self) -> Self {
        GuestResidue {
            progs: self.progs.clone(),
            msgs: self.msgs.clone(),
        }
    }
}

impl GuestResidue {
    /// Creates an empty residue.
    pub fn new() -> Self {
        GuestResidue::default()
    }

    /// Registers a message marker, returning its index.
    pub fn push_msg(&mut self, m: &AppMsg) -> u32 {
        self.msgs.push(m.clone());
        (self.msgs.len() - 1) as u32
    }

    /// Resolves a message index from the stream.
    pub fn msg(&self, idx: u32) -> Result<AppMsg, DecodeError> {
        self.msgs
            .get(idx as usize)
            .cloned()
            .ok_or(DecodeError::Invalid("message residue index out of range"))
    }

    /// Registers a program, returning its index.
    pub fn push_prog(&mut self, p: &dyn GuestProg) -> u32 {
        self.progs.push(p.clone_box());
        (self.progs.len() - 1) as u32
    }

    /// Resolves a program index from the stream.
    pub fn prog(&self, idx: u32) -> Result<Box<dyn GuestProg>, DecodeError> {
        self.progs
            .get(idx as usize)
            .cloned()
            .ok_or(DecodeError::Invalid("program residue index out of range"))
    }
}

/// The static error strings the kernel hands back through [`SysRet::Err`];
/// decode re-interns against this set.
const ERR_STRINGS: &[&str] =
    &["bad fd", "not listening", "exists", "no such file", "enospc", "efbig"];

/// A syscall error string: written as a string, re-interned on decode.
impl Wire<GuestResidue> for &'static str {
    fn put(&self, e: &mut Enc, _: &mut GuestResidue) {
        e.str(self);
    }

    fn get(d: &mut Dec<'_>, _: &GuestResidue) -> Result<Self, DecodeError> {
        let s = d.str()?;
        ERR_STRINGS
            .iter()
            .find(|&&k| k == s)
            .copied()
            .ok_or(DecodeError::Invalid("unknown syscall error string"))
    }
}

/// A message marker: its index in the residue.
impl Wire<GuestResidue> for AppMsg {
    fn put(&self, e: &mut Enc, residue: &mut GuestResidue) {
        e.u32(residue.push_msg(self));
    }

    fn get(d: &mut Dec<'_>, residue: &GuestResidue) -> Result<Self, DecodeError> {
        residue.msg(d.u32()?)
    }
}

/// A program object: its index in the residue.
impl Wire<GuestResidue> for Box<dyn GuestProg> {
    fn put(&self, e: &mut Enc, residue: &mut GuestResidue) {
        e.u32(residue.push_prog(self.as_ref()));
    }

    fn get(d: &mut Dec<'_>, residue: &GuestResidue) -> Result<Self, DecodeError> {
        residue.prog(d.u32()?)
    }
}

/// A node address: its `u32`. (`hwsim` does not know the codec, so the
/// impl lives here, for the one side table every guest image has.)
impl Wire<GuestResidue> for NodeAddr {
    fn put(&self, e: &mut Enc, _: &mut GuestResidue) {
        e.u32(self.0);
    }

    fn get(d: &mut Dec<'_>, _: &GuestResidue) -> Result<Self, DecodeError> {
        Ok(NodeAddr(d.u32()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prog::{CtrlResp, SockFd, SysRet};
    use std::sync::Arc;

    #[test]
    fn sysret_round_trips_through_residue() {
        let mut residue = GuestResidue::new();
        let msg: AppMsg = Arc::new(42u32);
        let cases = vec![
            SysRet::Start,
            SysRet::Ok,
            SysRet::Time(123),
            SysRet::Sock(SockFd(7)),
            SysRet::Sent(999),
            SysRet::Recvd { bytes: 10, msgs: vec![msg.clone()] },
            SysRet::Rpc(CtrlResp::NfsAttr { size: 1, mtime_ns: 2 }),
            SysRet::Err("bad fd"),
        ];
        let mut e = Enc::new();
        for c in &cases {
            c.put(&mut e, &mut residue);
        }
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        for c in &cases {
            let back = SysRet::get(&mut d, &residue).unwrap();
            assert_eq!(format!("{back:?}"), format!("{c:?}"));
        }
        // The marker itself survives (same Arc payload).
        let mut d = Dec::new(&bytes);
        for _ in 0..5 {
            SysRet::get(&mut d, &residue).unwrap();
        }
        if let SysRet::Recvd { msgs, .. } = SysRet::get(&mut d, &residue).unwrap() {
            assert_eq!(*msgs[0].downcast_ref::<u32>().unwrap(), 42);
        } else {
            panic!("expected Recvd");
        }
    }

    #[test]
    fn unknown_error_string_is_rejected() {
        let mut e = Enc::new();
        e.u8(7);
        e.str("made up error");
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(SysRet::get(&mut d, &GuestResidue::new()).is_err());
    }

    #[test]
    fn residue_index_out_of_range_is_typed() {
        let residue = GuestResidue::new();
        assert!(residue.msg(0).is_err());
        assert!(residue.prog(5).is_err());
    }
}
