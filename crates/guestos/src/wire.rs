//! Checkpoint-image wire support: the residue side-table and codecs for
//! the shared syscall-surface types.
//!
//! Almost all guest state byte-serializes into the checkpoint image (see
//! the per-module `encode_wire` impls). Two things cannot: user programs
//! (`Box<dyn GuestProg>` state machines) and application message markers
//! (`AppMsg = Arc<dyn Any>`). Those travel in a typed [`GuestResidue`]
//! side-table captured alongside the image; the byte stream stores only
//! indices into it. The residue is the simulator's stand-in for opaque
//! process memory pages — bytes to the checkpoint, structure to the
//! restored guest.

use ckptstore::{Dec, DecodeError, Enc};

use crate::net::tcp::AppMsg;
use crate::prog::{CtrlReq, CtrlResp, GuestProg, SockFd, SysRet};

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

fn intern_err(s: &str) -> Result<&'static str, DecodeError> {
    ERR_STRINGS
        .iter()
        .find(|&&k| k == s)
        .copied()
        .ok_or(DecodeError::Invalid("unknown syscall error string"))
}

/// Serializes a syscall return value.
pub fn encode_sysret(e: &mut Enc, r: &SysRet, residue: &mut GuestResidue) {
    match r {
        SysRet::Start => e.u8(0),
        SysRet::Ok => e.u8(1),
        SysRet::Time(t) => {
            e.u8(2);
            e.u64(*t);
        }
        SysRet::Sock(fd) => {
            e.u8(3);
            e.u32(fd.0);
        }
        SysRet::Sent(n) => {
            e.u8(4);
            e.u64(*n);
        }
        SysRet::Recvd { bytes, msgs } => {
            e.u8(5);
            e.u64(*bytes);
            e.seq(msgs.len());
            for m in msgs {
                e.u32(residue.push_msg(m));
            }
        }
        SysRet::Rpc(resp) => {
            e.u8(6);
            encode_ctrl_resp(e, resp);
        }
        SysRet::Err(s) => {
            e.u8(7);
            e.str(s);
        }
    }
}

/// Inverse of [`encode_sysret`].
pub fn decode_sysret(d: &mut Dec<'_>, residue: &GuestResidue) -> Result<SysRet, DecodeError> {
    let at = d.position();
    Ok(match d.u8()? {
        0 => SysRet::Start,
        1 => SysRet::Ok,
        2 => SysRet::Time(d.u64()?),
        3 => SysRet::Sock(SockFd(d.u32()?)),
        4 => SysRet::Sent(d.u64()?),
        5 => {
            let bytes = d.u64()?;
            let n = d.seq()?;
            let mut msgs = Vec::with_capacity(n);
            for _ in 0..n {
                msgs.push(residue.msg(d.u32()?)?);
            }
            SysRet::Recvd { bytes, msgs }
        }
        6 => SysRet::Rpc(decode_ctrl_resp(d)?),
        7 => SysRet::Err(intern_err(&d.str()?)?),
        tag => return Err(DecodeError::BadTag { at, tag, what: "sysret" }),
    })
}

/// Serializes a control-service request.
pub fn encode_ctrl_req(e: &mut Enc, req: &CtrlReq) {
    match req {
        CtrlReq::NfsGetattr { file } => {
            e.u8(0);
            e.u64(*file);
        }
        CtrlReq::NfsWrite { file, bytes } => {
            e.u8(1);
            e.u64(*file);
            e.u64(*bytes);
        }
        CtrlReq::NfsRead { file } => {
            e.u8(2);
            e.u64(*file);
        }
        CtrlReq::DnsLookup { host } => {
            e.u8(3);
            e.u32(*host);
        }
    }
}

/// Inverse of [`encode_ctrl_req`].
pub fn decode_ctrl_req(d: &mut Dec<'_>) -> Result<CtrlReq, DecodeError> {
    let at = d.position();
    Ok(match d.u8()? {
        0 => CtrlReq::NfsGetattr { file: d.u64()? },
        1 => CtrlReq::NfsWrite { file: d.u64()?, bytes: d.u64()? },
        2 => CtrlReq::NfsRead { file: d.u64()? },
        3 => CtrlReq::DnsLookup { host: d.u32()? },
        tag => return Err(DecodeError::BadTag { at, tag, what: "ctrl req" }),
    })
}

/// Serializes a control-service response.
pub fn encode_ctrl_resp(e: &mut Enc, resp: &CtrlResp) {
    match resp {
        CtrlResp::NfsAttr { size, mtime_ns } => {
            e.u8(0);
            e.u64(*size);
            e.u64(*mtime_ns);
        }
        CtrlResp::NfsWriteOk { size, mtime_ns } => {
            e.u8(1);
            e.u64(*size);
            e.u64(*mtime_ns);
        }
        CtrlResp::NfsData { bytes, mtime_ns } => {
            e.u8(2);
            e.u64(*bytes);
            e.u64(*mtime_ns);
        }
        CtrlResp::DnsAddr { addr } => {
            e.u8(3);
            e.u32(*addr);
        }
        CtrlResp::NotFound => e.u8(4),
    }
}

/// Inverse of [`encode_ctrl_resp`].
pub fn decode_ctrl_resp(d: &mut Dec<'_>) -> Result<CtrlResp, DecodeError> {
    let at = d.position();
    Ok(match d.u8()? {
        0 => CtrlResp::NfsAttr { size: d.u64()?, mtime_ns: d.u64()? },
        1 => CtrlResp::NfsWriteOk { size: d.u64()?, mtime_ns: d.u64()? },
        2 => CtrlResp::NfsData { bytes: d.u64()?, mtime_ns: d.u64()? },
        3 => CtrlResp::DnsAddr { addr: d.u32()? },
        4 => CtrlResp::NotFound,
        tag => return Err(DecodeError::BadTag { at, tag, what: "ctrl resp" }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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
            encode_sysret(&mut e, c, &mut residue);
        }
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        for c in &cases {
            let back = decode_sysret(&mut d, &residue).unwrap();
            assert_eq!(format!("{back:?}"), format!("{c:?}"));
        }
        // The marker itself survives (same Arc payload).
        let mut d = Dec::new(&bytes);
        for _ in 0..5 {
            decode_sysret(&mut d, &residue).unwrap();
        }
        if let SysRet::Recvd { msgs, .. } = decode_sysret(&mut d, &residue).unwrap() {
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
        assert!(decode_sysret(&mut d, &GuestResidue::new()).is_err());
    }

    #[test]
    fn residue_index_out_of_range_is_typed() {
        let residue = GuestResidue::new();
        assert!(residue.msg(0).is_err());
        assert!(residue.prog(5).is_err());
    }
}
