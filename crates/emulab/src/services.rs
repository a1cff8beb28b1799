//! Emulab control services: the file server (NFS) and DNS.
//!
//! "Users rely on network services that are provided by Emulab: DNS, NTP,
//! NFS-mounted persistent storage, and a distributed event system" (§2).
//! NTP and the checkpoint bus live on the ops node
//! ([`checkpoint::Coordinator`]); this component is `fs.emulab.net`: flat
//! NFS files with server-stamped mtimes, plus a DNS table. Timestamps
//! leave here in *real* testbed time; the vmm boundary transduces them to
//! guest virtual time (§5.2) — the demonstration that a swapped-out
//! experiment sees consistent mtimes lives in the integration tests.

use std::collections::HashMap;

use guestos::prog::{CtrlReq, CtrlResp};
use hwsim::{Frame, HardwareClock, LanTransmit, LinkDeliver, NodeAddr};
use sim::{Component, ComponentId, Ctx, Payload, SimDuration};
use vmm::{GuestRpc, GuestRpcReply};

/// One stored NFS file.
#[derive(Clone, Copy, Debug)]
struct NfsFile {
    size: u64,
    mtime_ns: u64,
}

/// The file/name server component.
pub struct FileServer {
    addr: NodeAddr,
    lan: ComponentId,
    clock: HardwareClock,
    files: HashMap<u64, NfsFile>,
    dns: HashMap<u32, u32>,
    /// RPCs served.
    pub requests: u64,
}

impl FileServer {
    /// Creates the server with the testbed reference clock.
    pub fn new(addr: NodeAddr, lan: ComponentId) -> Self {
        FileServer {
            addr,
            lan,
            clock: HardwareClock::new(0, 0.0),
            files: HashMap::new(),
            dns: HashMap::new(),
            requests: 0,
        }
    }

    /// The server's control address.
    pub fn addr(&self) -> NodeAddr {
        self.addr
    }

    /// Registers a DNS name (host id → address).
    pub fn add_dns(&mut self, host: u32, addr: u32) {
        self.dns.insert(host, addr);
    }

    fn serve(&mut self, now_ns: u64, req: CtrlReq) -> CtrlResp {
        self.requests += 1;
        match req {
            CtrlReq::NfsGetattr { file } => match self.files.get(&file) {
                Some(f) => CtrlResp::NfsAttr {
                    size: f.size,
                    mtime_ns: f.mtime_ns,
                },
                None => CtrlResp::NotFound,
            },
            CtrlReq::NfsWrite { file, bytes } => {
                let f = self.files.entry(file).or_insert(NfsFile {
                    size: 0,
                    mtime_ns: now_ns,
                });
                f.size += bytes;
                f.mtime_ns = now_ns;
                CtrlResp::NfsWriteOk {
                    size: f.size,
                    mtime_ns: f.mtime_ns,
                }
            }
            CtrlReq::NfsRead { file } => match self.files.get(&file) {
                Some(f) => CtrlResp::NfsData {
                    bytes: f.size,
                    mtime_ns: f.mtime_ns,
                },
                None => CtrlResp::NotFound,
            },
            CtrlReq::DnsLookup { host } => match self.dns.get(&host) {
                Some(&addr) => CtrlResp::DnsAddr { addr },
                None => CtrlResp::NotFound,
            },
        }
    }
}

impl Component for FileServer {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        let Ok(del) = payload.downcast::<LinkDeliver>() else {
            return;
        };
        let Some(rpc) = del.frame.payload::<GuestRpc>() else {
            return;
        };
        let now_ns = self.clock.read_ns(ctx.now()).max(0.0) as u64;
        let resp = self.serve(now_ns, rpc.req);
        let frame = Frame::new(
            self.addr,
            del.frame.src,
            160,
            GuestRpcReply { id: rpc.id, resp },
        );
        ctx.post(self.lan, SimDuration::ZERO, LanTransmit { frame });
    }

    sim::component_boilerplate!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nfs_write_stamps_and_getattr_reads_back() {
        let mut fsrv = FileServer::new(NodeAddr(2000), ComponentId(0));
        let r = fsrv.serve(1_000, CtrlReq::NfsWrite { file: 7, bytes: 100 });
        assert!(matches!(r, CtrlResp::NfsWriteOk { size: 100, mtime_ns: 1_000 }));
        let r = fsrv.serve(2_000, CtrlReq::NfsGetattr { file: 7 });
        assert!(matches!(r, CtrlResp::NfsAttr { size: 100, mtime_ns: 1_000 }));
        let r = fsrv.serve(3_000, CtrlReq::NfsWrite { file: 7, bytes: 50 });
        assert!(matches!(r, CtrlResp::NfsWriteOk { size: 150, mtime_ns: 3_000 }));
    }

    #[test]
    fn missing_files_and_names_return_not_found() {
        let mut fsrv = FileServer::new(NodeAddr(2000), ComponentId(0));
        assert!(matches!(
            fsrv.serve(0, CtrlReq::NfsGetattr { file: 9 }),
            CtrlResp::NotFound
        ));
        assert!(matches!(
            fsrv.serve(0, CtrlReq::DnsLookup { host: 3 }),
            CtrlResp::NotFound
        ));
        fsrv.add_dns(3, 42);
        assert!(matches!(
            fsrv.serve(0, CtrlReq::DnsLookup { host: 3 }),
            CtrlResp::DnsAddr { addr: 42 }
        ));
    }
}
