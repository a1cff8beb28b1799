//! Restore: stateful swap-in (§5) and time travel (§6) bring back the
//! same frozen closed world — domains, device stores, Dummynet pipes and
//! the §3.2 in-flight packets. Each caller decodes its stored images into
//! one [`FrozenState`] through [`decode_image`]; [`Testbed::install_frozen`]
//! puts it in place, frozen, and [`Testbed::resume_restored`] starts it at
//! one instant.

use checkpoint::DelayNodeHost;
use ckptstore::{Dec, DecodeError, Segment};
use cowstore::BranchingStore;
use dummynet::{DummynetImage, PipeLog};
use vmm::{DomainImage, RxLog, VmHost};

use crate::testbed::Testbed;

/// One node's frozen state.
pub(crate) struct FrozenNode {
    pub(crate) image: DomainImage,
    /// The device store to install; `None` keeps the host's own (a
    /// stateful swap-in builds it around the preserved aggregate).
    pub(crate) store: Option<BranchingStore>,
    pub(crate) rx_log: RxLog,
}

/// A frozen experiment: its nodes in spec order, and per delay node (in
/// spec link order) the captured pipes and their suspension log.
pub(crate) struct FrozenState {
    pub(crate) nodes: Vec<FrozenNode>,
    pub(crate) delay_nodes: Vec<Option<(DummynetImage, PipeLog)>>,
}

/// Decodes an image of `kind` from its verified chunks: the header, the
/// body `body` reads, and not one byte more.
pub(crate) fn decode_image<T>(
    chunks: &[Segment],
    kind: &str,
    body: impl FnOnce(&mut Dec<'_>) -> Result<T, DecodeError>,
) -> Result<T, DecodeError> {
    let mut d = Dec::chunked(chunks);
    d.expect_image(kind)?;
    let value = body(&mut d)?;
    if d.remaining() != 0 {
        return Err(DecodeError::Invalid("trailing bytes after image"));
    }
    Ok(value)
}

impl Testbed {
    /// Installs `state` into `exp`'s hosts and delay nodes, frozen. Posts
    /// no event: nothing runs until [`Testbed::resume_restored`].
    pub(crate) fn install_frozen(&mut self, exp: &str, state: FrozenState) {
        for (host, node) in self.hosts_of(exp).into_iter().zip(state.nodes) {
            self.engine.with_component::<VmHost, _>(host, |h, ctx| {
                if let Some(store) = node.store {
                    *h.store_mut() = store;
                }
                h.restore(ctx, &node.image, node.rx_log);
            });
        }
        for (dn, pipes) in self.delay_nodes_of(exp).into_iter().zip(state.delay_nodes) {
            if let Some((image, log)) = pipes {
                self.engine
                    .with_component::<DelayNodeHost, _>(dn, |d, ctx| d.restore(ctx, &image, log));
            }
        }
    }

    /// Resumes a restored `exp` at one instant, delay nodes first: their
    /// pipes shift to the resume and their logs replay, then every host
    /// resumes and replays its own.
    pub(crate) fn resume_restored(&mut self, exp: &str) {
        for dn in self.delay_nodes_of(exp) {
            self.engine
                .with_component::<DelayNodeHost, _>(dn, |d, ctx| d.resume_from_restore(ctx));
        }
        for host in self.hosts_of(exp) {
            self.engine
                .with_component::<VmHost, _>(host, |h, ctx| h.resume_guest(ctx));
        }
    }
}
