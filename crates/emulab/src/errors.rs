//! Typed errors of the testbed control API.
//!
//! Swap-in and spec validation used to fail with bare `String`s; these
//! enums carry the same information in matchable form. `Display` output
//! is kept stable where callers surface it (notably the
//! "swap-in {node}: ..." prefix that [`crate::SwapInWarning::StateLost`]
//! reasons are built from).

use std::error::Error;
use std::fmt;

use ckptstore::{DecodeError, StoreError};

/// An invalid experiment specification ([`crate::ExperimentSpec::validate`]).
#[derive(Clone, Debug, PartialEq)]
pub enum SpecError {
    /// A shaped link references a node the spec does not define.
    UnknownLinkEndpoint { a: String, b: String },
    /// A LAN member is not a node of the spec.
    UnknownLanMember { member: String },
    /// Two nodes share a name.
    DuplicateNodeName { name: String },
    /// A shaped link has zero bandwidth: no frame could ever cross it.
    ZeroLinkBandwidth { a: String, b: String },
    /// A shaped link's loss rate is outside `[0, 1]` (or NaN).
    LinkLossOutOfRange { a: String, b: String, loss: f64 },
    /// A LAN (by its index in the spec) has zero port bandwidth.
    ZeroLanBandwidth { lan: usize },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownLinkEndpoint { a, b } => {
                write!(f, "link {a}–{b} references unknown node")
            }
            SpecError::UnknownLanMember { member } => {
                write!(f, "lan references unknown node {member}")
            }
            SpecError::DuplicateNodeName { name } => {
                write!(f, "duplicate node name {name}")
            }
            SpecError::ZeroLinkBandwidth { a, b } => {
                write!(f, "link {a}–{b} has zero bandwidth")
            }
            SpecError::LinkLossOutOfRange { a, b, loss } => {
                write!(f, "link {a}–{b} loss {loss} is outside [0, 1]")
            }
            SpecError::ZeroLanBandwidth { lan } => write!(f, "lan {lan} has zero bandwidth"),
        }
    }
}

impl Error for SpecError {}

/// A testbed resource failure (allocation, image library).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TestbedError {
    /// The pool cannot satisfy the experiment's machine mapping.
    NoFreeMachines { needed: usize, free: usize },
    /// A node spec names an image the library does not hold.
    UnknownImage { image: String },
}

impl fmt::Display for TestbedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestbedError::NoFreeMachines { needed, free } => {
                write!(f, "no free machines: need {needed}, have {free}")
            }
            TestbedError::UnknownImage { image } => write!(f, "unknown image {image}"),
        }
    }
}

impl Error for TestbedError {}

/// A swap-in failure ([`crate::Testbed::swap_in`]).
///
/// Stateful swap-ins surface the `State*` variants when preserved node
/// state cannot be brought back; [`crate::Testbed::swap_in_stateful`]
/// degrades those to a golden-image reload with a
/// [`crate::SwapInWarning::StateLost`] warning instead of failing.
#[derive(Debug)]
pub enum SwapError {
    /// The experiment spec is invalid.
    Spec(SpecError),
    /// An experiment of this name is already swapped in.
    AlreadySwappedIn { name: String },
    /// Allocation or image lookup failed.
    Testbed(TestbedError),
    /// A preserved node image failed to load from the dedup store
    /// (missing or corrupt chunks).
    StateLoad { node: String, source: StoreError },
    /// A preserved node image loaded but did not decode.
    StateDecode { node: String, source: DecodeError },
}

impl fmt::Display for SwapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwapError::Spec(e) => e.fmt(f),
            SwapError::AlreadySwappedIn { name } => {
                write!(f, "experiment {name} already swapped in")
            }
            SwapError::Testbed(e) => e.fmt(f),
            SwapError::StateLoad { node, source } => write!(f, "swap-in {node}: {source}"),
            SwapError::StateDecode { node, source } => {
                write!(f, "swap-in {node}: malformed image: {source}")
            }
        }
    }
}

impl Error for SwapError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SwapError::Spec(e) => Some(e),
            SwapError::Testbed(e) => Some(e),
            SwapError::StateLoad { source, .. } => Some(source),
            SwapError::StateDecode { source, .. } => Some(source),
            SwapError::AlreadySwappedIn { .. } => None,
        }
    }
}

impl From<SpecError> for SwapError {
    fn from(e: SpecError) -> Self {
        SwapError::Spec(e)
    }
}

impl From<TestbedError> for SwapError {
    fn from(e: TestbedError) -> Self {
        SwapError::Testbed(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_stable() {
        let e = SpecError::UnknownLinkEndpoint { a: "a".into(), b: "ghost".into() };
        assert_eq!(e.to_string(), "link a–ghost references unknown node");
        let e = SwapError::StateDecode {
            node: "n".into(),
            source: DecodeError::Invalid("trailing bytes after image"),
        };
        assert_eq!(
            e.to_string(),
            "swap-in n: malformed image: invalid image field: trailing bytes after image"
        );
        let e = SwapError::from(TestbedError::NoFreeMachines { needed: 3, free: 1 });
        assert_eq!(e.to_string(), "no free machines: need 3, have 1");
    }

    #[test]
    fn sources_chain() {
        let e = SwapError::StateLoad {
            node: "n".into(),
            source: StoreError::MissingChunk {
                image: ckptstore::ImageId(7),
                chunk_index: 2,
            },
        };
        assert!(e.source().is_some());
        let e = SwapError::StateDecode { node: "n".into(), source: DecodeError::BadMagic };
        let source = e.source().expect("decode errors chain");
        assert_eq!(source.downcast_ref::<DecodeError>(), Some(&DecodeError::BadMagic));
        assert!(SwapError::AlreadySwappedIn { name: "x".into() }.source().is_none());
    }
}
