//! The crate-wide typed error. Every fallible store surface — loads,
//! removals, the corruption hooks, segment-log media replay — reports
//! through [`StoreError`]; nothing in this crate returns a bare `bool`
//! failure or panics on bad data.

use std::fmt;

use crate::codec::DecodeError;
use crate::hash::ChunkHash;
use crate::client::ImageId;

/// Typed store failure. Restores never panic on bad data: a hash
/// mismatch surfaces as [`StoreError::CorruptChunk`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The image id is not (or no longer) in the store.
    UnknownImage(ImageId),
    /// Every stored copy of a chunk fails content verification.
    CorruptChunk {
        image: ImageId,
        chunk_index: usize,
        expected: ChunkHash,
        actual: ChunkHash,
    },
    /// A manifest references a chunk the store has lost entirely —
    /// refcounting is broken (internal-consistency error).
    MissingChunk { image: ImageId, chunk_index: usize },
    /// A chunk index is outside an image's manifest, or the chunk has no
    /// payload to operate on (surfaced by the corruption hooks).
    NoSuchChunk { image: ImageId, chunk_index: usize },
    /// A persistent backend's media failed to replay on open (torn or
    /// corrupted record). Carries the decode failure as its source.
    Backend {
        backend: &'static str,
        source: DecodeError,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnknownImage(id) => write!(f, "unknown image {id:?}"),
            StoreError::CorruptChunk { image, chunk_index, expected, actual } => write!(
                f,
                "corrupt chunk {chunk_index} of {image:?}: expected {expected}, found {actual}"
            ),
            StoreError::MissingChunk { image, chunk_index } => {
                write!(f, "missing chunk {chunk_index} of {image:?}")
            }
            StoreError::NoSuchChunk { image, chunk_index } => {
                write!(f, "no chunk {chunk_index} in {image:?}")
            }
            StoreError::Backend { backend, source } => {
                write!(f, "{backend} backend media replay failed: {source}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Backend { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn backend_error_exposes_its_source() {
        let e = StoreError::Backend {
            backend: "segment-log",
            source: DecodeError::UnexpectedEof { at: 3, want: 8 },
        };
        let src = e.source().expect("backend errors carry a source");
        assert!(src.to_string().contains("unexpected end"));
        assert!(e.to_string().contains("segment-log"));
    }

    #[test]
    fn non_backend_errors_have_no_source() {
        assert!(StoreError::UnknownImage(ImageId(3)).source().is_none());
        let e = StoreError::NoSuchChunk { image: ImageId(1), chunk_index: 9 };
        assert!(e.to_string().contains("no chunk 9"));
    }
}
