//! Branching copy-on-write storage for stateful swapping (paper §5).
//!
//! Implements the paper's three-level logical disk (Fig 3): an immutable,
//! shareable **golden image** with linear addressing; an immutable
//! **aggregated delta** holding all changes from previous swap-ins, laid
//! out vba-sorted for locality; and a mutable **current delta** implemented
//! as a redo log with hash-index address translation. On top of the levels:
//! free-block elimination by ext3 bitmap snooping, rate-limited mirror
//! synchronization for background transfer, and offline merge with
//! locality-restoring reordering.
//!
//! Timing flows through the `hwsim` disk model: the same workload run
//! against [`CowMode::Base`], [`CowMode::BranchOrig`], and
//! [`CowMode::Branch`] reproduces the relative costs of paper Fig 8.

mod block;
mod freeblock;
mod golden;
mod merge;
mod mirror;
mod store;

pub use block::{BitmapBlock, BlockData, BlockTable, DeltaMap};
pub use freeblock::Ext3Snoop;
pub use golden::{GoldenImage, GoldenImageBuilder, GoldenStats};
pub use merge::{merge_reorder, MergeStats};
pub use mirror::{Direction, MirrorTransfer, RateLimiter};
pub use store::{BranchingStore, CowMode, StoreLayout, StoreStats};
