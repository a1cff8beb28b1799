//! Golden (base) filesystem images.
//!
//! "Nodes within and across experiments use a relatively small set of base
//! filesystem images, which can be cached on the experimental nodes and
//! shared across experiments" (§5.1). A golden image is immutable, uses
//! linear addressing (VBA == PBA, Fig 3), and is shared by every virtual
//! machine on a physical node.

use std::sync::Arc;

use sim::IntMap;

use crate::block::BlockData;

/// An immutable base image.
///
/// Content is synthesized deterministically from the image seed, with an
/// explicit overlay for blocks written by the image builder (mkfs, base
/// system population). Synthesizing content keeps a "6 GB image" from
/// costing 6 GB of host memory.
#[derive(Clone, Debug)]
pub struct GoldenImage {
    name: String,
    blocks: u64,
    block_size: u32,
    seed: u64,
    explicit: Arc<IntMap<u64, BlockData>>,
    /// Fraction of the raw size the compressed (Frisbee-style) image takes
    /// on the wire; base FC4 images compress well.
    pub compression: f64,
}

/// Size summary of a golden image, for telemetry and transfer costing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GoldenStats {
    /// Capacity in blocks.
    pub blocks: u64,
    /// Blocks explicitly written by the builder (the rest synthesize).
    pub explicit: u64,
    /// Raw image bytes.
    pub byte_size: u64,
    /// Compressed on-the-wire bytes.
    pub wire_size: u64,
}

impl GoldenImage {
    /// The raw image size in bytes.
    pub fn byte_size(&self) -> u64 {
        self.blocks * self.block_size as u64
    }

    /// Size summary (telemetry, cache accounting).
    pub fn stats(&self) -> GoldenStats {
        GoldenStats {
            blocks: self.blocks,
            explicit: self.explicit.len() as u64,
            byte_size: self.byte_size(),
            wire_size: self.wire_size(),
        }
    }

    /// The compressed on-the-wire size (image download cost).
    pub fn wire_size(&self) -> u64 {
        (self.byte_size() as f64 * self.compression) as u64
    }

    /// Image name (for the cache key on physical nodes).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Capacity in blocks.
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> u32 {
        self.block_size
    }

    /// Reads a block. Blocks never touched by the builder synthesize
    /// deterministic content from the seed.
    ///
    /// # Panics
    ///
    /// Panics if `vba` is out of range.
    pub fn read(&self, vba: u64) -> BlockData {
        assert!(vba < self.blocks, "golden read out of range");
        if let Some(d) = self.explicit.get(&vba) {
            return d.clone();
        }
        // SplitMix-style hash of (seed, vba) as the block fingerprint.
        let mut z = self.seed ^ vba.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 31;
        BlockData::Opaque(z)
    }
}

/// Builds a golden image by writing blocks before sealing it.
#[derive(Debug)]
pub struct GoldenImageBuilder {
    name: String,
    blocks: u64,
    block_size: u32,
    seed: u64,
    explicit: IntMap<u64, BlockData>,
    compression: f64,
}

impl GoldenImageBuilder {
    /// Starts a new image of `blocks` × `block_size`.
    pub fn new(name: &str, blocks: u64, block_size: u32, seed: u64) -> Self {
        GoldenImageBuilder {
            name: name.to_string(),
            blocks,
            block_size,
            seed,
            explicit: IntMap::default(),
            compression: 0.12,
        }
    }

    /// Sets the compression ratio used for transfer costing.
    pub fn compression(mut self, ratio: f64) -> Self {
        assert!((0.0..=1.0).contains(&ratio), "bad compression ratio");
        self.compression = ratio;
        self
    }

    /// Writes a block into the image (mkfs / base-system population).
    ///
    /// # Panics
    ///
    /// Panics if `vba` is out of range.
    pub fn write(&mut self, vba: u64, data: BlockData) {
        assert!(vba < self.blocks, "golden write out of range");
        self.explicit.insert(vba, data);
    }

    /// Seals the image.
    pub fn build(self) -> GoldenImage {
        GoldenImage {
            name: self.name,
            blocks: self.blocks,
            block_size: self.block_size,
            seed: self.seed,
            explicit: Arc::new(self.explicit),
            compression: self.compression,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesized_content_is_deterministic() {
        let img = GoldenImageBuilder::new("fc4", 1000, 4096, 7).build();
        assert_eq!(img.read(5), img.read(5));
        assert_ne!(img.read(5), img.read(6));
    }

    #[test]
    fn explicit_writes_override_synthesis() {
        let mut b = GoldenImageBuilder::new("fc4", 1000, 4096, 7);
        b.write(3, BlockData::Opaque(42));
        let img = b.build();
        assert_eq!(img.read(3), BlockData::Opaque(42));
    }

    #[test]
    fn sizes_and_compression() {
        let img = GoldenImageBuilder::new("fc4", 1000, 4096, 7)
            .compression(0.25)
            .build();
        assert_eq!(img.byte_size(), 4_096_000);
        assert_eq!(img.wire_size(), 1_024_000);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_read_panics() {
        let img = GoldenImageBuilder::new("fc4", 10, 4096, 7).build();
        let _ = img.read(10);
    }
}
