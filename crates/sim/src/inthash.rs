//! The hasher of the simulator's own integer-keyed tables.
//!
//! Block addresses, log slots, file ids and chunk indices are generated
//! by the simulation, never by anything outside the program, so their
//! tables need no protection against keys crafted to collide — and
//! `std`'s default SipHash-1-3 was 7 % of a capture-heavy run for that
//! protection alone. [`IntHasher`] is one 64×64→128-bit multiply per
//! integer written, folded by xor, with no per-table random state.
//!
//! Two consequences worth knowing. A table over keys that *do* come from
//! outside (names, user input) keeps the default hasher. And with no
//! random state, iteration order over an [`IntMap`] is the same in every
//! run of the same build — arbitrary still, so anything that reaches
//! output or the event order sorts first, exactly as it had to before.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` over simulator-generated integer keys (or newtypes of
/// them); construct with `IntMap::default()` or
/// `IntMap::with_capacity_and_hasher(n, Default::default())`.
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// 2^64 / φ, odd: consecutive and strided keys land far apart.
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// See the module comment. The fold matters: `hashbrown` takes the
/// bucket from the low bits of a hash and its control byte from the top
/// seven, and a plain multiply leaves the low bits of a key strided by
/// 2^k (a vba stride, a group stride) all zero.
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    /// Anything but the integers below (no such key today) hashes eight
    /// bytes at a time, zero-extended, so every width of one value agrees.
    fn write(&mut self, bytes: &[u8]) {
        for part in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..part.len()].copy_from_slice(part);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        let wide = u128::from(self.0 ^ v) * u128::from(MULTIPLIER);
        self.0 = (wide as u64) ^ ((wide >> 64) as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash_of(key: u64) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(key)
    }

    /// `hashbrown` indexes buckets with the low bits and tags them with
    /// the top seven. Keys strided the way the simulator strides them —
    /// words (8), blocks (4096), block groups (32768) — must fill both.
    #[test]
    fn strided_keys_spread_over_the_low_bits_and_the_top_seven() {
        const KEYS: u64 = 4096;
        for stride in [1u64, 8, 4096, 32768] {
            // 1024 buckets, 4 keys each on average: a hash that dropped
            // the stride's zero bits would pile them into KEYS / stride.
            let mut buckets = [0u32; 1024];
            let mut tags = [0u32; 128];
            for i in 0..KEYS {
                let h = hash_of(i * stride);
                buckets[(h & 1023) as usize] += 1;
                tags[(h >> 57) as usize] += 1;
            }
            let used = buckets.iter().filter(|&&n| n > 0).count();
            let fullest = *buckets.iter().max().unwrap();
            assert!(used > 900, "stride {stride}: only {used} of 1024 buckets used");
            assert!(fullest <= 16, "stride {stride}: {fullest} keys in one bucket");
            let (lo, hi) = (*tags.iter().min().unwrap(), *tags.iter().max().unwrap());
            assert!(lo >= 8 && hi <= 72, "stride {stride}: tag counts {lo}..={hi}, mean 32");
        }
    }

    #[test]
    fn narrow_writes_agree_with_the_wide_one_and_bytes_chain() {
        let one = |f: &dyn Fn(&mut IntHasher)| {
            let mut h = IntHasher::default();
            f(&mut h);
            h.finish()
        };
        let want = one(&|h| h.write_u64(77));
        assert_eq!(one(&|h| h.write_u8(77)), want);
        assert_eq!(one(&|h| h.write_u16(77)), want);
        assert_eq!(one(&|h| h.write_u32(77)), want);
        assert_eq!(one(&|h| h.write_usize(77)), want);
        assert_eq!(one(&|h| h.write(&77u64.to_le_bytes())), want);
        // A second field changes the hash, in either position.
        let pair = |a: u64, b: u64| one(&|h| (h.write_u64(a), h.write_u64(b)).1);
        assert_ne!(pair(1, 2), pair(2, 1));
        assert_ne!(pair(1, 2), pair(1, 3));
    }
}
