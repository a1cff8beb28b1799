//! In-repo 128-bit content hash for chunk addressing.
//!
//! One striped hash with the structure of XXH3's long-input path and
//! constants of its own: eight 64-bit accumulator lanes over 64-byte
//! stripes, a bijective scramble every [`STRIPES_PER_BLOCK`] stripes, the
//! tail padded into one last stripe tagged with its length, and a fold to
//! 128 bits. Per word it costs one 32×32→64 multiply and two adds, so
//! hashing a 4 KiB chunk runs at about the speed of reading it. A block
//! record's words must be made before they are hashed, at two 64-bit
//! multiplies each, which is most of [`record_hash`]'s cost; on AVX-512DQ
//! it makes and hashes eight words per instruction (`vpmullq`). Not
//! cryptographic — it defends against accidental corruption and gives
//! dedup a negligible collision probability over the store sizes the
//! simulator produces, without pulling in an external digest crate.
//!
//! Three rules are load-bearing:
//!
//! - **The secret advances one word per stripe.** Stripe `n` of a block
//!   mixes word `i` with `SECRET[n + i]`. With one secret for every stripe
//!   the stripes of a block commute under addition, so two chunks whose
//!   stripes are a permutation of each other collide (such a variant
//!   collided on `tests/adopted_put.rs`'s images).
//! - **The raw word goes into the neighbour lane.** `lo32 × hi32` of
//!   `k ^ s` is zero whenever either half is, and so loses `k`; adding `k`
//!   itself to lane `i ^ 1` keeps every bit of every word in the state.
//! - **The scramble is a bijection** (xor-shift, xor with a constant,
//!   multiply by an odd constant). With the neighbour-lane add this gives
//!   the invariant: two inputs of one length that differ in one word leave
//!   different accumulator states — the neighbour lane differs by exactly
//!   the difference of the words, later accumulation adds the same values
//!   to both, and no scramble can map two lane values to one. Only the
//!   fold to 128 bits can then collide.
//!
//! Addresses, and therefore placement ([`crate::shard_of`]), are a
//! function of this hash: changing it re-baselines placement-derived
//! telemetry and nothing else. The unit tests below pin three outputs.

use std::fmt;

use crate::segment::write_record_words;
use crate::SEGMENT_SIZE;

/// Content address of one chunk.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChunkHash(pub u128);

impl fmt::Debug for ChunkHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ChunkHash({:032x})", self.0)
    }
}

impl fmt::Display for ChunkHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

const LANES: usize = 8;
const STRIPE: usize = LANES * 8;
/// Stripes between scrambles: one block is 1 KiB, a 4 KiB chunk four.
const STRIPES_PER_BLOCK: usize = 16;
const BLOCK: usize = STRIPE * STRIPES_PER_BLOCK;
/// One word per stripe position plus one stripe's worth: stripe `n` of a
/// block reads `SECRET[n..n + LANES]`.
const SECRET_WORDS: usize = STRIPES_PER_BLOCK + LANES;

/// SplitMix64's state increment.
pub(crate) const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's two output multipliers.
const MIX: [u64; 2] = [0xBF58_476D_1CE4_E5B9, 0x94D0_49BB_1331_11EB];
/// The scramble's odd multiplier.
const SCRAMBLE: u64 = 0x9FB2_1C65_1E98_DF25;

/// SplitMix64 step: advances `state` and returns the next output.
pub(crate) const fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(MIX[0]);
    z = (z ^ (z >> 27)).wrapping_mul(MIX[1]);
    z ^ (z >> 31)
}

/// SplitMix64 outputs, computed at compile time.
const SECRET: [u64; SECRET_WORDS] = {
    let mut s = [0u64; SECRET_WORDS];
    let mut state: u64 = 0x6A09_E667_F3BC_C908;
    let mut i = 0;
    while i < SECRET_WORDS {
        s[i] = splitmix64(&mut state);
        i += 1;
    }
    s
};

/// murmur3's 64-bit finalizer: full avalanche on a single word.
fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    k ^= k >> 33;
    k = k.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    k ^= k >> 33;
    k
}

/// Stripe `n` of its block into the lanes.
#[inline(always)]
fn accumulate(acc: &mut [u64; LANES], stripe: &[u8; STRIPE], n: usize) {
    for i in 0..LANES {
        let k = u64::from_le_bytes(stripe[8 * i..8 * i + 8].try_into().unwrap());
        let x = k ^ SECRET[n + i];
        acc[i] = acc[i].wrapping_add((x & 0xFFFF_FFFF) * (x >> 32));
        acc[i ^ 1] = acc[i ^ 1].wrapping_add(k);
    }
}

/// One whole block into the lanes, then the scramble.
#[inline(always)]
fn accumulate_block(acc: &mut [u64; LANES], block: &[u8]) {
    for n in 0..STRIPES_PER_BLOCK {
        accumulate(acc, block[n * STRIPE..][..STRIPE].try_into().unwrap(), n);
    }
    scramble(acc);
}

/// A bijection of each lane, between blocks.
fn scramble(acc: &mut [u64; LANES]) {
    for (a, s) in acc.iter_mut().zip(&SECRET[STRIPES_PER_BLOCK..]) {
        *a = (*a ^ (*a >> 47) ^ s).wrapping_mul(SCRAMBLE);
    }
}

/// The 128-bit product of two words, its halves xor-folded.
fn mul_fold(a: u64, b: u64) -> u64 {
    let m = u128::from(a) * u128::from(b);
    m as u64 ^ (m >> 64) as u64
}

/// Hashes a chunk's bytes into its content address.
pub fn chunk_hash(data: &[u8]) -> ChunkHash {
    let mut acc = [0u64; LANES];
    let mut blocks = data.chunks_exact(BLOCK);
    for block in &mut blocks {
        accumulate_block(&mut acc, block);
    }
    let mut stripes = blocks.remainder().chunks_exact(STRIPE);
    let mut n = 0;
    for stripe in &mut stripes {
        accumulate(&mut acc, stripe.try_into().unwrap(), n);
        n += 1;
    }
    let tail = stripes.remainder();
    if !tail.is_empty() {
        // A tail is at most 63 bytes, so the last byte is always padding.
        let mut last = [0u8; STRIPE];
        last[..tail.len()].copy_from_slice(tail);
        last[STRIPE - 1] = tail.len() as u8;
        accumulate(&mut acc, &last, n);
    }
    fold(&acc, data.len() as u64)
}

/// `chunk_hash` of the [`SEGMENT_SIZE`]-byte block record of `fp`
/// ([`crate::write_record`]), without writing the record out.
///
/// Two kernels give the same address. On an x86-64 CPU that reports
/// AVX-512F and AVX-512DQ (asked on each call; the standard library
/// caches the answer) the record is made and hashed eight words at a time
/// in registers, one stripe per `zmm`: a SplitMix64 word is two 64-bit
/// multiplies, and `vpmullq` does eight. Any other CPU runs the scalar
/// body, `record_hash_scalar`, which is the definition: the tests check
/// it against `chunk_hash` of the written-out record and the vector
/// kernel against it. There is no AVX2 kernel, because AVX2 has no
/// 64-bit multiply, and one built from 32-bit products costs about what
/// scalar `imul` does.
pub fn record_hash(fp: u64) -> ChunkHash {
    #[cfg(target_arch = "x86_64")]
    if avx512_kernel() {
        // SAFETY: the CPU reports AVX-512F and AVX-512DQ, the two
        // features the kernel is compiled for.
        return unsafe { avx512::record_hash(fp) };
    }
    record_hash_scalar(fp)
}

/// Whether this CPU has the features [`record_hash`]'s vector kernel needs.
fn avx512_kernel() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// [`record_hash`] by its definition, one 1 KiB block of the record at a
/// time: each is written into one stack buffer, still in L1, and
/// accumulated from there.
fn record_hash_scalar(fp: u64) -> ChunkHash {
    let mut acc = [0u64; LANES];
    let mut block = [0u8; BLOCK];
    for b in 0..SEGMENT_SIZE / BLOCK {
        write_record_words(fp, b * BLOCK / 8, &mut block);
        accumulate_block(&mut acc, &block);
    }
    fold(&acc, SEGMENT_SIZE as u64)
}

/// The lanes and the input length into the 128-bit address.
fn fold(acc: &[u64; LANES], len: u64) -> ChunkHash {
    let mut lo = len.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut hi = !len.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    for p in (0..LANES).step_by(2) {
        let (a, b) = (acc[p], acc[p + 1]);
        lo = lo.wrapping_add(mul_fold(a ^ SECRET[p], b ^ SECRET[p + 1]));
        hi = hi.wrapping_add(mul_fold(a ^ SECRET[p + LANES], b ^ SECRET[p + LANES + 1]));
    }
    ChunkHash((u128::from(fmix64(hi)) << 64) | u128::from(fmix64(lo)))
}

/// [`record_hash`] with one stripe per AVX-512 register. Lane `j` of
/// stripe `s` is word `8s + j` of the record: SplitMix64's output at state
/// `fp + (8s + j)·γ`, except word 0, which is `fp`. The record is made
/// and accumulated in registers and never exists in memory.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::*;

    use super::{fold, ChunkHash, BLOCK, GAMMA, LANES, MIX, SCRAMBLE, SECRET, STRIPES_PER_BLOCK};
    use crate::SEGMENT_SIZE;

    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) fn record_hash(fp: u64) -> ChunkHash {
        // Lane `j` starts at state `fp + j·γ`.
        let j = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
        let gamma = _mm512_set1_epi64(GAMMA as i64);
        let mut state = _mm512_add_epi64(_mm512_set1_epi64(fp as i64), _mm512_mullo_epi64(j, gamma));
        let step = _mm512_set1_epi64(GAMMA.wrapping_mul(LANES as u64) as i64);
        let mut k = _mm512_mask_blend_epi64(1, splitmix(state), _mm512_set1_epi64(fp as i64));
        let mut acc = _mm512_setzero_si512();
        for _ in 0..SEGMENT_SIZE / BLOCK {
            // Each raw word also goes into its neighbour lane,
            // `acc[i ^ 1] += k[i]`: summed per lane over the block, then
            // swapped into place by one shuffle before the scramble (a sum
            // of shuffles is the shuffle of the sum).
            let mut words = _mm512_setzero_si512();
            for n in 0..STRIPES_PER_BLOCK {
                let x = _mm512_xor_si512(k, secret(n));
                // `lo32 × hi32`: the shuffle brings each word's high half down.
                acc = _mm512_add_epi64(acc, _mm512_mul_epu32(x, _mm512_shuffle_epi32::<_MM_PERM_CDAB>(x)));
                words = _mm512_add_epi64(words, k);
                state = _mm512_add_epi64(state, step);
                k = splitmix(state);
            }
            // Swaps the two words of each 128-bit lane.
            acc = _mm512_add_epi64(acc, _mm512_shuffle_epi32::<_MM_PERM_BADC>(words));
            // The scramble, lane by lane.
            let a = _mm512_xor_si512(acc, _mm512_srli_epi64::<47>(acc));
            let a = _mm512_xor_si512(a, secret(STRIPES_PER_BLOCK));
            acc = _mm512_mullo_epi64(a, _mm512_set1_epi64(SCRAMBLE as i64));
        }
        let (lo, hi) = (_mm512_extracti64x4_epi64::<0>(acc), _mm512_extracti64x4_epi64::<1>(acc));
        let lanes = [
            _mm256_extract_epi64::<0>(lo),
            _mm256_extract_epi64::<1>(lo),
            _mm256_extract_epi64::<2>(lo),
            _mm256_extract_epi64::<3>(lo),
            _mm256_extract_epi64::<0>(hi),
            _mm256_extract_epi64::<1>(hi),
            _mm256_extract_epi64::<2>(hi),
            _mm256_extract_epi64::<3>(hi),
        ];
        fold(&lanes.map(|w| w as u64), SEGMENT_SIZE as u64)
    }

    /// SplitMix64's output function of every lane's state.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn splitmix(state: __m512i) -> __m512i {
        let z = _mm512_xor_si512(state, _mm512_srli_epi64::<30>(state));
        let z = _mm512_mullo_epi64(z, _mm512_set1_epi64(MIX[0] as i64));
        let z = _mm512_xor_si512(z, _mm512_srli_epi64::<27>(z));
        let z = _mm512_mullo_epi64(z, _mm512_set1_epi64(MIX[1] as i64));
        _mm512_xor_si512(z, _mm512_srli_epi64::<31>(z))
    }

    /// `SECRET[n..n + 8]` in one register, lane `j` holding `SECRET[n + j]`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn secret(n: usize) -> __m512i {
        let w = |j: usize| SECRET[n + j] as i64;
        _mm512_set_epi64(w(7), w(6), w(5), w(4), w(3), w(2), w(1), w(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::write_record;
    use std::collections::{HashMap, HashSet};

    fn random_chunk(seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..512).flat_map(|_| splitmix64(&mut state).to_le_bytes()).collect()
    }

    #[test]
    fn deterministic_and_content_sensitive() {
        let a = chunk_hash(b"hello world");
        assert_eq!(a, chunk_hash(b"hello world"));
        assert_ne!(a, chunk_hash(b"hello worle"));
        assert_ne!(a, chunk_hash(b"hello worl"));
    }

    #[test]
    fn tail_length_matters() {
        assert_ne!(chunk_hash(b"abc"), chunk_hash(b"abc\0"));
        assert_ne!(chunk_hash(b""), chunk_hash(b"\0"));
    }

    #[test]
    fn single_bit_flips_avalanche() {
        let base = vec![0u8; 4096];
        let h0 = chunk_hash(&base);
        for byte in [0usize, 1, 100, 4095] {
            for bit in 0..8 {
                let mut m = base.clone();
                m[byte] ^= 1 << bit;
                let h = chunk_hash(&m);
                assert_ne!(h, h0, "flip at byte {byte} bit {bit} collided");
                // Loose avalanche check: a single-bit flip changes a
                // meaningful fraction of output bits.
                let diff = (h.0 ^ h0.0).count_ones();
                assert!(diff > 16, "weak diffusion: only {diff} bits changed");
            }
        }
    }

    #[test]
    fn no_collisions_over_structured_inputs() {
        let mut seen = HashSet::new();
        // Counter-stamped zero blocks: exactly the shape of synthesized
        // disk chunks.
        for i in 0..10_000u64 {
            let mut block = vec![0u8; 64];
            block[..8].copy_from_slice(&i.to_le_bytes());
            assert!(seen.insert(chunk_hash(&block)), "collision at {i}");
        }
    }

    /// Every one of the 32,768 single-bit flips of a 4 KiB chunk, random
    /// and all-zero, moves at least a quarter of the output bits.
    #[test]
    fn every_single_bit_flip_of_a_chunk_avalanches() {
        for mut chunk in [random_chunk(7), vec![0u8; 4096]] {
            let h0 = chunk_hash(&chunk);
            for bit in 0..chunk.len() * 8 {
                chunk[bit / 8] ^= 1 << (bit % 8);
                let diff = (chunk_hash(&chunk).0 ^ h0.0).count_ones();
                chunk[bit / 8] ^= 1 << (bit % 8);
                assert!(diff >= 32, "flip of bit {bit}: only {diff} output bits changed");
            }
        }
    }

    /// Order matters at both grains: the secret advances per stripe, and
    /// a word lands in its own lane and its neighbour's.
    #[test]
    fn swapped_stripes_and_words_hash_differently() {
        let chunk = random_chunk(11);
        let h0 = chunk_hash(&chunk);
        for at in [0, 64 * 7, 64 * 15, 64 * 16, 4096 - 128] {
            let mut m = chunk.clone();
            let (a, b) = m[at..at + 128].split_at_mut(64);
            a.swap_with_slice(b);
            assert_ne!(chunk_hash(&m), h0, "stripes at {at} and {} swapped", at + 64);
        }
        for at in [0, 8, 56, 1016, 4096 - 16] {
            let mut m = chunk.clone();
            let (a, b) = m[at..at + 16].split_at_mut(8);
            a.swap_with_slice(b);
            assert_ne!(chunk_hash(&m), h0, "words at {at} and {} swapped", at + 8);
        }
    }

    /// Chunks holding `(i·31) ^ j ^ salt` at byte `j`: two of them whose
    /// `i·31 ^ salt` differ by a multiple of 64 hold the same stripes in
    /// another order, which a secret shared by all stripes turns into a
    /// collision.
    #[test]
    fn the_commutativity_trap_has_no_collisions() {
        let mut by_hash = HashMap::new();
        for salt in 0..4u8 {
            for i in 0..256usize {
                let rec: Vec<u8> =
                    (0..4096).map(|j| (i as u8).wrapping_mul(31) ^ (j as u8) ^ salt).collect();
                let h = chunk_hash(&rec);
                let prev = by_hash.entry(h).or_insert_with(|| rec.clone());
                assert_eq!(*prev, rec, "record {i} salt {salt} collided with other data");
            }
        }
        assert_eq!(by_hash.len(), 256, "the family has 256 distinct records");
    }

    #[test]
    fn zero_buffers_of_every_length_are_distinct() {
        let zeros = [0u8; 300];
        let distinct: HashSet<_> = (0..=300).map(|n| chunk_hash(&zeros[..n])).collect();
        assert_eq!(distinct.len(), 301);
    }

    /// Both record kernels are `chunk_hash` of the record written out: the
    /// scalar definition always, and the one [`record_hash`] dispatches to
    /// when it is the AVX-512 kernel. Over the edges of the fingerprint
    /// space, 100,000 sequential and 100,000 SplitMix-drawn fingerprints,
    /// none of which collide.
    #[test]
    fn record_hash_is_chunk_hash_of_the_written_record() {
        let kernel = if avx512_kernel() { "AVX-512" } else { "scalar" };
        println!("record_hash dispatches to the {kernel} kernel");
        if !avx512_kernel() {
            println!("no AVX-512F + AVX-512DQ on this CPU: only the scalar path is tested");
        }
        let mut seen = HashSet::new();
        let mut rec = [0u8; SEGMENT_SIZE];
        let mut state = 0x243F_6A88_85A3_08D3;
        let drawn: Vec<u64> = (0..100_000).map(|_| splitmix64(&mut state)).collect();
        let edges = [u64::MAX, u64::MAX - 1, 1 << 63];
        for fp in edges.into_iter().chain(0..100_000u64).chain(drawn) {
            write_record(fp, &mut rec);
            let h = record_hash_scalar(fp);
            assert_eq!(h, chunk_hash(&rec), "scalar kernel, fingerprint {fp}");
            assert_eq!(record_hash(fp), h, "{kernel} kernel, fingerprint {fp}");
            assert!(seen.insert(h), "collision at fingerprint {fp}");
        }
    }

    /// Pinned outputs. Changing them changes every chunk's address and so
    /// its shard: re-baseline `results/tab_telemetry.csv`,
    /// `results/tab_critpath.csv` and `results/tab_timeline.csv` with them.
    #[test]
    fn pinned_outputs() {
        let pattern: Vec<u8> = (0..4096u32).map(|j| (j * 7 + (j >> 8)) as u8).collect();
        assert_eq!(chunk_hash(b"").to_string(), "f1d8c2130d9d809eb6c6beb527cbf5d4");
        assert_eq!(chunk_hash(b"abc").to_string(), "9c6a944389c5aaefb0f7ff97cfccde93");
        assert_eq!(chunk_hash(&pattern).to_string(), "2c5939986480e8961b752b4ebb98e793");
    }

    /// One record address, pinned beside them: the address of every block
    /// record a capture stores, and so its shard.
    #[test]
    fn pinned_record_output() {
        assert_eq!(record_hash(0).to_string(), "0ca8392262aedabb419fe8bd2634b851");
    }
}
