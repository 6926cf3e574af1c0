//! Fast non-cryptographic hashing for integer-keyed maps.
//!
//! The protocols key counters by element id (`u64`). `std`'s default
//! SipHash is needlessly slow for that; this is the well-known `FxHash`
//! multiply-xor scheme (as used by rustc), implemented locally to stay
//! within the approved dependency set. HashDoS is not a concern: all
//! inputs are generated by our own workload module.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash-style hasher: `state = (state rotl 5 ^ word) * SEED` per word.
#[derive(Default, Clone)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `HashMap` with the fast hasher.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrip() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        for i in 0..1000u64 {
            m.insert(i, i * 2);
        }
        for i in 0..1000u64 {
            assert_eq!(m.get(&i), Some(&(i * 2)));
        }
        assert_eq!(m.len(), 1000);
    }

    #[test]
    fn hash_distributes_sequential_keys() {
        // Sequential keys should not collide in the low bits that a
        // power-of-two table uses.
        let mut buckets = vec![0u32; 64];
        for i in 0..6400u64 {
            let mut h = FxHasher::default();
            h.write_u64(i);
            buckets[(h.finish() & 63) as usize] += 1;
        }
        let max = *buckets.iter().max().unwrap();
        let min = *buckets.iter().min().unwrap();
        assert!(max < 3 * min + 50, "poor distribution: {min}..{max}");
    }

    #[test]
    fn byte_writes_equal_word_writes_for_u64() {
        let mut a = FxHasher::default();
        a.write_u64(0xDEAD_BEEF);
        let mut b = FxHasher::default();
        b.write(&0xDEAD_BEEFu64.to_le_bytes());
        assert_eq!(a.finish(), b.finish());
    }
}
