//! Cheap hashing for the `u32`-keyed hot maps.
//!
//! Campaign events probe the campaign-appeal table on every ingest. The
//! default SipHash spends more time hashing a 4-byte id than the
//! probe itself, so these internal maps use a multiplicative
//! xor-shift hasher (SplitMix64 finalizer style): two multiplies, well
//! mixed in both the low bits (hashbrown's bucket index) and the high
//! bits (its control tags). Not DoS-resistant — only ever used for
//! internal maps keyed by trusted numeric ids.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher for small trusted integer keys.
#[derive(Default, Clone)]
pub(crate) struct FastIdHasher(u64);

impl Hasher for FastIdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // generic fallback (FNV-1a); the id maps hit `write_u32`
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        let mut h = self.0 ^ n as u64;
        h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 32;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 29;
        self.0 = h;
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let mut h = self.0 ^ n;
        h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 32;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 29;
        self.0 = h;
    }
}

/// `u32`-keyed map with the fast hasher.
pub(crate) type FastIdMap<V> = HashMap<u32, V, BuildHasherDefault<FastIdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_round_trips_and_spreads() {
        let mut map: FastIdMap<u64> = FastIdMap::default();
        for i in 0..10_000u32 {
            map.insert(i, i as u64 * 3);
        }
        assert_eq!(map.len(), 10_000);
        for i in 0..10_000u32 {
            assert_eq!(map.get(&i), Some(&(i as u64 * 3)));
        }
        // strided keys (one registry shard sees user, user+32, …) must
        // not collapse onto a few buckets: hash low bits must differ
        let mut low_bits = std::collections::HashSet::new();
        for i in (0..4096u32).step_by(32) {
            let mut h = FastIdHasher::default();
            h.write_u32(i);
            low_bits.insert(h.finish() & 0x7F);
        }
        assert!(low_bits.len() > 64, "only {} distinct low-bit patterns", low_bits.len());
    }
}
