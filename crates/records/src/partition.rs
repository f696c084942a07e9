//! Deterministic partitioners.
//!
//! The paper (§3.2.1) partitions the node set once and uses *the same*
//! partition function for the static data, the state shuffle, and the
//! reduce→map correspondence — that identity is what makes the local
//! join and the one-to-one reduce→map connection possible. Everything
//! here is deterministic across processes (no `RandomState`).

use crate::codec::Key;
use bytes::BytesMut;
use std::hash::Hasher;

/// Assigns a key to one of `n` partitions.
pub trait Partitioner<K>: Send + Sync {
    /// The partition index for `key`, in `0..n`. Must be deterministic.
    fn partition(&self, key: &K, n: usize) -> usize;
}

/// FNV-1a, fixed-seed, so partitioning is stable across runs and
/// processes (unlike `std::collections::hash_map::RandomState`).
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Hash partitioner over the key's *encoded* bytes, mirroring Hadoop's
/// `HashPartitioner` over `Writable` keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct HashPartitioner;

impl<K: Key> Partitioner<K> for HashPartitioner {
    #[inline]
    fn partition(&self, key: &K, n: usize) -> usize {
        assert!(n > 0, "cannot partition into zero parts");
        let mut buf = BytesMut::with_capacity(key.encoded_len());
        key.encode(&mut buf);
        let mut h = Fnv1a::default();
        h.write(&buf);
        (h.finish() % n as u64) as usize
    }
}

/// Modulo partitioner for integer node ids — the paper's graph
/// partitioning scheme, which keeps partition membership obvious and
/// lets tests reason about placement exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModPartitioner;

impl Partitioner<u32> for ModPartitioner {
    #[inline]
    fn partition(&self, key: &u32, n: usize) -> usize {
        assert!(n > 0, "cannot partition into zero parts");
        (*key as usize) % n
    }
}

impl Partitioner<u64> for ModPartitioner {
    #[inline]
    fn partition(&self, key: &u64, n: usize) -> usize {
        assert!(n > 0, "cannot partition into zero parts");
        (*key % n as u64) as usize
    }
}

/// Partitioner for composite `(row, col)` matrix keys: hashes both
/// coordinates. The matrix-power job partitions its cell keys `(i, k)`
/// with it.
#[derive(Debug, Clone, Copy, Default)]
pub struct PairPartitioner;

impl Partitioner<(u32, u32)> for PairPartitioner {
    #[inline]
    fn partition(&self, key: &(u32, u32), n: usize) -> usize {
        assert!(n > 0, "cannot partition into zero parts");
        let mixed = (u64::from(key.0) << 32) | u64::from(key.1);
        // splitmix-style finalizer to spread structured coordinates.
        let mut z = mixed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_partitioner_is_deterministic_and_bounded() {
        let p = HashPartitioner;
        for n in [1usize, 2, 7, 64] {
            for key in 0u32..1_000 {
                let a = p.partition(&key, n);
                let b = p.partition(&key, n);
                assert_eq!(a, b);
                assert!(a < n);
            }
        }
    }

    #[test]
    fn hash_partitioner_spreads_keys() {
        let p = HashPartitioner;
        let n = 8;
        let mut counts = vec![0usize; n];
        for key in 0u32..8_000 {
            counts[p.partition(&key, n)] += 1;
        }
        // Every partition should get a non-trivial share.
        assert!(counts.iter().all(|&c| c > 500), "skewed: {counts:?}");
    }

    #[test]
    fn mod_partitioner_matches_modulo() {
        let p = ModPartitioner;
        assert_eq!(p.partition(&10u32, 4), 2);
        assert_eq!(p.partition(&7u64, 4), 3);
    }

    #[test]
    fn pair_partitioner_spreads_matrix_keys() {
        let p = PairPartitioner;
        let n = 6;
        let mut counts = vec![0usize; n];
        for i in 0u32..60 {
            for k in 0u32..60 {
                counts[p.partition(&(i, k), n)] += 1;
            }
        }
        assert!(counts.iter().all(|&c| c > 400), "skewed: {counts:?}");
    }

    #[test]
    #[should_panic(expected = "zero parts")]
    fn zero_partitions_rejected() {
        let _ = HashPartitioner.partition(&1u32, 0);
    }

    #[test]
    fn string_keys_partition_deterministically() {
        let p = HashPartitioner;
        let a = p.partition(&String::from("node-a"), 16);
        let b = p.partition(&String::from("node-a"), 16);
        assert_eq!(a, b);
    }
}
