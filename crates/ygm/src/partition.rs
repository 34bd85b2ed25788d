//! Hash partitioning: deciding which rank owns a key.
//!
//! Every keyed shuffle routes an item to an *owner* rank computed from a stable
//! hash of its key. The hash is deliberately independent of
//! `std::collections`' per-process SipHash keys so that ownership is
//! reproducible run to run (useful when debugging distributed traces).

use std::hash::{Hash, Hasher};

/// A fixed-key 64-bit FNV-1a hasher: stable across runs and processes.
#[derive(Clone)]
pub(crate) struct StableHasher(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher(FNV_OFFSET)
    }
}

impl Hasher for StableHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // A final avalanche step (from splitmix64) spreads FNV's weak low bits,
        // which matters because owners are taken modulo small rank counts.
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }
}

/// Stable 64-bit hash of any `Hash` key.
#[inline]
pub(crate) fn stable_hash<K: Hash + ?Sized>(key: &K) -> u64 {
    let mut h = StableHasher::default();
    key.hash(&mut h);
    h.finish()
}

/// The rank that owns `key` in a world of `nranks` ranks. One rank owns
/// every key, so a one-rank world returns 0 without hashing.
#[inline]
pub fn owner_of<K: Hash + ?Sized>(key: &K, nranks: usize) -> usize {
    if nranks == 1 {
        return 0;
    }
    (stable_hash(key) % nranks as u64) as usize
}

/// The half-open range of global indices owned by `rank` under block
/// partitioning of `0..len`.
#[inline]
pub fn block_range(rank: usize, len: usize, nranks: usize) -> std::ops::Range<usize> {
    let per = len.div_ceil(nranks);
    let lo = (rank * per).min(len);
    let hi = ((rank + 1) * per).min(len);
    lo..hi
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_hash_is_deterministic() {
        assert_eq!(stable_hash(&"alice"), stable_hash(&"alice"));
        assert_ne!(stable_hash(&"alice"), stable_hash(&"bob"));
        assert_eq!(stable_hash(&42u64), stable_hash(&42u64));
    }

    #[test]
    fn owner_is_in_range() {
        for n in 1..9 {
            for k in 0..1000u32 {
                assert!(owner_of(&k, n) < n);
            }
        }
    }

    #[test]
    fn owners_are_roughly_balanced() {
        let nranks = 8;
        let mut counts = vec![0usize; nranks];
        for k in 0..80_000u64 {
            counts[owner_of(&k, nranks)] += 1;
        }
        let expect = 80_000 / nranks;
        for &c in &counts {
            // Within 10% of uniform — a weak hash (plain FNV of little-endian
            // integers) fails this badly for modulo partitioning.
            assert!(
                (c as i64 - expect as i64).unsigned_abs() < (expect / 10) as u64,
                "imbalanced shard: {c} vs expected {expect}"
            );
        }
    }

    #[test]
    fn block_partition_covers_space_without_overlap() {
        for len in [0usize, 1, 7, 16, 100] {
            for nranks in 1..6 {
                let mut seen = vec![false; len];
                for rank in 0..nranks {
                    for i in block_range(rank, len, nranks) {
                        assert!(!seen[i], "index {i} owned twice");
                        seen[i] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s), "uncovered index for len={len}");
            }
        }
    }
}
