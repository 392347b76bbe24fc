//! In-repo FxHash-style multiply hasher for the hot-path maps.
//!
//! The default `std::collections` hasher (SipHash-1-3) is keyed and
//! DoS-resistant, which the measurement pipeline does not need: every hot
//! map in the admit path is keyed by *our own* small integers (interned
//! source ids, ports, packed `(day, port)` / `(week, /16)` tuples), not by
//! attacker-controlled strings. Profiling after the sharding (PR 1) and
//! streaming (PR 2) work showed SipHash setup/finalization dominating the
//! remaining per-record cost, so this module provides the classic
//! Firefox/rustc multiply-rotate hasher as a drop-in `BuildHasher`.
//!
//! The container this repo builds in has no crates registry, so the hasher
//! is implemented here (~30 lines) rather than pulled from `rustc-hash`.
//!
//! Determinism note: none of the pipeline's *outputs* depend on hash
//! iteration order — every map crossing an API boundary is converted to a
//! `BTreeMap` or compared with order-insensitive `PartialEq` — so swapping
//! hashers cannot change any result, only its cost. The equivalence
//! matrices in `tests/pipeline_equivalence.rs` and
//! `tests/hotpath_equivalence.rs` enforce exactly that.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier from the FNV/Fx family: a 64-bit odd constant with good
/// bit dispersion under multiplication (`π`-derived, as used by rustc).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Rotate distance applied before each multiply; decorrelates consecutive
/// writes so `(a, b)` and `(b, a)` hash differently.
const ROTATE: u32 = 5;

/// A fast, non-cryptographic hasher for small integer keys.
///
/// One rotate + XOR + multiply per 8 bytes of input — a handful of cycles
/// against SipHash's several dozen. Not collision-resistant against
/// adversarial keys; use only for internally-generated keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            // Fold the length in so "ab" and "ab\0" differ.
            self.add(u64::from_le_bytes(word) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add(v as u64);
        self.add((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`]s (stateless, zero-sized).
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`] — the hot-path map type.
pub(crate) type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`].
pub(crate) type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_one<T: std::hash::Hash>(value: T) -> u64 {
        let mut hasher = FxHasher::default();
        value.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn deterministic_across_instances() {
        // Unlike RandomState, there is no per-process key: the same input
        // always hashes identically (which also makes benches stable).
        for v in [0u64, 1, 54_321, u64::MAX] {
            assert_eq!(hash_one(v), hash_one(v));
        }
        assert_eq!(hash_one((3u32, 443u16)), hash_one((3u32, 443u16)));
    }

    #[test]
    fn distinct_small_keys_do_not_collide() {
        // The exact property the hot maps rely on: dense source ids and
        // 16-bit ports spread over the full 64-bit range.
        let mut seen = std::collections::HashSet::new();
        for id in 0u32..10_000 {
            assert!(seen.insert(hash_one(id)), "collision at id {id}");
        }
    }

    #[test]
    fn tuple_order_matters() {
        assert_ne!(hash_one((1u32, 2u16)), hash_one((2u32, 1u16)));
        assert_ne!(hash_one(0x0001_0000u32), hash_one(0x0000_0001u32));
    }

    #[test]
    fn byte_writes_fold_in_length() {
        assert_ne!(hash_one(*b"ab"), hash_one(*b"ab\0"));
        assert_ne!(hash_one([0u8; 3]), hash_one([0u8; 4]));
        // Multi-chunk inputs exercise the exact-chunk loop.
        assert_ne!(hash_one([1u8; 17]), hash_one([2u8; 17]));
        assert_eq!(hash_one([9u8; 24]), hash_one([9u8; 24]));
    }

    #[test]
    fn maps_and_sets_behave_like_std() {
        let mut map: FxHashMap<(u32, u16), u64> = FxHashMap::default();
        for i in 0u32..1000 {
            *map.entry((i / 7, (i % 7) as u16)).or_default() += 1;
        }
        assert_eq!(map.values().sum::<u64>(), 1000);
        assert_eq!(map[&(0, 3)], 1);

        let mut set: FxHashSet<u32> = FxHashSet::default();
        assert!(set.insert(42));
        assert!(!set.insert(42));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn u128_write_covers_both_halves() {
        let a = hash_one(1u128);
        let b = hash_one(1u128 << 64);
        assert_ne!(a, b);
    }
}
