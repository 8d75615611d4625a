//! Deterministic fast-hash collections for simulator hot paths.
//!
//! The standard library's `HashMap` defaults to SipHash-1-3 behind a
//! per-instance random seed. That buys HashDoS resistance the simulator
//! does not need (all keys are internally generated block addresses), at a
//! real cost on every protocol-table lookup in the inner event loop. This
//! module provides the classic Fx multiply-xor hasher — the one rustc
//! itself uses for its interned-symbol tables — reimplemented in-tree so
//! the workspace stays free of crates.io dependencies.
//!
//! Two properties matter here:
//!
//! * **Speed**: hashing a `u64` key is one rotate, one xor, and one
//!   multiply — a handful of cycles against SipHash's several dozen.
//! * **Determinism**: the hasher has no random state, so a map's iteration
//!   order is a pure function of its insertion history. Simulation results
//!   must never depend on map iteration order regardless (the determinism
//!   suite runs twice per process, under *different* `RandomState`s, to
//!   enforce exactly that), but a fixed hasher additionally makes memory
//!   layout and therefore performance reproducible run-to-run.
//!
//! # Examples
//!
//! ```
//! use patchsim_kernel::collections::FxHashMap;
//!
//! let mut m: FxHashMap<u64, &str> = FxHashMap::default();
//! m.insert(42, "block");
//! assert_eq!(m.get(&42), Some(&"block"));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed with the deterministic [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` keyed with the deterministic [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// The multiplicative constant of the Fx hash: a 64-bit approximation of
/// 2^64 / φ, which spreads consecutive integers across the hash space.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, deterministic, non-cryptographic hasher (multiply-xor).
///
/// Each word folded into the state costs one rotate, one xor, and one
/// wrapping multiply. Not HashDoS-resistant — only use for keys the
/// simulator generates itself (block addresses, node ids, serials).
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(value)
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_of(&0xDEAD_BEEFu64), hash_of(&0xDEAD_BEEFu64));
        assert_eq!(hash_of(&"torus"), hash_of(&"torus"));
    }

    /// The exact hash values are pinned: a silent change to the mixing
    /// function would shift every map's layout (and perf profile).
    #[test]
    fn golden_values() {
        let mut h = FxHasher::default();
        h.write_u64(42);
        assert_eq!(h.finish(), 42u64.wrapping_mul(SEED));
        let mut h2 = FxHasher::default();
        h2.write_u64(42);
        h2.write_u64(43);
        assert_eq!(
            h2.finish(),
            (42u64.wrapping_mul(SEED).rotate_left(5) ^ 43).wrapping_mul(SEED)
        );
    }

    #[test]
    fn byte_slices_fold_in_word_chunks() {
        // 8 aligned bytes hash like the u64 they spell.
        let mut a = FxHasher::default();
        a.write(&7u64.to_le_bytes());
        let mut b = FxHasher::default();
        b.add_to_hash(7);
        assert_eq!(a.finish(), b.finish());
        // A trailing partial chunk still changes the state.
        let mut c = FxHasher::default();
        c.write(&[1, 2, 3]);
        assert_ne!(c.finish(), FxHasher::default().finish());
    }

    #[test]
    fn iteration_order_is_reproducible() {
        let build = || {
            let mut m: FxHashMap<u64, u64> = FxHashMap::default();
            for i in (0..256u64).rev() {
                m.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn consecutive_keys_spread() {
        // The whole point of the multiply: adjacent block addresses must
        // not collide into adjacent buckets systematically. Check the low
        // bits (the ones HashMap uses) differ across a run of keys.
        let low_bits: FxHashSet<u64> = (0..64u64).map(|i| hash_of(&i) >> 57).collect();
        assert!(low_bits.len() > 32, "top bits too clustered");
    }
}
