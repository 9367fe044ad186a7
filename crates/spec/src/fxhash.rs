//! FxHash, the multiply-rotate hash rustc uses for its own tables, for
//! the compiler-internal maps keyed by program identifiers, defects and
//! buffer names.
//!
//! std's default SipHash resists keys chosen to collide, at several times
//! the cost per short key. Every key these maps see comes from the
//! built-in suite's own sources or from the vendor profiles: a
//! submission names a vendor, version, language and feature prefixes,
//! never program text, so no request can pick them. Maps keyed by request
//! data (the server's and the result store's) keep SipHash.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The 64-bit multiplier of rustc's `FxHasher`.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// A word-at-a-time hasher: each word is mixed in with one rotate, one
/// xor and one multiply. Not collision-resistant; see the module docs.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// The [`BuildHasher`](std::hash::BuildHasher) of [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn fx(v: impl Hash) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn equal_keys_hash_equal_and_short_names_differ() {
        assert_eq!(fx("gang"), fx(String::from("gang")));
        let names = ["a", "b", "ab", "ba", "abcdefgh", "abcdefghi", ""];
        let hashes: FxHashSet<u64> = names.iter().map(fx).collect();
        assert_eq!(hashes.len(), names.len());
    }

    #[test]
    fn maps_work_with_borrowed_lookups() {
        let mut m: FxHashMap<String, u32> = FxHashMap::default();
        for (i, n) in ["x", "y", "acc_device_nvidia"].into_iter().enumerate() {
            m.insert(n.to_string(), i as u32);
        }
        assert_eq!(m.get("acc_device_nvidia"), Some(&2));
        assert_eq!(m.get("z"), None);
    }
}
