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
            self.add(tail_word(tail));
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

/// The 1–7 bytes of `tail` as a little-endian word, zero-padded: the
/// word a copy into a zeroed `[u8; 8]` reads, built from two overlapping
/// fixed-width loads instead of a variable-length copy (a `memcpy` call).
#[inline]
fn tail_word(tail: &[u8]) -> u64 {
    let n = tail.len();
    debug_assert!((1..8).contains(&n), "a tail of 1 to 7 bytes");
    if n >= 4 {
        let lo = u32::from_le_bytes(tail[..4].try_into().expect("4 bytes"));
        let hi = u32::from_le_bytes(tail[n - 4..].try_into().expect("4 bytes"));
        u64::from(lo) | u64::from(hi) << (8 * (n - 4))
    } else if n >= 2 {
        let lo = u16::from_le_bytes(tail[..2].try_into().expect("2 bytes"));
        let hi = u16::from_le_bytes(tail[n - 2..].try_into().expect("2 bytes"));
        u64::from(lo) | u64::from(hi) << (8 * (n - 2))
    } else {
        u64::from(tail[0])
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

    /// `write` of the first `n` bytes of one key, for `n` in 0..=40, as
    /// the byte-copy tail it replaced hashed them: map iteration orders
    /// depend on these values.
    #[test]
    fn write_hashes_every_tail_length_as_before() {
        const PINNED: [u64; 41] = [
            0x0000000000000000,
            0x805c52deae767467,
            0xe4aeaa3510726467,
            0x367ea88293eb6467,
            0x7f24e18d95eb6467,
            0xcd49741895eb6467,
            0xdd63881895eb6467,
            0x7f00881895eb6467,
            0xa500881895eb6467,
            0x7d7ce06c811bb5d3,
            0x93f8636e14159dd3,
            0xb7dd7a54511e9dd3,
            0xadb677cc5b1e9dd3,
            0x7ca4874b5b1e9dd3,
            0xde65e34b5b1e9dd3,
            0x2a80e34b5b1e9dd3,
            0x5880e34b5b1e9dd3,
            0x3418593369e13df0,
            0xd33cc5a26496bdf0,
            0x73b38e448c75bdf0,
            0x8866dd294a75bdf0,
            0x5ab9e5b64a75bdf0,
            0x038d89b64a75bdf0,
            0x62ca89b64a75bdf0,
            0x78ca89b64a75bdf0,
            0x3df3f4c0a0fb5f7c,
            0x5ed3c3124a09977c,
            0x362f6ff5c488977c,
            0xe9001081ca88977c,
            0x1ecaeebaca88977c,
            0x44f952baca88977c,
            0xe7c452baca88977c,
            0xe5c452baca88977c,
            0x85aa726d13ab6103,
            0xc07c8785ac64f103,
            0xede016d87a5df103,
            0xa2f54a98fc5df103,
            0x9fafd429fc5df103,
            0xd632e029fc5df103,
            0x419fe029fc5df103,
            0xf79fe029fc5df103,
        ];
        let key: Vec<u8> = (0..40u32).map(|i| (i * 37 + 11) as u8).collect();
        for (n, pinned) in PINNED.into_iter().enumerate() {
            let mut h = FxHasher::default();
            h.write(&key[..n]);
            assert_eq!(h.finish(), pinned, "a {n}-byte key");
        }
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
