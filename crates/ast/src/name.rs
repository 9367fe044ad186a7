//! Identifiers: [`Name`], an immutable string that never allocates to
//! clone.
//!
//! Nearly every identifier in a generated test program is short (`i`, `a`,
//! `error`, `acc_device_nvidia`), and each is copied many times on its way
//! from the parser through name resolution and lowering into the machine's
//! tables. A `Name` of up to [`Name::INLINE`] bytes keeps its bytes in the
//! value itself; a longer one shares one `Arc<str>`. Building a short name
//! or cloning any name therefore allocates nothing.
//!
//! `Name` compares, orders, hashes, displays and debug-prints exactly as the
//! `str` it holds, and borrows as one, so a `Name` can replace a `String`
//! key without changing any output or iteration order.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// An immutable identifier, the size of a `String`.
#[derive(Clone)]
pub struct Name(Repr);

/// The representation is chosen by length alone: a name of at most
/// [`Name::INLINE`] bytes is always `Inline`, a longer one always `Shared`.
/// Two names of different representations therefore never hold the same
/// text.
#[derive(Clone)]
enum Repr {
    /// The bytes `bytes[..len]`, a whole `str`; the rest are zero.
    Inline { len: u8, bytes: [u8; Name::INLINE] },
    /// A name longer than [`Name::INLINE`] bytes.
    Shared(Arc<str>),
}

const _: () = assert!(std::mem::size_of::<Name>() == std::mem::size_of::<String>());

impl Name {
    /// The longest name, in bytes, stored without a heap allocation.
    pub const INLINE: usize = 22;

    /// A name holding `text`.
    #[inline]
    pub fn new(text: &str) -> Name {
        if text.len() <= Name::INLINE {
            let mut bytes = [0; Name::INLINE];
            bytes[..text.len()].copy_from_slice(text.as_bytes());
            Name(Repr::Inline {
                len: text.len() as u8,
                bytes,
            })
        } else {
            Name(Repr::Shared(Arc::from(text)))
        }
    }

    /// The name's text.
    #[inline]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, bytes } => {
                let text = &bytes[..usize::from(*len)];
                debug_assert!(std::str::from_utf8(text).is_ok());
                // SAFETY: `Name::new` is the only code that builds an
                // `Inline`, copying all `len` bytes of a `&str` into
                // `bytes`, and nothing writes the private fields after
                // that, so `text` is the whole of a valid `str`. Checking
                // it again on every use cost about 4% of a cold run (the
                // share a sampling profile gave `str::from_utf8`).
                unsafe { std::str::from_utf8_unchecked(text) }
            }
            Repr::Shared(text) => text,
        }
    }
}

impl Deref for Name {
    type Target = str;

    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for Name {
    #[inline]
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Name {
    #[inline]
    fn from(text: &str) -> Name {
        Name::new(text)
    }
}

impl From<String> for Name {
    fn from(text: String) -> Name {
        Name::new(&text)
    }
}

impl PartialEq for Name {
    #[inline]
    fn eq(&self, other: &Name) -> bool {
        match (&self.0, &other.0) {
            (Repr::Inline { len: a, bytes: x }, Repr::Inline { len: b, bytes: y }) => {
                a == b && x == y
            }
            (Repr::Shared(x), Repr::Shared(y)) => x == y,
            _ => false,
        }
    }
}

impl Eq for Name {}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    #[inline]
    fn cmp(&self, other: &Name) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for Name {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// `Name == str` and its mirror images, for the `String` and `&str` forms
/// the callers hold.
macro_rules! eq_str {
    ($($other:ty),*) => {$(
        impl PartialEq<$other> for Name {
            #[inline]
            fn eq(&self, other: &$other) -> bool {
                self.as_str() == &other[..]
            }
        }

        impl PartialEq<Name> for $other {
            #[inline]
            fn eq(&self, other: &Name) -> bool {
                &self[..] == other.as_str()
            }
        }
    )*};
}

eq_str!(str, &str, String);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::{BTreeSet, HashMap};

    /// The texts the tests check: empty, the longest inline, the shortest
    /// shared, non-ASCII text on both sides of the limit, and a few
    /// identifiers that order differently by length and by bytes.
    fn texts() -> Vec<String> {
        let mut v: Vec<String> = vec![
            String::new(),
            "a".repeat(Name::INLINE),
            "a".repeat(Name::INLINE + 1),
            "é".repeat(Name::INLINE / 2),
            "ünïcödé_nàmé_longer_than_inline".to_string(),
            "λ".to_string(),
            "i".to_string(),
            "error".to_string(),
            "acc_device_nvidia".to_string(),
            "Z".to_string(),
            "a\"b\\c\n".to_string(),
        ];
        v.push(format!("{}b", "a".repeat(Name::INLINE - 1)));
        v
    }

    fn hash_of<T: Hash + ?Sized>(t: &T) -> u64 {
        let mut h = DefaultHasher::new();
        t.hash(&mut h);
        h.finish()
    }

    #[test]
    fn is_the_size_of_a_string() {
        assert_eq!(std::mem::size_of::<Name>(), 24);
        assert_eq!(std::mem::size_of::<Option<Name>>(), 24);
    }

    #[test]
    fn lengths_at_the_inline_limit() {
        for len in [0, Name::INLINE, Name::INLINE + 1] {
            let text = "x".repeat(len);
            let name = Name::new(&text);
            assert_eq!(name.as_str(), text);
            assert_eq!(name.len(), len);
            let inline = matches!(name.0, Repr::Inline { .. });
            assert_eq!(inline, len <= Name::INLINE, "length {len}");
        }
    }

    #[test]
    fn built_from_str_and_string_alike() {
        for text in texts() {
            let from_str = Name::from(text.as_str());
            let from_string = Name::from(text.clone());
            assert_eq!(from_str, from_string);
            assert_eq!(from_str.as_str(), text);
            assert_eq!(from_string.as_str(), text);
        }
    }

    #[test]
    fn equality_and_ordering_match_string() {
        let texts = texts();
        for a in &texts {
            for b in &texts {
                let (na, nb) = (Name::from(a.as_str()), Name::from(b.as_str()));
                assert_eq!(na == nb, a == b, "{a:?} == {b:?}");
                assert_eq!(na.cmp(&nb), a.cmp(b), "{a:?} cmp {b:?}");
                assert_eq!(na.partial_cmp(&nb), a.partial_cmp(b));
                assert_eq!(na == *b, a == b);
                assert_eq!(*b == na, a == b);
                assert_eq!(na == b.as_str(), a == b);
            }
        }
    }

    #[test]
    fn hashing_matches_string() {
        for text in texts() {
            let name = Name::from(text.as_str());
            assert_eq!(hash_of(&name), hash_of(&text), "{text:?}");
            assert_eq!(hash_of(&name), hash_of(text.as_str()), "{text:?}");
        }
    }

    #[test]
    fn borrowed_lookups_find_names() {
        let map: HashMap<Name, usize> = texts()
            .iter()
            .enumerate()
            .map(|(i, t)| (Name::from(t.as_str()), i))
            .collect();
        for (i, text) in texts().iter().enumerate() {
            assert_eq!(map.get(text.as_str()), Some(&i), "{text:?}");
        }
        assert_eq!(map.get("absent"), None);
        let set: BTreeSet<Name> = texts().iter().map(|t| Name::from(t.as_str())).collect();
        for text in texts() {
            assert!(set.contains(text.as_str()), "{text:?}");
        }
    }

    #[test]
    fn display_and_debug_match_string() {
        for text in texts() {
            let name = Name::from(text.as_str());
            assert_eq!(format!("{name}"), format!("{text}"));
            assert_eq!(format!("{name:?}"), format!("{text:?}"));
            assert_eq!(format!("[{name:>30}]"), format!("[{text:>30}]"));
            assert_eq!(
                format!("{:?}", vec![name.clone()]),
                format!("{:?}", vec![text])
            );
        }
    }

    #[test]
    fn btree_sets_iterate_in_string_order() {
        let names: BTreeSet<Name> = texts().iter().map(|t| Name::from(t.as_str())).collect();
        let strings: BTreeSet<String> = texts().into_iter().collect();
        let names: Vec<&str> = names.iter().map(Name::as_str).collect();
        let strings: Vec<&str> = strings.iter().map(String::as_str).collect();
        assert_eq!(names, strings);
    }

    #[test]
    fn clones_share_the_long_text() {
        let long = Name::new(&"q".repeat(40));
        let copy = long.clone();
        match (&long.0, &copy.0) {
            (Repr::Shared(a), Repr::Shared(b)) => assert!(Arc::ptr_eq(a, b)),
            _ => panic!("a 40-byte name is shared"),
        }
    }
}
