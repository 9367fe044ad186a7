//! The `Strategy` trait and combinators (generation only — no shrinking).

use crate::test_runner::TestRng;
use std::sync::Arc;

/// A recipe for generating values of `Self::Value`.
///
/// Object-safe core is [`Strategy::generate`]; combinators carry
/// `Self: Sized` bounds so `dyn Strategy<Value = T>` works (that is what
/// [`BoxedStrategy`] wraps).
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generate one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Build a recursive strategy: `recurse` receives the strategy for the
    /// previous depth and returns the strategy for one more level. The stub
    /// unrolls `depth` levels eagerly (upstream's probabilistic descent is
    /// not needed without shrinking); `_desired_size` and `_expected_branch`
    /// are accepted for signature compatibility.
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R,
    {
        let mut strat = self.boxed();
        for _ in 0..depth {
            strat = recurse(strat).boxed();
        }
        strat
    }

    /// Type-erase into a cheaply clonable handle.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
    {
        BoxedStrategy(Arc::new(self))
    }
}

/// A reference-counted, type-erased strategy (clonable, unlike upstream's
/// `Box`-based version — which is strictly more permissive).
pub struct BoxedStrategy<T>(Arc<dyn Strategy<Value = T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Arc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate(rng)
    }
}

/// See [`Strategy::prop_map`].
#[derive(Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Weighted union of same-valued strategies (backs `prop_oneof!`).
pub struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
    total_weight: u64,
}

impl<T> Union<T> {
    /// Build from `(weight, strategy)` pairs; weights must not all be zero.
    pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        let total_weight: u64 = arms.iter().map(|(w, _)| *w as u64).sum();
        assert!(
            total_weight > 0,
            "prop_oneof requires positive total weight"
        );
        Union { arms, total_weight }
    }
}

impl<T> Clone for Union<T> {
    fn clone(&self) -> Self {
        Union {
            arms: self.arms.clone(),
            total_weight: self.total_weight,
        }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.next_u64() % self.total_weight;
        for (weight, strat) in &self.arms {
            let weight = *weight as u64;
            if pick < weight {
                return strat.generate(rng);
            }
            pick -= weight;
        }
        unreachable!("weighted pick always lands in an arm")
    }
}

macro_rules! int_range_strategy {
    ($($ty:ty),*) => {$(
        impl Strategy for std::ops::Range<$ty> {
            type Value = $ty;

            fn generate(&self, rng: &mut TestRng) -> $ty {
                assert!(self.start < self.end, "empty range strategy");
                let span = self.end.wrapping_sub(self.start) as u64;
                self.start.wrapping_add((rng.next_u64() % span) as $ty)
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.start + unit * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
}

/// `&str` as a strategy: a miniature regex generator supporting exactly the
/// shapes the tests use — character classes with ranges and `\n`/`\t`/`\\`
/// escapes, quantified by `{m,n}`, `*`, `+` or `?`, plus literal characters.
impl Strategy for &str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        generate_from_pattern(self, rng)
    }
}

const UNQUANTIFIED_MAX: usize = 16;

fn generate_from_pattern(pattern: &str, rng: &mut TestRng) -> String {
    let mut out = String::new();
    let chars: Vec<char> = pattern.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let (candidates, next) = match chars[i] {
            '[' => parse_class(&chars, i + 1, pattern),
            '\\' => {
                let c = *chars
                    .get(i + 1)
                    .unwrap_or_else(|| panic!("dangling escape in pattern {pattern:?}"));
                (vec![unescape(c)], i + 2)
            }
            c => (vec![c], i + 1),
        };
        let (min, max_inclusive, next) = parse_quantifier(&chars, next, pattern);
        let span = (max_inclusive - min + 1) as u64;
        let count = min + (rng.next_u64() % span) as usize;
        for _ in 0..count {
            let pick = (rng.next_u64() % candidates.len() as u64) as usize;
            out.push(candidates[pick]);
        }
        i = next;
    }
    out
}

fn unescape(c: char) -> char {
    match c {
        'n' => '\n',
        't' => '\t',
        'r' => '\r',
        other => other,
    }
}

/// Parse a `[...]` class starting just past the `[`; returns the candidate
/// set and the index just past the `]`.
fn parse_class(chars: &[char], mut i: usize, pattern: &str) -> (Vec<char>, usize) {
    let mut candidates = Vec::new();
    while i < chars.len() && chars[i] != ']' {
        let lo = if chars[i] == '\\' {
            i += 1;
            unescape(chars[i])
        } else {
            chars[i]
        };
        if i + 2 < chars.len() && chars[i + 1] == '-' && chars[i + 2] != ']' {
            let hi = chars[i + 2];
            assert!(lo <= hi, "inverted class range in pattern {pattern:?}");
            for c in lo..=hi {
                candidates.push(c);
            }
            i += 3;
        } else {
            candidates.push(lo);
            i += 1;
        }
    }
    assert!(
        i < chars.len(),
        "unterminated character class in pattern {pattern:?}"
    );
    assert!(
        !candidates.is_empty(),
        "empty character class in pattern {pattern:?}"
    );
    (candidates, i + 1)
}

/// Parse an optional quantifier at `i`; returns `(min, max_inclusive, next)`.
fn parse_quantifier(chars: &[char], i: usize, pattern: &str) -> (usize, usize, usize) {
    match chars.get(i) {
        Some('*') => (0, UNQUANTIFIED_MAX, i + 1),
        Some('+') => (1, UNQUANTIFIED_MAX, i + 1),
        Some('?') => (0, 1, i + 1),
        Some('{') => {
            let close = chars[i..]
                .iter()
                .position(|c| *c == '}')
                .map(|off| i + off)
                .unwrap_or_else(|| panic!("unterminated quantifier in pattern {pattern:?}"));
            let body: String = chars[i + 1..close].iter().collect();
            let (lo, hi) = match body.split_once(',') {
                Some((lo, hi)) => (lo, hi),
                None => (body.as_str(), body.as_str()),
            };
            let lo: usize = lo.trim().parse().expect("quantifier lower bound");
            let hi: usize = hi.trim().parse().expect("quantifier upper bound");
            assert!(lo <= hi, "inverted quantifier in pattern {pattern:?}");
            (lo, hi, close + 1)
        }
        _ => (1, 1, i),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::for_case(0);
        for _ in 0..1000 {
            let v = (3usize..17).generate(&mut rng);
            assert!((3..17).contains(&v));
            let f = (0.25f64..0.75).generate(&mut rng);
            assert!((0.25..0.75).contains(&f));
            let n = (-9i64..9).generate(&mut rng);
            assert!((-9..9).contains(&n));
        }
    }

    #[test]
    fn printable_class_pattern_generates_printables() {
        let mut rng = TestRng::for_case(1);
        for _ in 0..200 {
            let s = "[ -~]{0,6}".generate(&mut rng);
            assert!(s.len() <= 6);
            assert!(s.chars().all(|c| (' '..='~').contains(&c)), "{s:?}");
        }
    }

    #[test]
    fn newline_class_pattern_includes_escapes() {
        let mut rng = TestRng::for_case(2);
        let mut saw_newline = false;
        for _ in 0..500 {
            let s = "[ -~\n]{0,200}".generate(&mut rng);
            assert!(s.len() <= 200);
            saw_newline |= s.contains('\n');
        }
        assert!(saw_newline, "newline must be reachable");
    }

    #[test]
    fn union_respects_zero_weight_absence() {
        let mut rng = TestRng::for_case(3);
        let u = crate::prop_oneof![
            1 => 0u32..1,
            9 => 100u32..101,
        ];
        let mut hits = [0u32; 2];
        for _ in 0..1000 {
            match u.generate(&mut rng) {
                0 => hits[0] += 1,
                100 => hits[1] += 1,
                other => panic!("unexpected {other}"),
            }
        }
        assert!(hits[0] > 0 && hits[1] > hits[0], "{hits:?}");
    }

    #[test]
    fn recursive_strategies_terminate() {
        let leaf = (0i64..10).prop_map(|n| n.to_string());
        let nested = leaf.prop_recursive(4, 16, 2, |inner| {
            (inner.clone(), inner).prop_map(|(a, b)| format!("({a} {b})"))
        });
        let mut rng = TestRng::for_case(4);
        for _ in 0..50 {
            let s = nested.generate(&mut rng);
            assert!(s.starts_with('(') && s.ends_with(')'));
        }
    }
}
