//! Deterministic log-bucketed latency histograms.
//!
//! The histogram is the unit of latency accounting everywhere in the
//! stack: the executor records per-case wall latency into one, the
//! metrics sink folds span durations into one per kind, and the result
//! store persists one per submission. Three properties carry all of that:
//!
//! 1. **Log-linear buckets, integer math.** Values (microseconds) land in
//!    buckets whose width doubles every octave, with [`SUB_PER_OCTAVE`]
//!    sub-buckets per octave (relative error ≤ 1/16 above the linear
//!    range). Bucket selection is pure bit arithmetic — no floats, no
//!    platform drift.
//! 2. **Merge is a commutative, associative bucket-count add.** Merging
//!    per-worker histograms therefore yields the *same* histogram in any
//!    order — the merged encoding is byte-identical across `--jobs 1` and
//!    `--jobs N` partitionings of the same samples.
//! 3. **Canonical encoding.** [`LatencyHist::encode`] walks buckets in
//!    index order, so equal histograms encode to equal bytes; the store
//!    round-trips it through a `J1` frame and compaction re-encodes the
//!    merged histogram without changing a byte.
//!
//! Quantiles ([`LatencyHist::quantile_us`]) are rank-based over the
//! cumulative bucket counts and return the bucket midpoint — an estimate
//! whose error is bounded by the bucket width, computed identically on
//! every platform for the same histogram.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// log2 of the sub-bucket count per octave.
const SUB_BITS: u32 = 4;
/// Sub-buckets per octave; also the size of the exact linear range.
pub const SUB_PER_OCTAVE: u64 = 1 << SUB_BITS;

/// A mergeable log-bucketed histogram of microsecond latencies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHist {
    /// bucket index -> sample count. Sparse; sorted iteration is what
    /// makes the encoding canonical.
    buckets: BTreeMap<u16, u64>,
    count: u64,
    sum_us: u64,
}

/// The bucket index a value lands in.
fn index_of(v: u64) -> u16 {
    if v < SUB_PER_OCTAVE {
        return v as u16;
    }
    let msb = 63 - v.leading_zeros();
    let octave = msb - SUB_BITS;
    let sub = (v >> octave) - SUB_PER_OCTAVE;
    (SUB_PER_OCTAVE as u16) + (octave as u16) * (SUB_PER_OCTAVE as u16) + sub as u16
}

/// Inclusive lower bound of bucket `i` (saturating above `u64::MAX`).
fn lower_bound(i: u16) -> u64 {
    let i = u64::from(i);
    if i < SUB_PER_OCTAVE {
        return i;
    }
    let octave = ((i - SUB_PER_OCTAVE) / SUB_PER_OCTAVE) as u32;
    let sub = (i - SUB_PER_OCTAVE) % SUB_PER_OCTAVE;
    let base = SUB_PER_OCTAVE + sub;
    if base.leading_zeros() < octave {
        return u64::MAX;
    }
    base << octave
}

/// The canonical representative of bucket `i` (midpoint, rounded down).
fn midpoint(i: u16) -> u64 {
    let lo = lower_bound(i);
    if u64::from(i) < SUB_PER_OCTAVE {
        return lo; // exact buckets
    }
    let octave = (u64::from(i) - SUB_PER_OCTAVE) / SUB_PER_OCTAVE;
    lo + (1u64 << octave) / 2
}

impl LatencyHist {
    /// An empty histogram.
    pub fn new() -> LatencyHist {
        LatencyHist::default()
    }

    /// Record one sample (microseconds).
    pub fn record(&mut self, us: u64) {
        *self.buckets.entry(index_of(us)).or_insert(0) += 1;
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
    }

    /// Fold `other` into `self`. Bucket-count addition: commutative and
    /// associative, so any merge order over the same samples produces the
    /// same histogram (and therefore the same encoding).
    pub fn merge(&mut self, other: &LatencyHist) {
        for (&i, &c) in &other.buckets {
            *self.buckets.entry(i).or_insert(0) += c;
        }
        self.count += other.count;
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples, microseconds (saturating).
    pub fn sum_us(&self) -> u64 {
        self.sum_us
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The `q`-quantile (0 < q ≤ 1) as a bucket-midpoint estimate, in
    /// microseconds. Rank-based over cumulative counts: deterministic for
    /// a given histogram regardless of how it was assembled. 0 when empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (&i, &c) in &self.buckets {
            cum += c;
            if cum >= rank {
                return midpoint(i);
            }
        }
        unreachable!("cumulative count covers every rank")
    }

    /// Canonical text encoding: `h1;<count>;<sum_us>;i:c,i:c,…` with
    /// buckets in index order. Contains only digits and `;:,` — safe to
    /// embed in tab-separated `J1` payloads unescaped.
    pub fn encode(&self) -> String {
        let mut out = format!("h1;{};{};", self.count, self.sum_us);
        for (n, (&i, &c)) in self.buckets.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            out.push_str(&format!("{i}:{c}"));
        }
        out
    }

    /// Parse [`LatencyHist::encode`]'s output. `None` on malformed or
    /// inconsistent input (bucket counts must sum to the header count).
    pub fn decode(text: &str) -> Option<LatencyHist> {
        let rest = text.strip_prefix("h1;")?;
        let (count_s, rest) = rest.split_once(';')?;
        let (sum_s, bucket_s) = rest.split_once(';')?;
        let count: u64 = count_s.parse().ok()?;
        let sum_us: u64 = sum_s.parse().ok()?;
        let mut buckets = BTreeMap::new();
        if !bucket_s.is_empty() {
            for pair in bucket_s.split(',') {
                let (i, c) = pair.split_once(':')?;
                let i: u16 = i.parse().ok()?;
                let c: u64 = c.parse().ok()?;
                if i > index_of(u64::MAX) || c == 0 || buckets.insert(i, c).is_some() {
                    return None; // out-of-range index, zero count, or duplicate
                }
            }
        }
        if buckets.values().sum::<u64>() != count {
            return None;
        }
        Some(LatencyHist {
            buckets,
            count,
            sum_us,
        })
    }
}

/// A thread-safe latency collector: the executor's workers record into it
/// concurrently and the driver snapshots the merged histogram afterwards.
/// Because the histogram merge law makes bucket addition order-free, the
/// snapshot is identical across worker counts for the same sample set.
#[derive(Clone, Default)]
pub struct LatencyCollector(Arc<Mutex<LatencyHist>>);

impl LatencyCollector {
    /// A fresh, empty collector.
    pub fn new() -> LatencyCollector {
        LatencyCollector::default()
    }

    /// Record one sample (microseconds).
    pub fn record_us(&self, us: u64) {
        self.0
            .lock()
            .expect("latency collector poisoned")
            .record(us);
    }

    /// The merged histogram so far.
    pub fn snapshot(&self) -> LatencyHist {
        self.0.lock().expect("latency collector poisoned").clone()
    }
}

impl std::fmt::Debug for LatencyCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyCollector")
            .field("count", &self.snapshot().count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_ordered() {
        // Every value maps into a bucket whose bounds contain it, and
        // bucket indices are monotone in the value.
        let mut prev = 0u16;
        for v in (0..4096u64).chain([1 << 20, u64::MAX / 2, u64::MAX]) {
            let i = index_of(v);
            assert!(lower_bound(i) <= v, "v={v} i={i}");
            if i as u64 >= SUB_PER_OCTAVE && v < u64::MAX {
                assert!(lower_bound(i + 1) > v, "v={v} i={i}");
            }
            assert!(i >= prev || v < 4096, "indices monotone");
            prev = i;
        }
    }

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUB_PER_OCTAVE {
            let mut h = LatencyHist::new();
            h.record(v);
            assert_eq!(h.quantile_us(0.5), v);
        }
    }

    #[test]
    fn quantiles_are_order_of_magnitude_right() {
        let mut h = LatencyHist::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile_us(0.5);
        let p99 = h.quantile_us(0.99);
        assert!((450..=560).contains(&p50), "p50={p50}");
        assert!((930..=1060).contains(&p99), "p99={p99}");
        assert!(h.quantile_us(1.0) >= p99);
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum_us(), 500_500);
    }

    #[test]
    fn merge_is_order_free_and_byte_identical() {
        // Partition one sample set three different ways; every merge order
        // must produce the same canonical encoding.
        let samples: Vec<u64> = (0..500u64).map(|i| (i * 7919) % 100_000).collect();
        let mut whole = LatencyHist::new();
        for &s in &samples {
            whole.record(s);
        }
        for parts in [2usize, 3, 7] {
            let mut shards = vec![LatencyHist::new(); parts];
            for (i, &s) in samples.iter().enumerate() {
                shards[i % parts].record(s);
            }
            // Forward merge…
            let mut fwd = LatencyHist::new();
            for s in &shards {
                fwd.merge(s);
            }
            // …and reverse merge.
            let mut rev = LatencyHist::new();
            for s in shards.iter().rev() {
                rev.merge(s);
            }
            assert_eq!(fwd, whole, "{parts} shards");
            assert_eq!(fwd.encode(), whole.encode(), "{parts} shards");
            assert_eq!(rev.encode(), whole.encode(), "{parts} shards reversed");
        }
    }

    #[test]
    fn encode_round_trips() {
        let mut h = LatencyHist::new();
        for v in [0, 1, 7, 8, 100, 5_000, 1 << 30] {
            h.record(v);
        }
        let text = h.encode();
        assert_eq!(LatencyHist::decode(&text), Some(h.clone()));
        // Empty histogram too.
        let empty = LatencyHist::new();
        assert_eq!(LatencyHist::decode(&empty.encode()), Some(empty));
        // Encoding stays inside the J1-safe alphabet.
        assert!(text
            .chars()
            .all(|c| c.is_ascii_digit() || matches!(c, 'h' | ';' | ':' | ',')));
    }

    #[test]
    fn decode_rejects_malformed_input() {
        for bad in [
            "",
            "h2;0;0;",
            "h1;1;0;",        // count mismatch (no buckets)
            "h1;2;0;3:1",     // count mismatch
            "h1;1;0;3:0",     // zero-count bucket
            "h1;2;0;3:1,3:1", // duplicate bucket
            "h1;1;0;x:1",
            "h1;1;0;65535:1", // bucket index beyond any representable value
            "h1;;0;",
        ] {
            assert!(LatencyHist::decode(bad).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn collector_merges_across_threads() {
        let c = LatencyCollector::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let c = c.clone();
                s.spawn(move || {
                    for i in 0..100u64 {
                        c.record_us(t * 1000 + i);
                    }
                });
            }
        });
        let h = c.snapshot();
        assert_eq!(h.count(), 400);
    }
}
