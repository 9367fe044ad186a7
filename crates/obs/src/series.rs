//! Time-bucketed pass-rate series.
//!
//! The aggregator folds epoch-stamped outcome records (from the result
//! store or any other source) into per-bucket counts keyed by a grouping
//! dimension — vendor profile, feature scope, tenant, or language. The
//! fold is pure integer accumulation into `BTreeMap`s, so the resulting
//! series is deterministic: independent of insertion order, worker
//! count, store compaction, or restarts.
//!
//! Bucketing is aligned to the absolute epoch (`epoch - epoch % width`),
//! *not* to the query's `since` value — two queries with different
//! windows therefore agree about every bucket they both cover. Records
//! stamped with epoch 0 (rows written before epochs existed) are folded
//! into the first bucket of the queried window rather than dropped, so
//! pre-epoch history remains visible.

use crate::hist::LatencyHist;
use std::collections::BTreeMap;

/// The grouping dimension for a history query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupBy {
    /// Group by vendor profile (e.g. `caps`, `pgi`, `cray`, `reference`).
    Profile,
    /// Group by feature scope prefix (e.g. `data.copy`, `loop`).
    Feature,
    /// Group by submitting tenant.
    Tenant,
    /// Group by source language (`c` / `fortran`).
    Language,
}

impl GroupBy {
    /// Parse the `by=` query value. `None` on unknown names.
    pub fn parse(s: &str) -> Option<GroupBy> {
        match s {
            "profile" => Some(GroupBy::Profile),
            "feature" => Some(GroupBy::Feature),
            "tenant" => Some(GroupBy::Tenant),
            "lang" | "language" => Some(GroupBy::Language),
            _ => None,
        }
    }

    /// The canonical query-string name.
    pub fn as_str(&self) -> &'static str {
        match self {
            GroupBy::Profile => "profile",
            GroupBy::Feature => "feature",
            GroupBy::Tenant => "tenant",
            GroupBy::Language => "lang",
        }
    }
}

/// Outcome counts for one (bucket, key) cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeriesCounts {
    /// Cases that passed outright.
    pub pass: u64,
    /// Cases that passed only after retry.
    pub flaky: u64,
    /// Cases that failed.
    pub fail: u64,
    /// Cases that were skipped.
    pub skip: u64,
}

impl SeriesCounts {
    /// Fold `other` into `self` (plain addition — order-free).
    pub fn merge(&mut self, other: &SeriesCounts) {
        self.pass += other.pass;
        self.flaky += other.flaky;
        self.fail += other.fail;
        self.skip += other.skip;
    }

    /// Cases that count toward the pass rate (skips excluded).
    pub fn counted(&self) -> u64 {
        self.pass + self.flaky + self.fail
    }

    /// Pass rate in percent; flaky counts as a pass, matching report
    /// semantics. 100.0 when nothing counted.
    pub fn pass_rate(&self) -> f64 {
        let counted = self.counted();
        if counted == 0 {
            return 100.0;
        }
        (self.pass + self.flaky) as f64 * 100.0 / counted as f64
    }
}

/// The bucket (start epoch) a record falls into for a window starting at
/// `since` with buckets `width` seconds wide. Buckets are aligned to the
/// absolute epoch; epoch-0 records land in the window's first bucket.
pub fn bucket_of(epoch: u64, since: u64, width: u64) -> u64 {
    let width = width.max(1);
    let effective = if epoch == 0 { since } else { epoch };
    effective - effective % width
}

/// One rendered row of a history series.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesRow {
    /// Bucket start epoch (seconds).
    pub bucket: u64,
    /// Group key (profile name, feature scope, tenant, or language).
    pub key: String,
    /// Outcome counts in this cell.
    pub counts: SeriesCounts,
    /// Merged latency histogram for this cell, when latency was recorded.
    pub latency: LatencyHist,
}

/// Accumulates epoch-stamped outcomes into a deterministic bucketed
/// series. Keys are `(bucket, group-key)`; both maps are `BTreeMap`s, so
/// [`SeriesAgg::rows`] is sorted and insertion-order-free.
#[derive(Debug, Clone, Default)]
pub struct SeriesAgg {
    since: u64,
    width: u64,
    cells: BTreeMap<(u64, String), (SeriesCounts, LatencyHist)>,
}

impl SeriesAgg {
    /// A new aggregator for a window starting at `since` with buckets
    /// `width` seconds wide (`width` is clamped to ≥ 1).
    pub fn new(since: u64, width: u64) -> SeriesAgg {
        SeriesAgg {
            since,
            width: width.max(1),
            cells: BTreeMap::new(),
        }
    }

    /// Fold one outcome record into the series.
    pub fn add(&mut self, epoch: u64, key: &str, counts: &SeriesCounts) {
        let bucket = bucket_of(epoch, self.since, self.width);
        self.cells
            .entry((bucket, key.to_string()))
            .or_default()
            .0
            .merge(counts);
    }

    /// Fold one latency histogram into the record's cell.
    pub fn add_latency(&mut self, epoch: u64, key: &str, hist: &LatencyHist) {
        if hist.is_empty() {
            return;
        }
        let bucket = bucket_of(epoch, self.since, self.width);
        self.cells
            .entry((bucket, key.to_string()))
            .or_default()
            .1
            .merge(hist);
    }

    /// The series, sorted by (bucket, key).
    pub fn rows(&self) -> Vec<SeriesRow> {
        self.cells
            .iter()
            .map(|((bucket, key), (counts, latency))| SeriesRow {
                bucket: *bucket,
                key: key.clone(),
                counts: *counts,
                latency: latency.clone(),
            })
            .collect()
    }

    /// The bucket width in effect (after clamping).
    pub fn width(&self) -> u64 {
        self.width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_by_parses_canonical_names() {
        for (name, by) in [
            ("profile", GroupBy::Profile),
            ("feature", GroupBy::Feature),
            ("tenant", GroupBy::Tenant),
            ("lang", GroupBy::Language),
            ("language", GroupBy::Language),
        ] {
            assert_eq!(GroupBy::parse(name), Some(by));
        }
        assert_eq!(GroupBy::parse("bogus"), None);
        assert_eq!(
            GroupBy::parse(GroupBy::Language.as_str()),
            Some(GroupBy::Language)
        );
    }

    #[test]
    fn buckets_align_to_absolute_epoch() {
        // Alignment must not depend on `since`: the same epoch falls in
        // the same bucket for any window that covers it.
        assert_eq!(bucket_of(7205, 0, 3600), 7200);
        assert_eq!(bucket_of(7205, 7000, 3600), 7200);
        assert_eq!(bucket_of(7200, 0, 3600), 7200); // exact edge: own bucket
        assert_eq!(bucket_of(7199, 0, 3600), 3600); // one below the edge
        assert_eq!(bucket_of(5, 0, 0), 5); // width clamped to 1
    }

    #[test]
    fn epoch_zero_lands_in_first_bucket() {
        assert_eq!(bucket_of(0, 7250, 3600), 7200);
        let mut agg = SeriesAgg::new(7250, 3600);
        agg.add(
            0,
            "caps",
            &SeriesCounts {
                pass: 3,
                ..Default::default()
            },
        );
        let rows = agg.rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].bucket, 7200);
        assert_eq!(rows[0].counts.pass, 3);
    }

    #[test]
    fn rows_are_sorted_and_order_free() {
        let records = [
            (
                9000u64,
                "pgi",
                SeriesCounts {
                    pass: 1,
                    ..Default::default()
                },
            ),
            (
                100,
                "caps",
                SeriesCounts {
                    fail: 2,
                    ..Default::default()
                },
            ),
            (
                9100,
                "caps",
                SeriesCounts {
                    pass: 4,
                    skip: 1,
                    ..Default::default()
                },
            ),
            (
                150,
                "caps",
                SeriesCounts {
                    pass: 5,
                    ..Default::default()
                },
            ),
        ];
        let mut fwd = SeriesAgg::new(0, 3600);
        for (e, k, c) in &records {
            fwd.add(*e, k, c);
        }
        let mut rev = SeriesAgg::new(0, 3600);
        for (e, k, c) in records.iter().rev() {
            rev.add(*e, k, c);
        }
        assert_eq!(fwd.rows(), rev.rows());
        let rows = fwd.rows();
        assert_eq!(rows.len(), 3);
        // (0,"caps") merged two records; then (7200,"caps"), (7200,"pgi").
        assert_eq!(
            rows[0].counts,
            SeriesCounts {
                pass: 5,
                fail: 2,
                ..Default::default()
            }
        );
        assert_eq!((rows[1].bucket, rows[1].key.as_str()), (7200, "caps"));
        assert_eq!((rows[2].bucket, rows[2].key.as_str()), (7200, "pgi"));
    }

    #[test]
    fn pass_rate_counts_flaky_as_pass_and_excludes_skips() {
        let c = SeriesCounts {
            pass: 7,
            flaky: 1,
            fail: 2,
            skip: 90,
        };
        assert_eq!(c.counted(), 10);
        assert!((c.pass_rate() - 80.0).abs() < 1e-9);
        assert_eq!(SeriesCounts::default().pass_rate(), 100.0);
    }

    #[test]
    fn latency_folds_per_cell() {
        let mut agg = SeriesAgg::new(0, 3600);
        let mut h = LatencyHist::new();
        h.record(500);
        agg.add(
            10,
            "caps",
            &SeriesCounts {
                pass: 1,
                ..Default::default()
            },
        );
        agg.add_latency(10, "caps", &h);
        agg.add_latency(20, "caps", &h);
        agg.add_latency(20, "pgi", &LatencyHist::new()); // empty: no cell
        let rows = agg.rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].latency.count(), 2);
    }
}
