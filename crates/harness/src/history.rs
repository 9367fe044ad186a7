//! Historical pass-rate/latency series over the result store.
//!
//! This is the Fig. 13 tracker generalized: the paper plots testsuite
//! pass rates across compiler releases; this module folds the store's
//! epoch-stamped submissions into time-bucketed series (per vendor
//! profile, feature, tenant, or language), renders trend tables, and
//! gates on drift against a committed baseline.
//!
//! Determinism contract, inherited from [`acc_obs::series`] and
//! [`acc_obs::hist`]:
//!
//! * the series depends only on the store's *contents* — identical across
//!   `--jobs` worker counts, store compaction, and server restarts;
//! * buckets align to the absolute epoch, so different query windows
//!   agree about shared buckets;
//! * epoch-0 submissions (rows from before epochs existed) land in the
//!   window's first bucket instead of being dropped;
//! * latency histograms obey the merge law, so quantiles are identical
//!   however the per-worker histograms were combined.
//!
//! The default trend table deliberately excludes latency: wall-clock is
//! machine-dependent, and the table must be byte-identical for the same
//! store however it was produced. Latency columns are opt-in
//! ([`render_table`]'s `latency` flag), and the drift gate only compares
//! latency when the baseline recorded it.

use crate::store::ResultStore;
use acc_obs::json::{self, Json};
use acc_obs::series::{GroupBy, SeriesAgg, SeriesCounts, SeriesRow};
use acc_validation::TestStatus;
use std::fmt::Write as _;

/// Parameters of a history query.
#[derive(Debug, Clone)]
pub struct HistoryRequest {
    /// Bucket width, seconds (clamped to ≥ 1).
    pub bucket: u64,
    /// Window start epoch (inclusive).
    pub since: u64,
    /// Window end epoch (inclusive).
    pub until: u64,
    /// Grouping dimension.
    pub by: GroupBy,
    /// Tenant exact-match filter ("" = all tenants).
    pub tenant: String,
    /// Scope (compiler label) prefix filter.
    pub scope: String,
}

impl Default for HistoryRequest {
    fn default() -> Self {
        HistoryRequest {
            bucket: 3600,
            since: 0,
            until: u64::MAX,
            by: GroupBy::Profile,
            tenant: String::new(),
            scope: String::new(),
        }
    }
}

/// One-hot [`SeriesCounts`] for a verdict. Pass semantics match the
/// reports: `PASS`/`PASS*` are passes, `FLAKY` is tracked separately but
/// counts toward the pass rate, skips are excluded from rates.
pub fn classify(status: &TestStatus) -> SeriesCounts {
    let mut c = SeriesCounts::default();
    match status {
        TestStatus::Pass | TestStatus::PassInconclusive => c.pass = 1,
        TestStatus::Flaky => c.flaky = 1,
        TestStatus::Skipped(_) => c.skip = 1,
        _ => c.fail = 1,
    }
    c
}

/// Fold the store into a bucketed series. Submissions outside the epoch
/// window are excluded (bounds inclusive, matching
/// [`crate::store::QueryFilter`]); epoch-0 submissions are *always*
/// included and land in the window's first bucket. Latency histograms are
/// attached for submission-level groupings (profile, tenant) — per-case
/// dimensions (feature, language) get counts only, because latency is
/// recorded per submission and splitting it per case would double-count.
pub fn history(store: &ResultStore, req: &HistoryRequest) -> Vec<SeriesRow> {
    let mut agg = SeriesAgg::new(req.since, req.bucket);
    for sub in store.list() {
        if !req.tenant.is_empty() && sub.tenant != req.tenant {
            continue;
        }
        if !sub.scope.starts_with(&req.scope) {
            continue;
        }
        if sub.epoch != 0 && (sub.epoch < req.since || sub.epoch > req.until) {
            continue;
        }
        for case in &sub.cases {
            let key = match req.by {
                GroupBy::Profile => sub.scope.clone(),
                GroupBy::Tenant => sub.tenant.clone(),
                GroupBy::Feature => case.feature.as_str().to_string(),
                GroupBy::Language => case.language.to_string(),
            };
            agg.add(sub.epoch, &key, &classify(&case.status));
        }
        if matches!(req.by, GroupBy::Profile | GroupBy::Tenant) {
            if let Some(hist) = &sub.latency {
                let key = match req.by {
                    GroupBy::Profile => sub.scope.as_str(),
                    _ => sub.tenant.as_str(),
                };
                agg.add_latency(sub.epoch, key, hist);
            }
        }
    }
    agg.rows()
}

/// Render the series as a fixed-width trend table. Without `latency` the
/// output contains no wall-clock-derived data and is byte-identical for
/// the same store contents; with it, p50/p90/p99 columns (microseconds)
/// are appended for cells that recorded latency.
pub fn render_table(rows: &[SeriesRow], by: GroupBy, latency: bool) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{:<12} {:<28} {:>6} {:>6} {:>6} {:>6} {:>8}",
        "bucket",
        by.as_str(),
        "pass",
        "flaky",
        "fail",
        "skip",
        "rate%"
    );
    if latency {
        let _ = write!(out, " {:>9} {:>9} {:>9}", "p50us", "p90us", "p99us");
    }
    out.push('\n');
    for row in rows {
        let c = &row.counts;
        let _ = write!(
            out,
            "{:<12} {:<28} {:>6} {:>6} {:>6} {:>6} {:>8.2}",
            row.bucket,
            row.key,
            c.pass,
            c.flaky,
            c.fail,
            c.skip,
            c.pass_rate()
        );
        if latency {
            if row.latency.is_empty() {
                let _ = write!(out, " {:>9} {:>9} {:>9}", "-", "-", "-");
            } else {
                let _ = write!(
                    out,
                    " {:>9} {:>9} {:>9}",
                    row.latency.quantile_us(0.5),
                    row.latency.quantile_us(0.9),
                    row.latency.quantile_us(0.99)
                );
            }
        }
        out.push('\n');
    }
    if rows.is_empty() {
        out.push_str("(no records in window)\n");
    }
    out
}

/// Serialize the *latest bucket* of a series as a drift baseline:
/// `{"by":…,"rows":[{"key":…,"pass_rate":…,"counted":…[,"p50_us":…,"p99_us":…]},…]}`.
/// Latency quantiles are included only for cells that recorded latency,
/// so a baseline captured on one machine can stay pass-rate-only and
/// remain portable.
pub fn baseline_json(rows: &[SeriesRow], by: GroupBy) -> String {
    let latest = rows.iter().map(|r| r.bucket).max();
    let mut out = String::from("{");
    let _ = write!(out, "\"by\":\"{}\",\"rows\":[", by.as_str());
    let mut first = true;
    for row in rows {
        if Some(row.bucket) != latest {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push('{');
        out.push_str("\"key\":\"");
        json::escape_into(&mut out, &row.key);
        let _ = write!(
            out,
            "\",\"pass_rate\":{:.4},\"counted\":{}",
            row.counts.pass_rate(),
            row.counts.counted()
        );
        if !row.latency.is_empty() {
            let _ = write!(
                out,
                ",\"p50_us\":{},\"p99_us\":{}",
                row.latency.quantile_us(0.5),
                row.latency.quantile_us(0.99)
            );
        }
        out.push('}');
    }
    out.push_str("]}\n");
    out
}

/// Tolerances for [`check_drift`].
#[derive(Debug, Clone, Copy)]
pub struct DriftTolerance {
    /// Allowed pass-rate drop, percentage points.
    pub pass_points: f64,
    /// Allowed latency-quantile increase, percent.
    pub latency_pct: f64,
}

impl Default for DriftTolerance {
    fn default() -> Self {
        DriftTolerance {
            pass_points: 0.5,
            latency_pct: 50.0,
        }
    }
}

/// Compare the latest bucket of `rows` against a committed baseline
/// (produced by [`baseline_json`]). Returns one human-readable line per
/// comparison on success; `Err` on any regression beyond tolerance, on a
/// malformed baseline, and on key mismatches in *either* direction — a
/// baseline key the latest bucket no longer covers, or a freshly covered
/// key the baseline has never seen, both with a regeneration hint.
/// Silently skipping either would let a regression ship behind a stale
/// baseline (same policy as `accvv bench --check`).
pub fn check_drift(
    rows: &[SeriesRow],
    baseline: &str,
    tol: &DriftTolerance,
) -> Result<Vec<String>, String> {
    let doc = json::parse(baseline).map_err(|e| format!("baseline: {e}"))?;
    let base_rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("baseline: missing `rows` array")?;
    let latest = rows.iter().map(|r| r.bucket).max();
    let current: Vec<&SeriesRow> = rows.iter().filter(|r| Some(r.bucket) == latest).collect();
    let hint = "regenerate with `accvv history --out <baseline>`";
    let mut lines = Vec::new();
    let mut seen = Vec::new();
    for b in base_rows {
        let key = b
            .get("key")
            .and_then(Json::as_str)
            .ok_or("baseline: row missing `key`")?;
        let base_rate = match b.get("pass_rate") {
            Some(Json::Num(n)) => *n,
            _ => return Err(format!("baseline: row `{key}` missing `pass_rate`")),
        };
        seen.push(key.to_string());
        let cur = current.iter().find(|r| r.key == key).ok_or_else(|| {
            format!("baseline key `{key}` has no data in the latest bucket; {hint}")
        })?;
        let cur_rate = cur.counts.pass_rate();
        let floor = base_rate - tol.pass_points;
        lines.push(format!(
            "drift check: {key} pass rate {cur_rate:.2}% vs baseline {base_rate:.2}% \
             (floor {floor:.2}% = -{:.2}pt)",
            tol.pass_points
        ));
        if cur_rate < floor {
            return Err(format!(
                "pass-rate regression: {key} at {cur_rate:.2}%, more than {:.2} points \
                 below the {base_rate:.2}% baseline",
                tol.pass_points
            ));
        }
        for (field, q) in [("p50_us", 0.5), ("p99_us", 0.99)] {
            let Some(base_q) = b.get(field).and_then(Json::as_i64) else {
                continue; // pass-rate-only baseline: no latency gate
            };
            if cur.latency.is_empty() {
                return Err(format!(
                    "baseline has {field} for `{key}` but the latest bucket recorded \
                     no latency; {hint}"
                ));
            }
            let cur_q = cur.latency.quantile_us(q);
            let limit = base_q as f64 * (1.0 + tol.latency_pct / 100.0);
            lines.push(format!(
                "drift check: {key} {field} {cur_q}us vs baseline {base_q}us \
                 (limit {limit:.0}us = +{:.0}%)",
                tol.latency_pct
            ));
            if cur_q as f64 > limit {
                return Err(format!(
                    "latency regression: {key} {field} at {cur_q}us, more than {:.0}% \
                     over the {base_q}us baseline",
                    tol.latency_pct
                ));
            }
        }
    }
    for cur in &current {
        if !seen.contains(&cur.key) {
            return Err(format!(
                "latest bucket covers `{}` but the baseline does not; {hint}",
                cur.key
            ));
        }
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acc_obs::hist::LatencyHist;
    use acc_spec::{FeatureId, Language};
    use acc_validation::vfs::{FaultFs, Vfs};
    use acc_validation::CaseResult;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn case(feature: &str, status: TestStatus) -> CaseResult {
        CaseResult {
            name: feature.to_string(),
            feature: FeatureId::new(feature.to_string()),
            language: Language::C,
            status,
            certainty: None,
            functional_source: String::new(),
            attempts: 1,
        }
    }

    fn seeded_store() -> (ResultStore, Arc<AtomicU64>) {
        let fs: Arc<dyn Vfs> = Arc::new(FaultFs::new(11));
        let now = Arc::new(AtomicU64::new(1000));
        let clock = Arc::clone(&now);
        let store = ResultStore::open_via(fs, "h.j1")
            .unwrap()
            .with_clock(Arc::new(move || clock.load(Ordering::SeqCst)));
        (store, now)
    }

    #[test]
    fn history_buckets_by_profile_and_time() {
        let (store, now) = seeded_store();
        let a = store.begin("alice", "PGI 13.4", "text").unwrap();
        store
            .record_cases(
                a,
                &[
                    case("loop", TestStatus::Pass),
                    case("data.copy", TestStatus::WrongResult),
                ],
            )
            .unwrap();
        now.store(5000, Ordering::SeqCst);
        let b = store.begin("alice", "PGI 13.4", "text").unwrap();
        store
            .record_cases(b, &[case("loop", TestStatus::Flaky)])
            .unwrap();
        let rows = history(
            &store,
            &HistoryRequest {
                bucket: 3600,
                ..Default::default()
            },
        );
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].bucket, 0);
        assert_eq!((rows[0].counts.pass, rows[0].counts.fail), (1, 1));
        assert_eq!(rows[1].bucket, 3600);
        assert_eq!(rows[1].counts.flaky, 1);
        assert!(
            (rows[1].counts.pass_rate() - 100.0).abs() < 1e-9,
            "flaky passes"
        );
    }

    #[test]
    fn window_bounds_are_inclusive_and_epoch_zero_survives() {
        let (store, now) = seeded_store();
        for (epoch, feature) in [(1000u64, "a"), (2000, "b"), (3000, "c")] {
            now.store(epoch, Ordering::SeqCst);
            let id = store.begin("t", "ref", "text").unwrap();
            store
                .record_cases(id, &[case(feature, TestStatus::Pass)])
                .unwrap();
        }
        // Inclusive on both edges.
        let rows = history(
            &store,
            &HistoryRequest {
                bucket: 100,
                since: 1000,
                until: 2000,
                ..Default::default()
            },
        );
        let total: u64 = rows.iter().map(|r| r.counts.pass).sum();
        assert_eq!(total, 2, "since/until are inclusive");
        // An epoch-0 row (pre-epoch store format) joins the first bucket
        // of any window instead of being filtered out.
        let raw = store.submission(1).unwrap();
        assert_eq!(raw.epoch, 1000);
        let (store2, _) = {
            let fs: Arc<dyn Vfs> = Arc::new(FaultFs::new(12));
            let store2 = ResultStore::open_via(fs, "z.j1")
                .unwrap()
                .with_clock(Arc::new(|| 0));
            let id = store2.begin("t", "ref", "text").unwrap();
            store2
                .record_cases(id, &[case("old", TestStatus::Pass)])
                .unwrap();
            (store2, ())
        };
        let rows = history(
            &store2,
            &HistoryRequest {
                bucket: 100,
                since: 5050,
                until: 6000,
                ..Default::default()
            },
        );
        assert_eq!(rows.len(), 1, "epoch-0 row not dropped");
        assert_eq!(rows[0].bucket, 5000, "first bucket of the window");
    }

    #[test]
    fn by_feature_matches_query_totals_and_skips_latency() {
        let (store, _) = seeded_store();
        let id = store.begin("t", "ref", "text").unwrap();
        store
            .record_cases(
                id,
                &[
                    case("loop", TestStatus::Pass),
                    case("loop", TestStatus::WrongResult),
                    case("data.copy", TestStatus::Skipped(None)),
                ],
            )
            .unwrap();
        let mut h = LatencyHist::new();
        h.record(100);
        store.record_latency(id, &h).unwrap();
        let rows = history(
            &store,
            &HistoryRequest {
                by: GroupBy::Feature,
                ..Default::default()
            },
        );
        assert_eq!(rows.len(), 2);
        let loop_row = rows.iter().find(|r| r.key == "loop").unwrap();
        assert_eq!((loop_row.counts.pass, loop_row.counts.fail), (1, 1));
        assert!(
            rows.iter().all(|r| r.latency.is_empty()),
            "no per-case latency"
        );
        // Agreement with the point-in-time query: same counted totals.
        let q = store.query(&crate::store::QueryFilter::default());
        let q_loop = q.iter().find(|r| r.feature == "loop").unwrap();
        assert_eq!(q_loop.total as u64, loop_row.counts.counted());
        // Profile grouping does carry the latency.
        let rows = history(&store, &HistoryRequest::default());
        assert_eq!(rows[0].latency.count(), 1);
    }

    #[test]
    fn table_is_deterministic_and_latency_is_opt_in() {
        let (store, _) = seeded_store();
        let id = store.begin("t", "ref", "text").unwrap();
        store
            .record_cases(id, &[case("loop", TestStatus::Pass)])
            .unwrap();
        let mut h = LatencyHist::new();
        h.record(1234);
        store.record_latency(id, &h).unwrap();
        let rows = history(&store, &HistoryRequest::default());
        let plain = render_table(&rows, GroupBy::Profile, false);
        assert_eq!(plain, render_table(&rows, GroupBy::Profile, false));
        assert!(!plain.contains("p50us"), "no wall-clock in default table");
        let with_lat = render_table(&rows, GroupBy::Profile, true);
        assert!(with_lat.contains("p50us"));
        assert!(render_table(&[], GroupBy::Profile, false).contains("no records"));
    }

    #[test]
    fn drift_gate_passes_within_tolerance_and_trips_beyond() {
        let (store, _) = seeded_store();
        let id = store.begin("t", "ref", "text").unwrap();
        store
            .record_cases(
                id,
                &[case("a", TestStatus::Pass), case("b", TestStatus::Pass)],
            )
            .unwrap();
        let rows = history(&store, &HistoryRequest::default());
        let baseline = baseline_json(&rows, GroupBy::Profile);
        assert!(baseline.contains("\"pass_rate\":100.0000"));
        // Same data vs its own baseline: clean.
        let lines = check_drift(&rows, &baseline, &DriftTolerance::default()).unwrap();
        assert_eq!(lines.len(), 1);
        // Inject a pass-rate regression into the store.
        let id2 = store.begin("t", "ref", "text").unwrap();
        store
            .record_cases(
                id2,
                &[
                    case("a", TestStatus::WrongResult),
                    case("b", TestStatus::WrongResult),
                ],
            )
            .unwrap();
        let rows = history(&store, &HistoryRequest::default());
        let err = check_drift(&rows, &baseline, &DriftTolerance::default()).unwrap_err();
        assert!(err.contains("pass-rate regression"), "{err}");
    }

    #[test]
    fn drift_gate_compares_latency_when_baseline_has_it() {
        let (store, _) = seeded_store();
        let id = store.begin("t", "ref", "text").unwrap();
        store
            .record_cases(id, &[case("a", TestStatus::Pass)])
            .unwrap();
        let mut h = LatencyHist::new();
        h.record(1000);
        store.record_latency(id, &h).unwrap();
        let rows = history(&store, &HistoryRequest::default());
        let baseline = baseline_json(&rows, GroupBy::Profile);
        assert!(baseline.contains("p50_us"));
        let tol = DriftTolerance {
            pass_points: 0.5,
            latency_pct: 50.0,
        };
        let lines = check_drift(&rows, &baseline, &tol).unwrap();
        assert_eq!(lines.len(), 3, "rate + two quantiles");
        // A 10x latency regression in a later submission trips the gate.
        let id2 = store.begin("t", "ref", "text").unwrap();
        store
            .record_cases(id2, &[case("a", TestStatus::Pass)])
            .unwrap();
        let mut slow = LatencyHist::new();
        for _ in 0..50 {
            slow.record(10_000);
        }
        store.record_latency(id2, &slow).unwrap();
        let rows = history(&store, &HistoryRequest::default());
        let err = check_drift(&rows, &baseline, &tol).unwrap_err();
        assert!(err.contains("latency regression"), "{err}");
    }

    #[test]
    fn drift_gate_hard_errors_on_key_mismatch() {
        let (store, _) = seeded_store();
        let id = store.begin("t", "PGI 13.4", "text").unwrap();
        store
            .record_cases(id, &[case("a", TestStatus::Pass)])
            .unwrap();
        let rows = history(&store, &HistoryRequest::default());
        // Baseline knows a profile the latest bucket doesn't cover.
        let stale =
            r#"{"by":"profile","rows":[{"key":"CAPS 3.3.0","pass_rate":99.0,"counted":10}]}"#;
        let err = check_drift(&rows, stale, &DriftTolerance::default()).unwrap_err();
        assert!(err.contains("no data in the latest bucket"), "{err}");
        // Latest bucket covers a profile the baseline has never seen.
        let empty = r#"{"by":"profile","rows":[]}"#;
        let err = check_drift(&rows, empty, &DriftTolerance::default()).unwrap_err();
        assert!(err.contains("the baseline does not"), "{err}");
        // Malformed baseline is an error, not a silent pass.
        assert!(check_drift(&rows, "not json", &DriftTolerance::default()).is_err());
        assert!(check_drift(&rows, "{}", &DriftTolerance::default()).is_err());
    }
}
