//! Historical time-series determinism (ISSUE 10).
//!
//! The contract pinned here: the trend a store yields depends only on the
//! store's *contents*, never on how it was produced or maintained —
//!
//! 1. **Worker-count identity** — the default `accvv history` table (no
//!    latency columns) is byte-identical whether the suite ran with
//!    `--jobs 1` or `--jobs 4`.
//! 2. **Compaction/restart identity** — the full series, latency
//!    quantiles included, is identical before compaction, after it, and
//!    after reopening the store from disk.
//! 3. **Window edges** — `since`/`until` are inclusive on both edges, and
//!    epoch-0 rows (pre-epoch store format) land in the window's first
//!    bucket instead of being dropped.
//! 4. **Query agreement** — per-feature counted totals in the history
//!    agree with `/v1/query`-style totals, before and after compaction.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use openacc_vv::compiler::VendorId;
use openacc_vv::harness::history::{baseline_json, render_table};
use openacc_vv::harness::{
    check_drift, history, DriftTolerance, HistoryRequest, QueryFilter, ResultStore,
};
use openacc_vv::obs::{GroupBy, LatencyCollector};
use openacc_vv::server::{run_submission, RunOptions, SubmissionSpec};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A fresh on-disk store with an injectable clock, in a temp directory.
fn fresh_store(tag: &str) -> (ResultStore, Arc<AtomicU64>, PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "accvv-history-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create store dir");
    let now = Arc::new(AtomicU64::new(10_000));
    let clock = Arc::clone(&now);
    let store = ResultStore::open(dir.join("results.j1"))
        .expect("open store")
        .with_clock(Arc::new(move || clock.load(Ordering::SeqCst)));
    (store, now, dir)
}

/// Run one small submission with `jobs` workers and fold it into `store`.
fn run_into(store: &ResultStore, jobs: usize, tenant: &str) -> u64 {
    let mut spec = SubmissionSpec::new(VendorId::Reference);
    spec.language = Some(openacc_vv::prelude::Language::C);
    spec.features = vec!["loop".to_string()];
    spec.tenant = tenant.to_string();
    let latency = LatencyCollector::new();
    let opts = RunOptions {
        jobs,
        latency: Some(latency.clone()),
        ..RunOptions::default()
    };
    let outcome = run_submission(&spec, &opts).expect("run submission");
    let scope = spec.compiler().expect("compiler").label();
    let id = store.begin(tenant, &scope, "text").expect("begin");
    store
        .record_cases(id, &outcome.run.results)
        .expect("record cases");
    store
        .record_latency(id, &latency.snapshot())
        .expect("record latency");
    store.set_state(id, "done", "").expect("set state");
    id
}

#[test]
fn trend_table_is_byte_identical_across_jobs() {
    let (store1, _, dir1) = fresh_store("jobs1");
    let (store4, _, dir4) = fresh_store("jobs4");
    run_into(&store1, 1, "alice");
    run_into(&store4, 4, "alice");

    let req = HistoryRequest::default();
    let rows1 = history(&store1, &req);
    let rows4 = history(&store4, &req);

    // The default table carries no wall-clock data: byte-identical.
    let t1 = render_table(&rows1, GroupBy::Profile, false);
    let t4 = render_table(&rows4, GroupBy::Profile, false);
    assert_eq!(t1, t4, "trend table diverged between --jobs 1 and --jobs 4");
    assert!(!t1.contains("p50us"));

    // Both runs recorded one latency sample per counted case, merged from
    // however many workers there were.
    assert_eq!(rows1.len(), 1);
    assert_eq!(rows1[0].latency.count(), rows1[0].counts.counted());
    assert_eq!(rows4[0].latency.count(), rows4[0].counts.counted());

    let _ = std::fs::remove_dir_all(dir1);
    let _ = std::fs::remove_dir_all(dir4);
}

#[test]
fn series_survives_compaction_and_reopen_with_latency() {
    let (store, now, dir) = fresh_store("compact");
    run_into(&store, 2, "alice");
    now.store(20_000, Ordering::SeqCst);
    run_into(&store, 2, "bob");

    let req = HistoryRequest {
        bucket: 3600,
        by: GroupBy::Tenant,
        ..Default::default()
    };
    // Latency columns included: the merge law makes even the quantiles
    // stable across log rewrites.
    let before = render_table(&history(&store, &req), GroupBy::Tenant, true);
    assert!(
        before.contains("alice") && before.contains("bob"),
        "{before}"
    );

    store.compact().expect("compact");
    let after_compact = render_table(&history(&store, &req), GroupBy::Tenant, true);
    assert_eq!(before, after_compact, "series changed across compaction");

    let reopened = ResultStore::open(dir.join("results.j1")).expect("reopen");
    let after_reopen = render_table(&history(&reopened, &req), GroupBy::Tenant, true);
    assert_eq!(before, after_reopen, "series changed across reopen");

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn window_edges_are_inclusive_and_epoch_zero_joins_first_bucket() {
    let (store, now, dir) = fresh_store("edges");
    // Three submissions at epochs 10_000 / 13_600 / 17_200 — exactly one
    // bucket apart at width 3600, so each boundary is a bucket edge.
    for (epoch, tenant) in [(10_000u64, "t0"), (13_600, "t1"), (17_200, "t2")] {
        now.store(epoch, Ordering::SeqCst);
        let id = store.begin(tenant, "ref", "text").expect("begin");
        store
            .record_cases(
                id,
                &[openacc_vv::validation::CaseResult {
                    name: "loop".to_string(),
                    feature: openacc_vv::prelude::FeatureId::new("loop".to_string()),
                    language: openacc_vv::prelude::Language::C,
                    status: openacc_vv::prelude::TestStatus::Pass,
                    certainty: None,
                    functional_source: String::new(),
                    attempts: 1,
                }],
            )
            .expect("record");
    }

    let count = |since: u64, until: u64| -> u64 {
        let rows = history(
            &store,
            &HistoryRequest {
                bucket: 3600,
                since,
                until,
                by: GroupBy::Tenant,
                ..Default::default()
            },
        );
        rows.iter().map(|r| r.counts.pass).sum()
    };
    // Both window edges are inclusive…
    assert_eq!(count(10_000, 17_200), 3);
    assert_eq!(count(10_001, 17_199), 1, "interior only");
    assert_eq!(
        count(10_000, 10_000),
        1,
        "single-point window keeps its edge row"
    );
    // …and the bucket grid aligns to the absolute epoch, so a shifted
    // window reports the same bucket start for a shared submission.
    let full = history(
        &store,
        &HistoryRequest {
            bucket: 3600,
            by: GroupBy::Tenant,
            ..Default::default()
        },
    );
    let shifted = history(
        &store,
        &HistoryRequest {
            bucket: 3600,
            since: 12_000,
            by: GroupBy::Tenant,
            ..Default::default()
        },
    );
    let bucket_of = |rows: &[openacc_vv::obs::SeriesRow], key: &str| {
        rows.iter().find(|r| r.key == key).map(|r| r.bucket)
    };
    assert_eq!(bucket_of(&full, "t1"), bucket_of(&shifted, "t1"));

    // Epoch-0 rows predate the store's epoch field: any window adopts them
    // into its first bucket rather than dropping history.
    let zero_dir = std::env::temp_dir().join(format!(
        "accvv-history-zero-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&zero_dir).expect("create store dir");
    let zero = ResultStore::open(zero_dir.join("results.j1"))
        .expect("open")
        .with_clock(Arc::new(|| 0));
    let id = zero.begin("old", "ref", "text").expect("begin");
    zero.record_cases(
        id,
        &[openacc_vv::validation::CaseResult {
            name: "loop".to_string(),
            feature: openacc_vv::prelude::FeatureId::new("loop".to_string()),
            language: openacc_vv::prelude::Language::C,
            status: openacc_vv::prelude::TestStatus::Pass,
            certainty: None,
            functional_source: String::new(),
            attempts: 1,
        }],
    )
    .expect("record");
    let rows = history(
        &zero,
        &HistoryRequest {
            bucket: 3600,
            since: 50_000,
            until: 60_000,
            ..Default::default()
        },
    );
    assert_eq!(rows.len(), 1, "epoch-0 row dropped");
    assert_eq!(
        rows[0].bucket, 46_800,
        "first bucket of the window (50_000 aligned down)"
    );

    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir_all(zero_dir);
}

#[test]
fn history_agrees_with_query_before_and_after_compaction() {
    let (store, _, dir) = fresh_store("agree");
    run_into(&store, 2, "alice");

    let agree = |store: &ResultStore| {
        let rows = history(
            store,
            &HistoryRequest {
                by: GroupBy::Feature,
                ..Default::default()
            },
        );
        let query = store.query(&QueryFilter::default());
        assert_eq!(rows.len(), query.len(), "feature sets diverge");
        for q in &query {
            let h = rows
                .iter()
                .find(|r| r.key == q.feature)
                .unwrap_or_else(|| panic!("feature `{}` missing from history", q.feature));
            assert_eq!(
                h.counts.counted(),
                q.total as u64,
                "counted totals diverge for `{}`",
                q.feature
            );
            assert_eq!(
                h.counts.pass + h.counts.flaky,
                q.passed as u64,
                "pass totals diverge for `{}`",
                q.feature
            );
        }
    };
    agree(&store);
    store.compact().expect("compact");
    agree(&store);

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn drift_gate_round_trips_through_baseline_files() {
    let (store, _, dir) = fresh_store("drift");
    run_into(&store, 2, "alice");
    let rows = history(&store, &HistoryRequest::default());
    let baseline = baseline_json(&rows, GroupBy::Profile);
    // A store checked against its own baseline is clean and reports the
    // latency comparisons too (server-style runs record latency).
    let lines = check_drift(&rows, &baseline, &DriftTolerance::default()).expect("clean");
    assert!(!lines.is_empty());
    // Doctoring the baseline upward (the CI negative test does the same
    // with `accvv history --check`) trips the gate.
    let doctored = baseline.replace("\"pass_rate\":", "\"pass_rate\":200.0,\"was\":");
    let err = check_drift(&rows, &doctored, &DriftTolerance::default()).unwrap_err();
    assert!(err.contains("pass-rate regression"), "{err}");

    let _ = std::fs::remove_dir_all(dir);
}
