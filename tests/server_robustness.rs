//! Robustness of the campaign server (ISSUE 6).
//!
//! Five obligations are pinned here, over a real listener (`127.0.0.1:0`)
//! with a hand-rolled HTTP client:
//!
//! 1. **Breakers** — a vendor profile's circuit trips after N consecutive
//!    `Infra` verdicts, degrades admission while open, admits one half-open
//!    trial after the cooldown, and closes again on a clean trial.
//! 2. **Load shedding** — once the admission queue is full further
//!    submissions get 429 + `Retry-After`, while every submission that WAS
//!    admitted still runs to completion.
//! 3. **Deadlines & drain** — work whose deadline expired while queued is
//!    cancelled (never run); a drain marks queued-unstarted work cancelled
//!    and the result store still resolves every id after the fact.
//! 4. **Byte identity** — the report served over HTTP (cold cache and warm)
//!    equals the bytes `run_submission` produces with no cache at all.
//! 5. **No timers, bounded threads** — a drain wakes a server blocked in
//!    `accept()`, idle requests answer without waiting out a poll, resume
//!    wakes the blocked scheduler, connections past the cap get 503, and a
//!    drain racing admission never strands an admitted id in `queued`.
//! 6. **Crash-only restart** — the result store is a submission's one
//!    durable record: a server bound to a store finishes every submission
//!    a drained or killed predecessor answered 202 for, resuming from its
//!    stored rows, with the report an uninterrupted run gives.

use std::io::{BufRead as _, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use openacc_vv::compiler::VendorId;
use openacc_vv::harness::store::ResultStore;
use openacc_vv::obs::{self, json};
use openacc_vv::prelude::*;
use openacc_vv::server::{
    run_submission, BreakerDecision, BreakerSet, BreakerState, DrainSummary, RunOptions,
    ServeConfig, Server, SubmissionSpec, MAX_CONNECTIONS,
};
use openacc_vv::validation::CaseResult;

// ---------------------------------------------------------------------------
// Harness: a served instance on an ephemeral port + a raw HTTP/1.1 client
// ---------------------------------------------------------------------------

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn fresh_store_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "accvv-server-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

struct TestServer {
    addr: SocketAddr,
    store_dir: PathBuf,
    drain: std::sync::Arc<openacc_vv::validation::CancelToken>,
    handle: thread::JoinHandle<std::io::Result<DrainSummary>>,
}

impl TestServer {
    fn start(tag: &str, tune: impl FnOnce(&mut ServeConfig)) -> TestServer {
        TestServer::start_on(fresh_store_dir(tag), tune)
    }

    /// A server on `store_dir`, which may hold a previous server's store.
    fn start_on(store_dir: PathBuf, tune: impl FnOnce(&mut ServeConfig)) -> TestServer {
        let mut config = ServeConfig::new(&store_dir);
        config.addr = "127.0.0.1:0".to_string();
        tune(&mut config);
        let server = Server::bind(config).expect("bind ephemeral port");
        let addr = server.local_addr().expect("local addr");
        let drain = server.drain_token();
        let handle = thread::spawn(move || server.run());
        TestServer {
            addr,
            store_dir,
            drain,
            handle,
        }
    }

    fn drain_and_join(self) -> DrainSummary {
        let (summary, store_dir) = self.drain_and_keep();
        let _ = std::fs::remove_dir_all(&store_dir);
        summary
    }

    /// Drain and join, leaving the store directory in place.
    fn drain_and_keep(self) -> (DrainSummary, PathBuf) {
        self.drain.cancel();
        (
            join_within(self.handle, Duration::from_secs(60)),
            self.store_dir,
        )
    }
}

struct HttpReply {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl HttpReply {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Pull `"key":"value"` or `"key":123` out of a flat JSON body. The
    /// server emits no nested objects in the fields these tests read, so a
    /// scan is enough — no parser dependency in the test.
    fn json_field(&self, key: &str) -> Option<String> {
        let needle = format!("\"{key}\":");
        let at = self.body.find(&needle)? + needle.len();
        let rest = &self.body[at..];
        if let Some(stripped) = rest.strip_prefix('"') {
            Some(stripped[..stripped.find('"')?].to_string())
        } else {
            let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
            Some(rest[..end].trim().to_string())
        }
    }
}

fn http(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> HttpReply {
    try_http(addr, method, path, body).unwrap_or_else(|e| panic!("{method} {path}: {e}"))
}

/// One request/response exchange; `Err` when the server is unreachable or
/// closed the connection without a well-formed reply.
fn try_http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<HttpReply> {
    let malformed =
        |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let mut stream = TcpStream::connect(addr)?;
    let body = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: accvv\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, payload) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| malformed("response has no head/body separator"))?;
    let mut lines = head.lines();
    let status: u16 = lines
        .next()
        .and_then(|status_line| status_line.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| malformed("bad status line"))?;
    let headers = lines
        .filter_map(|l| l.split_once(": "))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    Ok(HttpReply {
        status,
        headers,
        body: payload.to_string(),
    })
}

/// A small, fast submission: one feature prefix, one language.
fn small_submission(tenant: &str) -> String {
    format!(
        "{{\"vendor\":\"reference\",\"lang\":\"c\",\"features\":[\"loop\"],\"tenant\":\"{tenant}\"}}"
    )
}

fn poll_state(addr: SocketAddr, id: &str, until: &[&str], timeout: Duration) -> HttpReply {
    let deadline = Instant::now() + timeout;
    loop {
        let reply = http(addr, "GET", &format!("/v1/status/{id}"), None);
        let state = reply.json_field("state").unwrap_or_default();
        if until.contains(&state.as_str()) {
            return reply;
        }
        assert!(
            Instant::now() < deadline,
            "submission {id} stuck in state `{state}` after {timeout:?}"
        );
        thread::sleep(Duration::from_millis(20));
    }
}

// ---------------------------------------------------------------------------
// 1. Circuit breaker state machine (pure, deterministic via explicit clocks)
// ---------------------------------------------------------------------------

#[test]
fn breaker_trips_half_opens_and_recovers() {
    let cooldown = Duration::from_secs(5);
    let set = BreakerSet::new(3, cooldown);
    let t0 = Instant::now();
    let infra = TestStatus::Infra("node fault".into());

    // Closed: everything admitted, no trial flag.
    assert!(matches!(
        set.admit_at("PGI 12.6", t0),
        BreakerDecision::Admit { trial: false }
    ));

    // Two consecutive infra failures: still closed (threshold is 3), and a
    // healthy verdict in between resets the streak.
    set.observe_at("PGI 12.6", [&infra, &infra], t0);
    set.observe_at("PGI 12.6", [&TestStatus::Pass], t0);
    set.observe_at("PGI 12.6", [&infra, &infra], t0);
    assert!(matches!(
        set.admit_at("PGI 12.6", t0),
        BreakerDecision::Admit { trial: false }
    ));
    assert_eq!(set.trips_total(), 0);

    // The third consecutive failure trips the circuit.
    set.observe_at("PGI 12.6", [&infra], t0);
    assert_eq!(set.trips_total(), 1);
    let BreakerDecision::Degraded { reason } = set.admit_at("PGI 12.6", t0) else {
        panic!("open breaker must degrade admission");
    };
    assert!(
        reason.contains("PGI 12.6") && reason.contains("3 consecutive"),
        "degradation reason should name the profile and threshold: {reason}"
    );

    // Other profiles are unaffected: the breaker is per vendor profile.
    assert!(matches!(
        set.admit_at("Cray 8.0", t0),
        BreakerDecision::Admit { trial: false }
    ));

    // After the cooldown, exactly one half-open trial is admitted…
    let later = t0 + cooldown + Duration::from_millis(1);
    assert!(matches!(
        set.admit_at("PGI 12.6", later),
        BreakerDecision::Admit { trial: true }
    ));
    // …and a clean trial closes the circuit again.
    set.observe_at("PGI 12.6", [&TestStatus::Pass, &TestStatus::Pass], later);
    assert!(matches!(
        set.admit_at("PGI 12.6", later),
        BreakerDecision::Admit { trial: false }
    ));
    assert_eq!(set.open_count(), 0);
}

#[test]
fn breaker_half_open_failure_reopens_immediately() {
    let cooldown = Duration::from_secs(5);
    let set = BreakerSet::new(2, cooldown);
    let t0 = Instant::now();
    let infra = TestStatus::Infra("still broken".into());

    set.observe_at("CAPS 3.0.8", [&infra, &infra], t0);
    assert_eq!(set.trips_total(), 1);

    // Half-open trial after the cooldown — but the profile is still sick:
    // ONE infra verdict re-opens it without needing a fresh streak.
    let trial_time = t0 + cooldown + Duration::from_millis(1);
    assert!(matches!(
        set.admit_at("CAPS 3.0.8", trial_time),
        BreakerDecision::Admit { trial: true }
    ));
    set.observe_at("CAPS 3.0.8", [&TestStatus::Pass, &infra], trial_time);
    assert_eq!(set.trips_total(), 2);
    assert!(matches!(
        set.admit_at("CAPS 3.0.8", trial_time),
        BreakerDecision::Degraded { .. }
    ));
    assert_eq!(
        set.snapshot()
            .iter()
            .map(|(_, s, trips)| (s.label(), *trips))
            .collect::<Vec<_>>(),
        vec![("open", 2)]
    );
    // Skipped rows are uncounted everywhere else; the breaker must agree.
    set.observe_at(
        "CAPS 3.0.8",
        [&TestStatus::Skipped(Some("degraded".into()))],
        trial_time,
    );
    assert!(matches!(set.snapshot()[0].1, BreakerState::Open { .. }));
}

// ---------------------------------------------------------------------------
// 2. Load shedding under overload
// ---------------------------------------------------------------------------

#[test]
fn overload_sheds_with_429_while_admitted_work_completes() {
    let server = TestServer::start("shed", |c| {
        c.queue_cap = 2;
        c.retry_after_secs = 7;
    });
    let addr = server.addr;

    // Freeze the scheduler so the queue genuinely fills.
    assert_eq!(http(addr, "POST", "/v1/pause", None).status, 200);

    let mut admitted_ids = Vec::new();
    let mut shed = 0;
    for i in 0..5 {
        let reply = http(
            addr,
            "POST",
            "/v1/submit",
            Some(&small_submission(&format!("tenant-{i}"))),
        );
        match reply.status {
            202 => admitted_ids.push(reply.json_field("id").expect("admitted id")),
            429 => {
                shed += 1;
                assert_eq!(
                    reply.header("Retry-After"),
                    Some("7"),
                    "shed responses must carry the configured Retry-After"
                );
                assert!(reply.body.contains("queue full"), "{}", reply.body);
            }
            other => panic!("submit returned unexpected status {other}: {}", reply.body),
        }
    }
    assert_eq!(admitted_ids.len(), 2, "queue_cap=2 admits exactly two");
    assert_eq!(shed, 3, "everything past the cap is shed");

    // Back-pressure released: every admitted submission still completes.
    assert_eq!(http(addr, "POST", "/v1/resume", None).status, 200);
    for id in &admitted_ids {
        let reply = poll_state(addr, id, &["done"], Duration::from_secs(60));
        assert_eq!(reply.json_field("report_ready").as_deref(), Some("true"));
        let report = http(addr, "GET", &format!("/v1/report/{id}"), None);
        assert_eq!(report.status, 200);
        assert!(report.body.contains("loop"), "report covers the feature");
    }

    let summary = server.drain_and_join();
    assert_eq!(summary.admitted, 2);
    assert_eq!(summary.shed, 3);
    assert_eq!(summary.completed, 2);
    assert_eq!(summary.cancelled, 0);
}

// ---------------------------------------------------------------------------
// 3. Deadlines and graceful drain
// ---------------------------------------------------------------------------

#[test]
fn deadline_expired_while_queued_is_cancelled_not_run() {
    let server = TestServer::start("deadline", |_| {});
    let addr = server.addr;

    assert_eq!(http(addr, "POST", "/v1/pause", None).status, 200);
    let body =
        "{\"vendor\":\"reference\",\"lang\":\"c\",\"features\":[\"loop\"],\"deadline_ms\":40}";
    let reply = http(addr, "POST", "/v1/submit", Some(body));
    assert_eq!(reply.status, 202, "{}", reply.body);
    let id = reply.json_field("id").expect("id");

    // Let the deadline lapse while the scheduler is paused, then release.
    thread::sleep(Duration::from_millis(120));
    assert_eq!(http(addr, "POST", "/v1/resume", None).status, 200);

    let reply = poll_state(addr, &id, &["cancelled"], Duration::from_secs(30));
    assert_eq!(
        reply.json_field("detail").as_deref(),
        Some("deadline expired while queued; not run")
    );
    assert_eq!(
        reply.json_field("cases").as_deref(),
        Some("0"),
        "expired work must never have executed"
    );

    let summary = server.drain_and_join();
    assert_eq!(summary.cancelled, 1);
    assert_eq!(summary.completed, 0);
}

#[test]
fn drain_cancels_queued_work_and_the_store_survives_restart() {
    let server = TestServer::start("drain", |c| c.queue_cap = 4);
    let addr = server.addr;
    let store_path = server.store_dir.join("results.j1");

    assert_eq!(http(addr, "POST", "/v1/pause", None).status, 200);
    let mut ids = Vec::new();
    for i in 0..2 {
        let reply = http(
            addr,
            "POST",
            "/v1/submit",
            Some(&small_submission(&format!("drainer-{i}"))),
        );
        assert_eq!(reply.status, 202, "{}", reply.body);
        ids.push(reply.json_field("id").expect("id").parse::<u64>().unwrap());
    }

    // Drain over HTTP (same path a SIGTERM takes), with the queue still
    // paused: nothing has started, so both submissions are cancelled.
    let reply = http(addr, "POST", "/v1/drain", None);
    assert_eq!(reply.status, 202);
    assert!(reply.body.contains("draining"));
    let summary = server
        .handle
        .join()
        .expect("server thread panicked")
        .expect("server run failed");
    assert_eq!(summary.admitted, 2);
    assert_eq!(summary.cancelled, 2);
    assert_eq!(summary.completed, 0);

    // Every id the server ever returned is resolvable after a restart: a
    // fresh ResultStore replaying the same journal sees the final states.
    let store = ResultStore::open(&store_path).expect("reopen result store");
    for id in ids {
        let sub = store
            .submission(id)
            .unwrap_or_else(|| panic!("submission {id} lost across restart"));
        assert_eq!(sub.state, "cancelled");
        assert_eq!(sub.detail, "server drained before execution");
    }
    let _ = std::fs::remove_dir_all(&server.store_dir);
}

// ---------------------------------------------------------------------------
// 4. Byte identity: the served report IS the one-shot report
// ---------------------------------------------------------------------------

#[test]
fn served_report_matches_run_submission_cold_and_warm() {
    // An early CAPS release so the report includes a bug appendix — the
    // hardest part to keep byte-stable.
    let mut spec = SubmissionSpec::new(VendorId::Caps);
    spec.version = Some("3.0.8".parse().unwrap());
    spec.language = Some(Language::C);
    spec.features = vec!["data.copy".to_string()];
    let expected = run_submission(&spec, &RunOptions::default())
        .expect("local run")
        .report;

    let server = TestServer::start("identity", |c| c.jobs = 2);
    let addr = server.addr;
    let body =
        "{\"vendor\":\"caps\",\"version\":\"3.0.8\",\"lang\":\"c\",\"features\":[\"data.copy\"]}";

    // Cold cache, then warm: the cache must never leak into the bytes.
    for pass in ["cold", "warm"] {
        let reply = http(addr, "POST", "/v1/submit", Some(body));
        assert_eq!(reply.status, 202, "{}", reply.body);
        let id = reply.json_field("id").expect("id");
        poll_state(addr, &id, &["done"], Duration::from_secs(60));
        let report = http(addr, "GET", &format!("/v1/report/{id}"), None);
        assert_eq!(report.status, 200);
        assert_eq!(
            report.body, expected,
            "{pass}-cache served report diverged from the one-shot bytes"
        );
    }

    // The query endpoint aggregates what was stored.
    let query = http(addr, "GET", "/v1/query?scope=CAPS&lang=C", None);
    assert_eq!(query.status, 200);
    assert!(
        query.body.contains("\"pass_rate\":"),
        "query rows expose pass rates: {}",
        query.body
    );

    // A finished submission's journal is gone before its `done` state is
    // visible: the store directory does not grow a file per submission.
    let journals: Vec<String> = std::fs::read_dir(&server.store_dir)
        .expect("store dir")
        .map(|entry| {
            entry
                .expect("entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|name| name.starts_with("journal-"))
        .collect();
    assert!(
        journals.is_empty(),
        "finished journals left behind: {journals:?}"
    );

    let summary = server.drain_and_join();
    assert_eq!(summary.completed, 2);
    assert_eq!(summary.degraded, 0);
}

// ---------------------------------------------------------------------------
// 5. Execution dedup: identical in-flight submissions share one run
// ---------------------------------------------------------------------------

/// Three submissions selecting the identical execution (different tenants
/// and report formats) plus one selecting a different engine are queued
/// while the scheduler is paused. On release, the identical trio must
/// resolve through ONE execution — whichever of them runs first becomes
/// the leader and the other two are served from its results, re-rendered
/// in their own formats — while the odd one out runs on its own.
#[test]
fn identical_inflight_submissions_share_one_execution() {
    let server = TestServer::start("dedup", |c| c.queue_cap = 8);
    let addr = server.addr;
    assert_eq!(http(addr, "POST", "/v1/pause", None).status, 200);

    let trio_bodies = [
        small_submission("alpha"),
        small_submission("beta"),
        "{\"vendor\":\"reference\",\"lang\":\"c\",\"features\":[\"loop\"],\
         \"tenant\":\"gamma\",\"format\":\"csv\"}"
            .to_string(),
    ];
    let solo_body = "{\"vendor\":\"reference\",\"lang\":\"c\",\"features\":[\"loop\"],\
                     \"tenant\":\"delta\",\"exec_mode\":\"walk\"}";
    let mut trio_ids = Vec::new();
    for body in &trio_bodies {
        let reply = http(addr, "POST", "/v1/submit", Some(body));
        assert_eq!(reply.status, 202, "{}", reply.body);
        trio_ids.push(reply.json_field("id").expect("id"));
    }
    let solo = http(addr, "POST", "/v1/submit", Some(solo_body));
    assert_eq!(solo.status, 202, "{}", solo.body);
    let solo_id = solo.json_field("id").expect("id");

    assert_eq!(http(addr, "POST", "/v1/resume", None).status, 200);
    for id in trio_ids.iter().chain([&solo_id]) {
        poll_state(addr, id, &["done"], Duration::from_secs(60));
    }

    // Exactly one of the trio ran (empty detail); the other two were served
    // from its execution and say so.
    let details: Vec<String> = trio_ids
        .iter()
        .map(|id| {
            http(addr, "GET", &format!("/v1/status/{id}"), None)
                .json_field("detail")
                .unwrap_or_default()
        })
        .collect();
    assert_eq!(
        details
            .iter()
            .filter(|d| d.contains("shared execution"))
            .count(),
        2,
        "two of three identical submissions must be shared: {details:?}"
    );
    assert_eq!(
        details.iter().filter(|d| d.is_empty()).count(),
        1,
        "exactly one of the trio is the leader: {details:?}"
    );

    // The two text-format reports are byte-identical regardless of which
    // submission led; the csv sharer got its own format from the shared run.
    let report = |id: &str| http(addr, "GET", &format!("/v1/report/{id}"), None);
    let (alpha, beta, gamma) = (
        report(&trio_ids[0]),
        report(&trio_ids[1]),
        report(&trio_ids[2]),
    );
    assert_eq!(alpha.status, 200);
    assert_eq!(alpha.body, beta.body, "shared text reports diverged");
    assert!(
        gamma.header("Content-Type").unwrap_or("").contains("csv"),
        "csv sharer must be served csv"
    );
    assert_ne!(gamma.body, alpha.body, "csv body re-rendered, not copied");

    // The different-engine submission never shared: it ran itself.
    let solo_detail = http(addr, "GET", &format!("/v1/status/{solo_id}"), None)
        .json_field("detail")
        .unwrap_or_default();
    assert_eq!(
        solo_detail, "",
        "walk-mode submission must not share a vm run"
    );

    let summary = server.drain_and_join();
    assert_eq!(summary.admitted, 4);
    assert_eq!(summary.completed, 4, "sharers still count as completed");
    assert_eq!(summary.shared, 2);
    assert_eq!(summary.cancelled, 0);
}

#[test]
fn report_before_completion_is_409_and_unknown_ids_404() {
    let server = TestServer::start("edges", |_| {});
    let addr = server.addr;

    assert_eq!(http(addr, "POST", "/v1/pause", None).status, 200);
    let reply = http(addr, "POST", "/v1/submit", Some(&small_submission("edge")));
    assert_eq!(reply.status, 202, "{}", reply.body);
    let id = reply.json_field("id").expect("id");

    // Queued, not run: the report is not ready yet.
    let early = http(addr, "GET", &format!("/v1/report/{id}"), None);
    assert_eq!(early.status, 409);
    assert!(early.body.contains("report not ready"), "{}", early.body);

    assert_eq!(http(addr, "GET", "/v1/status/99999", None).status, 404);
    assert_eq!(http(addr, "GET", "/v1/report/99999", None).status, 404);
    assert_eq!(http(addr, "GET", "/v1/status/xyz", None).status, 400);
    // Wrong method on a known path is 405, unknown paths are 404.
    assert_eq!(http(addr, "GET", "/v1/submit", None).status, 405);
    assert_eq!(http(addr, "GET", "/v1/nope", None).status, 404);

    // Malformed and invalid submissions are rejected at admission.
    assert_eq!(http(addr, "POST", "/v1/submit", Some("{nope")).status, 400);
    let bad_vendor = http(addr, "POST", "/v1/submit", Some("{\"vendor\":\"gcc\"}"));
    assert_eq!(bad_vendor.status, 400);
    assert!(
        bad_vendor.body.contains("unknown vendor"),
        "{}",
        bad_vendor.body
    );

    assert_eq!(http(addr, "POST", "/v1/resume", None).status, 200);
    poll_state(addr, &id, &["done"], Duration::from_secs(60));
    server.drain_and_join();
}

// ---------------------------------------------------------------------------
// 6. History endpoint: bucketed series, stable across compaction + restart
// ---------------------------------------------------------------------------

/// `GET /v1/history` folds the store into a bucketed series whose bytes
/// depend only on store contents: compacting the store and restarting the
/// server on the same directory must both serve the identical body. The
/// health and metrics endpoints ride along: per-profile breaker trip
/// counts in `/v1/healthz`, histogram quantiles and per-endpoint HTTP
/// latency in `/metrics`.
#[test]
fn history_survives_compaction_and_restart() {
    let server = TestServer::start("history", |c| c.jobs = 2);
    let addr = server.addr;
    let store_dir = server.store_dir.clone();

    for tenant in ["alice", "bob"] {
        let reply = http(addr, "POST", "/v1/submit", Some(&small_submission(tenant)));
        assert_eq!(reply.status, 202, "{}", reply.body);
        let id = reply.json_field("id").expect("id");
        poll_state(addr, &id, &["done"], Duration::from_secs(60));
    }

    let path = "/v1/history?bucket=3600&by=profile";
    let before = http(addr, "GET", path, None);
    assert_eq!(before.status, 200);
    assert!(
        before.body.contains("\"by\":\"profile\""),
        "{}",
        before.body
    );
    assert!(before.body.contains("\"pass_rate\":"), "{}", before.body);
    assert!(
        before.body.contains("\"p50_us\":"),
        "server runs record per-case latency: {}",
        before.body
    );

    // Parameter validation.
    assert_eq!(http(addr, "GET", "/v1/history?bucket=0", None).status, 400);
    assert_eq!(http(addr, "GET", "/v1/history?by=planet", None).status, 400);
    assert_eq!(
        http(addr, "GET", "/v1/history?since=9&until=3", None).status,
        400
    );
    assert_eq!(http(addr, "POST", "/v1/history", None).status, 405);

    // Tenant grouping and filter agree with the full series.
    let by_tenant = http(addr, "GET", "/v1/history?by=tenant", None);
    assert!(
        by_tenant.body.contains("\"key\":\"alice\""),
        "{}",
        by_tenant.body
    );
    let only_bob = http(addr, "GET", "/v1/history?tenant=bob", None);
    assert!(!only_bob.body.contains("alice"), "{}", only_bob.body);

    // Health exposes per-profile trip counts (zero here — no infra faults).
    let health = http(addr, "GET", "/v1/healthz", None);
    assert!(health.body.contains("\"trips\":0"), "{}", health.body);
    // Metrics expose phase-latency quantiles and per-endpoint HTTP latency,
    // each with HELP/TYPE headers.
    let metrics = http(addr, "GET", "/metrics", None);
    for needle in [
        "# TYPE accvv_http_request_duration_us summary",
        "accvv_http_request_duration_us{path=\"/v1/submit\",quantile=\"0.5\"}",
    ] {
        assert!(
            metrics.body.contains(needle),
            "missing `{needle}`:\n{}",
            metrics.body
        );
    }

    // Compaction rewrites the log; the served series must not move.
    assert_eq!(http(addr, "POST", "/v1/compact", None).status, 200);
    let after_compact = http(addr, "GET", path, None);
    assert_eq!(
        before.body, after_compact.body,
        "history changed across compaction"
    );

    // Query agreement after compaction: same counted totals per scope.
    let query = http(addr, "GET", "/v1/query", None);
    assert!(query.body.contains("\"pass_rate\":"), "{}", query.body);

    // Restart on the same store: drain the first instance (keeping the
    // directory), bind a second, and expect the identical body.
    server.drain.cancel();
    server
        .handle
        .join()
        .expect("server thread panicked")
        .expect("server run failed");
    let mut config = ServeConfig::new(&store_dir);
    config.addr = "127.0.0.1:0".to_string();
    let second = Server::bind(config).expect("rebind on existing store");
    let addr2 = second.local_addr().expect("local addr");
    let drain = second.drain_token();
    let handle = thread::spawn(move || second.run());
    let after_restart = http(addr2, "GET", path, None);
    assert_eq!(
        before.body, after_restart.body,
        "history changed across restart"
    );
    drain.cancel();
    handle
        .join()
        .expect("second server thread panicked")
        .expect("run");
    let _ = std::fs::remove_dir_all(&store_dir);
}

// ---------------------------------------------------------------------------
// 7. Event-driven serving: wake-ups instead of timers, bounded connections
// ---------------------------------------------------------------------------

/// Wait for the server thread to return, failing once `bound` has passed.
fn join_within(
    handle: thread::JoinHandle<std::io::Result<DrainSummary>>,
    bound: Duration,
) -> DrainSummary {
    let deadline = Instant::now() + bound;
    while !handle.is_finished() {
        assert!(
            Instant::now() < deadline,
            "Server::run still running {bound:?} after the drain"
        );
        thread::sleep(Duration::from_millis(1));
    }
    handle
        .join()
        .expect("server thread panicked")
        .expect("server run failed")
}

/// The listener blocks in `accept()`; a drain must still end `run` though
/// no connection ever arrives.
#[test]
fn drain_wakes_a_server_that_never_saw_a_connection() {
    let server = TestServer::start("wake", |_| {});
    server.drain.cancel();
    let summary = join_within(server.handle, Duration::from_secs(2));
    assert_eq!(summary, DrainSummary::default());
    let _ = std::fs::remove_dir_all(&server.store_dir);
}

/// No request waits out a poll interval: a 20 ms accept poll alone would
/// make these 100 requests take 2 s.
#[test]
fn idle_server_answers_100_health_checks_in_under_a_second() {
    let server = TestServer::start("idle", |_| {});
    let addr = server.addr;
    let started = Instant::now();
    for _ in 0..100 {
        assert_eq!(http(addr, "GET", "/v1/healthz", None).status, 200);
    }
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "100 health checks took {took:?}"
    );
    server.drain_and_join();
}

#[test]
fn resume_wakes_the_blocked_scheduler() {
    let server = TestServer::start("resume", |_| {});
    let addr = server.addr;
    assert_eq!(http(addr, "POST", "/v1/pause", None).status, 200);
    let health = http(addr, "GET", "/v1/healthz", None);
    assert_eq!(health.json_field("state").as_deref(), Some("paused"));
    assert_eq!(http(addr, "POST", "/v1/resume", None).status, 200);
    let health = http(addr, "GET", "/v1/healthz", None);
    assert_eq!(health.json_field("state").as_deref(), Some("serving"));

    let reply = http(
        addr,
        "POST",
        "/v1/submit",
        Some(&small_submission("resumed")),
    );
    assert_eq!(reply.status, 202, "{}", reply.body);
    let id = reply.json_field("id").expect("id");
    poll_state(addr, &id, &["done"], Duration::from_secs(30));
    let summary = server.drain_and_join();
    assert_eq!(summary.completed, 1);
}

#[test]
fn connections_past_the_cap_get_503_until_released() {
    let server = TestServer::start("conncap", |c| c.retry_after_secs = 3);
    let addr = server.addr;

    // Cap-many connections that never send a request: each holds a
    // connection thread blocked reading its head.
    let idle: Vec<TcpStream> = (0..MAX_CONNECTIONS)
        .map(|_| TcpStream::connect(addr).expect("connect idle"))
        .collect();
    // Accepted in order, so this one meets the cap.
    let over = http(addr, "GET", "/v1/healthz", None);
    assert_eq!(over.status, 503, "{}", over.body);
    assert_eq!(over.header("Retry-After"), Some("3"));
    assert!(
        over.body.contains("too many open connections"),
        "{}",
        over.body
    );

    // Released connections end their threads; service resumes once they
    // have, and the live gauge returns to this one request.
    drop(idle);
    let deadline = Instant::now() + Duration::from_secs(10);
    let health = loop {
        let reply = http(addr, "GET", "/v1/healthz", None);
        if reply.status == 200 && reply.json_field("connections_live").as_deref() == Some("1") {
            break reply;
        }
        assert!(
            Instant::now() < deadline,
            "connections never released: {} {}",
            reply.status,
            reply.body
        );
        thread::sleep(Duration::from_millis(5));
    };
    let shed: u64 = health
        .json_field("connections_shed")
        .and_then(|v| v.parse().ok())
        .expect("connections_shed in /v1/healthz");
    assert!(shed >= 1, "{}", health.body);

    let metrics = http(addr, "GET", "/metrics", None);
    assert_eq!(metrics.status, 200);
    for needle in [
        "# TYPE accvv_server_connections gauge",
        "accvv_server_connections 1\n",
        "# TYPE accvv_server_connections_shed_total counter",
        &format!("accvv_server_connections_shed_total {shed}\n"),
    ] {
        assert!(
            metrics.body.contains(needle),
            "missing `{needle}`:\n{}",
            metrics.body
        );
    }
    server.drain_and_join();
}

/// A drain racing admission: every id the server answered 202 for must end
/// resolved — run, cancelled while queued, or interrupted mid-run — never
/// stranded in `queued` by a push that landed after the final queue drain.
/// Sixteen submitters keep several requests between the drain check and
/// the push when the drain starts; once with the scheduler paused (every
/// admitted id is still queued at the drain), once running. A server then
/// bound to the same store finishes every interrupted id with the report
/// of an uninterrupted run and one `case` row per job.
#[test]
fn drain_racing_submissions_strands_no_admitted_id() {
    let expected = run_submission(
        &SubmissionSpec::from_json(&json::parse(&small_submission("any")).unwrap()).unwrap(),
        &RunOptions::default(),
    )
    .unwrap();
    for paused in [true, false] {
        let server = TestServer::start("drainrace", |c| c.queue_cap = 1024);
        let addr = server.addr;
        let store_path = server.store_dir.join("results.j1");
        if paused {
            assert_eq!(http(addr, "POST", "/v1/pause", None).status, 200);
        }
        let admitted = std::sync::Mutex::new(Vec::<u64>::new());
        thread::scope(|s| {
            for t in 0..16 {
                let admitted = &admitted;
                s.spawn(move || {
                    let body = small_submission(&format!("racer-{t}"));
                    // Submit until the drain refuses (503) or the server
                    // closes the connection.
                    while let Ok(reply) = try_http(addr, "POST", "/v1/submit", Some(&body)) {
                        match reply.status {
                            202 => {
                                let id = reply.json_field("id").expect("id").parse().unwrap();
                                admitted.lock().unwrap().push(id);
                            }
                            503 => break,
                            other => panic!("submit answered {other}: {}", reply.body),
                        }
                    }
                });
            }
            while admitted.lock().unwrap().len() < 16 {
                thread::yield_now();
            }
            server.drain.cancel();
        });
        let summary = join_within(server.handle, Duration::from_secs(60));
        let admitted = admitted.into_inner().unwrap();
        assert_eq!(summary.admitted, admitted.len() as u64, "paused={paused}");

        let store = ResultStore::open(&store_path).expect("reopen result store");
        let mut interrupted = Vec::new();
        for &id in &admitted {
            let state = store.submission(id).expect("admitted id is stored").state;
            assert!(
                ["done", "cancelled", "interrupted"].contains(&state.as_str()),
                "paused={paused}: admitted submission {id} ended `{state}`"
            );
            if state == "interrupted" {
                interrupted.push(id);
            }
        }
        drop(store);

        let restarted = TestServer::start_on(server.store_dir.clone(), |_| {});
        for id in &interrupted {
            let id = id.to_string();
            poll_state(restarted.addr, &id, &["done"], Duration::from_secs(60));
            let report = http(restarted.addr, "GET", &format!("/v1/report/{id}"), None);
            assert_eq!(
                report.body, expected.report,
                "paused={paused}: resumed {id}"
            );
        }
        let (summary, store_dir) = restarted.drain_and_keep();
        assert_eq!(
            summary.completed,
            interrupted.len() as u64,
            "paused={paused}"
        );
        let store = ResultStore::open(&store_path).expect("reopen result store");
        for id in &interrupted {
            let sub = store.submission(*id).expect("stored");
            assert_eq!(
                by_job(&sub.cases),
                by_job(&expected.run.results),
                "submission {id}"
            );
        }
        let _ = std::fs::remove_dir_all(&store_dir);
    }
}

/// Rows sorted by job (case name, language), to compare a store's rows —
/// appended in the order runs finished them — with a run's.
fn by_job(rows: &[CaseResult]) -> Vec<CaseResult> {
    let mut rows = rows.to_vec();
    rows.sort_by(|a, b| (&a.name, a.language).cmp(&(&b.name, b.language)));
    rows
}

// ---------------------------------------------------------------------------
// 8. Crash-only restart: the store is a submission's one durable record
// ---------------------------------------------------------------------------

/// The submission the restart tests leave unfinished in a store: it sets
/// every spec field that selects what runs or how the report reads.
fn restart_spec() -> SubmissionSpec {
    let mut spec = SubmissionSpec::new(VendorId::Caps);
    spec.version = Some("3.1.0".parse().unwrap());
    spec.language = Some(Language::Fortran);
    spec.features = vec!["data.copy".to_string(), "loop".to_string()];
    spec.repetitions = Some(2);
    spec.format = ReportFormat::Csv;
    spec.exec_mode = ExecMode::Walk;
    spec.deadline_ms = Some(3_600_000);
    spec.case_deadline_ms = Some(600_000);
    spec
}

/// Write submission 1 into a fresh store as a server that stopped would
/// have left it — begun with `spec` (or without one, as an older store
/// holds it), in `state`, with `rows` stored — compact the store when
/// asked, and bind a server on it with telemetry on.
fn restart_with(
    tag: &str,
    spec: Option<&SubmissionSpec>,
    state: &str,
    rows: &[CaseResult],
    compact: bool,
) -> (TestServer, obs::Recorder) {
    let dir = fresh_store_dir(tag);
    std::fs::create_dir_all(&dir).expect("store dir");
    {
        let store = ResultStore::open(dir.join("results.j1")).expect("open store");
        let id = match spec {
            Some(spec) => {
                let scope = spec.compiler().unwrap().label();
                store.begin_with_spec(
                    &spec.tenant,
                    &scope,
                    spec.format_name(),
                    Some(&spec.to_json()),
                )
            }
            None => store.begin("anon", "CAPS 3.1.0", "text"),
        }
        .expect("begin");
        assert_eq!(id, 1);
        if state != "queued" {
            store.set_state(id, "running", "").expect("state");
        }
        store.record_cases(id, rows).expect("cases");
        if state == "interrupted" {
            store
                .set_state(id, "interrupted", "server drained mid-run")
                .expect("state");
        }
        if compact {
            store.compact().expect("compact");
        }
    }
    let recorder = obs::Recorder::enabled();
    let server = TestServer::start_on(dir, |c| c.recorder = recorder.clone());
    (server, recorder)
}

/// The restarted server finishes submission 1 with the report an
/// uninterrupted `run_submission` gives, executing only the jobs that had
/// no stored row, and the store ends with one `case` row per job.
fn assert_finished(
    server: TestServer,
    recorder: &obs::Recorder,
    spec: &SubmissionSpec,
    stored: usize,
) {
    let expected = run_submission(spec, &RunOptions::default()).expect("local run");
    let jobs = expected.run.results.len();
    poll_state(server.addr, "1", &["done"], Duration::from_secs(60));
    let report = http(server.addr, "GET", "/v1/report/1", None);
    assert_eq!(report.body, expected.report);
    let suites: Vec<(Option<i64>, Option<i64>)> = recorder
        .snapshot()
        .iter()
        .filter(|e| e.kind == "suite" && e.ph == obs::Phase::End)
        .map(|e| (e.attr_int("cached"), e.attr_int("executed")))
        .collect();
    assert_eq!(
        suites,
        [(Some(stored as i64), Some((jobs - stored) as i64))]
    );
    let (summary, store_dir) = server.drain_and_keep();
    assert_eq!((summary.admitted, summary.completed), (1, 1));
    let store = ResultStore::open(store_dir.join("results.j1")).expect("reopen store");
    let sub = store.submission(1).expect("stored");
    assert_eq!(sub.spec, Some(spec.to_json()));
    assert_eq!(by_job(&sub.cases), by_job(&expected.run.results));
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn restart_runs_a_submission_stored_queued() {
    let spec = restart_spec();
    for compact in [false, true] {
        let (server, recorder) =
            restart_with("restart-queued", Some(&spec), "queued", &[], compact);
        assert_finished(server, &recorder, &spec, 0);
    }
}

#[test]
fn restart_reruns_a_submission_stored_running_without_rows() {
    let spec = restart_spec();
    for compact in [false, true] {
        let (server, recorder) =
            restart_with("restart-running", Some(&spec), "running", &[], compact);
        assert_finished(server, &recorder, &spec, 0);
    }
}

#[test]
fn restart_resumes_an_interrupted_submission_from_its_stored_rows() {
    let spec = restart_spec();
    let whole = run_submission(&spec, &RunOptions::default()).expect("local run");
    let prefix = &whole.run.results[..whole.run.results.len() / 2];
    assert!(!prefix.is_empty());
    for compact in [false, true] {
        let (server, recorder) = restart_with(
            "restart-interrupted",
            Some(&spec),
            "interrupted",
            prefix,
            compact,
        );
        assert_finished(server, &recorder, &spec, prefix.len());
    }
}

/// A store from before submissions kept their spec holds nothing a server
/// could run: its unfinished row is cancelled, with the reason, instead of
/// reading `running` for good.
#[test]
fn restart_cancels_a_submission_stored_without_its_spec() {
    for compact in [false, true] {
        let (server, recorder) = restart_with("restart-specless", None, "running", &[], compact);
        let status = poll_state(server.addr, "1", &["cancelled"], Duration::from_secs(10));
        let detail = status.json_field("detail").unwrap_or_default();
        assert!(detail.contains("without its spec"), "{detail}");
        assert!(recorder.snapshot().is_empty(), "nothing ran");
        let summary = server.drain_and_join();
        assert_eq!((summary.admitted, summary.cancelled), (0, 1));
    }
}

/// A whole-submission deadline counts from the stored epoch: one that
/// lapsed while no server ran cancels the submission at restart.
#[test]
fn restart_cancels_a_submission_whose_deadline_lapsed_while_down() {
    let dir = fresh_store_dir("restart-lapsed");
    std::fs::create_dir_all(&dir).expect("store dir");
    let mut spec = restart_spec();
    spec.deadline_ms = Some(60_000);
    {
        let store = ResultStore::open(dir.join("results.j1"))
            .expect("open store")
            .with_clock(std::sync::Arc::new(|| 1_000_000_000));
        let scope = spec.compiler().unwrap().label();
        store
            .begin_with_spec(
                &spec.tenant,
                &scope,
                spec.format_name(),
                Some(&spec.to_json()),
            )
            .expect("begin");
    }
    let server = TestServer::start_on(dir, |_| {});
    let status = poll_state(server.addr, "1", &["cancelled"], Duration::from_secs(10));
    let detail = status.json_field("detail").unwrap_or_default();
    assert!(
        detail.contains("deadline expired while the server was down"),
        "{detail}"
    );
    let summary = server.drain_and_join();
    assert_eq!((summary.admitted, summary.cancelled), (0, 1));
}

/// `accvv serve` as a child process on an ephemeral port.
struct ServeProcess {
    child: std::process::Child,
    addr: SocketAddr,
    /// Held open so the server's stderr never meets a closed pipe.
    _stderr: std::io::Lines<std::io::BufReader<std::process::ChildStderr>>,
}

impl ServeProcess {
    fn spawn(store_dir: &Path, queue_cap: &str) -> ServeProcess {
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_accvv"))
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--jobs",
                "1",
                "--queue-cap",
                queue_cap,
            ])
            .arg("--store")
            .arg(store_dir)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn accvv serve");
        let mut stderr = std::io::BufReader::new(child.stderr.take().expect("piped")).lines();
        let banner = stderr
            .next()
            .expect("serve banner")
            .expect("readable stderr");
        let addr = banner
            .split("serving campaigns on http://")
            .nth(1)
            .and_then(|rest| rest.split_once(" (store:"))
            .and_then(|(addr, _)| addr.parse().ok())
            .unwrap_or_else(|| panic!("no address in `{banner}`"));
        ServeProcess {
            child,
            addr,
            _stderr: stderr,
        }
    }

    /// SIGKILL: no drain, no flush — the crash a restart must absorb.
    fn kill(mut self) {
        self.child.kill().expect("SIGKILL accvv serve");
        self.child.wait().expect("reap accvv serve");
    }
}

impl Drop for ServeProcess {
    /// A test that fails leaves no server running.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn submit(addr: SocketAddr, body: &str) -> String {
    let reply = http(addr, "POST", "/v1/submit", Some(body));
    assert_eq!(reply.status, 202, "{}", reply.body);
    reply.json_field("id").expect("id")
}

fn expected_report(body: &str) -> String {
    let spec = SubmissionSpec::from_json(&json::parse(body).unwrap()).unwrap();
    run_submission(&spec, &RunOptions::default())
        .unwrap()
        .report
}

/// `kill -9` of `accvv serve` (a) with two submissions queued behind a
/// pause and (b) mid-run: a server restarted on the same store finishes
/// every id that was answered 202, each report byte-identical to
/// `run_submission`'s for its spec, and writes no file but the store's.
/// The restarted server's queue holds one submission, yet takes both
/// recovered ones: they were answered 202 already.
#[test]
fn killed_server_finishes_every_acknowledged_submission_at_restart() {
    let dir = fresh_store_dir("kill9");
    let server = ServeProcess::spawn(&dir, "8");
    assert_eq!(http(server.addr, "POST", "/v1/pause", None).status, 200);
    let queued = [
        small_submission("kill-a"),
        r#"{"vendor":"caps","version":"3.0.8","lang":"c","features":["data.copy"],"format":"html"}"#
            .to_string(),
    ];
    let ids: Vec<String> = queued
        .iter()
        .map(|body| submit(server.addr, body))
        .collect();
    server.kill();

    let server = ServeProcess::spawn(&dir, "1");
    for (id, body) in ids.iter().zip(&queued) {
        poll_state(server.addr, id, &["done"], Duration::from_secs(60));
        let report = http(server.addr, "GET", &format!("/v1/report/{id}"), None);
        assert_eq!(report.body, expected_report(body), "queued submission {id}");
    }

    // The whole CAPS suite on the walker runs long enough to be caught
    // `running`.
    let long = r#"{"vendor":"caps","version":"3.1.0","features":["data","loop","parallel","kernels"],"exec_mode":"walk"}"#;
    let id = submit(server.addr, long);
    let deadline = Instant::now() + Duration::from_secs(60);
    while http(server.addr, "GET", &format!("/v1/status/{id}"), None).json_field("state")
        != Some("running".to_string())
    {
        assert!(Instant::now() < deadline, "submission {id} never ran");
        thread::sleep(Duration::from_millis(1));
    }
    server.kill();
    let state = ResultStore::open(dir.join("results.j1"))
        .expect("reopen store")
        .submission(id.parse().unwrap())
        .expect("stored")
        .state;
    assert_eq!(state, "running", "the kill did not land mid-run");

    let server = ServeProcess::spawn(&dir, "1");
    poll_state(server.addr, &id, &["done"], Duration::from_secs(60));
    let report = http(server.addr, "GET", &format!("/v1/report/{id}"), None);
    assert_eq!(
        report.body,
        expected_report(long),
        "submission {id} killed mid-run"
    );
    server.kill();

    let files: Vec<String> = std::fs::read_dir(&dir)
        .expect("store dir")
        .map(|entry| {
            entry
                .expect("entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|name| !name.starts_with("results.j1"))
        .collect();
    assert!(files.is_empty(), "files beside the store: {files:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
