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

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use openacc_vv::compiler::VendorId;
use openacc_vv::harness::store::ResultStore;
use openacc_vv::prelude::*;
use openacc_vv::server::{
    run_submission, BreakerDecision, BreakerSet, BreakerState, DrainSummary, RunOptions,
    ServeConfig, Server, SubmissionSpec, MAX_CONNECTIONS,
};

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
        let store_dir = fresh_store_dir(tag);
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
        self.drain.cancel();
        let summary = self
            .handle
            .join()
            .expect("server thread panicked")
            .expect("server run failed");
        let _ = std::fs::remove_dir_all(&self.store_dir);
        summary
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
            let end = rest
                .find([',', '}', ']'])
                .unwrap_or(rest.len());
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
    assert!(matches!(
        set.snapshot()[0].1,
        BreakerState::Open { .. }
    ));
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
    let body = "{\"vendor\":\"reference\",\"lang\":\"c\",\"features\":[\"loop\"],\"deadline_ms\":40}";
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
    let body = "{\"vendor\":\"caps\",\"version\":\"3.0.8\",\"lang\":\"c\",\"features\":[\"data.copy\"]}";

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

/// An interrupted submission's detail names the `accvv run` command that
/// resumes its journal. Every field of the spec that `accvv run` has a
/// flag for is set here, so the command must carry each of them for the
/// resumed report to equal the submission's.
#[test]
fn resume_hint_resumes_the_submission_it_names() {
    let mut spec = SubmissionSpec::new(VendorId::Caps);
    spec.version = Some("3.1.0".parse().unwrap());
    spec.language = Some(Language::Fortran);
    spec.features = vec!["data.copy".to_string(), "loop".to_string()];
    spec.repetitions = Some(2);
    spec.format = ReportFormat::Csv;
    spec.exec_mode = openacc_vv::compiler::ExecMode::Walk;
    spec.case_deadline_ms = Some(600_000);
    let expected = run_submission(&spec, &RunOptions::default())
        .expect("local run")
        .report;

    let dir = fresh_store_dir("resume-hint");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let journal = dir.join("journal-1.j1");
    let out = dir.join("resumed.csv");
    let command = spec.resume_command(&journal);
    let words: Vec<&str> = command.split_whitespace().collect();
    let journal_arg = journal.to_str().expect("temp path is UTF-8");
    assert!(words.starts_with(&["accvv", "run"]), "{command}");
    assert!(words.ends_with(&["--resume", journal_arg]), "{command}");
    let accvv = |args: Vec<&str>| {
        std::process::Command::new(env!("CARGO_BIN_EXE_accvv"))
            .args(args)
            .output()
            .expect("spawn accvv")
    };
    // The submission's run, halted: the journal a drain leaves behind.
    let mut halted = words[1..words.len() - 2].to_vec();
    halted.extend(["--journal", journal_arg, "--halt-after", "3"]);
    assert!(!accvv(halted).status.success(), "{command}");
    // The hint as printed, with the report sent to a file.
    let mut resumed = words[1..].to_vec();
    resumed.extend(["--out", out.to_str().expect("temp path is UTF-8")]);
    let stderr = String::from_utf8_lossy(&accvv(resumed).stderr).into_owned();
    let skipped = "resume skipped 3 completed case(s)";
    assert!(stderr.contains(skipped), "{command}: {stderr}");
    let report = std::fs::read_to_string(&out).expect("resumed report written");
    assert_eq!(report, expected, "{command}");
    let _ = std::fs::remove_dir_all(&dir);
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
        details.iter().filter(|d| d.contains("shared execution")).count(),
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
        gamma
            .header("Content-Type")
            .unwrap_or("")
            .contains("csv"),
        "csv sharer must be served csv"
    );
    assert_ne!(gamma.body, alpha.body, "csv body re-rendered, not copied");

    // The different-engine submission never shared: it ran itself.
    let solo_detail = http(addr, "GET", &format!("/v1/status/{solo_id}"), None)
        .json_field("detail")
        .unwrap_or_default();
    assert_eq!(solo_detail, "", "walk-mode submission must not share a vm run");

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
    assert!(bad_vendor.body.contains("unknown vendor"), "{}", bad_vendor.body);

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
    assert!(before.body.contains("\"by\":\"profile\""), "{}", before.body);
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
    assert!(by_tenant.body.contains("\"key\":\"alice\""), "{}", by_tenant.body);
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
        assert!(metrics.body.contains(needle), "missing `{needle}`:\n{}", metrics.body);
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
    handle.join().expect("second server thread panicked").expect("run");
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
/// admitted id is still queued at the drain), once running.
#[test]
fn drain_racing_submissions_strands_no_admitted_id() {
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
        for id in admitted {
            let state = store.submission(id).expect("admitted id is stored").state;
            assert!(
                ["done", "cancelled", "interrupted"].contains(&state.as_str()),
                "paused={paused}: admitted submission {id} ended `{state}`"
            );
        }
        let _ = std::fs::remove_dir_all(&server.store_dir);
    }
}
