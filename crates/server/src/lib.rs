//! # acc-server — the overload-safe campaign server
//!
//! Promotes the validation suite from a one-shot CLI into a long-running
//! service: campaign submissions arrive over HTTP/JSON, are admitted
//! through a bounded multi-tenant queue ([`acc_harness::FairScheduler`]),
//! run on the existing executor against one process-wide compile cache,
//! and land in an indexed append-only [`acc_harness::ResultStore`].
//!
//! Overload machinery, end to end:
//!
//! * **Admission control** — the queue has a hard capacity; a full queue
//!   sheds the submission with `429 Too Many Requests` + `Retry-After`
//!   instead of buffering without bound.
//! * **Fairness** — per-tenant weighted round-robin, so a bulk sweep
//!   cannot starve an interactive tenant.
//! * **Deadlines** — a submission's `deadline_ms` propagates into
//!   [`ExecutorPolicy::with_run_deadline`]; work whose deadline expired
//!   while queued is cancelled, not run.
//! * **Circuit breakers** — per compiler profile ([`breaker`]); a tripped
//!   profile degrades gracefully: every case reports
//!   `Skipped("circuit open …")` immediately.
//! * **Bounded connections** — at most [`MAX_CONNECTIONS`] connection
//!   threads live at once; the accept thread answers the excess with
//!   `503 Service Unavailable` + `Retry-After`.
//! * **Graceful drain** — SIGINT/SIGTERM ([`signal`]), `POST /v1/drain` or
//!   [`Server::drain_token`] stops admission, cancels in-flight work
//!   through the executor's [`CancelToken`] (its verdicts so far are
//!   stored and the submission reads `interrupted`), marks queued work
//!   cancelled, and lets the process exit 0.
//! * **Crash-only restart** — the result store is the one durable record
//!   of a submission: its `sub` row carries the canonical spec
//!   ([`SubmissionSpec::to_json`]) and its `case` rows every verdict.
//!   [`Server::bind`] re-queues each submission a previous server left
//!   `queued`, `running` or `interrupted`, however that server ended, and
//!   runs it through the executor's resume path from its stored rows, so
//!   it executes only the jobs it has no verdict for.
//!
//! Nothing waits on a timer: the listener blocks in `accept()`, the
//! scheduler in [`FairScheduler::pop_wait`], and cancelling the drain token
//! wakes both (see [`Server::run`]).
//!
//! The report a completed submission stores is **byte-identical** to what
//! `accvv run` would have printed for the same parameters — both paths go
//! through [`run_submission`].

#![warn(missing_docs)]

#[cfg(not(unix))]
compile_error!("acc-server needs a Unix platform: its drain wake-up is a Unix socket pair");

pub mod breaker;
pub mod http;
pub mod signal;

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{self, Read as _};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use acc_compiler::{CompileCache, ExecMode, VendorCompiler, VendorId};
use acc_harness::{
    history, FairScheduler, HistoryRequest, PushError, QueryFilter, ResultStore, StoredSubmission,
};
use acc_obs as obs;
use acc_obs::hist::{LatencyCollector, LatencyHist};
use acc_obs::json::{self, Json};
use acc_obs::metrics::{
    render_breakers, render_http_latency, render_prometheus, render_server_metrics, CacheCounters,
    ServerCounters,
};
use acc_obs::series::GroupBy;
use acc_spec::version::CompilerVersion;
use acc_spec::Language;
use acc_testsuite::full_suite;
use acc_validation::report::{self, ReportFormat};
use acc_validation::{
    Campaign, CancelToken, CaseResult, ExecStats, Executor, ExecutorPolicy, JobMeta, Replay,
    SuiteConfig, SuiteRun, TestStatus,
};

pub use breaker::{BreakerDecision, BreakerSet, BreakerState};
use http::{Request, Response};

/// Most connection threads alive at once. A connection past the cap is
/// answered `503` + `Retry-After` by the accept thread itself, so no
/// stream of clients can grow the server's thread count without bound.
/// Campaign clients hold a connection for one short request, so the cap
/// is reached only by clients that open connections and stall.
pub const MAX_CONNECTIONS: usize = 64;

/// Back-off after an `accept()` error other than `EINTR` (e.g. out of
/// file descriptors), so a persistent error cannot spin a core.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(50);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7878` (`…:0` picks a free port).
    pub addr: String,
    /// Worker threads per campaign run (the executor's `--jobs`).
    pub jobs: usize,
    /// Admission-queue capacity; pushes beyond it shed with 429.
    pub queue_cap: usize,
    /// Directory of the result store: `results.j1` and, once compacted,
    /// its generation files. The server writes nothing else there, and a
    /// server bound to the same directory later finishes every submission
    /// this one left unfinished.
    pub store_dir: PathBuf,
    /// Consecutive `Infra` verdicts that trip a profile's breaker.
    pub breaker_threshold: u32,
    /// Cooldown before a tripped breaker admits a half-open trial.
    pub breaker_cooldown: Duration,
    /// `Retry-After` seconds attached to 429 shed responses.
    pub retry_after_secs: u64,
    /// Telemetry recorder shared by every campaign the server runs.
    pub recorder: obs::Recorder,
}

impl ServeConfig {
    /// Defaults: loopback listener, serial executor, small queue.
    pub fn new(store_dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".to_string(),
            jobs: 1,
            queue_cap: 8,
            store_dir: store_dir.into(),
            breaker_threshold: 5,
            breaker_cooldown: Duration::from_secs(30),
            retry_after_secs: 2,
            recorder: obs::Recorder::disabled(),
        }
    }
}

/// One campaign submission, as parsed from `POST /v1/submit`.
///
/// The fields mirror `accvv run`'s flags one-for-one so a stored report is
/// byte-identical to the CLI's output for the same parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmissionSpec {
    /// Submitting tenant (fair-scheduling key). Defaults to `"anon"`.
    pub tenant: String,
    /// Weighted-round-robin weight (items per rotation visit, ≥ 1).
    pub weight: u32,
    /// Compiler vendor under test.
    pub vendor: VendorId,
    /// Specific release; `None` = the vendor's latest.
    pub version: Option<CompilerVersion>,
    /// Restrict to one language; `None` = both C and Fortran.
    pub language: Option<Language>,
    /// Feature-prefix selection; empty = the whole suite.
    pub features: Vec<String>,
    /// Cross-test repetition override.
    pub repetitions: Option<u32>,
    /// Report format.
    pub format: ReportFormat,
    /// Execution engine.
    pub exec_mode: ExecMode,
    /// Whole-submission deadline in milliseconds from admission; expired
    /// work is cancelled, not run.
    pub deadline_ms: Option<u64>,
    /// Per-case wall-clock deadline in milliseconds.
    pub case_deadline_ms: Option<u64>,
}

impl SubmissionSpec {
    /// A default submission for `vendor`: latest release, both languages,
    /// whole suite, text report.
    pub fn new(vendor: VendorId) -> Self {
        SubmissionSpec {
            tenant: "anon".to_string(),
            weight: 1,
            vendor,
            version: None,
            language: None,
            features: Vec::new(),
            repetitions: None,
            format: ReportFormat::Text,
            exec_mode: ExecMode::default(),
            deadline_ms: None,
            case_deadline_ms: None,
        }
    }

    /// Resolve the compiler under test, validating the version against the
    /// vendor's release history (same check and message as the CLI).
    pub fn compiler(&self) -> Result<VendorCompiler, String> {
        match self.version {
            Some(version) => {
                if self.vendor.version_index(version).is_none() {
                    return Err(format!(
                        "{} never released {version}; releases: {}",
                        self.vendor.name(),
                        self.vendor
                            .versions()
                            .iter()
                            .map(|v| v.to_string())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ));
                }
                Ok(VendorCompiler::new(self.vendor, version))
            }
            None => Ok(VendorCompiler::latest(self.vendor)),
        }
    }

    /// The suite configuration this submission selects — the exact
    /// builder-call sequence `accvv run` performs.
    pub fn suite_config(&self) -> SuiteConfig {
        let mut config = SuiteConfig::new();
        if let Some(lang) = self.language {
            config = config.language(lang);
        }
        if !self.features.is_empty() {
            let prefixes: Vec<&str> = self.features.iter().map(String::as_str).collect();
            config = config.select_prefixes(&prefixes);
        }
        if let Some(m) = self.repetitions {
            config = config.with_repetitions(m);
        }
        config.with_exec_mode(self.exec_mode)
    }

    /// True when `other` selects the exact same execution — compiler,
    /// suite selection, repetitions, engine, and per-case deadline — so
    /// one run's results can be recorded under both ids verbatim. Tenant,
    /// weight, report format, and the whole-submission deadline are
    /// scheduling/presentation concerns and deliberately excluded: the
    /// shared run re-renders in each sharer's own format.
    pub fn same_execution(&self, other: &SubmissionSpec) -> bool {
        self.vendor == other.vendor
            && self.version == other.version
            && self.language == other.language
            && self.features == other.features
            && self.repetitions == other.repetitions
            && self.exec_mode == other.exec_mode
            && self.case_deadline_ms == other.case_deadline_ms
    }

    /// The format's CLI name (`text`/`csv`/`html`), as stored.
    pub fn format_name(&self) -> &'static str {
        self.format.name()
    }

    /// The feature selection a list of prefixes makes, as `accvv run
    /// --features` and both JSON forms of `features` read it: each entry
    /// trimmed, empty entries dropped (an empty prefix would select the
    /// whole suite).
    pub fn feature_list<'a>(entries: impl IntoIterator<Item = &'a str>) -> Vec<String> {
        entries
            .into_iter()
            .map(str::trim)
            .filter(|p| !p.is_empty())
            .map(str::to_string)
            .collect()
    }

    /// The canonical JSON of this submission: every field
    /// [`SubmissionSpec::from_json`] reads, in one order, unset options
    /// left out, so `from_json` of it gives this spec back. The server
    /// stores it in the submission's `sub` row to run it again after a
    /// restart.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"tenant\":{},\"weight\":{},\"vendor\":\"{}\"",
            jstr(&self.tenant),
            self.weight,
            self.vendor.name().to_ascii_lowercase()
        );
        if let Some(version) = self.version {
            out += &format!(",\"version\":\"{version}\"");
        }
        if let Some(lang) = self.language {
            out += &format!(",\"lang\":\"{}\"", lang.to_string().to_ascii_lowercase());
        }
        if !self.features.is_empty() {
            let features: Vec<String> = self.features.iter().map(|f| jstr(f)).collect();
            out += &format!(",\"features\":[{}]", features.join(","));
        }
        if let Some(m) = self.repetitions {
            out += &format!(",\"repetitions\":{m}");
        }
        let exec_mode = match self.exec_mode {
            ExecMode::Vm => "vm",
            ExecMode::Walk => "walk",
        };
        out += &format!(
            ",\"format\":\"{}\",\"exec_mode\":\"{exec_mode}\"",
            self.format.name()
        );
        if let Some(ms) = self.deadline_ms {
            out += &format!(",\"deadline_ms\":{ms}");
        }
        if let Some(ms) = self.case_deadline_ms {
            out += &format!(",\"case_deadline_ms\":{ms}");
        }
        out + "}"
    }

    /// Parse a submission from a request body. Validation mirrors the CLI:
    /// unknown fields, unknown vendors/languages/formats, unreleased
    /// versions, zero deadlines and zero repetitions are all rejected with
    /// the reason.
    pub fn from_json(body: &Json) -> Result<Self, String> {
        let Json::Obj(fields) = body else {
            return Err("submission must be a JSON object".to_string());
        };
        // A misspelt field would otherwise widen the run silently, as an
        // unknown flag would for `accvv run`.
        if let Some((key, _)) = fields
            .iter()
            .find(|(k, _)| !SPEC_FIELDS.contains(&k.as_str()))
        {
            return Err(format!(
                "unknown field `{key}` in submission ({})",
                SPEC_FIELDS.join("|")
            ));
        }
        let vendor_name = str_field(body, "vendor")?
            .ok_or("submission requires `vendor` (caps|pgi|cray|reference)")?;
        let vendor = VendorId::from_cli(vendor_name)?;
        let mut spec = SubmissionSpec::new(vendor);
        if let Some(v) = str_field(body, "version")? {
            spec.version = Some(v.parse().map_err(|e| format!("bad `version`: {e}"))?);
        }
        if let Some(t) = str_field(body, "tenant")? {
            if t.is_empty() {
                return Err("`tenant` must not be empty".to_string());
            }
            spec.tenant = t.to_string();
        }
        if let Some(w) = u64_field(body, "weight")? {
            if w == 0 {
                return Err("`weight` must be at least 1".to_string());
            }
            spec.weight = w.min(u64::from(u32::MAX)) as u32;
        }
        if let Some(l) = str_field(body, "lang")? {
            spec.language = Some(Language::from_cli(l)?);
        }
        spec.features = features_field(body)?;
        if let Some(m) = u64_field(body, "repetitions")? {
            if m == 0 {
                return Err("`repetitions` must be at least 1".to_string());
            }
            spec.repetitions = Some(m.min(u64::from(u32::MAX)) as u32);
        }
        if let Some(f) = str_field(body, "format")? {
            spec.format = ReportFormat::from_cli(f)?;
        }
        if let Some(m) = str_field(body, "exec_mode")? {
            spec.exec_mode = ExecMode::from_cli(m)?;
        }
        if let Some(ms) = u64_field(body, "deadline_ms")? {
            if ms == 0 {
                return Err(
                    "`deadline_ms` of 0 is already expired; omit it or give the \
                            submission time to run"
                        .to_string(),
                );
            }
            spec.deadline_ms = Some(ms);
        }
        if let Some(ms) = u64_field(body, "case_deadline_ms")? {
            if ms == 0 {
                return Err(
                    "`case_deadline_ms` of 0 would time out every case before it \
                            starts"
                        .to_string(),
                );
            }
            spec.case_deadline_ms = Some(ms);
        }
        // Validate the version against the release history now, so a bad
        // submission is a 400 at admission instead of a failed run later.
        spec.compiler()?;
        Ok(spec)
    }
}

/// The fields [`SubmissionSpec::from_json`] reads, in
/// [`SubmissionSpec::to_json`]'s order.
const SPEC_FIELDS: [&str; 11] = [
    "tenant",
    "weight",
    "vendor",
    "version",
    "lang",
    "features",
    "repetitions",
    "format",
    "exec_mode",
    "deadline_ms",
    "case_deadline_ms",
];

fn str_field<'a>(obj: &'a Json, key: &str) -> Result<Option<&'a str>, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be a string")),
    }
}

fn u64_field(obj: &Json, key: &str) -> Result<Option<u64>, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => match v.as_i64() {
            Some(n) if n >= 0 => Ok(Some(n as u64)),
            _ => Err(format!("`{key}` must be a non-negative integer")),
        },
    }
}

/// `features` accepts either a JSON array of strings or one
/// comma-separated string (the CLI's `--features` syntax).
fn features_field(obj: &Json) -> Result<Vec<String>, String> {
    match obj.get("features") {
        None | Some(Json::Null) => Ok(Vec::new()),
        Some(Json::Str(s)) => Ok(SubmissionSpec::feature_list(s.split(','))),
        Some(v) => {
            let arr = v
                .as_arr()
                .ok_or("`features` must be an array of strings or a comma-separated string")?;
            let entries = arr
                .iter()
                .map(|e| e.as_str().ok_or("`features` entries must be strings"))
                .collect::<Result<Vec<&str>, _>>()?;
            Ok(SubmissionSpec::feature_list(entries))
        }
    }
}

/// Execution knobs the *server* (not the submitter) controls. None of
/// them is durable: a served submission's one durable record is the
/// result store, whose rows come back as [`RunOptions::stored`] when the
/// submission resumes.
#[derive(Clone, Default)]
pub struct RunOptions {
    /// Worker threads (0 is treated as 1).
    pub jobs: usize,
    /// Shared compile cache, attached to the submission's compiler so its
    /// entries outlive the run; `None` compiles cold.
    pub cache: Option<Arc<CompileCache>>,
    /// Verdicts the submission already has, from a run a drain or a crash
    /// cut short: their jobs are not run again, and their rows stand in
    /// the outcome as stored (the executor's resume path).
    pub stored: Vec<CaseResult>,
    /// Cooperative cancellation (server drain / Ctrl-C).
    pub cancel: Option<Arc<CancelToken>>,
    /// Absolute whole-run deadline.
    pub run_deadline: Option<Instant>,
    /// Telemetry recorder.
    pub recorder: obs::Recorder,
    /// Per-case wall-latency collector. Like the recorder, never affects
    /// results, report bytes, or journal bytes.
    pub latency: Option<LatencyCollector>,
}

/// What one executed submission produced.
pub struct RunOutcome {
    /// The suite run (one row per case × language).
    pub run: SuiteRun,
    /// Executor statistics (cancelled/deadlined/halted flags).
    pub stats: ExecStats,
    /// The rendered report — byte-identical to `accvv run`'s output for
    /// the same submission parameters.
    pub report: String,
}

/// Run one submission. This is the **single execution path** shared by the
/// server and (transitively, same builder-call sequence) the `accvv run`
/// CLI, which is what makes served reports byte-identical to one-shot
/// runs — a resumed one's included, since execution is deterministic.
pub fn run_submission(spec: &SubmissionSpec, opts: &RunOptions) -> Result<RunOutcome, String> {
    let mut compiler = spec.compiler()?;
    if let Some(cache) = &opts.cache {
        // On the compiler, not the campaign: the cache outlives the
        // submission, so later ones hit what this one compiled.
        compiler = compiler.with_cache(Arc::clone(cache));
    }
    let campaign = Campaign::new(full_suite()).with_config(spec.suite_config());
    let mut policy = ExecutorPolicy::new()
        .with_jobs(opts.jobs.max(1))
        .with_recorder(opts.recorder.clone())
        .with_exec_mode(spec.exec_mode);
    if let Some(ms) = spec.case_deadline_ms {
        policy = policy.with_deadline_ms(ms);
    }
    if !opts.stored.is_empty() {
        policy = policy.with_resume(Arc::new(Replay::from_results(opts.stored.iter().cloned())));
    }
    if let Some(cancel) = &opts.cancel {
        policy = policy.with_cancel(Arc::clone(cancel));
    }
    if let Some(deadline) = opts.run_deadline {
        policy = policy.with_run_deadline(deadline);
    }
    if let Some(latency) = &opts.latency {
        policy = policy.with_latency(latency.clone());
    }
    let (run, stats) = Executor::new(policy).run_suite_stats(&campaign, &compiler);
    let report = report::render(&run, spec.format);
    Ok(RunOutcome { run, stats, report })
}

/// Synthesize the run a tripped circuit breaker degrades to: every
/// selected case × language reports `Skipped(reason)` (uncounted, so the
/// degradation never skews pass rates), in the executor's job order.
pub fn degraded_run(spec: &SubmissionSpec, reason: &str) -> Result<SuiteRun, String> {
    let compiler = spec.compiler()?;
    let campaign = Campaign::new(full_suite()).with_config(spec.suite_config());
    let jobs = JobMeta::for_cases(campaign.selected_cases(), &campaign.config.languages);
    let results = jobs
        .into_iter()
        .map(|job| CaseResult {
            name: job.name,
            feature: job.feature,
            language: job.language,
            status: TestStatus::Skipped(Some(reason.to_string())),
            certainty: None,
            functional_source: String::new(),
            attempts: 0,
        })
        .collect();
    Ok(SuiteRun {
        compiler: compiler.label(),
        results,
    })
}

/// Counters accumulated over a server's lifetime, returned by
/// [`Server::run`] after the drain completes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainSummary {
    /// Submissions admitted into the queue, those [`Server::bind`]
    /// recovered from the store included.
    pub admitted: u64,
    /// Submissions shed with 429.
    pub shed: u64,
    /// Submissions that ran to completion.
    pub completed: u64,
    /// Submissions cancelled (deadline expiry, drain) before or mid-run,
    /// or at a restart that could not run them again.
    pub cancelled: u64,
    /// Submissions degraded by an open circuit breaker.
    pub degraded: u64,
    /// Of the completed submissions, how many were served by sharing
    /// another identical in-flight submission's execution instead of
    /// running their own (a subset of `completed`).
    pub shared: u64,
}

impl std::fmt::Display for DrainSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "admitted {}, completed {} ({} shared), degraded {}, cancelled {}, shed {}",
            self.admitted, self.completed, self.shared, self.degraded, self.cancelled, self.shed
        )
    }
}

#[derive(Debug, Default)]
struct Gauges {
    admitted: AtomicU64,
    shed: AtomicU64,
    completed: AtomicU64,
    cancelled: AtomicU64,
    degraded: AtomicU64,
    shared: AtomicU64,
    /// Connection threads alive now. Only the accept thread increments it,
    /// so its check against [`MAX_CONNECTIONS`] cannot race another
    /// increment.
    connections_live: AtomicU64,
    connections_shed: AtomicU64,
}

struct QueuedSubmission {
    spec: SubmissionSpec,
    deadline: Option<Instant>,
}

/// A stored unfinished submission as the queue takes it again, or why it
/// cannot run: its row holds no spec (an older store's), or its
/// whole-submission deadline, counted from its stored epoch, lapsed while
/// no server ran.
fn requeued(sub: &StoredSubmission, now_ms: u64) -> Result<QueuedSubmission, String> {
    let text = sub
        .spec
        .as_deref()
        .ok_or("stored without its spec, so a restarted server cannot run it")?;
    let spec = json::parse(text)
        .and_then(|body| SubmissionSpec::from_json(&body))
        .map_err(|e| format!("stored spec unreadable ({e}); not run"))?;
    let deadline = match spec.deadline_ms {
        None => None,
        Some(ms) => {
            let lapses_ms = sub.epoch.saturating_mul(1000).saturating_add(ms);
            if lapses_ms <= now_ms {
                return Err("deadline expired while the server was down; not run".to_string());
            }
            Some(Instant::now() + Duration::from_millis(lapses_ms - now_ms))
        }
    };
    Ok(QueuedSubmission { spec, deadline })
}

struct ServerInner {
    config: ServeConfig,
    queue: FairScheduler<u64>,
    pending: Mutex<HashMap<u64, QueuedSubmission>>,
    store: ResultStore,
    cache: Arc<CompileCache>,
    breakers: BreakerSet,
    drain: Arc<CancelToken>,
    counters: Gauges,
    /// Request-latency histograms keyed by normalized endpoint path, for
    /// the `/metrics` exposition.
    http_latency: Mutex<BTreeMap<String, LatencyHist>>,
}

impl ServerInner {
    fn summary(&self) -> DrainSummary {
        DrainSummary {
            admitted: self.counters.admitted.load(Ordering::Relaxed),
            shed: self.counters.shed.load(Ordering::Relaxed),
            completed: self.counters.completed.load(Ordering::Relaxed),
            cancelled: self.counters.cancelled.load(Ordering::Relaxed),
            degraded: self.counters.degraded.load(Ordering::Relaxed),
            shared: self.counters.shared.load(Ordering::Relaxed),
        }
    }

    /// Crash-only restart: queue every stored submission that was answered
    /// 202 and never finished — latest state `queued`, `running` or
    /// `interrupted` — in id order under its tenant and weight, past the
    /// queue's capacity; its stored rows make its run a resumed one
    /// ([`RunOptions::stored`]). One that cannot run again is cancelled
    /// with the reason ([`requeued`]).
    fn recover(&self) -> io::Result<()> {
        let now_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);
        let unfinished = |sub: &StoredSubmission| {
            matches!(sub.state.as_str(), "queued" | "running" | "interrupted")
        };
        for sub in self.store.list().into_iter().filter(unfinished) {
            match requeued(&sub, now_ms) {
                Ok(queued) => {
                    let (tenant, weight) = (queued.spec.tenant.clone(), queued.spec.weight);
                    self.pending
                        .lock()
                        .expect("pending lock")
                        .insert(sub.id, queued);
                    self.queue
                        .readmit(&tenant, weight, sub.id)
                        .expect("a server's queue is open until it runs");
                    self.counters.admitted.fetch_add(1, Ordering::Relaxed);
                }
                Err(reason) => {
                    self.counters.cancelled.fetch_add(1, Ordering::Relaxed);
                    self.store.set_state(sub.id, "cancelled", &reason)?;
                }
            }
        }
        Ok(())
    }

    fn server_counters(&self) -> ServerCounters {
        ServerCounters {
            queue_depth: self.queue.len() as u64,
            admitted_total: self.counters.admitted.load(Ordering::Relaxed),
            shed_total: self.counters.shed.load(Ordering::Relaxed),
            completed_total: self.counters.completed.load(Ordering::Relaxed),
            cancelled_total: self.counters.cancelled.load(Ordering::Relaxed),
            degraded_total: self.counters.degraded.load(Ordering::Relaxed),
            shared_total: self.counters.shared.load(Ordering::Relaxed),
            breaker_open: self.breakers.open_count() as u64,
            breaker_trips_total: self.breakers.trips_total(),
            connections_live: self.counters.connections_live.load(Ordering::SeqCst),
            connections_shed_total: self.counters.connections_shed.load(Ordering::Relaxed),
        }
    }
}

/// The campaign server: bound listener plus shared state.
pub struct Server {
    listener: TcpListener,
    inner: Arc<ServerInner>,
}

impl Server {
    /// Bind the listener, open (or create) the result store, and queue
    /// every submission a previous server on the store answered 202 and
    /// left unfinished (see the crate docs' crash-only restart).
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        std::fs::create_dir_all(&config.store_dir)?;
        let store = ResultStore::open(config.store_dir.join("results.j1"))?;
        let listener = TcpListener::bind(&config.addr)?;
        let inner = Arc::new(ServerInner {
            queue: FairScheduler::new(config.queue_cap),
            pending: Mutex::new(HashMap::new()),
            store,
            cache: CompileCache::shared(),
            breakers: BreakerSet::new(config.breaker_threshold, config.breaker_cooldown),
            drain: CancelToken::arc(),
            counters: Gauges::default(),
            http_latency: Mutex::new(BTreeMap::new()),
            config,
        });
        inner.recover()?;
        Ok(Server { listener, inner })
    }

    /// The bound address (useful with `…:0`).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The drain token: cancel it (from a signal handler, another thread,
    /// or `POST /v1/drain`) to begin a graceful shutdown.
    pub fn drain_token(&self) -> Arc<CancelToken> {
        Arc::clone(&self.inner.drain)
    }

    /// The process-wide compile cache every submission shares — grab it
    /// before [`Server::run`] (which consumes the server) to report cache
    /// counters after the drain.
    pub fn cache(&self) -> Arc<CompileCache> {
        Arc::clone(&self.inner.cache)
    }

    /// Serve until the drain token trips, then shut down cleanly: stop
    /// admitting, cancel the in-flight run (its journal makes it
    /// resumable), mark queued-unstarted submissions cancelled, and return
    /// the lifetime counters.
    ///
    /// Three threads block instead of polling: this one in `accept()`, the
    /// scheduler in [`FairScheduler::pop_wait`], and a drain thread reading
    /// the drain token's wake socket. The token's first
    /// [`CancelToken::cancel`] — from a signal handler, `POST /v1/drain` or
    /// any other holder of [`Server::drain_token`] — writes one byte there;
    /// the drain thread then closes the queue (waking the scheduler and
    /// refusing late pushes) and connects to the listener once to wake
    /// `accept()`. Connection threads are scoped: `run` returns only after
    /// every one has finished.
    pub fn run(self) -> io::Result<DrainSummary> {
        let inner = &*self.inner;
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        let cancelled_already = inner.drain.set_wake(wake_tx)?;
        let listen_addr = self.listener.local_addr()?;
        thread::scope(|s| {
            thread::Builder::new()
                .name("accvv-sched".to_string())
                .spawn_scoped(s, || scheduler_loop(inner))?;
            let drain = thread::Builder::new()
                .name("accvv-drain".to_string())
                .spawn_scoped(s, move || {
                    drain_on_wake(inner, wake_rx, cancelled_already, listen_addr)
                });
            if let Err(e) = drain {
                inner.queue.close();
                return Err(e);
            }
            accept_loop(s, &self.listener, inner);
            Ok(())
        })?;
        Ok(inner.summary())
    }
}

/// The drain step every drain source reaches: wait for the drain token's
/// wake byte, then close the queue and wake the blocked `accept()`.
fn drain_on_wake(
    inner: &ServerInner,
    mut wake: UnixStream,
    cancelled_already: bool,
    listen_addr: SocketAddr,
) {
    if !cancelled_already {
        if let Err(e) = wake.read_exact(&mut [0u8]) {
            // Nothing could wake this thread again; drain now rather than
            // leave a server no drain request can stop.
            eprintln!("accvv serve: drain wake socket failed ({e}); draining");
            inner.drain.cancel();
        }
    }
    // Closing the queue together with the cancel is what keeps every 202
    // accounted for: a push after this point fails with `Closed` (503,
    // stored `cancelled`), and one before it is still queued when the
    // scheduler drains the queue.
    inner.queue.close();
    if let Err(e) = TcpStream::connect(loopback(listen_addr)) {
        eprintln!("accvv serve: drain could not wake the listener: {e}");
    }
}

/// Where to connect to reach a listener bound to `addr`: a wildcard bind
/// (`0.0.0.0`, `::`) is reached over loopback.
fn loopback(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

fn accept_loop<'scope>(
    s: &'scope thread::Scope<'scope, '_>,
    listener: &TcpListener,
    inner: &'scope ServerInner,
) {
    let live = &inner.counters.connections_live;
    loop {
        let accepted = listener.accept();
        // The drain step's self-connect lands here; anything accepted once
        // the token has tripped is closed unanswered.
        if inner.drain.is_cancelled() {
            return;
        }
        let stream = match accepted {
            Ok((stream, _peer)) => stream,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => {
                eprintln!("accvv serve: accept: {e}");
                thread::sleep(ACCEPT_ERROR_BACKOFF);
                continue;
            }
        };
        if live.load(Ordering::SeqCst) >= MAX_CONNECTIONS as u64 {
            inner
                .counters
                .connections_shed
                .fetch_add(1, Ordering::Relaxed);
            shed_connection(stream, inner.config.retry_after_secs);
            continue;
        }
        live.fetch_add(1, Ordering::SeqCst);
        let spawned = thread::Builder::new()
            .name("accvv-conn".to_string())
            .spawn_scoped(s, move || {
                let mut stream = stream;
                // Declared after `stream`, so dropped before it: the slot is
                // free by the time the client sees the connection close.
                let _slot = ConnectionSlot(live);
                handle_connection(&mut stream, inner);
            });
        if spawned.is_err() {
            live.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Frees a connection thread's place under [`MAX_CONNECTIONS`] when the
/// thread ends, however it ends.
struct ConnectionSlot<'a>(&'a AtomicU64);

impl Drop for ConnectionSlot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Answer a connection over [`MAX_CONNECTIONS`] on the accept thread
/// without reading its request. Shutting down the write side first sends
/// the client the reply and end-of-stream ahead of the reset that closing
/// with an unread request causes, so the client reads a clean 503.
fn shed_connection(mut stream: TcpStream, retry_after_secs: u64) {
    let _ = error_response(503, "too many open connections; retry later")
        .with_header("Retry-After", retry_after_secs.to_string())
        .write_to(&mut stream);
    let _ = stream.shutdown(Shutdown::Write);
}

fn scheduler_loop(inner: &ServerInner) {
    while let Some(id) = inner.queue.pop_wait() {
        if inner.drain.is_cancelled() {
            // Popped after the cancel but before the drain step closed the
            // queue: it never started, so it is cancelled like the rest.
            cancel_queued(inner, id);
        } else {
            run_one(inner, id);
        }
    }
    for id in inner.queue.drain() {
        cancel_queued(inner, id);
    }
}

/// Queued-but-never-started submissions are cancelled, not silently
/// dropped: the store records why each one never produced a report. Ids no
/// longer pending were already resolved by a shared execution — their
/// stored state stands.
fn cancel_queued(inner: &ServerInner, id: u64) {
    let pending = inner.pending.lock().expect("pending lock").remove(&id);
    if pending.is_none() {
        return;
    }
    inner.counters.cancelled.fetch_add(1, Ordering::Relaxed);
    let _ = inner
        .store
        .set_state(id, "cancelled", "server drained before execution");
}

fn run_one(inner: &ServerInner, id: u64) {
    let queued = inner.pending.lock().expect("pending lock").remove(&id);
    let Some(QueuedSubmission { spec, deadline }) = queued else {
        return;
    };
    let Ok(compiler) = spec.compiler() else {
        // Validated at admission; cannot fail here.
        return;
    };
    let scope = compiler.label();
    if deadline.is_some_and(|d| Instant::now() >= d) {
        inner.counters.cancelled.fetch_add(1, Ordering::Relaxed);
        let _ = inner
            .store
            .set_state(id, "cancelled", "deadline expired while queued; not run");
        return;
    }
    // What a run a drain or a crash cut short already stored.
    let stored = stored_cases(inner, id);
    match inner.breakers.admit(&scope) {
        BreakerDecision::Degraded { reason } => {
            inner.counters.degraded.fetch_add(1, Ordering::Relaxed);
            match degraded_run(&spec, &reason) {
                Ok(run) => {
                    let text = report::render(&run, spec.format);
                    record_new_cases(inner, id, &run.results, &stored);
                    let _ = inner.store.record_report(id, &text);
                    let _ = inner.store.set_state(id, "degraded", &reason);
                }
                Err(e) => {
                    let _ = inner.store.set_state(id, "failed", &e);
                }
            }
            return;
        }
        BreakerDecision::Admit { .. } => {}
    }
    let _ = inner.store.set_state(id, "running", "");
    let latency = LatencyCollector::new();
    let opts = RunOptions {
        jobs: inner.config.jobs,
        cache: Some(Arc::clone(&inner.cache)),
        stored,
        cancel: Some(Arc::clone(&inner.drain)),
        run_deadline: deadline,
        recorder: inner.config.recorder.clone(),
        latency: Some(latency.clone()),
    };
    match run_submission(&spec, &opts) {
        Ok(outcome) => {
            inner
                .breakers
                .observe(&scope, outcome.run.results.iter().map(|r| &r.status));
            record_new_cases(inner, id, &outcome.run.results, &opts.stored);
            // Sharers (below) never record latency — they did not run.
            let _ = inner.store.record_latency(id, &latency.snapshot());
            if outcome.stats.cancelled {
                inner.counters.cancelled.fetch_add(1, Ordering::Relaxed);
                let _ = inner.store.set_state(
                    id,
                    "interrupted",
                    "server drained mid-run; a server restarted on this store resumes it",
                );
            } else if outcome.stats.deadlined {
                inner.counters.cancelled.fetch_add(1, Ordering::Relaxed);
                let _ = inner.store.set_state(
                    id,
                    "cancelled",
                    "deadline expired mid-run; partial verdicts stored",
                );
            } else {
                inner.counters.completed.fetch_add(1, Ordering::Relaxed);
                let _ = inner.store.record_report(id, &outcome.report);
                let _ = inner.store.set_state(id, "done", "");
                share_result(inner, id, &spec, &outcome.run);
            }
        }
        Err(e) => {
            let _ = inner.store.set_state(id, "failed", &e);
        }
    }
}

/// The verdicts `id` already has in the store.
fn stored_cases(inner: &ServerInner, id: u64) -> Vec<CaseResult> {
    inner
        .store
        .submission(id)
        .map(|sub| sub.cases)
        .unwrap_or_default()
}

/// Append the rows of `rows` whose job `stored` has no verdict for — all
/// of them for a fresh submission — so the store keeps one `case` row per
/// job however often a submission resumes.
fn record_new_cases(inner: &ServerInner, id: u64, rows: &[CaseResult], stored: &[CaseResult]) {
    let have: HashSet<(&str, Language)> = stored
        .iter()
        .map(|r| (r.name.as_str(), r.language))
        .collect();
    let new: Vec<CaseResult> = rows
        .iter()
        .filter(|r| !have.contains(&(r.name.as_str(), r.language)))
        .cloned()
        .collect();
    let _ = inner.store.record_cases(id, &new);
}

/// Execution dedup: after `leader`'s run completed cleanly, resolve every
/// still-queued submission that selects the identical execution with the
/// results just produced. The suite is deterministic, so an identical spec
/// yields byte-identical results — each sharer's report is re-rendered in
/// its own format from the shared `SuiteRun`. Sharers stay in the fair
/// queue; when their id is eventually popped, the pending-map miss makes
/// `run_one` a no-op. A sharer whose whole-submission deadline lapsed while
/// queued is cancelled, exactly as if it had been popped.
fn share_result(inner: &ServerInner, leader: u64, spec: &SubmissionSpec, run: &SuiteRun) {
    let sharers: Vec<(u64, QueuedSubmission)> = {
        let mut pending = inner.pending.lock().expect("pending lock");
        let ids: Vec<u64> = pending
            .iter()
            .filter(|(_, q)| q.spec.same_execution(spec))
            .map(|(&sid, _)| sid)
            .collect();
        ids.into_iter()
            .filter_map(|sid| pending.remove(&sid).map(|q| (sid, q)))
            .collect()
    };
    for (sid, q) in sharers {
        if q.deadline.is_some_and(|d| Instant::now() >= d) {
            inner.counters.cancelled.fetch_add(1, Ordering::Relaxed);
            let _ =
                inner
                    .store
                    .set_state(sid, "cancelled", "deadline expired while queued; not run");
            continue;
        }
        let text = report::render(run, q.spec.format);
        record_new_cases(inner, sid, &run.results, &stored_cases(inner, sid));
        let _ = inner.store.record_report(sid, &text);
        inner.counters.completed.fetch_add(1, Ordering::Relaxed);
        inner.counters.shared.fetch_add(1, Ordering::Relaxed);
        let _ = inner.store.set_state(
            sid,
            "done",
            &format!("shared execution with submission {leader}"),
        );
    }
}

fn handle_connection(stream: &mut TcpStream, inner: &ServerInner) {
    let req = match http::read_request(stream) {
        Ok(r) => r,
        Err(http::RequestError::Bad(msg)) => {
            let _ = error_response(400, &msg).write_to(stream);
            return;
        }
        Err(http::RequestError::TooLarge(msg)) => {
            let _ = error_response(413, &msg).write_to(stream);
            return;
        }
        Err(http::RequestError::Io(_)) => return,
    };
    let started = Instant::now();
    let resp = route(inner, &req);
    let elapsed_us = started.elapsed().as_micros() as u64;
    let label = endpoint_label(&req.path);
    if let Ok(mut map) = inner.http_latency.lock() {
        map.entry(label.to_string()).or_default().record(elapsed_us);
    }
    let _ = resp.write_to(stream);
}

/// Collapse per-id paths into one label per endpoint so the metric's
/// cardinality stays bounded no matter how many submissions exist.
fn endpoint_label(path: &str) -> &str {
    if path.starts_with("/v1/status/") {
        "/v1/status"
    } else if path.starts_with("/v1/report/") {
        "/v1/report"
    } else {
        path
    }
}

const KNOWN_PATHS: [&str; 9] = [
    "/v1/submit",
    "/v1/query",
    "/v1/history",
    "/v1/healthz",
    "/v1/pause",
    "/v1/resume",
    "/v1/drain",
    "/v1/compact",
    "/metrics",
];

fn route(inner: &ServerInner, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/submit") => handle_submit(inner, req),
        ("GET", "/v1/query") => handle_query(inner, req),
        ("GET", "/v1/history") => handle_history(inner, req),
        ("GET", "/v1/healthz") => handle_health(inner),
        ("GET", "/metrics") => handle_metrics(inner),
        ("POST", "/v1/pause") => {
            inner.queue.set_paused(true);
            Response::json(200, "{\"state\":\"paused\"}".to_string())
        }
        ("POST", "/v1/resume") => {
            inner.queue.set_paused(false);
            Response::json(200, "{\"state\":\"serving\"}".to_string())
        }
        ("POST", "/v1/drain") => {
            inner.drain.cancel();
            Response::json(202, "{\"state\":\"draining\"}".to_string())
        }
        ("POST", "/v1/compact") => handle_compact(inner),
        ("GET", path) if path.starts_with("/v1/status/") => {
            handle_status(inner, &path["/v1/status/".len()..])
        }
        ("GET", path) if path.starts_with("/v1/report/") => {
            handle_report(inner, &path["/v1/report/".len()..])
        }
        (_, path)
            if KNOWN_PATHS.contains(&path)
                || path.starts_with("/v1/status/")
                || path.starts_with("/v1/report/") =>
        {
            error_response(405, &format!("{} not allowed on {path}", req.method))
        }
        (_, path) => error_response(404, &format!("no such endpoint `{path}`")),
    }
}

fn handle_submit(inner: &ServerInner, req: &Request) -> Response {
    if inner.drain.is_cancelled() {
        return error_response(503, "server is draining; not accepting submissions");
    }
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => return error_response(400, "body is not UTF-8"),
    };
    let parsed = match json::parse(body) {
        Ok(j) => j,
        Err(e) => return error_response(400, &format!("bad JSON: {e}")),
    };
    let spec = match SubmissionSpec::from_json(&parsed) {
        Ok(s) => s,
        Err(e) => return error_response(400, &e),
    };
    let scope = match spec.compiler() {
        Ok(c) => c.label(),
        Err(e) => return error_response(400, &e),
    };
    let deadline = spec
        .deadline_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let id = match inner.store.begin_with_spec(
        &spec.tenant,
        &scope,
        spec.format_name(),
        Some(&spec.to_json()),
    ) {
        Ok(id) => id,
        Err(e) => return error_response(500, &format!("result store: {e}")),
    };
    let tenant = spec.tenant.clone();
    let weight = spec.weight;
    inner
        .pending
        .lock()
        .expect("pending lock")
        .insert(id, QueuedSubmission { spec, deadline });
    match inner.queue.push(&tenant, weight, id) {
        Ok(depth) => {
            inner.counters.admitted.fetch_add(1, Ordering::Relaxed);
            Response::json(
                202,
                format!("{{\"id\":{id},\"state\":\"queued\",\"queue_depth\":{depth}}}"),
            )
        }
        Err(PushError::Full(depth)) => {
            inner.pending.lock().expect("pending lock").remove(&id);
            inner.counters.shed.fetch_add(1, Ordering::Relaxed);
            let _ = inner
                .store
                .set_state(id, "shed", &format!("queue full at depth {depth}"));
            error_response(429, &format!("queue full at depth {depth}; retry later"))
                .with_header("Retry-After", inner.config.retry_after_secs.to_string())
        }
        Err(PushError::Closed) => {
            inner.pending.lock().expect("pending lock").remove(&id);
            let _ = inner
                .store
                .set_state(id, "cancelled", "server draining before admission");
            error_response(503, "server is draining; not accepting submissions")
        }
    }
}

fn handle_status(inner: &ServerInner, id_str: &str) -> Response {
    let Ok(id) = id_str.parse::<u64>() else {
        return error_response(400, "submission id must be an integer");
    };
    let Some(sub) = inner.store.submission(id) else {
        return error_response(404, &format!("no submission {id}"));
    };
    Response::json(
        200,
        format!(
            "{{\"id\":{},\"tenant\":{},\"scope\":{},\"format\":{},\"epoch\":{},\"state\":{},\
             \"detail\":{},\"cases\":{},\"report_ready\":{}}}",
            sub.id,
            jstr(&sub.tenant),
            jstr(&sub.scope),
            jstr(&sub.format),
            sub.epoch,
            jstr(&sub.state),
            jstr(&sub.detail),
            sub.cases.len(),
            sub.report.is_some(),
        ),
    )
}

fn handle_report(inner: &ServerInner, id_str: &str) -> Response {
    let Ok(id) = id_str.parse::<u64>() else {
        return error_response(400, "submission id must be an integer");
    };
    let Some(sub) = inner.store.submission(id) else {
        return error_response(404, &format!("no submission {id}"));
    };
    match sub.report {
        Some(text) => {
            let content_type = match sub.format.as_str() {
                "csv" => "text/csv; charset=utf-8",
                "html" => "text/html; charset=utf-8",
                _ => "text/plain; charset=utf-8",
            };
            Response::text(200, text).with_content_type(content_type)
        }
        None => Response::json(
            409,
            format!(
                "{{\"error\":\"report not ready\",\"id\":{id},\"state\":{}}}",
                jstr(&sub.state)
            ),
        ),
    }
}

/// Parse an epoch-seconds bound query parameter; `Err` carries the 400.
fn epoch_param(req: &Request, name: &str, default: u64) -> Result<u64, Response> {
    match req.query_param(name) {
        None | Some("") => Ok(default),
        Some(raw) => raw.parse().map_err(|_| {
            error_response(
                400,
                &format!("`{name}` must be a non-negative epoch-seconds integer, got {raw:?}"),
            )
        }),
    }
}

fn handle_query(inner: &ServerInner, req: &Request) -> Response {
    let since = match epoch_param(req, "since", 0) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let until = match epoch_param(req, "until", u64::MAX) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    if since > until {
        return error_response(400, "`since` is after `until`: the window is empty");
    }
    let filter = QueryFilter {
        scope: req.query_param("scope").unwrap_or("").to_string(),
        feature: req.query_param("feature").unwrap_or("").to_string(),
        language: req.query_param("lang").unwrap_or("").to_string(),
        tenant: req.query_param("tenant").unwrap_or("").to_string(),
        since,
        until,
    };
    let rows = inner.store.query(&filter);
    let mut body = String::from("{\"rows\":[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"scope\":{},\"lang\":{},\"feature\":{},\"total\":{},\"passed\":{},\
             \"pass_rate\":{:.2}}}",
            jstr(&row.scope),
            jstr(&row.language),
            jstr(&row.feature),
            row.total,
            row.passed,
            row.pass_rate(),
        ));
    }
    body.push_str("]}");
    Response::json(200, body)
}

/// `GET /v1/history`: fold the store into a time-bucketed pass-rate
/// series. `bucket` is the width in seconds (default 3600), `by` the
/// grouping dimension (`profile`|`feature`|`tenant`|`lang`, default
/// `profile`), `since`/`until` the inclusive epoch window, `tenant` and
/// `scope` the usual filters. The series depends only on store contents:
/// it is identical across worker counts, compaction, and restarts.
fn handle_history(inner: &ServerInner, req: &Request) -> Response {
    let since = match epoch_param(req, "since", 0) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let until = match epoch_param(req, "until", u64::MAX) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    if since > until {
        return error_response(400, "`since` is after `until`: the window is empty");
    }
    let bucket = match epoch_param(req, "bucket", 3600) {
        Ok(0) => return error_response(400, "`bucket` must be a positive number of seconds"),
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let by = match req.query_param("by") {
        None | Some("") => GroupBy::Profile,
        Some(raw) => match GroupBy::parse(raw) {
            Some(by) => by,
            None => {
                return error_response(
                    400,
                    &format!("`by` must be profile|feature|tenant|lang, got {raw:?}"),
                )
            }
        },
    };
    let hreq = HistoryRequest {
        bucket,
        since,
        until,
        by,
        tenant: req.query_param("tenant").unwrap_or("").to_string(),
        scope: req.query_param("scope").unwrap_or("").to_string(),
    };
    let rows = history(&inner.store, &hreq);
    let mut body = format!(
        "{{\"bucket\":{bucket},\"by\":\"{}\",\"series\":[",
        by.as_str()
    );
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let c = &row.counts;
        body.push_str(&format!(
            "{{\"bucket\":{},\"key\":{},\"pass\":{},\"flaky\":{},\"fail\":{},\
             \"skip\":{},\"pass_rate\":{:.2}",
            row.bucket,
            jstr(&row.key),
            c.pass,
            c.flaky,
            c.fail,
            c.skip,
            c.pass_rate(),
        ));
        if !row.latency.is_empty() {
            body.push_str(&format!(
                ",\"p50_us\":{},\"p90_us\":{},\"p99_us\":{}",
                row.latency.quantile_us(0.5),
                row.latency.quantile_us(0.9),
                row.latency.quantile_us(0.99),
            ));
        }
        body.push('}');
    }
    body.push_str("]}");
    Response::json(200, body)
}

/// `POST /v1/compact`: rewrite the live result store into a fresh
/// generation and reclaim the dead bytes. Safe at any time — the store
/// lock serializes compaction against in-flight appends, queries are
/// answered from the index and are byte-identical before and after, and a
/// draining server may compact as its last act before shutdown.
fn handle_compact(inner: &ServerInner) -> Response {
    match inner.store.compact() {
        Ok(stats) => Response::json(
            200,
            format!(
                "{{\"generation\":{},\"old_bytes\":{},\"new_bytes\":{},\
                 \"reclaimed_bytes\":{},\"live_submissions\":{}}}",
                stats.generation,
                stats.old_bytes,
                stats.new_bytes,
                stats.old_bytes.saturating_sub(stats.new_bytes),
                stats.live_submissions,
            ),
        ),
        Err(e) => error_response(500, &format!("compaction failed: {e}")),
    }
}

fn handle_health(inner: &ServerInner) -> Response {
    let state = if inner.drain.is_cancelled() {
        "draining"
    } else if inner.queue.is_paused() {
        "paused"
    } else {
        "serving"
    };
    let s = inner.summary();
    let mut breakers = String::from("[");
    for (i, (profile, bstate, trips)) in inner.breakers.snapshot().iter().enumerate() {
        if i > 0 {
            breakers.push(',');
        }
        breakers.push_str(&format!(
            "{{\"profile\":{},\"state\":{},\"trips\":{trips}}}",
            jstr(profile),
            jstr(bstate.label())
        ));
    }
    breakers.push(']');
    Response::json(
        200,
        format!(
            "{{\"state\":\"{state}\",\"queue_depth\":{},\"admitted\":{},\"shed\":{},\
             \"completed\":{},\"shared\":{},\"cancelled\":{},\"degraded\":{},\
             \"connections_live\":{},\"connections_shed\":{},\"breakers\":{breakers}}}",
            inner.queue.len(),
            s.admitted,
            s.shed,
            s.completed,
            s.shared,
            s.cancelled,
            s.degraded,
            inner.counters.connections_live.load(Ordering::SeqCst),
            inner.counters.connections_shed.load(Ordering::Relaxed),
        ),
    )
}

fn handle_metrics(inner: &ServerInner) -> Response {
    let events = inner.config.recorder.snapshot();
    let cache = CacheCounters::from(inner.cache.stats());
    let mut text = render_prometheus(&events, Some(&cache));
    text.push_str(&render_server_metrics(&inner.server_counters()));
    let breakers: Vec<(String, String, u64)> = inner
        .breakers
        .snapshot()
        .into_iter()
        .map(|(profile, state, trips)| (profile, state.label().to_string(), trips))
        .collect();
    text.push_str(&render_breakers(&breakers));
    if let Ok(map) = inner.http_latency.lock() {
        text.push_str(&render_http_latency(&map));
    }
    Response::text(200, text).with_content_type("text/plain; version=0.0.4")
}

fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    json::escape_into(&mut out, s);
    out.push('"');
    out
}

fn error_response(status: u16, message: &str) -> Response {
    Response::json(status, format!("{{\"error\":{}}}", jstr(message)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_spec(body: &str) -> Result<SubmissionSpec, String> {
        SubmissionSpec::from_json(&json::parse(body).expect("valid JSON"))
    }

    #[test]
    fn from_json_parses_a_full_submission() {
        let spec = parse_spec(
            r#"{"vendor":"pgi","version":"13.4","tenant":"alice","weight":3,
                "lang":"c","features":["data.","loop"],"repetitions":5,
                "format":"csv","exec_mode":"walk","deadline_ms":60000,
                "case_deadline_ms":2000}"#,
        )
        .unwrap();
        assert_eq!(spec.vendor, VendorId::Pgi);
        assert_eq!(spec.tenant, "alice");
        assert_eq!(spec.weight, 3);
        assert_eq!(spec.language, Some(Language::C));
        assert_eq!(spec.features, vec!["data.".to_string(), "loop".to_string()]);
        assert_eq!(spec.repetitions, Some(5));
        assert_eq!(spec.format, ReportFormat::Csv);
        assert_eq!(spec.deadline_ms, Some(60_000));
        assert_eq!(spec.case_deadline_ms, Some(2_000));
        assert_eq!(spec.compiler().unwrap().label(), "PGI 13.4");
    }

    #[test]
    fn from_json_accepts_comma_separated_features() {
        let spec = parse_spec(r#"{"vendor":"caps","features":"data., loop"}"#).unwrap();
        assert_eq!(spec.features, vec!["data.".to_string(), "loop".to_string()]);
    }

    /// An empty prefix selects every case, so both JSON forms drop empty
    /// entries, as `accvv run --features` does: `"loop,"` and
    /// `["loop",""]` select the `loop` cases only.
    #[test]
    fn from_json_drops_empty_feature_entries_in_both_forms() {
        for body in [
            r#"{"vendor":"reference","features":"loop,"}"#,
            r#"{"vendor":"reference","features":["loop",""]}"#,
            r#"{"vendor":"reference","features":[" loop "," "]}"#,
        ] {
            let spec = parse_spec(body).unwrap();
            assert_eq!(spec.features, vec!["loop".to_string()], "{body}");
        }
        let spec = parse_spec(r#"{"vendor":"reference","features":["",""]}"#).unwrap();
        assert!(
            spec.features.is_empty(),
            "no prefix left selects the whole suite"
        );
    }

    #[test]
    fn to_json_round_trips_through_from_json() {
        let full = parse_spec(
            r#"{"vendor":"PGI","version":"13.4","tenant":"a \"quoted\"\ttenant","weight":3,
                "lang":"F","features":"data., loop","repetitions":5,"format":"csv",
                "exec_mode":"walk","deadline_ms":60000,"case_deadline_ms":2000}"#,
        )
        .unwrap();
        for spec in [full, SubmissionSpec::new(VendorId::Reference)] {
            let text = spec.to_json();
            let back = SubmissionSpec::from_json(&json::parse(&text).expect("to_json is JSON"))
                .expect("to_json is a valid submission");
            assert_eq!(back, spec, "{text}");
            assert_eq!(back.to_json(), text, "the canonical form is a fixed point");
        }
        assert_eq!(
            SubmissionSpec::new(VendorId::Caps).to_json(),
            r#"{"tenant":"anon","weight":1,"vendor":"caps","format":"text","exec_mode":"vm"}"#
        );
    }

    #[test]
    fn from_json_rejects_bad_inputs_with_reasons() {
        for (body, needle) in [
            (r#"{}"#, "requires `vendor`"),
            (r#"{"vendor":"intel"}"#, "unknown vendor"),
            (r#"{"vendor":"pgi","version":"99.9"}"#, "never released"),
            (r#"{"vendor":"pgi","lang":"cobol"}"#, "unknown language"),
            (r#"{"vendor":"pgi","format":"pdf"}"#, "unknown format"),
            (r#"{"vendor":"pgi","exec_mode":"par"}"#, "unknown exec mode"),
            (
                r#"{"vendor":"pgi","exec_mode":"par:2"}"#,
                "unknown exec mode",
            ),
            (r#"{"vendor":"pgi","weight":0}"#, "`weight`"),
            (r#"{"vendor":"pgi","deadline_ms":0}"#, "`deadline_ms`"),
            (
                r#"{"vendor":"pgi","case_deadline_ms":0}"#,
                "`case_deadline_ms`",
            ),
            (
                r#"{"vendor":"pgi","repetitions":0}"#,
                "`repetitions` must be at least 1",
            ),
            (r#"[1,2]"#, "JSON object"),
            (
                r#"{"vendor":"reference","lang":"c","feature":"loop"}"#,
                "unknown field `feature` in submission",
            ),
        ] {
            let err = parse_spec(body).expect_err(body);
            assert!(err.contains(needle), "{body}: {err}");
        }
    }

    #[test]
    fn same_execution_ignores_scheduling_and_presentation_fields() {
        let a = parse_spec(
            r#"{"vendor":"pgi","version":"13.4","lang":"c","features":["loop"],
                "repetitions":3,"exec_mode":"vm","case_deadline_ms":500,
                "tenant":"alice","weight":9,"format":"csv","deadline_ms":1000}"#,
        )
        .unwrap();
        let mut b = a.clone();
        b.tenant = "bob".to_string();
        b.weight = 1;
        b.format = ReportFormat::Html;
        b.deadline_ms = None;
        assert!(
            a.same_execution(&b) && b.same_execution(&a),
            "tenant, weight, format and whole-submission deadline must not defeat dedup"
        );
        // Every execution-relevant field breaks the match on its own.
        let mut c = a.clone();
        c.version = None;
        assert!(!a.same_execution(&c), "version is execution-relevant");
        let mut c = a.clone();
        c.language = None;
        assert!(!a.same_execution(&c), "language is execution-relevant");
        let mut c = a.clone();
        c.features = vec!["data.".to_string()];
        assert!(
            !a.same_execution(&c),
            "feature selection is execution-relevant"
        );
        let mut c = a.clone();
        c.repetitions = None;
        assert!(!a.same_execution(&c), "repetitions are execution-relevant");
        let mut c = a.clone();
        c.exec_mode = ExecMode::Walk;
        assert!(!a.same_execution(&c), "engine choice is execution-relevant");
        let mut c = a.clone();
        c.case_deadline_ms = None;
        assert!(
            !a.same_execution(&c),
            "per-case deadline is execution-relevant"
        );
    }

    #[test]
    fn degraded_run_skips_every_selected_case() {
        let suite = full_suite();
        let prefix = suite[0].feature.as_str().to_string();
        let mut spec = SubmissionSpec::new(VendorId::Reference);
        spec.features = vec![prefix];
        spec.language = Some(Language::C);
        let run = degraded_run(&spec, "circuit open for test").unwrap();
        assert!(!run.results.is_empty());
        for r in &run.results {
            assert_eq!(
                r.status,
                TestStatus::Skipped(Some("circuit open for test".to_string()))
            );
            assert!(!r.status.counted());
        }
    }

    #[test]
    fn run_submission_reports_are_cache_independent() {
        let suite = full_suite();
        let prefix = suite[0].feature.as_str().to_string();
        let mut spec = SubmissionSpec::new(VendorId::Reference);
        spec.features = vec![prefix];
        spec.language = Some(Language::C);
        let warm = run_submission(
            &spec,
            &RunOptions {
                cache: Some(CompileCache::shared()),
                ..RunOptions::default()
            },
        )
        .unwrap();
        let cold = run_submission(&spec, &RunOptions::default()).unwrap();
        assert_eq!(
            warm.report, cold.report,
            "cache must not change report bytes"
        );
        assert!(!warm.stats.stopped_early());
    }

    /// Stored rows are the executor's resume: their jobs are not run
    /// again, and the report equals the uninterrupted one.
    #[test]
    fn run_submission_resumes_from_stored_rows() {
        let mut spec = SubmissionSpec::new(VendorId::Caps);
        spec.version = Some("3.0.8".parse().unwrap());
        spec.features = vec!["data.copy".to_string(), "loop".to_string()];
        let whole = run_submission(&spec, &RunOptions::default()).unwrap();
        let jobs = whole.run.results.len();
        assert!(jobs > 4);
        // Any subset stands for what a cut-short run stored, not only a
        // prefix: parallel workers finish out of order.
        let stored: Vec<CaseResult> = whole.run.results.iter().step_by(3).cloned().collect();
        let resumed = run_submission(
            &spec,
            &RunOptions {
                jobs: 2,
                stored: stored.clone(),
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(resumed.report, whole.report);
        assert_eq!(resumed.stats.cached, stored.len());
        assert_eq!(resumed.stats.executed, jobs - stored.len());
    }
}
