//! The traced replay: each workload's requests re-run serially and
//! in-process through the layers' public functions, with a span around
//! every call into a layer.
//!
//! The compositions below mirror the product's own call sequences —
//! `accvv run` (`Executor::run_suite_stats` over `harness::run_case_with`),
//! `accvv campaign` (`Campaign::run_one_parallel`), and the server's
//! `run_one` (`SubmissionSpec::from_json` → `ResultStore` → `FileJournal` →
//! `Executor::run_jobs_stats` → `report::render`) — so the replay's output
//! must equal the product's byte for byte, which the traced run checks.

use crate::trace::{count, span};
use acc_compiler::driver::{finish_compile, CompileFailure, FailureKind};
use acc_compiler::exec::{RunKnobs, RunOutcome, RunResult};
use acc_compiler::{CacheStats, CompileCache, Executable, VendorCompiler, VendorId};
use acc_frontend::{sema, ResolvedProgram, Severity};
use acc_harness::{history, HistoryRequest, QueryFilter, ResultStore};
use acc_obs::{json, GroupBy, LatencyCollector};
use acc_spec::envvar::EnvConfig;
use acc_spec::{Language, SpecVersion};
use acc_validation::executor::ATTEMPT_STRIDE;
use acc_validation::report::{self, ReportFormat};
use acc_validation::{
    Campaign, CasePolicy, CaseResult, Certainty, Executor, ExecutorPolicy, FileJournal, JobMeta,
    JournalRecord, JournalSink, SuiteConfig, SuiteRun, TestCase, TestStatus,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Cache lookups made through one or more caches, summed.
#[derive(Debug, Default, Clone, Copy)]
pub struct CacheTotals {
    /// Summed counters.
    pub stats: CacheStats,
    /// Entries (front-end plus executable) held at the end.
    pub entries: usize,
}

impl CacheTotals {
    fn of(cache: &CompileCache) -> CacheTotals {
        CacheTotals {
            stats: cache.stats(),
            entries: cache.frontend_entries() + cache.exec_entries(),
        }
    }

    /// Add another cache's totals.
    pub fn merge(&mut self, other: &CacheTotals) {
        let (s, o) = (&mut self.stats, other.stats);
        s.frontend_hits += o.frontend_hits;
        s.frontend_misses += o.frontend_misses;
        s.exec_hits += o.exec_hits;
        s.exec_misses += o.exec_misses;
        self.entries += other.entries;
    }
}

/// Parse, check and resolve — `driver::frontend_compile` with each pass
/// timed.
fn frontend(
    source: &str,
    language: Language,
) -> Result<(Arc<acc_ast::Program>, Arc<ResolvedProgram>), CompileFailure> {
    count("frontend.calls", 1.0);
    count("frontend.bytes", source.len() as f64);
    let program =
        span("frontend.parse", || acc_frontend::parse(source, language)).map_err(|e| {
            CompileFailure {
                kind: FailureKind::ParseError,
                messages: vec![e.to_string()],
            }
        })?;
    let diags = span("frontend.sema", || {
        sema::analyze(&program, SpecVersion::V1_0)
    });
    let errors: Vec<String> = diags
        .iter()
        .filter(|d| d.severity >= Severity::Error)
        .map(|d| d.to_string())
        .collect();
    if !errors.is_empty() {
        return Err(CompileFailure {
            kind: FailureKind::SemanticError,
            messages: errors,
        });
    }
    let resolved = span("frontend.resolve", || acc_frontend::resolve(&program));
    Ok((Arc::new(program), Arc::new(resolved)))
}

/// `VendorCompiler::compile_shared` through `cache`: the cache spans'
/// self time is the lookup cost, the compute closures are their children.
fn compile(
    compiler: &VendorCompiler,
    cache: &CompileCache,
    source: &str,
    language: Language,
) -> Result<Arc<Executable>, CompileFailure> {
    span("cache.exec", || {
        cache.executable(&compiler.fingerprint(language), source, || {
            let (program, resolved) = span("cache.frontend", || {
                cache.frontend(source, language, SpecVersion::V1_0, || {
                    frontend(source, language)
                })
            })?;
            span("lower", || {
                count("lower.calls", 1.0);
                finish_compile(
                    program,
                    resolved,
                    compiler.profile(language),
                    compiler.vendor.concrete_device(),
                )
            })
        })
    })
}

/// `Executable::run_with_knobs`; a memo hit is a memoized run after which
/// the run memo did not grow. Device counters count executed runs only.
pub fn execute(exe: &Executable, env: &EnvConfig, knobs: RunKnobs) -> RunResult {
    let memo_before = knobs
        .memo
        .then(|| exe.run_memo.lock().expect("run memo poisoned").len());
    let result = span("exec", || exe.run_with_knobs(env, knobs));
    count("exec.calls", 1.0);
    let hit = memo_before.is_some_and(|before| {
        count("exec.memo_lookups", 1.0);
        exe.run_memo.lock().expect("run memo poisoned").len() == before
    });
    if hit {
        count("exec.memo_hits", 1.0);
    } else {
        let m = &result.metrics;
        count("device.kernels", m.kernels_launched as f64);
        count("device.iterations", m.device_iterations as f64);
        count("device.h2d_bytes", m.bytes_to_device as f64);
        count("device.d2h_bytes", m.bytes_to_host as f64);
    }
    result
}

fn passed(outcome: &RunOutcome) -> bool {
    matches!(outcome, RunOutcome::Completed(v) if *v != 0)
}

/// One case: `harness::run_case_with`'s functional → cross → certainty
/// composition, calling each layer through a span.
fn run_case(
    case: &TestCase,
    compiler: &VendorCompiler,
    cache: &CompileCache,
    language: Language,
    policy: &CasePolicy,
) -> CaseResult {
    count("harness.cases", 1.0);
    let mk = |status: TestStatus, certainty: Option<Certainty>, source: String| CaseResult {
        name: case.name.clone(),
        feature: case.feature.clone(),
        language,
        status,
        certainty,
        functional_source: source,
        attempts: 1,
    };
    let knobs = |offset: u64| RunKnobs {
        step_limit: policy.step_limit,
        run_index: policy.run_index_base + offset,
        exec_mode: policy.exec_mode,
        memo: policy.memo,
    };
    if !case.supports(language) {
        return mk(TestStatus::skipped(), None, String::new());
    }
    let source = render(|| Some(case.source_for(language))).expect("the functional test renders");
    let exe = match compile(compiler, cache, &source, language) {
        Ok(exe) => exe,
        Err(e) => return mk(TestStatus::CompileError(e.to_string()), None, source),
    };
    match execute(&exe, &case.env, knobs(0)).outcome {
        RunOutcome::Completed(v) if v != 0 => {}
        RunOutcome::Completed(_) => return mk(TestStatus::WrongResult, None, source),
        RunOutcome::Crash(m) => return mk(TestStatus::Crash(m), None, source),
        RunOutcome::Timeout => return mk(TestStatus::Timeout, None, source),
    }
    let Some(cross_source) = render(|| case.cross_source_for(language)) else {
        return mk(TestStatus::Pass, None, source);
    };
    let Ok(cross_exe) = compile(compiler, cache, &cross_source, language) else {
        return mk(TestStatus::PassInconclusive, None, source);
    };
    let m = case.repetitions.max(1);
    let mut nf = 0;
    if cross_exe.profile.has_transient_faults() {
        for k in 0..m {
            count("harness.cross_runs", 1.0);
            if !passed(&execute(&cross_exe, &case.env, knobs(1 + u64::from(k))).outcome) {
                nf += 1;
            }
        }
    } else {
        count("harness.cross_runs", 1.0);
        if !passed(&execute(&cross_exe, &case.env, knobs(1)).outcome) {
            nf = m;
        }
    }
    let cert = Certainty::new(m, nf);
    if cert.validated() {
        mk(TestStatus::Pass, Some(cert), source)
    } else {
        mk(TestStatus::PassInconclusive, Some(cert), source)
    }
}

/// `TestCase::source_for` / `cross_source_for` under the render span.
fn render(f: impl FnOnce() -> Option<String>) -> Option<String> {
    span("render", || {
        let source = f();
        count("render.calls", 1.0);
        count(
            "render.bytes",
            source.as_ref().map_or(0, String::len) as f64,
        );
        source
    })
}

/// One timed `ResultStore` append.
fn store_append<T>(f: impl FnOnce() -> std::io::Result<T>) -> Result<T, String> {
    count("store.appends", 1.0);
    span("store.append", f).map_err(|e| format!("result store: {e}"))
}

/// The jobs `Executor::run_suite_stats` schedules: case-major,
/// language-minor.
fn jobs(cases: &[TestCase], config: &SuiteConfig) -> (Vec<(usize, Language)>, Vec<JobMeta>) {
    let mut jobs = Vec::new();
    let mut metas = Vec::new();
    for (i, case) in cases.iter().enumerate() {
        for &language in &config.languages {
            jobs.push((i, language));
            metas.push(JobMeta {
                name: case.name.clone(),
                feature: case.feature.clone(),
                language,
            });
        }
    }
    (jobs, metas)
}

/// Run a campaign's cases through `Executor::run_jobs_stats` the way
/// `run_suite_stats` does.
fn run_suite(
    campaign: &Campaign,
    compiler: &VendorCompiler,
    cache: &CompileCache,
    policy: ExecutorPolicy,
) -> SuiteRun {
    let cases = campaign.materialized_cases();
    let (jobs, metas) = jobs(&cases, &campaign.config);
    if let Some(journal) = &policy.journal {
        let languages: Vec<String> = campaign
            .config
            .languages
            .iter()
            .map(|l| l.to_string())
            .collect();
        journal.append(&JournalRecord::Meta {
            scope: compiler.label(),
            total_jobs: metas.len(),
            languages: languages.join("+"),
        });
    }
    let exec_mode = policy.exec_mode;
    let executor = Executor::new(policy);
    let (results, _) = span("executor", || {
        executor.run_jobs_stats(&metas, |index, attempt| {
            count("executor.jobs", 1.0);
            let (case_index, language) = jobs[index];
            let policy = CasePolicy {
                step_limit: None,
                run_index_base: u64::from(attempt) * ATTEMPT_STRIDE,
                exec_mode,
                memo: true,
            };
            span("harness", || {
                run_case(&cases[case_index], compiler, cache, language, &policy)
            })
        })
    });
    SuiteRun {
        compiler: compiler.label(),
        results,
    }
}

fn render_report(run: &SuiteRun, format: ReportFormat) -> String {
    span("report", || {
        count("report.calls", 1.0);
        report::render(run, format)
    })
}

/// `accvv run --vendor V --version X`: returns its stdout and exit code.
pub fn cli_run(
    vendor: VendorId,
    version: acc_spec::version::CompilerVersion,
) -> (String, i32, CacheTotals) {
    span("request", || {
        let suite = span("testsuite", acc_testsuite::full_suite);
        let campaign = Campaign::new(suite);
        let cache = CompileCache::new();
        let compiler = VendorCompiler::new(vendor, version);
        let run = run_suite(&campaign, &compiler, &cache, ExecutorPolicy::new());
        let mut stdout = render_report(&run, ReportFormat::Text);
        let mut hard_failures = 0;
        for &language in &campaign.config.languages {
            let breakdown = run.failure_breakdown(language);
            stdout.push_str(&format!("taxonomy [{language}]: {breakdown}\n"));
            hard_failures += breakdown.total_failures();
        }
        (
            stdout,
            i32::from(hard_failures > 0),
            CacheTotals::of(&cache),
        )
    })
}

/// `accvv campaign --vendor V`: returns its stdout and the per-release
/// runs (so their verdicts can be compared with the product's).
pub fn cli_campaign(vendor: VendorId) -> (String, Vec<SuiteRun>, CacheTotals) {
    span("request", || {
        let suite = span("testsuite", acc_testsuite::full_suite);
        let campaign = Campaign::new(suite);
        let cases = campaign.materialized_cases();
        let cache = CompileCache::new();
        let policy = CasePolicy {
            exec_mode: campaign.config.exec_mode,
            memo: true,
            ..CasePolicy::default()
        };
        let mut stdout = format!(
            "=== {} ===\n{:>10} {:>8} {:>10}\n",
            vendor.name(),
            "version",
            "C %",
            "Fortran %"
        );
        let mut runs = Vec::new();
        for version in vendor.versions() {
            let compiler = VendorCompiler::new(vendor, version);
            let mut results = Vec::new();
            for case in &cases {
                for &language in &campaign.config.languages {
                    results.push(span("harness", || {
                        run_case(case, &compiler, &cache, language, &policy)
                    }));
                }
            }
            let run = SuiteRun {
                compiler: compiler.label(),
                results,
            };
            stdout.push_str(&format!(
                "{:>10} {:>8.1} {:>10.1}\n",
                version.to_string(),
                run.pass_rate(Language::C),
                run.pass_rate(Language::Fortran)
            ));
            runs.push(run);
        }
        stdout.push('\n');
        (stdout, runs, CacheTotals::of(&cache))
    })
}

/// A `JournalSink` that times `FileJournal::append`.
struct TimedJournal(FileJournal);

impl JournalSink for TimedJournal {
    fn append(&self, record: &JournalRecord) {
        span("journal.append", || self.0.append(record));
        count("journal.appends", 1.0);
    }
}

/// The server's state a replay keeps across submissions: one result store,
/// one compile cache, the journal directory.
pub struct Server {
    store: ResultStore,
    cache: CompileCache,
    dir: PathBuf,
}

impl Server {
    /// A fresh store under `dir`.
    pub fn open(dir: &Path) -> Result<Server, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let store =
            ResultStore::open(dir.join("results.j1")).map_err(|e| format!("result store: {e}"))?;
        Ok(Server {
            store,
            cache: CompileCache::new(),
            dir: dir.to_path_buf(),
        })
    }

    /// One `POST /v1/submit` body run to completion; returns the stored
    /// report.
    pub fn submit(&self, body: &str) -> Result<String, String> {
        span("request", || {
            let parsed = json::parse(body).map_err(|e| format!("bad JSON: {e}"))?;
            let spec = acc_server::SubmissionSpec::from_json(&parsed)?;
            let compiler = spec.compiler()?;
            let id = store_append(|| {
                self.store
                    .begin(&spec.tenant, &compiler.label(), spec.format_name())
            })?;
            store_append(|| self.store.set_state(id, "running", ""))?;
            let journal = span("journal.open", || {
                FileJournal::create(self.dir.join(format!("journal-{id}.j1")))
            })
            .map_err(|e| format!("journal: {e}"))?;
            let suite = span("testsuite", acc_testsuite::full_suite);
            let campaign = Campaign::new(suite).with_config(spec.suite_config());
            let latency = LatencyCollector::new();
            let policy = ExecutorPolicy::new()
                .with_exec_mode(spec.exec_mode)
                .with_journal(Arc::new(TimedJournal(journal)))
                .with_latency(latency.clone());
            let run = run_suite(&campaign, &compiler, &self.cache, policy);
            let text = render_report(&run, spec.format);
            store_append(|| self.store.record_cases(id, &run.results))?;
            store_append(|| self.store.record_latency(id, &latency.snapshot()))?;
            store_append(|| self.store.record_report(id, &text))?;
            store_append(|| self.store.set_state(id, "done", ""))?;
            Ok(text)
        })
    }

    /// One `GET /v1/query` plus one `GET /v1/history`.
    pub fn reads(&self) {
        span("request", || {
            span("store.query", || self.store.query(&QueryFilter::default()));
            span("store.query", || {
                history(
                    &self.store,
                    &HistoryRequest {
                        bucket: 3600,
                        since: 0,
                        until: u64::MAX,
                        by: GroupBy::Profile,
                        tenant: String::new(),
                        scope: String::new(),
                    },
                )
            });
        });
    }

    /// The shared cache's totals.
    pub fn cache_totals(&self) -> CacheTotals {
        CacheTotals::of(&self.cache)
    }
}
