//! Fault-tolerant campaign executor: panic isolation, watchdog budgets,
//! retry/flake classification, and a bounded worker pool.
//!
//! A validation campaign is only as trustworthy as its weakest
//! infrastructure link: one panicking case, one runaway interpretation, or
//! one transient device fault must not take down — or silently skew — the
//! other several hundred results. This module wraps the per-case harness of
//! [`crate::harness`] in four robustness layers:
//!
//! 1. **Panic isolation** — every attempt runs under
//!    [`std::panic::catch_unwind`]; a panic becomes a
//!    [`TestStatus::Infra`] row carrying the panic message while the rest of
//!    the campaign proceeds untouched.
//! 2. **Watchdog budgets** — a per-case policy combines the interpreter's
//!    step budget (which *guarantees* termination of the single-threaded
//!    machine) with a wall-clock deadline (which reclassifies attempts that
//!    finished but blew their time budget). Both classify as
//!    [`TestStatus::Timeout`].
//! 3. **Retry + flake classification** — failing attempts are retried with
//!    exponential backoff. When the verdict changes across attempts the case
//!    is classified [`TestStatus::Flaky`] and the attempt series is folded
//!    into the paper's certainty machinery ([`Certainty::from_attempts`]:
//!    M = attempts, nf = failing attempts, so `p` is the observed flake
//!    rate).
//! 4. **Bounded worker pool** — work fans out over `jobs` std threads that
//!    claim units from an atomic index (one job in
//!    [`Executor::run_jobs_stats`], one whole case under every release in
//!    [`Executor::run_sweep`]), with results written into index-ordered
//!    slots. Report output is therefore byte-identical for any `jobs` value
//!    on fault-free runs.
//!
//! Every suite run goes through here: `accvv run`, `serve` and `titan`, and
//! the Fig. 8 sweeps behind `accvv campaign` and `matrix`.
//!
//! Determinism note: transient-fault draws in the simulated device are pure
//! functions of (defect seed, program name, run index, event counter) — see
//! `acc_device::profile::transient_fault_fires`. The executor strides the
//! run-index base by [`ATTEMPT_STRIDE`] per attempt, so attempt *k* of a
//! case sees the same faults no matter which worker thread runs it or in
//! what order.

use crate::campaign::{Campaign, SuiteRun};
use crate::case::{TestCase, TestStatus};
use crate::harness::{run_case_with, CaseResult, CasePolicy};
use crate::journal::{JournalRecord, JournalSink, Replay};
use crate::stats::Certainty;
use acc_compiler::exec::ExecMode;
use acc_compiler::{CompileCache, VendorCompiler};
use acc_obs as obs;
use acc_spec::{FeatureId, Language};
use std::any::Any;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
#[cfg(unix)]
use std::{io::Write as _, os::unix::net::UnixStream, sync::atomic::fence, sync::OnceLock};

/// Run-index stride between retry attempts of one case. Each attempt `k`
/// runs with base `k * ATTEMPT_STRIDE`, and within an attempt the harness
/// consumes `1 + repetitions` consecutive indices — so as long as a case
/// runs fewer than this many executions per attempt, attempts draw fully
/// decorrelated (yet deterministic) transient faults.
pub const ATTEMPT_STRIDE: u64 = 1 << 20;

/// A cooperative cancellation flag shared between the party requesting the
/// stop (a SIGINT/SIGTERM handler, a server drain path, a test) and the
/// executors honouring it. [`CancelToken::cancel`] is async-signal-safe
/// and may be called straight from a signal handler: it is one atomic swap
/// and, when a waiter registered a wake socket with
/// [`CancelToken::set_wake`], at most one `write(2)` of one byte to it.
///
/// Cancellation is observed at job-claim boundaries — attempts already in
/// flight finish (and are journaled) before the worker stops, so a
/// cancelled run's journal is always resumable.
#[derive(Debug, Default)]
pub struct CancelToken {
    flag: AtomicBool,
    /// Write end of the waiter's socket pair. Owned by the token, so the
    /// descriptor stays open for as long as anyone can call `cancel`.
    #[cfg(unix)]
    wake: OnceLock<UnixStream>,
}

impl CancelToken {
    /// A fresh, un-tripped token behind an `Arc` (tokens are only useful
    /// shared).
    pub fn arc() -> Arc<Self> {
        Arc::new(CancelToken::default())
    }

    /// Request cancellation. Async-signal-safe: the first call swaps the
    /// flag and writes one byte to the wake socket, if one is registered;
    /// later calls only swap, so the socket's buffer can never fill and the
    /// write never blocks.
    pub fn cancel(&self) {
        if self.flag.swap(true, Ordering::SeqCst) {
            return;
        }
        #[cfg(unix)]
        {
            // Pairs with the fence in `set_wake`: either that call sees the
            // flag, or this one sees the registered socket.
            fence(Ordering::SeqCst);
            if let Some(wake) = self.wake.get() {
                let _ = (&*wake).write(&[1]);
            }
        }
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Register the write end of a socket pair whose other end a thread
    /// blocks reading: the first [`CancelToken::cancel`] writes one byte to
    /// it. Returns whether the token was already cancelled, in which case
    /// no byte may ever arrive and the caller must not wait for one. Fails
    /// if a wake socket is already registered.
    #[cfg(unix)]
    pub fn set_wake(&self, wake: UnixStream) -> std::io::Result<bool> {
        self.wake.set(wake).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                "cancel token already has a wake socket",
            )
        })?;
        fence(Ordering::SeqCst);
        Ok(self.is_cancelled())
    }
}

/// Knobs of the fault-tolerant executor.
#[derive(Clone)]
pub struct ExecutorPolicy {
    /// Worker threads (1 = serial; campaign order is preserved either way).
    pub jobs: usize,
    /// Extra attempts after a failing first attempt.
    pub retries: u32,
    /// Base for the exponential backoff between retries, in milliseconds:
    /// retry `n` sleeps `backoff_base_ms * 2^(n-1)`. 0 disables the sleep.
    pub backoff_base_ms: u64,
    /// Wall-clock deadline per attempt; attempts exceeding it classify as
    /// [`TestStatus::Timeout`]. `None` = no wall-clock watchdog.
    pub case_deadline_ms: Option<u64>,
    /// Interpreter step-budget override; exhaustion classifies as
    /// [`TestStatus::Timeout`]. `None` = the machine default.
    pub step_limit: Option<u64>,
    /// Durable journal sink: every attempt start, attempt verdict, and case
    /// completion is appended (and flushed) before the campaign proceeds.
    pub journal: Option<Arc<dyn JournalSink>>,
    /// Replayed journal state for a resumed campaign: jobs whose (name,
    /// language) appears in `resume.completed` are not re-run — their
    /// journaled result rows are emitted verbatim.
    pub resume: Option<Arc<Replay>>,
    /// Crash simulation for tests and resume drills: stop scheduling new
    /// jobs once this many have been *executed* (cached rows from a resume
    /// don't count). The run reports itself halted; its partial output is
    /// only good for inspecting the journal.
    pub halt_after: Option<usize>,
    /// Cooperative cancellation: once the token trips, workers stop
    /// claiming new jobs (in-flight attempts finish and are journaled) and
    /// the run reports [`ExecStats::cancelled`].
    pub cancel: Option<Arc<CancelToken>>,
    /// Absolute wall-clock deadline for the whole run: once it passes,
    /// workers stop claiming new jobs and the run reports
    /// [`ExecStats::deadlined`]. Distinct from `case_deadline_ms`, which
    /// reclassifies a single slow attempt.
    pub run_deadline: Option<Instant>,
    /// Which engine executes compiled programs (bytecode VM by default;
    /// `walk` selects the tree-walking reference oracle).
    pub exec_mode: ExecMode,
    /// Telemetry collector. Disabled by default; when enabled, the executor
    /// emits suite/case/attempt spans and journal/retry/watchdog events into
    /// it. Never affects results, report bytes, or journal bytes.
    pub recorder: obs::Recorder,
    /// Per-case wall-latency sink. Each executed (non-skipped) case records
    /// its total wall time — all attempts and backoff included — into the
    /// shared histogram. The histogram merge law makes the collected
    /// distribution identical across `jobs` settings; like the recorder, it
    /// never affects results, report bytes, or journal bytes.
    pub latency: Option<obs::LatencyCollector>,
}

impl fmt::Debug for ExecutorPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExecutorPolicy")
            .field("jobs", &self.jobs)
            .field("retries", &self.retries)
            .field("backoff_base_ms", &self.backoff_base_ms)
            .field("case_deadline_ms", &self.case_deadline_ms)
            .field("step_limit", &self.step_limit)
            .field("journal", &self.journal.as_ref().map(|_| "<sink>"))
            .field(
                "resume",
                &self.resume.as_ref().map(|r| r.completed_count()),
            )
            .field("halt_after", &self.halt_after)
            .field(
                "cancel",
                &self.cancel.as_ref().map(|c| c.is_cancelled()),
            )
            .field("run_deadline", &self.run_deadline)
            .field("exec_mode", &self.exec_mode)
            .field("recorder", &self.recorder)
            .field("latency", &self.latency)
            .finish()
    }
}

impl Default for ExecutorPolicy {
    fn default() -> Self {
        ExecutorPolicy {
            jobs: 1,
            retries: 0,
            backoff_base_ms: 0,
            case_deadline_ms: None,
            step_limit: None,
            journal: None,
            resume: None,
            halt_after: None,
            cancel: None,
            run_deadline: None,
            exec_mode: ExecMode::default(),
            recorder: obs::Recorder::disabled(),
            latency: None,
        }
    }
}

impl ExecutorPolicy {
    /// Default policy: serial, no retries, no watchdog overrides.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the worker-thread count.
    ///
    /// # Panics
    /// Rejects `jobs == 0` — a pool with no workers can only deadlock, so
    /// misconfiguration fails loudly at build time instead of hanging a
    /// campaign. (The CLI validates first and turns this into a usage
    /// error.)
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        assert!(jobs >= 1, "ExecutorPolicy: jobs must be at least 1");
        self.jobs = jobs;
        self
    }

    /// Set the retry count.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Set the backoff base in milliseconds.
    pub fn with_backoff_ms(mut self, ms: u64) -> Self {
        self.backoff_base_ms = ms;
        self
    }

    /// Set the per-attempt wall-clock deadline in milliseconds.
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.case_deadline_ms = Some(ms);
        self
    }

    /// Set the interpreter step budget.
    pub fn with_step_limit(mut self, steps: u64) -> Self {
        self.step_limit = Some(steps);
        self
    }

    /// Attach a durable journal sink.
    pub fn with_journal(mut self, journal: Arc<dyn JournalSink>) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Attach replayed journal state; completed cases are skipped.
    pub fn with_resume(mut self, replay: Arc<Replay>) -> Self {
        self.resume = Some(replay);
        self
    }

    /// Select the execution engine (VM or tree walker).
    pub fn with_exec_mode(mut self, mode: ExecMode) -> Self {
        self.exec_mode = mode;
        self
    }

    /// Simulate a crash: stop scheduling after `n` executed jobs.
    pub fn with_halt_after(mut self, n: usize) -> Self {
        self.halt_after = Some(n);
        self
    }

    /// Attach a cooperative cancellation token.
    pub fn with_cancel(mut self, token: Arc<CancelToken>) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Set an absolute wall-clock deadline for the whole run.
    pub fn with_run_deadline(mut self, deadline: Instant) -> Self {
        self.run_deadline = Some(deadline);
        self
    }

    /// Attach a telemetry recorder.
    pub fn with_recorder(mut self, recorder: obs::Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Attach a per-case wall-latency collector.
    pub fn with_latency(mut self, collector: obs::LatencyCollector) -> Self {
        self.latency = Some(collector);
        self
    }
}

/// What actually happened during a (possibly resumed, possibly halted) run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Jobs executed for real this run.
    pub executed: usize,
    /// Jobs satisfied from the replayed journal without re-running.
    pub cached: usize,
    /// Whether the run stopped early because [`ExecutorPolicy::halt_after`]
    /// tripped. A halted run's result list is partial; its journal is the
    /// durable artifact.
    pub halted: bool,
    /// Whether the run stopped early because its
    /// [`ExecutorPolicy::cancel`] token tripped (signal drain, server
    /// shutdown). Like a halt, the journal is the durable artifact.
    pub cancelled: bool,
    /// Whether the run stopped early because
    /// [`ExecutorPolicy::run_deadline`] passed.
    pub deadlined: bool,
}

impl ExecStats {
    /// Did the run stop before scheduling every job, for any reason?
    pub fn stopped_early(&self) -> bool {
        self.halted || self.cancelled || self.deadlined
    }
}

/// Identity of one job in the pool — enough to label a result row even when
/// the attempt itself panicked before producing one.
#[derive(Debug, Clone)]
pub struct JobMeta {
    /// Test name.
    pub name: String,
    /// Feature id.
    pub feature: FeatureId,
    /// Language variant.
    pub language: Language,
}

impl JobMeta {
    /// The jobs a suite run schedules for `cases`, in its order:
    /// case-major, language-minor.
    pub fn for_cases<'c>(
        cases: impl IntoIterator<Item = &'c TestCase>,
        languages: &[Language],
    ) -> Vec<JobMeta> {
        cases
            .into_iter()
            .flat_map(|case| {
                languages.iter().map(|&language| JobMeta {
                    name: case.name.clone(),
                    feature: case.feature.clone(),
                    language,
                })
            })
            .collect()
    }
}

/// The fault-tolerant executor: a policy plus the machinery to apply it.
#[derive(Debug, Clone, Default)]
pub struct Executor {
    /// The knobs in force.
    pub policy: ExecutorPolicy,
}

impl Executor {
    /// Create an executor with the given policy.
    pub fn new(policy: ExecutorPolicy) -> Self {
        Executor { policy }
    }

    /// Run a campaign's selected cases against one compiler release under
    /// this executor's policy, in case-major, language-minor job order.
    pub fn run_suite(&self, campaign: &Campaign, compiler: &VendorCompiler) -> SuiteRun {
        self.run_suite_stats(campaign, compiler).0
    }

    /// [`Executor::run_suite`] plus the run's [`ExecStats`] — the durable
    /// entry point: when the policy carries a journal the run identity is
    /// logged first, and when it carries a resume the stats say how much
    /// work the journal saved. A sweep of one release
    /// ([`Executor::run_sweep`]).
    pub fn run_suite_stats(
        &self,
        campaign: &Campaign,
        compiler: &VendorCompiler,
    ) -> (SuiteRun, ExecStats) {
        let (mut runs, stats) = self.run_sweep(campaign, std::slice::from_ref(compiler));
        (runs.pop().expect("a one-release sweep returns one run"), stats)
    }

    /// Run every selected case of `campaign` under every release of
    /// `compilers`, source-major: the policy's workers claim whole cases
    /// (test executions are independent — each runs in its own simulated
    /// world), and a case runs under each release back to back, in sweep
    /// order, each job through the full robustness stack. A compiler that
    /// carries a cache compiles through it; otherwise, with a campaign
    /// cache, each case compiles through a fresh
    /// [`scoped`](CompileCache::scoped) cache that counts into it, so the
    /// case's parses, images and run memos are shared by exactly the
    /// releases that can reuse them and freed when the case ends.
    ///
    /// Returns one [`SuiteRun`] per release, in sweep order, with its rows
    /// in suite order — the rows, and with telemetry the merged trace, of
    /// one [`Executor::run_suite`] per release — plus the stats summed over
    /// the releases.
    ///
    /// # Panics
    /// When the policy carries a journal or a resume and `compilers` holds
    /// more than one release: a journal keys its jobs by case and language
    /// under one release's scope.
    pub fn run_sweep(
        &self,
        campaign: &Campaign,
        compilers: &[VendorCompiler],
    ) -> (Vec<SuiteRun>, ExecStats) {
        assert!(
            compilers.len() <= 1 || (self.policy.journal.is_none() && self.policy.resume.is_none()),
            "a journal records one release; sweep {} releases without a journal or resume",
            compilers.len()
        );
        // The suite's own cases, borrowed; only a repetitions override,
        // which the cases do not carry, needs copies.
        let materialized;
        let cases = if campaign.config.repetitions.is_some() {
            materialized = campaign.materialized_cases();
            materialized.iter().collect()
        } else {
            campaign.selected_cases()
        };
        let langs = &campaign.config.languages;
        let metas = JobMeta::for_cases(cases.iter().copied(), langs);
        let labels: Vec<String> = compilers.iter().map(VendorCompiler::label).collect();
        // Every release's run ordinal, in sweep order, before any case
        // runs: the trace merges as if the releases had run one by one.
        let runs: Vec<u32> = labels
            .iter()
            .map(|label| self.begin_suite(label, langs, metas.len()))
            .collect();
        let progress = Mutex::new(ExecStats::default());
        // One slot per (release, job), filled as the cases finish.
        let slots = Mutex::new(vec![vec![None; metas.len()]; compilers.len()]);
        self.claim(cases.len(), |ci, worker| {
            let scope = campaign.cache.as_ref().map(|c| Arc::new(c.scoped()));
            for (r, (compiler, &run)) in compilers.iter().zip(&runs).enumerate() {
                let compiler = attach(compiler, scope.as_ref());
                for (li, &lang) in langs.iter().enumerate() {
                    let job = ci * langs.len() + li;
                    let row = self.job(&progress, run, job, worker, &metas[job], |attempt| {
                        let policy = CasePolicy {
                            step_limit: self.policy.step_limit,
                            run_index_base: u64::from(attempt) * ATTEMPT_STRIDE,
                            exec_mode: self.policy.exec_mode,
                            // Releases that cannot tell a source apart repeat
                            // identical runs; the source's memo serves them.
                            memo: true,
                        };
                        run_case_with(cases[ci], &compiler, lang, &policy)
                    });
                    let Some(row) = row else {
                        return false;
                    };
                    slots.lock().expect("sweep slots poisoned")[r][job] = Some(row);
                }
            }
            true
        });
        let stats = progress.into_inner().expect("executor progress poisoned");
        let slots = slots.into_inner().expect("sweep slots poisoned");
        let runs = labels
            .into_iter()
            .zip(runs)
            .zip(slots)
            .map(|((label, run), rows)| {
                let results: Vec<CaseResult> = rows.into_iter().flatten().collect();
                // Only a one-release sweep may resume, so every cached row
                // is this release's.
                self.end_suite(run, &label, results.len() - stats.cached, stats.cached, stats.halted);
                SuiteRun {
                    compiler: label,
                    results,
                }
            })
            .collect();
        (runs, stats)
    }

    /// Allocate a release's run ordinal and emit its PRE `suite` mark (plus
    /// the journal's run identity and the resume's replay count).
    fn begin_suite(&self, label: &str, langs: &[Language], total_jobs: usize) -> u32 {
        let run = self.policy.recorder.begin_run();
        let _pre = obs::scope(&self.policy.recorder, run, obs::PART_PRE, 0, 0);
        obs::mark(
            obs::Phase::Begin,
            "suite",
            label,
            vec![obs::i("total_jobs", total_jobs as i64)],
        );
        if let Some(journal) = &self.policy.journal {
            let languages: Vec<String> = langs.iter().map(|l| l.to_string()).collect();
            journal.append(&JournalRecord::Meta {
                scope: label.to_string(),
                total_jobs,
                languages: languages.join("+"),
            });
            obs::instant("journal", "meta", vec![obs::i("total_jobs", total_jobs as i64)]);
        }
        if let Some(resume) = &self.policy.resume {
            obs::instant(
                "journal",
                "replay",
                vec![obs::i("completed", resume.completed_count() as i64)],
            );
        }
        run
    }

    /// A release's POST `suite` mark, with what its run executed.
    fn end_suite(&self, run: u32, label: &str, executed: usize, cached: usize, halted: bool) {
        let _post = obs::scope(&self.policy.recorder, run, obs::PART_POST, 0, 0);
        obs::mark(
            obs::Phase::End,
            "suite",
            label,
            vec![
                obs::i("executed", executed as i64),
                obs::i("cached", cached as i64),
                obs::i("halted", halted as i64),
            ],
        );
    }

    /// Run `metas.len()` jobs through the pool, where `run_attempt(index,
    /// attempt)` produces one attempt's result. This is the generic entry
    /// point the robustness tests use to inject panics, stalls and flaky
    /// verdicts without a real compiler in the loop.
    pub fn run_jobs_with<F>(&self, metas: &[JobMeta], run_attempt: F) -> Vec<CaseResult>
    where
        F: Fn(usize, u32) -> CaseResult + Sync,
    {
        self.run_jobs_stats(metas, run_attempt).0
    }

    /// [`Executor::run_jobs_with`] plus [`ExecStats`]. Jobs found complete
    /// in the replayed journal are emitted from cache without re-running;
    /// a tripped `halt_after` stops scheduling (the returned list is then
    /// partial — in slot order, with unfinished slots elided).
    pub fn run_jobs_stats<F>(&self, metas: &[JobMeta], run_attempt: F) -> (Vec<CaseResult>, ExecStats)
    where
        F: Fn(usize, u32) -> CaseResult + Sync,
    {
        let run = self.policy.recorder.begin_run();
        let progress = Mutex::new(ExecStats::default());
        let slots = Mutex::new(vec![None; metas.len()]);
        self.claim(metas.len(), |i, worker| {
            let row = self.job(&progress, run, i, worker, &metas[i], |attempt| {
                run_attempt(i, attempt)
            });
            let Some(row) = row else {
                return false;
            };
            slots.lock().expect("executor slots poisoned")[i] = Some(row);
            true
        });
        let rows = slots.into_inner().expect("executor slots poisoned");
        let stats = progress.into_inner().expect("executor progress poisoned");
        (rows.into_iter().flatten().collect(), stats)
    }

    /// The one claim loop: the policy's workers claim unit indices
    /// `0..units` in order from an atomic counter, and `unit(index,
    /// worker)` runs one, returning `false` once the run must stop. One
    /// worker runs on the calling thread.
    fn claim<U>(&self, units: usize, unit: U)
    where
        U: Fn(usize, u32) -> bool + Sync,
    {
        let next = AtomicUsize::new(0);
        let work = |worker: u32| loop {
            let u = next.fetch_add(1, Ordering::SeqCst);
            if u >= units || !unit(u, worker) {
                break;
            }
        };
        match self.policy.jobs.clamp(1, units.max(1)) {
            1 => work(0),
            workers => std::thread::scope(|s| {
                for worker in 0..workers as u32 {
                    let work = &work;
                    s.spawn(move || work(worker));
                }
            }),
        }
    }

    /// Whether the run must stop claiming jobs: a tripped halt budget, a
    /// cancelled token, or an expired run deadline, each recorded in
    /// `progress`. In-flight attempts still finish and journal.
    fn should_stop(&self, progress: &Mutex<ExecStats>) -> bool {
        let mut p = progress.lock().expect("executor progress poisoned");
        if self.policy.halt_after.is_some_and(|h| p.executed >= h) {
            p.halted = true;
        } else if self.policy.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
            p.cancelled = true;
        } else if self.policy.run_deadline.is_some_and(|d| Instant::now() >= d) {
            p.deadlined = true;
        }
        p.stopped_early()
    }

    /// One job under its telemetry scope, or `None` once the run must stop.
    /// The scope is keyed by the job's suite position (not the worker), so
    /// merged traces are identical across worker counts. A job complete in
    /// the replayed journal yields its journaled row without running.
    fn job(
        &self,
        progress: &Mutex<ExecStats>,
        run: u32,
        index: usize,
        worker: u32,
        meta: &JobMeta,
        run_attempt: impl Fn(u32) -> CaseResult,
    ) -> Option<CaseResult> {
        if self.should_stop(progress) {
            return None;
        }
        let _g = obs::scope(&self.policy.recorder, run, obs::PART_JOB, index as u32, worker);
        if let Some(row) = self.cached_result(meta) {
            obs::instant(
                "case",
                &meta.name,
                vec![
                    obs::s("lang", meta.language.to_string()),
                    obs::s("source", "cached_resume"),
                    obs::s("status", row.status.label()),
                ],
            );
            progress.lock().expect("executor progress poisoned").cached += 1;
            return Some(row);
        }
        let row = self.run_one_job(meta, run_attempt);
        progress.lock().expect("executor progress poisoned").executed += 1;
        Some(row)
    }

    /// The journaled result for a job, when resuming and already complete.
    fn cached_result(&self, meta: &JobMeta) -> Option<CaseResult> {
        self.policy
            .resume
            .as_ref()?
            .completed
            .get(&(meta.name.clone(), meta.language))
            .map(|c| c.result.clone())
    }

    /// One job through the full robustness stack: catch_unwind isolation,
    /// the wall-clock watchdog, and the retry/flake loop. When a journal is
    /// attached, every attempt start and verdict — and the final case row —
    /// is appended before the method returns, so a crash at any point leaves
    /// a replayable record. Span attributes are built only while a scope
    /// records, so a run without telemetry allocates none.
    fn run_one_job(&self, meta: &JobMeta, run_attempt: impl Fn(u32) -> CaseResult) -> CaseResult {
        let journal = self.policy.journal.as_deref();
        let traced = obs::active();
        let job_started = Instant::now();
        let max_attempts = self.policy.retries.saturating_add(1);
        let (mut attempts, mut passes, mut failures) = (0u32, 0u32, 0u32);
        let case_depth = obs::depth();
        if traced {
            obs::begin(
                "case",
                &meta.name,
                vec![
                    obs::s("lang", meta.language.to_string()),
                    obs::s("feature", meta.feature.to_string()),
                ],
            );
        }
        let mut row = loop {
            let attempt = attempts;
            if attempt > 0 && self.policy.backoff_base_ms > 0 {
                let exp = (attempt - 1).min(16);
                let sleep_ms = self.policy.backoff_base_ms.saturating_mul(1u64 << exp);
                obs::instant(
                    "retry",
                    "backoff",
                    vec![
                        obs::i("attempt", attempt as i64),
                        obs::i("sleep_ms", sleep_ms as i64),
                    ],
                );
                std::thread::sleep(Duration::from_millis(sleep_ms));
            }
            if let Some(j) = journal {
                j.append(&JournalRecord::AttemptStart {
                    name: meta.name.clone(),
                    language: meta.language,
                    attempt,
                });
                obs::instant("journal", "attempt_start", vec![obs::i("attempt", attempt as i64)]);
            }
            let attempt_depth = obs::depth();
            if traced {
                obs::begin("attempt", &meta.name, vec![obs::i("attempt", attempt as i64)]);
            }
            let started = Instant::now();
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| run_attempt(attempt)));
            // A panic may have unwound through instrumented phases; close
            // any spans it left open (marked aborted) so the attempt span
            // is back on top of the stack.
            obs::unwind_to(attempt_depth.saturating_add(1));
            let mut result = match outcome {
                Ok(r) => r,
                Err(payload) => CaseResult {
                    name: meta.name.clone(),
                    feature: meta.feature.clone(),
                    language: meta.language,
                    status: TestStatus::Infra(panic_message(payload.as_ref())),
                    certainty: None,
                    functional_source: String::new(),
                    attempts: 1,
                },
            };
            // Wall-clock watchdog: the step budget guarantees the attempt
            // terminated; if it nonetheless blew the deadline, the verdict
            // is a timeout regardless of what the attempt reported. Infra
            // rows keep their (more informative) panic message.
            if let Some(deadline) = self.policy.case_deadline_ms {
                let overran = started.elapsed() > Duration::from_millis(deadline);
                let reclassifiable =
                    result.status.counted() && !matches!(result.status, TestStatus::Infra(_));
                if overran && reclassifiable {
                    obs::instant(
                        "watchdog",
                        "deadline",
                        vec![
                            obs::i("deadline_ms", deadline as i64),
                            obs::i("elapsed_ms", started.elapsed().as_millis() as i64),
                        ],
                    );
                    result.status = TestStatus::Timeout;
                    result.certainty = None;
                }
            }
            if traced {
                obs::end(vec![obs::s("status", result.status.label())]);
            }
            if let Some(j) = journal {
                j.append(&JournalRecord::Attempt {
                    name: meta.name.clone(),
                    language: meta.language,
                    attempt,
                    status: result.status.clone(),
                    duration_ms: started.elapsed().as_millis() as u64,
                });
                obs::instant("journal", "attempt", vec![obs::i("attempt", attempt as i64)]);
            }
            attempts += 1;
            if result.passed() {
                passes += 1;
            } else if result.status.counted() {
                failures += 1;
            }
            let is_skip = matches!(result.status, TestStatus::Skipped(_));
            if result.passed() || is_skip || attempts == max_attempts {
                break result;
            }
        };
        row.attempts = attempts;
        if failures > 0 && passes > 0 {
            // The verdict changed across attempts: not a hard failure, not a
            // clean pass — a flake, quantified through the same certainty
            // formulas the cross test uses.
            row.status = TestStatus::Flaky;
            row.certainty = Some(Certainty::from_attempts(attempts, failures));
        }
        if let Some(j) = journal {
            j.append(&JournalRecord::CaseDone {
                result: row.clone(),
                node: None,
                duration_ms: job_started.elapsed().as_millis() as u64,
            });
            obs::instant("journal", "case_done", vec![]);
        }
        if let Some(lat) = &self.policy.latency {
            // Executed cases only: a skip spends no meaningful wall time and
            // would skew the distribution toward zero.
            if row.status.counted() {
                lat.record_us(job_started.elapsed().as_micros() as u64);
            }
        }
        obs::unwind_to(case_depth.saturating_add(1));
        if traced {
            obs::end(vec![
                obs::s("status", row.status.label()),
                obs::i("attempts", attempts as i64),
            ]);
        }
        row
    }
}

/// `compiler` with `cache` attached when it has none (an already-attached
/// cache wins — the caller chose it deliberately).
fn attach(compiler: &VendorCompiler, cache: Option<&Arc<CompileCache>>) -> VendorCompiler {
    match (cache, compiler.cache()) {
        (Some(cache), None) => compiler.clone().with_cache(Arc::clone(cache)),
        _ => compiler.clone(),
    }
}

/// Render a caught panic payload (the `&str`/`String` cases cover both
/// `panic!("literal")` and `panic!("{formatted}")`).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cross::CrossRule;
    use acc_ast::builder as b;
    use acc_ast::{Expr, Program};
    use acc_spec::DirectiveKind;

    fn meta(i: usize) -> JobMeta {
        JobMeta {
            name: format!("case{i}"),
            feature: FeatureId::from(format!("f.{i}").as_str()),
            language: Language::C,
        }
    }

    fn metas(n: usize) -> Vec<JobMeta> {
        (0..n).map(meta).collect()
    }

    fn row(m: &JobMeta, status: TestStatus) -> CaseResult {
        CaseResult {
            name: m.name.clone(),
            feature: m.feature.clone(),
            language: m.language,
            status,
            certainty: None,
            functional_source: String::new(),
            attempts: 1,
        }
    }

    fn loop_case() -> TestCase {
        let n = 16;
        let base = Program::simple(
            "loop",
            Language::C,
            vec![
                b::decl_int("error", 0),
                b::decl_array("A", acc_ast::ScalarType::Int, n),
                b::for_upto(
                    "i",
                    Expr::int(n as i64),
                    vec![b::set1("A", Expr::var("i"), Expr::int(0))],
                ),
                b::parallel_region(
                    vec![
                        acc_ast::AccClause::NumGangs(Expr::int(4)),
                        b::copy_sec("A", Expr::int(n as i64)),
                    ],
                    vec![b::acc_loop(
                        vec![],
                        "i",
                        Expr::int(n as i64),
                        vec![b::add1("A", Expr::var("i"), Expr::int(1))],
                    )],
                ),
                b::for_upto(
                    "i",
                    Expr::int(n as i64),
                    vec![b::if_then(
                        Expr::ne(Expr::idx("A", Expr::var("i")), Expr::int(1)),
                        vec![b::bump_error()],
                    )],
                ),
                b::return_error_check(),
            ],
        );
        TestCase::new(
            "loop",
            "loop",
            base,
            Some(CrossRule::RemoveDirective(DirectiveKind::Loop)),
            "loop directive shares iterations across gangs",
        )
    }

    #[test]
    fn panicking_job_is_isolated_as_infra() {
        let ms = metas(5);
        for jobs in [1, 3] {
            let exec = Executor::new(ExecutorPolicy::new().with_jobs(jobs));
            let results = exec.run_jobs_with(&ms, |i, _attempt| {
                if i == 2 {
                    panic!("deliberate harness bug on job {i}");
                }
                row(&ms[i], TestStatus::Pass)
            });
            assert_eq!(results.len(), 5);
            // The panicking slot is an Infra row with the message …
            match &results[2].status {
                TestStatus::Infra(m) => assert!(m.contains("deliberate harness bug"), "{m}"),
                other => panic!("expected Infra, got {other:?}"),
            }
            // … and every other case completed normally.
            for (i, r) in results.iter().enumerate() {
                if i != 2 {
                    assert_eq!(r.status, TestStatus::Pass, "slot {i} under jobs={jobs}");
                }
                assert_eq!(r.name, format!("case{i}"));
            }
        }
    }

    #[test]
    fn verdict_change_across_attempts_is_flaky() {
        let ms = metas(1);
        let exec = Executor::new(ExecutorPolicy::new().with_retries(3));
        let results = exec.run_jobs_with(&ms, |i, attempt| {
            if attempt == 0 {
                row(&ms[i], TestStatus::WrongResult)
            } else {
                row(&ms[i], TestStatus::Pass)
            }
        });
        assert_eq!(results[0].status, TestStatus::Flaky);
        assert!(results[0].passed(), "flaky is not a hard failure");
        assert_eq!(results[0].attempts, 2, "stopped at the first pass");
        let c = results[0].certainty.expect("attempt-series certainty");
        assert_eq!((c.m, c.nf), (2, 1));
        assert!((c.flake_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn deterministic_failure_stays_hard_after_retries() {
        let ms = metas(1);
        let exec = Executor::new(ExecutorPolicy::new().with_retries(2));
        let results =
            exec.run_jobs_with(&ms, |i, _attempt| row(&ms[i], TestStatus::WrongResult));
        assert_eq!(results[0].status, TestStatus::WrongResult);
        assert_eq!(results[0].attempts, 3, "1 attempt + 2 retries");
        assert!(!results[0].passed());
    }

    #[test]
    fn deterministic_panic_stays_infra_after_retries() {
        let ms = metas(1);
        let exec = Executor::new(ExecutorPolicy::new().with_retries(2));
        let results = exec.run_jobs_with(&ms, |_i, attempt| -> CaseResult {
            panic!("always broken (attempt {attempt})");
        });
        assert!(matches!(results[0].status, TestStatus::Infra(_)));
        assert_eq!(results[0].attempts, 3);
    }

    #[test]
    fn skipped_cases_are_not_retried() {
        let ms = metas(1);
        let attempts_seen = AtomicUsize::new(0);
        let exec = Executor::new(ExecutorPolicy::new().with_retries(5));
        let results = exec.run_jobs_with(&ms, |i, _attempt| {
            attempts_seen.fetch_add(1, Ordering::SeqCst);
            row(&ms[i], TestStatus::skipped())
        });
        assert_eq!(results[0].status, TestStatus::skipped());
        assert_eq!(attempts_seen.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn tripped_cancel_token_stops_new_claims() {
        let ms = metas(6);
        let token = CancelToken::arc();
        for jobs in [1, 3] {
            let exec = Executor::new(
                ExecutorPolicy::new().with_jobs(jobs).with_cancel(Arc::clone(&token)),
            );
            let trip = Arc::clone(&token);
            let ran = AtomicUsize::new(0);
            let (results, stats) = exec.run_jobs_stats(&ms, |i, _attempt| {
                // First job cancels the run mid-flight; its own result
                // still lands (in-flight work finishes).
                trip.cancel();
                ran.fetch_add(1, Ordering::SeqCst);
                row(&ms[i], TestStatus::Pass)
            });
            assert!(stats.cancelled, "jobs={jobs}");
            assert!(stats.stopped_early());
            assert!(!stats.halted);
            // At most `jobs` claims could have been in flight when the
            // token tripped; the rest were never started.
            assert!(results.len() <= jobs, "jobs={jobs}: {}", results.len());
            assert_eq!(results.len(), ran.load(Ordering::SeqCst));
            token.flag.store(false, Ordering::SeqCst);
        }
    }

    #[cfg(unix)]
    #[test]
    fn first_cancel_writes_one_wake_byte() {
        use std::io::Read as _;
        let token = CancelToken::default();
        let (mut rx, tx) = UnixStream::pair().unwrap();
        assert!(!token.set_wake(tx).unwrap(), "fresh token is not cancelled");
        token.cancel();
        token.cancel();
        assert!(token.is_cancelled());
        rx.set_nonblocking(true).unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(rx.read(&mut buf).unwrap(), 1, "exactly one wake byte");
        assert_eq!(
            rx.read(&mut buf).map_err(|e| e.kind()),
            Err(std::io::ErrorKind::WouldBlock),
            "repeat cancels write nothing"
        );
        let (_, second) = UnixStream::pair().unwrap();
        assert!(token.set_wake(second).is_err(), "one wake socket per token");
    }

    #[cfg(unix)]
    #[test]
    fn set_wake_after_cancel_reports_it() {
        let token = CancelToken::default();
        token.cancel();
        let (_rx, tx) = UnixStream::pair().unwrap();
        assert!(
            token.set_wake(tx).unwrap(),
            "a waiter registering late must not wait for a byte that never comes"
        );
    }

    #[test]
    fn expired_run_deadline_stops_before_any_claim() {
        let ms = metas(4);
        let exec = Executor::new(
            ExecutorPolicy::new().with_run_deadline(Instant::now() - Duration::from_millis(1)),
        );
        let (results, stats) = exec.run_jobs_stats(&ms, |i, _attempt| {
            row(&ms[i], TestStatus::Pass)
        });
        assert!(results.is_empty(), "expired work must be cancelled, not run");
        assert!(stats.deadlined);
        assert_eq!(stats.executed, 0);
    }

    #[test]
    fn future_run_deadline_does_not_interfere() {
        let ms = metas(3);
        let exec = Executor::new(
            ExecutorPolicy::new()
                .with_run_deadline(Instant::now() + Duration::from_secs(3600))
                .with_cancel(CancelToken::arc()),
        );
        let (results, stats) = exec.run_jobs_stats(&ms, |i, _attempt| {
            row(&ms[i], TestStatus::Pass)
        });
        assert_eq!(results.len(), 3);
        assert!(!stats.stopped_early());
    }

    #[test]
    fn wall_clock_watchdog_reclassifies_slow_attempts() {
        // Every job sleeps well past the deadline — all must classify
        // Timeout, deterministically, under a parallel pool.
        let ms = metas(4);
        let exec = Executor::new(ExecutorPolicy::new().with_jobs(2).with_deadline_ms(5));
        let results = exec.run_jobs_with(&ms, |i, _attempt| {
            std::thread::sleep(Duration::from_millis(40));
            row(&ms[i], TestStatus::Pass)
        });
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.status, TestStatus::Timeout, "slot {i}");
        }
    }

    #[test]
    fn step_budget_watchdog_classifies_timeout() {
        // A tiny interpreter budget starves even the healthy loop case:
        // the functional run aborts with Timeout.
        let campaign = Campaign::new(vec![loop_case()])
            .with_config(crate::config::SuiteConfig::new().language(Language::C));
        for jobs in [1, 2] {
            let exec = Executor::new(
                ExecutorPolicy::new().with_jobs(jobs).with_step_limit(10),
            );
            let run = exec.run_suite(&campaign, &VendorCompiler::reference());
            assert_eq!(run.results.len(), 1);
            assert_eq!(run.results[0].status, TestStatus::Timeout, "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_suite_matches_serial_suite() {
        let campaign = Campaign::new(vec![loop_case()]);
        let reference = VendorCompiler::reference();
        let serial = Executor::new(ExecutorPolicy::new()).run_suite(&campaign, &reference);
        let parallel =
            Executor::new(ExecutorPolicy::new().with_jobs(4)).run_suite(&campaign, &reference);
        assert_eq!(serial.results.len(), parallel.results.len());
        for (a, b) in serial.results.iter().zip(&parallel.results) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.language, b.language);
            assert_eq!(a.status, b.status);
            assert_eq!(a.certainty, b.certainty);
        }
        // And `Campaign::run_one` is this executor at jobs=1.
        let plain = campaign.run_one(&reference);
        for (a, b) in serial.results.iter().zip(&plain.results) {
            assert_eq!(a.status, b.status);
        }
    }

    #[test]
    fn backoff_sleeps_between_retries() {
        let ms = metas(1);
        let exec = Executor::new(ExecutorPolicy::new().with_retries(2).with_backoff_ms(3));
        let started = Instant::now();
        let results =
            exec.run_jobs_with(&ms, |i, _attempt| row(&ms[i], TestStatus::WrongResult));
        // Backoff: 3ms before retry 1, 6ms before retry 2 → ≥9ms total.
        assert!(started.elapsed() >= Duration::from_millis(9));
        assert_eq!(results[0].attempts, 3);
    }

    #[test]
    fn empty_job_list_is_fine() {
        let exec = Executor::new(ExecutorPolicy::new().with_jobs(8));
        let results = exec.run_jobs_with(&[], |_i, _a| unreachable!());
        assert!(results.is_empty());
    }
}
