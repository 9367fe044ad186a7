//! Campaigns: run a suite against one or many compiler releases and
//! aggregate the results — the machinery behind the paper's Fig. 8 pass-rate
//! plots and the discovered-bug inventories of Table I.

use crate::case::{TestCase, TestStatus};
use crate::config::SuiteConfig;
use crate::harness::{run_case_with, CasePolicy, CaseResult};
use acc_compiler::{CompileCache, VendorCompiler, VendorId};
use acc_obs as obs;
use acc_spec::{FeatureId, Language};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

/// Failure counts grouped by the taxonomy: the paper's four classes (§V:
/// compile-time errors; runtime errors: incorrect result, crash, executes
/// forever) extended with the executor's two infrastructure classes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailureBreakdown {
    /// Compilation failed.
    pub compile_errors: usize,
    /// Ran but produced an incorrect result.
    pub wrong_results: usize,
    /// Crashed at runtime.
    pub crashes: usize,
    /// Exceeded the step budget or wall-clock deadline.
    pub timeouts: usize,
    /// Harness-side failures (panics caught by the executor).
    pub infra: usize,
    /// Verdict changed across retry attempts (not a hard failure).
    pub flaky: usize,
}

impl FailureBreakdown {
    /// Total hard failures (flaky results are not hard failures).
    pub fn total_failures(&self) -> usize {
        self.compile_errors + self.wrong_results + self.crashes + self.timeouts + self.infra
    }
}

impl fmt::Display for FailureBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "compile errors {}, wrong results {}, crashes {}, timeouts {}, infra {}, flaky {}",
            self.compile_errors, self.wrong_results, self.crashes, self.timeouts, self.infra,
            self.flaky
        )
    }
}

/// Results of one suite run against one compiler release.
#[derive(Debug, Clone)]
pub struct SuiteRun {
    /// Compiler label ("PGI 13.4").
    pub compiler: String,
    /// Every case result (both languages when configured).
    pub results: Vec<CaseResult>,
}

impl SuiteRun {
    /// Executed (non-skipped) results for a language.
    pub fn counted(&self, lang: Language) -> Vec<&CaseResult> {
        self.results
            .iter()
            .filter(|r| r.language == lang && r.status.counted())
            .collect()
    }

    /// Pass rate percentage for a language (the Fig. 8 y-axis).
    pub fn pass_rate(&self, lang: Language) -> f64 {
        let counted = self.counted(lang);
        if counted.is_empty() {
            return 100.0;
        }
        let passed = counted.iter().filter(|r| r.passed()).count();
        passed as f64 / counted.len() as f64 * 100.0
    }

    /// Features that failed for a language — the observable footprint of the
    /// release's bugs.
    pub fn failing_features(&self, lang: Language) -> BTreeSet<FeatureId> {
        self.counted(lang)
            .iter()
            .filter(|r| !r.passed())
            .map(|r| r.feature.clone())
            .collect()
    }

    /// Failures grouped by the taxonomy (compile / wrong-result / crash /
    /// timeout / infra / flaky) for a language.
    pub fn failure_breakdown(&self, lang: Language) -> FailureBreakdown {
        let mut b = FailureBreakdown::default();
        for r in self.counted(lang) {
            match r.status {
                TestStatus::CompileError(_) => b.compile_errors += 1,
                TestStatus::WrongResult => b.wrong_results += 1,
                TestStatus::Crash(_) => b.crashes += 1,
                TestStatus::Timeout => b.timeouts += 1,
                TestStatus::Infra(_) => b.infra += 1,
                TestStatus::Flaky => b.flaky += 1,
                _ => {}
            }
        }
        b
    }

    /// Tests whose cross variant failed to discriminate (suite-quality
    /// signal: "the directive being tested does not take any effect …
    /// the functional test will be re-designed", §III).
    pub fn inconclusive(&self, lang: Language) -> Vec<&CaseResult> {
        self.counted(lang)
            .iter()
            .filter(|r| matches!(r.status, TestStatus::PassInconclusive))
            .copied()
            .collect()
    }
}

/// A campaign: a suite, a configuration, and the compilers to sweep.
#[derive(Debug)]
pub struct Campaign {
    /// The test corpus.
    pub suite: Vec<TestCase>,
    /// Run configuration.
    pub config: SuiteConfig,
    /// Compilation cache shared by every compiler the campaign drives, or
    /// by every case's scope of it in a sweep (`None` = compile from
    /// scratch every time, the pre-cache behaviour).
    pub cache: Option<Arc<CompileCache>>,
    /// Telemetry collector (disabled by default). When enabled, the direct
    /// run paths emit campaign/case spans; results and report bytes are
    /// unaffected either way.
    pub recorder: obs::Recorder,
}

/// Results of a campaign across compiler releases.
#[derive(Debug)]
pub struct CampaignResult {
    /// One entry per compiler release, in sweep order.
    pub runs: Vec<SuiteRun>,
}

impl Campaign {
    /// Create a campaign over a suite with the default configuration.
    pub fn new(suite: Vec<TestCase>) -> Self {
        Campaign {
            suite,
            config: SuiteConfig::default(),
            cache: None,
            recorder: obs::Recorder::disabled(),
        }
    }

    /// Replace the configuration.
    pub fn with_config(mut self, config: SuiteConfig) -> Self {
        self.config = config;
        self
    }

    /// Share a compilation cache across every run of this campaign.
    /// [`run_one`](Self::run_one) and [`run_vendor_line`](Self::run_vendor_line)
    /// attach it to every compiler they drive, so identical sources compile
    /// once and its entries live as long as it does.
    /// [`run_sweep`](Self::run_sweep) and
    /// [`run_one_parallel`](Self::run_one_parallel) instead give each case
    /// a [`scoped`](CompileCache::scoped) cache that counts into it and is
    /// freed when the case ends, so its own maps stay empty.
    pub fn with_cache(mut self, cache: Arc<CompileCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attach a telemetry recorder to the campaign's direct run paths.
    pub fn with_recorder(mut self, recorder: obs::Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The compiler to actually drive: the caller's, with the campaign's
    /// cache attached when one is configured.
    pub(crate) fn effective_compiler(&self, compiler: &VendorCompiler) -> VendorCompiler {
        attach(compiler, self.cache.as_ref())
    }

    /// The cases selected by the configuration's feature filter.
    pub fn selected_cases(&self) -> Vec<&TestCase> {
        self.suite
            .iter()
            .filter(|c| self.config.filter.selects(&c.feature))
            .collect()
    }

    /// The selected cases with every configuration override (today: the
    /// cross-test repetition count) applied — the exact per-case inputs all
    /// run paths (serial, sweep, fault-tolerant executor) feed to
    /// the harness, so their job lists are identical by construction.
    pub fn materialized_cases(&self) -> Vec<TestCase> {
        self.selected_cases()
            .into_iter()
            .map(|case| match self.config.repetitions {
                Some(m) => {
                    let mut c = case.clone();
                    c.repetitions = m;
                    c
                }
                None => case.clone(),
            })
            .collect()
    }

    /// The per-case policy every direct run path uses (the executor builds
    /// its own, folding in retries): default knobs plus the configured
    /// execution engine.
    fn case_policy(&self) -> CasePolicy {
        CasePolicy {
            exec_mode: self.config.exec_mode,
            // The run memo replays a run under identical knobs by any
            // release the source cannot tell apart from the one that ran
            // it (DESIGN.md §15.2): most runs of a version sweep, and a
            // campaign run again on a warm shared cache.
            memo: true,
            ..CasePolicy::default()
        }
    }

    /// Run against a single compiler release.
    pub fn run_one(&self, compiler: &VendorCompiler) -> SuiteRun {
        let compiler = self.effective_compiler(compiler);
        let policy = self.case_policy();
        let cases = self.materialized_cases();
        let langs = &self.config.languages;
        let label = compiler.label();
        let run = self.recorder.begin_run();
        self.begin_campaign(run, &label, cases.len() * langs.len());
        let mut results = Vec::new();
        for (ci, case) in cases.iter().enumerate() {
            for (li, &lang) in langs.iter().enumerate() {
                let job = ci * langs.len() + li;
                results.push(self.run_job(run, job, 0, case, &compiler, lang, &policy));
            }
        }
        self.end_campaign(run, &label, &results);
        SuiteRun {
            compiler: label,
            results,
        }
    }

    /// Run against a single compiler release with worker threads: a sweep
    /// of that one release ([`run_sweep`](Self::run_sweep)).
    pub fn run_one_parallel(&self, compiler: &VendorCompiler, threads: usize) -> SuiteRun {
        self.run_sweep(std::slice::from_ref(compiler), threads)
            .pop()
            .expect("a one-release sweep returns one run")
    }

    /// Run every selected case under every release of `compilers`,
    /// source-major: `threads` workers claim whole cases (test executions
    /// are independent — each runs in its own simulated world), and a case
    /// runs under each release back to back, in sweep order. With a
    /// campaign cache, each case compiles through a fresh
    /// [`scoped`](CompileCache::scoped) cache that counts into it, so the
    /// case's parses, images and run memos are shared by exactly the
    /// releases that can reuse them and freed when the case ends. One
    /// worker runs on the calling thread.
    ///
    /// Returns one [`SuiteRun`] per release, in sweep order, with its rows
    /// in suite order: the rows, and with telemetry the merged trace, of
    /// one [`run_one`](Self::run_one) per release.
    pub fn run_sweep(&self, compilers: &[VendorCompiler], threads: usize) -> Vec<SuiteRun> {
        let cases = self.materialized_cases();
        let policy = self.case_policy();
        let langs = &self.config.languages;
        let jobs = cases.len() * langs.len();
        let labels: Vec<String> = compilers.iter().map(VendorCompiler::label).collect();
        // Every release's run ordinal, in sweep order, before any case
        // runs: the trace merges as if the releases had run one by one.
        let runs: Vec<u32> = labels
            .iter()
            .map(|label| {
                let run = self.recorder.begin_run();
                self.begin_campaign(run, label, jobs);
                run
            })
            .collect();
        // One slot per (release, job), filled as the cases finish.
        let slots: Mutex<Vec<Vec<Option<CaseResult>>>> =
            Mutex::new(compilers.iter().map(|_| vec![None; jobs]).collect());
        // One case under every release, in its own scope of the cache.
        let sweep_case = |ci: usize, worker: u32| {
            let scope = self.cache.as_ref().map(|c| Arc::new(c.scoped()));
            for (r, (compiler, &run)) in compilers.iter().zip(&runs).enumerate() {
                let compiler = attach(compiler, scope.as_ref());
                for (li, &lang) in langs.iter().enumerate() {
                    let job = ci * langs.len() + li;
                    let row = self.run_job(run, job, worker, &cases[ci], &compiler, lang, &policy);
                    slots.lock().expect("sweep slots poisoned")[r][job] = Some(row);
                }
            }
        };
        let next = AtomicUsize::new(0);
        let work = |worker: u32| loop {
            let ci = next.fetch_add(1, Ordering::Relaxed);
            if ci >= cases.len() {
                break;
            }
            sweep_case(ci, worker);
        };
        match threads.clamp(1, cases.len().max(1)) {
            1 => work(0),
            threads => thread::scope(|s| {
                for worker in 0..threads as u32 {
                    let work = &work;
                    s.spawn(move || work(worker));
                }
            }),
        }
        let slots = slots.into_inner().expect("sweep slots poisoned");
        labels
            .into_iter()
            .zip(runs)
            .zip(slots)
            .map(|((label, run), rows)| {
                let results: Vec<CaseResult> = rows
                    .into_iter()
                    .map(|row| row.expect("every job of a sweep runs"))
                    .collect();
                self.end_campaign(run, &label, &results);
                SuiteRun {
                    compiler: label,
                    results,
                }
            })
            .collect()
    }

    /// A run's PRE `campaign` mark, announcing its job count.
    fn begin_campaign(&self, run: u32, label: &str, jobs: usize) {
        let _pre = obs::scope(&self.recorder, run, obs::PART_PRE, 0, 0);
        obs::mark(
            obs::Phase::Begin,
            "campaign",
            label,
            vec![obs::i("jobs", jobs as i64)],
        );
    }

    /// A run's POST `campaign` mark, counting its passes.
    fn end_campaign(&self, run: u32, label: &str, results: &[CaseResult]) {
        let _post = obs::scope(&self.recorder, run, obs::PART_POST, 0, 0);
        obs::mark(
            obs::Phase::End,
            "campaign",
            label,
            vec![obs::i(
                "passed",
                results.iter().filter(|r| r.passed()).count() as i64,
            )],
        );
    }

    /// One (case, language) job of a run, under its trace scope. The job
    /// ordinal is the case's suite position, so merged traces do not depend
    /// on which worker ran it.
    #[allow(clippy::too_many_arguments)]
    fn run_job(
        &self,
        run: u32,
        job: usize,
        worker: u32,
        case: &TestCase,
        compiler: &VendorCompiler,
        lang: Language,
        policy: &CasePolicy,
    ) -> CaseResult {
        let _g = obs::scope(&self.recorder, run, obs::PART_JOB, job as u32, worker);
        obs::begin("case", &case.name, vec![obs::s("lang", lang.to_string())]);
        let r = run_case_with(case, compiler, lang, policy);
        obs::end(vec![obs::s("status", r.status.label())]);
        r
    }

    /// Sweep every released version of a vendor (the Fig. 8 x-axis). With a
    /// campaign cache attached, the sweep's front-end work (parse, sema,
    /// resolution, lowering) runs once per distinct source for the *whole
    /// line*, and each source runs once per observable behaviour.
    pub fn run_vendor_line(&self, vendor: VendorId) -> CampaignResult {
        let runs = vendor
            .versions()
            .into_iter()
            .map(|v| self.run_one(&VendorCompiler::new(vendor, v)))
            .collect();
        CampaignResult { runs }
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

impl CampaignResult {
    /// Pass-rate series for a language across the sweep (the Fig. 8 bars).
    pub fn pass_rates(&self, lang: Language) -> Vec<(String, f64)> {
        self.runs
            .iter()
            .map(|r| (r.compiler.clone(), r.pass_rate(lang)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cross::CrossRule;
    use acc_ast::builder as b;
    use acc_ast::{Expr, Program, Stmt};
    use acc_spec::DirectiveKind;

    fn tiny_suite() -> Vec<TestCase> {
        let loop_base = Program::simple(
            "loop",
            Language::C,
            vec![
                b::decl_int("error", 0),
                b::decl_array("A", acc_ast::ScalarType::Int, 8),
                b::for_upto(
                    "i",
                    Expr::int(8),
                    vec![b::set1("A", Expr::var("i"), Expr::int(0))],
                ),
                b::parallel_region(
                    vec![
                        acc_ast::AccClause::NumGangs(Expr::int(4)),
                        b::copy_sec("A", Expr::int(8)),
                    ],
                    vec![b::acc_loop(
                        vec![],
                        "i",
                        Expr::int(8),
                        vec![b::add1("A", Expr::var("i"), Expr::int(1))],
                    )],
                ),
                b::for_upto(
                    "i",
                    Expr::int(8),
                    vec![b::if_then(
                        Expr::ne(Expr::idx("A", Expr::var("i")), Expr::int(1)),
                        vec![b::bump_error()],
                    )],
                ),
                b::return_error_check(),
            ],
        );
        // A num_gangs test using a VARIABLE expression — trips the CAPS
        // §V-B bug in early releases.
        let gangs_base = Program::simple(
            "num_gangs_var",
            Language::C,
            vec![
                b::decl_int("gangs", 8),
                b::decl_int("gang_num", 0),
                b::parallel_region(
                    vec![
                        acc_ast::AccClause::NumGangs(Expr::var("gangs")),
                        acc_ast::AccClause::Reduction(
                            acc_spec::ReductionOp::Add,
                            vec!["gang_num".into()],
                        ),
                    ],
                    vec![b::add("gang_num", Expr::int(1))],
                ),
                Stmt::Return(Expr::eq(Expr::var("gang_num"), Expr::int(8))),
            ],
        );
        vec![
            TestCase::new(
                "loop",
                "loop",
                loop_base,
                Some(CrossRule::RemoveDirective(DirectiveKind::Loop)),
                "loop shares iterations",
            ),
            TestCase::new(
                "parallel.num_gangs",
                "parallel.num_gangs",
                gangs_base,
                Some(CrossRule::RemoveClause(
                    DirectiveKind::Parallel,
                    acc_spec::ClauseKind::NumGangs,
                )),
                "num_gangs with a variable expression (Fig. 9)",
            ),
        ]
    }

    #[test]
    fn reference_run_is_clean() {
        let campaign = Campaign::new(tiny_suite());
        let run = campaign.run_one(&VendorCompiler::reference());
        assert_eq!(run.pass_rate(Language::C), 100.0);
        assert_eq!(run.pass_rate(Language::Fortran), 100.0);
        assert!(run.failing_features(Language::C).is_empty());
    }

    #[test]
    fn caps_early_release_fails_variable_num_gangs() {
        let campaign = Campaign::new(tiny_suite());
        let early = VendorCompiler::new(VendorId::Caps, "3.0.7".parse().unwrap());
        let run = campaign.run_one(&early);
        let failing = run.failing_features(Language::C);
        assert!(
            failing.contains(&FeatureId::from("parallel.num_gangs")),
            "{failing:?}"
        );
        let breakdown = run.failure_breakdown(Language::C);
        assert!(
            breakdown.compile_errors >= 1,
            "variable sizing expr is a compile-time rejection"
        );
        // The fixed release passes.
        let fixed = VendorCompiler::new(VendorId::Caps, "3.3.4".parse().unwrap());
        let run = campaign.run_one(&fixed);
        assert_eq!(run.pass_rate(Language::C), 100.0);
    }

    #[test]
    fn vendor_line_sweep_improves_over_time() {
        let campaign = Campaign::new(tiny_suite());
        let result = campaign.run_vendor_line(VendorId::Caps);
        assert_eq!(result.runs.len(), 8);
        let rates = result.pass_rates(Language::C);
        assert!(rates.first().unwrap().1 < rates.last().unwrap().1);
        assert_eq!(rates.last().unwrap().1, 100.0);
    }

    #[test]
    fn feature_filter_limits_cases() {
        let campaign = Campaign::new(tiny_suite())
            .with_config(SuiteConfig::new().select_prefixes(&["parallel"]));
        assert_eq!(campaign.selected_cases().len(), 1);
        let run = campaign.run_one(&VendorCompiler::reference());
        assert!(run
            .results
            .iter()
            .all(|r| r.feature.as_str().starts_with("parallel")));
    }

    #[test]
    fn parallel_run_matches_serial() {
        let campaign = Campaign::new(tiny_suite());
        let compiler = VendorCompiler::new(VendorId::Caps, "3.0.7".parse().unwrap());
        let serial = campaign.run_one(&compiler);
        let parallel = campaign.run_one_parallel(&compiler, 4);
        assert_eq!(serial.results.len(), parallel.results.len());
        for (a, b) in serial.results.iter().zip(&parallel.results) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.language, b.language);
            assert_eq!(a.status, b.status, "{} ({})", a.name, a.language);
        }
        assert_eq!(
            serial.pass_rate(acc_spec::Language::C),
            parallel.pass_rate(acc_spec::Language::C)
        );
    }

    #[test]
    fn repetition_override_applies() {
        let campaign =
            Campaign::new(tiny_suite()).with_config(SuiteConfig::new().with_repetitions(5));
        let run = campaign.run_one(&VendorCompiler::reference());
        let with_cert = run
            .results
            .iter()
            .find_map(|r| r.certainty)
            .expect("cross tests ran");
        assert_eq!(with_cert.m, 5);
    }
}
