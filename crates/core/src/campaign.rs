//! Campaigns: what to run — a suite and its configuration — and the
//! aggregated results of running it against one or many compiler releases
//! through the [`Executor`]: the paper's Fig. 8 pass-rate plots and the
//! discovered-bug inventories of Table I.

use crate::case::{TestCase, TestStatus};
use crate::config::SuiteConfig;
use crate::executor::{Executor, ExecutorPolicy};
use crate::harness::CaseResult;
use acc_compiler::{CompileCache, VendorCompiler, VendorId};
use acc_spec::{FeatureId, Language};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

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
            self.compile_errors,
            self.wrong_results,
            self.crashes,
            self.timeouts,
            self.infra,
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

/// A campaign: a suite and a configuration — what to run. The
/// [`Executor`] runs it against one release or a sweep of them.
#[derive(Debug)]
pub struct Campaign {
    /// The test corpus.
    pub suite: Vec<TestCase>,
    /// Run configuration.
    pub config: SuiteConfig,
    /// Compilation cache for the campaign's runs (`None` = every compile
    /// starts cold, the pre-cache behaviour). Each case compiles through
    /// its own [`scoped`](CompileCache::scoped) copy, which counts into
    /// this cache and is freed when the case ends.
    pub cache: Option<Arc<CompileCache>>,
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
        }
    }

    /// Replace the configuration.
    pub fn with_config(mut self, config: SuiteConfig) -> Self {
        self.config = config;
        self
    }

    /// Give each case of every run a [`scoped`](CompileCache::scoped) copy
    /// of `cache`: the case's sources are shared by every release of a
    /// sweep, counted into `cache`, and freed when the case ends, so its
    /// own maps stay empty. A compiler that already carries a cache keeps
    /// it; attach a cache to the compiler to keep entries across runs.
    pub fn with_cache(mut self, cache: Arc<CompileCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The cases selected by the configuration's feature filter.
    pub fn selected_cases(&self) -> Vec<&TestCase> {
        self.suite
            .iter()
            .filter(|c| self.config.filter.selects(&c.feature))
            .collect()
    }

    /// The selected cases with every configuration override (today: the
    /// cross-test repetition count) applied — the exact per-case inputs the
    /// executor feeds to the harness.
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

    /// Run against a single compiler release, serially, on the configured
    /// engine.
    pub fn run_one(&self, compiler: &VendorCompiler) -> SuiteRun {
        self.run_one_parallel(compiler, 1)
    }

    /// Run against a single compiler release with `threads` workers, on the
    /// configured engine.
    pub fn run_one_parallel(&self, compiler: &VendorCompiler, threads: usize) -> SuiteRun {
        self.executor(threads).run_suite(self, compiler)
    }

    /// Sweep every released version of a vendor (the Fig. 8 x-axis), on the
    /// configured engine.
    pub fn run_vendor_line(&self, vendor: VendorId) -> CampaignResult {
        let releases: Vec<VendorCompiler> = vendor
            .versions()
            .into_iter()
            .map(|v| VendorCompiler::new(vendor, v))
            .collect();
        CampaignResult {
            runs: self.executor(1).run_sweep(self, &releases).0,
        }
    }

    /// The executor the convenience runners drive: `threads` workers (at
    /// least one) and the configured engine.
    fn executor(&self, threads: usize) -> Executor {
        Executor::new(
            ExecutorPolicy::new()
                .with_jobs(threads.max(1))
                .with_exec_mode(self.config.exec_mode),
        )
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
