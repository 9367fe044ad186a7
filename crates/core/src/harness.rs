//! The test harness: compile, run, check, cross-validate (§III Fig. 3).
//!
//! "A test harness will then compile the program, run the executable, check
//! for the results and generate reports. … first we perform the functional
//! test. If the feature passes the test, the feature will need to undergo a
//! deeper test, i.e. the cross test. If the feature did not pass the
//! functional test, a 'failure' will be directly reported to the result
//! analyzer bypassing the necessity to do the cross test."

use crate::case::{TestCase, TestStatus};
use crate::stats::Certainty;
use acc_compiler::exec::{ExecMode, RunKnobs, RunOutcome};
use acc_compiler::VendorCompiler;
use acc_obs as obs;
use acc_spec::Language;

/// Per-attempt execution policy the fault-tolerant executor threads into a
/// case run.
#[derive(Debug, Clone, Copy, Default)]
pub struct CasePolicy {
    /// Interpreter step-budget override (`None` = the machine default).
    pub step_limit: Option<u64>,
    /// Base run index for this attempt. The functional run uses the base
    /// itself and cross repetition `k` uses `base + 1 + k`, so every
    /// execution inside one attempt — and across attempts when the caller
    /// strides the base — draws decorrelated transient faults while staying
    /// fully deterministic.
    pub run_index_base: u64,
    /// Which engine executes compiled programs (bytecode VM by default,
    /// `--exec-mode=walk` for the tree-walking reference oracle).
    pub exec_mode: ExecMode,
    /// Allow the executable's run-result memo to serve repeated identical
    /// executions (campaign paths set this; benches that measure raw
    /// engine speed leave it off).
    pub memo: bool,
}

/// The full record of one test executed against one compiler+language.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseResult {
    /// Test name.
    pub name: String,
    /// Feature id.
    pub feature: acc_spec::FeatureId,
    /// Language variant.
    pub language: Language,
    /// Classification.
    pub status: TestStatus,
    /// Certainty statistics when a cross test ran. For a
    /// [`TestStatus::Flaky`] verdict this instead carries the attempt-series
    /// statistics (M = attempts, nf = failing attempts).
    pub certainty: Option<Certainty>,
    /// The generated functional source (appended to bug reports "for
    /// vendors' convenience").
    pub functional_source: String,
    /// How many times the executor ran this case (1 unless retried).
    pub attempts: u32,
}

impl CaseResult {
    /// Did the compiler pass?
    pub fn passed(&self) -> bool {
        self.status.passed()
    }

    /// The certainty column for reports: renders "—" when no cross test ran
    /// instead of forcing callers through `unwrap()`.
    pub fn certainty_label(&self) -> String {
        match self.certainty {
            Some(c) => c.to_string(),
            None => "—".to_string(),
        }
    }
}

/// Run one test case against a compiler for one language.
pub fn run_case(case: &TestCase, compiler: &VendorCompiler, language: Language) -> CaseResult {
    run_case_with(case, compiler, language, &CasePolicy::default())
}

/// Run one test case under an explicit execution policy (step budget and
/// attempt-index base) — the entry point the fault-tolerant executor uses.
pub fn run_case_with(
    case: &TestCase,
    compiler: &VendorCompiler,
    language: Language,
    policy: &CasePolicy,
) -> CaseResult {
    let mk = |status: TestStatus, certainty: Option<Certainty>, src: String| CaseResult {
        name: case.name.clone(),
        feature: case.feature.clone(),
        language,
        status,
        certainty,
        functional_source: src,
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
    let source = case.source_for(language);
    // 1. Compile the functional test (through the compiler's compilation
    //    cache when one is attached — retries and version sweeps then
    //    reuse one parse and one lowered image).
    obs::begin("compile", "functional", vec![]);
    let compiled = compiler.compile(&source, language);
    obs::end(vec![obs::s(
        "outcome",
        if compiled.is_ok() { "ok" } else { "error" },
    )]);
    let exe = match compiled {
        Ok(exe) => exe,
        Err(e) => return mk(TestStatus::CompileError(e.to_string()), None, source),
    };
    // 2. Run it.
    obs::begin("exec", "functional", vec![]);
    let functional = exe.run_with_knobs(&case.env, knobs(0)).outcome;
    obs::end(vec![]);
    match functional {
        RunOutcome::Completed(v) if v != 0 => {
            obs::instant("verify", "functional", vec![obs::s("outcome", "pass")]);
        }
        RunOutcome::Completed(_) => {
            obs::instant("verify", "functional", vec![obs::s("outcome", "wrong_result")]);
            return mk(TestStatus::WrongResult, None, source);
        }
        RunOutcome::Crash(m) => {
            obs::instant("verify", "functional", vec![obs::s("outcome", "crash")]);
            return mk(TestStatus::Crash(m), None, source);
        }
        RunOutcome::Timeout => {
            obs::instant("verify", "functional", vec![obs::s("outcome", "timeout")]);
            return mk(TestStatus::Timeout, None, source);
        }
    }
    // 3. Functional passed: deepen with the cross test.
    let cross_source = match case.cross_source_for(language) {
        Some(s) => s,
        None => return mk(TestStatus::Pass, None, source),
    };
    obs::begin("compile", "cross", vec![]);
    let cross_compiled = compiler.compile(&cross_source, language);
    obs::end(vec![obs::s(
        "outcome",
        if cross_compiled.is_ok() { "ok" } else { "error" },
    )]);
    let cross_exe = match cross_compiled {
        // A cross test that does not compile cannot raise confidence; the
        // functional pass stands but is flagged inconclusive.
        Err(_) => return mk(TestStatus::PassInconclusive, None, source),
        Ok(exe) => exe,
    };
    // 4. Repeat the cross run M times; nf = runs yielding an incorrect
    //    result (which is what the cross test SHOULD yield). Run-once fast
    //    path: the attempt index only feeds transient-fault draws, so with
    //    no transient defect configured every repetition is provably
    //    identical — one execution stands in for all M, bit-for-bit.
    let m = case.repetitions.max(1);
    let mut nf = 0;
    if cross_exe.profile.has_transient_faults() {
        obs::begin("exec", "cross", vec![obs::i("reps", m as i64)]);
        for k in 0..m {
            let outcome = cross_exe.run_with_knobs(&case.env, knobs(1 + k as u64)).outcome;
            let incorrect = !matches!(outcome, RunOutcome::Completed(v) if v != 0);
            if incorrect {
                nf += 1;
            }
        }
        obs::end(vec![]);
    } else {
        obs::begin("exec", "cross", vec![obs::i("reps", 1)]);
        let outcome = cross_exe.run_with_knobs(&case.env, knobs(1)).outcome;
        obs::end(vec![]);
        if !matches!(outcome, RunOutcome::Completed(v) if v != 0) {
            nf = m;
        }
    }
    let cert = Certainty::new(m, nf);
    obs::instant(
        "verify",
        "cross",
        vec![
            obs::i("m", m as i64),
            obs::i("nf", nf as i64),
            obs::i("validated", cert.validated() as i64),
        ],
    );
    if cert.validated() {
        mk(TestStatus::Pass, Some(cert), source)
    } else {
        mk(TestStatus::PassInconclusive, Some(cert), source)
    }
}

/// Self-check a case against the defect-free reference implementation:
/// the functional test must pass and the cross test must discriminate.
/// Returns a list of problems (empty = healthy test).
pub fn validate_case(case: &TestCase) -> Vec<String> {
    let reference = VendorCompiler::reference();
    let mut problems = Vec::new();
    for lang in [Language::C, Language::Fortran] {
        if !case.supports(lang) {
            continue;
        }
        let r = run_case(case, &reference, lang);
        match &r.status {
            TestStatus::Pass => {}
            TestStatus::PassInconclusive => problems.push(format!(
                "{} ({lang}): cross test does not discriminate under the reference \
                 implementation ({})",
                case.name,
                r.certainty_label()
            )),
            other => problems.push(format!(
                "{} ({lang}): functional test fails under the reference implementation: {other}",
                case.name
            )),
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cross::CrossRule;
    use acc_ast::builder as b;
    use acc_ast::{Expr, Program};
    use acc_compiler::VendorId;
    use acc_spec::DirectiveKind;

    /// The Fig. 2 loop test: functional expects each element incremented
    /// once; the cross variant (directive removed) increments 10×.
    fn loop_case() -> TestCase {
        let n = 32;
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
                        acc_ast::AccClause::NumGangs(Expr::int(10)),
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
    fn reference_passes_with_full_certainty() {
        let case = loop_case();
        for lang in [Language::C, Language::Fortran] {
            let r = run_case(&case, &VendorCompiler::reference(), lang);
            assert_eq!(r.status, TestStatus::Pass, "{lang}: {:?}", r.status);
            let c = r.certainty.unwrap();
            assert!(c.validated());
            assert_eq!(c.pc(), 1.0);
        }
    }

    #[test]
    fn validate_case_accepts_healthy_test() {
        assert!(validate_case(&loop_case()).is_empty());
    }

    #[test]
    fn broken_compiler_fails_functionally() {
        // A compiler that ignores the loop directive produces 10x increments
        // in the functional test → wrong result.
        let mut profile = acc_device::ExecProfile::reference();
        profile.inject(acc_device::Defect::IgnoreDirective(DirectiveKind::Loop));
        let case = loop_case();
        let src = case.source_for(Language::C);
        let exe = acc_compiler::driver::compile_with_profile(
            &src,
            Language::C,
            profile,
            acc_spec::DeviceType::Nvidia,
        )
        .unwrap();
        assert!(matches!(exe.run().outcome, RunOutcome::Completed(0)));
    }

    #[test]
    fn caps_oldest_vs_latest() {
        // The latest CAPS release passes the loop test; the loop test itself
        // exercises no catalogued CAPS bug, so both should pass — but a
        // num_gangs variable-expression test distinguishes them.
        let case = loop_case();
        let latest = VendorCompiler::latest(VendorId::Caps);
        let r = run_case(&case, &latest, Language::C);
        assert_eq!(r.status, TestStatus::Pass, "{:?}", r.status);
    }

    #[test]
    fn skipped_language() {
        let case = loop_case().c_only();
        let r = run_case(&case, &VendorCompiler::reference(), Language::Fortran);
        assert_eq!(r.status, TestStatus::skipped());
        assert!(!r.status.counted());
    }
}
