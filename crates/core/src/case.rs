//! Test cases: one feature test base plus its metadata.

use crate::cross::CrossRule;
use acc_ast::Program;
use acc_spec::envvar::EnvConfig;
use acc_spec::{FeatureId, Language};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Default cross-test repetition count (the M of §III).
pub const DEFAULT_REPETITIONS: u32 = 3;

/// A single feature test: the base program (authored once), the feature it
/// validates, the languages it applies to, and how to derive its cross test.
#[derive(Debug, Clone)]
pub struct TestCase {
    /// Unique test name (conventionally the feature id).
    pub name: String,
    /// Feature under test.
    pub feature: FeatureId,
    /// Languages the test applies to (`acc_malloc` has no Fortran binding
    /// in 1.0, so its tests are C-only).
    pub languages: Vec<Language>,
    /// The test base. Stored in C form; [`TestCase::source_for`] renders it
    /// in either language.
    pub base: Program,
    /// Cross derivation; `None` for features where no meaningful cross test
    /// exists (§III: "a set of short feature tests wherever possible").
    pub cross: Option<CrossRule>,
    /// Human-readable description for reports.
    pub description: String,
    /// ACC_* environment for the run (environment-variable tests).
    pub env: EnvConfig,
    /// Cross-test repetitions (M).
    pub repetitions: u32,
    /// Memoized rendered source text (functional and cross, per language),
    /// shared by every clone of this case. Rendering is deterministic, so
    /// the first render stands for all — a version sweep re-renders nothing.
    /// Mutate `base`/`cross` only before the first render.
    rendered: Arc<RenderCache>,
}

/// The four render slots: functional/cross × C/Fortran.
#[derive(Debug, Default)]
struct RenderCache {
    func: [OnceLock<String>; 2],
    cross: [OnceLock<Option<String>>; 2],
}

fn lang_idx(lang: Language) -> usize {
    match lang {
        Language::C => 0,
        Language::Fortran => 1,
    }
}

impl TestCase {
    /// Construct with defaults (both languages, M = 3, empty env).
    pub fn new(
        name: impl Into<String>,
        feature: impl Into<String>,
        base: Program,
        cross: Option<CrossRule>,
        description: impl Into<String>,
    ) -> Self {
        let name = name.into();
        TestCase {
            name,
            feature: FeatureId::new(feature.into()),
            languages: vec![Language::C, Language::Fortran],
            base,
            cross,
            description: description.into(),
            env: EnvConfig::empty(),
            repetitions: DEFAULT_REPETITIONS,
            rendered: Arc::default(),
        }
    }

    /// Restrict to C only.
    pub fn c_only(mut self) -> Self {
        self.languages = vec![Language::C];
        self
    }

    /// Set the run environment.
    pub fn with_env(mut self, env: EnvConfig) -> Self {
        self.env = env;
        self
    }

    /// Does the test apply to the language?
    pub fn supports(&self, lang: Language) -> bool {
        self.languages.contains(&lang)
    }

    /// Functional source text for a language (rendered once, memoized),
    /// emitted straight from `base`.
    pub fn source_for(&self, lang: Language) -> String {
        self.rendered.func[lang_idx(lang)]
            .get_or_init(|| acc_ast::render_as(&self.base, lang))
            .clone()
    }

    /// Cross source text for a language (rendered once, memoized); `None`
    /// when the test has no cross rule. The first call derives the cross
    /// program once and renders it in every language the case supports,
    /// then drops it, so a case keeps no second AST.
    pub fn cross_source_for(&self, lang: Language) -> Option<String> {
        let slots = &self.rendered.cross;
        if let Some(source) = slots[lang_idx(lang)].get() {
            return source.clone();
        }
        let cross = self.cross.as_ref().map(|rule| rule.apply(&self.base));
        for l in self.languages.iter().copied().chain([lang]) {
            let slot = &slots[lang_idx(l)];
            if slot.get().is_none() {
                let _ = slot.set(cross.as_ref().map(|p| acc_ast::render_as(p, l)));
            }
        }
        slots[lang_idx(lang)].get().expect("rendered above").clone()
    }
}

/// Classification of one test execution against one compiler+language —
/// mirroring the paper's failure taxonomy (§V: compile-time errors; runtime
/// errors: incorrect result, crash, executes forever).
#[derive(Debug, Clone, PartialEq)]
pub enum TestStatus {
    /// Functional test passed and the cross test discriminated at 100%
    /// certainty (or the test defines no cross).
    Pass,
    /// Functional test passed but the cross test did NOT discriminate — the
    /// directive appears to have no effect; the paper reports this and the
    /// functional test is re-designed. Counted as a pass for the compiler
    /// (the failure is the suite's).
    PassInconclusive,
    /// Compilation failed.
    CompileError(String),
    /// The program ran and produced an incorrect result — the "wrong code
    /// bugs … in silence" class.
    WrongResult,
    /// The program crashed at runtime.
    Crash(String),
    /// The program exceeded its execution budget ("executes forever") —
    /// either the interpreter's step budget or the executor's wall-clock
    /// deadline.
    Timeout,
    /// The harness itself failed (a panic inside the front-end or
    /// interpreter caught by the executor's isolation boundary). One red
    /// row, not a dead campaign — and not the compiler's fault.
    Infra(String),
    /// The verdict changed across retry attempts (e.g. a transient memcpy
    /// fault on one node). Not a hard failure of the compiler; surfaced
    /// separately so infrastructure flakiness is visible, with the
    /// attempt-level pass ratio folded into the certainty statistics.
    Flaky,
    /// The test was not executed: either it does not apply to this language
    /// (no reason), or the service degraded it deliberately (reason says
    /// why — e.g. a tripped circuit breaker for the vendor profile).
    /// Skipped rows are never counted, so a degraded campaign's report
    /// stays comparable with a healthy one.
    Skipped(Option<String>),
}

impl TestStatus {
    /// Conformance verdict: did the compiler pass this feature test?
    pub fn passed(&self) -> bool {
        matches!(
            self,
            TestStatus::Pass | TestStatus::PassInconclusive | TestStatus::Flaky
        )
    }

    /// Is this a countable executed test (not skipped)?
    pub fn counted(&self) -> bool {
        !matches!(self, TestStatus::Skipped(_))
    }

    /// The plain "does not apply" skip (no degradation reason).
    pub fn skipped() -> Self {
        TestStatus::Skipped(None)
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            TestStatus::Pass => "PASS",
            TestStatus::PassInconclusive => "PASS*",
            TestStatus::CompileError(_) => "COMPILE-ERROR",
            TestStatus::WrongResult => "WRONG-RESULT",
            TestStatus::Crash(_) => "CRASH",
            TestStatus::Timeout => "TIMEOUT",
            TestStatus::Infra(_) => "INFRA",
            TestStatus::Flaky => "FLAKY",
            TestStatus::Skipped(_) => "SKIP",
        }
    }
}

impl fmt::Display for TestStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestStatus::CompileError(m) => write!(f, "COMPILE-ERROR: {m}"),
            TestStatus::Crash(m) => write!(f, "CRASH: {m}"),
            TestStatus::Infra(m) => write!(f, "INFRA: {m}"),
            TestStatus::Skipped(Some(m)) => write!(f, "SKIP: {m}"),
            other => f.write_str(other.label()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acc_ast::builder as b;
    use acc_ast::{Expr, Stmt};
    use acc_spec::DirectiveKind;

    fn sample() -> TestCase {
        let base = Program::simple(
            "t",
            Language::C,
            vec![
                b::decl_array("A", acc_ast::ScalarType::Int, 8),
                b::parallel_region(
                    vec![],
                    vec![b::acc_loop(
                        vec![],
                        "i",
                        Expr::int(8),
                        vec![b::set1("A", Expr::var("i"), Expr::int(1))],
                    )],
                ),
                Stmt::Return(Expr::int(1)),
            ],
        );
        TestCase::new(
            "loop",
            "loop",
            base,
            Some(CrossRule::RemoveDirective(DirectiveKind::Loop)),
            "loop directive partitions iterations",
        )
    }

    #[test]
    fn renders_both_languages() {
        let t = sample();
        let c = t.source_for(Language::C);
        let f = t.source_for(Language::Fortran);
        assert!(c.contains("#pragma acc parallel"));
        assert!(f.contains("!$acc parallel"));
        assert!(f.contains("!$acc end parallel"));
    }

    #[test]
    fn cross_sources_lack_the_directive() {
        let t = sample();
        let c = t.cross_source_for(Language::C).unwrap();
        assert!(!c.contains("#pragma acc loop"));
        assert!(c.contains("#pragma acc parallel"));
        let f = t.cross_source_for(Language::Fortran).unwrap();
        assert!(!f.contains("!$acc loop"));
    }

    #[test]
    fn c_only_restriction() {
        let t = sample().c_only();
        assert!(t.supports(Language::C));
        assert!(!t.supports(Language::Fortran));
    }

    #[test]
    fn status_classification() {
        assert!(TestStatus::Pass.passed());
        assert!(TestStatus::PassInconclusive.passed());
        assert!(!TestStatus::WrongResult.passed());
        assert!(!TestStatus::CompileError("x".into()).passed());
        assert!(!TestStatus::skipped().counted());
        assert!(!TestStatus::Skipped(Some("breaker open".into())).counted());
        assert_eq!(
            TestStatus::Skipped(Some("breaker open".into())).to_string(),
            "SKIP: breaker open"
        );
        assert!(TestStatus::Timeout.counted());
        assert_eq!(TestStatus::WrongResult.label(), "WRONG-RESULT");
        // Infra failures count but are not compiler passes; flaky results
        // count and are not hard failures.
        assert!(TestStatus::Infra("panic".into()).counted());
        assert!(!TestStatus::Infra("panic".into()).passed());
        assert!(TestStatus::Flaky.counted());
        assert!(TestStatus::Flaky.passed());
        assert_eq!(TestStatus::Infra("x".into()).label(), "INFRA");
        assert_eq!(TestStatus::Flaky.label(), "FLAKY");
        assert_eq!(TestStatus::Infra("boom".into()).to_string(), "INFRA: boom");
    }

    #[test]
    fn no_cross_rule_means_no_cross_program() {
        let mut t = sample();
        t.cross = None;
        assert!(t.cross_source_for(Language::C).is_none());
    }
}
