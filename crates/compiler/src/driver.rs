//! The compile pipeline: source text → front-end → conformance checks →
//! defect application → executable.

use acc_ast::{Expr, Program, Stmt};
use acc_device::{Defect, ExecProfile, ObservedProfile};
use acc_frontend::{sema, ResolvedProgram, Severity};
use acc_spec::{ClauseKind, DeviceType, DirectiveKind, Language, RuntimeRoutine, SpecVersion};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

use crate::bytecode::BytecodeProgram;
use crate::cache::Counters;
use crate::exec::{RunKey, RunResult};

/// A run memo: results of one source under one observable profile, keyed
/// by the run's remaining inputs.
pub type RunMemo = Arc<Mutex<HashMap<RunKey, RunResult>>>;

/// Why compilation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// The front-end rejected the source.
    ParseError,
    /// Specification conformance errors (illegal clause, undeclared
    /// variable, 2.0 syntax under 1.0, …).
    SemanticError,
    /// The vendor's implementation rejects a feature it has not implemented
    /// — the paper's "assertion violations or other internal compilation
    /// errors … if the user uses an OpenACC feature that is not yet
    /// supported" (§V).
    InternalError,
}

/// A compile-time failure with its messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileFailure {
    /// Failure class.
    pub kind: FailureKind,
    /// Human-readable messages.
    pub messages: Vec<String>,
}

impl fmt::Display for CompileFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            FailureKind::ParseError => "parse error",
            FailureKind::SemanticError => "semantic error",
            FailureKind::InternalError => "internal compiler error",
        };
        write!(f, "{kind}: {}", self.messages.join("; "))
    }
}

impl std::error::Error for CompileFailure {}

/// A compiled test program: the parsed AST plus the behavioural profile the
/// machine will execute it under.
///
/// The AST, its resolved frame layouts and its bytecode image are
/// `Arc`-shared: when the compilation cache serves the same source to
/// several vendor versions, all resulting executables point at one parse
/// and one image.
#[derive(Debug, Clone)]
pub struct Executable {
    /// The program.
    pub program: Arc<Program>,
    /// Frame slot layouts for every function (name → slot resolution done
    /// once at compile time; the interpreter indexes `Vec`-backed frames).
    pub resolved: Arc<ResolvedProgram>,
    /// Vendor behaviour (mapping, policies, injected defects), shared by
    /// every executable one compiler builds for one language.
    pub profile: Arc<ExecProfile>,
    /// The implementation-defined concrete device type.
    pub concrete_device: DeviceType,
    /// The lowered bytecode image the VM engine executes. Lowering reads
    /// only the program and its layouts, so every release compiling the
    /// source through one compile cache shares one image.
    pub code: Arc<BytecodeProgram>,
    /// Memoized run results, keyed by the run's knobs and environment
    /// ([`RunKey`]). A run is a pure function of the image, the profile
    /// without its name, the device and that key, and only the defects the
    /// source can reach matter (DESIGN.md §15.2). So every release whose
    /// *observable profile* for this source is equal shares this memo
    /// through the compile cache's front-end entry, and replays a result
    /// another release computed. Only consulted when `RunKnobs::memo` is
    /// set; see [`Executable::run_with_knobs`].
    pub run_memo: RunMemo,
    /// The compile cache's counters; `None` when compiled uncached.
    pub(crate) counters: Option<Arc<Counters>>,
}

impl Executable {
    /// A stable textual disassembly of the lowered program (the
    /// `accvv disasm` output).
    pub fn disassemble(&self) -> String {
        self.code.disassemble()
    }

    /// Re-run bytecode lowering from the resolved AST (bench probe for
    /// isolating lowering cost).
    pub fn lower_again(&self) -> BytecodeProgram {
        crate::bytecode::lower(&self.program, &self.resolved)
    }
}

/// The profile-independent front half of the pipeline: parse, specification
/// conformance, name resolution. Its result depends only on `(source,
/// language, spec version)` — this is the unit the compilation cache shares
/// across vendors and versions.
pub fn frontend_compile(
    source: &str,
    language: Language,
) -> Result<(Arc<Program>, Arc<ResolvedProgram>), CompileFailure> {
    // 1. Front-end.
    let program = acc_frontend::parse(source, language).map_err(|e| CompileFailure {
        kind: FailureKind::ParseError,
        messages: vec![e.to_string()],
    })?;
    // 2. Specification conformance.
    let diags = sema::analyze(&program, SpecVersion::V1_0);
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
    // 3. Name resolution (frame slot assignment).
    let resolved = acc_frontend::resolve(&program);
    Ok((Arc::new(program), Arc::new(resolved)))
}

/// The profile-specific back half: apply the vendor release's compile-time
/// defects to an already-parsed program and produce the executable. It
/// lowers afresh; [`crate::vendor::VendorCompiler::compile`] with a cache
/// attached shares one image per source instead. The product no longer
/// calls it; it stays public for callers that run the front half
/// themselves.
pub fn finish_compile(
    program: Arc<Program>,
    resolved: Arc<ResolvedProgram>,
    profile: impl Into<Arc<ExecProfile>>,
    concrete_device: DeviceType,
) -> Result<Executable, CompileFailure> {
    FrontendUnit::new(program, resolved, None).finish(profile.into(), concrete_device)
}

/// Compile `source` under `profile` (already carrying the version's
/// defects). This is the shared back half of
/// [`crate::vendor::VendorCompiler::compile`]; it is public so tests and
/// tools can compile against hand-built profiles.
pub fn compile_with_profile(
    source: &str,
    language: Language,
    profile: impl Into<Arc<ExecProfile>>,
    concrete_device: DeviceType,
) -> Result<Executable, CompileFailure> {
    let (program, resolved) = frontend_compile(source, language)?;
    FrontendUnit::new(program, resolved, None).finish(profile.into(), concrete_device)
}

/// A source through the front end, plus what every release compiling it
/// shares: the summary of what it uses that defects can reach, its
/// lowered bytecode image, and one run memo per observable profile.
/// None of them depends on more of the profile than its key shows. The
/// summary and image are filled on first use, the image only by a
/// release whose compile-time check passes.
#[derive(Debug)]
pub(crate) struct FrontendUnit {
    pub(crate) program: Arc<Program>,
    pub(crate) resolved: Arc<ResolvedProgram>,
    usage: OnceLock<DefectUsage>,
    pub(crate) image: OnceLock<Arc<BytecodeProgram>>,
    /// The run memos by observable profile and device. A unit sees few
    /// (one per vendor and distinct reachable defect set), so a linear
    /// scan finds them.
    memos: Mutex<Vec<(DeviceType, ObservedProfile, RunMemo)>>,
    /// The owning cache's counters, handed to every executable.
    counters: Option<Arc<Counters>>,
}

impl FrontendUnit {
    pub(crate) fn new(
        program: Arc<Program>,
        resolved: Arc<ResolvedProgram>,
        counters: Option<Arc<Counters>>,
    ) -> Self {
        FrontendUnit {
            program,
            resolved,
            usage: OnceLock::new(),
            image: OnceLock::new(),
            memos: Mutex::new(Vec::new()),
            counters,
        }
    }

    /// The run memo every release that observes `observed` on `device`
    /// shares for this source.
    fn memo(&self, device: DeviceType, observed: ObservedProfile) -> RunMemo {
        let mut memos = self.memos.lock().expect("memo table poisoned");
        if let Some((_, _, memo)) = memos
            .iter()
            .find(|(d, o, _)| *d == device && *o == observed)
        {
            return Arc::clone(memo);
        }
        let memo = RunMemo::default();
        memos.push((device, observed, Arc::clone(&memo)));
        memo
    }

    /// The back half of every compile, cached or not: check the source's
    /// usage against the profile's compile-time defects, then build the
    /// executable around the shared image, lowering it on first use, and
    /// the memo of its observable profile.
    pub(crate) fn finish(
        &self,
        profile: Arc<ExecProfile>,
        concrete_device: DeviceType,
    ) -> Result<Executable, CompileFailure> {
        let usage = self.usage.get_or_init(|| DefectUsage::of(&self.program));
        let ice = usage.rejections(&profile);
        if !ice.is_empty() {
            return Err(CompileFailure {
                kind: FailureKind::InternalError,
                messages: ice,
            });
        }
        let code = self.image.get_or_init(|| {
            // Timing-class span: which worker, and which release, lowers a
            // shared image depends on schedule.
            acc_obs::begin_timing("lower", "bytecode", vec![]);
            let code = crate::bytecode::lower(&self.program, &self.resolved);
            acc_obs::end(vec![acc_obs::i("instrs", code.code.len() as i64)]);
            Arc::new(code)
        });
        let run_memo = self.memo(concrete_device, profile.observed(|d| usage.observes(d)));
        Ok(Executable {
            program: Arc::clone(&self.program),
            resolved: Arc::clone(&self.resolved),
            profile,
            concrete_device,
            code: Arc::clone(code),
            run_memo,
            counters: self.counters.clone(),
        })
    }
}

/// What a program uses that a release's defects can reach: the
/// per-source half of the compile-time check ([`rejections`]
/// (Self::rejections)) and of the run memo's key ([`observes`]
/// (Self::observes)). Sets, because each message depends only on the item
/// and the messages are deduplicated anyway.
#[derive(Debug, Default)]
struct DefectUsage {
    /// Every directive (clause `None`) and every clause on it.
    features: BTreeSet<(DirectiveKind, Option<ClauseKind>)>,
    /// Sizing clauses given a non-constant expression.
    variable_sizing: BTreeSet<ClauseKind>,
    /// Runtime routines called anywhere: in statements, loop bounds,
    /// array indices, clause arguments and data sections.
    routines: BTreeSet<RuntimeRoutine>,
}

impl DefectUsage {
    fn of(program: &Program) -> Self {
        let mut usage = DefectUsage::default();
        for dir in program.directives() {
            usage.features.insert((dir.kind, None));
            for c in &dir.clauses {
                usage.features.insert((dir.kind, Some(c.kind())));
                let (kind, expr): (ClauseKind, &Expr) = match c {
                    acc_ast::AccClause::NumGangs(e) => (ClauseKind::NumGangs, e),
                    acc_ast::AccClause::NumWorkers(e) => (ClauseKind::NumWorkers, e),
                    acc_ast::AccClause::VectorLength(e) => (ClauseKind::VectorLength, e),
                    _ => continue,
                };
                if !expr.is_const() {
                    usage.variable_sizing.insert(kind);
                }
            }
        }
        let mut call = |name: &str| {
            if let Some(r) = RuntimeRoutine::from_symbol(name) {
                usage.routines.insert(r);
            }
        };
        for f in &program.functions {
            for s in &f.body {
                s.visit(&mut |st| {
                    if let Stmt::Call { name, .. } = st {
                        call(name);
                    }
                    st.for_each_expr(&mut |e| {
                        e.visit(&mut |x| {
                            if let Expr::Call { name, .. } = x {
                                call(name);
                            }
                        })
                    });
                });
            }
        }
        usage
    }

    /// Can a run of this program tell a profile with `defect` from one
    /// without it? Read off the machine's profile queries (`exec.rs`;
    /// DESIGN.md §15.2). A `true` that could be `false` only
    /// costs sharing; a wrong `false` would replay another release's
    /// result, so each arm errs towards `true`.
    fn observes(&self, defect: &Defect) -> bool {
        let has_directive = |k: DirectiveKind| self.features.contains(&(k, None));
        let has_clause = |c: ClauseKind| self.features.iter().any(|&(_, cl)| cl == Some(c));
        match *defect {
            Defect::IgnoreDirective(k) => has_directive(k),
            // Clause defects apply through a combined construct's
            // components (`ExecProfile::ignores_clause`, `hangs_on`).
            Defect::IgnoreClause(k, c) | Defect::HangOnClause(k, c) => self
                .features
                .iter()
                .any(|&(d, cl)| cl == Some(c) && d.components().contains(&k)),
            Defect::WrongReduction(_) => has_clause(ClauseKind::Reduction),
            Defect::FirstprivateUninitialized => has_clause(ClauseKind::Firstprivate),
            Defect::PrivateAliasesShared => has_clause(ClauseKind::Private),
            Defect::CollapseIgnoresInner => has_clause(ClauseKind::Collapse),
            Defect::UpdateNoop => has_directive(DirectiveKind::Update),
            Defect::EliminateDeadComputeRegions => {
                self.features.iter().any(|&(d, _)| d.is_compute())
            }
            // Only scalars in data clauses lose their transfers; any
            // clause at all is the conservative reading.
            Defect::ScalarCopyOmitted => self.features.iter().any(|&(_, cl)| cl.is_some()),
            Defect::AsyncFamilyBroken => {
                has_clause(ClauseKind::Async)
                    || has_directive(DirectiveKind::Wait)
                    || self.routines.iter().any(|r| r.is_async_family())
            }
            Defect::RoutineReturnsConstant(r, _) => self.routines.contains(&r),
            // Settled by `rejections` before any run: a program these
            // reach never compiles, one they miss never sees them.
            Defect::CompileError(..)
            | Defect::RejectVariableSizingExpr
            | Defect::RejectRoutine(_) => false,
            Defect::TransientMemcpyFault { .. } | Defect::IntermittentAsyncStall { .. } => true,
        }
    }

    /// The internal- and link-error messages `profile` raises for this
    /// usage, sorted and deduplicated.
    fn rejections(&self, profile: &ExecProfile) -> Vec<String> {
        let mut msgs = Vec::new();
        for &(dir, clause) in &self.features {
            if profile.compile_error(dir, clause) {
                msgs.push(match clause {
                    None => format!(
                        "internal error: `{}` directive is not supported by this release",
                        dir.name()
                    ),
                    Some(c) => format!(
                        "internal error: `{}` clause on `{}` is not supported by this release",
                        c.name(),
                        dir.name()
                    ),
                });
            }
        }
        // CAPS §V-B: variable expressions in sizing clauses rejected.
        if profile.has(&Defect::RejectVariableSizingExpr) {
            for kind in &self.variable_sizing {
                msgs.push(format!(
                    "internal error: `{}` requires a constant expression",
                    kind.name()
                ));
            }
        }
        // Missing runtime routines (link failure).
        for &r in &self.routines {
            if profile.has(&Defect::RejectRoutine(r)) {
                msgs.push(format!(
                    "link error: undefined reference to `{}`",
                    r.symbol()
                ));
            }
        }
        msgs.sort();
        msgs.dedup();
        msgs
    }
}

/// Convenience for checking whether a program *uses* a feature pair —
/// shared by the bug catalog's applicability logic.
pub fn program_uses(program: &Program, dir: DirectiveKind, clause: Option<ClauseKind>) -> bool {
    program.directives().iter().any(|d| {
        d.kind == dir
            && match clause {
                None => true,
                Some(c) => d.clauses.iter().any(|cl| cl.kind() == c),
            }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use acc_device::ExecProfile;

    fn reference() -> (ExecProfile, DeviceType) {
        (ExecProfile::reference(), DeviceType::Nvidia)
    }

    #[test]
    fn clean_program_compiles() {
        let (p, d) = reference();
        let src = "int main(void) {\n    int a[4];\n    #pragma acc parallel copy(a[0:4])\n    {\n        #pragma acc loop\n        for (i = 0; i < 4; i++)\n        {\n            a[i] = i;\n        }\n    }\n    return 1;\n}\n";
        assert!(compile_with_profile(src, Language::C, p, d).is_ok());
    }

    #[test]
    fn parse_error_classified() {
        let (p, d) = reference();
        let err =
            compile_with_profile("int main(void) {\n    @@@\n}\n", Language::C, p, d).unwrap_err();
        assert_eq!(err.kind, FailureKind::ParseError);
    }

    #[test]
    fn semantic_error_classified() {
        let (p, d) = reference();
        let src = "int main(void) {\n    #pragma acc kernels num_gangs(4)\n    {\n    }\n    return 1;\n}\n";
        let err = compile_with_profile(src, Language::C, p, d).unwrap_err();
        assert_eq!(err.kind, FailureKind::SemanticError);
    }

    #[test]
    fn compile_error_defect_triggers_only_when_feature_used() {
        let profile = ExecProfile::reference()
            .with_defect(Defect::CompileError(DirectiveKind::Declare, None));
        let uses = "int main(void) {\n    int a[4];\n    #pragma acc declare create(a[0:4])\n    return 1;\n}\n";
        let err = compile_with_profile(uses, Language::C, profile.clone(), DeviceType::Nvidia)
            .unwrap_err();
        assert_eq!(err.kind, FailureKind::InternalError);
        let clean = "int main(void) {\n    return 1;\n}\n";
        assert!(compile_with_profile(clean, Language::C, profile, DeviceType::Nvidia).is_ok());
    }

    #[test]
    fn variable_sizing_expr_rejected_under_caps_bug() {
        let profile = ExecProfile::reference().with_defect(Defect::RejectVariableSizingExpr);
        let src = "int main(void) {\n    int gangs = 8;\n    #pragma acc parallel num_gangs(gangs)\n    {\n    }\n    return 1;\n}\n";
        let err =
            compile_with_profile(src, Language::C, profile.clone(), DeviceType::Cuda).unwrap_err();
        assert_eq!(err.kind, FailureKind::InternalError);
        // Constant form still compiles (the paper's Fig. 9 "working" case).
        let const_src = "int main(void) {\n    #pragma acc parallel num_gangs(8)\n    {\n    }\n    return 1;\n}\n";
        assert!(compile_with_profile(const_src, Language::C, profile, DeviceType::Cuda).is_ok());
    }

    #[test]
    fn missing_routine_is_link_error() {
        let profile =
            ExecProfile::reference().with_defect(Defect::RejectRoutine(RuntimeRoutine::AsyncTest));
        let src =
            "int main(void) {\n    int t = 0;\n    t = acc_async_test(1);\n    return t;\n}\n";
        let err = compile_with_profile(src, Language::C, profile, DeviceType::Nvidia).unwrap_err();
        assert_eq!(err.kind, FailureKind::InternalError);
        assert!(err.messages[0].contains("acc_async_test"));
    }

    #[test]
    fn a_rejected_routine_is_found_wherever_it_is_called() {
        let routine = RuntimeRoutine::GetNumDevices;
        let profile = ExecProfile::reference().with_defect(Defect::RejectRoutine(routine));
        let call = "acc_get_num_devices(acc_device_nvidia)";
        let bodies = [
            (
                "loop bound",
                format!("for (i = 0; i < {call}; i++)\n    {{\n        a[0] = i;\n    }}"),
            ),
            ("array index", format!("a[{call}] = 1;")),
            (
                "if clause",
                format!("#pragma acc parallel if({call}) copy(a[0:4])\n    {{\n    }}"),
            ),
            (
                "data section",
                format!("#pragma acc data copy(a[0:{call}])\n    {{\n    }}"),
            ),
        ];
        for (place, body) in bodies {
            let src = format!("int main(void) {{\n    int a[4];\n    {body}\n    return 1;\n}}\n");
            let (p, d) = reference();
            assert!(
                compile_with_profile(&src, Language::C, p, d).is_ok(),
                "{place}"
            );
            let err = compile_with_profile(&src, Language::C, profile.clone(), DeviceType::Nvidia)
                .expect_err(place);
            assert_eq!(err.kind, FailureKind::InternalError, "{place}");
            assert!(err.messages[0].contains(routine.symbol()), "{place}: {err}");
        }
    }

    #[test]
    fn program_uses_helper() {
        let src = "int main(void) {\n    int a[4];\n    #pragma acc data copyin(a[0:4])\n    {\n    }\n    return 1;\n}\n";
        let p = acc_frontend::parse(src, Language::C).unwrap();
        assert!(program_uses(&p, DirectiveKind::Data, None));
        assert!(program_uses(
            &p,
            DirectiveKind::Data,
            Some(ClauseKind::Copyin)
        ));
        assert!(!program_uses(
            &p,
            DirectiveKind::Data,
            Some(ClauseKind::Copyout)
        ));
        assert!(!program_uses(&p, DirectiveKind::Parallel, None));
    }
}
