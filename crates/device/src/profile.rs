//! Execution profiles: the behaviour knobs a simulated vendor compiler sets.
//!
//! A profile captures two things:
//!
//! 1. **Legitimate implementation choices** the 1.0 spec leaves open —
//!    the gang/worker/vector hardware mapping (§II) and the
//!    worker-loop-without-gang policy (the Fig. 1 ambiguity). Different
//!    vendors legitimately differ here, and the testsuite must *not* call
//!    these bugs.
//! 2. **Injected defects** ([`Defect`]) — concrete wrong-code or runtime
//!    misbehaviours drawn from the paper's bug analyses (§V-B). The machine
//!    consults the active defect set at the corresponding semantic points,
//!    so a defect manifests as silently wrong results (the paper's "wrong
//!    code bugs"), a hang, or a crash — never as a flag the harness could
//!    cheat by reading.

use acc_spec::FxHashSet;
use acc_spec::{ClauseKind, DirectiveKind, Language, ReductionOp, RuntimeRoutine, VendorMapping};

/// Policy for a `loop worker` with no enclosing `loop gang`
/// (the OpenACC 1.0 ambiguity of Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WorkerLoopPolicy {
    /// Partition iterations across the workers of each gang; with `G` gangs
    /// the loop body runs once per gang (CAPS-style).
    #[default]
    PerGangWorkers,
    /// Spread iterations across all gangs *and* workers; the loop body runs
    /// exactly once in total (Cray-style forward analysis).
    SpreadAcrossGangs,
    /// Treat the loop as sequential within each gang — the level is ignored
    /// (PGI-style, which does not map `worker` at all).
    SequentialPerGang,
}

/// The software stack the OpenACC program is translated through on a node
/// (the Titan harness of §VII validates both paths, Fig. 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TranslationTarget {
    /// OpenACC → CUDA.
    #[default]
    Cuda,
    /// OpenACC → OpenCL.
    Opencl,
}

impl TranslationTarget {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            TranslationTarget::Cuda => "CUDA",
            TranslationTarget::Opencl => "OpenCL",
        }
    }
}

/// An injected defect. Each corresponds to an observable misbehaviour; the
/// machine and the compiler driver consult the set at the matching semantic
/// point. Ordered so a set of defects has one canonical listing.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Defect {
    /// The directive parses but has no effect (silent wrong code). E.g. a
    /// broken `loop` directive leaves the loop running gang-redundantly.
    IgnoreDirective(DirectiveKind),
    /// The clause parses but is silently ignored on the given directive.
    IgnoreClause(DirectiveKind, ClauseKind),
    /// Compile-time rejection of the feature ("not yet supported"): the
    /// compiler driver fails with an internal error when the feature occurs.
    CompileError(DirectiveKind, Option<ClauseKind>),
    /// §V-B CAPS: non-constant expressions in `num_gangs`/`num_workers`/
    /// `vector_length` are rejected at compile time.
    RejectVariableSizingExpr,
    /// §V-B PGI: the whole asynchronous family is broken — `acc_async_test`
    /// and friends never observe completion, and results written by async
    /// activities never become visible (the routine returns the untouched
    /// initial value, observed as -1 in the paper's Fig. 10 test).
    AsyncFamilyBroken,
    /// §V-B Cray: scalar variables in `copy`/`copyin`/`copyout` clauses are
    /// not transferred (arrays still are).
    ScalarCopyOmitted,
    /// §V-B Cray: compute regions whose result is provably unused (the
    /// "dummy loop" of Fig. 11) are eliminated, including their data
    /// movement.
    EliminateDeadComputeRegions,
    /// A reduction with the given operator produces a wrong partial-
    /// combination (classic "complex directives such as reduction" bugs).
    WrongReduction(ReductionOp),
    /// A specific runtime routine is broken: it returns the given constant
    /// instead of its real result.
    RoutineReturnsConstant(RuntimeRoutine, i64),
    /// `update host`/`update device` silently does nothing.
    UpdateNoop,
    /// `firstprivate` behaves like `private` (copies are not initialized
    /// from the host value; they see garbage).
    FirstprivateUninitialized,
    /// Kernel launches on this feature hang (the paper's "code executes
    /// forever" runtime error class). The machine aborts with a timeout when
    /// a region carrying the clause executes.
    HangOnClause(DirectiveKind, ClauseKind),
    /// The `collapse(n)` clause only collapses the outermost loop
    /// (n is effectively 1).
    CollapseIgnoresInner,
    /// `private` is ignored: "private" variables alias the shared copy.
    PrivateAliasesShared,
    /// The runtime routine is missing from the vendor's library: programs
    /// calling it fail at compile/link time.
    RejectRoutine(RuntimeRoutine),
    /// *Transient* infrastructure fault: a host↔device transfer fails
    /// (crashing the run) with probability `rate_pct`% per transfer. The
    /// draw is a pure function of `seed`, the program name, and the run
    /// index, so a given (seed, program, attempt) triple always reproduces —
    /// deterministic flakiness, the field failure mode the Titan harness's
    /// nightly retries exist for (§VII).
    TransientMemcpyFault {
        /// Failure probability in percent (0–100) per transfer.
        rate_pct: u8,
        /// Seed decorrelating this fault source from others.
        seed: u64,
    },
    /// *Transient* infrastructure fault: a `wait` (or synchronous queue
    /// drain) stalls forever with probability `rate_pct`% per wait,
    /// observed as a timeout. Same determinism contract as
    /// [`Defect::TransientMemcpyFault`].
    IntermittentAsyncStall {
        /// Stall probability in percent (0–100) per wait point.
        rate_pct: u8,
        /// Seed decorrelating this fault source from others.
        seed: u64,
    },
}

impl Defect {
    /// Is this a transient infrastructure fault (retry-able) rather than a
    /// deterministic compiler bug?
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            Defect::TransientMemcpyFault { .. } | Defect::IntermittentAsyncStall { .. }
        )
    }
}

/// Deterministic per-event fault decision shared by every transient-fault
/// site: SplitMix64 over `(seed, program hash, run index, event index)`.
/// Thread-schedule independent — the machine executing a program is
/// single-threaded, and everything entering the hash is fixed per attempt.
pub fn transient_fault_fires(
    rate_pct: u8,
    seed: u64,
    program_hash: u64,
    run_index: u64,
    event_index: u64,
) -> bool {
    if rate_pct == 0 {
        return false;
    }
    if rate_pct >= 100 {
        return true;
    }
    let mut z = seed
        ^ program_hash.rotate_left(17)
        ^ run_index.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ event_index.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % 100) < rate_pct as u64
}

/// FNV-1a hash of a program name — the stable `program_hash` input to
/// [`transient_fault_fires`].
pub fn stable_name_hash(name: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Which languages a defect (or a whole profile rule) applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LangScope {
    /// C only.
    COnly,
    /// Fortran only.
    FortranOnly,
    /// Both languages.
    Both,
}

impl LangScope {
    /// Does the scope cover `lang`?
    pub fn covers(self, lang: Language) -> bool {
        match self {
            LangScope::COnly => lang == Language::C,
            LangScope::FortranOnly => lang == Language::Fortran,
            LangScope::Both => true,
        }
    }
}

/// The complete behavioural profile the machine executes under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecProfile {
    /// Human-readable name ("CAPS 3.0.7 (C)").
    pub name: String,
    /// gang/worker/vector hardware mapping.
    pub mapping: VendorMapping,
    /// Policy for the Fig. 1 ambiguity.
    pub worker_loop_policy: WorkerLoopPolicy,
    /// Software stack (CUDA/OpenCL) — semantics-neutral, recorded in
    /// metrics and used by the Titan harness.
    pub target: TranslationTarget,
    /// Default gang count when `num_gangs` is absent.
    pub default_gangs: u32,
    /// Default workers per gang when `num_workers` is absent.
    pub default_workers: u32,
    /// Default vector length when `vector_length` is absent.
    pub default_vector: u32,
    /// Gang count the compiler auto-selects for loops in `kernels` regions
    /// (which admit no `num_gangs`).
    pub kernels_auto_gangs: u32,
    /// Active injected defects.
    defects: FxHashSet<Defect>,
}

impl ExecProfile {
    /// A defect-free, spec-conforming profile with the given mapping.
    pub fn conforming(name: impl Into<String>, mapping: VendorMapping) -> Self {
        ExecProfile {
            name: name.into(),
            mapping,
            worker_loop_policy: WorkerLoopPolicy::default(),
            target: TranslationTarget::default(),
            default_gangs: 1,
            default_workers: 1,
            default_vector: 1,
            kernels_auto_gangs: 8,
            defects: FxHashSet::default(),
        }
    }

    /// A reference profile used by the validation suite itself to compute
    /// expected results (PGI-style mapping, no defects).
    pub fn reference() -> Self {
        Self::conforming("reference", VendorMapping::PGI_STYLE)
    }

    /// Add a defect.
    pub fn inject(&mut self, d: Defect) {
        self.defects.insert(d);
    }

    /// Builder-style defect injection.
    pub fn with_defect(mut self, d: Defect) -> Self {
        self.inject(d);
        self
    }

    /// Remove a defect (a vendor fixed the bug in a newer release).
    pub fn fix(&mut self, d: &Defect) -> bool {
        self.defects.remove(d)
    }

    /// Is the defect active?
    pub fn has(&self, d: &Defect) -> bool {
        self.defects.contains(d)
    }

    /// Is a clause on a directive silently ignored? A combined construct
    /// inherits clause defects keyed to its components (`parallel loop`
    /// carries every `parallel` and `loop` clause bug).
    pub fn ignores_clause(&self, dir: DirectiveKind, clause: ClauseKind) -> bool {
        dir.components()
            .iter()
            .any(|d| self.defects.contains(&Defect::IgnoreClause(*d, clause)))
    }

    /// Is a directive silently ignored? Only the exact kind counts here — a
    /// broken standalone `loop` does not imply the combined construct is
    /// broken (its loop handling is separate code in real compilers).
    pub fn ignores_directive(&self, dir: DirectiveKind) -> bool {
        self.defects.contains(&Defect::IgnoreDirective(dir))
    }

    /// Does a feature occurrence hang the device? Component-aware like
    /// [`ignores_clause`](Self::ignores_clause).
    pub fn hangs_on(&self, dir: DirectiveKind, clause: ClauseKind) -> bool {
        dir.components()
            .iter()
            .any(|d| self.defects.contains(&Defect::HangOnClause(*d, clause)))
    }

    /// The compile-time rejection for a directive/clause pair, if any.
    /// Component-aware: rejecting `async` on `parallel` also rejects it on
    /// `parallel loop`.
    pub fn compile_error(&self, dir: DirectiveKind, clause: Option<ClauseKind>) -> bool {
        dir.components()
            .iter()
            .any(|d| self.defects.contains(&Defect::CompileError(*d, clause)))
    }

    /// Constant-return override for a runtime routine, if any.
    pub fn routine_override(&self, r: RuntimeRoutine) -> Option<i64> {
        self.defects.iter().find_map(|d| match d {
            Defect::RoutineReturnsConstant(routine, v) if *routine == r => Some(*v),
            _ => None,
        })
    }

    /// Any transient infrastructure faults configured? When false, the
    /// machine's outcome is independent of the attempt index — every
    /// decision point the index feeds is dead — so repeated executions of
    /// one executable are provably identical and callers may run once and
    /// reuse the outcome.
    pub fn has_transient_faults(&self) -> bool {
        self.defects.iter().any(|d| d.is_transient())
    }

    /// Number of active defects.
    pub fn defect_count(&self) -> usize {
        self.defects.len()
    }

    /// Iterate active defects (unordered).
    pub fn defects(&self) -> impl Iterator<Item = &Defect> {
        self.defects.iter()
    }

    /// What a run can read of this profile: every field but the name,
    /// which execution never reads, with the defects narrowed to those
    /// `reaches` selects. Two profiles whose projections are equal run a
    /// program that reaches no other defect to identical results.
    pub fn observed(&self, reaches: impl Fn(&Defect) -> bool) -> ObservedProfile {
        // Exhaustive, so a new field must be placed in or out of the key.
        let ExecProfile {
            name: _,
            mapping,
            worker_loop_policy,
            target,
            default_gangs,
            default_workers,
            default_vector,
            kernels_auto_gangs,
            defects,
        } = self;
        let mut defects: Vec<Defect> = defects.iter().filter(|d| reaches(d)).cloned().collect();
        defects.sort_unstable();
        ObservedProfile {
            mapping: *mapping,
            worker_loop_policy: *worker_loop_policy,
            target: *target,
            sizes: [
                *default_gangs,
                *default_workers,
                *default_vector,
                *kernels_auto_gangs,
            ],
            defects,
        }
    }
}

/// The projection [`ExecProfile::observed`] returns: the profile's
/// behavioural fields and a subset of its defects in canonical order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObservedProfile {
    mapping: VendorMapping,
    worker_loop_policy: WorkerLoopPolicy,
    target: TranslationTarget,
    /// Default gangs, workers, vector length and `kernels` gangs.
    sizes: [u32; 4],
    defects: Vec<Defect>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conforming_profile_has_no_defects() {
        let p = ExecProfile::reference();
        assert_eq!(p.defect_count(), 0);
        assert!(!p.ignores_directive(DirectiveKind::Loop));
        assert!(!p.compile_error(DirectiveKind::Declare, None));
    }

    #[test]
    fn inject_and_fix() {
        let mut p = ExecProfile::reference();
        let d = Defect::IgnoreClause(DirectiveKind::Parallel, ClauseKind::Firstprivate);
        p.inject(d.clone());
        assert!(p.ignores_clause(DirectiveKind::Parallel, ClauseKind::Firstprivate));
        assert!(p.fix(&d));
        assert!(!p.ignores_clause(DirectiveKind::Parallel, ClauseKind::Firstprivate));
        assert!(!p.fix(&d), "fixing twice reports false");
    }

    #[test]
    fn combined_constructs_inherit_component_clause_defects() {
        let p = ExecProfile::reference().with_defect(Defect::IgnoreClause(
            DirectiveKind::Parallel,
            ClauseKind::Async,
        ));
        assert!(p.ignores_clause(DirectiveKind::Parallel, ClauseKind::Async));
        assert!(p.ignores_clause(DirectiveKind::ParallelLoop, ClauseKind::Async));
        assert!(!p.ignores_clause(DirectiveKind::KernelsLoop, ClauseKind::Async));
        let p = ExecProfile::reference().with_defect(Defect::CompileError(
            DirectiveKind::Loop,
            Some(ClauseKind::Collapse),
        ));
        assert!(p.compile_error(DirectiveKind::KernelsLoop, Some(ClauseKind::Collapse)));
        // Whole-directive breakage stays exact.
        let p = ExecProfile::reference().with_defect(Defect::IgnoreDirective(DirectiveKind::Loop));
        assert!(!p.ignores_directive(DirectiveKind::ParallelLoop));
    }

    #[test]
    fn routine_override_lookup() {
        let p = ExecProfile::reference().with_defect(Defect::RoutineReturnsConstant(
            RuntimeRoutine::AsyncTest,
            -1,
        ));
        assert_eq!(p.routine_override(RuntimeRoutine::AsyncTest), Some(-1));
        assert_eq!(p.routine_override(RuntimeRoutine::AsyncTestAll), None);
    }

    #[test]
    fn lang_scope_covers() {
        assert!(LangScope::Both.covers(Language::C));
        assert!(LangScope::COnly.covers(Language::C));
        assert!(!LangScope::COnly.covers(Language::Fortran));
        assert!(LangScope::FortranOnly.covers(Language::Fortran));
    }

    #[test]
    fn defects_are_set_semantics() {
        let mut p = ExecProfile::reference();
        p.inject(Defect::ScalarCopyOmitted);
        p.inject(Defect::ScalarCopyOmitted);
        assert_eq!(p.defect_count(), 1);
    }

    #[test]
    fn worker_policy_default() {
        assert_eq!(
            WorkerLoopPolicy::default(),
            WorkerLoopPolicy::PerGangWorkers
        );
    }

    #[test]
    fn transient_faults_are_deterministic_and_rate_bounded() {
        // Same inputs → same decision, always.
        for event in 0..50 {
            let a = transient_fault_fires(30, 7, 99, 2, event);
            let b = transient_fault_fires(30, 7, 99, 2, event);
            assert_eq!(a, b);
        }
        // Rate 0 never fires; rate 100 always fires.
        assert!(!transient_fault_fires(0, 1, 2, 3, 4));
        assert!(transient_fault_fires(100, 1, 2, 3, 4));
        // A mid rate fires sometimes but not always across events.
        let fires: Vec<bool> = (0..200)
            .map(|e| transient_fault_fires(50, 11, 22, 0, e))
            .collect();
        assert!(fires.iter().any(|f| *f));
        assert!(fires.iter().any(|f| !*f));
        // Different run indices decorrelate (retries see fresh draws).
        let runs: Vec<bool> = (0..64)
            .map(|run| transient_fault_fires(50, 11, 22, run, 0))
            .collect();
        assert!(runs.iter().any(|f| *f) && runs.iter().any(|f| !*f));
    }

    #[test]
    fn transient_classification() {
        assert!(Defect::TransientMemcpyFault { rate_pct: 5, seed: 1 }.is_transient());
        assert!(Defect::IntermittentAsyncStall { rate_pct: 5, seed: 1 }.is_transient());
        assert!(!Defect::ScalarCopyOmitted.is_transient());
    }

    #[test]
    fn name_hash_is_stable_and_discriminating() {
        assert_eq!(stable_name_hash("loop"), stable_name_hash("loop"));
        assert_ne!(stable_name_hash("loop"), stable_name_hash("data.copy"));
    }

    #[test]
    fn translation_target_labels() {
        assert_eq!(TranslationTarget::Cuda.label(), "CUDA");
        assert_eq!(TranslationTarget::Opencl.label(), "OpenCL");
    }
}
