//! The bug catalog: every defect the validation campaign discovers in the
//! simulated vendor compilers, with the version range each was present in.
//!
//! The catalog is constructed from the paper's evaluation: the named
//! analyses of §V-B (CAPS variable sizing expressions, the PGI asynchronous
//! cluster, Cray scalar `copy` and dead-region elimination, the CAPS 3.1.x
//! `declare` gap), expanded with per-feature attribution so that the number
//! of active records per vendor/version/language equals the paper's
//! **Table I** exactly — verified by `table1_counts_match_the_paper` below.
//! Fig. 8's pass-rate curves are *not* encoded here; they emerge from
//! running the testsuite against compilers carrying these defects.
//!
//! Activity is stored as an explicit per-release bitmask (index into the
//! vendor's eight-version line) because real product lines are not
//! monotone: CAPS 3.0.8 introduced a large Fortran front-end regression
//! (Table I: 70 Fortran bugs versus 32 in 3.0.7) and PGI 13.2's
//! multi-target reorganization traded one fixed bug for a new one.

use acc_device::Defect;
use acc_spec::version::CompilerVersion;
use acc_spec::{ClauseKind, DirectiveKind, FeatureId, Language, ReductionOp, RuntimeRoutine};

use crate::vendor::VendorId;

/// One catalogued defect in one vendor's product line for one language.
#[derive(Debug, Clone)]
pub struct BugRecord {
    /// Stable identifier, e.g. `"caps-c-0007"`.
    pub id: String,
    /// Product line.
    pub vendor: VendorId,
    /// Affected base language front-end.
    pub language: Language,
    /// The feature whose test discovers the bug.
    pub feature: FeatureId,
    /// The injected misbehaviour.
    pub defect: Defect,
    /// One-line description for bug reports.
    pub description: String,
    /// Activity per release (index into `vendor.versions()`).
    pub active: [bool; 8],
}

impl BugRecord {
    /// Is the record active in the given release?
    pub fn active_in(&self, vendor: VendorId, version: CompilerVersion) -> bool {
        self.vendor == vendor
            && vendor
                .version_index(version)
                .map(|i| self.active[i])
                .unwrap_or(false)
    }
}

/// The full catalog.
#[derive(Debug, Clone)]
pub struct BugCatalog {
    records: Vec<BugRecord>,
}

/// Activity helper: releases `lo..=hi` (inclusive indices) active.
fn span(lo: usize, hi: usize) -> [bool; 8] {
    let mut a = [false; 8];
    for (i, slot) in a.iter_mut().enumerate() {
        *slot = i >= lo && i <= hi;
    }
    a
}

impl BugCatalog {
    /// An empty catalog.
    pub fn empty() -> Self {
        BugCatalog {
            records: Vec::new(),
        }
    }

    /// All records.
    pub fn records(&self) -> &[BugRecord] {
        &self.records
    }

    /// Records active for a vendor release and language (none for a version
    /// the vendor never released).
    pub fn active(
        &self,
        vendor: VendorId,
        version: CompilerVersion,
        language: Language,
    ) -> Vec<&BugRecord> {
        let Some(index) = vendor.version_index(version) else {
            return Vec::new();
        };
        self.records
            .iter()
            .filter(|r| r.vendor == vendor && r.language == language && r.active[index])
            .collect()
    }

    /// Count of active records (the paper's Table I cells).
    pub fn count(&self, vendor: VendorId, version: CompilerVersion, language: Language) -> usize {
        self.active(vendor, version, language).len()
    }

    /// Look up a record by id.
    pub fn get(&self, id: &str) -> Option<&BugRecord> {
        self.records.iter().find(|r| r.id == id)
    }

    fn push(
        &mut self,
        vendor: VendorId,
        language: Language,
        feature: &str,
        defect: Defect,
        active: [bool; 8],
        description: &str,
    ) {
        let seq = self
            .records
            .iter()
            .filter(|r| r.vendor == vendor && r.language == language)
            .count()
            + 1;
        let lang = match language {
            Language::C => "c",
            Language::Fortran => "f",
        };
        self.records.push(BugRecord {
            id: format!("{}-{}-{:04}", vendor.name().to_lowercase(), lang, seq),
            vendor,
            language,
            feature: FeatureId::from(feature),
            defect,
            description: description.to_string(),
            active,
        });
    }

    /// The catalog reproducing the paper's Table I.
    pub fn paper() -> Self {
        let mut c = BugCatalog::empty();
        c.populate_caps();
        c.populate_pgi();
        c.populate_cray();
        c
    }

    // ------------------------------------------------------------------
    // CAPS: 3.0.7, 3.0.8, 3.1.0, 3.2.3, 3.2.4, 3.3.0, 3.3.3, 3.3.4
    //   C: 36, 24, 20, 1, 1, 1, 0, 0
    //   F: 32, 70, 15, 1, 1, 0, 0, 0
    // ------------------------------------------------------------------

    fn populate_caps(&mut self) {
        use Defect::*;
        let v = VendorId::Caps;

        // --- Shared early-era defects (both languages, eras differ). -----
        // 12 defects fixed right after 3.0.7 in both front-ends.
        let g1: &[(&str, Defect, &str)] = &[
            (
                "data.copyout",
                IgnoreClause(DirectiveKind::Data, ClauseKind::Copyout),
                "copyout on data construct performs no device-to-host transfer",
            ),
            (
                "data.create",
                IgnoreClause(DirectiveKind::Data, ClauseKind::Create),
                "create on data construct silently ignored; data treated as implicitly mapped",
            ),
            (
                "data.present_or_copyin",
                IgnoreClause(DirectiveKind::Data, ClauseKind::PresentOrCopyin),
                "pcopyin falls back to full copy semantics",
            ),
            (
                "data.present_or_copyout",
                IgnoreClause(DirectiveKind::Data, ClauseKind::PresentOrCopyout),
                "pcopyout silently ignored",
            ),
            (
                "data.present_or_create",
                IgnoreClause(DirectiveKind::Data, ClauseKind::PresentOrCreate),
                "pcreate silently ignored",
            ),
            (
                "kernels.present_or_copy",
                IgnoreClause(DirectiveKind::Kernels, ClauseKind::PresentOrCopy),
                "pcopy on kernels silently ignored",
            ),
            (
                "kernels.present_or_copyin",
                IgnoreClause(DirectiveKind::Kernels, ClauseKind::PresentOrCopyin),
                "pcopyin on kernels silently ignored",
            ),
            (
                "kernels.present_or_copyout",
                IgnoreClause(DirectiveKind::Kernels, ClauseKind::PresentOrCopyout),
                "pcopyout on kernels silently ignored",
            ),
            (
                "kernels.present_or_create",
                IgnoreClause(DirectiveKind::Kernels, ClauseKind::PresentOrCreate),
                "pcreate on kernels silently ignored",
            ),
            (
                "loop.reduction.land.int",
                WrongReduction(ReductionOp::LogicalAnd),
                "logical-and reduction drops the first gang's contribution",
            ),
            (
                "loop.reduction.lor.int",
                WrongReduction(ReductionOp::LogicalOr),
                "logical-or reduction drops the first gang's contribution",
            ),
            (
                "rt.acc_on_device",
                RoutineReturnsConstant(RuntimeRoutine::OnDevice, 0),
                "acc_on_device always reports host execution",
            ),
        ];
        // 8 defects fixed in 3.1.0 (present 3.0.7–3.0.8), §V-B headline
        // RejectVariableSizingExpr among them.
        let g2: &[(&str, Defect, &str)] = &[
            (
                "parallel.num_gangs",
                RejectVariableSizingExpr,
                "only constant expressions accepted in num_gangs/num_workers/vector_length (§V-B)",
            ),
            (
                "parallel.vector_length",
                CompileError(DirectiveKind::Parallel, Some(ClauseKind::VectorLength)),
                "vector_length on parallel rejected with an internal error",
            ),
            (
                "rt.acc_get_device_num",
                RoutineReturnsConstant(RuntimeRoutine::GetDeviceNum, -1),
                "acc_get_device_num returns -1",
            ),
            (
                "rt.acc_get_num_devices",
                RoutineReturnsConstant(RuntimeRoutine::GetNumDevices, 0),
                "acc_get_num_devices always reports zero devices",
            ),
            (
                "kernels.async",
                CompileError(DirectiveKind::Kernels, Some(ClauseKind::Async)),
                "async on kernels rejected with an internal error",
            ),
            (
                "loop.seq",
                IgnoreClause(DirectiveKind::Loop, ClauseKind::Seq),
                "seq clause ignored; the loop is partitioned anyway",
            ),
            (
                "parallel.async",
                HangOnClause(DirectiveKind::Parallel, ClauseKind::Async),
                "async parallel regions never signal completion (hang)",
            ),
            (
                "rt.acc_async_test_all",
                RoutineReturnsConstant(RuntimeRoutine::AsyncTestAll, -1),
                "acc_async_test_all returns its argument register unchanged",
            ),
            (
                "rt.acc_get_device_type",
                RoutineReturnsConstant(RuntimeRoutine::GetDeviceType, 0),
                "acc_get_device_type returns acc_device_none",
            ),
        ];
        // 10 defects surviving through 3.1.0 (fixed in 3.2.3), including the
        // declare gap the paper blames for the 3.1.x pass-rate dip.
        let g3: &[(&str, Defect, &str)] = &[
            (
                "declare.create",
                CompileError(DirectiveKind::Declare, None),
                "declare directives unimplemented (the 3.1.x pass-rate dip, §V-A)",
            ),
            (
                "declare.device_resident",
                CompileError(DirectiveKind::Declare, Some(ClauseKind::DeviceResident)),
                "device_resident on declare unimplemented",
            ),
            (
                "parallel.copyout",
                IgnoreClause(DirectiveKind::Parallel, ClauseKind::Copyout),
                "copyout on parallel silently ignored",
            ),
            (
                "parallel.create",
                IgnoreClause(DirectiveKind::Parallel, ClauseKind::Create),
                "create on parallel silently ignored",
            ),
            (
                "parallel.present_or_copyin",
                IgnoreClause(DirectiveKind::Parallel, ClauseKind::PresentOrCopyin),
                "pcopyin on parallel silently ignored",
            ),
            (
                "parallel.present_or_copyout",
                IgnoreClause(DirectiveKind::Parallel, ClauseKind::PresentOrCopyout),
                "pcopyout on parallel silently ignored",
            ),
            (
                "parallel.present_or_create",
                IgnoreClause(DirectiveKind::Parallel, ClauseKind::PresentOrCreate),
                "pcreate on parallel silently ignored",
            ),
            (
                "update.host",
                UpdateNoop,
                "update directives perform no transfers",
            ),
            (
                "parallel.firstprivate",
                FirstprivateUninitialized,
                "firstprivate copies are not initialized from the host value",
            ),
            (
                "parallel.private",
                PrivateAliasesShared,
                "private variables share one device copy across gangs",
            ),
        ];
        // C-only extras to reach the Table I C column: fixed in 3.2.3.
        let g3c: &[(&str, Defect, &str)] = &[
            (
                "loop.reduction.mul.int",
                WrongReduction(ReductionOp::Mul),
                "multiply reduction drops the first gang's contribution",
            ),
            (
                "loop.reduction.max.int",
                WrongReduction(ReductionOp::Max),
                "max reduction drops the first gang's contribution",
            ),
            (
                "loop.reduction.min.int",
                WrongReduction(ReductionOp::Min),
                "min reduction drops the first gang's contribution",
            ),
            (
                "update.device",
                IgnoreClause(DirectiveKind::Update, ClauseKind::DeviceClause),
                "update device performs no transfer",
            ),
            (
                "loop.collapse",
                CompileError(DirectiveKind::Loop, Some(ClauseKind::Collapse)),
                "collapse rejected with an internal error",
            ),
            (
                "loop.worker",
                IgnoreClause(DirectiveKind::Loop, ClauseKind::Worker),
                "worker clause ignored; the loop is gang-partitioned",
            ),
            (
                "data.copy_scalar",
                IgnoreClause(DirectiveKind::Data, ClauseKind::Copy),
                "copy on data construct silently ignored",
            ),
            (
                "host_data.use_device",
                IgnoreClause(DirectiveKind::HostData, ClauseKind::UseDevice),
                "use_device yields the host address",
            ),
            (
                "rt.acc_malloc",
                RejectRoutine(RuntimeRoutine::Malloc),
                "acc_malloc missing from the runtime library (link error)",
            ),
        ];

        for lang in [Language::C, Language::Fortran] {
            for (f, d, desc) in g1 {
                self.push(v, lang, f, d.clone(), span(0, 0), desc);
            }
            // g2 defines 9 entries; C uses the first 4 + 4 more below per the
            // column arithmetic, Fortran uses all 9 (3.0.8 column is larger).
            let g2_take = if lang == Language::C { 4 } else { 9 };
            for (f, d, desc) in g2.iter().take(g2_take) {
                self.push(v, lang, f, d.clone(), span(0, 1), desc);
            }
            for (f, d, desc) in g3 {
                self.push(v, lang, f, d.clone(), span(0, 2), desc);
            }
            // The persistent straggler: bitwise-xor reduction wrong-code,
            // last C fix in 3.3.3 (Table I: C column keeps a 1 through
            // 3.3.0; the Fortran front-end fixed it one release earlier).
            let hi = if lang == Language::C { 5 } else { 4 };
            self.push(
                v,
                lang,
                "loop.reduction.bxor.int",
                WrongReduction(ReductionOp::BitXor),
                span(0, hi),
                "bitwise-xor reduction drops the first gang's contribution",
            );
        }
        // C column filler to 36/24/20: nine C-only records in the 3.2.3-fix
        // era.
        for (f, d, desc) in g3c {
            self.push(VendorId::Caps, Language::C, f, d.clone(), span(0, 2), desc);
        }

        // --- The 3.0.8 Fortran front-end regression (Table I: 70). -------
        // 46 regressions present only in 3.0.8; 4 more survived into 3.1.0.
        let mut fortran_regressions: Vec<(String, Defect, String)> = Vec::new();
        for (dir, clauses) in [
            (
                DirectiveKind::Parallel,
                vec![
                    ClauseKind::Copy,
                    ClauseKind::Copyin,
                    ClauseKind::Present,
                    ClauseKind::If,
                    ClauseKind::Reduction,
                ],
            ),
            (
                DirectiveKind::Kernels,
                vec![
                    ClauseKind::Copy,
                    ClauseKind::Copyin,
                    ClauseKind::Copyout,
                    ClauseKind::Create,
                    ClauseKind::Present,
                ],
            ),
            (
                DirectiveKind::Data,
                vec![
                    ClauseKind::Copy,
                    ClauseKind::Copyin,
                    ClauseKind::Copyout,
                    ClauseKind::Create,
                    ClauseKind::Present,
                    ClauseKind::If,
                ],
            ),
        ] {
            for cl in clauses {
                let feature = format!("{}.{}", dir.name().replace(' ', "_"), cl.name());
                fortran_regressions.push((
                    feature,
                    Defect::CompileError(dir, Some(cl)),
                    format!(
                        "3.0.8 Fortran front-end regression: `{}` on `{}` rejected",
                        cl.name(),
                        dir.name()
                    ),
                ));
            }
        }
        fortran_regressions.push((
            "loop".to_string(),
            Defect::IgnoreDirective(DirectiveKind::Loop),
            "3.0.8 Fortran front-end regression: loop directives silently dropped".to_string(),
        ));
        for (feature, cl) in [
            ("loop.gang", ClauseKind::Gang),
            ("loop.vector", ClauseKind::Vector),
            ("loop.independent", ClauseKind::Independent),
            ("loop.private", ClauseKind::Private),
        ] {
            fortran_regressions.push((
                feature.to_string(),
                Defect::CompileError(DirectiveKind::Loop, Some(cl)),
                "3.0.8 Fortran front-end regression: loop scheduling rejected".to_string(),
            ));
        }
        // All 21 reduction variants miscompiled by the regressed front-end.
        for op in ReductionOp::ALL {
            let tys: &[&str] = if op.integer_only() {
                &["int"]
            } else {
                &["int", "float", "double"]
            };
            for ty in tys {
                fortran_regressions.push((
                    format!("loop.reduction.{}.{}", op.ident(), ty),
                    Defect::WrongReduction(op),
                    format!(
                        "3.0.8 Fortran front-end regression: `{}` reduction miscompiled",
                        op.c_symbol()
                    ),
                ));
            }
        }
        fortran_regressions.push((
            "update.if".into(),
            Defect::IgnoreClause(DirectiveKind::Update, ClauseKind::If),
            "3.0.8 Fortran front-end regression: if clause on update ignored".into(),
        ));
        fortran_regressions.push((
            "update.async".into(),
            Defect::IgnoreClause(DirectiveKind::Update, ClauseKind::Async),
            "3.0.8 Fortran front-end regression: async clause on update ignored".into(),
        ));
        fortran_regressions.push((
            "wait".into(),
            Defect::IgnoreDirective(DirectiveKind::Wait),
            "3.0.8 Fortran front-end regression: wait directive ignored".into(),
        ));
        fortran_regressions.push((
            "rt.acc_init".into(),
            Defect::RejectRoutine(RuntimeRoutine::Init),
            "3.0.8 Fortran runtime regression: acc_init missing (link error)".into(),
        ));
        assert_eq!(
            fortran_regressions.len(),
            46,
            "regression pool must stay at 46"
        );
        for (f, d, desc) in &fortran_regressions {
            self.push(v, Language::Fortran, f, d.clone(), span(1, 1), desc);
        }
        // Four regressions that survived into 3.1.0.
        let survivors: &[(&str, ReductionOp)] = &[
            ("loop.reduction.add.float", ReductionOp::Add),
            ("loop.reduction.mul.float", ReductionOp::Mul),
            ("loop.reduction.max.float", ReductionOp::Max),
            ("loop.reduction.min.float", ReductionOp::Min),
        ];
        for (f, op) in survivors {
            self.push(
                v,
                Language::Fortran,
                f,
                Defect::WrongReduction(*op),
                span(1, 2),
                "3.0.8 Fortran regression surviving into 3.1.0: float reduction miscompiled",
            );
        }
    }

    // ------------------------------------------------------------------
    // PGI: 12.6, 12.8, 12.9, 12.10, 13.2, 13.4, 13.6, 13.8
    //   C: 8, 8, 7, 6, 6, 5, 5, 5
    //   F: 14, 14, 14, 14, 14, 13, 13, 13
    // ------------------------------------------------------------------

    fn populate_pgi(&mut self) {
        use Defect::*;
        let v = VendorId::Pgi;
        // The persistent asynchronous cluster (§V-B, Fig. 10): present in
        // every evaluated release of both front-ends.
        let async_cluster: &[&str] = &[
            "parallel.async",
            "kernels.async",
            "rt.acc_async_test",
            "rt.acc_async_wait",
            "rt.acc_async_test_all",
        ];
        for lang in [Language::C, Language::Fortran] {
            for f in async_cluster {
                self.push(
                    v,
                    lang,
                    f,
                    AsyncFamilyBroken,
                    span(0, 7),
                    "asynchronous activities never observed complete; \
                     acc_async_test keeps returning the initial value (-1, Fig. 10)",
                );
            }
        }
        // C-only shorter-lived defects matching the C column.
        self.push(
            v,
            Language::C,
            "rt.acc_get_num_devices",
            RoutineReturnsConstant(RuntimeRoutine::GetNumDevices, -1),
            span(0, 1),
            "acc_get_num_devices returns -1",
        );
        self.push(
            v,
            Language::C,
            "host_data.use_device",
            CompileError(DirectiveKind::HostData, Some(ClauseKind::UseDevice)),
            span(0, 2),
            "use_device rejected with an internal error",
        );
        self.push(
            v,
            Language::C,
            "parallel.firstprivate",
            FirstprivateUninitialized,
            span(0, 3),
            "firstprivate copies read uninitialized device memory",
        );
        self.push(
            v,
            Language::C,
            "update.host",
            IgnoreDirective(DirectiveKind::Update),
            span(4, 4),
            "13.2 multi-target reorganization regression: update directives dropped (§V-A)",
        );
        // Fortran-only persistent defects (the F column stays at 14/13).
        let f_persistent: &[(&str, Defect, &str)] = &[
            (
                "rt.acc_async_wait_all",
                AsyncFamilyBroken,
                "acc_async_wait_all never releases deferred results",
            ),
            (
                "update.async",
                AsyncFamilyBroken,
                "asynchronous update never completes",
            ),
            (
                "wait",
                AsyncFamilyBroken,
                "wait directive does not block on async activities",
            ),
            (
                "loop.private",
                PrivateAliasesShared,
                "loop private variables share one device copy",
            ),
            (
                "loop.reduction.band.int",
                WrongReduction(ReductionOp::BitAnd),
                "bitwise-and reduction drops the first gang's contribution",
            ),
            (
                "loop.reduction.bor.int",
                WrongReduction(ReductionOp::BitOr),
                "bitwise-or reduction drops the first gang's contribution",
            ),
            (
                "loop.collapse",
                CompileError(DirectiveKind::Loop, Some(ClauseKind::Collapse)),
                "collapse rejected by the Fortran front-end",
            ),
            (
                "declare.device_resident",
                CompileError(DirectiveKind::Declare, Some(ClauseKind::DeviceResident)),
                "device_resident unimplemented in the Fortran front-end",
            ),
        ];
        for (f, d, desc) in f_persistent {
            self.push(v, Language::Fortran, f, d.clone(), span(0, 7), desc);
        }
        self.push(
            v,
            Language::Fortran,
            "update.device",
            IgnoreClause(DirectiveKind::Update, ClauseKind::DeviceClause),
            span(0, 4),
            "update device performs no transfer (fixed in 13.4)",
        );
    }

    // ------------------------------------------------------------------
    // Cray: 8.1.2 … 8.2.0
    //   C: 16 across all releases
    //   F: 6, 6, 6, 6, 6, 5, 5, 5
    // ------------------------------------------------------------------

    fn populate_cray(&mut self) {
        use Defect::*;
        let v = VendorId::Cray;
        // Shared persistent defects (both languages).
        let shared: &[(&str, Defect, &str)] = &[
            (
                "data.copy_scalar",
                ScalarCopyOmitted,
                "scalar variables in copy clauses are not transferred back (§V-B)",
            ),
            (
                "data.copyout",
                EliminateDeadComputeRegions,
                "compute regions without arithmetic are eliminated including their \
              data movement (the Fig. 11 dummy-loop behaviour)",
            ),
            (
                "loop.reduction.land.int",
                WrongReduction(ReductionOp::LogicalAnd),
                "logical-and reduction drops the first gang's contribution",
            ),
            (
                "loop.reduction.lor.int",
                WrongReduction(ReductionOp::LogicalOr),
                "logical-or reduction drops the first gang's contribution",
            ),
            (
                "parallel.firstprivate",
                FirstprivateUninitialized,
                "firstprivate copies read uninitialized device memory",
            ),
        ];
        for lang in [Language::C, Language::Fortran] {
            for (f, d, desc) in shared {
                self.push(v, lang, f, d.clone(), span(0, 7), desc);
            }
        }
        // Fortran: one additional defect fixed in 8.1.7 (F column 6 → 5).
        self.push(
            v,
            Language::Fortran,
            "update.if",
            IgnoreClause(DirectiveKind::Update, ClauseKind::If),
            span(0, 4),
            "if clause on update ignored by the Fortran front-end (fixed in 8.1.7)",
        );
        // C: eleven more persistent defects — largely the device-pointer /
        // memory-routine cluster that has no Fortran binding in 1.0, which
        // is why Table I's Cray C column is so much larger than Fortran's.
        let c_only: &[(&str, Defect, &str)] = &[
            (
                "parallel.deviceptr",
                IgnoreClause(DirectiveKind::Parallel, ClauseKind::Deviceptr),
                "deviceptr on parallel treated as host data",
            ),
            (
                "kernels.deviceptr",
                IgnoreClause(DirectiveKind::Kernels, ClauseKind::Deviceptr),
                "deviceptr on kernels treated as host data",
            ),
            (
                "data.deviceptr",
                IgnoreClause(DirectiveKind::Data, ClauseKind::Deviceptr),
                "deviceptr on data treated as host data",
            ),
            (
                "rt.acc_malloc",
                RejectRoutine(RuntimeRoutine::Malloc),
                "acc_malloc missing from the C runtime library",
            ),
            (
                "rt.acc_free",
                RejectRoutine(RuntimeRoutine::Free),
                "acc_free missing from the C runtime library",
            ),
            (
                "cache",
                CompileError(DirectiveKind::Cache, None),
                "cache directive rejected with an internal error",
            ),
            (
                "rt.acc_on_device",
                RoutineReturnsConstant(RuntimeRoutine::OnDevice, 1),
                "acc_on_device always claims device execution",
            ),
            (
                "rt.acc_get_num_devices",
                RoutineReturnsConstant(RuntimeRoutine::GetNumDevices, 99),
                "acc_get_num_devices returns an implausible count",
            ),
            (
                "loop.seq",
                IgnoreClause(DirectiveKind::Loop, ClauseKind::Seq),
                "seq clause ignored; the loop is partitioned anyway",
            ),
            (
                "parallel_loop.private",
                CompileError(DirectiveKind::ParallelLoop, Some(ClauseKind::Private)),
                "private on combined parallel loop rejected",
            ),
            (
                "update.if",
                IgnoreClause(DirectiveKind::Update, ClauseKind::If),
                "if clause on update ignored",
            ),
        ];
        for (f, d, desc) in c_only {
            self.push(v, Language::C, f, d.clone(), span(0, 7), desc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table I of the paper, verbatim.
    const TABLE_I: &[(VendorId, Language, [usize; 8])] = &[
        (VendorId::Caps, Language::C, [36, 24, 20, 1, 1, 1, 0, 0]),
        (
            VendorId::Caps,
            Language::Fortran,
            [32, 70, 15, 1, 1, 0, 0, 0],
        ),
        (VendorId::Pgi, Language::C, [8, 8, 7, 6, 6, 5, 5, 5]),
        (
            VendorId::Pgi,
            Language::Fortran,
            [14, 14, 14, 14, 14, 13, 13, 13],
        ),
        (
            VendorId::Cray,
            Language::C,
            [16, 16, 16, 16, 16, 16, 16, 16],
        ),
        (VendorId::Cray, Language::Fortran, [6, 6, 6, 6, 6, 5, 5, 5]),
    ];

    #[test]
    fn table1_counts_match_the_paper() {
        let catalog = BugCatalog::paper();
        for (vendor, lang, expected) in TABLE_I {
            let versions = vendor.versions();
            for (i, version) in versions.iter().enumerate() {
                assert_eq!(
                    catalog.count(*vendor, *version, *lang),
                    expected[i],
                    "{vendor} {version} ({lang})"
                );
            }
        }
    }

    #[test]
    fn record_ids_are_unique() {
        let catalog = BugCatalog::paper();
        let mut ids: Vec<_> = catalog.records().iter().map(|r| r.id.clone()).collect();
        let n = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn caps_variable_sizing_bug_matches_paper_story() {
        // §V-B: "in CAPS compiler versions earlier to 3.1.0, only constant
        // expressions ... were supported, this bug was fixed in the later
        // versions".
        let catalog = BugCatalog::paper();
        let rec = catalog
            .records()
            .iter()
            .find(|r| {
                r.vendor == VendorId::Caps
                    && r.language == Language::C
                    && r.defect == Defect::RejectVariableSizingExpr
            })
            .expect("the headline CAPS bug must be catalogued");
        let idx = |s: &str| VendorId::Caps.version_index(s.parse().unwrap()).unwrap();
        assert!(rec.active[idx("3.0.7")]);
        assert!(rec.active[idx("3.0.8")]);
        assert!(!rec.active[idx("3.1.0")]);
    }

    #[test]
    fn pgi_async_cluster_persists_to_latest() {
        let catalog = BugCatalog::paper();
        let latest = VendorId::Pgi.latest();
        let active = catalog.active(VendorId::Pgi, latest, Language::C);
        assert!(
            active.iter().all(|r| r.defect == Defect::AsyncFamilyBroken),
            "every remaining PGI C bug at 13.8 is in the async cluster (§V-A)"
        );
        assert_eq!(active.len(), 5);
    }

    #[test]
    fn cray_counts_are_flat_in_c() {
        let catalog = BugCatalog::paper();
        let counts: Vec<usize> = VendorId::Cray
            .versions()
            .iter()
            .map(|v| catalog.count(VendorId::Cray, *v, Language::C))
            .collect();
        assert!(counts.iter().all(|c| *c == 16), "{counts:?}");
    }

    #[test]
    fn fortran_records_never_reference_c_only_features() {
        let catalog = BugCatalog::paper();
        const C_ONLY: &[&str] = &[
            "parallel.deviceptr",
            "kernels.deviceptr",
            "data.deviceptr",
            "host_data.use_device",
            "rt.acc_malloc",
            "rt.acc_free",
        ];
        for r in catalog.records() {
            if r.language == Language::Fortran {
                assert!(
                    !C_ONLY.contains(&r.feature.as_str()),
                    "{} references C-only feature {}",
                    r.id,
                    r.feature
                );
            }
        }
    }

    #[test]
    fn active_lookup_respects_version_and_language() {
        let catalog = BugCatalog::paper();
        let v307: CompilerVersion = "3.0.7".parse().unwrap();
        assert_eq!(catalog.count(VendorId::Caps, v307, Language::C), 36);
        // A PGI version is meaningless for CAPS.
        let pgi_v: CompilerVersion = "13.8".parse().unwrap();
        assert_eq!(catalog.count(VendorId::Caps, pgi_v, Language::C), 0);
        // Reference vendor has no bugs.
        assert_eq!(
            catalog.count(VendorId::Reference, "1.0.0".parse().unwrap(), Language::C),
            0
        );
    }

    #[test]
    fn active_selects_exactly_the_records_active_in_selects() {
        let catalog = BugCatalog::paper();
        let ids = |records: Vec<&BugRecord>| -> Vec<String> {
            records.into_iter().map(|r| r.id.clone()).collect()
        };
        let vendors = VendorId::COMMERCIAL
            .into_iter()
            .chain([VendorId::Reference]);
        for vendor in vendors {
            for version in vendor.versions() {
                for language in Language::ALL {
                    let expected = catalog
                        .records()
                        .iter()
                        .filter(|r| r.language == language && r.active_in(vendor, version))
                        .collect();
                    assert_eq!(
                        ids(catalog.active(vendor, version, language)),
                        ids(expected),
                        "{vendor} {version} ({language})"
                    );
                }
            }
            let unreleased: CompilerVersion = "99.9.9".parse().unwrap();
            for language in Language::ALL {
                assert!(catalog.active(vendor, unreleased, language).is_empty());
            }
        }
    }

    #[test]
    fn get_by_id() {
        let catalog = BugCatalog::paper();
        let first = &catalog.records()[0];
        assert_eq!(catalog.get(&first.id).unwrap().id, first.id);
        assert!(catalog.get("nonexistent-id").is_none());
    }
}
