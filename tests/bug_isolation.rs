//! Every catalogued bug must be discoverable by the suite **in isolation**:
//! injecting just that record's defect into the defect-free reference
//! implementation must make the record's feature test fail.
//!
//! This is the deep consistency contract between the bug catalog and the
//! corpus (DESIGN.md §4.2 — "bugs injected at lowering/runtime, not at
//! scoring"): Table I is not merely declared, each entry is independently
//! observable through black-box testing.

use openacc_vv::compiler::driver::compile_with_profile;
use openacc_vv::compiler::{BugCatalog, CompileCache, RunOutcome, VendorCompiler, VendorId};
use openacc_vv::device::ExecProfile;
use openacc_vv::validation::harness::{run_case_with, CasePolicy};
use std::sync::Arc;

#[test]
fn every_catalogued_bug_is_discoverable_in_isolation() {
    let suite = openacc_vv::testsuite::full_suite();
    let catalog = BugCatalog::paper();
    let mut checked = 0;
    let mut failures: Vec<String> = Vec::new();
    for record in catalog.records() {
        let case = suite
            .iter()
            .find(|c| c.feature == record.feature)
            .unwrap_or_else(|| panic!("{}: no corpus test for {}", record.id, record.feature));
        assert!(case.supports(record.language), "{}", record.id);
        // Reference implementation + exactly this defect.
        let profile = ExecProfile::reference().with_defect(record.defect.clone());
        let concrete = VendorId::Reference.concrete_device();
        let source = case.source_for(record.language);
        let discovered = match compile_with_profile(&source, record.language, profile, concrete) {
            Err(_) => true, // compile-time rejection: discovered
            Ok(exe) => !matches!(
                exe.run_with_env(&case.env).outcome,
                RunOutcome::Completed(v) if v != 0
            ),
        };
        checked += 1;
        if !discovered {
            failures.push(format!(
                "{} ({} on {}): {:?} not discovered by its feature test",
                record.id, record.language, record.feature, record.defect
            ));
        }
    }
    assert!(checked >= 160, "catalog unexpectedly small: {checked}");
    assert!(
        failures.is_empty(),
        "{} of {checked} catalogued bugs are NOT discoverable in isolation:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// The same contract through the run memo. The reference runs each
/// record's feature test first, on one cache shared by every record; the
/// buggy compiler shares the reference's memo exactly when the memo key
/// says the test cannot reach the defect. A defect the key wrongly leaves
/// out would replay the reference's pass and hide the bug.
#[test]
fn every_catalogued_bug_is_discoverable_through_a_shared_run_memo() {
    let suite = openacc_vv::testsuite::full_suite();
    let cache = CompileCache::shared();
    let policy = CasePolicy {
        memo: true,
        ..CasePolicy::default()
    };
    let reference = VendorCompiler::reference().with_cache(Arc::clone(&cache));
    let mut failures: Vec<String> = Vec::new();
    let catalog = BugCatalog::paper();
    let records = catalog.records();
    for record in records {
        let case = suite
            .iter()
            .find(|c| c.feature == record.feature)
            .unwrap_or_else(|| panic!("{}: no corpus test for {}", record.id, record.feature));
        let clean = run_case_with(case, &reference, record.language, &policy);
        assert!(clean.passed(), "{}: {:?}", record.id, clean.status);
        let buggy = VendorCompiler::reference()
            .with_extra_defect(record.defect.clone())
            .with_cache(Arc::clone(&cache));
        let r = run_case_with(case, &buggy, record.language, &policy);
        if r.passed() {
            failures.push(format!(
                "{} ({} on {}): {:?} hidden by the shared memo",
                record.id, record.language, record.feature, record.defect
            ));
        }
    }
    assert!(records.len() >= 160, "catalog unexpectedly small");
    assert!(cache.stats().run_memo_hits > 0, "{}", cache.stats());
    assert!(
        failures.is_empty(),
        "{} of {} catalogued bugs are NOT discoverable through the memo:\n{}",
        failures.len(),
        records.len(),
        failures.join("\n")
    );
}

#[test]
fn fixing_a_bug_restores_the_pass() {
    // The inverse direction: the reference implementation (no defects)
    // passes every feature test a bug record points at — removing the bug
    // restores conformance.
    let suite = openacc_vv::testsuite::full_suite();
    let catalog = BugCatalog::paper();
    let reference = openacc_vv::compiler::VendorCompiler::reference();
    use openacc_vv::validation::harness::run_case;
    use std::collections::BTreeSet;
    let features: BTreeSet<_> = catalog
        .records()
        .iter()
        .map(|r| (r.feature.clone(), r.language))
        .collect();
    for (feature, language) in features {
        let case = suite.iter().find(|c| c.feature == feature).unwrap();
        let r = run_case(case, &reference, language);
        assert!(r.passed(), "{feature} ({language}): {:?}", r.status);
    }
}
