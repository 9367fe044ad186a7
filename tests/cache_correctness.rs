//! Correctness of the content-addressed compilation cache (ISSUE 3).
//!
//! The cache is a pure optimisation: its presence or absence must never be
//! observable in any report. Three obligations are pinned here:
//!
//! 1. **Transparency** — cached and uncached campaign reports are
//!    byte-identical, serial and parallel, for healthy and buggy compilers.
//! 2. **Isolation** — each release's executable carries its own profile:
//!    a PGI artifact is never served to Cray, while every release shares
//!    one front-end entry and one bytecode image per distinct source.
//! 3. **Composition** — the PR 2 journal halt/resume machinery composes
//!    with the cache: a resumed cached run reproduces the clean uncached
//!    report byte for byte.

use openacc_vv::compiler::{CompileCache, Executable, VendorCompiler, VendorId};
use openacc_vv::prelude::*;
use openacc_vv::server::{run_submission, RunOptions, SubmissionSpec};
use openacc_vv::validation::{MemoryJournal, Replay};
use proptest::prelude::*;
use std::sync::Arc;

/// A small but representative slice of the corpus: compute, data, async and
/// update features, so both passing rows and (for old releases) bug-report
/// appendices appear in the rendered reports.
fn suite() -> Vec<TestCase> {
    const FEATURES: &[&str] = &["loop", "data.copy", "parallel.async", "update.host"];
    openacc_vv::testsuite::full_suite()
        .into_iter()
        .filter(|c| FEATURES.contains(&c.feature.as_str()))
        .collect()
}

fn render_text(run: &openacc_vv::validation::SuiteRun) -> String {
    render(run, ReportFormat::Text)
}

// ---------------------------------------------------------------------------
// 1. Transparency
// ---------------------------------------------------------------------------

#[test]
fn cached_report_is_byte_identical_serial_and_parallel() {
    for compiler in [
        VendorCompiler::reference(),
        // An early CAPS release: real failures exercise the bug-report
        // appendix (which embeds generated sources) in the identity check.
        VendorCompiler::new(VendorId::Caps, "3.0.8".parse().unwrap()),
    ] {
        let plain = Campaign::new(suite());
        let cached = Campaign::new(suite()).with_cache(CompileCache::shared());
        let baseline = render_text(&plain.run_one(&compiler));
        assert_eq!(
            render_text(&cached.run_one(&compiler)),
            baseline,
            "cached serial report diverged ({})",
            compiler.label()
        );
        assert_eq!(
            render_text(&cached.run_one_parallel(&compiler, 4)),
            baseline,
            "cached parallel report diverged ({})",
            compiler.label()
        );
        assert_eq!(
            render_text(&plain.run_one_parallel(&compiler, 4)),
            baseline,
            "uncached parallel report diverged ({})",
            compiler.label()
        );
    }
}

#[test]
fn vendor_sweep_is_cache_transparent_and_hits() {
    let cache = CompileCache::shared();
    let plain = Campaign::new(suite());
    let cached = Campaign::new(suite()).with_cache(Arc::clone(&cache));
    for vendor in VendorId::COMMERCIAL {
        let baseline = plain.run_vendor_line(vendor);
        let swept = cached.run_vendor_line(vendor);
        assert_eq!(swept.runs.len(), baseline.runs.len());
        for (c, b) in swept.runs.iter().zip(&baseline.runs) {
            assert_eq!(render_text(c), render_text(b));
        }
    }
    // The whole point of the sweep cache: front-end work amortises across
    // versions, so hits dominate once the first version has populated it;
    // and releases a source cannot tell apart replay each other's runs.
    let stats = cache.stats();
    assert!(
        stats.frontend_hits > stats.frontend_misses,
        "sweep should mostly hit the front-end cache: {stats}"
    );
    assert!(stats.run_memo_hits > 0, "sweep should replay runs: {stats}");
}

/// Every release of `vendors`, in sweep order.
fn releases(vendors: &[VendorId]) -> Vec<VendorCompiler> {
    vendors
        .iter()
        .flat_map(|&v| {
            v.versions()
                .into_iter()
                .map(move |x| VendorCompiler::new(v, x))
        })
        .collect()
}

#[test]
fn source_major_sweeps_match_uncached_lines_and_free_every_case() {
    let plain = Campaign::new(suite());
    let sweeps = VendorId::COMMERCIAL
        .iter()
        .map(|&v| vec![v])
        .chain(std::iter::once(VendorId::COMMERCIAL.to_vec()));
    for vendors in sweeps {
        let baseline: Vec<String> = vendors
            .iter()
            .flat_map(|&v| plain.run_vendor_line(v).runs)
            .map(|run| render_text(&run))
            .collect();
        let mut counts = Vec::new();
        for threads in [1, 4] {
            let cache = CompileCache::shared();
            let campaign = Campaign::new(suite()).with_cache(Arc::clone(&cache));
            let exec = Executor::new(ExecutorPolicy::new().with_jobs(threads));
            let (runs, _) = exec.run_sweep(&campaign, &releases(&vendors));
            assert_eq!(runs.len(), baseline.len());
            for (run, expected) in runs.iter().zip(&baseline) {
                assert_eq!(
                    render_text(run),
                    *expected,
                    "{} diverged in a {threads}-thread sweep of {vendors:?}",
                    run.compiler
                );
            }
            // Each case's scope counts into the campaign's cache: the
            // releases of the sweep share each parse and replay runs.
            let stats = cache.stats();
            assert!(
                stats.frontend_hits > stats.frontend_misses,
                "{vendors:?} at {threads} thread(s): {stats}"
            );
            assert!(
                stats.run_memo_hits > 0,
                "{vendors:?} at {threads} thread(s): {stats}"
            );
            // ...and keeps its entries to itself, freed with the case.
            assert_eq!(
                cache.frontend_entries(),
                0,
                "the campaign's cache kept entries after a sweep of {vendors:?}"
            );
            counts.push(stats);
        }
        assert_eq!(counts[0], counts[1], "counters depend on the worker count");
    }
}

/// One lifetime rule for every run: a cache attached to the compiler wins
/// and keeps its entries after the run; a campaign's cache only lends each
/// case a scope, so it counts every lookup and ends empty.
#[test]
fn compiler_cache_keeps_entries_while_campaign_cache_ends_empty() {
    let release = VendorCompiler::new(VendorId::Caps, "3.0.8".parse().unwrap());
    for jobs in [1, 4] {
        let exec = Executor::new(ExecutorPolicy::new().with_jobs(jobs));
        let on_compiler = CompileCache::shared();
        let on_campaign = CompileCache::shared();
        let campaign = Campaign::new(suite()).with_cache(Arc::clone(&on_campaign));
        let compiler = release.clone().with_cache(Arc::clone(&on_compiler));
        let baseline = render_text(&Campaign::new(suite()).run_one(&release));
        assert_eq!(render_text(&exec.run_suite(&campaign, &compiler)), baseline);
        assert!(on_compiler.frontend_entries() > 0);
        assert_eq!(
            on_compiler.exec_entries(),
            0,
            "executables are built, not cached"
        );
        assert_eq!(
            on_campaign.stats().lookups(),
            0,
            "the compiler's cache wins"
        );
        assert_eq!(render_text(&exec.run_suite(&campaign, &release)), baseline);
        assert!(
            on_campaign.stats().lookups() > 0,
            "each case's scope counts into it"
        );
        assert_eq!(on_campaign.frontend_entries(), 0);
    }
}

// ---------------------------------------------------------------------------
// 2. Isolation
// ---------------------------------------------------------------------------

#[test]
fn exec_entries_are_isolated_per_vendor_but_share_the_frontend() {
    let cache = CompileCache::shared();
    let pgi = VendorCompiler::latest(VendorId::Pgi).with_cache(Arc::clone(&cache));
    let cray = VendorCompiler::latest(VendorId::Cray).with_cache(Arc::clone(&cache));
    let case = &suite()[0];
    let source = case.source_for(Language::C);

    let from_pgi = pgi.compile(&source, Language::C).unwrap();
    let from_cray = cray.compile(&source, Language::C).unwrap();
    // Each executable carries its own release's profile: the PGI artifact
    // (its defects baked in) is never served to Cray.
    assert!(Arc::ptr_eq(&from_pgi.profile, &pgi.profile(Language::C)));
    assert!(Arc::ptr_eq(&from_cray.profile, &cray.profile(Language::C)));
    assert!(
        from_pgi.profile.name.starts_with("PGI"),
        "{}",
        from_pgi.profile.name
    );
    assert!(
        from_cray.profile.name.starts_with("Cray"),
        "{}",
        from_cray.profile.name
    );
    // ... while the language-level front-end entry is shared: one source,
    // one parse and one image, whatever the vendor.
    assert!(Arc::ptr_eq(&from_pgi.code, &from_cray.code));
    assert_eq!(cache.frontend_entries(), 1);
    assert_eq!(cache.exec_entries(), 0);

    // Same vendor again: the same entry, the same profile, no new entry.
    let again = pgi.compile(&source, Language::C).unwrap();
    assert!(Arc::ptr_eq(&from_pgi.profile, &again.profile));
    assert!(Arc::ptr_eq(&from_pgi.code, &again.code));
    assert!(Arc::ptr_eq(&from_pgi.run_memo, &again.run_memo));
    assert_eq!(cache.frontend_entries(), 1);
}

#[test]
fn vendor_versions_do_not_share_executables() {
    let cache = CompileCache::shared();
    let case = &suite()[0];
    let source = case.source_for(Language::C);
    let mut seen = Vec::new();
    for v in VendorId::Caps.versions() {
        let c = VendorCompiler::new(VendorId::Caps, v).with_cache(Arc::clone(&cache));
        let exe = c.compile(&source, Language::C).unwrap();
        assert!(Arc::ptr_eq(&exe.profile, &c.profile(Language::C)));
        seen.push(exe);
    }
    for (i, a) in seen.iter().enumerate() {
        for b in &seen[i + 1..] {
            assert_ne!(a.profile, b.profile, "two CAPS versions shared one profile");
            assert!(Arc::ptr_eq(&a.code, &b.code), "two images of one source");
        }
    }
    // Every version walked its own defect catalog over ONE shared parse.
    assert_eq!(cache.frontend_entries(), 1);
    assert_eq!(cache.exec_entries(), 0);
}

/// The server's shape: one cache attached to every compiler, across
/// vendors and releases. It holds one entry per distinct source and no
/// executables, each source has one image, and each executable carries
/// its own release's profile.
#[test]
fn a_compiler_attached_cache_holds_one_unit_per_source() {
    let cache = CompileCache::shared();
    let releases: Vec<VendorCompiler> = VendorId::COMMERCIAL
        .iter()
        .flat_map(|&v| {
            let versions = v.versions();
            [versions[0], versions[3], versions[7]].map(|x| VendorCompiler::new(v, x))
        })
        .map(|c| c.with_cache(Arc::clone(&cache)))
        .collect();
    let mut sources = std::collections::BTreeSet::new();
    for case in suite() {
        for &lang in &case.languages {
            sources.insert((lang, case.source_for(lang)));
            sources.extend(case.cross_source_for(lang).map(|x| (lang, x)));
        }
    }
    let mut images: Vec<Arc<openacc_vv::compiler::BytecodeProgram>> = Vec::new();
    for (lang, source) in &sources {
        let exes: Vec<(&VendorCompiler, Executable)> = releases
            .iter()
            .filter_map(|c| c.compile(source, *lang).ok().map(|exe| (c, exe)))
            .collect();
        let image = &exes
            .first()
            .expect("some release compiles each source")
            .1
            .code;
        for (compiler, exe) in &exes {
            let label = compiler.label();
            let own = compiler.profile(*lang);
            assert!(
                Arc::ptr_eq(&exe.profile, &own),
                "{label} got another profile"
            );
            assert!(Arc::ptr_eq(&exe.code, image), "one image per source");
        }
        let shared = images.iter().any(|other| Arc::ptr_eq(other, image));
        assert!(!shared, "two sources share one image");
        images.push(Arc::clone(image));
    }
    assert_eq!(cache.exec_entries(), 0);
    assert_eq!(cache.frontend_entries(), sources.len());
    let stats = cache.stats();
    assert_eq!(stats.frontend_misses, sources.len() as u64);
    assert_eq!(stats.lookups(), (sources.len() * releases.len()) as u64);
}

// ---------------------------------------------------------------------------
// 3. Composition with the PR 2 journal
// ---------------------------------------------------------------------------

#[test]
fn journal_resume_composes_with_cache() {
    let compiler = VendorCompiler::new(VendorId::Caps, "3.0.8".parse().unwrap());
    // Clean, uncached, serial run: the reference output.
    let clean = {
        let campaign = Campaign::new(suite());
        let exec = Executor::new(ExecutorPolicy::new());
        render_text(&exec.run_suite(&campaign, &compiler))
    };

    // First leg: cached, journaled, halted partway through. The cache
    // rides on the compiler, so its entries outlive the leg.
    let cache = CompileCache::shared();
    let campaign = Campaign::new(suite());
    let compiler = compiler.with_cache(Arc::clone(&cache));
    let journal = Arc::new(MemoryJournal::default());
    let exec = Executor::new(
        ExecutorPolicy::new()
            .with_jobs(4)
            .with_journal(journal.clone())
            .with_halt_after(3),
    );
    let (_, stats) = exec.run_suite_stats(&campaign, &compiler);
    assert!(stats.halted, "halt_after(3) should interrupt the suite");
    let warm_lookups = cache.stats().lookups();
    assert!(warm_lookups > 0, "first leg should have used the cache");
    assert!(
        cache.frontend_entries() > 0,
        "the compiler's cache keeps its entries"
    );

    // Second leg: resume from the journal with the SAME warm cache — the
    // replayed rows skip execution, the remainder compiles through the cache.
    let replay = Replay::from_text(&journal.text());
    let exec = Executor::new(
        ExecutorPolicy::new()
            .with_jobs(1)
            .with_resume(Arc::new(replay)),
    );
    let (run, stats) = exec.run_suite_stats(&campaign, &compiler);
    assert!(!stats.halted);
    assert!(stats.cached > 0, "resume should replay journaled rows");
    assert_eq!(
        render_text(&run),
        clean,
        "cached halt/resume diverged from the clean uncached run"
    );
}

// ---------------------------------------------------------------------------
// 4. Multi-tenant sharing (ISSUE 6: the campaign server's situation)
// ---------------------------------------------------------------------------

/// Build the submission one served tenant would send.
fn tenant_spec(vendor: VendorId, feature: &str, lang: Option<Language>) -> SubmissionSpec {
    let mut spec = SubmissionSpec::new(vendor);
    spec.features = vec![feature.to_string()];
    spec.language = lang;
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The server runs many tenants' submissions against ONE process-wide
    /// compile cache, with campaigns from different tenants interleaving on
    /// the worker pool. Pin the tenancy obligation: two submissions running
    /// concurrently on a shared warm cache produce reports byte-identical
    /// to each submission run serially with no cache at all.
    #[test]
    fn interleaved_tenants_on_a_shared_warm_cache_match_serial_isolated_runs(
        vendor_a in prop::sample::select(vec![
            VendorId::Caps, VendorId::Pgi, VendorId::Cray, VendorId::Reference,
        ]),
        vendor_b in prop::sample::select(vec![
            VendorId::Caps, VendorId::Pgi, VendorId::Cray, VendorId::Reference,
        ]),
        feature_a in prop::sample::select(vec!["loop", "data.copy", "parallel.async"]),
        feature_b in prop::sample::select(vec!["data.copy", "update.host", "loop"]),
        c_only in prop::bool::ANY,
        jobs in prop::sample::select(vec![1usize, 3]),
    ) {
        let lang = if c_only { Some(Language::C) } else { None };
        let spec_a = tenant_spec(vendor_a, feature_a, lang);
        let spec_b = tenant_spec(vendor_b, feature_b, lang);

        // Serial, isolated, cache-less: the reference bytes.
        let serial_a = run_submission(&spec_a, &RunOptions::default()).unwrap().report;
        let serial_b = run_submission(&spec_b, &RunOptions::default()).unwrap().report;

        // One shared cache, pre-warmed by tenant A's campaign (the served
        // steady state: most submissions hit entries earlier tenants left).
        let cache = CompileCache::shared();
        let warm_opts = RunOptions {
            jobs,
            cache: Some(Arc::clone(&cache)),
            ..RunOptions::default()
        };
        let _ = run_submission(&spec_a, &warm_opts).unwrap();
        prop_assert!(cache.stats().lookups() > 0, "warmup must populate the cache");

        // Interleave: both tenants execute concurrently on the warm cache.
        let thread_a = {
            let spec = spec_a.clone();
            let opts = warm_opts.clone();
            std::thread::spawn(move || run_submission(&spec, &opts).unwrap().report)
        };
        let thread_b = {
            let spec = spec_b.clone();
            let opts = warm_opts.clone();
            std::thread::spawn(move || run_submission(&spec, &opts).unwrap().report)
        };
        let report_a = thread_a.join().expect("tenant A run panicked");
        let report_b = thread_b.join().expect("tenant B run panicked");

        prop_assert_eq!(
            report_a, serial_a,
            "tenant A's interleaved warm-cache report diverged from its serial isolated run"
        );
        prop_assert_eq!(
            report_b, serial_b,
            "tenant B's interleaved warm-cache report diverged from its serial isolated run"
        );
    }
}
