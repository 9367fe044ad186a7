//! Criterion: suite execution throughput — the cost of one full validation
//! campaign run against a compiler release (the operation the Titan harness
//! schedules repeatedly).

use acc_compiler::{VendorCompiler, VendorId};
use acc_spec::Language;
use acc_validation::{Campaign, SuiteConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_suite(c: &mut Criterion) {
    let suite = acc_testsuite::full_suite();
    let mut g = c.benchmark_group("suite");
    g.sample_size(10);

    // Generation only: render all 200+ programs in both languages.
    g.bench_function("generate_all_sources", |b| {
        b.iter(|| {
            let mut bytes = 0usize;
            for case in &suite {
                for lang in case.languages.clone() {
                    bytes += case.source_for(lang).len();
                    if let Some(x) = case.cross_source_for(lang) {
                        bytes += x.len();
                    }
                }
            }
            black_box(bytes)
        })
    });

    // Full campaign against the clean reference implementation.
    let reference = VendorCompiler::reference();
    g.bench_function("campaign_reference_full", |b| {
        let campaign = Campaign::new(suite.clone());
        b.iter(|| black_box(campaign.run_one(&reference)).results.len())
    });

    // The threaded campaign sweep (same results, cases fanned out).
    g.bench_function("campaign_reference_parallel_t4", |b| {
        let campaign = Campaign::new(suite.clone());
        b.iter(|| {
            black_box(campaign.run_one_parallel(&reference, 4))
                .results
                .len()
        })
    });

    // A buggy release (compile errors shortcut many executions).
    let caps_beta = VendorCompiler::new(VendorId::Caps, "3.0.7".parse().unwrap());
    g.bench_function("campaign_caps_3_0_7_full", |b| {
        let campaign = Campaign::new(suite.clone());
        b.iter(|| black_box(campaign.run_one(&caps_beta)).results.len())
    });

    // One area, one language — the harness probe-sized workload.
    g.bench_function("campaign_reference_data_area_c", |b| {
        let campaign = Campaign::new(suite.clone()).with_config(
            SuiteConfig::new()
                .language(Language::C)
                .select_prefixes(&["data"]),
        );
        b.iter(|| black_box(campaign.run_one(&reference)).results.len())
    });
    g.finish();
}

criterion_group!(benches, bench_suite);
criterion_main!(benches);
