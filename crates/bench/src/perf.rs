//! Machine-readable performance measurements behind `accvv bench`.
//!
//! Each measurement times a representative workload (template expansion,
//! a full reference campaign, the three-vendor Fig. 8 sweep, the device
//! interpreter) over a configurable number of iterations and reports the
//! median wall time plus a cases-per-second throughput figure. The report
//! serialises to a small hand-rolled JSON document (`BENCH_suite.json`)
//! that doubles as the CI regression baseline: `accvv bench --check
//! BASELINE --tolerance-pct P` fails when the full-suite wall time
//! regresses by more than `P` percent.

use acc_compiler::exec::{ExecMode, RunKnobs};
use acc_compiler::{CacheStats, CompileCache, VendorCompiler, VendorId};
use acc_validation::{Campaign, Executor, ExecutorPolicy};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// The measurement CI gates on: the three-vendor, all-versions Fig. 8
/// campaign — the suite's end-to-end hot path.
pub const FULL_SUITE: &str = "campaign_fig8_three_vendor";

/// The single-kernel interpreter workload (512-element device loop): the
/// bytecode VM's hot path, gated alongside [`FULL_SUITE`] so an engine
/// regression can't hide inside campaign noise.
pub const DEVICE_KERNEL: &str = "device_kernel_512";

/// Workloads the `--check` regression gate compares against the baseline.
/// Every guarded workload must exist in the baseline; a missing entry is a
/// hard error with a regeneration hint (a silent skip would let a
/// regression ship behind a stale baseline).
pub const GUARDED: &[&str] = &[FULL_SUITE, DEVICE_KERNEL];

/// The reference campaign run with an *enabled* recorder: what live tracing
/// costs end to end. Reported (so the enabled overhead stays visible in
/// `BENCH_suite.json`) but not gated — the guarantee the suite makes is
/// about the disabled path.
pub const TRACED_CAMPAIGN: &str = "campaign_traced_reference";

/// One named workload's timing.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Workload name (stable across runs; keys the baseline comparison).
    pub name: String,
    /// Median wall time across the run's iterations, in milliseconds.
    pub median_ms: f64,
    /// Minimum wall time across the run's iterations, in milliseconds.
    /// Scheduler/load interference is one-sided (it only ever adds time),
    /// so the minimum is the low-noise estimator of a workload's true
    /// cost — tight-threshold gates (the telemetry overhead guard)
    /// compare minima, while the coarse ±25% regression gate keeps using
    /// the median.
    pub min_ms: f64,
    /// Work units per second at the median (case results, rendered
    /// sources, or kernel runs depending on the workload).
    pub cases_per_sec: f64,
}

/// A full bench run: every measurement plus the compilation-cache counters
/// accumulated across all of them.
#[derive(Debug)]
pub struct BenchReport {
    /// Whether the compilation cache was attached (`accvv bench` default;
    /// `--no-cache` turns it off to measure the cold path).
    pub cache_enabled: bool,
    /// Iterations per measurement (median taken over these).
    pub iters: u32,
    /// The measurements, in execution order.
    pub measurements: Vec<Measurement>,
    /// Estimated cost of *disabled* telemetry on the full-suite workload,
    /// as a percentage of its wall time. Paired, in-run estimate — the
    /// measured no-op cost of one disabled instrumentation call, times the
    /// event volume a traced run actually records (scaled to the
    /// full-suite case count), over the full-suite minimum wall time. All
    /// three factors come from the same process, so machine-speed drift
    /// cancels — unlike any cross-run wall-clock comparison, which cannot
    /// resolve a 2% threshold on shared hardware.
    pub disabled_overhead_pct: f64,
    /// Cache counters summed over the whole run (all zeros when disabled).
    pub cache: CacheStats,
}

impl BenchReport {
    /// Look up a measurement by name.
    pub fn measurement(&self, name: &str) -> Option<&Measurement> {
        self.measurements.iter().find(|m| m.name == name)
    }

    /// Serialise as the `BENCH_suite.json` document.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"schema\": \"accvv-bench-v1\",");
        let _ = writeln!(s, "  \"cache_enabled\": {},", self.cache_enabled);
        let _ = writeln!(s, "  \"iters\": {},", self.iters);
        let _ = writeln!(s, "  \"measurements\": [");
        for (i, m) in self.measurements.iter().enumerate() {
            let comma = if i + 1 < self.measurements.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    {{\"name\": \"{}\", \"median_ms\": {:.3}, \"min_ms\": {:.3}, \"cases_per_sec\": {:.1}}}{comma}",
                m.name, m.median_ms, m.min_ms, m.cases_per_sec
            );
        }
        let _ = writeln!(s, "  ],");
        let _ = writeln!(
            s,
            "  \"disabled_overhead_pct\": {:.4},",
            self.disabled_overhead_pct
        );
        let _ = writeln!(s, "  \"cache\": {{");
        let _ = writeln!(s, "    \"frontend_hits\": {},", self.cache.frontend_hits);
        let _ = writeln!(s, "    \"frontend_misses\": {},", self.cache.frontend_misses);
        let _ = writeln!(s, "    \"exec_hits\": {},", self.cache.exec_hits);
        let _ = writeln!(s, "    \"exec_misses\": {},", self.cache.exec_misses);
        let _ = writeln!(s, "    \"hit_rate\": {:.4}", self.cache.hit_rate());
        let _ = writeln!(s, "  }}");
        s.push_str("}\n");
        s
    }
}

/// Extract a measurement's `median_ms` from a serialised report without a
/// JSON parser: scan for the measurement object by name. Tolerates only the
/// exact layout [`BenchReport::to_json`] emits — which is all the baseline
/// file can contain.
pub fn median_in_json(json: &str, name: &str) -> Option<f64> {
    field_in_json(json, name, "median_ms")
}

/// Extract a measurement's `min_ms` (see [`Measurement::min_ms`]). `None`
/// for baselines written before the field existed.
pub fn min_in_json(json: &str, name: &str) -> Option<f64> {
    field_in_json(json, name, "min_ms")
}

fn field_in_json(json: &str, name: &str, field: &str) -> Option<f64> {
    let at = json.find(&format!("\"name\": \"{name}\""))?;
    let rest = &json[at..];
    // Stay within this measurement object.
    let obj = &rest[..rest.find('}').unwrap_or(rest.len())];
    let key = format!("\"{field}\": ");
    let m = obj.find(&key)?;
    let rest = &obj[m + key.len()..];
    let end = rest
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One workload's raw timing: the median wall time plus the totals the
/// throughput figure derives from.
struct Timing {
    /// Median per-iteration wall time, milliseconds.
    median_ms: f64,
    /// Minimum per-iteration wall time, milliseconds.
    min_ms: f64,
    /// Work units summed over ALL iterations.
    total_units: usize,
    /// Wall time summed over ALL iterations, seconds.
    total_secs: f64,
}

/// Time `iters` runs of `body`. The median is per-iteration; the unit and
/// elapsed totals span every iteration so the derived throughput is total
/// units over total elapsed time — dividing one iteration's unit count by
/// the median time would overstate throughput whenever the run count and
/// per-run cost drift apart.
fn time_median(iters: u32, mut body: impl FnMut() -> usize) -> Timing {
    let mut times_ms: Vec<f64> = Vec::with_capacity(iters as usize);
    let mut total_units = 0usize;
    let mut total_secs = 0.0f64;
    for _ in 0..iters {
        let t0 = Instant::now();
        let units = std::hint::black_box(body());
        let dt = t0.elapsed().as_secs_f64();
        times_ms.push(dt * 1e3);
        total_units += units;
        total_secs += dt;
    }
    times_ms.sort_by(f64::total_cmp);
    Timing {
        median_ms: times_ms[times_ms.len() / 2],
        min_ms: times_ms[0],
        total_units,
        total_secs,
    }
}

fn push(measurements: &mut Vec<Measurement>, name: &str, t: Timing) {
    let cases_per_sec = if t.total_secs > 0.0 {
        t.total_units as f64 / t.total_secs
    } else {
        0.0
    };
    measurements.push(Measurement {
        name: name.to_string(),
        median_ms: t.median_ms,
        min_ms: t.min_ms,
        cases_per_sec,
    });
}

/// Run the bench suite. `iters` timed repetitions per workload (median
/// reported); `use_cache` attaches one shared [`CompileCache`] to every
/// compiler the campaigns drive, so it outlives each run and later
/// iterations hit what earlier ones compiled, as `accvv serve` does.
pub fn run_bench(iters: u32, use_cache: bool) -> BenchReport {
    let iters = iters.max(1);
    let cache = use_cache.then(CompileCache::shared);
    let with_cache = |c: VendorCompiler| match &cache {
        Some(cache) => c.with_cache(Arc::clone(cache)),
        None => c,
    };
    let suite = acc_testsuite::full_suite();
    let campaign = Campaign::new(suite.clone());
    let traced = |recorder: acc_obs::Recorder| {
        Executor::new(ExecutorPolicy::new().with_recorder(recorder))
    };
    let mut measurements = Vec::new();

    // 1. Template expansion: render every functional + cross source in
    //    both languages (the suite's pure generation cost).
    let timing = time_median(iters, || {
        let mut sources = 0usize;
        for case in &suite {
            for lang in case.languages.clone() {
                std::hint::black_box(case.source_for(lang).len());
                sources += 1;
                if let Some(x) = case.cross_source_for(lang) {
                    std::hint::black_box(x.len());
                    sources += 1;
                }
            }
        }
        sources
    });
    push(&mut measurements, "generate_sources", timing);

    // 2. Full suite against the clean reference implementation.
    let reference = with_cache(VendorCompiler::reference());
    let timing = time_median(iters, || campaign.run_one(&reference).results.len());
    push(&mut measurements, "campaign_reference_full", timing);

    // 2b. The same campaign with live span collection, so the cost of
    //     *enabled* tracing is a visible line item next to the untraced
    //     number above. A fresh recorder per iteration keeps the event
    //     buffer from growing across iterations.
    let timing = time_median(iters, || {
        let exec = traced(acc_obs::Recorder::enabled());
        exec.run_suite(&campaign, &reference).results.len()
    });
    push(&mut measurements, TRACED_CAMPAIGN, timing);

    // 2c. Inputs for the disabled-overhead estimate (untimed): how many
    //     events one traced reference campaign records, per case result —
    //     i.e. how many instrumentation sites actually fire per case.
    let recorder = acc_obs::Recorder::enabled();
    let reference_units = traced(recorder.clone())
        .run_suite(&campaign, &reference)
        .results
        .len()
        .max(1);
    let events_per_reference_run = recorder.snapshot().len();

    // 2d. The disabled instrumentation path in isolation: with no scope
    //     installed on any thread, every call below takes the no-scope fast
    //     path (one load of the live-scope count) — exactly what each
    //     span/instant site in the stack costs while telemetry is off.
    let noop_calls = 2_000_000usize;
    let timing = time_median(iters, || {
        for _ in 0..noop_calls {
            acc_obs::instant("bench", "noop", vec![]);
        }
        noop_calls
    });
    let disabled_ns_per_call = timing.min_ms * 1e6 / noop_calls as f64;
    push(&mut measurements, "obs_disabled_call_2m", timing);

    // 3. The Fig. 8 acceptance metric: all released versions of all three
    //    commercial vendors, serially, one release after another.
    let releases: Vec<VendorCompiler> = VendorId::COMMERCIAL
        .iter()
        .flat_map(|&vendor| vendor.versions().into_iter().map(move |v| (vendor, v)))
        .map(|(vendor, v)| with_cache(VendorCompiler::new(vendor, v)))
        .collect();
    let timing = time_median(iters, || {
        releases.iter().map(|r| campaign.run_one(r).results.len()).sum()
    });
    let full_suite_units = timing.total_units / iters as usize;
    let full_suite_min_ms = timing.min_ms;
    push(&mut measurements, FULL_SUITE, timing);

    // 4. Device interpreter throughput: one compiled kernel run repeatedly
    //    (compilation outside the timed region — this isolates `exec.rs`).
    let src = "int main(void) {\n    int error = 0;\n    int A[512];\n    for (i = 0; i < 512; i++)\n    {\n        A[i] = 0;\n    }\n    #pragma acc parallel num_gangs(8) copy(A[0:512])\n    {\n        #pragma acc loop\n        for (i = 0; i < 512; i++)\n        {\n            A[i] = A[i] + 1;\n        }\n    }\n    for (i = 0; i < 512; i++)\n    {\n        if (A[i] != 1)\n        {\n            error++;\n        }\n    }\n    return error == 0;\n}\n";
    let exe = reference
        .compile(src, acc_spec::Language::C)
        .expect("bench kernel compiles");
    let timing = time_median(iters, || {
        let runs = 20usize;
        for _ in 0..runs {
            std::hint::black_box(exe.run().outcome.passed());
        }
        runs
    });
    push(&mut measurements, DEVICE_KERNEL, timing);

    // 5. Bytecode lowering in isolation: re-lower the already-resolved 512
    //    kernel. This is the cost a compile-cache miss adds over the old
    //    tree-walking pipeline (a hit skips it entirely).
    let timing = time_median(iters, || {
        let lowerings = 50usize;
        for _ in 0..lowerings {
            std::hint::black_box(exe.lower_again());
        }
        lowerings
    });
    push(&mut measurements, "vm_compile_only", timing);

    // 6. The VM hot loop, pinned explicitly (independent of the session
    //    default engine): same kernel, same 20-run batch as
    //    `device_kernel_512`, so the two stay directly comparable.
    let env = acc_spec::envvar::EnvConfig::empty();
    let vm_knobs = || RunKnobs {
        exec_mode: ExecMode::Vm,
        ..RunKnobs::default()
    };
    let timing = time_median(iters, || {
        let runs = 20usize;
        for _ in 0..runs {
            std::hint::black_box(exe.run_with_knobs(&env, vm_knobs()).outcome.passed());
        }
        runs
    });
    push(&mut measurements, "vm_execute_512", timing);

    // Disabled-overhead estimate (see `BenchReport::disabled_overhead_pct`):
    // scale the traced reference run's event volume to the full-suite case
    // count, price each event at the measured no-op call cost, and take
    // that as a fraction of the full-suite minimum wall time.
    let estimated_events =
        events_per_reference_run as f64 * (full_suite_units as f64 / reference_units as f64);
    let disabled_overhead_pct = if full_suite_min_ms > 0.0 {
        estimated_events * disabled_ns_per_call / (full_suite_min_ms * 1e6) * 100.0
    } else {
        0.0
    };

    BenchReport {
        cache_enabled: use_cache,
        iters,
        measurements,
        disabled_overhead_pct,
        cache: cache.map(|c| c.stats()).unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrips_the_gated_median() {
        let report = BenchReport {
            cache_enabled: true,
            iters: 3,
            disabled_overhead_pct: 0.1234,
            measurements: vec![
                Measurement {
                    name: "generate_sources".into(),
                    median_ms: 12.5,
                    min_ms: 11.0,
                    cases_per_sec: 100.0,
                },
                Measurement {
                    name: FULL_SUITE.into(),
                    median_ms: 456.789,
                    min_ms: 450.5,
                    cases_per_sec: 4321.0,
                },
            ],
            cache: CacheStats::default(),
        };
        let json = report.to_json();
        assert_eq!(median_in_json(&json, FULL_SUITE), Some(456.789));
        assert_eq!(median_in_json(&json, "generate_sources"), Some(12.5));
        assert_eq!(median_in_json(&json, "missing"), None);
        assert_eq!(min_in_json(&json, FULL_SUITE), Some(450.5));
        // Pre-min_ms baselines simply don't have the field.
        let legacy = json.replace(", \"min_ms\": 450.5", "").replace(", \"min_ms\": 11.0", "");
        assert_eq!(min_in_json(&legacy, FULL_SUITE), None);
        assert_eq!(median_in_json(&legacy, FULL_SUITE), Some(456.789));
    }

    #[test]
    fn median_is_order_insensitive() {
        let mut times = [5.0, 1.0, 3.0];
        times.sort_by(f64::total_cmp);
        assert_eq!(times[times.len() / 2], 3.0);
    }
}
