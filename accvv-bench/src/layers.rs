//! The traced run: replay a prefix of the untraced run's requests, each
//! twice (spans off and on), check the replay's outputs, and fold the
//! spans into per-layer metrics (per replayed request).

use crate::gen::Send;
use crate::replay::{self, CacheTotals};
use crate::stats::{self, percentile};
use crate::trace::{self, Span, Trace};
use crate::workloads::{output, Measured, Plan};
use crate::{Metric, Options};
use acc_compiler::exec::RunKnobs;
use acc_compiler::{CompileCache, VendorCompiler, VendorId};
use acc_spec::envvar::EnvConfig;
use acc_validation::{Campaign, SuiteRun};
use std::collections::BTreeMap;
use std::time::Instant;

/// The per-layer metrics, in report order, with their units.
pub const METRICS: [(&str, &str); 45] = [
    ("testsuite.build_s", "s"),
    ("render.calls", "count"),
    ("render.s", "s"),
    ("render.bytes", "bytes"),
    ("frontend.calls", "count"),
    ("frontend.parse_s", "s"),
    ("frontend.sema_s", "s"),
    ("frontend.resolve_s", "s"),
    ("frontend.bytes_per_s", "bytes/s"),
    ("cache.frontend_hit_ratio", "fraction"),
    ("cache.exec_hit_ratio", "fraction"),
    ("cache.self_s", "s"),
    ("cache.entries", "count"),
    ("lower.calls", "count"),
    ("lower.s", "s"),
    ("exec.calls", "count"),
    ("exec.s", "s"),
    ("exec.memo_hit_ratio", "fraction"),
    ("device.kernels", "count"),
    ("device.iterations", "count"),
    ("device.h2d_bytes", "bytes"),
    ("device.d2h_bytes", "bytes"),
    ("harness.cases", "count"),
    ("harness.cross_runs", "count"),
    ("harness.self_s", "s"),
    ("executor.jobs", "count"),
    ("executor.self_s", "s"),
    ("journal.appends", "count"),
    ("journal.append_s", "s"),
    ("store.appends", "count"),
    ("store.append_s", "s"),
    ("store.query_s", "s"),
    ("report.calls", "count"),
    ("report.s", "s"),
    ("http.submit_ms_p50", "ms"),
    ("http.report_ms_p50", "ms"),
    ("http.read_ms_p50", "ms"),
    ("http.requests", "count"),
    ("server.shared", "count"),
    ("server.shed", "count"),
    ("loadgen.late_ms_p50", "ms"),
    ("loadgen.late_ms_max", "ms"),
    ("trace.coverage", "fraction"),
    ("trace.overhead_frac", "fraction"),
    ("unattributed_ms", "ms"),
];

/// The traced run's results.
pub struct Traced {
    /// Every per-layer metric, in [`METRICS`] order.
    pub metrics: Vec<Metric>,
    /// Replayed requests and checks.
    pub attempted: u64,
    /// Replayed outputs that differ from the product's.
    pub failures: Vec<String>,
    /// The spans of the recorded pass.
    pub spans: Vec<Span>,
}

/// What the replay did, over the requests it replayed.
#[derive(Default)]
struct Replayed {
    /// Ids of the workload's own requests (a serve read pair is a request
    /// of its own but not one of these).
    primary: Vec<u32>,
    attempted: u64,
    failures: Vec<String>,
    /// Cache counters of the recorded runs.
    cache: CacheTotals,
    off_s: f64,
    on_s: f64,
}

impl Replayed {
    /// Run one request twice, spans off and spans on (alternating which
    /// goes first, so drift and warm-up cancel), timing both:
    /// `step(recorded)` returns the request's output.
    fn pair<T>(&mut self, i: usize, mut step: impl FnMut(bool) -> T) -> [T; 2] {
        let mut outputs: [Option<T>; 2] = [None, None];
        let order = if i % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for recorded in order {
            let t0 = Instant::now();
            let out = if recorded {
                step(true)
            } else {
                trace::without(|| step(false))
            };
            let took = t0.elapsed().as_secs_f64();
            if recorded {
                self.on_s += took;
            } else {
                self.off_s += took;
            }
            outputs[usize::from(recorded)] = Some(out);
        }
        outputs.map(|o| o.expect("both passes ran"))
    }

    fn check(&mut self, same: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !same {
            self.failures.push(what());
        }
    }
}

/// Replay the plan's first `limit` requests, recording spans.
fn replay(opts: &Options, m: &Measured, limit: usize) -> Result<Replayed, String> {
    let mut r = Replayed::default();
    match &m.plan {
        Plan::Runs(releases, oracle) => {
            for (i, rel) in releases.iter().take(limit).enumerate() {
                trace::set_request(i as u32);
                r.primary.push(i as u32);
                let [off, on] = r.pair(i, |_| replay::cli_run(rel.vendor, rel.version));
                r.cache.merge(&on.2);
                for (stdout, code, _) in [off, on] {
                    r.check(output(stdout.as_bytes(), code) == oracle[rel], || {
                        format!("replayed run {i} ({rel:?}) differs from the product")
                    });
                }
            }
        }
        Plan::Panels(vendors, oracle) => {
            for (i, &v) in vendors.iter().take(limit).enumerate() {
                trace::set_request(i as u32);
                r.primary.push(i as u32);
                let [off, on] = r.pair(i, |_| replay::cli_campaign(v));
                r.cache.merge(&on.2);
                for (stdout, _, _) in [&off, &on] {
                    r.check(output(stdout.as_bytes(), 0) == oracle[&v], || {
                        format!("replayed panel {i} ({v}) differs from the product")
                    });
                }
                let product = product_panel(v);
                r.check(
                    product
                        .iter()
                        .map(|p| &p.results)
                        .eq(on.1.iter().map(|p| &p.results)),
                    || format!("replayed {v} panel verdicts differ from `accvv campaign`'s"),
                );
            }
        }
        Plan::Kernels(exes, oracle, runs) => {
            let env = EnvConfig::empty();
            for (i, &k) in runs.iter().take(limit).enumerate() {
                trace::set_request(i as u32);
                r.primary.push(i as u32);
                for out in r.pair(i, |_| {
                    trace::span("request", || {
                        replay::execute(&exes[k], &env, RunKnobs::default())
                    })
                }) {
                    r.check(
                        out.outcome == oracle[k].outcome && out.metrics == oracle[k].metrics,
                        || format!("replayed kernel run {i} differs from the walker"),
                    );
                }
            }
        }
        Plan::Serve(sends, oracle) => {
            let dirs = [opts.run_dir(), opts.run_dir()];
            let result = replay_serve(&mut r, &dirs, sends, oracle, limit);
            for dir in &dirs {
                let _ = std::fs::remove_dir_all(dir);
            }
            result?;
        }
    }
    Ok(r)
}

/// The server replay keeps two servers — one per span setting — so both
/// passes see the same submission history.
fn replay_serve(
    r: &mut Replayed,
    dirs: &[std::path::PathBuf; 2],
    sends: &[Send],
    oracle: &std::collections::HashMap<crate::gen::Spec, String>,
    limit: usize,
) -> Result<(), String> {
    let servers = [
        replay::Server::open(&dirs[0])?,
        replay::Server::open(&dirs[1])?,
    ];
    for (i, send) in sends.iter().enumerate() {
        if r.primary.len() == limit {
            break;
        }
        trace::set_request(i as u32);
        match send {
            Send::Submit(spec) => {
                r.primary.push(i as u32);
                for report in r.pair(i, |recorded| {
                    servers[usize::from(recorded)].submit(&spec.json())
                }) {
                    r.check(report? == oracle[spec], || {
                        format!("replayed submission {i} differs from the product")
                    });
                }
            }
            Send::Reads => {
                r.pair(i, |recorded| servers[usize::from(recorded)].reads());
            }
        }
    }
    r.cache = servers[1].cache_totals();
    Ok(())
}

/// `accvv campaign`'s own per-case verdicts for a replayed panel: the same
/// `Campaign::run_one_parallel` the CLI calls (with the one worker the
/// benchmark gives it), one cache per panel.
fn product_panel(vendor: VendorId) -> Vec<SuiteRun> {
    let campaign = Campaign::new(acc_testsuite::full_suite()).with_cache(CompileCache::shared());
    vendor
        .versions()
        .into_iter()
        .map(|v| campaign.run_one_parallel(&VendorCompiler::new(vendor, v), 1))
        .collect()
}

/// Replay, check, and fold the spans.
pub fn traced(opts: &Options, m: &Measured) -> Result<Traced, String> {
    trace::start();
    let replayed = replay(opts, m, opts.scale.replay_requests(opts.workload));
    let recorded = trace::stop();
    let mut r = replayed?;
    let tree = trace::check_trees(&recorded.spans);
    r.check(tree.is_ok(), || {
        format!("malformed span tree: {}", tree.unwrap_err())
    });
    let overhead = (r.on_s - r.off_s) / r.off_s.max(1e-9);
    let metrics = fold(&recorded, &r, m, overhead);
    Ok(Traced {
        metrics,
        attempted: r.attempted,
        failures: r.failures,
        spans: recorded.spans,
    })
}

/// The p50 of client samples: 0 where the workload sends none of them,
/// refused (`None`) where too few exist.
fn p50_or_zero(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        Some(0.0)
    } else {
        percentile(samples, 50.0).ok()
    }
}

fn fold(trace: &Trace, r: &Replayed, m: &Measured, overhead: f64) -> Vec<Metric> {
    let requests = r.primary.len().max(1) as f64;
    let own = trace::self_times(&trace.spans);
    let mut layer_s: BTreeMap<&str, f64> = BTreeMap::new();
    let mut name_s: BTreeMap<&str, f64> = BTreeMap::new();
    let mut request_ms: BTreeMap<u32, f64> = BTreeMap::new();
    for (s, own_ns) in trace.spans.iter().zip(&own) {
        *layer_s.entry(s.layer()).or_default() += *own_ns as f64 / 1e9;
        *name_s.entry(s.name).or_default() += s.dur_ns() as f64 / 1e9;
        if s.parent.is_some() {
            *request_ms.entry(s.request).or_default() += *own_ns as f64 / 1e6;
        }
    }
    let layer = |k: &str| layer_s.get(k).copied().unwrap_or(0.0) / requests;
    let named = |k: &str| name_s.get(k).copied().unwrap_or(0.0) / requests;
    let counter = |k: &str| trace.counters.get(k).copied().unwrap_or(0.0);
    let per = |k: &str| counter(k) / requests;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let st = r.cache.stats;
    // Like with like: the median request's attributed time in one replayed
    // run against the end-to-end median of single runs (every workload runs
    // the product on one thread).
    let attributed: Vec<f64> = r
        .primary
        .iter()
        .map(|id| request_ms.get(id).copied().unwrap_or(0.0))
        .collect();
    let attributed_ms = if attributed.is_empty() {
        0.0
    } else {
        stats::median(&attributed)
    };
    let budget_ms = stats::median(&m.raw_latencies_ms);
    let empty = crate::workloads::ServeSamples::default();
    let serve = m.serve.as_ref().unwrap_or(&empty);
    let http = |k: &str| p50_or_zero(serve.http_ms.get(k).map_or(&[][..], Vec::as_slice));
    let values: Vec<Option<f64>> = vec![
        Some(layer("testsuite")),
        Some(per("render.calls")),
        Some(layer("render")),
        Some(per("render.bytes")),
        Some(per("frontend.calls")),
        Some(named("frontend.parse")),
        Some(named("frontend.sema")),
        Some(named("frontend.resolve")),
        Some(ratio(
            counter("frontend.bytes"),
            layer("frontend") * requests,
        )),
        Some(ratio(
            st.frontend_hits as f64,
            (st.frontend_hits + st.frontend_misses) as f64,
        )),
        Some(ratio(
            st.exec_hits as f64,
            (st.exec_hits + st.exec_misses) as f64,
        )),
        Some(layer("cache")),
        Some(r.cache.entries as f64 / if m.serve.is_some() { 1.0 } else { requests }),
        Some(per("lower.calls")),
        Some(layer("lower")),
        Some(per("exec.calls")),
        Some(layer("exec")),
        Some(ratio(
            counter("exec.memo_hits"),
            counter("exec.memo_lookups"),
        )),
        Some(per("device.kernels")),
        Some(per("device.iterations")),
        Some(per("device.h2d_bytes")),
        Some(per("device.d2h_bytes")),
        Some(per("harness.cases")),
        Some(per("harness.cross_runs")),
        Some(layer("harness")),
        Some(per("executor.jobs")),
        Some(layer("executor")),
        Some(per("journal.appends")),
        Some(named("journal.append")),
        Some(per("store.appends")),
        Some(named("store.append")),
        Some(named("store.query")),
        Some(per("report.calls")),
        Some(layer("report")),
        http("submit"),
        http("report"),
        http("read"),
        Some(serve.http_ms.values().map(Vec::len).sum::<usize>() as f64),
        Some(serve.shared),
        Some(serve.shed),
        p50_or_zero(&serve.late_ms),
        Some(serve.late_ms.iter().copied().fold(0.0, f64::max)),
        Some(ratio(attributed_ms, budget_ms)),
        Some(overhead),
        Some(budget_ms - attributed_ms),
    ];
    METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect()
}
