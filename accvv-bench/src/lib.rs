//! # accvv-bench — the repository benchmark
//!
//! Five seeded workloads drive the validation suite through the entry
//! points its users use — the release `accvv` binary for the CLI and the
//! server, `VendorCompiler::compile` plus `Executable::run_with_knobs` for
//! the engine — and check every output against the tree-walker oracle.
//! A separate traced run replays each workload in-process through each
//! layer's public functions and reports per-layer counts and self times.
//! See `README.md` for the workloads, the metrics and what each layer
//! metric should move.

#![warn(missing_docs)]

pub mod gen;
pub mod http;
pub mod layers;
pub mod proc;
pub mod replay;
pub mod speed;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One release validated by a cold `accvv run` process.
    ReleaseCold,
    /// One Fig. 8 panel: `accvv campaign --vendor V`.
    Fig8Panel,
    /// Seeded kernel programs on the default engine, in-process.
    Kernels,
    /// Light open-loop traffic against `accvv serve`.
    ServeLight,
    /// Heavy mixed open-loop traffic against `accvv serve`.
    ServeHeavy,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 5] = [
        Workload::ReleaseCold,
        Workload::Fig8Panel,
        Workload::Kernels,
        Workload::ServeLight,
        Workload::ServeHeavy,
    ];

    /// The workloads `BENCHMARK.json` lists, which gate changes. Not
    /// `serve_light`: an idle server answers on the 20 ms steps of its
    /// accept and poll loops, so its p90 sits on the edge between requests
    /// answered on the first step and on the second, and a host that ran
    /// its fsyncs and CPU a third slower moved that p90 by a third on
    /// unchanged code. `serve_heavy`'s p50, mostly small specs that did
    /// not queue, measures the same floor.
    pub const GATED: [Workload; 4] = [
        Workload::ReleaseCold,
        Workload::Fig8Panel,
        Workload::Kernels,
        Workload::ServeHeavy,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReleaseCold => "release_cold",
            Workload::Fig8Panel => "fig8_panel",
            Workload::Kernels => "kernels",
            Workload::ServeLight => "serve_light",
            Workload::ServeHeavy => "serve_heavy",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work a run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark proper: enough requests for a p90 in every workload.
    Full,
    /// A few requests per workload, for tests.
    Smoke,
}

impl Scale {
    /// A closed loop runs at least this many requests, however long they
    /// take: a p90 needs 100 samples (10 beyond it).
    pub fn min_requests(self) -> usize {
        match self {
            Scale::Full => 100,
            Scale::Smoke => 2,
        }
    }

    /// Length of a closed loop's generated request plan.
    pub fn max_requests(self) -> usize {
        match self {
            Scale::Full => 20_000,
            Scale::Smoke => 3,
        }
    }

    /// Set-up repetitions (`full` at full scale).
    pub fn reps(self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Smoke => 1,
        }
    }

    /// Open-loop submissions at `rate` per second for `seconds`.
    pub fn open_loop_count(self, rate: f64, seconds: f64) -> usize {
        match self {
            Scale::Full => ((rate * seconds).round() as usize).max(self.min_requests()),
            Scale::Smoke => 4,
        }
    }

    /// Requests the traced run replays.
    pub fn replay_requests(self, workload: Workload) -> usize {
        match (self, workload) {
            (Scale::Smoke, _) => 1,
            (Scale::Full, Workload::ReleaseCold) => 10,
            (Scale::Full, Workload::Fig8Panel) => 3,
            (Scale::Full, Workload::Kernels) => 72,
            (Scale::Full, Workload::ServeLight) => 20,
            (Scale::Full, Workload::ServeHeavy) => 40,
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// What to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long a run measures (closed loops also wait for
    /// [`Scale::min_requests`]; open loops send `rate × seconds`).
    pub seconds: f64,
    /// Add the traced replay and report per-layer metrics.
    pub trace: bool,
    /// Full benchmark or smoke test.
    pub scale: Scale,
    /// The release `accvv` binary.
    pub accvv: PathBuf,
    /// This benchmark's binary, which the CLI loops re-run as their speed
    /// probe (`speed::probe_child_ms`).
    pub bench: PathBuf,
    /// Scratch space for server stores and replay state (removed after
    /// use).
    pub work_dir: PathBuf,
    /// Where the traced run writes `<workload>.spans.jsonl`.
    pub out_dir: PathBuf,
}

static RUN_DIRS: AtomicU64 = AtomicU64::new(0);

impl Options {
    /// A fresh directory path under the work directory.
    pub fn run_dir(&self) -> PathBuf {
        let n = RUN_DIRS.fetch_add(1, Ordering::Relaxed);
        self.work_dir.join(format!(
            "{}-{}-{n}",
            self.workload.name(),
            std::process::id()
        ))
    }
}

/// One reported number. `None` is a percentile the samples cannot support.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: Option<f64>,
}

/// The end-to-end metrics, with their units, in report order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// One workload run's result.
#[derive(Debug)]
pub struct Report {
    /// The workload.
    pub workload: Workload,
    /// Requests and checks made.
    pub attempted: u64,
    /// Why each failed one failed.
    pub failures: Vec<String>,
    /// The reported metrics: end-to-end ones, or per-layer ones when
    /// traced.
    pub metrics: Vec<Metric>,
    /// Printed beside the metrics but not reported in the JSON line.
    pub notes: Vec<Metric>,
}

impl Report {
    /// Did every request and check succeed?
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// One line per metric: workload, name, value, unit.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in self.metrics.iter().chain(&self.notes) {
            let value = match m.value {
                Some(v) => format!("{v:.6}"),
                None => "refused (too few samples)".to_string(),
            };
            let _ = writeln!(
                out,
                "{:<13} {:<26} {value:>16} {}",
                self.workload.name(),
                m.name,
                m.unit
            );
        }
        for f in self.failures.iter().take(10) {
            let _ = writeln!(out, "{:<13} FAILED: {f}", self.workload.name());
        }
        out
    }

    /// The machine-readable result line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = m
                    .value
                    .filter(|v| v.is_finite())
                    .map_or_else(|| "null".to_string(), |v| format!("{v}"));
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failures.len(),
            metrics.join(", ")
        )
    }
}

fn measure(opts: &Options) -> Result<workloads::Measured, String> {
    match opts.workload {
        Workload::ReleaseCold => workloads::release_cold(opts),
        Workload::Fig8Panel => workloads::fig8_panel(opts),
        Workload::Kernels => workloads::kernels(opts),
        Workload::ServeLight => workloads::serve(opts, false),
        Workload::ServeHeavy => workloads::serve(opts, true),
    }
}

/// Run one workload: the untraced measurement, plus the traced replay when
/// asked. `Err` means the benchmark could not run at all.
pub fn run(opts: &Options) -> Result<Report, String> {
    let m = measure(opts)?;
    let latency = |p| stats::percentile(&m.latencies_ms, p).ok();
    let e2e = [
        Some(stats::median(&m.setup_s)),
        latency(50.0),
        latency(90.0),
        Some(m.throughput),
        Some(m.peak_rss_mb),
    ];
    let failed_frac = m.failures.len() as f64 / m.attempted.max(1) as f64;
    let mut notes = vec![Metric {
        name: "failed_frac",
        unit: "fraction",
        value: Some(failed_frac),
    }];
    if let Some(s) = &m.serve {
        notes.push(Metric {
            name: "slo_met_frac",
            unit: "fraction",
            value: Some(s.slo_met as f64 / s.submissions.max(1) as f64),
        });
    }
    notes.push(Metric {
        name: "requests",
        unit: "count",
        value: Some(m.latencies_ms.len() as f64),
    });
    let mut report = Report {
        workload: opts.workload,
        attempted: m.attempted,
        failures: m.failures.clone(),
        metrics: END_TO_END
            .iter()
            .zip(e2e)
            .map(|(&(name, unit), value)| Metric { name, unit, value })
            .collect(),
        notes,
    };
    if opts.trace {
        let traced = layers::traced(opts, &m)?;
        let path = opts
            .out_dir
            .join(format!("{}.spans.jsonl", opts.workload.name()));
        std::fs::create_dir_all(&opts.out_dir)
            .and_then(|()| std::fs::write(&path, trace::to_jsonl(&traced.spans)))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let e2e = std::mem::replace(&mut report.metrics, traced.metrics);
        report.notes.splice(0..0, e2e);
        report.attempted += traced.attempted;
        report.failures.extend(traced.failures);
    }
    Ok(report)
}

/// The repository checkout this benchmark was built from.
pub fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
}
