//! Every workload at smoke scale, traced: every metric is printed with its
//! unit, nothing fails (the replay's verdicts included), and the written
//! span trees are well formed. Also: `BENCHMARK.json` lists exactly the
//! gated workloads and the metrics the benchmark prints.

use acc_obs::json::{self, Json};
use accvv_bench::layers::METRICS;
use accvv_bench::trace::{check_trees, self_times, Span};
use accvv_bench::{repo_root, run, Options, Scale, Workload, END_TO_END};
use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

/// The release `accvv` binary, built once per test process.
fn accvv() -> PathBuf {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        let target = repo_root().join("target");
        let status = Command::new(env!("CARGO"))
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "--bin",
                "accvv",
            ])
            .arg("--target-dir")
            .arg(&target)
            .current_dir(repo_root())
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building accvv failed");
        target.join("release").join("accvv")
    })
    .clone()
}

/// The span file back from disk, as spans.
fn read_spans(path: &std::path::Path) -> Vec<Span> {
    let text = std::fs::read_to_string(path).expect("span file written");
    text.lines()
        .map(|line| {
            let j = json::parse(line).expect("each line is JSON");
            let num = |k| match j.get(k) {
                Some(Json::Num(n)) => Some(*n),
                _ => None,
            };
            let name = j.get("name").and_then(Json::as_str).expect("name");
            Span {
                // Span names are a small fixed set; leaking keeps the
                // struct's `&'static str` without a lookup table.
                name: Box::leak(name.to_string().into_boxed_str()),
                start_ns: num("start_ns").expect("start_ns") as u64,
                end_ns: num("end_ns").expect("end_ns") as u64,
                parent: num("parent").map(|p| p as usize),
                request: num("request").expect("request") as u32,
            }
        })
        .collect()
}

fn smoke(workload: Workload) {
    let work = repo_root().join(".bench_work").join("smoke");
    let out_dir = work.join(format!("spans-{}", workload.name()));
    let opts = Options {
        workload,
        seed: 1,
        seconds: 0.0,
        trace: true,
        scale: Scale::Smoke,
        accvv: accvv(),
        bench: PathBuf::from(env!("CARGO_BIN_EXE_accvv-bench")),
        work_dir: work,
        out_dir: out_dir.clone(),
    };
    let report = run(&opts).expect("the workload runs");
    assert!(
        report.correct(),
        "{}: {:?}",
        workload.name(),
        report.failures
    );
    assert!(report.attempted > 0);

    // Every end-to-end and per-layer metric is printed with its unit; the
    // JSON line carries exactly the per-layer ones.
    let table = report.table();
    for (name, unit) in END_TO_END.iter().chain(METRICS.iter()) {
        assert!(
            table.lines().any(|l| {
                let cols: Vec<&str> = l.split_whitespace().collect();
                cols.get(1) == Some(name) && cols.last() == Some(unit)
            }),
            "{}: {name} [{unit}] not printed:\n{table}",
            workload.name()
        );
    }
    let failed_frac = table
        .lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|cols| cols.get(1) == Some(&"failed_frac"))
        .expect("failed_frac printed");
    assert_eq!(failed_frac[2], "0.000000", "{}", workload.name());
    let line = json::parse(&report.json()).expect("the result line is JSON");
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(line.get("failed"), Some(&Json::Num(0.0)));
    let metrics = match line.get("metrics") {
        Some(Json::Obj(m)) => m.clone(),
        other => panic!("metrics object missing: {other:?}"),
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = METRICS.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, want);
    for (name, m) in &metrics {
        assert!(
            m.get("unit").and_then(Json::as_str).is_some(),
            "{name} has no unit"
        );
    }

    // The span trees, re-read from disk: children inside parents, self
    // time never negative, and each request's self times summing to its
    // root's duration.
    let spans = read_spans(&out_dir.join(format!("{}.spans.jsonl", workload.name())));
    assert!(!spans.is_empty());
    check_trees(&spans).expect("well-formed span trees");
    assert!(self_times(&spans).iter().all(|&t| t >= 0));
    for s in spans.iter().filter(|s| s.parent.is_none()) {
        assert_eq!(s.name, "request");
    }
    let _ = std::fs::remove_dir_all(&out_dir);
}

/// `BENCHMARK.json` names exactly the gated workloads and the metrics the
/// benchmark prints, with the same units.
#[test]
fn benchmark_json_matches_the_printed_metrics() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("readable");
    let doc = json::parse(&text).expect("BENCHMARK.json is JSON");
    let list = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("no `{key}` list"))
            .iter()
            .map(|e| {
                let field = |f| {
                    e.get(f)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let names = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(list("end_to_end"), names(&END_TO_END));
    assert_eq!(list("per_layer"), names(&METRICS));
    let workloads: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
    let want: Vec<String> = Workload::GATED
        .iter()
        .map(|w| w.name().to_string())
        .collect();
    assert_eq!(workloads, want);
}

#[test]
fn release_cold_smoke() {
    smoke(Workload::ReleaseCold);
}

#[test]
fn fig8_panel_smoke() {
    smoke(Workload::Fig8Panel);
}

#[test]
fn kernels_smoke() {
    smoke(Workload::Kernels);
}

#[test]
fn serve_light_smoke() {
    smoke(Workload::ServeLight);
}

#[test]
fn serve_heavy_smoke() {
    smoke(Workload::ServeHeavy);
}
