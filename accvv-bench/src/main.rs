//! `accvv-bench` — run the repository benchmark.
//!
//! ```text
//! accvv-bench [--workload NAME]… [--seed S] [--seconds S] [--trace [0|1]]
//!             [--out DIR] [--scale full|smoke] [--repeat-check]
//! ```
//!
//! Build and run it through `accvv-bench/run.sh`, which builds the release
//! `accvv` binary beside this one first. Each workload prints one line per
//! metric (name, value, unit) and then one JSON result line; the last line
//! of stdout is the last workload's JSON.
//!
//! A runner of `BENCHMARK.json` appends `--workload W --seed S --seconds T
//! --trace 0|1` to its `command`, `T` being `run_seconds`: `--seconds` is
//! how long a run measures, and `--trace 0|1` picks the end-to-end or the
//! per-layer metrics. A bare `--trace` is `--trace 1`.
//!
//! `accvv-bench --speed-probe` does the speed probe's fixed work and exits;
//! the closed loops run it before their requests (see `speed`).

use acc_obs::json::{self, Json};
use accvv_bench::{repo_root, run, speed, stats, Options, Scale, Workload, END_TO_END};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    out: Option<PathBuf>,
    repeat_check: bool,
}

/// Runs per set in `--repeat-check`.
const REPEAT_RUNS: u64 = 3;

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 25.0,
        trace: false,
        scale: Scale::Full,
        out: None,
        repeat_check: false,
    };
    let mut it = args.into_iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                a.workloads.push(Workload::parse(&name).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{name}` ({})", names.join("|"))
                })?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
            }
            "--trace" => match it.peek().map(String::as_str) {
                Some("0") | Some("1") => a.trace = it.next().as_deref() == Some("1"),
                _ => a.trace = true,
            },
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--scale" => {
                a.scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    other => return Err(format!("unknown scale `{other}` (full|smoke)")),
                }
            }
            "--repeat-check" => a.repeat_check = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.workloads.is_empty() {
        // The repeat check checks the gate; a plain run prints everything.
        a.workloads = if a.repeat_check {
            Workload::GATED.to_vec()
        } else {
            Workload::ALL.to_vec()
        };
    }
    Ok(a)
}

fn options(a: &Args, workload: Workload, seed: u64) -> Result<Options, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let accvv = exe.with_file_name("accvv");
    if !accvv.is_file() {
        return Err(format!(
            "{} is missing: build and run the benchmark through accvv-bench/run.sh",
            accvv.display()
        ));
    }
    let work_dir = repo_root().join(".bench_work");
    Ok(Options {
        workload,
        seed,
        seconds: a.seconds,
        trace: a.trace,
        scale: a.scale,
        accvv,
        bench: exe,
        out_dir: a.out.clone().unwrap_or_else(|| work_dir.join("spans")),
        work_dir,
    })
}

/// The `end_to_end` bounds from `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let entries = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    entries
        .iter()
        .map(|e| {
            let name = e.get("name").and_then(Json::as_str);
            let bound = match e.get("bound") {
                Some(Json::Num(b)) => Some(*b),
                _ => None,
            };
            match (name, bound) {
                (Some(n), Some(b)) => Ok((n.to_string(), b)),
                _ => Err(format!(
                    "malformed end_to_end entry in BENCHMARK.json: {e:?}"
                )),
            }
        })
        .collect()
}

/// Two sets of [`REPEAT_RUNS`] runs each (seeds `seed`, `seed+1`, …, the
/// same seeds both times); per metric, the two sets' medians and their spread against
/// the metric's bound.
fn repeat_check(a: &Args) -> Result<bool, String> {
    let bounds = bounds()?;
    let mut ok = true;
    println!(
        "{:<13} {:<18} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "median A", "median B", "spread", "bound"
    );
    for &w in &a.workloads {
        let mut sets: Vec<Vec<Vec<f64>>> = Vec::new();
        for _ in 0..2 {
            let mut per_metric = vec![Vec::new(); END_TO_END.len()];
            for seed in a.seed..a.seed + REPEAT_RUNS {
                let report = run(&options(a, w, seed)?)?;
                if !report.correct() {
                    return Err(format!(
                        "{} seed {seed}: {}",
                        w.name(),
                        report.failures.join("; ")
                    ));
                }
                for (i, m) in report.metrics.iter().enumerate() {
                    per_metric[i].push(m.value.ok_or_else(|| format!("{} refused", m.name))?);
                }
            }
            sets.push(per_metric);
        }
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            let (ma, mb) = (stats::median(&sets[0][i]), stats::median(&sets[1][i]));
            let spread = stats::spread(ma, mb);
            let bound = bounds
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, b)| *b)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {name}"))?;
            let verdict = if spread <= bound {
                ""
            } else {
                "  EXCEEDS BOUND"
            };
            ok &= spread <= bound;
            println!(
                "{:<13} {:<18} {ma:>14.4} {mb:>14.4} {spread:>8.4} {bound:>7.2}{verdict}",
                w.name(),
                name
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(speed::PROBE_ARG) {
        speed::probe_work();
        return ExitCode::SUCCESS;
    }
    let a = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("accvv-bench: {e}");
            return ExitCode::from(2);
        }
    };
    if a.repeat_check {
        return match repeat_check(&a) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("accvv-bench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let mut all_correct = true;
    for &w in &a.workloads {
        let report = match options(&a, w, a.seed).and_then(|o| run(&o)) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("accvv-bench: {}: {e}", w.name());
                return ExitCode::from(2);
            }
        };
        all_correct &= report.correct();
        print!("{}", report.table());
        println!("{}", report.json());
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn the_benchmark_json_invocation_parses() {
        let a = parse("--workload kernels --seed 3 --seconds 12 --trace 0").expect("valid");
        assert_eq!(a.workloads, [Workload::Kernels]);
        assert_eq!((a.seed, a.seconds, a.trace), (3, 12.0, false));
        assert!(parse("--workload kernels --trace 1").expect("valid").trace);
    }

    #[test]
    fn a_bare_trace_flag_turns_tracing_on() {
        let a = parse("--trace --seed 2").expect("valid");
        assert!(a.trace);
        assert_eq!(a.seed, 2);
        assert_eq!(a.workloads, Workload::ALL);
    }

    #[test]
    fn the_repeat_check_checks_the_gated_workloads() {
        let a = parse("--repeat-check").expect("valid");
        assert_eq!(a.workloads, Workload::GATED);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seconds soon").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--frobnicate").is_err());
    }
}
