//! Acceptance tests for the fault-tolerant campaign executor: panic
//! isolation, deterministic parallelism, watchdog budgets, and seeded
//! transient-fault flake classification — end to end through the public API
//! and the `accvv` binary.

use openacc_vv::compiler::CompileCache;
use openacc_vv::device::Defect;
use openacc_vv::prelude::*;
use openacc_vv::validation::executor::JobMeta;
use openacc_vv::validation::report;
use openacc_vv::validation::{MemoryJournal, Replay};
use std::panic::{self, AssertUnwindSafe};
use std::process::{Command, Stdio};
use std::sync::Arc;

fn small_campaign() -> Campaign {
    let keep = ["loop", "data.copy", "parallel.async", "update.host"];
    let suite: Vec<TestCase> = openacc_vv::testsuite::full_suite()
        .into_iter()
        .filter(|c| keep.contains(&c.feature.as_str()))
        .collect();
    assert!(!suite.is_empty());
    Campaign::new(suite)
}

#[test]
fn panicking_case_yields_infra_while_campaign_completes() {
    // The executor's generic entry point lets the test stand in for a
    // harness bug: job 3 of 8 panics, the other seven must still produce
    // their verdicts.
    let metas: Vec<JobMeta> = (0..8)
        .map(|i| JobMeta {
            name: format!("case{i}"),
            feature: FeatureId::from(format!("f.{i}").as_str()),
            language: Language::C,
        })
        .collect();
    let exec = Executor::new(ExecutorPolicy::new().with_jobs(4));
    let results = exec.run_jobs_with(&metas, |i, _attempt| {
        if i == 3 {
            panic!("injected harness defect");
        }
        openacc_vv::validation::CaseResult {
            name: metas[i].name.clone(),
            feature: metas[i].feature.clone(),
            language: metas[i].language,
            status: TestStatus::Pass,
            certainty: None,
            functional_source: String::new(),
            attempts: 1,
        }
    });
    assert_eq!(results.len(), 8, "the campaign completed");
    match &results[3].status {
        TestStatus::Infra(m) => assert!(m.contains("injected harness defect"), "{m}"),
        other => panic!("expected Infra, got {other:?}"),
    }
    let completed = results
        .iter()
        .filter(|r| r.status == TestStatus::Pass)
        .count();
    assert_eq!(completed, 7);
}

#[test]
fn parallel_reports_are_byte_identical_on_fault_free_runs() {
    let campaign = small_campaign();
    let compiler = VendorCompiler::latest(VendorId::Cray);
    let serial = Executor::new(ExecutorPolicy::new()).run_suite(&campaign, &compiler);
    let parallel =
        Executor::new(ExecutorPolicy::new().with_jobs(4)).run_suite(&campaign, &compiler);
    for fmt in [ReportFormat::Text, ReportFormat::Csv, ReportFormat::Html] {
        assert_eq!(
            report::render(&serial, fmt),
            report::render(&parallel, fmt),
            "{fmt:?} report must not depend on --jobs"
        );
    }
}

/// Status sequence of a campaign under a transient memcpy fault.
fn faulted_statuses(seed: u64, jobs: usize) -> Vec<TestStatus> {
    let compiler = VendorCompiler::reference()
        .with_extra_defect(Defect::TransientMemcpyFault { rate_pct: 35, seed });
    let policy = ExecutorPolicy::new().with_retries(4).with_jobs(jobs);
    let run = Executor::new(policy).run_suite(&small_campaign(), &compiler);
    run.results.into_iter().map(|r| r.status).collect()
}

#[test]
fn seeded_transient_faults_classify_flaky_deterministically() {
    // The fault draws are pure functions of (seed, program, run index), so
    // some seed in a small scan window must flip a verdict across retries.
    let seed = (0..32u64)
        .find(|&s| faulted_statuses(s, 1).contains(&TestStatus::Flaky))
        .expect("a seed in 0..32 produces at least one flaky case");
    let a = faulted_statuses(seed, 1);
    let b = faulted_statuses(seed, 1);
    assert_eq!(a, b, "same seed → identical classification");
    let c = faulted_statuses(seed, 4);
    assert_eq!(a, c, "classification is independent of the worker count");
    // And a flaky case folds the attempt series into the certainty model.
    let compiler = VendorCompiler::reference()
        .with_extra_defect(Defect::TransientMemcpyFault { rate_pct: 35, seed });
    let run = Executor::new(ExecutorPolicy::new().with_retries(4))
        .run_suite(&small_campaign(), &compiler);
    let flaky = run
        .results
        .iter()
        .find(|r| r.status == TestStatus::Flaky)
        .expect("flaky case present");
    assert!(flaky.attempts > 1);
    let cert = flaky.certainty.expect("attempt-series certainty");
    assert_eq!(cert.m, flaky.attempts);
    assert!(cert.nf >= 1 && cert.nf < cert.m);
    assert!(flaky.passed(), "flaky is not a hard failure");
}

#[test]
fn step_budget_watchdog_times_out_deterministically_under_parallelism() {
    let campaign = small_campaign();
    let reference = VendorCompiler::reference();
    let runs: Vec<Vec<TestStatus>> = [1usize, 2, 4]
        .iter()
        .map(|&jobs| {
            let policy = ExecutorPolicy::new().with_jobs(jobs).with_step_limit(10);
            Executor::new(policy)
                .run_suite(&campaign, &reference)
                .results
                .into_iter()
                .map(|r| r.status)
                .collect()
        })
        .collect();
    for statuses in &runs {
        for s in statuses {
            assert!(
                matches!(s, TestStatus::Timeout | TestStatus::Skipped(_)),
                "a 10-step budget starves every run: {s:?}"
            );
        }
        assert!(statuses.contains(&TestStatus::Timeout));
    }
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[0], runs[2]);
}

#[test]
fn accvv_exits_nonzero_on_failures_and_prints_taxonomy() {
    // A clean reference run exits zero and prints the taxonomy line…
    let ok = Command::new(env!("CARGO_BIN_EXE_accvv"))
        .args([
            "run",
            "--vendor",
            "reference",
            "--features",
            "loop",
            "--lang",
            "c",
        ])
        .output()
        .expect("spawn accvv");
    let stdout = String::from_utf8_lossy(&ok.stdout);
    assert!(ok.status.success(), "reference run must exit 0: {stdout}");
    assert!(stdout.contains("taxonomy [C]:"), "{stdout}");
    // …while a failing vendor run exits nonzero and reports the counts.
    let bad = Command::new(env!("CARGO_BIN_EXE_accvv"))
        .args([
            "run",
            "--vendor",
            "pgi",
            "--version",
            "12.6",
            "--features",
            "parallel.async",
            "--lang",
            "c",
            "--jobs",
            "2",
        ])
        .output()
        .expect("spawn accvv");
    assert!(
        !bad.status.success(),
        "failing cases must flip the exit status"
    );
    let stdout = String::from_utf8_lossy(&bad.stdout);
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(stdout.contains("taxonomy [C]:"), "{stdout}");
    assert!(stderr.contains("case(s) failed"), "{stderr}");
}

/// Every CAPS release, oldest first.
fn caps_releases() -> Vec<VendorCompiler> {
    VendorId::Caps
        .versions()
        .into_iter()
        .map(|v| VendorCompiler::new(VendorId::Caps, v))
        .collect()
}

/// One sweep renders each release's report exactly as one `run_suite` per
/// release does: at 1 and 4 workers, with and without a campaign cache,
/// under the default policy and under retries with a step budget tight
/// enough to time some cases out.
#[test]
fn sweep_reports_match_one_run_suite_per_release() {
    let releases = caps_releases();
    let jobs_per_release = small_campaign().materialized_cases().len() * 2;
    let strict = ExecutorPolicy::new().with_retries(2).with_step_limit(100);
    for policy in [ExecutorPolicy::new(), strict] {
        let expected: Vec<String> = releases
            .iter()
            .map(|r| {
                let run = Executor::new(policy.clone()).run_suite(&small_campaign(), r);
                report::render(&run, ReportFormat::Text)
            })
            .collect();
        for jobs in [1, 4] {
            for cached in [false, true] {
                let mut campaign = small_campaign();
                if cached {
                    campaign = campaign.with_cache(CompileCache::shared());
                }
                let exec = Executor::new(policy.clone().with_jobs(jobs));
                let (runs, stats) = exec.run_sweep(&campaign, &releases);
                assert_eq!(stats.executed, releases.len() * jobs_per_release);
                let swept: Vec<String> = runs
                    .iter()
                    .map(|run| report::render(run, ReportFormat::Text))
                    .collect();
                assert_eq!(
                    swept, expected,
                    "jobs={jobs} cached={cached} step_limit={:?}",
                    policy.step_limit
                );
            }
        }
    }
}

/// A journal keys its jobs by case and language under one release, so a
/// sweep of several releases may neither journal nor resume.
#[test]
fn journal_or_resume_on_a_multi_release_sweep_is_refused() {
    let campaign = small_campaign();
    let releases = caps_releases();
    let journal = Arc::new(MemoryJournal::default());
    let journaled = ExecutorPolicy::new().with_journal(journal.clone());
    let resumed = ExecutorPolicy::new().with_resume(Arc::new(Replay::from_text("")));
    for policy in [journaled, resumed] {
        let exec = Executor::new(policy);
        let sweep = panic::catch_unwind(AssertUnwindSafe(|| exec.run_sweep(&campaign, &releases)));
        let payload = sweep.expect_err("a multi-release sweep must refuse a journal or resume");
        let message = payload
            .downcast_ref::<String>()
            .expect("formatted panic message");
        assert!(
            message.contains("a journal records one release"),
            "{message}"
        );
        // One release is the journaled `run_suite` path, and runs.
        let (runs, stats) = exec.run_sweep(&campaign, &releases[..1]);
        assert_eq!(runs.len(), 1);
        assert!(!stats.stopped_early());
    }
    assert!(
        journal.text().starts_with("J1 "),
        "the one-release sweep journaled"
    );
}

/// Run `accvv` with `args`; return its exit success and stderr.
fn accvv(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_accvv"))
        .args(args)
        .output()
        .expect("spawn accvv");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn accvv_rejects_unknown_and_valueless_flags() {
    let refused: &[(&[&str], &str)] = &[
        (
            &[
                "run",
                "--vendor",
                "reference",
                "--features",
                "loop",
                "--exec-mod",
                "walk",
                "--jobz",
                "3",
            ],
            "unknown flag `--exec-mod` for `accvv run`",
        ),
        (
            &[
                "run",
                "--vendor",
                "reference",
                "--features",
                "loop",
                "--retries",
            ],
            "flag `--retries` needs a value",
        ),
        (
            &["run", "--vendor", "--features", "loop"],
            "flag `--vendor` needs a value",
        ),
        (
            &["campaign", "--vendor", "caps", "--jobz", "4"],
            "unknown flag `--jobz` for `accvv campaign`",
        ),
        (
            &["matrix", "--vendor", "caps", "--jobs", "2"],
            "unknown flag `--jobs` for `accvv matrix`",
        ),
        (&["titan", "--nodes", "x"], "bad --nodes value `x`"),
        // A sampled run that checks no node is refused, not an all-clear.
        (&["titan", "--nodes", "0"], "--nodes must be at least 1"),
        (
            &["titan", "--nodes", "2", "--sample", "0"],
            "--sample must be at least 1",
        ),
        (
            &["titan", "--sweep", "--nodes", "2", "--jobs", "2"],
            "`--jobs` does not apply to `accvv titan --sweep`: the sweep runs its units one at a \
             time, so node losses fire at the same unit on every run",
        ),
        // Each titan mode takes only its own usage line's flags.
        (
            &[
                "titan",
                "--sweep",
                "--nodes",
                "2",
                "--sample",
                "1",
                "--fault-rate",
                "90",
                "--seed",
                "5",
            ],
            "`--sample` does not apply to `accvv titan --sweep`",
        ),
        (
            &[
                "titan",
                "--nodes",
                "2",
                "--sample",
                "2",
                "--out",
                "f.txt",
                "--quarantine-after",
                "3",
            ],
            "`--out` does not apply to the sampled `accvv titan`",
        ),
        (
            &[
                "run",
                "--vendor",
                "reference",
                "--features",
                "none.such",
                "--format",
                "csv",
                "--format",
                "html",
            ],
            "flag `--format` is given twice; `accvv run` takes it once",
        ),
        (
            &["disasm", "loop.gang", "--hot"],
            "unknown flag `--hot` for `accvv disasm`",
        ),
    ];
    for (args, message) in refused {
        let (ok, stderr) = accvv(args);
        assert!(!ok, "{args:?} must exit nonzero");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
    // Every flag CI, the docs and the benchmark pass is still taken.
    let (ok, stderr) = accvv(&[
        "run",
        "--vendor",
        "reference",
        "--version",
        "1.0",
        "--lang",
        "c",
        "--features",
        "none.such",
        "--exec-mode",
        "walk",
        "--no-cache",
        "--jobs",
        "2",
        "--format",
        "csv",
    ]);
    assert!(ok, "{stderr}");
    // The flags both titan modes read are on both usage lines.
    let (ok, stderr) = accvv(&[
        "titan",
        "--sweep",
        "--nodes",
        "2",
        "--retries",
        "1",
        "--exec-mode",
        "walk",
    ]);
    assert!(ok, "{stderr}");
}

/// A reader that closes the pipe before the report is written (`accvv run
/// … | head -1`) ends the command quietly, with no panic.
#[test]
fn accvv_stops_quietly_when_stdout_is_closed() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_accvv"))
        .args(["run", "--vendor", "cray", "--features", "none.such"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn accvv");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for accvv");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
}

/// A closed stderr is no more fatal than a closed stdout: a resumed run
/// whose diagnostics reader went away still writes its report and keeps
/// its exit status.
#[test]
fn accvv_stops_quietly_when_stderr_is_closed() {
    let dir = std::env::temp_dir().join(format!("accvv-stderr-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (clean, journal, resumed) = (path("clean.txt"), path("j.j1"), path("resumed.txt"));
    let base = ["run", "--vendor", "reference", "--features", "loop"];
    assert!(
        accvv(&[&base[..], &["--out", &clean]].concat()).0,
        "clean run"
    );
    let halted = [&base[..], &["--journal", &journal, "--halt-after", "2"]].concat();
    assert!(!accvv(&halted).0, "halted run exits nonzero");
    // The resume prints its replay summary to stderr before it runs.
    let mut child = Command::new(env!("CARGO_BIN_EXE_accvv"))
        .args(base)
        .args(["--resume", &journal, "--out", &resumed])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn accvv");
    drop(child.stderr.take());
    let status = child.wait().expect("wait for accvv");
    assert_ne!(status.code(), Some(101), "a closed stderr panicked the run");
    assert!(status.success(), "{status}");
    let read = |name: &str| std::fs::read(dir.join(name)).expect(name);
    assert_eq!(read("resumed.txt"), read("clean.txt"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal that cannot take its records cannot resume the run: the run
/// and the sweep fail, naming the journal, instead of exiting 0.
#[cfg(target_os = "linux")]
#[test]
fn a_journal_on_a_full_disk_fails_the_run() {
    for args in [
        &[
            "run",
            "--vendor",
            "reference",
            "--features",
            "loop",
            "--journal",
            "/dev/full",
        ][..],
        &["titan", "--sweep", "--nodes", "2", "--journal", "/dev/full"][..],
    ] {
        let (ok, stderr) = accvv(args);
        assert!(!ok, "{args:?} exited 0");
        assert!(
            stderr.contains("accvv: journal /dev/full: ")
                && stderr.contains("; it cannot resume this run"),
            "{args:?}: {stderr}"
        );
    }
}

/// `accvv run` and `POST /v1/submit` parse one spelling with one parser:
/// they accept and reject the same spellings with the same message, and
/// both refuse a name they do not know.
#[test]
fn cli_and_server_accept_and_reject_the_same_spellings() {
    use openacc_vv::obs::json;
    use openacc_vv::server::SubmissionSpec;
    // (CLI flag, submission field, spelling)
    let table = [
        ("--vendor", "vendor", "caps"),
        ("--vendor", "vendor", "REF"),
        ("--vendor", "vendor", "gcc"),
        ("--lang", "lang", "Fortran"),
        ("--lang", "lang", "f"),
        ("--lang", "lang", "cobol"),
        ("--format", "format", "csv"),
        ("--format", "format", "CSV"),
        ("--format", "format", "xml"),
        ("--exec-mode", "exec_mode", "walk"),
        ("--exec-mode", "exec_mode", "par"),
    ];
    for (flag, field, spelling) in table {
        let mut args = vec!["run", "--features", "none.such", flag, spelling];
        let mut body = format!(r#"{{"{field}":"{spelling}""#);
        if flag != "--vendor" {
            args.extend(["--vendor", "reference"]);
            body.push_str(r#","vendor":"reference""#);
        }
        body.push('}');
        let (ok, stderr) = accvv(&args);
        let cli = match ok {
            true => Ok(()),
            false => Err(stderr.trim().trim_start_matches("accvv: ").to_string()),
        };
        let parsed = json::parse(&body).expect("test body is JSON");
        let server = SubmissionSpec::from_json(&parsed).map(|_| ());
        assert_eq!(cli, server, "{flag} / `{field}` = {spelling:?}");
    }
    // A misspelt name is refused by both, each naming it, rather than
    // widening the run to every case.
    let (ok, stderr) = accvv(&["run", "--vendor", "reference", "--feature", "loop"]);
    assert!(!ok, "--feature ran");
    assert!(
        stderr.contains("unknown flag `--feature` for `accvv run`"),
        "{stderr}"
    );
    let parsed = json::parse(r#"{"vendor":"reference","feature":"loop"}"#).expect("JSON");
    let refused = SubmissionSpec::from_json(&parsed).map(|_| ());
    assert!(
        refused.is_err_and(|e| e.contains("unknown field `feature` in submission")),
        "`feature` was accepted"
    );
}

/// `accvv run` takes its compiler and suite selection from a
/// `SubmissionSpec`, as a served submission does: `--features "loop,"`
/// selects the `loop` cases alone, as `["loop",""]` does for the server
/// (an empty prefix would select every case), and `--repetitions 0` is
/// refused as the server refuses `"repetitions":0`.
#[test]
fn accvv_run_selects_and_refuses_as_the_server_does() {
    use openacc_vv::obs::json;
    use openacc_vv::server::{run_submission, RunOptions, SubmissionSpec};
    let spec = |body: &str| SubmissionSpec::from_json(&json::parse(body).expect("JSON"));

    let out = Command::new(env!("CARGO_BIN_EXE_accvv"))
        .args([
            "run",
            "--vendor",
            "reference",
            "--lang",
            "c",
            "--features",
            "loop,",
        ])
        .output()
        .expect("spawn accvv");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let served = spec(r#"{"vendor":"reference","lang":"c","features":["loop",""]}"#).unwrap();
    let report = run_submission(&served, &RunOptions::default())
        .unwrap()
        .report;
    assert!(
        stdout.starts_with(&report),
        "CLI and server select different cases"
    );
    assert!(
        report.contains("loop.") && !report.contains("combo."),
        "{report}"
    );

    let (ok, stderr) = accvv(&[
        "run",
        "--vendor",
        "reference",
        "--features",
        "loop",
        "--repetitions",
        "0",
    ]);
    assert!(!ok, "--repetitions 0 ran");
    assert!(
        stderr.contains("--repetitions must be at least 1"),
        "{stderr}"
    );
    let refused = spec(r#"{"vendor":"reference","features":["loop"],"repetitions":0}"#);
    assert!(refused.is_err_and(|e| e.contains("`repetitions` must be at least 1")));
}
