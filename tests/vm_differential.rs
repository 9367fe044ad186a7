//! Differential validation of the bytecode VM against the tree-walking
//! reference interpreter.
//!
//! The walker is the semantic oracle; the VM is the default engine.
//! Nothing observable may depend on which engine — or how many executor
//! jobs — ran a case: reports (all formats), status sequences, flake
//! classification under seeded transient faults, version-sweep output,
//! and journal-resume results must be byte-identical. A seeded shuffle
//! picks the sampled subset so the comparison crosses feature families
//! without running the full corpus twice per configuration.

use openacc_vv::device::Defect;
use openacc_vv::prelude::*;
use openacc_vv::validation::report;
use openacc_vv::validation::{MemoryJournal, Replay};
use std::sync::Arc;

/// Tiny xorshift* so the sample is deterministic without a rand dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
}

/// A seeded sample of the full corpus: Fisher–Yates shuffle, truncate,
/// restore corpus order (so reports read like a normal run).
fn sampled_suite(seed: u64, keep: usize) -> Vec<TestCase> {
    let full = openacc_vv::testsuite::full_suite();
    let mut order: Vec<usize> = (0..full.len()).collect();
    let mut rng = Rng(seed | 1);
    for i in (1..order.len()).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    let mut picked: Vec<usize> = order.into_iter().take(keep.min(full.len())).collect();
    picked.sort_unstable();
    let mut by_index: Vec<Option<TestCase>> = full.into_iter().map(Some).collect();
    picked
        .into_iter()
        .map(|i| by_index[i].take().expect("index picked once"))
        .collect()
}

fn run_mode(
    campaign: &Campaign,
    compiler: &VendorCompiler,
    mode: ExecMode,
    jobs: usize,
) -> openacc_vv::validation::SuiteRun {
    let policy = ExecutorPolicy::new().with_exec_mode(mode).with_jobs(jobs);
    Executor::new(policy).run_suite(campaign, compiler)
}

#[test]
fn vm_and_walker_reports_are_byte_identical_across_vendors() {
    let campaign = Campaign::new(sampled_suite(0xACC1, 36));
    for compiler in [
        VendorCompiler::latest(VendorId::Pgi),
        VendorCompiler::latest(VendorId::Cray),
        // An early CAPS release: real failures put generated sources and
        // bug-report appendices into the identity check.
        VendorCompiler::new(VendorId::Caps, "3.0.8".parse().unwrap()),
    ] {
        let walked = run_mode(&campaign, &compiler, ExecMode::Walk, 1);
        let vmed = run_mode(&campaign, &compiler, ExecMode::Vm, 1);
        for fmt in [ReportFormat::Text, ReportFormat::Csv, ReportFormat::Html] {
            assert_eq!(
                report::render(&vmed, fmt),
                report::render(&walked, fmt),
                "{fmt:?} report diverged between engines ({})",
                compiler.label()
            );
        }
    }
}

#[test]
fn engine_parity_is_independent_of_worker_count() {
    let campaign = Campaign::new(sampled_suite(0xACC2, 24));
    let compiler = VendorCompiler::latest(VendorId::Pgi);
    let baseline = report::render(
        &run_mode(&campaign, &compiler, ExecMode::Walk, 1),
        ReportFormat::Text,
    );
    for jobs in [1usize, 4] {
        assert_eq!(
            report::render(
                &run_mode(&campaign, &compiler, ExecMode::Vm, jobs),
                ReportFormat::Text
            ),
            baseline,
            "VM report with jobs={jobs} diverged from the serial walker"
        );
    }
}

#[test]
fn version_sweep_is_engine_independent() {
    let suite = sampled_suite(0xACC3, 16);
    let walk = Campaign::new(suite.clone())
        .with_config(SuiteConfig::new().with_exec_mode(ExecMode::Walk))
        .run_vendor_line(VendorId::Caps);
    let vm = Campaign::new(suite)
        .with_config(SuiteConfig::new().with_exec_mode(ExecMode::Vm))
        .run_vendor_line(VendorId::Caps);
    assert_eq!(walk.runs.len(), vm.runs.len());
    for (w, v) in walk.runs.iter().zip(&vm.runs) {
        assert_eq!(
            report::render(v, ReportFormat::Text),
            report::render(w, ReportFormat::Text),
            "sweep row diverged between engines"
        );
    }
}

/// Transient-fault draws are a pure function of (seed, program, run index),
/// and the run index advances identically in both engines — so retries,
/// flake classification, and the attempt series must match draw for draw.
#[test]
fn transient_memcpy_faults_classify_identically() {
    let suite = sampled_suite(0xACC4, 20);
    // Scan a small seed window for one that actually flips a verdict across
    // retries, so the Flaky path itself is part of the comparison.
    let statuses = |mode: ExecMode, seed: u64, jobs: usize| -> Vec<TestStatus> {
        let compiler = VendorCompiler::reference()
            .with_extra_defect(Defect::TransientMemcpyFault { rate_pct: 35, seed });
        let policy = ExecutorPolicy::new()
            .with_exec_mode(mode)
            .with_retries(4)
            .with_jobs(jobs);
        Executor::new(policy)
            .run_suite(&Campaign::new(suite.clone()), &compiler)
            .results
            .into_iter()
            .map(|r| r.status)
            .collect()
    };
    let seed = (0..32u64)
        .find(|&s| statuses(ExecMode::Walk, s, 1).contains(&TestStatus::Flaky))
        .expect("a seed in 0..32 produces at least one flaky case");
    let walk = statuses(ExecMode::Walk, seed, 1);
    assert!(walk.contains(&TestStatus::Flaky));
    assert_eq!(statuses(ExecMode::Vm, seed, 1), walk, "serial fault parity");
    assert_eq!(
        statuses(ExecMode::Vm, seed, 4),
        walk,
        "parallel fault parity"
    );
}

/// Journal resume under the VM: interrupt a journaled run mid-suite,
/// resume it, and require the final report to match the serial walker's
/// uninterrupted run byte for byte, at any executor job count.
#[test]
fn journal_resume_is_engine_independent() {
    let campaign = Campaign::new(sampled_suite(0xACC5, 18));
    let compiler = VendorCompiler::new(VendorId::Caps, "3.0.8".parse().unwrap());
    let oracle = report::render(
        &run_mode(&campaign, &compiler, ExecMode::Walk, 1),
        ReportFormat::Text,
    );
    for jobs in [1usize, 4] {
        // Journaled, uninterrupted VM run.
        let journal = Arc::new(MemoryJournal::default());
        let full = Executor::new(
            ExecutorPolicy::new()
                .with_exec_mode(ExecMode::Vm)
                .with_jobs(jobs)
                .with_journal(journal.clone()),
        )
        .run_suite(&campaign, &compiler);
        assert_eq!(
            report::render(&full, ReportFormat::Text),
            oracle,
            "journaled VM run with jobs={jobs} diverged from the walker"
        );
        // Cut the journal mid-stream and resume under the same engine.
        let text = journal.text();
        let cut = text.len() / 2;
        let resumed = Executor::new(
            ExecutorPolicy::new()
                .with_exec_mode(ExecMode::Vm)
                .with_jobs(jobs)
                .with_resume(Arc::new(Replay::from_text(&text[..cut]))),
        )
        .run_suite(&campaign, &compiler);
        assert_eq!(
            report::render(&resumed, ReportFormat::Text),
            oracle,
            "VM resume with jobs={jobs} from a torn journal diverged from the walker"
        );
    }
}
