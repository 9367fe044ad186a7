//! Durability properties of the campaign journal: crash-safe resume and
//! corruption recovery.
//!
//! The central claim (ISSUE: the tentpole invariant): for ANY interrupt
//! point — measured in raw journal bytes, so torn lines and half-written
//! records are in scope — and ANY `--jobs` value on either side, replaying
//! the journal prefix and resuming produces a final report byte-identical
//! to the uninterrupted run.

use openacc_vv::compiler::{VendorCompiler, VendorId};
use openacc_vv::prelude::*;
use openacc_vv::validation::report::render;
use openacc_vv::validation::{MemoryJournal, Replay};
use proptest::prelude::*;
use std::sync::Arc;

/// Fast exact-match features (4 cases × 2 languages = 8 jobs max).
const FEATURES: &[&str] = &["loop", "data.copy", "parallel.async", "update.host"];

fn suite_for(mask: &[bool]) -> Vec<TestCase> {
    let picked: Vec<&str> = FEATURES
        .iter()
        .zip(mask)
        .filter(|(_, &on)| on)
        .map(|(f, _)| *f)
        .collect();
    // Never an empty suite: default to the first feature.
    let picked = if picked.is_empty() {
        vec![FEATURES[0]]
    } else {
        picked
    };
    openacc_vv::testsuite::full_suite()
        .into_iter()
        .filter(|c| picked.contains(&c.feature.as_str()))
        .collect()
}

fn compiler_for(buggy: bool) -> VendorCompiler {
    if buggy {
        // An early CAPS release: real failures, so the bug-report appendix
        // (with code snippets) is part of the byte-identity obligation.
        VendorCompiler::new(VendorId::Caps, "3.0.8".parse().unwrap())
    } else {
        VendorCompiler::reference()
    }
}

/// Run the suite journaled and uninterrupted; return the journal text and
/// the rendered report.
fn journaled_run(campaign: &Campaign, compiler: &VendorCompiler, jobs: usize) -> (String, String) {
    let journal = Arc::new(MemoryJournal::default());
    let exec = Executor::new(
        ExecutorPolicy::new()
            .with_jobs(jobs)
            .with_journal(journal.clone()),
    );
    let (run, stats) = exec.run_suite_stats(campaign, compiler);
    assert!(!stats.halted);
    assert_eq!(stats.cached, 0);
    (journal.text(), render(&run, ReportFormat::Text))
}

/// Resume from `journal_prefix` and render the final report.
fn resumed_report(
    campaign: &Campaign,
    compiler: &VendorCompiler,
    journal_prefix: &str,
    jobs: usize,
) -> String {
    let replay = Replay::from_text(journal_prefix);
    let exec = Executor::new(
        ExecutorPolicy::new()
            .with_jobs(jobs)
            .with_resume(Arc::new(replay)),
    );
    let (run, stats) = exec.run_suite_stats(campaign, compiler);
    assert!(!stats.halted);
    render(&run, ReportFormat::Text)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random suite, random compiler, random byte-level interrupt point,
    /// random jobs on both sides: resume must reproduce the uninterrupted
    /// report byte for byte.
    #[test]
    fn resume_report_is_byte_identical_at_any_interrupt_point(
        mask in prop::collection::vec(prop::bool::ANY, 4usize),
        buggy in prop::bool::ANY,
        jobs_first in prop::sample::select(&[1usize, 4]),
        jobs_resume in prop::sample::select(&[1usize, 4]),
        cut_seed in 0usize..10_000,
    ) {
        let campaign = Campaign::new(suite_for(&mask));
        let compiler = compiler_for(buggy);
        let (journal, clean) = journaled_run(&campaign, &compiler, jobs_first);
        let mut cut = cut_seed % (journal.len() + 1);
        while !journal.is_char_boundary(cut) {
            cut -= 1;
        }
        let resumed = resumed_report(&campaign, &compiler, &journal[..cut], jobs_resume);
        prop_assert_eq!(
            resumed, clean,
            "cut at byte {} of {} (jobs {}→{})",
            cut, journal.len(), jobs_first, jobs_resume
        );
    }
}

// ---------------------------------------------------------------------------
// Targeted corruption recovery: each failure mode must recover without a
// panic, report what was discarded, and still reach the identical report.
// ---------------------------------------------------------------------------

fn full_campaign() -> (Campaign, VendorCompiler) {
    (
        Campaign::new(suite_for(&[true, true, true, true])),
        compiler_for(true),
    )
}

#[test]
fn truncated_last_line_is_discarded_and_resume_recovers() {
    let (campaign, compiler) = full_campaign();
    let (journal, clean) = journaled_run(&campaign, &compiler, 1);
    // Chop the final newline plus a few bytes: a torn tail from a crash
    // mid-write.
    let torn = &journal[..journal.len() - 3];
    let replay = Replay::from_text(torn);
    assert!(replay.torn_tail_discarded);
    assert!(
        replay.summary().contains("torn tail"),
        "discard must be reported: {}",
        replay.summary()
    );
    assert_eq!(resumed_report(&campaign, &compiler, torn, 1), clean);
}

#[test]
fn checksum_bit_flip_discards_the_tail_and_resume_recovers() {
    let (campaign, compiler) = full_campaign();
    let (journal, clean) = journaled_run(&campaign, &compiler, 1);
    let lines: Vec<&str> = journal.lines().collect();
    assert!(lines.len() > 4);
    // Flip one checksum hex digit in a mid-journal line.
    let victim = lines.len() / 2;
    let mut corrupted = String::new();
    for (i, line) in lines.iter().enumerate() {
        if i == victim {
            let mut bytes = line.to_string().into_bytes();
            // Line format: `J1 <16 hex> payload…` — byte 3 is checksum hex.
            bytes[3] = if bytes[3] == b'0' { b'1' } else { b'0' };
            corrupted.push_str(&String::from_utf8(bytes).unwrap());
        } else {
            corrupted.push_str(line);
        }
        corrupted.push('\n');
    }
    let replay = Replay::from_text(&corrupted);
    assert_eq!(
        replay.corrupt_discarded,
        lines.len() - victim,
        "the flipped line and everything after it is untrusted"
    );
    assert!(
        replay.summary().contains("corrupt line"),
        "discard must be reported: {}",
        replay.summary()
    );
    assert_eq!(resumed_report(&campaign, &compiler, &corrupted, 1), clean);
}

#[test]
fn duplicate_completion_records_keep_first_and_resume_recovers() {
    let (campaign, compiler) = full_campaign();
    let (journal, clean) = journaled_run(&campaign, &compiler, 1);
    // Duplicate every case-completion line (valid frame, valid checksum).
    let mut duplicated = String::new();
    let mut dupes = 0;
    for line in journal.lines() {
        duplicated.push_str(line);
        duplicated.push('\n');
        // A completion line's frame is `J1 <checksum> done\t…`.
        if line.split('\t').next().unwrap_or("").ends_with(" done") {
            duplicated.push_str(line);
            duplicated.push('\n');
            dupes += 1;
        }
    }
    assert!(dupes > 0, "journal has completion records");
    let replay = Replay::from_text(&duplicated);
    assert_eq!(replay.duplicates_discarded, dupes, "first occurrence wins");
    assert!(
        replay.summary().contains("duplicate record"),
        "discard must be reported: {}",
        replay.summary()
    );
    assert_eq!(resumed_report(&campaign, &compiler, &duplicated, 1), clean);
}

#[test]
fn open_resume_compacts_a_poisoned_tail_before_appending() {
    let (campaign, compiler) = full_campaign();
    let (journal, clean) = journaled_run(&campaign, &compiler, 1);
    let dir = std::env::temp_dir().join(format!("accvv-durability-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("poisoned.j1");
    // Persist a journal whose tail is torn mid-record.
    std::fs::write(&path, &journal[..journal.len() - 3]).unwrap();
    let (replay, file_journal) = Replay::open_resume(&path).unwrap();
    assert!(replay.torn_tail_discarded);
    // The torn bytes are gone from disk; the file ends at the trusted
    // prefix, so appended records are never behind a poisoned line.
    let on_disk = std::fs::read_to_string(&path).unwrap();
    assert_eq!(on_disk.len(), replay.valid_bytes);
    assert!(on_disk.ends_with('\n'));
    // Finish the run against the compacted journal and replay the whole
    // thing: nothing may be discarded this time.
    let exec = Executor::new(
        ExecutorPolicy::new()
            .with_journal(Arc::new(file_journal))
            .with_resume(Arc::new(replay)),
    );
    let (run, stats) = exec.run_suite_stats(&campaign, &compiler);
    assert!(stats.cached > 0, "the journal prefix was worth something");
    assert_eq!(render(&run, ReportFormat::Text), clean);
    let final_replay = Replay::load(&path).unwrap();
    assert!(!final_replay.torn_tail_discarded);
    assert_eq!(final_replay.corrupt_discarded, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
