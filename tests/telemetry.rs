//! Telemetry guarantees: deterministic traces, zero report/journal
//! perturbation, resume attribution, and well-formed Chrome exports.
//!
//! The two load-bearing claims (ISSUE: the tentpole invariants):
//!
//! 1. The merged JSONL trace is **byte-identical across `--jobs 1` and
//!    `--jobs N`** for the same suite and compiler — events merge on a
//!    deterministic `(run, part, job, seq)` key with no wall-clock
//!    component, and schedule-dependent (timing-class) events neither
//!    appear in the JSONL nor shift the sequence numbers of the logical
//!    events around them.
//! 2. Turning telemetry on changes **nothing** the suite already produced:
//!    rendered reports and journal bytes are identical with the recorder
//!    enabled or disabled.

use openacc_vv::compiler::{CompileCache, RunKnobs, VendorCompiler, VendorId};
use openacc_vv::obs;
use openacc_vv::prelude::*;
use openacc_vv::validation::report::render;
use openacc_vv::validation::{MemoryJournal, Replay};
use std::sync::Arc;

/// Fast exact-match features (4 cases × 2 languages = 8 jobs).
const FEATURES: &[&str] = &["loop", "data.copy", "parallel.async", "update.host"];

fn small_suite() -> Vec<TestCase> {
    openacc_vv::testsuite::full_suite()
        .into_iter()
        .filter(|c| FEATURES.contains(&c.feature.as_str()))
        .collect()
}

/// Run the suite with a fresh enabled recorder; return the merged JSONL.
/// With `cache`, one compile cache rides on the compiler, so every worker
/// races on it.
fn traced_jsonl(compiler: &VendorCompiler, jobs: usize, cache: bool) -> String {
    let recorder = obs::Recorder::enabled();
    let campaign = Campaign::new(small_suite());
    let compiler = match cache {
        true => compiler.clone().with_cache(CompileCache::shared()),
        false => compiler.clone(),
    };
    let exec = Executor::new(
        ExecutorPolicy::new()
            .with_jobs(jobs)
            .with_recorder(recorder.clone()),
    );
    let (_, stats) = exec.run_suite_stats(&campaign, &compiler);
    assert!(!stats.halted);
    obs::trace::render_jsonl(&recorder.snapshot())
}

#[test]
fn merged_jsonl_is_byte_identical_across_jobs() {
    for buggy in [false, true] {
        let compiler = if buggy {
            VendorCompiler::new(VendorId::Caps, "3.0.8".parse().unwrap())
        } else {
            VendorCompiler::reference()
        };
        // The shared compile cache makes hit/miss attribution (and the
        // miss-only lowering span) land on whichever worker got there
        // first — exactly the schedule dependence the JSONL must not see.
        let serial = traced_jsonl(&compiler, 1, true);
        let parallel = traced_jsonl(&compiler, 4, true);
        assert!(!serial.is_empty());
        assert_eq!(serial, parallel, "trace diverged across --jobs (buggy={buggy})");
    }
}

/// A source-major sweep traces exactly like one `run_suite` per release:
/// its run ordinals follow sweep order and its job ordinals suite order,
/// whichever worker ran a case.
#[test]
fn sweep_trace_is_byte_identical_to_one_run_per_release() {
    let releases: Vec<VendorCompiler> = VendorId::Caps
        .versions()
        .into_iter()
        .map(|v| VendorCompiler::new(VendorId::Caps, v))
        .collect();
    let traced = |threads: usize, drive: &dyn Fn(&Executor, &Campaign)| {
        let recorder = obs::Recorder::enabled();
        let campaign = Campaign::new(small_suite()).with_cache(CompileCache::shared());
        let policy = ExecutorPolicy::new()
            .with_jobs(threads)
            .with_recorder(recorder.clone());
        drive(&Executor::new(policy), &campaign);
        obs::trace::render_jsonl(&recorder.snapshot())
    };
    let one_by_one = traced(1, &|exec, c| {
        for release in &releases {
            exec.run_suite(c, release);
        }
    });
    assert!(!one_by_one.is_empty());
    for threads in [1, 4] {
        let swept = traced(threads, &|exec, c| {
            exec.run_sweep(c, &releases);
        });
        assert_eq!(
            swept, one_by_one,
            "sweep trace diverged at {threads} thread(s)"
        );
    }
}

/// Journal frames with the wall-clock duration fields zeroed: durations
/// differ between ANY two runs, telemetry or not, so the byte-identity
/// claim is about every other byte of every frame. The per-frame checksum
/// covers the duration bytes, so it is dropped along with them.
fn normalized_journal(text: &str) -> String {
    text.lines()
        .map(|line| {
            // Frame layout: `J1 <hash> <tab-separated record>`.
            let record = line.splitn(3, ' ').nth(2).unwrap_or(line);
            let mut f: Vec<&str> = record.split('\t').collect();
            match f.first() {
                Some(&"attempt") if f.len() >= 6 => f[5] = "0",
                Some(&"done") if f.len() >= 8 => f[7] = "0",
                _ => {}
            }
            f.join("\t")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn reports_and_journal_bytes_are_identical_with_telemetry_on_or_off() {
    let compiler = VendorCompiler::new(VendorId::Caps, "3.0.8".parse().unwrap());
    let campaign = Campaign::new(small_suite());
    let run_with = |recorder: obs::Recorder| {
        let journal = Arc::new(MemoryJournal::default());
        // Serial: with workers, journal APPEND order is schedule-dependent
        // with or without telemetry — the frames-identical claim is about
        // frame content, checked here in the one deterministic order.
        let exec = Executor::new(
            ExecutorPolicy::new()
                .with_journal(journal.clone())
                .with_recorder(recorder),
        );
        let (run, _) = exec.run_suite_stats(&campaign, &compiler);
        (render(&run, ReportFormat::Text), journal.text())
    };
    let (report_off, journal_off) = run_with(obs::Recorder::disabled());
    let enabled = obs::Recorder::enabled();
    let (report_on, journal_on) = run_with(enabled.clone());
    assert!(!enabled.snapshot().is_empty(), "recorder collected nothing");
    assert_eq!(report_off, report_on, "telemetry perturbed the report");
    assert_eq!(
        normalized_journal(&journal_off),
        normalized_journal(&journal_on),
        "telemetry perturbed the journal"
    );
}

#[test]
fn resumed_cases_are_marked_cached_resume_and_never_re_execute() {
    let compiler = VendorCompiler::reference();
    let campaign = Campaign::new(small_suite());
    // First run: journal everything, halt partway.
    let journal = Arc::new(MemoryJournal::default());
    let halted = Executor::new(
        ExecutorPolicy::new()
            .with_journal(journal.clone())
            .with_halt_after(5),
    );
    let (_, stats) = halted.run_suite_stats(&campaign, &compiler);
    assert!(stats.halted);
    assert_eq!(stats.executed, 5);
    // Resume with tracing on.
    let recorder = obs::Recorder::enabled();
    let resumed = Executor::new(
        ExecutorPolicy::new()
            .with_resume(Arc::new(Replay::from_text(&journal.text())))
            .with_recorder(recorder.clone()),
    );
    let (_, stats) = resumed.run_suite_stats(&campaign, &compiler);
    assert!(!stats.halted);
    assert_eq!(stats.cached, 5);
    let events = recorder.snapshot();
    // Every replayed job is a single `cached_resume` instant carrying the
    // recorded verdict...
    let replayed: Vec<u32> = events
        .iter()
        .filter(|e| e.attr_str("source") == Some("cached_resume"))
        .map(|e| {
            assert_eq!(e.kind, "case");
            assert_eq!(e.ph, obs::Phase::Instant);
            assert!(e.attr_str("status").is_some());
            e.job
        })
        .collect();
    assert_eq!(replayed.len(), 5);
    // ...and its job scope contains no compile/exec/attempt activity: a
    // replayed case is never re-run.
    for e in &events {
        if e.part == obs::PART_JOB && replayed.contains(&e.job) {
            assert_eq!(
                e.kind, "case",
                "replayed job {} re-emitted a `{}` event",
                e.job, e.kind
            );
        }
    }
    // Executed jobs, by contrast, do carry execute spans.
    assert!(events
        .iter()
        .any(|e| e.kind == "exec" && !replayed.contains(&e.job)));
}

#[test]
fn chrome_export_validates_and_agrees_with_parsed_jsonl() {
    let recorder = obs::Recorder::enabled();
    let campaign = Campaign::new(small_suite()).with_cache(CompileCache::shared());
    let exec = Executor::new(ExecutorPolicy::new().with_jobs(4).with_recorder(recorder.clone()));
    exec.run_suite_stats(&campaign, &VendorCompiler::reference());
    let events = recorder.snapshot();
    let jsonl = obs::trace::render_jsonl(&events);
    // The live snapshot and the parsed JSONL must export the same Chrome
    // document (the chrome sink excludes timing-class events for exactly
    // this equivalence), and the export must pass span-nesting validation.
    let live = obs::chrome::render(&events);
    let parsed = obs::trace::parse_jsonl(&jsonl).expect("own trace parses");
    let reparsed = obs::chrome::render(&parsed);
    assert_eq!(live, reparsed);
    let spans = obs::chrome::validate(&live).expect("chrome trace validates");
    assert!(spans > 0);
    // JSONL re-render is byte-stable through a parse round trip.
    assert_eq!(obs::trace::render_jsonl(&parsed), jsonl);
}

#[test]
fn metrics_expose_cache_counters_as_single_source_of_truth() {
    let recorder = obs::Recorder::enabled();
    let cache = CompileCache::shared();
    let campaign = Campaign::new(small_suite()).with_cache(Arc::clone(&cache));
    let exec = Executor::new(ExecutorPolicy::new().with_recorder(recorder.clone()));
    exec.run_suite_stats(&campaign, &VendorCompiler::reference());
    let stats = cache.stats();
    assert!(stats.lookups() > 0);
    let counters = obs::metrics::CacheCounters::from(stats);
    let text = obs::metrics::render_prometheus(&recorder.snapshot(), Some(&counters));
    // The exposition carries the cache's own atomics, verbatim.
    assert!(text.contains(&format!(
        "accvv_compile_cache_lookups_total{{level=\"frontend\",outcome=\"miss\"}} {}",
        stats.frontend_misses
    )));
    assert!(text.contains(&format!(
        "accvv_compile_cache_lookups_total{{level=\"frontend\",outcome=\"hit\"}} {}",
        stats.frontend_hits
    )));
    assert!(text.contains(&format!(
        "accvv_compile_cache_hit_rate {:.4}",
        stats.hit_rate()
    )));
    // The front end is the one compile level.
    assert!(!text.contains("level=\"exec\""));
    // And the case outcomes aggregated from span attrs are present.
    assert!(text.contains("accvv_case_status_total{status=\"PASS\"}"));
}

/// The `vm_instructions` counter one VM run of `feature`'s C functional
/// source records under the reference release with default knobs.
fn vm_instructions(feature: &str) -> i64 {
    let case = openacc_vv::testsuite::full_suite()
        .into_iter()
        .find(|c| c.feature.as_str() == feature)
        .expect("corpus test");
    let exe = VendorCompiler::reference()
        .compile(&case.source_for(Language::C), Language::C)
        .expect("reference compiles the corpus");
    let recorder = obs::Recorder::enabled();
    {
        let _scope = obs::scope(&recorder, 0, obs::PART_JOB, 0, 0);
        let result = exe.run_with_knobs(&case.env, RunKnobs::default());
        assert_eq!(result.outcome, RunOutcome::Completed(1));
    }
    let counters: Vec<i64> = recorder
        .snapshot()
        .iter()
        .filter(|e| e.kind == "ctr" && e.name == "vm_instructions")
        .filter_map(|e| e.attr_int("v"))
        .collect();
    assert_eq!(counters.len(), 1, "one VM run, one counter");
    counters[0]
}

/// Instructions retired per run are part of the trace: bytecode changes
/// that alter them show up in every `--trace-out` file, so they are pinned
/// here on a host-loop case and a device-loop case.
#[test]
fn vm_instruction_counts_are_pinned() {
    assert_eq!(vm_instructions("loop.gang"), 488);
    assert_eq!(vm_instructions("data.copy"), 849);
}
