//! Hostile-filesystem torture: the acceptance gate for the durability
//! layer (ISSUE 7 tentpole).
//!
//! The harness-level crash matrix (`openacc_vv::harness::run_torture`)
//! replays the reference durability workload — store lifecycle, journaled
//! campaign, mid-campaign compaction, atomic sinks — crashing after EVERY
//! recorded filesystem operation and asserting the recovery invariants.
//! This file runs the FULL matrix (stride 1) plus targeted fault shapes
//! the matrix doesn't force: persistent ENOSPC, fsync poisoning, a crash
//! after every operation of a journal's appends, and a crash wedged
//! precisely into each window of the compaction swap.

use openacc_vv::harness::store::CompactionStats;
use openacc_vv::harness::{run_torture, QueryFilter, ResultStore, TortureConfig};
use openacc_vv::prelude::*;
use openacc_vv::validation::vfs::read_to_string;
use openacc_vv::validation::CaseResult;
use openacc_vv::validation::{FaultFs, FaultKind, Injection, OpKind, Vfs};
use std::path::Path;
use std::sync::Arc;

fn arc(fs: &FaultFs) -> Arc<dyn Vfs> {
    Arc::new(fs.clone())
}

fn case(name: &str, status: TestStatus) -> CaseResult {
    CaseResult {
        name: name.to_string(),
        feature: FeatureId::new("loop".to_string()),
        language: Language::C,
        status,
        certainty: None,
        functional_source: "int main(void) { return 0; }\n".to_string(),
        attempts: 1,
    }
}

/// A store with two submissions, the first rewritten enough times that
/// compaction has dead frames to reclaim.
fn seeded_store(vfs: Arc<dyn Vfs>) -> ResultStore {
    let store = ResultStore::open_via(vfs, "results.j1").expect("open store");
    let a = store.begin("alice", "PGI 13.4", "text").expect("begin a");
    for state in ["running", "compiling", "running", "done"] {
        store.set_state(a, state, "").expect("state");
    }
    store
        .record_cases(
            a,
            &[
                case("t1", TestStatus::Pass),
                case("t2", TestStatus::WrongResult),
            ],
        )
        .expect("cases");
    store.record_report(a, "REPORT A\n").expect("report");
    let b = store.begin("bob", "CAPS 3.3.0", "text").expect("begin b");
    store.set_state(b, "done", "").expect("state");
    store
}

#[test]
fn full_crash_matrix_holds_every_invariant() {
    // The tentpole acceptance criterion: crash after EVERY filesystem
    // operation of the reference workload; zero invariant violations.
    let outcome = run_torture(&TortureConfig {
        seed: 0xACC,
        stride: 1,
        verbose: false,
    })
    .expect("torture harness runs");
    assert_eq!(outcome.crash_points, outcome.total_ops);
    assert_eq!(
        outcome.violations,
        Vec::<String>::new(),
        "recovery invariants must hold at all {} crash points",
        outcome.total_ops
    );
}

#[test]
fn crash_matrix_holds_across_seeds() {
    // Different seeds pick different surviving prefixes of unsynced data
    // and pending renames — different torn states, same invariants.
    for seed in [1, 7, 0xDEAD] {
        let outcome = run_torture(&TortureConfig {
            seed,
            stride: 3,
            verbose: false,
        })
        .expect("torture harness runs");
        assert_eq!(
            outcome.violations,
            Vec::<String>::new(),
            "seed {seed} found violations"
        );
    }
}

#[test]
fn compaction_is_equivalent_and_reclaims_space() {
    let fs = FaultFs::new(9);
    let store = seeded_store(arc(&fs));
    let before_rows = store.query(&QueryFilter::default());
    let before_list = format!("{:?}", store.list());

    let stats: CompactionStats = store.compact().expect("compact");
    assert!(
        stats.new_bytes < stats.old_bytes,
        "compaction must reclaim space: {} -> {} bytes",
        stats.old_bytes,
        stats.new_bytes
    );
    assert_eq!(store.query(&QueryFilter::default()), before_rows);
    assert_eq!(format!("{:?}", store.list()), before_list);

    // Byte-level check: a reopen of the compacted store sees the identical
    // index — the swapped generation is self-sufficient.
    let reopened = ResultStore::open_via(arc(&fs), "results.j1").expect("reopen");
    assert_eq!(reopened.query(&QueryFilter::default()), before_rows);
    assert_eq!(format!("{:?}", reopened.list()), before_list);
    assert_eq!(reopened.generation(), 1);
}

#[test]
fn crash_in_every_compaction_window_recovers() {
    // Build the store once on a clean run to learn how many filesystem
    // ops the compaction itself performs, then crash inside each of them.
    let probe_fs = FaultFs::new(21);
    let probe_store = seeded_store(arc(&probe_fs));
    let setup_ops = probe_fs.op_count();
    let expected = probe_store.query(&QueryFilter::default());
    probe_store.compact().expect("clean compaction");
    let compact_ops = probe_fs.op_count() - setup_ops;
    assert!(compact_ops > 5, "compaction should span several ops");

    for k in 1..=compact_ops {
        let fs = FaultFs::new(21).with_crash_after(setup_ops + k);
        let store = seeded_store(arc(&fs));
        let _ = store.compact(); // errors expected at the crash point
        drop(store);
        // The last window (crash budget == total ops) never actually
        // fires; the settled image is the honest equivalent.
        let image = fs.crash_image().unwrap_or_else(|| fs.settled_image());

        // Reboot: the store must come back with the exact same queryable
        // state — either generation may be current, neither may be torn —
        // and stale generations must be garbage-collected.
        let boot = FaultFs::from_image(&image, 21);
        let vfs = arc(&boot);
        let store = ResultStore::open_via(Arc::clone(&vfs), "results.j1")
            .unwrap_or_else(|e| panic!("crash@+{k}: store failed to reopen: {e}"));
        assert_eq!(
            store.query(&QueryFilter::default()),
            expected,
            "crash@+{k}: query results changed across interrupted compaction"
        );
        let current = store.current_data_path();
        for g in 0..4u64 {
            let p = if g == 0 {
                "results.j1".to_string()
            } else {
                format!("results.j1.g{g}")
            };
            if Path::new(&p) != current && vfs.exists(Path::new(&p)) {
                panic!("crash@+{k}: stale generation {p} survived reopen");
            }
        }
    }
}

#[test]
fn enospc_mid_record_is_reported_and_recoverable() {
    // A full disk during a verdict append must surface as an error to the
    // caller (never a silent partial ack), and a later reopen must serve
    // the trusted prefix.
    let fs = FaultFs::new(3);
    let store = ResultStore::open_via(arc(&fs), "results.j1").expect("open");
    let id = store.begin("alice", "PGI 13.4", "text").expect("begin");
    // Arm the fault only now: FaultFs clones share state, so the disk
    // "fills up" between the acked begin and the verdict append.
    let fs =
        fs.with_injection(Injection::on(OpKind::Write, "results.j1", FaultKind::Enospc).times(1));
    let err = store
        .record_cases(id, &[case("t1", TestStatus::Pass)])
        .expect_err("ENOSPC must be reported");
    assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);

    let reopened = ResultStore::open_via(arc(&fs), "results.j1").expect("reopen after ENOSPC");
    let sub = reopened.submission(id).expect("acked begin survives");
    assert!(
        sub.cases.len() <= 1,
        "un-acked verdict may be lost but never duplicated or torn"
    );
}

#[test]
fn failed_fsync_poisons_the_ack_path() {
    // fsyncgate semantics: after a failed fsync the buffered bytes are
    // GONE. The store must keep failing the ack path rather than retry
    // and pretend the data landed.
    let fs = FaultFs::new(5)
        .with_injection(Injection::on(OpKind::Sync, "results.j1", FaultKind::Eio).times(1));
    let store = ResultStore::open_via(arc(&fs), "results.j1").expect("open");
    let err = store
        .begin("alice", "PGI 13.4", "text")
        .expect_err("failed fsync must fail begin");
    assert_eq!(err.kind(), std::io::ErrorKind::Other);

    // Nothing from the failed ack may surface after reboot.
    let image = fs.settled_image();
    let boot = FaultFs::from_image(&image, 5);
    let reopened = ResultStore::open_via(arc(&boot), "results.j1").expect("reopen");
    assert!(
        reopened.list().is_empty(),
        "un-acked submission must not survive a poisoned fsync"
    );
}

#[test]
fn journal_crash_points_preserve_acked_verdicts() {
    use openacc_vv::validation::journal::{JournalRecord, JournalSink, Replay};
    use openacc_vv::validation::FileJournal;

    // Reference: journal six verdicts, each fsynced before it is acked.
    let names: Vec<String> = (0..6).map(|i| format!("case-{i}")).collect();
    let write_all = |vfs: Arc<dyn Vfs>| -> Vec<String> {
        // Creation itself is inside the crash matrix: a budget of 1–2 ops
        // dies right here, acking nothing.
        let Ok(journal) = FileJournal::create_via(Arc::clone(&vfs), "sweep.journal") else {
            return Vec::new();
        };
        let mut acked = Vec::new();
        for name in &names {
            journal.append(&JournalRecord::CaseDone {
                result: case(name, TestStatus::Pass),
                node: Some(3),
                duration_ms: 7,
            });
            if journal.take_error().is_none() {
                acked.push(name.clone());
            }
        }
        acked
    };
    let ref_fs = FaultFs::new(13);
    write_all(arc(&ref_fs));
    let total = ref_fs.op_count();

    for k in 1..=total {
        let fs = FaultFs::new(13).with_crash_after(k);
        let acked = write_all(arc(&fs));
        let image = fs.crash_image().unwrap_or_else(|| fs.settled_image());
        let boot = FaultFs::from_image(&image, 13);
        let vfs = arc(&boot);
        let (replay, journal) = match Replay::open_resume_via(Arc::clone(&vfs), "sweep.journal") {
            Ok(pair) => pair,
            // The journal name itself may not have survived an early crash
            // — legal only if nothing was ever acked.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound && acked.is_empty() => continue,
            Err(e) => panic!("crash@{k}: resume failed: {e}"),
        };
        for name in &acked {
            assert!(
                replay.completed.contains_key(&(name.clone(), Language::C)),
                "crash@{k}: acked verdict {name} lost"
            );
        }
        // Resume cut any torn tail, so a verdict appended now replays.
        journal.append(&JournalRecord::CaseDone {
            result: case("resumed", TestStatus::Pass),
            node: None,
            duration_ms: 1,
        });
        assert_eq!(journal.take_error(), None, "crash@{k}");
        let replay = Replay::load_via(vfs.as_ref(), "sweep.journal").expect("reload");
        assert_eq!(
            (replay.torn_tail_discarded, replay.corrupt_discarded),
            (false, 0),
            "crash@{k}: the resumed journal has a poisoned tail"
        );
        assert!(replay
            .completed
            .contains_key(&("resumed".to_string(), Language::C)));
    }
}

#[test]
fn torn_frames_never_reach_a_query() {
    // Hand-corrupt a store file at the byte level: a torn final frame and
    // trailing garbage must be invisible to queries and compacted away on
    // open, leaving only checksum-valid frames on disk.
    let fs = FaultFs::new(17);
    {
        let store = seeded_store(arc(&fs));
        drop(store);
    }
    let mut bytes = arc(&fs).read(Path::new("results.j1")).expect("read store");
    let intact = ResultStore::open_via(arc(&fs), "results.j1").expect("open intact");
    let intact_rows = intact.query(&QueryFilter::default());
    drop(intact);

    // Tear the last frame in half and append garbage.
    let keep = bytes.len() - 10;
    bytes.truncate(keep);
    bytes.extend_from_slice(b"J1 nothexa garbage\n\xff\xfe");
    let torn = FaultFs::new(17);
    {
        let mut f = torn
            .create(Path::new("results.j1"))
            .expect("seed torn file");
        f.write_all(&bytes).expect("write");
        f.sync_all().expect("sync");
    }
    let store = ResultStore::open_via(arc(&torn), "results.j1").expect("open torn");
    let rows = store.query(&QueryFilter::default());
    assert!(rows.len() <= intact_rows.len());
    for row in &rows {
        assert!(
            intact_rows.contains(row),
            "query surfaced a frame the intact store never had"
        );
    }
    // After open, the on-disk file holds only whole frames.
    let text = read_to_string(arc(&torn).as_ref(), Path::new("results.j1")).expect("readback");
    for line in text.lines().filter(|l| !l.is_empty()) {
        assert!(
            line.starts_with("J1 "),
            "non-frame line survived open: {line:?}"
        );
    }
}
