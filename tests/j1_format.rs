//! The J1 line format, pinned byte for byte.
//!
//! `tests/golden/` holds a campaign journal and a result store written by
//! a fixed sequence of records, plus the state each replays to. These
//! tests write the same sequences again and require the same bytes, and
//! they open the committed files and require the same `Replay` and the
//! same store index. A change to the frame, an escape, a field order or
//! the tail rule shows up here before it can strand a journal or a store
//! already on disk.

use openacc_vv::harness::{QueryFilter, ResultStore};
use openacc_vv::obs::hist::LatencyHist;
use openacc_vv::prelude::*;
use openacc_vv::validation::journal::{JournalRecord, JournalSink, Replay};
use openacc_vv::validation::{CaseResult, Certainty, FaultFs, FileJournal, Vfs};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");

fn golden(name: &str) -> Vec<u8> {
    let path = Path::new(GOLDEN).join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn golden_text(name: &str) -> String {
    String::from_utf8(golden(name)).expect("golden text is UTF-8")
}

fn result(
    name: &str,
    feature: &str,
    language: Language,
    status: TestStatus,
    certainty: Option<Certainty>,
    attempts: u32,
) -> CaseResult {
    CaseResult {
        name: name.to_string(),
        feature: FeatureId::new(feature.to_string()),
        language,
        status,
        certainty,
        functional_source:
            "int main(void) {\n\tint a[4] = {0};\n\treturn a[0] == 0 ? 0 : 1; // \\ ok\n}\n"
                .to_string(),
        attempts,
    }
}

/// Every journal record kind, with escaped and non-ASCII text, an
/// in-flight start, a retried case and a duplicate completion.
fn journal_records() -> Vec<JournalRecord> {
    let start = |name: &str, language, attempt| JournalRecord::AttemptStart {
        name: name.to_string(),
        language,
        attempt,
    };
    vec![
        JournalRecord::Meta {
            scope: "PGI 13.4\t(golden)".to_string(),
            total_jobs: 5,
            languages: "C+Fortran".to_string(),
        },
        start("loop", Language::C, 0),
        JournalRecord::Attempt {
            name: "loop".to_string(),
            language: Language::C,
            attempt: 0,
            status: TestStatus::Pass,
            duration_ms: 3,
        },
        JournalRecord::CaseDone {
            result: result(
                "loop",
                "loop",
                Language::C,
                TestStatus::Pass,
                Some(Certainty::new(3, 3)),
                1,
            ),
            node: None,
            duration_ms: 3,
        },
        start("data.copy", Language::Fortran, 0),
        JournalRecord::Attempt {
            name: "data.copy".to_string(),
            language: Language::Fortran,
            attempt: 0,
            status: TestStatus::Infra("panic: worker\tdied\nbadly \\ twice".to_string()),
            duration_ms: 41,
        },
        start("data.copy", Language::Fortran, 1),
        JournalRecord::Attempt {
            name: "data.copy".to_string(),
            language: Language::Fortran,
            attempt: 1,
            status: TestStatus::WrongResult,
            duration_ms: 17,
        },
        JournalRecord::CaseDone {
            result: result(
                "data.copy",
                "data.copy",
                Language::Fortran,
                TestStatus::WrongResult,
                Some(Certainty::new(4, 1)),
                2,
            ),
            node: Some(2),
            duration_ms: 58,
        },
        start("update.host", Language::C, 0),
        JournalRecord::CaseDone {
            result: result(
                "update.host",
                "update.host",
                Language::C,
                TestStatus::Skipped(Some("gerät überhitzt — 設備故障 💥".to_string())),
                None,
                0,
            ),
            node: Some(0),
            duration_ms: 0,
        },
        JournalRecord::NodeLost {
            node: 1,
            completed: 2,
            reassigned: 7,
        },
        JournalRecord::NodeQuarantined { node: 1, deaths: 2 },
        start("kernels.if", Language::C, 0),
        JournalRecord::CaseDone {
            result: result(
                "kernels.if",
                "kernels.if",
                Language::C,
                TestStatus::CompileError("unexpected `:` at line 3\r\n".to_string()),
                None,
                1,
            ),
            node: None,
            duration_ms: 9,
        },
        // A double-resumed campaign: the first completion wins.
        JournalRecord::CaseDone {
            result: result(
                "loop",
                "loop",
                Language::C,
                TestStatus::Crash("segv".to_string()),
                None,
                1,
            ),
            node: None,
            duration_ms: 4,
        },
        // Interrupted in flight.
        start("parallel.async", Language::C, 0),
    ]
}

/// The journal bytes `FileJournal` writes for [`journal_records`].
fn write_journal() -> Vec<u8> {
    let fs = FaultFs::new(1);
    let journal = FileJournal::create_via(Arc::new(fs.clone()), "golden.j1").expect("create");
    for record in journal_records() {
        journal.append(&record);
    }
    assert_eq!(journal.take_error(), None);
    fs.live_contents("golden.j1").expect("journal exists")
}

/// A canonical rendering of a replay (its completed map is unordered).
fn replay_dump(replay: &Replay) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "meta: {:?}", replay.meta);
    let mut completed: Vec<_> = replay.completed.iter().collect();
    completed.sort_by(|a, b| a.0.cmp(b.0));
    for (key, case) in completed {
        let _ = writeln!(out, "completed {key:?}: {case:?}");
    }
    let _ = writeln!(out, "in flight: {:?}", replay.in_flight);
    let _ = writeln!(out, "node deaths: {:?}", replay.node_deaths);
    let _ = writeln!(out, "quarantined: {:?}", replay.quarantined);
    let _ = writeln!(
        out,
        "records {}, duplicates {}, corrupt {}, torn {}, valid bytes {}",
        replay.records,
        replay.duplicates_discarded,
        replay.corrupt_discarded,
        replay.torn_tail_discarded,
        replay.valid_bytes
    );
    let _ = writeln!(out, "summary: {}", replay.summary());
    out
}

/// The store's index and its default query, as text.
fn index_dump(store: &ResultStore) -> String {
    format!(
        "{:#?}\n{:#?}\n",
        store.list(),
        store.query(&QueryFilter::default())
    )
}

fn hist(samples: &[u64]) -> LatencyHist {
    let mut h = LatencyHist::new();
    for &us in samples {
        h.record(us);
    }
    h
}

/// The store files `ResultStore` writes for a fixed sequence on a fixed
/// clock: `(generation 0 before compaction, generation 1, pointer)`. The
/// store appends one more submission after compacting, so generation 1
/// holds both the rewritten records and fresh appends.
fn write_store() -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    let fs = FaultFs::new(2);
    let tick = AtomicU64::new(1_700_000_000);
    let store = ResultStore::open_via(Arc::new(fs.clone()), "results.j1")
        .expect("open")
        .with_clock(Arc::new(move || tick.fetch_add(60, Ordering::SeqCst)));

    let a = store.begin("alice", "PGI 13.4", "text").expect("begin a");
    store.set_state(a, "running", "").expect("state");
    store
        .record_cases(
            a,
            &[
                result(
                    "loop",
                    "loop",
                    Language::C,
                    TestStatus::Pass,
                    Some(Certainty::new(2, 0)),
                    1,
                ),
                result(
                    "data.copy",
                    "data.copy",
                    Language::Fortran,
                    TestStatus::Crash("bad\tnews\nhere \\ there".to_string()),
                    None,
                    3,
                ),
                result(
                    "update.host",
                    "update.host",
                    Language::C,
                    TestStatus::Skipped(Some("breaker open: Кластер недоступен".to_string())),
                    None,
                    0,
                ),
            ],
        )
        .expect("cases");
    store
        .record_latency(a, &hist(&[150, 9_000, 42]))
        .expect("latency");
    store.record_latency(a, &hist(&[7])).expect("latency");
    store
        .record_report(a, "REPORT PGI 13.4\n\tloop\tPASS\ncopy → CRASH \\ 💥\r\n")
        .expect("report");
    store.set_state(a, "done", "").expect("state");

    let b = store.begin("bob", "CAPS 3.3.0", "csv").expect("begin b");
    store.set_state(b, "running", "").expect("state");
    store
        .record_cases(
            b,
            &[result(
                "loop",
                "loop",
                Language::C,
                TestStatus::PassInconclusive,
                None,
                1,
            )],
        )
        .expect("cases");
    store
        .set_state(
            b,
            "cancelled",
            "deadline expired mid-run;\tpartial verdicts stored",
        )
        .expect("state");
    let gen0 = fs.live_contents("results.j1").expect("generation 0");

    store.compact().expect("compact");
    let c = store.begin("carol", "Cray 8.2.0", "html").expect("begin c");
    store
        .set_state(c, "interrupted", "server drained mid-run")
        .expect("state");
    let gen1 = fs.live_contents("results.j1.g1").expect("generation 1");
    let pointer = fs.live_contents("results.j1.gen").expect("pointer");
    (gen0, gen1, pointer)
}

/// A fault filesystem holding the named golden files, synced.
fn disk_with(files: &[(&str, &str)]) -> Arc<dyn Vfs> {
    let fs: Arc<dyn Vfs> = Arc::new(FaultFs::new(3));
    for (path, name) in files {
        let mut f = fs.create(Path::new(path)).expect("create");
        f.write_all(&golden(name)).expect("write");
        f.sync_all().expect("sync");
    }
    fs.fsync_dir(Path::new(".")).expect("fsync dir");
    fs
}

#[test]
fn journal_bytes_match_the_golden_file() {
    assert!(
        write_journal() == golden("journal.j1"),
        "FileJournal wrote different bytes than tests/golden/journal.j1"
    );
}

#[test]
fn store_bytes_match_the_golden_files() {
    let (gen0, gen1, pointer) = write_store();
    assert!(
        gen0 == golden("store.j1"),
        "generation 0 differs from tests/golden/store.j1"
    );
    assert!(
        gen1 == golden("store.j1.g1"),
        "generation 1 differs from tests/golden/store.j1.g1"
    );
    assert_eq!(pointer, golden("store.j1.gen"));
}

#[test]
fn golden_journal_replays_to_the_golden_state() {
    let vfs = disk_with(&[("golden.j1", "journal.j1")]);
    let loaded = Replay::load_via(vfs.as_ref(), "golden.j1").expect("load");
    assert_eq!(replay_dump(&loaded), golden_text("journal.replay.txt"));
    // Resuming a clean journal replays the same state and leaves the file
    // as it was.
    let (resumed, journal) =
        Replay::open_resume_via(Arc::clone(&vfs), "golden.j1").expect("resume");
    assert_eq!(replay_dump(&resumed), golden_text("journal.replay.txt"));
    assert_eq!(journal.take_error(), None);
    assert!(vfs.read(Path::new("golden.j1")).expect("read") == golden("journal.j1"));
}

#[test]
fn golden_store_reopens_to_the_golden_index() {
    // Generation 0 alone: the store as it stood before compaction.
    let before = disk_with(&[("results.j1", "store.j1")]);
    let store = ResultStore::open_via(Arc::clone(&before), "results.j1").expect("open gen 0");
    assert_eq!(index_dump(&store), golden_text("store.index.txt"));
    drop(store);
    assert!(before.read(Path::new("results.j1")).expect("read") == golden("store.j1"));

    // The pointer and generation 1: after compaction and one more
    // submission.
    let after = disk_with(&[
        ("results.j1.g1", "store.j1.g1"),
        ("results.j1.gen", "store.j1.gen"),
    ]);
    let store = ResultStore::open_via(Arc::clone(&after), "results.j1").expect("open gen 1");
    assert_eq!(store.generation(), 1);
    assert_eq!(index_dump(&store), golden_text("store.compacted.index.txt"));
    assert!(after.read(Path::new("results.j1.g1")).expect("read") == golden("store.j1.g1"));
}
