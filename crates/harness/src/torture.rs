//! Crash-torture harness: prove the durability layer, don't assume it.
//!
//! The journal, the result store, compaction, and every atomic sink write
//! all promise that a crash cannot lose acknowledged work or surface torn
//! data. This module turns each promise into a checked invariant:
//!
//! 1. **Reference run** — a fixed campaign workload (two served
//!    submissions with their specs, verdicts, reports and states, a
//!    journaled campaign, a
//!    mid-campaign store compaction, telemetry/tracker sink writes) runs
//!    against a clean [`FaultFs`], recording the total number of
//!    filesystem operations it performs and which operations were
//!    *acknowledged* (returned `Ok` to the caller).
//! 2. **Crash matrix** — the same workload is replayed once per crash
//!    point: crash after operation 1, after operation 2, … after
//!    operation N. Each replay produces a durable disk image (synced
//!    bytes + a seeded surviving prefix of unsynced data and pending
//!    renames — the hostile-but-realistic view).
//! 3. **Recovery check** — the image is "rebooted" and the invariants
//!    asserted: the store reopens cleanly with only well-formed frames
//!    (no torn frame ever surfaces to a query); every acknowledged
//!    submission (its spec byte for byte), verdict batch, report, state
//!    transition, and journaled case completion is still there; atomic sinks are all-or-nothing;
//!    and after resuming the interrupted campaign to completion, the
//!    final state — submissions, query rows, journal replay, sink bytes —
//!    is **identical** to the reference run's. Finally the recovered
//!    store is compacted and its query results must be byte-identical
//!    across the swap.
//!
//! Zero violations across every crash point is the acceptance bar; any
//! violation is reported with its crash point so `accvv torture --seed N`
//! reproduces it deterministically.

use acc_spec::{FeatureId, Language};
use acc_validation::journal::{self, FileJournal, JournalRecord, JournalSink, Replay};
use acc_validation::vfs::{self, atomic_write_via, FaultFs, Vfs};
use acc_validation::{CaseResult, TestStatus};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::Path;
use std::sync::Arc;

use crate::store::{Clock, QueryFilter, QueryRow, ResultStore};
use crate::tracking::FunctionalityTracker;

/// Torture run parameters.
#[derive(Debug, Clone)]
pub struct TortureConfig {
    /// Seed for the fault filesystem's surviving-prefix decisions.
    pub seed: u64,
    /// Test every `stride`-th crash point (1 = every operation).
    pub stride: u64,
    /// Print per-crash-point progress to stderr.
    pub verbose: bool,
}

impl Default for TortureConfig {
    fn default() -> Self {
        TortureConfig {
            seed: 0xACC,
            stride: 1,
            verbose: false,
        }
    }
}

/// What a torture run covered and what it found.
#[derive(Debug)]
pub struct TortureOutcome {
    /// Filesystem operations the reference workload performs.
    pub total_ops: u64,
    /// Crash points actually replayed (`total_ops / stride`-ish).
    pub crash_points: u64,
    /// Recovery-invariant violations, each tagged with its crash point.
    /// Empty means the durability layer held everywhere.
    pub violations: Vec<String>,
}

const STORE: &str = "torture/results.j1";
const JOURNAL: &str = "torture/campaign.journal";
const TRACE: &str = "torture/trace.json";
const METRICS: &str = "torture/metrics.prom";
const TRACKER: &str = "torture/tracker.tsv";
const EPOCH: u64 = 1_700_000_000;

fn fixed_clock() -> Clock {
    Arc::new(|| EPOCH)
}

struct SubSpec {
    tenant: &'static str,
    scope: &'static str,
    format: &'static str,
    /// The canonical JSON spec the server stores in the `sub` row.
    spec: &'static str,
}

const SUBS: [SubSpec; 2] = [
    SubSpec {
        tenant: "alice",
        scope: "PGI 13.4",
        format: "text",
        spec: r#"{"tenant":"alice","weight":1,"vendor":"pgi","version":"13.4","lang":"c","features":["data.copy","loop"],"format":"text","exec_mode":"vm","deadline_ms":60000}"#,
    },
    SubSpec {
        tenant: "bob",
        scope: "CAPS 3.3.0",
        format: "text",
        // Escapes and non-ASCII text must survive every crash point too.
        spec: r#"{"tenant":"bob","weight":3,"vendor":"caps","version":"3.3.0","features":["update.host","gerät\t設備"],"format":"text","exec_mode":"walk"}"#,
    },
];

fn case(name: String, feature: &str, status: TestStatus) -> CaseResult {
    CaseResult {
        name,
        feature: FeatureId::new(feature.to_string()),
        language: Language::C,
        status,
        certainty: None,
        functional_source: "int main(void) {\n\treturn 1;\n}\n".to_string(),
        attempts: 1,
    }
}

fn sub_cases(scope: &str) -> Vec<CaseResult> {
    vec![
        case(format!("{scope}/loop"), "loop", TestStatus::Pass),
        case(format!("{scope}/copy"), "data.copy", TestStatus::WrongResult),
        case(
            format!("{scope}/host"),
            "update.host",
            // Deliberately non-ASCII: the skip reason must survive every
            // crash point byte-for-byte.
            TestStatus::Skipped(Some("gerät überhitzt — 設備故障 💥".to_string())),
        ),
    ]
}

fn sub_report(scope: &str) -> String {
    format!("REPORT {scope}\npassed 1 of 2 counted\nskips: 1\n")
}

const JOURNAL_CASES: [&str; 3] = ["jl-alpha", "jl-beta", "jl-gamma"];

fn journal_case(name: &str) -> CaseResult {
    case(name.to_string(), "loop", TestStatus::Pass)
}

fn journal_meta() -> JournalRecord {
    JournalRecord::Meta {
        scope: "torture ref".to_string(),
        total_jobs: JOURNAL_CASES.len(),
        languages: "C".to_string(),
    }
}

fn trace_content() -> &'static str {
    "{\"traceEvents\":[{\"name\":\"torture\",\"ph\":\"X\",\"ts\":0,\"dur\":42}]}\n"
}

fn metrics_content() -> &'static str {
    "accvv_cases_total 6\naccvv_torture_runs_total 1\n"
}

fn tracker_v1() -> &'static str {
    "PGI 13.4\tE1\t50\n"
}

fn tracker_v2() -> &'static str {
    "PGI 13.4\tE1\t50\nPGI 13.4\tE2\t75\n"
}

/// Full versions each sink path may legitimately contain after a crash —
/// an atomic write leaves one of these or nothing, never a blend.
fn sink_versions() -> Vec<(&'static str, Vec<&'static str>)> {
    vec![
        (TRACE, vec![trace_content()]),
        (METRICS, vec![metrics_content()]),
        (TRACKER, vec![tracker_v1(), tracker_v2()]),
    ]
}

/// Everything the workload was *acknowledged* for before the crash. The
/// recovery invariants are phrased entirely in terms of this log: what was
/// acked must survive; what wasn't may or may not.
#[derive(Default)]
struct Acks {
    /// scope → acked submission id.
    subs: BTreeMap<&'static str, u64>,
    /// id → acked verdict count.
    cases: BTreeMap<u64, usize>,
    /// id → acked report text.
    reports: BTreeMap<u64, String>,
    /// id → last acked lifecycle state.
    states: BTreeMap<u64, &'static str>,
    /// Journaled case completions acked (fsynced) by the journal.
    journal_done: BTreeSet<&'static str>,
    /// sink path → last acked full contents.
    sinks: BTreeMap<&'static str, &'static str>,
    /// Violations observable during the run itself (compaction changed
    /// query results, for instance).
    inline: Vec<String>,
}

/// Append one record and surface the journal's retained error as a
/// result, so the workload knows whether the record was acknowledged.
fn jappend(journal: &FileJournal, record: &JournalRecord) -> io::Result<()> {
    journal.append(record);
    match journal.take_error() {
        None => Ok(()),
        Some(e) => Err(io::Error::other(e)),
    }
}

fn run_submission(store: &ResultStore, spec: &SubSpec, acks: &mut Acks) -> io::Result<()> {
    let id = store.begin_with_spec(spec.tenant, spec.scope, spec.format, Some(spec.spec))?;
    acks.subs.insert(spec.scope, id);
    acks.states.insert(id, "queued");
    store.set_state(id, "running", "")?;
    acks.states.insert(id, "running");
    let cases = sub_cases(spec.scope);
    store.record_cases(id, &cases)?;
    acks.cases.insert(id, cases.len());
    let report = sub_report(spec.scope);
    store.record_report(id, &report)?;
    acks.reports.insert(id, report);
    store.set_state(id, "done", "")?;
    acks.states.insert(id, "done");
    Ok(())
}

/// The reference workload: every durability surface, in a fixed order.
/// Stops at the first error (after a simulated crash, everything errors).
fn run_workload(vfs: &Arc<dyn Vfs>, acks: &mut Acks) -> io::Result<()> {
    vfs.create_dir_all(Path::new("torture"))?;
    let store = ResultStore::open_via(Arc::clone(vfs), STORE)?.with_clock(fixed_clock());
    let journal = FileJournal::create_via(Arc::clone(vfs), JOURNAL)?;
    jappend(&journal, &journal_meta())?;

    // Submission A: full lifecycle.
    run_submission(&store, &SUBS[0], acks)?;

    // Journaled campaign.
    for name in JOURNAL_CASES {
        jappend(
            &journal,
            &JournalRecord::AttemptStart {
                name: name.to_string(),
                language: Language::C,
                attempt: 0,
            },
        )?;
        jappend(
            &journal,
            &JournalRecord::CaseDone {
                result: journal_case(name),
                node: None,
                duration_ms: 5,
            },
        )?;
        acks.journal_done.insert(name);
    }

    // Mid-campaign compaction: queries must not move.
    let before = store.query(&QueryFilter::default());
    store.compact()?;
    if store.query(&QueryFilter::default()) != before {
        acks.inline
            .push("compaction changed query results mid-run".to_string());
    }

    // Submission B lands in the new generation.
    run_submission(&store, &SUBS[1], acks)?;

    // Sinks: telemetry trace + metrics, tracker saved twice.
    atomic_write_via(vfs.as_ref(), TRACE, trace_content().as_bytes())?;
    acks.sinks.insert(TRACE, trace_content());
    atomic_write_via(vfs.as_ref(), METRICS, metrics_content().as_bytes())?;
    acks.sinks.insert(METRICS, metrics_content());
    let mut tracker = FunctionalityTracker::new();
    tracker.record("PGI 13.4", "E1", 50.0);
    tracker.save_via(vfs.as_ref(), TRACKER)?;
    acks.sinks.insert(TRACKER, tracker_v1());
    tracker.record("PGI 13.4", "E2", 75.0);
    tracker.save_via(vfs.as_ref(), TRACKER)?;
    acks.sinks.insert(TRACKER, tracker_v2());
    Ok(())
}

/// Bring an interrupted campaign to the reference end state: finish every
/// submission the recovered store is missing pieces of, re-journal every
/// case replay doesn't show complete, rewrite all sinks, then compact and
/// assert query equivalence across the swap.
fn resume(vfs: &Arc<dyn Vfs>, violations: &mut Vec<String>) -> io::Result<()> {
    vfs.create_dir_all(Path::new("torture"))?;
    let store = ResultStore::open_via(Arc::clone(vfs), STORE)?.with_clock(fixed_clock());
    for spec in &SUBS {
        let id = match store.list().into_iter().find(|s| s.scope == spec.scope) {
            Some(sub) => sub.id,
            None => store.begin_with_spec(spec.tenant, spec.scope, spec.format, Some(spec.spec))?,
        };
        let have = store.submission(id).expect("just resolved");
        let want = sub_cases(spec.scope);
        if have.cases.len() < want.len() {
            store.record_cases(id, &want[have.cases.len()..])?;
        }
        if have.report.is_none() {
            store.record_report(id, &sub_report(spec.scope))?;
        }
        if have.state != "done" {
            store.set_state(id, "done", "")?;
        }
    }

    let (replay, journal) = match Replay::open_resume_via(Arc::clone(vfs), JOURNAL) {
        Ok(pair) => pair,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            let journal = FileJournal::create_via(Arc::clone(vfs), JOURNAL)?;
            (Replay::default(), journal)
        }
        Err(e) => return Err(e),
    };
    if replay.meta.is_none() {
        jappend(&journal, &journal_meta())?;
    }
    for name in JOURNAL_CASES {
        if replay
            .completed
            .contains_key(&(name.to_string(), Language::C))
        {
            continue;
        }
        jappend(
            &journal,
            &JournalRecord::AttemptStart {
                name: name.to_string(),
                language: Language::C,
                attempt: 0,
            },
        )?;
        jappend(
            &journal,
            &JournalRecord::CaseDone {
                result: journal_case(name),
                node: None,
                duration_ms: 5,
            },
        )?;
    }

    // Sinks are idempotent atomic writes: bring them all to final form.
    atomic_write_via(vfs.as_ref(), TRACE, trace_content().as_bytes())?;
    atomic_write_via(vfs.as_ref(), METRICS, metrics_content().as_bytes())?;
    let mut tracker = FunctionalityTracker::new();
    tracker.record("PGI 13.4", "E1", 50.0);
    tracker.record("PGI 13.4", "E2", 75.0);
    tracker.save_via(vfs.as_ref(), TRACKER)?;

    // The compaction-equivalence invariant, asserted on recovered state.
    let before = store.query(&QueryFilter::default());
    store.compact()?;
    if store.query(&QueryFilter::default()) != before {
        violations.push("post-recovery compaction changed query results".to_string());
    }
    Ok(())
}

/// The observable end state a run converges to; crash + recovery + resume
/// must land exactly here.
#[derive(Debug, PartialEq)]
struct FinalState {
    submissions: String,
    query: Vec<QueryRow>,
    journal_completed: Vec<(String, String)>,
    sinks: Vec<(&'static str, Option<Vec<u8>>)>,
}

fn snapshot(vfs: &Arc<dyn Vfs>) -> io::Result<FinalState> {
    let store = ResultStore::open_via(Arc::clone(vfs), STORE)?;
    let submissions = format!("{:?}", store.list());
    let query = store.query(&QueryFilter::default());
    let replay = Replay::load_via(vfs.as_ref(), JOURNAL)?;
    let mut journal_completed: Vec<(String, String)> = replay
        .completed
        .iter()
        .map(|((name, _), c)| (name.clone(), journal::encode_status(&c.result.status)))
        .collect();
    journal_completed.sort();
    let mut sinks = Vec::new();
    for (path, _) in sink_versions() {
        let bytes = vfs.read(Path::new(path)).ok();
        sinks.push((path, bytes));
    }
    Ok(FinalState {
        submissions,
        query,
        journal_completed,
        sinks,
    })
}

fn state_rank(state: &str) -> i32 {
    match state {
        "queued" => 0,
        "running" => 1,
        "done" => 2,
        _ => -1,
    }
}

/// Check every well-formed-frame invariant of the recovered store file:
/// after open (which compacts poisoned tails away), each line must be a
/// checksum-valid `J1` frame — a torn frame must never survive to be
/// queried.
fn check_frames(vfs: &dyn Vfs, path: &Path) -> Option<String> {
    let text = match vfs::read_to_string(vfs, path) {
        Ok(t) => t,
        Err(e) => return Some(format!("recovered store unreadable: {e}")),
    };
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let ok = line
            .strip_prefix(journal::MAGIC)
            .and_then(|r| r.strip_prefix(' '))
            .and_then(|r| r.split_once(' '))
            .and_then(|(crc, payload)| {
                u64::from_str_radix(crc, 16)
                    .ok()
                    .map(|crc| crc == journal::checksum(payload))
            })
            .unwrap_or(false);
        if !ok {
            return Some(format!("line {} of recovered store is not a valid frame", i + 1));
        }
    }
    None
}

/// Verify all recovery invariants for one crash image; returns violations.
fn verify_image(
    image: &acc_validation::DiskImage,
    seed: u64,
    acks: &Acks,
    reference: &FinalState,
) -> Vec<String> {
    let mut violations = Vec::new();
    let fs = FaultFs::from_image(image, seed);
    let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());

    // I1: the store reopens cleanly and surfaces only well-formed frames.
    {
        let store = match ResultStore::open_via(Arc::clone(&vfs), STORE) {
            Ok(s) => s,
            Err(e) => {
                violations.push(format!("store failed to reopen: {e}"));
                return violations;
            }
        };
        if let Some(v) = check_frames(vfs.as_ref(), &store.current_data_path()) {
            violations.push(v);
        }

        // I2: acked store facts survived.
        for (scope, id) in &acks.subs {
            let Some(sub) = store.submission(*id) else {
                violations.push(format!("acked submission {id} ({scope}) lost"));
                continue;
            };
            if sub.scope != *scope {
                violations.push(format!("submission {id} scope {:?} != {scope:?}", sub.scope));
            }
            let spec = SUBS.iter().find(|s| s.scope == *scope).map(|s| s.spec);
            if sub.spec.as_deref() != spec {
                violations.push(format!("submission {id}: acked spec lost or differs"));
            }
            if sub.epoch != EPOCH {
                violations.push(format!("submission {id} epoch {} lost", sub.epoch));
            }
            let want = sub_cases(scope);
            let acked = acks.cases.get(id).copied().unwrap_or(0);
            if sub.cases.len() < acked {
                violations.push(format!(
                    "submission {id}: {acked} verdicts acked, {} recovered",
                    sub.cases.len()
                ));
            } else if sub.cases[..acked.min(sub.cases.len())] != want[..acked] {
                violations.push(format!("submission {id}: acked verdicts differ"));
            }
            if let Some(report) = acks.reports.get(id) {
                if sub.report.as_deref() != Some(report.as_str()) {
                    violations.push(format!("submission {id}: acked report lost or differs"));
                }
            }
            if let Some(state) = acks.states.get(id) {
                if state_rank(&sub.state) < state_rank(state) {
                    violations.push(format!(
                        "submission {id}: state regressed to {:?} after acked {state:?}",
                        sub.state
                    ));
                }
            }
        }
    }

    // I3: every fsync-acked journaled verdict replays.
    if !acks.journal_done.is_empty() {
        match Replay::load_via(vfs.as_ref(), JOURNAL) {
            Err(e) => violations.push(format!("journal with acked verdicts unreadable: {e}")),
            Ok(replay) => {
                for name in &acks.journal_done {
                    if !replay
                        .completed
                        .contains_key(&(name.to_string(), Language::C))
                    {
                        violations.push(format!("acked journal verdict {name} lost"));
                    }
                }
            }
        }
    }

    // I4: atomic sinks are all-or-nothing, and never roll back past an ack.
    for (path, versions) in sink_versions() {
        let content = fs.durable_contents(path);
        let acked = acks.sinks.get(path);
        match &content {
            None => {
                if acked.is_some() {
                    violations.push(format!("acked sink {path} missing"));
                }
            }
            Some(bytes) => {
                let found = versions.iter().position(|v| v.as_bytes() == bytes.as_slice());
                match found {
                    None => violations.push(format!(
                        "sink {path} holds a torn write ({} bytes)",
                        bytes.len()
                    )),
                    Some(idx) => {
                        if let Some(acked) = acked {
                            let acked_idx = versions
                                .iter()
                                .position(|v| v == acked)
                                .expect("acked version is a known version");
                            if idx < acked_idx {
                                violations
                                    .push(format!("sink {path} rolled back past an acked write"));
                            }
                        }
                    }
                }
            }
        }
    }

    // I5: resuming converges to the reference end state exactly.
    if let Err(e) = resume(&vfs, &mut violations) {
        violations.push(format!("resume failed: {e}"));
        return violations;
    }
    match snapshot(&vfs) {
        Err(e) => violations.push(format!("post-resume snapshot failed: {e}")),
        Ok(state) => {
            if state.submissions != reference.submissions {
                violations.push("resumed submissions differ from reference".to_string());
            }
            if state.query != reference.query {
                violations.push("resumed query rows differ from reference".to_string());
            }
            if state.journal_completed != reference.journal_completed {
                violations.push("resumed journal replay differs from reference".to_string());
            }
            if state.sinks != reference.sinks {
                violations.push("resumed sink bytes differ from reference".to_string());
            }
        }
    }
    violations
}

/// Run the full crash-point matrix. See the module docs for the protocol.
pub fn run_torture(config: &TortureConfig) -> io::Result<TortureOutcome> {
    let stride = config.stride.max(1);

    // Reference run on a clean disk: must complete with zero errors.
    let ref_fs = FaultFs::new(config.seed);
    let ref_vfs: Arc<dyn Vfs> = Arc::new(ref_fs.clone());
    let mut ref_acks = Acks::default();
    run_workload(&ref_vfs, &mut ref_acks)?;
    if !ref_acks.inline.is_empty() {
        return Err(io::Error::other(format!(
            "reference run violated invariants: {}",
            ref_acks.inline.join("; ")
        )));
    }
    let total_ops = ref_fs.op_count();

    // Reference end state, observed the same way every crash point is:
    // reboot from the settled image, resume (a no-op completion pass plus
    // the final compaction), snapshot.
    let ref_image = ref_fs.settled_image();
    let ref_boot = FaultFs::from_image(&ref_image, config.seed);
    let ref_boot_vfs: Arc<dyn Vfs> = Arc::new(ref_boot);
    let mut ref_violations = Vec::new();
    resume(&ref_boot_vfs, &mut ref_violations)?;
    if !ref_violations.is_empty() {
        return Err(io::Error::other(format!(
            "reference resume violated invariants: {}",
            ref_violations.join("; ")
        )));
    }
    let reference = snapshot(&ref_boot_vfs)?;

    let mut violations = Vec::new();
    let mut crash_points = 0u64;
    let mut k = 1;
    while k <= total_ops {
        crash_points += 1;
        let fs = FaultFs::new(config.seed).with_crash_after(k);
        let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
        let mut acks = Acks::default();
        let _ = run_workload(&vfs, &mut acks); // errors expected at the crash
        violations.extend(acks.inline.iter().map(|v| format!("crash@{k}: {v}")));
        // If the crash never fired (k == total_ops), the settled image is
        // the honest equivalent.
        let image = fs.crash_image().unwrap_or_else(|| fs.settled_image());
        let found = verify_image(&image, config.seed, &acks, &reference);
        if config.verbose && !found.is_empty() {
            eprintln!("torture: crash@{k}: {} violation(s)", found.len());
        }
        violations.extend(found.into_iter().map(|v| format!("crash@{k}: {v}")));
        k += stride;
    }

    Ok(TortureOutcome {
        total_ops,
        crash_points,
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_workload_completes_cleanly() {
        let fs = FaultFs::new(7);
        let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
        let mut acks = Acks::default();
        run_workload(&vfs, &mut acks).expect("clean disk, clean run");
        assert_eq!(acks.subs.len(), 2);
        assert_eq!(acks.journal_done.len(), 3);
        assert_eq!(acks.sinks.len(), 3);
        assert!(acks.inline.is_empty());
        assert!(fs.op_count() > 50, "workload exercises a real op schedule");
    }

    #[test]
    fn strided_torture_finds_no_violations() {
        // The full matrix runs in `tests/crash_torture.rs` and CI; a
        // stride keeps the unit test fast while still crossing every
        // workload phase.
        let outcome = run_torture(&TortureConfig {
            seed: 11,
            stride: 6,
            verbose: false,
        })
        .expect("torture harness runs");
        assert!(outcome.total_ops > 0);
        assert!(outcome.crash_points > 10);
        assert_eq!(
            outcome.violations,
            Vec::<String>::new(),
            "durability invariants must hold at every crash point"
        );
    }
}
