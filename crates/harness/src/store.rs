//! Indexed, append-only on-disk result store for served campaigns.
//!
//! Every submission the campaign server runs lands here: a submission
//! header, one row per case verdict, the rendered report verbatim, and a
//! state record per lifecycle transition (`queued` → `running` → `done` /
//! `degraded` / `cancelled` / `interrupted`). The file is a `J1` file,
//! written and read through the validation journal's J1 layer
//! ([`acc_validation::journal`]: frames, field escaping, the tail-rule
//! scan and the append handle), so the store shares the journal's crash
//! story: an append-only file whose torn or corrupted tail is detected and
//! cut away on open, with everything before the damage trusted. A `case`
//! row encodes its verdict with the same codec as the journal's `done`
//! row.
//!
//! Record kinds (tab-separated payloads inside the `J1` frame):
//!
//! ```text
//! sub   <id> <tenant> <scope> <format> <epoch-seconds>
//! case  <id> <name> <feature> <lang> <status> <certainty> <attempts> <source>
//! rep   <id> <report-text>
//! lat   <id> <latency-histogram>
//! state <id> <state> <detail>
//! ```
//!
//! (`sub` rows written before the epoch field existed have four fields and
//! decode with epoch 0 — the store is backward compatible with its own
//! history. `lat` rows carry a [`LatencyHist`] in its canonical encoding;
//! multiple rows for one submission merge, and compaction re-encodes the
//! merged histogram — byte-identical because the encoding is canonical.)
//!
//! The in-memory index (id → submission) is rebuilt by a full scan on
//! open; queries aggregate pass rates by (scope, language, feature) across
//! every stored verdict, with optional `since`/`until` epoch bounds.
//!
//! ## Durability
//!
//! All I/O goes through the [`acc_validation::vfs`] seam so the
//! crash-torture harness can run the store against a hostile disk. Every
//! mutation that acknowledges work to a caller — [`ResultStore::begin`]
//! (the id behind a served 202), [`ResultStore::record_cases`],
//! [`ResultStore::record_report`], [`ResultStore::set_state`] — fsyncs
//! before returning, so an acknowledged record can never be lost to a
//! crash.
//!
//! ## Generations and compaction
//!
//! A long-lived store accumulates dead bytes: superseded state rows, and
//! eventually submissions nobody queries. [`ResultStore::compact`]
//! rewrites the live index into a fresh *generation* file and swaps a
//! one-line generation pointer (`<path>.gen`) over to it with the same
//! temp+rename+dir-fsync discipline as every other atomic write:
//!
//! 1. write all live records to `<path>.g<G+1>`, fsync it, fsync the dir;
//! 2. atomically rewrite the pointer file to `G+1` (the commit point);
//! 3. only then unlink the old generation.
//!
//! A crash before step 2's rename leaves the pointer at `G`: the old
//! generation is still the store, and the half-built `G+1` file is
//! garbage-collected on the next open. A crash after leaves the pointer at
//! `G+1`: the new generation is the store, and the old file is GC'd on the
//! next open. There is no crash point at which both or neither are live.

use acc_obs::hist::LatencyHist;
use acc_validation::journal::{self, frame, J1File};
use acc_validation::vfs::{self, atomic_write_via, RealFs, Vfs};
use acc_validation::CaseResult;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{SystemTime, UNIX_EPOCH};

/// One stored submission, reassembled from its records.
#[derive(Debug, Clone)]
pub struct StoredSubmission {
    /// Store-assigned submission id.
    pub id: u64,
    /// Submitting tenant.
    pub tenant: String,
    /// What was validated (compiler label).
    pub scope: String,
    /// Report format the submission asked for (`text`/`csv`/`html`).
    pub format: String,
    /// Wall-clock submission time, seconds since the Unix epoch (0 for
    /// rows written before the field existed).
    pub epoch: u64,
    /// Latest lifecycle state.
    pub state: String,
    /// Human detail for the latest state (degradation reason, drain note).
    pub detail: String,
    /// Per-case verdicts.
    pub cases: Vec<CaseResult>,
    /// The rendered report, once the submission completed.
    pub report: Option<String>,
    /// Merged per-case wall-latency histogram, when latency was recorded.
    pub latency: Option<LatencyHist>,
}

/// One aggregated pass-rate row from [`ResultStore::query`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRow {
    /// Compiler label the verdicts were recorded under.
    pub scope: String,
    /// Language variant.
    pub language: String,
    /// Feature id.
    pub feature: String,
    /// Counted verdicts (skips excluded).
    pub total: usize,
    /// Passing verdicts among `total`.
    pub passed: usize,
}

impl QueryRow {
    /// Pass rate in percent (0 when nothing counted).
    pub fn pass_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.passed as f64 / self.total as f64 * 100.0
        }
    }
}

/// Prefix filters for [`ResultStore::query`]. Empty strings match all;
/// the epoch bounds default to all of time.
#[derive(Debug, Clone)]
pub struct QueryFilter {
    /// Scope (compiler label) prefix, e.g. `"PGI"` or `"PGI 13"`.
    pub scope: String,
    /// Feature id prefix, e.g. `"data."`.
    pub feature: String,
    /// Language name prefix, e.g. `"C"` or `"Fortran"`.
    pub language: String,
    /// Tenant exact match ("" = all tenants).
    pub tenant: String,
    /// Only submissions recorded at or after this epoch second.
    pub since: u64,
    /// Only submissions recorded at or before this epoch second.
    pub until: u64,
}

impl Default for QueryFilter {
    fn default() -> Self {
        QueryFilter {
            scope: String::new(),
            feature: String::new(),
            language: String::new(),
            tenant: String::new(),
            since: 0,
            until: u64::MAX,
        }
    }
}

/// What a [`ResultStore::compact`] pass accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionStats {
    /// Generation the store now reads and appends.
    pub generation: u64,
    /// Byte size of the superseded generation file.
    pub old_bytes: u64,
    /// Byte size of the freshly written generation file.
    pub new_bytes: u64,
    /// Live submissions carried over.
    pub live_submissions: usize,
}

/// Wall clock used to stamp submissions; injectable so torture runs and
/// tests are deterministic.
pub type Clock = Arc<dyn Fn() -> u64 + Send + Sync>;

fn system_clock() -> Clock {
    Arc::new(|| {
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_secs())
    })
}

struct StoreInner {
    file: J1File,
    index: BTreeMap<u64, StoredSubmission>,
    next_id: u64,
    generation: u64,
}

/// The append-only, indexed result store.
pub struct ResultStore {
    path: PathBuf,
    vfs: Arc<dyn Vfs>,
    clock: Clock,
    inner: Mutex<StoreInner>,
}

fn encode_sub(id: u64, tenant: &str, scope: &str, format: &str, epoch: u64) -> String {
    format!(
        "sub\t{id}\t{}\t{}\t{}\t{epoch}",
        journal::escape(tenant),
        journal::escape(scope),
        journal::escape(format),
    )
}

fn encode_case(id: u64, r: &CaseResult) -> String {
    format!(
        "case\t{id}\t{}\t{}",
        journal::encode_result(r),
        journal::escape(&r.functional_source),
    )
}

fn encode_rep(id: u64, text: &str) -> String {
    format!("rep\t{id}\t{}", journal::escape(text))
}

fn encode_lat(id: u64, hist: &LatencyHist) -> String {
    // The histogram encoding uses only digits and `;:,` — already inside
    // the J1-safe alphabet, no escaping needed (and `unescape` of it is
    // the identity, so old readers that did escape would still agree).
    format!("lat\t{id}\t{}", hist.encode())
}

fn encode_state(id: u64, state: &str, detail: &str) -> String {
    format!(
        "state\t{id}\t{}\t{}",
        journal::escape(state),
        journal::escape(detail)
    )
}

/// A decoded store record (internal; the public surface is the index).
enum StoreRecord {
    Sub {
        id: u64,
        tenant: String,
        scope: String,
        format: String,
        epoch: u64,
    },
    Case {
        id: u64,
        result: CaseResult,
    },
    Report {
        id: u64,
        text: String,
    },
    Latency {
        id: u64,
        hist: LatencyHist,
    },
    State {
        id: u64,
        state: String,
        detail: String,
    },
}

fn decode_payload(payload: &str) -> Option<StoreRecord> {
    let mut fields = payload.split('\t');
    let kind = fields.next()?;
    let fields: Vec<&str> = fields.collect();
    match kind {
        "sub" => {
            // Four fields = the pre-epoch v1 row; five = epoch-stamped.
            let (core, epoch) = match fields.as_slice() {
                [id, tenant, scope, format] => ([*id, *tenant, *scope, *format], 0),
                [id, tenant, scope, format, epoch] => {
                    ([*id, *tenant, *scope, *format], epoch.parse().ok()?)
                }
                _ => return None,
            };
            let [id, tenant, scope, format] = core;
            Some(StoreRecord::Sub {
                id: id.parse().ok()?,
                tenant: journal::unescape(tenant)?,
                scope: journal::unescape(scope)?,
                format: journal::unescape(format)?,
                epoch,
            })
        }
        "case" => {
            let [id, result @ .., source] = fields.as_slice() else {
                return None;
            };
            Some(StoreRecord::Case {
                id: id.parse().ok()?,
                result: journal::decode_result(result, source)?,
            })
        }
        "rep" => {
            let [id, text] = fields.as_slice() else {
                return None;
            };
            Some(StoreRecord::Report {
                id: id.parse().ok()?,
                text: journal::unescape(text)?,
            })
        }
        "lat" => {
            let [id, hist] = fields.as_slice() else {
                return None;
            };
            Some(StoreRecord::Latency {
                id: id.parse().ok()?,
                hist: LatencyHist::decode(hist)?,
            })
        }
        "state" => {
            let [id, state, detail] = fields.as_slice() else {
                return None;
            };
            Some(StoreRecord::State {
                id: id.parse().ok()?,
                state: journal::unescape(state)?,
                detail: journal::unescape(detail)?,
            })
        }
        _ => None,
    }
}

/// The generation-pointer file: one ASCII generation number.
fn pointer_path(base: &Path) -> PathBuf {
    let mut name = base.file_name().unwrap_or_default().to_os_string();
    name.push(".gen");
    base.with_file_name(name)
}

/// The data file of generation `g`: the bare base path for generation 0
/// (v1 stores predate generations), `<base>.g<G>` after a compaction.
fn data_path(base: &Path, generation: u64) -> PathBuf {
    if generation == 0 {
        return base.to_path_buf();
    }
    let mut name = base.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".g{generation}"));
    base.with_file_name(name)
}

/// Remove generation files and atomic-write temp droppings that are not
/// the current generation — the debris a crash mid-compaction leaves.
/// Never touches the pointer file or unrelated names.
fn gc_stale(vfs: &dyn Vfs, base: &Path, generation: u64) -> io::Result<()> {
    let Some(stem) = base.file_name() else {
        return Ok(());
    };
    let stem = stem.to_string_lossy().into_owned();
    for entry in vfs.read_dir(vfs::containing_dir(base))? {
        let Some(name) = entry.file_name() else {
            continue;
        };
        let name = name.to_string_lossy();
        let Some(suffix) = name.strip_prefix(stem.as_str()) else {
            continue;
        };
        let stale = if suffix.contains(".tmp") {
            true // orphaned atomic-write temp (ours: stem-prefixed)
        } else if suffix.is_empty() {
            generation != 0
        } else if let Some(g) = suffix.strip_prefix(".g") {
            g.parse::<u64>().is_ok_and(|g| g != generation)
        } else {
            false // the `.gen` pointer, or not ours
        };
        if stale {
            vfs.remove_file(&entry)?;
        }
    }
    Ok(())
}

impl ResultStore {
    /// Open (or create) the store at `path`, rebuilding the index with the
    /// journal's tail rule: the first torn or corrupt line poisons itself
    /// and everything after it; the file is cut to the trusted prefix
    /// before appends resume. Follows the generation pointer when
    /// one exists and garbage-collects the debris of any interrupted
    /// compaction.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::open_via(RealFs::shared(), path)
    }

    /// [`ResultStore::open`] on an injected filesystem.
    pub fn open_via(vfs: Arc<dyn Vfs>, path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let pointer = pointer_path(&path);
        let generation = if vfs.exists(&pointer) {
            vfs::read_to_string(vfs.as_ref(), &pointer)?
                .trim()
                .parse::<u64>()
                .map_err(|_| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("corrupt generation pointer {}", pointer.display()),
                    )
                })?
        } else {
            0
        };
        gc_stale(vfs.as_ref(), &path, generation)?;
        let mut index: BTreeMap<u64, StoredSubmission> = BTreeMap::new();
        let (file, _) = J1File::open(
            vfs.as_ref(),
            &data_path(&path, generation),
            decode_payload,
            |record| apply(&mut index, record),
        )?;
        let next_id = index.keys().next_back().map_or(1, |max| max + 1);
        Ok(ResultStore {
            path,
            vfs,
            clock: system_clock(),
            inner: Mutex::new(StoreInner {
                file,
                index,
                next_id,
                generation,
            }),
        })
    }

    /// Replace the wall clock used to stamp submissions (deterministic
    /// torture runs and tests).
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// The store's base path (the generation pointer and generation files
    /// derive from it).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The generation currently being read and appended.
    pub fn generation(&self) -> u64 {
        self.inner.lock().expect("store lock").generation
    }

    /// The data file of the current generation.
    pub fn current_data_path(&self) -> PathBuf {
        data_path(&self.path, self.generation())
    }

    /// Register a new submission; returns its id. The header and the
    /// initial `queued` state are appended and fsynced before the id is
    /// handed out, so every id the server ever returned is resolvable
    /// after a restart.
    pub fn begin(&self, tenant: &str, scope: &str, format: &str) -> io::Result<u64> {
        let epoch = (self.clock)();
        let mut inner = self.inner.lock().expect("store lock");
        let id = inner.next_id;
        inner.next_id += 1;
        let mut frames = frame(&encode_sub(id, tenant, scope, format, epoch));
        frames.push_str(&frame(&encode_state(id, "queued", "")));
        inner.file.append(&frames, true)?;
        inner.index.insert(
            id,
            StoredSubmission {
                id,
                tenant: tenant.to_string(),
                scope: scope.to_string(),
                format: format.to_string(),
                epoch,
                state: "queued".to_string(),
                detail: String::new(),
                cases: Vec::new(),
                report: None,
                latency: None,
            },
        );
        Ok(id)
    }

    /// Record a lifecycle transition (fsynced before returning).
    pub fn set_state(&self, id: u64, state: &str, detail: &str) -> io::Result<()> {
        let mut inner = self.inner.lock().expect("store lock");
        inner
            .file
            .append(&frame(&encode_state(id, state, detail)), true)?;
        if let Some(sub) = inner.index.get_mut(&id) {
            sub.state = state.to_string();
            sub.detail = detail.to_string();
        }
        Ok(())
    }

    /// Append every verdict of a finished (or interrupted) run (fsynced
    /// before returning).
    pub fn record_cases(&self, id: u64, cases: &[CaseResult]) -> io::Result<()> {
        let mut inner = self.inner.lock().expect("store lock");
        let lines: String = cases
            .iter()
            .map(|case| frame(&encode_case(id, case)))
            .collect();
        inner.file.append(&lines, true)?;
        if let Some(sub) = inner.index.get_mut(&id) {
            sub.cases.extend(cases.iter().cloned());
        }
        Ok(())
    }

    /// Append the rendered report verbatim (the byte-identity artifact:
    /// what this returns on a later fetch is exactly what `accvv run`
    /// would have printed). Fsynced before returning.
    pub fn record_report(&self, id: u64, text: &str) -> io::Result<()> {
        let mut inner = self.inner.lock().expect("store lock");
        inner.file.append(&frame(&encode_rep(id, text)), true)?;
        if let Some(sub) = inner.index.get_mut(&id) {
            sub.report = Some(text.to_string());
        }
        Ok(())
    }

    /// Append the submission's merged latency histogram (fsynced before
    /// returning). Empty histograms are not persisted. Repeated calls
    /// merge — the index and every later replay apply the histogram merge
    /// law, so the aggregate is order-free.
    pub fn record_latency(&self, id: u64, hist: &LatencyHist) -> io::Result<()> {
        if hist.is_empty() {
            return Ok(());
        }
        let mut inner = self.inner.lock().expect("store lock");
        inner.file.append(&frame(&encode_lat(id, hist)), true)?;
        if let Some(sub) = inner.index.get_mut(&id) {
            sub.latency.get_or_insert_with(LatencyHist::new).merge(hist);
        }
        Ok(())
    }

    /// Rewrite the live index into a fresh generation and swap the
    /// generation pointer over to it. Crash-safe at every step (see the
    /// module docs); queries are byte-identical before and after because
    /// compaction only rewrites the file, never the index. Appends are
    /// blocked for the duration (the store lock is held).
    pub fn compact(&self) -> io::Result<CompactionStats> {
        let mut inner = self.inner.lock().expect("store lock");
        let old_gen = inner.generation;
        let new_gen = old_gen + 1;
        let old_data = data_path(&self.path, old_gen);
        let new_data = data_path(&self.path, new_gen);
        let dir = vfs::containing_dir(&self.path).to_path_buf();

        // One sub/cases/rep/final-state group per live submission, in id
        // order: replaying this file rebuilds exactly the current index.
        let mut text = String::new();
        for sub in inner.index.values() {
            text.push_str(&frame(&encode_sub(
                sub.id,
                &sub.tenant,
                &sub.scope,
                &sub.format,
                sub.epoch,
            )));
            for case in &sub.cases {
                text.push_str(&frame(&encode_case(sub.id, case)));
            }
            if let Some(report) = &sub.report {
                text.push_str(&frame(&encode_rep(sub.id, report)));
            }
            if let Some(latency) = sub.latency.as_ref().filter(|h| !h.is_empty()) {
                text.push_str(&frame(&encode_lat(sub.id, latency)));
            }
            text.push_str(&frame(&encode_state(sub.id, &sub.state, &sub.detail)));
        }

        // 1. New generation fully durable (name and bytes) first; its
        // handle takes the appends that follow.
        let mut file = J1File::create(self.vfs.as_ref(), &new_data)?;
        file.append(&text, true)?;
        // 2. The commit point: atomically swing the pointer.
        atomic_write_via(
            self.vfs.as_ref(),
            pointer_path(&self.path),
            new_gen.to_string().as_bytes(),
        )?;
        // 3. Only now is the old generation garbage.
        let old_bytes = self.vfs.read(&old_data).map(|b| b.len() as u64).unwrap_or(0);
        self.vfs.remove_file(&old_data)?;
        self.vfs.fsync_dir(&dir)?;

        inner.file = file;
        inner.generation = new_gen;
        Ok(CompactionStats {
            generation: new_gen,
            old_bytes,
            new_bytes: text.len() as u64,
            live_submissions: inner.index.len(),
        })
    }

    /// Look up one submission by id.
    pub fn submission(&self, id: u64) -> Option<StoredSubmission> {
        self.inner.lock().expect("store lock").index.get(&id).cloned()
    }

    /// Every stored submission, id-ordered.
    pub fn list(&self) -> Vec<StoredSubmission> {
        self.inner
            .lock()
            .expect("store lock")
            .index
            .values()
            .cloned()
            .collect()
    }

    /// Aggregate pass rates by (scope, language, feature) across every
    /// stored verdict matching the filter. Skipped rows are excluded, the
    /// same exclusion the report applies, so a degraded submission does
    /// not drag a vendor's rate down. The `since`/`until` bounds filter on
    /// each submission's recorded epoch.
    pub fn query(&self, filter: &QueryFilter) -> Vec<QueryRow> {
        let inner = self.inner.lock().expect("store lock");
        let mut agg: BTreeMap<(String, String, String), (usize, usize)> = BTreeMap::new();
        for sub in inner.index.values() {
            if !filter.tenant.is_empty() && sub.tenant != filter.tenant {
                continue;
            }
            if !sub.scope.starts_with(&filter.scope) {
                continue;
            }
            if sub.epoch < filter.since || sub.epoch > filter.until {
                continue;
            }
            for case in &sub.cases {
                if !case.status.counted() {
                    continue;
                }
                let language = case.language.to_string();
                if !language.starts_with(&filter.language) {
                    continue;
                }
                let feature = case.feature.as_str().to_string();
                if !feature.starts_with(&filter.feature) {
                    continue;
                }
                let slot = agg
                    .entry((sub.scope.clone(), language, feature))
                    .or_insert((0, 0));
                slot.0 += 1;
                if case.status.passed() {
                    slot.1 += 1;
                }
            }
        }
        agg.into_iter()
            .map(|((scope, language, feature), (total, passed))| QueryRow {
                scope,
                language,
                feature,
                total,
                passed,
            })
            .collect()
    }
}

fn apply(index: &mut BTreeMap<u64, StoredSubmission>, record: StoreRecord) {
    match record {
        StoreRecord::Sub {
            id,
            tenant,
            scope,
            format,
            epoch,
        } => {
            index.entry(id).or_insert(StoredSubmission {
                id,
                tenant,
                scope,
                format,
                epoch,
                state: "queued".to_string(),
                detail: String::new(),
                cases: Vec::new(),
                report: None,
                latency: None,
            });
        }
        StoreRecord::Case { id, result } => {
            if let Some(sub) = index.get_mut(&id) {
                sub.cases.push(result);
            }
        }
        StoreRecord::Report { id, text } => {
            if let Some(sub) = index.get_mut(&id) {
                sub.report = Some(text);
            }
        }
        StoreRecord::Latency { id, hist } => {
            if let Some(sub) = index.get_mut(&id) {
                sub.latency.get_or_insert_with(LatencyHist::new).merge(&hist);
            }
        }
        StoreRecord::State { id, state, detail } => {
            if let Some(sub) = index.get_mut(&id) {
                sub.state = state;
                sub.detail = detail;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acc_spec::{FeatureId, Language};
    use acc_validation::vfs::FaultFs;
    use acc_validation::TestStatus;

    fn case(name: &str, feature: &str, status: TestStatus) -> CaseResult {
        CaseResult {
            name: name.to_string(),
            feature: FeatureId::new(feature.to_string()),
            language: Language::C,
            status,
            certainty: None,
            functional_source: "int main(void) {\n\treturn 1;\n}\n".to_string(),
            attempts: 1,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("accvv-store-{}-{name}.j1", std::process::id()))
    }

    fn cleanup(path: &Path) {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(pointer_path(path));
        for g in 1..6 {
            let _ = std::fs::remove_file(data_path(path, g));
        }
    }

    #[test]
    fn submission_round_trips_through_reopen() {
        let path = tmp("roundtrip");
        cleanup(&path);
        {
            let store = ResultStore::open(&path).unwrap();
            let id = store.begin("alice", "PGI 13.4", "text").unwrap();
            assert_eq!(id, 1);
            store.set_state(id, "running", "").unwrap();
            store
                .record_cases(
                    id,
                    &[
                        case("loop", "loop", TestStatus::Pass),
                        case("data.copy", "data.copy", TestStatus::WrongResult),
                        case(
                            "update.host",
                            "update.host",
                            TestStatus::Skipped(Some("breaker open: PGI".into())),
                        ),
                    ],
                )
                .unwrap();
            store.record_report(id, "REPORT\nline two\ttabbed\n").unwrap();
            store.set_state(id, "done", "").unwrap();
        }
        let store = ResultStore::open(&path).unwrap();
        let sub = store.submission(1).expect("reopened index has it");
        assert_eq!(sub.tenant, "alice");
        assert_eq!(sub.scope, "PGI 13.4");
        assert_eq!(sub.state, "done");
        assert_eq!(sub.cases.len(), 3);
        assert_eq!(
            sub.cases[2].status,
            TestStatus::Skipped(Some("breaker open: PGI".into()))
        );
        assert_eq!(sub.report.as_deref(), Some("REPORT\nline two\ttabbed\n"));
        assert!(sub.epoch > 0, "system clock stamps submissions");
        // Ids keep counting after reopen.
        assert_eq!(store.begin("bob", "ref", "text").unwrap(), 2);
        cleanup(&path);
    }

    #[test]
    fn corrupt_tail_is_compacted_on_open() {
        let path = tmp("tail");
        cleanup(&path);
        {
            let store = ResultStore::open(&path).unwrap();
            let id = store.begin("t", "scope", "text").unwrap();
            store.set_state(id, "done", "").unwrap();
        }
        let good_len = std::fs::metadata(&path).unwrap().len();
        // Append garbage then a torn line.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("J1 0000000000000000 state\t1\tbogus\t\n");
        text.push_str("J1 0123"); // torn
        std::fs::write(&path, &text).unwrap();
        let store = ResultStore::open(&path).unwrap();
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            good_len,
            "poisoned tail compacted away"
        );
        assert_eq!(store.submission(1).unwrap().state, "done");
        cleanup(&path);
    }

    #[test]
    fn pre_epoch_sub_rows_still_decode() {
        // A v1 row (no epoch field) must replay with epoch 0.
        let payload = format!(
            "sub\t9\t{}\t{}\t{}",
            journal::escape("old-tenant"),
            journal::escape("PGI 13.4"),
            journal::escape("text"),
        );
        match decode_payload(&payload) {
            Some(StoreRecord::Sub { id, tenant, epoch, .. }) => {
                assert_eq!(id, 9);
                assert_eq!(tenant, "old-tenant");
                assert_eq!(epoch, 0);
            }
            _ => panic!("v1 sub row must decode"),
        }
    }

    #[test]
    fn query_aggregates_and_filters() {
        let path = tmp("query");
        cleanup(&path);
        let store = ResultStore::open(&path).unwrap();
        let a = store.begin("alice", "PGI 13.4", "text").unwrap();
        store
            .record_cases(
                a,
                &[
                    case("loop", "loop", TestStatus::Pass),
                    case("data.copy", "data.copy", TestStatus::Pass),
                    case("data.copyin", "data.copyin", TestStatus::WrongResult),
                ],
            )
            .unwrap();
        let b = store.begin("bob", "CAPS 3.3.0", "text").unwrap();
        store
            .record_cases(
                b,
                &[
                    case("loop", "loop", TestStatus::Pass),
                    // Skips never count.
                    case("loop", "loop", TestStatus::Skipped(Some("breaker".into()))),
                ],
            )
            .unwrap();
        let all = store.query(&QueryFilter::default());
        assert_eq!(all.len(), 4);
        let pgi_data = store.query(&QueryFilter {
            scope: "PGI".into(),
            feature: "data.".into(),
            ..Default::default()
        });
        assert_eq!(pgi_data.len(), 2);
        let copyin = pgi_data.iter().find(|r| r.feature == "data.copyin").unwrap();
        assert_eq!((copyin.total, copyin.passed), (1, 0));
        assert_eq!(copyin.pass_rate(), 0.0);
        let caps = store.query(&QueryFilter {
            scope: "CAPS".into(),
            ..Default::default()
        });
        assert_eq!(caps.len(), 1);
        assert_eq!((caps[0].total, caps[0].passed), (1, 1), "skip excluded");
        let bob_only = store.query(&QueryFilter {
            tenant: "bob".into(),
            ..Default::default()
        });
        assert_eq!(bob_only.len(), 1);
        cleanup(&path);
    }

    #[test]
    fn since_until_bound_queries_by_epoch() {
        let fs: Arc<dyn Vfs> = Arc::new(FaultFs::new(1));
        let now = Arc::new(std::sync::atomic::AtomicU64::new(100));
        let clock_now = Arc::clone(&now);
        let store = ResultStore::open_via(Arc::clone(&fs), "epoch.j1")
            .unwrap()
            .with_clock(Arc::new(move || {
                clock_now.load(std::sync::atomic::Ordering::SeqCst)
            }));
        let a = store.begin("t", "PGI 13.4", "text").unwrap();
        store.record_cases(a, &[case("loop", "loop", TestStatus::Pass)]).unwrap();
        now.store(200, std::sync::atomic::Ordering::SeqCst);
        let b = store.begin("t", "PGI 13.4", "text").unwrap();
        store
            .record_cases(b, &[case("loop", "loop", TestStatus::WrongResult)])
            .unwrap();
        let all = store.query(&QueryFilter::default());
        assert_eq!((all[0].total, all[0].passed), (2, 1));
        let early = store.query(&QueryFilter {
            until: 150,
            ..Default::default()
        });
        assert_eq!((early[0].total, early[0].passed), (1, 1));
        let late = store.query(&QueryFilter {
            since: 150,
            ..Default::default()
        });
        assert_eq!((late[0].total, late[0].passed), (1, 0));
        let none = store.query(&QueryFilter {
            since: 300,
            ..Default::default()
        });
        assert!(none.is_empty());
        // Epochs survive reopen.
        drop(store);
        let store = ResultStore::open_via(fs, "epoch.j1").unwrap();
        assert_eq!(store.submission(a).unwrap().epoch, 100);
        assert_eq!(store.submission(b).unwrap().epoch, 200);
    }

    #[test]
    fn compaction_preserves_queries_and_reclaims_space() {
        let fs: Arc<dyn Vfs> = Arc::new(FaultFs::new(2));
        let store = ResultStore::open_via(Arc::clone(&fs), "c.j1").unwrap();
        let id = store.begin("t", "PGI 13.4", "text").unwrap();
        // Lots of dead state churn for compaction to reclaim.
        for _ in 0..50 {
            store.set_state(id, "running", "still going").unwrap();
        }
        store.record_cases(id, &[case("loop", "loop", TestStatus::Pass)]).unwrap();
        store.record_report(id, "REPORT\n").unwrap();
        store.set_state(id, "done", "").unwrap();
        let before_list = format!("{:?}", store.list());
        let before = store.query(&QueryFilter::default());
        let stats = store.compact().unwrap();
        assert_eq!(stats.generation, 1);
        assert!(
            stats.new_bytes < stats.old_bytes,
            "dead state rows reclaimed: {stats:?}"
        );
        assert_eq!(stats.live_submissions, 1);
        assert_eq!(store.query(&QueryFilter::default()), before);
        assert_eq!(format!("{:?}", store.list()), before_list);
        // Appends continue in the new generation and survive reopen.
        let id2 = store.begin("t", "CAPS 3.3.0", "text").unwrap();
        drop(store);
        let store = ResultStore::open_via(Arc::clone(&fs), "c.j1").unwrap();
        assert_eq!(store.generation(), 1);
        assert_eq!(store.query(&QueryFilter::default()), before);
        assert!(store.submission(id2).is_some());
        assert!(store.submission(id).unwrap().report.is_some());
        // The old generation file is gone.
        assert!(!fs.exists(Path::new("c.j1")), "generation 0 reclaimed");
        // Compacting again moves to generation 2.
        assert_eq!(store.compact().unwrap().generation, 2);
    }

    #[test]
    fn interrupted_compaction_is_garbage_collected_on_open() {
        let fs: Arc<dyn Vfs> = Arc::new(FaultFs::new(3));
        {
            let store = ResultStore::open_via(Arc::clone(&fs), "g.j1").unwrap();
            let id = store.begin("t", "PGI 13.4", "text").unwrap();
            store.record_cases(id, &[case("loop", "loop", TestStatus::Pass)]).unwrap();
        }
        // Simulate a crash after the new generation was written but before
        // the pointer swap: an orphan .g1 with divergent content.
        let mut f = fs.create(Path::new("g.j1.g1")).unwrap();
        f.write_all(b"garbage that must never be read\n").unwrap();
        f.sync_all().unwrap();
        let store = ResultStore::open_via(Arc::clone(&fs), "g.j1").unwrap();
        assert_eq!(store.generation(), 0, "pointer never swung");
        assert!(!fs.exists(Path::new("g.j1.g1")), "orphan GC'd");
        assert_eq!(store.submission(1).unwrap().cases.len(), 1);
    }

    #[test]
    fn latency_round_trips_merges_and_survives_compaction() {
        let fs: Arc<dyn Vfs> = Arc::new(FaultFs::new(4));
        let store = ResultStore::open_via(Arc::clone(&fs), "lat.j1").unwrap();
        let id = store.begin("t", "PGI 13.4", "text").unwrap();
        store.record_cases(id, &[case("loop", "loop", TestStatus::Pass)]).unwrap();
        let mut h1 = LatencyHist::new();
        h1.record(150);
        h1.record(9_000);
        let mut h2 = LatencyHist::new();
        h2.record(42);
        store.record_latency(id, &h1).unwrap();
        store.record_latency(id, &h2).unwrap();
        store.record_latency(id, &LatencyHist::new()).unwrap(); // no-op
        let mut merged = h1.clone();
        merged.merge(&h2);
        assert_eq!(store.submission(id).unwrap().latency, Some(merged.clone()));
        // Replay from disk agrees.
        drop(store);
        let store = ResultStore::open_via(Arc::clone(&fs), "lat.j1").unwrap();
        assert_eq!(store.submission(id).unwrap().latency, Some(merged.clone()));
        // Compaction folds the two rows into one and changes nothing.
        store.compact().unwrap();
        assert_eq!(store.submission(id).unwrap().latency, Some(merged.clone()));
        drop(store);
        let store = ResultStore::open_via(fs, "lat.j1").unwrap();
        assert_eq!(store.submission(id).unwrap().latency, Some(merged));
        // Submissions without latency stay `None`.
        let id2 = store.begin("t", "ref", "text").unwrap();
        assert_eq!(store.submission(id2).unwrap().latency, None);
    }

    #[test]
    fn case_frames_use_journal_escaping() {
        let encoded = encode_case(7, &case("x", "f", TestStatus::Crash("bad\tnews\n".into())));
        assert!(!encoded.contains('\n'));
        let decoded = decode_payload(&encoded).expect("round trip");
        match decoded {
            StoreRecord::Case { id, result } => {
                assert_eq!(id, 7);
                assert_eq!(result.status, TestStatus::Crash("bad\tnews\n".into()));
            }
            _ => panic!("wrong kind"),
        }
    }
}
