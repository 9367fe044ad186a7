//! Durable campaign journal: a crash-safe, append-only write-ahead log of
//! per-case attempt records, and the J1 file layer it shares with the
//! harness's result store.
//!
//! The paper runs its suite as batch campaigns on Titan, where preemption
//! and node failure are routine. An interrupted campaign must not lose the
//! work it already did: every attempt and every finished case is appended to
//! a line-oriented journal *before* the campaign proceeds, each line
//! carrying a checksum so that a torn or corrupted tail (the signature of a
//! crash mid-write) is detected and cleanly discarded on replay.
//!
//! Format — one record per line:
//!
//! ```text
//! J1 <fnv1a64-hex16> <kind>\t<field>\t<field>…
//! ```
//!
//! * `J1` is the format magic/version.
//! * The checksum is FNV-1a 64 over the payload (everything after the
//!   second space), rendered as 16 lowercase hex digits.
//! * Fields are tab-separated; free-text fields are escaped (`\\`, `\t`,
//!   `\n`, `\r`) so every record stays on one line.
//!
//! Replay applies a strict **tail rule**: the first line that is torn (no
//! trailing newline), fails its checksum, or does not decode invalidates
//! itself and everything after it — a crash corrupts only the tail of an
//! append-only file, so everything before the damage is trustworthy.
//! Duplicate completion records (e.g. from a double-resumed campaign) keep
//! the first occurrence and count the rest as discarded.
//!
//! ## The J1 layer
//!
//! The journal and the result store keep their records in J1 files, and
//! this module owns the format for both: [`frame`] writes one line, and
//! [`J1File`] creates a file, appends frames, and reopens a file after one
//! tail-rule scan (shared with [`Replay::from_text`]) has replayed its
//! records through the caller's decoder and cut it to its trusted prefix.
//! A journal `done` row and a store `case` row share one codec for their
//! [`CaseResult`] fields ([`encode_result`] / [`decode_result`]).
//!
//! All I/O goes through the [`crate::vfs`] seam, so the crash-torture
//! harness can replay a campaign against a hostile disk. Records that
//! represent acknowledged work ([`JournalRecord::durable`]: case
//! completions, run metadata, node events) are `fsync`ed before `append`
//! returns; per-attempt chatter is only flushed (losing an attempt line
//! costs a re-run, not a verdict — the classic group-commit trade).
//!
//! The atomic temp-file + rename write helper every report/journal-adjacent
//! file in the workspace uses lives in [`crate::vfs`] and is re-exported
//! here as [`atomic_write`].

use crate::case::TestStatus;
use crate::harness::CaseResult;
use crate::stats::Certainty;
use crate::vfs::{self, RealFs, Vfs, VfsFile};
use acc_spec::{FeatureId, Language};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

pub use crate::vfs::{atomic_write, fsync_dir};

/// Format magic + version prefix of every journal line.
pub const MAGIC: &str = "J1";

/// FNV-1a 64-bit checksum over a payload string — cheap, dependency-free,
/// and more than strong enough to detect torn writes and bit flips in a
/// line-oriented log (this is corruption *detection*, not cryptography).
pub fn checksum(payload: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in payload.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Frame one payload as a complete J1 line: magic, checksum, payload and
/// the trailing newline.
pub fn frame(payload: &str) -> String {
    format!("{MAGIC} {:016x} {payload}\n", checksum(payload))
}

/// The payload of one J1 line (without its newline); `None` when the magic
/// is wrong or the checksum does not match.
fn unframe(line: &str) -> Option<&str> {
    let rest = line.strip_prefix(MAGIC)?.strip_prefix(' ')?;
    let (crc_hex, payload) = rest.split_once(' ')?;
    let crc = u64::from_str_radix(crc_hex, 16).ok()?;
    (crc == checksum(payload)).then_some(payload)
}

/// What the tail rule trusted of a J1 text.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Scan {
    /// Byte length of the trusted prefix.
    pub valid_bytes: usize,
    /// The final line was torn (no trailing newline) and discarded.
    pub torn: bool,
    /// Lines discarded as corrupt: the first line whose frame or payload
    /// does not decode, and every line after it.
    pub corrupt: usize,
}

/// Apply the tail rule to J1 text: decode each line's payload with
/// `decode` and hand the record to `apply`, stopping at the first torn or
/// corrupt line. Blank lines are kept and skipped; a line may end in
/// `\r\n`.
fn scan<R>(text: &str, decode: impl Fn(&str) -> Option<R>, mut apply: impl FnMut(R)) -> Scan {
    let mut scan = Scan::default();
    let mut lines = text.split_inclusive('\n');
    for raw in lines.by_ref() {
        if !raw.ends_with('\n') {
            // A torn tail: the crash happened mid-write.
            scan.torn = true;
            break;
        }
        let line = raw.trim_end_matches(['\n', '\r']);
        if !line.is_empty() {
            let Some(record) = unframe(line).and_then(&decode) else {
                scan.corrupt = 1 + lines.count();
                break;
            };
            apply(record);
        }
        scan.valid_bytes += raw.len();
    }
    scan
}

/// An open J1 file that takes whole frames at its end: the one write path
/// of the journal and the result store.
pub struct J1File {
    file: Box<dyn VfsFile>,
}

impl J1File {
    /// Create (truncating) `path` and fsync its directory, so the file's
    /// existence is as durable as the frames appended to it.
    pub fn create(vfs: &dyn Vfs, path: &Path) -> io::Result<Self> {
        let file = vfs.create(path)?;
        vfs.fsync_dir(vfs::containing_dir(path))?;
        Ok(J1File { file })
    }

    /// Open `path` for appending (a missing file reads as empty and is
    /// created), first handing each record the tail rule trusts to
    /// `apply`, decoded from its payload by `decode`. When the
    /// tail rule discarded anything, the file is atomically cut to its
    /// trusted prefix before it is reopened, so a new frame never lands
    /// behind a line the next scan would throw away.
    pub fn open<R>(
        vfs: &dyn Vfs,
        path: &Path,
        decode: impl Fn(&str) -> Option<R>,
        apply: impl FnMut(R),
    ) -> io::Result<(Self, Scan)> {
        let text = if vfs.exists(path) {
            // Lossy: a torn tail that cut a multibyte character must fall
            // to the tail rule, not make the whole file unreadable.
            vfs::read_lossy(vfs, path)?
        } else {
            String::new()
        };
        let scan = scan(&text, decode, apply);
        if scan.valid_bytes < text.len() {
            vfs::atomic_write_via(vfs, path, &text.as_bytes()[..scan.valid_bytes])?;
        }
        let file = vfs.open_append(path)?;
        vfs.fsync_dir(vfs::containing_dir(path))?;
        Ok((J1File { file }, scan))
    }

    /// Append whole frames, then fsync them when `durable` or only flush
    /// them otherwise.
    pub fn append(&mut self, frames: &str, durable: bool) -> io::Result<()> {
        self.file.write_all(frames.as_bytes())?;
        if durable {
            self.file.sync_all()
        } else {
            self.file.flush()
        }
    }
}

/// Escape a free-text field so it survives the tab-separated, line-oriented
/// format: `\` → `\\`, tab → `\t`, newline → `\n`, CR → `\r`.
///
/// Public because the harness result store writes its own record kinds in
/// the same `J1` framing and must stay byte-compatible with journal rows.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            other => out.push(other),
        }
    }
    out
}

/// Inverse of [`escape`]; `None` on a malformed escape sequence (which the
/// replay tail rule treats as corruption).
pub fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            't' => out.push('\t'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            _ => return None,
        }
    }
    Some(out)
}

/// Single-letter language code used in journal and store frames.
fn encode_language(lang: Language) -> &'static str {
    match lang {
        Language::C => "C",
        Language::Fortran => "F",
    }
}

/// Inverse of [`encode_language`].
fn decode_language(s: &str) -> Option<Language> {
    match s {
        "C" => Some(Language::C),
        "F" => Some(Language::Fortran),
        _ => None,
    }
}

/// Compact status code used in journal and store frames. A reason-less
/// skip stays the bare `SK` of the v1 format; a degradation reason rides
/// as `SK:<reason>`, mirroring the other message-carrying statuses.
pub fn encode_status(status: &TestStatus) -> String {
    match status {
        TestStatus::Pass => "P".to_string(),
        TestStatus::PassInconclusive => "P*".to_string(),
        TestStatus::CompileError(m) => format!("CE:{m}"),
        TestStatus::WrongResult => "WR".to_string(),
        TestStatus::Crash(m) => format!("X:{m}"),
        TestStatus::Timeout => "TO".to_string(),
        TestStatus::Infra(m) => format!("IN:{m}"),
        TestStatus::Flaky => "FL".to_string(),
        TestStatus::Skipped(None) => "SK".to_string(),
        TestStatus::Skipped(Some(m)) => format!("SK:{m}"),
    }
}

/// Inverse of [`encode_status`]; `None` means corruption (tail rule).
fn decode_status(s: &str) -> Option<TestStatus> {
    if let Some((kind, msg)) = s.split_once(':') {
        return match kind {
            "CE" => Some(TestStatus::CompileError(msg.to_string())),
            "X" => Some(TestStatus::Crash(msg.to_string())),
            "IN" => Some(TestStatus::Infra(msg.to_string())),
            "SK" => Some(TestStatus::Skipped(Some(msg.to_string()))),
            _ => None,
        };
    }
    match s {
        "P" => Some(TestStatus::Pass),
        "P*" => Some(TestStatus::PassInconclusive),
        "WR" => Some(TestStatus::WrongResult),
        "TO" => Some(TestStatus::Timeout),
        "FL" => Some(TestStatus::Flaky),
        "SK" => Some(TestStatus::Skipped(None)),
        _ => None,
    }
}

/// Certainty as `m:nf`, or `-` when absent.
fn encode_certainty(c: &Option<Certainty>) -> String {
    match c {
        Some(c) => format!("{}:{}", c.m, c.nf),
        None => "-".to_string(),
    }
}

/// Inverse of [`encode_certainty`]; `None` means corruption (tail rule).
fn decode_certainty(s: &str) -> Option<Option<Certainty>> {
    if s == "-" {
        return Some(None);
    }
    let (m, nf) = s.split_once(':')?;
    let m: u32 = m.parse().ok()?;
    let nf: u32 = nf.parse().ok()?;
    if m == 0 || nf > m {
        return None;
    }
    Some(Some(Certainty::new(m, nf)))
}

/// The [`CaseResult`] fields a journal `done` row and a store `case` row
/// share, tab-joined in their on-disk order: name, feature, language,
/// status, certainty, attempts. Both rows end with the functional source,
/// [`escape`]d.
pub fn encode_result(r: &CaseResult) -> String {
    format!(
        "{}\t{}\t{}\t{}\t{}\t{}",
        escape(&r.name),
        escape(r.feature.as_str()),
        encode_language(r.language),
        escape(&encode_status(&r.status)),
        encode_certainty(&r.certainty),
        r.attempts,
    )
}

/// Inverse of [`encode_result`], given its six fields and the row's
/// escaped functional source; `None` means corruption (tail rule).
pub fn decode_result(fields: &[&str], source: &str) -> Option<CaseResult> {
    let [name, feature, lang, status, cert, attempts] = fields else {
        return None;
    };
    Some(CaseResult {
        name: unescape(name)?,
        feature: FeatureId::new(unescape(feature)?),
        language: decode_language(lang)?,
        status: decode_status(&unescape(status)?)?,
        certainty: decode_certainty(cert)?,
        functional_source: unescape(source)?,
        attempts: attempts.parse().ok()?,
    })
}

fn encode_node(node: &Option<u32>) -> String {
    match node {
        Some(n) => n.to_string(),
        None => "-".to_string(),
    }
}

fn decode_node(s: &str) -> Option<Option<u32>> {
    if s == "-" {
        return Some(None);
    }
    s.parse().ok().map(Some)
}

/// One journal record. The variants cover the executor's per-case lifecycle
/// (start / attempt verdict / case completion) and the cluster sweep's
/// node-level events (loss, quarantine).
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// Identity of the run that wrote the journal — used by `--resume` to
    /// refuse a journal recorded for a different target.
    Meta {
        /// What was being validated (a compiler label or a sweep scope).
        scope: String,
        /// Total number of jobs the run schedules.
        total_jobs: usize,
        /// Languages in play, `+`-joined.
        languages: String,
    },
    /// An attempt is about to run. A start without a matching
    /// [`JournalRecord::CaseDone`] marks an in-flight case the crash
    /// interrupted; resume re-runs it.
    AttemptStart {
        /// Case name.
        name: String,
        /// Language variant.
        language: Language,
        /// Attempt ordinal (0-based).
        attempt: u32,
    },
    /// An attempt finished with a verdict (the per-attempt taxonomy row).
    Attempt {
        /// Case name.
        name: String,
        /// Language variant.
        language: Language,
        /// Attempt ordinal (0-based).
        attempt: u32,
        /// The attempt's classification.
        status: TestStatus,
        /// Wall-clock duration of the attempt in milliseconds.
        duration_ms: u64,
    },
    /// A case reached its final verdict; carries the complete result so
    /// resume can reproduce the report row without re-running the case.
    CaseDone {
        /// The final result row.
        result: CaseResult,
        /// Node that executed the case (cluster sweeps only).
        node: Option<u32>,
        /// Wall-clock duration across all attempts in milliseconds.
        duration_ms: u64,
    },
    /// A node went offline mid-run; its queued cases were reassigned.
    NodeLost {
        /// Node id.
        node: u32,
        /// Units the node had completed before dying.
        completed: usize,
        /// Queued units drained onto surviving nodes.
        reassigned: usize,
    },
    /// A node died often enough to be excluded from future scheduling.
    NodeQuarantined {
        /// Node id.
        node: u32,
        /// Total deaths observed across the journal's lifetime.
        deaths: u32,
    },
}

impl JournalRecord {
    /// The tab-separated payload (no magic, no checksum, no newline).
    fn payload(&self) -> String {
        match self {
            JournalRecord::Meta {
                scope,
                total_jobs,
                languages,
            } => format!("meta\t{}\t{}\t{}", escape(scope), total_jobs, escape(languages)),
            JournalRecord::AttemptStart {
                name,
                language,
                attempt,
            } => format!(
                "start\t{}\t{}\t{}",
                escape(name),
                encode_language(*language),
                attempt
            ),
            JournalRecord::Attempt {
                name,
                language,
                attempt,
                status,
                duration_ms,
            } => format!(
                "attempt\t{}\t{}\t{}\t{}\t{}",
                escape(name),
                encode_language(*language),
                attempt,
                escape(&encode_status(status)),
                duration_ms
            ),
            JournalRecord::CaseDone {
                result,
                node,
                duration_ms,
            } => format!(
                "done\t{}\t{}\t{}\t{}",
                encode_result(result),
                duration_ms,
                encode_node(node),
                escape(&result.functional_source)
            ),
            JournalRecord::NodeLost {
                node,
                completed,
                reassigned,
            } => format!("node-lost\t{node}\t{completed}\t{reassigned}"),
            JournalRecord::NodeQuarantined { node, deaths } => {
                format!("node-quarantined\t{node}\t{deaths}")
            }
        }
    }

    /// Whether losing this record after `append` returned would break a
    /// recovery invariant. Durable records (run identity, case verdicts,
    /// node events) are fsynced before `append` returns; attempt chatter
    /// is only flushed — losing it costs a re-run, never a verdict.
    pub fn durable(&self) -> bool {
        !matches!(
            self,
            JournalRecord::AttemptStart { .. } | JournalRecord::Attempt { .. }
        )
    }

    /// Encode as one complete journal line (magic, checksum, payload,
    /// trailing newline).
    pub fn encode(&self) -> String {
        frame(&self.payload())
    }

    /// Decode one payload. `None` means the line is corrupt — a payload
    /// that does not parse — and the replay tail rule applies.
    fn from_payload(payload: &str) -> Option<Self> {
        let mut fields = payload.split('\t');
        let kind = fields.next()?;
        let fields: Vec<&str> = fields.collect();
        match kind {
            "meta" => {
                let [scope, total, languages] = fields.as_slice() else {
                    return None;
                };
                Some(JournalRecord::Meta {
                    scope: unescape(scope)?,
                    total_jobs: total.parse().ok()?,
                    languages: unescape(languages)?,
                })
            }
            "start" => {
                let [name, lang, attempt] = fields.as_slice() else {
                    return None;
                };
                Some(JournalRecord::AttemptStart {
                    name: unescape(name)?,
                    language: decode_language(lang)?,
                    attempt: attempt.parse().ok()?,
                })
            }
            "attempt" => {
                let [name, lang, attempt, status, duration] = fields.as_slice() else {
                    return None;
                };
                Some(JournalRecord::Attempt {
                    name: unescape(name)?,
                    language: decode_language(lang)?,
                    attempt: attempt.parse().ok()?,
                    status: decode_status(&unescape(status)?)?,
                    duration_ms: duration.parse().ok()?,
                })
            }
            "done" => {
                let [result @ .., duration, node, source] = fields.as_slice() else {
                    return None;
                };
                Some(JournalRecord::CaseDone {
                    result: decode_result(result, source)?,
                    node: decode_node(node)?,
                    duration_ms: duration.parse().ok()?,
                })
            }
            "node-lost" => {
                let [node, completed, reassigned] = fields.as_slice() else {
                    return None;
                };
                Some(JournalRecord::NodeLost {
                    node: node.parse().ok()?,
                    completed: completed.parse().ok()?,
                    reassigned: reassigned.parse().ok()?,
                })
            }
            "node-quarantined" => {
                let [node, deaths] = fields.as_slice() else {
                    return None;
                };
                Some(JournalRecord::NodeQuarantined {
                    node: node.parse().ok()?,
                    deaths: deaths.parse().ok()?,
                })
            }
            _ => None,
        }
    }
}

/// Where the executor sends journal records. Implementations must be safe
/// to call from worker threads; append order across concurrent workers is
/// whatever the scheduler produced (replay keys records by case identity,
/// not position, so interleaving is harmless).
pub trait JournalSink: Send + Sync {
    /// Append one record. Best-effort: sinks swallow I/O errors (a
    /// campaign must not die because its journal disk filled up) but should
    /// retain the first error for the operator — see
    /// [`FileJournal::take_error`].
    fn append(&self, record: &JournalRecord);
}

struct FileJournalInner {
    file: J1File,
    error: Option<String>,
}

/// A file-backed journal sink: every record is appended and flushed so the
/// on-disk journal is never more than one in-flight line behind reality,
/// and [durable][JournalRecord::durable] records are fsynced before
/// `append` returns. All I/O goes through a [`Vfs`], so the crash-torture
/// harness can run the journal against a hostile disk.
pub struct FileJournal {
    path: PathBuf,
    inner: Mutex<FileJournalInner>,
}

impl FileJournal {
    /// Create (truncating) a fresh journal at `path`. The containing
    /// directory is fsynced so the journal's *existence* is as durable as
    /// its records.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::create_via(RealFs::shared(), path)
    }

    /// [`FileJournal::create`] on an injected filesystem.
    pub fn create_via(vfs: Arc<dyn Vfs>, path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref();
        Ok(Self::over(path, J1File::create(vfs.as_ref(), path)?))
    }

    fn over(path: &Path, file: J1File) -> Self {
        FileJournal {
            path: path.to_path_buf(),
            inner: Mutex::new(FileJournalInner { file, error: None }),
        }
    }

    /// The first append error, if any occurred (and clears it).
    pub fn take_error(&self) -> Option<String> {
        self.inner.lock().expect("journal lock").error.take()
    }
}

impl JournalSink for FileJournal {
    fn append(&self, record: &JournalRecord) {
        let mut inner = self.inner.lock().expect("journal lock");
        let result = inner.file.append(&record.encode(), record.durable());
        if let (Err(e), None) = (result, &inner.error) {
            inner.error = Some(format!("{}: {e}", self.path.display()));
        }
    }
}

/// An in-memory journal sink for tests: accumulates encoded lines exactly
/// as a [`FileJournal`] would write them.
#[derive(Default)]
pub struct MemoryJournal {
    text: Mutex<String>,
}

impl MemoryJournal {
    /// Empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated journal text.
    pub fn text(&self) -> String {
        self.text.lock().expect("journal lock").clone()
    }
}

impl JournalSink for MemoryJournal {
    fn append(&self, record: &JournalRecord) {
        self.text
            .lock()
            .expect("journal lock")
            .push_str(&record.encode());
    }
}

/// A completed case recovered from a journal: the final result row plus the
/// node that executed it (cluster sweeps only).
#[derive(Debug, Clone)]
pub struct CompletedCase {
    /// The recovered result.
    pub result: CaseResult,
    /// Executing node, when the journal came from a cluster sweep.
    pub node: Option<u32>,
}

/// The distilled state of a replayed journal: what completed, what was
/// in flight, which nodes died, and what had to be discarded.
#[derive(Debug, Default)]
pub struct Replay {
    /// First `meta` record: (scope, total jobs, languages).
    pub meta: Option<(String, usize, String)>,
    /// Completed cases keyed by (name, language) — these are skipped on
    /// resume and their journaled rows reused verbatim.
    pub completed: HashMap<(String, Language), CompletedCase>,
    /// Cases with a start record but no completion — interrupted in flight;
    /// resume re-runs them from scratch.
    pub in_flight: BTreeSet<(String, Language)>,
    /// Death count per node across the journal's lifetime.
    pub node_deaths: BTreeMap<u32, u32>,
    /// Nodes explicitly quarantined by a record.
    pub quarantined: BTreeSet<u32>,
    /// Valid records applied.
    pub records: usize,
    /// Duplicate completion records discarded (first occurrence wins).
    pub duplicates_discarded: usize,
    /// Lines discarded by the tail rule (the first corrupt line and
    /// everything after it).
    pub corrupt_discarded: usize,
    /// Whether the final line was torn (no trailing newline) and discarded.
    pub torn_tail_discarded: bool,
    /// Byte length of the trusted prefix. Resume cuts the file to this
    /// length before appending, so new records never land behind a
    /// poisoned tail (where the tail rule would silently discard them on
    /// the next replay).
    pub valid_bytes: usize,
}

/// A journal to replay must exist: resuming a missing one is an operator
/// error, not an empty campaign.
fn must_exist(vfs: &dyn Vfs, path: &Path) -> io::Result<()> {
    if vfs.exists(path) {
        return Ok(());
    }
    Err(io::Error::new(
        io::ErrorKind::NotFound,
        format!("no journal at {}", path.display()),
    ))
}

impl Replay {
    /// Replay journal text. Never fails: corruption shrinks the usable
    /// prefix instead of aborting the resume.
    pub fn from_text(text: &str) -> Replay {
        let mut replay = Replay::default();
        let kept = scan(text, JournalRecord::from_payload, |r| replay.apply(r));
        replay.kept(kept)
    }

    /// The replay of verdicts recorded somewhere other than a journal
    /// (the campaign server's result store): each row completes its job,
    /// and a repeated job keeps its first row.
    pub fn from_results(rows: impl IntoIterator<Item = CaseResult>) -> Replay {
        let mut replay = Replay::default();
        for result in rows {
            replay.apply(JournalRecord::CaseDone {
                result,
                node: None,
                duration_ms: 0,
            });
        }
        replay
    }

    /// Note what the tail rule kept and discarded.
    fn kept(mut self, scan: Scan) -> Replay {
        self.valid_bytes = scan.valid_bytes;
        self.torn_tail_discarded = scan.torn;
        self.corrupt_discarded = scan.corrupt;
        self
    }

    /// Replay a journal file.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Replay> {
        Replay::load_via(&RealFs, path)
    }

    /// [`Replay::load`] on an injected filesystem.
    pub fn load_via(vfs: &dyn Vfs, path: impl AsRef<Path>) -> io::Result<Replay> {
        let path = path.as_ref();
        must_exist(vfs, path)?;
        Ok(Replay::from_text(&vfs::read_lossy(vfs, path)?))
    }

    /// Open a journal for resumption: replay it, cut it to its trusted
    /// prefix if the tail was torn or corrupt (so freshly appended records
    /// never sit behind a line the tail rule would discard on the next
    /// replay), and reopen it for appending.
    pub fn open_resume(path: impl AsRef<Path>) -> io::Result<(Replay, FileJournal)> {
        Replay::open_resume_via(RealFs::shared(), path)
    }

    /// [`Replay::open_resume`] on an injected filesystem.
    pub fn open_resume_via(
        vfs: Arc<dyn Vfs>,
        path: impl AsRef<Path>,
    ) -> io::Result<(Replay, FileJournal)> {
        let path = path.as_ref();
        must_exist(vfs.as_ref(), path)?;
        let mut replay = Replay::default();
        let (file, kept) = J1File::open(vfs.as_ref(), path, JournalRecord::from_payload, |r| {
            replay.apply(r)
        })?;
        Ok((replay.kept(kept), FileJournal::over(path, file)))
    }

    fn apply(&mut self, record: JournalRecord) {
        self.records += 1;
        match record {
            JournalRecord::Meta {
                scope,
                total_jobs,
                languages,
            } => {
                if self.meta.is_none() {
                    self.meta = Some((scope, total_jobs, languages));
                }
            }
            JournalRecord::AttemptStart { name, language, .. } => {
                if !self.completed.contains_key(&(name.clone(), language)) {
                    self.in_flight.insert((name, language));
                }
            }
            JournalRecord::Attempt { .. } => {}
            JournalRecord::CaseDone { result, node, .. } => {
                let key = (result.name.clone(), result.language);
                self.in_flight.remove(&key);
                if let std::collections::hash_map::Entry::Vacant(slot) = self.completed.entry(key) {
                    slot.insert(CompletedCase { result, node });
                } else {
                    self.duplicates_discarded += 1;
                }
            }
            JournalRecord::NodeLost { node, .. } => {
                *self.node_deaths.entry(node).or_insert(0) += 1;
            }
            JournalRecord::NodeQuarantined { node, .. } => {
                self.quarantined.insert(node);
            }
        }
    }

    /// Completed-case count.
    pub fn completed_count(&self) -> usize {
        self.completed.len()
    }

    /// One-line operator summary: what was recovered and what was thrown
    /// away (the resume path prints this so discarded work is never
    /// silent).
    pub fn summary(&self) -> String {
        let mut s = format!(
            "journal replay: {} record(s), {} case(s) complete, {} in flight",
            self.records,
            self.completed.len(),
            self.in_flight.len()
        );
        if !self.node_deaths.is_empty() {
            let deaths: Vec<String> = self
                .node_deaths
                .iter()
                .map(|(n, c)| format!("nid{n:05}×{c}"))
                .collect();
            let _ = write!(s, ", node deaths: {}", deaths.join(" "));
        }
        let mut discarded = Vec::new();
        if self.torn_tail_discarded {
            discarded.push("a torn tail line".to_string());
        }
        if self.corrupt_discarded > 0 {
            discarded.push(format!("{} corrupt line(s)", self.corrupt_discarded));
        }
        if self.duplicates_discarded > 0 {
            discarded.push(format!(
                "{} duplicate record(s)",
                self.duplicates_discarded
            ));
        }
        if !discarded.is_empty() {
            let _ = write!(s, "; discarded {}", discarded.join(", "));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::FaultFs;

    fn sample_result(name: &str, status: TestStatus) -> CaseResult {
        CaseResult {
            name: name.to_string(),
            feature: FeatureId::from(name),
            language: Language::C,
            status,
            certainty: Some(Certainty::new(3, 3)),
            functional_source: "int main(void) {\n\treturn 1;\n}\n".to_string(),
            attempts: 2,
        }
    }

    fn done(name: &str, status: TestStatus) -> JournalRecord {
        JournalRecord::CaseDone {
            result: sample_result(name, status),
            node: Some(7),
            duration_ms: 12,
        }
    }

    #[test]
    fn every_record_kind_round_trips() {
        let records = vec![
            JournalRecord::Meta {
                scope: "Cray 8.2.0".to_string(),
                total_jobs: 42,
                languages: "C+Fortran".to_string(),
            },
            JournalRecord::AttemptStart {
                name: "loop".to_string(),
                language: Language::Fortran,
                attempt: 1,
            },
            JournalRecord::Attempt {
                name: "loop".to_string(),
                language: Language::C,
                attempt: 0,
                status: TestStatus::Infra("panic: worker\tdied\nbadly".to_string()),
                duration_ms: 99,
            },
            done("data.copy", TestStatus::Pass),
            done("x", TestStatus::CompileError("unexpected `:`".to_string())),
            JournalRecord::NodeLost {
                node: 3,
                completed: 5,
                reassigned: 9,
            },
            JournalRecord::NodeQuarantined { node: 3, deaths: 2 },
        ];
        for record in records {
            let line = record.encode();
            assert!(line.ends_with('\n'));
            assert_eq!(
                line.matches('\n').count(),
                1,
                "escaping keeps records one line: {line:?}"
            );
            let decoded = unframe(line.trim_end_matches('\n'))
                .and_then(JournalRecord::from_payload)
                .unwrap_or_else(|| panic!("decode failed: {line:?}"));
            assert_eq!(decoded, record);
        }
    }

    #[test]
    fn skipped_reason_round_trips_with_non_ascii() {
        // Degradation reasons are operator strings — they can carry
        // diacritics, CJK, emoji, and embedded separators.
        let reasons = [
            "gerät überhitzt",
            "設備故障: ノード落ち",
            "node died 💥 (retry\tlater\n)",
            "Кластер недоступен — очередь переполнена",
        ];
        for reason in reasons {
            let record = done("a", TestStatus::Skipped(Some(reason.to_string())));
            let line = record.encode();
            assert_eq!(line.matches('\n').count(), 1, "stays one line: {line:?}");
            let decoded = unframe(line.trim_end_matches('\n'))
                .and_then(JournalRecord::from_payload)
                .unwrap_or_else(|| panic!("decode failed for reason {reason:?}"));
            assert_eq!(decoded, record);
            // And through a full file replay, not just line codec.
            let replay = Replay::from_text(&line);
            let kept = &replay.completed[&("a".to_string(), Language::C)];
            assert_eq!(
                kept.result.status,
                TestStatus::Skipped(Some(reason.to_string()))
            );
        }
    }

    #[test]
    fn replay_collects_completed_and_in_flight() {
        let journal = MemoryJournal::new();
        journal.append(&JournalRecord::Meta {
            scope: "ref".to_string(),
            total_jobs: 3,
            languages: "C".to_string(),
        });
        journal.append(&JournalRecord::AttemptStart {
            name: "a".to_string(),
            language: Language::C,
            attempt: 0,
        });
        journal.append(&done("a", TestStatus::Pass));
        journal.append(&JournalRecord::AttemptStart {
            name: "b".to_string(),
            language: Language::C,
            attempt: 0,
        });
        let replay = Replay::from_text(&journal.text());
        assert_eq!(replay.completed_count(), 1);
        assert!(replay
            .completed
            .contains_key(&("a".to_string(), Language::C)));
        assert_eq!(replay.in_flight.len(), 1, "b was interrupted in flight");
        assert_eq!(replay.meta.as_ref().unwrap().0, "ref");
        assert!(!replay.torn_tail_discarded);
        assert_eq!(replay.corrupt_discarded, 0);
    }

    #[test]
    fn torn_tail_is_discarded_cleanly() {
        let mut text = done("a", TestStatus::Pass).encode();
        let torn = done("b", TestStatus::Pass).encode();
        text.push_str(&torn[..torn.len() - 7]); // crash mid-write: no newline
        let replay = Replay::from_text(&text);
        assert_eq!(replay.completed_count(), 1, "prefix survives");
        assert!(replay.torn_tail_discarded);
        assert!(replay.summary().contains("torn tail"), "{}", replay.summary());
    }

    #[test]
    fn checksum_flip_discards_the_tail() {
        let good = done("a", TestStatus::Pass).encode();
        // Flip one checksum hex digit.
        let mut flip = done("b", TestStatus::Pass).encode().into_bytes();
        flip[3] = if flip[3] == b'0' { b'1' } else { b'0' };
        let bad = String::from_utf8(flip).unwrap();
        let after = done("c", TestStatus::Pass).encode();
        let replay = Replay::from_text(&format!("{good}{bad}{after}"));
        assert_eq!(replay.completed_count(), 1, "only the pre-corruption prefix");
        assert_eq!(replay.corrupt_discarded, 2, "bad line + everything after");
        assert!(!replay.torn_tail_discarded);
    }

    #[test]
    fn garbage_payload_with_valid_frame_is_rejected() {
        let replay = Replay::from_text(&frame("done\tonly\ttwo"));
        assert_eq!(replay.records, 0);
        assert_eq!(replay.corrupt_discarded, 1);
    }

    #[test]
    fn duplicate_completions_keep_first_and_are_counted() {
        let first = done("a", TestStatus::Pass).encode();
        let dup = done("a", TestStatus::WrongResult).encode();
        let replay = Replay::from_text(&format!("{first}{dup}{dup}"));
        assert_eq!(replay.completed_count(), 1);
        assert_eq!(replay.duplicates_discarded, 2);
        let kept = &replay.completed[&("a".to_string(), Language::C)];
        assert_eq!(kept.result.status, TestStatus::Pass, "first record wins");
        assert!(replay.summary().contains("2 duplicate"), "{}", replay.summary());
    }

    #[test]
    fn node_events_accumulate() {
        let mut text = String::new();
        for _ in 0..2 {
            text.push_str(
                &JournalRecord::NodeLost {
                    node: 5,
                    completed: 1,
                    reassigned: 3,
                }
                .encode(),
            );
        }
        text.push_str(&JournalRecord::NodeQuarantined { node: 5, deaths: 2 }.encode());
        let replay = Replay::from_text(&text);
        assert_eq!(replay.node_deaths.get(&5), Some(&2));
        assert!(replay.quarantined.contains(&5));
        assert!(replay.summary().contains("nid00005×2"), "{}", replay.summary());
    }

    #[test]
    fn atomic_write_replaces_contents() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("accvv-atomic-{}.txt", std::process::id()));
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        // No temp droppings left behind.
        let tmp = path.with_file_name(format!(
            "{}.tmp{}",
            path.file_name().unwrap().to_string_lossy(),
            std::process::id()
        ));
        assert!(!tmp.exists());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_text_replays_to_nothing() {
        let replay = Replay::from_text("");
        assert_eq!(replay.records, 0);
        assert_eq!(replay.completed_count(), 0);
        assert!(!replay.torn_tail_discarded);
    }

    #[test]
    fn durable_records_are_synced_before_append_returns() {
        let fs = FaultFs::new(1);
        let journal =
            FileJournal::create_via(Arc::new(fs.clone()), "camp.journal").unwrap();
        journal.append(&done("a", TestStatus::Pass));
        let durable = fs.durable_contents("camp.journal").expect("name durable");
        assert_eq!(
            String::from_utf8(durable).unwrap(),
            done("a", TestStatus::Pass).encode(),
            "a CaseDone verdict must be on disk when append returns"
        );
        // Attempt chatter is flushed but not synced: visible live, not
        // yet guaranteed durable.
        journal.append(&JournalRecord::AttemptStart {
            name: "b".to_string(),
            language: Language::C,
            attempt: 0,
        });
        let durable = fs.durable_contents("camp.journal").unwrap();
        let live = fs.live_contents("camp.journal").unwrap();
        assert!(live.len() > durable.len(), "start record is not fsynced");
        assert!(journal.take_error().is_none());
    }

    #[test]
    fn tail_rule_table() {
        // The one scan behind journal replay and store recovery. Records
        // here are payloads that start with "ok"; anything else is a
        // valid frame that does not decode.
        let ok = |n: u32| frame(&format!("ok {n}"));
        let mut flipped = ok(2).into_bytes();
        flipped[3] = if flipped[3] == b'0' { b'1' } else { b'0' };
        let flipped = String::from_utf8(flipped).unwrap();
        let accented = frame("ok é");
        let cut_at = accented.find('é').unwrap() + 1; // inside the 2-byte char
        let torn_char = |rest: &str| {
            let mut bytes = ok(1).into_bytes();
            bytes.extend_from_slice(&accented.as_bytes()[..cut_at]);
            bytes.extend_from_slice(rest.as_bytes());
            String::from_utf8_lossy(&bytes).into_owned()
        };
        let expect = |valid_bytes, torn, corrupt| Scan {
            valid_bytes,
            torn,
            corrupt,
        };
        let table: Vec<(&str, String, usize, Scan)> = vec![
            (
                "clean",
                format!("{}{}", ok(1), ok(2)),
                2,
                expect(ok(1).len() + ok(2).len(), false, 0),
            ),
            (
                "torn last line",
                format!("{}{}", ok(1), &ok(2)[..10]),
                1,
                expect(ok(1).len(), true, 0),
            ),
            (
                "checksum flip mid-file",
                format!("{}{flipped}{}", ok(1), ok(3)),
                1,
                expect(ok(1).len(), false, 2),
            ),
            (
                "valid frame, payload does not decode",
                format!("{}{}{}", ok(1), frame("bogus"), ok(3)),
                1,
                expect(ok(1).len(), false, 2),
            ),
            (
                "blank lines and CRLF endings",
                format!("\n{}\r\n\r\n{}", ok(1).trim_end(), ok(2)),
                2,
                expect(ok(1).len() + ok(2).len() + 4, false, 0),
            ),
            (
                "multibyte character torn at the end",
                torn_char(""),
                1,
                expect(ok(1).len(), true, 0),
            ),
            (
                "multibyte character torn mid-file",
                torn_char(&format!("\n{}", ok(3))),
                1,
                expect(ok(1).len(), false, 2),
            ),
        ];
        for (name, text, records, want) in table {
            let mut applied = 0;
            let decode = |p: &str| p.strip_prefix("ok ").map(str::to_string);
            let got = scan(&text, decode, |_| applied += 1);
            assert_eq!((applied, got), (records, want), "{name}");
            let prefix = &text.as_bytes()[..got.valid_bytes];
            assert!(prefix.is_empty() || prefix.ends_with(b"\n"), "{name}");
        }
    }

    #[test]
    fn replaying_a_missing_journal_is_not_found() {
        let vfs: Arc<dyn Vfs> = Arc::new(FaultFs::new(3));
        for err in [
            Replay::load_via(vfs.as_ref(), "nope.journal").unwrap_err(),
            Replay::open_resume_via(Arc::clone(&vfs), "nope.journal")
                .err()
                .unwrap(),
        ] {
            assert_eq!(err.kind(), io::ErrorKind::NotFound);
        }
        assert!(
            !vfs.exists(Path::new("nope.journal")),
            "resume creates nothing"
        );
    }
}
