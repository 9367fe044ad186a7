//! Injectable virtual filesystem: the seam every durability-critical write
//! in the workspace goes through.
//!
//! The journal, the result store, report/tracker/bench atomic writes and
//! the telemetry sinks all promise crash safety — but a promise about
//! crashes can only be *proved* by crashing, and a promise about ENOSPC
//! only by running out of space. This module makes both injectable:
//!
//! * [`RealFs`] — a passthrough to `std::fs`, used by every production
//!   entry point. Identical syscall sequence to the pre-VFS code.
//! * [`FaultFs`] — a deterministic, seeded, in-memory filesystem that
//!   models the hostile machine: short/torn writes at byte granularity,
//!   `EIO`/`ENOSPC` on any operation, **fsync failures with correct
//!   lost-buffered-data semantics** (a failed fsync drops the unsynced
//!   buffer — retrying the fsync cannot resurrect it, exactly the
//!   POSIX/fsyncgate behavior), and a simulated process crash after the
//!   Nth filesystem operation.
//!
//! The crash model separates three layers, like a real kernel:
//!
//! 1. **File contents** — each file holds `synced` bytes (durable) and
//!    `unsynced` bytes (page cache). `sync_all` promotes unsynced →
//!    synced. At crash, a *seeded prefix* of the unsynced bytes survives
//!    (the OS may have written back part of the dirty pages) — this is
//!    where torn frames come from.
//! 2. **Namespace** — creates, renames and removes update the live
//!    namespace immediately but only become durable when the containing
//!    directory is fsynced. At crash, a seeded *prefix* of the pending
//!    namespace operations survives (metadata can hit the disk early, but
//!    never out of order).
//! 3. **Crash** — after the configured operation count, every subsequent
//!    operation fails with a "simulated crash" error and the durable
//!    image is frozen. [`FaultFs::crash_image`] hands it to the torture
//!    harness, which "reboots" by building a fresh [`FaultFs`] from the
//!    image and re-running recovery.
//!
//! [`atomic_write`] / [`atomic_write_via`] (temp file + sync + rename +
//! parent-directory fsync) live here so both the real and the injected
//! filesystem use the exact same discipline.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{self, Read as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// One open file handle.
pub trait VfsFile: Send {
    /// Append/write the whole buffer (files are only ever written
    /// sequentially in this workspace).
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Flush userspace buffers (no durability promise — `std::fs::File`'s
    /// `flush` is a no-op too).
    fn flush(&mut self) -> io::Result<()>;
    /// fsync: promote everything written so far to durable storage. On
    /// failure the caller MUST treat the unsynced data as lost — see the
    /// module docs on fsync-poison semantics.
    fn sync_all(&mut self) -> io::Result<()>;
}

/// The filesystem operations the durability layer needs. Implementations
/// must be callable from worker threads.
pub trait Vfs: Send + Sync {
    /// Create (truncating) a file.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Open a file for appending, creating it if missing.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Read a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Atomically rename `from` over `to` (same directory in practice).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Unlink a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// fsync a directory so entries created/renamed in it survive a crash.
    fn fsync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Files (not directories) directly inside `dir`. Missing directories
    /// list as empty.
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;
    /// Create a directory and its ancestors.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Does the path currently exist (file or directory)?
    fn exists(&self, path: &Path) -> bool;
}

/// Read a whole file as UTF-8 text through a [`Vfs`].
pub fn read_to_string(vfs: &dyn Vfs, path: &Path) -> io::Result<String> {
    String::from_utf8(vfs.read(path)?)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file is not UTF-8"))
}

/// Read a file as text, replacing invalid UTF-8 instead of failing.
///
/// A torn write can cut a multibyte character in half; the durability
/// layers must treat that as line-level corruption (rejected by the frame
/// checksum, discarded by the tail rule) — not as an unreadable file that
/// takes every good record before it hostage. Replacement characters only
/// ever appear at or after the first corrupt byte, so byte offsets within
/// the clean prefix are identical to the on-disk offsets.
pub fn read_lossy(vfs: &dyn Vfs, path: &Path) -> io::Result<String> {
    Ok(String::from_utf8_lossy(&vfs.read(path)?).into_owned())
}

/// The directory that contains `path`, for durability syncs: its parent,
/// or `.` when the path is a bare file name (whose parent renders as the
/// empty string, which `File::open` rejects).
pub fn containing_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    }
}

/// Fsync a directory so a just-created or just-renamed entry inside it
/// survives power failure. `sync_all` on the *file* makes the bytes
/// durable; only an fsync of the *directory* makes the name durable — a
/// rename without it can vanish on crash, resurrecting the old contents.
/// No-op on non-Unix targets, where directory handles can't be synced.
pub fn fsync_dir(dir: impl AsRef<Path>) -> io::Result<()> {
    let dir = dir.as_ref();
    let dir = if dir.as_os_str().is_empty() {
        Path::new(".")
    } else {
        dir
    };
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
        Ok(())
    }
}

/// Crash-safe file write through a [`Vfs`]: write the full contents to a
/// temp file in the destination directory, sync it, atomically rename it
/// over `path`, then fsync the directory so the rename itself is durable.
/// A crash at any point leaves either the old file or the new one — never
/// a half-written hybrid, and never a rename that silently rolls back.
pub fn atomic_write_via(vfs: &dyn Vfs, path: impl AsRef<Path>, contents: &[u8]) -> io::Result<()> {
    let path = path.as_ref();
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(format!(".tmp{}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    let result = (|| {
        let mut f = vfs.create(&tmp)?;
        f.write_all(contents)?;
        f.sync_all()?;
        vfs.rename(&tmp, path)?;
        vfs.fsync_dir(containing_dir(path))
    })();
    if result.is_err() {
        let _ = vfs.remove_file(&tmp);
    }
    result
}

/// [`atomic_write_via`] on the real filesystem.
pub fn atomic_write(path: impl AsRef<Path>, contents: &[u8]) -> io::Result<()> {
    atomic_write_via(&RealFs, path, contents)
}

// ---------------------------------------------------------------------------
// RealFs
// ---------------------------------------------------------------------------

/// Passthrough to `std::fs` — the production filesystem.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealFs;

impl RealFs {
    /// A shared handle (most call sites take `Arc<dyn Vfs>`).
    pub fn shared() -> Arc<dyn Vfs> {
        Arc::new(RealFs)
    }
}

impl VfsFile for File {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        io::Write::write_all(self, buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        io::Write::flush(self)
    }
    fn sync_all(&mut self) -> io::Result<()> {
        File::sync_all(self)
    }
}

impl Vfs for RealFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(File::create(path)?))
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(
            OpenOptions::new().create(true).append(true).open(path)?,
        ))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut buf = Vec::new();
        File::open(path)?.read_to_end(&mut buf)?;
        Ok(buf)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        fsync_dir(dir)
    }
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let entries = match std::fs::read_dir(dir) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut out = Vec::new();
        for entry in entries {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                out.push(entry.path());
            }
        }
        Ok(out)
    }
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }
    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

// ---------------------------------------------------------------------------
// FaultFs
// ---------------------------------------------------------------------------

/// The error class an injected fault produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Generic I/O error (bad sector, yanked disk).
    Eio,
    /// Out of space.
    Enospc,
}

impl FaultKind {
    fn to_error(self) -> io::Error {
        match self {
            FaultKind::Eio => io::Error::other("injected EIO"),
            FaultKind::Enospc => io::Error::new(io::ErrorKind::StorageFull, "injected ENOSPC"),
        }
    }
}

/// Which filesystem operation an injection matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `create`
    Create,
    /// `open_append`
    Append,
    /// `read` / `read_dir`
    Read,
    /// a `write_all` on an open handle
    Write,
    /// an `sync_all` on an open handle
    Sync,
    /// `rename`
    Rename,
    /// `remove_file`
    Remove,
    /// `fsync_dir`
    SyncDir,
    /// `create_dir_all`
    Mkdir,
}

/// One injected fault: fires on an absolute operation index, or on every
/// operation of a kind whose path contains a substring (up to `times`).
#[derive(Debug, Clone)]
pub struct Injection {
    /// Absolute operation index to fire at (1-based), if index-targeted.
    pub at_op: Option<u64>,
    /// Operation kind filter, if kind-targeted.
    pub kind: Option<OpKind>,
    /// Path substring filter (applies with `kind`).
    pub path_contains: Option<String>,
    /// Error to produce.
    pub error: FaultKind,
    /// How many times the injection may still fire.
    pub times: u64,
}

impl Injection {
    /// Fail operation number `op` (1-based) with `error`.
    pub fn at(op: u64, error: FaultKind) -> Self {
        Injection {
            at_op: Some(op),
            kind: None,
            path_contains: None,
            error,
            times: 1,
        }
    }

    /// Fail every `kind` operation on a path containing `substr`.
    pub fn on(kind: OpKind, substr: impl Into<String>, error: FaultKind) -> Self {
        Injection {
            at_op: None,
            kind: Some(kind),
            path_contains: Some(substr.into()),
            error,
            times: u64::MAX,
        }
    }

    /// Limit how many times the injection fires.
    pub fn times(mut self, n: u64) -> Self {
        self.times = n;
        self
    }

    fn matches(&self, op: u64, kind: OpKind, path: &Path) -> bool {
        if self.times == 0 {
            return false;
        }
        if let Some(at) = self.at_op {
            return at == op;
        }
        if self.kind.is_some_and(|k| k != kind) {
            return false;
        }
        match &self.path_contains {
            Some(s) => path.to_string_lossy().contains(s.as_str()),
            None => true,
        }
    }
}

/// What the disk holds after a crash: the durable view of every file, plus
/// the directories that existed. This is what a reboot starts from.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiskImage {
    /// Durable file contents by path.
    pub files: BTreeMap<PathBuf, Vec<u8>>,
    /// Directories.
    pub dirs: BTreeSet<PathBuf>,
}

impl DiskImage {
    /// Durable contents of one file.
    pub fn get(&self, path: impl AsRef<Path>) -> Option<&[u8]> {
        self.files.get(&norm(path.as_ref())).map(Vec::as_slice)
    }

    /// Total durable bytes across all files.
    pub fn total_bytes(&self) -> usize {
        self.files.values().map(Vec::len).sum()
    }
}

#[derive(Debug, Default, Clone)]
struct FileData {
    synced: Vec<u8>,
    unsynced: Vec<u8>,
    poisoned: bool,
}

#[derive(Debug, Clone)]
enum NsOp {
    Put(PathBuf, u64),
    Remove(PathBuf),
    Rename(PathBuf, PathBuf, u64),
}

impl NsOp {
    /// The directory whose fsync makes this op durable.
    fn dirs(&self) -> Vec<PathBuf> {
        match self {
            NsOp::Put(p, _) | NsOp::Remove(p) => vec![norm(containing_dir(p))],
            NsOp::Rename(from, to, _) => {
                let a = norm(containing_dir(from));
                let b = norm(containing_dir(to));
                if a == b {
                    vec![a]
                } else {
                    vec![a, b]
                }
            }
        }
    }

    fn apply(&self, ns: &mut BTreeMap<PathBuf, u64>) {
        match self {
            NsOp::Put(p, ino) => {
                ns.insert(p.clone(), *ino);
            }
            NsOp::Remove(p) => {
                ns.remove(p);
            }
            NsOp::Rename(from, to, ino) => {
                ns.remove(from);
                ns.insert(to.clone(), *ino);
            }
        }
    }
}

struct FaultState {
    files: HashMap<u64, FileData>,
    next_ino: u64,
    /// Live namespace (what the running process sees).
    ns: BTreeMap<PathBuf, u64>,
    /// Durable namespace (what survives a crash before pending ops apply).
    durable_ns: BTreeMap<PathBuf, u64>,
    /// Namespace ops not yet made durable by a directory fsync, in order.
    pending: Vec<NsOp>,
    dirs: BTreeSet<PathBuf>,
    ops: u64,
    crash_after: Option<u64>,
    crashed: bool,
    image: Option<DiskImage>,
    injections: Vec<Injection>,
    seed: u64,
}

/// The deterministic hostile filesystem. See the module docs for the crash
/// model. All behavior is a pure function of the seed, the configured
/// faults, and the operation sequence the workload issues. Clones share
/// the same underlying disk, like two handles on one machine.
#[derive(Clone)]
pub struct FaultFs {
    state: Arc<Mutex<FaultState>>,
}

/// Strip a leading `./` so `./x` and `x` are the same file.
fn norm(path: &Path) -> PathBuf {
    match path.strip_prefix("./") {
        Ok(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => path.to_path_buf(),
    }
}

/// SplitMix64 — the workspace's standard seeded generator core.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn crash_error() -> io::Error {
    io::Error::other("simulated crash: filesystem is gone")
}

impl FaultState {
    /// Gatekeeper for every operation: trip the crash if its budget is
    /// exhausted, count the op, then fire any matching injection.
    fn tick(&mut self, kind: OpKind, path: &Path) -> io::Result<()> {
        if self.crashed {
            return Err(crash_error());
        }
        if let Some(n) = self.crash_after {
            if self.ops >= n {
                self.crash_now();
                return Err(crash_error());
            }
        }
        self.ops += 1;
        let op = self.ops;
        for inj in &mut self.injections {
            if inj.matches(op, kind, path) {
                if inj.times != u64::MAX {
                    inj.times -= 1;
                }
                let error = inj.error;
                // fsync failure semantics: the buffered data is LOST, not
                // parked for a retry. Subsequent fsyncs succeed vacuously
                // but can never resurrect the dropped bytes.
                if kind == OpKind::Sync {
                    if let Some(&ino) = self.ns.get(&norm(path)) {
                        if let Some(f) = self.files.get_mut(&ino) {
                            f.unsynced.clear();
                            f.poisoned = true;
                        }
                    }
                }
                return Err(error.to_error());
            }
        }
        Ok(())
    }

    /// Freeze the durable image: a seeded prefix of the pending namespace
    /// ops survives, and each surviving file keeps its synced bytes plus a
    /// seeded prefix of its unsynced bytes (the torn write).
    fn crash_now(&mut self) {
        self.crashed = true;
        let mut rng = self.seed ^ self.ops.wrapping_mul(0x2545_f491_4f6c_dd1d);
        let mut durable = self.durable_ns.clone();
        let survivors = (splitmix(&mut rng) % (self.pending.len() as u64 + 1)) as usize;
        for op in self.pending.iter().take(survivors) {
            op.apply(&mut durable);
        }
        let mut files = BTreeMap::new();
        for (path, ino) in &durable {
            let Some(f) = self.files.get(ino) else {
                continue;
            };
            let keep = (splitmix(&mut rng) % (f.unsynced.len() as u64 + 1)) as usize;
            let mut contents = f.synced.clone();
            contents.extend_from_slice(&f.unsynced[..keep]);
            files.insert(path.clone(), contents);
        }
        self.image = Some(DiskImage {
            files,
            dirs: self.dirs.clone(),
        });
    }
}

impl FaultFs {
    /// An empty hostile filesystem with no faults configured.
    pub fn new(seed: u64) -> Self {
        FaultFs {
            state: Arc::new(Mutex::new(FaultState {
                files: HashMap::new(),
                next_ino: 1,
                ns: BTreeMap::new(),
                durable_ns: BTreeMap::new(),
                pending: Vec::new(),
                dirs: BTreeSet::new(),
                ops: 0,
                crash_after: None,
                crashed: false,
                image: None,
                injections: Vec::new(),
                seed,
            })),
        }
    }

    /// Rebuild a filesystem from a crash image ("reboot the machine"): all
    /// files fully synced, namespace durable, no faults configured.
    pub fn from_image(image: &DiskImage, seed: u64) -> Self {
        let fs = FaultFs::new(seed);
        {
            let mut st = fs.state.lock().expect("faultfs lock");
            st.dirs = image.dirs.clone();
            for (path, contents) in &image.files {
                let ino = st.next_ino;
                st.next_ino += 1;
                st.files.insert(
                    ino,
                    FileData {
                        synced: contents.clone(),
                        unsynced: Vec::new(),
                        poisoned: false,
                    },
                );
                st.ns.insert(path.clone(), ino);
                st.durable_ns.insert(path.clone(), ino);
            }
        }
        fs
    }

    /// Crash the process after `n` filesystem operations have completed
    /// (operation `n+1` and everything after it fails).
    pub fn with_crash_after(self, n: u64) -> Self {
        self.state.lock().expect("faultfs lock").crash_after = Some(n);
        self
    }

    /// Add a fault injection.
    pub fn with_injection(self, inj: Injection) -> Self {
        self.state
            .lock()
            .expect("faultfs lock")
            .injections
            .push(inj);
        self
    }

    /// Operations completed so far.
    pub fn op_count(&self) -> u64 {
        self.state.lock().expect("faultfs lock").ops
    }

    /// Has the simulated crash fired?
    pub fn crashed(&self) -> bool {
        self.state.lock().expect("faultfs lock").crashed
    }

    /// The frozen durable image, once the crash fired.
    pub fn crash_image(&self) -> Option<DiskImage> {
        self.state.lock().expect("faultfs lock").image.clone()
    }

    /// The durable image a crash *right now* would leave, without
    /// crashing — the pessimistic view: pending namespace ops and
    /// unsynced bytes all survive (used to carry a clean run's final
    /// state into the next torture phase).
    pub fn settled_image(&self) -> DiskImage {
        let st = self.state.lock().expect("faultfs lock");
        let mut durable = st.durable_ns.clone();
        for op in &st.pending {
            op.apply(&mut durable);
        }
        let mut files = BTreeMap::new();
        for (path, ino) in &durable {
            if let Some(f) = st.files.get(ino) {
                let mut contents = f.synced.clone();
                contents.extend_from_slice(&f.unsynced);
                files.insert(path.clone(), contents);
            }
        }
        DiskImage {
            files,
            dirs: st.dirs.clone(),
        }
    }

    /// Synced-only contents of a file under its *durable* name — what is
    /// guaranteed to survive a crash right now. `None` if the name itself
    /// is not yet durable (its directory was never fsynced).
    pub fn durable_contents(&self, path: impl AsRef<Path>) -> Option<Vec<u8>> {
        let st = self.state.lock().expect("faultfs lock");
        let ino = st.durable_ns.get(&norm(path.as_ref()))?;
        st.files.get(ino).map(|f| f.synced.clone())
    }

    /// Current live contents of a file (page-cache view), for assertions.
    pub fn live_contents(&self, path: impl AsRef<Path>) -> Option<Vec<u8>> {
        let st = self.state.lock().expect("faultfs lock");
        let ino = st.ns.get(&norm(path.as_ref()))?;
        st.files.get(ino).map(|f| {
            let mut v = f.synced.clone();
            v.extend_from_slice(&f.unsynced);
            v
        })
    }
}

struct FaultFile {
    state: Arc<Mutex<FaultState>>,
    ino: u64,
    /// Path the handle was opened under (for injection matching only; the
    /// data follows the inode through renames, like a real fd).
    path: PathBuf,
}

impl VfsFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let mut st = self.state.lock().expect("faultfs lock");
        match st.tick(OpKind::Write, &self.path) {
            Ok(()) => {
                if let Some(f) = st.files.get_mut(&self.ino) {
                    f.unsynced.extend_from_slice(buf);
                }
                Ok(())
            }
            Err(e) => {
                // A failing write may still land a prefix (short write) —
                // byte-granularity torn writes even without a crash.
                if !st.crashed && !buf.is_empty() {
                    let mut rng = st.seed ^ st.ops.wrapping_mul(0x9e6c_8915_7c4a_d679);
                    let keep = (splitmix(&mut rng) % buf.len() as u64) as usize;
                    if let Some(f) = st.files.get_mut(&self.ino) {
                        f.unsynced.extend_from_slice(&buf[..keep]);
                    }
                }
                Err(e)
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        // Userspace flush: no syscall, no durability change.
        if self.state.lock().expect("faultfs lock").crashed {
            return Err(crash_error());
        }
        Ok(())
    }

    fn sync_all(&mut self) -> io::Result<()> {
        let mut st = self.state.lock().expect("faultfs lock");
        st.tick(OpKind::Sync, &self.path)?;
        if let Some(f) = st.files.get_mut(&self.ino) {
            let moved = std::mem::take(&mut f.unsynced);
            f.synced.extend_from_slice(&moved);
        }
        Ok(())
    }
}

impl Vfs for FaultFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let path = norm(path);
        let mut st = self.state.lock().expect("faultfs lock");
        st.tick(OpKind::Create, &path)?;
        let ino = st.next_ino;
        st.next_ino += 1;
        st.files.insert(ino, FileData::default());
        st.ns.insert(path.clone(), ino);
        st.pending.push(NsOp::Put(path.clone(), ino));
        Ok(Box::new(FaultFile {
            state: Arc::clone(&self.state),
            ino,
            path,
        }))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let path = norm(path);
        let mut st = self.state.lock().expect("faultfs lock");
        st.tick(OpKind::Append, &path)?;
        let ino = match st.ns.get(&path) {
            Some(&ino) => ino,
            None => {
                let ino = st.next_ino;
                st.next_ino += 1;
                st.files.insert(ino, FileData::default());
                st.ns.insert(path.clone(), ino);
                st.pending.push(NsOp::Put(path.clone(), ino));
                ino
            }
        };
        Ok(Box::new(FaultFile {
            state: Arc::clone(&self.state),
            ino,
            path,
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let path = norm(path);
        let mut st = self.state.lock().expect("faultfs lock");
        st.tick(OpKind::Read, &path)?;
        let ino = *st
            .ns
            .get(&path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))?;
        let f = st.files.get(&ino).expect("ino has data");
        let mut v = f.synced.clone();
        v.extend_from_slice(&f.unsynced);
        Ok(v)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let from = norm(from);
        let to = norm(to);
        let mut st = self.state.lock().expect("faultfs lock");
        st.tick(OpKind::Rename, &from)?;
        let ino = st
            .ns
            .remove(&from)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))?;
        st.ns.insert(to.clone(), ino);
        st.pending.push(NsOp::Rename(from, to, ino));
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let path = norm(path);
        let mut st = self.state.lock().expect("faultfs lock");
        st.tick(OpKind::Remove, &path)?;
        st.ns
            .remove(&path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))?;
        st.pending.push(NsOp::Remove(path));
        Ok(())
    }

    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        let dir = norm(dir);
        let mut st = self.state.lock().expect("faultfs lock");
        st.tick(OpKind::SyncDir, &dir)?;
        // Promote, in order, every pending op belonging to this directory.
        let pending = std::mem::take(&mut st.pending);
        for op in pending {
            if op.dirs().contains(&dir) {
                let mut durable = std::mem::take(&mut st.durable_ns);
                op.apply(&mut durable);
                st.durable_ns = durable;
            } else {
                st.pending.push(op);
            }
        }
        Ok(())
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let dir = norm(dir);
        let mut st = self.state.lock().expect("faultfs lock");
        st.tick(OpKind::Read, &dir)?;
        Ok(st
            .ns
            .keys()
            .filter(|p| norm(containing_dir(p)) == dir)
            .cloned()
            .collect())
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let dir = norm(dir);
        let mut st = self.state.lock().expect("faultfs lock");
        st.tick(OpKind::Mkdir, &dir)?;
        // Directory creation is treated as instantly durable — the
        // workloads under torture create their directories once, up
        // front, and the interesting races are all in file data and
        // file names.
        let mut cur = PathBuf::new();
        for comp in dir.components() {
            cur.push(comp);
            st.dirs.insert(cur.clone());
        }
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        let path = norm(path);
        let st = self.state.lock().expect("faultfs lock");
        st.ns.contains_key(&path) || st.dirs.contains(&path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn try_write_file(fs: &dyn Vfs, path: &str, data: &[u8], sync: bool) -> io::Result<()> {
        let mut f = fs.create(Path::new(path))?;
        f.write_all(data)?;
        if sync {
            f.sync_all()?;
            fs.fsync_dir(Path::new("."))?;
        }
        Ok(())
    }

    fn write_file(fs: &dyn Vfs, path: &str, data: &[u8], sync: bool) {
        try_write_file(fs, path, data, sync).unwrap();
    }

    #[test]
    fn synced_data_survives_any_crash_point() {
        // Write+sync one file, then crash at every subsequent op count:
        // the synced file must be in every image byte-for-byte.
        let probe = FaultFs::new(7);
        write_file(&probe, "a.txt", b"hello world", true);
        let total = probe.op_count();
        for k in 0..=total {
            let fs = FaultFs::new(7).with_crash_after(k);
            let _ = try_write_file(&fs, "a.txt", b"hello world", true);
            // Past-crash ops error; that's expected.
            let _ = fs.read(Path::new("a.txt"));
            if !fs.crashed() {
                continue;
            }
            let image = fs.crash_image().unwrap();
            if k >= total {
                assert_eq!(image.get("a.txt"), Some(&b"hello world"[..]));
            } else if let Some(c) = image.get("a.txt") {
                assert!(
                    b"hello world".starts_with(c),
                    "crash at {k}: torn content must be a prefix, got {c:?}"
                );
            }
        }
    }

    #[test]
    fn unsynced_data_is_a_seeded_prefix_after_crash() {
        let fs = FaultFs::new(3);
        write_file(&fs, "a.txt", b"0123456789", true); // durable baseline
        {
            let mut f = fs.open_append(Path::new("a.txt")).unwrap();
            f.write_all(b"ABCDEFGHIJ").unwrap(); // never synced
        }
        let fs2 = FaultFs::from_image(&fs.settled_image(), 3).with_crash_after(0);
        // from_image is fully durable, so test the crash on the live fs:
        drop(fs2);
        let st_crash = FaultFs::new(3).with_crash_after(fs.op_count());
        write_file(&st_crash, "a.txt", b"0123456789", true);
        {
            let mut f = st_crash.open_append(Path::new("a.txt")).unwrap();
            f.write_all(b"ABCDEFGHIJ").unwrap();
        }
        let _ = st_crash.read(Path::new("a.txt")); // trips the crash
        let image = st_crash.crash_image().unwrap();
        let c = image.get("a.txt").unwrap();
        assert!(c.len() >= 10, "synced prefix always survives");
        assert_eq!(&c[..10], b"0123456789");
        assert!(b"ABCDEFGHIJ".starts_with(&c[10..]), "torn tail is a prefix");
    }

    #[test]
    fn failed_fsync_loses_the_buffer_forever() {
        let fs = FaultFs::new(1)
            .with_injection(Injection::on(OpKind::Sync, "wal", FaultKind::Eio).times(1));
        let mut f = fs.create(Path::new("wal.log")).unwrap();
        f.write_all(b"precious").unwrap();
        assert!(f.sync_all().is_err(), "first fsync injected to fail");
        // Retry "succeeds" — but the buffer is already gone (fsyncgate).
        f.sync_all().unwrap();
        assert_eq!(fs.live_contents("wal.log").unwrap(), b"");
    }

    #[test]
    fn enospc_write_is_short_not_silent() {
        let fs = FaultFs::new(9)
            .with_injection(Injection::on(OpKind::Write, "big", FaultKind::Enospc).times(1));
        let mut f = fs.create(Path::new("big.dat")).unwrap();
        let err = f.write_all(b"0123456789").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        let live = fs.live_contents("big.dat").unwrap();
        assert!(live.len() < 10, "short write, not a full one");
        assert!(b"0123456789".starts_with(&live[..]));
    }

    #[test]
    fn rename_is_atomic_across_crash_points() {
        // atomic_write must leave either the old or the new contents at
        // every crash point — never a mix, never nothing (once the old
        // version was durable).
        let probe = FaultFs::new(11);
        write_file(&probe, "out.txt", b"OLD", true);
        let base = probe.op_count(); // OLD is durable from here on
        atomic_write_via(&probe, "out.txt", b"NEWCONTENT").unwrap();
        let total = probe.op_count();
        for k in base..=total {
            let fs = FaultFs::new(11).with_crash_after(k);
            let _ = try_write_file(&fs, "out.txt", b"OLD", true);
            let _ = atomic_write_via(&fs, "out.txt", b"NEWCONTENT");
            let image = match fs.crash_image() {
                Some(i) => i,
                None => fs.settled_image(),
            };
            let c = image.get("out.txt").unwrap_or(b"");
            assert!(
                c == b"OLD" || c == b"NEWCONTENT",
                "crash at {k}: got {:?}",
                String::from_utf8_lossy(c)
            );
        }
    }

    #[test]
    fn reboot_restores_the_durable_view() {
        let fs = FaultFs::new(5).with_crash_after(6);
        write_file(&fs, "a.txt", b"abc", true); // 4 ops: create/write/sync/syncdir
        let _ = fs.create(Path::new("b.txt")); // op 5
        let _ = fs.read(Path::new("a.txt")); // op 6
        assert!(fs.read(Path::new("a.txt")).is_err(), "op 7 crashes");
        let image = fs.crash_image().unwrap();
        let fs2 = FaultFs::from_image(&image, 5);
        assert_eq!(fs2.read(Path::new("a.txt")).unwrap(), b"abc");
    }

    #[test]
    fn determinism_same_seed_same_image() {
        let run = |seed| {
            // create(1), write 16 unsynced bytes(2), fsync_dir(3) makes
            // the *name* durable; crash on op 4 with the bytes still in
            // the page cache — the surviving prefix length is seeded.
            let fs = FaultFs::new(seed).with_crash_after(3);
            let mut f = fs.create(Path::new("x")).unwrap();
            f.write_all(b"0123456789abcdef").unwrap();
            fs.fsync_dir(Path::new(".")).unwrap();
            let _ = fs.read(Path::new("x"));
            fs.crash_image()
        };
        assert_eq!(run(42), run(42), "same seed, same schedule, same image");
        // Different seeds are allowed to differ (and these do).
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn read_dir_lists_and_injections_target_paths() {
        let fs = FaultFs::new(1);
        fs.create_dir_all(Path::new("store")).unwrap();
        write_file(&fs, "store/a.j1", b"x", false);
        write_file(&fs, "store/b.j1", b"y", false);
        write_file(&fs, "other.txt", b"z", false);
        let listing = fs.read_dir(Path::new("store")).unwrap();
        assert_eq!(listing.len(), 2);
        let fs =
            FaultFs::new(1).with_injection(Injection::on(OpKind::Create, "locked", FaultKind::Eio));
        assert!(fs.create(Path::new("locked.txt")).is_err());
        assert!(fs.create(Path::new("free.txt")).is_ok());
    }
}
