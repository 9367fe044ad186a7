//! Campaign telemetry: structured spans and events for the validation stack.
//!
//! The unit of collection is an [`Event`]: a span open (`B`), span close
//! (`E`), or instant (`I`) tagged with a kind, a name, and a small bag of
//! attributes. Events are buffered per *scope* — one logical strand of
//! execution such as "job 3 of executor run 2" — and merged into a single
//! deterministic stream keyed by `(run, part, job, seq)`. Because that key
//! contains no wall-clock component and scopes are indexed by the job's
//! position in the suite (not by which worker thread claimed it), the merged
//! stream is **identical across `--jobs 1` and `--jobs N`** for the same
//! seed and suite.
//!
//! Two classes of event exist:
//!
//! * **logical** events — schedule-independent facts (a case started, a
//!   verification failed, an attempt was retried). These go to every sink,
//!   including the deterministic JSONL trace.
//! * **timing** events (`timing = true`) — facts that depend on the
//!   schedule or the clock (which worker hit the shared compile cache
//!   first, how long a lowering took). These feed the metrics and Chrome
//!   sinks but are *excluded* from the JSONL trace so it stays
//!   byte-identical across worker counts.
//!
//! Instrumented code never threads a recorder through its call graph.
//! Instead the driver installs a scope on the current thread with
//! [`scope`]; the free functions [`begin`], [`end`], [`instant`],
//! [`counter`] and friends write to that thread-local buffer, and are
//! guaranteed no-ops when no scope is installed — which is always the case
//! when telemetry is disabled: one load of a process-wide scope count while
//! no thread records, one `RefCell` borrow + `Option` check otherwise.
//!
//! Sinks:
//! * [`trace`] — deterministic JSONL (one event per line) + parser,
//! * [`chrome`] — Chrome trace-event JSON loadable in Perfetto,
//! * [`metrics`] — Prometheus-style text exposition + human summary table.
//!
//! History:
//! * [`hist`] — deterministic log-bucketed latency histograms (mergeable,
//!   byte-identical encoding regardless of merge order),
//! * [`series`] — time-bucketed pass-rate series over epoch-stamped records.

#![warn(missing_docs)]

pub mod chrome;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod series;
pub mod trace;

pub use hist::{LatencyCollector, LatencyHist};
pub use series::{GroupBy, SeriesAgg, SeriesCounts, SeriesRow};

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Event phase: span open, span close, or instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Span open (Chrome `B`).
    Begin,
    /// Span close (Chrome `E`).
    End,
    /// Instantaneous event (Chrome `i`).
    Instant,
}

impl Phase {
    /// One-character code used by the serialised forms (`B`/`E`/`I`).
    pub fn code(self) -> char {
        match self {
            Phase::Begin => 'B',
            Phase::End => 'E',
            Phase::Instant => 'I',
        }
    }

    /// Parse the one-character code back; `None` for anything else.
    pub fn from_code(c: char) -> Option<Phase> {
        match c {
            'B' => Some(Phase::Begin),
            'E' => Some(Phase::End),
            'I' => Some(Phase::Instant),
            _ => None,
        }
    }
}

/// An attribute value: integers and strings only. No floats — float
/// formatting is locale/precision bait and nothing logical needs one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrVal {
    /// Signed integer attribute.
    Int(i64),
    /// String attribute.
    Str(String),
}

/// Attribute helper: integer value.
pub fn i(key: &'static str, v: i64) -> (&'static str, AttrVal) {
    (key, AttrVal::Int(v))
}

/// Attribute helper: string value.
pub fn s(key: &'static str, v: impl Into<String>) -> (&'static str, AttrVal) {
    (key, AttrVal::Str(v.into()))
}

/// Scope part: orders a run's pre-amble, per-job strands, and post-amble.
pub const PART_PRE: u8 = 0;
/// See [`PART_PRE`].
pub const PART_JOB: u8 = 1;
/// See [`PART_PRE`].
pub const PART_POST: u8 = 2;

/// One telemetry event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Recorder-allocated run ordinal (one per executor/campaign run).
    pub run: u32,
    /// [`PART_PRE`] / [`PART_JOB`] / [`PART_POST`] — merge-order band.
    pub part: u8,
    /// Job ordinal inside the run (deterministic: the job's position in
    /// the suite, not the worker that executed it). 0 for pre/post parts.
    pub job: u32,
    /// Monotonic sequence number inside the scope.
    pub seq: u32,
    /// OS worker index that produced the event (informational; excluded
    /// from the deterministic JSONL form).
    pub worker: u32,
    /// Span open / close / instant.
    pub ph: Phase,
    /// Event kind, a small closed vocabulary (`"case"`, `"compile"`,
    /// `"exec"`, `"journal"`, ...). Keys metrics aggregation.
    pub kind: String,
    /// Human-readable name (case name, phase label, ...).
    pub name: String,
    /// Span nesting depth at emission (0 = top of scope).
    pub depth: u16,
    /// Timing-class flag: schedule/clock-dependent events are excluded
    /// from the deterministic JSONL sink.
    pub timing: bool,
    /// Microseconds since the recorder's epoch (timing data; excluded
    /// from the deterministic JSONL form).
    pub start_us: u64,
    /// For `End` events: span duration in microseconds.
    pub dur_us: u64,
    /// Attribute bag, in emission order.
    pub attrs: Vec<(&'static str, AttrVal)>,
}

impl Event {
    /// Look up a string attribute by key.
    pub fn attr_str(&self, key: &str) -> Option<&str> {
        self.attrs.iter().find_map(|(k, v)| match v {
            AttrVal::Str(s) if *k == key => Some(s.as_str()),
            _ => None,
        })
    }

    /// Look up an integer attribute by key.
    pub fn attr_int(&self, key: &str) -> Option<i64> {
        self.attrs.iter().find_map(|(k, v)| match v {
            AttrVal::Int(n) if *k == key => Some(*n),
            _ => None,
        })
    }
}

struct Inner {
    epoch: Instant,
    runs: AtomicU32,
    events: Mutex<Vec<Event>>,
}

/// Shared telemetry collector. Cloning is an `Arc` bump; the disabled
/// recorder is a `None` and costs nothing to clone or query.
#[derive(Clone, Default)]
pub struct Recorder(Option<Arc<Inner>>);

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.0.is_some())
            .finish()
    }
}

impl Recorder {
    /// The no-op recorder: every operation through it is free.
    pub fn disabled() -> Recorder {
        Recorder(None)
    }

    /// A live recorder collecting events.
    pub fn enabled() -> Recorder {
        Recorder(Some(Arc::new(Inner {
            epoch: Instant::now(),
            runs: AtomicU32::new(0),
            events: Mutex::new(Vec::new()),
        })))
    }

    /// Whether this recorder collects anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Allocate the next run ordinal. Callers allocate runs sequentially
    /// from single-threaded driver code, so ordinals are deterministic.
    /// Returns 0 when disabled.
    pub fn begin_run(&self) -> u32 {
        match &self.0 {
            Some(inner) => inner.runs.fetch_add(1, Ordering::Relaxed),
            None => 0,
        }
    }

    /// Merge and return all collected events in the deterministic order:
    /// stable-sorted by `(run, part, job, seq)`. Stable sort keeps each
    /// scope's events in emission order; distinct scopes never share a key.
    pub fn snapshot(&self) -> Vec<Event> {
        let Some(inner) = &self.0 else {
            return Vec::new();
        };
        let mut events = inner.events.lock().expect("obs events poisoned").clone();
        events.sort_by_key(|e| (e.run, e.part, e.job, e.seq));
        events
    }

    fn flush(&self, buffered: Vec<Event>) {
        if let Some(inner) = &self.0 {
            inner
                .events
                .lock()
                .expect("obs events poisoned")
                .extend(buffered);
        }
    }

    fn micros(&self) -> u64 {
        match &self.0 {
            Some(inner) => inner.epoch.elapsed().as_micros() as u64,
            None => 0,
        }
    }
}

/// Thread-local collection context for one scope.
struct Ctx {
    recorder: Recorder,
    run: u32,
    part: u8,
    job: u32,
    worker: u32,
    seq: u32,
    /// Open-span stack: index into `buf` of each un-closed `Begin`.
    stack: Vec<usize>,
    buf: Vec<Event>,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// Scopes installed on any thread. While it is 0 no thread records, so
/// every instrumentation call returns after one load instead of reaching
/// the thread-local. A thread's own install is visible to it in program
/// order, so `Relaxed` suffices: the count only skips work, and the
/// thread-local stays the authority on whether this thread records.
static LIVE_SCOPES: AtomicUsize = AtomicUsize::new(0);

/// Guard returned by [`scope`]. On drop, closes any spans the scope left
/// open (marking them `aborted`, which makes panics visible in the trace),
/// flushes the buffered events into the recorder, and uninstalls the
/// thread-local context.
pub struct ScopeGuard {
    active: bool,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        CTX.with(|ctx| {
            let Some(mut c) = ctx.borrow_mut().take() else {
                return;
            };
            while !c.stack.is_empty() {
                emit_end(&mut c, vec![s("aborted", "true")]);
            }
            let buf = std::mem::take(&mut c.buf);
            c.recorder.flush(buf);
        });
        LIVE_SCOPES.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Install a collection scope on the current thread. All [`begin`] /
/// [`end`] / [`instant`] / [`counter`] calls on this thread route into it
/// until the returned guard drops. No-op (and near-free) when the recorder
/// is disabled.
///
/// `part` bands the scope in merge order ([`PART_PRE`] / [`PART_JOB`] /
/// [`PART_POST`]); `job` is the deterministic job ordinal within the run;
/// `worker` is the OS worker index (informational only).
pub fn scope(recorder: &Recorder, run: u32, part: u8, job: u32, worker: u32) -> ScopeGuard {
    if !recorder.is_enabled() {
        return ScopeGuard { active: false };
    }
    LIVE_SCOPES.fetch_add(1, Ordering::Relaxed);
    CTX.with(|ctx| {
        *ctx.borrow_mut() = Some(Ctx {
            recorder: recorder.clone(),
            run,
            part,
            job,
            worker,
            seq: 0,
            stack: Vec::new(),
            buf: Vec::new(),
        });
    });
    ScopeGuard { active: true }
}

/// Whether a scope is installed on this thread (i.e. telemetry is live
/// here). Lets instrumentation skip attribute construction when off.
pub fn active() -> bool {
    LIVE_SCOPES.load(Ordering::Relaxed) != 0 && CTX.with(|ctx| ctx.borrow().is_some())
}

fn with_ctx(f: impl FnOnce(&mut Ctx)) {
    if LIVE_SCOPES.load(Ordering::Relaxed) == 0 {
        return;
    }
    CTX.with(|ctx| {
        if let Some(c) = ctx.borrow_mut().as_mut() {
            f(c);
        }
    });
}

fn push_event(
    c: &mut Ctx,
    ph: Phase,
    kind: &str,
    name: &str,
    timing: bool,
    attrs: Vec<(&'static str, AttrVal)>,
) {
    let depth = c.stack.len() as u16;
    // Timing-class events share the seq of the next logical event instead
    // of consuming one: whether a schedule-dependent event fired (a cache
    // miss's lower span, a hit/miss instant) must not shift the sequence
    // numbers of the logical events after it, or the deterministic JSONL
    // would differ across worker counts. Ties are safe — a scope's events
    // are flushed as one contiguous block and the merge sort is stable, so
    // emission order is preserved.
    let seq = c.seq;
    if !timing {
        c.seq += 1;
    }
    c.buf.push(Event {
        run: c.run,
        part: c.part,
        job: c.job,
        seq,
        worker: c.worker,
        ph,
        kind: kind.to_string(),
        name: name.to_string(),
        depth,
        timing,
        start_us: c.recorder.micros(),
        dur_us: 0,
        attrs,
    });
}

/// Open a logical span.
pub fn begin(kind: &str, name: &str, attrs: Vec<(&'static str, AttrVal)>) {
    with_ctx(|c| {
        push_event(c, Phase::Begin, kind, name, false, attrs);
        let at = c.buf.len() - 1;
        c.stack.push(at);
    });
}

/// Open a timing-class span (excluded from the deterministic JSONL).
pub fn begin_timing(kind: &str, name: &str, attrs: Vec<(&'static str, AttrVal)>) {
    with_ctx(|c| {
        push_event(c, Phase::Begin, kind, name, true, attrs);
        let at = c.buf.len() - 1;
        c.stack.push(at);
    });
}

fn emit_end(c: &mut Ctx, attrs: Vec<(&'static str, AttrVal)>) {
    let Some(open_at) = c.stack.pop() else {
        return;
    };
    let (kind, name, timing, began_us) = {
        let open = &c.buf[open_at];
        (
            open.kind.clone(),
            open.name.clone(),
            open.timing,
            open.start_us,
        )
    };
    push_event(c, Phase::End, &kind, &name, timing, attrs);
    let now = c.buf.last().expect("just pushed").start_us;
    c.buf.last_mut().expect("just pushed").dur_us = now.saturating_sub(began_us);
}

/// Close the innermost open span, attaching `attrs` to the close event.
/// The close inherits the open's kind, name, and timing class. A stray
/// `end` with no open span is ignored.
pub fn end(attrs: Vec<(&'static str, AttrVal)>) {
    with_ctx(|c| emit_end(c, attrs));
}

/// Emit a logical instant event.
pub fn instant(kind: &str, name: &str, attrs: Vec<(&'static str, AttrVal)>) {
    with_ctx(|c| push_event(c, Phase::Instant, kind, name, false, attrs));
}

/// Emit a timing-class instant event (excluded from deterministic JSONL).
pub fn instant_timing(kind: &str, name: &str, attrs: Vec<(&'static str, AttrVal)>) {
    with_ctx(|c| push_event(c, Phase::Instant, kind, name, true, attrs));
}

/// Emit a logical counter sample: an instant of kind `ctr` whose `v`
/// attribute carries the value. Metrics sums these by name.
pub fn counter(name: &str, v: i64) {
    instant("ctr", name, vec![i("v", v)]);
}

/// Current open-span depth in this thread's scope; 0 when no scope is
/// installed. Pair with [`unwind_to`] around `catch_unwind` boundaries.
pub fn depth() -> u16 {
    CTX.with(|ctx| {
        ctx.borrow()
            .as_ref()
            .map_or(0, |c| c.stack.len() as u16)
    })
}

/// Close open spans until the stack is back down to `depth`, attaching an
/// `aborted` attr to each close. Call after `catch_unwind` catches a panic
/// that unwound through instrumented code, so the span stack stays
/// consistent for the retry.
pub fn unwind_to(depth: u16) {
    with_ctx(|c| {
        while c.stack.len() as u16 > depth {
            emit_end(c, vec![s("aborted", "true")]);
        }
    });
}

/// Emit a stack-bypassing raw event. For driver-level spans (campaign,
/// sweep) whose open and close live in *different* scopes: the `Begin`
/// goes in the run's pre scope and the `End` in its post scope, so the
/// span survives the per-job scope teardown between them. The merge order
/// (pre < job < post) keeps the pair properly nested in the Chrome view.
pub fn mark(ph: Phase, kind: &str, name: &str, attrs: Vec<(&'static str, AttrVal)>) {
    with_ctx(|c| push_event(c, ph, kind, name, false, attrs));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_collects_nothing() {
        let r = Recorder::disabled();
        let _g = scope(&r, 0, PART_JOB, 0, 0);
        begin("case", "x", vec![]);
        instant("note", "y", vec![i("n", 1)]);
        end(vec![]);
        drop(_g);
        assert!(!r.is_enabled());
        assert!(r.snapshot().is_empty());
        assert!(!active());
    }

    #[test]
    fn events_merge_by_scope_key_not_arrival_order() {
        let r = Recorder::enabled();
        let run = r.begin_run();
        // Flush job 2's scope before job 0's: snapshot must still order
        // job 0 first.
        {
            let _g = scope(&r, run, PART_JOB, 2, 7);
            instant("case", "late", vec![]);
        }
        {
            let _g = scope(&r, run, PART_JOB, 0, 3);
            instant("case", "early", vec![]);
        }
        let ev = r.snapshot();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].name, "early");
        assert_eq!(ev[1].name, "late");
        assert_eq!(ev[0].worker, 3);
    }

    #[test]
    fn span_stack_nests_and_ends_inherit_identity() {
        let r = Recorder::enabled();
        let run = r.begin_run();
        {
            let _g = scope(&r, run, PART_JOB, 0, 0);
            begin("case", "t1", vec![s("lang", "C")]);
            begin("compile", "functional", vec![]);
            end(vec![s("status", "ok")]);
            end(vec![]);
        }
        let ev = r.snapshot();
        assert_eq!(ev.len(), 4);
        assert_eq!(
            ev.iter().map(|e| e.ph.code()).collect::<String>(),
            "BBEE"
        );
        assert_eq!(ev[2].kind, "compile");
        assert_eq!(ev[2].name, "functional");
        assert_eq!(ev[2].attr_str("status"), Some("ok"));
        assert_eq!(ev[3].kind, "case");
        assert_eq!(ev[0].depth, 0);
        assert_eq!(ev[1].depth, 1);
    }

    #[test]
    fn dropped_scope_closes_open_spans_as_aborted() {
        let r = Recorder::enabled();
        let run = r.begin_run();
        {
            let _g = scope(&r, run, PART_JOB, 0, 0);
            begin("case", "panicky", vec![]);
            // no end() — simulates a panic unwinding through the scope
        }
        let ev = r.snapshot();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[1].ph, Phase::End);
        assert_eq!(ev[1].attr_str("aborted"), Some("true"));
    }

    #[test]
    fn timing_class_propagates_from_begin_to_end() {
        let r = Recorder::enabled();
        let run = r.begin_run();
        {
            let _g = scope(&r, run, PART_JOB, 0, 0);
            begin_timing("lower", "bytecode", vec![]);
            end(vec![]);
            counter("vm_instructions", 42);
        }
        let ev = r.snapshot();
        assert!(ev[0].timing && ev[1].timing);
        assert!(!ev[2].timing);
        assert_eq!(ev[2].attr_int("v"), Some(42));
    }

    #[test]
    fn timing_events_do_not_consume_logical_seq() {
        // Two scopes with identical logical activity; one of them also saw
        // schedule-dependent timing events. The logical events must carry
        // identical sequence numbers either way, and the merged order must
        // keep each scope's emission order.
        let r = Recorder::enabled();
        let run = r.begin_run();
        {
            let _g = scope(&r, run, PART_JOB, 0, 0);
            instant("case", "a", vec![]);
            instant_timing("cache", "frontend", vec![]);
            begin_timing("lower", "bytecode", vec![]);
            end(vec![]);
            instant("case", "b", vec![]);
        }
        {
            let _g = scope(&r, run, PART_JOB, 1, 0);
            instant("case", "a", vec![]);
            instant("case", "b", vec![]);
        }
        let ev = r.snapshot();
        let logical_0: Vec<u32> = ev
            .iter()
            .filter(|e| e.job == 0 && !e.timing)
            .map(|e| e.seq)
            .collect();
        let logical_1: Vec<u32> = ev
            .iter()
            .filter(|e| e.job == 1 && !e.timing)
            .map(|e| e.seq)
            .collect();
        assert_eq!(logical_0, logical_1);
        // Within job 0, emission order survives the seq ties.
        let names: Vec<&str> = ev
            .iter()
            .filter(|e| e.job == 0)
            .map(|e| e.name.as_str())
            .collect();
        assert_eq!(names, ["a", "frontend", "bytecode", "bytecode", "b"]);
    }

    #[test]
    fn run_ordinals_are_sequential() {
        let r = Recorder::enabled();
        assert_eq!(r.begin_run(), 0);
        assert_eq!(r.begin_run(), 1);
        assert_eq!(r.begin_run(), 2);
    }

    #[test]
    fn stray_end_is_ignored() {
        let r = Recorder::enabled();
        let run = r.begin_run();
        {
            let _g = scope(&r, run, PART_JOB, 0, 0);
            end(vec![]);
            instant("note", "still-works", vec![]);
        }
        let ev = r.snapshot();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].name, "still-works");
    }
}
