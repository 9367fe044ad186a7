//! In-memory spans and counters for the traced replay.
//!
//! The replay runs serially on one thread, so the recorder is thread-local:
//! [`span`] costs one thread-local check when no recording is active, which
//! is how the untraced replay pass measures the spans' own overhead. The
//! product's `acc_obs` recorder is never enabled — enabling it turns the
//! run memo off and would change what is measured.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer` or `layer.part` (e.g. `frontend.parse`); the root of every
    /// request tree is `request`.
    pub name: &'static str,
    /// Nanoseconds since the recording started.
    pub start_ns: u64,
    /// Nanoseconds since the recording started.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a request root.
    pub parent: Option<usize>,
    /// The request this span belongs to.
    pub request: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer: the name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// What one recording captured.
#[derive(Debug, Default)]
pub struct Trace {
    /// Every closed span, in opening order.
    pub spans: Vec<Span>,
    /// Named counters summed over the recording.
    pub counters: BTreeMap<&'static str, f64>,
}

struct Recorder {
    epoch: Instant,
    request: u32,
    open: Vec<usize>,
    trace: Trace,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread (discarding any earlier recording).
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            request: 0,
            open: Vec::new(),
            trace: Trace::default(),
        })
    });
}

/// Stop recording and return what was captured (empty when not recording).
pub fn stop() -> Trace {
    RECORDER.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.trace)
            .unwrap_or_default()
    })
}

/// Run `f` with recording suspended (spans and counters are skipped, as
/// when nothing records); the recording resumes afterwards.
pub fn without<T>(f: impl FnOnce() -> T) -> T {
    let saved = RECORDER.with(|r| r.borrow_mut().take());
    let out = f();
    RECORDER.with(|r| *r.borrow_mut() = saved);
    out
}

/// Tag the spans opened from now on with `request`.
pub fn set_request(request: u32) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.request = request;
        }
    });
}

/// Add `v` to counter `name` (no-op when not recording).
pub fn count(name: &'static str, v: f64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            *rec.trace.counters.entry(name).or_insert(0.0) += v;
        }
    });
}

/// Closes its span on drop, so a panic unwinding through a layer (the
/// executor isolates those) still leaves a well-formed tree.
struct Guard(Option<usize>);

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(index) = self.0 else { return };
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                let now = rec.epoch.elapsed().as_nanos() as u64;
                rec.trace.spans[index].end_ns = now;
                while let Some(top) = rec.open.pop() {
                    if top == index {
                        break;
                    }
                }
            }
        });
    }
}

/// Run `f` inside a span named `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let index = RECORDER.with(|r| {
        r.borrow_mut().as_mut().map(|rec| {
            let now = rec.epoch.elapsed().as_nanos() as u64;
            let index = rec.trace.spans.len();
            rec.trace.spans.push(Span {
                name,
                start_ns: now,
                end_ns: now,
                parent: rec.open.last().copied(),
                request: rec.request,
            });
            rec.open.push(index);
            index
        })
    });
    let _guard = Guard(index);
    f()
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<i128> {
    let mut own: Vec<i128> = spans.iter().map(|s| i128::from(s.dur_ns())).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= i128::from(s.dur_ns());
        }
    }
    own
}

/// Check that the spans form well-formed request trees: every child lies
/// inside its parent and shares its request, self times are non-negative,
/// and each request's self times sum to its root's duration.
pub fn check_trees(spans: &[Span]) -> Result<(), String> {
    let own = self_times(spans);
    let mut roots: BTreeMap<u32, u64> = BTreeMap::new();
    let mut self_sum: BTreeMap<u32, i128> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} `{}` ends before it starts", s.name));
        }
        match s.parent {
            None => {
                if roots.insert(s.request, s.dur_ns()).is_some() {
                    return Err(format!("request {} has two roots", s.request));
                }
            }
            Some(p) => {
                let parent = spans
                    .get(p)
                    .filter(|_| p < i)
                    .ok_or_else(|| format!("span {i} `{}` has no parent {p}", s.name))?;
                if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                    return Err(format!(
                        "span {i} `{}` lies outside its parent `{}`",
                        s.name, parent.name
                    ));
                }
                if s.request != parent.request {
                    return Err(format!("span {i} `{}` changes request", s.name));
                }
            }
        }
        if own[i] < 0 {
            return Err(format!("span {i} `{}` has negative self time", s.name));
        }
        *self_sum.entry(s.request).or_insert(0) += own[i];
    }
    for (request, total) in self_sum {
        let root = roots
            .get(&request)
            .ok_or_else(|| format!("request {request} has no root span"))?;
        if total != i128::from(*root) {
            return Err(format!(
                "request {request}: self times sum to {total} ns, root lasts {root} ns"
            ));
        }
    }
    Ok(())
}

/// The spans as JSON lines: `{name, start_ns, end_ns, parent, request}`,
/// where `parent` is the parent's line index.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_form_a_checked_tree() {
        start();
        set_request(7);
        span("request", || {
            span("frontend.parse", || std::hint::black_box(1 + 1));
            span("exec", || span("exec.inner", || ()));
        });
        count("exec.calls", 2.0);
        let trace = stop();
        assert_eq!(trace.spans.len(), 4);
        assert_eq!(trace.spans[0].parent, None);
        assert_eq!(trace.spans[3].parent, Some(2));
        assert!(trace.spans.iter().all(|s| s.request == 7));
        assert_eq!(trace.counters["exec.calls"], 2.0);
        check_trees(&trace.spans).expect("well formed");
        assert_eq!(to_jsonl(&trace.spans).lines().count(), 4);
    }

    #[test]
    fn spans_are_free_when_not_recording() {
        assert_eq!(span("exec", || 5), 5);
        count("exec.calls", 1.0);
        assert!(stop().spans.is_empty());
        start();
        without(|| span("exec", || count("exec.calls", 1.0)));
        span("report", || ());
        let trace = stop();
        assert_eq!(trace.spans.len(), 1, "only the span outside `without`");
        assert!(trace.counters.is_empty());
    }

    #[test]
    fn a_child_outside_its_parent_is_rejected() {
        let mk = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        };
        let spans = vec![mk("request", 0, 10, None), mk("exec", 5, 12, Some(0))];
        assert!(check_trees(&spans).is_err());
        let spans = vec![mk("request", 0, 10, None), mk("exec", 2, 8, Some(0))];
        check_trees(&spans).expect("inside");
    }

    #[test]
    fn a_panic_inside_a_span_still_closes_it() {
        start();
        span("request", || {
            let _ = std::panic::catch_unwind(|| span("exec", || panic!("boom")));
            span("report", || ());
        });
        let trace = stop();
        assert_eq!(
            trace.spans[2].parent,
            Some(0),
            "the stack unwound past `exec`"
        );
        check_trees(&trace.spans).expect("well formed after a panic");
    }
}
