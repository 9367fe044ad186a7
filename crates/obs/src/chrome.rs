//! Chrome trace-event sink: renders a merged snapshot as a JSON document
//! loadable in `chrome://tracing` / Perfetto.
//!
//! Timestamps are **logical**: each event's `ts` is its index in the merged
//! deterministic order, in microseconds. That makes the exported file a pure
//! function of the logical stream (so `accvv trace export` of the same JSONL
//! always yields the same bytes) at the cost of proportional rather than
//! wall-clock span widths. Events from a live recorder may carry real
//! durations; the export path used by the CLI goes through JSONL first, so
//! only the logical form matters here.
//!
//! Layout: one process (`pid` 0), one Chrome "thread" per recorder run
//! (`tid` = run ordinal) — runs are the natural lanes since each run's
//! events form a properly nested span forest.

use crate::json::{escape_into, parse, Json};
use crate::{AttrVal, Event, Phase};
use std::fmt::Write as _;

/// Render the Chrome trace-event JSON document for a merged snapshot.
/// Timing-class events are excluded, matching the JSONL sink, so exports
/// from live recorders and from parsed JSONL agree.
pub fn render(events: &[Event]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let mut runs_seen: Vec<u32> = Vec::new();
    for e in events.iter().filter(|e| !e.timing) {
        if !runs_seen.contains(&e.run) {
            runs_seen.push(e.run);
        }
    }
    for run in &runs_seen {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{run},\"args\":{{\"name\":\"run {run}\"}}}}"
        );
    }
    for (ts, e) in events.iter().filter(|e| !e.timing).enumerate() {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let ph = match e.ph {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Instant => "i",
        };
        out.push_str("{\"name\":\"");
        escape_into(&mut out, &e.kind);
        out.push(':');
        escape_into(&mut out, &e.name);
        let _ = write!(
            out,
            "\",\"ph\":\"{ph}\",\"pid\":0,\"tid\":{},\"ts\":{ts}",
            e.run
        );
        if e.ph == Phase::Instant {
            out.push_str(",\"s\":\"t\"");
        }
        out.push_str(",\"args\":{");
        let _ = write!(
            out,
            "\"part\":{},\"job\":{},\"seq\":{}",
            e.part, e.job, e.seq
        );
        for (k, v) in &e.attrs {
            out.push_str(",\"");
            escape_into(&mut out, k);
            out.push_str("\":");
            match v {
                AttrVal::Int(n) => {
                    let _ = write!(out, "{n}");
                }
                AttrVal::Str(s) => {
                    out.push('"');
                    escape_into(&mut out, s);
                    out.push('"');
                }
            }
        }
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}

/// Validate a Chrome trace document: it must parse as JSON, expose a
/// `traceEvents` array, and every `tid`'s `B`/`E` events must form a
/// properly nested stack with matching names. Returns the number of
/// complete spans on success.
pub fn validate(doc: &str) -> Result<usize, String> {
    let v = parse(doc).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = v
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    // tid -> stack of open span names
    let mut stacks: Vec<(i64, Vec<String>)> = Vec::new();
    let mut spans = 0usize;
    let mut last_ts: Option<i64> = None;
    for (idx, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {idx}: missing ph"))?;
        if ph == "M" {
            continue;
        }
        let tid = e
            .get("tid")
            .and_then(Json::as_i64)
            .ok_or_else(|| format!("event {idx}: missing tid"))?;
        let ts = e
            .get("ts")
            .and_then(Json::as_i64)
            .ok_or_else(|| format!("event {idx}: missing ts"))?;
        if let Some(prev) = last_ts {
            if ts < prev {
                return Err(format!("event {idx}: ts went backwards ({prev} -> {ts})"));
            }
        }
        last_ts = Some(ts);
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {idx}: missing name"))?;
        let at = match stacks.iter().position(|(t, _)| *t == tid) {
            Some(at) => at,
            None => {
                stacks.push((tid, Vec::new()));
                stacks.len() - 1
            }
        };
        let stack = &mut stacks[at].1;
        match ph {
            "B" => stack.push(name.to_string()),
            "E" => {
                let open = stack.pop().ok_or_else(|| {
                    format!("event {idx}: E \"{name}\" with no open span on tid {tid}")
                })?;
                if open != name {
                    return Err(format!(
                        "event {idx}: E \"{name}\" closes mismatched span \"{open}\" on tid {tid}"
                    ));
                }
                spans += 1;
            }
            "i" => {}
            other => return Err(format!("event {idx}: unsupported ph {other:?}")),
        }
    }
    for (tid, stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!("tid {tid}: span \"{open}\" never closed"));
        }
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{s, Recorder, PART_JOB, PART_POST, PART_PRE};

    fn snapshot() -> Vec<Event> {
        let r = Recorder::enabled();
        let run = r.begin_run();
        {
            let _g = crate::scope(&r, run, PART_PRE, 0, 0);
            crate::mark(Phase::Begin, "campaign", "fig8", vec![]);
        }
        {
            let _g = crate::scope(&r, run, PART_JOB, 0, 1);
            crate::begin("case", "t0", vec![s("lang", "C")]);
            crate::instant("verify", "ok", vec![]);
            crate::end(vec![]);
        }
        {
            let _g = crate::scope(&r, run, PART_POST, 0, 0);
            crate::mark(Phase::End, "campaign", "fig8", vec![]);
        }
        r.snapshot()
    }

    #[test]
    fn export_validates_and_counts_spans() {
        let doc = render(&snapshot());
        // campaign span + case span
        assert_eq!(validate(&doc), Ok(2));
    }

    #[test]
    fn cross_scope_marks_pair_up_in_merge_order() {
        let doc = render(&snapshot());
        let b = doc.find("\"campaign:fig8\",\"ph\":\"B\"").unwrap();
        let e = doc.find("\"campaign:fig8\",\"ph\":\"E\"").unwrap();
        let case = doc.find("\"case:t0\"").unwrap();
        assert!(b < case && case < e);
    }

    #[test]
    fn validate_catches_bad_nesting() {
        let doc = r#"{"traceEvents":[
            {"name":"a","ph":"B","pid":0,"tid":0,"ts":0},
            {"name":"b","ph":"E","pid":0,"tid":0,"ts":1}
        ]}"#;
        assert!(validate(doc).unwrap_err().contains("mismatched"));
    }

    #[test]
    fn validate_catches_unclosed_span() {
        let doc = r#"{"traceEvents":[
            {"name":"a","ph":"B","pid":0,"tid":0,"ts":0}
        ]}"#;
        assert!(validate(doc).unwrap_err().contains("never closed"));
    }

    #[test]
    fn validate_rejects_non_json() {
        assert!(validate("nope").is_err());
        assert!(validate("{}").is_err());
    }
}
