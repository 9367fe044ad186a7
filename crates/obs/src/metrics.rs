//! Prometheus-style text metrics and the human summary table.
//!
//! Metrics aggregate the *full* snapshot — timing-class events included,
//! since durations and cache attribution are exactly what a metrics
//! snapshot is for. (Only the JSONL trace carries the determinism
//! guarantee.) Series are emitted in sorted label order so two snapshots
//! of the same run diff cleanly.

use crate::hist::LatencyHist;
use crate::{Event, Phase};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Quantiles rendered for every latency summary.
const QUANTILES: &[(&str, f64)] = &[("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99)];

/// Duration histogram bucket upper bounds, microseconds.
const BUCKETS_US: &[u64] = &[100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// Compile-cache counters, filled by the caller from the compiler's
/// `CacheStats` — the cache's own atomics stay the single source of truth
/// for hit/miss accounting; this sink only renders them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Front-end (parse + sema) cache hits.
    pub frontend_hits: u64,
    /// Front-end cache misses.
    pub frontend_misses: u64,
    /// Executable-level cache hits.
    pub exec_hits: u64,
    /// Executable-level cache misses.
    pub exec_misses: u64,
    /// Memoized runs replayed from a run memo.
    pub run_memo_hits: u64,
    /// Memoized runs that executed the program.
    pub run_memo_misses: u64,
}

impl CacheCounters {
    /// Overall hit rate across both compile levels, 0.0 when no lookups
    /// happened.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.frontend_hits + self.exec_hits;
        let total = hits + self.frontend_misses + self.exec_misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// Campaign-server gauges and counters, filled by the server from its own
/// atomics (which stay the source of truth — this sink only renders them,
/// mirroring the [`CacheCounters`] split).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerCounters {
    /// Submissions currently queued (gauge).
    pub queue_depth: u64,
    /// Submissions admitted into the queue since start.
    pub admitted_total: u64,
    /// Submissions shed with 429 because the queue was full.
    pub shed_total: u64,
    /// Submissions that ran to completion with a report.
    pub completed_total: u64,
    /// Submissions cancelled before or during execution (deadline expiry,
    /// drain).
    pub cancelled_total: u64,
    /// Submissions degraded to all-Skipped by an open circuit breaker.
    pub degraded_total: u64,
    /// Completed submissions served by sharing an identical in-flight
    /// submission's execution (a subset of `completed_total`).
    pub shared_total: u64,
    /// Vendor circuit breakers currently open (gauge).
    pub breaker_open: u64,
    /// Closed→open breaker transitions since start.
    pub breaker_trips_total: u64,
    /// Live HTTP connections, each holding one thread (gauge).
    pub connections_live: u64,
    /// Connections answered 503 at the connection cap since start.
    pub connections_shed_total: u64,
}

/// Write a metric family's `# HELP` and `# TYPE` lines: every renderer
/// below opens each family it emits through here, once.
fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
}

/// Render the campaign server's Prometheus series. Kept separate from
/// [`render_prometheus`] so existing one-shot callers don't change; the
/// server concatenates both.
pub fn render_server_metrics(c: &ServerCounters) -> String {
    let mut out = String::new();
    family(&mut out, "accvv_server_queue_depth", "gauge", "Submissions currently queued.");
    let _ = writeln!(out, "accvv_server_queue_depth {}", c.queue_depth);
    let name = "accvv_server_submissions_total";
    family(&mut out, name, "counter", "Submission admissions by outcome.");
    for (outcome, v) in [
        ("admitted", c.admitted_total),
        ("shed", c.shed_total),
        ("completed", c.completed_total),
        ("cancelled", c.cancelled_total),
        ("degraded", c.degraded_total),
        ("shared", c.shared_total),
    ] {
        let _ = writeln!(out, "{name}{{outcome=\"{outcome}\"}} {v}");
    }
    for (name, kind, v, help) in [
        ("accvv_server_breaker_open", "gauge", c.breaker_open, "Vendor circuit breakers currently open."),
        ("accvv_server_breaker_trips_total", "counter", c.breaker_trips_total, "Closed-to-open breaker transitions."),
        ("accvv_server_connections", "gauge", c.connections_live, "Live HTTP connections, one thread each."),
        ("accvv_server_connections_shed_total", "counter", c.connections_shed_total, "Connections answered 503 at the connection cap."),
    ] {
        family(&mut out, name, kind, help);
        let _ = writeln!(out, "{name} {v}");
    }
    out
}

/// Render per-profile circuit-breaker series: one enum-style gauge row per
/// (profile, state) — exactly one is 1 — plus a per-profile trip counter.
/// Input rows are `(profile, state-label, trips)` with state labels
/// `closed` / `open` / `half-open`.
pub fn render_breakers(breakers: &[(String, String, u64)]) -> String {
    let mut out = String::new();
    if breakers.is_empty() {
        return out;
    }
    let help = "Per-profile breaker state (1 on the active state).";
    family(&mut out, "accvv_server_breaker_state", "gauge", help);
    for (profile, state, _) in breakers {
        for candidate in ["closed", "open", "half-open"] {
            let v = u64::from(state == candidate);
            let _ = writeln!(
                out,
                "accvv_server_breaker_state{{profile=\"{profile}\",state=\"{candidate}\"}} {v}"
            );
        }
    }
    let help = "Closed-to-open transitions per profile.";
    family(&mut out, "accvv_server_breaker_profile_trips_total", "counter", help);
    for (profile, _, trips) in breakers {
        let _ = writeln!(
            out,
            "accvv_server_breaker_profile_trips_total{{profile=\"{profile}\"}} {trips}"
        );
    }
    out
}

/// Render per-endpoint HTTP request-latency summaries from the server's
/// normalized-path histograms.
pub fn render_http_latency(paths: &BTreeMap<String, LatencyHist>) -> String {
    let mut out = String::new();
    if paths.is_empty() {
        return out;
    }
    let help = "HTTP request duration by endpoint, microseconds (log-bucketed estimate).";
    family(&mut out, "accvv_http_request_duration_us", "summary", help);
    for (path, hist) in paths {
        for (label, q) in QUANTILES {
            let _ = writeln!(
                out,
                "accvv_http_request_duration_us{{path=\"{path}\",quantile=\"{label}\"}} {}",
                hist.quantile_us(*q)
            );
        }
        let _ = writeln!(
            out,
            "accvv_http_request_duration_us_sum{{path=\"{path}\"}} {}",
            hist.sum_us()
        );
        let _ = writeln!(
            out,
            "accvv_http_request_duration_us_count{{path=\"{path}\"}} {}",
            hist.count()
        );
    }
    out
}

#[derive(Default)]
struct Agg {
    /// kind -> (bucket counts, sum_us, count) over span End durations.
    durations: BTreeMap<String, (Vec<u64>, u64, u64)>,
    /// kind -> log-bucketed histogram of the same durations, for quantile
    /// estimation (compile vs exec vs verify phase attribution).
    hists: BTreeMap<String, LatencyHist>,
    /// status label -> count, from `case` span End `status` attrs.
    case_status: BTreeMap<String, u64>,
    /// counter name -> summed value, from `ctr` instants.
    counters: BTreeMap<String, i64>,
    /// kind -> count of non-counter instants (retry, fault, watchdog...).
    instants: BTreeMap<String, u64>,
}

fn aggregate(events: &[Event]) -> Agg {
    let mut agg = Agg::default();
    for e in events {
        match e.ph {
            Phase::End => {
                let entry = agg
                    .durations
                    .entry(e.kind.clone())
                    .or_insert_with(|| (vec![0; BUCKETS_US.len() + 1], 0, 0));
                let slot = BUCKETS_US
                    .iter()
                    .position(|&b| e.dur_us <= b)
                    .unwrap_or(BUCKETS_US.len());
                entry.0[slot] += 1;
                entry.1 += e.dur_us;
                entry.2 += 1;
                agg.hists.entry(e.kind.clone()).or_default().record(e.dur_us);
                if e.kind == "case" {
                    if let Some(status) = e.attr_str("status") {
                        *agg.case_status.entry(status.to_string()).or_default() += 1;
                    }
                }
            }
            Phase::Instant if e.kind == "ctr" => {
                *agg.counters.entry(e.name.clone()).or_default() +=
                    e.attr_int("v").unwrap_or(0);
            }
            Phase::Instant => {
                *agg.instants.entry(e.kind.clone()).or_default() += 1;
            }
            Phase::Begin => {}
        }
    }
    agg
}

/// Render the Prometheus text exposition for a merged snapshot, plus the
/// compile-cache counters when a cache was attached.
pub fn render_prometheus(events: &[Event], cache: Option<&CacheCounters>) -> String {
    let agg = aggregate(events);
    let mut out = String::new();

    let help = "Span durations by kind, microseconds.";
    family(&mut out, "accvv_phase_duration_us", "histogram", help);
    for (kind, (buckets, sum, count)) in &agg.durations {
        let mut cum = 0u64;
        for (i, b) in BUCKETS_US.iter().enumerate() {
            cum += buckets[i];
            let _ = writeln!(
                out,
                "accvv_phase_duration_us_bucket{{kind=\"{kind}\",le=\"{b}\"}} {cum}"
            );
        }
        cum += buckets[BUCKETS_US.len()];
        let _ = writeln!(
            out,
            "accvv_phase_duration_us_bucket{{kind=\"{kind}\",le=\"+Inf\"}} {cum}"
        );
        let _ = writeln!(out, "accvv_phase_duration_us_sum{{kind=\"{kind}\"}} {sum}");
        let _ = writeln!(out, "accvv_phase_duration_us_count{{kind=\"{kind}\"}} {count}");
    }

    let help = "Span-duration quantiles by kind, microseconds (log-bucketed estimate).";
    family(&mut out, "accvv_phase_latency_us", "summary", help);
    for (kind, hist) in &agg.hists {
        for (label, q) in QUANTILES {
            let _ = writeln!(
                out,
                "accvv_phase_latency_us{{kind=\"{kind}\",quantile=\"{label}\"}} {}",
                hist.quantile_us(*q)
            );
        }
        let _ = writeln!(out, "accvv_phase_latency_us_sum{{kind=\"{kind}\"}} {}", hist.sum_us());
        let _ = writeln!(out, "accvv_phase_latency_us_count{{kind=\"{kind}\"}} {}", hist.count());
    }

    family(&mut out, "accvv_case_status_total", "counter", "Case outcomes by taxonomy label.");
    for (status, n) in &agg.case_status {
        let _ = writeln!(out, "accvv_case_status_total{{status=\"{status}\"}} {n}");
    }

    family(&mut out, "accvv_events_total", "counter", "Instant events by kind.");
    for (kind, n) in &agg.instants {
        let _ = writeln!(out, "accvv_events_total{{kind=\"{kind}\"}} {n}");
    }

    for (name, v) in &agg.counters {
        let family_name = format!("accvv_{name}_total");
        family(&mut out, &family_name, "counter", &format!("Run counter `{name}`."));
        let _ = writeln!(out, "{family_name} {v}");
    }

    if let Some(c) = cache {
        let help = "Compile cache and run memo lookups by level and outcome.";
        family(&mut out, "accvv_compile_cache_lookups_total", "counter", help);
        for (level, outcome, v) in [
            ("exec", "hit", c.exec_hits),
            ("exec", "miss", c.exec_misses),
            ("frontend", "hit", c.frontend_hits),
            ("frontend", "miss", c.frontend_misses),
            ("run_memo", "hit", c.run_memo_hits),
            ("run_memo", "miss", c.run_memo_misses),
        ] {
            let _ = writeln!(
                out,
                "accvv_compile_cache_lookups_total{{level=\"{level}\",outcome=\"{outcome}\"}} {v}"
            );
        }
        let help = "Overall compile-cache hit rate across both compile levels.";
        family(&mut out, "accvv_compile_cache_hit_rate", "gauge", help);
        let _ = writeln!(out, "accvv_compile_cache_hit_rate {:.4}", c.hit_rate());
    }
    out
}

/// Render the human-readable summary table for a merged snapshot.
pub fn summary_table(events: &[Event], cache: Option<&CacheCounters>) -> String {
    let agg = aggregate(events);
    let mut out = String::new();
    let _ = writeln!(out, "telemetry summary ({} events)", events.len());
    if !agg.durations.is_empty() {
        let _ = writeln!(out, "  {:<12} {:>8} {:>12}", "phase", "spans", "total ms");
        for (kind, (_, sum_us, count)) in &agg.durations {
            let _ = writeln!(
                out,
                "  {:<12} {:>8} {:>12.2}",
                kind,
                count,
                *sum_us as f64 / 1e3
            );
        }
    }
    if !agg.case_status.is_empty() {
        let statuses: Vec<String> = agg
            .case_status
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        let _ = writeln!(out, "  cases: {}", statuses.join(" "));
    }
    if !agg.instants.is_empty() {
        let kinds: Vec<String> = agg
            .instants
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        let _ = writeln!(out, "  events: {}", kinds.join(" "));
    }
    for (name, v) in &agg.counters {
        let _ = writeln!(out, "  {name}: {v}");
    }
    if let Some(c) = cache {
        let _ = writeln!(
            out,
            "  compile cache: frontend {}/{} exec {}/{} hit rate {:.1}%, run memo {}/{}",
            c.frontend_hits,
            c.frontend_hits + c.frontend_misses,
            c.exec_hits,
            c.exec_hits + c.exec_misses,
            c.hit_rate() * 100.0,
            c.run_memo_hits,
            c.run_memo_hits + c.run_memo_misses,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{i, s, Recorder, PART_JOB};

    fn snapshot() -> Vec<Event> {
        let r = Recorder::enabled();
        let run = r.begin_run();
        {
            let _g = crate::scope(&r, run, PART_JOB, 0, 0);
            crate::begin("case", "t0", vec![]);
            crate::begin("exec", "functional", vec![]);
            crate::end(vec![]);
            crate::instant("retry", "attempt", vec![i("attempt", 1)]);
            crate::counter("memcpy_h2d_bytes", 4096);
            crate::counter("memcpy_h2d_bytes", 1024);
            crate::end(vec![s("status", "pass")]);
            crate::begin("case", "t1", vec![]);
            crate::end(vec![s("status", "wrong-result")]);
        }
        r.snapshot()
    }

    #[test]
    fn prometheus_sums_counters_and_statuses() {
        let text = render_prometheus(&snapshot(), None);
        assert!(text.contains("accvv_memcpy_h2d_bytes_total 5120"));
        assert!(text.contains("accvv_case_status_total{status=\"pass\"} 1"));
        assert!(text.contains("accvv_case_status_total{status=\"wrong-result\"} 1"));
        assert!(text.contains("accvv_events_total{kind=\"retry\"} 1"));
        assert!(text.contains("accvv_phase_duration_us_count{kind=\"case\"} 2"));
        assert!(text.contains("accvv_phase_duration_us_count{kind=\"exec\"} 1"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_to_inf() {
        let text = render_prometheus(&snapshot(), None);
        let inf_lines: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("le=\"+Inf\""))
            .collect();
        assert_eq!(inf_lines.len(), 2); // case + exec kinds
        assert!(inf_lines.iter().any(|l| l.ends_with(" 2")));
    }

    #[test]
    fn cache_counters_render_with_hit_rate() {
        let c = CacheCounters {
            frontend_hits: 3,
            frontend_misses: 1,
            exec_hits: 5,
            exec_misses: 3,
            run_memo_hits: 7,
            run_memo_misses: 2,
        };
        let text = render_prometheus(&[], Some(&c));
        assert!(text.contains(
            "accvv_compile_cache_lookups_total{level=\"frontend\",outcome=\"hit\"} 3"
        ));
        assert!(text.contains(
            "accvv_compile_cache_lookups_total{level=\"run_memo\",outcome=\"hit\"} 7"
        ));
        assert!(text.contains(
            "accvv_compile_cache_lookups_total{level=\"run_memo\",outcome=\"miss\"} 2"
        ));
        // The hit rate keeps its two-level meaning: memo lookups stay out.
        assert!(text.contains("accvv_compile_cache_hit_rate 0.6667"));
        let table = summary_table(&[], Some(&c));
        assert!(table.contains("frontend 3/4 exec 5/8 hit rate 66.7%, run memo 7/9"));
    }

    #[test]
    fn server_counters_render_every_series() {
        let c = ServerCounters {
            queue_depth: 3,
            admitted_total: 10,
            shed_total: 4,
            completed_total: 5,
            cancelled_total: 1,
            degraded_total: 2,
            shared_total: 3,
            breaker_open: 1,
            breaker_trips_total: 6,
            connections_live: 7,
            connections_shed_total: 8,
        };
        let text = render_server_metrics(&c);
        assert!(text.contains("accvv_server_queue_depth 3"));
        assert!(text.contains("accvv_server_submissions_total{outcome=\"admitted\"} 10"));
        assert!(text.contains("accvv_server_submissions_total{outcome=\"shed\"} 4"));
        assert!(text.contains("accvv_server_submissions_total{outcome=\"completed\"} 5"));
        assert!(text.contains("accvv_server_submissions_total{outcome=\"cancelled\"} 1"));
        assert!(text.contains("accvv_server_submissions_total{outcome=\"degraded\"} 2"));
        assert!(text.contains("accvv_server_submissions_total{outcome=\"shared\"} 3"));
        assert!(text.contains("accvv_server_breaker_open 1"));
        assert!(text.contains("accvv_server_breaker_trips_total 6"));
        assert!(text.contains("accvv_server_connections 7"));
        assert!(text.contains("accvv_server_connections_shed_total 8"));
        // Composable with the event exposition: both are valid standalone
        // text blocks.
        let combined = format!("{}{}", render_prometheus(&[], None), text);
        assert!(combined.contains("accvv_server_queue_depth"));
    }

    #[test]
    fn phase_quantiles_render_as_summary() {
        let text = render_prometheus(&snapshot(), None);
        assert!(text.contains("accvv_phase_latency_us{kind=\"case\",quantile=\"0.5\"}"));
        assert!(text.contains("accvv_phase_latency_us{kind=\"exec\",quantile=\"0.99\"}"));
        assert!(text.contains("accvv_phase_latency_us_count{kind=\"case\"} 2"));
    }

    #[test]
    fn breaker_states_render_one_hot_with_trips() {
        let rows = vec![
            ("CAPS".to_string(), "open".to_string(), 3u64),
            ("PGI".to_string(), "closed".to_string(), 0),
        ];
        let text = render_breakers(&rows);
        assert!(text.contains("accvv_server_breaker_state{profile=\"CAPS\",state=\"open\"} 1"));
        assert!(text.contains("accvv_server_breaker_state{profile=\"CAPS\",state=\"closed\"} 0"));
        assert!(text.contains("accvv_server_breaker_state{profile=\"PGI\",state=\"closed\"} 1"));
        assert!(text.contains("accvv_server_breaker_profile_trips_total{profile=\"CAPS\"} 3"));
        assert!(render_breakers(&[]).is_empty());
    }

    #[test]
    fn http_latency_renders_per_endpoint() {
        let mut paths = BTreeMap::new();
        let mut h = LatencyHist::new();
        h.record(1000);
        h.record(2000);
        paths.insert("/v1/submit".to_string(), h);
        let text = render_http_latency(&paths);
        assert!(text.contains("accvv_http_request_duration_us{path=\"/v1/submit\",quantile=\"0.5\"}"));
        assert!(text.contains("accvv_http_request_duration_us_count{path=\"/v1/submit\"} 2"));
        assert!(render_http_latency(&BTreeMap::new()).is_empty());
    }

    #[test]
    fn every_series_has_help_and_type() {
        // Spec compliance: each metric family in each rendering must carry
        // both a # HELP and a # TYPE line.
        let cache = CacheCounters {
            frontend_hits: 1,
            frontend_misses: 1,
            exec_hits: 1,
            exec_misses: 1,
            run_memo_hits: 1,
            run_memo_misses: 1,
        };
        let mut paths = BTreeMap::new();
        paths.insert("/metrics".to_string(), LatencyHist::new());
        let breakers = vec![("CAPS".to_string(), "closed".to_string(), 0u64)];
        let combined = format!(
            "{}{}{}{}",
            render_prometheus(&snapshot(), Some(&cache)),
            render_server_metrics(&ServerCounters::default()),
            render_breakers(&breakers),
            render_http_latency(&paths),
        );
        let mut helped = std::collections::BTreeSet::new();
        let mut typed = std::collections::BTreeSet::new();
        for line in combined.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                helped.insert(rest.split(' ').next().unwrap().to_string());
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                typed.insert(rest.split(' ').next().unwrap().to_string());
            }
        }
        assert!(!helped.is_empty());
        assert_eq!(helped, typed, "HELP and TYPE cover the same families");
        for line in combined.lines().filter(|l| !l.starts_with('#')) {
            let name = line
                .split([' ', '{'])
                .next()
                .unwrap()
                .trim_end_matches("_sum")
                .trim_end_matches("_count")
                .trim_end_matches("_bucket");
            assert!(
                helped.contains(name),
                "series `{name}` lacks a # HELP line"
            );
        }
    }

    /// One `--metrics-out` file and one server `/metrics` body, pinned byte
    /// for byte: the expositions scrapers and dashboards read.
    #[test]
    fn expositions_are_byte_stable() {
        let mut events = snapshot();
        for (k, e) in events.iter_mut().enumerate() {
            e.dur_us = 700 * k as u64;
        }
        let cache = CacheCounters {
            frontend_hits: 3,
            frontend_misses: 1,
            exec_hits: 5,
            exec_misses: 3,
            run_memo_hits: 7,
            run_memo_misses: 2,
        };
        let metrics_out = render_prometheus(&events, Some(&cache));
        assert_eq!(metrics_out, include_str!("../tests/golden/metrics_out.prom"));
        let counters = ServerCounters {
            queue_depth: 3,
            admitted_total: 10,
            shed_total: 4,
            completed_total: 5,
            cancelled_total: 1,
            degraded_total: 2,
            shared_total: 3,
            breaker_open: 1,
            breaker_trips_total: 6,
            connections_live: 7,
            connections_shed_total: 8,
        };
        let breakers = vec![
            ("CAPS".to_string(), "open".to_string(), 3u64),
            ("PGI".to_string(), "closed".to_string(), 0),
        ];
        let mut paths = BTreeMap::new();
        let mut h = LatencyHist::new();
        h.record(1000);
        h.record(2000);
        paths.insert("/v1/submit".to_string(), h);
        paths.insert("/metrics".to_string(), LatencyHist::new());
        // Composed in the order the server's `/metrics` handler uses.
        let server = format!(
            "{metrics_out}{}{}{}",
            render_server_metrics(&counters),
            render_breakers(&breakers),
            render_http_latency(&paths)
        );
        assert_eq!(server, include_str!("../tests/golden/server_metrics.prom"));
    }

    #[test]
    fn summary_table_mentions_each_section() {
        let t = summary_table(&snapshot(), None);
        assert!(t.contains("phase"));
        assert!(t.contains("cases: pass=1 wrong-result=1"));
        assert!(t.contains("retry=1"));
        assert!(t.contains("memcpy_h2d_bytes: 5120"));
    }
}
