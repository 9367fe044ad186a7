//! `accvv` — the validation suite as a command-line tool.
//!
//! This is the operator-facing entry point, mirroring how the paper's suite
//! is driven in production (compiler configuration, feature selection,
//! report generation — §III's "major features").
//!
//! ```text
//! accvv list [PREFIX]                         list corpus tests
//! accvv show NAME [--lang c|fortran] [--cross] print a generated program
//! accvv run --vendor V [--version X] [options] run the suite, print a report
//! accvv campaign [--vendor V]                  Fig. 8 sweep across releases
//! accvv bugs --vendor V --version X [--lang L] active catalog entries
//! accvv expand FILE                            expand a template file
//! accvv titan [--nodes N] [--sample K] [--seed S]  production-harness run
//! ```

use openacc_vv::compiler::{BugCatalog, CacheStats, VendorCompiler, VendorId};
use openacc_vv::harness::{HarnessRun, NodeFault, SimulatedCluster};
use openacc_vv::obs;
use openacc_vv::prelude::*;
use openacc_vv::validation::report::{self, ReportFormat};
use openacc_vv::validation::template::parse_templates;
use openacc_vv::validation::{FileJournal, Replay};
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;

/// `print!` through [`write_out`]; evaluates to its `Result`.
macro_rules! out {
    ($($arg:tt)*) => { write_out(format_args!($($arg)*)) };
}

/// `println!` through [`write_out`]; evaluates to its `Result`.
macro_rules! outln {
    () => { write_out(format_args!("\n")) };
    ($($arg:tt)*) => { write_out(format_args!("{}\n", format_args!($($arg)*))) };
}

/// Write command output to stdout. A reader that has gone away (`accvv
/// run … | head -1`) is not an error: the rest of the output is dropped and
/// the command ends with the status it would have had. Any other write
/// failure is the command's error.
fn write_out(args: std::fmt::Arguments) -> Result<(), String> {
    match std::io::stdout().write_fmt(args) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => Err(format!("stdout: {e}")),
        _ => Ok(()),
    }
}

/// `eprintln!` through [`write_err`].
macro_rules! errln {
    ($($arg:tt)*) => { write_err(format_args!("{}\n", format_args!($($arg)*))) };
}

/// Write a diagnostic to stderr. Like stdout, a reader that has gone away
/// (`accvv run … 2>&1 | head -1`) drops the rest and the command ends with
/// the status it would have had; stderr has nowhere to report its own
/// failures, so every write error is dropped.
fn write_err(args: std::fmt::Arguments) {
    let _ = std::io::stderr().write_fmt(args);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = check_flags(&args).and_then(|()| match args.first().map(String::as_str) {
        Some("list") => cmd_list(&args[1..]),
        Some("show") => cmd_show(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("campaign") => cmd_campaign(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("history") => cmd_history(&args[1..]),
        Some("matrix") => cmd_matrix(&args[1..]),
        Some("bugs") => cmd_bugs(&args[1..]),
        Some("expand") => cmd_expand(&args[1..]),
        Some("disasm") => cmd_disasm(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("titan") => cmd_titan(&args[1..]),
        Some("torture") => cmd_torture(&args[1..]),
        Some("selftest") => cmd_selftest(&args[1..]),
        Some("help") | None => print_usage(),
        Some(other) => Err(format!("unknown command `{other}` (try `accvv help`)")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            errln!("accvv: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
accvv — OpenACC 1.0 validation suite

USAGE:
  accvv list [PREFIX]
  accvv show NAME [--lang c|fortran] [--cross]
  accvv run --vendor caps|pgi|cray|reference [--version X] [--lang c|fortran]
           [--features P1,P2,…] [--format text|csv|html] [--repetitions M]
           [--attribute] [--jobs N] [--retries R] [--backoff-ms MS] [--case-deadline-ms MS]
           [--journal FILE | --resume FILE] [--out FILE] [--halt-after N]
           [--no-cache (the default)] [--exec-mode vm|walk]
           [--trace-out FILE] [--metrics-out FILE]
  accvv serve [--addr HOST:PORT] [--store DIR] [--jobs N] [--queue-cap N]
             [--breaker-threshold N] [--breaker-cooldown-ms MS]
             [--retry-after-secs S] [--trace-out FILE] [--metrics-out FILE]
  accvv campaign [--vendor caps|pgi|cray] [--jobs N] [--no-cache]
                [--exec-mode vm|walk] [--trace-out FILE] [--metrics-out FILE]
  accvv bench [--iters N] [--out FILE] [--no-cache]
             [--check BASELINE [--tolerance-pct P] [--overhead-pct P]]
  accvv history [--store DIR] [--bucket SECS] [--since EPOCH] [--until EPOCH]
               [--by profile|feature|tenant|lang] [--tenant T] [--scope PREFIX]
               [--latency] [--out FILE]
               [--check BASELINE [--pass-tolerance PTS] [--latency-tolerance-pct P]]
  accvv trace export TRACE.jsonl [--out FILE]
  accvv trace check FILE
  accvv matrix --vendor caps|pgi|cray [--lang c|fortran]
  accvv bugs --vendor caps|pgi|cray --version X [--lang c|fortran]
  accvv expand FILE
  accvv disasm NAME [--lang c|fortran] [--cross]
  accvv titan [--nodes N] [--sample K] [--seed S] [--fault-rate PCT]
             [--retries R] [--jobs N] [--exec-mode vm|walk]
  accvv titan --sweep [--nodes N] [--lose-node ID@AFTER]…
             [--journal FILE | --resume FILE] [--out FILE] [--halt-after N]
             [--quarantine-after K] [--track FILE] [--retries R]
             [--exec-mode vm|walk] [--trace-out FILE] [--metrics-out FILE]
  accvv torture [--seed S] [--stride N] [--verbose]
  accvv selftest [PREFIX]";

fn print_usage() -> Result<(), String> {
    outln!("{USAGE}")
}

/// Reject a `--` argument that the subcommand's usage lines do not list,
/// a flag that the usage shows with a value (`--jobs N`) but that has none
/// after it, and a second occurrence of a flag whose usage group does not
/// end in `…` (`[--lose-node ID@AFTER]…` may repeat; `--format` may not).
/// `accvv titan` has one usage group per mode, and a flag is checked
/// against the group of the mode [`titan_sweep`] picks.
fn check_flags(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Ok(());
    };
    let sweep = cmd == "titan" && titan_sweep(&args[1..]);
    let (mut named, mut listed, mut known) = (false, false, false);
    // (flag, takes a value, may repeat)
    let mut flags: Vec<(&str, bool, bool)> = Vec::new();
    // The other titan mode's flags, named in the refusal.
    let mut other_mode: Vec<&str> = Vec::new();
    for line in USAGE.lines().map(str::trim_start) {
        if let Some(rest) = line.strip_prefix("accvv ") {
            let mut words = rest.split_whitespace();
            named = words.next() == Some(cmd.as_str());
            listed = named && (words.next() == Some("--sweep")) == sweep;
            known |= named;
        }
        if !named {
            continue;
        }
        let mut words = line.split_whitespace().peekable();
        while let Some(word) = words.next() {
            let word = word.trim_start_matches('[');
            if word.starts_with("--") {
                let value = words
                    .peek()
                    .filter(|w| !word.ends_with(']') && !w.starts_with(['[', '(', '-']));
                let repeats = value.map_or(word, |w| *w).ends_with("]…");
                let word = word.trim_end_matches([']', '…']);
                if listed {
                    flags.push((word, value.is_some(), repeats));
                } else {
                    other_mode.push(word);
                }
            }
        }
    }
    if !known {
        return Ok(()); // not a command: dispatch names it
    }
    let mut seen: Vec<&str> = Vec::new();
    let mut rest = args[1..].iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            continue;
        }
        match flags.iter().find(|(flag, ..)| flag == arg) {
            None if other_mode.contains(&arg.as_str()) => {
                let mode = if sweep {
                    "`accvv titan --sweep`"
                } else {
                    "the sampled `accvv titan`"
                };
                let why = if arg == "--jobs" {
                    ": the sweep runs its units one at a time, so node losses fire at the same \
                     unit on every run"
                } else {
                    " (see `accvv help`)"
                };
                return Err(format!("`{arg}` does not apply to {mode}{why}"));
            }
            None => {
                return Err(format!(
                    "unknown flag `{arg}` for `accvv {cmd}` (see `accvv help`)"
                ))
            }
            Some((_, true, _)) if rest.next().is_none_or(|v| v.starts_with("--")) => {
                return Err(format!("flag `{arg}` needs a value"));
            }
            Some((flag, _, false)) if seen.contains(flag) => {
                return Err(format!(
                    "flag `{arg}` is given twice; `accvv {cmd}` takes it once"
                ));
            }
            Some((flag, ..)) => seen.push(flag),
        }
    }
    Ok(())
}

/// Pull `--key value` out of an argument list.
fn opt(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn flag(args: &[String], key: &str) -> bool {
    args.iter().any(|a| a == key)
}

/// Telemetry sinks requested on the command line. The recorder is enabled
/// only when at least one sink is — otherwise every instrumentation site in
/// the stack stays a guaranteed no-op.
struct Telemetry {
    recorder: obs::Recorder,
    trace_out: Option<String>,
    metrics_out: Option<String>,
}

/// Parse `--trace-out FILE` / `--metrics-out FILE`.
fn telemetry_opts(args: &[String]) -> Telemetry {
    let trace_out = opt(args, "--trace-out");
    let metrics_out = opt(args, "--metrics-out");
    let recorder = if trace_out.is_some() || metrics_out.is_some() {
        obs::Recorder::enabled()
    } else {
        obs::Recorder::disabled()
    };
    Telemetry {
        recorder,
        trace_out,
        metrics_out,
    }
}

impl Telemetry {
    /// Flush the requested sinks. Runs after the campaign completes so
    /// sink I/O can never perturb report or journal bytes mid-run. The
    /// compile-cache counters (when a cache was attached) ride into the
    /// metrics exposition — the cache's own atomics are the single source
    /// of truth; the sink only renders them.
    fn finish(&self, cache: Option<&CacheStats>) -> Result<(), String> {
        if self.trace_out.is_none() && self.metrics_out.is_none() {
            return Ok(());
        }
        let events = self.recorder.snapshot();
        if let Some(p) = &self.trace_out {
            let jsonl = obs::trace::render_jsonl(&events);
            openacc_vv::validation::atomic_write(p, jsonl.as_bytes())
                .map_err(|e| format!("--trace-out {p}: {e}"))?;
            errln!(
                "accvv: trace written to {p} ({} event(s))",
                jsonl.lines().count()
            );
        }
        if let Some(p) = &self.metrics_out {
            let counters = cache.map(|&s| obs::metrics::CacheCounters::from(s));
            let text = obs::metrics::render_prometheus(&events, counters.as_ref());
            openacc_vv::validation::atomic_write(p, text.as_bytes())
                .map_err(|e| format!("--metrics-out {p}: {e}"))?;
            write_err(format_args!(
                "{}",
                obs::metrics::summary_table(&events, counters.as_ref())
            ));
            errln!("accvv: metrics written to {p}");
        }
        Ok(())
    }
}

/// Parse `--exec-mode vm|walk` (defaults to the bytecode VM when absent).
fn parse_exec_mode(args: &[String]) -> Result<ExecMode, String> {
    opt(args, "--exec-mode").map_or(Ok(ExecMode::default()), |s| ExecMode::from_cli(&s))
}

fn cmd_list(args: &[String]) -> Result<(), String> {
    let prefix = args.first().cloned().unwrap_or_default();
    let suite = openacc_vv::testsuite::full_suite();
    let mut shown = 0;
    for case in &suite {
        if !case.feature.as_str().starts_with(&prefix) {
            continue;
        }
        shown += 1;
        let langs: Vec<&str> = case
            .languages
            .iter()
            .map(|l| if *l == Language::C { "C" } else { "F" })
            .collect();
        let cross = case
            .cross
            .as_ref()
            .map(|c| c.to_string())
            .unwrap_or_else(|| "none".to_string());
        outln!(
            "{:<36} [{}] cross={}",
            case.feature.as_str(),
            langs.join(","),
            cross
        )?;
    }
    outln!("\n{shown} of {} tests shown", suite.len())?;
    Ok(())
}

fn cmd_show(args: &[String]) -> Result<(), String> {
    let (_, _, source) = named_source(args, "show")?;
    outln!("{source}")?;
    Ok(())
}

/// The program `NAME [--lang c|fortran] [--cross]` names (for `show` and
/// `disasm`), with its test case and language.
fn named_source(args: &[String], cmd: &str) -> Result<(TestCase, Language, String), String> {
    let name = args
        .iter()
        .find(|a| !a.starts_with("--") && opt_key_of(args, a).is_none())
        .ok_or(format!("{cmd} requires a test name"))?;
    let lang = opt(args, "--lang").map_or(Ok(Language::C), |l| Language::from_cli(&l))?;
    let case = openacc_vv::testsuite::full_suite()
        .into_iter()
        .find(|c| c.name == *name || c.feature.as_str() == *name)
        .ok_or_else(|| format!("no test named `{name}` (try `accvv list`)"))?;
    if !case.supports(lang) {
        return Err(format!("`{name}` is not generated for {lang}"));
    }
    let source = if flag(args, "--cross") {
        case.cross_source_for(lang).ok_or_else(|| format!("`{name}` has no cross test"))?
    } else {
        case.source_for(lang)
    };
    Ok((case, lang, source))
}

/// Is `a` the value of some `--key` option (so `show` skips it)?
fn opt_key_of<'a>(args: &'a [String], value: &String) -> Option<&'a String> {
    args.iter()
        .enumerate()
        .find(|(i, _)| args.get(i + 1) == Some(value))
        .filter(|(_, k)| k.starts_with("--"))
        .map(|(_, k)| k)
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let vendor = VendorId::from_cli(&opt(args, "--vendor").ok_or("run requires --vendor")?)?;
    let compiler = match opt(args, "--version") {
        Some(v) => {
            let version = v.parse().map_err(|e| format!("{e}"))?;
            if vendor.version_index(version).is_none() {
                return Err(format!(
                    "{} never released {version}; releases: {}",
                    vendor.name(),
                    vendor
                        .versions()
                        .iter()
                        .map(|v| v.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
            VendorCompiler::new(vendor, version)
        }
        None => VendorCompiler::latest(vendor),
    };
    let mut config = SuiteConfig::new();
    if let Some(l) = opt(args, "--lang") {
        config = config.language(Language::from_cli(&l)?);
    }
    if let Some(features) = opt(args, "--features") {
        let prefixes: Vec<&str> = features.split(',').map(str::trim).collect();
        config = config.select_prefixes(&prefixes);
    }
    if let Some(m) = opt(args, "--repetitions") {
        config = config.with_repetitions(m.parse().map_err(|_| "bad --repetitions")?);
    }
    let exec_mode = parse_exec_mode(args)?;
    config = config.with_exec_mode(exec_mode);
    let format = opt(args, "--format").map_or(Ok(ReportFormat::Text), |f| ReportFormat::from_cli(&f))?;
    let jobs = parse_jobs(args, 1)?;
    let tele = telemetry_opts(args);
    let mut policy = ExecutorPolicy::new()
        .with_jobs(jobs)
        .with_retries(parse_opt_or(args, "--retries", 0u32)?)
        .with_backoff_ms(parse_opt_or(args, "--backoff-ms", 0u64)?)
        .with_recorder(tele.recorder.clone())
        .with_exec_mode(exec_mode);
    if let Some(ms) = opt(args, "--case-deadline-ms") {
        let ms: u64 = ms.parse().map_err(|_| "bad --case-deadline-ms")?;
        if ms == 0 {
            return Err(
                "--case-deadline-ms 0 would time out every case before it starts (minimum 1)"
                    .to_string(),
            );
        }
        policy = policy.with_deadline_ms(ms);
    }
    // Ctrl-C / SIGTERM drains instead of killing: workers stop claiming new
    // cases, in-flight verdicts land in the journal, telemetry sinks flush,
    // and the exit carries a resume hint — the same path `accvv serve` uses.
    let cancel = openacc_vv::server::signal::install_default();
    policy = policy.with_cancel(Arc::clone(&cancel));
    let (journal_path, resume_path) = journal_paths(args)?;
    let mut journal = None;
    if let Some(p) = &journal_path {
        let j = FileJournal::create(p).map_err(|e| format!("--journal {p}: {e}"))?;
        journal = Some(Arc::new(j));
    }
    if let Some(p) = &resume_path {
        let (replay, j) = Replay::open_resume(p).map_err(|e| format!("--resume {p}: {e}"))?;
        if let Some((scope, _, _)) = &replay.meta {
            if *scope != compiler.label() {
                return Err(format!(
                    "--resume {p}: journal was recorded for `{scope}`, not `{}`",
                    compiler.label()
                ));
            }
        }
        errln!("accvv: {}", replay.summary());
        journal = Some(Arc::new(j));
        policy = policy.with_resume(Arc::new(replay));
    }
    if let Some(j) = &journal {
        policy = policy.with_journal(j.clone());
    }
    if let Some(n) = opt(args, "--halt-after") {
        policy = policy.with_halt_after(n.parse().map_err(|_| "bad --halt-after")?);
    }
    // No compile cache: one release compiles each source once, so a cache
    // would only hold entries until exit (`--no-cache` is accepted and is
    // the default).
    let campaign = Campaign::new(openacc_vv::testsuite::full_suite()).with_config(config);
    if let Some(n) = policy.halt_after {
        let total_jobs = campaign.materialized_cases().len() * campaign.config.languages.len();
        if n > total_jobs {
            return Err(format!(
                "--halt-after {n} exceeds the {total_jobs} job(s) this run schedules; it would \
                 never trip"
            ));
        }
    }
    let (run, stats) = Executor::new(policy).run_suite_stats(&campaign, &compiler);
    tele.finish(None)?;
    if stats.cached > 0 {
        errln!(
            "accvv: resume skipped {} completed case(s); {} executed this run",
            stats.cached, stats.executed
        );
    }
    // A journal that dropped a record cannot resume this run, so its
    // failure replaces the resume hints: the report is still written.
    let journal_failure = journal_failure(journal.as_deref());
    if stats.halted && journal_failure.is_none() {
        let hint = journal_path
            .as_ref()
            .or(resume_path.as_ref())
            .map(|p| format!("; resume with `accvv run --resume {p}`"))
            .unwrap_or_default();
        return Err(format!(
            "run halted after {} executed job(s) (--halt-after){hint}",
            stats.executed
        ));
    }
    if stats.cancelled && journal_failure.is_none() {
        let hint = journal_path
            .as_ref()
            .or(resume_path.as_ref())
            .map(|p| format!("; resume with `accvv run --resume {p}`"))
            .unwrap_or_else(|| {
                "; use --journal to make interrupted runs resumable".to_string()
            });
        return Err(format!(
            "interrupted by signal after {} executed job(s); journal and telemetry sinks \
             flushed{hint}",
            stats.executed
        ));
    }
    match opt(args, "--out") {
        Some(p) => {
            report::write_file(&run, format, &p).map_err(|e| format!("--out {p}: {e}"))?;
            errln!("accvv: report written to {p}");
        }
        None => out!("{}", report::render(&run, format))?,
    }
    if flag(args, "--attribute") && compiler.vendor != VendorId::Reference {
        let catalog = BugCatalog::paper();
        let failures = openacc_vv::validation::analysis::attribute(
            &run,
            &catalog,
            compiler.vendor,
            compiler.version,
        );
        if !failures.is_empty() {
            outln!()?;
            out!(
                "{}",
                openacc_vv::validation::analysis::render_attribution(&failures)
            )?;
        }
    }
    // Failure-taxonomy summary + hard exit status: any non-skipped case
    // that failed (flaky counts as a pass) makes the run exit nonzero so CI
    // pipelines can gate on `accvv run`.
    let mut hard_failures = 0usize;
    for &lang in &campaign.config.languages {
        let breakdown = run.failure_breakdown(lang);
        outln!("taxonomy [{lang}]: {breakdown}")?;
        hard_failures += breakdown.total_failures();
    }
    if let Some(e) = journal_failure {
        return Err(e);
    }
    if hard_failures > 0 {
        return Err(format!("{hard_failures} case(s) failed"));
    }
    Ok(())
}

/// `accvv serve` — the overload-safe campaign daemon. Submissions arrive
/// as HTTP/JSON, pass bounded admission (429 + Retry-After when the queue
/// is full), run under per-tenant fair scheduling with deadline
/// propagation and per-vendor circuit breakers, and land in the indexed
/// result store. SIGINT/SIGTERM drains gracefully and exits 0.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let store_dir = opt(args, "--store").unwrap_or_else(|| "accvv-store".to_string());
    let jobs = parse_jobs(args, 1)?;
    let queue_cap: usize = parse_opt_or(args, "--queue-cap", 8usize)?;
    if queue_cap == 0 {
        return Err("--queue-cap must be at least 1 (a zero-slot queue sheds everything)".to_string());
    }
    let breaker_threshold: u32 = parse_opt_or(args, "--breaker-threshold", 5u32)?;
    if breaker_threshold == 0 {
        return Err("--breaker-threshold must be at least 1".to_string());
    }
    let tele = telemetry_opts(args);
    let mut config = openacc_vv::server::ServeConfig::new(&store_dir);
    if let Some(addr) = opt(args, "--addr") {
        config.addr = addr;
    }
    config.jobs = jobs;
    config.queue_cap = queue_cap;
    config.breaker_threshold = breaker_threshold;
    config.breaker_cooldown = std::time::Duration::from_millis(parse_opt_or(
        args,
        "--breaker-cooldown-ms",
        30_000u64,
    )?);
    config.retry_after_secs = parse_opt_or(args, "--retry-after-secs", 2u64)?;
    config.recorder = tele.recorder.clone();
    let server = openacc_vv::server::Server::bind(config).map_err(|e| format!("serve: {e}"))?;
    let addr = server.local_addr().map_err(|e| format!("serve: {e}"))?;
    let cache = server.cache();
    openacc_vv::server::signal::install(server.drain_token());
    errln!(
        "accvv: serving campaigns on http://{addr} (store: {store_dir}); \
         POST /v1/submit to queue one, SIGINT/SIGTERM to drain"
    );
    let summary = server.run().map_err(|e| format!("serve: {e}"))?;
    tele.finish(Some(&cache.stats()))?;
    errln!("accvv: drained cleanly: {summary}");
    Ok(())
}

/// The command's error when its journal failed to take a record (the
/// first append error): the journal cannot resume the run.
fn journal_failure(journal: Option<&FileJournal>) -> Option<String> {
    let e = journal?.take_error()?;
    Some(format!("journal {e}; it cannot resume this run"))
}

/// `--journal FILE` and `--resume FILE`, which exclude each other.
fn journal_paths(args: &[String]) -> Result<(Option<String>, Option<String>), String> {
    match (opt(args, "--journal"), opt(args, "--resume")) {
        (Some(_), Some(_)) => Err("--journal and --resume are mutually exclusive (--resume \
                                   keeps appending to the journal it replays)"
            .to_string()),
        paths => Ok(paths),
    }
}

/// Parse `--jobs N` (default `default`), rejecting 0.
fn parse_jobs(args: &[String], default: usize) -> Result<usize, String> {
    match parse_opt_or(args, "--jobs", default)? {
        0 => Err("--jobs must be at least 1 (a pool with no workers runs nothing)".to_string()),
        jobs => Ok(jobs),
    }
}

/// Parse `--key value` as `T`, with a default when the flag is absent.
fn parse_opt_or<T: std::str::FromStr>(
    args: &[String],
    key: &str,
    default: T,
) -> Result<T, String> {
    match opt(args, key) {
        Some(v) => v.parse().map_err(|_| format!("bad {key} value `{v}`")),
        None => Ok(default),
    }
}

fn cmd_campaign(args: &[String]) -> Result<(), String> {
    let vendors: Vec<VendorId> = match opt(args, "--vendor") {
        Some(v) => vec![VendorId::from_cli(&v)?],
        None => VendorId::COMMERCIAL.to_vec(),
    };
    let cache = (!flag(args, "--no-cache")).then(openacc_vv::compiler::CompileCache::shared);
    let tele = telemetry_opts(args);
    let exec_mode = parse_exec_mode(args)?;
    let mut campaign = Campaign::new(openacc_vv::testsuite::full_suite())
        .with_config(SuiteConfig::new().with_exec_mode(exec_mode));
    if let Some(c) = &cache {
        campaign = campaign.with_cache(Arc::clone(c));
    }
    let threads = parse_jobs(args, default_jobs())?;
    let policy = ExecutorPolicy::new()
        .with_jobs(threads)
        .with_recorder(tele.recorder.clone())
        .with_exec_mode(exec_mode);
    // One sweep over every selected release: each case runs under all of
    // them back to back, so its sources are parsed and lowered once.
    let (runs, _) = Executor::new(policy).run_sweep(&campaign, &releases(&vendors));
    let mut runs = runs.into_iter();
    for vendor in vendors {
        outln!("=== {} ===", vendor.name())?;
        outln!("{:>10} {:>8} {:>10}", "version", "C %", "Fortran %")?;
        for (version, run) in vendor.versions().iter().zip(runs.by_ref()) {
            outln!(
                "{:>10} {:>8.1} {:>10.1}",
                version.to_string(),
                run.pass_rate(Language::C),
                run.pass_rate(Language::Fortran)
            )?;
        }
        outln!()?;
    }
    if let Some(c) = &cache {
        errln!("accvv: compile cache: {}", c.stats());
    }
    let cache_stats = cache.as_ref().map(|c| c.stats());
    tele.finish(cache_stats.as_ref())?;
    Ok(())
}

/// Every release of `vendors`, in vendor order, oldest first.
fn releases(vendors: &[VendorId]) -> Vec<VendorCompiler> {
    vendors
        .iter()
        .flat_map(|&vendor| {
            vendor
                .versions()
                .into_iter()
                .map(move |v| VendorCompiler::new(vendor, v))
        })
        .collect()
}

/// The worker count `campaign` and `matrix` use without `--jobs`: one per
/// CPU this process may use.
fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// `accvv bench`: time the suite's hot paths, write `BENCH_suite.json`,
/// and optionally gate against a committed baseline.
fn cmd_bench(args: &[String]) -> Result<(), String> {
    use acc_bench::perf::{self, run_bench};
    let iters: u32 = parse_opt_or(args, "--iters", 3u32)?;
    let use_cache = !flag(args, "--no-cache");
    let report = run_bench(iters, use_cache);
    outln!(
        "accvv bench — {} iteration(s) per workload, cache {}",
        iters.max(1),
        if use_cache { "on" } else { "off" }
    )?;
    outln!("{:<30} {:>12} {:>14}", "workload", "median ms", "cases/sec")?;
    for m in &report.measurements {
        outln!(
            "{:<30} {:>12.2} {:>14.1}",
            m.name, m.median_ms, m.cases_per_sec
        )?;
    }
    if use_cache {
        outln!("compile cache: {}", report.cache)?;
    }
    // Read the baseline BEFORE writing --out: with the default output path
    // `--check BENCH_suite.json` would otherwise compare the fresh report
    // against itself.
    let baseline_json = match opt(args, "--check") {
        Some(p) => Some((
            std::fs::read_to_string(&p).map_err(|e| format!("--check {p}: {e}"))?,
            p,
        )),
        None => None,
    };
    let out = opt(args, "--out").unwrap_or_else(|| "BENCH_suite.json".to_string());
    let json = report.to_json();
    openacc_vv::validation::atomic_write(&out, json.as_bytes())
        .map_err(|e| format!("--out {out}: {e}"))?;
    errln!("accvv: bench report written to {out}");
    // Regression and telemetry-overhead gates: print every guard, then
    // fail naming each one over its limit.
    if let Some((baseline_json, baseline_path)) = baseline_json {
        let tolerance_pct: f64 = parse_opt_or(args, "--tolerance-pct", 25.0f64)?;
        let overhead_pct: f64 = parse_opt_or(args, "--overhead-pct", 2.0f64)?;
        let checks = perf::check_guards(
            &report,
            &baseline_json,
            &baseline_path,
            tolerance_pct,
            overhead_pct,
        )?;
        for check in &checks {
            outln!("{}", check.line)?;
        }
        let failures: Vec<&str> = checks.iter().filter_map(|c| c.failure.as_deref()).collect();
        if !failures.is_empty() {
            return Err(failures.join("; "));
        }
    }
    Ok(())
}

/// `accvv history`: fold a server result store into a time-bucketed trend
/// table, optionally write a drift baseline, and optionally gate against a
/// committed one (nonzero exit on regression).
fn cmd_history(args: &[String]) -> Result<(), String> {
    use openacc_vv::harness::{check_drift, history, DriftTolerance, HistoryRequest, ResultStore};
    let store_dir = opt(args, "--store").unwrap_or_else(|| "accvv-store".to_string());
    let bucket: u64 = parse_opt_or(args, "--bucket", 3600u64)?;
    if bucket == 0 {
        return Err("--bucket must be a positive number of seconds".to_string());
    }
    let since: u64 = parse_opt_or(args, "--since", 0u64)?;
    let until: u64 = parse_opt_or(args, "--until", u64::MAX)?;
    if since > until {
        return Err("--since is after --until: the window is empty".to_string());
    }
    let by = match opt(args, "--by") {
        None => obs::GroupBy::Profile,
        Some(raw) => obs::GroupBy::parse(&raw)
            .ok_or_else(|| format!("--by must be profile|feature|tenant|lang, got `{raw}`"))?,
    };
    let req = HistoryRequest {
        bucket,
        since,
        until,
        by,
        tenant: opt(args, "--tenant").unwrap_or_default(),
        scope: opt(args, "--scope").unwrap_or_default(),
    };
    let store_path = std::path::Path::new(&store_dir).join("results.j1");
    let store =
        ResultStore::open(&store_path).map_err(|e| format!("{}: {e}", store_path.display()))?;
    let rows = history(&store, &req);
    out!(
        "{}",
        openacc_vv::harness::history::render_table(&rows, by, flag(args, "--latency"))
    )?;
    // Read the baseline BEFORE writing --out (same rationale as bench:
    // `--check BENCH_history.json --out BENCH_history.json` must compare
    // against the committed file, not the one we are about to write).
    let baseline = match opt(args, "--check") {
        Some(p) => Some((
            std::fs::read_to_string(&p).map_err(|e| format!("--check {p}: {e}"))?,
            p,
        )),
        None => None,
    };
    if let Some(out) = opt(args, "--out") {
        let json = openacc_vv::harness::history::baseline_json(&rows, by);
        openacc_vv::validation::atomic_write(&out, json.as_bytes())
            .map_err(|e| format!("--out {out}: {e}"))?;
        errln!("accvv: history baseline written to {out}");
    }
    if let Some((baseline_json, baseline_path)) = baseline {
        let tol = DriftTolerance {
            pass_points: parse_opt_or(args, "--pass-tolerance", 0.5f64)?,
            latency_pct: parse_opt_or(args, "--latency-tolerance-pct", 50.0f64)?,
        };
        let lines = check_drift(&rows, &baseline_json, &tol)
            .map_err(|e| format!("--check {baseline_path}: {e}"))?;
        for line in lines {
            outln!("{line}")?;
        }
    }
    Ok(())
}

fn cmd_matrix(args: &[String]) -> Result<(), String> {
    // The §VI "large table": pass/fail per feature per release.
    let vendor = VendorId::from_cli(&opt(args, "--vendor").ok_or("matrix requires --vendor")?)?;
    let lang = opt(args, "--lang").map_or(Ok(Language::C), |l| Language::from_cli(&l))?;
    let campaign = Campaign::new(openacc_vv::testsuite::full_suite())
        .with_config(SuiteConfig::new().language(lang))
        .with_cache(openacc_vv::compiler::CompileCache::shared());
    let policy = ExecutorPolicy::new().with_jobs(default_jobs());
    let (runs, _) = Executor::new(policy).run_sweep(&campaign, &releases(&[vendor]));
    let refs: Vec<&openacc_vv::validation::SuiteRun> = runs.iter().collect();
    out!("{}", report::feature_matrix(&refs, lang))?;
    Ok(())
}

fn cmd_bugs(args: &[String]) -> Result<(), String> {
    let vendor = VendorId::from_cli(&opt(args, "--vendor").ok_or("bugs requires --vendor")?)?;
    let version = opt(args, "--version")
        .ok_or("bugs requires --version")?
        .parse()
        .map_err(|e| format!("{e}"))?;
    let langs = match opt(args, "--lang") {
        Some(l) => vec![Language::from_cli(&l)?],
        None => vec![Language::C, Language::Fortran],
    };
    let catalog = BugCatalog::paper();
    for lang in langs {
        let active = catalog.active(vendor, version, lang);
        outln!(
            "{} {} ({lang}): {} active bugs",
            vendor.name(),
            version,
            active.len()
        )?;
        for bug in active {
            outln!(
                "  {:<14} {:<34} {}",
                bug.id,
                bug.feature.as_str(),
                bug.description
            )?;
        }
        outln!()?;
    }
    Ok(())
}

fn cmd_expand(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("expand requires a template file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let cases = parse_templates(&text).map_err(|e| e.to_string())?;
    for case in &cases {
        outln!("### {} (feature {})", case.name, case.feature)?;
        for lang in case.languages.clone() {
            outln!("--- functional ({lang}) ---\n{}", case.source_for(lang))?;
            if let Some(x) = case.cross_source_for(lang) {
                outln!("--- cross ({lang}) ---\n{x}")?;
            }
        }
        let problems = openacc_vv::validation::harness::validate_case(case);
        if problems.is_empty() {
            outln!("reference self-check: OK\n")?;
        } else {
            outln!("reference self-check FAILED:")?;
            for p in problems {
                outln!("  {p}")?;
            }
        }
    }
    Ok(())
}

/// `accvv disasm NAME`: lower a corpus test to bytecode and print the
/// stable disassembly (the artifact the VM executes; useful for inspecting
/// what the register allocator and escape hatches produced).
fn cmd_disasm(args: &[String]) -> Result<(), String> {
    let (case, lang, source) = named_source(args, "disasm")?;
    let exe = VendorCompiler::reference()
        .compile(&source, lang)
        .map_err(|e| format!("`{}` does not compile: {e}", case.name))?;
    out!("{}", exe.disassemble())?;
    Ok(())
}

/// `accvv trace export|check`: convert a deterministic JSONL trace (from
/// `--trace-out`) into a Chrome trace-event file loadable in Perfetto /
/// `chrome://tracing`, or validate an exported file's span nesting.
fn cmd_trace(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("export") => {
            let input = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or("trace export requires a JSONL trace file (from --trace-out)")?;
            let text =
                std::fs::read_to_string(input).map_err(|e| format!("{input}: {e}"))?;
            let events = obs::trace::parse_jsonl(&text).map_err(|e| format!("{input}: {e}"))?;
            let doc = obs::chrome::render(&events);
            // Self-check before writing: an export that Perfetto would
            // reject (unbalanced spans) is a bug worth failing loudly on.
            let spans = obs::chrome::validate(&doc)?;
            let out = opt(args, "--out").unwrap_or_else(|| "trace.json".to_string());
            openacc_vv::validation::atomic_write(&out, doc.as_bytes())
                .map_err(|e| format!("--out {out}: {e}"))?;
            outln!(
                "accvv: Chrome trace written to {out} ({} event(s), {spans} span(s))",
                events.len()
            )?;
            Ok(())
        }
        Some("check") => {
            let input = args
                .get(1)
                .ok_or("trace check requires a Chrome trace file")?;
            let doc = std::fs::read_to_string(input).map_err(|e| format!("{input}: {e}"))?;
            let spans = obs::chrome::validate(&doc).map_err(|e| format!("{input}: {e}"))?;
            outln!("accvv: {input} OK ({spans} properly nested span(s))")?;
            Ok(())
        }
        _ => Err("trace requires a subcommand: export TRACE.jsonl [--out FILE] | check FILE"
            .to_string()),
    }
}

/// Self-check the corpus against the reference implementation: every
/// functional test must pass and every cross test must discriminate (the
/// suite-quality gate a maintainer runs before shipping new templates).
fn cmd_selftest(args: &[String]) -> Result<(), String> {
    let prefix = args.first().cloned().unwrap_or_default();
    let suite = openacc_vv::testsuite::full_suite();
    let mut checked = 0;
    let mut bad = 0;
    for case in &suite {
        if !case.feature.as_str().starts_with(&prefix) {
            continue;
        }
        checked += 1;
        let problems = openacc_vv::validation::harness::validate_case(case);
        if problems.is_empty() {
            outln!("OK    {}", case.name)?;
        } else {
            bad += 1;
            for p in problems {
                outln!("BAD   {p}")?;
            }
        }
    }
    outln!(
        "
{checked} tests self-checked, {bad} unhealthy"
    )?;
    if bad > 0 {
        return Err(format!("{bad} corpus tests failed the self-check"));
    }
    Ok(())
}

/// All values of a repeatable `--key value` option, in order.
fn opt_all(args: &[String], key: &str) -> Vec<String> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == key)
        .filter_map(|(i, _)| args.get(i + 1))
        .cloned()
        .collect()
}

/// The fast four-feature subset the Titan harness runs per node.
fn titan_suite() -> Vec<TestCase> {
    let keep = ["loop", "data.copy", "parallel.async", "update.host"];
    openacc_vv::testsuite::full_suite()
        .into_iter()
        .filter(|c| keep.contains(&c.feature.as_str()))
        .collect()
}

/// Does `accvv titan` run the durable sweep? Yes when any flag only the
/// sweep takes is given (`--nodes` belongs to both modes).
fn titan_sweep(args: &[String]) -> bool {
    ["--sweep", "--journal", "--resume", "--lose-node"]
        .iter()
        .any(|key| flag(args, key))
}

fn cmd_titan(args: &[String]) -> Result<(), String> {
    if titan_sweep(args) {
        return cmd_titan_sweep(args);
    }
    let nodes: u32 = parse_opt_or(args, "--nodes", 16)?;
    let sample: usize = parse_opt_or(args, "--sample", 8)?;
    let seed: u64 = parse_opt_or(args, "--seed", 1)?;
    let fault_rate: u8 = parse_opt_or(args, "--fault-rate", 0u8)?;
    if fault_rate > 100 {
        return Err(format!(
            "--fault-rate {fault_rate} is not a percentage (expected 0–100)"
        ));
    }
    let retries: u32 = parse_opt_or(args, "--retries", if fault_rate > 0 { 4 } else { 0 })?;
    let jobs = parse_jobs(args, 1)?;
    // One persistently-broken node, plus — when a fault rate is given — one
    // node with a seeded transient memcpy fault the retry policy should
    // classify as flaky rather than broken.
    let mut faults = vec![(nodes / 3, NodeFault::StaleRuntime)];
    if fault_rate > 0 && nodes > 1 {
        faults.push((
            nodes - 1,
            NodeFault::FlakyMemcpy {
                rate_pct: fault_rate,
                seed,
            },
        ));
    }
    let cluster = SimulatedCluster::titan(nodes, &faults);
    let policy = ExecutorPolicy::new()
        .with_retries(retries)
        .with_jobs(jobs)
        .with_exec_mode(parse_exec_mode(args)?);
    let report = HarnessRun::new(titan_suite(), sample)
        .with_policy(policy)
        .execute(&cluster, seed);
    outln!("{}", report.matrix())?;
    let suspects = report.suspect_nodes(99.0);
    if suspects.is_empty() {
        outln!("no suspect nodes")?;
    } else {
        outln!("suspect nodes: {suspects:?}")?;
    }
    let flaky = report.flaky_nodes();
    if !flaky.is_empty() {
        outln!("flaky nodes (transient faults suspected): {flaky:?}")?;
    }
    Ok(())
}

/// `accvv titan --sweep`: a durable cluster-wide sweep with journaling,
/// crash-safe resume, scheduled node losses and repeat-offender quarantine.
fn cmd_titan_sweep(args: &[String]) -> Result<(), String> {
    use openacc_vv::harness::{ClusterSweep, LossPlan};
    let losses = opt_all(args, "--lose-node")
        .iter()
        .map(|s| LossPlan::parse(s))
        .collect::<Result<Vec<_>, _>>()?;
    let (journal_path, resume_path) = journal_paths(args)?;
    let resumed = match &resume_path {
        Some(p) => {
            let (replay, j) = Replay::open_resume(p).map_err(|e| format!("--resume {p}: {e}"))?;
            errln!("accvv: {}", replay.summary());
            Some((replay, j))
        }
        None => None,
    };
    // An explicit --nodes wins; otherwise a resumed journal dictates the
    // cluster shape it was recorded against (the scope check would reject a
    // mismatch anyway).
    let nodes: u32 = match opt(args, "--nodes") {
        Some(s) => s.parse().map_err(|_| format!("bad --nodes `{s}`"))?,
        None => resumed
            .as_ref()
            .and_then(|(r, _)| r.meta.as_ref())
            .and_then(|(scope, _, _)| ClusterSweep::nodes_in_scope(scope))
            .unwrap_or(4),
    };
    if nodes == 0 {
        return Err("--nodes must be at least 1".to_string());
    }
    // A loss plan naming a node outside the cluster would silently never
    // fire — surface the mistake instead of running a misconfigured sweep.
    for loss in &losses {
        if loss.node >= nodes {
            return Err(format!(
                "--lose-node {}@{} names node {} but the cluster has nodes 0–{} \
                 (use --nodes to grow it)",
                loss.node,
                loss.after_units,
                loss.node,
                nodes - 1
            ));
        }
    }
    let tele = telemetry_opts(args);
    let mut policy = ExecutorPolicy::new()
        .with_retries(parse_opt_or(args, "--retries", 0u32)?)
        .with_recorder(tele.recorder.clone())
        .with_exec_mode(parse_exec_mode(args)?);
    let mut journal = None;
    if let Some(p) = &journal_path {
        let j = FileJournal::create(p).map_err(|e| format!("--journal {p}: {e}"))?;
        journal = Some(Arc::new(j));
    }
    if let Some((replay, j)) = resumed {
        journal = Some(Arc::new(j));
        policy = policy.with_resume(Arc::new(replay));
    }
    if let Some(j) = &journal {
        policy = policy.with_journal(j.clone());
    }
    if let Some(n) = opt(args, "--halt-after") {
        policy = policy.with_halt_after(n.parse().map_err(|_| "bad --halt-after")?);
    }
    let cluster = SimulatedCluster::titan(nodes, &[]);
    let sweep = ClusterSweep::new(titan_suite())
        .with_policy(policy)
        .with_losses(losses)
        .with_quarantine_after(parse_opt_or(args, "--quarantine-after", 2u32)?);
    let out = sweep.run(&cluster)?;
    tele.finish(None)?;
    let rendered = out.render();
    match opt(args, "--out") {
        Some(p) => {
            openacc_vv::validation::atomic_write(&p, rendered.as_bytes())
                .map_err(|e| format!("--out {p}: {e}"))?;
            errln!("accvv: report written to {p}");
        }
        None => out!("{rendered}")?,
    }
    // Functionality tracking: fold this sweep's pass rate into the durable
    // time series and surface any drift against the previous observation.
    if let Some(track) = opt(args, "--track") {
        let mut tracker = match openacc_vv::harness::FunctionalityTracker::load(&track) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                openacc_vv::harness::FunctionalityTracker::new()
            }
            Err(e) => return Err(format!("--track {track}: {e}")),
        };
        let runs_so_far = tracker.history(&out.scope).map(|h| h.len()).unwrap_or(0);
        tracker.record(&out.scope, format!("run{}", runs_so_far + 1), out.pass_rate());
        for drift in tracker.latest_drifts() {
            outln!("{drift}")?;
        }
        tracker
            .save(&track)
            .map_err(|e| format!("--track {track}: {e}"))?;
    }
    if let Some(e) = journal_failure(journal.as_deref()) {
        return Err(e);
    }
    if out.halted {
        let hint = journal_path
            .as_ref()
            .or(resume_path.as_ref())
            .map(|p| format!("; resume with `accvv titan --resume {p}`"))
            .unwrap_or_default();
        return Err(format!(
            "sweep halted after {} executed unit(s){hint}",
            out.executed
        ));
    }
    Ok(())
}

/// `accvv torture`: run the reference durability workload on the fault
/// filesystem, crash after every recorded I/O operation, and prove that
/// recovery holds every invariant (no acked verdict lost, no torn frame
/// surfaced, resumed state identical to the reference run).
fn cmd_torture(args: &[String]) -> Result<(), String> {
    use openacc_vv::harness::{run_torture, TortureConfig};
    let config = TortureConfig {
        seed: parse_opt_or(args, "--seed", 0xACCu64)?,
        stride: parse_opt_or(args, "--stride", 1u64)?,
        verbose: flag(args, "--verbose"),
    };
    let outcome = run_torture(&config).map_err(|e| format!("torture harness: {e}"))?;
    outln!(
        "torture: reference run performs {} filesystem op(s); crashed at {} point(s) (stride {})",
        outcome.total_ops,
        outcome.crash_points,
        config.stride.max(1)
    )?;
    if outcome.violations.is_empty() {
        outln!("torture: every recovery invariant held at every crash point")?;
        return Ok(());
    }
    for v in &outcome.violations {
        errln!("torture: VIOLATION {v}");
    }
    Err(format!(
        "{} recovery-invariant violation(s); reproduce deterministically with --seed {}",
        outcome.violations.len(),
        config.seed
    ))
}
