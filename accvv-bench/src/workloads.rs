//! The untraced runs: each workload's requests through the entry points
//! users use, every output checked against the tree-walker oracle.

use crate::gen::{self, Release, Send, Spec};
use crate::{http, proc, speed, stats, Options, Scale};
use acc_compiler::exec::{ExecMode, RunKnobs, RunResult};
use acc_compiler::{Executable, VendorCompiler, VendorId};
use acc_obs::json::{self, Json};
use acc_spec::envvar::EnvConfig;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A submission that is not done this long after it was due has failed.
pub const SUBMISSION_TIMEOUT_S: f64 = 10.0;
/// The serve latency objective.
pub const SLO_MS: f64 = 100.0;
/// `serve_light`'s offered submissions per second: 250 in a 25-second run,
/// so the p90 has 25 samples beyond it, while the server still idles most
/// of the time.
pub const LIGHT_RATE: f64 = 10.0;
/// `serve_heavy`'s offered submissions per second: the heavier mix at the
/// same rate. Every HTTP request waits out the server's accept loop (about
/// 20 ms today) and the load comes from one sender and one watcher
/// connection, so at 20/s with its reads the two were each about half
/// busy: the latency then measured the client's own queue, and on a slow
/// host it doubled. At 10/s each is under a third busy.
pub const HEAVY_RATE: f64 = 10.0;

/// What the replay of a workload needs: its requests, in order, and the
/// oracle outputs to check the replay against.
pub enum Plan {
    /// `accvv run` releases and the walker's stdout per release.
    Runs(Vec<Release>, HashMap<Release, Vec<u8>>),
    /// `accvv campaign` vendors and the walker's stdout per vendor.
    Panels(Vec<VendorId>, HashMap<VendorId, Vec<u8>>),
    /// Kernel runs: the compiled programs, the walker's result per
    /// program, and the order the programs ran in.
    Kernels(Vec<Executable>, Vec<RunResult>, Vec<usize>),
    /// Server traffic and the walker's report per spec.
    Serve(Vec<Send>, HashMap<Spec, String>),
}

/// Client-side samples from an open-loop serve run.
#[derive(Debug, Default)]
pub struct ServeSamples {
    /// Per-endpoint request durations, ms: submit, report (polls
    /// included), read.
    pub http_ms: BTreeMap<&'static str, Vec<f64>>,
    /// How late each submission was sent, ms.
    pub late_ms: Vec<f64>,
    /// Submissions sent.
    pub submissions: usize,
    /// Submissions that completed correctly within the latency objective.
    pub slo_met: usize,
    /// `/metrics` counters at the end of the run.
    pub shared: f64,
    /// `/metrics` counters at the end of the run.
    pub shed: f64,
}

/// One untraced run's measurements.
pub struct Measured {
    /// Requests (and post-run checks) made.
    pub attempted: u64,
    /// Why each failed one failed.
    pub failures: Vec<String>,
    /// Set-up times, seconds (their median is reported).
    pub setup_s: Vec<f64>,
    /// Per-request latencies, ms; a closed loop's (like its set-up times)
    /// in CPU time at the reference host's speed ([`speed`]).
    pub latencies_ms: Vec<f64>,
    /// Per-request latencies in wall time, ms: what the traced replay,
    /// which times the same host, compares with.
    pub raw_latencies_ms: Vec<f64>,
    /// Work completed per second (the unit depends on the workload); a
    /// closed loop's over the sum of its requests' latencies.
    pub throughput: f64,
    /// Peak RSS of the process doing the work, MB.
    pub peak_rss_mb: f64,
    /// Open-loop samples (serve workloads only).
    pub serve: Option<ServeSamples>,
    /// The requests, for the traced replay.
    pub plan: Plan,
}

fn seconds_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Closed loop: keep going while there is time left or too few samples
/// for a p90, and the plan lasts.
fn keep_going(opts: &Options, started: Instant, done: usize, planned: usize) -> bool {
    done < planned && (seconds_since(started) < opts.seconds || done < opts.scale.min_requests())
}

fn accvv(opts: &Options, args: &[String]) -> Result<proc::Finished, String> {
    proc::run(Command::new(&opts.accvv).args(args))
        .map_err(|e| format!("{}: {e}", opts.accvv.display()))
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

fn affinity(e: std::io::Error) -> String {
    format!("CPU affinity: {e}")
}

/// The CLI loops take one set-up sample before every `SETUP_EVERY`-th
/// request, so the set-up median spans the whole run like the latencies
/// rather than the host's state during the first few milliseconds.
const SETUP_EVERY: usize = 5;

/// Every `KERNEL_BLOCK` runs (one seeded round at full scale) the kernel
/// loop moves to the next of the CPUs the benchmark may use, times the
/// speed probe there and compiles every program again as a set-up sample.
/// Taking turns at a round's granularity lets neither CPU decide the run
/// while most runs still start with warm caches.
const KERNEL_BLOCK: usize = 36;

/// One CLI set-up sample: `accvv list`, the process start plus suite
/// construction every CLI request pays, in CPU seconds.
fn list_setup(opts: &Options) -> Result<f64, String> {
    let done = accvv(opts, &strings(&["list"]))?;
    if done.code != 0 {
        return Err(format!("accvv list exited {}", done.code));
    }
    Ok(done.cpu_s)
}

/// Verdict rows one whole-suite run produces (every case in both
/// languages).
fn rows_per_suite_run() -> f64 {
    (acc_testsuite::full_suite().len() * 2) as f64
}

/// A CLI request's observable output: stdout, then the exit code.
pub fn output(stdout: &[u8], code: i32) -> Vec<u8> {
    let mut out = stdout.to_vec();
    out.extend_from_slice(format!("\n[exit {code}]\n").as_bytes());
    out
}

/// A closed-loop CLI workload: `args(key)` is the request, the same with
/// `--exec-mode walk --no-cache` its oracle. Request `i` runs confined to
/// the `i`-th of the CPUs the benchmark may use (in turn), so its worker
/// pool has one worker, right after the speed probe's child on that CPU;
/// its CPU time, and the set-up sample's before it, count at the reference
/// host's speed.
fn cli_loop<K: Copy + Eq + std::hash::Hash + std::fmt::Debug>(
    opts: &Options,
    keys: &[K],
    args: impl Fn(K) -> Vec<String>,
    rows_per_request: f64,
) -> Result<(Measured, HashMap<K, Vec<u8>>), String> {
    let mut oracle: HashMap<K, Vec<u8>> = HashMap::new();
    for &key in keys {
        if let Entry::Vacant(slot) = oracle.entry(key) {
            let mut walk = args(key);
            walk.extend(strings(&["--exec-mode", "walk", "--no-cache"]));
            let done = accvv(opts, &walk)?;
            slot.insert(output(&done.stdout, done.code));
        }
    }
    let mut m = Measured {
        attempted: 0,
        failures: Vec::new(),
        setup_s: Vec::new(),
        latencies_ms: Vec::new(),
        raw_latencies_ms: Vec::new(),
        throughput: 0.0,
        peak_rss_mb: 0.0,
        serve: None,
        plan: Plan::Runs(Vec::new(), HashMap::new()),
    };
    let turns = proc::CpuTurns::new().map_err(affinity)?;
    let started = Instant::now();
    while keep_going(opts, started, m.latencies_ms.len(), keys.len()) {
        let i = m.latencies_ms.len();
        turns.pin(i).map_err(affinity)?;
        let probe_ms = speed::probe_child_ms(&opts.bench)?;
        if i % SETUP_EVERY == 0 {
            m.setup_s
                .push(speed::at_reference(list_setup(opts)?, probe_ms));
        }
        let key = keys[i];
        let done = accvv(opts, &args(key))?;
        m.attempted += 1;
        m.latencies_ms
            .push(speed::at_reference(done.cpu_s * 1e3, probe_ms));
        m.raw_latencies_ms.push(done.wall_s * 1e3);
        m.peak_rss_mb = m.peak_rss_mb.max(done.peak_rss_mb);
        if output(&done.stdout, done.code) != oracle[&key] {
            m.failures.push(format!(
                "request {i} ({key:?}): stdout or exit code differs from the walker oracle"
            ));
        }
    }
    let busy_s: f64 = m.latencies_ms.iter().sum::<f64>() / 1e3;
    m.throughput = rows_per_request * m.latencies_ms.len() as f64 / busy_s;
    Ok((m, oracle))
}

/// `release_cold`: `accvv run --vendor V --version X`, one release at a
/// time, whole suite, both languages.
pub fn release_cold(opts: &Options) -> Result<Measured, String> {
    let releases = gen::release_sequence(opts.seed, opts.scale.max_requests());
    let args = |r: Release| {
        strings(&[
            "run",
            "--vendor",
            r.vendor_arg(),
            "--version",
            &r.version.to_string(),
        ])
    };
    let (mut m, oracle) = cli_loop(opts, &releases, args, rows_per_suite_run())?;
    let done = m.latencies_ms.len();
    m.plan = Plan::Runs(releases[..done].to_vec(), oracle);
    Ok(m)
}

/// `fig8_panel`: `accvv campaign --vendor V`, all eight releases of a
/// vendor sharing one compile cache, on one CPU (the CPUs taking turns).
/// `accvv campaign` sizes its worker pool from the CPUs it may use; on a
/// shared host the two-core fan-out's latency swung 100–240 ms with the
/// neighbours' load while one core's moved about 20%, so the panel runs
/// one worker.
pub fn fig8_panel(opts: &Options) -> Result<Measured, String> {
    let vendors = gen::vendor_sequence(opts.seed, opts.scale.max_requests());
    let args = |v: VendorId| strings(&["campaign", "--vendor", gen::vendor_arg(v)]);
    let rows = 8.0 * rows_per_suite_run();
    let (mut m, oracle) = cli_loop(opts, &vendors, args, rows)?;
    let done = m.latencies_ms.len();
    m.plan = Plan::Panels(vendors[..done].to_vec(), oracle);
    Ok(m)
}

/// `kernels`: seeded kernel programs compiled, then run one at a time in
/// seeded rounds by the default engine with the run memo off.
pub fn kernels(opts: &Options) -> Result<Measured, String> {
    let programs: Vec<gen::Kernel> = gen::kernels(opts.seed)
        .into_iter()
        .filter(|k| opts.scale == Scale::Full || k.n == gen::SIZES[0])
        .collect();
    let compiler = VendorCompiler::reference();
    let compile_all = || -> Result<Vec<Executable>, String> {
        programs
            .iter()
            .map(|k| {
                compiler
                    .compile(&k.source, k.language)
                    .map_err(|e| format!("kernel {} does not compile: {e}", k.name))
            })
            .collect()
    };
    // The peak reported is this workload's own, whatever ran earlier in
    // the process.
    proc::reset_own_peak_rss().map_err(|e| format!("/proc/self/clear_refs: {e}"))?;
    let turns = proc::CpuTurns::new().map_err(affinity)?;
    turns.pin(0).map_err(affinity)?;
    let mut probe_ms = speed::probe_child_ms(&opts.bench)?;
    let t0 = proc::process_cpu_s();
    let exes = compile_all()?;
    let mut setup_s = vec![speed::at_reference(proc::process_cpu_s() - t0, probe_ms)];
    let env = EnvConfig::empty();
    let mut failures = Vec::new();
    let oracle: Vec<RunResult> = exes
        .iter()
        .zip(&programs)
        .map(|(exe, k)| {
            let walk = exe.run_with_knobs(
                &env,
                RunKnobs {
                    exec_mode: ExecMode::Walk,
                    ..RunKnobs::default()
                },
            );
            if !walk.outcome.passed() {
                failures.push(format!(
                    "kernel {} fails its own check under the walker",
                    k.name
                ));
            }
            walk
        })
        .collect();
    let runs = gen::kernel_runs(opts.seed, &programs, opts.scale.max_requests());
    let mut latencies_ms = Vec::new();
    let mut raw_latencies_ms = Vec::new();
    let mut iterations = 0.0;
    let started = Instant::now();
    while keep_going(opts, started, latencies_ms.len(), runs.len()) {
        let n = latencies_ms.len();
        if n % KERNEL_BLOCK == 0 {
            turns.pin(n / KERNEL_BLOCK).map_err(affinity)?;
            probe_ms = speed::probe_child_ms(&opts.bench)?;
            if n > 0 {
                let t0 = proc::process_cpu_s();
                compile_all()?;
                setup_s.push(speed::at_reference(proc::process_cpu_s() - t0, probe_ms));
            }
        }
        let i = runs[n];
        let (t0, cpu0) = (Instant::now(), proc::process_cpu_s());
        let r = exes[i].run_with_knobs(&env, RunKnobs::default());
        let cpu_ms = (proc::process_cpu_s() - cpu0) * 1e3;
        raw_latencies_ms.push(seconds_since(t0) * 1e3);
        latencies_ms.push(speed::at_reference(cpu_ms, probe_ms));
        iterations += r.metrics.device_iterations as f64;
        if r.outcome != oracle[i].outcome || r.metrics != oracle[i].metrics {
            failures.push(format!(
                "kernel {}: outcome or device metrics differ from the walker",
                programs[i].name
            ));
        }
    }
    let throughput = iterations / (latencies_ms.iter().sum::<f64>() / 1e3);
    let done = latencies_ms.len();
    Ok(Measured {
        attempted: done as u64,
        failures,
        setup_s,
        latencies_ms,
        raw_latencies_ms,
        throughput,
        peak_rss_mb: proc::vm_hwm_mb("self").map_err(|e| format!("/proc/self/status: {e}"))?,
        serve: None,
        plan: Plan::Kernels(exes, oracle, runs[..done].to_vec()),
    })
}

/// A running `accvv serve`.
struct ServerProc {
    child: Child,
    addr: SocketAddr,
}

impl ServerProc {
    /// Spawn a server on a free port with a fresh store in `dir`, and wait
    /// for its banner.
    fn spawn(opts: &Options, dir: &Path) -> Result<ServerProc, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let log_path = dir.join("stderr.log");
        let log = std::fs::File::create(&log_path).map_err(|e| e.to_string())?;
        let store = dir.join("store");
        let mut child = Command::new(&opts.accvv)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--jobs",
                "1",
                "--queue-cap",
                "256",
            ])
            .arg("--store")
            .arg(&store)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("{}: {e}", opts.accvv.display()))?;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let log = std::fs::read_to_string(&log_path).unwrap_or_default();
            // The banner continues " (store: …)" after the address; until
            // that arrives the address may still be half written.
            let banner = log
                .split("serving campaigns on http://")
                .nth(1)
                .and_then(|rest| rest.split_once(" (store:"));
            if let Some((addr, _)) = banner {
                return match addr.parse() {
                    Ok(addr) => Ok(ServerProc { child, addr }),
                    Err(_) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        Err(format!("unparsable server address `{addr}`"))
                    }
                };
            }
            if Instant::now() > deadline || child.try_wait().map_or(true, |s| s.is_some()) {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("accvv serve did not start: {log}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn get(&self, path: &str) -> Result<http::Response, String> {
        http::call(self.addr, "GET", path, "")
    }

    /// Drain and wait for a clean exit.
    fn drain(mut self) -> Result<(), String> {
        let sent = http::call(self.addr, "POST", "/v1/drain", "");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() && sent.is_ok() => return Ok(()),
                Ok(Some(status)) => return Err(format!("accvv serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("accvv serve did not drain within 30 s".to_string()),
            }
        }
    }
}

impl Drop for ServerProc {
    /// A server abandoned on an error path is killed, never left running.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn submit(server: &ServerProc, spec: &Spec) -> Result<u64, String> {
    let resp = http::call(server.addr, "POST", "/v1/submit", &spec.json())?;
    if resp.status != 202 {
        return Err(format!("submit answered {}: {}", resp.status, resp.body));
    }
    json::parse(&resp.body)
        .ok()
        .and_then(|j| j.get("id").and_then(Json::as_i64))
        .map(|id| id as u64)
        .ok_or_else(|| format!("submit reply without an id: {}", resp.body))
}

/// A client's polls start at least this far apart, so the benchmark's load
/// on the server (at most 100 polls/s) does not grow when the server
/// answers faster.
const POLL_INTERVAL: Duration = Duration::from_millis(10);

/// Spaces one client's polls [`POLL_INTERVAL`] apart.
struct Pacer(Instant);

impl Pacer {
    fn new() -> Pacer {
        Pacer(Instant::now())
    }

    /// Wait until the next poll may start.
    fn wait(&mut self) {
        let now = Instant::now();
        if self.0 > now {
            std::thread::sleep(self.0 - now);
        }
        self.0 = Instant::now() + POLL_INTERVAL;
    }
}

/// What `GET /v1/report/{id}` answered: the report once it exists, else
/// the submission's state from the 409.
enum Polled {
    Report(String),
    State(String),
}

fn poll_report(server: &ServerProc, id: u64) -> Result<Polled, String> {
    let resp = server.get(&format!("/v1/report/{id}"))?;
    match resp.status {
        200 => Ok(Polled::Report(resp.body)),
        409 => json::parse(&resp.body)
            .ok()
            .and_then(|j| j.get("state").and_then(Json::as_str).map(str::to_string))
            .map(Polled::State)
            .ok_or_else(|| format!("report {id}: 409 without a state: {}", resp.body)),
        other => Err(format!("report {id} answered {other}")),
    }
}

fn in_flight(state: &str) -> bool {
    state == "queued" || state == "running"
}

/// Set-up: spawn, `/v1/healthz` answering 200, and one warm-up submission
/// per pool release run to completion.
fn set_up(opts: &Options, dir: &Path, warmups: &[Spec]) -> Result<(ServerProc, f64), String> {
    let t0 = Instant::now();
    let server = ServerProc::spawn(opts, dir)?;
    let healthy_by = Instant::now() + Duration::from_secs(10);
    let mut pacer = Pacer::new();
    while !server.get("/v1/healthz").is_ok_and(|r| r.status == 200) {
        if Instant::now() > healthy_by {
            return Err("accvv serve never answered /v1/healthz".to_string());
        }
        pacer.wait();
    }
    for spec in warmups {
        let id = submit(&server, spec)?;
        let done_by = Instant::now() + Duration::from_secs_f64(SUBMISSION_TIMEOUT_S);
        loop {
            pacer.wait();
            match poll_report(&server, id)? {
                Polled::Report(_) => break,
                Polled::State(s) if in_flight(&s) && Instant::now() < done_by => {}
                Polled::State(s) => return Err(format!("warm-up submission {id} ended `{s}`")),
            }
        }
    }
    Ok((server, seconds_since(t0)))
}

/// Oracles for every distinct spec: the `--out` report of `accvv run …
/// --exec-mode walk --no-cache`, plus the walker's verdict rows (for the
/// `/v1/query` check).
fn serve_oracles(
    opts: &Options,
    specs: &[&Spec],
    dir: &Path,
) -> Result<HashMap<Spec, (String, Vec<acc_validation::CaseResult>)>, String> {
    let mut out = HashMap::new();
    let path = dir.join("oracle.txt");
    for spec in specs {
        if out.contains_key(*spec) {
            continue;
        }
        let mut args = spec.run_args();
        args.extend(strings(&["--exec-mode", "walk", "--no-cache", "--out"]));
        args.push(path.display().to_string());
        accvv(opts, &args)?;
        let report = std::fs::read_to_string(&path).map_err(|e| format!("oracle report: {e}"))?;
        let mut walk = acc_server::SubmissionSpec::from_json(
            &json::parse(&spec.json()).map_err(|e| e.to_string())?,
        )?;
        walk.exec_mode = ExecMode::Walk;
        let run = acc_server::run_submission(&walk, &acc_server::RunOptions::default())?;
        if run.report != report {
            return Err(format!(
                "in-process walker disagrees with the CLI on {spec:?}"
            ));
        }
        out.insert((*spec).clone(), (report, run.run.results));
    }
    Ok(out)
}

struct Pending {
    index: usize,
    id: u64,
    spec: Spec,
    due_s: f64,
}

/// What the watcher saw.
#[derive(Default)]
struct Watched {
    latencies_ms: Vec<f64>,
    report_ms: Vec<f64>,
    failures: Vec<String>,
    done: Vec<Spec>,
    last_done_s: f64,
    slo_met: usize,
}

/// Poll the oldest outstanding submission's report, [`POLL_INTERVAL`]
/// apart, until the report is there (then check it), the submission has
/// failed, or it is overdue; then the next. The server finishes
/// submissions in arrival order, so the oldest is the one worth polling.
fn watch(
    server: &ServerProc,
    start: Instant,
    rx: mpsc::Receiver<Pending>,
    oracle: &HashMap<Spec, (String, Vec<acc_validation::CaseResult>)>,
) -> Watched {
    let mut w = Watched::default();
    let mut outstanding: std::collections::VecDeque<Pending> = Default::default();
    let mut open = true;
    let mut pacer = Pacer::new();
    loop {
        while let Ok(p) = rx.try_recv() {
            outstanding.push_back(p);
        }
        let Some(p) = outstanding.pop_front() else {
            if !open {
                return w;
            }
            match rx.recv_timeout(Duration::from_millis(50)) {
                Ok(p) => outstanding.push_back(p),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => open = false,
            }
            continue;
        };
        pacer.wait();
        let t0 = Instant::now();
        let polled = poll_report(server, p.id);
        w.report_ms.push(seconds_since(t0) * 1e3);
        let fail = |w: &mut Watched, why: String| {
            w.failures
                .push(format!("submission #{} (id {}): {why}", p.index, p.id));
        };
        match polled {
            Ok(Polled::Report(body)) => {
                let done_s = seconds_since(start);
                let latency_ms = stats::latency_from_due_ms(p.due_s, done_s);
                w.latencies_ms.push(latency_ms);
                w.last_done_s = w.last_done_s.max(done_s);
                if body != oracle[&p.spec].0 {
                    fail(&mut w, "report differs from the walker oracle".to_string());
                } else if latency_ms <= SLO_MS {
                    w.slo_met += 1;
                }
                w.done.push(p.spec);
            }
            Ok(Polled::State(s))
                if in_flight(&s) && seconds_since(start) - p.due_s < SUBMISSION_TIMEOUT_S =>
            {
                outstanding.push_front(p);
            }
            Ok(Polled::State(s)) if in_flight(&s) => {
                fail(
                    &mut w,
                    format!("not done {SUBMISSION_TIMEOUT_S} s after it was due ({s})"),
                );
            }
            Ok(Polled::State(s)) => fail(&mut w, format!("ended `{s}`")),
            Err(e) => fail(&mut w, e),
        }
    }
}

/// `/v1/query` must aggregate exactly the verified verdicts of every
/// completed submission.
fn check_query(
    server: &ServerProc,
    done: &[Spec],
    oracle: &HashMap<Spec, (String, Vec<acc_validation::CaseResult>)>,
) -> Result<(), String> {
    let mut want: BTreeMap<(String, String, String), (i64, i64)> = BTreeMap::new();
    for spec in done {
        let label = VendorCompiler::new(spec.release.vendor, spec.release.version).label();
        for r in oracle[spec].1.iter().filter(|r| r.status.counted()) {
            let slot = want
                .entry((
                    label.clone(),
                    r.language.to_string(),
                    r.feature.as_str().to_string(),
                ))
                .or_default();
            slot.0 += 1;
            slot.1 += i64::from(r.passed());
        }
    }
    let resp = server.get("/v1/query")?;
    let j = json::parse(&resp.body).map_err(|e| format!("/v1/query: {e}"))?;
    let mut got = BTreeMap::new();
    for row in j.get("rows").and_then(Json::as_arr).unwrap_or_default() {
        let s = |k| {
            row.get(k)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        };
        let n = |k| row.get(k).and_then(Json::as_i64).unwrap_or(-1);
        got.insert(
            (s("scope"), s("lang"), s("feature")),
            (n("total"), n("passed")),
        );
    }
    if got != want {
        return Err(format!(
            "/v1/query disagrees with the verified reports ({} rows served, {} expected)",
            got.len(),
            want.len()
        ));
    }
    Ok(())
}

/// Scrape one `accvv_server_submissions_total{outcome="…"}` value.
fn scrape(metrics: &str, outcome: &str) -> f64 {
    let key = format!("accvv_server_submissions_total{{outcome=\"{outcome}\"}} ");
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(&key))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

/// `serve_light` / `serve_heavy`: open-loop Poisson traffic against
/// `accvv serve --jobs 1` on a fresh store.
pub fn serve(opts: &Options, heavy: bool) -> Result<Measured, String> {
    let suite = acc_testsuite::full_suite();
    let pool = gen::spec_pool(opts.seed, &suite);
    let (rate, stream) = if heavy {
        (HEAVY_RATE, 1)
    } else {
        (LIGHT_RATE, 0)
    };
    let n = opts.scale.open_loop_count(rate, opts.seconds);
    let sends = if heavy {
        gen::heavy_plan(opts.seed, &pool, &gen::largest_family(&suite), n)
    } else {
        gen::light_plan(opts.seed, &pool, n)
    };
    let due = gen::arrivals(opts.seed, stream, rate, n);
    let mut warmups: Vec<Spec> = Vec::new();
    for spec in &pool {
        if !warmups.iter().any(|w| w.release == spec.release) {
            warmups.push(spec.clone());
        }
    }
    let dir = opts.run_dir();
    let result = serve_in(opts, &dir, &sends, &due, &warmups);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn serve_in(
    opts: &Options,
    dir: &Path,
    sends: &[Send],
    due: &[f64],
    warmups: &[Spec],
) -> Result<Measured, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut specs: Vec<&Spec> = warmups.iter().collect();
    specs.extend(sends.iter().filter_map(|s| match s {
        Send::Submit(spec) => Some(spec),
        Send::Reads => None,
    }));
    let oracle = serve_oracles(opts, &specs, dir)?;
    let mut setup_s = Vec::new();
    let mut server: Option<ServerProc> = None;
    for k in 0..opts.scale.reps(3) {
        if let Some(previous) = server.take() {
            previous.drain()?;
        }
        let (s, took) = set_up(opts, &dir.join(format!("server-{k}")), warmups)?;
        setup_s.push(took);
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let (tx, rx) = mpsc::channel::<Pending>();
    let start = Instant::now();
    let (sent, watched) = std::thread::scope(|scope| {
        let watcher = scope.spawn(|| watch(&server, start, rx, &oracle));
        let sent = send_all(&server, start, sends, due, tx);
        (sent, watcher.join().expect("watcher thread panicked"))
    });
    let mut failures = sent.failures;
    failures.extend(watched.failures);
    let submissions = due.len();
    let mut attempted = submissions as u64 + sent.reads;
    let metrics = server.get("/metrics").map(|r| r.body).unwrap_or_default();
    let pid = server.child.id().to_string();
    let peak_rss_mb = proc::vm_hwm_mb(&pid).map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    if failures.is_empty() {
        attempted += 1;
        let mut done = watched.done;
        done.extend_from_slice(warmups);
        if let Err(e) = check_query(&server, &done, &oracle) {
            failures.push(e);
        }
    }
    server.drain()?;
    let first_due = due.first().copied().unwrap_or(0.0);
    let completed = watched.latencies_ms.len() as f64;
    let samples = ServeSamples {
        http_ms: BTreeMap::from([
            ("submit", sent.submit_ms),
            ("report", watched.report_ms),
            ("read", sent.read_ms),
        ]),
        submissions,
        slo_met: watched.slo_met,
        late_ms: sent.late_ms,
        shared: scrape(&metrics, "shared"),
        shed: scrape(&metrics, "shed"),
    };
    Ok(Measured {
        attempted,
        failures,
        setup_s,
        throughput: completed / (watched.last_done_s - first_due).max(1e-9),
        raw_latencies_ms: watched.latencies_ms.clone(),
        latencies_ms: watched.latencies_ms,
        peak_rss_mb,
        serve: Some(samples),
        plan: Plan::Serve(
            sends.to_vec(),
            oracle
                .into_iter()
                .map(|(spec, (report, _))| (spec, report))
                .collect(),
        ),
    })
}

#[derive(Default)]
struct Sent {
    failures: Vec<String>,
    submit_ms: Vec<f64>,
    read_ms: Vec<f64>,
    late_ms: Vec<f64>,
    reads: u64,
}

/// The open-loop generator: each submission is posted when due (the
/// watcher takes it from there); a read pair follows the submission it
/// rides with.
fn send_all(
    server: &ServerProc,
    start: Instant,
    sends: &[Send],
    due: &[f64],
    tx: mpsc::Sender<Pending>,
) -> Sent {
    let mut s = Sent::default();
    let mut index = 0;
    for send in sends {
        match send {
            Send::Submit(spec) => {
                let due_s = due[index];
                let wait = due_s - seconds_since(start);
                if wait > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(wait));
                }
                s.late_ms
                    .push(stats::lateness_ms(due_s, seconds_since(start)));
                let t0 = Instant::now();
                let posted = submit(server, spec);
                s.submit_ms.push(seconds_since(t0) * 1e3);
                match posted {
                    Ok(id) => {
                        let _ = tx.send(Pending {
                            index,
                            id,
                            spec: spec.clone(),
                            due_s,
                        });
                    }
                    Err(e) => s.failures.push(format!("submission #{index}: {e}")),
                }
                index += 1;
            }
            Send::Reads => {
                for path in ["/v1/query?scope=", "/v1/history?bucket=3600"] {
                    s.reads += 1;
                    let t0 = Instant::now();
                    let resp = server.get(path);
                    s.read_ms.push(seconds_since(t0) * 1e3);
                    match resp {
                        Ok(r) if r.status == 200 => {}
                        Ok(r) => s.failures.push(format!("GET {path} answered {}", r.status)),
                        Err(e) => s.failures.push(format!("GET {path}: {e}")),
                    }
                }
            }
        }
    }
    s
}
