//! Child processes: timing a CLI request and reading its peak memory; the
//! benchmark's own CPU time.

use std::io::{self, Read};
use std::process::{Command, Stdio};
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads /proc and wait4's rusage: 64-bit Linux only");

/// One finished child.
#[derive(Debug)]
pub struct Finished {
    /// Everything it wrote to stdout.
    pub stdout: Vec<u8>,
    /// Exit code (128 + signal when killed by one).
    pub code: i32,
    /// Spawn to exit, in seconds.
    pub wall_s: f64,
    /// CPU time it used, user plus system, in seconds: on a CPU of its own,
    /// its wall time less the time the host took the CPU away.
    pub cpu_s: f64,
    /// Peak resident set size, in MB.
    pub peak_rss_mb: f64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s (user and system time,
/// each seconds then microseconds), then 14 `long`s of which `ru_maxrss`
/// (KiB) is the first.
#[repr(C)]
struct RUsage {
    times: [i64; 4],
    maxrss_kib: i64,
    rest: [i64; 13],
}

/// `cpu_set_t`: a 1024-bit CPU mask.
type CpuSet = [u64; 16];

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    secs: i64,
    nanos: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// CPU time this process has used so far, all threads, in seconds.
pub fn process_cpu_s() -> f64 {
    let mut t = Timespec { secs: 0, nanos: 0 };
    // SAFETY: `t` is a live, correctly laid out timespec; the clock id is
    // valid on every Linux, so the call cannot fail.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always readable");
    t.secs as f64 + t.nanos as f64 * 1e-9
}

/// The CPUs this thread may use, in order.
fn allowed_cpus() -> io::Result<Vec<usize>> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable cpu_set_t-sized buffer.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let cpus: Vec<usize> = (0..allowed.len() * 64)
        .filter(|&c| allowed[c / 64] & (1 << (c % 64)) != 0)
        .collect();
    if cpus.is_empty() {
        return Err(io::Error::other("empty CPU affinity mask"));
    }
    Ok(cpus)
}

fn mask(cpus: &[usize]) -> CpuSet {
    let mut set: CpuSet = [0; 16];
    for &cpu in cpus {
        set[cpu / 64] |= 1 << (cpu % 64);
    }
    set
}

/// Confine the calling thread (and the children it spawns) to `cpus`.
fn set_thread_cpus(cpus: &[usize]) -> io::Result<()> {
    // SAFETY: the mask is a live cpu_set_t owned by this frame.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask(cpus)) } == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Turns on the CPUs the calling thread may use: [`CpuTurns::pin`] confines
/// the thread, and every child it spawns from then on, to one of them (a
/// program that sizes its worker pool from the CPUs it may use then runs
/// one worker). Dropping it gives the thread all of them back, however the
/// scope ends, so later work in the process is not left on one CPU.
pub struct CpuTurns {
    cpus: Vec<usize>,
}

impl CpuTurns {
    /// Take turns on the calling thread's current CPUs.
    pub fn new() -> io::Result<CpuTurns> {
        Ok(CpuTurns {
            cpus: allowed_cpus()?,
        })
    }

    /// Confine the calling thread to the CPU whose turn `turn` is.
    pub fn pin(&self, turn: usize) -> io::Result<()> {
        set_thread_cpus(&[self.cpus[turn % self.cpus.len()]])
    }
}

impl Drop for CpuTurns {
    fn drop(&mut self) {
        // Nothing to report to: the mask was valid when it was read.
        let _ = set_thread_cpus(&self.cpus);
    }
}

/// Run `cmd` to completion with stdout captured and stderr discarded.
/// The child is reaped with `wait4`, which reports that child's own peak
/// RSS (the bench's other children, such as the build, do not mix in).
pub fn run(cmd: &mut Command) -> io::Result<Finished> {
    let started = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let mut stdout = Vec::new();
    child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_end(&mut stdout)?;
    let pid = i32::try_from(child.id()).expect("pids fit in i32");
    let mut status = 0i32;
    let mut usage = RUsage {
        times: [0; 4],
        maxrss_kib: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `pid` is our own unreaped child (std never waited on it),
        // and both out-pointers refer to live, correctly laid out locals.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let [user_s, user_us, sys_s, sys_us] = usage.times;
    let cpu_s = (user_s + sys_s) as f64 + (user_us + sys_us) as f64 * 1e-6;
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        128 + (status & 0x7f)
    };
    Ok(Finished {
        stdout,
        code,
        wall_s,
        cpu_s,
        peak_rss_mb: usage.maxrss_kib as f64 / 1024.0,
    })
}

/// Peak resident set size (`VmHWM`) of a live process, in MB.
pub fn vm_hwm_mb(pid: &str) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM line"))
}

/// Reset this process's `VmHWM` to its current resident size, so that
/// `vm_hwm_mb("self")` reports the peak from now on, not what earlier work
/// in the process left behind.
pub fn reset_own_peak_rss() -> io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn captures_stdout_exit_code_and_memory() {
        let done = run(Command::new("sh").args(["-c", "echo hi; exit 3"])).expect("sh runs");
        assert_eq!(done.stdout, b"hi\n");
        assert_eq!(done.code, 3);
        assert!(done.wall_s > 0.0);
        assert!(done.cpu_s >= 0.0 && done.cpu_s <= done.wall_s + 0.01);
        assert!(done.peak_rss_mb > 0.0);
    }

    #[test]
    fn own_cpu_time_grows_with_work() {
        let t0 = process_cpu_s();
        let mut x = 1u64;
        for _ in 0..5_000_000 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(process_cpu_s() > t0);
    }

    #[test]
    fn a_child_of_a_pinned_thread_sees_one_cpu_until_the_turns_end() {
        let nproc = || run(&mut Command::new("nproc")).expect("nproc runs").stdout;
        let all = nproc();
        // On a thread of its own, so the test harness's other threads keep
        // their CPUs whatever happens here.
        std::thread::spawn(move || {
            let turns = CpuTurns::new().expect("affinity readable");
            turns.pin(1).expect("a CPU of our own");
            assert_eq!(nproc(), b"1\n");
            drop(turns);
            assert_eq!(nproc(), all);
        })
        .join()
        .expect("the pinned thread passes");
    }

    #[test]
    fn reads_own_peak_rss() {
        assert!(vm_hwm_mb("self").expect("proc is mounted") > 0.0);
    }

    #[test]
    fn a_reset_forgets_an_earlier_peak() {
        let big = vec![1u8; 64 << 20];
        assert_eq!(big.iter().map(|&b| u64::from(b)).sum::<u64>(), 64 << 20);
        let before = vm_hwm_mb("self").expect("proc is mounted");
        drop(big);
        reset_own_peak_rss().expect("clear_refs is writable");
        let after = vm_hwm_mb("self").expect("proc is mounted");
        assert!(after < before - 32.0, "peak {before} MB → {after} MB");
    }
}
