//! Host-speed calibration for the CPU-bound closed loops.
//!
//! The benchmark's CPUs are vCPUs of a shared host, and they speed up and
//! slow down with the neighbours' load: a fixed `accvv run` reads up to a
//! third slower for seconds at a time, and its times fall into a fast and a
//! slow mode whose mix changes from minute to minute. Medians over a run
//! follow that mix, however long the run. So every closed-loop request is
//! preceded by a probe, a fixed amount of work of the same kind run the
//! same way on the CPU the request then runs on, and its time is reported
//! [`at_reference`] speed: scaled by how much faster or slower than
//! [`PROBE_NOMINAL_MS`] the probe ran. A change to the product moves the
//! request's time and not the probe's, so it shows in full.
//!
//! The probe is a small tree-walking interpreter — boxed expression trees
//! built and evaluated against a string-keyed hash map — because the
//! product is one: a tight loop over a table in a core's own cache tracked
//! the product's slow mode far less closely (README, "How steady it is").
//! It runs in a child process, as the CLI requests do. Probe and request
//! are both timed in CPU time, so the time the host takes the CPU away
//! (steal) counts in neither.

use crate::proc;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::path::Path;
use std::process::Command;

/// What the probe takes on one CPU of the reference host when nothing else
/// runs there, in milliseconds of CPU time: calibrated times are what that
/// host would read.
pub const PROBE_NOMINAL_MS: f64 = 20.0;

/// The argument that makes the benchmark binary run the probe and exit
/// ([`probe_child_ms`]).
pub const PROBE_ARG: &str = "--speed-probe";

/// Trees the probe builds and evaluates.
const PROBE_TREES: usize = 4;

/// Depth of each tree: about 20 ms of CPU time for all of them.
const PROBE_DEPTH: u32 = 13;

/// A probe expression.
enum Expr {
    Num(i64),
    Var(u32),
    Add(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    Let(u32, Box<Expr>, Box<Expr>),
}

/// Variables by name; a fixed hasher keeps the work the same in every
/// process.
type Env = HashMap<String, i64, BuildHasherDefault<std::collections::hash_map::DefaultHasher>>;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn build(x: &mut u64, depth: u32) -> Expr {
    let r = xorshift(x);
    let mut sub = || Box::new(build(x, depth - 1));
    if depth == 0 {
        return if r & 1 == 0 {
            Expr::Num((r >> 8) as i64 % 100)
        } else {
            Expr::Var((r >> 8) as u32 % 16)
        };
    }
    match (r >> 4) % 4 {
        0 => Expr::Add(sub(), sub()),
        1 => Expr::Mul(sub(), sub()),
        2 => Expr::If(sub(), sub(), sub()),
        _ => Expr::Let((r >> 9) as u32 % 16, sub(), sub()),
    }
}

fn eval(e: &Expr, env: &mut Env) -> i64 {
    match e {
        Expr::Num(n) => *n,
        Expr::Var(v) => env.get(&format!("v{v}")).copied().unwrap_or(1),
        Expr::Add(a, b) => eval(a, env).wrapping_add(eval(b, env)),
        Expr::Mul(a, b) => eval(a, env).wrapping_mul(eval(b, env)) % 1_000_003,
        Expr::If(c, a, b) => {
            if eval(c, env) & 1 == 0 {
                eval(a, env)
            } else {
                eval(b, env)
            }
        }
        Expr::Let(v, a, b) => {
            let value = eval(a, env);
            env.insert(format!("v{v}"), value);
            eval(b, env)
        }
    }
}

/// The probe's fixed work: build [`PROBE_TREES`] seeded expression trees
/// and evaluate each in a fresh environment.
pub fn probe_work() -> i64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut sum = 0i64;
    for _ in 0..PROBE_TREES {
        let tree = build(&mut x, PROBE_DEPTH);
        sum = sum.wrapping_add(eval(&tree, &mut Env::default()));
    }
    std::hint::black_box(sum)
}

/// The probe's CPU time in a child process — `bench` (this benchmark's
/// binary) run with [`PROBE_ARG`] — in milliseconds: the way a CLI request
/// runs, process start and fresh pages included, and without adding to
/// the memory of an in-process workload.
pub fn probe_child_ms(bench: &Path) -> Result<f64, String> {
    let done = proc::run(Command::new(bench).arg(PROBE_ARG))
        .map_err(|e| format!("{}: {e}", bench.display()))?;
    if done.code != 0 {
        return Err(format!("the speed probe exited {}", done.code));
    }
    Ok(done.cpu_s * 1e3)
}

/// `measured` (any unit of time) at the reference host's speed, given the
/// probe's time just before it on the same CPU.
pub fn at_reference(measured: f64, probe_ms: f64) -> f64 {
    measured * PROBE_NOMINAL_MS / probe_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_probe_scales_a_time_down_and_a_fast_one_up() {
        let nominal = PROBE_NOMINAL_MS;
        assert_eq!(at_reference(50.0, nominal), 50.0);
        assert!((at_reference(60.0, nominal * 1.2) - 50.0).abs() < 1e-9);
        assert!((at_reference(0.04, nominal * 0.8) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn the_probe_does_the_same_work_every_time() {
        assert_eq!(probe_work(), probe_work());
    }
}
