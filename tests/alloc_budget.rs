//! Allocation budgets for the cold path.
//!
//! A counting global allocator counts the heap allocations (`alloc` and
//! `alloc_zeroed`) and the reallocations made while two fixed workloads
//! run, and each count must stay at or below its committed budget:
//!
//! 1. the in-process `accvv run --vendor pgi --version 12.6`: build the
//!    suite, run it on one worker, render the text report;
//! 2. one CAPS sweep over its eight releases through a shared compile
//!    cache, on one worker: the `accvv campaign --vendor caps` sweep.
//!
//! Both workloads are deterministic, so the counts are exact: a change
//! that adds allocations to the per-source pipeline fails here. The
//! target runs without libtest (`harness = false`), so no other test
//! thread allocates while a count is taken. When a change lowers a
//! count, lower its budget to the new count in the same change.
//!
//! Run it with `cargo test --test alloc_budget`; debug and release builds
//! make the same counts, so one budget serves both.

use openacc_vv::compiler::{CompileCache, VendorCompiler, VendorId};
use openacc_vv::validation::report::{self, ReportFormat};
use openacc_vv::validation::{Campaign, Executor, ExecutorPolicy};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static REALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` unchanged; the counter is the
// only addition.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and reallocations.
type Counts = [u64; 2];

fn counters() -> Counts {
    [
        ALLOCATIONS.load(Ordering::Relaxed),
        REALLOCATIONS.load(Ordering::Relaxed),
    ]
}

/// What `work` allocates and reallocates.
fn count<T>(work: impl FnOnce() -> T) -> (Counts, T) {
    let before = counters();
    let out = work();
    let after = counters();
    ([after[0] - before[0], after[1] - before[1]], out)
}

/// One workload's budgets: allocations, then reallocations.
struct Budget {
    name: &'static str,
    limits: Counts,
}

// Before the borrowed cases, the single cross derivation, the
// allocation-free loop nests, the single-copy name tables and FxHash,
// these workloads made 106,433 allocations and 4,065 reallocations
// (`accvv run`) and 156,112 and 8,384 (the CAPS sweep), in debug and
// release builds alike.
const RUN_PGI_12_6: Budget = Budget {
    name: "accvv run --vendor pgi --version 12.6",
    limits: [70_866, 3_998],
};
const CAPS_SWEEP: Budget = Budget {
    name: "CAPS sweep over 8 releases",
    limits: [90_331, 3_690],
};

fn run_pgi_12_6() -> usize {
    let campaign = Campaign::new(openacc_vv::testsuite::full_suite());
    let compiler = VendorCompiler::new(VendorId::Pgi, "12.6".parse().expect("a version"));
    let (run, _) =
        Executor::new(ExecutorPolicy::new().with_jobs(1)).run_suite_stats(&campaign, &compiler);
    report::render(&run, ReportFormat::Text).len()
}

fn caps_sweep(campaign: &Campaign) -> usize {
    let releases: Vec<VendorCompiler> = VendorId::Caps
        .versions()
        .into_iter()
        .map(|v| VendorCompiler::new(VendorId::Caps, v))
        .collect();
    let (runs, _) =
        Executor::new(ExecutorPolicy::new().with_jobs(1)).run_sweep(campaign, &releases);
    runs.iter().map(|r| r.results.len()).sum()
}

fn main() {
    let mut over = Vec::new();
    let mut check = |budget: &Budget, counts: Counts| {
        println!(
            "{}: {} allocations (budget {}), {} reallocations (budget {})",
            budget.name, counts[0], budget.limits[0], counts[1], budget.limits[1]
        );
        for ((what, n), limit) in ["allocations", "reallocations"]
            .into_iter()
            .zip(counts)
            .zip(budget.limits)
        {
            if n > limit {
                over.push(format!(
                    "{}: {n} {what}, over the budget of {limit}",
                    budget.name
                ));
            }
        }
    };
    let (counts, report_bytes) = count(run_pgi_12_6);
    assert!(report_bytes > 0, "the report renders");
    check(&RUN_PGI_12_6, counts);
    let campaign =
        Campaign::new(openacc_vv::testsuite::full_suite()).with_cache(CompileCache::shared());
    let (counts, rows) = count(|| caps_sweep(&campaign));
    assert!(rows > 0, "the sweep runs");
    check(&CAPS_SWEEP, counts);
    if !over.is_empty() {
        eprintln!("allocation budget exceeded:\n  {}", over.join("\n  "));
        std::process::exit(1);
    }
}
