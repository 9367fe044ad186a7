//! Allocation budgets for the cold path.
//!
//! A counting global allocator counts the heap allocations (`alloc` and
//! `alloc_zeroed`) and the reallocations made while four fixed workloads
//! run, and each count must stay at or below its committed budget:
//!
//! 1. the in-process `accvv run --vendor pgi --version 12.6`: build the
//!    suite, run it on one worker, render the text report;
//! 2. one CAPS sweep over its eight releases through a shared compile
//!    cache, on one worker: the `accvv campaign --vendor caps` sweep;
//! 3. the front end alone: parse, sema and resolve of each of the 436
//!    corpus sources, rendered beforehand, so the front end's count is
//!    pinned apart from the runs that include it;
//! 4. lowering alone: the bytecode image of each corpus source PGI 12.6
//!    compiles, built once more from its compiled executable
//!    (`Executable::lower_again`).
//!
//! All four are deterministic, so the counts are exact: a change
//! that adds allocations to the per-source pipeline fails here. The
//! target runs without libtest (`harness = false`), so no other test
//! thread allocates while a count is taken. When a change lowers a
//! count, lower its budget to the new count in the same change.
//!
//! Run it with `cargo test --test alloc_budget`; debug and release builds
//! make the same counts, so one budget serves both.

use openacc_vv::compiler::{CompileCache, Executable, VendorCompiler, VendorId};
use openacc_vv::frontend::{self, sema};
use openacc_vv::spec::{Language, SpecVersion};
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
// release builds alike; before identifiers became inline `Name`s, 70,866
// and 90,331 allocations, and the front end 31,551. Before images
// referred to the program's nodes instead of copying them, lowered no
// host fallbacks and kept their tables at final size, and before defect
// usage became bitsets: 44,676 and 3,998 (`accvv run`), 64,225 and 3,690
// (the CAPS sweep), and lowering 8,757 and 2,584. Before the run memo
// was kept only for executables from a compile cache, `accvv run` made
// 39,165.
const RUN_PGI_12_6: Budget = Budget {
    name: "accvv run --vendor pgi --version 12.6",
    limits: [38_751, 1_795],
};
const CAPS_SWEEP: Budget = Budget {
    name: "CAPS sweep over 8 releases",
    limits: [57_730, 1_188],
};
const FRONT_END: Budget = Budget {
    name: "parse, sema and resolve of the 436 corpus sources",
    limits: [16_793, 281],
};
const LOWERING: Budget = Budget {
    name: "lowering of the corpus sources PGI 12.6 compiles",
    limits: [4_693, 223],
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

/// Every corpus source, rendered: each case's functional and cross
/// source in each of its languages.
fn corpus() -> Vec<(Language, String)> {
    let mut sources = Vec::new();
    for case in openacc_vv::testsuite::full_suite() {
        for &lang in &case.languages {
            sources.push((lang, case.source_for(lang)));
            if let Some(cross) = case.cross_source_for(lang) {
                sources.push((lang, cross));
            }
        }
    }
    sources
}

fn front_end(corpus: &[(Language, String)]) -> usize {
    corpus
        .iter()
        .map(|(lang, text)| {
            let program = frontend::parse(text, *lang).expect("every corpus source parses");
            let errors = sema::analyze(&program, SpecVersion::V1_0).len();
            errors + frontend::resolve(&program).len()
        })
        .sum()
}

/// Every corpus source PGI 12.6 compiles, compiled.
fn pgi_12_6_executables(corpus: &[(Language, String)]) -> Vec<Executable> {
    let compiler = VendorCompiler::new(VendorId::Pgi, "12.6".parse().expect("a version"));
    corpus
        .iter()
        .filter_map(|(lang, text)| compiler.compile(text, *lang).ok())
        .collect()
}

fn lowering(executables: &[Executable]) -> usize {
    let mut images = 0;
    for exe in executables {
        std::hint::black_box(exe.lower_again());
        images += 1;
    }
    images
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
    let corpus = corpus();
    assert_eq!(corpus.len(), 436, "one entry per corpus source");
    let (counts, functions) = count(|| front_end(&corpus));
    assert!(functions >= corpus.len(), "every source resolves");
    check(&FRONT_END, counts);
    let executables = pgi_12_6_executables(&corpus);
    assert_eq!(executables.len(), 430, "PGI 12.6 refuses 6 corpus sources");
    let (counts, images) = count(|| lowering(&executables));
    assert_eq!(images, executables.len(), "one image per executable");
    check(&LOWERING, counts);
    if !over.is_empty() {
        eprintln!("allocation budget exceeded:\n  {}", over.join("\n  "));
        std::process::exit(1);
    }
}
