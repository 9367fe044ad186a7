//! Every corpus program run under both engines, pinned line by line in
//! two files.
//!
//! `tests/golden/corpus_runs.txt` first holds one line per generated source
//! compiled by the reference release, in suite order (case, then language,
//! then functional before cross):
//!
//! ```text
//! <case>\t<language>\t<functional|cross>\t<bytes>\t<fnv(disasm)>\t<run 0>\t<run 1>
//! ```
//!
//! `bytes` and `fnv(disasm)` are the length and FNV-1a 64 of
//! `Executable::disassemble()`, so the line pins the source's one bytecode
//! image. Each run is the `RunOutcome` (`Debug`) and all ten `Metrics`
//! fields (`Display`) of one execution with that run index, the case's
//! environment, the default step budget and the memo off. A source the
//! release refuses has `compile: <failure>` in place of everything after
//! its kind.
//!
//! Then one line per commercial release, vendors in `VendorId::COMMERCIAL`
//! order and versions oldest first: `<release>\t<fnv>`, FNV-1a 64 over
//! that release's source lines, built the same way.
//!
//! `tests/golden/corpus_outcomes.txt` is the same file without the
//! `bytes` and `fnv(disasm)` columns, its release lines hashing the
//! shortened source lines. It pins what programs do apart from how they
//! are lowered: a change of the bytecode image regenerates only
//! `corpus_runs.txt`, and leaves this file byte-identical.
//!
//! Both files are derived under the VM and under the walker, and both
//! must equal them: the walker is the semantic oracle, the VM the default
//! engine. Reports show only verdicts; these files also pin crash texts,
//! tick counts (`stmts`), device iterations, bytes moved, allocations,
//! reductions and present-table hits, which a VM change could move while
//! every verdict stays put. Replace `corpus_outcomes.txt` only for a
//! deliberate change of what a program does, `corpus_runs.txt` also for
//! one of how it is lowered, and say why in CHANGES.md.

use openacc_vv::compiler::{CompileCache, RunKnobs};
use openacc_vv::prelude::*;
use openacc_vv::validation::journal::checksum;
use std::fmt::Write as _;
use std::sync::Arc;

const RUNS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/corpus_runs.txt");
const OUTCOMES: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/corpus_outcomes.txt"
);

/// The lines of one release, or of the whole file: with the disassembly
/// columns (`runs`) and without them (`outcomes`).
#[derive(Default)]
struct Pins {
    runs: String,
    outcomes: String,
}

/// One line per source of `suite` as `compiler` builds and `mode` runs it.
fn release_lines(suite: &[TestCase], compiler: &VendorCompiler, mode: ExecMode) -> Pins {
    let mut out = Pins::default();
    for case in suite {
        for &lang in &case.languages {
            let sources = [
                ("functional", Some(case.source_for(lang))),
                ("cross", case.cross_source_for(lang)),
            ];
            for (kind, text) in sources {
                let Some(text) = text else { continue };
                let head = format!("{}\t{lang}\t{kind}", case.name);
                let exe = match compiler.compile(&text, lang) {
                    Ok(exe) => exe,
                    Err(e) => {
                        let _ = writeln!(out.runs, "{head}\tcompile: {e}");
                        let _ = writeln!(out.outcomes, "{head}\tcompile: {e}");
                        continue;
                    }
                };
                let disasm = exe.disassemble();
                let mut runs = String::new();
                for run_index in 0..2 {
                    let knobs = RunKnobs {
                        run_index,
                        exec_mode: mode,
                        ..RunKnobs::default()
                    };
                    let r = exe.run_with_knobs(&case.env, knobs);
                    let _ = write!(runs, "\t{:?}\t{}", r.outcome, r.metrics);
                }
                let _ = writeln!(
                    out.runs,
                    "{head}\t{}\t{:016x}{runs}",
                    disasm.len(),
                    checksum(&disasm)
                );
                let _ = writeln!(out.outcomes, "{head}{runs}");
            }
        }
    }
    out
}

/// Both files under `mode`. One compile cache serves every release, so
/// each source is parsed and lowered once, as in a Fig. 8 campaign.
fn derive(mode: ExecMode) -> Pins {
    let suite = openacc_vv::testsuite::full_suite();
    let cache = CompileCache::shared();
    let with_cache = |c: VendorCompiler| c.with_cache(Arc::clone(&cache));
    let mut out = release_lines(&suite, &with_cache(VendorCompiler::reference()), mode);
    for vendor in VendorId::COMMERCIAL {
        for version in vendor.versions() {
            let compiler = with_cache(VendorCompiler::new(vendor, version));
            let lines = release_lines(&suite, &compiler, mode);
            let label = compiler.label();
            let _ = writeln!(out.runs, "{label}\t{:016x}", checksum(&lines.runs));
            let _ = writeln!(out.outcomes, "{label}\t{:016x}", checksum(&lines.outcomes));
        }
    }
    out
}

/// The first differing line of `derived` against the golden file `path`,
/// with the derived text written beside the other test outputs.
fn mismatch(derived: &str, path: &str, tag: &str) -> Option<String> {
    let golden = std::fs::read_to_string(path).unwrap_or_default();
    if derived == golden {
        assert_eq!(
            golden.lines().count(),
            436 + 24,
            "{path}: one line per source, one per release"
        );
        return None;
    }
    let stem = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("corpus");
    let actual = format!("{}/{stem}.{tag}.actual.txt", env!("CARGO_TARGET_TMPDIR"));
    let _ = std::fs::write(&actual, derived);
    let first = derived
        .lines()
        .zip(golden.lines())
        .position(|(d, g)| d != g)
        .unwrap_or(derived.lines().count().min(golden.lines().count()));
    Some(format!(
        "{tag} runs differ from {path} at line {} ({} derived lines, {} golden); \
         derived text written to {actual}",
        first + 1,
        derived.lines().count(),
        golden.lines().count()
    ))
}

fn check(mode: ExecMode, tag: &str) {
    let derived = derive(mode);
    let failures: Vec<String> = [(&derived.outcomes, OUTCOMES), (&derived.runs, RUNS)]
        .into_iter()
        .filter_map(|(text, path)| mismatch(text, path, tag))
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn every_source_runs_as_pinned_on_the_vm() {
    check(ExecMode::Vm, "vm");
}

#[test]
fn every_source_runs_as_pinned_on_the_walker() {
    check(ExecMode::Walk, "walk");
}
