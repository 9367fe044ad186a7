//! Every corpus program run under both engines, pinned line by line.
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
//! The file is derived under the VM and under the walker, and both must
//! equal it: the walker is the semantic oracle, the VM the default engine.
//! Reports show only verdicts; this file also pins crash texts, tick
//! counts (`stmts`), device iterations, bytes moved, allocations,
//! reductions and present-table hits, which a VM change could move while
//! every verdict stays put. Replace it only for a deliberate change of
//! what a program does, and say why in CHANGES.md.

use openacc_vv::compiler::{CompileCache, RunKnobs};
use openacc_vv::prelude::*;
use openacc_vv::validation::journal::checksum;
use std::fmt::Write as _;
use std::sync::Arc;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/corpus_runs.txt");

/// One line per source of `suite` as `compiler` builds and `mode` runs it.
fn release_lines(suite: &[TestCase], compiler: &VendorCompiler, mode: ExecMode) -> String {
    let mut out = String::new();
    for case in suite {
        for &lang in &case.languages {
            let sources = [
                ("functional", Some(case.source_for(lang))),
                ("cross", case.cross_source_for(lang)),
            ];
            for (kind, text) in sources {
                let Some(text) = text else { continue };
                let _ = write!(out, "{}\t{lang}\t{kind}", case.name);
                let exe = match compiler.compile(&text, lang) {
                    Ok(exe) => exe,
                    Err(e) => {
                        let _ = writeln!(out, "\tcompile: {e}");
                        continue;
                    }
                };
                let disasm = exe.disassemble();
                let _ = write!(out, "\t{}\t{:016x}", disasm.len(), checksum(&disasm));
                for run_index in 0..2 {
                    let knobs = RunKnobs {
                        run_index,
                        exec_mode: mode,
                        ..RunKnobs::default()
                    };
                    let r = exe.run_with_knobs(&case.env, knobs);
                    let _ = write!(out, "\t{:?}\t{}", r.outcome, r.metrics);
                }
                out.push('\n');
            }
        }
    }
    out
}

/// The whole file under `mode`. One compile cache serves every release, so
/// each source is parsed and lowered once, as in a Fig. 8 campaign.
fn derive(mode: ExecMode) -> String {
    let suite = openacc_vv::testsuite::full_suite();
    let cache = CompileCache::shared();
    let with_cache = |c: VendorCompiler| c.with_cache(Arc::clone(&cache));
    let mut out = release_lines(&suite, &with_cache(VendorCompiler::reference()), mode);
    for vendor in VendorId::COMMERCIAL {
        for version in vendor.versions() {
            let compiler = with_cache(VendorCompiler::new(vendor, version));
            let lines = release_lines(&suite, &compiler, mode);
            let _ = writeln!(out, "{}\t{:016x}", compiler.label(), checksum(&lines));
        }
    }
    out
}

fn check(mode: ExecMode, tag: &str) {
    let derived = derive(mode);
    let golden = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    if derived != golden {
        let actual = format!(
            "{}/corpus_runs.{tag}.actual.txt",
            env!("CARGO_TARGET_TMPDIR")
        );
        let _ = std::fs::write(&actual, &derived);
        let first = derived
            .lines()
            .zip(golden.lines())
            .position(|(d, g)| d != g)
            .unwrap_or(derived.lines().count().min(golden.lines().count()));
        panic!(
            "{tag} runs differ from {GOLDEN} at line {} ({} derived lines, {} golden); \
             derived text written to {actual}",
            first + 1,
            derived.lines().count(),
            golden.lines().count()
        );
    }
    assert_eq!(
        golden.lines().count(),
        436 + 24,
        "one line per source, one per release"
    );
}

#[test]
fn every_source_runs_as_pinned_on_the_vm() {
    check(ExecMode::Vm, "vm");
}

#[test]
fn every_source_runs_as_pinned_on_the_walker() {
    check(ExecMode::Walk, "walk");
}
