//! Every verdict of every release, pinned line by line.
//!
//! `tests/golden/verdicts.txt` holds one line per release, case and
//! language, releases in sweep order (the reference release, then
//! `VendorId::COMMERCIAL` with versions oldest first), cases in suite
//! order:
//!
//! ```text
//! <release>\t<case>\t<language>\t<status>\t<certainty>
//! ```
//!
//! `status` is the verdict's `Display` (a crash or compile failure carries
//! its text) and `certainty` the report's certainty column. The file is
//! derived by one `Executor::run_sweep` over all 25 releases through a
//! shared compile cache, the path `accvv campaign` takes. Reports show
//! these verdicts; a change that moves one of them for one release shows
//! up here. Replace it only for a deliberate change of what a release
//! does, and say why in CHANGES.md.

use openacc_vv::compiler::CompileCache;
use openacc_vv::prelude::*;
use std::fmt::Write as _;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/verdicts.txt");

fn derive() -> String {
    let campaign =
        Campaign::new(openacc_vv::testsuite::full_suite()).with_cache(CompileCache::shared());
    let mut releases = vec![VendorCompiler::reference()];
    for vendor in VendorId::COMMERCIAL {
        releases.extend(
            vendor
                .versions()
                .into_iter()
                .map(|v| VendorCompiler::new(vendor, v)),
        );
    }
    let (runs, _) = Executor::new(ExecutorPolicy::new()).run_sweep(&campaign, &releases);
    let mut out = String::new();
    for run in &runs {
        for r in &run.results {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                run.compiler,
                r.name,
                r.language,
                r.status,
                r.certainty_label()
            );
        }
    }
    out
}

#[test]
fn every_release_reaches_its_pinned_verdicts() {
    let derived = derive();
    let golden = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    if derived != golden {
        let actual = concat!(env!("CARGO_TARGET_TMPDIR"), "/verdicts.actual.txt");
        let _ = std::fs::write(actual, &derived);
        let first = derived
            .lines()
            .zip(golden.lines())
            .position(|(d, g)| d != g)
            .unwrap_or(derived.lines().count().min(golden.lines().count()));
        panic!(
            "verdicts differ from {GOLDEN} at line {} ({} derived lines, {} golden); \
             derived text written to {actual}",
            first + 1,
            derived.lines().count(),
            golden.lines().count()
        );
    }
    let releases: std::collections::BTreeSet<&str> = golden
        .lines()
        .filter_map(|l| l.split('\t').next())
        .collect();
    assert_eq!(releases.len(), 25, "one block per release");
}
