//! The whole corpus through render and parse, pinned line by line.
//!
//! `tests/golden/corpus_frontend.txt` holds one line per generated source,
//! in suite order (case, then language, then functional before cross):
//!
//! ```text
//! <case>\t<language>\t<functional|cross>\t<bytes>\t<fnv(text)>\t<fnv(parse)>
//! ```
//!
//! `fnv(text)` is FNV-1a 64 over the rendered source and `fnv(parse)` over
//! `format!("{:?}", parse(text))`. `Program` derives `Debug` and
//! `PartialEq` over the same fields, so an equal hash pins the parsed
//! program as well as the rendered bytes. A change to either emitter or to
//! either front-end that moves one byte of one source, or one field of one
//! parsed program, shows up here.

use openacc_vv::validation::journal::checksum;
use std::fmt::Write as _;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/corpus_frontend.txt"
);

fn derive() -> String {
    let mut out = String::new();
    for case in openacc_vv::testsuite::full_suite() {
        for &lang in &case.languages {
            let sources = [
                ("functional", Some(case.source_for(lang))),
                ("cross", case.cross_source_for(lang)),
            ];
            for (kind, text) in sources {
                let Some(text) = text else { continue };
                let parsed = format!("{:?}", openacc_vv::frontend::parse(&text, lang));
                let _ = writeln!(
                    out,
                    "{}\t{lang}\t{kind}\t{}\t{:016x}\t{:016x}",
                    case.name,
                    text.len(),
                    checksum(&text),
                    checksum(&parsed)
                );
            }
        }
    }
    out
}

#[test]
fn every_source_renders_and_parses_as_pinned() {
    let derived = derive();
    let golden = std::fs::read_to_string(GOLDEN).unwrap_or_else(|e| panic!("{GOLDEN}: {e}"));
    if derived != golden {
        let actual = concat!(env!("CARGO_TARGET_TMPDIR"), "/corpus_frontend.actual.txt");
        let _ = std::fs::write(actual, &derived);
        let first = derived
            .lines()
            .zip(golden.lines())
            .position(|(d, g)| d != g)
            .unwrap_or(derived.lines().count().min(golden.lines().count()));
        panic!(
            "corpus differs from {GOLDEN} at line {} ({} derived lines, {} golden); \
             derived text written to {actual}",
            first + 1,
            derived.lines().count(),
            golden.lines().count()
        );
    }
    assert_eq!(golden.lines().count(), 436, "one line per generated source");
}
