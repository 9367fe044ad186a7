//! Result analysis and report generation.
//!
//! §III: "After all the tests are executed, a full report will be generated
//! demonstrating the result for each of the features. We append the bug
//! reports with code snippets for vendors' convenience. We can generate the
//! validation results in any of the formats such as plain text, HTML and
//! CSV."

use crate::campaign::SuiteRun;
use crate::case::TestStatus;
use acc_spec::Language;
use std::fmt::Write;

/// Output format of a generated report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportFormat {
    /// Plain text.
    Text,
    /// Comma-separated values.
    Csv,
    /// Self-contained HTML.
    Html,
}

impl ReportFormat {
    /// The format's CLI name (`text`/`csv`/`html`), as stored.
    pub fn name(self) -> &'static str {
        match self {
            ReportFormat::Text => "text",
            ReportFormat::Csv => "csv",
            ReportFormat::Html => "html",
        }
    }

    /// Parse a format as the CLI's `--format` and the server's `format`
    /// spell it.
    pub fn from_cli(s: &str) -> Result<ReportFormat, String> {
        [ReportFormat::Text, ReportFormat::Csv, ReportFormat::Html]
            .into_iter()
            .find(|f| f.name() == s)
            .ok_or_else(|| format!("unknown format `{s}` (text|csv|html)"))
    }
}

/// Render a suite run in the requested format.
pub fn render(run: &SuiteRun, format: ReportFormat) -> String {
    match format {
        ReportFormat::Text => render_text(run),
        ReportFormat::Csv => render_csv(run),
        ReportFormat::Html => render_html(run),
    }
}

/// Render a suite run and write it to `path` atomically (temp file + rename
/// via [`crate::journal::atomic_write`]), so a crash mid-write can never
/// leave a torn half-report on disk.
pub fn write_file(
    run: &SuiteRun,
    format: ReportFormat,
    path: impl AsRef<std::path::Path>,
) -> std::io::Result<()> {
    crate::journal::atomic_write(path, render(run, format).as_bytes())
}

fn render_text(run: &SuiteRun) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "OpenACC Validation Suite — report for {}", run.compiler);
    let _ = writeln!(s, "{}", "=".repeat(60));
    for lang in [Language::C, Language::Fortran] {
        let counted = run.counted(lang);
        if counted.is_empty() {
            continue;
        }
        let breakdown = run.failure_breakdown(lang);
        let _ = writeln!(
            s,
            "\n[{lang}] {} tests, pass rate {:.1}%  ({breakdown})",
            counted.len(),
            run.pass_rate(lang),
        );
        for r in &counted {
            let cert = match r.certainty {
                Some(c) => format!("  [{c}]"),
                None => String::new(),
            };
            let _ = writeln!(s, "  {:<40} {}{}", r.feature.as_str(), r.status, cert);
        }
        let inconclusive = run.inconclusive(lang);
        if !inconclusive.is_empty() {
            let _ = writeln!(s, "\n  Cross tests needing re-design ({lang}):");
            for r in inconclusive {
                let _ = writeln!(s, "    {}", r.feature);
            }
        }
    }
    // Bug-report appendix with code snippets.
    let failures: Vec<_> = run
        .results
        .iter()
        .filter(|r| r.status.counted() && !r.passed())
        .collect();
    if !failures.is_empty() {
        let _ = writeln!(s, "\nBUG REPORT APPENDIX (code snippets for the vendor)");
        let _ = writeln!(s, "{}", "-".repeat(60));
        for r in failures {
            let _ = writeln!(s, "\n* {} ({}) — {}", r.feature, r.language, r.status);
            for line in r.functional_source.lines() {
                let _ = writeln!(s, "    {line}");
            }
        }
    }
    s
}

fn render_csv(run: &SuiteRun) -> String {
    let mut s = String::from("compiler,language,feature,status,certainty_pc\n");
    for r in &run.results {
        if !r.status.counted() {
            continue;
        }
        let pc = r
            .certainty
            .map(|c| format!("{:.4}", c.pc()))
            .unwrap_or_default();
        let _ = writeln!(
            s,
            "{},{},{},{},{}",
            run.compiler,
            r.language,
            r.feature,
            r.status.label(),
            pc
        );
    }
    s
}

fn render_html(run: &SuiteRun) -> String {
    let mut s = String::new();
    s.push_str(
        "<!DOCTYPE html>\n<html><head><title>OpenACC Validation Report</title></head><body>\n",
    );
    let _ = writeln!(
        s,
        "<h1>OpenACC Validation Suite — {}</h1>",
        escape(&run.compiler)
    );
    for lang in [Language::C, Language::Fortran] {
        if run.counted(lang).is_empty() {
            continue;
        }
        let _ = writeln!(
            s,
            "<h2>{lang} — pass rate {:.1}%</h2>\n<table border=\"1\">\n\
             <tr><th>feature</th><th>status</th><th>certainty</th></tr>",
            run.pass_rate(lang)
        );
        for r in run.counted(lang) {
            let cert = r
                .certainty
                .map(|c| format!("{:.1}%", c.pc() * 100.0))
                .unwrap_or_else(|| "—".to_string());
            let _ = writeln!(
                s,
                "<tr><td>{}</td><td>{}</td><td>{}</td></tr>",
                escape(r.feature.as_str()),
                escape(r.status.label()),
                cert
            );
        }
        s.push_str("</table>\n");
    }
    // Snippets for failures.
    for r in run
        .results
        .iter()
        .filter(|r| r.status.counted() && !r.passed())
    {
        let _ = writeln!(
            s,
            "<h3>{} ({})</h3><pre>{}</pre>",
            escape(r.feature.as_str()),
            r.language,
            escape(&r.functional_source)
        );
    }
    s.push_str("</body></html>\n");
    s
}

/// The paper's §VI "large table" it could not print for space: a pass/fail
/// matrix of every feature against every compiler run, one column per run.
///
/// Cell legend: `+` pass, `*` pass with an inconclusive cross test,
/// `C` compile error, `W` wrong result, `X` crash, `T` timeout, `I` infra
/// failure, `F` flaky, `.` not applicable to the language.
pub fn feature_matrix(runs: &[&SuiteRun], lang: Language) -> String {
    use std::collections::BTreeMap;
    let mut features: BTreeMap<String, Vec<char>> = BTreeMap::new();
    for (col, run) in runs.iter().enumerate() {
        for r in &run.results {
            if r.language != lang {
                continue;
            }
            let cell = match &r.status {
                TestStatus::Pass => '+',
                TestStatus::PassInconclusive => '*',
                TestStatus::CompileError(_) => 'C',
                TestStatus::WrongResult => 'W',
                TestStatus::Crash(_) => 'X',
                TestStatus::Timeout => 'T',
                TestStatus::Infra(_) => 'I',
                TestStatus::Flaky => 'F',
                TestStatus::Skipped(_) => '.',
            };
            features
                .entry(r.feature.as_str().to_string())
                .or_insert_with(|| vec![' '; runs.len()])[col] = cell;
        }
    }
    let mut s = String::new();
    let _ = writeln!(
        s,
        "PASS/FAIL MATRIX ({lang})  [+ pass, * inconclusive cross, C compile error, W wrong \
         result, X crash, T timeout, I infra, F flaky, . n/a]\n"
    );
    let _ = write!(s, "{:<38}", "feature");
    for run in runs {
        let _ = write!(s, " {:>12}", truncate(&run.compiler, 12));
    }
    let _ = writeln!(s);
    for (feature, cells) in &features {
        let _ = write!(s, "{feature:<38}");
        for c in cells {
            let _ = write!(s, " {c:>12}");
        }
        let _ = writeln!(s);
    }
    s
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        s[..n].to_string()
    }
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Summarize a test status for quick console lines.
pub fn one_line(status: &TestStatus) -> String {
    status.label().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use crate::case::TestCase;
    use crate::cross::CrossRule;
    use acc_ast::builder as b;
    use acc_ast::{Expr, Program};
    use acc_compiler::{VendorCompiler, VendorId};
    use acc_spec::DirectiveKind;

    fn run_for(vendor: Option<(VendorId, &str)>) -> SuiteRun {
        let base = Program::simple(
            "loop",
            Language::C,
            vec![
                b::decl_int("error", 0),
                b::decl_array("A", acc_ast::ScalarType::Int, 8),
                b::for_upto(
                    "i",
                    Expr::int(8),
                    vec![b::set1("A", Expr::var("i"), Expr::int(0))],
                ),
                b::parallel_region(
                    vec![
                        acc_ast::AccClause::NumGangs(Expr::int(4)),
                        b::copy_sec("A", Expr::int(8)),
                    ],
                    vec![b::acc_loop(
                        vec![],
                        "i",
                        Expr::int(8),
                        vec![b::add1("A", Expr::var("i"), Expr::int(1))],
                    )],
                ),
                b::for_upto(
                    "i",
                    Expr::int(8),
                    vec![b::if_then(
                        Expr::ne(Expr::idx("A", Expr::var("i")), Expr::int(1)),
                        vec![b::bump_error()],
                    )],
                ),
                b::return_error_check(),
            ],
        );
        let suite = vec![TestCase::new(
            "loop",
            "loop",
            base,
            Some(CrossRule::RemoveDirective(DirectiveKind::Loop)),
            "loop test",
        )];
        let compiler = match vendor {
            Some((v, ver)) => VendorCompiler::new(v, ver.parse().unwrap()),
            None => VendorCompiler::reference(),
        };
        Campaign::new(suite).run_one(&compiler)
    }

    #[test]
    fn feature_matrix_renders_cells() {
        let clean = run_for(None);
        let buggy = run_for(Some((VendorId::Caps, "3.0.8")));
        let m = feature_matrix(&[&clean, &buggy], Language::Fortran);
        assert!(m.contains("loop"), "{m}");
        assert!(m.contains('+'), "clean run passes: {m}");
        // CAPS 3.0.8 Fortran drops loop directives: wrong result.
        assert!(m.contains('W'), "buggy run fails: {m}");
    }

    #[test]
    fn text_report_contains_summary_and_statuses() {
        let run = run_for(None);
        let text = render(&run, ReportFormat::Text);
        assert!(text.contains("pass rate 100.0%"), "{text}");
        assert!(text.contains("[C]"));
        assert!(text.contains("[Fortran]"));
        assert!(text.contains("PASS"));
        assert!(
            !text.contains("BUG REPORT"),
            "clean run has no bug appendix"
        );
    }

    #[test]
    fn csv_report_has_rows_per_result() {
        let run = run_for(None);
        let csv = render(&run, ReportFormat::Csv);
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines[0], "compiler,language,feature,status,certainty_pc");
        assert_eq!(lines.len(), 3, "{csv}"); // header + C + Fortran
        assert!(lines[1].contains("loop,PASS"));
    }

    #[test]
    fn html_report_is_wellformed_enough() {
        let run = run_for(None);
        let html = render(&run, ReportFormat::Html);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<table"));
        assert!(html.ends_with("</body></html>\n"));
    }

    #[test]
    fn failures_append_code_snippets() {
        // CAPS 3.0.7 ignores seq and other clauses but passes the loop test;
        // to force a failure, run under a broken profile via an early
        // release with a relevant bug — use the Fortran 3.0.8 regression
        // which rejects `loop` entirely.
        let run = run_for(Some((VendorId::Caps, "3.0.8")));
        let text = render(&run, ReportFormat::Text);
        // The Fortran variant fails to compile under the 3.0.8 regression.
        assert!(text.contains("COMPILE-ERROR"), "{text}");
        assert!(text.contains("BUG REPORT APPENDIX"));
        assert!(text.contains("int main(void)") || text.contains("integer function main"));
    }

    #[test]
    fn html_escapes_source() {
        let run = run_for(Some((VendorId::Caps, "3.0.8")));
        let html = render(&run, ReportFormat::Html);
        assert!(!html.contains("#include <openacc.h>"), "must be escaped");
        assert!(html.contains("&lt;openacc.h&gt;") || !html.contains("openacc.h"));
    }
}
