//! # acc-bench — benchmark & figure/table regeneration harnesses
//!
//! One bench target per evaluation artifact of the paper:
//!
//! | Target | Artifact |
//! |---|---|
//! | `fig8_caps` / `fig8_pgi` / `fig8_cray` | Fig. 8(a)/(b)/(c) pass-rate series |
//! | `table1_bugs` | Table I bug counts |
//! | `certainty_stats` | §III statistical certainty model |
//! | `fig13_titan` | §VII / Fig. 13 production-harness matrix |
//!
//! Run them all with `cargo bench --workspace`, or one with
//! `cargo bench -p acc-bench --bench fig8_caps`.

#![warn(missing_docs)]

pub mod perf;

use acc_compiler::{VendorCompiler, VendorId};
use acc_spec::Language;
use acc_validation::{Campaign, SuiteRun};

/// Print one vendor's Fig. 8 series (and return the rows for assertions).
pub fn fig8_series(vendor: VendorId) -> Vec<(String, f64, f64)> {
    let suite = acc_testsuite::full_suite();
    let campaign = Campaign::new(suite);
    let result = campaign.run_vendor_line(vendor);
    let mut rows = Vec::new();
    for (version, run) in vendor.versions().iter().zip(&result.runs) {
        rows.push((
            version.to_string(),
            run.pass_rate(Language::C),
            run.pass_rate(Language::Fortran),
        ));
    }
    rows
}

/// Render a Fig. 8 series as the paper-style table plus an ASCII bar plot.
pub fn render_fig8(vendor: VendorId, rows: &[(String, f64, f64)]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Fig. 8({}) — {} test pass rates per released version",
        match vendor {
            VendorId::Caps => "a",
            VendorId::Pgi => "b",
            VendorId::Cray => "c",
            VendorId::Reference => "-",
        },
        vendor.name()
    );
    let _ = writeln!(s, "{:>10} {:>8} {:>10}", "version", "C %", "Fortran %");
    for (v, c, f) in rows {
        let _ = writeln!(s, "{v:>10} {c:>8.1} {f:>10.1}");
    }
    let _ = writeln!(s);
    for (label, idx) in [("C Test", 1usize), ("Fortran Test", 2)] {
        let _ = writeln!(s, "  {label}:");
        for row in rows {
            let rate = if idx == 1 { row.1 } else { row.2 };
            let bars = "#".repeat((rate / 2.5).round() as usize);
            let _ = writeln!(s, "    {:>8} |{bars} {rate:.1}%", row.0);
        }
    }
    s
}

/// Run the full suite once against a compiler (helper for perf benches).
pub fn run_full_suite(compiler: &VendorCompiler) -> SuiteRun {
    let suite = acc_testsuite::full_suite();
    Campaign::new(suite).run_one(compiler)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_render_has_all_versions() {
        // Use a cheap subset by rendering fabricated rows (the real series
        // is exercised by the bench targets).
        let rows = vec![
            ("1.0".to_string(), 50.0, 60.0),
            ("2.0".to_string(), 100.0, 100.0),
        ];
        let out = render_fig8(VendorId::Caps, &rows);
        assert!(out.contains("Fig. 8(a)"));
        assert!(out.contains("1.0"));
        assert!(out.contains("100.0"));
        assert!(out.contains("C Test"));
        assert!(out.contains("Fortran Test"));
    }
}
