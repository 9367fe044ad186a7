//! Functionality tracking over time: "to track functionality improvements
//! or degradation over time" (§VII).

use std::collections::BTreeMap;
use std::fmt;

/// A change in a tracked series between consecutive observations.
#[derive(Debug, Clone, PartialEq)]
pub enum Drift {
    /// Pass rate increased (functionality improvement — e.g. a compiler
    /// upgrade fixed bugs).
    Improvement {
        /// Series key.
        key: String,
        /// Previous and new rates.
        from: f64,
        /// New rate.
        to: f64,
    },
    /// Pass rate decreased (degradation — a regression or a node going bad).
    Degradation {
        /// Series key.
        key: String,
        /// Previous rate.
        from: f64,
        /// New rate.
        to: f64,
    },
}

impl fmt::Display for Drift {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Drift::Improvement { key, from, to } => {
                write!(f, "IMPROVED  {key}: {from:.1}% → {to:.1}%")
            }
            Drift::Degradation { key, from, to } => {
                write!(f, "DEGRADED  {key}: {from:.1}% → {to:.1}%")
            }
        }
    }
}

/// A time series of pass rates per key (a key is typically a stack label or
/// a node/stack pair).
#[derive(Debug, Default)]
pub struct FunctionalityTracker {
    series: BTreeMap<String, Vec<(String, f64)>>,
}

impl FunctionalityTracker {
    /// Empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an observation. `when` is a caller-supplied label (a date, a
    /// software release, a run id).
    pub fn record(&mut self, key: impl Into<String>, when: impl Into<String>, pass_rate: f64) {
        self.series
            .entry(key.into())
            .or_default()
            .push((when.into(), pass_rate));
    }

    /// Drifts produced by the latest observation of each series (empty when
    /// a series has fewer than two points or is stable).
    pub fn latest_drifts(&self) -> Vec<Drift> {
        let mut out = Vec::new();
        for (key, points) in &self.series {
            if points.len() < 2 {
                continue;
            }
            let from = points[points.len() - 2].1;
            let to = points[points.len() - 1].1;
            if to > from {
                out.push(Drift::Improvement {
                    key: key.clone(),
                    from,
                    to,
                });
            } else if to < from {
                out.push(Drift::Degradation {
                    key: key.clone(),
                    from,
                    to,
                });
            }
        }
        out
    }

    /// Full history of a series.
    pub fn history(&self, key: &str) -> Option<&[(String, f64)]> {
        self.series.get(key).map(|v| v.as_slice())
    }

    /// All tracked keys.
    pub fn keys(&self) -> Vec<&str> {
        self.series.keys().map(|s| s.as_str()).collect()
    }

    /// Load a tracker persisted by [`FunctionalityTracker::save`]. Lines
    /// are `key\twhen\trate`; malformed lines are skipped (a torn write
    /// costs at most the tail observation, never the whole history).
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        Self::load_via(&acc_validation::RealFs, path)
    }

    /// [`FunctionalityTracker::load`] on an injected filesystem.
    pub fn load_via(
        vfs: &dyn acc_validation::Vfs,
        path: impl AsRef<std::path::Path>,
    ) -> std::io::Result<Self> {
        let text = acc_validation::vfs::read_lossy(vfs, path.as_ref())?;
        let mut t = FunctionalityTracker::new();
        for line in text.lines() {
            let mut parts = line.splitn(3, '\t');
            let (Some(key), Some(when), Some(rate)) = (parts.next(), parts.next(), parts.next())
            else {
                continue;
            };
            let Ok(rate) = rate.parse::<f64>() else {
                continue;
            };
            t.record(key, when, rate);
        }
        Ok(t)
    }

    /// Persist the tracker atomically (temp file + rename + directory
    /// fsync) so a crash mid-save can never corrupt the on-disk history.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        self.save_via(&acc_validation::RealFs, path)
    }

    /// [`FunctionalityTracker::save`] on an injected filesystem.
    pub fn save_via(
        &self,
        vfs: &dyn acc_validation::Vfs,
        path: impl AsRef<std::path::Path>,
    ) -> std::io::Result<()> {
        let mut out = String::new();
        for (key, points) in &self.series {
            for (when, rate) in points {
                use std::fmt::Write as _;
                let _ = writeln!(out, "{key}\t{when}\t{rate}");
            }
        }
        acc_validation::atomic_write_via(vfs, path, out.as_bytes())
    }

    /// Render the series as an ASCII trend table.
    pub fn trend_table(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for (key, points) in &self.series {
            let _ = writeln!(s, "{key}:");
            for (when, rate) in points {
                let bars = "#".repeat((rate / 5.0).round() as usize);
                let _ = writeln!(s, "  {when:<12} {rate:>6.1}% {bars}");
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_detection() {
        let mut t = FunctionalityTracker::new();
        t.record("cray-cuda", "week1", 80.0);
        t.record("cray-cuda", "week2", 95.0);
        t.record("cray-opencl", "week1", 95.0);
        t.record("cray-opencl", "week2", 70.0);
        t.record("stable", "week1", 90.0);
        t.record("stable", "week2", 90.0);
        let drifts = t.latest_drifts();
        assert_eq!(drifts.len(), 2);
        assert!(matches!(
            &drifts[0],
            Drift::Improvement { key, from, to } if key == "cray-cuda" && *from == 80.0 && *to == 95.0
        ));
        assert!(matches!(
            &drifts[1],
            Drift::Degradation { key, .. } if key == "cray-opencl"
        ));
    }

    #[test]
    fn single_point_series_produce_no_drift() {
        let mut t = FunctionalityTracker::new();
        t.record("x", "only", 50.0);
        assert!(t.latest_drifts().is_empty());
    }

    #[test]
    fn history_and_keys() {
        let mut t = FunctionalityTracker::new();
        t.record("a", "1", 10.0);
        t.record("a", "2", 20.0);
        assert_eq!(t.history("a").unwrap().len(), 2);
        assert!(t.history("missing").is_none());
        assert_eq!(t.keys(), vec!["a"]);
    }

    #[test]
    fn trend_table_renders() {
        let mut t = FunctionalityTracker::new();
        t.record("a", "w1", 100.0);
        let table = t.trend_table();
        assert!(table.contains("a:"));
        assert!(table.contains("100.0%"));
        assert!(table.contains("####################"));
    }

    #[test]
    fn drift_display() {
        let d = Drift::Degradation {
            key: "k".into(),
            from: 90.0,
            to: 80.0,
        };
        assert_eq!(d.to_string(), "DEGRADED  k: 90.0% → 80.0%");
    }
}
