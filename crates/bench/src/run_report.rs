//! Structured run reports: every experiment's paper-figure numbers plus
//! the solver health behind them, serialized to JSON/CSV with no external
//! dependencies (mirroring the plain-`std` style of
//! `si_analog::op_report`).
//!
//! A [`RunReport`] carries three layers:
//!
//! * **metrics** — the scalar headline numbers of the experiment (a boost
//!   factor, a dynamic range, a minimum supply),
//! * **points** — the per-sweep-point records (one per input level, supply
//!   voltage, Monte-Carlo trial, …), each a labeled set of named values,
//! * **solver** — the merged [`EngineStats`] of every Newton solve the
//!   experiment ran, so a regression in convergence behavior shows up in
//!   the report diff even when the headline numbers still pass.
//!
//! Golden-report tests compare [`RunReport::normalized_json`], which
//! strips wall-clock timings and rounds floats to 9 significant digits so
//! the snapshot is deterministic.

use si_analog::json::Json;
use si_analog::telemetry::EngineStats;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// Version stamped into every serialized report; bump on breaking schema
/// changes so downstream report readers can dispatch.
pub(crate) const SCHEMA_VERSION: u32 = 1;

/// One labeled record of a sweep (an input level, a supply point, a trial).
#[derive(Debug, Clone, PartialEq)]
pub struct PointRecord {
    /// Human-readable identity of the point (`"level -20 dB"`).
    pub label: String,
    /// Named values measured at this point, in insertion order.
    pub values: Vec<(String, f64)>,
}

impl PointRecord {
    /// A point with no values yet.
    #[must_use]
    pub fn new(label: impl Into<String>) -> Self {
        PointRecord {
            label: label.into(),
            values: Vec::new(),
        }
    }

    /// Adds a named value (builder style).
    #[must_use]
    pub fn with(mut self, name: impl Into<String>, value: f64) -> Self {
        self.values.push((name.into(), value));
        self
    }

    /// Looks up a value by name.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// A structured, serializable record of one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Experiment name (`"exp_cell"`), also the output file stem.
    pub experiment: String,
    /// String metadata (units, configuration notes), in insertion order.
    pub notes: Vec<(String, String)>,
    /// Scalar headline metrics, in insertion order.
    pub metrics: Vec<(String, f64)>,
    /// Per-sweep-point records.
    pub points: Vec<PointRecord>,
    /// Merged solver telemetry for every analog solve the run performed.
    pub solver: Option<EngineStats>,
}

impl RunReport {
    /// An empty report for `experiment`.
    #[must_use]
    pub fn new(experiment: impl Into<String>) -> Self {
        RunReport {
            experiment: experiment.into(),
            notes: Vec::new(),
            metrics: Vec::new(),
            points: Vec::new(),
            solver: None,
        }
    }

    /// Adds a string note.
    pub fn note(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.notes.push((name.into(), value.into()));
    }

    /// Adds a scalar metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    /// Adds a sweep point.
    pub fn point(&mut self, point: PointRecord) {
        self.points.push(point);
    }

    /// Attaches the merged solver telemetry.
    pub fn set_solver(&mut self, stats: EngineStats) {
        self.solver = Some(stats);
    }

    /// Looks up a metric by name.
    #[must_use]
    pub fn metric_value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Serializes the full report as JSON (exact float round-trip via
    /// scientific notation; non-finite values become `null`).
    #[must_use]
    pub fn to_json(&self) -> String {
        self.render_json(false)
    }

    /// Deterministic JSON for snapshot comparisons: solver wall-clock
    /// timings are zeroed and floats are rounded to 9 significant digits,
    /// so two runs of the same build produce byte-identical output.
    #[must_use]
    pub fn normalized_json(&self) -> String {
        self.render_json(true)
    }

    fn render_json(&self, normalize: bool) -> String {
        let num = |v: f64| fmt_json_number(v, normalize);
        let quote = |v: &str| Json::String(v.to_string()).to_string_compact();
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"experiment\": {},", quote(&self.experiment));
        let _ = writeln!(s, "  \"schema\": {SCHEMA_VERSION},");
        s.push_str("  \"notes\": {");
        for (i, (k, v)) in self.notes.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}{}: {}", quote(k), quote(v));
        }
        s.push_str("},\n");
        s.push_str("  \"metrics\": {");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}{}: {}", quote(k), num(*v));
        }
        s.push_str("},\n");
        s.push_str("  \"points\": [");
        for (i, p) in self.points.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}\n    {{\"label\": {}", quote(&p.label));
            for (k, v) in &p.values {
                let _ = write!(s, ", {}: {}", quote(k), num(*v));
            }
            s.push('}');
        }
        if self.points.is_empty() {
            s.push_str("],\n");
        } else {
            s.push_str("\n  ],\n");
        }
        match &self.solver {
            Some(stats) => {
                let stats = if normalize {
                    stats.normalized()
                } else {
                    stats.clone()
                };
                let _ = writeln!(s, "  \"solver\": {}", stats.to_json().to_string_compact());
            }
            None => s.push_str("  \"solver\": null\n"),
        }
        s.push_str("}\n");
        s
    }

    /// Serializes the sweep points as CSV: a `label` column followed by
    /// the value columns of the first point (all points are expected to
    /// share one shape; missing values render empty).
    #[must_use]
    pub(crate) fn points_csv(&self) -> String {
        let mut s = String::from("label");
        let columns: Vec<&str> = self
            .points
            .first()
            .map(|p| p.values.iter().map(|(k, _)| k.as_str()).collect())
            .unwrap_or_default();
        for c in &columns {
            let _ = write!(s, ",{c}");
        }
        s.push('\n');
        for p in &self.points {
            s.push_str(&csv_field(&p.label));
            for c in &columns {
                match p.value(c) {
                    Some(v) => {
                        let _ = write!(s, ",{v:e}");
                    }
                    None => s.push(','),
                }
            }
            s.push('\n');
        }
        s
    }

    /// Writes `<experiment>_report.json` (and `.csv` when the report has
    /// points) under `dir`, creating the directory if needed. Returns the
    /// JSON path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, dir: impl AsRef<Path>) -> io::Result<PathBuf> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let json_path = dir.join(format!("{}_report.json", self.experiment));
        std::fs::write(&json_path, self.to_json())?;
        if !self.points.is_empty() {
            let csv_path = dir.join(format!("{}_report.csv", self.experiment));
            std::fs::write(csv_path, self.points_csv())?;
        }
        Ok(json_path)
    }
}

/// The conventional output directory for experiment artifacts.
#[must_use]
pub fn experiments_dir() -> PathBuf {
    PathBuf::from("target/experiments")
}

fn fmt_json_number(v: f64, normalize: bool) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    if normalize {
        format!("{v:.8e}")
    } else {
        format!("{v:e}")
    }
}

fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample() -> RunReport {
        let mut r = RunReport::new("exp_demo");
        r.note("supply", "3.3 V");
        r.metric("boost", 123.456);
        r.metric("bad", f64::NAN);
        r.point(PointRecord::new("level -20 dB").with("sinad_db", 55.5));
        r.point(PointRecord::new("level -6 dB").with("sinad_db", 68.25));
        let mut stats = EngineStats::new();
        stats.solves = 7;
        stats.solve_time = Duration::from_millis(12);
        r.set_solver(stats);
        r
    }

    #[test]
    fn json_contains_all_layers() {
        let json = sample().to_json();
        for needle in [
            "\"experiment\": \"exp_demo\"",
            "\"schema\": 1",
            "\"supply\": \"3.3 V\"",
            "\"boost\":",
            "\"bad\": null",
            "\"label\": \"level -20 dB\"",
            "\"solves\":7",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn normalized_json_is_timing_free_and_stable() {
        let a = sample();
        let mut b = sample();
        // Same run, different wall-clock: must serialize identically.
        if let Some(s) = &mut b.solver {
            s.solve_time = Duration::from_secs(99);
        }
        assert_eq!(a.normalized_json(), b.normalized_json());
        assert!(a.normalized_json().contains("\"solve_time_ns\":0"));
        assert_ne!(a.to_json(), b.to_json());
    }

    #[test]
    fn csv_round_trips_point_shape() {
        let csv = sample().points_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("label,sinad_db"));
        assert_eq!(lines.next(), Some("level -20 dB,5.55e1"));
        assert_eq!(lines.next(), Some("level -6 dB,6.825e1"));
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn lookup_helpers_find_named_entries() {
        let r = sample();
        assert_eq!(r.metric_value("boost"), Some(123.456));
        assert_eq!(r.metric_value("missing"), None);
        assert_eq!(r.points[1].value("sinad_db"), Some(68.25));
    }

    #[test]
    fn json_escaping_is_safe() {
        let mut r = RunReport::new("exp_\"quoted\"");
        r.note("multi\nline", "tab\there");
        let json = r.to_json();
        assert!(json.contains("exp_\\\"quoted\\\""));
        assert!(json.contains("multi\\nline"));
        assert!(json.contains("tab\\there"));
    }
}
