//! Plain-text report formatting for the experiment binaries.
//!
//! Every `exp_*` binary prints the paper's reference value next to the
//! measured value so the reproduction can be judged row by row, the way
//! `EXPERIMENTS.md` records it.

use std::fmt::Write as _;

/// A two-column (paper vs measured) comparison table with a title.
#[derive(Debug, Clone, Default)]
pub struct Report {
    title: String,
    rows: Vec<(String, String, String)>,
}

impl Report {
    /// A new report with the given title.
    #[must_use]
    pub fn new(title: &str) -> Self {
        Report {
            title: title.to_string(),
            rows: Vec::new(),
        }
    }

    /// Adds a row: quantity, the paper's value, the measured value.
    pub fn row(&mut self, quantity: &str, paper: &str, measured: &str) -> &mut Self {
        self.rows.push((
            quantity.to_string(),
            paper.to_string(),
            measured.to_string(),
        ));
        self
    }

    /// Renders the report as an aligned text table.
    #[must_use]
    pub fn render(&self) -> String {
        let widths = self.rows.iter().fold((8usize, 5usize, 8usize), |w, r| {
            (
                w.0.max(r.0.chars().count()),
                w.1.max(r.1.chars().count()),
                w.2.max(r.2.chars().count()),
            )
        });
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let _ = writeln!(
            out,
            "{:<w0$}  {:<w1$}  {:<w2$}",
            "quantity",
            "paper",
            "measured",
            w0 = widths.0,
            w1 = widths.1,
            w2 = widths.2
        );
        let _ = writeln!(out, "{}", "-".repeat(widths.0 + widths.1 + widths.2 + 4));
        for (q, p, m) in &self.rows {
            let _ = writeln!(
                out,
                "{q:<w0$}  {p:<w1$}  {m:<w2$}",
                w0 = widths.0,
                w1 = widths.1,
                w2 = widths.2
            );
        }
        out
    }

    /// Prints the rendered report to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a series as `frequency_hz<TAB>level_db` lines for plotting —
/// the raw data behind a figure.
#[must_use]
pub fn series_tsv(header: &str, xs: &[f64], ys: &[f64]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {header}");
    for (x, y) in xs.iter().zip(ys) {
        let _ = writeln!(out, "{x:.6e}\t{y:.3}");
    }
    out
}

/// Decimates a spectrum to at most `max_points` by taking the maximum in
/// each chunk — keeps plot files small while preserving peaks.
#[must_use]
pub fn decimate_for_plot(values: &[f64], max_points: usize) -> Vec<(usize, f64)> {
    if values.is_empty() || max_points == 0 {
        return Vec::new();
    }
    let chunk = values.len().div_ceil(max_points);
    values
        .chunks(chunk)
        .enumerate()
        .map(|(i, c)| {
            let peak = c.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            (i * chunk, peak)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_aligned_rows() {
        let mut r = Report::new("Table 1");
        r.row("THD", "-50 dB", "-51.2 dB");
        r.row("SNR", "50 dB", "49.7 dB");
        let text = r.render();
        assert!(text.contains("== Table 1 =="));
        assert!(text.contains("THD"));
        assert!(text.contains("-51.2 dB"));
        assert!(text.contains("49.7 dB"));
        // All data lines have the same column starts.
        let lines: Vec<&str> = text.lines().skip(1).collect();
        assert!(lines.len() >= 4);
    }

    #[test]
    fn series_tsv_emits_header_and_pairs() {
        let s = series_tsv("fig5", &[1.0, 2.0], &[-3.0, -6.0]);
        assert!(s.starts_with("# fig5"));
        assert_eq!(s.lines().count(), 3);
    }

    #[test]
    fn decimate_keeps_peaks() {
        let mut v = vec![0.0; 100];
        v[57] = 9.0;
        let d = decimate_for_plot(&v, 10);
        assert_eq!(d.len(), 10);
        assert!(d.iter().any(|&(_, y)| y == 9.0));
        assert!(decimate_for_plot(&[], 10).is_empty());
        assert!(decimate_for_plot(&[1.0], 0).is_empty());
    }
}
