//! Order statistics.

/// Nearest-rank percentile of an ascending slice (`p` in `(0, 1]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// How many samples lie strictly above the nearest-rank percentile's rank.
pub fn beyond(len: usize, p: f64) -> usize {
    len - ((p * len as f64).ceil() as usize).clamp(1, len)
}

/// The median of unsorted values (mean of the middle two for even
/// counts); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}
