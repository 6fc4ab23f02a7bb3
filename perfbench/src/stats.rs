//! Sample statistics and process measurements.

use std::time::Instant;

/// Run `f` and return its result with the elapsed host time in nanoseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as u64)
}

/// The `q` quantile of `values` (linear interpolation between order
/// statistics); 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest of p50/p90/p95/p99/p99.9 that leaves at least ten samples
/// above it, as `(percent, value)`; `None` with fewer than 20 samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    // Percentiles in per mille, so the sample-count test stays exact.
    [999usize, 990, 950, 900, 500]
        .into_iter()
        .find(|pm| values.len() * (1000 - pm) >= 10 * 1000)
        .map(|pm| (pm as f64 / 10.0, quantile(values, pm as f64 / 1000.0)))
}

/// Peak resident set size of this process (`VmHWM`), megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 19]), None);
        let v: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| t.0), Some(50.0));
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| t.0), Some(90.0));
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
