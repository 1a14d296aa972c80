//! Clock and latency summaries.
//!
//! Per-operation latencies are kept per window of at least one second and
//! [`MIN_WINDOW_SAMPLES`] samples. Each window yields its own p50 and p99
//! from the exact samples; a run reports the median over its windows. A
//! single fsync stall then moves one window's p99, not the run's.

use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process (monotonic).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Shortest window, in nanoseconds.
const WINDOW_NS: u64 = 1_000_000_000;
/// Fewest samples a window needs, so its p99 has ten samples beyond it.
pub const MIN_WINDOW_SAMPLES: usize = 1_000;

/// Windowed latency recorder of one client.
pub struct LatWindows {
    start_ns: u64,
    samples: Vec<u64>,
    p50: Vec<f64>,
    p90: Vec<f64>,
    p99: Vec<f64>,
    rate: Vec<f64>,
    total: u64,
}

/// A client's latency summary.
#[derive(Clone, Debug, Default)]
pub struct LatSummary {
    /// Median over windows of the window p50, in ns.
    pub p50_ns: f64,
    /// Median over windows of the window p90, in ns.
    pub p90_ns: f64,
    /// Median over windows of the window p99, in ns.
    pub p99_ns: f64,
    /// Samples recorded.
    pub samples: u64,
    /// Windows the medians are taken over.
    pub windows: usize,
    /// Median over windows of the window's operations per second.
    pub ops_s: f64,
    /// Per-window operations per second, p50 and p99 (ns), in run order.
    pub per_window: Vec<(f64, f64, f64)>,
}

impl LatWindows {
    pub(crate) fn new() -> LatWindows {
        LatWindows {
            start_ns: now_ns(),
            samples: Vec::with_capacity(1 << 16),
            p50: Vec::new(),
            p90: Vec::new(),
            p99: Vec::new(),
            rate: Vec::new(),
            total: 0,
        }
    }

    /// Record one operation that took `ns` and ended at `end_ns`.
    pub fn record(&mut self, ns: u64, end_ns: u64) {
        self.samples.push(ns);
        self.total += 1;
        if end_ns.saturating_sub(self.start_ns) >= WINDOW_NS
            && self.samples.len() >= MIN_WINDOW_SAMPLES
        {
            self.close_window(end_ns);
        }
    }

    fn close_window(&mut self, end_ns: u64) {
        let secs = end_ns.saturating_sub(self.start_ns).max(1) as f64 / 1e9;
        self.rate.push(self.samples.len() as f64 / secs);
        self.start_ns = end_ns;
        self.samples.sort_unstable();
        self.p50.push(quantile_sorted(&self.samples, 0.50));
        self.p90.push(quantile_sorted(&self.samples, 0.90));
        self.p99.push(quantile_sorted(&self.samples, 0.99));
        self.samples.clear();
    }

    /// Close the recorder. A last window too small for a p99 is folded into
    /// the summary only when it is the only window.
    pub fn finish(mut self) -> LatSummary {
        if self.samples.len() >= MIN_WINDOW_SAMPLES
            || (self.p50.is_empty() && !self.samples.is_empty())
        {
            self.close_window(now_ns());
        }
        let per_window = (0..self.rate.len())
            .map(|i| (self.rate[i], self.p50[i], self.p99[i]))
            .collect();
        LatSummary {
            p50_ns: median(&mut self.p50),
            p90_ns: median(&mut self.p90),
            p99_ns: median(&mut self.p99),
            samples: self.total,
            windows: self.p50.len(),
            ops_s: median(&mut self.rate),
            per_window,
        }
    }
}

/// Linear-interpolated quantile of sorted samples (0 when empty).
pub fn quantile_sorted(sorted: &[u64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => {
            let h = q * (n - 1) as f64;
            let lo = h.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let lo_v = sorted[lo] as f64;
            lo_v + (h - lo as f64) * (sorted[hi] as f64 - lo_v)
        }
    }
}

/// Median of `values` (mean of the middle two for an even count; 0 when
/// empty). Reorders `values`.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s: Vec<u64> = (1..=101).collect();
        assert_eq!(quantile_sorted(&s, 0.5), 51.0);
        assert!((quantile_sorted(&s, 0.99) - 100.0).abs() < 1e-9);
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn single_short_window_still_summarizes() {
        let mut w = LatWindows::new();
        for i in 0..10 {
            w.record(100 + i, now_ns());
        }
        let s = w.finish();
        assert_eq!(s.samples, 10);
        assert_eq!(s.windows, 1);
        assert!(s.p50_ns > 100.0);
    }
}
