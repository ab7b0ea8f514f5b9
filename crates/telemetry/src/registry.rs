//! Hierarchical metric registry: counters, log2 histograms, and
//! periodic windowed snapshots.
//!
//! Names are dot-separated paths (`events.page_fault`, `dram.read_latency`,
//! `ipc.core0`). Registration returns a dense id so the hot path bumps a
//! `Vec` slot instead of hashing a string.

use moca_common::Cycle;
use serde::Serialize;

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(pub(crate) usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(pub(crate) usize);

/// Number of log2 buckets: bucket 0 holds the value 0, bucket `i >= 1`
/// holds values in `[2^(i-1), 2^i - 1]`, up to the full u64 range.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Fixed-bucket log2 histogram of `u64` samples.
#[derive(Debug, Clone, Serialize)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index a value falls into.
    pub fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (64 - v.leading_zeros()) as usize
        }
    }

    /// Inclusive value range `(lo, hi)` covered by bucket `i`.
    pub fn bucket_range(i: usize) -> (u64, u64) {
        assert!(i < HISTOGRAM_BUCKETS);
        if i == 0 {
            (0, 0)
        } else if i == 64 {
            (1 << 63, u64::MAX)
        } else {
            (1 << (i - 1), (1 << i) - 1)
        }
    }

    /// Record one sample.
    pub fn observe(&mut self, v: u64) {
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean sample, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Non-empty buckets as `(range_lo, range_hi, count)`, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = Self::bucket_range(i);
                (lo, hi, c)
            })
    }

    /// Upper bound of the bucket containing the `q`-quantile (0.0..=1.0) of
    /// recorded samples, or `None` if empty. Bucketed, so an approximation.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_range(i).1);
            }
        }
        Some(u64::MAX)
    }
}

/// One periodic sampling window: derived rates and occupancies captured over
/// `[start, end)` simulated cycles.
#[derive(Debug, Clone, Serialize)]
pub struct WindowSnapshot {
    /// First cycle of the window.
    pub start: Cycle,
    /// One-past-last cycle of the window.
    pub end: Cycle,
    /// Named samples (e.g. `ipc.core0`, `readq.ch1`, `free_frames.HBM`).
    pub samples: Vec<(String, f64)>,
}

/// Registry of named counters and histograms plus the sequence of
/// periodic window snapshots.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Vec<(String, u64)>,
    histograms: Vec<(String, Histogram)>,
    windows: Vec<WindowSnapshot>,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Register (or find) a counter by name.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|(n, _)| n == name) {
            return CounterId(i);
        }
        self.counters.push((name.to_string(), 0));
        CounterId(self.counters.len() - 1)
    }

    /// Register (or find) a histogram by name.
    pub fn histogram(&mut self, name: &str) -> HistogramId {
        if let Some(i) = self.histograms.iter().position(|(n, _)| n == name) {
            return HistogramId(i);
        }
        self.histograms.push((name.to_string(), Histogram::new()));
        HistogramId(self.histograms.len() - 1)
    }

    /// Increment a counter by 1.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0].1 += 1;
    }

    /// Add `delta` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, delta: u64) {
        self.counters[id.0].1 += delta;
    }

    /// Record one histogram sample.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, value: u64) {
        self.histograms[id.0].1.observe(value);
    }

    /// Current value of a counter.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0].1
    }

    /// Current value of a counter looked up by name.
    pub fn counter_value_by_name(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Histogram looked up by name.
    pub fn histogram_by_name(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// All counters as `(name, value)`, registration order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Append a completed sampling window.
    pub fn push_window(&mut self, w: WindowSnapshot) {
        self.windows.push(w);
    }

    /// All sampling windows, oldest first.
    pub fn windows(&self) -> &[WindowSnapshot] {
        &self.windows
    }

    /// Human-readable multi-line summary of counters, histograms, and
    /// window count, for the end-of-run report.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        out.push_str("telemetry counters:\n");
        for (name, v) in self.counters.iter() {
            out.push_str(&format!("  {name:<32} {v}\n"));
        }
        for (name, h) in self.histograms.iter() {
            match (h.mean(), h.min(), h.max()) {
                (Some(mean), Some(min), Some(max)) => {
                    out.push_str(&format!(
                        "  {name:<32} n={} mean={mean:.1} min={min} p50<={} p99<={} max={max}\n",
                        h.count(),
                        h.quantile(0.50).unwrap(),
                        h.quantile(0.99).unwrap(),
                    ));
                }
                _ => out.push_str(&format!("  {name:<32} (no samples)\n")),
            }
        }
        if !self.windows.is_empty() {
            out.push_str(&format!(
                "  metric windows: {} ({} samples each)\n",
                self.windows.len(),
                self.windows.first().map_or(0, |w| w.samples.len()),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log2_with_zero_bucket() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(7), 3);
        assert_eq!(Histogram::bucket_index(8), 4);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        // Every bucket's range round-trips through bucket_index.
        for i in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = Histogram::bucket_range(i);
            assert_eq!(Histogram::bucket_index(lo), i);
            assert_eq!(Histogram::bucket_index(hi), i);
        }
    }

    #[test]
    fn histogram_stats_and_quantiles() {
        let mut h = Histogram::new();
        assert!(h.mean().is_none());
        assert!(h.quantile(0.5).is_none());
        for v in [0u64, 1, 2, 3, 100, 100, 100, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 1306);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        // p50 of 8 samples is rank 4 → value 3 → bucket (2,3).
        assert_eq!(h.quantile(0.5), Some(3));
        // p99 → rank 8 → value 1000 → bucket (512,1023).
        assert_eq!(h.quantile(0.99), Some(1023));
        let nz: Vec<_> = h.nonzero_buckets().collect();
        assert_eq!(nz.first().unwrap(), &(0, 0, 1));
        assert!(nz
            .iter()
            .any(|&(lo, hi, c)| lo == 64 && hi == 127 && c == 3));
    }

    #[test]
    fn registry_dedups_names_and_tracks_values() {
        let mut r = Registry::new();
        let a = r.counter("events.page_fault");
        let b = r.counter("events.page_fault");
        assert_eq!(a, b);
        r.inc(a);
        r.add(a, 4);
        assert_eq!(r.counter_value(a), 5);
        assert_eq!(r.counter_value_by_name("events.page_fault"), Some(5));
        assert_eq!(r.counter_value_by_name("missing"), None);

        let h = r.histogram("dram.read_latency");
        r.observe(h, 42);
        assert_eq!(r.histogram_by_name("dram.read_latency").unwrap().count(), 1);

        r.push_window(WindowSnapshot {
            start: 0,
            end: 1000,
            samples: vec![("ipc.core0".into(), 1.5)],
        });
        assert_eq!(r.windows().len(), 1);
        let summary = r.render_summary();
        assert!(summary.contains("events.page_fault"));
        assert!(summary.contains("dram.read_latency"));
    }
}
