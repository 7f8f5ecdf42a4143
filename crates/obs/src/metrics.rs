//! A metrics registry: named counters and fixed-bucket histograms.
//!
//! The registry is deliberately boring: integer counters and
//! power-of-two-bucket histograms behind one mutex, with a
//! deterministic text render — names sort lexicographically and no
//! wall-clock is consulted anywhere on the render path, so two runs
//! that did the same work render the same report. A run's frontend
//! owns the registry and hands it to the runner
//! ([`MetricsRegistry::counter`] is a single lock + add), then exports
//! it at the end of the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

use crate::jsonl;

/// Number of buckets in a [`Histogram`]: bucket `i` counts values in
/// `[2^(i-1), 2^i)` (bucket 0 counts zero), with the last bucket
/// absorbing everything larger.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A fixed-bucket histogram of non-negative integer samples
/// (latencies in nanoseconds, sizes in bytes…).
///
/// Buckets are powers of two, so the layout never depends on the data
/// and merging two histograms is element-wise addition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            let idx = 64 - value.leading_zeros() as usize;
            idx.min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Records one sample.
    pub fn observe(&mut self, value: u64) {
        self.buckets[Histogram::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An upper bound on the `q`-quantile (0.0..=1.0): the upper edge
    /// of the bucket containing that rank. Coarse by design — the
    /// answer depends only on bucket counts, never on sample order.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if i == 0 { 0 } else { 1u64 << i };
            }
        }
        self.max
    }

    /// Element-wise merge of `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(upper_bound, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(i, n)| (if i == 0 { 0 } else { 1u64 << i }, *n))
            .collect()
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

/// A named collection of counters and histograms.
///
/// Construct one per run and pass it where it is recorded into.
/// Dotted names (`"vm.instructions"`,
/// `"campaign.cell_nanos"`) keep the render grouped.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `delta` to counter `name`, creating it at zero first.
    pub fn counter(&self, name: &str, delta: u64) {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        *inner.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Sets counter `name` to `value`, replacing what it held: a
    /// *level* (how many of something exist now) rather than a count
    /// of events. It renders and exports exactly like a counter.
    pub fn level(&self, name: &str, value: u64) {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        inner.counters.insert(name.to_string(), value);
    }

    /// Records `value` into histogram `name`, creating it first.
    pub fn observe(&self, name: &str, value: u64) {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        inner
            .histograms
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.inner
            .lock()
            .expect("metrics registry poisoned")
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// A copy of histogram `name`, if it exists.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.inner
            .lock()
            .expect("metrics registry poisoned")
            .histograms
            .get(name)
            .cloned()
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.inner
            .lock()
            .expect("metrics registry poisoned")
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Renders the registry as deterministic, diff-friendly text:
    /// counters first, then histogram summaries, both sorted by name.
    /// No timestamps, no wall-clock reads.
    pub fn render(&self) -> String {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        let mut out = String::new();
        if !inner.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, value) in &inner.counters {
                let _ = writeln!(out, "  {name:<40} {value}");
            }
        }
        if !inner.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (name, h) in &inner.histograms {
                let _ = writeln!(
                    out,
                    "  {name:<40} n={} sum={} max={} p50<={} p90<={} p99<={}",
                    h.count(),
                    h.sum(),
                    h.max(),
                    h.quantile_upper_bound(0.50),
                    h.quantile_upper_bound(0.90),
                    h.quantile_upper_bound(0.99),
                );
            }
        }
        out
    }

    /// Exports every counter and histogram bucket as schema-v1 metric
    /// lines (see [`crate::jsonl`]), sorted by name.
    pub fn export_jsonl(&self) -> Vec<String> {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        let mut lines = Vec::new();
        for (name, value) in &inner.counters {
            lines.push(jsonl::metric_line(name, *value));
        }
        for (name, h) in &inner.histograms {
            lines.push(jsonl::metric_line(&format!("{name}.count"), h.count()));
            lines.push(jsonl::metric_line(&format!("{name}.sum"), h.sum()));
            lines.push(jsonl::metric_line(&format!("{name}.max"), h.max()));
            for (bound, n) in h.nonzero_buckets() {
                lines.push(jsonl::metric_line(&format!("{name}.le_{bound}"), n));
            }
        }
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 1000, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), u64::MAX);
        // Zero lands in bucket 0; 1 in (0,1]; 1000 in (512,1024].
        let buckets = h.nonzero_buckets();
        assert!(buckets.contains(&(0, 1)));
        assert!(buckets.contains(&(2, 1)));
        assert!(buckets.contains(&(1024, 1)));
        // The max-value sample saturates into the last bucket.
        assert!(buckets
            .iter()
            .any(|(b, _)| *b == 1u64 << (HISTOGRAM_BUCKETS - 1)));
        assert!(h.quantile_upper_bound(0.5) <= 4);
    }

    #[test]
    fn histogram_merge_is_elementwise() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.observe(5);
        b.observe(5);
        b.observe(700);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 710);
        assert_eq!(a.max(), 700);
    }

    #[test]
    fn registry_renders_deterministically() {
        let reg = MetricsRegistry::new();
        reg.counter("z.last", 1);
        reg.counter("a.first", 2);
        reg.counter("a.first", 3);
        reg.observe("lat.nanos", 100);
        reg.observe("lat.nanos", 200);
        assert_eq!(reg.counter_value("a.first"), 5);
        let r1 = reg.render();
        let r2 = reg.render();
        assert_eq!(r1, r2);
        // Sorted: a.first before z.last.
        let a = r1.find("a.first").unwrap();
        let z = r1.find("z.last").unwrap();
        assert!(a < z);
        assert!(r1.contains("n=2"));
    }

    #[test]
    fn a_level_overwrites_and_exports_like_a_counter() {
        let reg = MetricsRegistry::new();
        reg.level("pool.warm", 7);
        reg.level("pool.warm", 3);
        assert_eq!(reg.counter_value("pool.warm"), 3);
        let counted = MetricsRegistry::new();
        counted.counter("pool.warm", 3);
        assert_eq!(reg.render(), counted.render());
        assert_eq!(reg.export_jsonl(), counted.export_jsonl());
    }

    #[test]
    fn export_lines_parse_back() {
        let reg = MetricsRegistry::new();
        reg.counter("vm.machines", 4);
        reg.observe("cell.nanos", 12345);
        for line in reg.export_jsonl() {
            match crate::jsonl::parse_line(&line) {
                Ok(crate::jsonl::Record::Metric { .. }) => {}
                other => panic!("expected metric record, got {other:?}"),
            }
        }
    }
}
