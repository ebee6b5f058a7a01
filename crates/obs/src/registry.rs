//! Thread-safe metric registry: counters, gauges and fixed-bucket
//! histograms.
//!
//! All recorded state is **integer atomics** updated with relaxed
//! `fetch_add`/`fetch_max` — associative and commutative operations, so
//! totals are independent of the order in which threads record
//! (merge-order independence; pinned by `crates/obs/tests/concurrency.rs`).
//! Gauges hold `f64` bit patterns but are last-write-wins and only ever set
//! from a coordinating thread in this workspace.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Number of histogram buckets. Bucket `i` holds values whose bit length is
/// `i` (i.e. `v` lands in bucket `64 - v.leading_zeros()`), clamped to the
/// last bucket.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Fixed log2-bucket histogram over `u64` values (typically nanoseconds).
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    fn new() -> Self {
        Self {
            buckets: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// The bucket index for `value`: its bit length, clamped to the last
    /// bucket (`0 → 0`, `1 → 1`, `2..=3 → 2`, …).
    pub fn bucket_index(value: u64) -> usize {
        ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram's state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((i, n))
                })
                .collect(),
        }
    }
}

/// Immutable copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observation count.
    pub count: u64,
    /// Sum of observed values (wraps on overflow).
    pub sum: u64,
    /// Maximum observed value (0 when empty).
    pub max: u64,
    /// Non-empty buckets as `(bucket index, count)`, ascending by index.
    pub buckets: Vec<(usize, u64)>,
}

/// A metric's current value in a [`Registry::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic counter total.
    Counter(u64),
    /// Last-set gauge value.
    Gauge(f64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

fn kind_rank(v: &MetricValue) -> u8 {
    match v {
        MetricValue::Counter(_) => 0,
        MetricValue::Gauge(_) => 1,
        MetricValue::Histogram(_) => 2,
    }
}

/// Thread-safe registry of named metrics.
///
/// The name→cell maps are mutex-guarded (creation path only); hot-path
/// updates go through `Arc`-shared atomics, so recording one metric never
/// blocks recording another, and totals are merge-order independent.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter cell named `name`, created at zero on first use. Hold
    /// the returned `Arc` to record without re-locking the name map.
    pub fn counter(&self, name: &str) -> Arc<AtomicU64> {
        lock(&self.counters)
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Adds `n` to counter `name`.
    pub fn counter_add(&self, name: &str, n: u64) {
        self.counter(name).fetch_add(n, Ordering::Relaxed);
    }

    /// Sets gauge `name` to `value` (last write wins).
    pub fn gauge_set(&self, name: &str, value: f64) {
        lock(&self.gauges)
            .entry(name.to_string())
            .or_default()
            .store(value.to_bits(), Ordering::Relaxed);
    }

    /// The histogram named `name`, created empty on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        lock(&self.histograms)
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new()))
            .clone()
    }

    /// Records `value` into histogram `name`.
    pub fn record(&self, name: &str, value: u64) {
        self.histogram(name).record(value);
    }

    /// All metrics, sorted by name (then counter < gauge < histogram on the
    /// off-chance of a cross-kind name collision), so the snapshot order is
    /// deterministic.
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        let mut out: Vec<(String, MetricValue)> = Vec::new();
        for (name, c) in lock(&self.counters).iter() {
            out.push((
                name.clone(),
                MetricValue::Counter(c.load(Ordering::Relaxed)),
            ));
        }
        for (name, g) in lock(&self.gauges).iter() {
            let bits = g.load(Ordering::Relaxed);
            out.push((name.clone(), MetricValue::Gauge(f64::from_bits(bits))));
        }
        for (name, h) in lock(&self.histograms).iter() {
            out.push((name.clone(), MetricValue::Histogram(h.snapshot())));
        }
        out.sort_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| kind_rank(&a.1).cmp(&kind_rank(&b.1)))
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_bit_length() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1 << 40), 41);
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_records_count_sum_max() {
        let h = Histogram::new();
        for v in [3u64, 5, 9] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 17);
        assert_eq!(s.max, 9);
        // 3 → bucket 2; 5 → bucket 3; 9 → bucket 4.
        assert_eq!(s.buckets, vec![(2, 1), (3, 1), (4, 1)]);
    }

    /// `sum` wraps on overflow, as [`HistogramSnapshot::sum`] documents,
    /// while `count` and `max` stay exact.
    #[test]
    fn histogram_sum_wraps_past_u64_max() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(1);
        let s = h.snapshot();
        assert_eq!((s.count, s.sum, s.max), (2, 0, u64::MAX));
    }

    #[test]
    fn counters_and_gauges_roundtrip() {
        let r = Registry::new();
        r.counter_add("a/x", 2);
        r.counter_add("a/x", 3);
        r.gauge_set("a/g", 1.5);
        r.gauge_set("a/g", -2.5);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0], ("a/g".to_string(), MetricValue::Gauge(-2.5)));
        assert_eq!(snap[1], ("a/x".to_string(), MetricValue::Counter(5)));
    }

    #[test]
    fn snapshot_is_name_sorted() {
        let r = Registry::new();
        r.record("z/h", 1);
        r.counter_add("a/c", 1);
        r.gauge_set("m/g", 0.0);
        let names: Vec<String> = r.snapshot().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a/c", "m/g", "z/h"]);
    }
}
