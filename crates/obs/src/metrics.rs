//! Metric primitives: lock-free counters, gauges and log-bucketed
//! histograms. All types are safe to share across threads via `Arc` and
//! update with relaxed atomics — observation never blocks the hot path.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::OnceLock;

/// A monotonically increasing unsigned counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed gauge for instantaneous values (queue depths, in-flight
/// requests).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A gauge at zero.
    pub const fn new() -> Self {
        Gauge {
            value: AtomicI64::new(0),
        }
    }

    /// Replace the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add (possibly negative) `n`.
    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Decrement by one.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of log₂ buckets. With `OFFSET` = 40 the histogram resolves
/// values from 2⁻⁴⁰ up to 2⁴⁰ — microsecond latencies, token counts and
/// unit-interval rewards all fit comfortably.
pub const BUCKETS: usize = 81;

/// Bucket index of value 1.0.
const OFFSET: i32 = 40;

/// A log₂-bucketed histogram of non-negative `f64` observations.
///
/// Each bucket `i` covers `[2^(i-OFFSET-1), 2^(i-OFFSET))`; bucket 0
/// absorbs zero and anything below the resolvable range. Quantiles are
/// estimated as the geometric midpoint of the bucket containing the target
/// rank, so `p99` on log buckets is accurate to within a factor of √2.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    /// Sum of observations, stored as `f64` bits.
    sum_bits: AtomicU64,
    /// Largest observation, stored as `f64` bits.
    max_bits: AtomicU64,
    /// Per-bucket exemplar slots, allocated lazily on the first
    /// [`Histogram::record_with_exemplar`] call so plain histograms pay
    /// nothing for the feature.
    exemplars: OnceLock<Box<[ExemplarSlot]>>,
}

/// One exemplar: the trace id and value of a recent observation in a bucket.
/// The two fields are stored with independent relaxed atomics — exemplars
/// are best-effort debugging breadcrumbs, not an exact record.
#[derive(Debug, Default)]
struct ExemplarSlot {
    trace_id: AtomicU64,
    value_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
            max_bits: AtomicU64::new(0),
            exemplars: OnceLock::new(),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_index(v: f64) -> usize {
        if v <= 0.0 || !v.is_finite() {
            return 0;
        }
        // floor(log2(v)) + 1 shifted by OFFSET: value 1.0 lands in the
        // bucket whose range is [1, 2).
        let exp = v.log2().floor() as i32 + 1 + OFFSET;
        exp.clamp(0, BUCKETS as i32 - 1) as usize
    }

    /// Upper bound of bucket `i` (its exclusive limit).
    pub fn bucket_upper_bound(i: usize) -> f64 {
        ((i as i32 - OFFSET) as f64).exp2()
    }

    /// Record one observation.
    pub fn record(&self, v: f64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // f64 accumulation via compare-exchange on the bit pattern.
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        let mut cur = self.max_bits.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.max_bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Record a duration in microseconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_secs_f64() * 1e6);
    }

    /// Record one observation and remember `trace_id` as the exemplar for
    /// the bucket the observation lands in. A zero trace id records the
    /// observation without touching exemplars.
    pub fn record_with_exemplar(&self, v: f64, trace_id: u64) {
        self.record(v);
        if trace_id == 0 {
            return;
        }
        let slots = self
            .exemplars
            .get_or_init(|| (0..BUCKETS).map(|_| ExemplarSlot::default()).collect());
        let slot = &slots[Self::bucket_index(v)];
        slot.value_bits.store(v.to_bits(), Ordering::Relaxed);
        slot.trace_id.store(trace_id, Ordering::Relaxed);
    }

    /// Record a duration in microseconds with an exemplar trace id.
    pub fn record_duration_with_exemplar(&self, d: std::time::Duration, trace_id: u64) {
        self.record_with_exemplar(d.as_secs_f64() * 1e6, trace_id);
    }

    /// Exemplars by bucket, as `(bucket_upper_bound, trace_id, value)` for
    /// every bucket holding one. Empty when no exemplar was ever recorded.
    pub fn exemplars(&self) -> Vec<(f64, u64, f64)> {
        let Some(slots) = self.exemplars.get() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (i, slot) in slots.iter().enumerate() {
            let id = slot.trace_id.load(Ordering::Relaxed);
            if id != 0 {
                out.push((
                    Self::bucket_upper_bound(i),
                    id,
                    f64::from_bits(slot.value_bits.load(Ordering::Relaxed)),
                ));
            }
        }
        out
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Largest observation seen.
    pub fn max(&self) -> f64 {
        f64::from_bits(self.max_bits.load(Ordering::Relaxed))
    }

    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Estimated quantile `q` in `[0, 1]`, or 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for i in 0..BUCKETS {
            seen += self.buckets[i].load(Ordering::Relaxed);
            if seen >= rank {
                if i == 0 {
                    return 0.0;
                }
                let hi = Self::bucket_upper_bound(i);
                // Geometric midpoint of [hi/2, hi).
                return hi / std::f64::consts::SQRT_2;
            }
        }
        self.max()
    }

    /// Snapshot of the per-bucket counts (cumulative from below), as
    /// `(upper_bound, cumulative_count)` pairs for non-empty prefixes.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for i in 0..BUCKETS {
            let n = self.buckets[i].load(Ordering::Relaxed);
            if n > 0 {
                cum += n;
                out.push((Self::bucket_upper_bound(i), cum));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(-7);
        assert_eq!(g.get(), -7);
    }

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let h = Histogram::new();
        for v in 1..=1000 {
            h.record(v as f64);
        }
        assert_eq!(h.count(), 1000);
        assert!((h.sum() - 500_500.0).abs() < 1e-6);
        let p50 = h.quantile(0.5);
        // Log buckets: the estimate must be within one bucket (×2) of truth.
        assert!((250.0..1000.0).contains(&p50), "p50 estimate {p50}");
        let p99 = h.quantile(0.99);
        assert!((500.0..2000.0).contains(&p99), "p99 estimate {p99}");
        assert!(h.quantile(1.0) >= p99);
        assert_eq!(h.max(), 1000.0);
    }

    #[test]
    fn histogram_handles_edge_values() {
        let h = Histogram::new();
        h.record(0.0);
        h.record(-3.0);
        h.record(f64::INFINITY);
        h.record(1e-300);
        h.record(1e300);
        assert_eq!(h.count(), 5);
        assert_eq!(h.quantile(0.0), 0.0);
    }

    #[test]
    fn sub_unit_values_resolve() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(0.25);
        }
        let p50 = h.quantile(0.5);
        assert!((0.125..0.5).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn exemplars_track_per_bucket_trace_ids() {
        let h = Histogram::new();
        h.record(5.0);
        assert!(h.exemplars().is_empty(), "no exemplar without trace id");
        h.record_with_exemplar(5.0, 0);
        assert!(h.exemplars().is_empty(), "zero trace id records nothing");
        h.record_with_exemplar(5.0, 0xabc);
        h.record_with_exemplar(100.0, 0xdef);
        h.record_with_exemplar(6.0, 0x123); // same bucket as 5.0: replaces
        let ex = h.exemplars();
        assert_eq!(ex.len(), 2);
        let small = ex.iter().find(|(b, _, _)| *b == 8.0).unwrap();
        assert_eq!(small.1, 0x123);
        assert_eq!(small.2, 6.0);
        let big = ex.iter().find(|(b, _, _)| *b == 128.0).unwrap();
        assert_eq!(big.1, 0xdef);
        assert_eq!(h.count(), 5, "exemplar recording still counts");
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for v in 1..=1000 {
                        h.record(v as f64);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 8000);
        assert!((h.sum() - 8.0 * 500_500.0).abs() < 1e-6);
    }
}
