//! Bounded in-memory store of completed traces with **tail-based
//! sampling**: the retention decision is made after the request finishes,
//! when its outcome and duration are known.
//!
//! Policy, in priority order:
//! 1. **Errors/degraded** — any trace whose worst span status is not `Ok`
//!    (covers failures, deadline-exceeded and degraded answers) is always
//!    retained.
//! 2. **Slow tail** — traces at or above `slow_threshold_ms`, or above the
//!    store's own running p99 duration estimate (once enough samples
//!    accumulated), are retained.
//! 3. **Probabilistic rest** — everything else is kept with probability
//!    `sample_rate`, decided deterministically from the trace id so
//!    requests that join one client-supplied id make the same call.
//!
//! The buffer is a ring of `capacity` traces. Eviction prefers the oldest
//! probabilistically-sampled entry, then the oldest slow entry, and only
//! evicts error traces when nothing else is left — so under a mixed
//! workload the error tail survives as long as capacity allows.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};

use crate::metrics::Histogram;
use crate::registry::Registry;
use crate::trace::{splitmix64, SpanRecord, SpanStatus, TraceData};

/// Tuning knobs for a [`TraceStore`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceStoreConfig {
    /// Ring-buffer capacity in traces (`trace_buffer_len`). Zero disables
    /// retention entirely.
    pub capacity: usize,
    /// Probability in `[0, 1]` of keeping a fast, healthy trace
    /// (`trace_sample_rate`).
    pub sample_rate: f64,
    /// Traces at least this slow are always retained
    /// (`trace_slow_threshold_ms`).
    pub slow_threshold_ms: u64,
}

impl Default for TraceStoreConfig {
    fn default() -> Self {
        TraceStoreConfig {
            capacity: 256,
            sample_rate: 0.1,
            slow_threshold_ms: 500,
        }
    }
}

/// Why a trace was retained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetainClass {
    /// Worst span status was error or degraded.
    Error,
    /// Duration hit the slow threshold or the running p99 tail.
    Slow,
    /// Won the probabilistic sample.
    Sampled,
}

impl RetainClass {
    /// Stable lowercase name for labels and serialization.
    pub fn as_str(self) -> &'static str {
        match self {
            RetainClass::Error => "error",
            RetainClass::Slow => "slow",
            RetainClass::Sampled => "sampled",
        }
    }
}

/// A retained trace plus the index fields served by `GET /debug/traces`.
#[derive(Clone, Debug)]
pub struct StoredTrace {
    /// The trace id.
    pub trace_id: u64,
    /// Root span route attribute (or root span name when absent).
    pub route: String,
    /// Worst status across spans.
    pub status: SpanStatus,
    /// End-to-end duration in microseconds.
    pub duration_us: u64,
    /// Winning model, when the trace carries a `winner` attribute.
    pub winner: Option<String>,
    /// Why this trace was retained.
    pub class: RetainClass,
    /// The full span tree.
    pub spans: Vec<SpanRecord>,
}

/// Counters describing a store's sampling behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceStoreStats {
    /// Traces offered to the store.
    pub offered: u64,
    /// Traces retained (any class).
    pub retained: u64,
    /// Traces dropped by the probabilistic sampler.
    pub sampled_out: u64,
    /// Retained traces later evicted by the ring buffer.
    pub evicted: u64,
    /// Traces currently buffered.
    pub buffered: usize,
}

/// Minimum offered traces before the internal p99 estimate participates in
/// the slow-tail decision (avoids retaining everything during warm-up).
const P99_MIN_SAMPLES: u64 = 64;

/// A bounded, tail-sampled buffer of completed traces.
pub struct TraceStore {
    config: RwLock<TraceStoreConfig>,
    traces: Mutex<VecDeque<StoredTrace>>,
    /// Durations of every offered trace — the running p99 tail estimate.
    durations: Histogram,
    /// Cached slow-tail threshold (f64 bits): the p99 bucket's upper bound,
    /// refreshed every 16 offers. The tail estimate moves slowly; walking
    /// histogram buckets on every query would tax the per-query hot path.
    p99_threshold: AtomicU64,
    counters: Mutex<TraceStoreStats>,
    /// Mirror counters into the global registry (for `/metrics` + `/stats`).
    publish_metrics: bool,
}

static GLOBAL: OnceLock<TraceStore> = OnceLock::new();

impl Default for TraceStore {
    fn default() -> Self {
        TraceStore::new(TraceStoreConfig::default())
    }
}

impl TraceStore {
    /// A store with the given knobs (does not publish global metrics; use
    /// [`TraceStore::global`] for the process-wide store that does).
    pub fn new(config: TraceStoreConfig) -> TraceStore {
        TraceStore {
            config: RwLock::new(config),
            traces: Mutex::new(VecDeque::new()),
            durations: Histogram::new(),
            p99_threshold: AtomicU64::new(0),
            counters: Mutex::new(TraceStoreStats::default()),
            publish_metrics: false,
        }
    }

    /// The process-wide store backing `/debug/traces`. Publishes
    /// `traces_offered_total`, `traces_retained_total{class}`,
    /// `traces_sampled_out_total`, `traces_evicted_total` and the
    /// `traces_buffered` gauge to [`Registry::global`].
    pub fn global() -> &'static TraceStore {
        GLOBAL.get_or_init(|| TraceStore {
            publish_metrics: true,
            ..TraceStore::default()
        })
    }

    /// Replace the knobs at runtime (buffered traces are kept; the buffer
    /// shrinks lazily on the next offer).
    pub fn configure(&self, config: TraceStoreConfig) {
        *self.config.write().expect("trace store lock") = config;
    }

    /// Current knobs.
    pub fn config(&self) -> TraceStoreConfig {
        *self.config.read().expect("trace store lock")
    }

    /// Offer a completed trace; returns `true` when it was retained.
    pub fn offer(&self, trace: TraceData) -> bool {
        let config = self.config();
        let duration_us = trace.duration_us();
        let status = trace.worst_status();

        let class = if status != SpanStatus::Ok {
            Some(RetainClass::Error)
        } else if duration_us >= config.slow_threshold_ms.saturating_mul(1000)
            || (self.durations.count() >= P99_MIN_SAMPLES
                && duration_us as f64 >= self.p99_tail_threshold())
        {
            Some(RetainClass::Slow)
        } else if sample_fraction(trace.trace_id) < config.sample_rate {
            Some(RetainClass::Sampled)
        } else {
            None
        };
        // Record after deciding, so the p99 tail is judged against prior
        // traffic rather than a distribution the new sample already shifted.
        self.durations.record(duration_us as f64);

        let mut stats = self.counters.lock().expect("trace store lock");
        stats.offered += 1;
        let Some(class) = class.filter(|_| config.capacity > 0) else {
            stats.sampled_out += 1;
            let buffered = stats.buffered;
            drop(stats);
            self.publish(|s| {
                s.counter("traces_offered_total").metric.inc();
                s.counter("traces_sampled_out_total").metric.inc();
                s.gauge("traces_buffered").metric.set(buffered as i64);
            });
            return false;
        };
        stats.retained += 1;

        let route = trace
            .root()
            .map(|r| r.attr("route").unwrap_or(r.name).to_owned())
            .unwrap_or_else(|| "unknown".to_owned());
        let winner = trace.attr("winner").map(str::to_owned);
        let stored = StoredTrace {
            trace_id: trace.trace_id,
            route,
            status,
            duration_us,
            winner,
            class,
            spans: trace.spans,
        };

        let mut traces = self.traces.lock().expect("trace store lock");
        let mut evicted = 0u64;
        while traces.len() >= config.capacity {
            let victim = pick_victim(&traces);
            traces.remove(victim);
            evicted += 1;
        }
        traces.push_back(stored);
        stats.evicted += evicted;
        stats.buffered = traces.len();
        let buffered = traces.len();
        drop(traces);
        drop(stats);

        self.publish(move |s| {
            s.counter("traces_offered_total").metric.inc();
            s.counter_with("traces_retained_total", &[("class", class.as_str())])
                .metric
                .inc();
            if evicted > 0 {
                s.counter("traces_evicted_total").metric.add(evicted);
            }
            s.gauge("traces_buffered").metric.set(buffered as i64);
        });
        true
    }

    /// Look up a retained trace by id. When an id appears more than once
    /// (e.g. a client reused one `X-LLMMS-Trace-Id` across requests), the
    /// newest entry wins.
    pub fn get(&self, trace_id: u64) -> Option<StoredTrace> {
        self.traces
            .lock()
            .expect("trace store lock")
            .iter()
            .rev()
            .find(|t| t.trace_id == trace_id)
            .cloned()
    }

    /// Index of retained traces, newest first, without span bodies.
    pub fn index(&self) -> Vec<TraceSummary> {
        self.traces
            .lock()
            .expect("trace store lock")
            .iter()
            .rev()
            .map(|t| TraceSummary {
                trace_id: t.trace_id,
                route: t.route.clone(),
                status: t.status,
                duration_us: t.duration_us,
                winner: t.winner.clone(),
                class: t.class,
                spans: t.spans.len(),
            })
            .collect()
    }

    /// Number of buffered traces.
    pub fn len(&self) -> usize {
        self.traces.lock().expect("trace store lock").len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sampling counters.
    pub fn stats(&self) -> TraceStoreStats {
        let mut stats = *self.counters.lock().expect("trace store lock");
        stats.buffered = self.len();
        stats
    }

    /// Drop every buffered trace (tests and debug tooling).
    pub fn clear(&self) {
        self.traces.lock().expect("trace store lock").clear();
        self.counters.lock().expect("trace store lock").buffered = 0;
    }

    /// The running slow-tail cutoff: the p99 quantile estimate scaled by
    /// √2. The quantile is the geometric midpoint of the p99 bucket, so the
    /// scaling compares against the bucket's upper bound — only traces
    /// strictly beyond the p99 bucket count as tail. Recomputed at most
    /// every 16 offers (and on first use); decisions in between use the
    /// cached value, judged against prior traffic either way.
    fn p99_tail_threshold(&self) -> f64 {
        let cached = self.p99_threshold.load(Ordering::Relaxed);
        if cached != 0 && self.durations.count() % 16 != 0 {
            return f64::from_bits(cached);
        }
        let fresh = self.durations.quantile(0.99) * std::f64::consts::SQRT_2;
        self.p99_threshold
            .store(fresh.max(f64::MIN_POSITIVE).to_bits(), Ordering::Relaxed);
        fresh
    }

    fn publish(&self, f: impl FnOnce(&Registry)) {
        if self.publish_metrics {
            f(Registry::global());
        }
    }
}

/// One row of the `GET /debug/traces` index.
#[derive(Clone, Debug)]
pub struct TraceSummary {
    /// The trace id.
    pub trace_id: u64,
    /// Root route.
    pub route: String,
    /// Worst status.
    pub status: SpanStatus,
    /// End-to-end duration in microseconds.
    pub duration_us: u64,
    /// Winning model, when known.
    pub winner: Option<String>,
    /// Retention class.
    pub class: RetainClass,
    /// Number of spans in the tree.
    pub spans: usize,
}

/// Deterministic uniform fraction in `[0, 1)` derived from the trace id.
fn sample_fraction(trace_id: u64) -> f64 {
    (splitmix64(trace_id) >> 11) as f64 / (1u64 << 53) as f64
}

/// Index of the entry to evict: oldest sampled, else oldest slow, else the
/// oldest of all (errors go last).
fn pick_victim(traces: &VecDeque<StoredTrace>) -> usize {
    for class in [RetainClass::Sampled, RetainClass::Slow] {
        if let Some(i) = traces.iter().position(|t| t.class == class) {
            return i;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceId, Tracer};

    fn trace_with(id: u64, status: SpanStatus, duration_us: u64) -> TraceData {
        let mut attrs = crate::trace::AttrList::new();
        attrs.push("route", "/api/query".into());
        TraceData {
            trace_id: id,
            spans: vec![SpanRecord {
                id: 1,
                parent: 0,
                name: "request",
                start_us: 0,
                end_us: duration_us,
                status,
                attrs,
            }],
        }
    }

    #[test]
    fn errors_always_retained_in_mixed_workload() {
        // sample_rate 0: nothing survives unless the tail policy saves it.
        let store = TraceStore::new(TraceStoreConfig {
            capacity: 64,
            sample_rate: 0.0,
            slow_threshold_ms: u64::MAX / 2000,
        });
        let mut error_ids = Vec::new();
        for i in 0..200u64 {
            let status = match i % 10 {
                0 => SpanStatus::Error,
                5 => SpanStatus::Degraded,
                _ => SpanStatus::Ok,
            };
            if status != SpanStatus::Ok {
                error_ids.push(i + 1);
            }
            store.offer(trace_with(i + 1, status, 1_000));
        }
        // 40 error/degraded traces offered; every single one retained.
        assert_eq!(error_ids.len(), 40);
        for id in &error_ids {
            assert!(store.get(*id).is_some(), "error trace {id} was dropped");
        }
        assert_eq!(store.len(), 40);
        let stats = store.stats();
        assert_eq!(stats.offered, 200);
        assert_eq!(stats.retained, 40);
        assert_eq!(stats.sampled_out, 160);
    }

    #[test]
    fn slow_threshold_retains_the_tail() {
        let store = TraceStore::new(TraceStoreConfig {
            capacity: 16,
            sample_rate: 0.0,
            slow_threshold_ms: 100,
        });
        assert!(!store.offer(trace_with(1, SpanStatus::Ok, 50_000)));
        assert!(store.offer(trace_with(2, SpanStatus::Ok, 150_000)));
        assert_eq!(store.get(2).unwrap().class, RetainClass::Slow);
    }

    #[test]
    fn p99_tail_kicks_in_after_warmup() {
        let store = TraceStore::new(TraceStoreConfig {
            capacity: 256,
            sample_rate: 0.0,
            slow_threshold_ms: u64::MAX / 2000,
        });
        // Warm up with fast traces, then offer one 100x slower.
        for i in 0..P99_MIN_SAMPLES {
            store.offer(trace_with(i + 1, SpanStatus::Ok, 1_000));
        }
        assert!(store.offer(trace_with(999, SpanStatus::Ok, 100_000)));
        assert_eq!(store.get(999).unwrap().class, RetainClass::Slow);
    }

    #[test]
    fn probabilistic_sampling_is_deterministic_and_roughly_calibrated() {
        let config = TraceStoreConfig {
            capacity: 4096,
            sample_rate: 0.2,
            slow_threshold_ms: u64::MAX / 2000,
        };
        let store = TraceStore::new(config);
        let mut kept = Vec::new();
        for i in 0..1000u64 {
            if store.offer(trace_with(i + 1, SpanStatus::Ok, 100)) {
                kept.push(i + 1);
            }
        }
        assert!(
            (100..320).contains(&kept.len()),
            "20% sample kept {}",
            kept.len()
        );
        // Same ids, fresh store: identical decisions.
        let store2 = TraceStore::new(config);
        let mut kept2 = Vec::new();
        for i in 0..1000u64 {
            if store2.offer(trace_with(i + 1, SpanStatus::Ok, 100)) {
                kept2.push(i + 1);
            }
        }
        assert_eq!(kept, kept2);
    }

    #[test]
    fn eviction_prefers_sampled_then_slow_over_errors() {
        let store = TraceStore::new(TraceStoreConfig {
            capacity: 3,
            sample_rate: 1.0,
            slow_threshold_ms: 100,
        });
        store.offer(trace_with(1, SpanStatus::Ok, 10)); // sampled
        store.offer(trace_with(2, SpanStatus::Ok, 200_000)); // slow
        store.offer(trace_with(3, SpanStatus::Error, 10)); // error
        store.offer(trace_with(4, SpanStatus::Error, 10)); // evicts 1
        assert!(store.get(1).is_none(), "sampled evicted first");
        assert!(store.get(2).is_some());
        store.offer(trace_with(5, SpanStatus::Error, 10)); // evicts 2
        assert!(store.get(2).is_none(), "slow evicted second");
        for id in [3, 4, 5] {
            assert!(store.get(id).is_some(), "error trace {id} survived");
        }
        // Only errors left: the oldest error finally goes.
        store.offer(trace_with(6, SpanStatus::Error, 10));
        assert!(store.get(3).is_none());
        assert_eq!(store.stats().evicted, 3);
    }

    #[test]
    fn zero_capacity_disables_retention() {
        let store = TraceStore::new(TraceStoreConfig {
            capacity: 0,
            sample_rate: 1.0,
            slow_threshold_ms: 0,
        });
        assert!(!store.offer(trace_with(1, SpanStatus::Error, 10)));
        assert!(store.is_empty());
    }

    #[test]
    fn index_is_newest_first_with_winner_and_route() {
        let store = TraceStore::new(TraceStoreConfig {
            capacity: 8,
            sample_rate: 1.0,
            slow_threshold_ms: 1000,
        });
        let tracer = Tracer::new(TraceId::from_raw(42));
        let mut root = tracer.root_span("request");
        root.set_attr("route", "/api/query");
        let mut child = root.context().span("orchestrate");
        child.set_attr("winner", "sim-a");
        child.end();
        root.end();
        store.offer(tracer.finish().unwrap());
        store.offer(trace_with(43, SpanStatus::Ok, 10));
        let index = store.index();
        assert_eq!(index.len(), 2);
        assert_eq!(index[0].trace_id, 43, "newest first");
        assert_eq!(index[1].trace_id, 42);
        assert_eq!(index[1].route, "/api/query");
        assert_eq!(index[1].winner.as_deref(), Some("sim-a"));
        assert_eq!(index[1].spans, 2);
        let full = store.get(42).unwrap();
        assert_eq!(full.spans.len(), 2);
    }

    #[test]
    fn configure_updates_knobs() {
        let store = TraceStore::new(TraceStoreConfig::default());
        store.configure(TraceStoreConfig {
            capacity: 2,
            sample_rate: 1.0,
            slow_threshold_ms: 9,
        });
        assert_eq!(store.config().capacity, 2);
        store.offer(trace_with(1, SpanStatus::Ok, 1));
        store.offer(trace_with(2, SpanStatus::Ok, 1));
        store.offer(trace_with(3, SpanStatus::Ok, 1));
        assert_eq!(store.len(), 2, "capacity enforced after reconfigure");
    }
}
