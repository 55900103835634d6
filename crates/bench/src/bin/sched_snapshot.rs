//! Machine-readable scheduler snapshot: drives the shared execution
//! runtime with an adversarial cross-query mix — a few "elephant" queries
//! with hundreds of jobs submitted *first*, then a crowd of single-job
//! "mice" — and measures per-query latency and first-dispatch wait.
//!
//! The yardstick is the run's own backlog-drain wall time. A scheduler that
//! served strictly in arrival order would park every mouse behind the full
//! elephant backlog, so its p99 query latency and worst first-dispatch wait
//! would both be roughly the whole drain. Deficit round-robin interleaves:
//! each queued query gets its quantum per round, so every mouse dispatches
//! within the first round — `queries / total jobs` of the drain, a third at
//! these sizes — regardless of how much elephant work is queued ahead.
//! `--check` gates, at 1k concurrent queries: p99 query latency and max
//! first-dispatch wait each at most half the drain, and throughput at least
//! 0.6 of the run's own ideal (`workers / JOB_SLEEP_US`), so no gate depends
//! on the machine that wrote the committed file.
//!
//! Usage: `cargo run -p llmms-bench --release --bin sched_snapshot [out.json] [--check]`

use llmms::exec::{self, Priority, QueryHandle};
use serde_json::json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall-clock cost of one job — stands in for a slow-backend generation
/// chunk. Small enough that the 10k-query level stays fast, large enough
/// that scheduling order (not dispatch overhead) dominates the numbers.
const JOB_SLEEP_US: u64 = 500;

/// Jobs per elephant query. One elephant carries as much work as 200 mice.
const ELEPHANT_JOBS: usize = 200;

/// Concurrency levels measured. The `--check` gate reads the 1000-query
/// level; the others are context.
const LEVELS: [usize; 3] = [100, 1_000, 10_000];

/// The level the CI gate is evaluated at.
const GATE_LEVEL: usize = 1_000;

/// One query in a hundred is an elephant.
fn elephants_at(queries: usize) -> usize {
    (queries / 100).max(1)
}

/// Ceiling on p99 query latency and on max first-dispatch wait, as a share
/// of the backlog-drain wall time.
const MAX_DRAIN_SHARE: f64 = 0.5;

/// Floor on throughput, as a share of `workers / JOB_SLEEP_US`.
const MIN_IDEAL_SHARE: f64 = 0.6;

/// What one level's run measured.
struct LevelReport {
    /// Per-query time from workload start to the query's last job
    /// finishing, sorted ascending (µs).
    latencies_us: Vec<u64>,
    /// Worst first-dispatch delay any query saw (µs).
    max_wait_us: u64,
    jobs: usize,
    /// Backlog-drain time: first submission to last job finishing.
    wall: Duration,
    /// Worker threads alive when the backlog had drained.
    workers: usize,
}

impl LevelReport {
    fn p(&self, q: f64) -> u64 {
        let idx = ((self.latencies_us.len() as f64 - 1.0) * q).round() as usize;
        self.latencies_us[idx]
    }

    fn throughput_jobs_per_s(&self) -> f64 {
        self.jobs as f64 / self.wall.as_secs_f64()
    }

    /// What the fleet would dispatch if every worker only ever slept.
    fn ideal_jobs_per_s(&self) -> f64 {
        self.workers as f64 * 1e6 / JOB_SLEEP_US as f64
    }

    /// `us` as a share of the backlog-drain wall time.
    fn drain_share(&self, us: u64) -> f64 {
        us as f64 / self.wall.as_micros() as f64
    }

    fn to_json(&self, queries: usize) -> serde_json::Value {
        json!({
            "queries": queries,
            "elephants": elephants_at(queries),
            "jobs": self.jobs,
            "wall_ms": self.wall.as_millis() as u64,
            "workers": self.workers,
            "throughput_jobs_per_s": self.throughput_jobs_per_s(),
            "ideal_jobs_per_s": self.ideal_jobs_per_s(),
            "query_latency_ms": {
                "p50": self.p(0.50) as f64 / 1000.0,
                "p99": self.p(0.99) as f64 / 1000.0,
                "max": self.p(1.0) as f64 / 1000.0,
            },
            "max_query_wait_ms": self.max_wait_us as f64 / 1000.0,
        })
    }
}

/// Run the elephants-first workload at `queries` concurrent queries and
/// measure every query's completion latency and first-dispatch wait.
fn run_level(queries: usize) -> LevelReport {
    let elephants = elephants_at(queries);
    let jobs_of = |q: usize| if q < elephants { ELEPHANT_JOBS } else { 1 };
    let total_jobs: usize = (0..queries).map(jobs_of).sum();

    // Per-query first-dispatch and completion timestamps (µs since t0),
    // written by the jobs themselves so no waiter-side ordering skews them.
    let first_dispatch: Arc<Vec<AtomicU64>> =
        Arc::new((0..queries).map(|_| AtomicU64::new(u64::MAX)).collect());
    let done_at: Arc<Vec<AtomicU64>> = Arc::new((0..queries).map(|_| AtomicU64::new(0)).collect());
    let remaining: Arc<Vec<AtomicU64>> = Arc::new(
        (0..queries)
            .map(|q| AtomicU64::new(jobs_of(q) as u64))
            .collect(),
    );

    let t0 = Instant::now();
    // Elephants first: the adversarial arrival order. Handles must outlive
    // the waits so no query unregisters early.
    let mut handles: Vec<QueryHandle> = Vec::with_capacity(queries);
    let mut batches = Vec::with_capacity(queries);
    for q in 0..queries {
        let handle = QueryHandle::register("bench", Priority::Normal, None);
        let tasks: Vec<(usize, _)> = (0..jobs_of(q))
            .map(|j| {
                let first_dispatch = Arc::clone(&first_dispatch);
                let done_at = Arc::clone(&done_at);
                let remaining = Arc::clone(&remaining);
                let task = move || {
                    let now = t0.elapsed().as_micros() as u64;
                    let _ = first_dispatch[q].compare_exchange(
                        u64::MAX,
                        now,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    );
                    std::thread::sleep(Duration::from_micros(JOB_SLEEP_US));
                    if remaining[q].fetch_sub(1, Ordering::Relaxed) == 1 {
                        done_at[q].store(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
                    }
                };
                (j, task)
            })
            .collect();
        batches.push(exec::submit_on(&handle, tasks));
        handles.push(handle);
    }
    for batch in batches {
        for (_, result) in batch.wait() {
            result.expect("bench jobs must not panic");
        }
    }
    let wall = t0.elapsed();
    drop(handles);

    let mut latencies_us: Vec<u64> = done_at.iter().map(|t| t.load(Ordering::Relaxed)).collect();
    latencies_us.sort_unstable();
    let max_wait_us = first_dispatch
        .iter()
        .map(|t| t.load(Ordering::Relaxed))
        .max()
        .expect("at least one query");
    assert_ne!(max_wait_us, u64::MAX, "every query must have dispatched");
    LevelReport {
        latencies_us,
        max_wait_us,
        jobs: total_jobs,
        wall,
        workers: exec::snapshot().workers,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let out_path = args.iter().find(|a| !a.starts_with("--"));

    let mut levels = Vec::new();
    let mut gate_passed = true;
    let mut gate_detail = String::new();
    for &queries in &LEVELS {
        eprintln!("sched snapshot: {queries} concurrent queries...");
        let report = run_level(queries);
        eprintln!(
            "  p99 {:.1}ms, max wait {:.1}ms, drain {:.1}ms, {:.0} of {:.0} jobs/s",
            report.p(0.99) as f64 / 1000.0,
            report.max_wait_us as f64 / 1000.0,
            report.wall.as_secs_f64() * 1000.0,
            report.throughput_jobs_per_s(),
            report.ideal_jobs_per_s()
        );

        if queries == GATE_LEVEL {
            let p99_share = report.drain_share(report.p(0.99));
            let wait_share = report.drain_share(report.max_wait_us);
            let ideal_share = report.throughput_jobs_per_s() / report.ideal_jobs_per_s();
            gate_passed = p99_share <= MAX_DRAIN_SHARE
                && wait_share <= MAX_DRAIN_SHARE
                && ideal_share >= MIN_IDEAL_SHARE;
            gate_detail = format!(
                "at {queries} queries: p99 {p99_share:.2} and max wait {wait_share:.2} of the \
                 drain (<= {MAX_DRAIN_SHARE}), throughput {ideal_share:.2} of ideal \
                 (>= {MIN_IDEAL_SHARE})"
            );
        }
        levels.push(report.to_json(queries));
    }

    let snapshot = json!({
        "job_sleep_us": JOB_SLEEP_US,
        "elephant_jobs": ELEPHANT_JOBS,
        "gate_level": GATE_LEVEL,
        "gate": gate_detail,
        "levels": levels,
    });
    let out = serde_json::to_string_pretty(&snapshot).expect("snapshot serializes");
    match out_path {
        Some(path) => {
            std::fs::write(path, &out).expect("snapshot file must be writable");
            eprintln!("sched snapshot written to {path}");
        }
        None => println!("{out}"),
    }
    if check {
        assert!(gate_passed, "scheduler gate failed: {gate_detail}");
        eprintln!("check passed: {gate_detail}");
    }
}
