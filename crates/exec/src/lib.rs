//! # llmms-exec
//!
//! The process-wide cross-query scheduling runtime.
//!
//! The pool started life inside `llmms-core` as the scoring pool of the
//! incremental engine, was generalized by the parallel round engine into the
//! per-round generation executor, then extracted so the vector store's
//! sealed-segment fan-out could share it. This revision rebuilds it from a
//! FIFO channel into a *scheduler*: a production node multiplexes thousands
//! of in-flight orchestrations over one shared worker fleet, and strict
//! FIFO lets a single expensive query (one elephant fanning out thousands
//! of jobs) starve everyone behind it.
//!
//! * Queries register with a [`QueryHandle`] carrying tenant id, a
//!   [`Priority`] class and an optional deadline; jobs submitted while the
//!   handle's scope is entered ([`QueryHandle::enter`]) land in that query's
//!   queue. Code that never registers (tests, tools) falls back to a shared
//!   default query.
//! * A deficit-round-robin dispatcher interleaves jobs across queries and
//!   tenants (see [`sched`]); per-tenant weighted shares
//!   ([`set_tenant_share`]) compose with the server's admission token
//!   buckets — admission bounds *how many* queries a tenant may start,
//!   shares bound *how much of the fleet* its running queries get.
//! * Deadlines propagate into dispatch order: earliest-deadline-first
//!   within a priority class, registration order as the tie-break.
//!
//! Workload shape drives two choices (unchanged from the original pool):
//!
//! * Workers are spawned **on demand**, sized by demand (capped at
//!   [`MAX_WORKERS`]) — latency-bound tasks overlap usefully well past the
//!   core count.
//! * The pool is global and lives for the process: bursts are short, and
//!   spinning threads up and down per burst would cost more than it saves.
//!
//! A panicking task no longer kills its worker: the unwind is caught, the
//! task's batch slot reports [`TaskPoisoned`], and `exec_task_panics_total`
//! counts the event.

#![warn(missing_docs)]

pub mod sched;

pub use sched::Priority;

use crossbeam_channel::{unbounded, Receiver};
use sched::{SchedConfig, SchedCore};
use std::cell::RefCell;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Hard cap on pool threads. Generation tasks sleep on backend latency, so
/// the useful worker count is set by fan-out (arms per round, segments per
/// search), not by cores; the cap merely bounds a pathological pool size.
pub const MAX_WORKERS: usize = 16;

/// Tenant attributed to work submitted outside any query scope.
pub const DEFAULT_TENANT: &str = "default";

type Task = Box<dyn FnOnce() + Send + 'static>;

struct Pool {
    state: Mutex<SchedCore<Task>>,
    available: Condvar,
    workers: AtomicUsize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        state: Mutex::new(SchedCore::new(SchedConfig::default())),
        available: Condvar::new(),
        workers: AtomicUsize::new(0),
    })
}

/// Process epoch for the scheduler's µs clock; deadlines and enqueue
/// timestamps are all measured against it so they compare directly.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Convert an absolute deadline to the scheduler's µs clock.
fn deadline_us(deadline: Option<Instant>) -> Option<u64> {
    deadline.map(|d| d.saturating_duration_since(epoch()).as_micros() as u64)
}

/// Grow the pool to at least `want` workers (clamped to [`MAX_WORKERS`]).
fn ensure_workers(p: &'static Pool, want: usize) {
    let want = want.clamp(1, MAX_WORKERS);
    loop {
        let current = p.workers.load(Ordering::Relaxed);
        if current >= want {
            return;
        }
        if p.workers
            .compare_exchange(current, current + 1, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            continue;
        }
        std::thread::Builder::new()
            .name(format!("llmms-exec-{current}"))
            .spawn(move || worker_loop(p))
            .expect("spawn executor worker");
    }
}

fn worker_loop(p: &'static Pool) {
    // The unlabeled handles are resolved once per worker, not per dispatch.
    let registry = llmms_obs::Registry::global();
    let run_delay = registry.histogram("sched_run_delay_us");
    let depth_gauge = registry.gauge("sched_queue_depth");
    loop {
        // The depth is read under the lock that dequeued the task.
        let (dispatch, depth) = {
            let mut state = p.state.lock().expect("scheduler state");
            loop {
                if let Some(d) = state.dequeue() {
                    break (d, state.queue_depth());
                }
                state = p.available.wait(state).expect("scheduler state");
            }
        };
        if registry.enabled() {
            let delay = now_us().saturating_sub(dispatch.enqueued_us);
            run_delay.metric.record(delay as f64);
            registry
                .counter_with("sched_dispatch_total", &[("tenant", &dispatch.tenant)])
                .metric
                .inc();
            depth_gauge.metric.set(depth as i64);
        }
        // Run outside the lock so workers overlap; catch the unwind so a
        // panicking task cannot shrink the fleet (the task's own wrapper
        // already reported the poison to its batch).
        if catch_unwind(AssertUnwindSafe(dispatch.task)).is_err() {
            record_panic();
        }
    }
}

fn record_panic() {
    let registry = llmms_obs::Registry::global();
    if registry.enabled() {
        registry.counter("exec_task_panics_total").metric.inc();
    }
}

fn update_active_queries_gauge(n: usize) {
    let registry = llmms_obs::Registry::global();
    if registry.enabled() {
        registry.gauge("sched_active_queries").metric.set(n as i64);
    }
}

// ---------------------------------------------------------------------------
// Query handles and the ambient scope
// ---------------------------------------------------------------------------

struct HandleInner {
    qid: u64,
}

impl Drop for HandleInner {
    fn drop(&mut self) {
        let p = pool();
        let active = {
            let mut state = p.state.lock().expect("scheduler state");
            state.unregister(self.qid);
            state.active_queries()
        };
        update_active_queries_gauge(active);
    }
}

/// Registration of one in-flight query with the scheduling runtime.
///
/// Cloning shares the registration; the query unregisters when the last
/// clone drops (jobs already queued still run and are drained fairly).
#[derive(Clone)]
pub struct QueryHandle {
    inner: Arc<HandleInner>,
}

impl QueryHandle {
    /// Register a query under `tenant` with a priority class and an
    /// optional absolute deadline (earlier deadlines dispatch first within
    /// the tenant's share).
    pub fn register(tenant: &str, priority: Priority, deadline: Option<Instant>) -> QueryHandle {
        let p = pool();
        let (qid, active) = {
            let mut state = p.state.lock().expect("scheduler state");
            let qid = state.register(tenant, priority, deadline_us(deadline));
            (qid, state.active_queries())
        };
        update_active_queries_gauge(active);
        QueryHandle {
            inner: Arc::new(HandleInner { qid }),
        }
    }

    /// Make this query the ambient target for [`submit_indexed`] on the
    /// current thread until the guard drops. Scopes nest; the previous
    /// handle is restored.
    pub fn enter(&self) -> QueryScope {
        let prev = CURRENT.with(|c| c.replace(Some(self.clone())));
        QueryScope { prev }
    }

    fn qid(&self) -> u64 {
        self.inner.qid
    }
}

thread_local! {
    static CURRENT: RefCell<Option<QueryHandle>> = const { RefCell::new(None) };
}

/// Guard restoring the previously-entered query scope on drop.
pub struct QueryScope {
    prev: Option<QueryHandle>,
}

impl Drop for QueryScope {
    fn drop(&mut self) {
        CURRENT.with(|c| c.replace(self.prev.take()));
    }
}

/// The query scope entered on the current thread, if any.
pub fn current_query() -> Option<QueryHandle> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Register a query and enter its scope, unless this thread already has a
/// query scope entered: a caller that registered first (the platform scopes
/// a whole request, retrieval included) keeps its handle, and nothing is
/// counted twice. The scope owns the registration, which ends when the
/// returned guard drops. `None` for tenant means [`DEFAULT_TENANT`].
pub fn enter_query(
    tenant: Option<&str>,
    priority: Priority,
    deadline: Option<Instant>,
) -> Option<QueryScope> {
    if current_query().is_some() {
        return None;
    }
    let tenant = tenant.unwrap_or(DEFAULT_TENANT);
    Some(QueryHandle::register(tenant, priority, deadline).enter())
}

/// The shared fallback query for unscoped work. Registered lazily under
/// [`DEFAULT_TENANT`] with [`Priority::Normal`] and no deadline.
fn default_query() -> &'static QueryHandle {
    static DEFAULT: OnceLock<QueryHandle> = OnceLock::new();
    DEFAULT.get_or_init(|| QueryHandle::register(DEFAULT_TENANT, Priority::Normal, None))
}

// ---------------------------------------------------------------------------
// Runtime configuration and introspection
// ---------------------------------------------------------------------------

/// Set a tenant's weighted share of the worker fleet (default 1; a weight
/// of 3 gets three job credits per ring visit for every one a weight-1
/// tenant gets). Composes with admission token buckets: admission bounds
/// how many queries start, shares bound fleet time among the running ones.
pub fn set_tenant_share(tenant: &str, weight: u32) {
    let p = pool();
    p.state
        .lock()
        .expect("scheduler state")
        .set_share(tenant, weight);
}

/// Jobs enqueued and not yet dispatched across all queries — the server's
/// brownout/shed path reads this as its backpressure signal.
pub fn queue_depth() -> usize {
    let p = pool();
    p.state.lock().expect("scheduler state").queue_depth()
}

/// Point-in-time view of the runtime, for `/stats` and tests.
#[derive(Clone, Copy, Debug)]
pub struct SchedSnapshot {
    /// Jobs enqueued and not yet dispatched.
    pub queue_depth: usize,
    /// Registered queries (including idle ones).
    pub active_queries: usize,
    /// Worker threads alive.
    pub workers: usize,
    /// Jobs dispatched over the process lifetime.
    pub dispatched: u64,
}

/// Snapshot the runtime state.
pub fn snapshot() -> SchedSnapshot {
    let p = pool();
    let state = p.state.lock().expect("scheduler state");
    SchedSnapshot {
        queue_depth: state.queue_depth(),
        active_queries: state.active_queries(),
        workers: p.workers.load(Ordering::Relaxed),
        dispatched: state.dispatched(),
    }
}

// ---------------------------------------------------------------------------
// Submission
// ---------------------------------------------------------------------------

/// A task died before producing its result: it panicked on a worker (the
/// message carries the panic payload) or was lost with its worker. Callers
/// degrade — skip the slot, fail the arm — instead of crashing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskPoisoned {
    /// Human-readable cause, for logs and error surfaces.
    pub message: String,
}

impl std::fmt::Display for TaskPoisoned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "executor task poisoned: {}", self.message)
    }
}

impl std::error::Error for TaskPoisoned {}

/// Run `f` on the calling thread with the containment a pool task gets: a
/// panic comes back as [`TaskPoisoned`] (and counts in
/// `exec_task_panics_total`) instead of unwinding into the caller.
pub fn run_contained<T>(f: impl FnOnce() -> T) -> Result<T, TaskPoisoned> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        record_panic();
        TaskPoisoned {
            message: panic_message(payload.as_ref()),
        }
    })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "task panicked".to_string()
    }
}

/// An in-flight batch of submitted tasks; [`Batch::wait`] collects every
/// result. Lets the submitter overlap its own work (e.g. searching the
/// mutable head segment) with the pool draining the batch.
pub struct Batch<T> {
    rx: Receiver<(usize, Result<T, TaskPoisoned>)>,
    submitted: Vec<usize>,
}

impl<T> Batch<T> {
    /// Block until every task has finished and return `(index, result)`
    /// pairs in completion order. A task that panicked (or whose worker
    /// died) yields `Err(TaskPoisoned)` in its slot instead of poisoning
    /// the whole batch.
    pub fn wait(self) -> Vec<(usize, Result<T, TaskPoisoned>)> {
        let mut out = Vec::with_capacity(self.submitted.len());
        for _ in 0..self.submitted.len() {
            match self.rx.recv() {
                Ok(pair) => out.push(pair),
                // Every task wrapper sends exactly once, even on panic; a
                // recv error means senders vanished without reporting
                // (worker torn down mid-task). Fall through and poison the
                // missing slots.
                Err(_) => break,
            }
        }
        if out.len() < self.submitted.len() {
            let seen: HashSet<usize> = out.iter().map(|(i, _)| *i).collect();
            for &idx in &self.submitted {
                if !seen.contains(&idx) {
                    out.push((
                        idx,
                        Err(TaskPoisoned {
                            message: "task lost: worker exited before delivering".to_string(),
                        }),
                    ));
                }
            }
        }
        out
    }
}

/// Submit every task to the pool without waiting, attributed to the current
/// thread's query scope (or the shared default query when unscoped). Tasks
/// must be self-contained (own everything they touch) — that is what makes
/// their execution order irrelevant.
pub fn submit_indexed<T, F>(tasks: Vec<(usize, F)>) -> Batch<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let handle = current_query().unwrap_or_else(|| default_query().clone());
    submit_on(&handle, tasks)
}

/// Submit every task against an explicit [`QueryHandle`], bypassing the
/// ambient scope. Benches and multi-query drivers use this directly.
pub fn submit_on<T, F>(handle: &QueryHandle, tasks: Vec<(usize, F)>) -> Batch<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let p = pool();
    let (done_tx, done_rx) = unbounded::<(usize, Result<T, TaskPoisoned>)>();
    let n = tasks.len();
    let mut submitted = Vec::with_capacity(n);
    let enqueued_us = now_us();
    let depth = {
        let mut state = p.state.lock().expect("scheduler state");
        for (idx, task) in tasks {
            submitted.push(idx);
            let done_tx = done_tx.clone();
            // The wrapper owns panic reporting: exactly one send per task,
            // poison on unwind, so Batch::wait never hangs and never dies.
            let wrapped: Task = Box::new(move || {
                let _ = done_tx.send((idx, run_contained(task)));
            });
            state.enqueue(handle.qid(), wrapped, enqueued_us);
        }
        state.queue_depth()
    };
    let registry = llmms_obs::Registry::global();
    if registry.enabled() {
        registry.gauge("sched_queue_depth").metric.set(depth as i64);
    }
    ensure_workers(p, depth.max(n));
    // One wake per task: a woken worker that finds the queue drained goes
    // back to waiting, and a busy one dequeues again before it sleeps, so
    // every task is picked up without waking the whole fleet.
    for _ in 0..n {
        p.available.notify_one();
    }
    Batch {
        rx: done_rx,
        submitted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every slot's value in index order; panics on a poisoned slot.
    fn values<T>(done: Vec<(usize, Result<T, TaskPoisoned>)>) -> Vec<(usize, T)> {
        let mut out: Vec<(usize, T)> = done
            .into_iter()
            .map(|(i, r)| (i, r.expect("task completed")))
            .collect();
        out.sort_by_key(|&(i, _)| i);
        out
    }

    #[test]
    fn submit_returns_every_result_with_its_index() {
        let tasks: Vec<(usize, _)> = (0..24).map(|i| (i, move || i * i)).collect();
        let done = values(submit_indexed(tasks).wait());
        assert_eq!(done, (0..24).map(|i| (i, i * i)).collect::<Vec<_>>());
    }

    #[test]
    fn submit_overlaps_with_caller_work() {
        // The batch drains while the submitter is busy; wait() still
        // delivers every result.
        let tasks: Vec<(usize, _)> = (0..6).map(|i| (i, move || i + 100)).collect();
        let batch = submit_indexed(tasks);
        let local: usize = (0..1000).sum(); // caller-side work
        assert_eq!(local, 499_500);
        let done = values(batch.wait());
        assert_eq!(done, (0..6).map(|i| (i, i + 100)).collect::<Vec<_>>());
    }

    #[test]
    fn workers_scale_with_demand_up_to_the_cap() {
        // Every task blocks until all of them started, which only resolves
        // if at least `n` workers run concurrently.
        use std::sync::Barrier;
        let n = 8usize.min(MAX_WORKERS);
        let barrier = Arc::new(Barrier::new(n));
        let tasks: Vec<(usize, _)> = (0..n)
            .map(|i| {
                let barrier = Arc::clone(&barrier);
                (i, move || {
                    barrier.wait();
                    i
                })
            })
            .collect();
        let done = values(submit_indexed(tasks).wait());
        assert_eq!(done.len(), n);
    }

    #[test]
    fn panicking_task_poisons_its_slot_not_the_batch() {
        let tasks: Vec<(usize, Box<dyn FnOnce() -> usize + Send>)> = (0..4)
            .map(|i| {
                let f: Box<dyn FnOnce() -> usize + Send> = if i == 2 {
                    Box::new(|| panic!("injected failure"))
                } else {
                    Box::new(move || i * 10)
                };
                (i, f)
            })
            .collect();
        let tasks: Vec<(usize, _)> = tasks.into_iter().map(|(i, f)| (i, move || f())).collect();
        let mut done = submit_indexed(tasks).wait();
        done.sort_by_key(|&(i, _)| i);
        assert_eq!(done.len(), 4, "every slot reports");
        for (i, r) in done {
            if i == 2 {
                let err = r.expect_err("slot 2 poisoned");
                assert!(err.message.contains("injected failure"), "payload: {err}");
            } else {
                assert_eq!(r.expect("healthy slot"), i * 10);
            }
        }
    }

    #[test]
    fn workers_survive_a_panic_storm() {
        // More panicking tasks than the worker cap: if panics killed
        // workers (the old leak), the follow-up batch could never finish.
        let storm: Vec<(usize, _)> = (0..MAX_WORKERS * 2)
            .map(|i| (i, move || -> usize { panic!("storm {i}") }))
            .collect();
        let poisons = submit_indexed(storm).wait();
        assert!(poisons.iter().all(|(_, r)| r.is_err()));
        let after: Vec<(usize, _)> = (0..8).map(|i| (i, move || i + 1)).collect();
        let done = values(submit_indexed(after).wait());
        assert_eq!(done, (0..8).map(|i| (i, i + 1)).collect::<Vec<_>>());
    }

    #[test]
    fn scoped_submission_attributes_to_the_entered_query() {
        let handle = QueryHandle::register("scoped-tenant", Priority::High, None);
        let _scope = handle.enter();
        let entered = current_query().expect("scope active");
        assert_eq!(entered.qid(), handle.qid());
        let done = values(submit_indexed(vec![(0usize, || 42usize)]).wait());
        assert_eq!(done, vec![(0, 42)]);
        drop(_scope);
        // Previous scope (none) restored.
        assert!(current_query().is_none());
    }

    #[test]
    fn enter_query_keeps_an_ambient_scope() {
        let outer = enter_query(Some("outer-tenant"), Priority::Normal, None);
        let qid = current_query().expect("registered and entered").qid();
        assert!(outer.is_some());
        // A second caller on the same thread reuses the ambient handle.
        assert!(enter_query(None, Priority::High, None).is_none());
        assert_eq!(current_query().map(|h| h.qid()), Some(qid));
        drop(outer);
        assert!(current_query().is_none());
    }

    #[test]
    fn snapshot_reflects_registrations() {
        // Sibling tests register queries concurrently, so the exact count
        // is taken over this test's own tenant only.
        let count = || {
            pool()
                .state
                .lock()
                .unwrap()
                .active_queries_of("snap-tenant")
        };
        let before = count();
        let h = QueryHandle::register("snap-tenant", Priority::Normal, None);
        assert_eq!(count(), before + 1);
        assert!(snapshot().active_queries >= 1);
        drop(h);
        assert_eq!(count(), before);
    }

    #[test]
    fn snapshot_reports_depth_workers_and_dispatch_count() {
        // More gated tasks than the worker cap: however the fleet is shared
        // with the other tests, at least `extra` of them stay queued until
        // the gate opens.
        let extra = 4;
        let total = MAX_WORKERS + extra;
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let before = snapshot();
        let tasks: Vec<(usize, _)> = (0..total)
            .map(|i| {
                let gate = Arc::clone(&gate);
                (i, move || {
                    let (open, cv) = &*gate;
                    let mut open = open.lock().unwrap();
                    while !*open {
                        open = cv.wait(open).unwrap();
                    }
                    i
                })
            })
            .collect();
        let batch = submit_indexed(tasks);
        let held = snapshot();
        assert!(held.queue_depth >= extra, "{held:?}");
        assert!((1..=MAX_WORKERS).contains(&held.workers), "{held:?}");
        assert!(held.active_queries >= 1, "{held:?}");
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
        assert_eq!(values(batch.wait()).len(), total);
        let after = snapshot();
        assert!(after.dispatched >= before.dispatched + total as u64);
    }

    #[test]
    fn concurrent_queries_all_complete() {
        // Many handles submitting in parallel from their own threads: the
        // shared fleet must drain everything regardless of interleaving.
        let threads: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    let handle = QueryHandle::register(
                        if t % 2 == 0 { "alpha" } else { "beta" },
                        Priority::Normal,
                        None,
                    );
                    let tasks: Vec<(usize, _)> =
                        (0..16).map(|i| (i, move || t * 100 + i)).collect();
                    let done = values(submit_on(&handle, tasks).wait());
                    assert_eq!(done.len(), 16);
                    for (i, v) in done {
                        assert_eq!(v, t * 100 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("query thread");
        }
    }
}
