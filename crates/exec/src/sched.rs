//! The cross-query scheduling core.
//!
//! [`SchedCore`] is a pure, synchronously-driven state machine: callers
//! register queries, enqueue jobs against them, and pull the next job to run
//! with [`SchedCore::dequeue`]. The worker fleet in `lib.rs` drives one
//! process-global instance behind a mutex; tests drive private instances
//! deterministically, which is what makes the fairness properties provable
//! without threads.
//!
//! Scheduling is two-level deficit round-robin:
//!
//! * **Tenant level** — active tenants sit in a ring. A visit replenishes
//!   the tenant's deficit to `weight × tenant_quantum` job credits (every
//!   job costs 1 credit — jobs are coarse and roughly uniform: one arm
//!   generation, one embed fold, one segment search); the cursor advances
//!   when the credits are spent, so dispatch counts converge to the
//!   configured weights.
//! * **Query level (within a tenant)** — queries carry a key
//!   `(priority, deadline, qid)`. Each intra-tenant round replenishes every
//!   active query's deficit to `query_quantum` and serves queries in key
//!   order (earliest deadline first within a priority class, registration
//!   order as the tie-break). Every active query therefore gets served at
//!   least once per round: no query starves no matter how many jobs an
//!   elephant query keeps enqueueing.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

/// Priority class of a query; lower sorts first. Priorities partition the
/// EDF order within a tenant: all `High` work with deadlines or not beats
/// all `Normal` work, which beats all `Batch` work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Latency-sensitive interactive traffic.
    High,
    /// The default class.
    #[default]
    Normal,
    /// Throughput-oriented background work (bulk ingest, evaluation runs).
    Batch,
}

impl Priority {
    /// Stable lowercase name, used for headers, CLI flags and metric labels.
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Batch => "batch",
        }
    }

    /// Parse a case-insensitive priority name (`high` / `normal` / `batch`).
    pub fn parse(s: &str) -> Option<Priority> {
        match s.trim().to_ascii_lowercase().as_str() {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            "batch" => Some(Priority::Batch),
            _ => None,
        }
    }
}

/// Tuning knobs of the scheduling core.
#[derive(Clone, Copy, Debug)]
pub struct SchedConfig {
    /// Job credits granted per tenant visit is `weight × tenant_quantum`.
    pub tenant_quantum: u32,
    /// Job credits granted to each query per intra-tenant round. `1` gives
    /// the finest interleave (one job per query per round).
    pub query_quantum: u32,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            tenant_quantum: 4,
            query_quantum: 1,
        }
    }
}

/// Deadline key for "no deadline": sorts after every real deadline.
pub const NO_DEADLINE: u64 = u64::MAX;

/// EDF ordering key: `(priority, deadline_us, qid)`. `qid` is allocation
/// order, so ties fall back to registration order (FIFO among equals).
type QueryKey = (Priority, u64, u64);

struct Job<T> {
    task: T,
    enqueued_us: u64,
}

struct QueryState<T> {
    tenant: Arc<str>,
    key: QueryKey,
    /// Jobs enqueued and not yet dispatched.
    jobs: VecDeque<Job<T>>,
    /// Intra-round job credits left.
    deficit: u32,
    /// False once the owning [`crate::QueryHandle`] dropped; the query is
    /// removed as soon as its last job dispatches.
    registered: bool,
}

struct TenantState {
    weight: u32,
    /// Job credits left in the current ring visit.
    deficit: u64,
    /// Jobs pending across all of this tenant's queries.
    pending: usize,
    /// Queries with at least one queued job, in EDF order.
    active: BTreeSet<QueryKey>,
    in_ring: bool,
}

/// A job handed to a worker, with the bookkeeping needed for metrics.
pub struct Dispatch<T> {
    /// The job itself.
    pub task: T,
    /// Owning query.
    pub qid: u64,
    /// Owning tenant (for per-tenant dispatch counters).
    pub tenant: Arc<str>,
    /// Timestamp the job was enqueued (µs on the caller's clock), for the
    /// run-delay histogram.
    pub enqueued_us: u64,
}

/// The scheduling state machine. Generic over the job type so tests can
/// drive it with plain markers instead of closures.
pub struct SchedCore<T> {
    config: SchedConfig,
    /// Configured weights for tenants not yet (or no longer) active.
    shares: HashMap<String, u32>,
    queries: HashMap<u64, QueryState<T>>,
    tenants: HashMap<Arc<str>, TenantState>,
    /// Active tenants in visit order.
    ring: Vec<Arc<str>>,
    cursor: usize,
    pending: usize,
    next_qid: u64,
    dispatched: u64,
}

impl<T> SchedCore<T> {
    /// Create a core with the given configuration.
    pub fn new(config: SchedConfig) -> Self {
        SchedCore {
            config,
            shares: HashMap::new(),
            queries: HashMap::new(),
            tenants: HashMap::new(),
            ring: Vec::new(),
            cursor: 0,
            pending: 0,
            next_qid: 0,
            dispatched: 0,
        }
    }

    /// Jobs enqueued and not yet dispatched.
    pub fn queue_depth(&self) -> usize {
        self.pending
    }

    /// Registered queries (including ones with no queued jobs).
    pub fn active_queries(&self) -> usize {
        self.queries.len()
    }

    /// Registered queries of `tenant`.
    #[cfg(test)]
    pub(crate) fn active_queries_of(&self, tenant: &str) -> usize {
        self.queries
            .values()
            .filter(|q| &*q.tenant == tenant)
            .count()
    }

    /// Total jobs dispatched over the core's lifetime.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Set a tenant's weighted share (minimum effective weight is 1).
    /// Applies to the live tenant immediately and persists for re-activation.
    pub fn set_share(&mut self, tenant: &str, weight: u32) {
        self.shares.insert(tenant.to_string(), weight);
        if let Some(t) = self.tenants.get_mut(tenant) {
            t.weight = weight.max(1);
        }
    }

    /// Register a query and return its id. `deadline_us` is on the caller's
    /// clock; earlier deadlines dispatch first within the same priority.
    pub fn register(&mut self, tenant: &str, priority: Priority, deadline_us: Option<u64>) -> u64 {
        let qid = self.next_qid;
        self.next_qid += 1;
        let tname = self.intern_tenant(tenant);
        self.queries.insert(
            qid,
            QueryState {
                tenant: tname,
                key: (priority, deadline_us.unwrap_or(NO_DEADLINE), qid),
                jobs: VecDeque::new(),
                deficit: 0,
                registered: true,
            },
        );
        qid
    }

    /// Drop a query's registration. Queued jobs still run; the entry is
    /// reclaimed once the last one dispatches.
    pub fn unregister(&mut self, qid: u64) {
        let remove = match self.queries.get_mut(&qid) {
            Some(q) => {
                q.registered = false;
                q.jobs.is_empty()
            }
            None => false,
        };
        if remove {
            self.queries.remove(&qid);
        }
    }

    /// Enqueue a job for a registered query. `now_us` is the caller-clock
    /// enqueue timestamp echoed back in the [`Dispatch`].
    ///
    /// # Panics
    /// If `qid` was never registered or already reclaimed — the owning
    /// handle keeps the query alive, so this is an internal invariant.
    pub fn enqueue(&mut self, qid: u64, task: T, now_us: u64) {
        let (tenant, key, was_empty) = {
            let q = self
                .queries
                .get_mut(&qid)
                .expect("enqueue to a registered query");
            let was_empty = q.jobs.is_empty();
            q.jobs.push_back(Job {
                task,
                enqueued_us: now_us,
            });
            (Arc::clone(&q.tenant), q.key, was_empty)
        };
        self.pending += 1;
        let t = self
            .tenants
            .get_mut(&tenant)
            .expect("registered query has a tenant");
        t.pending += 1;
        if was_empty {
            t.active.insert(key);
        }
        if !t.in_ring {
            t.in_ring = true;
            self.ring.push(tenant);
        }
    }

    fn intern_tenant(&mut self, tenant: &str) -> Arc<str> {
        if let Some((k, _)) = self.tenants.get_key_value(tenant) {
            return Arc::clone(k);
        }
        let name: Arc<str> = Arc::from(tenant);
        let weight = self.shares.get(tenant).copied().unwrap_or(1).max(1);
        self.tenants.insert(
            Arc::clone(&name),
            TenantState {
                weight,
                deficit: 0,
                pending: 0,
                active: BTreeSet::new(),
                in_ring: false,
            },
        );
        name
    }

    /// Pull the next job in two-level DRR order, or `None` when the queue is
    /// empty.
    pub fn dequeue(&mut self) -> Option<Dispatch<T>> {
        loop {
            if self.ring.is_empty() {
                return None;
            }
            if self.cursor >= self.ring.len() {
                self.cursor = 0;
            }
            let tname = Arc::clone(&self.ring[self.cursor]);
            let tenant_pending = self.tenants.get(&tname).map_or(0, |t| t.pending);
            if tenant_pending == 0 {
                // Drained tenant: drop it from the ring (the element shift
                // leaves the cursor on its successor).
                if let Some(t) = self.tenants.get_mut(&tname) {
                    t.in_ring = false;
                    t.deficit = 0;
                }
                self.ring.remove(self.cursor);
                continue;
            }

            // Fresh visit: replenish the tenant's job credits.
            {
                let quantum = u64::from(self.config.tenant_quantum.max(1));
                let t = self.tenants.get_mut(&tname).expect("ring tenant exists");
                if t.deficit == 0 {
                    t.deficit = u64::from(t.weight.max(1)) * quantum;
                }
            }

            // EDF pick among queries with intra-round credits left; if the
            // round is exhausted, start a new one by replenishing every
            // active query (this is the no-starvation guarantee: each round
            // serves every active query at least once).
            let key = {
                let t = self.tenants.get(&tname).expect("ring tenant exists");
                let mut chosen = None;
                for k in &t.active {
                    if self.queries.get(&k.2).is_some_and(|q| q.deficit > 0) {
                        chosen = Some(*k);
                        break;
                    }
                }
                match chosen {
                    Some(k) => k,
                    None => {
                        let quantum = self.config.query_quantum.max(1);
                        let keys: Vec<QueryKey> = t.active.iter().copied().collect();
                        for k in &keys {
                            if let Some(q) = self.queries.get_mut(&k.2) {
                                q.deficit = quantum;
                            }
                        }
                        keys[0]
                    }
                }
            };

            let qid = key.2;
            let (task, enqueued_us, tenant_arc, now_empty, drop_query) = {
                let q = self.queries.get_mut(&qid).expect("active query exists");
                let job = q.jobs.pop_front().expect("active query has jobs");
                q.deficit = q.deficit.saturating_sub(1);
                let now_empty = q.jobs.is_empty();
                if now_empty {
                    q.deficit = 0;
                }
                (
                    job.task,
                    job.enqueued_us,
                    Arc::clone(&q.tenant),
                    now_empty,
                    now_empty && !q.registered,
                )
            };
            {
                let t = self.tenants.get_mut(&tname).expect("ring tenant exists");
                t.pending -= 1;
                t.deficit -= 1;
                if now_empty {
                    t.active.remove(&key);
                }
                if t.pending == 0 {
                    t.in_ring = false;
                    t.deficit = 0;
                    self.ring.remove(self.cursor);
                } else if t.deficit == 0 {
                    self.cursor += 1;
                }
            }
            if drop_query {
                self.queries.remove(&qid);
            }
            self.pending -= 1;
            self.dispatched += 1;
            return Some(Dispatch {
                task,
                qid,
                tenant: tenant_arc,
                enqueued_us,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drr(query_quantum: u32, tenant_quantum: u32) -> SchedCore<u64> {
        SchedCore::new(SchedConfig {
            tenant_quantum,
            query_quantum,
        })
    }

    fn drain(core: &mut SchedCore<u64>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(d) = core.dequeue() {
            out.push((d.qid, d.task));
        }
        out
    }

    #[test]
    fn drr_interleaves_elephant_and_mouse() {
        let mut core = drr(1, 4);
        let elephant = core.register("t", Priority::Normal, None);
        let mouse = core.register("t", Priority::Normal, None);
        for n in 0..100 {
            core.enqueue(elephant, n, 0);
        }
        core.enqueue(mouse, 999, 0);
        // The mouse's single job must dispatch within one intra-tenant
        // round: at most one elephant job can precede it.
        let first_two: Vec<u64> = (0..2).map(|_| core.dequeue().unwrap().qid).collect();
        assert!(
            first_two.contains(&mouse),
            "mouse served in first round: {first_two:?}"
        );
    }

    #[test]
    fn edf_orders_by_priority_then_deadline_then_registration() {
        let mut core = drr(1, 4);
        let late = core.register("t", Priority::Normal, Some(9_000));
        let soon = core.register("t", Priority::Normal, Some(1_000));
        let batch = core.register("t", Priority::Batch, Some(0));
        let high = core.register("t", Priority::High, None);
        let none = core.register("t", Priority::Normal, None);
        for qid in [late, soon, batch, high, none] {
            core.enqueue(qid, qid, 0);
        }
        let order: Vec<u64> = drain(&mut core).into_iter().map(|(q, _)| q).collect();
        assert_eq!(order, vec![high, soon, late, none, batch]);
    }

    #[test]
    fn tenant_weights_shape_dispatch_counts() {
        let mut core = drr(8, 1);
        core.set_share("heavy", 3);
        core.set_share("light", 1);
        let h = core.register("heavy", Priority::Normal, None);
        let l = core.register("light", Priority::Normal, None);
        for n in 0..400 {
            core.enqueue(h, n, 0);
            core.enqueue(l, n, 0);
        }
        let mut counts = HashMap::new();
        for _ in 0..200 {
            let d = core.dequeue().unwrap();
            *counts.entry(d.tenant.to_string()).or_insert(0u64) += 1;
        }
        let heavy = counts["heavy"] as f64;
        let light = counts["light"] as f64;
        let ratio = heavy / light;
        assert!(
            (2.0..=4.0).contains(&ratio),
            "expected ~3:1 split, got {heavy}:{light}"
        );
    }

    #[test]
    fn unregister_defers_removal_until_drained() {
        let mut core = drr(1, 4);
        let q = core.register("t", Priority::Normal, None);
        core.enqueue(q, 1, 0);
        core.enqueue(q, 2, 0);
        core.unregister(q);
        assert_eq!(core.active_queries(), 1, "kept alive while jobs queued");
        assert_eq!(drain(&mut core).len(), 2);
        assert_eq!(core.active_queries(), 0, "reclaimed after drain");
        assert_eq!(core.queue_depth(), 0);
    }

    #[test]
    fn drained_tenants_leave_the_ring_and_return() {
        let mut core = drr(1, 1);
        let a = core.register("a", Priority::Normal, None);
        let b = core.register("b", Priority::Normal, None);
        core.enqueue(a, 1, 0);
        core.enqueue(b, 2, 0);
        assert_eq!(drain(&mut core).len(), 2);
        // Re-activation after drain works and keeps fairness state sane.
        core.enqueue(a, 3, 0);
        core.enqueue(b, 4, 0);
        let got = drain(&mut core);
        assert_eq!(got.len(), 2);
    }
}
