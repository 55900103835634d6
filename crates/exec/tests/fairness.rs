//! Property tests for the cross-query scheduler's fairness guarantees.
//!
//! The scheduling core is a pure state machine, so the properties are
//! checked deterministically by driving [`SchedCore`] synchronously — no
//! threads, no timing, full dispatch logs:
//!
//! (a) **No starvation** — while a query stays backlogged, the gap between
//!     its consecutive dispatches never exceeds a bound derived from the
//!     configured quanta and weights, no matter the job mix.
//! (b) **Weighted shares** — with every tenant saturated, per-tenant
//!     dispatch counts match the configured weights within one ring visit.
//! (c) **Deadline ordering** — within a tenant, dispatch order never
//!     inverts the `(priority, deadline, registration)` order.

use llmms_exec::sched::{Priority, SchedConfig, SchedCore};
use proptest::prelude::*;
use std::collections::HashMap;

fn priority_of(code: u8) -> Priority {
    match code % 3 {
        0 => Priority::High,
        1 => Priority::Normal,
        _ => Priority::Batch,
    }
}

fn core(tenant_quantum: u32, query_quantum: u32) -> SchedCore<u64> {
    SchedCore::new(SchedConfig {
        tenant_quantum,
        query_quantum,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (a) No registered query waits unboundedly while others progress.
    ///
    /// For every query, while it still has queued jobs, the number of other
    /// dispatches between its consecutive services is bounded by
    /// `(2·queries·qq + 2) · (1 + Σ weight·tq)` — one intra-tenant round
    /// worth of same-tenant work times a full ring cycle of other tenants,
    /// with slack. Unbounded waiting would blow through any such bound.
    #[test]
    fn no_query_starves_under_random_job_mixes(
        tenant_quantum in 1u32..4,
        query_quantum in 1u32..4,
        // (weight, queries-per-tenant) for 1..=3 tenants
        tenants in proptest::collection::vec((1u32..5, 1usize..5), 1..4),
        // job counts, priorities and deadline codes; indexed per query
        jobs in proptest::collection::vec((1usize..20, 0u8..3, 0u64..4), 1..16),
    ) {
        let mut sched = core(tenant_quantum, query_quantum);
        let mut remaining: HashMap<u64, usize> = HashMap::new();
        let mut total_queries = 0usize;
        let mut weight_sum = 0u64;
        let mut job_cursor = 0usize;
        for (t_idx, &(weight, n_queries)) in tenants.iter().enumerate() {
            let tenant = format!("tenant-{t_idx}");
            sched.set_share(&tenant, weight);
            weight_sum += u64::from(weight);
            for _ in 0..n_queries {
                let (n_jobs, prio, dl) = jobs[job_cursor % jobs.len()];
                job_cursor += 1;
                let deadline = if dl == 0 { None } else { Some(dl * 1_000) };
                let qid = sched.register(&tenant, priority_of(prio), deadline);
                for j in 0..n_jobs {
                    sched.enqueue(qid, j as u64, 0);
                }
                remaining.insert(qid, n_jobs);
                total_queries += 1;
            }
        }
        let bound = (2 * total_queries * query_quantum as usize + 2)
            * (1 + (weight_sum * u64::from(tenant_quantum)) as usize);

        // Full dispatch log; track, per query, the gap since its last
        // service while it stays backlogged.
        let mut since_last: HashMap<u64, usize> = remaining.keys().map(|&q| (q, 0)).collect();
        while let Some(d) = sched.dequeue() {
            for (&qid, gap) in since_last.iter_mut() {
                if qid == d.qid {
                    *gap = 0;
                } else if remaining[&qid] > 0 {
                    *gap += 1;
                    prop_assert!(
                        *gap <= bound,
                        "query {qid} waited {gap} dispatches (bound {bound}) with jobs queued"
                    );
                }
            }
            *remaining.get_mut(&d.qid).unwrap() -= 1;
        }
        prop_assert!(remaining.values().all(|&r| r == 0), "every job dispatched");
    }

    /// (b) Per-tenant weighted shares are respected within tolerance.
    ///
    /// Every tenant keeps a saturated backlog; after K dispatches each
    /// tenant's count matches `K·w/Σw` within one ring visit (`w·tq`) —
    /// the exact DRR bound, since a full cycle serves exactly `w·tq` jobs
    /// per tenant.
    #[test]
    fn weighted_shares_hold_under_saturation(
        tenant_quantum in 1u32..4,
        weights in proptest::collection::vec(1u32..6, 2..5),
        cycles in 5u64..40,
    ) {
        let mut sched = core(tenant_quantum, 1);
        let weight_sum: u64 = weights.iter().map(|&w| u64::from(w)).sum();
        let k = cycles * weight_sum * u64::from(tenant_quantum);
        for (i, &w) in weights.iter().enumerate() {
            let tenant = format!("tenant-{i}");
            sched.set_share(&tenant, w);
            let qid = sched.register(&tenant, Priority::Normal, None);
            for j in 0..k {
                sched.enqueue(qid, j, 0); // more jobs than any tenant can win
            }
        }
        let mut counts: HashMap<String, u64> = HashMap::new();
        for _ in 0..k {
            let d = sched.dequeue().expect("saturated queues");
            *counts.entry(d.tenant.to_string()).or_insert(0) += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            let count = counts.get(&format!("tenant-{i}")).copied().unwrap_or(0);
            let expected = k * u64::from(w) / weight_sum;
            let tolerance = u64::from(w) * u64::from(tenant_quantum) + 1;
            prop_assert!(
                count.abs_diff(expected) <= tolerance,
                "tenant-{i}: {count} dispatches, expected {expected} ± {tolerance}"
            );
        }
    }

    /// (c) Deadline ordering never inverts within a share: single-job
    /// queries in one tenant drain in exact `(priority, deadline,
    /// registration)` order.
    #[test]
    fn deadline_order_never_inverts_within_a_tenant(
        specs in proptest::collection::vec((0u8..3, 0u64..1_000_000), 1..12),
    ) {
        let mut sched = core(4, 1);
        let mut keys = Vec::new();
        for &(prio, dl_code) in &specs {
            // 0 encodes "no deadline" (sorts last within the priority).
            let deadline = if dl_code == 0 { None } else { Some(dl_code) };
            let qid = sched.register("t", priority_of(prio), deadline);
            sched.enqueue(qid, qid, 0);
            keys.push((priority_of(prio), deadline.unwrap_or(u64::MAX), qid));
        }
        let mut order = Vec::new();
        while let Some(d) = sched.dequeue() {
            order.push(d.qid);
        }
        keys.sort();
        let expected: Vec<u64> = keys.into_iter().map(|(_, _, qid)| qid).collect();
        prop_assert_eq!(order, expected);
    }

    /// (c') With a query quantum larger than any backlog, the scheduler
    /// degenerates to strict EDF: queries drain fully, one after another,
    /// in key order.
    #[test]
    fn large_quantum_degenerates_to_strict_edf(
        specs in proptest::collection::vec((1usize..5, 0u8..3, 0u64..1_000), 1..8),
    ) {
        let mut sched = core(u32::MAX / 2, 1_000);
        let mut keys = Vec::new();
        for &(n_jobs, prio, dl_code) in &specs {
            let deadline = if dl_code == 0 { None } else { Some(dl_code) };
            let qid = sched.register("t", priority_of(prio), deadline);
            for j in 0..n_jobs {
                sched.enqueue(qid, j as u64, 0);
            }
            keys.push(((priority_of(prio), deadline.unwrap_or(u64::MAX), qid), n_jobs));
        }
        let mut order = Vec::new();
        while let Some(d) = sched.dequeue() {
            order.push(d.qid);
        }
        keys.sort();
        let expected: Vec<u64> = keys
            .into_iter()
            .flat_map(|((_, _, qid), n)| std::iter::repeat_n(qid, n))
            .collect();
        prop_assert_eq!(order, expected);
    }
}
