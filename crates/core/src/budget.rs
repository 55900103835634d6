//! Token budget accounting (λ_max and its division among models).

use serde::{Deserialize, Serialize};

/// A consumable token budget.
///
/// The orchestrator holds one global budget of λ_max tokens per query; every
/// chunk any model generates is charged against it. `TokenBudget` makes the
/// arithmetic explicit and panic-free: a request can never overdraw, it is
/// truncated to what remains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TokenBudget {
    limit: usize,
    used: usize,
}

impl TokenBudget {
    /// A fresh budget of `limit` tokens.
    pub fn new(limit: usize) -> Self {
        Self { limit, used: 0 }
    }

    /// Total budget (λ_max).
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Tokens consumed so far.
    pub fn used(&self) -> usize {
        self.used
    }

    /// Tokens still available.
    pub fn remaining(&self) -> usize {
        self.limit - self.used
    }

    /// Whether the budget is fully consumed.
    pub fn exhausted(&self) -> bool {
        self.used >= self.limit
    }

    /// Fraction of the budget consumed, in `[0, 1]`.
    pub fn consumed_fraction(&self) -> f64 {
        if self.limit == 0 {
            return 1.0;
        }
        self.used as f64 / self.limit as f64
    }

    /// Grant up to `requested` tokens, returning what was actually granted
    /// (possibly zero). The caller charges generation against the grant.
    pub fn grant(&mut self, requested: usize) -> usize {
        let granted = requested.min(self.remaining());
        self.used += granted;
        granted
    }

    /// Return unused tokens from an earlier grant (a model produced fewer
    /// tokens than requested, e.g. because it stopped).
    pub fn refund(&mut self, tokens: usize) {
        self.used = self.used.saturating_sub(tokens);
    }

    /// The even per-model allowance λ = λ_max / N of Algorithm 1, line 2.
    pub fn even_split(&self, models: usize) -> usize {
        if models == 0 {
            return 0;
        }
        self.limit / models
    }

    /// Plan token leases for one round of `requests`, walked in arm order.
    ///
    /// This is the heart of the parallel round engine's determinism
    /// guarantee. An arm is [`Lease::Granted`] its full request when even
    /// the *pessimistic* simulation — every earlier arm consuming its entire
    /// request, nothing refunded — leaves room for it. Real consumption can
    /// only be lower (a model never produces more than its grant and unused
    /// grant is refunded), so when the lease is committed with
    /// [`TokenBudget::grant`] at the round barrier, in arm order, the grant
    /// is guaranteed to equal the lease no matter what earlier arms actually
    /// did. That lets the arm generate against its lease off-thread while
    /// the accounting still replays bit-for-bit what the sequential path
    /// would have recorded.
    ///
    /// An arm whose request overruns the pessimistic remainder is
    /// [`Lease::Deferred`]: its grant depends on how many tokens earlier
    /// arms really consumed, so it must run against the live budget at the
    /// barrier (still in arm order — deferral affects *where* the arm runs,
    /// never the accounting order).
    pub fn plan_leases(&self, requests: &[usize]) -> Vec<Lease> {
        let mut pessimistic = self.remaining();
        requests
            .iter()
            .map(|&request| {
                let lease = if request <= pessimistic {
                    Lease::Granted(request)
                } else {
                    Lease::Deferred
                };
                pessimistic = pessimistic.saturating_sub(request);
                lease
            })
            .collect()
    }
}

/// One arm's entry in a [`TokenBudget::plan_leases`] plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lease {
    /// The arm may generate against this many tokens off-thread; committing
    /// the lease at the round barrier is guaranteed to grant it in full.
    Granted(usize),
    /// The arm's grant depends on earlier arms' actual consumption; it must
    /// run sequentially at the barrier against the live budget.
    Deferred,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_and_refund_arithmetic() {
        let mut b = TokenBudget::new(100);
        assert_eq!(b.grant(30), 30);
        assert_eq!(b.used(), 30);
        assert_eq!(b.remaining(), 70);
        b.refund(10);
        assert_eq!(b.used(), 20);
        assert!(!b.exhausted());
    }

    #[test]
    fn grant_truncates_at_limit() {
        let mut b = TokenBudget::new(10);
        assert_eq!(b.grant(7), 7);
        assert_eq!(b.grant(7), 3);
        assert_eq!(b.grant(7), 0);
        assert!(b.exhausted());
        assert_eq!(b.consumed_fraction(), 1.0);
    }

    #[test]
    fn refund_saturates_at_zero() {
        let mut b = TokenBudget::new(10);
        b.grant(3);
        b.refund(100);
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn even_split_matches_algorithm_1() {
        let b = TokenBudget::new(2048);
        assert_eq!(b.even_split(3), 682);
        assert_eq!(b.even_split(1), 2048);
        assert_eq!(b.even_split(0), 0);
    }

    #[test]
    fn zero_budget_is_exhausted() {
        let b = TokenBudget::new(0);
        assert!(b.exhausted());
        assert_eq!(b.consumed_fraction(), 1.0);
    }

    #[test]
    fn consumed_fraction_drives_gamma_decay() {
        // The MAB decay γ = 0.3·(1 − used/λmax) consumes this fraction.
        let mut b = TokenBudget::new(200);
        b.grant(50);
        assert!((b.consumed_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn lease_plan_grants_while_pessimistically_covered() {
        let b = TokenBudget::new(20);
        assert_eq!(
            b.plan_leases(&[8, 8, 4]),
            vec![Lease::Granted(8), Lease::Granted(8), Lease::Granted(4)]
        );
    }

    #[test]
    fn lease_plan_defers_past_the_contention_point() {
        let b = TokenBudget::new(20);
        // 8 + 8 = 16 leased; the third request of 8 could overrun if the
        // first two really consume their grants, so it must wait for the
        // live budget.
        assert_eq!(
            b.plan_leases(&[8, 8, 8]),
            vec![Lease::Granted(8), Lease::Granted(8), Lease::Deferred]
        );
    }

    #[test]
    fn lease_plan_saturates_after_a_huge_request() {
        let b = TokenBudget::new(20);
        // The middle request pessimistically swallows the whole remainder,
        // so every later arm is deferred too: their grants depend on how
        // much of that request the model really consumed.
        assert_eq!(
            b.plan_leases(&[4, 30, 2]),
            vec![Lease::Granted(4), Lease::Deferred, Lease::Deferred]
        );
    }

    #[test]
    fn lease_plan_respects_prior_consumption() {
        let mut b = TokenBudget::new(20);
        b.grant(15);
        assert_eq!(
            b.plan_leases(&[4, 4]),
            vec![Lease::Granted(4), Lease::Deferred]
        );
    }

    #[test]
    fn committed_lease_is_always_granted_in_full() {
        // The guarantee the parallel engine rests on: whatever earlier
        // leased arms actually consumed, a planned lease commits exactly.
        let mut b = TokenBudget::new(20);
        let plan = b.plan_leases(&[8, 8, 4]);
        // Arm 0 consumes everything, arm 1 consumes nothing.
        for (lease, consumed) in plan.iter().zip([8usize, 0, 4]) {
            let Lease::Granted(tokens) = *lease else {
                panic!("plan fits pessimistically");
            };
            assert_eq!(b.grant(tokens), tokens, "lease must commit in full");
            b.refund(tokens - consumed);
        }
        assert_eq!(b.used(), 12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Lease/commit must replay the sequential grant/refund protocol
        /// exactly: same per-arm token counts, same final budget state, for
        /// any budget limit and any request/production sequence. Each arm is
        /// `(request, produced)` — the model produces `min(produced, grant)`
        /// tokens and the rest of the grant is refunded, exactly what
        /// `ModelRun::finish_generate` commits.
        #[test]
        fn lease_commit_equals_sequential_grant_refund(
            limit in 0usize..400,
            arms in proptest::collection::vec((0usize..64, 0usize..64), 0..12),
        ) {
            let mut seq = TokenBudget::new(limit);
            let mut seq_tokens = Vec::new();
            for &(request, produced) in &arms {
                let granted = seq.grant(request);
                let tokens = produced.min(granted);
                seq.refund(granted - tokens);
                seq_tokens.push(tokens);
            }

            let mut par = TokenBudget::new(limit);
            let requests: Vec<usize> = arms.iter().map(|&(r, _)| r).collect();
            let plan = par.plan_leases(&requests);
            let mut par_tokens = Vec::new();
            for (&(request, produced), lease) in arms.iter().zip(&plan) {
                match *lease {
                    Lease::Granted(lease) => {
                        prop_assert_eq!(lease, request, "leases are full requests");
                        // Generation already ran off-thread against the
                        // lease; the barrier commit must cover it exactly.
                        let tokens = produced.min(lease);
                        let granted = par.grant(lease);
                        prop_assert_eq!(granted, lease, "planned lease must commit in full");
                        par.refund(granted - tokens);
                        par_tokens.push(tokens);
                    }
                    Lease::Deferred => {
                        // Deferred arms replay the sequential path verbatim.
                        let granted = par.grant(request);
                        let tokens = produced.min(granted);
                        par.refund(granted - tokens);
                        par_tokens.push(tokens);
                    }
                }
            }
            prop_assert_eq!(par_tokens, seq_tokens);
            prop_assert_eq!(par.used(), seq.used());
            prop_assert_eq!(par.remaining(), seq.remaining());
        }
    }
}
