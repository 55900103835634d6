//! Wall-clock deadlines for the round engine, plus the ambient per-query
//! deadline that downstream layers (federation clients, RAG) consult to
//! learn how much budget is left.
//!
//! A deadline cannot preempt a model mid-chunk; instead the round engine
//! checks the query's [`Deadline`] between rounds and force-aborts in-flight
//! sessions once it expires. That bounds a stalled or saturated backend to
//! one round's worth of overshoot.
//!
//! The *ambient* deadline is a thread-local expiry instant installed by the
//! orchestrator for the duration of a query (mirroring
//! `llmms_obs::trace::set_current`). Model adapters that fan out over the
//! network — [`RemoteModel`](https://docs.rs/llmms-server) most notably —
//! read [`remaining_ms`] at call time and forward only the budget that is
//! actually left, so a federation peer never works past its caller's
//! deadline.

use std::cell::Cell;
use std::time::{Duration, Instant};

/// A wall-clock budget started at construction. `None` means unlimited.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    start: Instant,
    limit: Option<Duration>,
}

impl Deadline {
    /// Start a deadline of `ms` milliseconds (`None` = unlimited).
    pub fn new(ms: Option<u64>) -> Self {
        Self {
            start: Instant::now(),
            limit: ms.map(Duration::from_millis),
        }
    }

    /// Whether the budget has been spent.
    pub fn exceeded(&self) -> bool {
        self.limit.is_some_and(|l| self.start.elapsed() >= l)
    }

    /// Milliseconds elapsed since the deadline started.
    pub fn elapsed_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    /// The instant the budget runs out (`None` = unlimited).
    pub fn expires_at(&self) -> Option<Instant> {
        self.limit.map(|l| self.start + l)
    }
}

thread_local! {
    /// The expiry instant of the query currently executing on this thread.
    static AMBIENT: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Install `expires_at` as this thread's ambient query deadline for the
/// guard's lifetime; the previous value (usually `None`) is restored on
/// drop, so nested scopes compose. Passing `None` clears the deadline.
pub fn scope(expires_at: Option<Instant>) -> ScopeGuard {
    let previous = AMBIENT.with(|c| c.replace(expires_at));
    ScopeGuard { previous }
}

/// Restores the previously ambient deadline on drop.
pub struct ScopeGuard {
    previous: Option<Instant>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        AMBIENT.with(|c| c.set(self.previous));
    }
}

/// Milliseconds left on the ambient deadline. `None` means no deadline is
/// in scope; `Some(0)` means it has already expired (callers should give
/// up rather than start new work).
pub fn remaining_ms() -> Option<u64> {
    AMBIENT.with(|c| c.get()).map(|expires| {
        expires
            .saturating_duration_since(Instant::now())
            .as_millis() as u64
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_expires() {
        let d = Deadline::new(None);
        std::thread::sleep(Duration::from_millis(2));
        assert!(!d.exceeded());
        assert_eq!(d.expires_at(), None);
    }

    #[test]
    fn zero_budget_expires_immediately() {
        let d = Deadline::new(Some(0));
        assert!(d.exceeded());
    }

    #[test]
    fn expires_after_the_budget() {
        let d = Deadline::new(Some(5));
        assert!(!d.exceeded());
        std::thread::sleep(Duration::from_millis(10));
        assert!(d.exceeded());
        assert!(d.elapsed_ms() >= 5);
    }

    #[test]
    fn ambient_deadline_counts_down_and_restores() {
        assert_eq!(remaining_ms(), None, "no ambient deadline outside a scope");
        let d = Deadline::new(Some(1000));
        {
            let _guard = scope(d.expires_at());
            let first = remaining_ms().expect("deadline in scope");
            assert!(first <= 1000);
            std::thread::sleep(Duration::from_millis(5));
            let later = remaining_ms().expect("still in scope");
            assert!(
                later < first,
                "remaining budget must shrink: {first} -> {later}"
            );
        }
        assert_eq!(remaining_ms(), None, "scope guard restores");
    }

    #[test]
    fn expired_ambient_deadline_reports_zero() {
        let _guard = scope(Some(Instant::now() - Duration::from_millis(1)));
        assert_eq!(remaining_ms(), Some(0));
    }

    #[test]
    fn nested_scopes_restore_the_outer_deadline() {
        let outer = Instant::now() + Duration::from_secs(60);
        let _g1 = scope(Some(outer));
        {
            let _g2 = scope(Some(Instant::now() + Duration::from_secs(1)));
            assert!(remaining_ms().unwrap() <= 1000);
        }
        assert!(remaining_ms().unwrap() > 30_000, "outer scope restored");
    }
}
