//! Wall-clock deadlines for the round engine.
//!
//! A deadline cannot preempt a model mid-chunk; instead the round engine
//! checks the query's [`Deadline`] between rounds and force-aborts in-flight
//! sessions once it expires. That bounds a stalled or saturated backend to
//! one round's worth of overshoot. The same expiry instant orders the
//! query's tasks in the exec scheduler (earliest deadline first).

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
}
