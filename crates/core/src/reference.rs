//! The reference implementation the equivalence suite compares against,
//! selected per thread for the duration of a scope (the same shape as the
//! ambient deadline in [`crate::deadline`]). Test builds only.
//!
//! Exactly two places consult it: [`crate::runpool::generate_round`] (run
//! every target inline, arm by arm) and [`crate::scoring::score_where`]
//! (embed every response from scratch and score with
//! [`crate::reward::score_all`]). The policies never see it.

use std::cell::Cell;

/// Which reference legs are in force on this thread.
#[derive(Clone, Copy)]
pub(crate) struct Reference {
    /// Generate a round's targets one at a time on the calling thread.
    pub inline_rounds: bool,
    /// Score from scratch instead of through the `ScoreCache`.
    pub scratch_scoring: bool,
}

thread_local! {
    static AMBIENT: Cell<Reference> = const {
        Cell::new(Reference { inline_rounds: false, scratch_scoring: false })
    };
}

/// Put `reference` in force on this thread until the guard drops; the
/// previous value is restored, so scopes nest.
pub(crate) fn scope(reference: Reference) -> ScopeGuard {
    ScopeGuard {
        previous: AMBIENT.with(|c| c.replace(reference)),
    }
}

/// Restores the previously ambient reference selection on drop.
pub(crate) struct ScopeGuard {
    previous: Reference,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        AMBIENT.with(|c| c.set(self.previous));
    }
}

/// The reference selection in force on this thread.
pub(crate) fn current() -> Reference {
    AMBIENT.with(Cell::get)
}
