//! The reference implementation the equivalence suite compares against,
//! selected per thread for the duration of a scope. Test builds only.
//!
//! Exactly two places consult it: [`crate::runpool::generate_round`] (run
//! every target arm by arm through [`ModelRun::generate`]) and
//! [`crate::engine::Arms::score_where`] (embed every response from scratch
//! and score with [`crate::reward::score_all`]). The policies never see it.

use crate::budget::TokenBudget;
use crate::runpool::ModelRun;
use llmms_embed::SharedEmbedder;
use llmms_models::{Chunk, DoneReason};
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

impl ModelRun {
    /// The arm-by-arm reference step: grant up to `requested` tokens from
    /// the live budget, drive the session with the run's retry policy,
    /// commit the chunk, and end in the same
    /// [`crate::runpool::EmbedState::fold`] a job ends in. It writes out the
    /// retry loop and the commit itself instead of calling the production
    /// step (`begin_generate` → `GenJob::compute` → `finish_generate`),
    /// and it is untraced and has no panic containment, so the equivalence
    /// suite's bit-identical comparison keeps an independent sequential
    /// leg.
    pub(crate) fn generate(
        &mut self,
        requested: usize,
        budget: &mut TokenBudget,
        embedder: &SharedEmbedder,
    ) -> Chunk {
        if self.failed {
            return Chunk::finished(DoneReason::Failed);
        }
        let granted = budget.grant(requested);
        if granted == 0 {
            return Chunk {
                text: String::new(),
                tokens: 0,
                done: self.done(),
            };
        }
        let mut attempt = 0u32;
        let outcome = loop {
            match self.session.next_chunk(granted) {
                Err(e) if e.is_transient() && attempt < self.policy.max_retries => {
                    attempt += 1;
                    self.retries += 1;
                    self.backoff += self.policy.backoff_delay(attempt);
                }
                outcome => break outcome,
            }
        };
        self.embed.fold(self.session.response_so_far(), embedder);
        let chunk = match outcome {
            Ok(chunk) => chunk,
            Err(e) => {
                budget.refund(granted);
                let kind = if e.is_transient() {
                    "retries_exhausted"
                } else {
                    "fatal"
                };
                self.fail(kind, e.to_string());
                return Chunk::finished(DoneReason::Failed);
            }
        };
        budget.refund(granted - chunk.tokens);
        if chunk.tokens > 0 {
            self.rounds += 1;
            self.stalls = 0;
        } else if chunk.done.is_none() {
            self.stalls += 1;
            if self.stalls >= self.policy.stall_limit {
                self.fail(
                    "stall",
                    format!("stalled: {} consecutive empty chunks", self.stalls),
                );
                return Chunk::finished(DoneReason::Failed);
            }
        }
        if matches!(
            chunk.done,
            Some(DoneReason::Stop) | Some(DoneReason::Length)
        ) {
            self.report_success();
        }
        chunk
    }
}
