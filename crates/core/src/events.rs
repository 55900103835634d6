//! Orchestration event trace — the "transparent orchestration logs" the
//! thesis lists as an extension (§9.5: "We asked Model A first, it got 60%
//! confidence; then we asked Model B ...") and the feed behind the UI's
//! model-routing overlay (§7.3).
//!
//! Every recorded event carries a monotonic elapsed-time stamp relative to
//! the start of the orchestration. A live [`EventSink`] additionally sees
//! each event the moment it is emitted: the server's sink writes it to the
//! client as an SSE frame on the thread running the orchestration.

use std::time::Instant;

use llmms_models::DoneReason;
use serde::{Deserialize, Serialize};

/// One event in an orchestration run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OrchestrationEvent {
    /// A round began (a MAB pull is a round).
    RoundStarted {
        /// 1-based round/pull counter.
        round: usize,
    },
    /// A model produced a chunk of tokens.
    ModelChunk {
        /// Model name.
        model: String,
        /// Chunk text.
        text: String,
        /// Tokens in this chunk.
        tokens: usize,
        /// Done reason if the model finished with this chunk.
        done: Option<DoneReason>,
    },
    /// Scores were recomputed after a round.
    ScoresUpdated {
        /// `(model, Eq. 6.1 score)` pairs, in pool order.
        scores: Vec<(String, f64)>,
    },
    /// A policy pruned a model (OUA's worst, or a hybrid probe laggard).
    ModelPruned {
        /// The pruned model.
        model: String,
        /// Its score at pruning time.
        score: f64,
        /// The second-worst score that triggered the margin.
        second_worst: f64,
    },
    /// OUA found an early winner (margin + natural stop).
    EarlyWinner {
        /// The winning model.
        model: String,
        /// Its score.
        score: f64,
    },
    /// The global token budget ran out.
    BudgetExhausted {
        /// Tokens consumed (equals the budget limit).
        used: usize,
    },
    /// A model's backend failed terminally (fatal error, exhausted retries,
    /// stall, or an open circuit breaker). The run continues with the
    /// survivors.
    ModelFailed {
        /// The failed model.
        model: String,
        /// Human-readable failure reason.
        error: String,
    },
    /// A wall-clock deadline expired and the run was force-ended.
    DeadlineExceeded {
        /// `"round"` or `"query"`.
        scope: String,
        /// Milliseconds elapsed when the deadline fired.
        elapsed_ms: u64,
    },
    /// The run finished.
    Finished {
        /// Model whose response was selected.
        winner: String,
        /// Total tokens consumed across all models.
        total_tokens: usize,
    },
}

/// An [`OrchestrationEvent`] stamped with the monotonic time at which it was
/// recorded, in microseconds since the orchestration started.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimedEvent {
    /// Microseconds since the recorder was created.
    pub elapsed_us: u64,
    /// The event itself.
    pub event: OrchestrationEvent,
}

/// Where a recorder forwards each event live, as it happens: the
/// application layer's SSE feed, or a channel. The recorder hands over a
/// borrow, so a sink that serializes the event on the spot copies nothing.
pub trait EventSink {
    /// Deliver `event`; `false` once the receiver is gone, after which the
    /// recorder drops the sink and never calls it again.
    fn send(&mut self, event: &OrchestrationEvent) -> bool;

    /// This sink as the trait object a recorder holds. A sink that already
    /// is one passes through, so handing a boxed sink down the
    /// platform → orchestrator → recorder layers allocates once.
    fn into_boxed(self) -> Box<dyn EventSink>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

impl EventSink for crossbeam_channel::Sender<OrchestrationEvent> {
    fn send(&mut self, event: &OrchestrationEvent) -> bool {
        crossbeam_channel::Sender::send(self, event.clone()).is_ok()
    }
}

impl EventSink for Box<dyn EventSink> {
    fn send(&mut self, event: &OrchestrationEvent) -> bool {
        (**self).send(event)
    }

    fn into_boxed(self) -> Box<dyn EventSink> {
        self
    }
}

/// Collects stamped events when enabled and optionally forwards each raw
/// event to a live [`EventSink`]. A fully disabled recorder is free.
pub struct EventRecorder {
    enabled: bool,
    start: Option<Instant>,
    events: Vec<TimedEvent>,
    sink: Option<Box<dyn EventSink>>,
}

impl EventRecorder {
    /// A recorder that stores events only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            start: None,
            events: Vec::new(),
            sink: None,
        }
    }

    /// A recorder that additionally hands every event to `sink` as it
    /// happens (the server writes each one out as an SSE frame while the
    /// orchestration is still running). On the first `false` the sink is
    /// dropped, so later events skip it entirely — a closed SSE connection
    /// must not slow down or abort the query.
    pub fn with_sink(enabled: bool, sink: impl EventSink + 'static) -> Self {
        Self {
            sink: Some(sink.into_boxed()),
            ..Self::new(enabled)
        }
    }

    /// Whether the next [`EventRecorder::emit`] would observe the event.
    #[inline]
    pub fn is_observing(&self) -> bool {
        self.enabled || self.sink.is_some()
    }

    /// Microseconds since the first recorded event (the stamp the next
    /// event would get). The clock starts lazily on the first emit so
    /// recorder construction stays free.
    fn stamp(&mut self) -> u64 {
        let start = *self.start.get_or_insert_with(Instant::now);
        start.elapsed().as_micros() as u64
    }

    /// Record `event` (no-op when disabled and no sink is attached).
    pub fn emit(&mut self, event: OrchestrationEvent) {
        if let Some(sink) = &mut self.sink {
            if !sink.send(&event) {
                // Receiver gone: drop the sink so subsequent events skip it.
                self.sink = None;
            }
        }
        if self.enabled {
            let elapsed_us = self.stamp();
            self.events.push(TimedEvent { elapsed_us, event });
        }
    }

    /// Like [`EventRecorder::emit`] but the event is only built when it
    /// would be observed — keeps hot loops allocation-free when disabled.
    pub fn emit_with(&mut self, f: impl FnOnce() -> OrchestrationEvent) {
        if self.is_observing() {
            self.emit(f());
        }
    }

    /// Consume the recorder, returning the stamped trace.
    pub fn into_events(self) -> Vec<TimedEvent> {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_stores_nothing() {
        let mut r = EventRecorder::new(false);
        r.emit(OrchestrationEvent::RoundStarted { round: 1 });
        r.emit_with(|| panic!("closure must not run when disabled"));
        assert!(r.into_events().is_empty());
    }

    #[test]
    fn enabled_recorder_stores_in_order() {
        let mut r = EventRecorder::new(true);
        r.emit(OrchestrationEvent::RoundStarted { round: 1 });
        r.emit_with(|| OrchestrationEvent::BudgetExhausted { used: 10 });
        let events = r.into_events();
        assert_eq!(events.len(), 2);
        assert!(matches!(
            events[0].event,
            OrchestrationEvent::RoundStarted { round: 1 }
        ));
        assert!(matches!(
            events[1].event,
            OrchestrationEvent::BudgetExhausted { used: 10 }
        ));
    }

    #[test]
    fn stamps_are_monotonic() {
        let mut r = EventRecorder::new(true);
        for round in 1..=50 {
            r.emit(OrchestrationEvent::RoundStarted { round });
        }
        let events = r.into_events();
        for w in events.windows(2) {
            assert!(w[0].elapsed_us <= w[1].elapsed_us);
        }
    }

    #[test]
    fn events_serialize() {
        let e = OrchestrationEvent::ModelPruned {
            model: "llama3-8b".into(),
            score: 0.21,
            second_worst: 0.8,
        };
        let json = serde_json::to_string(&e).unwrap();
        let back: OrchestrationEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn failure_events_serialize() {
        for e in [
            OrchestrationEvent::ModelFailed {
                model: "m".into(),
                error: "stalled".into(),
            },
            OrchestrationEvent::DeadlineExceeded {
                scope: "query".into(),
                elapsed_ms: 12,
            },
        ] {
            let json = serde_json::to_string(&e).unwrap();
            let back: OrchestrationEvent = serde_json::from_str(&json).unwrap();
            assert_eq!(back, e);
        }
    }

    #[test]
    fn timed_events_serialize() {
        let t = TimedEvent {
            elapsed_us: 1234,
            event: OrchestrationEvent::Finished {
                winner: "m".into(),
                total_tokens: 9,
            },
        };
        let json = serde_json::to_string(&t).unwrap();
        assert!(json.contains("\"elapsed_us\":1234"), "{json}");
        let back: TimedEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn sink_dropped_after_first_send_failure() {
        let (tx, rx) = crossbeam_channel::unbounded();
        let mut r = EventRecorder::with_sink(false, tx);
        r.emit(OrchestrationEvent::RoundStarted { round: 1 });
        assert!(r.is_observing());
        drop(rx);
        // First failed send drops the sink...
        r.emit(OrchestrationEvent::RoundStarted { round: 2 });
        // ...so the recorder stops observing entirely.
        assert!(!r.is_observing());
        r.emit_with(|| panic!("closure must not run once the sink is gone"));
    }
}
