//! Orchestration event trace — the "transparent orchestration logs" the
//! thesis lists as an extension (§9.5: "We asked Model A first, it got 60%
//! confidence; then we asked Model B ...") and the feed behind the UI's
//! model-routing overlay (§7.3).
//!
//! Every recorded event carries a monotonic elapsed-time stamp relative to
//! the start of the orchestration, and the recorder can mirror the stamped
//! trace to a JSON-lines sink for offline replay.

use std::io::Write;
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

/// Collects stamped events when enabled, optionally forwards each raw event
/// to a live channel (the application layer's SSE feed), and optionally
/// mirrors the stamped trace as JSON lines into a writer for offline
/// replay. A fully disabled recorder is free.
#[derive(Default)]
pub struct EventRecorder {
    enabled: bool,
    start: Option<Instant>,
    events: Vec<TimedEvent>,
    sink: Option<crossbeam_channel::Sender<OrchestrationEvent>>,
    trace: Option<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for EventRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRecorder")
            .field("enabled", &self.enabled)
            .field("events", &self.events)
            .field("sink", &self.sink.is_some())
            .field("trace", &self.trace.is_some())
            .finish()
    }
}

impl EventRecorder {
    /// A recorder that stores events only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            start: None,
            events: Vec::new(),
            sink: None,
            trace: None,
        }
    }

    /// A recorder that additionally streams every event into `sink` as it
    /// happens (used by the server to forward chunks over SSE while the
    /// orchestration is still running). On the first send failure (receiver
    /// hung up) the sink is dropped, so later events skip the clone + send
    /// entirely — a closed SSE connection must not slow down or abort the
    /// query.
    pub fn with_sink(enabled: bool, sink: crossbeam_channel::Sender<OrchestrationEvent>) -> Self {
        Self {
            enabled,
            start: None,
            events: Vec::new(),
            sink: Some(sink),
            trace: None,
        }
    }

    /// Additionally mirror every stamped event as one JSON line into
    /// `trace` (the offline-replay trace sink). Failed writes drop the
    /// event from the sink (the orchestration must not abort on a sick
    /// disk) but are counted in `trace_events_dropped_total`.
    pub fn with_trace(mut self, trace: Box<dyn Write + Send>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Count one event that failed to reach the trace sink.
    fn note_trace_drop() {
        let registry = llmms_obs::Registry::global();
        if registry.enabled() {
            registry.counter("trace_events_dropped_total").metric.inc();
        }
    }

    /// Whether the next [`EventRecorder::emit`] would observe the event.
    #[inline]
    pub fn is_observing(&self) -> bool {
        self.enabled || self.sink.is_some() || self.trace.is_some()
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
        if let Some(sink) = &self.sink {
            if sink.send(event.clone()).is_err() {
                // Receiver hung up: drop the sink so subsequent events skip
                // the clone and the failed send.
                self.sink = None;
            }
        }
        if self.enabled || self.trace.is_some() {
            let timed = TimedEvent {
                elapsed_us: self.stamp(),
                event,
            };
            if let Some(trace) = &mut self.trace {
                match serde_json::to_string(&timed) {
                    Ok(line) => {
                        if writeln!(trace, "{line}").is_err() {
                            Self::note_trace_drop();
                        }
                    }
                    Err(_) => Self::note_trace_drop(),
                }
            }
            if self.enabled {
                self.events.push(timed);
            }
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
    pub fn into_events(mut self) -> Vec<TimedEvent> {
        if let Some(trace) = &mut self.trace {
            if trace.flush().is_err() {
                Self::note_trace_drop();
            }
        }
        std::mem::take(&mut self.events)
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

    #[test]
    fn failed_trace_writes_are_counted_not_fatal() {
        struct BrokenSink;
        impl Write for BrokenSink {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Err(std::io::Error::other("disk full"))
            }
        }

        let registry = llmms_obs::Registry::global();
        let before = registry
            .snapshot()
            .counter_value("trace_events_dropped_total", &[]);
        let mut r = EventRecorder::new(true).with_trace(Box::new(BrokenSink));
        r.emit(OrchestrationEvent::RoundStarted { round: 1 });
        r.emit(OrchestrationEvent::RoundStarted { round: 2 });
        // In-memory recording is unaffected by the sick sink.
        let events = r.into_events();
        assert_eq!(events.len(), 2);
        let after = registry
            .snapshot()
            .counter_value("trace_events_dropped_total", &[]);
        // Two failed writes plus the failed flush.
        assert_eq!(after - before, 3);
    }

    #[test]
    fn trace_sink_writes_json_lines() {
        use std::sync::{Arc, Mutex};

        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let buf = Shared(Arc::new(Mutex::new(Vec::new())));
        let mut r = EventRecorder::new(true).with_trace(Box::new(buf.clone()));
        r.emit(OrchestrationEvent::RoundStarted { round: 1 });
        r.emit(OrchestrationEvent::Finished {
            winner: "m".into(),
            total_tokens: 2,
        });
        let events = r.into_events();
        assert_eq!(events.len(), 2);

        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for (line, event) in lines.iter().zip(&events) {
            let parsed: TimedEvent = serde_json::from_str(line).unwrap();
            assert_eq!(&parsed, event);
        }
    }
}
