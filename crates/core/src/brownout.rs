//! Brownout degradation: trade answer quality for survival under overload.
//!
//! When a node saturates, the binary alternatives are "answer at full
//! quality" and "shed with a 503". SelectLLM-style results (arxiv
//! 2408.08545, 2405.16587) show that shrinking the candidate pool keeps
//! most of the ensemble reward at a fraction of the cost — exactly the
//! lever a saturated node should pull *before* it starts rejecting
//! traffic. The [`BrownoutController`] turns a composite pressure signal
//! into a stepwise degradation level:
//!
//! | level | degradation                                                |
//! |-------|------------------------------------------------------------|
//! | 0     | none                                                       |
//! | 1     | arm pool shrunk to a top-k prefix ([`BrownoutConfig::level1_max_arms`]) |
//! | 2     | + rounds capped ([`BrownoutConfig::level2_max_rounds`])    |
//! | 3     | + token budget capped, RAG re-retrieval skipped            |
//!
//! Each level includes everything below it. The controller steps at most
//! one level per observation and holds a level for its dwell time before
//! moving again; entering needs pressure at or above `ENTER_PRESSURE`
//! (0.75), leaving needs it at or below `EXIT_PRESSURE` (0.5) — the gap
//! is the hysteresis band that keeps the controller from flapping at the
//! threshold.

use serde::{Deserialize, Serialize};
use std::sync::Mutex;
use std::time::Instant;

/// The deepest degradation level the ladder defines.
pub const MAX_LEVEL: u8 = 3;

/// Pressure at or above which the controller steps one level deeper.
const ENTER_PRESSURE: f64 = 0.75;

/// Pressure at or below which the controller steps one level back.
const EXIT_PRESSURE: f64 = 0.5;

const _: () = assert!(EXIT_PRESSURE < ENTER_PRESSURE, "the hysteresis band exists");

/// Per-level degradation caps.
///
/// The orchestrator reads them from [`crate::OrchestratorConfig::brownout`],
/// so they deploy with the rest of the orchestration policy; the level they
/// apply at comes from the serving layer's [`BrownoutController`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BrownoutConfig {
    /// Level ≥ 1: the arm pool is cut to its first this-many models.
    #[serde(default = "default_level1_max_arms")]
    pub level1_max_arms: usize,
    /// Level ≥ 2: rounds (OUA) / pulls (MAB) are capped at this.
    #[serde(default = "default_level2_max_rounds")]
    pub level2_max_rounds: usize,
    /// Level ≥ 3: the per-query token budget λ_max is capped at this
    /// (and the platform skips RAG re-retrieval).
    #[serde(default = "default_level3_token_budget")]
    pub level3_token_budget: usize,
}

fn default_level1_max_arms() -> usize {
    2
}

fn default_level2_max_rounds() -> usize {
    4
}

fn default_level3_token_budget() -> usize {
    256
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        Self {
            level1_max_arms: default_level1_max_arms(),
            level2_max_rounds: default_level2_max_rounds(),
            level3_token_budget: default_level3_token_budget(),
        }
    }
}

/// One observation of how loaded the node is, sampled at admission time.
///
/// Each component is normalized so `1.0` means "at the limit"; the
/// composite [`pressure`](PressureInputs::pressure) is the worst of the
/// four, because any single saturated resource is enough to need relief.
#[derive(Debug, Clone, Copy, Default)]
pub struct PressureInputs {
    /// Requests currently being served.
    pub in_flight: usize,
    /// Serving capacity. The server passes its in-flight cap
    /// (`ServerConfig::max_in_flight`) alone, not the dispatch worker
    /// count, although only requests on a worker count as in flight.
    pub capacity: usize,
    /// Connections waiting in the acceptor queue.
    pub queued: usize,
    /// Acceptor queue capacity.
    pub queue_capacity: usize,
    /// Observed p99 request latency, in milliseconds (0 = no data yet).
    pub p99_ms: f64,
    /// The p99 the operator considers healthy, in milliseconds.
    pub target_p99_ms: f64,
    /// Jobs queued (not yet dispatched) on the shared cross-query executor
    /// ([`llmms_exec::queue_depth`]). 0 when the caller does not sample it.
    pub sched_depth: usize,
    /// Executor queue depth that counts as pressure 1.0 (the server passes
    /// 1024). 0 disables the component.
    pub sched_depth_target: usize,
}

impl PressureInputs {
    /// The composite pressure: max of occupancy, queue fill, latency, and
    /// executor-backlog ratios. `>= 1.0` means at least one resource is
    /// saturated.
    pub fn pressure(&self) -> f64 {
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let occupancy = ratio(self.in_flight as f64, self.capacity as f64);
        let queue = ratio(self.queued as f64, self.queue_capacity as f64);
        let latency = ratio(self.p99_ms, self.target_p99_ms);
        let sched = ratio(self.sched_depth as f64, self.sched_depth_target as f64);
        occupancy.max(queue).max(latency).max(sched)
    }
}

struct ControllerState {
    level: u8,
    /// When the controller last changed level (dwell timer).
    changed_at: Instant,
    /// Last observed composite pressure, for `/stats`.
    pressure: f64,
}

/// Hysteretic step controller mapping pressure observations to a brownout
/// level in `0..=`[`MAX_LEVEL`].
///
/// Owned by the serving layer (one per server); [`observe`] is called once
/// per admission-controlled request, [`level`] whenever the current level
/// is needed without advancing the clock.
///
/// [`observe`]: BrownoutController::observe
/// [`level`]: BrownoutController::level
pub struct BrownoutController {
    /// Minimum time at a level before the controller may step again, in
    /// milliseconds. Bounds the flap rate regardless of signal noise.
    min_dwell_ms: u64,
    state: Mutex<ControllerState>,
}

impl BrownoutController {
    /// A controller at level 0 that holds each level for at least
    /// `min_dwell_ms` milliseconds.
    pub fn new(min_dwell_ms: u64) -> Self {
        Self {
            min_dwell_ms,
            state: Mutex::new(ControllerState {
                level: 0,
                changed_at: Instant::now(),
                pressure: 0.0,
            }),
        }
    }

    /// Feed one pressure observation; returns the (possibly updated)
    /// level. Steps at most one level per call, and only after
    /// `min_dwell_ms` at the current level.
    pub fn observe(&self, inputs: PressureInputs) -> u8 {
        let pressure = inputs.pressure();
        let mut state = self.state.lock().expect("brownout state poisoned");
        state.pressure = pressure;
        let dwelled = state.changed_at.elapsed().as_millis() as u64 >= self.min_dwell_ms;
        let level = state.level;
        let next = if pressure >= ENTER_PRESSURE && level < MAX_LEVEL && dwelled {
            level + 1
        } else if pressure <= EXIT_PRESSURE && level > 0 && dwelled {
            level - 1
        } else {
            level
        };
        if next != level {
            state.level = next;
            state.changed_at = Instant::now();
            let registry = llmms_obs::Registry::global();
            if registry.enabled() {
                let direction = if next > level { "deeper" } else { "recover" };
                registry
                    .counter_with("brownout_transitions_total", &[("direction", direction)])
                    .metric
                    .inc();
            }
        }
        let registry = llmms_obs::Registry::global();
        if registry.enabled() {
            registry.gauge("brownout_level").metric.set(i64::from(next));
            registry
                .gauge("overload_pressure_x1000")
                .metric
                .set((pressure * 1000.0) as i64);
        }
        next
    }

    /// The current level, without feeding an observation.
    pub fn level(&self) -> u8 {
        self.state.lock().expect("brownout state poisoned").level
    }

    /// The last observed composite pressure.
    pub fn pressure(&self) -> f64 {
        self.state.lock().expect("brownout state poisoned").pressure
    }

    #[cfg(test)]
    fn force_dwell_elapsed(&self) {
        let mut state = self.state.lock().unwrap();
        state.changed_at = Instant::now()
            - std::time::Duration::from_millis(self.min_dwell_ms.saturating_mul(2).max(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pressure_of(p: f64) -> PressureInputs {
        // Express a target pressure purely through the latency component.
        PressureInputs {
            in_flight: 0,
            capacity: 8,
            queued: 0,
            queue_capacity: 64,
            p99_ms: p * 1000.0,
            target_p99_ms: 1000.0,
            ..PressureInputs::default()
        }
    }

    fn controller() -> BrownoutController {
        BrownoutController::new(0)
    }

    #[test]
    fn pressure_is_the_worst_component() {
        let p = PressureInputs {
            in_flight: 4,
            capacity: 8,
            queued: 60,
            queue_capacity: 64,
            p99_ms: 100.0,
            target_p99_ms: 1000.0,
            ..PressureInputs::default()
        };
        assert!((p.pressure() - 60.0 / 64.0).abs() < 1e-9);
    }

    #[test]
    fn zero_capacity_components_do_not_divide_by_zero() {
        let p = PressureInputs::default();
        assert_eq!(p.pressure(), 0.0);
    }

    #[test]
    fn steps_one_level_at_a_time() {
        let c = controller();
        assert_eq!(c.observe(pressure_of(0.9)), 1);
        assert_eq!(c.observe(pressure_of(0.9)), 2);
        assert_eq!(c.observe(pressure_of(0.9)), 3);
        assert_eq!(c.observe(pressure_of(0.9)), 3, "clamped at MAX_LEVEL");
        assert_eq!(c.observe(pressure_of(0.1)), 2);
        assert_eq!(c.observe(pressure_of(0.1)), 1);
        assert_eq!(c.observe(pressure_of(0.1)), 0);
        assert_eq!(c.observe(pressure_of(0.1)), 0, "clamped at zero");
    }

    #[test]
    fn hysteresis_band_holds_the_level() {
        let c = controller();
        assert_eq!(c.observe(pressure_of(0.9)), 1);
        // Between exit (0.5) and enter (0.75): no movement either way.
        assert_eq!(c.observe(pressure_of(0.6)), 1);
        assert_eq!(c.observe(pressure_of(0.74)), 1);
        assert_eq!(c.observe(pressure_of(0.51)), 1);
    }

    #[test]
    fn dwell_time_gates_every_step() {
        let c = BrownoutController::new(60_000);
        // A fresh controller has not dwelled at level 0 yet.
        assert_eq!(c.observe(pressure_of(2.0)), 0);
        c.force_dwell_elapsed();
        assert_eq!(c.observe(pressure_of(2.0)), 1);
        // Just stepped: dwell timer reset, no further movement.
        assert_eq!(c.observe(pressure_of(2.0)), 1);
        c.force_dwell_elapsed();
        assert_eq!(c.observe(pressure_of(2.0)), 2);
    }

    #[test]
    fn recovery_also_respects_dwell() {
        let c = BrownoutController::new(60_000);
        c.force_dwell_elapsed();
        assert_eq!(c.observe(pressure_of(2.0)), 1);
        assert_eq!(
            c.observe(pressure_of(0.0)),
            1,
            "must dwell before recovering"
        );
        c.force_dwell_elapsed();
        assert_eq!(c.observe(pressure_of(0.0)), 0);
    }

    #[test]
    fn level_and_pressure_accessors_report_last_observation() {
        let c = controller();
        c.observe(pressure_of(0.9));
        assert_eq!(c.level(), 1);
        assert!((c.pressure() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn config_serde_defaults() {
        let c: BrownoutConfig = serde_json::from_str("{}").unwrap();
        assert_eq!(c, BrownoutConfig::default());
    }
}
