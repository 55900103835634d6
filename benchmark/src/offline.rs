//! `eval_offline`: the §8 evaluation in-process — every execution mode over
//! every dataset item, pass after pass, on one thread.
//!
//! `llmms_eval::run_eval` is the oracle: set-up runs it once and every
//! measured pass must reproduce its per-mode aggregates. The measured passes
//! make the same calls themselves (`Orchestrator::run`, `score_query`) so
//! that each query can be timed, which `run_eval` does not expose.

use crate::child::{machine_jiffies, proc_cpu_ms, proc_peak_rss_mb};
use crate::gen;
use crate::stats::{median, percentile};
use crate::trace;
use crate::workloads::{calibration_probe, Metrics, RunResult};
use llmms::core::{Orchestrator, OrchestratorConfig, OuaConfig, Strategy};
use llmms::eval::{
    default_modes, run_eval, score_query, Dataset, EvalEnvironment, EvalMode, EvalReport,
    HarnessConfig,
};
use llmms::models::{
    Chunk, GenOptions, GenerationSession, LanguageModel, ModelError, ModelInfo, SharedModel,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// EXPERIMENTS.md, Figures 8.1–8.3, row "LLM-MS OUA".
const PAPER_OUA_REWARD: f64 = 0.6464;
const PAPER_OUA_F1: f64 = 0.6920;

/// Passes run in set-up after the oracle, so that the executor's workers
/// and the allocator have settled before timing starts.
const WARMUP_PASSES: usize = 4;

/// Notes when any model of the pool first returned a chunk for the current
/// query: time to first token, taken where tokens are made.
struct FirstChunk {
    epoch: Instant,
    /// Nanoseconds after `epoch`; 0 = none yet for this query.
    at_ns: AtomicU64,
}

struct Probed {
    inner: SharedModel,
    first: Arc<FirstChunk>,
}

struct ProbedSession {
    inner: Box<dyn GenerationSession>,
    first: Arc<FirstChunk>,
}

impl LanguageModel for Probed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn info(&self) -> ModelInfo {
        self.inner.info()
    }

    fn start(&self, prompt: &str, options: &GenOptions) -> Box<dyn GenerationSession> {
        Box::new(ProbedSession {
            inner: self.inner.start(prompt, options),
            first: Arc::clone(&self.first),
        })
    }
}

impl GenerationSession for ProbedSession {
    fn next_chunk(&mut self, max_tokens: usize) -> Result<Chunk, ModelError> {
        let chunk = self.inner.next_chunk(max_tokens);
        if self.first.at_ns.load(Ordering::Relaxed) == 0 {
            let now = self.first.epoch.elapsed().as_nanos() as u64;
            // Relaxed: the value is a timestamp read after the query has
            // returned; it publishes no other data.
            let _ = self.first.at_ns.compare_exchange(
                0,
                now.max(1),
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
        chunk
    }

    fn tokens_generated(&self) -> usize {
        self.inner.tokens_generated()
    }

    fn response_so_far(&self) -> &str {
        self.inner.response_so_far()
    }

    fn done_reason(&self) -> Option<llmms::models::DoneReason> {
        self.inner.done_reason()
    }

    fn simulated_latency(&self) -> Duration {
        self.inner.simulated_latency()
    }

    fn abort(&mut self) {
        self.inner.abort();
    }
}

/// One mode's orchestrator and pool, ready to answer.
struct Lane {
    label: String,
    orchestrated: bool,
    orchestrator: Orchestrator,
    pool: Vec<SharedModel>,
}

struct Bench {
    dataset: Dataset,
    env: EvalEnvironment,
    config: HarnessConfig,
    lanes: Vec<Lane>,
    first: Arc<FirstChunk>,
    oracle: EvalReport,
    oracle_ms: f64,
}

/// Per-mode sums of one pass.
#[derive(Default, Clone)]
struct ModeSums {
    reward: f64,
    f1: f64,
    total_tokens: f64,
}

#[derive(Default)]
struct Pass {
    modes: Vec<ModeSums>,
    /// Latency and time to first token of the orchestrated (OUA, MAB)
    /// queries; the single-model lanes are the paper's baselines.
    latency_ms: Vec<f64>,
    ttft_ms: Vec<f64>,
    queries: usize,
}

fn set_up(seed: u64) -> Result<Bench, String> {
    let dataset = gen::question_pool(seed);
    let config = HarnessConfig::default();
    let oracle_start = Instant::now();
    let oracle = run_eval(&dataset, &config).map_err(|e| e.to_string())?;
    let oracle_ms = oracle_start.elapsed().as_secs_f64() * 1e3;
    let env = EvalEnvironment::new(&dataset).map_err(|e| e.to_string())?;
    let first = Arc::new(FirstChunk {
        epoch: Instant::now(),
        at_ns: AtomicU64::new(0),
    });
    let probed = |model: &SharedModel| -> SharedModel {
        Arc::new(Probed {
            inner: Arc::clone(model),
            first: Arc::clone(&first),
        })
    };
    let mut lanes = Vec::new();
    for mode in default_modes() {
        let (strategy, pool, orchestrated) = match &mode {
            EvalMode::Single(name) => {
                let model = env.registry.get(name).map_err(|e| e.to_string())?;
                (Strategy::Single, vec![probed(&model)], false)
            }
            EvalMode::Oua(cfg) => (
                Strategy::Oua(cfg.clone()),
                env.models.iter().map(probed).collect(),
                true,
            ),
            EvalMode::Mab(cfg) => (
                Strategy::Mab(cfg.clone()),
                env.models.iter().map(probed).collect(),
                true,
            ),
            other => return Err(format!("unexpected default mode {other:?}")),
        };
        lanes.push(Lane {
            label: mode.label(),
            orchestrated,
            orchestrator: Orchestrator::new(
                Arc::clone(&env.embedder),
                OrchestratorConfig::builder()
                    .token_budget(config.token_budget)
                    .strategy(strategy)
                    .temperature(config.temperature)
                    .seed(config.seed)
                    .build(),
            ),
            pool,
        });
    }
    let bench = Bench {
        dataset,
        env,
        config,
        lanes,
        first,
        oracle,
        oracle_ms,
    };
    for _ in 0..WARMUP_PASSES {
        let pass = bench.pass()?;
        bench.check(&pass)?;
    }
    Ok(bench)
}

impl Bench {
    fn pass(&self) -> Result<Pass, String> {
        let mut pass = Pass::default();
        for lane in &self.lanes {
            let mut sums = ModeSums::default();
            for item in &self.dataset.items {
                self.first.at_ns.store(0, Ordering::Relaxed);
                let begin = self.first.epoch.elapsed();
                let result = lane
                    .orchestrator
                    .run(&lane.pool, &item.question)
                    .map_err(|e| format!("{}: {e}", lane.label))?;
                let end = self.first.epoch.elapsed();
                if lane.orchestrated {
                    let first_ns = self.first.at_ns.load(Ordering::Relaxed);
                    pass.latency_ms.push((end - begin).as_secs_f64() * 1e3);
                    pass.ttft_ms.push(
                        Duration::from_nanos(first_ns)
                            .saturating_sub(begin)
                            .as_secs_f64()
                            * 1e3,
                    );
                }
                if result.response().trim().is_empty() {
                    return Err(format!(
                        "{}: empty answer to {:?}",
                        lane.label, item.question
                    ));
                }
                let m = score_query(
                    result.response(),
                    result.best_outcome().tokens,
                    result.total_tokens,
                    item,
                    &self.env.embedder,
                    &self.config.reward_weights,
                );
                sums.reward += m.reward;
                sums.f1 += m.f1;
                sums.total_tokens += m.total_tokens as f64;
                pass.queries += 1;
            }
            pass.modes.push(sums);
        }
        Ok(pass)
    }

    /// Every mode's averages must equal the oracle's, to rounding (the two
    /// sum the same numbers in the same order).
    fn check(&self, pass: &Pass) -> Result<(), String> {
        let n = self.dataset.items.len() as f64;
        for (lane, sums) in self.lanes.iter().zip(&pass.modes) {
            let want = self
                .oracle
                .mode(&lane.label)
                .ok_or_else(|| format!("oracle has no mode {}", lane.label))?;
            for (what, got, want) in [
                ("reward", sums.reward / n, want.avg_reward),
                ("F1", sums.f1 / n, want.avg_f1),
                ("total tokens", sums.total_tokens / n, want.avg_total_tokens),
            ] {
                if (got - want).abs() > 1e-9 {
                    return Err(format!(
                        "{}: avg {what} {got} differs from run_eval's {want}",
                        lane.label
                    ));
                }
            }
        }
        Ok(())
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<RunResult, String> {
    // Set-up is short here, so it is repeated and the median reported.
    let mut setup_s = Vec::new();
    let mut bench = None;
    for _ in 0..3 {
        drop(bench.take());
        let start = Instant::now();
        bench = Some(set_up(seed)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let bench = bench.expect("set up three times");

    let calib_before = calibration_probe();
    let (steal0, total0) = machine_jiffies();
    let cpu0 = proc_cpu_ms("/proc/self/stat");
    let start = Instant::now();
    let limit = Duration::from_secs_f64(seconds);

    let mut notes = Vec::new();
    let mut correct = true;
    // One pass is this workload's window: each percentile is taken inside a
    // pass and the median over the passes is reported, so a disturbed pass
    // does not move the result.
    let (mut latency_p50, mut latency_p90, mut ttft_p50, mut ttft_p90) =
        (vec![], vec![], vec![], vec![]);
    let (mut latency_p99, mut pass_ms, mut pass_rate) = (vec![], vec![], vec![]);
    let mut queries = 0usize;
    let mut failed = 0u64;
    let mut last = None;
    while start.elapsed() < limit {
        let pass_start = Instant::now();
        let pass = bench.pass()?;
        let pass_s = pass_start.elapsed().as_secs_f64();
        pass_ms.push(pass_s * 1e3);
        pass_rate.push(pass.queries as f64 / pass_s);
        if let Err(why) = bench.check(&pass) {
            if correct {
                notes.push(why);
            }
            correct = false;
            failed += pass.queries as u64;
        }
        queries += pass.queries;
        latency_p50.push(percentile(&pass.latency_ms, 0.5));
        latency_p90.push(percentile(&pass.latency_ms, 0.9));
        latency_p99.push(percentile(&pass.latency_ms, 0.99));
        ttft_p50.push(percentile(&pass.ttft_ms, 0.5));
        ttft_p90.push(percentile(&pass.ttft_ms, 0.9));
        last = Some(pass);
    }
    let cpu_ms = proc_cpu_ms("/proc/self/stat") - cpu0;
    let (steal1, total1) = machine_jiffies();
    let calib_after = calibration_probe();
    let steal_share = if total1 > total0 {
        (steal1 - steal0) / (total1 - total0)
    } else {
        0.0
    };
    let calib_drift = calib_after.as_secs_f64() / calib_before.as_secs_f64() - 1.0;

    let n = bench.dataset.items.len() as f64;
    let oua = bench
        .lanes
        .iter()
        .position(|l| l.label == EvalMode::Oua(OuaConfig::default()).label())
        .ok_or("no OUA lane")?;
    let last = last.ok_or("no pass finished")?;
    let (reward, f1, tokens) = (
        last.modes[oua].reward / n,
        last.modes[oua].f1 / n,
        last.modes[oua].total_tokens / n,
    );
    if (reward - PAPER_OUA_REWARD).abs() > 1e-3 || (f1 - PAPER_OUA_F1).abs() > 1e-3 {
        correct = false;
        notes.push(format!(
            "OUA reward {reward:.4} / F1 {f1:.4} no longer match EXPERIMENTS.md ({PAPER_OUA_REWARD} / {PAPER_OUA_F1})"
        ));
    }
    notes.push(format!(
        "ttft_p90_ms {:.4}, latency_p90_ms {:.4}, latency p99 {:.4} ms (medians over passes)",
        median(&ttft_p90),
        median(&latency_p90),
        median(&latency_p99),
    ));
    notes.push(format!(
        "{} passes of {} queries; pass p50 {:.1} ms; oracle run_eval {:.1} ms; OUA reward {reward:.4}, F1 {f1:.4}",
        pass_ms.len(),
        last.queries,
        median(&pass_ms),
        bench.oracle_ms,
    ));

    let mut metrics = Metrics::new();
    if traced {
        metrics.insert("offline.pass_ms_p50", median(&pass_ms));
        metrics.insert("offline.oracle_ms", bench.oracle_ms);
        metrics.insert("offline.queries_per_pass", last.queries as f64);
        metrics.insert("loadgen.steal_share", steal_share);
        metrics.insert("loadgen.calib_drift", calib_drift);
        let questions: Vec<String> = bench
            .dataset
            .items
            .iter()
            .map(|i| i.question.clone())
            .collect();
        let lane = &bench.lanes[oua];
        trace::replay_offline(
            &questions,
            &bench.env.models,
            lane.orchestrator.config().clone(),
            &mut metrics,
            &mut notes,
        )?;
    } else {
        metrics.insert("setup_s", median(&setup_s));
        metrics.insert("ttft_p50_ms", median(&ttft_p50));
        metrics.insert("latency_p50_ms", median(&latency_p50));
        metrics.insert(
            "goodput_rps",
            if failed == 0 { median(&pass_rate) } else { 0.0 },
        );
        metrics.insert("cpu_ms_per_req", cpu_ms / queries.max(1) as f64);
        metrics.insert("peak_rss_mb", proc_peak_rss_mb("/proc/self/status"));
        metrics.insert("tokens_per_req", tokens);
        metrics.insert("answer_f1", f1);
        metrics.insert("answer_reward", reward);
    }
    Ok(RunResult {
        attempted: queries as u64,
        failed,
        correct,
        metrics,
        steal_share,
        calib_drift,
        notes,
    })
}
