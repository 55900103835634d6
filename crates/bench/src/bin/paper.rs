//! Regenerates every table of the paper's evaluation (Chapter 8) and of our
//! ablations: Figures 8.1–8.3 on the synthetic TruthfulQA workload (seed
//! 7, 180 items, λ_max = 2048, the paper's five modes), Tabs A–E, the RAG,
//! pool-size and encoder sweeps, and the §9.5 extensions. EXPERIMENTS.md
//! quotes these tables, and `results/<name>.txt` holds each one's committed
//! output.
//!
//! Usage:
//!   cargo run --release -p llmms-bench --bin paper [name…]
//!   cargo run --release -p llmms-bench --bin paper -- --check [name…]
//!
//! Without a name every table is printed, each under a `==> name <==`
//! line. `--check` regenerates the tables and exits 1 at the first line
//! that differs from `results/<name>.txt`, naming it. Stdout is
//! deterministic; wall-clock readings go to stderr.

use llmms::core::{
    HybridConfig, MabConfig, MabSelection, Orchestrator, OrchestratorConfig, OuaConfig,
    RewardWeights, RouterConfig, Strategy, TaskIndex,
};
use llmms::embed::{SharedEmbedder, TfIdfConfig, TfIdfEmbedder};
use llmms::eval::{
    default_modes, eval_reward, generate, report, run_eval, run_eval_with_embedder, score_query,
    Dataset, EvalMode, EvalReport, EvalRewardWeights, GeneratorConfig, HarnessConfig, ModeSummary,
};
use llmms::models::{GenOptions, KnowledgeStore, ModelProfile, ModelRegistry, SharedModel, SimLlm};
use llmms::platform::AskOptions;
use llmms::Platform;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

type Table = fn() -> String;

/// Every table, by the name of its `results/<name>.txt`.
const TABLES: &[(&str, Table)] = &[
    ("fig8_1_reward", fig8_1_reward),
    ("fig8_2_f1", fig8_2_f1),
    ("fig8_3_reward_per_token", fig8_3_reward_per_token),
    ("ablation_alpha_beta", ablation_alpha_beta),
    ("ablation_margins", ablation_margins),
    ("ablation_gamma", ablation_gamma),
    ("ablation_chunk_size", ablation_chunk_size),
    ("ablation_mab_variants", ablation_mab_variants),
    ("rag_grounding", rag_grounding),
    ("embedder_ablation", embedder_ablation),
    ("pool_scaling", pool_scaling),
    ("extensions_comparison", extensions_comparison),
];

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    args.retain(|a| a != "--check");
    let mut tables = Vec::new();
    for name in &args {
        let Some(table) = TABLES.iter().find(|(n, _)| n == name) else {
            let names: Vec<&str> = TABLES.iter().map(|(n, _)| *n).collect();
            eprintln!("paper: unknown table `{name}`; tables: {}", names.join(" "));
            std::process::exit(2);
        };
        tables.push(table);
    }
    if tables.is_empty() {
        tables = TABLES.iter().collect();
    }
    for (name, table) in &tables {
        let fresh = table();
        if check {
            let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../../results")
                .join(format!("{name}.txt"));
            let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("paper: cannot read {}: {e}", path.display());
                std::process::exit(1);
            });
            if let Some((line, want, got)) = first_difference(&committed, &fresh) {
                eprintln!(
                    "paper: {}:{line} differs\n  committed:   {}\n  regenerated: {}",
                    path.display(),
                    want.unwrap_or("<end of file>"),
                    got.unwrap_or("<end of file>"),
                );
                std::process::exit(1);
            }
            eprintln!("paper: {name} matches");
        } else if tables.len() > 1 {
            print!("==> {name} <==\n{fresh}\n");
        } else {
            print!("{fresh}");
        }
    }
}

/// The first line (1-based) where two texts differ, with each side's line;
/// `None` on a side that has already ended.
fn first_difference<'a>(
    committed: &'a str,
    fresh: &'a str,
) -> Option<(usize, Option<&'a str>, Option<&'a str>)> {
    let (mut a, mut b) = (committed.lines(), fresh.lines());
    (1..)
        .map(|line| (line, a.next(), b.next()))
        .take_while(|(_, want, got)| want.is_some() || got.is_some())
        .find(|(_, want, got)| want != got)
}

/// The standard §8 dataset: synthetic TruthfulQA at seed 7, 180 items.
fn dataset() -> &'static Dataset {
    static DATASET: OnceLock<Dataset> = OnceLock::new();
    DATASET.get_or_init(|| generate(&GeneratorConfig::default()))
}

/// The paper's global token budget.
const LAMBDA_MAX: usize = 2048;

/// `modes` over the standard dataset at temperature 0.7.
fn eval(token_budget: usize, modes: Vec<EvalMode>) -> EvalReport {
    let config = HarnessConfig {
        token_budget,
        modes,
        ..HarnessConfig::default()
    };
    run_eval(dataset(), &config).expect("evaluation must run")
}

/// The paper's five-way comparison, shared by Figures 8.1–8.3.
fn standard_report() -> &'static EvalReport {
    static REPORT: OnceLock<EvalReport> = OnceLock::new();
    REPORT.get_or_init(|| eval(LAMBDA_MAX, default_modes()))
}

const COST_HEADER: &str =
    "variant,avg_reward,avg_f1,accuracy,answer_tokens,total_tokens,reward_per_token\n";

/// One `COST_HEADER` row.
fn cost_row(label: &str, m: &ModeSummary) -> String {
    format!(
        "{label},{:.4},{:.4},{:.3},{:.1},{:.1},{:.5}\n",
        m.avg_reward, m.avg_f1, m.accuracy, m.avg_tokens, m.avg_total_tokens, m.reward_per_token
    )
}

/// Figure 8.1: average reward per mode.
fn fig8_1_reward() -> String {
    let r = standard_report();
    format!("{}\n{}\n", report::figure_8_1(r), report::markdown_table(r))
}

/// Figure 8.2: average F1 per mode.
fn fig8_2_f1() -> String {
    let r = standard_report();
    report::figure_8_2(r) + "\n" + &report::category_breakdown(r) + "\n"
}

/// Figure 8.3: average reward-to-tokens ratio per mode.
fn fig8_3_reward_per_token() -> String {
    let r = standard_report();
    format!("{}\n{}\n", report::figure_8_3(r), report::csv(r))
}

/// Tab A: the α/β weighting of Eq. 6.1. α = 1 ignores consensus; α = 0
/// trusts only inter-model agreement. The paper fixes α = 0.7, β = 0.3.
fn ablation_alpha_beta() -> String {
    let alphas = [1.0, 0.9, 0.7, 0.5, 0.3, 0.0];
    let report = eval(
        LAMBDA_MAX,
        alphas
            .iter()
            .map(|&alpha| {
                EvalMode::Oua(OuaConfig {
                    weights: RewardWeights::new(alpha, 1.0 - alpha),
                    ..OuaConfig::default()
                })
            })
            .collect(),
    );
    let mut out =
        String::from("variant,avg_reward,avg_f1,accuracy,answer_tokens,reward_per_token\n");
    for (alpha, m) in alphas.iter().zip(&report.modes) {
        let beta = 1.0 - alpha;
        out += &format!(
            "alpha={alpha:.1} beta={beta:.1},{:.4},{:.4},{:.3},{:.1},{:.5}\n",
            m.avg_reward, m.avg_f1, m.accuracy, m.avg_tokens, m.reward_per_token
        );
    }
    out
}

/// Tab B: OUA margin × round size — how aggressive pruning and early
/// return trade answer quality against token savings.
fn ablation_margins() -> String {
    let variants: Vec<(f64, usize)> = [0.1, 0.25, 0.5, 0.75, 1.0]
        .iter()
        .flat_map(|&margin| [(margin, 4), (margin, 16)])
        .collect();
    let report = eval(
        LAMBDA_MAX,
        variants
            .iter()
            .map(|&(margin, round_tokens)| {
                EvalMode::Oua(OuaConfig {
                    win_margin: margin,
                    prune_margin: margin,
                    round_tokens,
                    ..OuaConfig::default()
                })
            })
            .collect(),
    );
    let mut out = String::from(COST_HEADER);
    for ((margin, round), m) in variants.iter().zip(&report.modes) {
        out += &cost_row(&format!("margin={margin:.2} round={round}"), m);
    }
    out
}

/// Tab C: MAB's exploration coefficient γ₀ and its decay
/// γ = γ₀·(1 − used/λ_max). At λ_max = 2048 every arm runs to completion
/// and allocation order is moot, so the sweep runs under binding budgets
/// where exploration and exploitation trade off.
fn ablation_gamma() -> String {
    let variants: Vec<(f64, bool)> = [0.0, 0.1, 0.3, 0.6, 1.0]
        .iter()
        .flat_map(|&gamma0| [(gamma0, true), (gamma0, false)])
        .collect();
    let mut out =
        String::from("budget,gamma0,decay,avg_reward,avg_f1,accuracy,answer_tokens,total_tokens\n");
    for budget in [16usize, 32, 64] {
        let modes = variants
            .iter()
            .map(|&(gamma0, decay)| {
                EvalMode::Mab(MabConfig {
                    gamma0,
                    decay,
                    ..MabConfig::default()
                })
            })
            .collect();
        let report = eval(budget, modes);
        for ((gamma0, decay), m) in variants.iter().zip(&report.modes) {
            out += &format!(
                "{budget},{gamma0:.1},{decay},{:.4},{:.4},{:.3},{:.1},{:.1}\n",
                m.avg_reward, m.avg_f1, m.accuracy, m.avg_tokens, m.avg_total_tokens
            );
        }
    }
    out
}

/// Tab D: allocation granularity — MAB's pull size and OUA's round size.
/// Each mode runs in its own pass, so the wall-clock per query on stderr
/// is that mode's own.
fn ablation_chunk_size() -> String {
    let items = dataset().len() as f64;
    let mut out = String::from("variant,avg_reward,avg_f1,accuracy\n");
    for chunk in [1usize, 4, 16, 64, 256] {
        let modes = [
            EvalMode::Oua(OuaConfig {
                round_tokens: chunk,
                ..OuaConfig::default()
            }),
            EvalMode::Mab(MabConfig {
                pull_tokens: chunk,
                ..MabConfig::default()
            }),
        ];
        for mode in modes {
            let start = Instant::now();
            let report = eval(LAMBDA_MAX, vec![mode]);
            let ms = start.elapsed().as_secs_f64() * 1e3 / items;
            let m = &report.modes[0];
            eprintln!("{} chunk={chunk}: {ms:.2} ms per query", m.mode);
            out += &format!(
                "{} chunk={chunk},{:.4},{:.4},{:.3}\n",
                m.mode, m.avg_reward, m.avg_f1, m.accuracy
            );
        }
    }
    out
}

/// Tab E: the two under-specified choices of Algorithm 2 — the final
/// selection rule and the early-stop policy.
fn ablation_mab_variants() -> String {
    let mut out = String::new();
    let mut modes = vec![EvalMode::Single("qwen2-7b".into())];
    let mut labels = vec!["qwen2-7b (single)".to_owned()];
    for (selection, label) in [
        (MabSelection::Cumulative, "cumulative"),
        (MabSelection::Mean, "mean"),
        (MabSelection::FinalScore, "final-score"),
    ] {
        for (early_stop, stop) in [(false, "run-to-completion"), (true, "early-stop")] {
            out += &format!("# variant: selection={label} early_stop={early_stop}\n");
            modes.push(EvalMode::Mab(MabConfig {
                selection,
                early_stop,
                ..MabConfig::default()
            }));
            labels.push(format!("{label} / {stop}"));
        }
    }
    let report = eval(LAMBDA_MAX, modes);
    out += COST_HEADER;
    for (label, m) in labels.iter().zip(&report.modes) {
        out += &cost_row(label, m);
    }
    out
}

/// Documents for the RAG sweep: `(id, text, question, needle)`.
const DOCS: &[(&str, &str, &str, &str)] = &[
    (
        "metals",
        "Tungsten has the highest melting point of any metal, at 3422 degrees Celsius. \
         Copper is prized for its electrical conductivity. \
         Aluminium is light and corrosion resistant.",
        "Which metal has the highest melting point?",
        "tungsten",
    ),
    (
        "ships",
        "The research vessel Meridian carries a crew of twenty eight. \
         Its survey sonar operates at twelve kilohertz. \
         The Meridian was commissioned in Bergen.",
        "How large is the crew of the Meridian?",
        "twenty eight",
    ),
    (
        "recipes",
        "The house sourdough uses a nine hour cold proof. \
         Each loaf takes four hundred grams of strong white flour. \
         The bakery mills its rye on site.",
        "How long is the sourdough cold proof?",
        "nine hour",
    ),
    (
        "observatory",
        "The mountain observatory sits at an altitude of 2660 meters. \
         Its primary mirror spans three point six meters. \
         Seeing conditions peak in February.",
        "What is the altitude of the observatory?",
        "2660",
    ),
];

/// The Figure 5.7 workflow, quantified: document-specific questions at
/// retrieval depth k ∈ {0, 1, 3, 5}, counting answers that carry the
/// grounded fact.
fn rag_grounding() -> String {
    let mut out = String::from("top_k,grounded_answers,total_questions,hit_rate\n");
    for top_k in [0usize, 1, 3, 5] {
        let platform = Platform::builder().build().expect("platform");
        for (id, text, _, _) in DOCS {
            platform.ingest_document(id, text).expect("ingest");
        }
        let options = AskOptions {
            top_k,
            ..AskOptions::default()
        };
        let hits = DOCS
            .iter()
            .filter(|(_, _, question, needle)| {
                let r = platform.ask_with(question, &options).expect("query");
                r.response().to_lowercase().contains(needle)
            })
            .count();
        let total = DOCS.len();
        out += &format!("{top_k},{hits},{total},{:.2}\n", hits as f64 / total as f64);
    }
    out
}

/// §8.4 "impact of embedding-based scoring": the hashed n-gram encoder vs
/// TF-IDF fitted on the benchmark's own questions and references. Eq. 6.1,
/// knowledge recall and the Eq. 8.1 reward all flow through the encoder.
fn embedder_ablation() -> String {
    let corpus = dataset().items.iter().flat_map(|item| {
        [&item.question, &item.golden]
            .into_iter()
            .chain(&item.correct)
            .chain(&item.incorrect)
            .map(String::as_str)
    });
    let tfidf: SharedEmbedder = Arc::new(TfIdfEmbedder::fit(corpus, TfIdfConfig::default()));
    let mut out = String::from("encoder,mode,avg_reward,avg_f1,accuracy,reward_per_token\n");
    for (label, embedder) in [
        ("hashed-ngram", llmms::embed::default_embedder()),
        ("tfidf", tfidf),
    ] {
        let report = run_eval_with_embedder(dataset(), &HarnessConfig::default(), embedder)
            .expect("evaluation must run");
        for m in &report.modes {
            out += &format!(
                "{label},{},{:.4},{:.4},{:.3},{:.5}\n",
                m.mode, m.avg_reward, m.avg_f1, m.accuracy, m.reward_per_token
            );
        }
    }
    out
}

/// Answer quality and token cost as the pool grows llama3 → +mistral →
/// +qwen2 → +gemma → +phi3 (§2.5's resource question), OUA with paper
/// defaults throughout.
fn pool_scaling() -> String {
    let embedder = llmms::embed::default_embedder();
    let knowledge = Arc::new(KnowledgeStore::build(
        dataset().to_knowledge(),
        Arc::clone(&embedder),
    ));
    let all: Vec<SharedModel> = ModelProfile::extended_pool()
        .into_iter()
        .map(|p| Arc::new(SimLlm::new(p, Arc::clone(&knowledge))) as SharedModel)
        .collect();
    let weights = EvalRewardWeights::default();
    let mut out = String::from(
        "pool_size,models,avg_reward,avg_f1,accuracy,answer_tokens,total_tokens,latency_ms\n",
    );
    for n in 1..=all.len() {
        let pool = &all[..n];
        let strategy = if n == 1 {
            Strategy::Single
        } else {
            Strategy::Oua(OuaConfig::default())
        };
        let config = OrchestratorConfig {
            strategy,
            ..OrchestratorConfig::default()
        };
        let orchestrator = Orchestrator::new(Arc::clone(&embedder), config);
        // Per-item reward, F1, truthful, answer tokens, total tokens and
        // simulated latency (ms), summed over the dataset.
        let mut sums = [0.0; 6];
        for item in &dataset().items {
            let r = orchestrator.run(pool, &item.question).expect("run");
            let (best, total) = (r.best_outcome().tokens, r.total_tokens);
            let m = score_query(r.response(), best, total, item, &embedder, &weights);
            let ms = r.simulated_latency().as_secs_f64() * 1000.0;
            let counts = [usize::from(m.truthful), m.tokens, m.total_tokens];
            let [truthful, answer, spent] = counts.map(|c| c as f64);
            let row = [m.reward, m.f1, truthful, answer, spent, ms];
            for (sum, x) in sums.iter_mut().zip(row) {
                *sum += x;
            }
        }
        let [reward, f1, accuracy, answer, total, latency] =
            sums.map(|s| s / dataset().len() as f64);
        let names: Vec<&str> = pool.iter().map(|m| m.name()).collect();
        out += &format!(
            "{n},{},{reward:.4},{f1:.4},{accuracy:.3},{answer:.1},{total:.1},{latency:.0}\n",
            names.join("+")
        );
    }
    out
}

/// Exemplar queries and preferred model per category for the static task
/// index (generic phrasings, not benchmark questions).
const EXEMPLARS: &[(&str, &[&str], &str)] = &[
    (
        "misconceptions",
        &[
            "is this common belief actually true",
            "do people wrongly believe this fact",
        ],
        "qwen2-7b",
    ),
    (
        "science",
        &[
            "what does physics say about this process",
            "at what temperature does this happen",
        ],
        "mistral-7b",
    ),
    (
        "history",
        &[
            "what happened in this historical event",
            "did this famous historical figure really do that",
        ],
        "llama3-8b",
    ),
    (
        "health",
        &[
            "is this good or bad for your body",
            "does this habit cause an illness",
        ],
        "qwen2-7b",
    ),
    (
        "law",
        &[
            "is this legal or required by law",
            "what are your legal rights here",
        ],
        "qwen2-7b",
    ),
    (
        "geography",
        &[
            "what is the capital of this country",
            "which river or mountain is the largest",
        ],
        "mistral-7b",
    ),
    (
        "fiction",
        &[
            "what happens in this novel or film",
            "what does this fictional character say",
        ],
        "llama3-8b",
    ),
    (
        "proverbs",
        &[
            "is this old saying literally true",
            "does this proverb hold up in real life",
        ],
        "llama3-8b",
    ),
];

/// The task index after the self-improving loop: the exemplars with
/// uninformed preferences, then every model's Eq. 8.1 reward on each
/// training question fed back per category.
fn learned_index(train: &Dataset) -> TaskIndex {
    let embedder = llmms::embed::default_embedder();
    let neutral: Vec<(&str, &[&str], &str)> = EXEMPLARS
        .iter()
        .map(|(c, e, _)| (*c, *e, "mistral-7b"))
        .collect();
    let mut index = TaskIndex::build(&neutral, &embedder);
    let knowledge = Arc::new(KnowledgeStore::build(
        train.to_knowledge(),
        Arc::clone(&embedder),
    ));
    let models = ModelRegistry::evaluation_setup(knowledge)
        .load_all()
        .expect("models load");
    let weights = EvalRewardWeights::default();
    for item in &train.items {
        for model in &models {
            let done = model.complete(&item.question, &GenOptions::default());
            let reward = eval_reward(&done.text, item, &embedder, &weights);
            index.record_feedback(&item.category, model.name(), reward);
        }
    }
    index
}

/// The §9.5 router (static and feedback-learned preferences) and the §8.4
/// hybrid against OUA, MAB and the best single model. The learned router
/// trains on the first half of the dataset; every mode is evaluated on the
/// second.
fn extensions_comparison() -> String {
    let (train, test) = dataset().items.split_at(dataset().len() / 2);
    let split = |name: &str, items: &[_]| Dataset {
        name: name.into(),
        items: items.to_vec(),
    };
    let (train, test) = (split("train-half", train), split("test-half", test));
    let static_index = TaskIndex::build(EXEMPLARS, &llmms::embed::default_embedder());
    let learned = learned_index(&train);
    let mut out = String::from("learned preferences per category:\n");
    for t in learned.tasks() {
        out += &format!("  {:<16} -> {}\n", t.name, t.preferred_model);
    }
    let routed = |index| EvalMode::Routed(RouterConfig::new(index));
    let (labels, modes): (Vec<&str>, Vec<EvalMode>) = [
        (
            "qwen2-7b (best single)",
            EvalMode::Single("qwen2-7b".into()),
        ),
        ("LLM-MS OUA", EvalMode::Oua(OuaConfig::default())),
        ("LLM-MS MAB", EvalMode::Mab(MabConfig::default())),
        ("LLM-MS Hybrid", EvalMode::Hybrid(HybridConfig::default())),
        ("Router (static prefs)", routed(static_index)),
        ("Router (learned prefs)", routed(learned)),
    ]
    .into_iter()
    .unzip();
    let config = HarnessConfig {
        modes,
        ..HarnessConfig::default()
    };
    let report = run_eval(&test, &config).expect("evaluation must run");
    out += "\n";
    out += COST_HEADER;
    for (label, m) in labels.iter().zip(&report.modes) {
        out += &cost_row(label, m);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::first_difference;

    #[test]
    fn first_difference_names_the_first_differing_line() {
        for (committed, fresh, want) in [
            ("a\nb\n", "a\nb\n", None),
            ("a\nb\nc\n", "a\nB\nc\n", Some((2, Some("b"), Some("B")))),
            ("a\n", "a\nb\n", Some((2, None, Some("b")))),
            ("a\nb\n", "a\n", Some((2, Some("b"), None))),
        ] {
            assert_eq!(first_difference(committed, fresh), want);
        }
    }
}
