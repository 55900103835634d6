//! The incremental Eq. 6.1 scoring engine.
//!
//! Every strategy re-scores the pool each round, but between two rounds
//! almost nothing changes: a MAB pull extends exactly one arm, an OUA round
//! extends only the still-active arms, and pruned/failed arms are frozen
//! forever. [`ScoreCache`] therefore keeps the N×N pairwise-similarity
//! matrix and the query-similarity vector across rounds and recomputes only
//! the row/column of arms whose embedding actually changed — a rank-1
//! update per MAB pull instead of the naive O(N²·dim) sweep.
//!
//! Invalidation rules:
//!
//! * An arm's entries are recomputed exactly when a *different* embedding
//!   handle is installed for it ([`Arc::ptr_eq`] — the runpool hands back
//!   the same `Arc` until the response text grows).
//! * Pruned and failed arms stop generating, so their rows simply stay
//!   valid; they drop out of a score not by leaving the matrix but through
//!   the participation mask each caller supplies (OUA excludes eliminated
//!   arms, MAB keeps every arm that produced output — matching the naive
//!   semantics each strategy always had).
//! * Arms that never produced output have no embedding and are skipped by
//!   both the matrix and every mask.
//!
//! Equivalence: [`ScoreCache::score`] performs the same f64 products and
//! the same ascending-index summation as [`crate::reward::combined_score`]
//! over [`crate::reward::score_all`]'s operand order, so given identical
//! embeddings the scores are bit-identical to scoring from scratch; with
//! incremental embeddings they differ only by the accumulator's f32
//! rounding (within 1e-6, pinned by the equivalence tests, whose
//! from-scratch reference lives in this file as test-only code).

use crate::reward::RewardWeights;
use crate::runpool::ModelRun;
use llmms_embed::{cosine_embeddings, Embedding};
use std::sync::Arc;

/// Cross-round cache of query similarities and pairwise agreements.
pub struct ScoreCache {
    weights: RewardWeights,
    query: Arc<Embedding>,
    n: usize,
    /// Latest installed embedding per arm; `None` = no output yet.
    embeddings: Vec<Option<Arc<Embedding>>>,
    /// `cos(query, arm_i)`, valid where `embeddings[i]` is `Some`.
    query_sim: Vec<f64>,
    /// Symmetric pairwise `cos(arm_i, arm_j)`, row-major `i * n + j`, valid
    /// where both embeddings are `Some`.
    pair: Vec<f64>,
}

impl ScoreCache {
    /// A cache for `n` arms scored against `query` with `weights`.
    pub fn new(n: usize, query: Arc<Embedding>, weights: RewardWeights) -> Self {
        Self {
            weights,
            query,
            n,
            embeddings: vec![None; n],
            query_sim: vec![0.0; n],
            pair: vec![0.0; n * n],
        }
    }

    /// Number of arms the cache was built for.
    pub fn arms(&self) -> usize {
        self.n
    }

    /// Install arm `i`'s current embedding. Returns `true` when the row and
    /// column were recomputed — `false` means the same handle was already
    /// installed and nothing was touched (the cross-round cache hit).
    pub fn set_embedding(&mut self, i: usize, e: Arc<Embedding>) -> bool {
        assert!(i < self.n, "arm index {i} out of range (n = {})", self.n);
        if let Some(current) = &self.embeddings[i] {
            if Arc::ptr_eq(current, &e) {
                return false;
            }
        }
        self.query_sim[i] = f64::from(cosine_embeddings(&self.query, &e));
        for j in 0..self.n {
            if j == i {
                continue;
            }
            if let Some(other) = &self.embeddings[j] {
                let s = f64::from(cosine_embeddings(&e, other));
                self.pair[i * self.n + j] = s;
                self.pair[j * self.n + i] = s;
            }
        }
        self.embeddings[i] = Some(e);
        true
    }

    /// Whether arm `i` has an embedding installed.
    pub fn has_embedding(&self, i: usize) -> bool {
        self.embeddings[i].is_some()
    }

    /// Eq. 6.1 score of arm `i`, where the "others" of the agreement term
    /// are the arms `j ≠ i` with `mask[j]` set and an embedding installed.
    ///
    /// Summation runs in ascending `j`, replicating the operand order of
    /// the naive `score_all`/`combined_score` path exactly.
    ///
    /// # Panics
    ///
    /// Panics if arm `i` has no embedding installed — callers gate on
    /// output presence, exactly like the naive path never embeds an arm
    /// without output.
    pub fn score(&self, i: usize, mask: &[bool]) -> f64 {
        assert!(
            self.embeddings[i].is_some(),
            "scored arm {i} has no embedding installed"
        );
        let mut sum = 0.0f64;
        let mut count = 0usize;
        for (j, &keep) in mask.iter().enumerate().take(self.n) {
            if j != i && keep && self.embeddings[j].is_some() {
                sum += self.pair[i * self.n + j];
                count += 1;
            }
        }
        let agreement = if count == 0 { 0.0 } else { sum / count as f64 };
        self.weights.alpha * self.query_sim[i] + self.weights.beta * agreement
    }
}

/// Eq. 6.1 scores for the round: bring `cache` up to date with `runs`, then
/// write the score of every arm that has output and satisfies
/// `participates` into `scores`, with exactly those arms as each other's
/// agreement term. Other arms keep whatever `scores` already held.
pub(crate) fn score_where(
    cache: &mut ScoreCache,
    runs: &[ModelRun],
    participates: impl Fn(&ModelRun) -> bool,
    scores: &mut [f64],
) {
    let mask: Vec<bool> = runs
        .iter()
        .map(|r| r.has_output() && participates(r))
        .collect();
    refresh(cache, runs);
    for (i, _) in mask.iter().enumerate().filter(|(_, &m)| m) {
        scores[i] = cache.score(i, &mask);
    }
}

/// The reference for [`score_where`]: embed every participating response
/// from scratch and score with [`crate::reward::score_all`]; the cache only
/// lends its query embedding and weights.
#[cfg(test)]
pub(crate) fn score_from_scratch(
    cache: &ScoreCache,
    runs: &[ModelRun],
    embedder: &llmms_embed::SharedEmbedder,
    participates: impl Fn(&ModelRun) -> bool,
    scores: &mut [f64],
) {
    let arms: Vec<usize> = (0..runs.len())
        .filter(|&i| runs[i].has_output() && participates(&runs[i]))
        .collect();
    let embeddings: Vec<Embedding> = arms
        .iter()
        .map(|&i| embedder.embed(runs[i].response()))
        .collect();
    let fresh = crate::reward::score_all(&cache.weights, &cache.query, &embeddings);
    for (slot, &i) in arms.iter().enumerate() {
        scores[i] = fresh[slot];
    }
}

/// Install every run's current embedding — the step that grew a response
/// already folded it in — and export the cache-hit-rate, dirty-arm-count
/// and install-latency metrics surfaced in `/stats`. An arm is dirty when
/// its row was recomputed (a new handle) and clean when its handle was
/// already installed. Returns `(dirty, clean)`.
fn refresh(cache: &mut ScoreCache, runs: &[ModelRun]) -> (usize, usize) {
    let registry = llmms_obs::Registry::global();
    let refresh_timer = registry.histogram("scoring_refresh_us");
    let _span = registry.span_on(&refresh_timer);

    let (mut dirty, mut clean) = (0usize, 0usize);
    for (i, run) in runs.iter().enumerate().filter(|(_, r)| r.has_output()) {
        if cache.set_embedding(i, run.embedding()) {
            dirty += 1;
        } else {
            clean += 1;
        }
    }

    if registry.enabled() {
        registry
            .counter("scoring_arms_dirty_total")
            .metric
            .add(dirty as u64);
        registry
            .counter("scoring_arms_clean_total")
            .metric
            .add(clean as u64);
        registry
            .histogram("scoring_dirty_arms")
            .metric
            .record(dirty as f64);
    }
    (dirty, clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reward::score_all;
    use llmms_embed::Embedder;

    fn embed(text: &str) -> Arc<Embedding> {
        Arc::new(llmms_embed::HashedNgramEmbedder::default().embed(text))
    }

    fn naive_scores(
        weights: &RewardWeights,
        query: &Embedding,
        arms: &[Option<Arc<Embedding>>],
        mask: &[bool],
    ) -> Vec<Option<f64>> {
        // The oracle: gather the masked arms and run the real score_all.
        let idx: Vec<usize> = (0..arms.len())
            .filter(|&i| mask[i] && arms[i].is_some())
            .collect();
        let embeddings: Vec<Arc<Embedding>> = idx
            .iter()
            .map(|&i| Arc::clone(arms[i].as_ref().unwrap()))
            .collect();
        let fresh = score_all(weights, query, &embeddings);
        let mut out = vec![None; arms.len()];
        for (slot, &i) in idx.iter().enumerate() {
            out[i] = Some(fresh[slot]);
        }
        out
    }

    #[test]
    fn matches_score_all_bitwise_on_shared_embeddings() {
        let w = RewardWeights::default();
        let q = embed("what is the capital of france");
        let arms = [
            Some(embed("the capital of france is paris")),
            Some(embed("paris is the capital")),
            Some(embed("bananas are rich in potassium")),
        ];
        let mut cache = ScoreCache::new(3, Arc::clone(&q), w);
        for (i, e) in arms.iter().enumerate() {
            cache.set_embedding(i, Arc::clone(e.as_ref().unwrap()));
        }
        let mask = [true, true, true];
        let oracle = naive_scores(&w, &q, &arms, &mask);
        for (i, want) in oracle.iter().enumerate() {
            assert_eq!(cache.score(i, &mask), want.unwrap(), "arm {i}");
        }
    }

    #[test]
    fn mask_excludes_arms_from_agreement_only() {
        let w = RewardWeights::default();
        let q = embed("the question");
        let arms = [
            Some(embed("first answer text")),
            Some(embed("second answer text")),
            Some(embed("third answer text")),
        ];
        let mut cache = ScoreCache::new(3, Arc::clone(&q), w);
        for (i, e) in arms.iter().enumerate() {
            cache.set_embedding(i, Arc::clone(e.as_ref().unwrap()));
        }
        // Arm 2 masked out (pruned): arms 0/1 agree only with each other.
        let mask = [true, true, false];
        let oracle = naive_scores(&w, &q, &arms, &mask);
        assert_eq!(cache.score(0, &mask), oracle[0].unwrap());
        assert_eq!(cache.score(1, &mask), oracle[1].unwrap());
    }

    #[test]
    fn reinstalling_the_same_arc_is_a_cache_hit() {
        let w = RewardWeights::default();
        let q = embed("q");
        let e = embed("some answer");
        let mut cache = ScoreCache::new(2, q, w);
        assert!(cache.set_embedding(0, Arc::clone(&e)));
        assert!(!cache.set_embedding(0, Arc::clone(&e)), "same handle");
        assert!(cache.set_embedding(0, embed("some answer longer now")));
    }

    #[test]
    fn rank_one_update_keeps_other_rows_valid() {
        let w = RewardWeights::default();
        let q = embed("what is the capital of france");
        let mut arms = [
            Some(embed("the capital of france")),
            Some(embed("paris obviously")),
            Some(embed("unrelated noise about markets")),
        ];
        let mut cache = ScoreCache::new(3, Arc::clone(&q), w);
        for (i, e) in arms.iter().enumerate() {
            cache.set_embedding(i, Arc::clone(e.as_ref().unwrap()));
        }
        // Arm 1 grows (the MAB pull); arms 0/2 untouched.
        arms[1] = Some(embed("paris obviously the city of light"));
        cache.set_embedding(1, Arc::clone(arms[1].as_ref().unwrap()));
        let mask = [true, true, true];
        let oracle = naive_scores(&w, &q, &arms, &mask);
        for (i, want) in oracle.iter().enumerate() {
            assert_eq!(cache.score(i, &mask), want.unwrap(), "arm {i}");
        }
    }

    #[test]
    fn grown_arms_count_dirty_and_unchanged_arms_clean() {
        use crate::budget::TokenBudget;
        use llmms_models::{GenOptions, HealthRegistry, KnowledgeStore, ModelProfile, SimLlm};

        let entries = vec![llmms_models::KnowledgeEntry {
            id: "q".into(),
            question: "What is the capital of France?".into(),
            category: "geography".into(),
            golden: "The capital of France is Paris".into(),
            correct: vec![],
            incorrect: vec!["The capital of France is Lyon".into()],
        }];
        let embedder = llmms_embed::default_embedder();
        let store = Arc::new(KnowledgeStore::build(entries, Arc::clone(&embedder)));
        let models: Vec<llmms_models::SharedModel> = ModelProfile::evaluation_pool()
            .into_iter()
            .map(|p| Arc::new(SimLlm::new(p, Arc::clone(&store))) as llmms_models::SharedModel)
            .collect();
        let mut runs = ModelRun::start_all(
            &models,
            "What is the capital of France?",
            &GenOptions::default(),
            crate::config::RetryConfig::default(),
            &Arc::new(HealthRegistry::default()),
        );
        let query = Arc::new(embedder.embed("What is the capital of France?"));
        let mut cache = ScoreCache::new(3, query, RewardWeights::default());
        let mut budget = TokenBudget::new(10_000);
        let trace = llmms_obs::SpanContext::disabled();
        let mut round = |runs: &mut [ModelRun], targets: &[(usize, usize)]| {
            // No fan-out cost measured yet: a multi-target round fans out.
            crate::runpool::generate_round(
                runs,
                targets,
                &mut budget,
                &embedder,
                &trace,
                &mut crate::runpool::Placement::default(),
            );
        };
        // Two 3-arm OUA rounds (fanned out): every arm grew both times.
        for _ in 0..2 {
            round(&mut runs, &[(0, 1), (1, 1), (2, 1)]);
            assert!(runs.iter().all(ModelRun::has_output));
            assert_eq!(refresh(&mut cache, &runs), (3, 0));
        }
        // A MAB pull grows one arm: a rank-1 update.
        assert!(runs[1].is_active());
        round(&mut runs, &[(1, 1)]);
        assert_eq!(refresh(&mut cache, &runs), (1, 2));
        assert_eq!(refresh(&mut cache, &runs), (0, 3));
    }

    #[test]
    #[should_panic(expected = "no embedding installed")]
    fn scoring_an_absent_arm_panics() {
        let cache = ScoreCache::new(2, embed("q"), RewardWeights::default());
        cache.score(0, &[true, true]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::reward::score_all;
    use llmms_embed::{Embedder, HashedNgramEmbedder, IncrementalAccumulator};
    use proptest::prelude::*;

    proptest! {
        /// Under random append/prune/fail sequences, cached scores equal
        /// the naive score_all oracle over from-scratch embeddings of the
        /// same texts, within 1e-6 (embedding drift is the accumulator's
        /// f32 rounding; the masks and matrix bookkeeping must be exact).
        ///
        /// Each op is `(arm, words, kind)`: kind 0 eliminates the arm
        /// (prune and backend failure both freeze its text, exactly what
        /// `ModelRun` does), any other kind appends `words + 1` words.
        #[test]
        fn cache_equals_naive_under_random_ops(
            ops in proptest::collection::vec((0usize..4, 0usize..4, 0usize..5), 1..25),
        ) {
            let n = 4;
            let vocab = ["paris", "france", "capital", "banana", "market"];
            let embedder = HashedNgramEmbedder::default();
            let query = Arc::new(embedder.embed("what is the capital of france"));
            let weights = RewardWeights::default();

            let mut texts: Vec<String> = vec![String::new(); n];
            let mut eliminated = vec![false; n];
            let mut accs: Vec<Box<dyn IncrementalAccumulator>> =
                (0..n).map(|_| embedder.accumulator().unwrap()).collect();
            let mut cache = ScoreCache::new(n, Arc::clone(&query), weights);
            let mut word_counter = 0usize;

            for (arm, words, kind) in ops {
                if kind == 0 {
                    eliminated[arm] = true;
                } else if !eliminated[arm] {
                    for _ in 0..words + 1 {
                        let w = vocab[word_counter % vocab.len()];
                        word_counter += 1;
                        if !texts[arm].is_empty() {
                            texts[arm].push(' ');
                            accs[arm].append(" ");
                        }
                        texts[arm].push_str(w);
                        accs[arm].append(w);
                    }
                    cache.set_embedding(arm, Arc::new(accs[arm].embedding()));
                }

                // Score under both strategies' masks and compare to the
                // oracle computed from scratch.
                let has_output: Vec<bool> = texts.iter().map(|t| !t.is_empty()).collect();
                let participating: Vec<bool> = (0..n)
                    .map(|i| has_output[i] && !eliminated[i])
                    .collect();
                for mask in [&has_output, &participating] {
                    let idx: Vec<usize> = (0..n).filter(|&i| mask[i]).collect();
                    let scratch: Vec<Embedding> =
                        idx.iter().map(|&i| embedder.embed(&texts[i])).collect();
                    let oracle = score_all(&weights, &query, &scratch);
                    for (slot, &i) in idx.iter().enumerate() {
                        let cached = cache.score(i, mask);
                        prop_assert!(
                            (cached - oracle[slot]).abs() < 1e-6,
                            "arm {i}: cached={cached} oracle={}",
                            oracle[slot]
                        );
                    }
                }
            }
        }
    }
}
