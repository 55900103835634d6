//! [`SimLlm`] — the deterministic simulated language model.
//!
//! ## Why a simulation is faithful here
//!
//! The orchestration algorithms (OUA, MAB) never look inside a model; they
//! observe exactly three things per candidate: (1) the token chunks it
//! streams, (2) its done reason, (3) embedding similarities of its partial
//! output. The evaluation observes a fourth: whether the final answer text
//! overlaps the benchmark's correct or incorrect reference answers.
//!
//! `SimLlm` reproduces those observables from a [`ModelProfile`] and a
//! shared [`KnowledgeStore`]:
//!
//! * it *recalls* the knowledge entry nearest the prompt (embedding lookup —
//!   the analogue of parametric recall);
//! * its per-category competence decides whether it answers with a correct
//!   reference or a plausible misconception, exactly the TruthfulQA failure
//!   mode the paper evaluates;
//! * style parameters (hedging, verbosity) shape token counts and the
//!   inter-model agreement structure;
//! * everything is a pure function of `(profile, prompt, seed)`, so the
//!   whole evaluation is reproducible bit-for-bit.
//!
//! Token accounting: one generated word = one token. This keeps budget
//! arithmetic exact and transparent in tests, and the algorithms are
//! invariant to the token unit.

use crate::error::ModelError;
use crate::knowledge::KnowledgeStore;
use crate::model::{GenerationSession, LanguageModel, ModelInfo};
use crate::options::{Chunk, DoneReason, GenOptions};
use crate::profile::ModelProfile;
use std::sync::Arc;
use std::time::Duration;

/// Where a model is placed by the hardware layer — affects decode speed
/// only (the thesis's CPU fallback, §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Resident on the simulated GPU.
    Gpu,
    /// CPU fallback (an order of magnitude slower decode).
    Cpu,
}

/// A deterministic simulated LLM. See the module docs.
pub struct SimLlm {
    profile: ModelProfile,
    knowledge: Arc<KnowledgeStore>,
    placement: Placement,
}

/// Seed mixed into every generation key after the prompt. It is part of the
/// key's bytes, so changing or dropping it would change every generated
/// token.
const BASE_SEED: u64 = 0;

impl SimLlm {
    /// Create a model with `profile` drawing on `knowledge`, GPU-placed.
    pub fn new(profile: ModelProfile, knowledge: Arc<KnowledgeStore>) -> Self {
        Self {
            profile,
            knowledge,
            placement: Placement::Gpu,
        }
    }

    /// Override the placement (CPU fallback).
    #[must_use]
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// The model's profile.
    pub fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    /// Current placement.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    fn tokens_per_second(&self) -> f64 {
        match self.placement {
            Placement::Gpu => self.profile.gpu_tokens_per_second,
            Placement::Cpu => self.profile.cpu_tokens_per_second,
        }
    }

    /// Build the full response plan for `prompt` as a word sequence.
    fn plan(&self, prompt: &str, options: &GenOptions) -> Vec<String> {
        let h = |salt: u64| {
            let mut key = Vec::with_capacity(prompt.len() + self.profile.name.len() + 16);
            key.extend_from_slice(self.profile.name.as_bytes());
            key.extend_from_slice(prompt.as_bytes());
            key.extend_from_slice(&BASE_SEED.to_le_bytes());
            key.extend_from_slice(&options.seed.to_le_bytes());
            key.extend_from_slice(&salt.to_le_bytes());
            unit_f64(fnv1a64(&key))
        };

        // Like a real LLM, the simulation weighs *in-context* information
        // against *parametric* recall: when the prompt carries retrieved
        // context that matches the question better than any stored knowledge
        // does, the model reads the answer off the context.
        let recalled = self.knowledge.lookup_scored(prompt);
        let contextual = answer_from_context_scored(prompt, self.knowledge.embedder());
        let entry = match (recalled, &contextual) {
            (Some((entry, recall_conf)), Some((_, context_conf)))
                if recall_conf >= *context_conf =>
            {
                Some(entry)
            }
            (Some(_) | None, Some((extracted, _))) => {
                let mut plan = words_of(context_preamble(&self.profile.family));
                plan.extend(words_of(extracted));
                return plan;
            }
            (Some((entry, _)), None) => Some(entry),
            (None, None) => None,
        };
        let Some(entry) = entry else {
            return words_of(
                "I am not certain about this question and I do not want to guess, \
                 so I cannot give a reliable answer based on what I know.",
            );
        };

        // Competence: profile skill + deterministic per-question jitter whose
        // spread grows with temperature (hotter sampling = noisier recall).
        let jitter_scale = 0.05 + 0.10 * f64::from(options.temperature.clamp(0.0, 2.0));
        let jitter = (h(1) - 0.5) * 2.0 * jitter_scale;
        let mut competence = (self.profile.skill(&entry.category) + jitter).clamp(0.02, 0.98);

        // RAG grounding: when the prompt carries retrieved context containing
        // a correct answer, any model can simply read it off. This is the
        // mechanism behind the paper's retrieval-augmentation win.
        if is_grounded(prompt, entry) {
            competence = competence.max(0.95);
        }

        let truthful = h(2) < competence;

        // Very low competence + failed recall: real models often *deflect*
        // on adversarial questions instead of committing to a misconception —
        // an off-topic non-answer with low similarity to everything.
        if !truthful && competence < 0.30 && h(6) < 0.5 {
            return words_of(deflection_phrase(&self.profile.family));
        }

        let answer: String = if truthful {
            let all: Vec<&str> = entry.all_correct().collect();
            // Weight the golden answer double: it is the most common phrasing,
            // which is exactly why independent truthful models agree.
            let idx = (h(3) * (all.len() + 1) as f64) as usize;
            all[idx.saturating_sub(1).min(all.len() - 1)].to_owned()
        } else if entry.incorrect.is_empty() {
            // No misconception recorded: an untruthful model deflects.
            return words_of(deflection_phrase(&self.profile.family));
        } else {
            let idx = (h(3) * entry.incorrect.len() as f64) as usize;
            let base = &entry.incorrect[idx.min(entry.incorrect.len() - 1)];
            // Confabulations are *idiosyncratic*: each model distorts the
            // misconception in its own way (word dropout + family filler), so
            // wrong answers agree with each other far less than right ones do
            // — the asymmetry the inter-model-agreement term of Eq. 6.1
            // exploits.
            confabulate(base, &self.profile.name, &self.profile.family, h(7))
        };

        let mut plan = Vec::new();
        if h(4) < self.profile.hedging {
            plan.extend(words_of(hedge_phrase(&self.profile.family)));
        }
        plan.extend(words_of(&answer));
        if h(5) < self.profile.verbosity {
            plan.extend(words_of("To put it differently,"));
            // Elaborate with an alternative phrasing when one exists, else
            // restate the chosen answer.
            let alt = if truthful {
                entry
                    .all_correct()
                    .find(|a| *a != answer)
                    .map(str::to_owned)
                    .unwrap_or_else(|| answer.clone())
            } else {
                answer.clone()
            };
            plan.extend(words_of(&alt));
        }
        plan
    }
}

fn words_of(text: &str) -> Vec<String> {
    text.split_whitespace().map(str::to_owned).collect()
}

fn hedge_phrase(family: &str) -> &'static str {
    match family {
        "llama" => "Great question! Based on what I know,",
        "mistral" => "In short:",
        "qwen" => "According to reliable sources,",
        _ => "I believe that",
    }
}

fn context_preamble(family: &str) -> &'static str {
    match family {
        "llama" => "Based on the provided context,",
        "mistral" => "From the context:",
        "qwen" => "The provided documents state that",
        _ => "According to the context,",
    }
}

/// Extract the context passage most similar to the question from a prompt
/// shaped by the platform's prompt builder (`Context:` bullet list followed
/// by a `Question:` line). Returns `None` when the prompt carries no
/// context section.
#[cfg(test)]
fn answer_from_context(prompt: &str, embedder: &llmms_embed::SharedEmbedder) -> Option<String> {
    answer_from_context_scored(prompt, embedder).map(|(p, _)| p)
}

/// As `answer_from_context`, also returning the passage–question cosine.
fn answer_from_context_scored(
    prompt: &str,
    embedder: &llmms_embed::SharedEmbedder,
) -> Option<(String, f32)> {
    let mut passages: Vec<&str> = Vec::new();
    let mut in_context = false;
    let mut question = "";
    for line in prompt.lines() {
        let trimmed = line.trim();
        if trimmed.eq_ignore_ascii_case("context:") {
            in_context = true;
            continue;
        }
        if let Some(q) = trimmed.strip_prefix("Question:") {
            question = q.trim();
            in_context = false;
            continue;
        }
        if in_context {
            if let Some(passage) = trimmed.strip_prefix("- ") {
                passages.push(passage);
            } else if trimmed.is_empty() {
                in_context = false;
            }
        }
    }
    if passages.is_empty() {
        return None;
    }
    let question_embedding = embedder.embed(if question.is_empty() {
        prompt
    } else {
        question
    });
    passages
        .iter()
        .map(|p| {
            let sim = llmms_embed::cosine_embeddings(&question_embedding, &embedder.embed(p));
            (sim, *p)
        })
        .max_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(sim, p)| (p.to_owned(), sim))
}

fn deflection_phrase(family: &str) -> &'static str {
    match family {
        "llama" => {
            "Honestly this is a nuanced topic and opinions vary quite a bit, \
             there are many perspectives and historical debates to weigh \
             before anyone can settle on something definitive."
        }
        "mistral" => "Hard to say; sources conflict and context matters a great deal here.",
        "qwen" => {
            "The available literature offers competing interpretations, so a \
             categorical statement would be premature without further study."
        }
        _ => "I am not certain and would rather not guess on this one.",
    }
}

/// Produce a model-specific distortion of a misconception: drop roughly one
/// word in six (seeded by the model/question hash) and append a
/// family-specific trailing clause. Confabulations thereby stay *on topic*
/// (they still share vocabulary with the question) while agreeing far less
/// across models than correct answers do.
fn confabulate(base: &str, model_name: &str, family: &str, seed_unit: f64) -> String {
    let seed = (seed_unit * u32::MAX as f64) as u64 | 1;
    let words: Vec<&str> = base.split_whitespace().collect();
    let mut out: Vec<&str> = Vec::with_capacity(words.len() + 8);
    let mut state = seed ^ fnv1a64(model_name.as_bytes());
    for (i, w) in words.iter().enumerate() {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let roll = (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f64 / (1u64 << 24) as f64;
        // Never drop the first two words (keeps the claim recognizable).
        if i >= 2 && roll < 0.16 {
            continue;
        }
        out.push(w);
    }
    let tail = match family {
        "llama" => "or so the story is usually told",
        "mistral" => "as commonly reported",
        "qwen" => "according to what many people believe",
        _ => "as far as I recall",
    };
    format!("{} , {}", out.join(" "), tail)
}

/// True when the prompt contains a correct answer *outside* the question
/// itself — i.e. retrieved context grounds the answer.
fn is_grounded(prompt: &str, entry: &crate::knowledge::KnowledgeEntry) -> bool {
    let lowered = prompt.to_lowercase();
    entry.all_correct().any(|a| {
        let a = a.to_lowercase();
        a.len() >= 12 && lowered.contains(&a)
    })
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Map a hash to a uniform float in `[0, 1)`.
fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl LanguageModel for SimLlm {
    fn name(&self) -> &str {
        &self.profile.name
    }

    fn info(&self) -> ModelInfo {
        ModelInfo {
            name: self.profile.name.clone(),
            family: self.profile.family.clone(),
            params_b: self.profile.params_b,
            context_window: self.profile.context_window,
            quantization: self.profile.quantization.clone(),
            decode_tokens_per_second: self.tokens_per_second(),
        }
    }

    fn start(&self, prompt: &str, options: &GenOptions) -> Box<dyn GenerationSession> {
        let plan = self.plan(prompt, options);
        Box::new(SimSession {
            plan,
            cursor: 0,
            text: String::new(),
            budget: options.max_tokens,
            tokens_per_second: self.tokens_per_second(),
            // Fixed prompt-processing overhead per request (prefill).
            latency: Duration::from_millis(30),
            done: None,
        })
    }
}

/// In-flight generation state of a [`SimLlm`].
struct SimSession {
    plan: Vec<String>,
    cursor: usize,
    text: String,
    budget: usize,
    tokens_per_second: f64,
    latency: Duration,
    done: Option<DoneReason>,
}

impl GenerationSession for SimSession {
    fn next_chunk(&mut self, max_tokens: usize) -> Result<Chunk, ModelError> {
        if let Some(reason) = self.done {
            return Ok(Chunk::finished(reason));
        }
        let mut chunk_text = String::new();
        let mut emitted = 0;
        while emitted < max_tokens && self.cursor < self.plan.len() && self.cursor < self.budget {
            if !self.text.is_empty() || !chunk_text.is_empty() {
                chunk_text.push(' ');
            }
            chunk_text.push_str(&self.plan[self.cursor]);
            self.cursor += 1;
            emitted += 1;
        }
        self.text.push_str(&chunk_text);
        self.latency += Duration::from_secs_f64(emitted as f64 / self.tokens_per_second);
        let done = if self.cursor >= self.plan.len() {
            Some(DoneReason::Stop)
        } else if self.cursor >= self.budget {
            Some(DoneReason::Length)
        } else {
            None
        };
        self.done = done;
        Ok(Chunk {
            text: chunk_text,
            tokens: emitted,
            done,
        })
    }

    fn tokens_generated(&self) -> usize {
        self.cursor
    }

    fn response_so_far(&self) -> &str {
        &self.text
    }

    fn done_reason(&self) -> Option<DoneReason> {
        self.done
    }

    fn simulated_latency(&self) -> Duration {
        self.latency
    }

    fn abort(&mut self) {
        if self.done.is_none() {
            self.done = Some(DoneReason::Aborted);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knowledge::test_support::{sample_entries, sample_store};
    use crate::knowledge::KnowledgeStore;

    fn store() -> Arc<KnowledgeStore> {
        Arc::new(sample_store())
    }

    fn expert() -> SimLlm {
        // A profile maximally competent everywhere.
        let mut p = ModelProfile::llama3_8b();
        for c in crate::profile::CATEGORIES {
            p.skills.insert(c.into(), 1.0);
        }
        p.default_skill = 1.0;
        SimLlm::new(p, store())
    }

    fn dunce() -> SimLlm {
        let mut p = ModelProfile::mistral_7b();
        for c in crate::profile::CATEGORIES {
            p.skills.insert(c.into(), 0.0);
        }
        p.default_skill = 0.0;
        p.hedging = 0.0;
        p.verbosity = 0.0;
        SimLlm::new(p, store())
    }

    fn cold_options() -> GenOptions {
        // temperature 0 keeps competence jitter at ±0.05 so skill 1.0 / 0.0
        // profiles behave deterministically truthful / untruthful.
        GenOptions {
            temperature: 0.0,
            ..GenOptions::default()
        }
    }

    #[test]
    fn expert_answers_correctly() {
        let m = expert();
        let done = m.complete("What is the capital of France?", &cold_options());
        assert!(
            done.text.to_lowercase().contains("paris"),
            "expert answered: {}",
            done.text
        );
        assert!(!done.text.to_lowercase().contains("lyon"));
        assert_eq!(done.done, DoneReason::Stop);
    }

    #[test]
    fn dunce_reproduces_misconception() {
        let m = dunce();
        let done = m.complete("What is the capital of France?", &cold_options());
        assert!(
            done.text.to_lowercase().contains("lyon"),
            "dunce answered: {}",
            done.text
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let m = SimLlm::new(ModelProfile::qwen2_7b(), store());
        let a = m.complete(
            "Can you see the Great Wall of China from space?",
            &GenOptions::default(),
        );
        let b = m.complete(
            "Can you see the Great Wall of China from space?",
            &GenOptions::default(),
        );
        assert_eq!(a.text, b.text);
        assert_eq!(a.tokens, b.tokens);
    }

    #[test]
    fn different_seeds_can_differ() {
        let m = SimLlm::new(ModelProfile::llama3_8b(), store());
        let prompt = "What happens if you crack your knuckles a lot?";
        let outputs: std::collections::HashSet<String> = (0..32)
            .map(|seed| {
                m.complete(
                    prompt,
                    &GenOptions {
                        seed,
                        ..GenOptions::default()
                    },
                )
                .text
            })
            .collect();
        assert!(outputs.len() > 1, "32 seeds produced a single output");
    }

    #[test]
    fn token_count_equals_word_count() {
        let m = expert();
        let done = m.complete("What is the capital of France?", &cold_options());
        assert_eq!(done.tokens, done.text.split_whitespace().count());
    }

    #[test]
    fn budget_truncates_with_length_reason() {
        let m = expert();
        let done = m.complete(
            "What is the capital of France?",
            &GenOptions {
                max_tokens: 2,
                temperature: 0.0,
                seed: 0,
            },
        );
        assert_eq!(done.tokens, 2);
        assert_eq!(done.done, DoneReason::Length);
    }

    #[test]
    fn unknown_prompt_yields_refusal() {
        let m = expert();
        let done = m.complete(
            "derive the quadratic reciprocity law from first principles",
            &cold_options(),
        );
        assert!(done.text.contains("not certain"), "got: {}", done.text);
    }

    #[test]
    fn grounded_prompt_rescues_dunce() {
        let m = dunce();
        let prompt = "Context: The capital of France is Paris.\n\n\
                      Question: What is the capital of France?\nAnswer:";
        let done = m.complete(prompt, &cold_options());
        assert!(
            done.text.to_lowercase().contains("paris"),
            "grounded dunce answered: {}",
            done.text
        );
    }

    #[test]
    fn cpu_placement_is_slower() {
        let store = store();
        let gpu = SimLlm::new(ModelProfile::mistral_7b(), Arc::clone(&store));
        let cpu = SimLlm::new(ModelProfile::mistral_7b(), store).with_placement(Placement::Cpu);
        let prompt = "What is the capital of France?";
        let g = gpu.complete(prompt, &cold_options());
        let c = cpu.complete(prompt, &cold_options());
        assert_eq!(g.text, c.text, "placement must not change content");
        assert!(c.simulated_latency > g.simulated_latency);
    }

    #[test]
    fn streaming_chunks_concatenate_to_full_text() {
        let m = expert();
        let opts = cold_options();
        let prompt = "Can you see the Great Wall of China from space?";
        let full = m.complete(prompt, &opts);
        let mut session = m.start(prompt, &opts);
        let mut acc = String::new();
        loop {
            let chunk = session.next_chunk(3).unwrap();
            acc.push_str(&chunk.text);
            if chunk.is_done() {
                break;
            }
        }
        assert_eq!(acc, full.text);
    }

    #[test]
    fn abort_marks_session() {
        let m = expert();
        let mut s = m.start("What is the capital of France?", &cold_options());
        s.next_chunk(1).unwrap();
        s.abort();
        assert_eq!(s.done_reason(), Some(DoneReason::Aborted));
        // Aborting a finished session does not overwrite the reason.
        let m2 = expert();
        let mut s2 = m2.start("What is the capital of France?", &cold_options());
        while !s2.next_chunk(16).unwrap().is_done() {}
        s2.abort();
        assert_eq!(s2.done_reason(), Some(DoneReason::Stop));
    }

    #[test]
    fn competence_rates_track_profile_skill() {
        // Empirically: over the KB questions and many seeds, a high-skill
        // profile answers truthfully far more often than a low-skill one.
        let store = store();
        let high = {
            let mut p = ModelProfile::llama3_8b();
            p.default_skill = 0.9;
            p.skills.clear();
            p.hedging = 0.0;
            p.verbosity = 0.0;
            SimLlm::new(p, Arc::clone(&store))
        };
        let low = {
            let mut p = ModelProfile::llama3_8b();
            p.default_skill = 0.1;
            p.skills.clear();
            p.hedging = 0.0;
            p.verbosity = 0.0;
            SimLlm::new(p, Arc::clone(&store))
        };
        let truth_rate = |m: &SimLlm| {
            let mut truthful = 0;
            let mut total = 0;
            for e in sample_entries() {
                for seed in 0..40 {
                    let out = m.complete(
                        &e.question,
                        &GenOptions {
                            seed,
                            temperature: 0.0,
                            ..GenOptions::default()
                        },
                    );
                    let lower = out.text.to_lowercase();
                    if e.all_correct().any(|c| lower.contains(&c.to_lowercase())) {
                        truthful += 1;
                    }
                    total += 1;
                }
            }
            truthful as f64 / total as f64
        };
        let hr = truth_rate(&high);
        let lr = truth_rate(&low);
        assert!(hr > 0.75, "high-skill truth rate {hr}");
        assert!(lr < 0.35, "low-skill truth rate {lr}");
    }
}

#[cfg(test)]
mod context_tests {
    use super::*;
    use crate::knowledge::KnowledgeStore;

    fn kb_less_model() -> SimLlm {
        let store = Arc::new(KnowledgeStore::build(
            Vec::new(),
            llmms_embed::default_embedder(),
        ));
        SimLlm::new(ModelProfile::mistral_7b(), store)
    }

    #[test]
    fn answers_from_rag_context_without_knowledge() {
        let m = kb_less_model();
        let prompt = "Answer accurately.\n\nContext:\n\
                      - The Falcon desk guarantees a response within six business hours.\n\
                      - Employees accrue twenty six days of annual leave.\n\n\
                      Question: How fast does the Falcon desk respond?\nAnswer:";
        let out = m.complete(prompt, &GenOptions::default());
        assert!(
            out.text.contains("six business hours"),
            "extracted: {}",
            out.text
        );
        assert!(!out.text.contains("annual leave"));
    }

    #[test]
    fn no_context_yields_refusal() {
        let m = kb_less_model();
        let out = m.complete(
            "Question: who won the 3019 cup?\nAnswer:",
            &GenOptions::default(),
        );
        assert!(out.text.contains("not certain"));
    }

    #[test]
    fn context_extraction_parses_builder_format() {
        let embedder = llmms_embed::default_embedder();
        let prompt = "Context:\n- alpha passage about cats\n- beta passage about rockets\n\n\
                      Question: tell me about rockets\nAnswer:";
        let extracted = answer_from_context(prompt, &embedder).unwrap();
        assert_eq!(extracted, "beta passage about rockets");
        assert!(answer_from_context("no context here", &embedder).is_none());
    }
}
