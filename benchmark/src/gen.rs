//! Seeded inputs: the RAG corpus, the question pool and each workload's
//! request stream. Everything here is a pure function of `--seed`; the
//! program under test sees only the requests these produce.

use crate::rng::{Cycle, Rng};
use llmms::eval::{Dataset, DatasetItem};
use std::time::Duration;

/// Load threads, and so connections, per run: the machine's two cores.
pub const THREADS: usize = 2;
pub const TENANTS: [&str; 3] = ["acme", "globex", "initech"];
/// Query turns per chat session before its slot starts a new one.
pub const TURNS_PER_SESSION: usize = 8;
/// Chat sessions each connection keeps open side by side.
const SLOTS_PER_THREAD: usize = 4;

const ATTRS: [&str; 7] = [
    "capital", "currency", "anthem", "harvest", "emblem", "dialect", "festival",
];
pub const FACTS_PER_DOC: usize = ATTRS.len();
/// The retriever packs whole sentences into chunks of at most 64 words.
/// Every fact sentence has exactly 33, so no two share a chunk and a document
/// always makes one chunk per fact. The constant chunk count keeps the
/// store's WAL frame count — and with it when snapshots fall — the same for
/// every seed.
pub const CHUNKS_PER_DOC: usize = FACTS_PER_DOC;

const SYLLABLES: [&str; 24] = [
    "zor", "bla", "ven", "tar", "mik", "ulo", "dra", "sen", "pol", "kyr", "wes", "ith", "gan",
    "rho", "fel", "ost", "byn", "cal", "dux", "erv", "jol", "nim", "qua", "tys",
];

fn name(rng: &mut Rng, syllables: usize) -> String {
    let mut s = String::new();
    for _ in 0..syllables {
        s.push_str(SYLLABLES[rng.below(SYLLABLES.len())]);
    }
    s[..1].to_uppercase() + &s[1..]
}

/// One synthetic document: seven one-sentence facts about one invented entity.
#[derive(Debug, Clone, PartialEq)]
pub struct Doc {
    pub id: String,
    pub entity: String,
    /// The value each fact states, by attribute index.
    pub values: Vec<String>,
    /// The chronicler each fact names; a question names them too.
    persons: Vec<String>,
    pub text: String,
}

impl Doc {
    pub fn question(&self, fact: usize) -> String {
        // Worded after the documents, not after the models' question bank
        // ("What is the … of …?"): a simulated model answers from retrieved
        // context only when the question is closer to a passage than to
        // anything it "knows".
        format!(
            "Which {} did the chronicler {} record for {}?",
            ATTRS[fact], self.persons[fact], self.entity
        )
    }

    /// The reference entry quality is scored against: the fact sentence as
    /// the gold answer, the same sentence about another value as the wrong one.
    pub fn item(&self, fact: usize) -> DatasetItem {
        let sentence = self
            .text
            .split_inclusive(". ")
            .nth(fact)
            .unwrap_or("")
            .trim();
        let other = &self.values[(fact + 1) % FACTS_PER_DOC];
        DatasetItem {
            id: format!("{}#{fact}", self.id),
            question: self.question(fact),
            category: "documents".to_owned(),
            golden: sentence.to_owned(),
            correct: Vec::new(),
            incorrect: vec![sentence.replace(&self.values[fact], other)],
        }
    }
}

pub fn corpus(seed: u64, docs: usize) -> Vec<Doc> {
    let mut rng = Rng::stream(seed, 1);
    // Entities are distinct by construction: each takes its own triple of
    // syllable indices from a shuffled enumeration.
    let n = SYLLABLES.len();
    let mut triples: Vec<usize> = (0..n * n * n).collect();
    rng.shuffle(&mut triples);
    (0..docs)
        .map(|d| {
            let t = triples[d];
            let raw = format!(
                "{}{}{}",
                SYLLABLES[t / (n * n)],
                SYLLABLES[t / n % n],
                SYLLABLES[t % n]
            );
            let entity = raw[..1].to_uppercase() + &raw[1..];
            let mut values = Vec::with_capacity(FACTS_PER_DOC);
            let mut persons = Vec::with_capacity(FACTS_PER_DOC);
            let mut text = String::new();
            for attr in ATTRS {
                let value = name(&mut rng, 3);
                let person = name(&mut rng, 2);
                let place = name(&mut rng, 2);
                text.push_str(&format!(
                    "The {attr} of {entity} is {value}, which the chronicler {person} first \
                     recorded in the old {place} ledger many years ago, and travellers passing \
                     through {entity} still repeat that {value} is its {attr} today. "
                ));
                values.push(value);
                persons.push(person);
            }
            Doc {
                id: format!("doc-{d:04}"),
                entity,
                values,
                persons,
                text: text.trim_end().to_owned(),
            }
        })
        .collect()
}

/// The chat question pool: every item of the synthetic TruthfulQA bank (the
/// server's models were "trained" on exactly these), in seeded order. Chat
/// turns draw from it in seeded permutations, so every question is asked
/// equally often and answer quality does not hinge on which few a skewed
/// draw happened to favour; all 180 fit the server's 4096-entry embedding
/// memo either way.
pub fn question_pool(seed: u64) -> Dataset {
    let mut dataset = llmms::eval::generate(&llmms::eval::GeneratorConfig::default());
    Rng::stream(seed, 2).shuffle(&mut dataset.items);
    dataset
}

/// One operation against the server.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `POST /api/sessions`; the id goes into the connection's `slot`.
    NewSession { slot: usize },
    /// Streaming chat turn, retrieval off. `slot` threads it into a session.
    Chat {
        slot: Option<usize>,
        tenant: usize,
        item: usize,
    },
    /// RAG question about fact `fact` of document `doc`, top-3 retrieval.
    Rag {
        doc: usize,
        fact: usize,
        stream: bool,
    },
    /// `POST /api/ingest` of document `doc` (a re-ingest of a stored id).
    Ingest { doc: usize },
}

#[derive(Debug, Clone, PartialEq)]
pub struct Timed {
    /// Offset from the start of the phase at which the request is due;
    /// zero throughout a closed loop or a warm-up.
    pub due: Duration,
    pub op: Op,
}

/// The operations of one phase, one list per connection.
pub type Plan = Vec<Vec<Timed>>;

/// `count` Poisson arrivals spread over exactly `seconds`: exponential gaps
/// rescaled so the last request is due just before the phase ends. Fixing
/// the count keeps the offered load the same for every seed.
fn arrivals(rng: &mut Rng, count: usize, seconds: f64) -> Vec<Duration> {
    let gaps: Vec<f64> = (0..=count).map(|_| rng.exp(1.0)).collect();
    let total: f64 = gaps.iter().sum();
    let mut at = 0.0;
    gaps[..count]
        .iter()
        .map(|g| {
            at += g;
            Duration::from_secs_f64(at / total * seconds)
        })
        .collect()
}

/// Per-connection chat stream: `SLOTS_PER_THREAD` sessions side by side,
/// served round-robin, each replaced after `TURNS_PER_SESSION` turns. Session
/// creation is an operation of its own in the stream.
fn chat_ops(rng: &mut Rng, pool: usize, count: usize) -> Vec<Op> {
    let mut items = Cycle::new(pool);
    let mut turns_left = [0usize; SLOTS_PER_THREAD];
    let mut tenant = [0usize; SLOTS_PER_THREAD];
    let mut ops = Vec::with_capacity(count);
    let mut slot = 0;
    while ops.len() < count {
        if turns_left[slot] == 0 {
            turns_left[slot] = TURNS_PER_SESSION;
            tenant[slot] = rng.below(TENANTS.len());
            ops.push(Op::NewSession { slot });
        } else {
            turns_left[slot] -= 1;
            ops.push(Op::Chat {
                slot: Some(slot),
                tenant: tenant[slot],
                item: items.draw(rng),
            });
            slot = (slot + 1) % SLOTS_PER_THREAD;
        }
    }
    ops
}

fn timed(ops: Vec<Op>, due: Vec<Duration>) -> Vec<Timed> {
    ops.into_iter()
        .zip(due)
        .map(|(op, due)| Timed { due, op })
        .collect()
}

fn untimed(ops: Vec<Op>) -> Vec<Timed> {
    let due = vec![Duration::ZERO; ops.len()];
    timed(ops, due)
}

/// `chat_sse_open`: `rate` operations/s over `seconds`, split evenly over the
/// connections. `phase` separates the warm-up's draws from the measured ones.
pub fn chat_plan(seed: u64, phase: u64, pool: usize, rate: f64, seconds: f64) -> Plan {
    let per_thread = (rate * seconds / THREADS as f64).round() as usize;
    (0..THREADS)
        .map(|t| {
            let mut rng = Rng::stream(seed, 100 + phase * 10 + t as u64);
            let ops = chat_ops(&mut rng, pool, per_thread);
            let due = arrivals(&mut rng, per_thread, seconds);
            timed(ops, due)
        })
        .collect()
}

/// Distinct `(doc, fact)` pairs in seeded order: no RAG question is ever
/// asked twice in a run, so the server's embedding memo never helps.
pub fn fact_order(seed: u64, docs: usize) -> Vec<(usize, usize)> {
    let mut pairs: Vec<(usize, usize)> = (0..docs)
        .flat_map(|d| (0..FACTS_PER_DOC).map(move |f| (d, f)))
        .collect();
    Rng::stream(seed, 3).shuffle(&mut pairs);
    pairs
}

/// `rag_rw_open`: 10 % re-ingests, 45 % streaming and 45 % JSON questions,
/// each question taken once from `facts`.
pub fn rag_plan(
    seed: u64,
    phase: u64,
    docs: usize,
    facts: &mut impl Iterator<Item = (usize, usize)>,
    rate: f64,
    seconds: f64,
) -> Plan {
    let per_thread = (rate * seconds / THREADS as f64).round() as usize;
    (0..THREADS)
        .map(|t| {
            let mut rng = Rng::stream(seed, 200 + phase * 10 + t as u64);
            let ops = (0..per_thread)
                .map(|i| {
                    // Every tenth operation writes; a fixed pattern keeps the
                    // read/write mix exact at any run length.
                    if i % 10 == 9 {
                        Op::Ingest {
                            doc: rng.below(docs),
                        }
                    } else {
                        let (doc, fact) = facts.next().expect("corpus has enough facts");
                        Op::Rag {
                            doc,
                            fact,
                            stream: rng.below(2) == 0,
                        }
                    }
                })
                .collect();
            let due = arrivals(&mut rng, per_thread, seconds);
            timed(ops, due)
        })
        .collect()
}

/// Warm-up of a RAG server: questions only, as fast as the server answers.
pub fn rag_warmup(facts: &mut impl Iterator<Item = (usize, usize)>, count: usize) -> Plan {
    (0..THREADS)
        .map(|t| {
            let ops = (0..count / THREADS)
                .map(|i| {
                    let (doc, fact) = facts.next().expect("corpus has enough facts");
                    Op::Rag {
                        doc,
                        fact,
                        stream: (i + t) % 2 == 0,
                    }
                })
                .collect();
            untimed(ops)
        })
        .collect()
}

/// `saturate_closed`: each connection alternates a session-less streaming
/// chat turn and a JSON RAG question, back to back. `count` bounds the list;
/// the loop stops at its time limit long before.
pub fn saturate_plan(
    seed: u64,
    phase: u64,
    pool: usize,
    facts: &mut impl Iterator<Item = (usize, usize)>,
    count: usize,
) -> Plan {
    (0..THREADS)
        .map(|t| {
            let mut rng = Rng::stream(seed, 300 + phase * 10 + t as u64);
            let mut items = Cycle::new(pool);
            let ops = (0..count / THREADS)
                .map(|i| {
                    if i % 2 == 0 {
                        Op::Chat {
                            slot: None,
                            tenant: rng.below(TENANTS.len()),
                            item: items.draw(&mut rng),
                        }
                    } else {
                        // Facts repeat once the corpus is used up; a closed
                        // loop at full speed outruns any corpus this size.
                        let (doc, fact) = facts.next().expect("cycled");
                        Op::Rag {
                            doc,
                            fact,
                            stream: false,
                        }
                    }
                })
                .collect();
            untimed(ops)
        })
        .collect()
}

/// Ingest of the whole corpus over one connection, in document order. Two
/// connections would load faster, but how their requests interleave with the
/// store's snapshots decides whether the server's peak memory comes out at
/// 373 or 485 MiB; one writer makes set-up the same every time.
pub fn ingest_plan(docs: usize) -> Plan {
    let mut plan = vec![Vec::new(); THREADS];
    plan[0] = untimed((0..docs).map(|doc| Op::Ingest { doc }).collect());
    plan
}

/// Strip the timing from a timed plan (a warm-up runs it as fast as it goes).
pub fn without_due(plan: Plan) -> Plan {
    plan.into_iter()
        .map(|ops| untimed(ops.into_iter().map(|t| t.op).collect()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(plan: &Plan) -> String {
        format!("{plan:?}")
    }

    #[test]
    fn same_seed_gives_the_same_bytes_and_another_seed_differs() {
        let a = render(&chat_plan(5, 1, 180, 200.0, 3.0));
        let b = render(&chat_plan(5, 1, 180, 200.0, 3.0));
        let c = render(&chat_plan(6, 1, 180, 200.0, 3.0));
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Warm-up and measured phases draw from different streams.
        assert_ne!(a, render(&chat_plan(5, 0, 180, 200.0, 3.0)));

        let rag = |seed| {
            let mut facts = fact_order(seed, 50).into_iter();
            render(&rag_plan(seed, 1, 50, &mut facts, 60.0, 5.0))
        };
        assert_eq!(rag(5), rag(5));
        assert_ne!(rag(5), rag(6));

        assert_eq!(corpus(5, 20), corpus(5, 20));
        assert_ne!(corpus(5, 20), corpus(6, 20));
        let ids = |seed| -> Vec<String> {
            question_pool(seed)
                .items
                .into_iter()
                .map(|i| i.id)
                .collect()
        };
        assert_eq!(ids(5), ids(5));
        assert_ne!(ids(5), ids(6));
    }

    #[test]
    fn arrivals_are_sorted_inside_the_phase_and_exact_in_count() {
        let mut rng = Rng::new(1);
        let due = arrivals(&mut rng, 1000, 10.0);
        assert_eq!(due.len(), 1000);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(due[999] < Duration::from_secs(10));
        assert!(due[999] > Duration::from_secs(9));
    }

    #[test]
    fn chat_sessions_are_created_before_use_and_last_eight_turns() {
        let mut rng = Rng::new(2);
        let ops = chat_ops(&mut rng, 180, 500);
        let mut open = [false; SLOTS_PER_THREAD];
        let mut turns = [0usize; SLOTS_PER_THREAD];
        for op in &ops {
            match op {
                Op::NewSession { slot } => {
                    assert!(!open[*slot] || turns[*slot] == TURNS_PER_SESSION);
                    open[*slot] = true;
                    turns[*slot] = 0;
                }
                Op::Chat {
                    slot: Some(slot),
                    item,
                    ..
                } => {
                    assert!(open[*slot], "turn in a session never created");
                    turns[*slot] += 1;
                    assert!(turns[*slot] <= TURNS_PER_SESSION);
                    assert!(*item < 180);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn documents_chunk_evenly_and_facts_are_unique() {
        let docs = corpus(3, 40);
        let mut entities: Vec<&str> = docs.iter().map(|d| d.entity.as_str()).collect();
        entities.sort_unstable();
        entities.dedup();
        assert_eq!(entities.len(), 40);
        for d in &docs {
            let paragraphs = [d.text.clone()];
            let chunks = llmms::rag::chunker::chunk(
                &paragraphs,
                &llmms::rag::chunker::ChunkStrategy::default(),
            );
            assert_eq!(chunks.len(), CHUNKS_PER_DOC, "{}", d.id);
            let item = d.item(4);
            assert!(item.golden.contains(&d.values[4]));
            assert!(item.golden.starts_with("The emblem of"));
            assert_eq!(item.golden.split_whitespace().count(), 33);
            assert!(!item.incorrect[0].contains(&d.values[4]));
        }
        let order = fact_order(3, 40);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 40 * FACTS_PER_DOC);
    }

    #[test]
    fn rag_mix_is_one_write_in_ten() {
        let mut facts = fact_order(1, 100).into_iter();
        let plan = rag_plan(1, 1, 100, &mut facts, 60.0, 10.0);
        let ops: Vec<&Op> = plan.iter().flatten().map(|t| &t.op).collect();
        let writes = ops
            .iter()
            .filter(|o| matches!(o, Op::Ingest { .. }))
            .count();
        assert_eq!(ops.len(), 600);
        assert_eq!(writes, 60);
        assert!(ops
            .iter()
            .any(|o| matches!(o, Op::Rag { stream: true, .. })));
        assert!(ops
            .iter()
            .any(|o| matches!(o, Op::Rag { stream: false, .. })));
    }
}
