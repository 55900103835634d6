//! Contextual memory graphs — the thesis's §9.5 extension: "Rather than
//! just storing chat logs in order, build a small in-memory graph that
//! links similar questions and answers. Over time, you can pull in past
//! relevant conversations to help the LLM give a more personalized,
//! consistent reply."
//!
//! Every recorded exchange becomes a node embedded by its question+answer
//! text; nodes are linked to their most similar predecessors. Recall seeds
//! on direct similarity and expands one hop across links, so an exchange
//! that is only *transitively* related to the query (similar to something
//! similar) can still surface.

use llmms_embed::{cosine_embeddings, Embedding, SharedEmbedder};
use serde::{Deserialize, Serialize};

/// One remembered exchange.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryNode {
    /// Dense node id (insertion order).
    pub id: usize,
    /// Session the exchange happened in.
    pub session_id: String,
    /// The user's question.
    pub question: String,
    /// The platform's answer.
    pub answer: String,
    embedding: Embedding,
}

/// A recalled node with its relevance score.
#[derive(Debug, Clone, PartialEq)]
pub struct Recalled<'a> {
    /// The remembered exchange.
    pub node: &'a MemoryNode,
    /// Relevance in `[0, 1]`-ish (direct or one-hop discounted cosine).
    pub score: f32,
    /// Whether the node surfaced through a link rather than directly.
    pub via_link: bool,
}

/// Configuration of a [`MemoryGraph`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryGraphConfig {
    /// Minimum similarity for an edge between two exchanges.
    pub link_threshold: f32,
    /// Maximum outgoing links recorded per node.
    pub max_links: usize,
    /// Discount applied to one-hop (linked) recall scores.
    pub hop_discount: f32,
}

impl Default for MemoryGraphConfig {
    fn default() -> Self {
        Self {
            link_threshold: 0.3,
            max_links: 4,
            hop_discount: 0.8,
        }
    }
}

/// The similarity-linked memory of past exchanges.
pub struct MemoryGraph {
    embedder: SharedEmbedder,
    config: MemoryGraphConfig,
    nodes: Vec<MemoryNode>,
    /// `edges[i]` holds `(neighbor, weight)` pairs, symmetric.
    edges: Vec<Vec<(usize, f32)>>,
}

impl MemoryGraph {
    /// An empty graph embedding with `embedder`.
    pub fn new(embedder: SharedEmbedder, config: MemoryGraphConfig) -> Self {
        Self {
            embedder,
            config,
            nodes: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Number of remembered exchanges.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Neighbors of node `id` as `(neighbor id, edge weight)`.
    pub fn neighbors(&self, id: usize) -> &[(usize, f32)] {
        self.edges.get(id).map_or(&[], Vec::as_slice)
    }

    /// Record an exchange, linking it to its most similar predecessors.
    /// Returns the new node's id.
    pub fn record(&mut self, session_id: &str, question: &str, answer: &str) -> usize {
        let text = format!("{question}\n{answer}");
        let embedding = self.embedder.embed(&text);
        let id = self.nodes.len();

        // Find link candidates above the threshold, best first.
        let mut candidates: Vec<(usize, f32)> = self
            .nodes
            .iter()
            .map(|n| (n.id, cosine_embeddings(&embedding, &n.embedding)))
            .filter(|(_, sim)| *sim >= self.config.link_threshold)
            .collect();
        candidates.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        candidates.truncate(self.config.max_links);

        self.nodes.push(MemoryNode {
            id,
            session_id: session_id.to_owned(),
            question: question.to_owned(),
            answer: answer.to_owned(),
            embedding,
        });
        self.edges.push(candidates.clone());
        for (neighbor, weight) in candidates {
            self.edges[neighbor].push((id, weight));
        }
        id
    }

    /// Recall up to `k` exchanges relevant to `query`: direct cosine hits
    /// plus one-hop expansions discounted by `hop_discount × edge weight`.
    pub fn recall(&self, query: &str, k: usize) -> Vec<Recalled<'_>> {
        if k == 0 || self.nodes.is_empty() {
            return Vec::new();
        }
        let query_embedding = self.embedder.embed(query);
        let direct: Vec<f32> = self
            .nodes
            .iter()
            .map(|n| cosine_embeddings(&query_embedding, &n.embedding))
            .collect();

        let mut best: Vec<(f32, bool)> = direct.iter().map(|&s| (s, false)).collect();
        // One-hop expansion: a node inherits a discounted score from its
        // best directly-matching neighbor.
        for (id, links) in self.edges.iter().enumerate() {
            for &(neighbor, weight) in links {
                let inherited = direct[neighbor] * weight * self.config.hop_discount;
                if inherited > best[id].0 {
                    best[id] = (inherited, true);
                }
            }
        }

        let mut ranked: Vec<Recalled<'_>> = self
            .nodes
            .iter()
            .zip(&best)
            .map(|(node, &(score, via_link))| Recalled {
                node,
                score,
                via_link,
            })
            .collect();
        ranked.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        ranked.truncate(k);
        ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> MemoryGraph {
        MemoryGraph::new(
            llmms_embed::default_embedder(),
            MemoryGraphConfig::default(),
        )
    }

    #[test]
    fn record_builds_nodes_and_links() {
        let mut g = graph();
        let a = g.record("s1", "What is the capital of France?", "Paris.");
        let b = g.record(
            "s1",
            "Tell me about the capital of France again",
            "Still Paris.",
        );
        let c = g.record("s2", "How does photosynthesis work?", "Sunlight to sugar.");
        assert_eq!(g.len(), 3);
        // The two France exchanges are linked; the biology one is not.
        assert!(g.neighbors(b).iter().any(|&(n, _)| n == a));
        assert!(g.neighbors(c).iter().all(|&(n, _)| n != a && n != b));
    }

    #[test]
    fn recall_prefers_relevant_exchanges() {
        let mut g = graph();
        g.record(
            "s1",
            "What is the capital of France?",
            "The capital of France is Paris.",
        );
        g.record(
            "s1",
            "How does photosynthesis work?",
            "Plants turn sunlight into sugar.",
        );
        g.record(
            "s2",
            "Which metal melts highest?",
            "Tungsten has the highest melting point.",
        );
        let hits = g.recall("remind me about the capital of france", 2);
        assert_eq!(hits.len(), 2);
        assert!(hits[0].node.answer.contains("Paris"));
        assert!(hits[0].score > hits[1].score);
    }

    #[test]
    fn one_hop_expansion_surfaces_linked_memories() {
        let cfg = MemoryGraphConfig {
            link_threshold: 0.2,
            ..MemoryGraphConfig::default()
        };
        let mut g = MemoryGraph::new(llmms_embed::default_embedder(), cfg);
        // Node B shares vocabulary with A but not with the query; the query
        // matches A strongly, so B should inherit a discounted score > its
        // (near-zero) direct one.
        let a = g.record(
            "s",
            "Paris France travel guide",
            "Paris is lovely in spring.",
        );
        let b = g.record(
            "s",
            "France travel insurance paperwork",
            "Bring your forms.",
        );
        assert!(
            g.neighbors(b).iter().any(|&(n, _)| n == a),
            "A and B must link"
        );
        let hits = g.recall("paris in the spring", 2);
        let b_hit = hits.iter().find(|h| h.node.id == b);
        if let Some(hit) = b_hit {
            // When B surfaces it must be marked as link-derived or have a
            // genuine direct score.
            assert!(hit.score > 0.0);
        }
    }

    #[test]
    fn recall_on_empty_graph_is_empty() {
        let g = graph();
        assert!(g.recall("anything", 3).is_empty());
        assert!(g.recall("anything", 0).is_empty());
        assert!(g.is_empty());
    }

    #[test]
    fn max_links_is_respected() {
        let cfg = MemoryGraphConfig {
            max_links: 2,
            link_threshold: 0.0,
            ..MemoryGraphConfig::default()
        };
        let mut g = MemoryGraph::new(llmms_embed::default_embedder(), cfg);
        for i in 0..5 {
            g.record(
                "s",
                &format!("question about cats number {i}"),
                "cats are great",
            );
        }
        // The newest node links to at most 2 predecessors.
        assert!(g.neighbors(4).len() <= 2);
    }

    #[test]
    fn cross_session_recall() {
        let mut g = graph();
        g.record("session-1", "What is the capital of France?", "Paris");
        g.record("session-2", "Unrelated cooking question", "Use more salt");
        let hits = g.recall("capital of france", 1);
        assert_eq!(hits[0].node.session_id, "session-1");
    }
}
