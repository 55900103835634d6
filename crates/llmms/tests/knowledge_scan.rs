//! The simulated models' knowledge lookup scans its own question
//! embeddings. It must recall exactly what a flat vector-store collection
//! would: the same entry and the same score, bit for bit.

use llmms::embed::default_embedder;
use llmms::eval::{generate, GeneratorConfig};
use llmms::models::KnowledgeStore;
use llmms::vectordb::{Collection, CollectionConfig, Record};

#[test]
fn lookup_matches_a_flat_collection_top1() {
    let embedder = default_embedder();
    let mut entries = generate(&GeneratorConfig::default()).to_knowledge();
    // A repeated id: the later entry replaces the earlier one, as an upsert.
    let mut repeat = entries[0].clone();
    repeat.question = format!("{} Explain briefly.", entries[1].question);
    entries.push(repeat);

    let mut reference = Collection::new("knowledge", CollectionConfig::flat(embedder.dim()));
    for e in &entries {
        reference
            .upsert(Record::new(e.id.clone(), embedder.embed(&e.question)))
            .unwrap();
    }
    let store = KnowledgeStore::build(entries.clone(), embedder.clone());

    let mut compared = 0;
    for (n, e) in entries.iter().enumerate() {
        let mut words: Vec<&str> = e.question.split_whitespace().collect();
        words.remove(n % words.len());
        let prompt = words.join(" ");
        let lowered = prompt.to_lowercase();
        if entries
            .iter()
            .any(|e| lowered.contains(&e.question.to_lowercase()))
        {
            continue; // answered by the exact-text path, not the scan
        }
        let hit = &reference.query(&embedder.embed(&prompt), 1, None).unwrap()[0];
        // 0.35 is the store's default recall floor.
        let expected = (hit.score >= 0.35).then(|| (hit.id.as_str(), hit.score.to_bits()));
        let got = store
            .lookup_scored(&prompt)
            .map(|(entry, score)| (entry.id.as_str(), score.to_bits()));
        assert_eq!(got, expected, "{prompt:?}");
        compared += 1;
    }
    assert!(
        compared > entries.len() / 2,
        "{compared} of {}",
        entries.len()
    );
}
