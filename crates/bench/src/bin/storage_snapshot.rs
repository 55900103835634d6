//! Durable vector-store cost: WAL append/fsync policy, checkpoint, recovery.
//!
//! Sweeps the `fsync_every` knob over a fixed ingest workload and measures:
//!
//! * **ingest_us_per_record** — mean wall-clock per upsert, WAL append
//!   included (the durability tax the RAG ingest path pays);
//! * **wal_bytes_per_record** — log growth per upsert (frame header +
//!   binary record);
//! * **checkpoint_us** — one full snapshot + sidecar + WAL truncation at
//!   the end, and **checkpoint_bytes**, what those two files hold;
//! * **recovery_us** — `Database::open` reading snapshot + sidecar back;
//! * **recovered_records** — how many records the reopened store holds.
//!
//! Records are 384-d — the dimension the platform embeds at — with a
//! sentence of text and the RAG chunk metadata.
//!
//! Writes `BENCH_storage.json` at the given path (default
//! `BENCH_storage.json` in the working directory).
//!
//! Usage:
//!   cargo run -p llmms-bench --release --bin storage_snapshot [out.json]
//!   cargo run -p llmms-bench --release --bin storage_snapshot -- --check
//!
//! `--check` runs a reduced workload and exits nonzero unless (a) every
//! configuration recovers all committed records and (b) batched fsync
//! (`fsync_every = 64`) is not slower than per-append fsync
//! (`fsync_every = 1`) — the CI storage gate.

use llmms::embed::Embedding;
use llmms::vectordb::{meta, CollectionConfig, Database, Record, StorageConfig};
use serde_json::json;
use std::time::Instant;

const DIM: usize = 384;

/// Deterministic synthetic embedding for record `i`.
fn synth_embedding(i: usize) -> Embedding {
    let values: Vec<f32> = (0..DIM)
        .map(|d| ((i * 31 + d * 7 + 3) % 97) as f32 / 97.0 - 0.5)
        .collect();
    Embedding::new(values).normalized()
}

fn synth_record(i: usize) -> Record {
    Record::new(format!("r{i}"), synth_embedding(i))
        .with_document(format!("synthetic chunk number {i} for the storage bench"))
        .with_metadata(meta([
            ("document_id", format!("doc{}", i / 7).into()),
            ("chunk_index", ((i % 7) as i64).into()),
        ]))
}

fn file_len(path: std::path::PathBuf) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

struct Case {
    fsync_every: usize,
    ingest_us_per_record: f64,
    wal_bytes_per_record: f64,
    checkpoint_us: f64,
    checkpoint_bytes: u64,
    recovery_us: f64,
    recovered_records: usize,
}

fn bench_case(dir: &std::path::Path, fsync_every: usize, records: usize) -> Case {
    std::fs::remove_dir_all(dir).ok();
    let config = StorageConfig {
        fsync_every,
        snapshot_every: 0, // manual checkpoint only: isolate the knobs
    };
    let db = Database::open_with(dir, config).expect("bench dir must be writable");
    let coll = db
        .create_collection("bench", CollectionConfig::flat(DIM))
        .expect("fresh collection");

    let start = Instant::now();
    for i in 0..records {
        coll.write().upsert(synth_record(i)).expect("upsert");
    }
    db.flush().expect("flush");
    let ingest_us_per_record = start.elapsed().as_secs_f64() * 1e6 / records as f64;
    let wal_bytes_per_record = file_len(dir.join("bench.wal")) as f64 / records as f64;

    let start = Instant::now();
    db.checkpoint().expect("checkpoint");
    let checkpoint_us = start.elapsed().as_secs_f64() * 1e6;
    let checkpoint_bytes = file_len(dir.join("bench.snap")) + file_len(dir.join("bench.idx.bin"));

    drop(coll);
    drop(db);
    let start = Instant::now();
    let reopened = Database::open(dir).expect("reopen");
    let recovery_us = start.elapsed().as_secs_f64() * 1e6;
    let recovered_records = reopened
        .collection("bench")
        .map(|c| c.read().len())
        .unwrap_or(0);
    std::fs::remove_dir_all(dir).ok();

    Case {
        fsync_every,
        ingest_us_per_record,
        wal_bytes_per_record,
        checkpoint_us,
        checkpoint_bytes,
        recovery_us,
        recovered_records,
    }
}

fn main() {
    let arg = std::env::args().nth(1);
    let check_mode = arg.as_deref() == Some("--check");

    let records = if check_mode { 400 } else { 2000 };
    let policies: &[usize] = &[1, 8, 64, 0];

    let dir = std::env::temp_dir().join(format!("llmms-bench-storage-{}", std::process::id()));
    let cases: Vec<Case> = policies
        .iter()
        .map(|&fsync_every| {
            let c = bench_case(&dir, fsync_every, records);
            eprintln!(
                "fsync_every={:<3} ingest {:.1}us/rec ({:.0} B/rec) checkpoint {:.0}us ({} B) recovery {:.0}us ({} records)",
                c.fsync_every, c.ingest_us_per_record, c.wal_bytes_per_record, c.checkpoint_us,
                c.checkpoint_bytes, c.recovery_us, c.recovered_records,
            );
            c
        })
        .collect();

    if check_mode {
        let mut failed = false;
        for c in &cases {
            if c.recovered_records != records {
                eprintln!(
                    "FAIL: fsync_every={} recovered {}/{} records",
                    c.fsync_every, c.recovered_records, records
                );
                failed = true;
            }
        }
        let per_append = cases.iter().find(|c| c.fsync_every == 1).unwrap();
        let batched = cases.iter().find(|c| c.fsync_every == 64).unwrap();
        if batched.ingest_us_per_record > per_append.ingest_us_per_record {
            eprintln!(
                "FAIL: batched fsync ({:.1}us/rec) slower than per-append fsync ({:.1}us/rec)",
                batched.ingest_us_per_record, per_append.ingest_us_per_record
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!(
            "OK: all policies recovered {records} records; batched {:.1}us/rec vs per-append {:.1}us/rec",
            batched.ingest_us_per_record, per_append.ingest_us_per_record
        );
        return;
    }

    let out = json!({
        "bench": "storage_snapshot",
        "unit": "microseconds",
        "records_per_case": records,
        "dim": DIM,
        "cases": cases.iter().map(|c| json!({
            "fsync_every": c.fsync_every,
            "ingest_us_per_record": c.ingest_us_per_record,
            "wal_bytes_per_record": c.wal_bytes_per_record,
            "checkpoint_us": c.checkpoint_us,
            "checkpoint_bytes": c.checkpoint_bytes,
            "recovery_us": c.recovery_us,
            "recovered_records": c.recovered_records,
        })).collect::<Vec<_>>(),
    });
    let path = arg.unwrap_or_else(|| "BENCH_storage.json".to_owned());
    let pretty = serde_json::to_string_pretty(&out).expect("bench json serializes");
    std::fs::write(&path, pretty).expect("bench file must be writable");
    eprintln!("storage snapshot written to {path}");
}
