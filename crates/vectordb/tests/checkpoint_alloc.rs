//! Acceptance test for the checkpoint's memory cost: writing the snapshot
//! and the index sidecar must stream, so the heap a checkpoint holds at its
//! peak is bounded by what it writes — never a second copy of the store in
//! some intermediate form. This is the tier-1 pin for the `peak_rss_mb`
//! reading of the `rag_rw_open` benchmark workload.

use llmms_embed::Embedding;
use llmms_vectordb::{meta, CollectionConfig, Database, Record, StorageConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Tracks live heap bytes and their high-water mark, process-wide (this
/// file holds one test, so nothing else allocates beside it).
struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

#[test]
fn checkpoint_peak_heap_is_bounded_by_the_bytes_it_writes() {
    const RECORDS: usize = 2000;
    const DIM: usize = 384;
    let dir = std::env::temp_dir().join(format!("llmms-checkpoint-alloc-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let db = Database::open_with(
        &dir,
        StorageConfig {
            fsync_every: 0,
            snapshot_every: 0,
        },
    )
    .unwrap();
    let coll = db
        .create_collection("c", CollectionConfig::flat(DIM))
        .unwrap();
    for i in 0..RECORDS {
        let values = (0..DIM).map(|d| ((i * 31 + d * 7) % 97) as f32 - 48.0);
        let record = Record::new(
            format!("doc{}#{}", i / 7, i % 7),
            Embedding::new(values.collect()).normalized(),
        )
        .with_document(format!(
            "chunk {i} of a synthetic document, long enough to look like a sentence of retrieved text"
        ))
        .with_metadata(meta([
            ("document_id", format!("doc{}", i / 7).into()),
            ("chunk_index", ((i % 7) as i64).into()),
        ]));
        coll.write().upsert(record).unwrap();
    }

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    db.checkpoint().unwrap();
    let held = PEAK.load(Ordering::Relaxed) - before;

    let written = ["c.snap", "c.idx.bin"]
        .iter()
        .map(|f| std::fs::metadata(dir.join(f)).unwrap().len() as usize)
        .sum::<usize>();
    assert!(
        written > 2 * RECORDS * DIM * 4,
        "both files carry every vector"
    );
    assert!(
        held * 2 <= written * 3,
        "checkpoint held {held} bytes of heap at its peak to write {written}"
    );
    // The real figure is a few buffers, far under the bound; report it.
    eprintln!("checkpoint: peak heap {held} B for {written} B written");
    std::fs::remove_dir_all(&dir).ok();
}
