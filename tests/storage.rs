//! Integration tests for the versioned storage seam: the query engine
//! over a live `GraphStore`, snapshot isolation across epochs, compaction
//! semantics, and the live-epochs accounting the chaos oracle relies on.

use std::sync::Arc;
use std::time::Duration;

use pbfs::core::prelude::*;
use pbfs::core::storage;
use pbfs::core::textbook;
use pbfs::graph::{gen, CsrGraph};

/// The `pbfs_storage_epochs_live` gauge is process-global, so tests in
/// this binary serialize on one mutex to keep its accounting exact.
static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn config() -> EngineConfig {
    EngineConfig::default()
        .with_workers(2)
        .with_max_latency(Duration::from_micros(100))
}

/// BFS oracle over any adjacency view, via the public trait.
fn oracle<G: Adjacency>(g: &G, s: u32) -> Vec<u32> {
    let n = g.num_vertices();
    let mut dist = vec![u32::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    dist[s as usize] = 0;
    queue.push_back(s);
    while let Some(v) = queue.pop_front() {
        for &w in g.neighbors_fast(v) {
            if dist[w as usize] == u32::MAX {
                dist[w as usize] = dist[v as usize] + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Queries submitted after a mutation batch publishes are answered from
/// the new epoch: the engine pins a fresh snapshot per coalesced batch.
#[test]
fn engine_serves_each_published_epoch_in_order() {
    let _gate = GATE.lock().unwrap();
    // A path 0-1-2-...-9: distances are large and easy to perturb.
    let g = Arc::new(gen::path(10));
    let store = GraphStore::new(g);
    let engine = QueryEngine::with_store(Arc::clone(&store), config());

    let before = engine.submit(0).unwrap().wait().unwrap();
    assert_eq!(before[9], 9);

    // Shortcut 0-9: published before the next submit, so the next batch's
    // snapshot must include it.
    store.apply_batch(&[EdgeMutation::Insert(0, 9)]).unwrap();
    let after = engine.submit(0).unwrap().wait().unwrap();
    assert_eq!(after[9], 1);
    assert_eq!(after[7], 3, "0-9-8-7 now beats 0-1-..-7 from below");
    assert_eq!(after, oracle(&store.snapshot(), 0));

    // Deleting the original first hop reroutes everything through 9.
    store.apply_batch(&[EdgeMutation::Delete(0, 1)]).unwrap();
    let rerouted = engine.submit(0).unwrap().wait().unwrap();
    assert_eq!(rerouted, oracle(&store.snapshot(), 0));
    assert_eq!(rerouted[1], 9, "1 is now only reachable the long way round");
}

/// The sharded engine (MS-PBFS over the partition mirror)
/// tracks mutations too: every epoch re-publishes the mirror, and dirty
/// vertices are served from the overlay on both paths.
#[test]
fn sharded_engine_tracks_mutations() {
    let _gate = GATE.lock().unwrap();
    let g = Arc::new(gen::Kronecker::graph500(8).seed(5).generate());
    let n = g.num_vertices() as u32;
    let store = GraphStore::new(g);
    let engine = QueryEngine::with_store(Arc::clone(&store), config().with_shards(2));
    assert!(store.is_partitioned(), "sharded engine attaches the mirror");

    let sources: Vec<u32> = (0..8).map(|i| (i * 31) % n).collect();
    for &s in &sources {
        let d = engine.submit(s).unwrap().wait().unwrap();
        assert_eq!(d, oracle(&store.snapshot(), s), "clean epoch, source {s}");
    }

    store
        .apply_batch(&[
            EdgeMutation::Insert(0, n - 1),
            EdgeMutation::Insert(1, n / 2),
            EdgeMutation::Delete(0, 1),
        ])
        .unwrap();
    for &s in &sources {
        let d = engine.submit(s).unwrap().wait().unwrap();
        assert_eq!(d, oracle(&store.snapshot(), s), "dirty epoch, source {s}");
    }

    // Compaction folds the overlay into a fresh base; answers must not
    // change, only the epoch serving them.
    let before = store.current_epoch();
    store.compact().unwrap();
    assert!(store.current_epoch() > before);
    assert!(!store.snapshot().has_deltas());
    for &s in &sources {
        let d = engine.submit(s).unwrap().wait().unwrap();
        assert_eq!(d, oracle(&store.snapshot(), s), "compacted, source {s}");
    }
}

/// Wide multi-source batches traverse the delta overlay identically to
/// the textbook oracle on the equivalent rebuilt CSR.
#[test]
fn batched_queries_on_dirty_epoch_match_rebuilt_graph() {
    let _gate = GATE.lock().unwrap();
    let g = Arc::new(gen::uniform(500, 1500, 7));
    let store = GraphStore::new(g);
    let engine = QueryEngine::with_store(
        Arc::clone(&store),
        config().with_max_latency(Duration::from_millis(20)),
    );
    store
        .apply_batch(&[
            EdgeMutation::Insert(0, 499),
            EdgeMutation::Insert(13, 250),
            EdgeMutation::Delete(0, 499), // net no-op on this pair
            EdgeMutation::Insert(7, 400),
        ])
        .unwrap();

    // The logical graph, rebuilt independently through the compaction
    // path of a second store — the differential reference.
    let reference = {
        let snap = store.snapshot();
        let mut edges = Vec::new();
        for v in 0..snap.num_vertices() as u32 {
            for &w in snap.neighbors_fast(v) {
                if w > v {
                    edges.push((v, w));
                }
            }
        }
        CsrGraph::from_edges(snap.num_vertices(), &edges)
    };

    // Enough simultaneous queries to coalesce into a real MS batch.
    let sources: Vec<u32> = (0..80).map(|i| (i * 13) % 500).collect();
    let handles: Vec<_> = sources.iter().map(|&s| engine.submit(s).unwrap()).collect();
    for (s, h) in sources.iter().zip(handles) {
        assert_eq!(
            h.wait().unwrap(),
            textbook::bfs(&reference, *s).distances,
            "source {s}"
        );
    }
    let stats = engine.stats();
    assert!(
        stats.width_histogram.keys().any(|w| *w > 1),
        "at least one multi-source width expected, got {:?}",
        stats.width_histogram
    );
}

/// Epoch accounting drains: snapshots pin epochs while held, and once the
/// engine and store drop, every epoch is reclaimed (gauge back to the
/// baseline) — the invariant `pbfs_storage_epochs_live` exports.
#[test]
fn epochs_live_gauge_returns_to_baseline_after_drain() {
    let _gate = GATE.lock().unwrap();
    let baseline = storage::epochs_live();
    let g = Arc::new(gen::cycle(64));
    let store = GraphStore::new(g);
    let engine = QueryEngine::with_store(Arc::clone(&store), config());

    let pinned = store.snapshot(); // pins epoch 1
    store.apply_batch(&[EdgeMutation::Insert(0, 32)]).unwrap();
    store.apply_batch(&[EdgeMutation::Insert(1, 33)]).unwrap();
    assert!(
        storage::epochs_live() >= baseline + 2,
        "old epoch pinned + current"
    );

    let d = engine.submit(0).unwrap().wait().unwrap();
    assert_eq!(d, oracle(&store.snapshot(), 0));
    assert_eq!(pinned.epoch(), 1);
    assert!(
        !pinned.has_deltas(),
        "the pinned epoch never saw the inserts"
    );

    drop(pinned);
    drop(engine);
    assert_eq!(
        storage::epochs_live(),
        baseline + 1,
        "only the store's current epoch may remain"
    );
    drop(store);
    assert_eq!(storage::epochs_live(), baseline);
}

/// A sharded engine runs wide MS-PBFS batches over the partition mirror
/// read through the delta overlay. Every answer must equal the textbook
/// BFS on a CSR rebuilt from the logical edge list (base edges plus the
/// applied mutations), independently of anything the store produced.
#[test]
fn sharded_wide_batches_on_dirty_epoch_match_rebuilt_graph() {
    let _gate = GATE.lock().unwrap();
    let base = gen::Kronecker::graph500(9).seed(23).generate();
    let n = base.num_vertices() as u32;
    let mutations = [
        EdgeMutation::Insert(0, n - 1),
        EdgeMutation::Insert(3, n / 2),
        EdgeMutation::Insert(n - 2, n / 3),
        EdgeMutation::Delete(0, base.neighbors(0)[0]),
        EdgeMutation::Delete(1, base.neighbors(1)[0]),
    ];
    let reference = {
        let mut edges = std::collections::BTreeSet::new();
        for v in 0..n {
            edges.extend(
                base.neighbors(v)
                    .iter()
                    .filter(|&&w| w > v)
                    .map(|&w| (v, w)),
            );
        }
        for m in &mutations {
            match *m {
                EdgeMutation::Insert(a, b) => edges.insert((a.min(b), a.max(b))),
                EdgeMutation::Delete(a, b) => edges.remove(&(a.min(b), a.max(b))),
            };
        }
        CsrGraph::from_edges(n as usize, &edges.into_iter().collect::<Vec<_>>())
    };
    let base = Arc::new(base);

    for max_batch in [64, 512] {
        let store = GraphStore::new(Arc::clone(&base));
        let engine = QueryEngine::with_store(
            Arc::clone(&store),
            config()
                .with_shards(2)
                .with_autotune(false)
                .with_max_batch(max_batch)
                .with_max_latency(Duration::from_millis(200)),
        );
        store.apply_batch(&mutations).unwrap();
        assert!(store.snapshot().has_deltas(), "the epoch must be dirty");

        // 600 queries split round-robin: 300 per shard, more than 256, so
        // each shard forms a 512-wide batch (or several 64-wide ones).
        let sources: Vec<u32> = (0..600).map(|i| (i * 7) % n).collect();
        let handles: Vec<_> = sources.iter().map(|&s| engine.submit(s).unwrap()).collect();
        for (s, h) in sources.iter().zip(handles) {
            assert_eq!(
                h.wait().unwrap(),
                textbook::bfs(&reference, *s).distances,
                "max_batch {max_batch}, source {s}"
            );
        }
        let stats = engine.stats();
        assert!(
            stats.width_histogram.contains_key(&max_batch),
            "max_batch {max_batch}: no batch ran at that width, got {:?}",
            stats.width_histogram
        );
    }
}
