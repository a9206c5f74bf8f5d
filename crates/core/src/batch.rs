//! Multi-batch drivers: how a stream of BFS sources is mapped onto a
//! machine (Section 5.3 of the paper).
//!
//! The evaluation compares four execution strategies for `S` sources with
//! batches of at most `W * 64`:
//!
//! * **MS-PBFS** ([`run_mspbfs_batches`]) — one parallel batch at a time,
//!   every worker cooperates on it. Full machine utilization from the
//!   first 64 sources; state memory of a single instance.
//! * **MS-BFS / MS-PBFS (sequential)** ([`run_sequential_instances`]) —
//!   one sequential instance per thread, batches dealt from a shared
//!   queue. Needs `threads × 64` sources to utilize the machine and
//!   `threads ×` the state memory (Figures 2 and 3).
//! * **MS-PBFS (one per socket)** ([`run_one_per_socket`]) — one parallel
//!   instance per NUMA node, used in the paper to bound the cost of
//!   cross-socket parallelization.
//!
//! Utilization is reported against the *ideal makespan* (the longest
//! per-thread busy time) rather than single-core wall time, so the metric
//! reflects the algorithms' scheduling behaviour rather than the fact that
//! this container has one physical core; see DESIGN.md.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use pbfs_graph::{stats::ComponentInfo, CsrGraph, VertexId};
use pbfs_sched::{Topology, WorkerPool};

use crate::msbfs::MsBfs;
use crate::mspbfs::MsPbfs;
use crate::options::BfsOptions;
use crate::stats::TraversalStats;
use crate::visitor::{MsVisitor, NoopMsVisitor};

/// Creates per-batch visitors and harvests their results.
///
/// Batch drivers process sources in chunks of at most `W * 64`; consumers
/// get one visitor per chunk and a callback when the chunk completes.
pub trait BatchConsumer<const W: usize>: Sync {
    /// The per-batch visitor type.
    type Visitor: MsVisitor<W>;

    /// Creates the visitor for batch `batch_idx` covering `sources`.
    fn visitor(&self, batch_idx: usize, sources: &[VertexId]) -> Self::Visitor;

    /// Consumes the finished batch.
    fn finish(
        &self,
        batch_idx: usize,
        sources: &[VertexId],
        visitor: Self::Visitor,
        stats: &TraversalStats,
    ) {
        let _ = (batch_idx, sources, visitor, stats);
    }
}

/// Ignores all batches.
pub struct NoopConsumer;

impl<const W: usize> BatchConsumer<W> for NoopConsumer {
    type Visitor = NoopMsVisitor;

    fn visitor(&self, _batch_idx: usize, _sources: &[VertexId]) -> NoopMsVisitor {
        NoopMsVisitor
    }
}

/// Outcome of a batch run.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Measured wall time of the whole run.
    pub wall_ns: u64,
    /// Busy nanoseconds per (virtual) thread. Executor-attributed; on an
    /// oversubscribed host this is noisy — prefer [`Self::utilization`]
    /// which uses the deterministic work units.
    pub per_thread_busy_ns: Vec<u64>,
    /// Work units (adjacency entries scanned + states updated) per thread,
    /// attributed to the thread's *own* task queue (deterministic; see the
    /// module docs and DESIGN.md).
    pub per_thread_work: Vec<u64>,
    /// Dynamic BFS state bytes allocated by the strategy.
    pub state_bytes: usize,
    /// Number of batches processed.
    pub batches: usize,
    /// Total `(vertex, BFS)` discoveries across all batches.
    pub total_discovered: u64,
}

impl BatchReport {
    /// Ideal-makespan utilization in `[0, 1]` based on deterministic work
    /// units: total work divided by `threads × max per-thread work` — the
    /// Figure 2 metric, independent of how the host OS scheduled the
    /// (possibly oversubscribed) threads.
    pub fn utilization(&self) -> f64 {
        Self::ratio(&self.per_thread_work)
    }

    /// Utilization from measured busy time (meaningful only on hardware
    /// with at least as many cores as threads).
    pub fn utilization_busy(&self) -> f64 {
        Self::ratio(&self.per_thread_busy_ns)
    }

    fn ratio(values: &[u64]) -> f64 {
        let max = values.iter().copied().max().unwrap_or(0);
        if max == 0 || values.is_empty() {
            return 0.0;
        }
        let sum: u64 = values.iter().sum();
        sum as f64 / (values.len() as f64 * max as f64)
    }

    /// Ideal makespan in work units: the largest per-thread work. Models
    /// the parallel completion time on non-oversubscribed hardware.
    pub fn makespan_work(&self) -> u64 {
        self.per_thread_work.iter().copied().max().unwrap_or(0)
    }

    /// Total work units — the sequential-equivalent cost. The ratio
    /// `total_work / makespan_work` is the modeled speedup (Figure 11).
    pub fn total_work(&self) -> u64 {
        self.per_thread_work.iter().sum()
    }

    /// Modeled speedup over a single thread: `total_work / makespan_work`.
    pub fn modeled_speedup(&self) -> f64 {
        let makespan = self.makespan_work();
        if makespan == 0 {
            return 0.0;
        }
        self.total_work() as f64 / makespan as f64
    }
}

/// Work units of one traversal, per worker queue (visited neighbors plus
/// updated states, owner-attributed).
fn work_per_worker(stats: &TraversalStats, workers: usize) -> Vec<u64> {
    let mut out = vec![0u64; workers];
    for it in &stats.iterations {
        for (w, s) in it.per_worker.iter().enumerate() {
            if w < workers {
                out[w] += s.visited_neighbors + s.updated_states;
            }
        }
    }
    out
}

/// Splits `sources` into chunks of at most `W * 64`.
fn batches<const W: usize>(sources: &[VertexId]) -> Vec<&[VertexId]> {
    sources.chunks(W * 64).collect()
}

/// One MS-PBFS batch at a time on `pool`; all workers cooperate.
pub fn run_mspbfs_batches<const W: usize, C: BatchConsumer<W>>(
    g: &CsrGraph,
    pool: &WorkerPool,
    sources: &[VertexId],
    opts: &BfsOptions,
    consumer: &C,
) -> BatchReport {
    let opts = opts.instrumented();
    let start = Instant::now();
    let workers = pool.num_workers();
    let mut bfs: MsPbfs<W> = MsPbfs::new(g.num_vertices());
    let mut busy = vec![0u64; workers];
    let mut work = vec![0u64; workers];
    let mut total_discovered = 0u64;
    let chunks = batches::<W>(sources);
    for (i, chunk) in chunks.iter().enumerate() {
        let visitor = consumer.visitor(i, chunk);
        let stats = bfs.run(g, pool, chunk, &opts, &visitor);
        for (w, b) in stats.busy_per_worker().into_iter().enumerate() {
            busy[w] += b;
        }
        for (w, u) in work_per_worker(&stats, workers).into_iter().enumerate() {
            work[w] += u;
        }
        total_discovered += stats.total_discovered;
        consumer.finish(i, chunk, visitor, &stats);
    }
    BatchReport {
        wall_ns: start.elapsed().as_nanos() as u64,
        per_thread_busy_ns: busy,
        per_thread_work: work,
        state_bytes: bfs.state_bytes(),
        batches: chunks.len(),
        total_discovered,
    }
}

/// One sequential MS-BFS instance per thread, batch `i` statically
/// assigned to thread `i % threads`. This is how the paper models MS-BFS
/// (and "MS-PBFS (sequential)") on a multi-core machine: "every 64 sources
/// one more thread can be used" (Figure 2). Static assignment keeps the
/// per-thread work deterministic on an oversubscribed host.
pub fn run_sequential_instances<const W: usize, C: BatchConsumer<W>>(
    g: &CsrGraph,
    threads: usize,
    sources: &[VertexId],
    opts: &BfsOptions,
    consumer: &C,
) -> BatchReport {
    assert!(threads > 0);
    let start = Instant::now();
    let chunks = batches::<W>(sources);
    let mut busy = vec![0u64; threads];
    let mut work = vec![0u64; threads];
    let mut discovered = vec![0u64; threads];
    let state_bytes = AtomicUsize::new(0);

    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for (t, (busy_slot, (work_slot, disc_slot))) in busy
            .iter_mut()
            .zip(work.iter_mut().zip(discovered.iter_mut()))
            .enumerate()
        {
            let chunks = &chunks;
            let state_bytes = &state_bytes;
            handles.push(s.spawn(move || {
                let mut bfs: MsBfs<W> = MsBfs::new(g.num_vertices());
                state_bytes.fetch_add(bfs.state_bytes(), Ordering::Relaxed);
                for i in (t..chunks.len()).step_by(threads) {
                    let chunk = chunks[i];
                    let visitor = consumer.visitor(i, chunk);
                    let t0 = Instant::now();
                    let stats = bfs.run(g, chunk, opts, &visitor);
                    *busy_slot += t0.elapsed().as_nanos() as u64;
                    // A sequential instance is its own single "queue".
                    *work_slot += work_per_worker(&stats, 1)[0];
                    *disc_slot += stats.total_discovered;
                    consumer.finish(i, chunk, visitor, &stats);
                }
            }));
        }
        for h in handles {
            h.join().expect("batch worker panicked");
        }
    });

    BatchReport {
        wall_ns: start.elapsed().as_nanos() as u64,
        per_thread_busy_ns: busy,
        per_thread_work: work,
        state_bytes: state_bytes.into_inner(),
        batches: chunks.len(),
        total_discovered: discovered.iter().sum(),
    }
}

/// One MS-PBFS instance per NUMA node of `topology`; each node's workers
/// cooperate on that node's current batch, nodes deal batches from a
/// shared queue.
pub fn run_one_per_socket<const W: usize, C: BatchConsumer<W>>(
    g: &CsrGraph,
    topology: &Topology,
    sources: &[VertexId],
    opts: &BfsOptions,
    consumer: &C,
) -> BatchReport {
    let start = Instant::now();
    let opts = opts.instrumented();
    let chunks = batches::<W>(sources);
    let next_batch = AtomicUsize::new(0);
    let nodes = topology.num_nodes();
    // (busy, work, discovered, state) per node.
    let mut per_node: Vec<(Vec<u64>, Vec<u64>, u64, usize)> = Vec::new();
    per_node.resize_with(nodes, || (Vec::new(), Vec::new(), 0, 0));

    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for (node, slot) in per_node.iter_mut().enumerate() {
            let node_workers = topology.workers_on(node).len();
            if node_workers == 0 {
                continue;
            }
            let chunks = &chunks;
            let next_batch = &next_batch;
            let opts = &opts;
            handles.push(s.spawn(move || {
                let pool = WorkerPool::new(node_workers);
                let mut bfs: MsPbfs<W> = MsPbfs::new(g.num_vertices());
                let mut busy = vec![0u64; node_workers];
                let mut work = vec![0u64; node_workers];
                let mut discovered = 0u64;
                loop {
                    let i = next_batch.fetch_add(1, Ordering::Relaxed);
                    if i >= chunks.len() {
                        break;
                    }
                    let chunk = chunks[i];
                    let visitor = consumer.visitor(i, chunk);
                    let stats = bfs.run(g, &pool, chunk, opts, &visitor);
                    for (w, b) in stats.busy_per_worker().into_iter().enumerate() {
                        busy[w] += b;
                    }
                    for (w, u) in work_per_worker(&stats, node_workers)
                        .into_iter()
                        .enumerate()
                    {
                        work[w] += u;
                    }
                    discovered += stats.total_discovered;
                    consumer.finish(i, chunk, visitor, &stats);
                }
                *slot = (busy, work, discovered, bfs.state_bytes());
            }));
        }
        for h in handles {
            h.join().expect("socket worker panicked");
        }
    });

    let mut busy = Vec::new();
    let mut work = Vec::new();
    let mut total_discovered = 0u64;
    let mut state = 0usize;
    for (b, w, d, st) in per_node {
        busy.extend(b);
        work.extend(w);
        total_discovered += d;
        state += st;
    }
    BatchReport {
        wall_ns: start.elapsed().as_nanos() as u64,
        per_thread_busy_ns: busy,
        per_thread_work: work,
        state_bytes: state,
        batches: chunks.len(),
        total_discovered,
    }
}

/// Total edges a Graph500-style run "traverses": for each source, the
/// undirected edge count of its connected component. The GTEPS numerator.
pub fn total_traversed_edges(components: &ComponentInfo, sources: &[VertexId]) -> u64 {
    sources
        .iter()
        .map(|&s| components.edges_from_source(s))
        .sum()
}

/// Converts traversed edges and a duration into GTEPS (billions of
/// traversed edges per second).
pub fn gteps(edges: u64, wall_ns: u64) -> f64 {
    if wall_ns == 0 {
        return 0.0;
    }
    edges as f64 / wall_ns as f64 // edges/ns == billion edges/s
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbfs_graph::gen;

    fn graph_and_sources() -> (CsrGraph, Vec<VertexId>) {
        let g = gen::Kronecker::graph500(9).seed(21).generate();
        let sources: Vec<u32> = (0..96).map(|i| (i * 5) % 512).collect();
        (g, sources)
    }

    #[test]
    fn all_strategies_discover_the_same_amount() {
        let (g, sources) = graph_and_sources();
        let opts = BfsOptions::default();
        let pool = WorkerPool::new(4);
        let a = run_mspbfs_batches::<1, _>(&g, &pool, &sources, &opts, &NoopConsumer);
        let b = run_sequential_instances::<1, _>(&g, 4, &sources, &opts, &NoopConsumer);
        let c =
            run_one_per_socket::<1, _>(&g, &Topology::new(2, 4), &sources, &opts, &NoopConsumer);
        assert_eq!(a.total_discovered, b.total_discovered);
        assert_eq!(a.total_discovered, c.total_discovered);
        assert_eq!(a.batches, 2);
        assert_eq!(b.batches, 2);
    }

    #[test]
    fn sequential_instances_memory_scales_with_threads() {
        let (g, sources) = graph_and_sources();
        let opts = BfsOptions::default();
        let one = run_sequential_instances::<1, _>(&g, 1, &sources, &opts, &NoopConsumer);
        let four = run_sequential_instances::<1, _>(&g, 4, &sources, &opts, &NoopConsumer);
        assert_eq!(four.state_bytes, 4 * one.state_bytes);
        let pool = WorkerPool::new(4);
        let par = run_mspbfs_batches::<1, _>(&g, &pool, &sources, &opts, &NoopConsumer);
        // MS-PBFS adds three frontier-summary bitmaps on top of the
        // sequential state, but stays independent of the thread count.
        let summaries =
            3 * crate::memory::MemoryModel::graph500(g.num_vertices()).frontier_summary_bytes();
        assert_eq!(
            par.state_bytes,
            one.state_bytes + summaries,
            "MS-PBFS state independent of threads"
        );
    }

    #[test]
    fn utilization_staircase_for_sequential_instances() {
        // 2 batches on 8 threads: at most 2 threads can be busy — the
        // Figure 2 limitation.
        let (g, sources) = graph_and_sources();
        let report = run_sequential_instances::<1, _>(
            &g,
            8,
            &sources,
            &BfsOptions::default(),
            &NoopConsumer,
        );
        let active = report.per_thread_work.iter().filter(|&&w| w > 0).count();
        assert_eq!(active, 2, "exactly the first two threads get batches");
        assert!(
            report.utilization() <= 0.26,
            "utilization {}",
            report.utilization()
        );
    }

    #[test]
    fn mspbfs_batches_utilize_all_workers() {
        let (g, sources) = graph_and_sources();
        let pool = WorkerPool::new(4);
        // 512 vertices with a small split size yield plenty of tasks for
        // all four queues even on a single batch of 64 sources.
        let opts = BfsOptions::default().with_split_size(32);
        let report = run_mspbfs_batches::<1, _>(&g, &pool, &sources[..64], &opts, &NoopConsumer);
        let active = report.per_thread_work.iter().filter(|&&w| w > 0).count();
        assert_eq!(
            active, 4,
            "every worker queue holds work for a single batch"
        );
        assert!(
            report.utilization() > 0.5,
            "utilization {}",
            report.utilization()
        );
    }

    #[test]
    fn consumer_sees_every_batch() {
        use std::sync::Mutex;

        struct Recorder(Mutex<Vec<(usize, usize)>>);
        impl BatchConsumer<1> for Recorder {
            type Visitor = NoopMsVisitor;
            fn visitor(&self, _i: usize, _s: &[VertexId]) -> NoopMsVisitor {
                NoopMsVisitor
            }
            fn finish(&self, i: usize, s: &[VertexId], _v: NoopMsVisitor, stats: &TraversalStats) {
                assert!(stats.total_discovered >= s.len() as u64);
                self.0.lock().unwrap().push((i, s.len()));
            }
        }

        let (g, sources) = graph_and_sources();
        let rec = Recorder(Mutex::new(Vec::new()));
        run_sequential_instances::<1, _>(&g, 3, &sources, &BfsOptions::default(), &rec);
        let mut seen = rec.0.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, vec![(0, 64), (1, 32)]);
    }

    #[test]
    fn traversed_edges_and_gteps() {
        let g = gen::disjoint_union(&[&gen::complete(4), &gen::path(3)]);
        let comps = ComponentInfo::compute(&g);
        // complete(4) has 6 edges, path(3) has 2.
        assert_eq!(total_traversed_edges(&comps, &[0, 5]), 8);
        assert_eq!(total_traversed_edges(&comps, &[0, 0]), 12);
        assert!((gteps(2_000_000_000, 1_000_000_000) - 2.0).abs() < 1e-12);
        assert_eq!(gteps(5, 0), 0.0);
    }

    #[test]
    fn empty_thread_report_is_safe() {
        let r = BatchReport {
            wall_ns: 0,
            per_thread_busy_ns: vec![],
            per_thread_work: vec![],
            state_bytes: 0,
            batches: 0,
            total_discovered: 0,
        };
        assert_eq!(r.utilization(), 0.0);
        assert_eq!(r.makespan_work(), 0);
        assert_eq!(r.modeled_speedup(), 0.0);
    }
}
