//! Centrality measures beyond closeness: Brandes betweenness and harmonic
//! centrality.
//!
//! Closeness (in [`crate::analytics`]) is the paper's motivating APSP
//! workload; this module rounds out the centrality toolbox that a graph
//! analytics user would expect on top of the BFS substrate. Betweenness
//! uses Brandes' algorithm (one BFS + one backward sweep per source),
//! parallelized over sources with per-thread partial scores.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

use pbfs_graph::{CsrGraph, VertexId};

use crate::batch::{run_mspbfs_batches, BatchConsumer};
use crate::options::BfsOptions;
use crate::stats::TraversalStats;
use crate::visitor::MsVisitor;
use crate::UNREACHED;

/// Per-source workspace of Brandes' algorithm, reusable across sources.
struct BrandesState {
    dist: Vec<u32>,
    sigma: Vec<f64>,
    delta: Vec<f64>,
    order: Vec<VertexId>,
    queue: VecDeque<VertexId>,
}

impl BrandesState {
    fn new(n: usize) -> Self {
        Self {
            dist: vec![UNREACHED; n],
            sigma: vec![0.0; n],
            delta: vec![0.0; n],
            order: Vec::with_capacity(n),
            queue: VecDeque::new(),
        }
    }

    /// Accumulates the dependency contributions of `source` into `bc`.
    fn accumulate(&mut self, g: &CsrGraph, source: VertexId, bc: &mut [f64]) {
        self.dist.fill(UNREACHED);
        self.sigma.fill(0.0);
        self.delta.fill(0.0);
        self.order.clear();
        self.queue.clear();

        self.dist[source as usize] = 0;
        self.sigma[source as usize] = 1.0;
        self.queue.push_back(source);
        while let Some(v) = self.queue.pop_front() {
            self.order.push(v);
            let dv = self.dist[v as usize];
            for &w in g.neighbors(v) {
                let wi = w as usize;
                if self.dist[wi] == UNREACHED {
                    self.dist[wi] = dv + 1;
                    self.queue.push_back(w);
                }
                if self.dist[wi] == dv + 1 {
                    self.sigma[wi] += self.sigma[v as usize];
                }
            }
        }
        // Backward sweep in reverse BFS order; predecessors are recognized
        // by distance, so no predecessor lists are stored.
        for &w in self.order.iter().rev() {
            let dw = self.dist[w as usize];
            if dw == 0 {
                continue;
            }
            let coeff = (1.0 + self.delta[w as usize]) / self.sigma[w as usize];
            for &v in g.neighbors(w) {
                if self.dist[v as usize] + 1 == dw {
                    self.delta[v as usize] += self.sigma[v as usize] * coeff;
                }
            }
            if w != source {
                bc[w as usize] += self.delta[w as usize];
            }
        }
    }
}

/// Exact betweenness centrality from the given sources (pass every vertex
/// for the full measure). Undirected convention: scores are halved, like
/// NetworkX with `normalized=False` divided by 2.
pub fn betweenness_centrality(g: &CsrGraph, sources: &[VertexId]) -> Vec<f64> {
    let n = g.num_vertices();
    let mut bc = vec![0.0; n];
    let mut state = BrandesState::new(n);
    for &s in sources {
        state.accumulate(g, s, &mut bc);
    }
    for b in &mut bc {
        *b /= 2.0;
    }
    bc
}

/// [`betweenness_centrality`] parallelized over sources: `threads` workers
/// pull sources from a shared counter and merge per-thread partial scores.
/// Results are deterministic up to floating-point summation order.
pub fn betweenness_centrality_parallel(
    g: &CsrGraph,
    sources: &[VertexId],
    threads: usize,
) -> Vec<f64> {
    assert!(threads > 0);
    let n = g.num_vertices();
    let next = AtomicUsize::new(0);
    let mut partials: Vec<Vec<f64>> = vec![vec![0.0; n]; threads];
    std::thread::scope(|s| {
        for partial in partials.iter_mut() {
            let next = &next;
            s.spawn(move || {
                let mut state = BrandesState::new(n);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= sources.len() {
                        break;
                    }
                    state.accumulate(g, sources[i], partial);
                }
            });
        }
    });
    let mut bc = vec![0.0; n];
    for partial in partials {
        for (acc, p) in bc.iter_mut().zip(partial) {
            *acc += p;
        }
    }
    for b in &mut bc {
        *b /= 2.0;
    }
    bc
}

/// Accumulates `Σ 1/d` per source of a multi-source batch — harmonic
/// centrality, which unlike closeness is well-defined on disconnected
/// graphs.
pub struct HarmonicAccumulator<const W: usize> {
    // f64 stored as bits; one slot per batch source, updated via CAS.
    sums: Vec<std::sync::atomic::AtomicU64>,
}

impl<const W: usize> HarmonicAccumulator<W> {
    /// Creates an accumulator for `batch` sources.
    pub fn new(batch: usize) -> Self {
        assert!(batch <= W * 64);
        let mut sums = Vec::with_capacity(batch);
        sums.resize_with(batch, || std::sync::atomic::AtomicU64::new(0f64.to_bits()));
        Self { sums }
    }

    /// Harmonic sum of source `i`.
    pub fn sum(&self, i: usize) -> f64 {
        f64::from_bits(self.sums[i].load(Ordering::Relaxed))
    }

    fn add(&self, i: usize, v: f64) {
        let slot = &self.sums[i];
        let mut cur = slot.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + v).to_bits();
            match slot.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }
}

impl<const W: usize> MsVisitor<W> for HarmonicAccumulator<W> {
    #[inline]
    fn on_found(&self, _v: VertexId, dist: u32, bfs_set: pbfs_bitset::Bits<W>) {
        if dist == 0 {
            return;
        }
        let inv = 1.0 / dist as f64;
        for i in bfs_set.ones() {
            if i < self.sums.len() {
                self.add(i, inv);
            }
        }
    }
}

struct HarmonicConsumer<'a, const W: usize> {
    out: &'a [std::sync::atomic::AtomicU64],
}

impl<const W: usize> BatchConsumer<W> for HarmonicConsumer<'_, W> {
    type Visitor = HarmonicAccumulator<W>;

    fn visitor(&self, _i: usize, sources: &[VertexId]) -> Self::Visitor {
        HarmonicAccumulator::new(sources.len())
    }

    fn finish(
        &self,
        batch_idx: usize,
        sources: &[VertexId],
        visitor: Self::Visitor,
        _stats: &TraversalStats,
    ) {
        for i in 0..sources.len() {
            self.out[batch_idx * W * 64 + i].store(visitor.sum(i).to_bits(), Ordering::Relaxed);
        }
    }
}

/// Harmonic centrality `Σ_{u≠s} 1/d(s, u)` for every source, via batched
/// MS-PBFS.
pub fn harmonic_centrality<const W: usize>(
    g: &CsrGraph,
    pool: &pbfs_sched::WorkerPool,
    sources: &[VertexId],
    opts: &BfsOptions,
) -> Vec<f64> {
    let mut out = Vec::with_capacity(sources.len());
    out.resize_with(sources.len(), || {
        std::sync::atomic::AtomicU64::new(0f64.to_bits())
    });
    let consumer: HarmonicConsumer<'_, W> = HarmonicConsumer { out: &out };
    run_mspbfs_batches::<W, _>(g, pool, sources, opts, &consumer);
    out.into_iter()
        .map(|a| f64::from_bits(a.into_inner()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbfs_graph::gen;
    use pbfs_sched::WorkerPool;

    #[test]
    fn betweenness_of_path() {
        // Path 0-1-2-3-4: interior vertices carry traffic.
        // BC(v) for a path of n vertices: (v)(n-1-v) pairs pass through v.
        let g = gen::path(5);
        let sources: Vec<u32> = (0..5).collect();
        let bc = betweenness_centrality(&g, &sources);
        assert_eq!(bc, vec![0.0, 3.0, 4.0, 3.0, 0.0]);
    }

    #[test]
    fn betweenness_of_star() {
        // Star with center 0 and 4 leaves: every leaf pair routes through
        // the center → C(4,2) = 6 pairs.
        let g = gen::star(5);
        let sources: Vec<u32> = (0..5).collect();
        let bc = betweenness_centrality(&g, &sources);
        assert_eq!(bc[0], 6.0);
        assert!(bc[1..].iter().all(|&b| b == 0.0));
    }

    #[test]
    fn betweenness_with_equal_shortest_paths() {
        // Cycle of 4: each vertex lies on half of the shortest paths
        // between its two opposite neighbors (two equal paths).
        let g = gen::cycle(4);
        let sources: Vec<u32> = (0..4).collect();
        let bc = betweenness_centrality(&g, &sources);
        assert_eq!(bc, vec![0.5, 0.5, 0.5, 0.5]);
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = gen::uniform_connected(150, 300, 7);
        let sources: Vec<u32> = (0..150).collect();
        let seq = betweenness_centrality(&g, &sources);
        let par = betweenness_centrality_parallel(&g, &sources, 4);
        for (a, b) in seq.iter().zip(&par) {
            assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn betweenness_on_disconnected_graph() {
        let g = gen::disjoint_union(&[&gen::path(3), &gen::path(3)]);
        let sources: Vec<u32> = (0..6).collect();
        let bc = betweenness_centrality(&g, &sources);
        assert_eq!(bc, vec![0.0, 1.0, 0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn harmonic_of_star_center() {
        let g = gen::star(5);
        let pool = WorkerPool::new(2);
        let sources: Vec<u32> = (0..5).collect();
        let h = harmonic_centrality::<1>(&g, &pool, &sources, &BfsOptions::default());
        // Center: 4 vertices at distance 1 → 4. Leaf: 1 + 3 * 1/2 = 2.5.
        assert!((h[0] - 4.0).abs() < 1e-12);
        for &leaf in &h[1..] {
            assert!((leaf - 2.5).abs() < 1e-12);
        }
    }

    #[test]
    fn harmonic_handles_disconnected() {
        let g = pbfs_graph::CsrGraph::from_edges(3, &[(0, 1)]);
        let pool = WorkerPool::new(1);
        let h = harmonic_centrality::<1>(&g, &pool, &[0, 2], &BfsOptions::default());
        assert!((h[0] - 1.0).abs() < 1e-12);
        assert_eq!(h[1], 0.0);
    }

    #[test]
    fn harmonic_matches_brute_force() {
        let g = gen::social_network(300, 10, 5);
        let pool = WorkerPool::new(3);
        let sources: Vec<u32> = (0..100).collect();
        let h = harmonic_centrality::<1>(&g, &pool, &sources, &BfsOptions::default());
        for (i, &s) in sources.iter().enumerate().step_by(17) {
            let expect: f64 = crate::textbook::distances(&g, s)
                .iter()
                .filter(|&&d| d != UNREACHED && d > 0)
                .map(|&d| 1.0 / d as f64)
                .sum();
            assert!(
                (h[i] - expect).abs() < 1e-9,
                "source {s}: {} vs {expect}",
                h[i]
            );
        }
    }
}
