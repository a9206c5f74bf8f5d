//! MS-PBFS: the parallel multi-source BFS (Section 3.1 of the paper).
//!
//! MS-PBFS parallelizes both MS-BFS phases by partitioning the vertex
//! range into task ranges processed by the work-stealing pool:
//!
//! * **Top-down, phase 1** (Listing 1 lines 1–4): reads `frontier` and the
//!   adjacency lists, merges into `next` with an atomic OR — the only
//!   synchronized update in the whole algorithm (Section 3.1.1).
//! * **Top-down, phase 2** (lines 6–11): a bijective vertex→worker mapping
//!   makes all updates conflict-free; the frontier entry is cleared here so
//!   the buffer can be reused as `next` without a separate memset.
//! * **Bottom-up** (Listing 2): same bijective argument, zero
//!   synchronization, with the early-exit once no more bits can be gained.
//!
//! "No more bits can be gained" is judged against the **live-BFS mask**,
//! the union of the current frontier entries, not against every bit of
//! the batch: a BFS whose frontier has emptied can never add a bit again,
//! so a vertex already seen by every *running* BFS is skipped outright and
//! a neighbor scan stops as soon as it covers them. Every frontier entry
//! is a subset of the mask, so the pruning never drops a discovery. The
//! settle tasks build the next iteration's mask with one `fetch_or` per
//! word per task.

use std::ops::Range;

use crate::storage::Adjacency;
use pbfs_bitset::{Bits, StateArray, SUMMARY_CHUNK};
use pbfs_graph::VertexId;
use pbfs_sched::WorkerPool;
use pbfs_telemetry::EventKind;

use crate::adapt::ScanStrategy;
use crate::options::BfsOptions;
use crate::policy::Direction;
use crate::stats::TraversalStats;
use crate::traversal::{task_split, Tally, Traversal};
use crate::visitor::MsVisitor;

/// Reusable parallel multi-source BFS state for batches of up to `W * 64`
/// sources.
///
/// ```
/// use pbfs_core::mspbfs::MsPbfs;
/// use pbfs_core::prelude::*;
/// use pbfs_graph::gen;
/// use pbfs_sched::WorkerPool;
///
/// let g = gen::Kronecker::graph500(9).seed(3).generate();
/// let pool = WorkerPool::new(4);
/// let mut bfs: MsPbfs<1> = MsPbfs::new(g.num_vertices());
/// let dists: MsDistanceVisitor<1> = MsDistanceVisitor::new(g.num_vertices(), 2);
/// bfs.run(&g, &pool, &[0, 7], &BfsOptions::default(), &dists);
/// assert_eq!(dists.distance(0, 0), 0);
/// ```
pub struct MsPbfs<const W: usize> {
    seen: StateArray<W>,
    frontier: StateArray<W>,
    next: StateArray<W>,
}

impl<const W: usize> MsPbfs<W> {
    /// Allocates state for a graph of `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            seen: StateArray::new(n),
            frontier: StateArray::new(n),
            next: StateArray::new(n),
        }
    }

    /// Bytes of dynamic BFS state. Unlike per-core MS-BFS instances this is
    /// independent of the worker count — the Figure 3 argument.
    pub fn state_bytes(&self) -> usize {
        self.seen.heap_bytes() + self.frontier.heap_bytes() + self.next.heap_bytes()
    }

    /// Runs one batch of concurrent BFSs from `sources` on `pool`.
    ///
    /// Generic over [`Adjacency`], so the same state traverses a plain
    /// [`pbfs_graph::CsrGraph`] or a [`crate::storage::GraphSnapshot`]
    /// overlay; the CSR monomorphization is the unchanged hot path.
    ///
    /// # Panics
    /// Panics if `sources` is empty, exceeds `W * 64`, contains an
    /// out-of-range vertex, or the state was sized for a different graph.
    pub fn run<G: Adjacency + ?Sized>(
        &mut self,
        g: &G,
        pool: &WorkerPool,
        sources: &[VertexId],
        opts: &BfsOptions,
        visitor: &impl MsVisitor<W>,
    ) -> TraversalStats {
        let n = g.num_vertices();
        assert_eq!(self.seen.len(), n, "state sized for a different graph");
        let t = Traversal::new(pool, opts, g, task_split(opts, 1), "core.mspbfs.phase");
        let (pd, early_exit) = (opts.prefetch_distance, opts.early_exit);
        t.init(&[&mut self.seen, &mut self.frontier, &mut self.next]);

        let seed = seed_batch(g, &self.seen, &self.frontier, sources, visitor);
        // The sources seed the live-BFS mask: every BFS is running.
        let mut live = Bits::<W>::first_n(sources.len());

        t.run(seed, |it| {
            let depth = it.depth;
            // Resolve the SIMD dispatch level once per iteration and thread
            // it into the hot loops: `#[target_feature]` kernels cannot
            // inline through the per-call dispatch, so the lookup (and the
            // chaos failpoint inside it) is hoisted out of the per-vertex
            // path.
            let lvl = pbfs_bitset::simd::current();
            // The next live-BFS mask: each settle task ORs in the union
            // of its `new` sets once; read only after the pool joins.
            let next_live = StateArray::<W>::new(1);
            let (seen, frontier, next) = (&self.seen, &self.frontier, &self.next);
            // Records a discovery at `v` of `new`, merging into `seen`.
            let discover = |v: usize, new: Bits<W>, merged: Bits<W>, c: &mut Tally| {
                seen.set(v, merged);
                visitor.on_found(v as VertexId, depth, new);
                let deg = g.degree(v as VertexId) as u64;
                c.found(new.count_ones() as u64, deg, live.is_subset_of(&merged));
            };
            match it.direction {
                Direction::TopDown => {
                    let (scan, list) =
                        it.sparse_queue(|cap| pbfs_bitset::convert::gather_state(frontier, cap));
                    let p1_len = list.as_ref().map_or(n, |l| l.len());
                    // Phase 1: frontier → next, synchronized by atomic OR.
                    let phase1 = |r: Range<usize>| {
                        let task = r.start;
                        let mut visited = 0u64;
                        // Expand one frontier vertex, prefetching the state
                        // entries of neighbors `pd` positions ahead so the
                        // atomic OR hits warm cache lines.
                        let mut expand = |v: usize, f: Bits<W>| {
                            let nbrs = g.neighbors_fast(v as VertexId);
                            if pd > 0 {
                                for &nbr in &nbrs[..pd.min(nbrs.len())] {
                                    next.prefetch_entry(nbr as usize);
                                }
                            }
                            for (j, &nbr) in nbrs.iter().enumerate() {
                                if pd > 0 && j + pd < nbrs.len() {
                                    next.prefetch_entry(nbrs[j + pd] as usize);
                                }
                                next.fetch_or(nbr as usize, f);
                            }
                            visited += nbrs.len() as u64;
                        };
                        match scan {
                            ScanStrategy::Sparse => {
                                // `r` indexes the gathered queue here, not
                                // the vertex range.
                                let entries = &list.as_deref().unwrap()[r];
                                if pd > 0 {
                                    for &(v, _) in entries.iter().take(pd) {
                                        g.prefetch_offsets(v);
                                    }
                                }
                                for (i, &(v, f)) in entries.iter().enumerate() {
                                    if pd > 0 && i + pd < entries.len() {
                                        g.prefetch_neighbors(entries[i + pd].0);
                                    }
                                    expand(v as usize, f);
                                }
                            }
                            ScanStrategy::Flat => {
                                for v in r {
                                    let f = frontier.get(v);
                                    if !f.is_empty() {
                                        expand(v, f);
                                    }
                                }
                            }
                            ScanStrategy::Summary => {
                                it.note_scan(frontier.for_each_active_chunk(
                                    r.start,
                                    r.end,
                                    |cs, ce| {
                                        // Gather the chunk's active vertices
                                        // so the CSR pointer chase can be
                                        // pipelined `pd` vertices deep. One
                                        // vectorized mask pass finds them
                                        // instead of W word loads per entry.
                                        // SAFETY: phase 1 only reads
                                        // `frontier` (all writes go to
                                        // `next`), so no writer races the
                                        // non-atomic scan.
                                        let mut mask =
                                            unsafe { frontier.nonempty_mask_at(lvl, cs, ce) };
                                        let mut vbuf = [0u32; SUMMARY_CHUNK];
                                        let mut fbuf = [Bits::<W>::EMPTY; SUMMARY_CHUNK];
                                        let mut cnt = 0usize;
                                        while mask != 0 {
                                            let v = cs + mask.trailing_zeros() as usize;
                                            mask &= mask - 1;
                                            vbuf[cnt] = v as u32;
                                            fbuf[cnt] = frontier.get(v);
                                            cnt += 1;
                                        }
                                        if pd > 0 {
                                            for &v in &vbuf[..cnt] {
                                                g.prefetch_offsets(v);
                                            }
                                        }
                                        for i in 0..cnt {
                                            if pd > 0 && i + pd < cnt {
                                                g.prefetch_neighbors(vbuf[i + pd]);
                                            }
                                            expand(vbuf[i] as usize, fbuf[i]);
                                        }
                                    },
                                ));
                            }
                        }
                        it.visited(task, visited);
                    };
                    // Phase 2: conflict-free discovery + frontier clearing.
                    let phase2 = |r: Range<usize>| {
                        let task = r.start;
                        let mut c = Tally::default();
                        let mut found = Bits::<W>::EMPTY;
                        let mut settle = |v: usize| {
                            let nx = next.get(v);
                            if nx.is_empty() {
                                return;
                            }
                            // Fused kernel: one pass computes `new`, the
                            // merged seen set and the emptiness/trim flags,
                            // replacing the separate and_not / compare /
                            // is_empty walks. The popcount runs only for
                            // entries that actually discovered something.
                            let (new, merged, flags) = nx.settle_at(lvl, &seen.get(v));
                            if flags.trimmed {
                                next.set(v, new);
                            }
                            if flags.new_any {
                                discover(v, new, merged, &mut c);
                                found |= new;
                            }
                        };
                        if scan == ScanStrategy::Flat {
                            for v in r {
                                frontier.clear_entry(v);
                                settle(v);
                            }
                        } else {
                            // Nothing reads `frontier` this phase: a summary
                            // scan clears only its active chunks (ranges are
                            // chunk-aligned, so summary bits clear exactly).
                            // The gathered entries of a sparse phase 1 were
                            // already cleared. Then `next` is settled, guided
                            // by its summary; one mask pass per chunk finds
                            // the non-empty entries.
                            // SAFETY (all): phase-2 ranges are bijectively
                            // owned, so this worker has the chunk to itself
                            // until the barrier.
                            if scan == ScanStrategy::Summary {
                                it.note_scan(frontier.for_each_active_chunk(
                                    r.start,
                                    r.end,
                                    |cs, ce| unsafe { frontier.clear_range_owned(cs, ce) },
                                ));
                            }
                            it.note_scan(next.for_each_active_chunk(r.start, r.end, |cs, ce| {
                                let mut mask = unsafe { next.nonempty_mask_at(lvl, cs, ce) };
                                while mask != 0 {
                                    let v = cs + mask.trailing_zeros() as usize;
                                    mask &= mask - 1;
                                    settle(v);
                                }
                            }));
                        }
                        next_live.fetch_or(0, found);
                        it.settled(task, c);
                    };
                    it.phase(EventKind::TopDownPhase1, p1_len, phase1);
                    // After a sparse phase 1 the frontier is cleared by
                    // replaying the gathered queue — O(frontier) entry
                    // clears on the coordinating thread. Entry clears leave
                    // summary marks set, which is the conservative
                    // direction for any later summary-guided scan.
                    for &(v, _) in list.iter().flatten() {
                        frontier.clear_entry(v as usize);
                    }
                    it.phase(EventKind::TopDownPhase2, n, phase2);
                }
                Direction::BottomUp => {
                    let body = |r: Range<usize>| {
                        let task = r.start;
                        let mut c = Tally::default();
                        let mut visited = 0u64;
                        let mut found = Bits::<W>::EMPTY;
                        for u in r {
                            let seen_u = seen.get(u);
                            // Only running BFSs can reach `u` now: `need`
                            // is every bit it could still gain.
                            let need = live.and_not(&seen_u);
                            if need.is_empty() {
                                continue;
                            }
                            let nbrs = g.neighbors_fast(u as VertexId);
                            if pd > 0 {
                                for &v in &nbrs[..pd.min(nbrs.len())] {
                                    frontier.prefetch_entry(v as usize);
                                }
                            }
                            let mut acc = Bits::EMPTY;
                            for (j, &v) in nbrs.iter().enumerate() {
                                if pd > 0 && j + pd < nbrs.len() {
                                    frontier.prefetch_entry(nbrs[j + pd] as usize);
                                }
                                visited += 1;
                                acc |= frontier.get(v as usize);
                                if early_exit && need.is_subset_of(&acc) {
                                    break;
                                }
                            }
                            // Same fused kernel as the top-down settle:
                            // and_not + emptiness + merge in one pass.
                            let (new, merged, flags) = acc.settle_at(lvl, &seen_u);
                            if flags.new_any {
                                next.set(u, new);
                                discover(u, new, merged, &mut c);
                                found |= new;
                            }
                        }
                        next_live.fetch_or(0, found);
                        it.settled(task, c);
                        it.visited(task, visited);
                    };
                    it.phase(EventKind::BottomUp, n, body);
                }
            }
            it.rotate(&mut self.frontier, &mut self.next);
            live = next_live.get(0);
        })
    }
}

/// Seeds a batch: source `i` sets bit `i` in `seen` and `frontier` and is
/// reported at depth 0. Returns the frontier the traversal starts from.
///
/// # Panics
/// Panics if `sources` is empty, exceeds `W * 64` or contains an
/// out-of-range vertex.
pub(crate) fn seed_batch<const W: usize, G: Adjacency + ?Sized>(
    g: &G,
    seen: &StateArray<W>,
    frontier: &StateArray<W>,
    sources: &[VertexId],
    visitor: &impl MsVisitor<W>,
) -> Tally {
    assert!(!sources.is_empty(), "need at least one source");
    assert!(sources.len() <= W * 64, "batch exceeds bitset width");
    let mut seed = Tally {
        discovered: sources.len() as u64,
        ..Default::default()
    };
    for (i, &s) in sources.iter().enumerate() {
        assert!((s as usize) < g.num_vertices(), "source out of range");
        let bit = Bits::single(i);
        if seen.get(s as usize).is_empty() {
            seed.vertices += 1;
            seed.degree += g.degree(s) as u64;
        }
        seen.or_assign_unsync(s as usize, bit);
        frontier.or_assign_unsync(s as usize, bit);
        visitor.on_found(s, 0, bit);
    }
    // A source that every BFS of the batch has seen leaves `m_u`.
    let live = Bits::<W>::first_n(sources.len());
    for &s in sources {
        if live.is_subset_of(&seen.get(s as usize)) {
            seed.fully_seen += g.degree(s) as u64;
        }
    }
    seed
}

/// A connected random graph on `n` vertices (a Hamiltonian cycle plus
/// `8n` random chords) with one detached edge `(n, n + 1)` appended: a
/// source on that edge finishes early, so a bottom-up skip that waited
/// for every bit of the batch would keep scanning the whole graph.
#[cfg(test)]
pub(crate) fn giant_with_detached_edge(n: u32) -> pbfs_graph::CsrGraph {
    let chords = pbfs_graph::gen::uniform(n as usize, 8 * n as usize, 17);
    let mut edges: Vec<(VertexId, VertexId)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
    for v in 0..n {
        edges.extend(chords.neighbors(v).iter().map(|&w| (v, w)));
    }
    edges.push((n, n + 1));
    pbfs_graph::CsrGraph::from_edges(n as usize + 2, &edges)
}

/// `k` sources for [`giant_with_detached_edge`]`(n)`: `k - 1` spread over
/// the giant component and one, at index 5, on the detached edge.
#[cfg(test)]
pub(crate) fn detached_batch(n: u32, k: usize) -> Vec<VertexId> {
    let mut sources: Vec<u32> = (0..k as u32 - 1).map(|i| i * 7 % n).collect();
    sources.insert(5, n);
    sources
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::DirectionPolicy;
    use crate::textbook;
    use crate::visitor::MsDistanceVisitor;
    use pbfs_graph::gen;
    use pbfs_graph::CsrGraph;

    fn check_batch<const W: usize>(
        g: &CsrGraph,
        sources: &[VertexId],
        workers: usize,
        opts: &BfsOptions,
    ) {
        let pool = WorkerPool::new(workers);
        let mut bfs: MsPbfs<W> = MsPbfs::new(g.num_vertices());
        let dists: MsDistanceVisitor<W> = MsDistanceVisitor::new(g.num_vertices(), sources.len());
        bfs.run(g, &pool, sources, opts, &dists);
        for (i, &s) in sources.iter().enumerate() {
            let oracle = textbook::distances(g, s);
            assert_eq!(
                dists.distances_of(i),
                oracle,
                "source {s} (batch index {i})"
            );
        }
    }

    #[test]
    fn matches_oracle_single_worker() {
        let g = gen::Kronecker::graph500(9).seed(1).generate();
        check_batch::<1>(&g, &[0, 5, 9], 1, &BfsOptions::default());
    }

    #[test]
    fn matches_oracle_multi_worker() {
        let g = gen::Kronecker::graph500(10).seed(2).generate();
        let sources: Vec<u32> = (0..64).map(|i| i * 7 % 1024).collect();
        check_batch::<1>(&g, &sources, 4, &BfsOptions::default());
    }

    #[test]
    fn wide_batches() {
        let g = gen::uniform(400, 1600, 3);
        let sources: Vec<u32> = (0..128).map(|i| i % 400).collect();
        check_batch::<2>(&g, &sources, 3, &BfsOptions::default());
    }

    #[test]
    fn forced_directions_match() {
        let g = gen::Kronecker::graph500(8).seed(6).generate();
        for policy in [
            DirectionPolicy::AlwaysTopDown,
            DirectionPolicy::AlwaysBottomUp,
        ] {
            check_batch::<1>(
                &g,
                &(0..16).collect::<Vec<_>>(),
                3,
                &BfsOptions::default().with_policy(policy),
            );
        }
    }

    #[test]
    fn frontier_modes_and_prefetch_distances_match() {
        let g = gen::Kronecker::graph500(10).seed(21).generate();
        let sources: Vec<u32> = (0..48).map(|i| i * 11 % 1024).collect();
        for mode in [
            crate::policy::FrontierMode::Flat,
            crate::policy::FrontierMode::Summary,
            crate::policy::FrontierMode::Auto,
        ] {
            for pd in [0usize, 4, 16] {
                let opts = BfsOptions::default()
                    .with_frontier_mode(mode)
                    .with_prefetch_distance(pd);
                check_batch::<1>(&g, &sources, 4, &opts);
            }
        }
    }

    #[test]
    fn forced_representation_switching_matches_oracle() {
        // The adversarial controller config: switch representation every
        // single iteration, cycling sparse → flat → summary. Results must
        // stay bit-identical to the static modes.
        let g = gen::Kronecker::graph500(9).seed(33).generate();
        let sources: Vec<u32> = (0..32).map(|i| i * 13 % 512).collect();
        let opts = BfsOptions::default()
            .with_frontier_mode(crate::policy::FrontierMode::Auto)
            .with_adapt(crate::adapt::AdaptConfig::default().forced());
        check_batch::<1>(&g, &sources, 4, &opts);
        check_batch::<2>(&g, &sources, 2, &opts);
    }

    #[test]
    fn auto_mode_records_decisions() {
        // A path graph pins the frontier at one vertex: the controller must
        // leave its starting summary strategy for the sparse queue, and the
        // decision must land in the stats log.
        let g = gen::path(8_000);
        let pool = WorkerPool::new(2);
        let mut bfs: MsPbfs<1> = MsPbfs::new(g.num_vertices());
        let stats = bfs.run(
            &g,
            &pool,
            &[0],
            &BfsOptions::default().with_policy(DirectionPolicy::AlwaysTopDown),
            &crate::visitor::NoopMsVisitor,
        );
        assert!(
            stats
                .adapt_decisions
                .iter()
                .any(|d| d.to == "sparse" && d.reason == "sparse_frontier"),
            "decisions: {:?}",
            stats.adapt_decisions
        );

        let static_run = bfs.run(
            &g,
            &pool,
            &[0],
            &BfsOptions::default()
                .with_policy(DirectionPolicy::AlwaysTopDown)
                .with_frontier_mode(crate::policy::FrontierMode::Summary),
            &crate::visitor::NoopMsVisitor,
        );
        assert!(static_run.adapt_decisions.is_empty());
    }

    #[test]
    fn summary_mode_reports_skips_on_sparse_frontiers() {
        // A long path keeps the frontier at one vertex per iteration: the
        // summary must skip almost every chunk.
        let g = gen::path(10_000);
        let pool = WorkerPool::new(2);
        let mut bfs: MsPbfs<1> = MsPbfs::new(g.num_vertices());
        let stats = bfs.run(
            &g,
            &pool,
            &[0],
            &BfsOptions::default()
                .with_policy(DirectionPolicy::AlwaysTopDown)
                .with_frontier_mode(crate::policy::FrontierMode::Summary),
            &crate::visitor::NoopMsVisitor,
        );
        assert!(stats.summary_chunks_skipped > 0, "no skips recorded");
        assert!(
            stats.summary_skip_ratio() > 0.9,
            "ratio {}",
            stats.summary_skip_ratio()
        );

        let flat = bfs.run(
            &g,
            &pool,
            &[0],
            &BfsOptions::default()
                .with_policy(DirectionPolicy::AlwaysTopDown)
                .with_frontier_mode(crate::policy::FrontierMode::Flat),
            &crate::visitor::NoopMsVisitor,
        );
        assert_eq!(flat.summary_chunks_skipped + flat.summary_chunks_scanned, 0);
        assert_eq!(flat.summary_skip_ratio(), 0.0);
    }

    #[test]
    fn small_split_sizes_stay_correct() {
        let g = gen::uniform(200, 800, 5);
        check_batch::<1>(&g, &[0, 1], 4, &BfsOptions::default().with_split_size(7));
    }

    #[test]
    fn disconnected_components() {
        let g = gen::disjoint_union(&[&gen::star(10), &gen::cycle(6)]);
        check_batch::<1>(&g, &[0, 12], 2, &BfsOptions::default());
    }

    #[test]
    fn instrumented_run_reports_work() {
        let g = gen::Kronecker::graph500(9).seed(7).generate();
        let pool = WorkerPool::new(3);
        let mut bfs: MsPbfs<1> = MsPbfs::new(g.num_vertices());
        let stats = bfs.run(
            &g,
            &pool,
            &[0, 1],
            &BfsOptions::default().instrumented(),
            &crate::visitor::NoopMsVisitor,
        );
        assert!(stats.num_iterations() > 0);
        for it in &stats.iterations {
            assert_eq!(it.per_worker.len(), 3);
            let updated: u64 = it.per_worker.iter().map(|w| w.updated_states).sum();
            assert_eq!(updated, it.discovered, "iteration {}", it.iteration);
        }
        let visited: u64 = stats
            .iterations
            .iter()
            .flat_map(|i| &i.per_worker)
            .map(|w| w.visited_neighbors)
            .sum();
        assert!(visited > 0);
    }

    #[test]
    fn agrees_with_sequential_msbfs_stats() {
        // Same discoveries per iteration as the sequential algorithm under
        // a fixed direction schedule.
        let g = gen::uniform(300, 1500, 8);
        let sources: Vec<u32> = (0..48).collect();
        let opts = BfsOptions::default().with_policy(DirectionPolicy::AlwaysTopDown);
        let pool = WorkerPool::new(4);
        let mut par: MsPbfs<1> = MsPbfs::new(300);
        let mut seq: crate::msbfs::MsBfs<1> = crate::msbfs::MsBfs::new(300);
        let ps = par.run(&g, &pool, &sources, &opts, &crate::visitor::NoopMsVisitor);
        let ss = seq.run(&g, &sources, &opts, &crate::visitor::NoopMsVisitor);
        assert_eq!(ps.num_iterations(), ss.num_iterations());
        for (a, b) in ps.iterations.iter().zip(&ss.iterations) {
            assert_eq!(a.discovered, b.discovered);
            assert_eq!(a.frontier_vertices, b.frontier_vertices);
        }
        assert_eq!(ps.total_discovered, ss.total_discovered);
    }

    #[test]
    fn state_bytes_independent_of_workers() {
        let bfs: MsPbfs<1> = MsPbfs::new(1 << 12);
        // Entry words plus the one-word frontier summary per array (a
        // 0.2 ‰ overhead at W = 1).
        assert_eq!(bfs.state_bytes(), 3 * ((1 << 12) * 8 + 8));
    }

    #[test]
    fn live_mask_pruning_matches_oracle_with_a_detached_source() {
        let n = 1200;
        let g = giant_with_detached_edge(n);
        for policy in [DirectionPolicy::default(), DirectionPolicy::AlwaysBottomUp] {
            for mode in [
                crate::policy::FrontierMode::Flat,
                crate::policy::FrontierMode::Summary,
                crate::policy::FrontierMode::Auto,
            ] {
                let opts = BfsOptions::default()
                    .with_policy(policy)
                    .with_frontier_mode(mode);
                check_batch::<1>(&g, &detached_batch(n, 64), 2, &opts);
                check_batch::<8>(&g, &detached_batch(n, 512), 2, &opts);
            }
        }
    }

    /// Edges relaxed by the final iteration of a forced bottom-up run. It
    /// runs after every giant-component BFS is exhausted, so only the
    /// detached edge's two vertices can still gain a bit.
    fn last_iteration_edges<const W: usize>(g: &CsrGraph, sources: &[VertexId]) -> u64 {
        let pool = WorkerPool::new(2);
        let mut bfs: MsPbfs<W> = MsPbfs::new(g.num_vertices());
        let opts = BfsOptions::default()
            .with_policy(DirectionPolicy::AlwaysBottomUp)
            .instrumented();
        let stats = bfs.run(g, &pool, sources, &opts, &crate::visitor::NoopMsVisitor);
        let last = stats.iterations.last().expect("at least one iteration");
        assert_eq!(last.direction, Direction::BottomUp);
        assert_eq!(last.discovered, 0, "the final iteration finds nothing");
        last.per_worker.iter().map(|w| w.visited_neighbors).sum()
    }

    #[test]
    fn finished_bfs_does_not_keep_the_giant_component_in_bottom_up() {
        let n = 1200;
        let g = giant_with_detached_edge(n);
        let bound = g.num_directed_edges() as u64 / 10;
        let narrow = last_iteration_edges::<1>(&g, &detached_batch(n, 64));
        assert!(
            narrow < bound,
            "64-wide: {narrow} edges relaxed, bound {bound}"
        );
        let wide = last_iteration_edges::<8>(&g, &detached_batch(n, 512));
        assert!(
            wide < bound,
            "512-wide: {wide} edges relaxed, bound {bound}"
        );
    }

    #[test]
    fn reusable_across_batches() {
        let g = gen::cycle(20);
        let pool = WorkerPool::new(2);
        let mut bfs: MsPbfs<1> = MsPbfs::new(20);
        for s in [0u32, 7, 13] {
            let dists: MsDistanceVisitor<1> = MsDistanceVisitor::new(20, 1);
            bfs.run(&g, &pool, &[s], &BfsOptions::default(), &dists);
            assert_eq!(dists.distances_of(0), textbook::distances(&g, s));
        }
    }
}
