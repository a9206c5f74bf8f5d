//! The iteration driver shared by the parallel BFS kernels.
//!
//! MS-PBFS (§3.1), SMS-PBFS (§3.2) and the sharded scatter/gather kernel
//! run the same loop: choose a direction, run the two-phase top-down or
//! the bottom-up pass over task ranges of the worker pool, rotate the
//! frontier buffers. Only the per-vertex steps differ. [`Traversal`] owns
//! the loop: the task split, the iteration cap and phase failpoint, the
//! direction and scan decisions, the phase runs and their spans, stale
//! frontier clears, and the per-iteration stats, spans and counters. A
//! kernel keeps its state, its source seeding and the phase bodies its
//! step closure hands to [`Iteration::phase`].

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use pbfs_bitset::{ScanStats, StateArray, SUMMARY_CHUNK};
use pbfs_sched::{RunStats, WorkerPool};
use pbfs_telemetry::{EventKind, PerWorkerU64};

use crate::adapt::{AdaptController, FrontierSample, ScanStrategy};
use crate::options::BfsOptions;
use crate::policy::{Direction, FrontierMode, FrontierState};
use crate::smspbfs::SsState;
use crate::stats::{IterationStats, TraversalStats, WorkerIterStats};
use crate::storage::Adjacency;

/// Vertices per task range for a state whose conflict-free ownership unit
/// is `own_align` vertices. Summary-guided scans also align ranges to
/// summary chunks: range clears then cover whole chunks, so summary bits
/// are cleared exactly instead of conservatively.
pub(crate) fn task_split(opts: &BfsOptions, own_align: usize) -> usize {
    let align = match opts.frontier_mode {
        FrontierMode::Summary | FrontierMode::Auto => own_align.max(SUMMARY_CHUNK),
        FrontierMode::Flat => own_align,
    };
    pbfs_sched::aligned_split(opts.split_size.max(1), align)
}

/// Frontier counts: what a settle task found, folded into the iteration
/// by [`Iteration::settled`], or the seed a traversal starts from.
#[derive(Default)]
pub(crate) struct Tally {
    /// States discovered (bits for multi-source).
    pub discovered: u64,
    /// Vertices that gained a state: the new frontier.
    pub vertices: u64,
    /// Their degree sum (`m_f`).
    pub degree: u64,
    /// Degree sum of the vertices no running BFS can reach any more,
    /// which leaves `m_u`.
    pub fully_seen: u64,
}

impl Tally {
    /// Counts one vertex that gained `bits` states.
    #[inline]
    pub fn found(&mut self, bits: u64, degree: u64, fully_seen: bool) {
        self.discovered += bits;
        self.vertices += 1;
        self.degree += degree;
        if fully_seen {
            self.fully_seen += degree;
        }
    }
}

/// A state array the driver clears: at init, and after a bottom-up pass.
pub(crate) trait Stale: Sync {
    /// Clears `r` in bulk.
    ///
    /// # Safety
    /// The caller must own `r` exclusively until the pool joins.
    unsafe fn clear_owned(&self, r: Range<usize>);
    /// Calls `f(chunk_start, chunk_end)` for every summary-active chunk
    /// of `r`.
    fn active_chunks(&self, r: Range<usize>, f: impl FnMut(usize, usize)) -> ScanStats;
}

impl<const W: usize> Stale for StateArray<W> {
    unsafe fn clear_owned(&self, r: Range<usize>) {
        // SAFETY: exclusivity forwarded from the caller.
        unsafe { self.clear_range_owned(r.start, r.end) }
    }
    fn active_chunks(&self, r: Range<usize>, f: impl FnMut(usize, usize)) -> ScanStats {
        self.for_each_active_chunk(r.start, r.end, f)
    }
}

impl<S: SsState> Stale for S {
    unsafe fn clear_owned(&self, r: Range<usize>) {
        self.clear_range(r.start, r.end);
    }
    fn active_chunks(&self, r: Range<usize>, f: impl FnMut(usize, usize)) -> ScanStats {
        self.for_each_active_chunk(r.start, r.end, f)
    }
}

/// One traversal on one pool: created before the kernel initializes its
/// state (the wall clock starts here), consumed by [`Traversal::run`].
pub(crate) struct Traversal<'a> {
    pool: &'a WorkerPool,
    opts: &'a BfsOptions,
    // Read only by the live failpoint sites.
    #[cfg_attr(not(feature = "failpoints"), allow(dead_code))]
    site: &'static str,
    start: Instant,
    n: usize,
    edges: u64,
    /// Vertices per task range; every phase and the kernel's init use it.
    pub split: usize,
}

impl<'a> Traversal<'a> {
    /// A traversal of `g` split into `split`-vertex task ranges. `site` is
    /// the failpoint evaluated at every iteration boundary.
    pub fn new(
        pool: &'a WorkerPool,
        opts: &'a BfsOptions,
        g: &(impl Adjacency + ?Sized),
        split: usize,
        site: &'static str,
    ) -> Self {
        Self {
            pool,
            opts,
            site,
            start: Instant::now(),
            n: g.num_vertices(),
            edges: g.num_directed_edges() as u64,
            split,
        }
    }

    /// Clears `arrays` in parallel. Each worker first-touches (and later
    /// processes) the same deterministic ranges — the NUMA placement rule
    /// of Section 4.4.
    pub fn init<B: Stale>(&self, arrays: &[&mut B]) {
        // SAFETY: the arrays are borrowed exclusively and the init ranges
        // are disjoint per worker, so each worker owns its range.
        self.pool.parallel_for(self.n, self.split, |_, r| {
            for a in arrays {
                unsafe { a.clear_owned(r.clone()) }
            }
        });
    }

    /// Runs iterations from the frontier the kernel seeded until it
    /// empties or `max_iterations` is reached; `step` performs one
    /// iteration.
    pub fn run(self, seed: Tally, mut step: impl FnMut(&Iteration)) -> TraversalStats {
        let (opts, n) = (self.opts, self.n as u64);
        let mode = opts.frontier_mode;
        // Online controller: under `Auto` it samples the frontier each
        // iteration and picks the scan strategy; the static modes map to a
        // fixed strategy. Strategy only changes *how* the frontier arrays
        // are walked, never what they contain, so any decision is correct.
        let mut ctl = (mode == FrontierMode::Auto).then(|| AdaptController::new(opts.adapt));
        let mut cur_scan = match mode {
            FrontierMode::Flat => ScanStrategy::Flat,
            FrontierMode::Summary | FrontierMode::Auto => ScanStrategy::Summary,
        };
        let rec = pbfs_telemetry::recorder();
        let mut stats = TraversalStats {
            total_discovered: seed.discovered,
            ..Default::default()
        };
        let (mut vertices, mut degree) = (seed.vertices, seed.degree);
        let mut unexplored = self.edges.saturating_sub(seed.fully_seen);
        let mut direction = Direction::TopDown;
        let mut depth = 0u32;

        while vertices > 0 {
            // Phase boundary: state arrays are consistent here, so an
            // injected panic exercises the engine's mid-traversal repair.
            crate::fail_point!(self.site);
            if opts.max_iterations.is_some_and(|max| depth >= max) {
                break;
            }
            depth += 1;
            let prev_direction = direction;
            let wanted = opts.policy.decide(&FrontierState {
                frontier_vertices: vertices,
                frontier_degree: degree,
                unexplored_degree: unexplored,
                total_vertices: n,
                current: direction,
            });
            direction = match ctl.as_mut() {
                Some(c) => c.decide_direction(depth, direction, wanted),
                None => wanted,
            };
            crate::obs::note_iteration(depth, direction, depth > 1 && direction != prev_direction);
            let scan = match ctl.as_mut() {
                Some(c) => c.decide_scan(&FrontierSample {
                    iteration: depth,
                    frontier_vertices: vertices,
                    frontier_degree: degree,
                    total_vertices: n,
                }),
                None => cur_scan,
            };
            if scan != cur_scan {
                // Representation-switch boundary — a chaos site: a panic
                // injected here must fail only this batch.
                crate::fail_point!("core.adapt.switch");
                cur_scan = scan;
            }
            let iter_start = Instant::now();
            let workers = self.pool.num_workers();
            let it = Iteration {
                t: &self,
                depth,
                direction,
                scan,
                frontier_vertices: vertices,
                tally: Default::default(),
                skipped: AtomicU64::new(0),
                scanned: AtomicU64::new(0),
                visited_pw: PerWorkerU64::new(workers),
                updated_pw: PerWorkerU64::new(workers),
                runs: Mutex::new(Vec::new()),
                expand_ns: AtomicU64::new(0),
                settle_ns: AtomicU64::new(0),
            };
            step(&it);

            let [discovered, new_vertices, new_degree, fully_seen] =
                it.tally.each_ref().map(|c| c.load(Ordering::Relaxed));
            vertices = new_vertices;
            degree = new_degree;
            unexplored = unexplored.saturating_sub(fully_seen);
            stats.total_discovered += discovered;
            let per_worker = if opts.instrument {
                let runs = it.runs.into_inner().expect("no phase holds the stats lock");
                let (visited, updated) = (it.visited_pw.snapshot(), it.updated_pw.snapshot());
                (0..workers)
                    .map(|w| {
                        let mut s = WorkerIterStats {
                            visited_neighbors: visited[w],
                            updated_states: updated[w],
                            ..Default::default()
                        };
                        for pw in runs.iter().map(|p| &p.per_worker[w]) {
                            s.busy_ns += pw.busy_ns;
                            s.tasks += pw.tasks;
                            s.stolen += pw.stolen;
                            s.remote += pw.remote;
                        }
                        s
                    })
                    .collect()
            } else {
                Vec::new()
            };
            let iter_wall = iter_start.elapsed();
            rec.span_at_ctx(
                0,
                EventKind::Iteration,
                iter_start,
                iter_wall,
                depth as u64,
                discovered,
                opts.query_set,
            );
            stats.iterations.push(IterationStats {
                iteration: depth,
                direction,
                wall_ns: iter_wall.as_nanos() as u64,
                expand_ns: it.expand_ns.into_inner(),
                settle_ns: it.settle_ns.into_inner(),
                frontier_vertices: vertices,
                discovered,
                chunks_scanned: it.scanned.into_inner(),
                chunks_skipped: it.skipped.into_inner(),
                per_worker,
            });
        }

        if let Some(c) = ctl {
            stats.adapt_decisions = c.into_log();
        }
        stats.summary_chunks_skipped = stats.iterations.iter().map(|i| i.chunks_skipped).sum();
        stats.summary_chunks_scanned = stats.iterations.iter().map(|i| i.chunks_scanned).sum();
        crate::obs::note_summary_scan(stats.summary_chunks_skipped, stats.summary_chunks_scanned);
        crate::obs::note_traversal(stats.total_discovered);
        stats.total_wall_ns = self.start.elapsed().as_nanos() as u64;
        stats
    }
}

/// One iteration as the step closure sees it: the decisions taken for it
/// and the counters its phase bodies feed.
pub(crate) struct Iteration<'t> {
    t: &'t Traversal<'t>,
    /// Iteration number; discoveries in it are at this depth.
    pub depth: u32,
    /// Direction chosen for this iteration.
    pub direction: Direction,
    /// Scan strategy chosen for this iteration.
    pub scan: ScanStrategy,
    /// Vertices in the frontier at the start of the iteration.
    pub frontier_vertices: u64,
    /// Discovered states, new frontier vertices, their degree sum and the
    /// degree sum leaving `m_u`, in that order.
    tally: [AtomicU64; 4],
    skipped: AtomicU64,
    scanned: AtomicU64,
    visited_pw: PerWorkerU64,
    updated_pw: PerWorkerU64,
    runs: Mutex<Vec<RunStats>>,
    expand_ns: AtomicU64,
    settle_ns: AtomicU64,
}

impl Iteration<'_> {
    /// Runs `body` over `0..len` in task ranges on the pool, under a
    /// `kind` span. Instrumented runs also collect scheduler stats and
    /// the phase wall (expansion for phase 1 and bottom-up, settle for
    /// phase 2).
    pub fn phase(&self, kind: EventKind, len: usize, body: impl Fn(Range<usize>) + Sync) {
        let (t, rec) = (self.t, pbfs_telemetry::recorder());
        let (fv, qset) = (self.frontier_vertices, t.opts.query_set);
        if t.opts.instrument {
            // Phase walls measured directly (not via the recorder, which
            // yields no timestamps while trace recording is off) so
            // profiles work untraced.
            let t0 = Instant::now();
            let run = t
                .pool
                .parallel_for_instrumented(len, t.split, |_, r, _| body(r));
            let d = t0.elapsed();
            rec.span_at_ctx(0, kind, t0, d, fv, 0, qset);
            let wall = match kind {
                EventKind::TopDownPhase2 => &self.settle_ns,
                _ => &self.expand_ns,
            };
            wall.store(d.as_nanos() as u64, Ordering::Relaxed);
            self.runs
                .lock()
                .expect("no phase holds the stats lock")
                .push(run);
        } else {
            let t0 = rec.start();
            t.pool.parallel_for(len, t.split, |_, r| body(r));
            rec.span_ctx(0, kind, t0, fv, 0, qset);
        }
    }

    /// Under the sparse strategy, gathers the frontier into a vertex queue
    /// once so phase 1 is O(frontier) work instead of a vertex-range scan.
    /// Returns the strategy the phases use and the queue. `gather` is
    /// capped at the tracked frontier size, so overflow (`None`) cannot
    /// happen; the summary scan is the defensive fallback if it does.
    pub fn sparse_queue<T>(
        &self,
        gather: impl FnOnce(usize) -> Option<Vec<T>>,
    ) -> (ScanStrategy, Option<Vec<T>>) {
        match self.scan {
            ScanStrategy::Sparse => match gather(self.frontier_vertices as usize) {
                Some(list) => (ScanStrategy::Sparse, Some(list)),
                None => (ScanStrategy::Summary, None),
            },
            scan => (scan, None),
        }
    }

    /// Adds a summary-guided scan's chunk counts to the iteration.
    #[inline]
    pub fn note_scan(&self, s: ScanStats) {
        self.skipped.fetch_add(s.chunks_skipped, Ordering::Relaxed);
        self.scanned.fetch_add(s.chunks_scanned, Ordering::Relaxed);
    }

    /// The worker queue that owns the task range starting at `task_start`.
    fn owner(&self, task_start: usize) -> usize {
        (task_start / self.t.split) % self.visited_pw.len()
    }

    /// Credits `edges` relaxed adjacency entries to the owner of the task
    /// range starting at `task_start`.
    pub fn visited(&self, task_start: usize, edges: u64) {
        self.visited_pw.add(self.owner(task_start), edges);
    }

    /// Folds a settle task's discoveries into the iteration and credits
    /// them to the owner of the task range starting at `task_start`.
    pub fn settled(&self, task_start: usize, c: Tally) {
        let counts = [c.discovered, c.vertices, c.degree, c.fully_seen];
        for (sum, v) in self.tally.iter().zip(counts) {
            sum.fetch_add(v, Ordering::Relaxed);
        }
        self.updated_pw.add(self.owner(task_start), c.discovered);
    }

    /// Makes `next` the frontier. A top-down phase 2 already cleared the
    /// old frontier; a bottom-up pass read it throughout its single loop,
    /// so its stale entries are cleared here before it serves as `next`.
    pub fn rotate<B: Stale>(&self, frontier: &mut B, next: &mut B) {
        std::mem::swap(frontier, next);
        if self.direction == Direction::BottomUp {
            let (t, next) = (self.t, &*next);
            // SAFETY (both arms): the parallel_for ranges are disjoint and
            // nothing else touches `next` here, so each worker owns its
            // range.
            match self.scan {
                ScanStrategy::Flat => t
                    .pool
                    .parallel_for(t.n, t.split, |_, r| unsafe { next.clear_owned(r) }),
                // Only active chunks can hold stale bits.
                ScanStrategy::Summary | ScanStrategy::Sparse => {
                    t.pool.parallel_for(t.n, t.split, |_, r| {
                        let clear = |cs, ce| unsafe { next.clear_owned(cs..ce) };
                        self.note_scan(next.active_chunks(r, clear))
                    })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::mspbfs::MsPbfs;
    use crate::options::BfsOptions;
    use crate::policy::DirectionPolicy;
    use crate::sharded::ShardedMsBfs;
    use crate::smspbfs::{SmsPbfsBit, SmsPbfsByte};
    use crate::stats::TraversalStats;
    use crate::textbook;
    use crate::visitor::{DistanceVisitor, MsDistanceVisitor};
    use crate::UNREACHED;
    use pbfs_graph::{gen, CsrGraph, PartitionedCsr};
    use pbfs_sched::WorkerPool;

    /// The textbook distances from `s`, cut off after depth `k`.
    fn capped_oracle(g: &CsrGraph, s: u32, k: u32) -> Vec<u32> {
        let d = textbook::distances(g, s);
        d.into_iter()
            .map(|d| if d <= k { d } else { UNREACHED })
            .collect()
    }

    /// Runs every parallel kernel with `max_iterations = Some(k)` and
    /// checks that each stops after exactly `k` iterations, having found
    /// everything up to depth `k` and nothing deeper.
    fn check_cap(g: &CsrGraph, policy: DirectionPolicy, k: u32) {
        let (n, pool) = (g.num_vertices(), WorkerPool::new(2));
        let opts = BfsOptions {
            max_iterations: Some(k),
            ..BfsOptions::default().with_policy(policy)
        };
        let sources = [0u32, n as u32 - 1, 5];
        let want: Vec<Vec<u32>> = sources.iter().map(|&s| capped_oracle(g, s, k)).collect();
        let iterations = |stats: &TraversalStats, kernel: &str| {
            assert_eq!(stats.num_iterations(), k, "{kernel}, cap {k}");
        };

        let ms: MsDistanceVisitor<1> = MsDistanceVisitor::new(n, sources.len());
        iterations(
            &MsPbfs::<1>::new(n).run(g, &pool, &sources, &opts, &ms),
            "MsPbfs",
        );
        let part = PartitionedCsr::partition(g, 2, 2, 64);
        let sh: MsDistanceVisitor<1> = MsDistanceVisitor::new(n, sources.len());
        let stats = ShardedMsBfs::<1>::new(n, 2).run(&part, &pool, &sources, &opts, &sh);
        iterations(&stats, "ShardedMsBfs");
        for (i, want) in want.iter().enumerate() {
            assert_eq!(&ms.distances_of(i), want, "MsPbfs source {i}, cap {k}");
            assert_eq!(
                &sh.distances_of(i),
                want,
                "ShardedMsBfs source {i}, cap {k}"
            );
        }

        let bit = DistanceVisitor::new(n);
        iterations(
            &SmsPbfsBit::new(n).run(g, &pool, 0, &opts, &bit),
            "SmsPbfsBit",
        );
        assert_eq!(bit.distances(), want[0], "SmsPbfsBit, cap {k}");
        let byte = DistanceVisitor::new(n);
        iterations(
            &SmsPbfsByte::new(n).run(g, &pool, 0, &opts, &byte),
            "SmsPbfsByte",
        );
        assert_eq!(byte.distances(), want[0], "SmsPbfsByte, cap {k}");
    }

    #[test]
    fn max_iterations_caps_every_parallel_kernel() {
        let grid = gen::grid(16, 12);
        let kron = gen::Kronecker::graph500(9).seed(4).generate();
        for policy in [DirectionPolicy::default(), DirectionPolicy::AlwaysBottomUp] {
            for k in [1, 2, 5] {
                check_cap(&grid, policy, k);
            }
            check_cap(&kron, policy, 2);
        }
    }

    #[test]
    fn instrumented_sharded_run_reports_per_worker_rows() {
        let g = gen::Kronecker::graph500(9).seed(7).generate();
        let part = PartitionedCsr::partition(&g, 2, 3, 64);
        let pool = WorkerPool::new(3);
        let sources: Vec<u32> = (0..64).map(|i| i * 5).collect();
        let stats = ShardedMsBfs::<1>::new(g.num_vertices(), 2).run(
            &part,
            &pool,
            &sources,
            &BfsOptions::default().instrumented(),
            &crate::visitor::NoopMsVisitor,
        );
        assert!(stats.num_iterations() > 0);
        for it in &stats.iterations {
            assert_eq!(it.per_worker.len(), 3, "iteration {}", it.iteration);
            let updated: u64 = it.per_worker.iter().map(|w| w.updated_states).sum();
            assert_eq!(updated, it.discovered, "iteration {}", it.iteration);
            assert!(it.expand_ns > 0 && it.settle_ns > 0);
        }
        let visited: u64 = stats.iterations.iter().map(|i| i.edges_relaxed()).sum();
        assert!(visited > 0);
    }
}
