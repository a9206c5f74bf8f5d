//! Visitors: how callers consume BFS discoveries.
//!
//! The array-based algorithms do not materialize queues, so results are
//! reported through visitor callbacks invoked from the conflict-free phases
//! (each vertex is reported exactly once per BFS). Visitors must be `Sync`;
//! the provided implementations use relaxed atomics since each slot is
//! written once.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use pbfs_bitset::Bits;
use pbfs_graph::{VertexId, INVALID_VERTEX};
use pbfs_sched::WorkerPool;

use crate::UNREACHED;

/// Visitor for single-source traversals (SMS-PBFS, Beamer, textbook).
pub trait SsVisitor: Sync {
    /// `v` was discovered at distance `dist` from the source. Called
    /// exactly once per reached vertex, including the source at distance 0.
    #[inline]
    fn on_found(&self, v: VertexId, dist: u32) {
        let _ = (v, dist);
    }

    /// `child` was first reached over the edge `(parent, child)`. Called at
    /// most once per reached vertex; the source gets no tree edge.
    #[inline]
    fn on_tree_edge(&self, parent: VertexId, child: VertexId) {
        let _ = (parent, child);
    }
}

/// Visitor for multi-source traversals (MS-BFS, MS-PBFS).
pub trait MsVisitor<const W: usize>: Sync {
    /// `v` was discovered at distance `dist` by the BFSs whose bits are set
    /// in `bfs_set`. Called exactly once per `(vertex, BFS)` pair, grouped
    /// by vertex.
    #[inline]
    fn on_found(&self, v: VertexId, dist: u32, bfs_set: Bits<W>) {
        let _ = (v, dist, bfs_set);
    }
}

/// Ignores all single-source events.
pub struct NoopVisitor;

impl SsVisitor for NoopVisitor {}

/// Ignores all multi-source events.
pub struct NoopMsVisitor;

impl<const W: usize> MsVisitor<W> for NoopMsVisitor {}

/// Records per-vertex distances of a single-source traversal.
pub struct DistanceVisitor {
    dist: Vec<AtomicU32>,
}

impl DistanceVisitor {
    /// Creates a visitor for `n` vertices, all initially [`UNREACHED`].
    pub fn new(n: usize) -> Self {
        let mut dist = Vec::with_capacity(n);
        dist.resize_with(n, || AtomicU32::new(UNREACHED));
        Self { dist }
    }

    /// Resets all distances to [`UNREACHED`] for reuse.
    pub fn reset(&self) {
        for d in &self.dist {
            d.store(UNREACHED, Ordering::Relaxed);
        }
    }

    /// Distance of `v`.
    pub fn distance(&self, v: VertexId) -> u32 {
        self.dist[v as usize].load(Ordering::Relaxed)
    }

    /// Snapshot of all distances.
    pub fn distances(&self) -> Vec<u32> {
        self.dist
            .iter()
            .map(|d| d.load(Ordering::Relaxed))
            .collect()
    }

    /// Consumes the visitor into the distance vector.
    pub fn into_distances(self) -> Vec<u32> {
        self.dist.into_iter().map(AtomicU32::into_inner).collect()
    }
}

impl SsVisitor for DistanceVisitor {
    #[inline]
    fn on_found(&self, v: VertexId, dist: u32) {
        self.dist[v as usize].store(dist, Ordering::Relaxed);
    }
}

/// Records the BFS tree (Graph500 output format): `parent[source] =
/// source`, unreached vertices keep [`INVALID_VERTEX`].
pub struct ParentVisitor {
    parent: Vec<AtomicU32>,
}

impl ParentVisitor {
    /// Creates a visitor for `n` vertices and marks `source` as its own
    /// parent.
    pub fn new(n: usize, source: VertexId) -> Self {
        let mut parent = Vec::with_capacity(n);
        parent.resize_with(n, || AtomicU32::new(INVALID_VERTEX));
        parent[source as usize].store(source, Ordering::Relaxed);
        Self { parent }
    }

    /// Parent of `v` ([`INVALID_VERTEX`] when unreached).
    pub fn parent(&self, v: VertexId) -> VertexId {
        self.parent[v as usize].load(Ordering::Relaxed)
    }

    /// Snapshot of the parent array.
    pub fn parents(&self) -> Vec<VertexId> {
        self.parent
            .iter()
            .map(|p| p.load(Ordering::Relaxed))
            .collect()
    }
}

impl SsVisitor for ParentVisitor {
    #[inline]
    fn on_tree_edge(&self, parent: VertexId, child: VertexId) {
        // The first claim wins: concurrent top-down discoverers of the same
        // vertex race here, and any of them is a valid BFS parent because
        // tree-edge callbacks only fire from frontier vertices of the
        // discovery iteration.
        let _ = self.parent[child as usize].compare_exchange(
            INVALID_VERTEX,
            parent,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }
}

/// Fans one single-source event stream out to two visitors (e.g. distances
/// + parents in one traversal).
pub struct PairVisitor<'a, A: SsVisitor, B: SsVisitor>(pub &'a A, pub &'a B);

impl<A: SsVisitor, B: SsVisitor> SsVisitor for PairVisitor<'_, A, B> {
    #[inline]
    fn on_found(&self, v: VertexId, dist: u32) {
        self.0.on_found(v, dist);
        self.1.on_found(v, dist);
    }

    #[inline]
    fn on_tree_edge(&self, parent: VertexId, child: VertexId) {
        self.0.on_tree_edge(parent, child);
        self.1.on_tree_edge(parent, child);
    }
}

/// Records one distance array per concurrent BFS of a multi-source batch.
/// Memory is `O(batch_size × n)` — meant for analytics on moderate graphs
/// and for differential testing.
pub struct MsDistanceVisitor<const W: usize> {
    dist: Vec<AtomicU32>,
    n: usize,
    batch: usize,
}

impl<const W: usize> MsDistanceVisitor<W> {
    /// Creates a visitor for `batch` concurrent BFSs over `n` vertices.
    ///
    /// # Panics
    /// Panics if `batch > W * 64`.
    pub fn new(n: usize, batch: usize) -> Self {
        assert!(batch <= W * 64, "batch exceeds bitset width");
        let mut dist = Vec::with_capacity(n * batch);
        dist.resize_with(n * batch, || AtomicU32::new(UNREACHED));
        Self { dist, n, batch }
    }

    /// Distance of `v` in BFS `i` of the batch.
    pub fn distance(&self, i: usize, v: VertexId) -> u32 {
        assert!(i < self.batch);
        self.dist[i * self.n + v as usize].load(Ordering::Relaxed)
    }

    /// Distance array of BFS `i`.
    pub fn distances_of(&self, i: usize) -> Vec<u32> {
        assert!(i < self.batch);
        self.dist[i * self.n..(i + 1) * self.n]
            .iter()
            .map(|d| d.load(Ordering::Relaxed))
            .collect()
    }
}

impl<const W: usize> MsVisitor<W> for MsDistanceVisitor<W> {
    #[inline]
    fn on_found(&self, v: VertexId, dist: u32, bfs_set: Bits<W>) {
        for i in bfs_set.ones() {
            if i < self.batch {
                self.dist[i * self.n + v as usize].store(dist, Ordering::Relaxed);
            }
        }
    }
}

/// Depth byte of a [`DepthBuffer`] cell that no BFS has reached. It doubles
/// as the escape marker: depths `>= 255` cannot be stored in a cell.
const UNREACHED_BYTE: u64 = 0xFF;

/// A buffer word whose eight cells are all unreached.
const CLEAN_WORD: u64 = u64::MAX;

/// Vertices per transpose task: 256 rows of at most 512 bytes keep a
/// task's reads within 128 KiB while each output vector receives 1 KiB
/// contiguous runs.
const TRANSPOSE_TILE: usize = 256;

/// `BYTE_MASKS[b]` has byte `i` set to 0xFF exactly where bit `i` of `b`
/// is set: it turns 8 bits of a BFS set into a blend mask over one buffer
/// word.
const BYTE_MASKS: [u64; 256] = {
    let mut masks = [0u64; 256];
    let mut b = 0;
    while b < 256 {
        let mut i = 0;
        while i < 8 {
            if (b >> i) & 1 == 1 {
                masks[b] |= 0xFF << (8 * i);
            }
            i += 1;
        }
        b += 1;
    }
    masks
};

/// Reusable vertex-major depth buffer behind the engine's multi-source
/// batches: one byte per `(vertex, query)` cell, so a discovery touches one
/// contiguous row of at most 512 bytes instead of `k` rows `n` words apart.
///
/// A cell holds the BFS depth, or `0xFF` when unreached. Between batches
/// every cell is `0xFF`: [`DepthBatch::materialize`] resets each cell it
/// reads, so no reset pass is needed. The buffer grows to the widest batch
/// it served (`n × k` bytes) and never shrinks. A batch abandoned before
/// materialization (a panic mid-traversal) leaves cells set; its owner must
/// then drop the buffer.
#[derive(Default)]
pub(crate) struct DepthBuffer {
    /// `n` rows of `k.div_ceil(8)` words for the current batch width `k`;
    /// query `i`'s depth is byte `i % 8` (little end first) of word `i / 8`.
    cells: Vec<AtomicU64>,
}

impl DepthBuffer {
    /// Bytes currently allocated.
    pub(crate) fn bytes(&self) -> usize {
        self.cells.len() * std::mem::size_of::<AtomicU64>()
    }

    /// Grows the buffer to cover `k` queries over `n` vertices; returns
    /// the bytes added (0 when it was already large enough).
    pub(crate) fn reserve(&mut self, n: usize, k: usize) -> usize {
        let need = n * k.div_ceil(8);
        let have = self.cells.len();
        if need <= have {
            return 0;
        }
        // Every live cell is clean, so there is nothing to carry over:
        // freeing first keeps the old and new buffers from coexisting.
        self.cells = Vec::new();
        self.cells.resize_with(need, || AtomicU64::new(CLEAN_WORD));
        (need - have) * std::mem::size_of::<AtomicU64>()
    }

    /// Starts a batch of `k` queries over `n` vertices, growing the buffer
    /// if needed. The returned visitor records the batch's depths.
    ///
    /// # Panics
    /// Panics if `k > W * 64`.
    pub(crate) fn batch<const W: usize>(&mut self, n: usize, k: usize) -> DepthBatch<'_, W> {
        assert!(k <= W * 64, "batch exceeds bitset width");
        self.reserve(n, k);
        let stride = k.div_ceil(8);
        DepthBatch {
            cells: &self.cells[..n * stride],
            n,
            k,
            stride,
            mask: Bits::first_n(k),
            overflow: Mutex::new(Vec::new()),
        }
    }
}

/// One batch's view of a [`DepthBuffer`]: the [`MsVisitor`] the traversal
/// reports to, and the transpose that hands out per-query distances.
///
/// Depths that do not fit a cell (`>= 255`) escape to a small locked list
/// applied after the transpose. Each `(vertex, BFS)` pair is reported
/// exactly once and a vertex's discoveries arrive in one call per phase,
/// so a row is never written by two threads at once; the relaxed
/// load-blend-store on a word is therefore not lost to a racing store.
/// Relaxed ordering suffices because the pool's loop barriers order every
/// kernel store before the transpose's loads.
pub(crate) struct DepthBatch<'a, const W: usize> {
    cells: &'a [AtomicU64],
    n: usize,
    k: usize,
    stride: usize,
    mask: Bits<W>,
    overflow: Mutex<Vec<(VertexId, u32, Bits<W>)>>,
}

/// An output vector's base pointer, shared with the transpose tasks.
struct OutPtr(*mut u32);

// SAFETY: the pointer is only written through by transpose tasks at
// indices inside their own, pairwise disjoint vertex ranges.
unsafe impl Sync for OutPtr {}

impl<const W: usize> DepthBatch<'_, W> {
    /// Transposes the batch into one distance vector per query
    /// ([`UNREACHED`] where a BFS did not reach a vertex) in parallel
    /// vertex tiles on `pool`, resetting every cell it reads.
    pub(crate) fn materialize(self, pool: &WorkerPool) -> Vec<Vec<u32>> {
        let (n, k, stride, cells) = (self.n, self.k, self.stride, self.cells);
        let mut out: Vec<Vec<u32>> = (0..k).map(|_| Vec::with_capacity(n)).collect();
        let ptrs: Vec<OutPtr> = out.iter_mut().map(|o| OutPtr(o.as_mut_ptr())).collect();
        pool.parallel_for(n, TRANSPOSE_TILE, |_, r| {
            for (c, group) in ptrs.chunks(8).enumerate() {
                for v in r.clone() {
                    let cell = &cells[v * stride + c];
                    let word = cell.load(Ordering::Relaxed);
                    if word != CLEAN_WORD {
                        cell.store(CLEAN_WORD, Ordering::Relaxed);
                    }
                    for (b, dst) in group.iter().enumerate() {
                        let depth = (word >> (8 * b)) & 0xFF;
                        let depth = if depth == UNREACHED_BYTE {
                            UNREACHED
                        } else {
                            depth as u32
                        };
                        // SAFETY: `v < n` lies in this task's range, the
                        // ranges of `parallel_for` are disjoint, and every
                        // output vector has capacity `n`.
                        unsafe { dst.0.add(v).write(depth) };
                    }
                }
            }
        });
        for o in &mut out {
            // SAFETY: the tiles cover `0..n`, so every query's first `n`
            // slots were written above.
            unsafe { o.set_len(n) };
        }
        let overflow = self
            .overflow
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        for (v, dist, set) in overflow {
            for i in set.ones() {
                out[i][v as usize] = dist;
            }
        }
        out
    }
}

impl<const W: usize> MsVisitor<W> for DepthBatch<'_, W> {
    #[inline]
    fn on_found(&self, v: VertexId, dist: u32, bfs_set: Bits<W>) {
        let set = bfs_set & self.mask;
        if dist >= UNREACHED_BYTE as u32 {
            self.overflow
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push((v, dist, set));
            return;
        }
        let splat = dist as u64 * 0x0101_0101_0101_0101;
        let row = &self.cells[v as usize * self.stride..][..self.stride];
        for (j, mut bits) in set.words().into_iter().enumerate() {
            let mut c = j * 8;
            while bits != 0 {
                let byte = (bits & 0xFF) as usize;
                if byte != 0 {
                    let m = BYTE_MASKS[byte];
                    let cell = &row[c];
                    let old = cell.load(Ordering::Relaxed);
                    cell.store((old & !m) | (splat & m), Ordering::Relaxed);
                }
                bits >>= 8;
                c += 1;
            }
        }
    }
}

/// Counts reached vertices and sums distances per BFS of a batch — the
/// input of closeness centrality, in `O(batch)` memory.
pub struct ClosenessAccumulator<const W: usize> {
    sum: Vec<AtomicU64>,
    reached: Vec<AtomicU64>,
}

impl<const W: usize> ClosenessAccumulator<W> {
    /// Creates an accumulator for a batch of `batch` BFSs.
    pub fn new(batch: usize) -> Self {
        assert!(batch <= W * 64);
        let mut sum = Vec::with_capacity(batch);
        sum.resize_with(batch, || AtomicU64::new(0));
        let mut reached = Vec::with_capacity(batch);
        reached.resize_with(batch, || AtomicU64::new(0));
        Self { sum, reached }
    }

    /// Sum of distances from source `i` to every reached vertex.
    pub fn distance_sum(&self, i: usize) -> u64 {
        self.sum[i].load(Ordering::Relaxed)
    }

    /// Vertices reached from source `i` (including the source itself).
    pub fn reached(&self, i: usize) -> u64 {
        self.reached[i].load(Ordering::Relaxed)
    }
}

impl<const W: usize> MsVisitor<W> for ClosenessAccumulator<W> {
    #[inline]
    fn on_found(&self, v: VertexId, dist: u32, bfs_set: Bits<W>) {
        let _ = v;
        for i in bfs_set.ones() {
            if i < self.sum.len() {
                self.sum[i].fetch_add(dist as u64, Ordering::Relaxed);
                self.reached[i].fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Histogram of discoveries per distance, aggregated over a whole batch —
/// the neighborhood function used for effective-diameter estimation.
pub struct LevelHistogram<const W: usize> {
    counts: Vec<AtomicU64>,
}

impl<const W: usize> LevelHistogram<W> {
    /// Creates a histogram covering distances `0..max_dist`.
    pub fn new(max_dist: usize) -> Self {
        let mut counts = Vec::with_capacity(max_dist);
        counts.resize_with(max_dist, || AtomicU64::new(0));
        Self { counts }
    }

    /// `(vertex, BFS)` pairs discovered at each distance.
    pub fn counts(&self) -> Vec<u64> {
        self.counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }
}

impl<const W: usize> MsVisitor<W> for LevelHistogram<W> {
    #[inline]
    fn on_found(&self, v: VertexId, dist: u32, bfs_set: Bits<W>) {
        let _ = v;
        if let Some(slot) = self.counts.get(dist as usize) {
            slot.fetch_add(bfs_set.count_ones() as u64, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbfs_bitset::B64;

    #[test]
    fn distance_visitor_records_and_resets() {
        let v = DistanceVisitor::new(4);
        v.on_found(2, 7);
        assert_eq!(v.distance(2), 7);
        assert_eq!(v.distance(0), UNREACHED);
        v.reset();
        assert_eq!(v.distance(2), UNREACHED);
        v.on_found(0, 0);
        assert_eq!(v.into_distances(), vec![0, UNREACHED, UNREACHED, UNREACHED]);
    }

    #[test]
    fn parent_visitor_first_claim_wins() {
        let v = ParentVisitor::new(4, 0);
        assert_eq!(v.parent(0), 0);
        v.on_tree_edge(0, 2);
        v.on_tree_edge(1, 2); // late claim loses
        assert_eq!(v.parent(2), 0);
        assert_eq!(v.parent(3), INVALID_VERTEX);
    }

    #[test]
    fn pair_visitor_fans_out() {
        let d = DistanceVisitor::new(3);
        let p = ParentVisitor::new(3, 0);
        let pair = PairVisitor(&d, &p);
        pair.on_found(1, 1);
        pair.on_tree_edge(0, 1);
        assert_eq!(d.distance(1), 1);
        assert_eq!(p.parent(1), 0);
    }

    #[test]
    fn ms_distance_visitor_separates_bfs() {
        let v: MsDistanceVisitor<1> = MsDistanceVisitor::new(3, 2);
        v.on_found(1, 4, B64::single(0) | B64::single(1));
        v.on_found(2, 9, B64::single(1));
        assert_eq!(v.distance(0, 1), 4);
        assert_eq!(v.distance(1, 1), 4);
        assert_eq!(v.distance(0, 2), UNREACHED);
        assert_eq!(v.distances_of(1), vec![UNREACHED, 4, 9]);
    }

    #[test]
    #[should_panic(expected = "batch exceeds bitset width")]
    fn ms_distance_batch_too_wide_panics() {
        let _: MsDistanceVisitor<1> = MsDistanceVisitor::new(3, 65);
    }

    /// True when every cell is unreached (the between-batch invariant).
    fn is_clean(buf: &DepthBuffer) -> bool {
        buf.cells
            .iter()
            .all(|c| c.load(Ordering::Relaxed) == CLEAN_WORD)
    }

    /// Feeds `events` to both a fresh depth batch and the reference
    /// [`MsDistanceVisitor`], asserts identical per-query distances and a
    /// clean buffer afterwards, and returns the distances.
    fn assert_matches_reference<const W: usize>(
        buf: &mut DepthBuffer,
        pool: &WorkerPool,
        n: usize,
        k: usize,
        events: &[(VertexId, u32, Bits<W>)],
    ) -> Vec<Vec<u32>> {
        let reference: MsDistanceVisitor<W> = MsDistanceVisitor::new(n, k);
        let batch = buf.batch::<W>(n, k);
        for &(v, dist, set) in events {
            batch.on_found(v, dist, set);
            reference.on_found(v, dist, set);
        }
        let got = batch.materialize(pool);
        assert_eq!(got.len(), k);
        for (i, dists) in got.iter().enumerate() {
            assert_eq!(dists, &reference.distances_of(i), "query {i}");
        }
        assert!(is_clean(buf), "materialize must reset every cell");
        got
    }

    #[test]
    fn depth_batch_escapes_depths_from_255() {
        let pool = WorkerPool::new(2);
        let mut buf = DepthBuffer::default();
        let set = Bits::<2>::single(0) | Bits::single(9) | Bits::single(70);
        let events = [
            (0, 0, Bits::<2>::single(0)),
            (1, 254, set),
            (2, 255, set),
            (3, 256, set),
            (4, 1000, Bits::single(9)),
        ];
        let got = assert_matches_reference(&mut buf, &pool, 6, 100, &events);
        assert_eq!(got[9][1..5], [254, 255, 256, 1000]);
        assert_eq!(got[70][1..5], [254, 255, 256, UNREACHED]);
        assert_eq!(got[1], vec![UNREACHED; 6]);
    }

    #[test]
    fn depth_buffer_reuse_across_widths_leaks_nothing() {
        let pool = WorkerPool::new(2);
        let mut buf = DepthBuffer::default();
        let n = 700; // not a multiple of the transpose tile
        for (k, seed) in [(512, 1u64), (64, 2), (300, 3), (2, 4), (512, 5)] {
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut events = Vec::new();
            for v in 0..n as VertexId {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let mut words = [rng, rng.rotate_left(17), !rng, rng >> 3, rng, 0, rng, !0];
                words[0] |= (v % 2 == 0) as u64; // query 0 reaches every other vertex
                let set = Bits::<8>::from_words(words) & Bits::first_n(k);
                events.push((v, (rng % 300) as u32, set));
            }
            assert_matches_reference(&mut buf, &pool, n, k, &events);
        }
        // Grew once to the widest batch, never shrank.
        assert_eq!(buf.bytes(), n * 512);
    }

    #[test]
    fn depth_buffer_reserve_reports_growth_only() {
        let mut buf = DepthBuffer::default();
        assert_eq!(buf.reserve(10, 64), 10 * 64);
        assert_eq!(buf.reserve(10, 2), 0);
        assert_eq!(buf.reserve(10, 512), 10 * (512 - 64));
        assert_eq!(buf.bytes(), 10 * 512);
    }

    #[test]
    #[should_panic(expected = "batch exceeds bitset width")]
    fn depth_batch_too_wide_panics() {
        let _ = DepthBuffer::default().batch::<1>(3, 65);
    }

    #[test]
    fn closeness_accumulator_sums() {
        let acc: ClosenessAccumulator<1> = ClosenessAccumulator::new(2);
        acc.on_found(5, 0, B64::single(0));
        acc.on_found(6, 2, B64::single(0) | B64::single(1));
        acc.on_found(7, 3, B64::single(1));
        assert_eq!(acc.distance_sum(0), 2);
        assert_eq!(acc.reached(0), 2);
        assert_eq!(acc.distance_sum(1), 5);
        assert_eq!(acc.reached(1), 2);
    }

    #[test]
    fn level_histogram_counts_bits() {
        let h: LevelHistogram<1> = LevelHistogram::new(4);
        h.on_found(1, 0, B64::single(3));
        h.on_found(2, 1, B64::first_n(5));
        h.on_found(3, 9, B64::single(0)); // beyond max_dist: dropped
        assert_eq!(h.counts(), vec![1, 5, 0, 0]);
    }
}
