//! Workloads: set-up, load generation and the correctness gate.
//!
//! Load comes from this process alone: a submitter (the calling thread) and
//! a collector thread. Every public call into the engine or the store is
//! timed here, around the call.

use std::sync::mpsc::{self, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pbfs_core::engine::{EngineConfig, EngineError, QueryEngine, QueryHandle};
use pbfs_core::prelude::{EdgeMutation, GraphStore, StoreConfig};
use pbfs_graph::{gen, CsrGraph, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::model::Model;

/// Kronecker scale of the served graph: 262,144 vertices, ~7.6 M directed
/// edges, a CSR larger than L2 that still fits the last-level cache.
pub const SCALE: u32 = 18;
/// Queries one burst hands the engine at once: two full 512-wide batches.
pub const BURST_QUERIES: usize = 1024;
/// Edge mutations per applied batch.
pub const MUTATIONS_PER_BATCH: usize = 500;
/// The write probe compacts whenever this share of the vertices is dirty:
/// the background-compaction trigger a read/write client would run with.
pub const COMPACT_DIRTY_SHARE: f64 = 0.10;
/// Compactions the write probe runs before it stops at the next trigger,
/// leaving the overlay as dirty as that trigger ever lets it get.
pub const PROBE_COMPACTIONS: usize = 2;
/// Writes after which the probe gives up on reaching the trigger; about
/// 30 reach it on a scale-18 graph.
const PROBE_MAX_WRITES: usize = 1000;
/// Returned distance vectors kept per timed section for the oracle.
pub const ORACLE_SAMPLES: usize = 6;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// How long the collector sleeps when no pending result has arrived:
/// well inside the traced run's 2 ms reconcile floor.
const POLL_EVERY: Duration = Duration::from_micros(500);

/// One benchmark workload: repeated backlogs of [`BURST_QUERIES`]
/// submitted at once, to an engine with `shards` shards.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub shards: usize,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "burst",
        shards: 1,
    },
    Workload {
        name: "sharded-burst",
        shards: 2,
    },
];

impl Workload {
    pub fn engine_config(&self, workers: usize) -> EngineConfig {
        EngineConfig::default()
            .with_workers(workers)
            .with_shards(self.shards)
    }
}

/// A set-up engine with its graph and store.
pub struct Served {
    pub graph: Arc<CsrGraph>,
    pub store: Arc<GraphStore>,
    pub engine: QueryEngine,
    /// Vertices with at least one edge: the query sources.
    pub sources: Vec<VertexId>,
}

/// Wall time of one set-up, by step.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub generate: f64,
    pub store: f64,
    pub partition: f64,
    pub engine: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.generate + self.store + self.partition + self.engine
    }
}

/// Generates the graph, wraps it in a store and starts the engine: what a
/// user pays before the first query.
pub fn setup(w: &Workload, seed: u64, workers: usize) -> (Served, SetupTimes) {
    let mut t = SetupTimes::default();
    let t0 = Instant::now();
    let graph = Arc::new(gen::Kronecker::graph500(SCALE).seed(seed).generate());
    t.generate = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let n = graph.num_vertices();
    let store = GraphStore::with_config(Arc::clone(&graph), StoreConfig::default());
    t.store = t0.elapsed().as_secs_f64();
    let config = w.engine_config(workers);
    if w.shards > 1 {
        // The layout the engine itself would attach; timed on its own.
        let t0 = Instant::now();
        store.enable_partition(w.shards, workers, partition_split(&config));
        t.partition = t0.elapsed().as_secs_f64();
    }
    let t0 = Instant::now();
    let engine = QueryEngine::with_store(Arc::clone(&store), config);
    t.engine = t0.elapsed().as_secs_f64();
    let sources = (0..n as VertexId)
        .filter(|&v| graph.degree(v) > 0)
        .collect();
    (
        Served {
            graph,
            store,
            engine,
            sources,
        },
        t,
    )
}

/// The task split a partition for `config` is laid out with.
pub fn partition_split(config: &EngineConfig) -> usize {
    pbfs_sched::aligned_split(config.bfs.split_size.max(1), pbfs_bitset::SUMMARY_CHUNK)
}

/// One query as the client saw it.
#[derive(Clone, Copy, Debug)]
pub struct QueryRec {
    pub source: VertexId,
    /// When the load generator meant to send it.
    pub due: Instant,
    pub submit_start: Instant,
    pub submit_end: Instant,
    pub wait_start: Instant,
    /// When `wait()` returned (or the submit failed).
    pub done: Instant,
    pub ok: bool,
    /// Mutation batches applied before it was submitted.
    pub writes: usize,
}

impl QueryRec {
    pub fn latency_ms(&self) -> f64 {
        ms(self.done - self.due)
    }
    pub fn late_ms(&self) -> f64 {
        ms(self.submit_start.saturating_duration_since(self.due))
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A timed public call other than `submit` and `wait`: into the store
/// (`apply_batch`, `snapshot`, `compact`) or directly into a kernel or
/// visitor.
#[derive(Clone, Debug)]
pub struct CallRec {
    pub name: String,
    pub start: Instant,
    pub dur: Duration,
}

/// What one timed section produced.
pub struct Section {
    pub queries: Vec<QueryRec>,
    pub calls: Vec<CallRec>,
    /// Sum of the timed wall intervals.
    pub wall: Duration,
    /// `(query index, distances)` kept for the oracle.
    pub samples: Vec<(usize, Vec<u32>)>,
    pub dirty_max: usize,
    /// Store calls that returned an error.
    pub failed_writes: usize,
}

impl Section {
    pub fn ok_queries(&self) -> usize {
        self.queries.iter().filter(|q| q.ok).count()
    }
    pub fn qps(&self) -> f64 {
        self.ok_queries() as f64 / self.wall.as_secs_f64()
    }
    pub fn calls_ms(&self, name: &str) -> Vec<f64> {
        self.calls
            .iter()
            .filter(|c| c.name == name)
            .map(|c| ms(c.dur))
            .collect()
    }
}

/// Drives one workload; owns the client-side state that carries across
/// its timed sections (source stream, graph model, mutation log).
pub struct Driver<'a> {
    served: &'a Served,
    rng: StdRng,
    sample_seed: u64,
    model: Model<'a>,
    /// Every mutation batch applied, in order.
    pub log: Vec<Vec<EdgeMutation>>,
}

impl<'a> Driver<'a> {
    pub fn new(served: &'a Served, seed: u64) -> Self {
        Self {
            served,
            rng: StdRng::seed_from_u64(seed ^ 0x5eed_0f10ad),
            sample_seed: seed,
            model: Model::new(&served.graph),
            log: Vec::new(),
        }
    }

    fn source(&mut self) -> VertexId {
        let s = &self.served.sources;
        s[self.rng.random_range(0..s.len())]
    }

    /// Spins up pools, kernel state and the allocator's heap with one
    /// untimed burst.
    pub fn warm_up(&mut self) -> bool {
        let e = &self.served.engine;
        let handles: Vec<_> = (0..BURST_QUERIES)
            .map(|_| e.submit(self.source()))
            .collect();
        handles
            .into_iter()
            .all(|h| h.is_ok_and(|h| h.wait().is_ok()))
    }

    /// Runs bursts for about `budget`.
    pub fn section(&mut self, budget: Duration) -> Section {
        self.sample_seed = self.sample_seed.wrapping_add(1);
        let start = Instant::now();
        let mut all = Section::empty();
        // Whole bursts only, and at least one: stop when another would
        // overrun the budget.
        loop {
            let sources: Vec<_> = (0..BURST_QUERIES).map(|_| self.source()).collect();
            let t0 = Instant::now();
            let s = burst(&self.served.engine, &sources, self.sample_seed);
            let took = t0.elapsed();
            all.absorb(s, took);
            if start.elapsed() + took > budget {
                return all;
            }
            self.sample_seed = self.sample_seed.wrapping_add(1);
        }
    }

    /// Applies one seeded mutation batch, then pins a snapshot, timing
    /// both calls.
    pub fn write(&mut self, calls: &mut Vec<CallRec>) -> (bool, usize) {
        let batch =
            self.model
                .mutation_batch(&mut self.rng, MUTATIONS_PER_BATCH, &self.served.sources);
        self.model.apply(&batch);
        let store = &self.served.store;
        let start = Instant::now();
        let ok = store.apply_batch(&batch).is_ok();
        calls.push(CallRec {
            name: "apply_batch".into(),
            start,
            dur: start.elapsed(),
        });
        self.log.push(batch);
        let start = Instant::now();
        let snap = store.snapshot();
        calls.push(CallRec {
            name: "snapshot".into(),
            start,
            dur: start.elapsed(),
        });
        (ok, snap.delta().dirty_vertices())
    }

    /// The write probe, after the timed queries: seeded mutation batches
    /// with no queries in flight, timing every apply and snapshot. A timed
    /// compaction runs whenever [`COMPACT_DIRTY_SHARE`] of the vertices
    /// are dirty; the probe stops at the trigger after
    /// [`PROBE_COMPACTIONS`] of them, so the overlay it leaves is as dirty
    /// as that trigger lets it get.
    pub fn write_probe(&mut self) -> Section {
        let trigger = (self.served.graph.num_vertices() as f64 * COMPACT_DIRTY_SHARE) as usize;
        let mut s = Section::empty();
        let mut compactions = 0;
        for _ in 0..PROBE_MAX_WRITES {
            let (ok, dirty) = self.write(&mut s.calls);
            s.failed_writes += usize::from(!ok);
            s.dirty_max = s.dirty_max.max(dirty);
            if !ok || (dirty >= trigger && compactions == PROBE_COMPACTIONS) {
                return s;
            }
            if dirty >= trigger {
                s.failed_writes += usize::from(!compact(&self.served.store, &mut s.calls));
                compactions += 1;
            }
        }
        // The overlay never reached the trigger: the store lost writes.
        s.failed_writes += 1;
        s
    }

    /// One untimed query on the current (overlaid) epoch, kept for the
    /// oracle.
    pub fn probe_query(&mut self) -> Section {
        let source = self.source();
        let mut s = Section::empty();
        let now = Instant::now();
        let result = self.served.engine.submit(source).map(|h| h.wait());
        let mut rec = QueryRec::failed(now);
        rec.source = source;
        rec.writes = self.log.len();
        if let Ok(Ok(d)) = result {
            rec.ok = true;
            s.samples.push((0, d));
        }
        s.queries.push(rec);
        s
    }
}

impl QueryRec {
    fn failed(at: Instant) -> Self {
        Self {
            source: 0,
            due: at,
            submit_start: at,
            submit_end: at,
            wait_start: at,
            done: at,
            ok: false,
            writes: 0,
        }
    }
}

impl Section {
    fn empty() -> Self {
        Self {
            queries: Vec::new(),
            calls: Vec::new(),
            wall: Duration::ZERO,
            samples: Vec::new(),
            dirty_max: 0,
            failed_writes: 0,
        }
    }

    fn absorb(&mut self, other: Section, wall: Duration) {
        let base = self.queries.len();
        self.queries.extend(other.queries);
        self.samples
            .extend(other.samples.into_iter().map(|(i, d)| (base + i, d)));
        self.wall += wall;
    }
}

/// Compacts the store's overlay, timing the call.
pub fn compact(store: &GraphStore, calls: &mut Vec<CallRec>) -> bool {
    let start = Instant::now();
    let ok = store.compact().is_ok();
    calls.push(CallRec {
        name: "compact".into(),
        start,
        dur: start.elapsed(),
    });
    ok
}

/// Submits every source at once on this thread while a collector thread
/// redeems the handles as their results arrive. Every query is due when
/// the burst starts. [`ORACLE_SAMPLES`] seeded query indices keep their
/// distances for the oracle.
fn burst(engine: &QueryEngine, sources: &[VertexId], sample_seed: u64) -> Section {
    let due = Instant::now();
    let mut rng = StdRng::seed_from_u64(sample_seed);
    let mut keep = vec![false; sources.len()];
    for _ in 0..ORACLE_SAMPLES {
        keep[rng.random_range(0..sources.len())] = true;
    }
    let (tx, rx) = mpsc::channel::<(usize, QueryRec, Result<QueryHandle, EngineError>)>();
    std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut recs = Vec::with_capacity(keep.len());
            let mut samples = Vec::new();
            let mut pending = Vec::new();
            let mut submitting = true;
            while submitting || !pending.is_empty() {
                // Take the handles submitted so far, blocking only when
                // none is in flight.
                loop {
                    let next = if pending.is_empty() && submitting {
                        rx.recv().map_err(|_| TryRecvError::Disconnected)
                    } else {
                        rx.try_recv()
                    };
                    match next {
                        Ok((i, mut rec, Ok(h))) => {
                            rec.wait_start = Instant::now();
                            pending.push((i, rec, h));
                        }
                        Ok((i, mut rec, Err(_))) => {
                            rec.done = Instant::now();
                            recs.push((i, rec));
                        }
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => {
                            submitting = false;
                            break;
                        }
                    }
                }
                // Redeem in completion order, not submit order: with
                // shards, a later query's batch can finish first.
                let before = pending.len();
                pending.retain_mut(|(i, rec, h)| {
                    let result = match h.try_wait() {
                        Ok(None) => return true,
                        Ok(Some(d)) => Some(d),
                        Err(_) => None,
                    };
                    rec.done = Instant::now();
                    if let Some(d) = result {
                        rec.ok = true;
                        if keep[*i] {
                            samples.push((*i, d));
                        }
                    }
                    recs.push((*i, *rec));
                    false
                });
                if pending.len() == before && !pending.is_empty() {
                    std::thread::sleep(POLL_EVERY);
                }
            }
            recs.sort_by_key(|r| r.0);
            (recs.into_iter().map(|r| r.1).collect(), samples)
        });
        for (i, &source) in sources.iter().enumerate() {
            let submit_start = Instant::now();
            let handle = engine.submit(source);
            let submit_end = Instant::now();
            let rec = QueryRec {
                source,
                due,
                submit_start,
                submit_end,
                wait_start: submit_end,
                done: submit_end,
                ok: false,
                writes: 0,
            };
            tx.send((i, rec, handle)).expect("collector alive");
        }
        drop(tx);
        let (queries, samples) = collector.join().expect("collector panicked");
        Section {
            queries,
            samples,
            ..Section::empty()
        }
    })
}

/// Checks every kept distance vector of `s` against the textbook BFS on a
/// CSR rebuilt from the epoch that query read, outside any timing.
/// Returns the number of mismatches.
pub fn oracle_check(base: &CsrGraph, log: &[Vec<EdgeMutation>], s: &Section) -> usize {
    let mut checks: Vec<(usize, VertexId, &Vec<u32>)> = s
        .samples
        .iter()
        .map(|(i, d)| (s.queries[*i].writes, s.queries[*i].source, d))
        .collect();
    checks.sort_by_key(|c| c.0);
    let mut model = Model::new(base);
    let mut applied = 0;
    let mut csr: Option<(usize, CsrGraph)> = None;
    let mut wrong = 0;
    for (writes, source, got) in checks {
        while applied < writes {
            model.apply(&log[applied]);
            applied += 1;
        }
        let g = if writes == 0 {
            base
        } else {
            if csr.as_ref().is_none_or(|(at, _)| *at != writes) {
                csr = Some((writes, model.to_csr()));
            }
            &csr.as_ref().expect("just built").1
        };
        if pbfs_core::textbook::distances(g, source) != *got {
            wrong += 1;
        }
    }
    wrong
}
