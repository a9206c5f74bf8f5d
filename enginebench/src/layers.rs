//! The traced run's per-layer split.
//!
//! Two sources, neither of which adds a span or counter inside the
//! program: the program's existing trace recorder (batch lifecycle and
//! kernel-iteration spans, linked by query-set id), and direct re-runs of
//! the kernels on a seeded sample of the batches the engine formed.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pbfs_core::prelude::*;
use pbfs_graph::{CsrGraph, PartitionedCsr, VertexId};
use pbfs_sched::WorkerPool;
use pbfs_telemetry::{EventKind, TraceEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::run::{ms, CallRec, QueryRec};
use crate::stats;

/// Lane of the clock-calibration event: no worker, shard or client uses it.
const CALIBRATION_LANE: usize = 40;
/// How often the tap empties the recorder's per-lane rings.
const DRAIN_EVERY: Duration = Duration::from_millis(5);
/// Reconciliation tolerance for the time the split leaves unattributed
/// (the client's pickup after the engine's `BatchComplete` mark, and the
/// `submit` call before the query is enqueued): the larger of an absolute
/// floor and a share of the query's measured latency.
pub const RECONCILE_FLOOR_MS: f64 = 2.0;
pub const RECONCILE_SHARE: f64 = 0.02;
/// Lone queries timed per epoch kind for the SMS-PBFS rows.
const SMS_SAMPLES: usize = 5;

/// Engine and storage events kept from the recorder; kernel-internal
/// task and phase events are discarded.
#[derive(Default)]
struct Kept {
    events: Vec<TraceEvent>,
    calibration: Option<TraceEvent>,
}

/// Drains the global recorder on a background thread often enough that no
/// lane's ring wraps, keeping the engine-level events.
struct Tap {
    stop: AtomicBool,
    kept: Mutex<Kept>,
    dropped: AtomicU64,
}

impl Tap {
    fn drain(&self) {
        let dump = pbfs_telemetry::recorder().drain();
        self.dropped
            .fetch_add(dump.total_dropped(), Ordering::Relaxed);
        let mut kept = self.kept.lock().expect("tap lock");
        for lane in dump.lanes {
            for e in lane.events {
                match e.kind {
                    _ if lane.lane == CALIBRATION_LANE => kept.calibration = Some(e),
                    EventKind::BatchSubmit
                    | EventKind::BatchCoalesce
                    | EventKind::BatchFlush
                    | EventKind::BatchComplete
                    | EventKind::Iteration
                    | EventKind::EpochPin
                    | EventKind::EpochPublish => kept.events.push(e),
                    _ => {}
                }
            }
        }
    }
}

/// A finished trace: the kept events and the map from `Instant` to the
/// recorder's clock.
pub struct Trace {
    pub events: Vec<TraceEvent>,
    pub dropped: u64,
    cal_instant: Instant,
    cal_ns: u64,
}

impl Trace {
    /// `t` on the recorder's clock, in nanoseconds.
    pub fn ns(&self, t: Instant) -> i128 {
        let ns = |d: Duration| d.as_nanos() as i128;
        if t >= self.cal_instant {
            self.cal_ns as i128 + ns(t - self.cal_instant)
        } else {
            self.cal_ns as i128 - ns(self.cal_instant - t)
        }
    }
}

/// Turns the recorder on, runs `f` under it, and returns `f`'s result
/// with everything recorded meanwhile.
pub fn traced<T>(f: impl FnOnce() -> T) -> (T, Trace) {
    let rec = pbfs_telemetry::recorder();
    // Start from empty rings so nothing older counts as dropped.
    let _ = rec.drain();
    let tap = Arc::new(Tap {
        stop: AtomicBool::new(false),
        kept: Mutex::new(Kept::default()),
        dropped: AtomicU64::new(0),
    });
    rec.set_enabled(true);
    let cal_instant = Instant::now();
    rec.span_at(
        CALIBRATION_LANE,
        EventKind::EpochPin,
        cal_instant,
        Duration::ZERO,
        0,
        0,
    );
    let out = std::thread::scope(|scope| {
        let drainer = {
            let tap = Arc::clone(&tap);
            scope.spawn(move || {
                while !tap.stop.load(Ordering::Relaxed) {
                    std::thread::sleep(DRAIN_EVERY);
                    tap.drain();
                }
            })
        };
        let out = f();
        tap.stop.store(true, Ordering::Relaxed);
        drainer.join().expect("trace drainer panicked");
        out
    });
    rec.set_enabled(false);
    tap.drain();
    let kept = std::mem::take(&mut *tap.kept.lock().expect("tap lock"));
    let cal = kept.calibration.expect("calibration event recorded");
    let trace = Trace {
        events: kept.events,
        dropped: tap.dropped.load(Ordering::Relaxed),
        cal_instant,
        cal_ns: cal.start_ns,
    };
    (out, trace)
}

/// One formed batch, as the recorder saw it.
#[derive(Clone, Debug, Default)]
pub struct Batch {
    pub width: u64,
    pub size: u64,
    pub flush_start: u64,
    pub flush_dur: u64,
    /// The `BatchComplete` mark: every result has been handed out.
    pub complete: Option<u64>,
    pub kernel_ns: u64,
    pub sources: Vec<VertexId>,
}

/// The engine layer's split of a traced section.
pub struct EngineSplit {
    pub batches: Vec<Batch>,
    pub submit_us: Vec<f64>,
    pub queue_wait_ms: Vec<f64>,
    /// Per query: flush end to the batch's `BatchComplete` mark.
    pub deliver_ms: Vec<f64>,
    /// Per query: the `BatchComplete` mark to the return of `wait()`,
    /// negative when the client received its result before the engine
    /// finished handing out the rest of the batch.
    pub pickup_ms: Vec<f64>,
    /// Per query: |measured latency − (late + queue wait + flush +
    /// delivery)| and the tolerance it must stay within.
    pub gaps_ms: Vec<(f64, f64)>,
    /// Queries the trace could not link to a batch and its completion.
    pub unlinked: usize,
    /// Queries whose `wait()` returned before their batch's flush ended
    /// on the recorder's clock, or whose batch completed before its flush
    /// ended: the two clocks or the spans disagree.
    pub out_of_order: usize,
}

impl EngineSplit {
    pub fn outside_tolerance(&self) -> usize {
        self.gaps_ms.iter().filter(|(g, tol)| g > tol).count()
    }
}

/// Links every query of a traced section to its `BatchSubmit` span (same
/// source, enqueued inside the timed `submit` call) and through its
/// query-set id to the batch's flush, and splits its latency.
pub fn engine_split(trace: &Trace, queries: &[QueryRec]) -> EngineSplit {
    let mut batches: HashMap<u64, Batch> = HashMap::new();
    let mut submits: HashMap<u64, Vec<&TraceEvent>> = HashMap::new();
    for e in &trace.events {
        match e.kind {
            EventKind::BatchSubmit => submits.entry(e.a).or_default().push(e),
            EventKind::BatchFlush => {
                let b = batches.entry(e.qset).or_default();
                b.width = e.a;
                b.size = e.b;
                b.flush_start = e.start_ns;
                b.flush_dur = e.dur_ns;
            }
            _ => {}
        }
    }
    for e in &trace.events {
        let Some(b) = batches.get_mut(&e.qset) else {
            continue;
        };
        match e.kind {
            EventKind::Iteration => b.kernel_ns += e.dur_ns,
            EventKind::BatchComplete => b.complete = Some(e.start_ns),
            _ => {}
        }
    }
    let mut split = EngineSplit {
        batches: Vec::new(),
        submit_us: Vec::new(),
        queue_wait_ms: Vec::new(),
        deliver_ms: Vec::new(),
        pickup_ms: Vec::new(),
        gaps_ms: Vec::new(),
        unlinked: 0,
        out_of_order: 0,
    };
    let to_ms = |ns: i128| ns as f64 / 1e6;
    for q in queries.iter().filter(|q| q.ok) {
        split
            .submit_us
            .push((q.submit_end - q.submit_start).as_secs_f64() * 1e6);
        let (lo, hi) = (trace.ns(q.submit_start), trace.ns(q.submit_end));
        let enqueued = submits.get(&(q.source as u64)).and_then(|evs| {
            evs.iter()
                .find(|e| (lo..=hi).contains(&(e.start_ns as i128)))
        });
        let Some(sub) = enqueued else {
            split.unlinked += 1;
            continue;
        };
        let Some(b) = batches.get_mut(&sub.qset) else {
            split.unlinked += 1;
            continue;
        };
        let Some(complete) = b.complete else {
            split.unlinked += 1;
            continue;
        };
        b.sources.push(q.source);
        let flush_end = b.flush_start + b.flush_dur;
        let done = trace.ns(q.done);
        if complete < flush_end || done < flush_end as i128 {
            split.out_of_order += 1;
        }
        let deliver = to_ms(complete as i128 - flush_end as i128);
        let queue_wait = sub.dur_ns as f64 / 1e6;
        let latency = q.latency_ms();
        let parts = q.late_ms() + queue_wait + b.flush_dur as f64 / 1e6 + deliver;
        split.queue_wait_ms.push(queue_wait);
        split.deliver_ms.push(deliver);
        split.pickup_ms.push(to_ms(done - complete as i128));
        split.gaps_ms.push((
            (latency - parts).abs(),
            RECONCILE_FLOOR_MS.max(RECONCILE_SHARE * latency),
        ));
    }
    let mut formed: Vec<_> = batches.into_iter().collect();
    formed.sort_by_key(|(qset, _)| *qset);
    split.batches = formed.into_iter().map(|(_, b)| b).collect();
    split
}

/// Named per-layer values, in insertion order.
pub type Rows = Vec<(&'static str, f64)>;

/// Emits the engine rows; returns the queue-wait tail, whose percentile
/// and sample count the output states.
pub fn engine_rows(split: &EngineSplit, rows: &mut Rows) -> Option<stats::Tail> {
    let b = &split.batches;
    let nb = b.len().max(1) as f64;
    let queries: u64 = b.iter().map(|x| x.size).sum();
    let flush_ns: u64 = b.iter().map(|x| x.flush_dur).sum();
    let kernel_ns: u64 = b.iter().map(|x| x.kernel_ns).sum();
    let fill = b
        .iter()
        .map(|x| x.size as f64 / x.width.max(1) as f64)
        .sum::<f64>()
        / nb;
    let med = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    let tail = stats::tail(&split.queue_wait_ms);
    rows.extend([
        ("engine.submit_us_p50", med(&split.submit_us)),
        ("engine.queue_wait_ms_p50", med(&split.queue_wait_ms)),
        ("engine.queue_wait_ms_tail", tail.map_or(0.0, |t| t.value)),
        ("engine.batch_fill", fill),
        ("engine.batches", b.len() as f64),
        (
            "engine.mean_width",
            b.iter().map(|x| x.width as f64).sum::<f64>() / nb,
        ),
        (
            "engine.flush_ms_per_query",
            flush_ns as f64 / 1e6 / queries.max(1) as f64,
        ),
        ("engine.deliver_ms_p50", med(&split.deliver_ms)),
        ("loadgen.pickup_ms_p50", med(&split.pickup_ms)),
        (
            "engine.kernel_share",
            kernel_ns as f64 / flush_ns.max(1) as f64,
        ),
    ]);
    tail
}

/// A batch to re-run at width `width`: a seeded pick among the formed
/// batches of that width, or — when the workload formed none — a seeded
/// draw of `width` sources.
fn pick_batch(
    formed: &[Batch],
    width: usize,
    sources: &[VertexId],
    rng: &mut StdRng,
) -> Vec<VertexId> {
    let of_width: Vec<&Batch> = formed
        .iter()
        .filter(|b| b.width as usize == width && !b.sources.is_empty())
        .collect();
    if of_width.is_empty() {
        (0..width)
            .map(|_| sources[rng.random_range(0..sources.len())])
            .collect()
    } else {
        of_width[rng.random_range(0..of_width.len())]
            .sources
            .clone()
    }
}

/// Times `f` as a kernel call named `name`.
fn timed<T>(calls: &mut Vec<CallRec>, name: String, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    calls.push(CallRec {
        name,
        start,
        dur: start.elapsed(),
    });
    out
}

fn phase_ms(stats: &TraversalStats) -> (f64, f64, f64) {
    let (mut expand, mut settle, mut bottom_up) = (0u64, 0u64, 0u64);
    for it in &stats.iterations {
        match it.direction {
            Direction::TopDown => {
                expand += it.expand_ns;
                settle += it.settle_ns;
            }
            Direction::BottomUp => bottom_up += it.expand_ns,
        }
    }
    (
        expand as f64 / 1e6,
        settle as f64 / 1e6,
        bottom_up as f64 / 1e6,
    )
}

fn edges_relaxed(stats: &TraversalStats) -> u64 {
    stats
        .iterations
        .iter()
        .map(IterationStats::edges_relaxed)
        .sum()
}

/// Re-runs one batch through `MsPbfs::<W>`, once with the no-op visitor
/// and once with the distance visitor the engine uses, and emits the
/// batch, visitor and (at the bursts' own width, 512) phase and scheduler
/// rows.
fn ms_rows<const W: usize>(
    g: &CsrGraph,
    pool: &WorkerPool,
    sources: &[VertexId],
    phase_rows: bool,
    calls: &mut Vec<CallRec>,
    rows: &mut Rows,
) {
    let (n, k, width) = (g.num_vertices(), sources.len(), W * 64);
    let opts = BfsOptions::default().instrumented();
    let mut bfs = MsPbfs::<W>::new(n);
    // The engine reuses kernel state across batches, so one untimed run
    // first-touches it here as the engine's earlier batches would have.
    bfs.run(g, pool, sources, &opts, &NoopMsVisitor);
    let noop = timed(calls, format!("mspbfs.run.w{width}.noop"), || {
        bfs.run(g, pool, sources, &opts, &NoopMsVisitor)
    });
    let noop_ms = ms(calls.last().expect("timed").dur);
    let visitor = timed(calls, format!("visitor.alloc.w{width}"), || {
        MsDistanceVisitor::<W>::new(n, k)
    });
    let alloc_ms = ms(calls.last().expect("timed").dur);
    timed(calls, format!("mspbfs.run.w{width}.distance"), || {
        bfs.run(g, pool, sources, &opts, &visitor)
    });
    let dist_ms = ms(calls.last().expect("timed").dur);
    let copies = timed(calls, format!("visitor.copy.w{width}"), || {
        (0..k).map(|i| visitor.distances_of(i)).collect::<Vec<_>>()
    });
    let copy_ms = ms(calls.last().expect("timed").dur);
    black_box(copies);
    let (batch, alloc, scatter, copy) = match width {
        64 => (
            "mspbfs.batch_ms.w64",
            "visitor.alloc_ms.w64",
            "visitor.scatter_ms.w64",
            "visitor.copy_ms.w64",
        ),
        _ => (
            "mspbfs.batch_ms.w512",
            "visitor.alloc_ms.w512",
            "visitor.scatter_ms.w512",
            "visitor.copy_ms.w512",
        ),
    };
    rows.extend([
        (batch, noop_ms),
        (alloc, alloc_ms),
        (scatter, dist_ms - noop_ms),
        (copy, copy_ms),
    ]);
    if phase_rows {
        let (expand, settle, bottom_up) = phase_ms(&noop);
        let busy = noop.busy_per_worker();
        let wall: u64 = noop.iterations.iter().map(|i| i.wall_ns).sum();
        let steals: u64 = noop.fold_workers(|w| w.stolen).iter().sum();
        let busy_sum: u64 = busy.iter().sum();
        rows.extend([
            ("mspbfs.expand_ms", expand),
            ("mspbfs.settle_ms", settle),
            ("mspbfs.bottom_up_ms", bottom_up),
            ("mspbfs.iterations", noop.num_iterations() as f64),
            (
                "mspbfs.edges_relaxed_per_query",
                edges_relaxed(&noop) as f64 / k as f64,
            ),
            ("mspbfs.summary_skip_ratio", noop.summary_skip_ratio()),
            (
                "sched.busy_skew",
                pbfs_telemetry::max_min_ratio(busy.iter().copied()),
            ),
            ("sched.steals_per_batch", steals as f64),
            (
                "sched.idle_share",
                1.0 - busy_sum as f64 / (pool.num_workers() as u64 * wall).max(1) as f64,
            ),
        ]);
    }
}

/// Everything the kernel re-runs need.
pub struct Rerun<'a> {
    pub graph: &'a CsrGraph,
    /// A snapshot of the store with a non-empty overlay.
    pub dirty: &'a GraphSnapshot,
    /// The workload's own partition mirror, if it has one.
    pub part: Option<Arc<PartitionedCsr>>,
    pub partition_split: usize,
    pub workers: usize,
    pub formed: &'a [Batch],
    pub sources: &'a [VertexId],
    pub seed: u64,
}

/// Re-runs the sampled batches through every kernel and returns the
/// kernel, visitor, scheduler and SMS rows, plus the partition build time
/// when the workload had no partition of its own.
pub fn kernel_rows(r: &Rerun<'_>, calls: &mut Vec<CallRec>, rows: &mut Rows) -> Option<f64> {
    let mut rng = StdRng::seed_from_u64(r.seed ^ 0x6b65_726e_656c);
    let pool = WorkerPool::new(r.workers);
    let b64 = pick_batch(r.formed, 64, r.sources, &mut rng);
    let b512 = pick_batch(r.formed, 512, r.sources, &mut rng);
    ms_rows::<1>(r.graph, &pool, &b64, false, calls, rows);
    ms_rows::<8>(r.graph, &pool, &b512, true, calls, rows);
    rows.push((
        "visitor.bytes_per_query",
        // One u32 distance per vertex in the batch matrix, and again in
        // the per-query copy handed to the client.
        (2 * std::mem::size_of::<u32>() * r.graph.num_vertices()) as f64,
    ));

    // SMS-PBFS on the clean base and on the overlaid epoch, same sources.
    let singles: Vec<VertexId> = (0..SMS_SAMPLES)
        .map(|_| r.sources[rng.random_range(0..r.sources.len())])
        .collect();
    let opts = BfsOptions::default().instrumented();
    let mut sms = SmsPbfsBit::new(r.graph.num_vertices());
    sms.run(r.graph, &pool, singles[0], &opts, &NoopVisitor);
    let mut sms_times = |g: &dyn Fn(&mut SmsPbfsBit, VertexId) -> TraversalStats,
                         kind: &str,
                         calls: &mut Vec<CallRec>|
     -> (Vec<f64>, u64) {
        let mut edges = 0;
        let times = singles
            .iter()
            .map(|&s| {
                let st = timed(calls, format!("smspbfs.run.{kind}"), || g(&mut sms, s));
                edges += edges_relaxed(&st);
                ms(calls.last().expect("timed").dur)
            })
            .collect();
        (times, edges)
    };
    let (clean, clean_edges) = sms_times(
        &|bfs, s| bfs.run(r.graph, &pool, s, &opts, &NoopVisitor),
        "clean",
        calls,
    );
    let (dirty, _) = sms_times(
        &|bfs, s| bfs.run(r.dirty, &pool, s, &opts, &NoopVisitor),
        "dirty",
        calls,
    );
    let (clean, dirty) = (
        stats::median(&clean).unwrap_or(0.0),
        stats::median(&dirty).unwrap_or(0.0),
    );
    rows.extend([
        ("smspbfs.query_ms.clean", clean),
        ("smspbfs.query_ms.dirty", dirty),
        (
            "smspbfs.edges_relaxed_per_query",
            clean_edges as f64 / SMS_SAMPLES as f64,
        ),
        (
            "storage.overlay_slowdown",
            dirty / clean.max(f64::MIN_POSITIVE),
        ),
    ]);

    // The scatter/gather kernel over a two-node partition.
    let mut built = None;
    let part = match &r.part {
        Some(p) => Arc::clone(p),
        None => {
            let p = timed(calls, "graph.partition".into(), || {
                PartitionedCsr::partition(r.graph, 2, r.workers, r.partition_split)
            });
            built = Some(calls.last().expect("timed").dur.as_secs_f64());
            Arc::new(p)
        }
    };
    let mut sharded = ShardedMsBfs::<8>::new(r.graph.num_vertices(), part.num_nodes());
    sharded.run(&*part, &pool, &b512, &opts, &NoopMsVisitor);
    let st = timed(calls, "sharded.run.w512.noop".into(), || {
        sharded.run(&*part, &pool, &b512, &opts, &NoopMsVisitor)
    });
    let batch_ms = ms(calls.last().expect("timed").dur);
    let (expand, settle, _) = phase_ms(&st);
    rows.extend([
        ("sharded.batch_ms.w512", batch_ms),
        ("sharded.expand_ms", expand),
        ("sharded.settle_ms", settle),
    ]);
    built
}
