//! End-to-end benchmark of the pbfs query engine.
//!
//! ```text
//! cargo run --release --manifest-path enginebench/Cargo.toml -- \
//!     --workload burst|sharded-burst|all \
//!     --seed N --seconds S --trace 0|1 [--out DIR]
//! ```
//!
//! A plain run (`--trace 0`) reports the end-to-end metrics; a traced run
//! (`--trace 1`) reports the per-layer split. The last line of standard
//! output is one JSON object; the lines before it name every metric with
//! its unit, and give the run's full configuration. A full record also goes to `DIR` (default
//! `.bench_build/enginebench`). The exit code is 1 when an operation
//! failed or a returned result disagrees with the oracle, and 2 on bad
//! arguments.

mod layers;
mod model;
mod run;
mod stats;

use std::path::PathBuf;
use std::time::Duration;

use pbfs_core::storage::epochs_live;
use pbfs_json::{json, Json};

use layers::{Rerun, Rows};
use run::{oracle_check, CallRec, Driver, Section, Workload, SCALE, SETUPS, WORKLOADS};

/// End-to-end metrics, reported by every plain run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_qps", "1/s"),
    ("ok_rate", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every traced run.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("engine.submit_us_p50", "us"),
    ("engine.queue_wait_ms_p50", "ms"),
    ("engine.queue_wait_ms_tail", "ms"),
    ("engine.batch_fill", "ratio"),
    ("engine.batches", "count"),
    ("engine.mean_width", "queries"),
    ("engine.flush_ms_per_query", "ms"),
    ("engine.deliver_ms_p50", "ms"),
    ("engine.kernel_share", "ratio"),
    ("mspbfs.batch_ms.w64", "ms"),
    ("mspbfs.batch_ms.w512", "ms"),
    ("mspbfs.expand_ms", "ms"),
    ("mspbfs.settle_ms", "ms"),
    ("mspbfs.bottom_up_ms", "ms"),
    ("mspbfs.iterations", "count"),
    ("mspbfs.edges_relaxed_per_query", "edges"),
    ("mspbfs.summary_skip_ratio", "ratio"),
    ("smspbfs.query_ms.clean", "ms"),
    ("smspbfs.query_ms.dirty", "ms"),
    ("smspbfs.edges_relaxed_per_query", "edges"),
    ("sharded.batch_ms.w512", "ms"),
    ("sharded.expand_ms", "ms"),
    ("sharded.settle_ms", "ms"),
    ("visitor.alloc_ms.w64", "ms"),
    ("visitor.alloc_ms.w512", "ms"),
    ("visitor.scatter_ms.w64", "ms"),
    ("visitor.scatter_ms.w512", "ms"),
    ("visitor.copy_ms.w64", "ms"),
    ("visitor.copy_ms.w512", "ms"),
    ("visitor.bytes_per_query", "bytes"),
    ("sched.busy_skew", "ratio"),
    ("sched.steals_per_batch", "count"),
    ("sched.idle_share", "ratio"),
    ("storage.snapshot_us_p50", "us"),
    ("storage.overlay_slowdown", "ratio"),
    ("storage.compact_ms", "ms"),
    ("storage.compactions", "count"),
    ("storage.dirty_vertices_max", "count"),
    ("graph.generate_s", "s"),
    ("graph.store_s", "s"),
    ("graph.partition_s", "s"),
    ("loadgen.late_ms_p99", "ms"),
    ("loadgen.pickup_ms_p50", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.dropped_events", "count"),
    ("trace.reconcile_max_gap_ms", "ms"),
    ("trace.reconcile_outside", "count"),
    ("trace.unlinked_queries", "count"),
    ("trace.out_of_order", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

const USAGE: &str =
    "usage: enginebench --workload NAME|all --seed N --seconds S --trace 0|1 [--out DIR]";

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        out: PathBuf::from(".bench_build/enginebench"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {v:?}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = num(&value)?,
            "--seconds" => a.seconds = num(&value)?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => a.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    if a.workload != "all" && !WORKLOADS.iter().any(|w| w.name == a.workload) {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    Ok(a)
}

/// What one workload run produced.
struct Outcome {
    metrics: Rows,
    correct: bool,
    attempted: usize,
    failed: usize,
    notes: Vec<String>,
    config: Json,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("enginebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let chosen: Vec<&Workload> = WORKLOADS
        .iter()
        .filter(|w| args.workload == "all" || w.name == args.workload)
        .collect();
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    for w in &chosen {
        let o = run_workload(w, &args);
        println!("config {}", o.config);
        for note in &o.notes {
            println!("{}: {note}", w.name);
        }
        let prefix = if chosen.len() > 1 {
            format!("{}.", w.name)
        } else {
            String::new()
        };
        for &(name, unit) in table {
            let value = o
                .metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            println!("{}: {prefix}{name} = {value} {unit}", w.name);
            metrics.push((format!("{prefix}{name}"), metric(value, unit)));
        }
        save_record(&args, w, &o, table);
        correct &= o.correct;
        attempted += o.attempted;
        failed += o.failed;
    }
    let result = json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": Json::Obj(metrics),
    });
    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}

/// One metric as the result line carries it.
fn metric(value: f64, unit: &str) -> Json {
    json!({"value": value, "unit": unit})
}

/// Writes the run's full record — configuration, every metric measured and
/// the notes — next to the build, so a result never travels without the
/// configuration it was measured under.
fn save_record(args: &Args, w: &Workload, o: &Outcome, table: &[(&str, &str)]) {
    let metrics = o
        .metrics
        .iter()
        .map(|&(name, value)| {
            let unit = table.iter().find(|(n, _)| *n == name).map_or("", |u| u.1);
            (name.to_string(), metric(value, unit))
        })
        .collect();
    let body = json!({
        "config": o.config,
        "correct": o.correct,
        "attempted": o.attempted,
        "failed": o.failed,
        "metrics": Json::Obj(metrics),
        "notes": o.notes,
    });
    let path = args.out.join(format!(
        "{}-seed{}-trace{}.json",
        w.name,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) =
        std::fs::create_dir_all(&args.out).and_then(|_| std::fs::write(&path, format!("{body}\n")))
    {
        eprintln!("enginebench: cannot write {}: {e}", path.display());
    }
}

/// The commit of the checkout, read from `.git` in the working directory
/// without leaving it; "unknown" outside a git checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(&format!(".git/{refname}")) {
        return sha.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == refname).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run_workload(w: &Workload, args: &Args) -> Outcome {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let epochs_before = epochs_live();
    let mut setups = Vec::new();
    let mut served = None;
    for _ in 0..SETUPS {
        // The previous set-up is torn down first, so set-ups never overlap.
        drop(served.take());
        let (s, t) = run::setup(w, args.seed, workers);
        served = Some(s);
        setups.push(t);
    }
    let mut served = served.expect("at least one set-up");
    let med = |f: &dyn Fn(&run::SetupTimes) -> f64| {
        stats::median(&setups.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let mut metrics: Rows = Vec::new();
    let mut notes = Vec::new();
    let budget = Duration::from_secs(args.seconds);

    let mut driver = Driver::new(&served, args.seed);
    let mut failed = usize::from(!driver.warm_up());
    let mut timed = Vec::new();
    let mut traced_parts = None;
    if args.trace {
        // Half the budget untraced, as the overhead baseline; half traced.
        let plain = driver.section(budget / 2);
        let (traced, trace) = layers::traced(|| driver.section(budget / 2));
        traced_parts = Some((plain.qps(), trace));
        timed.push(plain);
        timed.push(traced);
    } else {
        timed.push(driver.section(budget));
    }
    // Writes after the queries, and one query on the overlay they leave,
    // so the oracle covers the store's write and overlay read paths too.
    let probe = driver.write_probe();
    let overlay_query = driver.probe_query();
    let mut wrong = 0;
    for s in timed.iter().chain([&overlay_query]) {
        wrong += oracle_check(&served.graph, &driver.log, s);
    }
    // The warm-up counts as one operation.
    let mut attempted = 1;
    for s in timed.iter().chain([&probe, &overlay_query]) {
        attempted +=
            s.queries.len() + s.calls_ms("apply_batch").len() + s.calls_ms("compact").len();
        failed += s.queries.len() - s.ok_queries() + s.failed_writes;
    }
    // A query with a wrong answer fails, whether or not the engine errored.
    failed += wrong;
    drop(driver);

    if !args.trace {
        let last = &timed[0];
        metrics.extend([
            ("setup_s", med(&|t| t.total())),
            ("throughput_qps", last.qps()),
        ]);
        notes.push(format!(
            "{} queries timed over {:.3} s",
            last.queries.len(),
            last.wall.as_secs_f64()
        ));
    }
    if let Some((plain_qps, trace)) = traced_parts {
        let traced = &timed[1];
        let split = layers::engine_split(&trace, &traced.queries);
        if let Some(t) = layers::engine_rows(&split, &mut metrics) {
            notes.push(format!(
                "engine.queue_wait_ms_tail is p{} of {} samples",
                t.percentile, t.samples
            ));
        }
        let max_gap = split.gaps_ms.iter().map(|g| g.0).fold(0.0, f64::max);
        notes.push(format!(
            "reconcile tolerance per query: max({} ms, {}% of its latency)",
            layers::RECONCILE_FLOOR_MS,
            layers::RECONCILE_SHARE * 100.0
        ));
        let late: Vec<f64> = traced.queries.iter().map(|q| q.late_ms()).collect();
        let snapshots_us: Vec<f64> = probe.calls_ms("snapshot").iter().map(|m| m * 1e3).collect();
        metrics.extend([
            (
                "trace.overhead_pct",
                100.0 * (plain_qps - traced.qps()) / plain_qps,
            ),
            ("trace.dropped_events", trace.dropped as f64),
            ("trace.reconcile_max_gap_ms", max_gap),
            ("trace.reconcile_outside", split.outside_tolerance() as f64),
            ("trace.unlinked_queries", split.unlinked as f64),
            ("trace.out_of_order", split.out_of_order as f64),
            (
                "loadgen.late_ms_p99",
                stats::percentile(&late, 99.0).unwrap_or(0.0),
            ),
            ("storage.dirty_vertices_max", probe.dirty_max as f64),
            (
                "storage.snapshot_us_p50",
                stats::median(&snapshots_us).unwrap_or(0.0),
            ),
            ("graph.generate_s", med(&|t| t.generate)),
            ("graph.store_s", med(&|t| t.store)),
        ]);
        let bad = [
            (trace.dropped as usize, "dropped events"),
            (split.unlinked, "unlinked queries"),
            (split.outside_tolerance(), "queries outside tolerance"),
            (split.out_of_order, "queries out of order"),
        ];
        if bad.iter().any(|b| b.0 > 0) {
            let what: Vec<String> = bad.iter().map(|(n, what)| format!("{n} {what}")).collect();
            notes.push(format!("traced run invalid: {}", what.join(", ")));
            failed += 1;
        }

        // Re-runs need the engine's pool idle, and the dirty epoch the
        // write probe left.
        served.engine.shutdown();
        let mut calls = Vec::new();
        let store = &served.store;
        let snap = store.snapshot();
        let config = w.engine_config(workers);
        let rerun = Rerun {
            graph: &served.graph,
            dirty: &snap,
            part: if w.shards > 1 {
                snap.part().cloned()
            } else {
                None
            },
            partition_split: run::partition_split(&config),
            workers,
            formed: &split.batches,
            sources: &served.sources,
            seed: args.seed,
        };
        let built = layers::kernel_rows(&rerun, &mut calls, &mut metrics);
        drop(snap);
        metrics.push((
            "graph.partition_s",
            built.unwrap_or_else(|| med(&|t| t.partition)),
        ));
        failed += usize::from(!run::compact(store, &mut calls));
        attempted += 1;
        // Every compaction the benchmark timed: the probe's, and this one.
        let compactions: Vec<f64> = probe
            .calls
            .iter()
            .chain(&calls)
            .filter(|c| c.name == "compact")
            .map(|c| run::ms(c.dur))
            .collect();
        metrics.extend([
            (
                "storage.compact_ms",
                stats::median(&compactions).unwrap_or(0.0),
            ),
            ("storage.compactions", compactions.len() as f64),
        ]);
        calls.extend(probe.calls.iter().cloned());
        write_spans(args, w, &trace, traced, &calls);
    }

    drop(served);
    let epochs_after = epochs_live();
    if epochs_after != epochs_before {
        notes.push(format!(
            "epochs_live is {epochs_after} after teardown, {epochs_before} before set-up"
        ));
        failed += 1;
    }
    if wrong > 0 {
        notes.push(format!("{wrong} sampled results disagree with the oracle"));
    }
    if !args.trace {
        metrics.extend([
            ("ok_rate", (attempted - failed) as f64 / attempted as f64),
            ("peak_rss_mb", peak_rss_mb()),
        ]);
    }
    Outcome {
        metrics,
        correct: failed == 0,
        attempted,
        failed,
        notes,
        config: config_json(w, args, workers, attempted),
    }
}

fn config_json(w: &Workload, args: &Args, workers: usize, attempted: usize) -> Json {
    json!({
        "workload": w.name,
        "scale": SCALE,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": workers,
        "shards": w.shards,
        // Backlogs submitted at once: no arrival rate.
        "rate_qps": Json::Null,
        "operations": attempted,
        "burst_queries": run::BURST_QUERIES,
        "mutations_per_batch": run::MUTATIONS_PER_BATCH,
        "compact_dirty_share": run::COMPACT_DIRTY_SHARE,
        "probe_compactions": run::PROBE_COMPACTIONS,
        "engine_config": format!("{:?}", w.engine_config(workers)),
        "store_config": format!("{:?}", pbfs_core::prelude::StoreConfig::default()),
        "simd": pbfs_bitset::simd::current().name(),
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "commit": commit(),
    })
}

/// Writes the traced section's spans — the benchmark's own around each
/// public call, and the recorder's engine events — as JSON lines on the
/// recorder's clock.
fn write_spans(
    args: &Args,
    w: &Workload,
    trace: &layers::Trace,
    traced: &Section,
    calls: &[CallRec],
) {
    let mut out = String::new();
    let mut line = |src: &str, name: &str, start: i128, dur: u128, qset: u64| {
        let span = json!({
            "src": src,
            "name": name,
            "start_ns": start as i64,
            "dur_ns": dur as u64,
            "qset": qset,
        });
        out.push_str(&format!("{span}\n"));
    };
    for q in &traced.queries {
        let submit = q.submit_end - q.submit_start;
        line(
            "bench",
            "submit",
            trace.ns(q.submit_start),
            submit.as_nanos(),
            0,
        );
        let wait = q.done - q.wait_start;
        line("bench", "wait", trace.ns(q.wait_start), wait.as_nanos(), 0);
    }
    for c in traced.calls.iter().chain(calls) {
        line("bench", &c.name, trace.ns(c.start), c.dur.as_nanos(), 0);
    }
    for e in &trace.events {
        line(
            "engine",
            e.kind.name(),
            e.start_ns as i128,
            e.dur_ns as u128,
            e.qset,
        );
    }
    let path = args
        .out
        .join(format!("{}-seed{}-spans.jsonl", w.name, args.seed));
    if let Err(e) = std::fs::create_dir_all(&args.out).and_then(|_| std::fs::write(&path, out)) {
        eprintln!("enginebench: cannot write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(doc: &pbfs_json::Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|v| v.as_array())
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    /// The benchmark's contract file names exactly the metrics and units
    /// this program reports, and only workloads it runs.
    #[test]
    fn benchmark_json_matches_what_is_reported() {
        let doc = pbfs_json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(names(&doc, "per_layer"), owned(&PER_LAYER));
        for (name, _) in names(&doc, "workloads") {
            assert!(WORKLOADS.iter().any(|w| w.name == name), "{name}");
        }
    }
}
