//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * `chunkskip` — 64-bit chunk skipping on/off in SMS-PBFS(bit).
//! * `earlyexit` — bottom-up early exit on/off in MS-BFS.
//! * `width` — MS-BFS bitset width 64/128/256/512 at constant total
//!   sources (per-source work sharing trade-off of Section 2.2).
//! * `tasksize` — splitSize sweep (Section 4.2.1).
//! * `dirswitch` — direction policy: heuristic vs fixed directions.
//!
//! The `fetch_or` vs CAS-loop update of top-down phase 1 is measured by
//! the kernels bench's `atomics` rows (`pbfs_bench::kernels::run_atomics`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use pbfs_bench::datasets::{kronecker, pick_sources};
use pbfs_core::msbfs::MsBfs;
use pbfs_core::mspbfs::MsPbfs;
use pbfs_core::options::BfsOptions;
use pbfs_core::policy::DirectionPolicy;
use pbfs_core::smspbfs::SmsPbfsBit;
use pbfs_core::visitor::{NoopMsVisitor, NoopVisitor};
use pbfs_sched::WorkerPool;

fn bench_chunkskip(c: &mut Criterion) {
    let g = kronecker(14, 42);
    let source = pick_sources(&g, 1, 5)[0];
    let pool = WorkerPool::new(1);
    let mut group = c.benchmark_group("ablation_chunkskip");
    group.sample_size(10);
    for (name, skip) in [("on", true), ("off", false)] {
        let opts = BfsOptions {
            chunk_skip: skip,
            ..Default::default()
        };
        let mut bfs = SmsPbfsBit::new(g.num_vertices());
        group.bench_function(name, |b| {
            b.iter(|| bfs.run(&g, &pool, source, &opts, &NoopVisitor))
        });
    }
    group.finish();
}

fn bench_earlyexit(c: &mut Criterion) {
    let g = kronecker(13, 42);
    let sources = pick_sources(&g, 64, 7);
    let mut group = c.benchmark_group("ablation_earlyexit");
    group.sample_size(10);
    for (name, early) in [("on", true), ("off", false)] {
        let opts = BfsOptions {
            early_exit: early,
            ..Default::default()
        };
        let mut bfs: MsBfs<1> = MsBfs::new(g.num_vertices());
        group.bench_function(name, |b| {
            b.iter(|| bfs.run(&g, &sources, &opts, &NoopMsVisitor))
        });
    }
    group.finish();
}

fn bench_width(c: &mut Criterion) {
    // Constant total sources (512), processed in batches sized to the
    // bitset width: wider bitsets share more work per edge scan.
    let g = kronecker(13, 42);
    let sources = pick_sources(&g, 512, 9);
    let opts = BfsOptions::default();
    let mut group = c.benchmark_group("ablation_width");
    group.sample_size(10);

    fn run_width<const W: usize>(g: &pbfs_graph::CsrGraph, sources: &[u32], opts: &BfsOptions) {
        let mut bfs: MsBfs<W> = MsBfs::new(g.num_vertices());
        for chunk in sources.chunks(W * 64) {
            bfs.run(g, chunk, opts, &NoopMsVisitor);
        }
    }

    group.bench_function(BenchmarkId::new("width", 64), |b| {
        b.iter(|| run_width::<1>(&g, &sources, &opts))
    });
    group.bench_function(BenchmarkId::new("width", 128), |b| {
        b.iter(|| run_width::<2>(&g, &sources, &opts))
    });
    group.bench_function(BenchmarkId::new("width", 256), |b| {
        b.iter(|| run_width::<4>(&g, &sources, &opts))
    });
    group.bench_function(BenchmarkId::new("width", 512), |b| {
        b.iter(|| run_width::<8>(&g, &sources, &opts))
    });
    group.finish();
}

fn bench_tasksize(c: &mut Criterion) {
    let g = kronecker(14, 42);
    let sources = pick_sources(&g, 64, 11);
    let pool = WorkerPool::new(4);
    let mut group = c.benchmark_group("ablation_tasksize");
    group.sample_size(10);
    for split in [32usize, 256, 4096] {
        let opts = BfsOptions::default().with_split_size(split);
        let mut bfs: MsPbfs<1> = MsPbfs::new(g.num_vertices());
        group.bench_with_input(BenchmarkId::from_parameter(split), &split, |b, _| {
            b.iter(|| bfs.run(&g, &pool, &sources, &opts, &NoopMsVisitor))
        });
    }
    group.finish();
}

fn bench_dirswitch(c: &mut Criterion) {
    let g = kronecker(13, 42);
    let sources = pick_sources(&g, 64, 13);
    let mut group = c.benchmark_group("ablation_dirswitch");
    group.sample_size(10);
    for (name, policy) in [
        ("heuristic", DirectionPolicy::default()),
        ("top_down", DirectionPolicy::AlwaysTopDown),
        ("bottom_up", DirectionPolicy::AlwaysBottomUp),
    ] {
        let opts = BfsOptions::default().with_policy(policy);
        let mut bfs: MsBfs<1> = MsBfs::new(g.num_vertices());
        group.bench_function(name, |b| {
            b.iter(|| bfs.run(&g, &sources, &opts, &NoopMsVisitor))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_chunkskip,
    bench_earlyexit,
    bench_width,
    bench_tasksize,
    bench_dirswitch
);
criterion_main!(benches);
