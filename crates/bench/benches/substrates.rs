//! Substrate microbenches: the ygm runtime and the tripoll triangle engine,
//! measured in isolation so pipeline-level regressions can be attributed.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use rand::{Rng, SeedableRng};
use tripoll::enumerate::count_triangles;
use tripoll::{OrientedGraph, WeightedGraph};
use ygm::World;

fn quick(c: &mut Criterion) -> criterion::BenchmarkGroup<'_, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group("substrates");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_secs(2));
    g
}

/// Barrier latency with no traffic: the floor cost of a superstep.
fn ygm_barrier_latency(c: &mut Criterion) {
    let mut g = quick(c);
    g.bench_function("barrier_x100_4ranks", |b| {
        b.iter(|| {
            World::run(4, |ctx| {
                for _ in 0..100 {
                    ctx.barrier();
                }
            });
        })
    });
    g.finish();
}

fn random_graph(n: u32, avg_degree: f64, seed: u64) -> WeightedGraph {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let m = (n as f64 * avg_degree / 2.0) as usize;
    let edges: Vec<(u32, u32, u64)> = (0..m)
        .map(|_| {
            (
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                rng.gen_range(1..50u64),
            )
        })
        .collect();
    WeightedGraph::from_edges(n, edges)
}

/// Triangle enumeration rate on an Erdős–Rényi-ish graph; the degree-ordered
/// orientation is what keeps this near-linear.
fn tripoll_enumeration(c: &mut Criterion) {
    let g5k = random_graph(5_000, 16.0, 1);
    let o5k = OrientedGraph::from_graph(&g5k);
    let mut g = quick(c);
    g.bench_function("orient_5k_40k_edges", |b| {
        b.iter(|| black_box(OrientedGraph::from_graph(&g5k).m()))
    });
    g.bench_function("count_triangles_5k", |b| {
        b.iter(|| black_box(count_triangles(&o5k)))
    });
    g.bench_function("survey_min_weight_5k", |b| {
        b.iter(|| {
            let rep =
                tripoll::survey::survey(&o5k, &tripoll::SurveyConfig::with_min_weight(40), None);
            black_box(rep.len())
        })
    });
    g.finish();
}

/// Distributed vs shared-memory triangle survey on the same graph — the cost
/// of message-passing fidelity.
fn tripoll_distributed_overhead(c: &mut Criterion) {
    let gr = random_graph(800, 12.0, 2);
    let o = OrientedGraph::from_graph(&gr);
    let mut g = quick(c);
    g.bench_function("triangles_shared_800", |b| {
        b.iter(|| black_box(count_triangles(&o)))
    });
    g.bench_function("triangles_distributed_800_4ranks", |b| {
        b.iter(|| black_box(tripoll::distributed::distributed_survey(&o, 1, 4).total_triangles))
    });
    g.finish();
}

/// Hexbin binning rate (the figure post-processing stage).
fn hexbin_binning(c: &mut Criterion) {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
    let pts: Vec<(f64, f64)> = (0..100_000)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    let mut g = quick(c);
    g.bench_function("hexbin_100k_points", |b| {
        b.iter(|| {
            let hb = analysis::Hexbin::compute(&pts, &analysis::HexbinConfig::default());
            black_box(hb.occupied())
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    ygm_barrier_latency,
    tripoll_enumeration,
    tripoll_distributed_overhead,
    hexbin_binning,
);
criterion_main!(benches);
