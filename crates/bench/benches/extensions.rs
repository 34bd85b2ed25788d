//! Benches for the future-work extensions and their ablations:
//! windowed hyperedge validation, group merging and the orientation-strategy
//! ablation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use bench::{jan2020_small, run_hunt_config};
use coordination_core::groups::merge_triplets;
use coordination_core::windowed_hyperedge::validate_windowed;
use tripoll::orient::{OrientationStrategy, OrientedGraph};
use tripoll::WeightedGraph;

fn quick(c: &mut Criterion) -> criterion::BenchmarkGroup<'_, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group("extensions");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_secs(2));
    g
}

/// Windowed vs unbounded hyperedge validation (step-3 variants).
fn windowed_validation(c: &mut Criterion) {
    let (_, ds) = jan2020_small();
    let excl = coordination_core::filter::ExclusionList::reddit_defaults();
    let btm = ds.btm_without(&excl.resolve(ds));
    let out = run_hunt_config(ds);
    let triangles: Vec<tripoll::Triangle> =
        out.survey.triangles.iter().map(|s| s.triangle).collect();
    let mut g = quick(c);
    g.bench_function("validate_unbounded", |b| {
        b.iter(|| {
            black_box(coordination_core::hypergraph::validate_all(
                &btm,
                out.ci.page_counts(),
                &triangles,
            ))
        })
    });
    for span in [60i64, 600, 3600] {
        g.bench_with_input(
            BenchmarkId::new("validate_windowed", span),
            &span,
            |b, &s| b.iter(|| black_box(validate_windowed(&btm, &triangles, s))),
        );
    }
    g.finish();
}

/// Group merging over the validated triplet set.
fn group_merging(c: &mut Criterion) {
    let (_, ds) = jan2020_small();
    let excl = coordination_core::filter::ExclusionList::reddit_defaults();
    let btm = ds.btm_without(&excl.resolve(ds));
    let out = run_hunt_config(ds);
    let mut g = quick(c);
    for overlap in [1usize, 2] {
        g.bench_with_input(
            BenchmarkId::new("merge_triplets", overlap),
            &overlap,
            |b, &o| b.iter(|| black_box(merge_triplets(&btm, &out.triplets, o))),
        );
    }
    g.finish();
}

fn skewed_graph(n: u32, seed: u64) -> WeightedGraph {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut edges = Vec::new();
    // a preferential-attachment-ish skew: low ids act as hubs
    for v in 1..n {
        for _ in 0..4 {
            let hub = rng.gen_range(0..v.max(1));
            let hub = hub / (1 + hub % 7); // bias toward small ids
            if hub != v {
                edges.push((hub, v, rng.gen_range(1..20u64)));
            }
        }
    }
    WeightedGraph::from_edges(n, edges)
}

/// Degree ordering vs id ordering on a hub-heavy graph — the classic reason
/// TriPoll orients by degree.
fn orientation_ablation(c: &mut Criterion) {
    let g5k = skewed_graph(5_000, 11);
    let mut g = quick(c);
    for (label, strategy) in [
        ("degree_order", OrientationStrategy::DegreeOrder),
        ("id_order", OrientationStrategy::IdOrder),
    ] {
        g.bench_with_input(
            BenchmarkId::new("count_triangles_skewed", label),
            &strategy,
            |b, &s| {
                let oriented = OrientedGraph::with_strategy(&g5k, s);
                b.iter(|| black_box(tripoll::enumerate::count_triangles(&oriented)))
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    windowed_validation,
    group_merging,
    orientation_ablation,
);
criterion_main!(benches);
