//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **T-C window sweep** — how projection cost and CI size grow with `δ2`
//!   (the paper: "projected graphs can become extremely large for a time
//!   window of just an hour");
//! * **edge threshold** — pre-survey edge filtering (the paper thresholded at
//!   5 before enumerating the 2016 one-hour graph's triangles).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use bench::oct2016_small;
use coordination_core::project::project;
use coordination_core::Window;
use tripoll::survey::{survey, SurveyConfig};
use tripoll::OrientedGraph;

fn quick(c: &mut Criterion) -> criterion::BenchmarkGroup<'_, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group("ablations");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_secs(2));
    g
}

/// T-C: projection cost vs window length.
fn ablation_window_sweep(c: &mut Criterion) {
    let (_, ds) = oct2016_small();
    let btm = ds.btm();
    let mut g = quick(c);
    for (label, w) in [
        ("60s", Window::zero_to_60s()),
        ("600s", Window::zero_to_10m()),
        ("3600s", Window::zero_to_1h()),
    ] {
        g.bench_with_input(BenchmarkId::new("project_window", label), &w, |b, &w| {
            b.iter(|| black_box(project(&btm, w).n_edges()))
        });
    }
    g.finish();
}

/// Pre-survey edge thresholding: triangle enumeration on the raw vs
/// thresholded one-hour CI graph.
fn ablation_edge_threshold(c: &mut Criterion) {
    let (_, ds) = oct2016_small();
    let btm = ds.btm();
    let ci = project(&btm, Window::zero_to_1h());
    let mut g = quick(c);
    for threshold in [1u64, 5, 10] {
        g.bench_with_input(
            BenchmarkId::new("survey_after_edge_threshold", threshold),
            &threshold,
            |b, &t| {
                b.iter(|| {
                    let wg = ci.threshold(t).to_weighted_graph();
                    let o = OrientedGraph::from_graph(&wg);
                    let rep = survey(&o, &SurveyConfig::with_min_weight(10), None);
                    black_box(rep.total_examined)
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, ablation_window_sweep, ablation_edge_threshold);
criterion_main!(benches);
