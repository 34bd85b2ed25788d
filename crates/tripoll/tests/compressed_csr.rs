//! Surveying directly over the snapshot layer's block-compressed CSR
//! ([`coordination_store::CsrView`]) must agree with surveying the resident
//! [`WeightedGraph`] — the view implements [`GraphRef`], so
//! [`OrientedGraph::from_ref`] consumes either without a decode step.

use coordination_store::csr::encode_graph;
use coordination_store::CsrView;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tripoll::survey::survey;
use tripoll::{GraphRef, OrientedGraph, SurveyConfig, WeightedGraph};

fn random_graph(seed: u64, n: u32, m: usize) -> WeightedGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(m);
    let mut seen = std::collections::HashSet::new();
    while edges.len() < m {
        let x = rng.gen_range(0..n);
        let y = rng.gen_range(0..n);
        if x == y {
            continue;
        }
        let (a, b) = (x.min(y), x.max(y));
        if seen.insert((a, b)) {
            edges.push((a, b, rng.gen_range(1..40u64)));
        }
    }
    WeightedGraph::from_edges(n, edges)
}

fn assert_same_survey(g: &WeightedGraph, cfg: &SurveyConfig) {
    let mut blob = Vec::new();
    encode_graph(g, &mut blob);
    let view = CsrView::parse(&blob).expect("fresh encoding parses");
    view.validate(g.n_vertices())
        .expect("fresh encoding validates");
    assert_eq!(view.n(), g.n_vertices());
    assert_eq!(view.count_edges(), g.count_edges());

    let resident = survey(&OrientedGraph::from_graph(g), cfg, None);
    let mapped = survey(&OrientedGraph::from_ref(&view), cfg, None);

    assert_eq!(resident.total_examined, mapped.total_examined);
    assert_eq!(resident.len(), mapped.len());
    let key = |t: &tripoll::SurveyedTriangle| (t.triangle.vertices(), t.min_weight);
    let mut a: Vec<_> = resident.triangles.iter().map(key).collect();
    let mut b: Vec<_> = mapped.triangles.iter().map(key).collect();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b);
}

#[test]
fn survey_over_compressed_csr_matches_resident() {
    for (seed, n, m) in [(1u64, 40u32, 220usize), (2, 150, 1600), (3, 9, 30)] {
        let g = random_graph(seed, n, m);
        for min_w in [0u64, 5, 20] {
            assert_same_survey(&g, &SurveyConfig::with_min_weight(min_w));
        }
    }
}

#[test]
fn distributed_survey_over_compressed_csr_matches_resident() {
    // The distributed driver must accept an orientation built straight off
    // the mmap-format CSR view, at any rank count, and agree with the
    // resident shared-memory enumeration.
    for (seed, n, m) in [(11u64, 40u32, 220usize), (12, 120, 1200)] {
        let g = random_graph(seed, n, m);
        let mut blob = Vec::new();
        encode_graph(&g, &mut blob);
        let view = CsrView::parse(&blob).expect("fresh encoding parses");

        let resident = OrientedGraph::from_graph(&g);
        let mut expected = Vec::new();
        tripoll::enumerate::for_each_triangle(&resident, |t| expected.push(t));
        expected.sort_unstable_by_key(|t| t.vertices());

        let mapped = OrientedGraph::from_ref(&view);
        for nranks in [1usize, 2, 4] {
            for cutoff in [1u64, 10] {
                let res = tripoll::distributed::distributed_survey(&mapped, cutoff, nranks);
                let want: Vec<_> = expected
                    .iter()
                    .copied()
                    .filter(|t| t.min_weight() >= cutoff)
                    .collect();
                assert_eq!(res.triangles, want, "seed {seed} ranks {nranks}");
                assert_eq!(res.total_triangles, expected.len() as u64);
            }
        }
    }
}

#[test]
fn composable_survey_stage_runs_over_compressed_csr() {
    // The stage API (publish + survey_stage + take_fold inside one SPMD
    // region) over the compressed view: same triangles as a full survey.
    use tripoll::distributed::local_partition;
    use tripoll::survey::SurveyFold;
    use tripoll::{survey_stage, DistSurvey};
    use ygm::World;

    let g = random_graph(13, 80, 700);
    let mut blob = Vec::new();
    encode_graph(&g, &mut blob);
    let view = CsrView::parse(&blob).unwrap();
    let oriented = OrientedGraph::from_ref(&view);

    let nranks = 3;
    let survey = DistSurvey::new(nranks, SurveyConfig::default());
    let folds = World::run(nranks, |ctx| {
        survey.publish(ctx, local_partition(ctx, &oriented), oriented.n(), None);
        ctx.barrier();
        survey_stage(ctx, &survey, None);
        ctx.barrier();
        survey.take_fold(ctx)
    });
    let mut fold = SurveyFold::default();
    for f in folds {
        fold.merge(f);
    }
    let got: Vec<_> = fold
        .into_report(None)
        .triangles
        .iter()
        .map(|s| s.triangle)
        .collect();

    let mut expected = Vec::new();
    tripoll::enumerate::for_each_triangle(&OrientedGraph::from_graph(&g), |t| expected.push(t));
    expected.sort_unstable_by_key(|t| t.vertices());
    assert_eq!(got, expected);
}

#[test]
fn neighbor_blocks_roundtrip_against_resident_adjacency() {
    // Degrees beyond one compressed block (128 entries) must decode exactly.
    let g = random_graph(7, 600, 24_000);
    let mut blob = Vec::new();
    encode_graph(&g, &mut blob);
    let view = CsrView::parse(&blob).unwrap();
    for u in 0..g.n_vertices() {
        let mut want: Vec<(u32, u64)> = g.neighbors_iter(u).collect();
        let mut got: Vec<(u32, u64)> = view.neighbors_iter(u).collect();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(want, got, "vertex {u}");
    }
}
