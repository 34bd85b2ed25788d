//! Graphs the kernel and survey tests of this crate share.

use crate::enumerate::Triangle;
use crate::graph::WeightedGraph;
use crate::survey::{t_score, SurveyConfig, SurveyReport};

/// `G(n, p)` with weights in `1..20`.
pub(crate) fn random_graph(n: u32, p: f64, seed: u64) -> WeightedGraph {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            if rng.gen_bool(p) {
                edges.push((a, b, rng.gen_range(1..20u64)));
            }
        }
    }
    WeightedGraph::from_edges(n, edges)
}

/// Every shape the wedge kernel branches on, in one graph:
///
/// * vertex 0 with two neighbours — vertex 1 and one hub member — and vertex
///   1 adjacent to the whole hub: `|out(0)| = 2` against `|out(1)| ≈ 72`
///   under either orientation, so [`close_wedge`] gallops and finds the hub
///   member;
/// * a 72-clique hub with 200 fringe vertices hanging off one to three hub
///   members each: under degree order a fringe apex has `|out(u)| ≤ 4` while
///   its hub neighbours' out-lists run to dozens (more gallops), and a
///   one-member fringe vertex is an apex of out-degree 1;
/// * six *twins* with consecutive ids, each adjacent to the same twelve hub
///   members but one — consecutive apexes whose out-lists overlap almost
///   entirely, so a stamp left behind by one closes a phantom triangle at
///   the next;
/// * an isolated vertex (an apex of out-degree 0 between two live ones);
/// * a last vertex adjacent to the hub, the twins and every three-member
///   fringe vertex: the highest id of the space has the highest degree, so
///   it is a target under either orientation.
///
/// [`close_wedge`]: crate::enumerate::close_wedge
pub(crate) fn hub_and_fringe() -> WeightedGraph {
    let (hub, fringe, twins) = (72u32, 200u32, 6u32);
    let first_hub = 2;
    let first_fringe = first_hub + hub;
    let first_twin = first_fringe + fringe;
    let isolated = first_twin + twins;
    let last = isolated + 1;

    let mut edges = vec![(0, 1, 6), (0, first_hub + 50, 4)];
    for a in 0..hub {
        edges.push((1, first_hub + a, u64::from(3 + a % 5)));
        for b in (a + 1)..hub {
            edges.push((
                first_hub + a,
                first_hub + b,
                u64::from(1 + (a * 7 + b) % 30),
            ));
        }
    }
    for f in 0..fringe {
        for k in 0..(1 + f % 3) {
            let member = first_hub + (f * 3 + k * 11) % hub;
            edges.push((member, first_fringe + f, u64::from(1 + (f + k) % 9)));
        }
    }
    for t in 0..twins {
        for h in (0..12).filter(|&h| h != t) {
            edges.push((
                first_hub + h * 6,
                first_twin + t,
                u64::from(2 + (h + t) % 11),
            ));
        }
    }
    let three_member = (0..fringe).filter(|f| f % 3 == 2).map(|f| first_fringe + f);
    for v in (first_hub..first_fringe)
        .chain(three_member)
        .chain(first_twin..isolated)
    {
        edges.push((v, last, u64::from(1 + v % 17)));
    }
    WeightedGraph::from_edges(last + 1, edges)
}

/// `P'`-like metadata: any positive per-vertex count will do.
pub(crate) fn pages_for(g: &WeightedGraph) -> Vec<u64> {
    (0..g.n()).map(|v| 20 + u64::from(v % 13)).collect()
}

/// Edge weights at and around every log2 level the survey splits on (its
/// histogram buckets, and the weight-≤ 1 edges whose hits it only counts):
/// 0, 1, powers of two and their neighbours, and `u64::MAX`.
pub(crate) const LEVEL_WEIGHTS: [u64; 20] = [
    0,
    1,
    2,
    3,
    4,
    5,
    7,
    8,
    9,
    15,
    16,
    17,
    (1 << 32) - 1,
    1 << 32,
    (1 << 32) + 1,
    (1 << 63) - 1,
    1 << 63,
    (1 << 63) + 1,
    u64::MAX - 1,
    u64::MAX,
];

/// `G(n, p)` with weights drawn from [`LEVEL_WEIGHTS`], small ones as often
/// as the rest together.
pub(crate) fn level_graph(n: u32, p: f64, seed: u64) -> WeightedGraph {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            if rng.gen_bool(p) {
                let w = if rng.gen_bool(0.5) {
                    LEVEL_WEIGHTS[rng.gen_range(0..12usize)]
                } else {
                    LEVEL_WEIGHTS[rng.gen_range(0..LEVEL_WEIGHTS.len())]
                };
                edges.push((a, b, w));
            }
        }
    }
    WeightedGraph::from_edges(n, edges)
}

/// The weight cutoffs the survey kernel must get right on `g`: 0–3,
/// `2^k` and `2^k ± 1` for small `k` and for `k = 32`, one above `g`'s
/// heaviest edge, and `u64::MAX`.
pub(crate) fn level_cutoffs(g: &WeightedGraph) -> Vec<u64> {
    let heaviest = g.edges().map(|(_, _, w)| w).max().unwrap_or(0);
    let mut cutoffs = vec![0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17];
    cutoffs.extend([(1 << 32) - 1, 1 << 32, (1 << 32) + 1]);
    cutoffs.extend([heaviest.saturating_add(1), u64::MAX]);
    cutoffs
}

/// Every survey the survey kernel must get right on `g`: each of
/// [`level_cutoffs`] with a `T` floor of 0 (with and without `P'`) and of
/// 0.2, `top_k` off and on — six variants per cutoff, in that order, so a
/// test that takes every `k`-th config, `k` coprime to 6, meets them all.
/// `P'` is [`pages_for`] where a config uses it.
pub(crate) fn level_configs(g: &WeightedGraph) -> Vec<(SurveyConfig, bool)> {
    let mut configs = Vec::new();
    for min_edge_weight in level_cutoffs(g) {
        for top_k in [None, Some(3)] {
            for (min_t_score, with_pages) in [(0.0, false), (0.0, true), (0.2, true)] {
                let config = SurveyConfig {
                    min_edge_weight,
                    min_t_score,
                    top_k,
                };
                configs.push((config, with_pages));
            }
        }
    }
    configs
}

/// Everything a survey reports, `T` scores as bits: examined, the largest
/// `min{w'}`, the log2 histogram, and the survivors in report order.
pub(crate) type Fields = (u64, u64, Vec<u64>, Vec<(Triangle, u64, u64)>);

/// The [`Fields`] of `report`.
pub(crate) fn fields(report: &SurveyReport) -> Fields {
    let survivors = report
        .triangles
        .iter()
        .map(|s| (s.triangle, s.min_weight, s.t_score.to_bits()));
    (
        report.total_examined,
        report.max_min_weight,
        report.min_weight_log_hist.clone(),
        survivors.collect(),
    )
}

/// What a survey under `config` must report: a fold over `brute`, the
/// graph's O(n³) reference listing
/// ([`crate::enumerate::brute_force_triangles`]), one triangle at a time.
pub(crate) fn brute_force_fields(
    brute: &[Triangle],
    config: &SurveyConfig,
    vertex_pages: Option<&[u64]>,
) -> Fields {
    let mut hist = Vec::new();
    let mut kept = Vec::new();
    for t in brute {
        let mw = t.min_weight();
        let bucket = mw.max(1).ilog2() as usize;
        hist.resize(hist.len().max(bucket + 1), 0u64);
        hist[bucket] += 1;
        let ts = vertex_pages.map_or(f64::NAN, |vp| {
            let [a, b, c] = t.vertices().map(|v| vp[v as usize]);
            t_score(mw, a, b, c)
        });
        let floor = config.min_t_score;
        if mw >= config.min_edge_weight && !(floor > 0.0 && ts < floor) {
            kept.push((*t, mw, ts.to_bits()));
        }
    }
    match config.top_k {
        Some(k) => {
            kept.sort_by_key(|&(t, mw, _)| (std::cmp::Reverse(mw), t.vertices()));
            kept.truncate(k);
        }
        None => kept.sort_by_key(|&(t, _, _)| t.vertices()),
    }
    let max = brute.iter().map(Triangle::min_weight).max().unwrap_or(0);
    (brute.len() as u64, max, hist, kept)
}
