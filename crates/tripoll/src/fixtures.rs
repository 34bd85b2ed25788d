//! Graphs the kernel and survey tests of this crate share.

use crate::graph::WeightedGraph;

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
