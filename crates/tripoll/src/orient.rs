//! Degree-order edge orientation.
//!
//! Orienting every undirected edge from the endpoint that is *lower* in a
//! total degree order (`(degree, id)` lexicographic) to the higher one turns
//! the graph into a DAG in which every triangle appears exactly once — as a
//! wedge at its lowest-order vertex closed by one edge check. Out-degrees in
//! the oriented graph are bounded by O(√m) for any graph, which is what makes
//! intersection-based enumeration fast on skewed social graphs; this is the
//! standard trick TriPoll builds on.

use crate::graph::{GraphRef, WeightedGraph};

/// How the tests orient edges: degree order is what the survey runs; id
/// order is the hub-hostile ablation baseline (O(Δ²) wedge work at hubs) the
/// kernels are cross-checked under.
#[cfg(test)]
#[derive(Clone, Copy, Debug)]
pub(crate) enum OrientationStrategy {
    DegreeOrder,
    IdOrder,
}

/// A degree-order-oriented view of a [`WeightedGraph`].
///
/// `out(u)` holds only neighbors above `u` in degree order, sorted by id, so
/// two out-lists intersect in ascending id whichever kernel walks them.
#[derive(Clone, Debug)]
pub struct OrientedGraph {
    offsets: Vec<usize>,
    targets: Vec<u32>,
    weights: Vec<u64>,
}

impl OrientedGraph {
    /// Orient `g` by degree order.
    pub fn from_graph(g: &WeightedGraph) -> Self {
        Self::from_ref(g)
    }

    /// Orient `g` with an explicit strategy.
    #[cfg(test)]
    pub(crate) fn with_strategy(g: &WeightedGraph, strategy: OrientationStrategy) -> Self {
        match strategy {
            OrientationStrategy::DegreeOrder => Self::from_graph(g),
            OrientationStrategy::IdOrder => {
                let edges: Vec<(u32, u32, u64)> = g.edge_iter().collect();
                Self::build(g.n(), &edges, |u, v| u < v)
            }
        }
    }

    /// Orient any borrowed [`GraphRef`] view by degree order. This is the
    /// zero-copy entry point: thresholding via
    /// [`ThresholdView`](coordination_graph::ThresholdView) composes directly, so
    /// survey setup never materializes a filtered copy of the graph.
    ///
    /// The view's adjacency is scanned exactly **once** (via `edge_iter`);
    /// the surviving canonical edges are staged in one flat buffer and
    /// everything after — degrees, counting, scatter — is O(|E'|) on that
    /// buffer. A sparse threshold view therefore costs a single filtered
    /// pass, where filter-then-rebuild pays the same pass *plus* a full CSR
    /// construction and copy.
    pub fn from_ref<G: GraphRef>(g: &G) -> Self {
        let n = g.n_vertices();
        let edges: Vec<(u32, u32, u64)> = g.edge_iter().collect();
        // Degrees in the *view* (post-filter), tallied from the staged edges
        // rather than per-vertex degree_of scans.
        let mut deg = vec![0u32; n as usize];
        for &(x, y, _) in &edges {
            deg[x as usize] += 1;
            deg[y as usize] += 1;
        }
        Self::build(n, &edges, move |u, v| {
            (deg[u as usize], u) < (deg[v as usize], v)
        })
    }

    /// `edges` must be canonical (`x < y`) and sorted by `(x, y)` — the
    /// [`GraphRef::edge_iter`] contract.
    fn build(n: u32, edges: &[(u32, u32, u64)], points_up: impl Fn(u32, u32) -> bool) -> Self {
        let n = n as usize;
        let mut offsets = vec![0usize; n + 1];
        for &(x, y, _) in edges {
            let src = if points_up(x, y) { x } else { y };
            offsets[src as usize + 1] += 1;
        }
        for k in 0..n {
            offsets[k + 1] += offsets[k];
        }
        let total = offsets[n];
        let mut targets = vec![0u32; total];
        let mut weights = vec![0u64; total];
        let mut cursor = offsets.clone();
        for &(x, y, w) in edges {
            let (src, dst) = if points_up(x, y) { (x, y) } else { (y, x) };
            let c = cursor[src as usize];
            targets[c] = dst;
            weights[c] = w;
            cursor[src as usize] += 1;
        }
        // (x, y)-sorted canonical input scatters every out-list already
        // sorted: for a source u, all below-id targets arrive first (their
        // edges lead with the smaller id, ascending), then above-id targets
        // (u's own block, ascending second coordinate).
        debug_assert!((0..n).all(|u| {
            targets[offsets[u]..cursor[u]]
                .windows(2)
                .all(|p| p[0] < p[1])
        }));
        OrientedGraph {
            offsets,
            targets,
            weights,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of oriented (= undirected) edges.
    #[inline]
    pub fn m(&self) -> u64 {
        self.targets.len() as u64
    }

    /// Out-neighbors of `u` (sorted by id) with edge weights.
    #[inline]
    pub(crate) fn out(&self, u: u32) -> (&[u32], &[u64]) {
        let lo = self.offsets[u as usize];
        let hi = self.offsets[u as usize + 1];
        (&self.targets[lo..hi], &self.weights[lo..hi])
    }

    /// Weight of oriented edge `(u, v)` if present.
    #[cfg(test)]
    fn out_weight(&self, u: u32, v: u32) -> Option<u64> {
        let (nbrs, ws) = self.out(u);
        nbrs.binary_search(&v).ok().map(|i| ws[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_out_degree(o: &OrientedGraph) -> usize {
        (0..o.n()).map(|u| o.out(u).0.len()).max().unwrap_or(0)
    }

    #[test]
    fn every_edge_oriented_exactly_once() {
        let g =
            WeightedGraph::from_edges(5, [(0, 1, 1), (0, 2, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5)]);
        let o = OrientedGraph::from_graph(&g);
        assert_eq!(o.m(), g.m());
        // each undirected edge appears in exactly one out-list
        for (u, v, w) in g.edges() {
            let fwd = o.out_weight(u, v);
            let bwd = o.out_weight(v, u);
            assert!(
                fwd.is_some() ^ bwd.is_some(),
                "edge ({u},{v}) oriented twice or never"
            );
            assert_eq!(fwd.or(bwd), Some(w));
        }
    }

    #[test]
    fn orientation_points_up_the_degree_order() {
        // star: center 0 has degree 4, leaves degree 1 → all edges leaf→center
        let g = WeightedGraph::from_edges(5, (1..5).map(|v| (0u32, v, 1u64)));
        let o = OrientedGraph::from_graph(&g);
        assert!(o.out(0).0.is_empty());
        for v in 1..5 {
            assert_eq!(o.out(v).0, &[0]);
        }
    }

    #[test]
    fn ties_break_by_vertex_id() {
        // single edge: equal degrees, lower id points to higher id
        let g = WeightedGraph::from_edges(2, [(1, 0, 9)]);
        let o = OrientedGraph::from_graph(&g);
        assert_eq!(o.out_weight(0, 1), Some(9));
        assert_eq!(o.out_weight(1, 0), None);
    }

    #[test]
    fn out_lists_are_sorted() {
        let g = WeightedGraph::from_edges(
            6,
            [
                (0, 5, 1),
                (0, 3, 1),
                (0, 4, 1),
                (0, 1, 1),
                (1, 3, 1),
                (3, 4, 1),
            ],
        );
        let o = OrientedGraph::from_graph(&g);
        for u in 0..o.n() {
            let (nbrs, _) = o.out(u);
            assert!(
                nbrs.windows(2).all(|p| p[0] < p[1]),
                "out({u}) unsorted: {nbrs:?}"
            );
        }
    }

    #[test]
    fn max_out_degree_is_bounded_on_a_star() {
        // A hub with 1000 leaves: undirected max degree 1000, but oriented
        // max out-degree must be 1 (leaves point at the hub).
        let g = WeightedGraph::from_edges(1001, (1..=1000).map(|v| (0u32, v, 1u64)));
        assert_eq!(g.max_degree(), 1000);
        let o = OrientedGraph::from_graph(&g);
        assert_eq!(max_out_degree(&o), 1);
    }

    #[test]
    fn id_order_strategy_counts_the_same_triangles() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let n = 60u32;
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                if rng.gen_bool(0.15) {
                    edges.push((a, b, 1u64));
                }
            }
        }
        let g = WeightedGraph::from_edges(n, edges);
        let deg = OrientedGraph::with_strategy(&g, OrientationStrategy::DegreeOrder);
        let id = OrientedGraph::with_strategy(&g, OrientationStrategy::IdOrder);
        assert_eq!(
            crate::enumerate::count_triangles(&deg),
            crate::enumerate::count_triangles(&id)
        );
        assert_eq!(deg.m(), id.m());
    }

    #[test]
    fn id_order_hurts_on_hubs() {
        // a low-id hub: id order gives it out-degree n-1; degree order gives 0
        let g = WeightedGraph::from_edges(500, (1..500).map(|v| (0u32, v, 1u64)));
        let id = OrientedGraph::with_strategy(&g, OrientationStrategy::IdOrder);
        assert_eq!(max_out_degree(&id), 499);
        let deg = OrientedGraph::with_strategy(&g, OrientationStrategy::DegreeOrder);
        assert_eq!(max_out_degree(&deg), 1);
    }

    #[test]
    fn orienting_a_threshold_view_matches_filter_then_orient() {
        use coordination_graph::ThresholdView;
        let g =
            WeightedGraph::from_edges(5, [(0, 1, 1), (0, 2, 7), (1, 2, 3), (2, 3, 9), (3, 4, 2)]);
        for min in [1, 2, 3, 7, 10] {
            let via_view = OrientedGraph::from_ref(&ThresholdView::new(&g, min));
            let via_rebuild = OrientedGraph::from_graph(&g.filter_weight(min));
            assert_eq!(via_view.n(), via_rebuild.n(), "min={min}");
            assert_eq!(via_view.m(), via_rebuild.m(), "min={min}");
            for u in 0..via_view.n() {
                assert_eq!(via_view.out(u), via_rebuild.out(u), "u={u} min={min}");
            }
        }
    }

    #[test]
    fn empty_and_single_vertex() {
        let g = WeightedGraph::from_edges(1, std::iter::empty());
        let o = OrientedGraph::from_graph(&g);
        assert_eq!(o.n(), 1);
        assert_eq!(o.m(), 0);
        assert_eq!(max_out_degree(&o), 0);
    }
}
