//! Triangle enumeration by sorted-adjacency intersection.
//!
//! With the graph oriented by degree order, every triangle `{a, b, c}` appears
//! exactly once: at its lowest-order vertex `u`, as a pair `(v, w)` present in
//! both `out(u)` and such that `w ∈ out(v)`. Enumeration therefore reduces to
//! intersecting sorted out-lists through the shared adaptive kernel
//! ([`coordination_graph::intersect`]): `O(min + log·short)` per wedge when
//! the two out-lists are skewed, `O(|out(u)| + |out(v)|)` linear merge when
//! they are comparable — near-linear in the triangle count on
//! social-network-like degree distributions either way.
//!
//! The parallel driver partitions the *wedge apex* vertices over rayon tasks;
//! out-lists are read-only, so the map step is embarrassingly parallel.

use rayon::prelude::*;

use crate::graph::WeightedGraph;
use crate::orient::OrientedGraph;

/// One triangle with its three vertices in ascending id order and the weight
/// of each edge. This is the "metadata" record a TriPoll survey callback sees.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Triangle {
    /// Lowest vertex id.
    pub a: u32,
    /// Middle vertex id.
    pub b: u32,
    /// Highest vertex id.
    pub c: u32,
    /// Weight of edge (a, b).
    pub w_ab: u64,
    /// Weight of edge (a, c).
    pub w_ac: u64,
    /// Weight of edge (b, c).
    pub w_bc: u64,
}

impl Triangle {
    /// Canonicalize from arbitrary vertex order. `w_xy` etc. must match the
    /// given vertex labels.
    pub fn new(x: u32, y: u32, z: u32, w_xy: u64, w_xz: u64, w_yz: u64) -> Self {
        let mut vs = [(x, 0usize), (y, 1), (z, 2)];
        vs.sort_unstable_by_key(|p| p.0);
        let [(a, ia), (b, ib), (c, _)] = vs;
        assert!(a != b && b != c, "triangle vertices must be distinct");
        // weight lookup by the pair of *original* slots
        let w = |s0: usize, s1: usize| match (s0.min(s1), s0.max(s1)) {
            (0, 1) => w_xy,
            (0, 2) => w_xz,
            (1, 2) => w_yz,
            _ => unreachable!(),
        };
        let ic = 3 - ia - ib;
        Triangle {
            a,
            b,
            c,
            w_ab: w(ia, ib),
            w_ac: w(ia, ic),
            w_bc: w(ib, ic),
        }
    }

    /// Minimum of the three edge weights — the paper's primary triangle
    /// statistic (`min{w'_xy, w'_xz, w'_yz}`).
    #[inline]
    pub fn min_weight(&self) -> u64 {
        self.w_ab.min(self.w_ac).min(self.w_bc)
    }

    /// Maximum of the three edge weights.
    #[inline]
    pub fn max_weight(&self) -> u64 {
        self.w_ab.max(self.w_ac).max(self.w_bc)
    }

    /// The vertices as a sorted array.
    #[inline]
    pub fn vertices(&self) -> [u32; 3] {
        [self.a, self.b, self.c]
    }

    /// The three edge weights ordered as `(w_ab, w_ac, w_bc)`.
    #[inline]
    pub fn edge_weights(&self) -> [u64; 3] {
        [self.w_ab, self.w_ac, self.w_bc]
    }
}

/// Stream every triangle of `oriented` through `f`, single-threaded.
pub fn for_each_triangle<F>(oriented: &OrientedGraph, mut f: F)
where
    F: FnMut(Triangle),
{
    for u in 0..oriented.n() {
        wedge_close(oriented, u, &mut f);
    }
}

/// Stream every triangle whose wedge apex (lowest degree-order vertex) is `u`.
/// The unit of parallel work: apexes partition the triangle set.
pub fn for_each_apex_triangle<F: FnMut(Triangle)>(oriented: &OrientedGraph, u: u32, f: &mut F) {
    wedge_close(oriented, u, f)
}

/// All triangles whose wedge apex (lowest degree-order vertex) is `u`: one
/// [`close_wedge`] per oriented edge `(u, v)`.
#[inline]
fn wedge_close<F: FnMut(Triangle)>(oriented: &OrientedGraph, u: u32, f: &mut F) {
    let out_u = oriented.out(u);
    for (&v, &w_uv) in out_u.0.iter().zip(out_u.1) {
        close_wedge(u, v, w_uv, out_u, oriented.out(v), f);
    }
}

/// Close the wedges through one oriented edge `(u, v)`: every
/// `x ∈ out(u) ∩ out(v)` is the triangle `u–v–x`. The one wedge-intersection
/// kernel of the crate — the resident enumerator calls it for each edge of
/// `out(u)`, the rank-sharded survey ([`crate::distributed`]) calls it on
/// `owner_of(v)` for each wedge check it receives.
///
/// Intersects the *whole* of `out(u)` with `out(v)` — the third vertex can
/// sit anywhere in `out(u)`, not only past `v`, because degree order ≠ id
/// order. The intersection runs through the shared adaptive kernel: linear
/// merge when the two out-lists are comparable, galloping from the shorter
/// side when their lengths are skewed (id-order orientation and hub-heavy
/// graphs produce exactly that skew). `v` itself never matches — `v ∉ out(v)`
/// since the orientation has no self-loops.
#[inline]
pub fn close_wedge<F: FnMut(Triangle)>(
    u: u32,
    v: u32,
    w_uv: u64,
    (u_nbrs, u_ws): (&[u32], &[u64]),
    (v_nbrs, v_ws): (&[u32], &[u64]),
    f: &mut F,
) {
    coordination_graph::intersect_indices(u_nbrs, v_nbrs, &mut |ai, bi| {
        // triangle u–v–x with x = u_nbrs[ai]: w_uv, w_ux, w_vx
        f(Triangle::new(u, v, u_nbrs[ai], w_uv, u_ws[ai], v_ws[bi]));
    });
}

/// Parallel map over all triangles: `map` runs on rayon workers and its `Some`
/// results are collected (order unspecified).
pub fn par_triangles<T, F>(oriented: &OrientedGraph, map: F) -> Vec<T>
where
    T: Send,
    F: Fn(Triangle) -> Option<T> + Sync,
{
    (0..oriented.n())
        .into_par_iter()
        .fold(Vec::new, |mut acc, u| {
            wedge_close(oriented, u, &mut |t| {
                if let Some(x) = map(t) {
                    acc.push(x);
                }
            });
            acc
        })
        .reduce(Vec::new, |mut a, mut b| {
            a.append(&mut b);
            a
        })
}

/// Count triangles, in parallel.
pub fn count_triangles(oriented: &OrientedGraph) -> u64 {
    (0..oriented.n())
        .into_par_iter()
        .map(|u| {
            let mut n = 0u64;
            wedge_close(oriented, u, &mut |_| n += 1);
            n
        })
        .sum()
}

/// Reference implementation: brute-force O(n³) triangle enumeration straight
/// off the undirected graph. For tests and tiny graphs only.
pub fn brute_force_triangles(g: &WeightedGraph) -> Vec<Triangle> {
    let mut out = Vec::new();
    let n = g.n();
    for a in 0..n {
        for b in (a + 1)..n {
            let Some(w_ab) = g.edge_weight(a, b) else {
                continue;
            };
            for c in (b + 1)..n {
                let (Some(w_ac), Some(w_bc)) = (g.edge_weight(a, c), g.edge_weight(b, c)) else {
                    continue;
                };
                out.push(Triangle {
                    a,
                    b,
                    c,
                    w_ab,
                    w_ac,
                    w_bc,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn triangles_of(g: &WeightedGraph) -> Vec<Triangle> {
        let o = OrientedGraph::from_graph(g);
        let mut out = Vec::new();
        for_each_triangle(&o, |t| out.push(t));
        out.sort_unstable_by_key(|t| (t.a, t.b, t.c));
        out
    }

    #[test]
    fn single_triangle_with_weights() {
        let g = WeightedGraph::from_edges(3, [(0, 1, 5), (1, 2, 7), (0, 2, 3)]);
        let ts = triangles_of(&g);
        assert_eq!(
            ts,
            vec![Triangle {
                a: 0,
                b: 1,
                c: 2,
                w_ab: 5,
                w_ac: 3,
                w_bc: 7
            }]
        );
        assert_eq!(ts[0].min_weight(), 3);
        assert_eq!(ts[0].max_weight(), 7);
    }

    #[test]
    fn square_has_no_triangle() {
        let g = WeightedGraph::from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]);
        assert!(triangles_of(&g).is_empty());
    }

    #[test]
    fn k4_has_four_triangles() {
        let g = WeightedGraph::from_edges(
            4,
            [
                (0, 1, 1),
                (0, 2, 1),
                (0, 3, 1),
                (1, 2, 1),
                (1, 3, 1),
                (2, 3, 1),
            ],
        );
        let ts = triangles_of(&g);
        assert_eq!(ts.len(), 4);
        let o = OrientedGraph::from_graph(&g);
        assert_eq!(count_triangles(&o), 4);
    }

    #[test]
    fn clique_triangle_count_is_binomial() {
        let k = 10u32;
        let edges = (0..k).flat_map(|i| ((i + 1)..k).map(move |j| (i, j, 1u64)));
        let g = WeightedGraph::from_edges(k, edges);
        let o = OrientedGraph::from_graph(&g);
        assert_eq!(count_triangles(&o), (10 * 9 * 8) / 6);
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        for trial in 0..30 {
            let n = rng.gen_range(4..30u32);
            let p = rng.gen_range(0.05..0.5);
            let mut edges = Vec::new();
            for a in 0..n {
                for b in (a + 1)..n {
                    if rng.gen_bool(p) {
                        edges.push((a, b, rng.gen_range(1..100u64)));
                    }
                }
            }
            let g = WeightedGraph::from_edges(n, edges);
            let fast: HashSet<Triangle> = triangles_of(&g).into_iter().collect();
            let brute: HashSet<Triangle> = brute_force_triangles(&g).into_iter().collect();
            assert_eq!(fast, brute, "mismatch on trial {trial} (n={n}, p={p})");
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let n = 200u32;
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                if rng.gen_bool(0.05) {
                    edges.push((a, b, rng.gen_range(1..50u64)));
                }
            }
        }
        let g = WeightedGraph::from_edges(n, edges);
        let o = OrientedGraph::from_graph(&g);
        let mut seq = Vec::new();
        for_each_triangle(&o, |t| seq.push(t));
        let mut par = par_triangles(&o, Some);
        seq.sort_unstable_by_key(|t| (t.a, t.b, t.c));
        par.sort_unstable_by_key(|t| (t.a, t.b, t.c));
        assert_eq!(seq, par);
        assert_eq!(count_triangles(&o), seq.len() as u64);
    }

    #[test]
    fn par_map_filters() {
        let g = WeightedGraph::from_edges(
            4,
            [
                (0, 1, 10),
                (0, 2, 10),
                (1, 2, 10),
                (1, 3, 1),
                (2, 3, 1),
                (0, 3, 1),
            ],
        );
        let o = OrientedGraph::from_graph(&g);
        let heavy = par_triangles(&o, |t| (t.min_weight() >= 10).then_some(t.vertices()));
        assert_eq!(heavy, vec![[0, 1, 2]]);
    }

    #[test]
    fn triangle_new_canonicalizes_any_vertex_order() {
        // triangle vertices 5, 2, 9 with weights w_52=1, w_59=2, w_29=3
        let t = Triangle::new(5, 2, 9, 1, 2, 3);
        assert_eq!(t.vertices(), [2, 5, 9]);
        assert_eq!(t.w_ab, 1); // (2,5)
        assert_eq!(t.w_ac, 3); // (2,9)
        assert_eq!(t.w_bc, 2); // (5,9)

        // all six permutations agree
        let perms = [
            Triangle::new(2, 5, 9, 1, 3, 2),
            Triangle::new(2, 9, 5, 3, 1, 2),
            Triangle::new(5, 2, 9, 1, 2, 3),
            Triangle::new(5, 9, 2, 2, 1, 3),
            Triangle::new(9, 2, 5, 3, 2, 1),
            Triangle::new(9, 5, 2, 2, 3, 1),
        ];
        for p in perms {
            assert_eq!(p, t);
        }
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn degenerate_triangle_panics() {
        Triangle::new(1, 1, 2, 0, 0, 0);
    }
}
