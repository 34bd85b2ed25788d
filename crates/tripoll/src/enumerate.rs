//! Triangle enumeration by stamp-and-probe wedge closing.
//!
//! With the graph oriented by degree order, every triangle `{a, b, c}` appears
//! exactly once: at its lowest-order vertex `u` (the wedge *apex*), as an
//! oriented edge `(u, v)` and a third vertex `x ∈ out(u) ∩ out(v)`. Every `v`
//! of one apex intersects the *same* `out(u)`, so the enumerator stamps
//! `out(u)` into a dense per-vertex scratch once
//! ([`coordination_graph::intersect::StampSet`]) and closes each wedge by
//! probing `out(v)` against it ([`close_wedge`]): `Σ |out(v)|` loads over all
//! oriented edges, each followed by one mostly-not-taken branch, and nothing
//! per element of `out(u)` beyond the stamp itself. When `out(v)` is far
//! longer than `out(u)` (id-order orientation, hub-and-fringe graphs) the
//! kernel gallops through it from `out(u)`'s side instead —
//! `O(|out(u)| · log |out(v)|)`.
//!
//! Everything here is one sequential pass in apex order.

use coordination_graph::intersect::{intersect_indices_gallop, StampSet, STAMP_GALLOP_RATIO};

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

/// Stream every triangle of `oriented` through `f` as the raw wedge that
/// closed it — vertices `[u, v, x]` (apex, the oriented edge's head, the
/// common out-neighbour) and weights `[w_uv, w_ux, w_vx]`, the argument
/// order of [`Triangle::new`] — in apex order, then `out(u)` order of `v`,
/// then ascending `x`. The one apex loop of the crate: one [`StampSet`] for
/// the whole pass, stamped and cleared per apex around its [`close_wedge`]s.
pub(crate) fn for_each_wedge<F>(oriented: &OrientedGraph, mut f: F)
where
    F: FnMut([u32; 3], [u64; 3]),
{
    let mut stamps = StampSet::new(oriented.n() as usize);
    for u in 0..oriented.n() {
        let out_u = oriented.out(u);
        stamps.stamp(out_u.0);
        for (&v, &w_uv) in out_u.0.iter().zip(out_u.1) {
            close_wedge(&stamps, out_u, oriented.out(v), &mut |x, w_ux, w_vx| {
                f([u, v, x], [w_uv, w_ux, w_vx])
            });
        }
        stamps.unstamp(out_u.0);
    }
}

/// Stream every triangle of `oriented` through `f`, canonicalised.
pub fn for_each_triangle<F>(oriented: &OrientedGraph, mut f: F)
where
    F: FnMut(Triangle),
{
    for_each_wedge(oriented, |[u, v, x], [w_uv, w_ux, w_vx]| {
        f(Triangle::new(u, v, x, w_uv, w_ux, w_vx))
    });
}

/// Close the wedges through one oriented edge `(u, v)`: every
/// `x ∈ out(u) ∩ out(v)` is the triangle `u–v–x`, handed to `f` as
/// `(x, w_ux, w_vx)` in ascending `x`. `stamps` must hold `out(u)` stamped
/// (and nothing else). The one wedge-closing kernel of the crate — the
/// resident apex loop (`for_each_wedge`) calls it for each edge of
/// `out(u)`, the rank-sharded survey ([`crate::distributed`]) calls it on
/// `owner_of(v)` for each wedge check it receives.
///
/// Two arms, chosen by the measured [`STAMP_GALLOP_RATIO`]: probe the whole
/// of `out(v)` against the stamps — the third vertex can sit anywhere in
/// `out(u)`, not only past `v`, because degree order ≠ id order — or, when
/// `out(v)` is that many times longer than `out(u)`, gallop through it from
/// `out(u)`'s side. `v` itself never matches — `v ∉ out(v)` since the
/// orientation has no self-loops.
#[inline]
pub fn close_wedge<F: FnMut(u32, u64, u64)>(
    stamps: &StampSet,
    (u_nbrs, u_ws): (&[u32], &[u64]),
    (v_nbrs, v_ws): (&[u32], &[u64]),
    f: &mut F,
) {
    let mut hit = |ai: usize, bi: usize| f(v_nbrs[bi], u_ws[ai], v_ws[bi]);
    if u_nbrs.len() * STAMP_GALLOP_RATIO < v_nbrs.len() {
        intersect_indices_gallop(u_nbrs, v_nbrs, false, &mut hit);
    } else {
        stamps.probe(v_nbrs, &mut hit);
    }
}

/// Count triangles: the tests' reference tally of the wedge walk.
#[cfg(test)]
pub(crate) fn count_triangles(oriented: &OrientedGraph) -> u64 {
    let mut n = 0u64;
    for_each_wedge(oriented, |_, _| n += 1);
    n
}

/// Brute-force O(n³) triangle enumeration straight off the undirected graph:
/// the unit tests' reference.
#[cfg(test)]
pub(crate) fn brute_force_triangles(g: &crate::graph::WeightedGraph) -> Vec<Triangle> {
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
    use crate::graph::WeightedGraph;
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

    /// The stamped kernel against its two references, under both
    /// orientations: per oriented edge `(u, v)` the visit sequence of
    /// [`close_wedge`] is `intersect_indices_linear`'s, and `survey()` is a
    /// fold over `brute_force_triangles`, field for field.
    fn assert_kernel_matches_references(g: &WeightedGraph, what: &str) {
        use crate::orient::OrientationStrategy;
        use crate::survey::{survey, t_score, SurveyConfig};
        use coordination_graph::intersect_indices_linear;

        let brute = brute_force_triangles(g);
        let pages = crate::fixtures::pages_for(g);
        let config = SurveyConfig {
            min_edge_weight: 4,
            min_t_score: 0.15,
            top_k: None,
        };
        let mut hist = Vec::new();
        let mut kept = Vec::new();
        for t in &brute {
            let mw = t.min_weight();
            let bucket = mw.max(1).ilog2() as usize;
            hist.resize(hist.len().max(bucket + 1), 0u64);
            hist[bucket] += 1;
            let [a, b, c] = t.vertices().map(|v| pages[v as usize]);
            let ts = t_score(mw, a, b, c);
            if mw >= config.min_edge_weight && ts >= config.min_t_score {
                kept.push((*t, mw, ts.to_bits()));
            }
        }

        for strategy in [
            OrientationStrategy::DegreeOrder,
            OrientationStrategy::IdOrder,
        ] {
            let what = format!("{what}, {strategy:?}");
            let o = OrientedGraph::with_strategy(g, strategy);
            let mut stamps = StampSet::new(o.n() as usize);
            for u in 0..o.n() {
                let out_u = o.out(u);
                stamps.stamp(out_u.0);
                for &v in out_u.0 {
                    let out_v = o.out(v);
                    let mut got = Vec::new();
                    close_wedge(&stamps, out_u, out_v, &mut |x, w_ux, w_vx| {
                        got.push((x, w_ux, w_vx))
                    });
                    let mut want = Vec::new();
                    intersect_indices_linear(out_u.0, out_v.0, &mut |ai, bi| {
                        want.push((out_u.0[ai], out_u.1[ai], out_v.1[bi]))
                    });
                    assert_eq!(got, want, "{what}: wedge ({u}, {v})");
                }
                stamps.unstamp(out_u.0);
            }
            assert!(stamps.is_clear(), "{what}");

            let report = survey(&o, &config, Some(&pages));
            assert_eq!(report.total_examined, brute.len() as u64, "{what}");
            assert_eq!(
                report.max_min_weight,
                brute.iter().map(Triangle::min_weight).max().unwrap_or(0),
                "{what}"
            );
            assert_eq!(report.min_weight_log_hist, hist, "{what}");
            let survivors: Vec<_> = report
                .triangles
                .iter()
                .map(|s| (s.triangle, s.min_weight, s.t_score.to_bits()))
                .collect();
            assert_eq!(survivors, kept, "{what}");
        }
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
            assert_kernel_matches_references(&g, &format!("trial {trial} (n={n}, p={p})"));
        }
    }

    #[test]
    fn matches_brute_force_on_every_kernel_shape() {
        use crate::orient::OrientationStrategy;
        let g = crate::fixtures::hub_and_fringe();
        // The fixture must reach both arms, the gallop with something to find.
        for strategy in [
            OrientationStrategy::DegreeOrder,
            OrientationStrategy::IdOrder,
        ] {
            let o = OrientedGraph::with_strategy(&g, strategy);
            let (mut gallops_hit, mut probes) = (false, false);
            for u in 0..o.n() {
                let (u_nbrs, _) = o.out(u);
                for &v in u_nbrs {
                    let (v_nbrs, _) = o.out(v);
                    if u_nbrs.len() * STAMP_GALLOP_RATIO < v_nbrs.len() {
                        gallops_hit |= u_nbrs.iter().any(|x| v_nbrs.contains(x));
                    } else {
                        probes = true;
                    }
                }
            }
            assert!(gallops_hit && probes, "{strategy:?} misses a kernel arm");
            assert!(o.out(o.n() - 1).0.is_empty(), "the last vertex is a target");
            assert!((0..o.n() - 1).any(|u| o.out(u).0.last() == Some(&(o.n() - 1))));
            assert!((0..o.n()).any(|u| o.out(u).0.len() == 1));
        }
        assert_kernel_matches_references(&g, "hub and fringe");
    }

    #[test]
    fn listing_helpers_agree_with_for_each_triangle() {
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
        let mut listed = Vec::new();
        for_each_triangle(&o, |t| listed.push(t));
        assert_eq!(count_triangles(&o), listed.len() as u64);
        let mut heavy: Vec<Triangle> = listed
            .iter()
            .copied()
            .filter(|t| t.min_weight() >= 10)
            .collect();
        heavy.sort_unstable_by_key(Triangle::vertices);
        assert!(!heavy.is_empty() && heavy.len() < listed.len());
        assert_eq!(crate::survey::triangles_above(&o, 10), heavy);
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
