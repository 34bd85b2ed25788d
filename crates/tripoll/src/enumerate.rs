//! Triangle enumeration by stamp-and-probe wedge closing.
//!
//! With the graph oriented by degree order, every triangle `{a, b, c}` appears
//! exactly once: at its lowest-order vertex `u` (the wedge *apex*), as an
//! oriented edge `(u, v)` and a third vertex `x ∈ out(u) ∩ out(v)`. Every `v`
//! of one apex intersects the *same* `out(u)`, so the one apex loop
//! (`for_each_oriented_edge`) stamps `out(u)` into a dense per-vertex
//! scratch once ([`coordination_graph::intersect::StampSet`]) and hands each
//! oriented edge to a kernel that probes `out(v)` against it: `Σ |out(v)|`
//! loads over all oriented edges, and nothing per element of `out(u)` beyond
//! the stamp itself. When `out(v)` is far longer than `out(u)` (id-order
//! orientation, hub-and-fringe graphs) the kernel gallops through it from
//! `out(u)`'s side instead — `O(|out(u)| · log |out(v)|)`.
//!
//! The kernel, [`close_wedge`], hands over every triangle through the edge:
//! [`for_each_triangle`] and [`crate::survey::triangles_above`] list them,
//! and the survey's `SurveyFold::close` folds them — except on a light edge
//! below its cutoff, whose hits it only counts. Everything here is one
//! sequential pass in apex order.

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

/// One out-list read in place: targets and weights.
pub(crate) type Row<'a> = (&'a [u32], &'a [u64]);

/// The one apex loop of the crate: hand `f` every oriented edge `(u, v)` of
/// `oriented` as `(stamps, out(u), out(v), [u, v], w_uv)` with `out(u)`
/// stamped, in apex order, then `out(u)` order of `v`. One [`StampSet`] for
/// the whole pass, stamped and cleared per apex. The survey closes each edge
/// with `SurveyFold::close`, the listing helpers with [`close_wedge`].
pub(crate) fn for_each_oriented_edge<F>(oriented: &OrientedGraph, mut f: F)
where
    F: FnMut(&StampSet, Row<'_>, Row<'_>, [u32; 2], u64),
{
    let mut stamps = StampSet::new(oriented.n() as usize);
    for u in 0..oriented.n() {
        let out_u = oriented.out(u);
        stamps.stamp(out_u.0);
        for (&v, &w_uv) in out_u.0.iter().zip(out_u.1) {
            f(&stamps, out_u, oriented.out(v), [u, v], w_uv);
        }
        stamps.unstamp(out_u.0);
    }
}

/// Stream every triangle of `oriented` through `f` as the raw wedge that
/// closed it — vertices `[u, v, x]` (apex, the oriented edge's head, the
/// common out-neighbour) and weights `[w_uv, w_ux, w_vx]`, the argument
/// order of [`Triangle::new`] — in apex order, then `out(u)` order of `v`,
/// then ascending `x`.
fn for_each_wedge<F>(oriented: &OrientedGraph, mut f: F)
where
    F: FnMut([u32; 3], [u64; 3]),
{
    for_each_oriented_edge(oriented, |stamps, out_u, out_v, [u, v], w_uv| {
        close_wedge(stamps, out_u, out_v, &mut |x, w_ux, w_vx| {
            f([u, v, x], [w_uv, w_ux, w_vx])
        });
    });
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
/// (and nothing else). The one wedge-closing kernel of the crate:
/// [`for_each_triangle`] and [`crate::survey::triangles_above`] close every
/// wedge with it, and the survey's `SurveyFold::close` (in both engines)
/// every wedge but those of a light edge below the cutoff.
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
    use crate::fixtures::level_configs;
    use crate::graph::WeightedGraph;
    use crate::survey::SurveyConfig;
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
    /// [`close_wedge`] is `intersect_indices_linear`'s, and the survey's
    /// kernel is a fold over `brute_force_triangles`, field for
    /// field, `T` bits included — resident, and rank-sharded at 1, 2 and 3
    /// ranks and one check per batch — for each `configs` entry (a config,
    /// and whether it reads [`crate::fixtures::pages_for`] as `P'`).
    fn assert_kernel_matches_references(
        g: &WeightedGraph,
        configs: impl IntoIterator<Item = (SurveyConfig, bool)>,
        what: &str,
    ) {
        use crate::distributed::{survey_on_ranks, ONE_CHECK};
        use crate::fixtures::{brute_force_fields, fields, pages_for};
        use crate::orient::OrientationStrategy;
        use crate::survey::survey;
        use coordination_graph::intersect_indices_linear;

        let pages = pages_for(g);
        let brute = brute_force_triangles(g);
        let expected: Vec<_> = configs
            .into_iter()
            .map(|(config, with_pages)| {
                let vertex_pages = with_pages.then_some(&pages[..]);
                let want = brute_force_fields(&brute, &config, vertex_pages);
                (config, vertex_pages, want)
            })
            .collect();
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

            for (config, vertex_pages, want) in &expected {
                let what = format!("{what}, {config:?}, P' {}", vertex_pages.is_some());
                assert_eq!(fields(&survey(&o, config, *vertex_pages)), *want, "{what}");
                for (nranks, batch) in [(1, None), (2, None), (3, None), (2, ONE_CHECK)] {
                    let (got, _) = survey_on_ranks(&o, config, *vertex_pages, nranks, batch);
                    assert_eq!(
                        fields(&got),
                        *want,
                        "{what}, {nranks} ranks, batch {batch:?}"
                    );
                }
            }
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
            // Every cutoff, a `T` floor and `top_k` variant each (5 is
            // coprime to the 6 variants per cutoff).
            let configs = level_configs(&g).into_iter().step_by(5);
            let what = format!("trial {trial} (n={n}, p={p})");
            assert_kernel_matches_references(&g, configs, &what);
        }
    }

    #[test]
    fn matches_brute_force_at_every_level_and_cutoff() {
        use crate::fixtures::{level_graph, LEVEL_WEIGHTS};
        for seed in 0..6 {
            let g = level_graph(16, 0.5, seed);
            assert_kernel_matches_references(&g, level_configs(&g), &format!("levels {seed}"));
        }
        // Every edge of one weight: 0 (triangles examined in bucket 0, the
        // largest `min{w'}` 0), 1, and the top of the range.
        let k5 = |w: u64| {
            let edges = (0..5u32).flat_map(|i| ((i + 1)..5).map(move |j| (i, j, w)));
            WeightedGraph::from_edges(5, edges)
        };
        for w in LEVEL_WEIGHTS {
            let g = k5(w);
            assert_kernel_matches_references(&g, level_configs(&g), &format!("K5 of {w}"));
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
        // Every other cutoff, the `T` floor and `top_k` variants in turn: the
        // graph is large for a debug build.
        let configs = level_configs(&g).into_iter().step_by(7);
        assert_kernel_matches_references(&g, configs, "hub and fringe");
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
