//! Triangle surveys: thresholded collection with metadata, TriPoll-style.
//!
//! A *survey* streams every triangle past a set of predicates and accumulates
//! both the survivors and summary statistics. The two predicates the paper
//! uses are:
//!
//! * minimum edge weight `min{w'_xy, w'_xz, w'_yz} ≥ θ` (step 2's cutoff —
//!   25 for the anecdotal hunts, 10 for the hexbin figures);
//! * normalized CI coordination score `T(x,y,z) = 3·min{w'}/(P'_x+P'_y+P'_z)
//!   ≥ τ`, which needs per-vertex metadata (`P'` page counts) supplied
//!   alongside the graph.
//!
//! The statistics cover *every* triangle, but step 2 keeps only those that
//! pass the weight cutoff, so the one kernel (`SurveyFold::close`) lists
//! only those: a triangle at or above the cutoff is canonicalised by
//! [`Triangle::new`], scored and kept if it passes the `T` floor; one below
//! it only moves the examined count, the running max and the log2
//! histogram. Every triangle through an edge below the cutoff of weight
//! ≤ 1 lands in bucket 0, so once the max has reached that weight the
//! kernel just counts the edge's hits.
//! [`survey`] is one sequential pass in apex order.

use coordination_graph::intersect::{StampSet, STAMP_GALLOP_RATIO};

use crate::enumerate::{close_wedge, for_each_oriented_edge, for_each_triangle, Row, Triangle};
use crate::orient::OrientedGraph;

/// Survey thresholds and options.
#[derive(Clone, Debug)]
pub struct SurveyConfig {
    /// Keep triangles with `min_weight() >= min_edge_weight`.
    pub min_edge_weight: u64,
    /// Keep triangles with `T(x,y,z) >= min_t_score` (requires `vertex_pages`
    /// to have been passed to [`survey`]). `0.0` disables the predicate.
    pub min_t_score: f64,
    /// If set, retain only the `k` triangles with the largest minimum edge
    /// weight (ties broken by vertex ids for determinism).
    pub top_k: Option<usize>,
}

impl Default for SurveyConfig {
    fn default() -> Self {
        SurveyConfig {
            min_edge_weight: 1,
            min_t_score: 0.0,
            top_k: None,
        }
    }
}

impl SurveyConfig {
    /// Survey with a minimum-edge-weight cutoff only.
    pub fn with_min_weight(min_edge_weight: u64) -> Self {
        SurveyConfig {
            min_edge_weight,
            ..Default::default()
        }
    }
}

/// A surviving triangle plus the survey-time metadata computed for it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SurveyedTriangle {
    /// The triangle and its per-edge weights.
    pub triangle: Triangle,
    /// `min{w'}` — the paper's triangle statistic.
    pub min_weight: u64,
    /// `T(x,y,z)` if vertex page counts were provided, else `NaN`.
    pub t_score: f64,
}

/// Aggregate results of a survey.
#[derive(Clone, Debug, Default)]
pub struct SurveyReport {
    /// Triangles passing all predicates.
    pub triangles: Vec<SurveyedTriangle>,
    /// Total triangles examined (before thresholds).
    pub total_examined: u64,
    /// Largest minimum-edge-weight seen anywhere in the graph.
    pub max_min_weight: u64,
    /// Histogram of `log2(min_weight)` buckets over *all* triangles:
    /// `hist[i]` counts triangles with `min_weight in [2^i, 2^(i+1))`.
    pub min_weight_log_hist: Vec<u64>,
}

impl SurveyReport {
    /// Triangles that passed, as vertex triples.
    pub fn triplets(&self) -> Vec<[u32; 3]> {
        self.triangles
            .iter()
            .map(|s| s.triangle.vertices())
            .collect()
    }

    /// Number of surviving triangles.
    pub fn len(&self) -> usize {
        self.triangles.len()
    }

    /// Whether no triangle survived.
    pub fn is_empty(&self) -> bool {
        self.triangles.is_empty()
    }
}

/// `T(x,y,z) = 3·min{w'} / (P'_x + P'_y + P'_z)`, the paper's Eq. (7).
/// Returns 0 when all three `P'` are 0 (no projection pages — can only happen
/// with inconsistent metadata, but stays in range).
#[inline]
pub fn t_score(min_weight: u64, px: u64, py: u64, pz: u64) -> f64 {
    let denom = px + py + pz;
    if denom == 0 {
        return 0.0;
    }
    3.0 * min_weight as f64 / denom as f64
}

/// Bytes one `out(u)` entry (`u32` target + `u64` weight) takes on the wire.
const WEDGE_ENTRY_BYTES: u64 = 12;

/// The survey fold: what a survey keeps of the triangles its wedges close —
/// the examined count, the largest `min{w'}`, the log2 histogram and the
/// survivors of the predicates. Never the listing.
///
/// Both engines fold into this one type with one kernel, `close`: the
/// resident [`survey`] in its one apex loop, the rank-sharded
/// [`crate::distributed::survey_on_ranks`] on the rank that receives the
/// wedge check. A triangle below the weight cutoff is only *counted*; one at or
/// above it is *listed*: canonicalised, scored, and kept if it passes the
/// `T` floor. Folds merge associatively.
#[derive(Clone, Debug, Default)]
pub(crate) struct SurveyFold {
    kept: Vec<SurveyedTriangle>,
    examined: u64,
    /// Triangles at or above the weight cutoff, kept or not.
    listed: u64,
    max_min: u64,
    /// log2 buckets of `min{w'}`, grown on write: the last one is never 0.
    hist: Vec<u64>,
}

impl SurveyFold {
    /// Close the wedges through one oriented edge `(u, v)` of weight `w_uv`
    /// and fold every triangle `u–v–x`, `x ∈ out(u) ∩ out(v)`, past the
    /// predicates of `config`. `stamps` must hold `out(u)` stamped (and
    /// nothing else); `vertex_pages` is the `P'` metadata of [`survey`].
    ///
    /// An edge below the cutoff of weight ≤ 1, once the largest `min{w'}`
    /// has reached its weight, closes only triangles with `min{w'} ≤ 1`:
    /// below the cutoff, in bucket 0, and no new max. It probes the whole of
    /// `out(v)` against the stamps and adds up the hits, with no branch on
    /// them. Every other edge closes its wedges with [`close_wedge`] (which
    /// gallops when `out(v)` is [`STAMP_GALLOP_RATIO`] times longer than
    /// `out(u)`) and folds each triangle one at a time.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn close(
        &mut self,
        stamps: &StampSet,
        out_u: Row<'_>,
        out_v: Row<'_>,
        [u, v]: [u32; 2],
        w_uv: u64,
        config: &SurveyConfig,
        vertex_pages: Option<&[u64]>,
    ) {
        let (u_nbrs, v_nbrs) = (out_u.0, out_v.0);
        if w_uv < config.min_edge_weight
            && w_uv <= self.max_min.min(1)
            && u_nbrs.len() * STAMP_GALLOP_RATIO >= v_nbrs.len()
        {
            let mut hits = 0;
            stamps.probe_slots(v_nbrs, &mut |slot, bi| {
                debug_assert!(
                    slot == 0 || (v_nbrs[bi] != u && v_nbrs[bi] != v),
                    "triangle vertices must be distinct"
                );
                hits += u64::from(slot != 0);
            });
            if hits > 0 {
                self.examined += hits;
                self.bump(0, hits);
            }
            return;
        }
        close_wedge(stamps, out_u, out_v, &mut |x, w_ux, w_vx| {
            self.observe([u, v, x], [w_uv, w_ux, w_vx], config, vertex_pages)
        });
    }

    /// Stream one triangle past the predicates of `config`, as the raw wedge
    /// that closed it: three distinct vertices in any order and the weights
    /// of edges `(u, v)`, `(u, x)`, `(v, x)`. Every triangle is counted;
    /// only one that passes `min_edge_weight` is canonicalised into a
    /// [`Triangle`].
    #[inline]
    fn observe(
        &mut self,
        [u, v, x]: [u32; 3],
        [w_uv, w_ux, w_vx]: [u64; 3],
        config: &SurveyConfig,
        vertex_pages: Option<&[u64]>,
    ) {
        debug_assert!(
            u != v && v != x && u != x,
            "triangle vertices must be distinct"
        );
        let mw = w_uv.min(w_ux).min(w_vx);
        self.examined += 1;
        self.max_min = self.max_min.max(mw);
        self.bump(63 - mw.max(1).leading_zeros() as usize, 1);
        if mw < config.min_edge_weight {
            return;
        }
        self.listed += 1;
        let t = Triangle::new(u, v, x, w_uv, w_ux, w_vx);
        let ts = match vertex_pages {
            Some(vp) => t_score(mw, vp[t.a as usize], vp[t.b as usize], vp[t.c as usize]),
            None => f64::NAN,
        };
        if config.min_t_score > 0.0 && ts < config.min_t_score {
            return;
        }
        self.kept.push(SurveyedTriangle {
            triangle: t,
            min_weight: mw,
            t_score: ts,
        });
    }

    /// Add `n` triangles to log2 bucket `bucket`.
    #[inline]
    fn bump(&mut self, bucket: usize, n: u64) {
        if self.hist.len() <= bucket {
            self.hist.resize(bucket + 1, 0);
        }
        self.hist[bucket] += n;
    }

    /// Fold `other` into `self`.
    pub(crate) fn merge(&mut self, mut other: SurveyFold) {
        if self.kept.len() < other.kept.len() {
            std::mem::swap(&mut self.kept, &mut other.kept);
        }
        self.kept.append(&mut other.kept);
        self.examined += other.examined;
        self.listed += other.listed;
        self.max_min = self.max_min.max(other.max_min);
        if self.hist.len() < other.hist.len() {
            std::mem::swap(&mut self.hist, &mut other.hist);
        }
        for (x, y) in self.hist.iter_mut().zip(other.hist) {
            *x += y;
        }
    }

    /// Triangles streamed past the fold.
    pub(crate) fn examined(&self) -> u64 {
        self.examined
    }

    /// Triangles counted without being canonicalised: those below the
    /// weight cutoff.
    pub(crate) fn counted(&self) -> u64 {
        self.examined - self.listed
    }

    /// The survivors, in the order their wedges closed.
    pub(crate) fn survivors(&self) -> &[SurveyedTriangle] {
        &self.kept
    }

    /// The finished report: survivors sorted by vertex triple (or the
    /// `top_k` heaviest, ties by vertex ids).
    pub(crate) fn into_report(self, top_k: Option<usize>) -> SurveyReport {
        let mut triangles = self.kept;
        if let Some(k) = top_k {
            triangles.sort_unstable_by(|x, y| {
                y.min_weight
                    .cmp(&x.min_weight)
                    .then_with(|| x.triangle.vertices().cmp(&y.triangle.vertices()))
            });
            triangles.truncate(k);
        } else {
            triangles.sort_unstable_by_key(|s| s.triangle.vertices());
        }
        SurveyReport {
            triangles,
            total_examined: self.examined,
            max_min_weight: self.max_min,
            min_weight_log_hist: self.hist,
        }
    }
}

/// The survey's [`obs`] counters, defined once for both engines:
/// `survey.triangles_examined` / `survey.triangles_kept`,
/// `survey.triangles_counted` (below the cutoff, never canonicalised), the
/// wedge checks made (one per oriented edge) and
/// `survey.wedge_list_bytes` — the bytes of `out(u)` lists a network
/// transport would ship, 12 B per entry once per distinct
/// `(u, owner_of(v))`; `wedge_list_entries` is that entry count.
pub(crate) fn record_counters(fold: &SurveyFold, wedge_checks: u64, wedge_list_entries: u64) {
    obs::counter("survey.triangles_examined").add(fold.examined());
    obs::counter("survey.triangles_kept").add(fold.survivors().len() as u64);
    obs::counter("survey.triangles_counted").add(fold.counted());
    obs::counter("survey.wedge_checks").add(wedge_checks);
    obs::counter("survey.wedge_list_bytes").add(WEDGE_ENTRY_BYTES * wedge_list_entries);
}

/// Run a survey over every triangle of `oriented`.
///
/// `vertex_pages`, when given, must map vertex id → `P'` (the number of pages
/// that contributed a projection edge at that vertex, paper Eq. (6)); it is
/// required if `config.min_t_score > 0`.
pub fn survey(
    oriented: &OrientedGraph,
    config: &SurveyConfig,
    vertex_pages: Option<&[u64]>,
) -> SurveyReport {
    let _stage = obs::span("survey");
    assert!(
        config.min_t_score <= 0.0 || vertex_pages.is_some(),
        "min_t_score requires vertex_pages metadata"
    );
    if let Some(vp) = vertex_pages {
        assert_eq!(
            vp.len(),
            oriented.n() as usize,
            "vertex_pages length mismatch"
        );
    }

    let mut fold = SurveyFold::default();
    for_each_oriented_edge(oriented, |stamps, out_u, out_v, uv, w_uv| {
        fold.close(stamps, out_u, out_v, uv, w_uv, config, vertex_pages)
    });

    // One rank owns every vertex here, so each out-list would travel once.
    // The kept count is the predicates' survivors, before any `top_k`.
    record_counters(&fold, oriented.m(), oriented.m());
    let report = fold.into_report(config.top_k);
    obs::record_stage_rss("survey");
    report
}

/// Convenience: all triangles with `min_weight >= cutoff`, sorted by vertices.
pub fn triangles_above(oriented: &OrientedGraph, cutoff: u64) -> Vec<Triangle> {
    let mut above = Vec::new();
    for_each_triangle(oriented, |t| {
        if t.min_weight() >= cutoff {
            above.push(t);
        }
    });
    above.sort_unstable_by_key(Triangle::vertices);
    above
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::WeightedGraph;

    /// Two triangles: one heavy (min 10), one light (min 2), sharing vertex 2.
    fn two_triangle_graph() -> WeightedGraph {
        WeightedGraph::from_edges(
            5,
            [
                (0, 1, 10),
                (0, 2, 12),
                (1, 2, 15),
                (2, 3, 2),
                (2, 4, 3),
                (3, 4, 5),
            ],
        )
    }

    #[test]
    fn min_weight_cutoff_filters() {
        let g = two_triangle_graph();
        let o = OrientedGraph::from_graph(&g);
        let rep = survey(&o, &SurveyConfig::with_min_weight(5), None);
        assert_eq!(rep.total_examined, 2);
        assert_eq!(rep.len(), 1);
        assert_eq!(rep.triangles[0].triangle.vertices(), [0, 1, 2]);
        assert_eq!(rep.triangles[0].min_weight, 10);
        assert!(rep.triangles[0].t_score.is_nan());
        assert_eq!(rep.max_min_weight, 10);
    }

    #[test]
    fn t_score_matches_formula_and_range() {
        assert_eq!(t_score(5, 5, 5, 5), 1.0);
        assert_eq!(t_score(0, 5, 5, 5), 0.0);
        assert!((t_score(2, 4, 4, 4) - 0.5).abs() < 1e-12);
        assert_eq!(t_score(1, 0, 0, 0), 0.0);
    }

    #[test]
    fn t_score_threshold_uses_vertex_metadata() {
        let g = two_triangle_graph();
        let o = OrientedGraph::from_graph(&g);
        // P' such that heavy triangle scores 3*10/(12+12+12)=0.833,
        // light scores 3*2/(12+12+12)=0.167
        let pages = vec![12u64; 5];
        let rep = survey(
            &o,
            &SurveyConfig {
                min_edge_weight: 1,
                min_t_score: 0.5,
                top_k: None,
            },
            Some(&pages),
        );
        assert_eq!(rep.len(), 1);
        assert_eq!(rep.triangles[0].triangle.vertices(), [0, 1, 2]);
        assert!((rep.triangles[0].t_score - 10.0 * 3.0 / 36.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "requires vertex_pages")]
    fn t_threshold_without_metadata_panics() {
        let g = two_triangle_graph();
        let o = OrientedGraph::from_graph(&g);
        survey(
            &o,
            &SurveyConfig {
                min_edge_weight: 1,
                min_t_score: 0.5,
                top_k: None,
            },
            None,
        );
    }

    #[test]
    fn top_k_orders_by_min_weight_desc() {
        let g = two_triangle_graph();
        let o = OrientedGraph::from_graph(&g);
        let top_k_by_min_weight = |o: &OrientedGraph, k: usize| {
            let config = SurveyConfig {
                min_edge_weight: 1,
                min_t_score: 0.0,
                top_k: Some(k),
            };
            survey(o, &config, None).triangles
        };
        let top = top_k_by_min_weight(&o, 1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].min_weight, 10);
        let top2 = top_k_by_min_weight(&o, 10);
        assert_eq!(top2.len(), 2);
        assert!(top2[0].min_weight >= top2[1].min_weight);
    }

    #[test]
    fn log_histogram_buckets_by_power_of_two() {
        let g = two_triangle_graph();
        let o = OrientedGraph::from_graph(&g);
        let rep = survey(&o, &SurveyConfig::default(), None);
        // min weights are 10 (bucket 3: [8,16)) and 2 (bucket 1: [2,4))
        assert_eq!(rep.min_weight_log_hist.len(), 4);
        assert_eq!(rep.min_weight_log_hist[1], 1);
        assert_eq!(rep.min_weight_log_hist[3], 1);
        assert_eq!(rep.min_weight_log_hist.iter().sum::<u64>(), 2);
    }

    #[test]
    fn triangles_above_matches_survey() {
        let g = two_triangle_graph();
        let o = OrientedGraph::from_graph(&g);
        let ts = triangles_above(&o, 2);
        assert_eq!(ts.len(), 2);
        let ts = triangles_above(&o, 11);
        assert!(ts.is_empty());
    }

    #[test]
    fn observe_keeps_one_canonical_triangle_for_all_six_wedge_orders() {
        // vertices 5, 2, 9 with w_25 = 4, w_59 = 7, w_29 = 3
        let w = |a: u32, b: u32| match (a.min(b), a.max(b)) {
            (2, 5) => 4u64,
            (5, 9) => 7,
            (2, 9) => 3,
            _ => unreachable!(),
        };
        let pages: Vec<u64> = (0..10).map(|v| 3 + 2 * v).collect();
        let keep_all = SurveyConfig {
            min_edge_weight: 3,
            min_t_score: 0.05,
            top_k: None,
        };
        let orders = [
            [2, 5, 9],
            [2, 9, 5],
            [5, 2, 9],
            [5, 9, 2],
            [9, 2, 5],
            [9, 5, 2],
        ];
        let (mut kept, mut dropped) = (SurveyFold::default(), SurveyFold::default());
        // listed, then dropped by the `T` floor: not counted
        let mut floored = SurveyFold::default();
        let floor_all = SurveyConfig {
            min_t_score: 1.0,
            ..keep_all.clone()
        };
        for [u, v, x] in orders {
            let weights = [w(u, v), w(u, x), w(v, x)];
            // what canonicalising first, then reading the triangle, gives
            let t = Triangle::new(u, v, x, weights[0], weights[1], weights[2]);
            let want = SurveyedTriangle {
                triangle: t,
                min_weight: t.min_weight(),
                t_score: t_score(t.min_weight(), pages[2], pages[5], pages[9]),
            };
            assert_eq!(t.edge_weights(), [4, 3, 7]);
            kept.observe([u, v, x], weights, &keep_all, Some(&pages));
            assert_eq!(kept.survivors().last(), Some(&want), "order {u} {v} {x}");
            dropped.observe([u, v, x], weights, &SurveyConfig::with_min_weight(4), None);
            floored.observe([u, v, x], weights, &floor_all, Some(&pages));
        }
        assert_eq!(kept.counted(), 0);
        assert_eq!((floored.examined(), floored.counted()), (6, 0));
        assert!(floored.survivors().is_empty());
        // Below the cutoff a triangle is counted, never canonicalised or kept.
        assert_eq!(dropped.examined(), 6);
        assert_eq!(dropped.counted(), 6);
        assert_eq!(dropped.max_min, 3);
        assert_eq!(dropped.hist, [0, 6]);
        assert!(dropped.survivors().is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "distinct")]
    fn observe_rejects_a_degenerate_wedge_it_would_only_count() {
        let below_cutoff = SurveyConfig::with_min_weight(10);
        SurveyFold::default().observe([1, 2, 1], [1, 1, 1], &below_cutoff, None);
    }

    /// Close the one wedge `u–v–x` as the kernel sees it: `out(u) = {v, x}`
    /// stamped (one entry if `x = v`), `out(v) = {x}`, each sorted by id.
    fn close_one(
        fold: &mut SurveyFold,
        [u, v, x]: [u32; 3],
        [w_uv, w_ux, w_vx]: [u64; 3],
        config: &SurveyConfig,
    ) {
        let mut out_u = vec![(v, w_uv), (x, w_ux)];
        out_u.sort_unstable();
        out_u.dedup_by_key(|&mut (y, _)| y);
        let (u_nbrs, u_ws): (Vec<u32>, Vec<u64>) = out_u.into_iter().unzip();
        let mut stamps = StampSet::new(16);
        stamps.stamp(&u_nbrs);
        let out_v = (&[x][..], &[w_vx][..]);
        fold.close(&stamps, (&u_nbrs, &u_ws), out_v, [u, v], w_uv, config, None);
    }

    #[test]
    fn close_counts_the_wedges_of_a_light_edge_below_the_cutoff() {
        let below_cutoff = SurveyConfig::with_min_weight(10);
        let mut fold = SurveyFold::default();
        // The first wedge of weight 1 raises the max to 1, so the rest take
        // the arm that only counts hits.
        for x in [3, 4, 5] {
            close_one(&mut fold, [1, 2, x], [1, 6, 7], &below_cutoff);
        }
        close_one(&mut fold, [1, 2, 3], [0, 6, 7], &below_cutoff);
        assert_eq!(fold.examined(), 4);
        assert_eq!(fold.counted(), 4);
        assert_eq!(fold.max_min, 1);
        assert_eq!(fold.hist, [4]);
        assert!(fold.survivors().is_empty());
    }

    /// Close `wedge` below the cutoff and expect the debug check's panic: a
    /// wedge of weight 0 takes the arm that only counts hits, one of weight
    /// 3 the arm that observes each triangle.
    #[cfg(debug_assertions)]
    fn assert_close_rejects(wedge: [u32; 3], weights: [u64; 3]) {
        let below_cutoff = SurveyConfig::with_min_weight(10);
        let closed = std::panic::catch_unwind(|| {
            close_one(&mut SurveyFold::default(), wedge, weights, &below_cutoff)
        });
        let err = closed.expect_err("a degenerate wedge must not be counted");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| err.downcast_ref::<String>().map(String::as_str));
        assert!(
            msg.is_some_and(|m| m.contains("distinct")),
            "{wedge:?} {weights:?}: {msg:?}"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    fn close_rejects_a_degenerate_wedge_on_either_arm() {
        for wedge in [[1, 2, 1], [1, 2, 2]] {
            assert_close_rejects(wedge, [0; 3]);
            assert_close_rejects(wedge, [3; 3]);
        }
    }

    #[test]
    fn empty_graph_survey_is_empty() {
        let g = WeightedGraph::from_edges(3, std::iter::empty());
        let o = OrientedGraph::from_graph(&g);
        let rep = survey(&o, &SurveyConfig::default(), None);
        assert!(rep.is_empty());
        assert_eq!(rep.total_examined, 0);
        assert_eq!(rep.max_min_weight, 0);
        assert!(rep.min_weight_log_hist.is_empty());
    }
}
