//! Rank-sharded triangle surveying over the [`ygm`] runtime.
//!
//! [`survey_on_ranks`] reproduces the *communication structure* of real
//! TriPoll's push-based algorithm over a resident orientation: the rank
//! owning wedge apex `u` (by `owner_of`) pushes, for each oriented edge
//! `(u, v)`, a *wedge check* to the owner of `v`, which probes `out(v)`
//! against the stamped `out(u)` and **folds** every triangle it closes into
//! its own `SurveyFold` — counters and survivors, never the listing. A
//! single barrier separates the push superstep from reading the folds,
//! which merge into the report.
//!
//! It is the resident survey ([`crate::survey::survey`]) run where the data
//! lives, not a second implementation of it: the same fold and its one
//! kernel (`SurveyFold::close`: count below the cutoff, list at or above
//! it). Every rank reads the orientation and `P'` in place, borrowed for
//! the world's lifetime, so no rank copies its rows. Each rank keeps the
//! kernel's stamp scratch (4 B per vertex id, allocated before any rank
//! starts): an apex's checks arrive back to back, so its handler stamps
//! `out(u)` when the apex changes and leaves the scratch all-clear when it
//! returns — batches from different senders interleave, and the next one
//! must find nothing of this one. What the ranks add is the 16-byte wedge
//! check per oriented edge, shipped through [`PackedAggregator`] like every
//! other shuffle of the pipeline. In this one-process world `out(u)` itself
//! travels *by reference* (the closing rank reads it out of the shared
//! orientation); the `survey.wedge_list_bytes` counter records what a
//! network transport would have to ship in its place.

use std::sync::{Mutex, MutexGuard, PoisonError};

use coordination_graph::intersect::StampSet;
use ygm::partition::owner_of;
use ygm::{adaptive_batch_bytes, Packable, PackedAggregator, PackedBatch, RankCtx, World};

use crate::enumerate::{Row, Triangle};
use crate::orient::OrientedGraph;
use crate::survey::{record_counters, SurveyConfig, SurveyFold, SurveyReport};

/// One wedge check on the wire: close the wedges through oriented edge
/// `(u, v)` of weight `w_uv` at the owner of `v`. 16 B on the wire.
type WedgeCheck = (u32, u32, u64);

/// Lock a rank's state, recovering it if a rank panicked while holding it:
/// that panic already ends the world, which re-raises it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What one rank accumulates: the fold of the wedges it closed, and the
/// traffic of the wedge checks it sent. Cache-line aligned: each rank bumps
/// its own fold per triangle, and adjacent ranks must not share a line.
#[derive(Default)]
#[repr(align(64))]
struct RankState {
    fold: SurveyFold,
    /// The wedge kernel's scratch over `0..n`, all-clear between received
    /// batches.
    stamps: StampSet,
    wedge_checks: u64,
    wedge_list_entries: u64,
}

/// One rank-sharded survey: what every rank reads in place (the
/// orientation, the predicates, `P'`) and the state each rank folds into,
/// locked by its own rank only, once per received batch. It serves one
/// survey:
///
/// ```text
/// survey_stage(ctx, &survey, None);  ctx.barrier();
/// let fold = survey.take_fold(ctx);
/// ```
struct DistSurvey<'a> {
    oriented: &'a OrientedGraph,
    config: &'a SurveyConfig,
    pages: Option<&'a [u64]>,
    states: Vec<Mutex<RankState>>,
}

impl<'a> DistSurvey<'a> {
    /// A survey of `oriented` over `nranks` ranks with the predicates of
    /// `config` (`top_k` is the caller's to apply, via
    /// [`SurveyFold::into_report`]); `pages` (vertex id → `P'`) is required
    /// if the config has a `min_t_score`.
    ///
    /// Panics here, on the calling thread and before any rank starts, if
    /// `pages` is not `oriented.n()` long: the wedge handler indexes it, and
    /// a panic in a handler ends the whole world.
    fn new(
        oriented: &'a OrientedGraph,
        config: &'a SurveyConfig,
        pages: Option<&'a [u64]>,
        nranks: usize,
    ) -> Self {
        assert!(
            config.min_t_score <= 0.0 || pages.is_some(),
            "min_t_score requires vertex_pages metadata"
        );
        let n = oriented.n() as usize;
        if let Some(vp) = pages {
            assert_eq!(vp.len(), n, "vertex_pages length mismatch");
        }
        // Allocated before any rank starts: a peer's first wedge check can
        // reach a rank before that rank has sent one.
        let states = (0..nranks)
            .map(|_| {
                Mutex::new(RankState {
                    stamps: StampSet::new(n),
                    ..RankState::default()
                })
            })
            .collect();
        DistSurvey {
            oriented,
            config,
            pages,
            states,
        }
    }

    /// This rank's fold, once the barrier after [`survey_stage`] has drained
    /// every wedge check. Records this rank's share of the survey counters.
    fn take_fold(&self, ctx: &RankCtx<'_>) -> SurveyFold {
        let state = std::mem::take(&mut *lock(&self.states[ctx.rank()]));
        debug_assert!(state.stamps.is_clear(), "a handler left a stamp behind");
        record_counters(&state.fold, state.wedge_checks, state.wedge_list_entries);
        state.fold
    }
}

/// The TriPoll push superstep: for each apex `u` this rank owns and
/// oriented edge `(u, v)`, ship a wedge check to the owner of `v`, which
/// closes the wedges `out(u) ∩ out(v)` and folds each triangle exactly once
/// (on the closing rank).
///
/// `batch_bytes` overrides the [`adaptive_batch_bytes`] flush threshold
/// (equivalence tests shrink it to one check per batch).
///
/// The caller must follow with `ctx.barrier()` before
/// [`DistSurvey::take_fold`] — wedge checks are only guaranteed delivered
/// once the barrier's termination detection has drained them.
fn survey_stage<'env>(
    ctx: &RankCtx<'env>,
    survey: &'env DistSurvey<'_>,
    batch_bytes: Option<usize>,
) {
    let (rank, nranks) = (ctx.rank(), ctx.nranks());
    let &DistSurvey {
        oriented,
        config,
        pages,
        ref states,
    } = survey;
    let mut checks = PackedAggregator::with_batch_bytes(
        ctx,
        "wedge_checks",
        batch_bytes.unwrap_or_else(|| adaptive_batch_bytes(WedgeCheck::WIDTH, nranks)),
        move |inner: &RankCtx<'env>, batch: PackedBatch<WedgeCheck>| {
            let mut state = lock(&states[inner.rank()]);
            let RankState { fold, stamps, .. } = &mut *state;
            // An apex's checks arrive back to back: look its row up, and
            // stamp it, once.
            let mut apex: Option<(u32, Row)> = None;
            for (u, v, w_uv) in batch.iter() {
                let out_u = match apex {
                    Some((cached, out)) if cached == u => out,
                    _ => {
                        if let Some((_, stale)) = apex {
                            stamps.unstamp(stale.0);
                        }
                        let out = oriented.out(u);
                        stamps.stamp(out.0);
                        apex = Some((u, out));
                        out
                    }
                };
                fold.close(stamps, out_u, oriented.out(v), [u, v], w_uv, config, pages);
            }
            // Batches from different senders interleave here, so every batch
            // starts from, and leaves, an all-clear scratch.
            if let Some((_, last)) = apex {
                stamps.unstamp(last.0);
            }
        },
    );

    let (mut sent, mut list_entries) = (0u64, 0u64);
    // `apex_of[dest]` = last apex that sent `dest` a check: one out-list
    // would travel per distinct (u, owner_of(v)). No id is `u32::MAX`.
    let mut apex_of = vec![u32::MAX; nranks];
    for u in (0..oriented.n()).filter(|u| owner_of(u, nranks) == rank) {
        let (targets, weights) = oriented.out(u);
        for (&v, &w_uv) in targets.iter().zip(weights) {
            let dest = owner_of(&v, nranks);
            if apex_of[dest] != u {
                apex_of[dest] = u;
                list_entries += targets.len() as u64;
            }
            checks.push(ctx, dest, (u, v, w_uv));
        }
        sent += targets.len() as u64;
    }
    checks.flush_all(ctx);
    let mut state = lock(&states[rank]);
    state.wedge_checks += sent;
    state.wedge_list_entries += list_entries;
}

/// Survey a resident orientation on `nranks` ygm ranks: the rank-sharded
/// twin of [`crate::survey::survey`], equal to it field for field. Each rank
/// pushes the wedge checks of the apexes `owner_of` assigns it, reading
/// `oriented` and `vertex_pages` in place; `batch_bytes` overrides the
/// checks' [`adaptive_batch_bytes`] flush threshold (tests shrink it to one
/// check per batch). Each rank records its work as the resident survey does
/// — a `survey` span and its share of the `survey.*` counters — on its own
/// thread. Also returns the active messages the run sent (a proxy for MPI
/// traffic).
///
/// # Panics
/// On the calling thread, before any rank starts, if `vertex_pages` is not
/// `oriented.n()` long ("vertex_pages length mismatch") or is missing under
/// a `min_t_score` ("min_t_score requires vertex_pages metadata").
pub fn survey_on_ranks(
    oriented: &OrientedGraph,
    config: &SurveyConfig,
    vertex_pages: Option<&[u64]>,
    nranks: usize,
    batch_bytes: Option<usize>,
) -> (SurveyReport, u64) {
    let survey = DistSurvey::new(oriented, config, vertex_pages, nranks);
    let per_rank = World::run(nranks, |ctx| {
        let _stage = obs::span("survey");
        survey_stage(ctx, &survey, batch_bytes);
        ctx.barrier();
        (survey.take_fold(ctx), ctx.messages_sent())
    });
    let mut fold = SurveyFold::default();
    let mut messages_sent = 0;
    for (rank_fold, sent) in per_rank {
        fold.merge(rank_fold);
        messages_sent = messages_sent.max(sent);
    }
    obs::record_stage_rss("survey");
    (fold.into_report(config.top_k), messages_sent)
}

/// One wedge check per batch, as a [`survey_on_ranks`] `batch_bytes`: every
/// check restamps its apex, apex rows from different senders interleave at
/// the closing rank, and every batch must start from the all-clear scratch
/// the last one left.
#[cfg(test)]
pub(crate) const ONE_CHECK: Option<usize> = Some(WedgeCheck::WIDTH);

/// Result of a distributed survey.
#[derive(Clone, Debug)]
pub struct DistSurveyResult {
    /// Triangles with `min_weight >= cutoff`, sorted by vertex triple.
    pub triangles: Vec<Triangle>,
    /// Total triangles in the graph (before the cutoff).
    pub total_triangles: u64,
    /// Total active messages the run sent (a proxy for MPI traffic).
    pub messages_sent: u64,
}

/// Enumerate all triangles with minimum edge weight `>= cutoff` using
/// `nranks` ygm ranks.
pub fn distributed_survey(
    oriented: &OrientedGraph,
    cutoff: u64,
    nranks: usize,
) -> DistSurveyResult {
    let (report, messages_sent) = survey_on_ranks(
        oriented,
        &SurveyConfig::with_min_weight(cutoff),
        None,
        nranks,
        None,
    );
    DistSurveyResult {
        triangles: report.triangles.iter().map(|s| s.triangle).collect(),
        total_triangles: report.total_examined,
        messages_sent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::brute_force_triangles;
    use crate::fixtures::{
        brute_force_fields, fields, hub_and_fringe, level_configs, level_graph, pages_for,
        random_graph, LEVEL_WEIGHTS,
    };
    use crate::graph::WeightedGraph;
    use crate::orient::OrientationStrategy;
    use crate::survey::survey;
    use coordination_graph::intersect::STAMP_GALLOP_RATIO;
    use proptest::prelude::*;

    /// The rank-sharded survey equals the resident one field for field, and
    /// both the fold over the O(n³) reference listing, at every rank count,
    /// batched adaptively and one check per batch, under both orientations,
    /// for every `step`-th of the level configs (the cutoffs, each `T` floor
    /// and `top_k` variant in turn).
    fn assert_equals_resident(g: &WeightedGraph, step: usize, what: &str) {
        let pages = pages_for(g);
        let brute = brute_force_triangles(g);
        for strategy in [
            OrientationStrategy::DegreeOrder,
            OrientationStrategy::IdOrder,
        ] {
            let o = OrientedGraph::with_strategy(g, strategy);
            for (config, with_pages) in level_configs(g).into_iter().step_by(step) {
                let vertex_pages = with_pages.then_some(&pages[..]);
                let want = fields(&survey(&o, &config, vertex_pages));
                let what = format!("{what}, {strategy:?}, {config:?}, P' {with_pages}");
                assert_eq!(
                    want,
                    brute_force_fields(&brute, &config, vertex_pages),
                    "{what}"
                );
                for nranks in [1, 2, 3, 7] {
                    for batch_bytes in [None, ONE_CHECK] {
                        let (got, _) =
                            survey_on_ranks(&o, &config, vertex_pages, nranks, batch_bytes);
                        let what = format!("{what}, {nranks} ranks, batch {batch_bytes:?}");
                        assert_eq!(fields(&got), want, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn rank_sharded_survey_equals_resident_on_random_graphs() {
        for seed in 0..4 {
            assert_equals_resident(&random_graph(40, 0.25, seed), 5, &format!("seed {seed}"));
        }
    }

    #[test]
    fn rank_sharded_survey_equals_resident_at_every_level() {
        for seed in 0..4 {
            assert_equals_resident(&level_graph(16, 0.5, seed), 5, &format!("levels {seed}"));
        }
    }

    #[test]
    fn rank_sharded_survey_equals_resident_on_every_kernel_shape() {
        // Galloping wedges, near-identical consecutive apex rows, apexes of
        // out-degree 0 and 1, the highest id as a target: see the fixture
        // (`enumerate`'s tests assert it reaches both arms of the kernel).
        let g = hub_and_fringe();
        let o = OrientedGraph::from_graph(&g);
        let skewed = (0..o.n()).any(|u| {
            let (nbrs, _) = o.out(u);
            nbrs.iter()
                .any(|&v| nbrs.len() * STAMP_GALLOP_RATIO < o.out(v).0.len())
        });
        assert!(skewed, "the graph must put a wedge on the galloping branch");
        // Every third cutoff: the graph is large for a debug build.
        assert_equals_resident(&g, 17, "hub and fringe");
    }

    #[test]
    #[should_panic(expected = "vertex_pages length mismatch")]
    fn a_short_replica_panics_before_any_rank_starts() {
        let o = OrientedGraph::from_graph(&random_graph(20, 0.4, 1));
        let pages = vec![1; o.n() as usize - 1];
        survey_on_ranks(&o, &SurveyConfig::default(), Some(&pages), 2, None);
    }

    #[test]
    fn rank_sharded_survey_equals_resident_on_degenerate_graphs() {
        assert_equals_resident(
            &WeightedGraph::from_edges(0, std::iter::empty()),
            5,
            "empty",
        );
        assert_equals_resident(
            &WeightedGraph::from_edges(6, std::iter::empty()),
            5,
            "edgeless",
        );
        // Zero weights: every triangle is examined, in bucket 0, and the
        // largest `min{w'}` is 0, whatever the cutoff.
        let zero =
            WeightedGraph::from_edges(4, (0..4).flat_map(|a| ((a + 1)..4).map(move |b| (a, b, 0))));
        assert_equals_resident(&zero, 1, "zero weights");
        for cutoff in [0, 1, 5] {
            let config = SurveyConfig::with_min_weight(cutoff);
            let (report, _) =
                survey_on_ranks(&OrientedGraph::from_graph(&zero), &config, None, 2, None);
            let got = (
                report.total_examined,
                report.max_min_weight,
                report.min_weight_log_hist,
            );
            assert_eq!(got, (4, 0, vec![4]), "cutoff {cutoff}");
            assert_eq!(report.triangles.len(), if cutoff == 0 { 4 } else { 0 });
        }
        // Weights at the top of the range land in the last histogram bucket.
        let max =
            WeightedGraph::from_edges(3, [(0, 1, u64::MAX), (0, 2, u64::MAX), (1, 2, u64::MAX)]);
        assert_equals_resident(&max, 5, "u64::MAX weights");
        let (report, _) = survey_on_ranks(
            &OrientedGraph::from_graph(&max),
            &SurveyConfig::default(),
            None,
            2,
            None,
        );
        assert_eq!(report.min_weight_log_hist.len(), 64);
        assert_eq!(report.min_weight_log_hist[63], 1);
    }

    #[test]
    fn rank_sharded_survey_equals_resident_when_every_out_list_is_ghosts() {
        // One triangle whose three vertices live on three different ranks:
        // each out-list names only vertices some other rank owns.
        let nranks = 3;
        let mut on_rank = [None; 3];
        for v in 0..64u32 {
            on_rank[owner_of(&v, nranks)].get_or_insert(v);
        }
        let [a, b, c] = on_rank.map(|v| v.expect("64 ids cover three ranks"));
        let g = WeightedGraph::from_edges(64, [(a, b, 5), (a, c, 7), (b, c, 9)]);
        let o = OrientedGraph::from_graph(&g);
        let ghosts_only = (0..o.n()).all(|u| {
            let mine = owner_of(&u, nranks);
            o.out(u).0.iter().all(|v| owner_of(v, nranks) != mine)
        });
        assert!(ghosts_only && o.m() == 3);
        assert_equals_resident(&g, 5, "one triangle across three ranks");
    }

    #[test]
    fn folds_hold_survivors_only() {
        // The materialisation must not creep back: after the stage, what the
        // ranks hold between them is the kept triangles, not the examined.
        let g = random_graph(60, 0.3, 7);
        let o = OrientedGraph::from_graph(&g);
        let config = SurveyConfig::with_min_weight(12);
        let want = survey(&o, &config, None);
        assert!(!want.is_empty() && (want.len() as u64) < want.total_examined / 4);
        let nranks = 3;
        let dist = DistSurvey::new(&o, &config, None, nranks);
        let folds = World::run(nranks, |ctx| {
            survey_stage(ctx, &dist, ONE_CHECK);
            ctx.barrier();
            dist.take_fold(ctx)
        });
        let held: usize = folds.iter().map(|f| f.survivors().len()).sum();
        let examined: u64 = folds.iter().map(SurveyFold::examined).sum();
        assert_eq!(held, want.len());
        assert_eq!(examined, want.total_examined);
    }

    #[test]
    fn cutoff_is_applied() {
        let g = WeightedGraph::from_edges(
            5,
            [
                (0, 1, 10),
                (0, 2, 12),
                (1, 2, 15),
                (2, 3, 2),
                (2, 4, 3),
                (3, 4, 5),
            ],
        );
        let o = OrientedGraph::from_graph(&g);
        let res = distributed_survey(&o, 5, 3);
        assert_eq!(res.total_triangles, 2);
        assert_eq!(res.triangles.len(), 1);
        assert_eq!(res.triangles[0].vertices(), [0, 1, 2]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Any edge soup (duplicates, self-loops, isolated vertices) weighted
        /// at and around the survey's log2 levels, any rank count, either
        /// orientation, any cutoff, `T` floor 0 or not, `top_k` on or off,
        /// adaptive batches or one check per batch: the rank-sharded report
        /// is the resident report, and both are the fold over the reference
        /// listing.
        #[test]
        fn rank_sharded_survey_equals_resident(
            (n, edges) in (3u32..24).prop_flat_map(|n| {
                let weight = (0..LEVEL_WEIGHTS.len()).prop_map(|i| LEVEL_WEIGHTS[i]);
                (Just(n), prop::collection::vec((0..n, 0..n, weight), 0..120))
            }),
            nranks in 1usize..8,
            // a level weight, or (one in 21) any
            (level, any) in (0..LEVEL_WEIGHTS.len() + 1, 0u64..u64::MAX),
            scored in 0usize..2,
            top_k in 0usize..5,
            by_id in 0usize..2,
            one_check in 0usize..2,
        ) {
            // Duplicates keep their first weight: summed, they could overflow.
            let mut seen = std::collections::HashSet::new();
            let edges = edges
                .into_iter()
                .filter(|&(a, b, _)| a != b && seen.insert((a.min(b), a.max(b))));
            let g = WeightedGraph::from_edges(n, edges);
            let strategy = [OrientationStrategy::DegreeOrder, OrientationStrategy::IdOrder][by_id];
            let o = OrientedGraph::with_strategy(&g, strategy);
            let config = SurveyConfig {
                min_edge_weight: LEVEL_WEIGHTS.get(level).copied().unwrap_or(any),
                min_t_score: [0.0, 0.2][scored],
                top_k: (top_k > 0).then_some(top_k),
            };
            let pages = pages_for(&g);
            let want = fields(&survey(&o, &config, Some(&pages)));
            let brute = brute_force_triangles(&g);
            prop_assert_eq!(&want, &brute_force_fields(&brute, &config, Some(&pages)));
            let batch_bytes = [None, ONE_CHECK][one_check];
            let (got, _) = survey_on_ranks(&o, &config, Some(&pages), nranks, batch_bytes);
            prop_assert_eq!(fields(&got), want);
        }
    }
}
