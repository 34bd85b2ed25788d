//! The end-to-end three-step pipeline (paper §2.1.3):
//!
//! 1. project the BTM to the common interaction graph under `(δ1, δ2)`;
//! 2. survey triangles with minimum edge weight above the cutoff (optionally
//!    thresholding the normalized score `T` as well);
//! 3. validate each surviving triplet against the hypergraph metrics
//!    `w_xyz` and `C(x,y,z)`.
//!
//! [`Pipeline::run_dataset`] also applies the pre-projection exclusion list
//! (AutoModerator, `[deleted]`, …) the way the paper does.

use std::time::{Duration, Instant};

use crate::btm::Btm;
use crate::cigraph::CiGraph;
use crate::filter::ExclusionList;
use crate::hypergraph::validate_all;
use crate::metrics::TripletMetrics;
use crate::project;
use crate::records::Dataset;
use crate::window::Window;
use tripoll::survey::{survey, SurveyConfig, SurveyReport};
use tripoll::OrientedGraph;

/// Pipeline parameters. Defaults mirror the paper's hexbin figures: window
/// `(0, 60s)`, CI edge threshold 1, triangle minimum-edge-weight cutoff 10.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// The projection delay window `(δ1, δ2)`.
    pub window: Window,
    /// Drop CI edges below this weight before triangle enumeration (the paper
    /// used 5 for the billion-edge 2016 one-hour projection).
    pub edge_threshold: u64,
    /// Keep triangles with `min{w'} ≥` this cutoff (10 for the figures, 25
    /// for the anecdotal botnet hunts).
    pub min_triangle_weight: u64,
    /// Keep triangles with `T(x,y,z) ≥` this score (0 disables).
    pub min_t_score: f64,
    /// Author names excluded before projection.
    pub exclusions: ExclusionList,
}

impl PipelineConfig {
    /// Step 2's predicates: the triangle cutoff and the `T`-score floor.
    pub(crate) fn survey_config(&self) -> SurveyConfig {
        SurveyConfig {
            min_edge_weight: self.min_triangle_weight,
            min_t_score: self.min_t_score,
            top_k: None,
        }
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            window: Window::zero_to_60s(),
            edge_threshold: 1,
            min_triangle_weight: 10,
            min_t_score: 0.0,
            exclusions: ExclusionList::reddit_defaults(),
        }
    }
}

/// Wall-clock timings of each stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimings {
    /// Step 1: projection.
    pub projection: Duration,
    /// Step 2: orientation + triangle survey.
    pub survey: Duration,
    /// Step 3: hypergraph validation.
    pub validation: Duration,
}

/// Scale statistics of one run — the numbers the paper reports in prose
/// (comments reviewed, authors, edges, triangles, triplets).
#[derive(Clone, Copy, Debug, Default)]
pub struct RunStats {
    /// Comments fed to projection (after exclusions).
    pub comments_reviewed: u64,
    /// Author slots in the id space.
    pub total_authors: u32,
    /// Authors with at least one CI edge.
    pub projected_authors: u32,
    /// CI graph edges before the edge threshold.
    pub ci_edges: u64,
    /// CI graph edges after the edge threshold.
    pub ci_edges_after_threshold: u64,
    /// Triangles examined by the survey (post-edge-threshold graph).
    pub triangles_examined: u64,
    /// Triangles passing the cutoffs.
    pub triangles_kept: u64,
    /// Triplets validated in step 3 (== triangles_kept).
    pub triplets_validated: u64,
}

/// Everything a run produces.
#[derive(Clone, Debug)]
pub struct PipelineOutput {
    /// The full (unthresholded) CI graph.
    pub ci: CiGraph,
    /// Step 2's survey report over the edge-thresholded graph.
    pub survey: SurveyReport,
    /// Step 3's validated triplet metrics, aligned with `survey.triangles`.
    pub triplets: Vec<TripletMetrics>,
    /// Scale statistics.
    pub stats: RunStats,
    /// Stage timings.
    pub timings: StageTimings,
}

impl PipelineOutput {
    /// `(T, C)` points for the score hexbins (Figures 3/5/7/9).
    pub fn score_points(&self) -> Vec<(f64, f64)> {
        self.triplets
            .iter()
            .map(TripletMetrics::score_point)
            .collect()
    }

    /// `(min w', w_xyz)` points for the weight hexbins (Figures 4/6/8/10).
    pub fn weight_points(&self) -> Vec<(f64, f64)> {
        self.triplets
            .iter()
            .map(TripletMetrics::weight_point)
            .collect()
    }

    /// The validated triplet with the largest minimum CI weight, if any —
    /// the paper calls out `(4460, 5516, 13355)` as January 2020's maximum.
    pub fn heaviest_triplet(&self) -> Option<&TripletMetrics> {
        self.triplets.iter().max_by_key(|m| m.min_ci_weight)
    }
}

/// The configured three-step pipeline.
#[derive(Clone, Debug, Default)]
pub struct Pipeline {
    /// Run parameters.
    pub config: PipelineConfig,
}

impl Pipeline {
    /// A pipeline with the given config.
    pub fn new(config: PipelineConfig) -> Self {
        Pipeline { config }
    }

    /// Run on a dataset: applies exclusions, builds the BTM, runs all steps.
    pub fn run_dataset(&self, ds: &Dataset) -> PipelineOutput {
        let excluded = self.config.exclusions.resolve(ds);
        self.run_btm(&ds.btm_without(&excluded))
    }

    /// Run from an opened snapshot — the mmap twin of
    /// [`Pipeline::run_dataset`], producing identical output for a snapshot
    /// written from the same dataset (the stored page rows are the rows
    /// [`Dataset::btm`] builds from the ingest-ordered events). The BTM
    /// borrows the rows from the mapping when nobody is excluded (and filters
    /// a copy when someone is), and exclusion names resolve against the
    /// mapped string table; no [`Dataset`] is ever materialized, which is
    /// what keeps this path's peak RSS below the resident one.
    pub fn run_snapshot(&self, snap: &coordination_store::Snapshot) -> PipelineOutput {
        let excluded = self.config.exclusions.resolve_names(snap.author_names());
        self.run_btm(&crate::snapshot::btm_from_snapshot(snap, &excluded))
    }

    /// Run on an already-built (and already-filtered) BTM.
    pub fn run_btm(&self, btm: &Btm) -> PipelineOutput {
        run_stages(&self.config, btm, project::project, survey)
    }
}

/// The one stage graph of both engines: project `btm`, orient the threshold
/// view, survey it, validate the survivors. Only the two steps that shard
/// over ranks vary, and the caller passes them in: `project` (the resident
/// [`project::project`], or the rank program's) and `survey` (the resident
/// [`survey`], or [`tripoll::distributed::survey_on_ranks`]).
pub(crate) fn run_stages(
    cfg: &PipelineConfig,
    btm: &Btm,
    project: impl FnOnce(&Btm, Window) -> CiGraph,
    survey: impl FnOnce(&OrientedGraph, &SurveyConfig, Option<&[u64]>) -> SurveyReport,
) -> PipelineOutput {
    // Step 1: projection.
    let t0 = Instant::now();
    let ci = project(btm, cfg.window);
    let projection_time = t0.elapsed();

    // Step 2: triangle survey on the edge-thresholded graph. Thresholding is
    // a borrowed view over the CI graph's CSR — orientation consumes it
    // directly, so no filtered copy of the edge set is ever materialized.
    let t1 = Instant::now();
    let orient_span = obs::span("survey.orient");
    let oriented = if cfg.edge_threshold > 1 {
        OrientedGraph::from_ref(&ci.threshold_view(cfg.edge_threshold))
    } else {
        OrientedGraph::from_ref(ci.as_csr())
    };
    // every edge the view keeps is oriented once: no second walk of it
    let ci_edges_after_threshold = oriented.m();
    drop(orient_span);
    let report = survey(&oriented, &cfg.survey_config(), Some(ci.page_counts()));
    let survey_time = t1.elapsed();

    // Step 3: hypergraph validation.
    let t2 = Instant::now();
    let triangles: Vec<tripoll::Triangle> = report.triangles.iter().map(|s| s.triangle).collect();
    let triplets = validate_all(btm, ci.page_counts(), &triangles);
    let validation_time = t2.elapsed();

    let stats = RunStats {
        comments_reviewed: btm.n_comments(),
        total_authors: btm.n_authors(),
        projected_authors: ci.active_authors(),
        ci_edges: ci.n_edges(),
        ci_edges_after_threshold,
        triangles_examined: report.total_examined,
        triangles_kept: report.len() as u64,
        triplets_validated: triplets.len() as u64,
    };

    PipelineOutput {
        ci,
        survey: report,
        triplets,
        stats,
        timings: StageTimings {
            projection: projection_time,
            survey: survey_time,
            validation: validation_time,
        },
    }
}

/// One round of the paper's §2.4 refinement loop.
#[derive(Clone, Debug)]
pub struct RefinementRound {
    /// Authors flagged (all members of validated triplets) this round.
    pub flagged: Vec<crate::ids::AuthorId>,
    /// The round's full output.
    pub output: PipelineOutput,
}

impl Pipeline {
    /// The iterative refinement of §2.4: run the pipeline, remove every
    /// author appearing in a validated triplet from the BTM, and rerun —
    /// peeling coordination layers until a round flags nobody or `max_rounds`
    /// is hit. The strongest networks surface first; later rounds expose
    /// coordination that the heavy hitters' edges were drowning out.
    pub fn run_refinement(&self, btm: &Btm, max_rounds: usize) -> Vec<RefinementRound> {
        let mut rounds = Vec::new();
        let mut current = btm.clone();
        for _ in 0..max_rounds {
            let output = self.run_btm(&current);
            let mut flagged: Vec<crate::ids::AuthorId> =
                output.triplets.iter().flat_map(|t| t.authors).collect();
            flagged.sort_unstable();
            flagged.dedup();
            let done = flagged.is_empty();
            if !done {
                current = current.without_authors(&flagged);
            }
            rounds.push(RefinementRound { flagged, output });
            if done {
                break;
            }
        }
        rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{AuthorId, Event, PageId};
    use crate::records::{CommentRecord, Dataset};

    /// 3 coordinated authors hitting 20 pages within seconds of each other,
    /// plus 20 organic authors commenting far apart.
    fn scenario() -> Dataset {
        let mut recs = Vec::new();
        for page in 0..20 {
            for (i, bot) in ["bot_a", "bot_b", "bot_c"].iter().enumerate() {
                recs.push(CommentRecord::new(
                    *bot,
                    format!("p{page}"),
                    page as i64 * 10_000 + i as i64 * 5,
                ));
            }
            // organic stragglers, hours apart
            recs.push(CommentRecord::new(
                format!("user{page}"),
                format!("p{page}"),
                page as i64 * 10_000 + 7_200,
            ));
        }
        // AutoModerator greets every page instantly (must be excluded)
        for page in 0..20 {
            recs.push(CommentRecord::new(
                "AutoModerator",
                format!("p{page}"),
                page as i64 * 10_000,
            ));
        }
        Dataset::from_records(recs)
    }

    #[test]
    fn pipeline_finds_the_planted_triplet() {
        let ds = scenario();
        let out = Pipeline::new(PipelineConfig {
            min_triangle_weight: 10,
            ..Default::default()
        })
        .run_dataset(&ds);

        assert_eq!(out.triplets.len(), 1, "exactly the bot triangle survives");
        let m = &out.triplets[0];
        let names = m.authors.map(|a| ds.authors.name(a.0));
        assert_eq!(names, ["bot_a", "bot_b", "bot_c"]);
        assert_eq!(m.min_ci_weight, 20);
        assert_eq!(m.hyper_weight, 20);
        assert!((m.c - 1.0).abs() < 1e-12, "perfectly coordinated: C = 1");
        assert!((m.t - 1.0).abs() < 1e-12, "T = 1 as well");
    }

    #[test]
    fn exclusions_remove_automoderator_edges() {
        let ds = scenario();
        let with_excl = Pipeline::default().run_dataset(&ds);
        let without_excl = Pipeline::new(PipelineConfig {
            exclusions: ExclusionList::new(),
            ..Default::default()
        })
        .run_dataset(&ds);
        // AutoModerator posts at the same instant as the bots → edges to all
        // three bots on every page; without exclusion the CI graph is bigger.
        assert!(without_excl.stats.ci_edges > with_excl.stats.ci_edges);
        let am = ds.authors.get("AutoModerator").unwrap();
        assert_eq!(
            with_excl.ci.page_count(AuthorId(am)),
            0,
            "excluded author must have no projection presence"
        );
    }

    #[test]
    fn components_extract_the_botnet() {
        let out = Pipeline::default().run_dataset(&scenario());
        let comps = out.ci.components(10);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), 3);
    }

    #[test]
    fn score_and_weight_points_align_with_triplets() {
        let out = Pipeline::default().run_dataset(&scenario());
        assert_eq!(out.score_points().len(), out.triplets.len());
        assert_eq!(out.weight_points().len(), out.triplets.len());
        let heaviest = out.heaviest_triplet().unwrap();
        assert_eq!(heaviest.min_ci_weight, 20);
    }

    #[test]
    fn refinement_peels_networks_strongest_first() {
        // a strong triplet (20 shared pages) and a weaker one (12), disjoint
        let mut events = Vec::new();
        for p in 0..20u32 {
            for a in 0..3u32 {
                events.push(Event::new(AuthorId(a), PageId(p), (p * 100 + a) as i64));
            }
        }
        for p in 0..12u32 {
            for a in 3..6u32 {
                events.push(Event::new(
                    AuthorId(a),
                    PageId(20 + p),
                    (p * 100 + a) as i64,
                ));
            }
        }
        let btm = Btm::from_events(6, 32, &events);
        let pipeline = Pipeline::new(PipelineConfig {
            min_triangle_weight: 15,
            ..Default::default()
        });
        let rounds = pipeline.run_refinement(&btm, 5);
        // round 1 flags the strong trio; round 2 finds nothing above 15
        assert_eq!(rounds.len(), 2);
        assert_eq!(
            rounds[0].flagged,
            vec![AuthorId(0), AuthorId(1), AuthorId(2)]
        );
        assert!(rounds[1].flagged.is_empty());

        // with a lower cutoff, the second round picks up the weaker trio
        let pipeline = Pipeline::new(PipelineConfig {
            min_triangle_weight: 10,
            ..Default::default()
        });
        let rounds = pipeline.run_refinement(&btm, 5);
        assert_eq!(
            rounds[0].flagged.len(),
            6,
            "both trios exceed 10 in round 1"
        );
        assert!(rounds[1].flagged.is_empty());
    }

    #[test]
    fn refinement_respects_max_rounds() {
        // nested coordination: removal of one trio exposes nothing new, so a
        // single round plus the empty round suffices regardless of the cap
        let mut events = Vec::new();
        for p in 0..15u32 {
            for a in 0..3u32 {
                events.push(Event::new(AuthorId(a), PageId(p), (p * 10 + a) as i64));
            }
        }
        let btm = Btm::from_events(3, 15, &events);
        let rounds = Pipeline::default().run_refinement(&btm, 1);
        assert_eq!(rounds.len(), 1, "cap respected even with flags remaining");
        assert_eq!(rounds[0].flagged.len(), 3);
    }

    #[test]
    fn t_score_threshold_prunes_high_activity_triples() {
        // A bot triangle with tight coordination vs three hyperactive authors
        // who co-occur on many pages but each also roam hundreds of others.
        let mut events = Vec::new();
        // tight bots: 15 shared pages, nothing else
        for page in 0..15u32 {
            for a in 0..3u32 {
                events.push(Event::new(
                    AuthorId(a),
                    PageId(page),
                    page as i64 * 1000 + a as i64,
                ));
            }
        }
        // hyperactive: 15 shared pages + 300 solo pages each
        for page in 0..15u32 {
            for a in 3..6u32 {
                events.push(Event::new(
                    AuthorId(a),
                    PageId(15 + page),
                    page as i64 * 1000 + a as i64,
                ));
            }
        }
        let mut next_page = 30u32;
        for a in 3..6u32 {
            for _ in 0..100 {
                // solo pages still produce projection edges with... nobody
                events.push(Event::new(AuthorId(a), PageId(next_page), 0));
                next_page += 1;
            }
        }
        // companions that create projection edges on the hyperactive authors'
        // solo pages, inflating their P' without adding triangle weight
        for (companion, page) in (6u32..).zip(30..next_page) {
            events.push(Event::new(AuthorId(companion % 20 + 6), PageId(page), 1));
        }
        let btm = Btm::from_events(26, next_page, &events);
        let strict = Pipeline::new(PipelineConfig {
            min_triangle_weight: 10,
            min_t_score: 0.9,
            ..Default::default()
        })
        .run_btm(&btm);
        // only the tight bot triangle has T near 1
        assert_eq!(strict.triplets.len(), 1);
        assert_eq!(
            strict.triplets[0].authors,
            [AuthorId(0), AuthorId(1), AuthorId(2)]
        );

        let lax = Pipeline::new(PipelineConfig {
            min_triangle_weight: 10,
            min_t_score: 0.0,
            ..Default::default()
        })
        .run_btm(&btm);
        assert_eq!(lax.triplets.len(), 2, "both triangles pass on raw weight");
    }
}
