//! The rank-sharded end-to-end pipeline: projection → survey → validation
//! on [`ygm`] ranks, over one [`Btm`].
//!
//! [`Pipeline`] runs the three paper steps in one address space over a
//! resident [`Btm`]; this module runs the *same program* in the SPMD
//! communication structure the paper's MPI deployment used, with every stage
//! owner-partitioned and every hand-off between owners an explicit shuffle.
//! One rank without a shuffle budget would own every page, edge and vertex,
//! so each of its shuffles would only send the rank its own messages: that
//! run is the resident run, [`Pipeline::run_btm`], and no rank is spawned.
//! Every other run — two or more ranks, or any budget — is the rank program:
//!
//! 1. **Input** — one [`Btm`], handed to every rank and read where it lies.
//!    Nobody applies exclusions past this point: [`DistPipeline::run_btm`]
//!    takes a BTM whose exclusions were applied when it was built, and
//!    [`DistPipeline::run_dataset`] and [`DistPipeline::run_snapshot`]
//!    resolve exclusions by name, exactly as their [`Pipeline`] twins do,
//!    and call it; so does the CLI, over the BTM its ingest reads `--input`
//!    straight into or the one that borrows a snapshot's mapped rows.
//!    [`DistPipeline::run_events`] builds its BTM from a caller's
//!    `EventSource` with [`Btm::build`] first (two pulls of `source(0, 1)`:
//!    it counts on the first and scatters on the second, so the events are
//!    never copied).
//! 2. **Page partition** — a page belongs to rank `owner_of(page)`. Without
//!    a budget a rank's partition *is* the BTM's rows of its pages, read in
//!    place: the rows are page-major already, so nothing is in the wrong
//!    place and no comment is shuffled. A `--shuffle-budget` caps what a
//!    rank may hold resident, so there the partition is built as an
//!    out-of-core cluster builds it: each rank reads its [`ygm::block_range`]
//!    of the comments in place (whole pages but for the two a block edge
//!    splits, from owned or mapped rows of either layout) and ships each
//!    comment to its page owner once, through the packed byte-buffer
//!    aggregator ([`ygm::PackedAggregator`], adaptive bytes-per-batch
//!    thresholds) as `(page, ts, author)`, 16 B on the wire. The owner sorts
//!    each arriving batch as order-preserving packed keys (`event_key`) into
//!    a bounded run stack ([`ygm::runs::DistRuns`]), merged incrementally
//!    *while later batches are in flight* (ship drains opportunistically)
//!    and spilled as sorted segments to the snapshot store past the cap, and
//!    reads its partition back through a streaming k-way merge over
//!    resident + spilled runs, one page resident at a time.
//!
//!    Either way the rank holds a `PagePartition` — the same comments of the
//!    same pages in the same `(ts, author)` order — and stage 3 is written
//!    once against its one method.
//! 3. **Projection** — page owners run the resident engine's page step
//!    (`project::PageStep`: [`crate::project::page_pairs_flat`] → pair set →
//!    each endpoint into `P'` once per page, by page stamp) over each page's
//!    row, borrowed in place (`PagePartition::for_each_page`), and shuffle
//!    each packed pair occurrence to its *edge owner* (`owner_of(packed)`),
//!    which sorts and run-length-counts its disjoint slice of the edge set.
//!    Per-author `P'` contributions reduce to a replicated dense vector via
//!    [`ygm::reduce::all_reduce_hist`]. The partition, and any spill
//!    segments behind it, is dropped here.
//! 4. **Survey** — the ghost-boundary exchange is a global post-threshold
//!    degree reduction: every rank learns the degree of every vertex (the
//!    ghosts of its partition included) and orients its edges by the same
//!    `(degree, id)` rule as [`tripoll::OrientedGraph`]. Oriented edges
//!    shuffle (packed) to their source's owner and build a
//!    [`coordination_graph::LocalCsr`] partition, which the rank publishes
//!    whole into the [`tripoll::DistSurvey`] (no per-row copy), and
//!    [`tripoll::survey_stage`] closes wedges exactly as on the cluster —
//!    16-byte wedge checks through the same packed aggregator as every
//!    other shuffle — folding each triangle where its wedge closes into the
//!    resident survey's own [`tripoll::survey::SurveyFold`] with its one
//!    kernel: below the cutoff a triangle is only counted, at or above it
//!    listed through the min weight and `T`-score predicates (`P'` is
//!    replicated). Only the statistics and the survivors exist afterwards.
//! 5. **Validation** — step 3 as the resident engine runs it, plus one
//!    all-gather: the survivors' vertices are all-gathered, and every rank
//!    reads their page lists off the BTM's rows with
//!    [`AuthorPages::harvest`], the resident harvest, so every rank holds the
//!    table `validate_all` builds. Each validates its survivors, sorted by
//!    vertex triple, through the resident engine's kernel and metrics
//!    constructor ([`crate::hypergraph`]) — the same floating-point
//!    expressions the resident path evaluates.
//!
//! The pair-occurrence and oriented-edge shuffles land in run stacks with or
//! without a budget. A budgeted run's stage 2 records a span of its own,
//! `btm.shard` (the event exchange and the owners' take of their runs), so a
//! report keeps it apart from the `btm.build` of the door that read the
//! input. Stages 3–5 record the resident engine's spans for the same steps —
//! `project`, `survey` and `validate`, with its `validate.harvest` — and
//! every stage its counters (`project.pages`, `project.edges`, `survey.*`,
//! `validate.*`), each rank adding its share, so the process totals are the
//! resident run's and a run report names the same steps whichever engine
//! ran.
//!
//! **Equivalence contract** (pinned by the oracle matrix in `tests/`, which
//! holds every door of both engines to the paper's definition, and a CLI
//! byte-identity test): for every input, every rank count, every flush
//! threshold and every shuffle budget — none, one larger than the
//! partition, and down to one item per batch and one batch per spill —
//! [`DistPipeline`] produces the same [`PipelineOutput`] as [`Pipeline`] —
//! same CI graph, same survey report (including the examined count,
//! log-histogram and bit-identical `T` scores), same validated triplets in
//! the same order. Only the stage timings differ.

use std::sync::Arc;
use std::time::Instant;

use coordination_graph::LocalCsr;
use tripoll::survey::{SurveyReport, SurveyedTriangle};
use tripoll::{survey_stage, DistSurvey};
use ygm::reduce::{all_gather_concat, all_reduce_hist};
use ygm::{owner_of, DistRuns, PackedAggregator, PackedBatch, RankCtx, RunSet, World};

use crate::btm::{AuthorPages, Btm, PageRow, WideRow};
use crate::cigraph::CiGraph;
use crate::hypergraph::{record_harvest, record_runs, validate_triangles};
use crate::ids::{AuthorId, Event};
use crate::metrics::TripletMetrics;
use crate::pipeline::{Pipeline, PipelineConfig, PipelineOutput, RunStats, StageTimings};
use crate::project::{page_pairs_flat, run_length_pairs, PageStep};
use crate::records::Dataset;
use crate::snapshot::btm_from_snapshot;

/// `log2`-bucket histograms pad to the full `u64` range so
/// [`all_reduce_hist`] sees equal lengths on every rank; trailing zeros are
/// trimmed afterwards, reproducing the resident survey's resize-on-write
/// length exactly (the resident histogram's last element is always nonzero).
const HIST_BUCKETS: usize = 64;

/// Pack a `(page, ts, author)` event into one order-preserving `u128` run
/// key: `page·2⁹⁶ | (ts ⊕ 2⁶³)·2³² | author`. The timestamp sign-flip maps
/// `i64` order onto unsigned order, so numeric key order is exactly the
/// `(page, ts, author)` tuple order [`PagePartition::Runs`] is grouped by.
/// Only a budgeted run packs events this way.
#[inline]
fn event_key(p: u32, ts: i64, a: u32) -> u128 {
    ((p as u128) << 96) | ((((ts as u64) ^ (1 << 63)) as u128) << 32) | a as u128
}

/// Inverse of [`event_key`].
#[inline]
fn event_from_key(k: u128) -> (u32, i64, u32) {
    let p = (k >> 96) as u32;
    let ts = (((k >> 32) as u64) ^ (1 << 63)) as i64;
    (p, ts, k as u32)
}

/// One rank's share of the page side: every comment of every page the rank
/// owns, each page's in `(ts, author)` order, held one of two ways, chosen
/// by the shuffle budget alone, and read through one method either way.
enum PagePartition<'a> {
    /// No budget: the BTM's own rows of the pages `owner_of` assigns this
    /// rank, read in place.
    InPlace {
        btm: &'a Btm,
        rank: usize,
        nranks: usize,
    },
    /// Under a budget the partition may not be resident: sorted runs of
    /// [`event_key`]s, spilled past the budget, read back through a
    /// streaming merge that holds one page at a time.
    Runs(RunSet<u128>),
}

impl PagePartition<'_> {
    /// Call `f` with every non-empty page's time-sorted comments, pages
    /// ascending.
    fn for_each_page(&self, mut f: impl FnMut(PageRow<'_>)) {
        match self {
            PagePartition::InPlace { btm, rank, nranks } => btm
                .pages()
                .filter(|(p, _)| owner_of(&p.0, *nranks) == *rank)
                .for_each(|(_, row)| f(row)),
            PagePartition::Runs(runs) => {
                // Keys are `(page, ts, author)`-ordered, so each page is one
                // contiguous stretch of the merge.
                let mut keys = runs.cursor().peekable();
                let mut row: Vec<WideRow> = Vec::new();
                while let Some(&k) = keys.peek() {
                    let page = (k >> 96) as u32;
                    row.clear();
                    while let Some(&next) = keys.peek() {
                        if (next >> 96) as u32 != page {
                            break;
                        }
                        let (_, ts, a) = event_from_key(next);
                        row.push((ts, AuthorId(a)));
                        keys.next();
                    }
                    f(PageRow::Wide(&row));
                }
            }
        }
    }
}

/// Pack an oriented `(src, dst, w)` edge into one order-preserving `u128`
/// run key: numeric order equals `(src, dst)` lexicographic order (weights
/// never tie-break — post-RLE there are no parallel edges).
#[inline]
fn edge_key(s: u32, d: u32, w: u64) -> u128 {
    ((s as u128) << 96) | ((d as u128) << 64) | w as u128
}

/// Inverse of [`edge_key`].
#[inline]
fn edge_from_key(k: u128) -> (u32, u32, u64) {
    ((k >> 96) as u32, (k >> 64) as u32, k as u64)
}

/// One-entry owner cache for `push`-ing long same-key streams without
/// rehashing: the page loop ships every comment of a page to the same
/// destination, the orientation loop ships consecutive same-source edges,
/// and at two or more ranks [`ygm::owner_of`] hashes (FNV-1a, then a
/// splitmix finish) on every `push_keyed` call regardless.
/// Routing is identical by construction (same key type, same hash); the
/// equivalence proptests pin it.
struct CachedOwner {
    key: u32,
    dest: usize,
}

impl CachedOwner {
    fn new() -> Self {
        CachedOwner {
            key: 0,
            dest: usize::MAX, // forces a hash on first use
        }
    }

    #[inline]
    fn dest(&mut self, key: u32, nranks: usize) -> usize {
        if self.dest == usize::MAX || self.key != key {
            self.key = key;
            self.dest = owner_of(&key, nranks);
        }
        self.dest
    }
}

/// The three-step pipeline run as one SPMD program over `nranks` ygm ranks.
///
/// Construction mirrors [`Pipeline`], and the config is the same type.
#[derive(Clone, Debug)]
pub struct DistPipeline {
    /// Run parameters (shared with the resident pipeline).
    pub config: PipelineConfig,
    /// Number of ygm ranks to run on.
    pub nranks: usize,
    /// Override for the exchange flush threshold in bytes. `None` (the
    /// default) uses [`ygm::adaptive_batch_bytes`] per item width; tests set
    /// tiny values to stress the flush path — the output must not move.
    pub batch_bytes: Option<usize>,
    /// Per-label, per-rank cap on resident receive-side bytes. When a run
    /// stack exceeds it, resident runs are merged and spilled to a sorted
    /// on-disk segment ([`ygm::runs`]); `None` (the default) never spills,
    /// and each rank reads its pages' rows in place, where a budget ships
    /// every comment to its page owner's run stack first. The output must be
    /// bit-identical for every budget, down to one batch.
    pub shuffle_budget: Option<usize>,
}

/// What [`DistPipeline::run_events`] builds its [`Btm`] from: called as
/// `source(0, 1)`, **twice**, it yields the whole event stream, and both
/// pulls must yield the same events — the BTM is built by counting the first
/// pull and scattering the second, so the events never exist as a copy. A
/// slice or a mapping re-pulls for one virtual `next` per event; a source
/// that generates its events pays its generator twice. Events carry dense
/// ids already — no interning happens behind this door. Only `(0, 1)` is
/// ever passed; the rank arguments stay so that sources written as
/// `|rank, n| …` keep compiling.
pub(crate) type EventSource<'a> =
    dyn Fn(usize, usize) -> Box<dyn Iterator<Item = Event> + 'a> + Sync + 'a;

/// Identity helper that pins a closure to the `EventSource` shape. Without
/// it, a closure literal returning `Box::new(...)` infers a `'static` boxed
/// iterator and refuses to capture borrowed state; routing the closure
/// through this function ties the box's lifetime to the borrow:
///
/// ```ignore
/// let source = event_source(|_, _| Box::new(events.iter().copied()));
/// pipeline.run_events(n_authors, &source);
/// ```
///
/// That run pulls `source(0, 1)` twice.
pub fn event_source<'a, F>(f: F) -> F
where
    F: Fn(usize, usize) -> Box<dyn Iterator<Item = Event> + 'a> + Sync,
{
    f
}

/// What one rank contributes back to the main thread. Collective reductions
/// make the global fields identical on every rank; the main thread reads
/// them from rank 0 and concatenates the per-rank fields.
#[derive(Default)]
struct RankOut {
    /// This rank's sorted canonical edge run (disjoint across ranks).
    edge_run: Vec<(u32, u32, u64)>,
    /// Triangles this rank kept, already validated.
    kept: Vec<(SurveyedTriangle, TripletMetrics)>,
    /// Replicated `P'` vector (identical on every rank; shared with the
    /// survey's wedge-check handlers while they run).
    page_counts: Arc<Vec<u64>>,
    /// Globals (identical on every rank after reduction).
    ci_edges: u64,
    ci_edges_after_threshold: u64,
    triangles_examined: u64,
    max_min_weight: u64,
    min_weight_log_hist: Vec<u64>,
    /// Rank 0's wall-clock stage timings (zero elsewhere).
    timings: StageTimings,
}

impl DistPipeline {
    /// A distributed pipeline with the given config and rank count.
    ///
    /// # Panics
    /// Panics if `nranks == 0`.
    pub fn new(config: PipelineConfig, nranks: usize) -> Self {
        assert!(nranks > 0, "a distributed pipeline needs at least one rank");
        DistPipeline {
            config,
            nranks,
            batch_bytes: None,
            shuffle_budget: None,
        }
    }

    /// Same pipeline with a fixed exchange flush threshold in bytes instead
    /// of the adaptive default. Equivalence-testing hook: any threshold —
    /// including one that degenerates to one item per batch — must produce
    /// identical output.
    pub fn with_batch_bytes(mut self, bytes: usize) -> Self {
        self.batch_bytes = Some(bytes);
        self
    }

    /// Same pipeline with a resident receive-memory cap per shuffle label
    /// per rank (the CLI's `--shuffle-budget`): past it, sorted runs spill
    /// to disk and the owner-side sort becomes a resident+spilled merge.
    /// Any budget — down to one batch — must produce identical output.
    pub fn with_shuffle_budget(mut self, bytes: usize) -> Self {
        self.shuffle_budget = Some(bytes);
        self
    }

    /// Pipeline over an already-interned dataset: exclusions resolve by name
    /// and its BTM is built without them, as in [`Pipeline::run_dataset`],
    /// then [`DistPipeline::run_btm`].
    pub fn run_dataset(&self, ds: &Dataset) -> PipelineOutput {
        self.run_btm(&ds.btm_without(&self.config.exclusions.resolve(ds)))
    }

    /// Pipeline over an opened snapshot: exclusions resolve against the
    /// mapped name table, as in [`Pipeline::run_snapshot`], and with nobody
    /// excluded the BTM borrows the mapping's rows ([`btm_from_snapshot`]),
    /// so every rank reads its block of the one mapping; then
    /// [`DistPipeline::run_btm`].
    pub fn run_snapshot(&self, snap: &coordination_store::Snapshot) -> PipelineOutput {
        let excluded = self.config.exclusions.resolve_names(snap.author_names());
        self.run_btm(&btm_from_snapshot(snap, &excluded))
    }

    /// Pipeline over a BTM, whose exclusions were applied when it was
    /// built. One rank without a budget is [`Pipeline::run_btm`] on it,
    /// nothing rebuilt. Otherwise every rank reads the rows in place — its
    /// own pages' rows, or under a budget its own block of the comments
    /// ([`ygm::block_range`] of the flat rows: whole pages but for the two a
    /// block edge splits) to ship to their page owners — so the rows are
    /// never copied, per rank or at all.
    pub fn run_btm(&self, btm: &Btm) -> PipelineOutput {
        if self.nranks == 1 && self.shuffle_budget.is_none() {
            return Pipeline::new(self.config.clone()).run_btm(btm);
        }
        self.run_ranks(btm)
    }

    /// Pipeline over an event stream: the [`Btm`] built from two pulls of
    /// `source(0, 1)` (`EventSource`; it counts on the first pull, sizing
    /// the page space from the largest page id, and scatters on the second),
    /// then [`DistPipeline::run_btm`], at every rank count and budget.
    /// Events carry dense author/page ids; name-based exclusions do not
    /// apply here (there are no names), so callers exclude upstream.
    ///
    /// # Panics
    /// Before any rank starts, if the source yields an author id that is not
    /// below `n_authors` ("author id N out of range"), page id `u32::MAX`
    /// ("dense page ids stay below u32::MAX": flat page rows are indexed by
    /// dense page ids), or different events on its second pull ("event
    /// source yielded different events on its second pass").
    pub fn run_events<'a>(&self, n_authors: u32, source: &'a EventSource<'a>) -> PipelineOutput {
        self.run_btm(&Btm::build(n_authors, None, &[], || source(0, 1)))
    }

    /// The rank program over `btm`: spawn the ranks, run every stage, and
    /// assemble their contributions into one output.
    fn run_ranks(&self, btm: &Btm) -> PipelineOutput {
        let nranks = self.nranks;
        let cfg = &self.config;
        let budget = self.shuffle_budget;

        // Distributed containers, one per shuffle point: bounded run stacks
        // (each arriving batch sorted and merged incrementally, spilling past
        // the budget), never maps of per-key `Vec`s. Only a budget ships the
        // comments to their page owners. Keys are the order-preserving
        // packings declared at the top of the module.
        let page_events = budget.map(|_| DistRuns::<u128>::new(nranks, "page_events", budget));
        let pair_occurrences: DistRuns<u64> = DistRuns::new(nranks, "pair_occurrences", budget);
        let oriented_edges: DistRuns<u128> = DistRuns::new(nranks, "oriented_edges", budget);
        let survey = DistSurvey::new(nranks, cfg.survey_config());

        let program = RankProgram {
            cfg,
            batch_bytes: self.batch_bytes,
            btm,
            page_events: page_events.as_ref(),
            pair_occurrences: &pair_occurrences,
            oriented_edges: &oriented_edges,
            survey: &survey,
        };
        let mut outs = World::run(nranks, |ctx| rank_main(ctx, program));
        // The survey holds the ranks' `P'` replicas; with it gone, rank 0's
        // moves into the CI graph below without a copy.
        drop(survey);

        // Assemble the PipelineOutput from the per-rank contributions. The
        // edge runs are disjoint sorted canonical runs (each pair hashes to
        // exactly one owner), so the k-way merge in `CiGraph::from_runs`
        // reproduces the exact CSR any other partitioning would.
        let page_counts = Arc::unwrap_or_clone(std::mem::take(&mut outs[0].page_counts));
        let runs: Vec<Vec<(u32, u32, u64)>> = outs
            .iter_mut()
            .map(|o| std::mem::take(&mut o.edge_run))
            .collect();
        let n_authors = btm.n_authors();
        let ci = CiGraph::from_runs(n_authors, runs, page_counts);

        // Triangles were kept on whichever rank closed their wedge; the
        // vertex triple is a unique key, so one sort reproduces the resident
        // survey's `sort_unstable_by_key(vertices)` order — and the aligned
        // triplet order of `validate_all` with it.
        let mut kept: Vec<(SurveyedTriangle, TripletMetrics)> = outs
            .iter_mut()
            .flat_map(|o| std::mem::take(&mut o.kept))
            .collect();
        kept.sort_unstable_by_key(|(s, _)| s.triangle.vertices());
        let (triangles, triplets): (Vec<SurveyedTriangle>, Vec<TripletMetrics>) =
            kept.into_iter().unzip();

        let g = &outs[0];
        let stats = RunStats {
            comments_reviewed: btm.n_comments(),
            total_authors: n_authors,
            projected_authors: ci.active_authors(),
            ci_edges: g.ci_edges,
            ci_edges_after_threshold: g.ci_edges_after_threshold,
            triangles_examined: g.triangles_examined,
            triangles_kept: triangles.len() as u64,
            triplets_validated: triplets.len() as u64,
        };
        PipelineOutput {
            ci,
            survey: SurveyReport {
                triangles,
                total_examined: g.triangles_examined,
                max_min_weight: g.max_min_weight,
                min_weight_log_hist: g.min_weight_log_hist.clone(),
            },
            triplets,
            stats,
            timings: g.timings,
        }
    }
}

/// What every rank of one run shares: the input and the landing zone of
/// each shuffle (the comments' only under a budget).
#[derive(Clone, Copy)]
struct RankProgram<'a> {
    cfg: &'a PipelineConfig,
    batch_bytes: Option<usize>,
    btm: &'a Btm,
    page_events: Option<&'a DistRuns<u128>>,
    pair_occurrences: &'a DistRuns<u64>,
    oriented_edges: &'a DistRuns<u128>,
    survey: &'a DistSurvey,
}

/// One rank's whole program, page partition to validation. Every collective
/// below is issued unconditionally and in the same order on every rank.
fn rank_main(ctx: &RankCtx, program: RankProgram<'_>) -> RankOut {
    let RankProgram {
        cfg,
        batch_bytes,
        btm,
        page_events,
        pair_occurrences,
        oriented_edges,
        survey,
    } = program;
    let n_authors = btm.n_authors();
    let mut out = RankOut::default();
    let t_start = Instant::now();
    // One threshold policy for every shuffle in this run: the adaptive
    // bytes-per-batch default, or the test override.
    macro_rules! packed_agg {
        ($label:expr, $item:ty, $apply:expr) => {{
            let bytes = batch_bytes.unwrap_or_else(|| {
                ygm::adaptive_batch_bytes(<$item as ygm::Packable>::WIDTH, ctx.nranks())
            });
            PackedAggregator::<$item, _>::with_batch_bytes(ctx, $label, bytes, $apply)
        }};
    }

    // ---- Stages 1–2: this rank's pages of the one BTM -------------------
    let my_pages = match page_events {
        // The rows are page-major already: this rank's pages are read in
        // place and nothing is shuffled.
        None => PagePartition::InPlace {
            btm,
            rank: ctx.rank(),
            nranks: ctx.nranks(),
        },
        // Under a budget the partition is built out of core: this rank's
        // block of the comments, read in place, is shipped to the page
        // owners, which sort each arriving batch under one lock and merge it
        // *while later batches are still in flight* (ship drains
        // opportunistically), spilling sorted segments to disk; each owner
        // then reads its runs, resident and spilled, back through a
        // streaming merge.
        Some(page_events) => {
            let _shard = obs::span("btm.shard");
            {
                let runs = page_events.clone();
                let mut to_pages = packed_agg!(
                    "events_to_pages",
                    (u32, i64, u32),
                    move |inner: &RankCtx, batch: PackedBatch<(u32, i64, u32)>| {
                        let keys = batch.iter().map(|(p, ts, a)| event_key(p, ts, a));
                        runs.local_absorb(inner, keys);
                    }
                );
                // A block is page-major, so one cached owner saves an
                // `owner_of` hash per comment.
                let mut page_owner = CachedOwner::new();
                for e in btm.block(ctx.rank(), ctx.nranks()) {
                    let dest = page_owner.dest(e.page.0, ctx.nranks());
                    to_pages.push(ctx, dest, (e.page.0, e.ts, e.author.0));
                }
                to_pages.flush_all(ctx);
            }
            ctx.barrier();
            PagePartition::Runs(page_events.local_take(ctx))
        }
    };

    // ---- Stage 3: projection (pair shuffle to edge owners) --------------
    let project_span = obs::span("project");
    let mut step = PageStep::new(n_authors);
    {
        let occ = pair_occurrences.clone();
        let mut to_edges = packed_agg!(
            "pair_occurrences",
            u64,
            move |inner: &RankCtx, batch: PackedBatch<u64>| {
                occ.local_absorb(inner, batch.iter());
            }
        );
        let kernel =
            |row: PageRow<'_>, pairs: &mut Vec<u64>| page_pairs_flat(row, &cfg.window, pairs);
        let mut pages = 0u64;
        my_pages.for_each_page(|comments| {
            pages += 1;
            for &p in step.page(comments, kernel) {
                to_edges.push_keyed(ctx, &p, p);
            }
        });
        to_edges.flush_all(ctx);
        obs::counter("project.pages").add(pages);
    }
    // Stage 5 reads the BTM's rows, not the partition: dropping it deletes
    // any spill segments behind it.
    drop(my_pages);
    ctx.barrier();
    // Replicate P' everywhere: the survey's T-score and validation both
    // index it by arbitrary author id.
    out.page_counts = Arc::new(all_reduce_hist(ctx, step.into_page_counts()));

    // Each edge owner run-length-counts its disjoint slice of the pair
    // multiset straight off the merge cursor (already globally sorted,
    // duplicates adjacent) — this rank's sorted canonical run for CiGraph.
    let occ_set = pair_occurrences.local_take(ctx);
    out.edge_run = run_length_pairs(occ_set.cursor());
    drop(occ_set);
    obs::counter("project.edges").add(out.edge_run.len() as u64);
    out.ci_edges = ctx.all_reduce_sum(out.edge_run.len() as u64);
    drop(project_span);
    let t_projected = Instant::now();

    // ---- Stage 4: orient + partitioned triangle survey ------------------
    let survey_span = obs::span("survey");
    // Threshold, then the "ghost exchange": a global degree reduction over
    // the post-threshold edge set, so every rank can orient its edges by the
    // same (degree, id) rule OrientedGraph uses without owning its ghosts'
    // adjacency.
    let threshold = cfg.edge_threshold.max(1);
    let mut deg_local = vec![0u64; n_authors as usize];
    let mut filtered = 0u64;
    for &(x, y, w) in &out.edge_run {
        if w >= threshold {
            filtered += 1;
            deg_local[x as usize] += 1;
            deg_local[y as usize] += 1;
        }
    }
    out.ci_edges_after_threshold = ctx.all_reduce_sum(filtered);
    let deg = all_reduce_hist(ctx, deg_local);
    {
        let runs = oriented_edges.clone();
        let mut to_sources = packed_agg!(
            "oriented_edges",
            (u32, u32, u64),
            move |inner: &RankCtx, batch: PackedBatch<(u32, u32, u64)>| {
                runs.local_absorb(inner, batch.iter().map(|(s, d, w)| edge_key(s, d, w)));
            }
        );
        let points_up = |u: u32, v: u32| (deg[u as usize], u) < (deg[v as usize], v);
        // The edge run is (x, y)-sorted, so consecutive edges usually share
        // a source after orientation — the cached owner skips the rehash.
        let mut src_owner = CachedOwner::new();
        for &(x, y, w) in &out.edge_run {
            if w < threshold {
                continue;
            }
            let (src, dst) = if points_up(x, y) { (x, y) } else { (y, x) };
            let dest = src_owner.dest(src, ctx.nranks());
            to_sources.push(ctx, dest, (src, dst, w));
        }
        to_sources.flush_all(ctx);
    }
    ctx.barrier();
    // Build this rank's LocalCsr partition and publish it whole as its
    // share of the survey's adjacency. The merge cursor yields the partition
    // in (src, dst) order, so the CSR builds streaming — no flat edge vector.
    let edge_set = oriented_edges.local_take(ctx);
    let csr = LocalCsr::from_sorted_edges(edge_set.cursor().map(edge_from_key));
    drop(edge_set);
    obs::counter("dist.ghost_vertices").add(csr.ghosts().len() as u64);
    survey.publish(ctx, csr, n_authors, Some(Arc::clone(&out.page_counts)));
    ctx.barrier();
    survey_stage(ctx, survey, batch_bytes);
    ctx.barrier();

    // Every triangle was folded where its wedge closed: reduce the
    // statistics, keep this rank's survivors for validation.
    let fold = survey.take_fold(ctx);
    out.triangles_examined = ctx.all_reduce_sum(fold.examined());
    out.max_min_weight = ctx.all_reduce_max(fold.max_min_weight());
    let mut hist = fold.log_hist().to_vec();
    hist.resize(HIST_BUCKETS, 0);
    let mut hist = all_reduce_hist(ctx, hist);
    while hist.last() == Some(&0) {
        hist.pop();
    }
    out.min_weight_log_hist = hist;
    let mut mine = fold.into_survivors();
    drop(survey_span);
    let t_surveyed = Instant::now();

    // ---- Stage 5: hypergraph validation ---------------------------------
    let validate_span = obs::span("validate");
    // Sorted by vertex triple, consecutive survivors share their leading
    // edge: the validation kernel intersects it once per run.
    mine.sort_unstable_by_key(|s| s.triangle.vertices());
    // Step 3 reads `B` for the survivors' vertices only: all-gathered, they
    // are the request the resident harvest answers off the BTM's rows, so
    // every rank holds the table `validate_all` builds.
    let authors = {
        let _harvest = obs::span("validate.harvest");
        let local = mine.iter().flat_map(|s| s.triangle.vertices()).collect();
        let needed = all_gather_concat(ctx, local);
        AuthorPages::harvest(btm, needed.into_iter().map(AuthorId))
    };
    // The table is replicated, so one rank speaks for it.
    if ctx.rank() == 0 {
        record_harvest(&authors);
    }
    let (metrics, runs) =
        validate_triangles(&authors, &out.page_counts, mine.iter().map(|s| &s.triangle));
    out.kept = mine.into_iter().zip(metrics).collect();
    // A run can split across ranks; the distinct edges over all ranks are
    // the resident engine's runs, and one rank speaks for them.
    let mut runs = all_gather_concat(ctx, runs);
    if ctx.rank() == 0 {
        runs.sort_unstable();
        runs.dedup();
        record_runs(&runs);
    }
    obs::counter("validate.triplets").add(out.kept.len() as u64);
    drop(validate_span);

    // Rank 0's wall between the stage boundaries it crossed (every
    // boundary is a collective, so the other ranks crossed them with it).
    // A budget's event exchange is booked as projection: it builds its
    // input.
    if ctx.rank() == 0 {
        out.timings = StageTimings {
            projection: t_projected - t_start,
            survey: t_surveyed - t_projected,
            validation: t_surveyed.elapsed(),
        };
    }
    out
}
