//! The rank-sharded end-to-end pipeline: ingest → projection → survey →
//! validation entirely on [`ygm`] ranks.
//!
//! [`Pipeline`](crate::Pipeline) runs the three paper steps in one address
//! space over a resident [`Btm`](crate::btm::Btm); this module runs the
//! *same program* in the SPMD communication structure the paper's MPI
//! deployment used, with every stage owner-partitioned and every hand-off an
//! explicit shuffle:
//!
//! 1. **Ingest** — there is one way in: the author id-space size, an
//!    exclusion list the caller resolved, and one [`EventSource`] that every
//!    rank calls as `source(rank, nranks)` to pull its share of the input
//!    ([`DistPipeline::run_events`]). A [`Dataset`] and a snapshot are two
//!    five-line sources over that door — a block of the borrowed event list,
//!    a slice of the one mmapped file all ranks share — and resolve their
//!    exclusions by name exactly as [`Pipeline`](crate::Pipeline) does. No
//!    rank ever materializes its share as an owned `Vec<Event>`: events flow
//!    straight from the source, through the author range check and the
//!    exclusion mask ([`Btm::build`](crate::btm::Btm::build)'s own), into the
//!    exchange aggregators, so ingest and exchange overlap.
//! 2. **Exchange** — kept events are shuffled *once*, through a packed
//!    byte-buffer aggregator ([`ygm::PackedAggregator`], adaptive
//!    bytes-per-batch thresholds): `(page, ts, author)`, 16 B on the wire,
//!    to the *page* owner. What the owner does with an arriving batch
//!    depends on one thing, whether a `--shuffle-budget` caps its memory:
//!    * **No budget — rows.** Batches are appended unsorted, one lock each.
//!      After the closing barrier the rank *partitions instead of sorting*:
//!      count per page → prefix sum → scatter into one flat array of
//!      page rows (8 B a comment when the rank's timestamps span no more
//!      than a `u32`), then a comparison sort of only the rows that
//!      did not arrive time-ordered ([`crate::btm::PageRows::build`] — the
//!      builder [`Btm`](crate::btm::Btm) makes its own page side with, not a
//!      copy of it). Algorithm 1 needs each page's comments in time order
//!      and never a global `(page, ts, author)` order, so none is computed.
//!    * **A budget — runs.** Flat rows hold the whole partition resident,
//!      which is what the budget forbids, so each batch is sorted on arrival
//!      as order-preserving packed keys (`event_key`) into a bounded run
//!      stack ([`ygm::runs::DistRuns`]), merged incrementally *while later
//!      batches are in flight* (ship drains opportunistically) and spilled
//!      as sorted segments to the snapshot store past the cap; the rank
//!      reads its partition back through a streaming k-way merge over
//!      resident + spilled runs, one page resident at a time.
//!
//!    Either way the rank holds a `PagePartition` — the same comments in
//!    the same order, whatever order they arrived in (the invariance that
//!    makes `Btm` chunk-count-independent) — and stages 3 and 5 are written
//!    once against its two methods. (The author→pages incidence `Btm` also
//!    builds is *skipped* here and harvested on demand in stage 5.)
//! 3. **Projection** — page owners run the resident engine's page step
//!    (`project::PageStep`: [`crate::project::page_pairs_flat`] → pair set →
//!    distinct endpoints into `P'`) over each page's row, borrowed in place
//!    (`PagePartition::for_each_page`), and shuffle each packed pair
//!    occurrence to its *edge owner* (`owner_of(packed)`), which sorts and
//!    run-length-counts its disjoint slice of the edge set. Per-author `P'`
//!    contributions reduce to a replicated dense vector via
//!    [`ygm::reduce::all_reduce_hist`].
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
//!    resident survey's own [`tripoll::survey::SurveyFold`] (min weight and
//!    `T`-score predicates included — `P'` is replicated). Only the
//!    statistics and the survivors exist afterwards.
//! 5. **Validation** — first the *on-demand harvest*: the survivors'
//!    vertex set is all-gathered, each rank runs the resident engine's
//!    harvest scan (`btm::HarvestScan`, the scan under
//!    [`AuthorPages::harvest`](crate::btm::AuthorPages::harvest)) over its
//!    page partition a second time for just those authors
//!    (`PagePartition::harvest`: the rows flat, the runs
//!    straight off a merge cursor — page-major either way), and ships each
//!    packed `(author, page)` hit, already deduplicated, to the author
//!    owners, which merge them — reproducing `Btm`'s page lists for exactly the
//!    authors validation will read, instead of shuffling and sorting the
//!    full per-event incidence. Then each rank reads the page run of every
//!    author of its survivors out of the author-owner shard once (quiescent
//!    [`with_shard`](ygm::container::DistBag::with_shard) reads after the
//!    harvest barrier — no message chains) into an [`AuthorPages`] table,
//!    and validates its survivors, sorted by vertex triple, through the
//!    resident engine's kernel and metrics constructor
//!    ([`crate::hypergraph`]) — the same floating-point expressions the
//!    resident path evaluates.
//!
//! The pair-occurrence, oriented-edge and harvest shuffles still land in run
//! stacks with or without a budget.
//!
//! **Equivalence contract** (pinned by the oracle matrix in `tests/`, which
//! holds every door of both engines to the paper's definition, and a CLI
//! byte-identity test): for every input, every rank count, every flush
//! threshold and every shuffle budget — none, one larger than the
//! partition, and down to one item per batch and one batch per spill —
//! [`DistPipeline`] produces the same [`PipelineOutput`] as
//! [`Pipeline`](crate::Pipeline) — same CI graph, same survey report
//! (including the examined count, log-histogram and bit-identical `T`
//! scores), same validated triplets in the same order. Only the stage
//! timings differ.

use std::sync::Arc;
use std::time::Instant;

use coordination_graph::LocalCsr;
use tripoll::survey::{SurveyConfig, SurveyReport, SurveyedTriangle};
use tripoll::{survey_stage, DistSurvey};
use ygm::container::DistBag;
use ygm::reduce::{all_gather_concat, all_reduce_hist};
use ygm::{block_range, owner_of, DistRuns, PackedAggregator, PackedBatch, RankCtx, RunSet, World};

use crate::btm::{author_mask, is_kept, AuthorPages, HarvestScan, PageRow, PageRows, WideRow};
use crate::cigraph::CiGraph;
use crate::hypergraph::{record_runs, validate_triangles};
use crate::ids::{AuthorId, Event, PageId};
use crate::metrics::TripletMetrics;
use crate::pipeline::{PipelineConfig, PipelineOutput, RunStats, StageTimings};
use crate::project::{pack_pair, page_pairs_flat, run_length_pairs, PageStep};
use crate::records::Dataset;

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

/// One rank's share of the page side once the event exchange has closed:
/// every comment of every page the rank owns, each page's in `(ts, author)`
/// order. Stored one of two ways, chosen by the shuffle budget alone, and
/// read through the same two methods either way.
pub(crate) enum PagePartition {
    /// No budget: the whole partition resident as flat page rows, built by
    /// the counting scatter [`crate::btm::Btm`] builds its page side with,
    /// and read in place.
    Rows(PageRows),
    /// Under a budget the partition may not be resident: sorted runs of
    /// [`event_key`]s, spilled past the budget, read back through a
    /// streaming merge that holds one page at a time.
    Runs(RunSet<u128>),
}

impl PagePartition {
    /// Call `f` with every non-empty page and its time-sorted comments,
    /// pages ascending.
    pub(crate) fn for_each_page(&self, mut f: impl FnMut(PageId, PageRow<'_>)) {
        match self {
            PagePartition::Rows(rows) => rows.pages().for_each(|(p, row)| f(p, row)),
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
                    f(PageId(page), PageRow::Wide(&row));
                }
            }
        }
    }

    /// Run the harvest `scan` over the partition: `hit(page, author)` for
    /// each requested author's first comment on each page. The runs stream
    /// straight off the merge: regrouping them into rows first measured 5–8 %
    /// off the whole budgeted run.
    pub(crate) fn harvest(&self, scan: &mut HarvestScan, mut hit: impl FnMut(PageId, AuthorId)) {
        match self {
            PagePartition::Rows(rows) => {
                for (p, row) in rows.pages() {
                    scan.page(p, row, |_, a| hit(p, a));
                }
            }
            PagePartition::Runs(runs) => {
                for k in runs.cursor() {
                    let (p, _, a) = event_from_key(k);
                    let (p, a) = (PageId(p), AuthorId(a));
                    if scan.first_on_page(p, a).is_some() {
                        hit(p, a);
                    }
                }
            }
        }
    }
}

/// The receive side of the event exchange, one shard per rank: what arriving
/// batches are absorbed into and what [`PagePartition`] each rank takes out
/// after the closing barrier. Flat rows hold a rank's whole partition
/// resident, which is exactly what a shuffle budget forbids, so the budget
/// picks the side.
#[derive(Clone)]
enum PageInbox {
    /// Batches appended unsorted (16 B/event); partitioned on take.
    Unsorted(DistBag<(u32, i64, u32)>),
    /// Batches sorted and merged as they arrive, spilling past the budget.
    Runs(DistRuns<u128>),
}

impl PageInbox {
    fn new(nranks: usize, budget: Option<usize>) -> Self {
        match budget {
            None => PageInbox::Unsorted(DistBag::new(nranks)),
            Some(_) => PageInbox::Runs(DistRuns::new(nranks, "page_events", budget)),
        }
    }

    /// Absorb one arriving batch into the calling rank's shard, one lock.
    fn absorb(&self, ctx: &RankCtx, batch: PackedBatch<(u32, i64, u32)>) {
        match self {
            PageInbox::Unsorted(bag) => bag.local_extend(ctx, batch.iter()),
            PageInbox::Runs(runs) => {
                runs.local_absorb(ctx, batch.iter().map(|(p, ts, a)| event_key(p, ts, a)))
            }
        }
    }

    /// Finish the calling rank's partition (post-barrier).
    fn take(&self, ctx: &RankCtx) -> PagePartition {
        match self {
            PageInbox::Unsorted(bag) => {
                let events = bag.local_take(ctx);
                // `run_events` is told only `n_authors`, so the offset table
                // is sized from the largest page id that arrived.
                let n_pages = events.iter().map(|e| e.0).max().map_or(0, |max| {
                    max.checked_add(1)
                        .expect("dense page ids stay below u32::MAX")
                });
                PagePartition::Rows(PageRows::build(n_pages, || {
                    events
                        .iter()
                        .map(|&(p, ts, a)| (PageId(p), ts, AuthorId(a)))
                }))
            }
            PageInbox::Runs(runs) => PagePartition::Runs(runs.local_take(ctx)),
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
/// and [`ygm::owner_of`] hashes (FNV-1a, then a splitmix finish) on every
/// `push_keyed` call regardless.
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
/// Construction mirrors [`Pipeline`](crate::Pipeline), and the config is the
/// same type.
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
    /// and lets the event exchange land in flat page rows instead of a run
    /// stack. The output must be bit-identical for every
    /// budget, down to one batch.
    pub shuffle_budget: Option<usize>,
}

/// The rank program's one input shape: called as `source(rank, nranks)` on
/// every rank, it yields that rank's share of the event stream. The union
/// over ranks must be the same event multiset for every rank count. Events
/// carry dense ids already — no interning happens behind this door.
pub type EventSource<'a> = dyn Fn(usize, usize) -> Box<dyn Iterator<Item = Event> + 'a> + Sync + 'a;

/// Identity helper that pins a closure to the [`EventSource`] shape. Without
/// it, a closure literal returning `Box::new(...)` infers a `'static` boxed
/// iterator and refuses to capture borrowed generator state; routing the
/// closure through this function ties the box's lifetime to the borrow:
///
/// ```ignore
/// let source = event_source(|rank, nranks| Box::new(month.rank_events(rank, nranks)));
/// pipeline.run_events(month.total_authors(), &source);
/// ```
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
    n_comments: u64,
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

    /// Pipeline over an already-interned dataset: each rank takes its block
    /// of the event list ([`ygm::block_range`]); exclusions resolve by name,
    /// as in [`Pipeline::run_dataset`](crate::Pipeline::run_dataset).
    pub fn run_dataset(&self, ds: &Dataset) -> PipelineOutput {
        let excluded = self.config.exclusions.resolve(ds);
        let source = event_source(|rank, nranks| {
            let block = block_range(rank, ds.events.len(), nranks);
            Box::new(ds.events[block].iter().copied())
        });
        self.run_world(ds.authors.len() as u32, &excluded, &source)
    }

    /// Pipeline over an opened snapshot: every rank reads its own block of
    /// the page rows' words in the shared mmap
    /// ([`coordination_store::EventsView::rank_slice`]: whole pages but for
    /// the two a block boundary may split, found through the row offsets) —
    /// the rows are never copied, per rank or at all. Exclusions resolve
    /// against the mapped name table, as in
    /// [`Pipeline::run_snapshot`](crate::Pipeline::run_snapshot).
    pub fn run_snapshot(&self, snap: &coordination_store::Snapshot) -> PipelineOutput {
        let excluded = self.config.exclusions.resolve_names(snap.author_names());
        let source = event_source(|rank, nranks| {
            let slice = snap.events().rank_slice(rank, nranks);
            Box::new(slice.map(|(a, p, ts)| Event::new(AuthorId(a), PageId(p), ts)))
        });
        self.run_world(snap.meta().n_authors, &excluded, &source)
    }

    /// Pipeline over a rank-sharded event stream that is never materialized:
    /// each rank pulls `source(rank, nranks)` and feeds the events straight
    /// into the exchange — the path for generated (or externally streamed)
    /// workloads whose full event list would not fit one rank. Events carry
    /// dense author/page ids; name-based exclusions do not apply here (there
    /// are no names), so callers exclude upstream.
    ///
    /// # Panics
    /// If the source yields an author id that is not below `n_authors`.
    pub fn run_events<'a>(&self, n_authors: u32, source: &'a EventSource<'a>) -> PipelineOutput {
        self.run_world(n_authors, &[], source)
    }

    /// The one door: every `run_*` is this call.
    fn run_world(
        &self,
        n_authors: u32,
        excluded: &[AuthorId],
        source: &EventSource<'_>,
    ) -> PipelineOutput {
        let nranks = self.nranks;
        let cfg = &self.config;
        let budget = self.shuffle_budget;
        let gone = author_mask(n_authors, excluded);

        // Distributed containers, one per shuffle point. The event exchange
        // lands in flat page rows (or, under a budget, a spilling run stack);
        // the other three are bounded run stacks (each arriving batch sorted
        // and merged incrementally, spilling past the budget), never maps of
        // per-key `Vec`s. Keys are the order-preserving packings declared at
        // the top of the module.
        let page_events = PageInbox::new(nranks, budget);
        let author_pages: DistRuns<u64> = DistRuns::new(nranks, "author_pages", budget);
        let pair_occurrences: DistRuns<u64> = DistRuns::new(nranks, "pair_occurrences", budget);
        let oriented_edges: DistRuns<u128> = DistRuns::new(nranks, "oriented_edges", budget);
        // The merged on-demand harvest is published per rank into a plain
        // bag so validation's quiescent cross-rank binary searches still
        // have a random-access sorted shard to read.
        let harvest_out: DistBag<u64> = DistBag::new(nranks);
        let survey = DistSurvey::new(
            nranks,
            SurveyConfig {
                min_edge_weight: cfg.min_triangle_weight,
                min_t_score: cfg.min_t_score,
                top_k: None,
            },
        );

        let program = RankProgram {
            cfg,
            batch_bytes: self.batch_bytes,
            n_authors,
            gone: &gone,
            source,
            page_events: &page_events,
            author_pages: &author_pages,
            pair_occurrences: &pair_occurrences,
            oriented_edges: &oriented_edges,
            harvest_out: &harvest_out,
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
            comments_reviewed: g.n_comments,
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

/// What every rank of one run shares: the input behind the door and the
/// landing zone of each shuffle.
#[derive(Clone, Copy)]
struct RankProgram<'a, 's> {
    cfg: &'a PipelineConfig,
    batch_bytes: Option<usize>,
    n_authors: u32,
    /// [`author_mask`] of the caller's exclusion list.
    gone: &'a [bool],
    source: &'a EventSource<'s>,
    page_events: &'a PageInbox,
    author_pages: &'a DistRuns<u64>,
    pair_occurrences: &'a DistRuns<u64>,
    oriented_edges: &'a DistRuns<u128>,
    harvest_out: &'a DistBag<u64>,
    survey: &'a DistSurvey,
}

/// One rank's whole program, ingest to validation. Every collective below is
/// issued unconditionally and in the same order on every rank.
fn rank_main(ctx: &RankCtx, program: RankProgram<'_, '_>) -> RankOut {
    let RankProgram {
        cfg,
        batch_bytes,
        n_authors,
        gone,
        source,
        page_events,
        author_pages,
        pair_occurrences,
        oriented_edges,
        harvest_out,
        survey,
    } = program;
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

    // ---- Stage 1: open this rank's share of the one source --------------
    let ingest_span = obs::span("dist.ingest");
    let events = source(ctx.rank(), ctx.nranks());
    drop(ingest_span);

    // ---- Stage 2: event exchange (page-hash shuffle) --------------------
    // The source is pulled one event at a time straight into the packed
    // aggregator, so ingest and exchange overlap and this rank's share of
    // the *input* never exists as an owned `Vec<Event>`. Receivers absorb
    // whole batches under one lock each ([`PageInbox`]): appended as they
    // are when the partition may stay resident; under a shuffle budget,
    // sorted on arrival and merged *while later batches are still in flight*
    // (ship drains opportunistically), spilling sorted segments to disk.
    let exchange_span = obs::span("dist.exchange");
    let mut kept_local = 0u64;
    {
        let pe = page_events.clone();
        let mut to_pages = packed_agg!(
            "events_to_pages",
            (u32, i64, u32),
            move |inner: &RankCtx, batch: PackedBatch<(u32, i64, u32)>| pe.absorb(inner, batch)
        );
        // Inputs arrive page-clustered (dataset and snapshot events are
        // page-major; generated blocks share a page), so one cached owner
        // saves an `owner_of` hash per event in the common case.
        let mut page_owner = CachedOwner::new();
        for e in events {
            // The door's range check, with `Btm::build`'s message: past here
            // an author id indexes dense per-author tables on every rank.
            assert!(
                e.author.0 < n_authors,
                "author id {} out of range",
                e.author.0
            );
            if !is_kept(gone, e.author) {
                continue;
            }
            kept_local += 1;
            let dest = page_owner.dest(e.page.0, ctx.nranks());
            to_pages.push(ctx, dest, (e.page.0, e.ts, e.author.0));
        }
        to_pages.flush_all(ctx);
    }
    ctx.barrier();
    out.n_comments = ctx.all_reduce_sum(kept_local);
    // Owners finish their partitions: a counting scatter into flat page
    // rows, comparing only within the rows that did not arrive time-ordered
    // — `Btm`'s page side, by `Btm`'s own builder — or, under a budget, the
    // sorted runs (resident and spilled) the stack already holds, read back
    // through a streaming merge. (The author→pages incidence the validator
    // needs is *not* built here: it is harvested on demand in stage 5, for
    // the handful of authors the survey actually surfaces.)
    let my_events = page_events.take(ctx);
    ctx.barrier();
    drop(exchange_span);

    // ---- Stage 3: projection (pair shuffle to edge owners) --------------
    let project_span = obs::span("dist.project");
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
        my_events.for_each_page(|_, comments| {
            for &p in step.page(comments, kernel) {
                to_edges.push_keyed(ctx, &p, p);
            }
        });
        to_edges.flush_all(ctx);
    }
    // `my_events` stays alive through the survey: stage 5 harvests the
    // surveyed authors' page lists from a second pass over it.
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
    out.ci_edges = ctx.all_reduce_sum(out.edge_run.len() as u64);
    drop(project_span);
    let t_projected = Instant::now();

    // ---- Stage 4: orient + partitioned triangle survey ------------------
    let survey_span = obs::span("dist.survey");
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
    let validate_span = obs::span("dist.validate");
    // Sorted by vertex triple, consecutive survivors share their leading
    // edge: the validation kernel intersects it once per run.
    mine.sort_unstable_by_key(|s| s.triangle.vertices());
    // On-demand author→pages harvest. Validation only ever reads the page
    // lists of surveyed triangle vertices — a handful of authors — so
    // instead of shuffling every event to its author owner (a second full
    // per-event exchange plus a multimillion-pair sort), each rank scans its
    // page partition for the authors the survey surfaced and ships just
    // those incidences. The packed sort + dedup at the owner reproduces
    // `Btm`'s sorted, deduplicated page lists exactly — restricted to the
    // authors anyone will look up.
    // The fold already applied the keep predicates (min weight, t-score),
    // so only survivors' vertices enter the harvest. Hot organic authors
    // with huge page lists mostly ride in noise triangles, so this is the
    // difference between shipping thousands of pairs and shipping a sizable
    // fraction of the whole incidence.
    let mut local: Vec<u32> = mine.iter().flat_map(|s| s.triangle.vertices()).collect();
    local.sort_unstable();
    local.dedup();
    let mut needed = all_gather_concat(ctx, local.clone());
    needed.sort_unstable();
    needed.dedup();
    // `needed` is replicated, so one rank speaks for all: the same totals
    // the resident `validate_all` reports for its harvest.
    if ctx.rank() == 0 {
        obs::counter("validate.harvest_authors").add(needed.len() as u64);
    }
    {
        let ap = author_pages.clone();
        let mut to_authors =
            packed_agg!("author_pages_on_demand", u64, move |inner: &RankCtx,
                                                             batch: PackedBatch<
                u64,
            >| {
                ap.local_absorb(inner, batch.iter());
            });
        if !needed.is_empty() {
            // The resident harvest's scan, over this rank's pages: a hit is
            // an author's first comment on a page, so what ships is already
            // deduplicated (a page has one owner).
            let mut scan = HarvestScan::new(n_authors, needed.iter().map(|&a| AuthorId(a)));
            // Bots comment in bursts, so consecutive qualifying events often
            // share an author — cache the owner like the page loop does.
            let mut author_owner = CachedOwner::new();
            my_events.harvest(&mut scan, |p, a| {
                let dest = author_owner.dest(a.0, ctx.nranks());
                to_authors.push(ctx, dest, pack_pair(a.0, p.0));
            });
        }
        to_authors.flush_all(ctx);
    }
    // Dropping the partition deletes any spill segments behind it.
    drop(my_events);
    ctx.barrier();
    // Merge + dedup the harvested incidences (the cursor yields duplicates
    // adjacent) and publish the rank's sorted run for cross-rank binary
    // searches. The harvest is restricted to surveyed authors, so this
    // materialization is tiny by construction.
    {
        let harvested = author_pages.local_take(ctx);
        let mut merged: Vec<u64> = harvested.cursor().collect();
        merged.dedup();
        obs::counter("validate.harvest_incidences").add(merged.len() as u64);
        harvest_out.with_shard_mut(ctx.rank(), |shard| *shard = merged);
    }
    ctx.barrier();
    // Each author's run, read out of its owner's shard once — quiescent
    // reads: the harvest barrier drained every message and validation sends
    // none — into the table the kernel borrows, as in the resident path.
    let scan = HarvestScan::new(n_authors, local.iter().map(|&a| AuthorId(a)));
    let mut hits = Vec::new();
    for &a in &local {
        let s = scan.slot(AuthorId(a));
        harvest_out.with_shard(owner_of(&a, ctx.nranks()), |shard| {
            let lo = shard.partition_point(|&p| p < u64::from(a) << 32);
            let run = shard[lo..].iter().take_while(|&&p| p >> 32 == u64::from(a));
            hits.extend(run.map(|&p| (s, PageId(p as u32))));
        });
    }
    let authors = AuthorPages::from_hits(scan, &hits);
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
    obs::counter("dist.triplets_validated").add(out.kept.len() as u64);
    drop(validate_span);

    // Rank 0's wall between the stage boundaries it crossed (every
    // boundary is a collective, so the other ranks crossed them with it).
    // Ingest and exchange are booked as projection: they build its input.
    if ctx.rank() == 0 {
        out.timings = StageTimings {
            projection: t_projected - t_start,
            survey: t_surveyed - t_projected,
            validation: t_surveyed.elapsed(),
        };
    }
    out
}
