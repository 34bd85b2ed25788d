//! The rank-sharded end-to-end pipeline: projection → survey → validation
//! on [`ygm`] ranks, over one [`Btm`].
//!
//! [`Pipeline`] runs the three paper steps in one address space over a
//! resident [`Btm`]; this module runs the *same stage graph* with its two
//! sharded steps, the projection and the survey, in the SPMD communication
//! structure the paper's MPI deployment used: each owner-partitioned, and
//! every hand-off between owners an explicit shuffle.
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
//!    of the comments in place, page by page (whole pages but for the two
//!    a block edge splits, from owned or mapped rows of either layout), and
//!    ships each comment to its page owner once, hashing the owner once a
//!    page, through the batching aggregator ([`ygm::PackedAggregator`],
//!    adaptive bytes-per-batch thresholds) as its order-preserving run key
//!    (`event_key`), 16 B on the wire. The owner lands each arriving batch
//!    in a bounded run stack ([`ygm::runs::DistRuns`]), sorted into runs
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
//!    Each rank returns its edge run and its `P'` contribution, and the
//!    partition, with any spill segments behind it, is dropped with the
//!    rank. No rank issues a collective: a page has one owner, so the caller
//!    sums the contributions into the resident `P'`, and the runs are
//!    disjoint and sorted, so `CiGraph::from_runs` merges them into the
//!    resident CI graph.
//!
//! The rest is the resident stage graph (`pipeline::run_stages`): the
//! threshold view is oriented once, on the calling thread, and
//! [`tripoll::distributed::survey_on_ranks`] surveys that orientation on the
//! ranks — each reads the rows of the apexes it owns out of that one
//! orientation in place and pushes a 16-byte wedge check per oriented edge
//! through the packed aggregator to the owner of its far end, which folds
//! the triangles it closes with the resident survey's kernel. Step 3 is [`crate::hypergraph::validate_all`], once, on
//! the calling thread, over the same rows.
//!
//! So the shuffles are the comments' under a budget, the pair occurrences,
//! and the wedge checks. The pair occurrences land in a run stack with or
//! without a budget. A budgeted run's stage 2 records a span of its own,
//! `btm.shard` (the event exchange and the owners' take of their runs), so a
//! report keeps it apart from the `btm.build` of the door that read the
//! input. Each rank records the `project` and `survey` spans of the work it
//! does, on its own thread, and its share of their counters (`project.pages`,
//! `project.edges`, `survey.*`), so the process totals are the resident
//! run's; `survey.orient`, `validate` and `validate.*` are recorded once, as
//! the resident run records them, and a run report names the same steps
//! whichever engine ran.
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

use tripoll::distributed::survey_on_ranks;
use ygm::{owner_of, DistRuns, Packable, PackedAggregator, PackedBatch, RankCtx, RunSet, World};

use crate::btm::{Btm, PageRow, WideRow};
use crate::cigraph::CiGraph;
use crate::ids::{AuthorId, Event};
use crate::pipeline::{run_stages, Pipeline, PipelineConfig, PipelineOutput};
use crate::project::{page_pairs_flat, run_length_pairs, PageStep};
use crate::records::Dataset;
use crate::snapshot::btm_from_snapshot;
use crate::window::Window;

/// Pack a `(page, ts, author)` event into one order-preserving `u128` run
/// key: `page·2⁹⁶ | (ts ⊕ 2⁶³)·2³² | author`. The timestamp sign-flip maps
/// `i64` order onto unsigned order, so numeric key order is exactly the
/// `(page, ts, author)` tuple order [`PagePartition::Runs`] is grouped by.
/// Only a budgeted run packs events this way, and ships them so.
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

/// The three-step pipeline run as one SPMD program over `nranks` ygm ranks.
///
/// Construction mirrors [`Pipeline`], and the config is the same type.
#[derive(Clone, Debug)]
pub struct DistPipeline {
    /// Run parameters (shared with the resident pipeline).
    pub config: PipelineConfig,
    /// Number of ygm ranks to run on.
    nranks: usize,
    /// Override for the exchange flush threshold in bytes. `None` (the
    /// default) uses [`ygm::adaptive_batch_bytes`] per item width; tests set
    /// tiny values to stress the flush path — the output must not move.
    batch_bytes: Option<usize>,
    /// Per-label, per-rank cap on resident receive-side bytes. When a run
    /// stack exceeds it, resident runs are merged and spilled to a sorted
    /// on-disk segment ([`ygm::runs`]); `None` (the default) never spills,
    /// and each rank reads its pages' rows in place, where a budget ships
    /// every comment to its page owner's run stack first. The output must be
    /// bit-identical for every budget, down to one batch.
    shuffle_budget: Option<usize>,
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
    /// nothing rebuilt. Otherwise it is the resident stage graph with its
    /// projection on the ranks and its survey [`survey_on_ranks`]. Every rank
    /// reads the rows in place — its own pages' rows, or under a budget its
    /// own block of the comments ([`ygm::block_range`] of the flat rows:
    /// whole pages but for the two a block edge splits) to ship to their page
    /// owners — so the rows are never copied, per rank or at all.
    pub fn run_btm(&self, btm: &Btm) -> PipelineOutput {
        if self.nranks == 1 && self.shuffle_budget.is_none() {
            return Pipeline::new(self.config.clone()).run_btm(btm);
        }
        run_stages(
            &self.config,
            btm,
            |btm, window| self.project(btm, window),
            |oriented, config, pages| {
                survey_on_ranks(oriented, config, pages, self.nranks, self.batch_bytes).0
            },
        )
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

    /// Step 1 on the ranks: each rank projects its pages of `btm` and
    /// returns its edge run and its `P'` contribution, which merge here into
    /// the CI graph.
    fn project(&self, btm: &Btm, window: Window) -> CiGraph {
        // One landing zone per shuffle: a bounded run stack (each arriving
        // batch sorted and merged incrementally, spilling past the budget).
        // Only a budget ships the comments to their page owners.
        let budget = self.shuffle_budget;
        let page_events = budget.map(|_| DistRuns::<u128>::new(self.nranks, "page_events", budget));
        let pair_occurrences = DistRuns::<u64>::new(self.nranks, "pair_occurrences", budget);
        let ranks = World::run(self.nranks, |ctx| {
            self.project_rank(ctx, btm, window, page_events.as_ref(), &pair_occurrences)
        });
        let mut page_counts = vec![0u64; btm.n_authors() as usize];
        let runs = ranks
            .into_iter()
            .map(|(run, counts)| {
                for (sum, c) in page_counts.iter_mut().zip(counts) {
                    *sum += c;
                }
                run
            })
            .collect();
        // Each pair hashes to one owner, so the runs are disjoint sorted
        // canonical runs and the merge is the resident CSR.
        let ci = CiGraph::from_runs(btm.n_authors(), runs, page_counts);
        obs::record_stage_rss("project");
        ci
    }

    /// One rank's stages 2–3: its page partition, then the page step over
    /// it with the pair shuffle to edge owners. Returns this rank's sorted
    /// canonical edge run and its `P'` contribution.
    fn project_rank<'env>(
        &self,
        ctx: &RankCtx<'env>,
        btm: &Btm,
        window: Window,
        page_events: Option<&'env DistRuns<u128>>,
        pair_occurrences: &'env DistRuns<u64>,
    ) -> (Vec<(u32, u32, u64)>, Vec<u64>) {
        // One threshold policy for every shuffle in this run: the adaptive
        // bytes-per-batch default for the item width, or the test override.
        let batch_bytes = |width: usize| {
            self.batch_bytes
                .unwrap_or_else(|| ygm::adaptive_batch_bytes(width, ctx.nranks()))
        };

        // ---- Stage 2: this rank's pages of the one BTM ------------------
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
            // owners, which sort each arriving batch under one lock and merge
            // it *while later batches are still in flight* (ship drains
            // opportunistically), spilling sorted segments to disk; each
            // owner then reads its runs, resident and spilled, back through a
            // streaming merge.
            Some(page_events) => {
                let _shard = obs::span("btm.shard");
                {
                    let absorb = move |inner: &RankCtx<'env>, batch: PackedBatch<u128>| {
                        page_events.local_absorb(inner, batch.iter());
                    };
                    let mut to_pages = PackedAggregator::with_batch_bytes(
                        ctx,
                        "events_to_pages",
                        batch_bytes(u128::WIDTH),
                        absorb,
                    );
                    // Each comment ships as its run key, to the owner of its
                    // page, hashed once a page.
                    for (page, row) in btm.block(ctx.rank(), ctx.nranks()) {
                        let dest = owner_of(&page.0, ctx.nranks());
                        for (ts, a) in row.iter() {
                            to_pages.push(ctx, dest, event_key(page.0, ts, a.0));
                        }
                    }
                    to_pages.flush_all(ctx);
                }
                ctx.barrier();
                PagePartition::Runs(page_events.local_take(ctx))
            }
        };

        // ---- Stage 3: projection (pair shuffle to edge owners) ----------
        let _project = obs::span("project");
        let mut step = PageStep::new(btm.n_authors());
        {
            let absorb = move |inner: &RankCtx<'env>, batch: PackedBatch<u64>| {
                pair_occurrences.local_absorb(inner, batch.iter());
            };
            let mut to_edges = PackedAggregator::with_batch_bytes(
                ctx,
                "pair_occurrences",
                batch_bytes(u64::WIDTH),
                absorb,
            );
            let kernel =
                |row: PageRow<'_>, pairs: &mut Vec<u64>| page_pairs_flat(row, &window, pairs);
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
        // Dropping the partition deletes any spill segments behind it.
        drop(my_pages);
        ctx.barrier();

        // Each edge owner run-length-counts its disjoint slice of the pair
        // multiset straight off the merge cursor (already globally sorted,
        // duplicates adjacent).
        let edge_run = run_length_pairs(pair_occurrences.local_take(ctx).cursor());
        obs::counter("project.edges").add(edge_run.len() as u64);
        (edge_run, step.into_page_counts())
    }
}
