//! Step 1: projecting the BTM to the common interaction graph (Algorithm 1).
//!
//! For each page, the time-sorted comment list is scanned with two cursors:
//! every ordered comment pair whose delay falls in `[δ1, δ2]` contributes its
//! (unordered, distinct) author pair to the page's pair set `S_I`; after the
//! scan, each pair in `S_I` increments the edge weight `w'` once and each
//! author incident to `S_I` increments its page count `P'` once. Pages are
//! independent, so the parallel drivers fan out over pages:
//!
//! * [`project`] — the default driver, built on **flat-vector kernels**:
//!   candidate pairs are pushed into a reusable scratch `Vec` and
//!   sort+deduped per page ([`page_pairs_flat`]), pages whose neighborhoods
//!   exceed [`HEAVY_PAGE_SPLIT_LEN`] are chunked by comment-index range
//!   across workers (exact — see DESIGN.md on the dedup-after-union
//!   invariant), and each worker's output is an append-only occurrence
//!   buffer sorted and run-length-counted **once** at the end, feeding the
//!   CSR k-way merge directly. No per-page hashing anywhere on the path;
//! * [`project_hashed`] — the previous `HashSet`-per-page /
//!   `HashMap`-per-worker driver, kept as the kernel-ablation baseline the
//!   bench harness compares against;
//! * [`project_sequential`] — the literal Algorithm 1 loop (reference and
//!   baseline for the scaling bench);
//! * [`project_bucketed`] — the paper's time-bucket decomposition of a long
//!   window, kept exact by unioning each page's pair sets across buckets
//!   before counting (naively summing per-bucket projections would double
//!   count pairs that interact in several sub-windows of the same page);
//! * [`project_distributed`] — the YGM formulation: pages are distributed by
//!   hash, pair counts are pushed to distributed counting sets, matching the
//!   communication structure of the paper's cluster implementation.

use std::collections::{HashMap, HashSet};

use rayon::prelude::*;

use crate::btm::{Btm, PageDegreeStats};
use crate::cigraph::CiGraph;
use crate::ids::{AuthorId, Timestamp};
use crate::window::Window;

/// Comment count above which a page's pair generation is split into
/// comment-index-range chunks enumerated by separate workers. Dense pages
/// dominate projection time (pair candidates grow quadratically with the
/// in-window neighborhood), and a single mega-thread otherwise serializes
/// the whole run behind one page.
pub const HEAVY_PAGE_SPLIT_LEN: usize = 4096;

/// Pack a canonical author pair into one machine word: sort order of the
/// packed value equals `(x, y)` lexicographic order, and the single-word
/// compare is what makes the flat kernels' sort+dedup fast.
#[inline]
pub fn pack_pair(x: u32, y: u32) -> u64 {
    ((x as u64) << 32) | y as u64
}

/// Inverse of [`pack_pair`].
#[inline]
pub fn unpack_pair(p: u64) -> (u32, u32) {
    ((p >> 32) as u32, p as u32)
}

/// Candidate buffers are sort+dedup-compacted whenever they grow past twice
/// their last deduplicated size (but never below this floor), so a dense
/// page's working set stays proportional to its *distinct* pair count while
/// each candidate still costs an amortized O(log) — not a hash probe.
const COMPACT_MIN: usize = 1 << 14;

/// Below this length comparison sort beats the fixed cost of counting passes.
const RADIX_MIN: usize = 1 << 15;

/// Sort packed pairs: LSD radix over 16-bit digits for large buffers
/// (skipping the digits that are zero for every element — author ids are
/// dense, so a packed pair rarely uses more than ~40 of its 64 bits),
/// `sort_unstable` otherwise. A mega-thread's candidate buffer sorts in a
/// few linear passes instead of `O(n log n)` comparisons.
pub(crate) fn sort_packed(v: &mut Vec<u64>) {
    if v.len() < RADIX_MIN {
        v.sort_unstable();
        return;
    }
    let max = v.iter().copied().max().unwrap_or(0);
    let bits = 64 - max.leading_zeros() as usize;
    let passes = bits.div_ceil(16).max(1);
    let mut tmp = vec![0u64; v.len()];
    let mut counts = vec![0u32; 1 << 16];
    for pass in 0..passes {
        let shift = pass * 16;
        counts.fill(0);
        for &x in v.iter() {
            counts[((x >> shift) & 0xFFFF) as usize] += 1;
        }
        let mut sum = 0u32;
        for c in counts.iter_mut() {
            let t = *c;
            *c = sum;
            sum += t;
        }
        for &x in v.iter() {
            let d = ((x >> shift) & 0xFFFF) as usize;
            tmp[counts[d] as usize] = x;
            counts[d] += 1;
        }
        std::mem::swap(v, &mut tmp);
    }
}

/// The delay `later - earlier` if it is at most `d2`. Timestamps come from
/// the input file, so two comments of one page can lie more than `i64::MAX`
/// seconds apart: a difference that overflows is farther than any window.
#[inline]
pub fn delay_within(earlier: Timestamp, later: Timestamp, d2: i64) -> Option<i64> {
    later.checked_sub(earlier).filter(|&dt| dt <= d2)
}

/// Push every window-qualifying candidate author pair with a *start* index in
/// `lo..hi` (canonicalized, packed via [`pack_pair`], self-pairs dropped)
/// onto `out`, compacting periodically. The inner cursor runs past `hi` to
/// the end of the window — chunking by start index is what keeps the split
/// exact. `out` need not be empty; its existing contents survive (modulo
/// dedup against them).
#[inline]
fn push_pair_candidates(
    comments: &[(Timestamp, AuthorId)],
    window: &Window,
    lo: usize,
    hi: usize,
    out: &mut Vec<u64>,
) {
    let mut compact_at = (out.len() * 2).max(COMPACT_MIN);
    for i in lo..hi {
        let (ti, ai) = comments[i];
        for &(tj, aj) in &comments[i + 1..] {
            let Some(dt) = delay_within(ti, tj, window.d2()) else {
                break; // sorted: later comments are only farther away
            };
            if dt >= window.d1() && ai != aj {
                out.push(pack_pair(ai.0.min(aj.0), ai.0.max(aj.0)));
                if out.len() >= compact_at {
                    let before = out.len();
                    sort_packed(out);
                    out.dedup();
                    // Compaction earns its keep only on duplicate-heavy pages
                    // (a bot pile-on repeating few author pairs). If it barely
                    // shrank the buffer the candidates are mostly distinct —
                    // stop compacting and let the caller's single final sort
                    // handle them.
                    if out.len() * 2 > before {
                        compact_at = usize::MAX;
                    } else {
                        compact_at = (out.len() * 2).max(COMPACT_MIN);
                    }
                }
            }
        }
    }
}

/// Collect the deduplicated author pairs of one page under `window` into the
/// reusable flat scratch `pairs` (cleared first; packed via [`pack_pair`],
/// sorted ascending on return): push every qualifying candidate, then
/// sort + dedup. This replaces the old per-page `HashSet` — a flat push is a
/// handful of cycles where every set insert paid a SipHash probe, and the
/// batched single-word sorts are cache friendly. Shared with the streaming
/// engine's warm start.
pub fn page_pairs_flat(comments: &[(Timestamp, AuthorId)], window: &Window, pairs: &mut Vec<u64>) {
    pairs.clear();
    push_pair_candidates(comments, window, 0, comments.len(), pairs);
    sort_packed(pairs);
    pairs.dedup();
}

/// [`page_pairs_flat`] for a heavy page: the start-index range is cut into
/// `chunk_len`-sized chunks enumerated in parallel (each sorted + deduped
/// locally), then the chunk outputs are concatenated and deduped again.
/// The same author pair can qualify from start indices in different chunks,
/// so the final dedup is what preserves the exact `S_I` — dedup happens
/// after the union, never before.
fn page_pairs_heavy(
    comments: &[(Timestamp, AuthorId)],
    window: &Window,
    chunk_len: usize,
    pairs: &mut Vec<u64>,
) {
    let n = comments.len();
    let chunk_len = chunk_len.max(1);
    let n_chunks = n.div_ceil(chunk_len);
    let chunks: Vec<Vec<u64>> = (0..n_chunks)
        .into_par_iter()
        .map(|c| {
            let mut v = Vec::new();
            let lo = c * chunk_len;
            push_pair_candidates(comments, window, lo, (lo + chunk_len).min(n), &mut v);
            sort_packed(&mut v);
            v.dedup();
            v
        })
        .collect();
    pairs.clear();
    for c in &chunks {
        pairs.extend_from_slice(c);
    }
    sort_packed(pairs);
    pairs.dedup();
}

/// Run-length-count a sorted occurrence sequence of packed canonical pairs
/// into a sorted `(x, y, w)` edge run — the [`CiGraph::from_runs`] input
/// format. Takes any sorted iterator so streaming merge cursors count
/// without materializing the occurrence multiset.
pub(crate) fn run_length_pairs(occ: impl IntoIterator<Item = u64>) -> Vec<(u32, u32, u64)> {
    let mut run = Vec::new();
    let mut it = occ.into_iter();
    if let Some(mut cur) = it.next() {
        let mut w = 1u64;
        for p in it {
            if p == cur {
                w += 1;
            } else {
                let (x, y) = unpack_pair(cur);
                run.push((x, y, w));
                cur = p;
                w = 1;
            }
        }
        let (x, y) = unpack_pair(cur);
        run.push((x, y, w));
    }
    run
}

/// One worker chunk's accumulated output: a sorted run-length-counted
/// `(x, y, w)` edge run plus a sorted `(author, pages)` P'-contribution run.
type ChunkRuns = (Vec<(u32, u32, u64)>, Vec<(u32, u64)>);

/// Run-length-count a sorted author occurrence buffer into `(author, P')`.
fn run_length_counts(occ: &[u32]) -> Vec<(u32, u64)> {
    let mut counts = Vec::new();
    let mut it = occ.iter().copied();
    if let Some(mut cur) = it.next() {
        let mut c = 1u64;
        for a in it {
            if a == cur {
                c += 1;
            } else {
                counts.push((cur, c));
                cur = a;
                c = 1;
            }
        }
        counts.push((cur, c));
    }
    counts
}

/// The flat chunked driver all vector-kernel projections share. Pages are cut
/// into contiguous chunks (a few per worker); each chunk walks its pages
/// through `kernel` (which must leave the page's deduplicated sorted pair set
/// in the scratch vec), appending pair and author occurrences to append-only
/// buffers that are sorted and run-length-counted **once** per chunk. The
/// per-chunk runs k-way merge in [`CiGraph::from_runs`] — no hash map on the
/// whole path. Scratch vecs are pre-sized from `stats` and reused across all
/// pages of a chunk.
fn project_pages_flat<K>(
    n_authors: u32,
    pages: &[(crate::ids::PageId, &[(Timestamp, AuthorId)])],
    stats: &PageDegreeStats,
    kernel: K,
) -> CiGraph
where
    K: Fn(&[(Timestamp, AuthorId)], &mut Vec<u64>) + Sync + Send,
{
    // p95 of page neighborhoods bounds the *typical* page's candidate count;
    // clamp so one mega-page doesn't pre-reserve quadratic memory per worker.
    let pair_cap = (stats.p95 * stats.p95 / 2).clamp(16, 1 << 16);
    let author_cap = stats.p95.clamp(8, 1 << 12);
    let n_chunks = (rayon::current_num_threads().max(1) * 4)
        .min(pages.len())
        .max(1);
    let chunk_len = pages.len().div_ceil(n_chunks).max(1);
    let pair_occurrences = obs::counter("project.pair_occurrences");
    let parts: Vec<ChunkRuns> = (0..n_chunks)
        .into_par_iter()
        .map(|c| {
            // One span per worker chunk (a few per thread), not per page —
            // kernel labor aggregates under "project.pairs" without a clock
            // read on every page.
            let _chunk = obs::span("project.pairs");
            let lo = (c * chunk_len).min(pages.len());
            let hi = (lo + chunk_len).min(pages.len());
            let mut pairs: Vec<u64> = Vec::with_capacity(pair_cap);
            let mut authors_scratch: Vec<u32> = Vec::with_capacity(author_cap);
            let mut occ: Vec<u64> = Vec::new();
            let mut authors: Vec<u32> = Vec::new();
            for &(_, comments) in &pages[lo..hi] {
                kernel(comments, &mut pairs);
                occ.extend_from_slice(&pairs);
                authors_scratch.clear();
                for &p in &pairs {
                    let (x, y) = unpack_pair(p);
                    authors_scratch.push(x);
                    authors_scratch.push(y);
                }
                authors_scratch.sort_unstable();
                authors_scratch.dedup();
                authors.extend_from_slice(&authors_scratch);
            }
            pair_occurrences.add(occ.len() as u64);
            sort_packed(&mut occ);
            let run = run_length_pairs(occ.iter().copied());
            authors.sort_unstable();
            (run, run_length_counts(&authors))
        })
        .collect();
    let _merge = obs::span("project.merge");
    let mut page_counts = vec![0u64; n_authors as usize];
    let mut runs = Vec::with_capacity(parts.len());
    for (run, counts) in parts {
        for (a, c) in counts {
            page_counts[a as usize] += c;
        }
        runs.push(run);
    }
    CiGraph::from_runs(n_authors, runs, page_counts)
}

/// Algorithm 1 parallelized over pages — the default driver, on the flat
/// vector kernels (see the module docs). Pages with neighborhoods of
/// [`HEAVY_PAGE_SPLIT_LEN`] or more comments are additionally split by
/// comment-index range across workers.
pub fn project(btm: &Btm, window: Window) -> CiGraph {
    project_with_heavy_split(btm, window, HEAVY_PAGE_SPLIT_LEN)
}

/// [`project`] with an explicit heavy-page threshold, so tests and benches
/// can force the split path on small inputs.
#[doc(hidden)]
pub fn project_with_heavy_split(btm: &Btm, window: Window, split_len: usize) -> CiGraph {
    let _stage = obs::span("project");
    let split_len = split_len.max(2);
    let pages: Vec<_> = btm.pages().collect();
    let stats = btm.page_degree_stats();
    obs::counter("project.pages").add(pages.len() as u64);
    obs::counter("project.pages_split")
        .add(pages.iter().filter(|(_, c)| c.len() >= split_len).count() as u64);
    let ci = project_pages_flat(btm.n_authors(), &pages, &stats, move |comments, pairs| {
        if comments.len() >= split_len {
            page_pairs_heavy(comments, &window, split_len, pairs);
        } else {
            page_pairs_flat(comments, &window, pairs);
        }
    });
    obs::counter("project.edges").add(ci.n_edges());
    obs::record_stage_rss("project");
    ci
}

/// Collect the deduplicated author pairs of one page under `window` into
/// `pairs`. `comments` must be sorted by timestamp (BTM guarantees this).
/// Hash-set variant backing the reference drivers.
fn page_pairs(
    comments: &[(Timestamp, AuthorId)],
    window: &Window,
    pairs: &mut HashSet<(u32, u32)>,
) {
    pairs.clear();
    let n = comments.len();
    for i in 0..n {
        let (ti, ai) = comments[i];
        for &(tj, aj) in &comments[i + 1..] {
            let Some(dt) = delay_within(ti, tj, window.d2()) else {
                break; // sorted: later comments are only farther away
            };
            if dt >= window.d1() && ai != aj {
                pairs.insert((ai.0.min(aj.0), ai.0.max(aj.0)));
            }
        }
    }
}

/// Fold one page's pair set into partial edge/page-count maps.
fn accumulate_page(
    pairs: &HashSet<(u32, u32)>,
    edges: &mut HashMap<(u32, u32), u64>,
    page_counts: &mut HashMap<u32, u64>,
    authors_scratch: &mut HashSet<u32>,
) {
    if pairs.is_empty() {
        return;
    }
    authors_scratch.clear();
    for &(x, y) in pairs {
        *edges.entry((x, y)).or_insert(0) += 1;
        authors_scratch.insert(x);
        authors_scratch.insert(y);
    }
    for &a in authors_scratch.iter() {
        *page_counts.entry(a).or_insert(0) += 1;
    }
}

/// One worker's accumulated `(edge weights, page counts)`.
type Partial = (HashMap<(u32, u32), u64>, HashMap<u32, u64>);

fn finish(n_authors: u32, edges: HashMap<(u32, u32), u64>, counts: HashMap<u32, u64>) -> CiGraph {
    let mut page_counts = vec![0u64; n_authors as usize];
    for (a, c) in counts {
        page_counts[a as usize] = c;
    }
    CiGraph::from_parts(n_authors, edges, page_counts)
}

/// Turn per-worker partials into sorted canonical edge runs and hand them to
/// [`CiGraph::from_runs`]: each worker's map is drained and sorted
/// independently (in parallel), and the CSR builder k-way merges the runs —
/// no global map merge, no global re-sort.
fn finish_runs(n_authors: u32, partials: Vec<Partial>) -> CiGraph {
    let mut page_counts = vec![0u64; n_authors as usize];
    let mut edge_maps = Vec::with_capacity(partials.len());
    for (edges, counts) in partials {
        for (a, c) in counts {
            page_counts[a as usize] += c;
        }
        edge_maps.push(edges);
    }
    let runs: Vec<Vec<(u32, u32, u64)>> = edge_maps
        .into_par_iter()
        .map(|m| {
            let mut run: Vec<(u32, u32, u64)> =
                m.into_iter().map(|((x, y), w)| (x, y, w)).collect();
            run.sort_unstable_by_key(|&(x, y, _)| (x, y));
            run
        })
        .collect();
    CiGraph::from_runs(n_authors, runs, page_counts)
}

/// Algorithm 1, sequential reference implementation.
pub fn project_sequential(btm: &Btm, window: Window) -> CiGraph {
    let mut edges = HashMap::new();
    let mut counts = HashMap::new();
    let mut pairs = HashSet::new();
    let mut scratch = HashSet::new();
    for (_, comments) in btm.pages() {
        page_pairs(comments, &window, &mut pairs);
        accumulate_page(&pairs, &mut edges, &mut counts, &mut scratch);
    }
    finish(btm.n_authors(), edges, counts)
}

/// The previous default driver: rayon fold with a `HashSet` pair set per page
/// and `HashMap` partials per worker. Kept verbatim as the kernel-ablation
/// baseline — the bench harness measures [`project`]'s flat kernels against
/// it (EXPERIMENTS.md, "kernel ablation").
pub fn project_hashed(btm: &Btm, window: Window) -> CiGraph {
    let _stage = obs::span("project");
    let pages: Vec<_> = btm.pages().collect();
    let partials: Vec<Partial> = pages
        .par_iter()
        .fold(
            || (HashMap::new(), HashMap::new()),
            |(mut edges, mut counts): Partial, (_, comments)| {
                let mut pairs = HashSet::new();
                let mut scratch = HashSet::new();
                page_pairs(comments, &window, &mut pairs);
                accumulate_page(&pairs, &mut edges, &mut counts, &mut scratch);
                (edges, counts)
            },
        )
        .collect();
    finish_runs(btm.n_authors(), partials)
}

/// The paper's time-bucket strategy for long windows: split `window` into
/// `n_buckets` contiguous sub-windows, scan each page once per bucket, and
/// union the page's pair sets before counting. Produces exactly the same
/// CI graph as [`project`] on the full window, while each scan's working pair
/// set stays bounded by the sub-window's density. Runs on the flat kernels:
/// per-bucket pair vecs are concatenated and deduped after the union (the
/// same invariant that makes the heavy-page split exact).
pub fn project_bucketed(btm: &Btm, window: Window, n_buckets: usize) -> CiGraph {
    let buckets = window.buckets(n_buckets);
    let pages: Vec<_> = btm.pages().collect();
    let stats = btm.page_degree_stats();
    project_pages_flat(btm.n_authors(), &pages, &stats, move |comments, pairs| {
        let mut bucket_pairs = Vec::new();
        pairs.clear();
        for b in &buckets {
            page_pairs_flat(comments, b, &mut bucket_pairs);
            pairs.extend_from_slice(&bucket_pairs);
        }
        pairs.sort_unstable();
        pairs.dedup();
    })
}

/// The YGM-style distributed projection: pages are hash-distributed across
/// `nranks` ranks; each rank scans its pages and pushes `w'`/`P'` increments
/// to distributed counting sets **through send-side aggregation**
/// ([`ygm::Aggregator`]), exactly the communication pattern of the paper's
/// implementation. Results match [`project`] bit for bit.
pub fn project_distributed(btm: &Btm, window: Window, nranks: usize) -> CiGraph {
    use ygm::container::DistCountingSet;
    use ygm::partition::owner_of;
    use ygm::{Aggregator, World};

    const FLUSH_THRESHOLD: usize = 1024;

    let edge_counts: DistCountingSet<(u32, u32)> = DistCountingSet::new(nranks);
    let page_counts: DistCountingSet<u32> = DistCountingSet::new(nranks);

    {
        let ec = edge_counts.clone();
        let pc = page_counts.clone();
        let btm_ref = &btm;
        World::run(nranks, move |ctx| {
            let mut pairs = HashSet::new();
            let mut authors = HashSet::new();
            // batch the fine-grained increments into per-destination buffers;
            // the apply side runs on the owner and mutates its shard directly
            let ec_apply = ec.clone();
            let mut edge_agg =
                Aggregator::new(ctx, FLUSH_THRESHOLD, move |inner, pair: (u32, u32)| {
                    ec_apply.local_add(inner, pair, 1);
                });
            let pc_apply = pc.clone();
            let mut page_agg = Aggregator::new(ctx, FLUSH_THRESHOLD, move |inner, author: u32| {
                pc_apply.local_add(inner, author, 1);
            });
            for (pid, comments) in btm_ref.pages() {
                // owner-computes: the rank owning the page scans it
                if owner_of(&pid.0, ctx.nranks()) != ctx.rank() {
                    continue;
                }
                page_pairs(comments, &window, &mut pairs);
                if pairs.is_empty() {
                    continue;
                }
                authors.clear();
                for &(x, y) in &pairs {
                    edge_agg.push(ctx, owner_of(&(x, y), ctx.nranks()), (x, y));
                    authors.insert(x);
                    authors.insert(y);
                }
                for &a in &authors {
                    page_agg.push(ctx, owner_of(&a, ctx.nranks()), a);
                }
            }
            edge_agg.flush_all(ctx);
            page_agg.flush_all(ctx);
            ctx.barrier();
        });
    }

    let edges = edge_counts.drain_into_local();
    let counts = page_counts.drain_into_local();
    finish(btm.n_authors(), edges, counts)
}

/// Targeted reprojection (paper §2.2): project only the pairs drawn from a
/// given author subset, typically with a *longer* window than the discovery
/// pass — "reproject the original BTM for just this smaller group of users
/// with a longer time window". Equivalent to filtering [`project`]'s output
/// to subset-internal edges (and recomputing `P'` over those pages), but runs
/// in time proportional to the subset's comment volume.
pub fn project_subset(btm: &Btm, subset: &[AuthorId], window: Window) -> CiGraph {
    let mut in_subset = vec![false; btm.n_authors() as usize];
    for a in subset {
        in_subset[a.0 as usize] = true;
    }
    let pages: Vec<_> = btm.pages().collect();
    let stats = btm.page_degree_stats();
    project_pages_flat(btm.n_authors(), &pages, &stats, move |comments, pairs| {
        // restrict the neighborhood to subset members up front
        let filtered: Vec<(Timestamp, AuthorId)> = comments
            .iter()
            .copied()
            .filter(|&(_, a)| in_subset[a.0 as usize])
            .collect();
        pairs.clear();
        if filtered.len() >= 2 {
            page_pairs_flat(&filtered, &window, pairs);
        }
    })
}

/// Summary statistics of one projection run, for scale reporting
/// (paper §3.2.3: "2.95 million authors and 3.28 billion edges").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProjectionStats {
    /// Comments reviewed (BTM edge count).
    pub comments_reviewed: u64,
    /// Authors with at least one projection edge.
    pub active_authors: u32,
    /// Edges in the CI graph.
    pub ci_edges: u64,
    /// Largest `w'`.
    pub max_weight: u64,
}

/// Compute [`ProjectionStats`] for a projection of `btm`.
pub fn stats(btm: &Btm, ci: &CiGraph) -> ProjectionStats {
    ProjectionStats {
        comments_reviewed: btm.n_comments(),
        active_authors: ci.active_authors(),
        ci_edges: ci.n_edges(),
        max_weight: ci.max_weight(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Event, PageId};

    fn ev(a: u32, p: u32, ts: Timestamp) -> Event {
        Event::new(AuthorId(a), PageId(p), ts)
    }

    fn btm(n_authors: u32, n_pages: u32, events: &[Event]) -> Btm {
        Btm::from_events(n_authors, n_pages, events)
    }

    #[test]
    fn basic_pairing_within_window() {
        // authors 0,1 comment 30s apart; 2 comments 300s later
        let b = btm(3, 1, &[ev(0, 0, 0), ev(1, 0, 30), ev(2, 0, 330)]);
        let ci = project(&b, Window::new(0, 60));
        assert_eq!(ci.weight(AuthorId(0), AuthorId(1)), 1);
        assert_eq!(ci.weight(AuthorId(1), AuthorId(2)), 0);
        assert_eq!(ci.weight(AuthorId(0), AuthorId(2)), 0);
        assert_eq!(ci.page_count(AuthorId(0)), 1);
        assert_eq!(ci.page_count(AuthorId(2)), 0);
    }

    #[test]
    fn window_bounds_are_inclusive() {
        let b = btm(
            2,
            3,
            &[
                ev(0, 0, 0),
                ev(1, 0, 10), // dt = d1 exactly
                ev(0, 1, 0),
                ev(1, 1, 20), // dt = d2 exactly
                ev(0, 2, 0),
                ev(1, 2, 21), // dt just past d2
            ],
        );
        let ci = project(&b, Window::new(10, 20));
        assert_eq!(ci.weight(AuthorId(0), AuthorId(1)), 2);
    }

    #[test]
    fn same_page_counted_once_per_pair() {
        // x and y alternate comments rapidly: many qualifying pairs, one page
        let events: Vec<Event> = (0..10).map(|i| ev((i % 2) as u32, 0, i as i64)).collect();
        let b = btm(2, 1, &events);
        let ci = project(&b, Window::new(0, 60));
        assert_eq!(ci.weight(AuthorId(0), AuthorId(1)), 1);
        assert_eq!(ci.page_count(AuthorId(0)), 1);
    }

    #[test]
    fn self_interactions_ignored() {
        let b = btm(2, 1, &[ev(0, 0, 0), ev(0, 0, 5), ev(0, 0, 10)]);
        let ci = project(&b, Window::new(0, 60));
        assert_eq!(ci.n_edges(), 0);
        assert_eq!(ci.page_count(AuthorId(0)), 0);
    }

    #[test]
    fn d1_greater_than_zero_excludes_immediate_pairs() {
        let b = btm(
            2,
            2,
            &[
                ev(0, 0, 0),
                ev(1, 0, 2), // too close for d1=5
                ev(0, 1, 0),
                ev(1, 1, 7), // inside (5, 10)
            ],
        );
        let ci = project(&b, Window::new(5, 10));
        assert_eq!(ci.weight(AuthorId(0), AuthorId(1)), 1);
    }

    #[test]
    fn weights_count_distinct_pages() {
        let mut events = Vec::new();
        for p in 0..5 {
            events.push(ev(0, p, 0));
            events.push(ev(1, p, 1));
        }
        let b = btm(2, 5, &events);
        let ci = project(&b, Window::new(0, 60));
        assert_eq!(ci.weight(AuthorId(0), AuthorId(1)), 5);
        assert_eq!(ci.page_count(AuthorId(0)), 5);
    }

    #[test]
    fn equal_timestamps_pair_once() {
        let b = btm(2, 1, &[ev(0, 0, 100), ev(1, 0, 100)]);
        let ci = project(&b, Window::new(0, 60));
        assert_eq!(ci.weight(AuthorId(0), AuthorId(1)), 1);
    }

    fn random_btm(seed: u64, n_authors: u32, n_pages: u32, n_events: usize) -> Btm {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let events: Vec<Event> = (0..n_events)
            .map(|_| {
                ev(
                    rng.gen_range(0..n_authors),
                    rng.gen_range(0..n_pages),
                    rng.gen_range(0..5_000),
                )
            })
            .collect();
        btm(n_authors, n_pages, &events)
    }

    fn assert_ci_eq(a: &CiGraph, b: &CiGraph) {
        let mut ea: Vec<_> = a.edges().collect();
        let mut eb: Vec<_> = b.edges().collect();
        ea.sort_unstable();
        eb.sort_unstable();
        assert_eq!(ea, eb);
        assert_eq!(a.page_counts(), b.page_counts());
    }

    #[test]
    fn parallel_matches_sequential() {
        for seed in 0..5 {
            let b = random_btm(seed, 40, 30, 600);
            let w = Window::new(0, 120);
            assert_ci_eq(&project(&b, w), &project_sequential(&b, w));
        }
    }

    #[test]
    fn flat_matches_hashed_baseline() {
        for seed in 0..5 {
            let b = random_btm(seed + 500, 40, 30, 600);
            let w = Window::new(0, 120);
            assert_ci_eq(&project(&b, w), &project_hashed(&b, w));
        }
    }

    #[test]
    fn heavy_split_matches_unsplit() {
        // force the split path with a tiny threshold: every page goes heavy
        for seed in 0..3 {
            let b = random_btm(seed + 300, 25, 8, 500);
            let w = Window::new(0, 400);
            let unsplit = project_with_heavy_split(&b, w, usize::MAX);
            for split_len in [2, 3, 7, 64] {
                assert_ci_eq(&unsplit, &project_with_heavy_split(&b, w, split_len));
            }
            assert_ci_eq(&unsplit, &project_sequential(&b, w));
        }
    }

    #[test]
    fn bucketed_matches_direct() {
        for seed in 0..5 {
            let b = random_btm(seed + 100, 30, 20, 500);
            let w = Window::new(0, 600);
            let direct = project(&b, w);
            for n_buckets in [1, 2, 5, 10] {
                assert_ci_eq(&direct, &project_bucketed(&b, w, n_buckets));
            }
        }
    }

    #[test]
    fn bucketed_with_nonzero_d1() {
        let b = random_btm(7, 20, 15, 400);
        let w = Window::new(30, 600);
        assert_ci_eq(&project(&b, w), &project_bucketed(&b, w, 4));
    }

    #[test]
    fn distributed_matches_shared_memory() {
        for seed in 0..3 {
            let b = random_btm(seed + 50, 30, 25, 500);
            let w = Window::new(0, 90);
            let shared = project(&b, w);
            for nranks in [1, 3, 5] {
                assert_ci_eq(&shared, &project_distributed(&b, w, nranks));
            }
        }
    }

    #[test]
    fn window_nesting_is_monotone() {
        // paper §3: projection for (0,60) ⊆ projection for (0,3600)
        let b = random_btm(11, 30, 20, 800);
        let small = project(&b, Window::new(0, 60));
        let large = project(&b, Window::new(0, 3600));
        for (x, y, w) in small.edges() {
            assert!(
                large.weight(AuthorId(x), AuthorId(y)) >= w,
                "edge ({x},{y}) shrank from {w}"
            );
        }
        assert!(large.n_edges() >= small.n_edges());
    }

    #[test]
    fn subset_projection_matches_filtered_full_projection() {
        let b = random_btm(21, 30, 20, 700);
        let w = Window::new(0, 300);
        let subset: Vec<AuthorId> = [2u32, 5, 9, 11, 20].iter().map(|&i| AuthorId(i)).collect();
        let sub = project_subset(&b, &subset, w);
        let full = project(&b, w);
        let in_subset: std::collections::HashSet<u32> = subset.iter().map(|a| a.0).collect();
        // edges: exactly the subset-internal edges of the full projection
        let mut expect: Vec<(u32, u32, u64)> = full
            .edges()
            .filter(|(x, y, _)| in_subset.contains(x) && in_subset.contains(y))
            .collect();
        let mut got: Vec<(u32, u32, u64)> = sub.edges().collect();
        expect.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, expect);
        // non-members have no presence at all
        for a in 0..30u32 {
            if !in_subset.contains(&a) {
                assert_eq!(sub.page_count(AuthorId(a)), 0);
            }
        }
    }

    #[test]
    fn subset_projection_with_longer_window_reveals_slower_coordination() {
        // two authors co-comment ~5 minutes apart on many pages: invisible at
        // (0,60), visible when the flagged pair is reprojected at (0,600)
        let mut events = Vec::new();
        for p in 0..15u32 {
            events.push(ev(0, p, p as i64 * 10_000));
            events.push(ev(1, p, p as i64 * 10_000 + 300));
        }
        let b = btm(3, 15, &events);
        let narrow = project_subset(&b, &[AuthorId(0), AuthorId(1)], Window::new(0, 60));
        assert_eq!(narrow.weight(AuthorId(0), AuthorId(1)), 0);
        let wide = project_subset(&b, &[AuthorId(0), AuthorId(1)], Window::new(0, 600));
        assert_eq!(wide.weight(AuthorId(0), AuthorId(1)), 15);
    }

    #[test]
    fn empty_btm_projects_to_empty_graph() {
        let b = btm(5, 5, &[]);
        let ci = project(&b, Window::new(0, 60));
        assert_eq!(ci.n_edges(), 0);
        assert_eq!(ci.active_authors(), 0);
        let s = stats(&b, &ci);
        assert_eq!(s.comments_reviewed, 0);
        assert_eq!(s.ci_edges, 0);
    }

    #[test]
    fn stats_report_scale() {
        let b = random_btm(3, 20, 10, 300);
        let ci = project(&b, Window::new(0, 300));
        let s = stats(&b, &ci);
        assert_eq!(s.comments_reviewed, 300);
        assert_eq!(s.ci_edges, ci.n_edges());
        assert_eq!(s.active_authors, ci.active_authors());
        assert_eq!(s.max_weight, ci.max_weight());
    }
}
