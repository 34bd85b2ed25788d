//! Step 1: projecting the BTM to the common interaction graph (Algorithm 1).
//!
//! For each page, the time-sorted comment list is scanned with two cursors:
//! every ordered comment pair whose delay falls in `[δ1, δ2]` contributes its
//! (unordered, distinct) author pair to the page's pair set `S_I`; after the
//! scan, each pair in `S_I` increments the edge weight `w'` once and each
//! author incident to `S_I` increments its page count `P'` once.
//!
//! [`project`] is that loop on **flat-vector kernels**: candidate pairs are
//! pushed into a reusable scratch `Vec` and sort+deduped per page
//! ([`page_pairs_flat`]), and every page's pair set is appended to one
//! occurrence buffer that is sorted and run-length-counted **once** at the
//! end into the sorted edge run `CiGraph::from_runs` takes. `P'` is counted
//! by stamp: each author remembers the last page that counted it, so a
//! page's endpoints are neither collected nor sorted. No per-page hashing
//! anywhere on the path. [`project_subset`] is the same loop over
//! each page's subset members, and the rank-sharded engine
//! (`crate::dist_pipeline`) runs the same per-page step on the pages each rank
//! owns.

use crate::btm::{Btm, PageRow, Row};
use crate::cigraph::CiGraph;
use crate::ids::{AuthorId, Timestamp};
use crate::window::Window;

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

/// The delay `later - earlier` if it is at most `d2`. Timestamps come from
/// the input file, so two comments of one page can lie more than `i64::MAX`
/// seconds apart: a difference that overflows is farther than any window.
#[inline]
pub fn delay_within(earlier: Timestamp, later: Timestamp, d2: i64) -> Option<i64> {
    later.checked_sub(earlier).filter(|&dt| dt <= d2)
}

/// Collect the deduplicated author pairs of one page under `window` into the
/// reusable flat scratch `pairs` (cleared first; canonicalized, packed via
/// [`pack_pair`], self-pairs dropped, sorted ascending on return): push every
/// qualifying candidate, compacting periodically, then sort + dedup. A flat
/// push is a handful of cycles where a per-page `HashSet` insert pays a
/// SipHash probe, and the batched single-word sorts are cache friendly.
/// Shared with the rank-sharded engine and the streaming engine's warm start.
pub fn page_pairs_flat(comments: PageRow<'_>, window: &Window, pairs: &mut Vec<u64>) {
    match comments {
        PageRow::Narrow { row, .. } => row_pairs(row, window, pairs),
        PageRow::Wide(row) => row_pairs(row, window, pairs),
    }
}

/// [`page_pairs_flat`] over one layout's rows, sorted by timestamp.
fn row_pairs<R: Row>(comments: &[R], window: &Window, pairs: &mut Vec<u64>) {
    pairs.clear();
    let mut compact_at = COMPACT_MIN;
    for (i, &ci) in comments.iter().enumerate() {
        let ai = ci.author().0;
        for &cj in &comments[i + 1..] {
            let Some(dt) = ci.delay_within(cj, window.d2()) else {
                break; // sorted: later comments are only farther away
            };
            let aj = cj.author().0;
            if dt >= window.d1() && ai != aj {
                pairs.push(pack_pair(ai.min(aj), ai.max(aj)));
                if pairs.len() >= compact_at {
                    let before = pairs.len();
                    pairs.sort_unstable();
                    pairs.dedup();
                    // Compaction earns its keep only on duplicate-heavy pages
                    // (a bot pile-on repeating few author pairs). If it barely
                    // shrank the buffer the candidates are mostly distinct —
                    // stop compacting and let the single final sort handle
                    // them.
                    if pairs.len() * 2 > before {
                        compact_at = usize::MAX;
                    } else {
                        compact_at = (pairs.len() * 2).max(COMPACT_MIN);
                    }
                }
            }
        }
    }
    pairs.sort_unstable();
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

/// The one page step of Algorithm 1, shared by every engine: run the pair
/// kernel on a page, count each distinct endpoint author of the page's pair
/// set once into `P'`, and hand the pair set back. Where the pair set goes is
/// the caller's business — [`project`] and [`project_subset`] append it to
/// their occurrence buffer, stage 3 of [`crate::dist_pipeline`] ships it to
/// the edge owners.
///
/// An author is counted by stamp, not by sorting the page's endpoints:
/// `last_page[a]` holds the number of the last page that counted `a`, so
/// each endpoint costs one compare and two stores, with no branch. Page
/// numbers run from 1; when they wrap, the stamps are cleared, so a number
/// is never mistaken for one from before the wrap.
pub(crate) struct PageStep {
    pairs: Vec<u64>,
    page_counts: Vec<u64>,
    last_page: Vec<u32>,
    page: u32,
}

impl PageStep {
    /// A step accumulating `P'` over an `n_authors` id space.
    pub(crate) fn new(n_authors: u32) -> Self {
        PageStep {
            pairs: Vec::new(),
            page_counts: vec![0; n_authors as usize],
            last_page: vec![0; n_authors as usize],
            page: 0,
        }
    }

    /// One page: `kernel` must leave the page's deduplicated sorted pair set
    /// in the scratch vec it is given. Returns that pair set.
    #[inline]
    pub(crate) fn page(
        &mut self,
        comments: PageRow<'_>,
        kernel: impl FnOnce(PageRow<'_>, &mut Vec<u64>),
    ) -> &[u64] {
        kernel(comments, &mut self.pairs);
        self.page = match self.page.checked_add(1) {
            Some(page) => page,
            None => {
                self.last_page.fill(0);
                1
            }
        };
        for &p in &self.pairs {
            let (x, y) = unpack_pair(p);
            for a in [x as usize, y as usize] {
                self.page_counts[a] += u64::from(self.last_page[a] != self.page);
                self.last_page[a] = self.page;
            }
        }
        &self.pairs
    }

    /// The accumulated `P'`.
    pub(crate) fn into_page_counts(self) -> Vec<u64> {
        self.page_counts
    }
}

/// The one loop [`project`] and [`project_subset`] share: walk every page
/// through the [`PageStep`] and append its pair set to one occurrence buffer
/// that is sorted and run-length-counted **once** after the last page — no
/// hash map on the whole path.
fn project_btm(btm: &Btm, mut kernel: impl FnMut(PageRow<'_>, &mut Vec<u64>)) -> CiGraph {
    let mut step = PageStep::new(btm.n_authors());
    let mut occ: Vec<u64> = Vec::new();
    let run = {
        // One span for the whole loop, not per page — no clock read per page.
        let _pairs = obs::span("project.pairs");
        for (_, comments) in btm.pages() {
            occ.extend_from_slice(step.page(comments, &mut kernel));
        }
        obs::counter("project.pair_occurrences").add(occ.len() as u64);
        occ.sort_unstable();
        run_length_pairs(occ)
    };
    let _merge = obs::span("project.merge");
    CiGraph::from_runs(btm.n_authors(), vec![run], step.into_page_counts())
}

/// Algorithm 1 on the flat vector kernels (see the module docs): one loop
/// over the pages, [`page_pairs_flat`] on each.
pub fn project(btm: &Btm, window: Window) -> CiGraph {
    let _stage = obs::span("project");
    obs::counter("project.pages").add(btm.pages().count() as u64);
    let ci = project_btm(btm, |comments, pairs| {
        page_pairs_flat(comments, &window, pairs)
    });
    obs::counter("project.edges").add(ci.n_edges());
    obs::record_stage_rss("project");
    ci
}

/// Targeted reprojection (paper §2.2): project only the pairs drawn from a
/// given author subset, typically with a *longer* window than the discovery
/// pass — "reproject the original BTM for just this smaller group of users
/// with a longer time window". Equivalent to filtering [`project`]'s output
/// to subset-internal edges (and recomputing `P'` over those pages), but runs
/// in time proportional to the subset's comment volume.
///
/// A subset id outside the id space has no comments to pair and is ignored.
pub fn project_subset(btm: &Btm, subset: &[AuthorId], window: Window) -> CiGraph {
    let mut in_subset = vec![false; btm.n_authors() as usize];
    for a in subset {
        if let Some(slot) = in_subset.get_mut(a.0 as usize) {
            *slot = true;
        }
    }
    // the members' comments of the page at hand, in the page's own layout
    let (mut narrow, mut wide) = (Vec::new(), Vec::new());
    project_btm(btm, |comments, pairs| match comments {
        PageRow::Narrow { row, .. } => member_pairs(row, &in_subset, &mut narrow, &window, pairs),
        PageRow::Wide(row) => member_pairs(row, &in_subset, &mut wide, &window, pairs),
    })
}

/// [`project_subset`]'s page step over one layout's rows: restrict the
/// neighborhood to subset members up front (into the scratch `members`), then
/// pair those.
fn member_pairs<R: Row>(
    comments: &[R],
    in_subset: &[bool],
    members: &mut Vec<R>,
    window: &Window,
    pairs: &mut Vec<u64>,
) {
    members.clear();
    members.extend(comments.iter().filter(|c| in_subset[c.author().0 as usize]));
    row_pairs(members, window, pairs);
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
    }

    #[test]
    fn subset_ids_outside_the_id_space_are_ignored() {
        let b = btm(3, 1, &[ev(0, 0, 0), ev(1, 0, 5), ev(2, 0, 9)]);
        let w = Window::new(0, 60);
        let members = [AuthorId(0), AuthorId(1)];
        let with_strays = [AuthorId(3), AuthorId(0), AuthorId(u32::MAX), AuthorId(1)];
        assert_ci_eq(
            &project_subset(&b, &with_strays, w),
            &project_subset(&b, &members, w),
        );
        assert_eq!(project_subset(&b, &[AuthorId(7)], w).n_edges(), 0);
    }

    /// `P'` counted by stamp equals `P'` counted by sorting each page's
    /// endpoints, when the page numbers wrap too: the first page is numbered
    /// 1 as always, then the count jumps to just short of `u32::MAX`, so the
    /// page after the wrap would read the first page's stamps as its own if
    /// the wrap did not clear them.
    #[test]
    fn page_counts_are_exact_across_the_page_number_wrap() {
        let b = random_btm(31, 12, 40, 900);
        let window = Window::new(0, 300);
        let kernel = |c: PageRow<'_>, pairs: &mut Vec<u64>| page_pairs_flat(c, &window, pairs);
        let mut want = vec![0u64; 12];
        let mut pairs = Vec::new();
        for (_, comments) in b.pages() {
            kernel(comments, &mut pairs);
            let mut ends: Vec<u32> = pairs
                .iter()
                .flat_map(|&p| <[u32; 2]>::from(unpack_pair(p)))
                .collect();
            ends.sort_unstable();
            ends.dedup();
            for a in ends {
                want[a as usize] += 1;
            }
        }
        assert!(want.iter().all(|&n| n > 1), "every author on several pages");
        for jump_to in [
            None,
            Some(u32::MAX - 20),
            Some(u32::MAX - 1),
            Some(u32::MAX),
        ] {
            let mut step = PageStep::new(12);
            for (i, (_, comments)) in b.pages().enumerate() {
                step.page(comments, kernel);
                if i == 0 {
                    assert_eq!(step.page, 1);
                    step.page = jump_to.unwrap_or(step.page);
                }
            }
            assert!(jump_to.is_none() || step.page < 40, "the numbers wrapped");
            assert_eq!(step.into_page_counts(), want, "jump to {jump_to:?}");
        }
    }

    /// Windows around what a narrow row can span: two comments exactly
    /// `u32::MAX` apart on 8 B rows, one second more on 16 B rows. A `δ2`
    /// past `u32::MAX` admits the pair like any bound at or above its delay,
    /// and a `δ1` past it admits nothing.
    #[test]
    fn windows_wider_than_a_narrow_row_can_span() {
        let span = i64::from(u32::MAX);
        for (gap, t0) in [(span, -77), (span + 1, -77), (span, i64::MAX - span)] {
            let events = [ev(0, 0, t0), ev(1, 0, t0 + gap), ev(2, 1, t0), ev(0, 1, t0)];
            let b = btm(3, 2, &events);
            for (d1, d2, paired) in [
                (0, i64::MAX, true),
                (0, gap, true),
                (gap, gap + 1, true),
                (0, gap - 1, false),
                (gap + 1, i64::MAX, false),
                (span + 2, i64::MAX, false),
            ] {
                let ci = project(&b, Window::new(d1, d2));
                assert_eq!(ci.weight(AuthorId(0), AuthorId(1)), u64::from(paired));
                assert_eq!(ci.weight(AuthorId(0), AuthorId(2)), u64::from(d1 == 0));
                assert_eq!(ci.n_edges(), u64::from(paired) + u64::from(d1 == 0));
            }
        }
    }
}
