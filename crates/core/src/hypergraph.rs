//! Step 3: hypergraph validation of candidate triplets.
//!
//! Once steps 1–2 have pruned the `O(|U|³)` triplet space to a short list of
//! high-weight triangles, the pipeline returns to the original bipartite data
//! and computes the *true* multiway interaction counts: `w_xyz` (Eq. 2) is the
//! size of the three-way intersection of the authors' page lists, and the
//! normalized score `C(x,y,z)` (Eq. 4) divides by their total page counts.
//! Note there is deliberately no time bound here — the paper validates spatial
//! coordination only (its §4.2 names time-windowed hyperedges as future work).

use crate::btm::{AuthorPages, Btm};
use crate::ids::{AuthorId, PageId};
use crate::metrics::{c_score, TripletMetrics};
use coordination_graph::intersect::{
    intersect_indices, intersect_indices_gallop, StampSet, STAMP_GALLOP_RATIO,
};
use tripoll::survey::t_score;
use tripoll::Triangle;

/// A run of consecutive triples sharing an edge: it and `|pages(x) ∩ pages(y)|`.
pub(crate) type PrefixRun = ([AuthorId; 2], usize);

/// Step 3's one kernel, both engines': `w_xyz` for triples keyed on their
/// leading edge `(x, y)`. When the edge changes, `pages(x) ∩ pages(y)` is
/// intersected once and stamped into one per-page [`StampSet`] (allocated
/// once, cleared by unstamping, never swept); each `w_xyz` of the run probes
/// `pages(z)` against it or, when `pages(z)` is over [`STAMP_GALLOP_RATIO`]×
/// longer, gallops the intersection through it, as the wedge kernel does.
/// Order is a speed property only: any order (unsorted, repeated,
/// interleaved) gives the same weights; sorted input intersects an edge once.
pub(crate) struct SharedPrefix<'a> {
    authors: &'a AuthorPages,
    marks: StampSet,
    /// The current run's stamped `pages(x) ∩ pages(y)`; its edge is the last run's.
    shared: Vec<PageId>,
    runs: Vec<PrefixRun>,
}

impl<'a> SharedPrefix<'a> {
    /// A kernel over `authors`' page lists.
    pub(crate) fn new(authors: &'a AuthorPages) -> Self {
        SharedPrefix {
            authors,
            marks: StampSet::new(authors.page_bound()),
            shared: Vec::new(),
            runs: Vec::new(),
        }
    }

    /// `w_xyz` of `[x, y, z]`, all three harvested.
    pub(crate) fn weight(&mut self, [x, y, z]: [AuthorId; 3]) -> u64 {
        if self.runs.last().map(|r| r.0) != Some([x, y]) {
            self.close_run();
            let px = self.authors.pages(x);
            let shared = &mut self.shared;
            intersect_indices(px, self.authors.pages(y), &mut |i, _| shared.push(px[i]));
            self.marks.stamp(shared);
            self.runs.push(([x, y], shared.len()));
        }
        let pz = self.authors.pages(z);
        let mut w = 0u64;
        if self.shared.len() * STAMP_GALLOP_RATIO < pz.len() {
            intersect_indices_gallop(&self.shared, pz, false, &mut |_, _| w += 1);
        } else {
            self.marks.probe(pz, &mut |_, _| w += 1);
        }
        w
    }

    /// Unstamp the current run, leaving the marks clear; a new run must open next.
    fn close_run(&mut self) {
        self.marks.unstamp(&self.shared);
        self.shared.clear();
    }

    /// Clear the marks and return the runs opened, in order.
    pub(crate) fn finish(mut self) -> Vec<PrefixRun> {
        self.close_run();
        self.runs
    }
}

/// `w_xyz` for three harvested authors: a one-triplet run of the kernel.
pub fn hyperedge_weight(authors: &AuthorPages, x: AuthorId, y: AuthorId, z: AuthorId) -> u64 {
    SharedPrefix::new(authors).weight([x, y, z])
}

/// A triangle's [`TripletMetrics`] from its `w_xyz`, its vertices' page
/// counts `p_x` (`page_counts[i]` belongs to `t.vertices()[i]`) and the
/// global `P'` vector. Both engines build every record through it, so `T` and
/// `C` are the same floating-point expressions on both — bit-identical by
/// construction.
pub(crate) fn triplet_metrics(
    t: &Triangle,
    w_xyz: u64,
    page_counts: [u64; 3],
    ci_page_counts: &[u64],
) -> TripletMetrics {
    let [a, b, c] = t.vertices();
    let [pa, pb, pc] = page_counts;
    let p_ci = |v: u32| ci_page_counts[v as usize];
    let min_w = t.min_weight();
    TripletMetrics {
        authors: [AuthorId(a), AuthorId(b), AuthorId(c)],
        ci_weights: t.edge_weights(),
        min_ci_weight: min_w,
        t: t_score(min_w, p_ci(a), p_ci(b), p_ci(c)),
        hyper_weight: w_xyz,
        c: c_score(w_xyz, pa, pb, pc),
        page_counts,
    }
}

/// Both engines' step 3: `triangles`' metrics in order, and the kernel's runs.
pub(crate) fn validate_triangles<'t>(
    authors: &AuthorPages,
    ci_page_counts: &[u64],
    triangles: impl IntoIterator<Item = &'t Triangle>,
) -> (Vec<TripletMetrics>, Vec<PrefixRun>) {
    let mut kernel = SharedPrefix::new(authors);
    let metrics = triangles
        .into_iter()
        .map(|t| {
            let v = t.vertices().map(AuthorId);
            let w_xyz = kernel.weight(v);
            triplet_metrics(t, w_xyz, v.map(|a| authors.page_count(a)), ci_page_counts)
        })
        .collect();
    (metrics, kernel.finish())
}

/// Count runs into `validate.prefix_runs`, their lengths into `.prefix_pages`.
pub(crate) fn record_runs(runs: &[PrefixRun]) {
    obs::counter("validate.prefix_runs").add(runs.len() as u64);
    obs::counter("validate.prefix_pages").add(runs.iter().map(|&(_, n)| n as u64).sum());
}

/// Validate a batch of triangles, returning metrics in the same order. The
/// page lists of the triangles' vertices — all of `B` this step reads — are
/// harvested from `btm` once, up front.
pub fn validate_all(
    btm: &Btm,
    ci_page_counts: &[u64],
    triangles: &[Triangle],
) -> Vec<TripletMetrics> {
    let _stage = obs::span("validate");
    let authors = {
        let _harvest = obs::span("validate.harvest");
        AuthorPages::harvest(
            btm,
            triangles.iter().flat_map(|t| t.vertices()).map(AuthorId),
        )
    };
    obs::counter("validate.harvest_authors").add(u64::from(authors.n_authors()));
    obs::counter("validate.harvest_incidences").add(authors.n_incidences());
    let (metrics, runs) = validate_triangles(&authors, ci_page_counts, triangles);
    record_runs(&runs);
    obs::counter("validate.triplets").add(metrics.len() as u64);
    obs::record_stage_rss("validate");
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Event;
    use proptest::prelude::*;
    use proptest::TestCaseError;
    use std::collections::HashSet;

    /// The harvest of every author of `lists`, author `a` on `lists[a]`.
    fn author_pages(lists: &[Vec<u32>]) -> AuthorPages {
        let events: Vec<Event> = (0..lists.len())
            .flat_map(|a| {
                lists[a]
                    .iter()
                    .map(move |&p| Event::new(AuthorId(a as u32), PageId(p), 0))
            })
            .collect();
        let n_pages = events.iter().map(|e| e.page.0 + 1).max().unwrap_or(0);
        AuthorPages::all(&Btm::from_events(lists.len() as u32, n_pages, &events))
    }

    /// `w_xyz` by definition: the pages in all three sets.
    fn definition(lists: &[Vec<u32>], [x, y, z]: [usize; 3]) -> u64 {
        let set = |a: usize| lists[a].iter().copied().collect::<HashSet<u32>>();
        let (sx, sy) = (set(x), set(y));
        set(z)
            .iter()
            .filter(|p| sx.contains(p) && sy.contains(p))
            .count() as u64
    }

    /// Run `triples` through one kernel; every weight must be the
    /// definition's, a run must open exactly where the leading edge changes,
    /// and the marks must be clear afterwards.
    fn check_kernel(lists: &[Vec<u32>], triples: &[[usize; 3]]) -> Result<(), TestCaseError> {
        let authors = author_pages(lists);
        let mut kernel = SharedPrefix::new(&authors);
        for &t in triples {
            let w = kernel.weight(t.map(|a| AuthorId(a as u32)));
            prop_assert_eq!(w, definition(lists, t), "triple {:?} of {:?}", t, triples);
        }
        let opened = triples.iter().enumerate();
        let opened = opened
            .filter(|&(i, t)| i == 0 || triples[i - 1][..2] != t[..2])
            .count();
        prop_assert_eq!(kernel.runs.len(), opened);
        kernel.close_run();
        prop_assert!(kernel.marks.is_clear(), "a run left a mark behind");
        Ok(())
    }

    /// An author's pages: none, a scattered few, or a long contiguous stretch
    /// (the long side of the probe/gallop boundary).
    fn arb_list() -> impl Strategy<Value = Vec<u32>> {
        (0u32..4, prop::collection::vec(0u32..48, 0..12), 0u32..400).prop_map(
            |(kind, mut scattered, len)| match kind {
                0 => Vec::new(),
                1 => (0..len).collect(),
                _ => {
                    scattered.sort_unstable();
                    scattered.dedup();
                    scattered
                }
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Any triple order — drawn, sorted (runs longer than one), reversed
        /// and interleaved by halves — gives the definition's weights.
        #[test]
        fn shared_prefix_weights_match_the_definition(
            lists in prop::collection::vec(arb_list(), 3..7),
            raw in prop::collection::vec((0usize..7, 0usize..7, 0usize..7), 0..40),
        ) {
            let n = lists.len();
            let drawn: Vec<[usize; 3]> = raw.iter().map(|&(x, y, z)| [x % n, y % n, z % n]).collect();
            let mut sorted = drawn.clone();
            sorted.sort_unstable();
            let reversed: Vec<[usize; 3]> = sorted.iter().rev().copied().collect();
            let (lo, hi) = sorted.split_at(sorted.len() / 2);
            let interleaved: Vec<[usize; 3]> =
                lo.iter().zip(hi).flat_map(|(a, b)| [*a, *b]).collect();
            for order in [&drawn, &sorted, &reversed, &interleaved] {
                check_kernel(&lists, order)?;
            }
        }
    }

    #[test]
    fn shared_prefix_edge_cases() {
        // 0: empty; 1, 2: disjoint; 3: shares 1's pages; 4: the long side
        let lists = vec![
            vec![],
            vec![0, 2, 4],
            vec![1, 3, 5],
            vec![0, 2, 4, 6],
            (0..96).collect::<Vec<u32>>(),
        ];
        let cases = [
            ([0, 1, 3], 0), // an empty list
            ([1, 2, 3], 0), // a run whose intersection is empty
            ([1, 2, 4], 0), // … galloped over nothing
            ([1, 3, 4], 3), // |pages(4)| = 32 × 3: probed
            ([1, 3, 2], 0),
            ([1, 3, 3], 3),
        ];
        for (t, w) in cases {
            assert_eq!(definition(&lists, t), w, "{t:?}");
        }
        let triples: Vec<[usize; 3]> = cases.iter().map(|c| c.0).collect();
        check_kernel(&lists, &triples).unwrap();
        // one past the boundary: |pages(4)| = 32 × 3 + 1 is galloped
        let mut longer = lists.clone();
        longer[4].push(96);
        check_kernel(&longer, &[[1, 3, 4], [3, 1, 4], [1, 1, 4], [4, 4, 4]]).unwrap();
        check_kernel(&lists, &[]).unwrap();
    }

    fn coordinated_btm() -> Btm {
        // authors 0,1,2 comment together on pages 0..4; author 0 also roams
        // pages 4..10 alone.
        let mut events = Vec::new();
        for page in 0..4u32 {
            for a in 0..3u32 {
                events.push(Event::new(
                    AuthorId(a),
                    PageId(page),
                    (page * 100 + a) as i64,
                ));
            }
        }
        for page in 4..10u32 {
            events.push(Event::new(AuthorId(0), PageId(page), page as i64 * 1000));
        }
        Btm::from_events(3, 10, &events)
    }

    #[test]
    fn hyperedge_weight_counts_shared_pages() {
        let authors = AuthorPages::all(&coordinated_btm());
        assert_eq!(
            hyperedge_weight(&authors, AuthorId(0), AuthorId(1), AuthorId(2)),
            4
        );
    }

    #[test]
    fn validate_combines_both_layers() {
        let btm = coordinated_btm();
        let tri = Triangle::new(0, 1, 2, 4, 4, 4);
        let ci_pages = vec![4u64, 4, 4];
        let [m] = validate_all(&btm, &ci_pages, &[tri])[..] else {
            panic!("one triangle, one record")
        };
        assert_eq!(m.hyper_weight, 4);
        assert_eq!(m.min_ci_weight, 4);
        // T = 3*4/(4+4+4) = 1
        assert!((m.t - 1.0).abs() < 1e-12);
        // p_0 = 10, p_1 = p_2 = 4 → C = 3*4/18
        assert_eq!(m.page_counts, [10, 4, 4]);
        assert!((m.c - 12.0 / 18.0).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&m.c));
        assert!((0.0..=1.0).contains(&m.t));
    }

    #[test]
    fn validate_all_preserves_order() {
        // authors 0–2 share pages 0..4, author 3 shares pages 0..2 with them
        let mut events: Vec<Event> = (0..4u32)
            .flat_map(|p| (0..3).map(move |a| Event::new(AuthorId(a), PageId(p), 0)))
            .collect();
        events.extend((0..2).map(|p| Event::new(AuthorId(3), PageId(p), 0)));
        let btm = Btm::from_events(4, 4, &events);
        let t1 = Triangle::new(0, 1, 2, 4, 4, 4);
        let t2 = Triangle::new(0, 1, 3, 1, 2, 3);
        let t3 = Triangle::new(1, 2, 3, 1, 1, 1);
        let ci_pages = vec![4u64; 4];
        let ms = validate_all(&btm, &ci_pages, &[t1, t2, t3]);
        let w: Vec<u64> = ms.iter().map(|m| m.hyper_weight).collect();
        assert_eq!(w, [4, 2, 2]);
        assert_eq!(ms[1].min_ci_weight, 1);
        // any order — runs split, repeated, interleaved — validates in place
        let again = validate_all(&btm, &ci_pages, &[t2, t3, t1, t2, t2, t1]);
        assert_eq!(again, [ms[1], ms[2], ms[0], ms[1], ms[1], ms[0]]);
        assert!(validate_all(&btm, &ci_pages, &[]).is_empty());
    }

    #[test]
    fn hyper_weight_bounded_by_min_page_count() {
        let authors = AuthorPages::all(&coordinated_btm());
        let w = hyperedge_weight(&authors, AuthorId(0), AuthorId(1), AuthorId(2));
        let min_p = authors
            .page_count(AuthorId(0))
            .min(authors.page_count(AuthorId(1)))
            .min(authors.page_count(AuthorId(2)));
        assert!(w <= min_p);
    }
}
