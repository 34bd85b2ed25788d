//! Step 3: hypergraph validation of candidate triplets.
//!
//! Once steps 1–2 have pruned the `O(|U|³)` triplet space to a short list of
//! high-weight triangles, the pipeline returns to the original bipartite data
//! and computes the *true* multiway interaction counts: `w_xyz` (Eq. 2) is the
//! size of the three-way intersection of the authors' page lists, and the
//! normalized score `C(x,y,z)` (Eq. 4) divides by their total page counts.
//! Note there is deliberately no time bound here — the paper validates spatial
//! coordination only (its §4.2 names time-windowed hyperedges as future work).

use crate::btm::{bit_pages, has, AuthorPages, Btm, PageSet};
use crate::ids::{AuthorId, PageId};
use crate::metrics::{c_score, TripletMetrics};
use coordination_graph::intersect::{
    intersect_indices, intersect_indices_gallop, STAMP_GALLOP_RATIO,
};
use tripoll::survey::t_score;
use tripoll::Triangle;

/// `pages(x) ∩ pages(y)` for one leading edge, as one bit a page over the
/// harvest's page space (allocated once, all clear between edges), and its
/// sorted pages once something asks for them. Formed by word AND when both
/// sides are bitsets, by probing or merging the lists otherwise; step 3's
/// kernel, [`crate::groups::group_weight`] and the windowed weight all read
/// the shared pages of an edge through it.
pub(crate) struct SharedPages {
    bits: Vec<u64>,
    /// The set's pages, ascending, when `listed`.
    list: Vec<PageId>,
    listed: bool,
    len: usize,
    /// Whether `bits` was written word by word, so that clearing it is a
    /// fill; otherwise only the words of `list` hold bits.
    by_words: bool,
}

impl SharedPages {
    /// A clear set over `authors`' page space.
    pub(crate) fn new(authors: &AuthorPages) -> Self {
        SharedPages {
            bits: vec![0; authors.n_words()],
            list: Vec::new(),
            listed: true,
            len: 0,
            by_words: false,
        }
    }

    /// Make the set `a ∩ b`.
    pub(crate) fn set(&mut self, a: PageSet<'_>, b: PageSet<'_>) {
        self.clear();
        match (a, b) {
            (PageSet::Bits(a), PageSet::Bits(b)) => {
                let mut len = 0;
                for ((s, a), b) in self.bits.iter_mut().zip(a).zip(b) {
                    *s = a & b;
                    len += s.count_ones() as usize;
                }
                (self.len, self.listed, self.by_words) = (len, false, true);
            }
            (PageSet::Bits(bits), PageSet::List(list))
            | (PageSet::List(list), PageSet::Bits(bits)) => {
                for &p in list.iter().filter(|&&p| has(bits, p)) {
                    self.insert(p);
                }
            }
            (PageSet::List(a), PageSet::List(b)) => {
                intersect_indices(a, b, &mut |i, _| self.insert(a[i]));
            }
        }
    }

    /// Add page `p`, above every page held, to a set being listed.
    fn insert(&mut self, p: PageId) {
        let i = p.0 as usize;
        self.bits[i / 64] |= 1 << (i % 64);
        self.list.push(p);
        self.len += 1;
    }

    /// Empty the set, clearing only the words it wrote.
    fn clear(&mut self) {
        if self.by_words {
            self.bits.fill(0);
        } else {
            for &p in &self.list {
                self.bits[p.0 as usize / 64] = 0;
            }
        }
        self.list.clear();
        (self.len, self.listed, self.by_words) = (0, true, false);
    }

    /// The number of pages held.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The pages held, ascending (read out of the bits the first time).
    pub(crate) fn pages(&mut self) -> &[PageId] {
        if !self.listed {
            self.list.extend(bit_pages(&self.bits));
            self.listed = true;
        }
        &self.list
    }

    /// `|self ∩ c|`. Against a bitset it is the popcount of the two ANDed,
    /// or, when the set is listed and shorter than the words, a bit test per
    /// page it holds; against a list, a bit test per page of `c`, or, when `c`
    /// is over [`STAMP_GALLOP_RATIO`]× longer than the set, a gallop of the
    /// set's pages through `c`.
    pub(crate) fn count(&mut self, c: PageSet<'_>) -> u64 {
        let mut n = 0u64;
        match c {
            PageSet::Bits(c) if self.listed && self.len < c.len() => {
                n = self.list.iter().filter(|&&p| has(c, p)).count() as u64;
            }
            PageSet::Bits(c) => {
                let and = self.bits.iter().zip(c).map(|(s, c)| (s & c).count_ones());
                n = and.map(u64::from).sum();
            }
            PageSet::List(c) if self.len * STAMP_GALLOP_RATIO < c.len() => {
                intersect_indices_gallop(self.pages(), c, false, &mut |_, _| n += 1);
            }
            PageSet::List(c) => {
                n = c.iter().filter(|&&p| has(&self.bits, p)).count() as u64;
            }
        }
        n
    }

    /// Visit each page held that `c` holds too, ascending.
    pub(crate) fn common(&mut self, c: PageSet<'_>, f: &mut impl FnMut(PageId)) {
        let list = self.pages();
        match c {
            PageSet::Bits(c) => list.iter().filter(|&&p| has(c, p)).for_each(|&p| f(p)),
            PageSet::List(c) => intersect_indices(list, c, &mut |i, _| f(list[i])),
        }
    }
}

/// Step 3's one kernel: `w_xyz` for triples keyed on their leading edge
/// `(x, y)`. When the edge changes, `pages(x) ∩ pages(y)` is formed once
/// into one [`SharedPages`]; each `w_xyz` of the run counts `pages(z)` in it
/// ([`SharedPages::count`]: AND + popcount against a bitset, a probe or a
/// gallop against a list). Order is a speed property only: any
/// order (unsorted, repeated, interleaved) gives the same weights; sorted
/// input intersects an edge once.
pub(crate) struct SharedPrefix<'a> {
    authors: &'a AuthorPages,
    /// The current run's `pages(x) ∩ pages(y)`.
    shared: SharedPages,
    /// The current run's leading edge.
    edge: Option<[AuthorId; 2]>,
    /// Runs opened, and their `|pages(x) ∩ pages(y)|` summed.
    runs: u64,
    run_pages: u64,
}

impl<'a> SharedPrefix<'a> {
    /// A kernel over `authors`' page sets.
    pub(crate) fn new(authors: &'a AuthorPages) -> Self {
        SharedPrefix {
            authors,
            shared: SharedPages::new(authors),
            edge: None,
            runs: 0,
            run_pages: 0,
        }
    }

    /// `pages(x) ∩ pages(y)`, opening a run if the edge is not the last one's.
    pub(crate) fn shared(&mut self, [x, y]: [AuthorId; 2]) -> &mut SharedPages {
        if self.edge != Some([x, y]) {
            let authors = self.authors;
            self.shared.set(authors.pages(x), authors.pages(y));
            self.edge = Some([x, y]);
            self.runs += 1;
            self.run_pages += self.shared.len() as u64;
        }
        &mut self.shared
    }

    /// `w_xyz` of `[x, y, z]`, all three harvested.
    pub(crate) fn weight(&mut self, [x, y, z]: [AuthorId; 3]) -> u64 {
        let pz = self.authors.pages(z);
        self.shared([x, y]).count(pz)
    }
}

/// `w_xyz` for three harvested authors: a one-triplet run of the kernel.
pub fn hyperedge_weight(authors: &AuthorPages, x: AuthorId, y: AuthorId, z: AuthorId) -> u64 {
    SharedPrefix::new(authors).weight([x, y, z])
}

/// Validate a batch of triangles, returning metrics in the same order. The
/// page lists of the triangles' vertices — all of `B` this step reads — are
/// harvested from `btm` once, up front. Records what the harvest holds (its
/// authors, their incidences, and the incidences held as bitsets) and the
/// kernel's runs (`validate.prefix_runs`) and their shared pages
/// (`validate.prefix_pages`).
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
    obs::counter("validate.dense_incidences").add(authors.dense_incidences());
    let mut kernel = SharedPrefix::new(&authors);
    let metrics: Vec<TripletMetrics> = triangles
        .iter()
        .map(|t| {
            let v = t.vertices();
            let ids = v.map(AuthorId);
            let w_xyz = kernel.weight(ids);
            let page_counts = ids.map(|a| authors.page_count(a));
            let [pa, pb, pc] = page_counts;
            let [p_ci_a, p_ci_b, p_ci_c] = v.map(|a| ci_page_counts[a as usize]);
            let min_w = t.min_weight();
            TripletMetrics {
                authors: ids,
                ci_weights: t.edge_weights(),
                min_ci_weight: min_w,
                t: t_score(min_w, p_ci_a, p_ci_b, p_ci_c),
                hyper_weight: w_xyz,
                c: c_score(w_xyz, pa, pb, pc),
                page_counts,
            }
        })
        .collect();
    obs::counter("validate.prefix_runs").add(kernel.runs);
    obs::counter("validate.prefix_pages").add(kernel.run_pages);
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
        prop_assert_eq!(kernel.runs, opened as u64);
        kernel.shared.clear();
        prop_assert!(
            kernel.shared.bits.iter().all(|&w| w == 0),
            "a run left a bit behind"
        );
        Ok(())
    }

    /// Page spaces the drawn lists fill: none a multiple of 64, each a
    /// multiple of 32, so an author can sit exactly at `32·|P| = space`. In
    /// the largest, a list can be over [`STAMP_GALLOP_RATIO`]× longer than a
    /// shared edge and still be a list.
    const SPACES: [u32; 3] = [96, 224, 2080];

    /// Pages at the edges of a bitset word.
    const WORD_EDGES: [u32; 7] = [0, 31, 63, 64, 65, 127, 128];

    /// An author's pages in `0..space`: none; one; a long contiguous
    /// stretch; exactly `space / 32` pages, or one fewer or one more (the
    /// two sides of the bitset rule); or a scattered few. Pages lean on the
    /// word edges, so the sets meet.
    fn arb_list(space: u32) -> impl Strategy<Value = Vec<u32>> {
        let page = (0u32..2, 0u32..space, 0usize..WORD_EDGES.len())
            .prop_map(move |(edge, p, e)| if edge == 0 { WORD_EDGES[e] % space } else { p });
        let picks = prop::collection::vec(page, 0..12);
        (0u32..5, picks, 0u32..3, 0u32..space).prop_map(move |(kind, picks, side, at)| {
            let mut list = match kind {
                0 => Vec::new(),
                1 => vec![at],
                2 => (at / 2..space).collect(),
                3 => {
                    // picks first, then the pages from `at` on, distinct
                    let want = (space / 32 + side - 1) as usize;
                    let mut seen = vec![false; space as usize];
                    let fill = (0..space).map(|i| (at + i) % space);
                    let pool = picks.into_iter().chain(fill);
                    let fresh = pool.filter(|&p| !std::mem::replace(&mut seen[p as usize], true));
                    fresh.take(want).collect()
                }
                _ => picks,
            };
            list.sort_unstable();
            list.dedup();
            list
        })
    }

    /// Authors in one of [`SPACES`], the last on its last page alone so the
    /// harvest's page space is exactly the one drawn.
    fn arb_lists() -> impl Strategy<Value = Vec<Vec<u32>>> {
        (0..SPACES.len()).prop_flat_map(|s| {
            let space = SPACES[s];
            prop::collection::vec(arb_list(space), 3..7).prop_map(move |mut lists| {
                lists.push(vec![space - 1]);
                lists
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Any triple order — drawn, sorted (runs longer than one), reversed
        /// and interleaved by halves — gives the definition's weights.
        #[test]
        fn shared_prefix_weights_match_the_definition(
            lists in arb_lists(),
            raw in prop::collection::vec((0usize..8, 0usize..8, 0usize..8), 0..40),
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

    /// Whether author `a` of `authors` is held as a bitset.
    fn dense(authors: &AuthorPages, a: usize) -> bool {
        matches!(authors.pages(AuthorId(a as u32)), PageSet::Bits(_))
    }

    #[test]
    fn shared_prefix_edge_cases() {
        // a page space of 96 (not a multiple of 64): 3 pages make a bitset,
        // 2 a list. 0: empty; 1, 2: disjoint lists; 3: 4 pages, sharing 1's
        // and 63/64; 4: the long side; 5: exactly 3 pages on the word edge;
        // 6: one page, the last, which fixes the space; 7: 2 pages, one
        // short of the rule
        let lists = vec![
            vec![],
            vec![0, 2],
            vec![1, 3],
            vec![0, 2, 63, 64],
            (0..96).collect::<Vec<u32>>(),
            vec![63, 64, 65],
            vec![95],
            vec![2, 64],
        ];
        let authors = author_pages(&lists);
        let held: Vec<bool> = (0..lists.len()).map(|a| dense(&authors, a)).collect();
        assert_eq!(held, [false, false, false, true, true, true, false, false]);
        let cases = [
            ([0, 1, 3], 0), // an empty list: an empty run
            ([1, 2, 3], 0), // two lists whose intersection is empty
            ([1, 3, 4], 2), // list ∩ bitset, then AND + popcount with a bitset
            ([7, 5, 4], 1), // … one page, shorter than the words: a bit test
            ([3, 4, 5], 2), // bitset AND bitset, then AND + popcount
            ([3, 4, 1], 2), // … a probe of a list into the bits
            ([3, 5, 6], 0), // … against a one-page list
            ([4, 4, 5], 3), // an author with itself
            ([6, 4, 4], 1),
        ];
        for (t, w) in cases {
            assert_eq!(definition(&lists, t), w, "{t:?}");
        }
        let triples: Vec<[usize; 3]> = cases.iter().map(|c| c.0).collect();
        check_kernel(&lists, &triples).unwrap();
        check_kernel(&lists, &[]).unwrap();

        // a page space of 2080: 65 pages make a bitset, 64 a list. 0 and 1
        // share page 127 alone; 2 is 64 pages holding it, so the one-page
        // intersection gallops through it; 3 is 65 pages, one past the rule;
        // 4 holds 128 and the last page; 5 is a bitset sharing page 164 alone
        // with 3, so their AND is read out into a one-page list to gallop
        // through 6, a list holding it, and then probed into 3's bits
        let mut lists = vec![
            vec![5, 127, 700],
            vec![127, 128, 701],
            (100..164).collect::<Vec<u32>>(),
            (100..165).collect::<Vec<u32>>(),
            vec![128, 2079],
            (164..229).collect::<Vec<u32>>(),
            (150..214).collect::<Vec<u32>>(),
        ];
        let authors = author_pages(&lists);
        let held: Vec<bool> = (0..lists.len()).map(|a| dense(&authors, a)).collect();
        assert_eq!(held, [false, false, false, true, false, true, false]);
        let triples = [
            [0, 1, 2],
            [0, 1, 3],
            [1, 2, 3],
            [1, 4, 3],
            [2, 3, 1],
            [3, 3, 2],
            [3, 3, 3],
            [3, 5, 6],
            [3, 5, 3],
        ];
        check_kernel(&lists, &triples).unwrap();
        // at the gallop ratio (probed) and one page past it (galloped)
        lists[2] = (100..132).collect();
        check_kernel(&lists, &triples).unwrap();
        lists[2] = (100..133).collect();
        check_kernel(&lists, &triples).unwrap();
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
