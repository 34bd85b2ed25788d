//! The bipartite temporal multigraph (BTM) `B = (U, P, E, t)`.
//!
//! Pages map to their time-sorted comment lists (the page *neighborhoods*
//! Algorithm 1 iterates). It is a *multigraph*: one author commenting the
//! same page five times is five edges, distinguished by timestamp.
//!
//! The page side is all a [`Btm`] stores, CSR-style: one offset array plus
//! one flat array of rows laid end to end (16 B per comment).
//! [`PageRows::build`] fills them with a counting pass, a prefix sum and a
//! scatter pass — constant work per event and no per-page allocation — and
//! only comparison-sorts the rows the input did not already deliver in time
//! order. A rank of the sharded pipeline builds exactly these rows out of the
//! events it receives.
//!
//! The author side — each author's deduplicated page list, the hypergraph
//! side: `p_x` of Eq. 3 and the inputs to `w_xyz` of Eq. 2 — is not stored.
//! Step 3 reads it for the vertices of the triangles that survived steps
//! 1–2, a few dozen authors out of |U|, so it is a value of its own,
//! [`AuthorPages`], harvested from the rows for exactly the authors asked
//! for in one masked scan.

use crate::ids::{AuthorId, Event, PageId, Timestamp};

/// The page side of the BTM on its own: every page's comments as one
/// time-sorted row, the rows laid end to end behind one offset table. [`Btm`]
/// is these rows plus the size of the author id space; a rank of the sharded
/// pipeline ([`crate::dist_pipeline`]) holds the rows of the pages it owns.
/// Equal for any arrival order of the same events.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PageRows {
    /// Page `p`'s comments are `comments[off[p]..off[p + 1]]`.
    off: Vec<usize>,
    /// `(timestamp, author)` rows, each page's sorted by timestamp then
    /// author. Its length is the multigraph edge count |E|.
    comments: Vec<(Timestamp, AuthorId)>,
}

/// Events per staging-buffer fill in [`PageRows::build`]'s scatter pass
/// (16 KiB).
const STAGE_EVENTS: usize = 1024;

/// Turn per-row counts stored at `off[row + 1]` into row start offsets.
fn prefix_sum(off: &mut [usize]) {
    let mut total = 0;
    for slot in off {
        total += *slot;
        *slot = total;
    }
}

impl PageRows {
    /// Partition `(page, timestamp, author)` comments by page: a counting
    /// pass, a prefix sum and a scatter pass — constant work per event, no
    /// per-page allocation — then a comparison sort of only the rows that
    /// did not arrive time-ordered (every timestamp-sorted source delivers
    /// them so; `btm.pages_presorted` / `btm.pages_sorted` count both kinds).
    ///
    /// `events` is called twice and must yield the same events both times,
    /// so they never need to exist as a resident list of their own.
    ///
    /// # Panics
    /// If a page id is not below `n_pages`, or the two passes differ.
    pub fn build<I: Iterator<Item = (PageId, Timestamp, AuthorId)>>(
        n_pages: u32,
        events: impl Fn() -> I,
    ) -> Self {
        let np = n_pages as usize;
        let mut off = vec![0usize; np + 1];
        events().for_each(|(p, _, _)| off[p.0 as usize + 1] += 1);
        prefix_sum(&mut off);

        let mut comments = vec![(0, AuthorId(0)); off[np]];
        let mut cursor = off[..np].to_vec();
        // Staged through a small buffer: a source that decodes or generates
        // as it goes (varint columns, an RNG) mispredicts often enough to
        // serialize the scatter's cache misses behind it — 4x slower on
        // snapshot columns than filling a buffer first and scattering that.
        let mut source = events();
        let mut staged = Vec::with_capacity(STAGE_EVENTS);
        loop {
            staged.clear();
            staged.extend(source.by_ref().take(STAGE_EVENTS));
            if staged.is_empty() {
                break;
            }
            for &(p, ts, a) in &staged {
                let at = &mut cursor[p.0 as usize];
                comments[*at] = (ts, a);
                *at += 1;
            }
        }
        // A row that over- or under-filled would silently shift its
        // neighbours; both passes seeing the same events rules that out.
        assert!(
            cursor == off[1..],
            "event source yielded different events on its second pass"
        );

        let mut presorted = 0u64;
        let mut sorted = 0u64;
        for w in off.windows(2) {
            let row = &mut comments[w[0]..w[1]];
            if row.is_empty() {
                continue;
            }
            if row.is_sorted() {
                presorted += 1;
            } else {
                row.sort_unstable();
                sorted += 1;
            }
        }
        obs::counter("btm.pages_presorted").add(presorted);
        obs::counter("btm.pages_sorted").add(sorted);
        PageRows { off, comments }
    }

    /// Number of page slots, empty ones included.
    pub fn n_pages(&self) -> u32 {
        (self.off.len() - 1) as u32
    }

    /// Total comments over all rows.
    pub fn n_comments(&self) -> u64 {
        self.comments.len() as u64
    }

    /// Page `p`'s comments, `(timestamp, author)` sorted by time.
    pub fn row(&self, p: PageId) -> &[(Timestamp, AuthorId)] {
        let p = p.0 as usize;
        &self.comments[self.off[p]..self.off[p + 1]]
    }

    /// Iterate the non-empty rows as `(PageId, comments)`, pages ascending.
    pub fn pages(&self) -> impl Iterator<Item = (PageId, &[(Timestamp, AuthorId)])> {
        self.off
            .windows(2)
            .enumerate()
            .filter(|(_, w)| w[1] > w[0])
            .map(|(i, w)| (PageId(i as u32), &self.comments[w[0]..w[1]]))
    }
}

/// In-memory BTM over dense ids. Construct with [`Btm::from_events`] or
/// [`Btm::build`]. Two BTMs over the same multiset of events compare equal
/// whatever order the events arrived in.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Btm {
    /// The page side: each page's time-sorted comments.
    rows: PageRows,
    /// Number of author slots `|U|`.
    n_authors: u32,
}

/// `gone[a]` for every excluded author over an `n_authors` id space: what
/// every way into the detector drops excluded authors' events through. An
/// excluded id outside the space has no events to drop and is ignored; with
/// nobody excluded there is no mask (and no per-event lookup) at all.
pub(crate) fn author_mask(n_authors: u32, excluded: &[AuthorId]) -> Vec<bool> {
    if excluded.is_empty() {
        return Vec::new();
    }
    let mut gone = vec![false; n_authors as usize];
    for a in excluded {
        if let Some(slot) = gone.get_mut(a.0 as usize) {
            *slot = true;
        }
    }
    gone
}

/// Whether [`author_mask`]'s `gone` keeps author `a`'s events.
#[inline]
pub(crate) fn is_kept(gone: &[bool], a: AuthorId) -> bool {
    gone.is_empty() || !gone[a.0 as usize]
}

impl Btm {
    /// Build from raw events. `n_authors`/`n_pages` fix the dense id spaces
    /// (authors or pages with no events simply have empty lists).
    pub fn from_events(n_authors: u32, n_pages: u32, events: &[Event]) -> Self {
        Self::build(n_authors, n_pages, &[], || events.iter().copied())
    }

    /// Build from a re-iterable event source, dropping every event of the
    /// `excluded` authors (the pre-projection exclusion list; their rows
    /// come out empty, exactly as [`Btm::without_authors`] leaves them).
    ///
    /// `events` is called twice and must yield the same events both times
    /// ([`PageRows::build`]'s two passes), so the events never need to exist
    /// as a resident `Vec<Event>` — the snapshot load path decodes the
    /// mmapped columns twice instead. Order-invariant: any permutation of
    /// the same events yields an equal BTM.
    pub fn build<I: Iterator<Item = Event>>(
        n_authors: u32,
        n_pages: u32,
        excluded: &[AuthorId],
        events: impl Fn() -> I,
    ) -> Self {
        let _g = obs::span("btm.build");
        let gone = author_mask(n_authors, excluded);
        let kept = |e: &Event| is_kept(&gone, e.author);
        let in_range = |e: &Event| {
            assert!(
                e.author.0 < n_authors,
                "author id {} out of range",
                e.author.0
            );
            assert!(e.page.0 < n_pages, "page id {} out of range", e.page.0);
        };
        let rows = PageRows::build(n_pages, || {
            events()
                .inspect(in_range)
                .filter(kept)
                .map(|e| (e.page, e.ts, e.author))
        });
        Btm { rows, n_authors }
    }

    /// Number of author slots `|U|`.
    pub fn n_authors(&self) -> u32 {
        self.n_authors
    }

    /// Number of page slots `|P|`.
    pub fn n_pages(&self) -> u32 {
        self.rows.n_pages()
    }

    /// Total comments `|E|` (the paper reads 138 million for January 2020).
    pub fn n_comments(&self) -> u64 {
        self.rows.n_comments()
    }

    /// The page's comments, `(timestamp, author)` sorted by time — the
    /// neighborhood `N` of Algorithm 1 line 4.
    pub fn page_neighborhood(&self, p: PageId) -> &[(Timestamp, AuthorId)] {
        self.rows.row(p)
    }

    /// Build from input that is already grouped by page: `fill(p, row)` is
    /// called once per page id in ascending order and pushes that page's
    /// comments onto `row` in `(timestamp, author)` order. Comments of the
    /// `excluded` authors are dropped as they are pushed. One pass, no
    /// counting, no scatter; `capacity` is the number of comments to expect.
    ///
    /// # Panics
    /// If an author id is not below `n_authors`, or a row is pushed out of
    /// order.
    pub fn from_page_major(
        n_authors: u32,
        n_pages: u32,
        capacity: usize,
        excluded: &[AuthorId],
        mut fill: impl FnMut(PageId, &mut RowSink<'_>),
    ) -> Self {
        let gone = author_mask(n_authors, excluded);
        let mut comments = Vec::with_capacity(capacity);
        let mut off = Vec::with_capacity(n_pages as usize + 1);
        off.push(0);
        for p in 0..n_pages {
            let mut row = RowSink {
                comments: &mut comments,
                last: (Timestamp::MIN, AuthorId(0)),
                n_authors,
                gone: &gone,
            };
            fill(PageId(p), &mut row);
            off.push(comments.len());
        }
        Btm {
            rows: PageRows { off, comments },
            n_authors,
        }
    }

    /// Remove all events of the given authors, returning a new BTM over the
    /// same id spaces. This is the paper's refinement loop (§2.4/§3): ruled-out
    /// authors (helpful bots, `[deleted]`) are removed and the projection
    /// rerun. Equal to [`Btm::build`] over the same events with the same
    /// `excluded`, which is the cheaper way to apply a list known up front.
    pub fn without_authors(&self, excluded: &[AuthorId]) -> Btm {
        let (n_authors, n_pages) = (self.n_authors, self.n_pages());
        let kept = self.rows.comments.len();
        Btm::from_page_major(n_authors, n_pages, kept, excluded, |p, row| {
            for &(ts, a) in self.rows.row(p) {
                row.push(ts, a);
            }
        })
    }

    /// Iterate pages with non-empty neighborhoods as `(PageId, comments)`.
    pub fn pages(&self) -> impl Iterator<Item = (PageId, &[(Timestamp, AuthorId)])> {
        self.rows.pages()
    }

    /// The largest page neighborhood (comment count) — the projection's
    /// worst-case page.
    pub fn max_page_degree(&self) -> usize {
        let degrees = self.rows.off.windows(2).map(|w| w[1] - w[0]);
        degrees.max().unwrap_or(0)
    }
}

/// Where [`Btm::from_page_major`]'s `fill` pushes one page's comments.
pub struct RowSink<'a> {
    comments: &'a mut Vec<(Timestamp, AuthorId)>,
    /// The comment pushed last on this row, kept or dropped.
    last: (Timestamp, AuthorId),
    n_authors: u32,
    gone: &'a [bool],
}

impl RowSink<'_> {
    /// Append a comment to the row, unless its author is excluded.
    #[inline]
    pub fn push(&mut self, ts: Timestamp, author: AuthorId) {
        assert!(
            author.0 < self.n_authors,
            "author id {} out of range",
            author.0
        );
        // `PageRows`' sortedness rests on this, not on the caller's word.
        assert!(
            self.last <= (ts, author),
            "comment {:?} pushed after {:?}: row not in (timestamp, author) order",
            (ts, author),
            self.last
        );
        self.last = (ts, author);
        if is_kept(self.gone, author) {
            self.comments.push((ts, author));
        }
    }
}

/// The author side of a [`Btm`] for a stated set of authors: each one's
/// distinct pages, sorted — the hypergraph incidence lists `w_xyz` (Eq. 2)
/// intersects and `p_x` (Eq. 3) measures. Asking for every author gives the
/// full transpose of the page side.
#[derive(Clone, Debug)]
pub struct AuthorPages {
    /// `slot[a]` is author `a`'s row below if `a` was asked for, [`NO_SLOT`]
    /// otherwise.
    slot: Vec<u32>,
    /// Row `s`'s pages are `pages[author_off[s]..author_off[s + 1]]`.
    author_off: Vec<usize>,
    /// Distinct pages per harvested author, each author's sorted.
    pages: Vec<PageId>,
}

/// Rows number below `n_authors <= u32::MAX`, so the sentinel is no row.
const NO_SLOT: u32 = u32::MAX;

/// The one harvest scan, over any page-major stream of `(page, author)`
/// incidences: every comment's author is tested against a bitset of the
/// requested ids (`|U|` / 8 bytes, cache-resident where a per-author table is
/// not), and a hit is taken the first time that author is seen on that page —
/// an author's repeat comments all sit inside the page's row, so remembering
/// the last page per requested author catches them. [`AuthorPages::harvest`]
/// runs it over a [`Btm`]'s rows; stage 5 of [`crate::dist_pipeline`] runs it
/// over a rank's page partition.
pub(crate) struct HarvestScan {
    /// `slot[a]` numbers the requested authors in request order, [`NO_SLOT`]
    /// for everyone else.
    slot: Vec<u32>,
    wanted: Vec<u64>,
    /// Per slot, the page its last hit was taken on.
    last_page: Vec<PageId>,
}

impl HarvestScan {
    /// Page ids are below `n_pages <= u32::MAX`, so the sentinel is no page.
    const NO_PAGE: PageId = PageId(u32::MAX);

    /// A scan for `authors` (any order, repeats welcome).
    ///
    /// # Panics
    /// If a requested id is not below `n_authors`.
    pub(crate) fn new(n_authors: u32, authors: impl IntoIterator<Item = AuthorId>) -> Self {
        let mut slot = vec![NO_SLOT; n_authors as usize];
        let mut wanted = vec![0u64; (n_authors as usize).div_ceil(64)];
        let mut n_slots = 0u32;
        for a in authors {
            assert!(a.0 < n_authors, "author id {} out of range", a.0);
            let a = a.0 as usize;
            if slot[a] == NO_SLOT {
                slot[a] = n_slots;
                wanted[a / 64] |= 1 << (a % 64);
                n_slots += 1;
            }
        }
        HarvestScan {
            slot,
            wanted,
            last_page: vec![Self::NO_PAGE; n_slots as usize],
        }
    }

    /// Number of distinct authors requested.
    pub(crate) fn n_slots(&self) -> usize {
        self.last_page.len()
    }

    /// Feed the next incidence of a page-major stream: the author's slot if
    /// they were requested and this is their first comment on page `p`.
    #[inline]
    pub(crate) fn first_on_page(&mut self, p: PageId, a: AuthorId) -> Option<u32> {
        let a = a.0 as usize;
        if self.wanted[a / 64] >> (a % 64) & 1 == 0 {
            return None;
        }
        let s = self.slot[a];
        (std::mem::replace(&mut self.last_page[s as usize], p) != p).then_some(s)
    }
}

impl AuthorPages {
    /// Read the page lists of `authors` (any order, repeats welcome) out of
    /// the page rows in one masked scan — a hit is a requested author's first
    /// comment on a page — and lay the hits, already in page order, out per
    /// author by count → prefix sum → scatter. Nothing is scanned when
    /// nothing is asked for.
    ///
    /// # Panics
    /// If a requested id is not below `btm.n_authors()`.
    pub fn harvest(btm: &Btm, authors: impl IntoIterator<Item = AuthorId>) -> Self {
        let mut scan = HarvestScan::new(btm.n_authors(), authors);
        let n_slots = scan.n_slots();
        let mut author_off = vec![0usize; n_slots + 1];
        let mut hits: Vec<(u32, PageId)> = Vec::new();
        if n_slots > 0 {
            for (p, row) in btm.pages() {
                for &(_, a) in row {
                    if let Some(s) = scan.first_on_page(p, a) {
                        author_off[s as usize + 1] += 1;
                        hits.push((s, p));
                    }
                }
            }
        }
        prefix_sum(&mut author_off);

        let mut pages = vec![PageId(0); hits.len()];
        let mut cursor = author_off[..n_slots].to_vec();
        for (s, p) in hits {
            let at = &mut cursor[s as usize];
            pages[*at] = p;
            *at += 1;
        }
        AuthorPages {
            slot: scan.slot,
            author_off,
            pages,
        }
    }

    /// Every author's page list: the full transpose of the page side, by the
    /// same scan.
    pub fn all(btm: &Btm) -> Self {
        Self::harvest(btm, (0..btm.n_authors()).map(AuthorId))
    }

    /// The author's distinct pages, sorted.
    ///
    /// # Panics
    /// If `a` was not among the authors harvested.
    pub fn pages(&self, a: AuthorId) -> &[PageId] {
        match self.slot.get(a.0 as usize) {
            Some(&s) if s != NO_SLOT => {
                &self.pages[self.author_off[s as usize]..self.author_off[s as usize + 1]]
            }
            _ => panic!("author {} was not harvested", a.0),
        }
    }

    /// `p_x`: the number of pages where `x` has at least one comment (Eq. 3).
    pub fn page_count(&self, a: AuthorId) -> u64 {
        self.pages(a).len() as u64
    }

    /// Number of distinct authors harvested.
    pub fn n_authors(&self) -> u32 {
        (self.author_off.len() - 1) as u32
    }

    /// Number of harvested authors with at least one comment.
    pub fn active_authors(&self) -> u32 {
        self.author_off.windows(2).filter(|w| w[1] > w[0]).count() as u32
    }

    /// Total author–page incidences harvested.
    pub fn n_incidences(&self) -> u64 {
        self.pages.len() as u64
    }
}

/// What [`reference_sides`] returns: `(by_page, by_author)`.
pub type ReferenceSides = (Vec<Vec<(Timestamp, AuthorId)>>, Vec<Vec<PageId>>);

/// The BTM by definition, as plain nested lists: per page the sorted multiset
/// of `(ts, author)`, per author the sorted distinct pages. The reference
/// [`PageRows`], [`Btm`] and [`AuthorPages`] are tested against; nothing else
/// calls it.
pub fn reference_sides(n_authors: u32, n_pages: u32, events: &[Event]) -> ReferenceSides {
    let mut by_page = vec![Vec::new(); n_pages as usize];
    let mut by_author = vec![Vec::new(); n_authors as usize];
    for e in events {
        by_page[e.page.0 as usize].push((e.ts, e.author));
        by_author[e.author.0 as usize].push(e.page);
    }
    by_page.iter_mut().for_each(|row| row.sort_unstable());
    for row in &mut by_author {
        row.sort_unstable();
        row.dedup();
    }
    (by_page, by_author)
}

#[cfg(test)]
mod tests {
    use super::reference_sides as naive;
    use super::*;

    fn ev(a: u32, p: u32, ts: Timestamp) -> Event {
        Event::new(AuthorId(a), PageId(p), ts)
    }

    /// Both sides of `btm` as nested lists, the author side harvested for
    /// everyone.
    fn rows(btm: &Btm) -> ReferenceSides {
        let authors = AuthorPages::all(btm);
        (
            (0..btm.n_pages())
                .map(|p| btm.page_neighborhood(PageId(p)).to_vec())
                .collect(),
            (0..btm.n_authors())
                .map(|a| authors.pages(AuthorId(a)).to_vec())
                .collect(),
        )
    }

    /// A fixed mess: duplicate rows, equal timestamps with authors out of
    /// order, extreme and negative timestamps, empty slots at both ends of
    /// both id spaces (author 0, author 7, page 0, page 5 never appear).
    fn messy() -> Vec<Event> {
        vec![
            ev(3, 2, 50),
            ev(1, 2, 50),
            ev(3, 2, 50),
            ev(6, 4, i64::MAX),
            ev(2, 4, i64::MIN),
            ev(2, 4, -7),
            ev(5, 1, 0),
            ev(1, 3, -1),
            ev(1, 1, 9),
            ev(6, 2, 49),
            ev(1, 2, 51),
            ev(2, 1, 0),
        ]
    }

    /// Deterministic Fisher–Yates driven by a splitmix-style counter.
    fn shuffled(events: &[Event], seed: u64) -> Vec<Event> {
        let mut out = events.to_vec();
        let mut x = seed;
        for i in (1..out.len()).rev() {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            out.swap(i, (x >> 33) as usize % (i + 1));
        }
        out
    }

    #[test]
    fn flat_build_matches_the_definition_for_any_input_order() {
        let events = messy();
        let want = naive(8, 6, &events);
        let reference = Btm::from_events(8, 6, &events);
        assert_eq!(rows(&reference), want);
        assert_eq!(reference.n_comments(), events.len() as u64);

        let mut by_time = events.clone();
        by_time.sort_by_key(|e| (e.ts, e.author));
        let mut reversed = by_time.clone();
        reversed.reverse();
        let mut inputs = vec![by_time, reversed];
        inputs.extend((0..20).map(|seed| shuffled(&events, seed)));
        for input in inputs {
            assert_eq!(Btm::from_events(8, 6, &input), reference);
        }
    }

    #[test]
    fn empty_id_spaces_and_empty_inputs_build() {
        let none = Btm::from_events(0, 0, &[]);
        assert_eq!(
            (none.n_authors(), none.n_pages(), none.n_comments()),
            (0, 0, 0)
        );
        assert_eq!(none.pages().count(), 0);
        assert_eq!(AuthorPages::all(&none).active_authors(), 0);
        assert_eq!(none.max_page_degree(), 0);
        assert_eq!(none, none.without_authors(&[]));

        // authors but no pages (hence no events), and the other way round
        assert_eq!(
            AuthorPages::all(&Btm::from_events(3, 0, &[])).page_count(AuthorId(2)),
            0
        );
        assert!(Btm::from_events(0, 3, &[])
            .page_neighborhood(PageId(2))
            .is_empty());
        assert_eq!(rows(&Btm::from_events(4, 4, &[])), naive(4, 4, &[]));
    }

    #[test]
    fn exclusion_in_the_build_equals_removal_after_and_filtering_before() {
        let events = messy();
        for excluded in [
            vec![],
            vec![AuthorId(1)],
            vec![AuthorId(0), AuthorId(7)], // never commented
            vec![AuthorId(2), AuthorId(3), AuthorId(6)],
            (0..8).map(AuthorId).collect(),        // everyone
            vec![AuthorId(8), AuthorId(u32::MAX)], // outside the id space
        ] {
            let masked = Btm::build(8, 6, &excluded, || events.iter().copied());
            let removed = Btm::from_events(8, 6, &events).without_authors(&excluded);
            let filtered: Vec<Event> = events
                .iter()
                .copied()
                .filter(|e| !excluded.contains(&e.author))
                .collect();
            assert_eq!(masked, removed);
            assert_eq!(masked, Btm::from_events(8, 6, &filtered));
            assert_eq!(rows(&masked), naive(8, 6, &filtered));
        }
    }

    #[test]
    #[should_panic(expected = "different events on its second pass")]
    fn a_source_that_changes_between_passes_is_caught() {
        let calls = std::cell::Cell::new(0);
        Btm::build(2, 2, &[], || {
            calls.set(calls.get() + 1);
            // same count both times, but the second pass moves page 1's
            // comment onto page 0, whose row then runs into its neighbour's
            let page = if calls.get() == 1 { 1 } else { 0 };
            [ev(0, 0, 1), ev(1, page, 2)].into_iter()
        });
    }

    #[test]
    #[should_panic(expected = "page id 1 out of range")]
    fn out_of_range_page_panics() {
        Btm::from_events(1, 1, &[ev(0, 1, 0)]);
    }

    #[test]
    fn neighborhoods_are_time_sorted() {
        let btm = Btm::from_events(2, 1, &[ev(0, 0, 30), ev(1, 0, 10), ev(0, 0, 20)]);
        let n = btm.page_neighborhood(PageId(0));
        assert_eq!(
            n,
            &[(10, AuthorId(1)), (20, AuthorId(0)), (30, AuthorId(0))]
        );
        assert_eq!(btm.n_comments(), 3);
    }

    #[test]
    fn author_pages_are_deduped_and_sorted() {
        let btm = Btm::from_events(1, 3, &[ev(0, 2, 1), ev(0, 0, 2), ev(0, 2, 3), ev(0, 1, 4)]);
        let authors = AuthorPages::all(&btm);
        assert_eq!(
            authors.pages(AuthorId(0)),
            &[PageId(0), PageId(1), PageId(2)]
        );
        assert_eq!(authors.page_count(AuthorId(0)), 3);
    }

    #[test]
    fn multigraph_keeps_repeat_comments() {
        let btm = Btm::from_events(1, 1, &[ev(0, 0, 1), ev(0, 0, 1), ev(0, 0, 2)]);
        assert_eq!(btm.page_neighborhood(PageId(0)).len(), 3);
        assert_eq!(btm.n_comments(), 3);
        assert_eq!(AuthorPages::all(&btm).page_count(AuthorId(0)), 1);
    }

    #[test]
    fn active_authors_ignores_empty_slots() {
        let btm = Btm::from_events(5, 1, &[ev(1, 0, 0), ev(3, 0, 0)]);
        assert_eq!(btm.n_authors(), 5);
        assert_eq!(AuthorPages::all(&btm).active_authors(), 2);
    }

    #[test]
    fn without_authors_strips_events_everywhere() {
        let btm = Btm::from_events(3, 2, &[ev(0, 0, 1), ev(1, 0, 2), ev(2, 0, 3), ev(1, 1, 4)]);
        let cleaned = btm.without_authors(&[AuthorId(1)]);
        assert_eq!(cleaned.n_comments(), 2);
        assert_eq!(cleaned.page_neighborhood(PageId(0)).len(), 2);
        assert!(cleaned.page_neighborhood(PageId(1)).is_empty());
        let authors = AuthorPages::all(&cleaned);
        assert_eq!(authors.page_count(AuthorId(1)), 0);
        // untouched authors keep their data
        assert_eq!(authors.page_count(AuthorId(0)), 1);
        // original is unchanged
        assert_eq!(btm.n_comments(), 4);
    }

    #[test]
    fn pages_iterator_skips_empty() {
        let btm = Btm::from_events(1, 3, &[ev(0, 1, 0)]);
        let pages: Vec<PageId> = btm.pages().map(|(p, _)| p).collect();
        assert_eq!(pages, vec![PageId(1)]);
        assert_eq!(btm.max_page_degree(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_event_panics() {
        Btm::from_events(1, 1, &[ev(1, 0, 0)]);
    }

    #[test]
    fn a_harvest_holds_exactly_the_authors_asked_for() {
        let btm = Btm::from_events(8, 6, &messy());
        let (_, by_author) = naive(8, 6, &messy());
        // unsorted, repeated, and one author (7) who never commented
        let asked = [6, 2, 7, 2, 6].map(AuthorId);
        let some = AuthorPages::harvest(&btm, asked);
        assert_eq!((some.n_authors(), some.active_authors()), (3, 2));
        for a in asked {
            assert_eq!(some.pages(a), &by_author[a.0 as usize][..]);
        }
        assert_eq!(some.n_incidences(), 2 + 2);
        assert!(std::panic::catch_unwind(|| some.pages(AuthorId(1))).is_err());
    }

    #[test]
    #[should_panic(expected = "author id 8 out of range")]
    fn out_of_range_harvest_request_panics() {
        AuthorPages::harvest(
            &Btm::from_events(8, 6, &messy()),
            [AuthorId(1), AuthorId(8)],
        );
    }
}
