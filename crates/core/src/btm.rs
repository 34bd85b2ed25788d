//! The bipartite temporal multigraph (BTM) `B = (U, P, E, t)`.
//!
//! Pages map to their time-sorted comment lists (the page *neighborhoods*
//! Algorithm 1 iterates). It is a *multigraph*: one author commenting the
//! same page five times is five edges, distinguished by timestamp.
//!
//! The page side is all a [`Btm`] stores, CSR-style: one offset array plus
//! one flat array of rows laid end to end, **8 B per comment**: every
//! comparison Algorithm 1 makes is between two comments of one page at most
//! δ2 apart, so a row holds `(ts − t0) << 32 | author` in one word
//! ([`NarrowRow`]; integer order is `(ts, author)` order) whenever the span
//! of the timestamps fits a `u32` — a month is 2.7 M s. An input spread wider
//! than that (136 years) keeps 16 B `(ts, author)` tuples ([`WideRow`]).
//! Nothing but that property of the input picks the layout, readers get a row
//! as a [`PageRow`] view, and every per-row loop is one body generic over
//! [`Row`].
//!
//! [`PageRows::build`] fills the rows with a counting pass (which also learns
//! the timestamp span), a prefix sum and a scatter pass — constant work per
//! event and no per-page allocation — that checks each comment against its
//! row predecessor as it lands, and comparison-sorts only the rows the input
//! did not already deliver in time order. A rank of the sharded pipeline
//! builds exactly these rows out of the events it receives, and a COORSNAP
//! file stores them word for word, so a [`Btm`] read off a snapshot borrows
//! its narrow rows from the mapping (`Btm::from_stored`).
//!
//! The author side — each author's deduplicated page list, the hypergraph
//! side: `p_x` of Eq. 3 and the inputs to `w_xyz` of Eq. 2 — is not stored.
//! Step 3 reads it for the vertices of the triangles that survived steps
//! 1–2, a few dozen authors out of |U|, so it is a value of its own,
//! [`AuthorPages`], harvested from the rows for exactly the authors asked
//! for in one masked scan.

use coordination_store::mmap::Words;
use coordination_store::snapshot::narrow_base;

use crate::ids::{AuthorId, Event, PageId, Timestamp};

/// One comment of a narrow row: `(ts − t0) << 32 | author` for the row set's
/// base `t0`, so integer order is `(ts, author)` order.
pub type NarrowRow = u64;

/// One comment of a wide row.
pub type WideRow = (Timestamp, AuthorId);

// "Half as wide" is a claim about these two types.
const _: () = assert!(std::mem::size_of::<NarrowRow>() == 8);
const _: () = assert!(std::mem::size_of::<WideRow>() == 16);

/// A comment of a page row in either layout — what the per-row loops are
/// written over, once. Algorithm 1 never needs a comment's absolute time,
/// only its author and its delay to a later comment of the same page.
pub trait Row: Copy + Ord {
    /// Who commented.
    fn author(self) -> AuthorId;

    /// Seconds from this comment to `later`. Timestamps come from the input
    /// file, so two comments of one wide row can lie more than `i64::MAX`
    /// seconds apart: `None` is farther than any window.
    fn delay_to(self, later: Self) -> Option<i64>;

    /// [`Row::delay_to`] if it is at most `d2`.
    #[inline]
    fn delay_within(self, later: Self, d2: i64) -> Option<i64> {
        self.delay_to(later).filter(|&dt| dt <= d2)
    }
}

impl Row for NarrowRow {
    #[inline]
    fn author(self) -> AuthorId {
        AuthorId((self & u64::from(u32::MAX)) as u32)
    }

    #[inline]
    fn delay_to(self, later: Self) -> Option<i64> {
        // two 32-bit offsets: the difference always fits
        Some((later >> 32) as i64 - (self >> 32) as i64)
    }
}

impl Row for WideRow {
    #[inline]
    fn author(self) -> AuthorId {
        self.1
    }

    #[inline]
    fn delay_to(self, later: Self) -> Option<i64> {
        later.0.checked_sub(self.0)
    }
}

/// The narrow row of a comment at `ts`, if `ts − t0` fits a `u32`.
#[inline]
fn pack_narrow(t0: Timestamp, ts: Timestamp, author: AuthorId) -> Option<NarrowRow> {
    let offset = u32::try_from(ts.checked_sub(t0)?).ok()?;
    Some(u64::from(offset) << 32 | u64::from(author.0))
}

/// Inverse of [`pack_narrow`] under the same `t0`.
#[inline]
fn unpack_narrow(t0: Timestamp, row: NarrowRow) -> WideRow {
    (t0 + (row >> 32) as i64, row.author())
}

/// A page's time-sorted comments in whichever layout its [`PageRows`] chose:
/// a small `Copy` view. Per-row loops match on it once per page and run one
/// body generic over [`Row`] on the slice inside; [`PageRow::iter`] decodes
/// `(timestamp, author)` for everything else.
#[derive(Clone, Copy, Debug)]
pub enum PageRow<'a> {
    /// 8 B rows holding offsets from `t0`.
    Narrow {
        /// What the rows' timestamp offsets count from.
        t0: Timestamp,
        /// The comments, ascending.
        row: &'a [NarrowRow],
    },
    /// 16 B rows, ascending.
    Wide(&'a [WideRow]),
}

impl<'a> PageRow<'a> {
    /// Number of comments.
    pub fn len(self) -> usize {
        match self {
            PageRow::Narrow { row, .. } => row.len(),
            PageRow::Wide(row) => row.len(),
        }
    }

    /// Whether the page has no comments.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The comments as `(timestamp, author)`, in row order: for the readers
    /// that need absolute times (the snapshot writer, the stream warm start,
    /// tests). A hot loop matches on the view instead.
    pub fn iter(self) -> impl DoubleEndedIterator<Item = WideRow> + 'a {
        // one slice per layout, the other one empty
        let (t0, narrow, wide): (_, &[NarrowRow], &[WideRow]) = match self {
            PageRow::Narrow { t0, row } => (t0, row, &[]),
            PageRow::Wide(row) => (0, &[], row),
        };
        let narrow = narrow.iter().map(move |&r| unpack_narrow(t0, r));
        narrow.chain(wide.iter().copied())
    }

    /// The decoded comments as an owned list.
    pub fn to_vec(self) -> Vec<WideRow> {
        self.iter().collect()
    }
}

/// A narrow flat row array: built here, or the very words of a snapshot's
/// `ROWS` section, borrowed from its mapping ([`Btm::from_stored`]). Readers
/// deref it to a slice once per row view, never per comment.
#[derive(Clone, Debug)]
enum NarrowRows {
    Owned(Vec<NarrowRow>),
    Mapped(Words),
}

impl std::ops::Deref for NarrowRows {
    type Target = [NarrowRow];

    fn deref(&self) -> &[NarrowRow] {
        match self {
            NarrowRows::Owned(rows) => rows,
            NarrowRows::Mapped(words) => words,
        }
    }
}

/// Either layout's flat row array.
#[derive(Clone, Debug)]
enum Comments {
    Narrow { t0: Timestamp, rows: NarrowRows },
    Wide(Vec<WideRow>),
}

/// The page side of the BTM on its own: every page's comments as one
/// time-sorted row, the rows laid end to end behind one offset table. [`Btm`]
/// is these rows plus the size of the author id space; a rank of the sharded
/// pipeline ([`crate::dist_pipeline`]) holds the rows of the pages it owns.
/// Equal for any arrival order of the same events: equality is of the decoded
/// rows, not of the layout or its base.
#[derive(Clone, Debug)]
pub struct PageRows {
    /// Page `p`'s comments are rows `off[p]..off[p + 1]`.
    off: Vec<usize>,
    /// Each page's rows sorted by timestamp then author. The length is the
    /// multigraph edge count |E|.
    comments: Comments,
}

impl PartialEq for PageRows {
    fn eq(&self, other: &Self) -> bool {
        let ((off, rows), (other_off, other_rows)) = (self.parts(), other.parts());
        off == other_off && rows.iter().eq(other_rows.iter())
    }
}

impl Eq for PageRows {}

/// Events per staging-buffer fill in [`PageRows::build`]'s scatter pass
/// (16 KiB).
const STAGE_EVENTS: usize = 1024;

/// What [`PageRows::build`]'s two passes must agree on.
const SECOND_PASS_DIFFERS: &str = "event source yielded different events on its second pass";

/// Turn per-row counts stored at `off[row + 1]` into row start offsets.
fn prefix_sum(off: &mut [usize]) {
    let mut total = 0;
    for slot in off {
        total += *slot;
        *slot = total;
    }
}

/// [`PageRows::build`]'s scatter pass in one layout: every event lands at its
/// page's cursor as `pack` makes it, compared with its row predecessor on the
/// way, and the rows that took a comment out of order are sorted after.
/// Returns the rows and how many needed the sort.
fn scatter<R: Row>(
    off: &[usize],
    zero: R,
    mut source: impl Iterator<Item = (PageId, Timestamp, AuthorId)>,
    pack: impl Fn(Timestamp, AuthorId) -> R,
) -> (Vec<R>, u64) {
    let np = off.len() - 1;
    let mut rows = vec![zero; off[np]];
    let mut cursor = off[..np].to_vec();
    let mut unsorted = vec![false; np];
    // Staged through a small buffer: a source that decodes or generates as
    // it goes (varint columns, an RNG) mispredicts often enough to serialize
    // the scatter's cache misses behind it — 4x slower on snapshot columns
    // than filling a buffer first and scattering that.
    let mut staged = Vec::with_capacity(STAGE_EVENTS);
    loop {
        staged.clear();
        staged.extend(source.by_ref().take(STAGE_EVENTS));
        if staged.is_empty() {
            break;
        }
        for &(p, ts, a) in &staged {
            let p = p.0 as usize;
            let row = pack(ts, a);
            let at = cursor[p];
            // The slot before is this row's previous arrival, or — at a row
            // start — a neighbour's, which the second test tells apart; a
            // time-ordered source never gets that far.
            if at > 0 && rows[at - 1] > row && at > off[p] {
                unsorted[p] = true;
            }
            rows[at] = row;
            cursor[p] = at + 1;
        }
    }
    // A row that over- or under-filled would silently shift its neighbours;
    // both passes seeing the same events rules that out.
    assert!(cursor == off[1..], "{SECOND_PASS_DIFFERS}");

    let mut sorted = 0;
    for (p, _) in unsorted.iter().enumerate().filter(|(_, &flagged)| flagged) {
        rows[off[p]..off[p + 1]].sort_unstable();
        sorted += 1;
    }
    (rows, sorted)
}

/// [`Btm::without_authors`] in one layout: the rows of `off` minus the
/// comments `gone` drops, behind their own offset table.
fn retain_kept<R: Row>(off: &[usize], rows: &[R], gone: &[bool]) -> (Vec<usize>, Vec<R>) {
    let mut kept = Vec::with_capacity(rows.len());
    let mut kept_off = Vec::with_capacity(off.len());
    kept_off.push(0);
    for w in off.windows(2) {
        let row = rows[w[0]..w[1]].iter();
        kept.extend(row.filter(|r| is_kept(gone, r.author())));
        kept_off.push(kept.len());
    }
    (kept_off, kept)
}

impl PageRows {
    /// Partition `(page, timestamp, author)` comments by page: a counting
    /// pass, a prefix sum and a scatter pass — constant work per event, no
    /// per-page allocation — then a comparison sort of only the rows that
    /// did not arrive time-ordered (every timestamp-sorted source delivers
    /// them so; `btm.pages_presorted` / `btm.pages_sorted` count both kinds).
    /// The counting pass also learns the timestamps' span, which alone picks
    /// the layout: 8 B rows when it fits a `u32`, 16 B rows otherwise
    /// (`btm.rows_narrow` / `btm.rows_wide` count the builds of each).
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
        let (mut lo, mut hi) = (Timestamp::MAX, Timestamp::MIN);
        events().for_each(|(p, ts, _)| {
            off[p.0 as usize + 1] += 1;
            lo = lo.min(ts);
            hi = hi.max(ts);
        });
        prefix_sum(&mut off);

        let (comments, sorted) = match narrow_base(lo, hi) {
            Some(t0) => {
                let pack = |ts, a| pack_narrow(t0, ts, a).expect(SECOND_PASS_DIFFERS);
                let (rows, sorted) = scatter(&off, 0, events(), pack);
                let rows = NarrowRows::Owned(rows);
                (Comments::Narrow { t0, rows }, sorted)
            }
            None => {
                let zero = (0, AuthorId(0));
                let (rows, sorted) = scatter(&off, zero, events(), |ts, a| (ts, a));
                (Comments::Wide(rows), sorted)
            }
        };
        let occupied = off.windows(2).filter(|w| w[1] > w[0]).count() as u64;
        obs::counter("btm.pages_presorted").add(occupied - sorted);
        obs::counter("btm.pages_sorted").add(sorted);
        PageRows { off, comments }.counted()
    }

    /// Count these rows' layout into `btm.rows_narrow` / `btm.rows_wide`,
    /// and into `btm.rows_mapped` if they borrow a snapshot's mapping.
    fn counted(self) -> Self {
        let (narrow, mapped) = match &self.comments {
            Comments::Narrow { rows, .. } => (true, matches!(rows, NarrowRows::Mapped(_))),
            Comments::Wide(_) => (false, false),
        };
        obs::counter("btm.rows_narrow").add(u64::from(narrow));
        obs::counter("btm.rows_wide").add(u64::from(!narrow));
        obs::counter("btm.rows_mapped").add(u64::from(mapped));
        self
    }

    /// Number of page slots, empty ones included.
    pub fn n_pages(&self) -> u32 {
        (self.off.len() - 1) as u32
    }

    /// Total comments over all rows.
    pub fn n_comments(&self) -> u64 {
        self.off[self.off.len() - 1] as u64
    }

    /// The offset table and every row end to end as one view: what equality
    /// compares and a snapshot stores.
    pub(crate) fn parts(&self) -> (&[usize], PageRow<'_>) {
        (&self.off, self.slice(0, self.n_comments() as usize))
    }

    /// Rows `lo..hi` of the flat array as one view.
    fn slice(&self, lo: usize, hi: usize) -> PageRow<'_> {
        match &self.comments {
            Comments::Narrow { t0, rows } => PageRow::Narrow {
                t0: *t0,
                row: &rows[lo..hi],
            },
            Comments::Wide(rows) => PageRow::Wide(&rows[lo..hi]),
        }
    }

    /// Page `p`'s comments, sorted by time.
    pub fn row(&self, p: PageId) -> PageRow<'_> {
        let p = p.0 as usize;
        self.slice(self.off[p], self.off[p + 1])
    }

    /// Iterate the non-empty rows as `(PageId, comments)`, pages ascending.
    pub fn pages(&self) -> impl Iterator<Item = (PageId, PageRow<'_>)> {
        self.off
            .windows(2)
            .enumerate()
            .filter(|(_, w)| w[1] > w[0])
            .map(|(i, w)| (PageId(i as u32), self.slice(w[0], w[1])))
    }

    /// The same rows minus the comments `gone` ([`author_mask`]) drops, in
    /// the same layout on the same base.
    fn without(&self, gone: &[bool]) -> PageRows {
        let (off, comments) = match &self.comments {
            Comments::Narrow { t0, rows } => {
                let (off, rows) = retain_kept(&self.off, rows, gone);
                let rows = NarrowRows::Owned(rows);
                (off, Comments::Narrow { t0: *t0, rows })
            }
            Comments::Wide(rows) => {
                let (off, rows) = retain_kept(&self.off, rows, gone);
                (off, Comments::Wide(rows))
            }
        };
        PageRows { off, comments }
    }
}

/// In-memory BTM over dense ids. Construct with [`Btm::from_events`] or
/// [`Btm::build`]. Two BTMs over the same multiset of events compare equal
/// whatever order the events arrived in and whichever layout their rows took.
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
    /// ([`PageRows::build`]'s two passes), so they never need to exist as a
    /// resident `Vec<Event>`. Order-invariant: any permutation of the same
    /// events yields an equal BTM.
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
        let source = || {
            events()
                .inspect(in_range)
                .filter(kept)
                .map(|e| (e.page, e.ts, e.author))
        };
        let rows = PageRows::build(n_pages, source);
        obs::record_stage_rss("btm");
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

    /// The page's comments sorted by time — the neighborhood `N` of
    /// Algorithm 1 line 4.
    pub fn page_neighborhood(&self, p: PageId) -> PageRow<'_> {
        self.rows.row(p)
    }

    /// The rows of a snapshot's `ROWS` section, validated at open: page `p`'s
    /// comments are `off[p]..off[p + 1]` of `comments`, narrow words shared
    /// with the mapping under base `t0` (`Ok`) or wide rows decoded (`Err`).
    /// With nobody `excluded` the words stay borrowed (`btm.rows_mapped`); an
    /// exclusion filters them into an owned copy, as `without_authors` does.
    pub(crate) fn from_stored(
        n_authors: u32,
        off: &[u64],
        comments: Result<(Timestamp, Words), Vec<WideRow>>,
        excluded: &[AuthorId],
    ) -> Self {
        let comments = match comments {
            Ok((t0, words)) => Comments::Narrow {
                t0,
                rows: NarrowRows::Mapped(words),
            },
            Err(rows) => Comments::Wide(rows),
        };
        let off = off.iter().map(|&o| o as usize).collect();
        let mut rows = PageRows { off, comments };
        if !excluded.is_empty() {
            rows = rows.without(&author_mask(n_authors, excluded));
        }
        obs::record_stage_rss("btm");
        Btm {
            rows: rows.counted(),
            n_authors,
        }
    }

    /// Remove all events of the given authors, returning a new BTM over the
    /// same id spaces. This is the paper's refinement loop (§2.4/§3): ruled-out
    /// authors (helpful bots, `[deleted]`) are removed and the projection
    /// rerun. Equal to [`Btm::build`] over the same events with the same
    /// `excluded`, which is the cheaper way to apply a list known up front.
    pub fn without_authors(&self, excluded: &[AuthorId]) -> Btm {
        Btm {
            rows: self.rows.without(&author_mask(self.n_authors, excluded)),
            n_authors: self.n_authors,
        }
    }

    /// Iterate pages with non-empty neighborhoods as `(PageId, comments)`.
    pub fn pages(&self) -> impl Iterator<Item = (PageId, PageRow<'_>)> {
        self.rows.pages()
    }

    /// The largest page neighborhood (comment count) — the projection's
    /// worst-case page.
    pub fn max_page_degree(&self) -> usize {
        let degrees = self.rows.off.windows(2).map(|w| w[1] - w[0]);
        degrees.max().unwrap_or(0)
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

    /// The slot of a requested author.
    pub(crate) fn slot(&self, a: AuthorId) -> u32 {
        self.slot[a.0 as usize]
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

    /// Feed page `p`'s whole row: `hit(slot, author)` for each requested
    /// author's first comment on it.
    pub(crate) fn page(&mut self, p: PageId, row: PageRow<'_>, mut hit: impl FnMut(u32, AuthorId)) {
        match row {
            PageRow::Narrow { row, .. } => self.row(p, row, &mut hit),
            PageRow::Wide(row) => self.row(p, row, &mut hit),
        }
    }

    /// [`HarvestScan::page`] over one layout's rows: the mask test per
    /// comment is the loop, a hit the rare way out of it.
    fn row<R: Row>(&mut self, p: PageId, row: &[R], hit: &mut impl FnMut(u32, AuthorId)) {
        for r in row {
            let a = r.author();
            if let Some(s) = self.first_on_page(p, a) {
                hit(s, a);
            }
        }
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
        let mut hits: Vec<(u32, PageId)> = Vec::new();
        if scan.n_slots() > 0 {
            for (p, row) in btm.pages() {
                scan.page(p, row, |s, _| hits.push((s, p)));
            }
        }
        Self::from_hits(scan, &hits)
    }

    /// Lay `(slot, page)` hits — each slot's pages ascending and distinct —
    /// out per author of `scan`'s request by count → prefix sum → scatter.
    /// [`AuthorPages::harvest`] feeds it one scan's hits; stage 5 of
    /// [`crate::dist_pipeline`] feeds it the runs it reads out of the
    /// harvest shards.
    pub(crate) fn from_hits(scan: HarvestScan, hits: &[(u32, PageId)]) -> Self {
        let n_slots = scan.n_slots();
        let mut author_off = vec![0usize; n_slots + 1];
        for &(s, _) in hits {
            author_off[s as usize + 1] += 1;
        }
        prefix_sum(&mut author_off);
        let mut pages = vec![PageId(0); hits.len()];
        let mut cursor = author_off[..n_slots].to_vec();
        for &(s, p) in hits {
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

    /// One past the largest page id harvested (0 for none): the page-id space
    /// a dense per-page table over these lists needs.
    pub(crate) fn page_bound(&self) -> usize {
        self.pages.iter().max().map_or(0, |p| p.0 as usize + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(a: u32, p: u32, ts: Timestamp) -> Event {
        Event::new(AuthorId(a), PageId(p), ts)
    }

    /// Every page row of `btm`, decoded.
    fn rows(btm: &Btm) -> Vec<Vec<WideRow>> {
        let rows = (0..btm.n_pages()).map(|p| btm.page_neighborhood(PageId(p)).to_vec());
        rows.collect()
    }

    /// Whether `btm`'s rows took the 8 B layout, as page 0's view shows.
    fn narrow(btm: &Btm) -> bool {
        matches!(btm.page_neighborhood(PageId(0)), PageRow::Narrow { .. })
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
        assert_eq!(rows(&Btm::from_events(4, 4, &[])), vec![vec![]; 4]);
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
            n.to_vec(),
            [(10, AuthorId(1)), (20, AuthorId(0)), (30, AuthorId(0))]
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
        // unsorted, repeated, and one author (7) who never commented
        let asked = [6, 2, 7, 2, 6].map(AuthorId);
        let some = AuthorPages::harvest(&btm, asked);
        assert_eq!((some.n_authors(), some.active_authors()), (3, 2));
        assert_eq!(some.pages(AuthorId(6)), [2, 4].map(PageId));
        assert_eq!(some.pages(AuthorId(2)), [1, 4].map(PageId));
        assert_eq!(some.pages(AuthorId(7)), []);
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

    /// The span of the timestamps, and nothing else, picks the layout — with
    /// no truncation on the way: exactly `u32::MAX` still packs, one more
    /// does not, and neither does a span `i64` cannot hold.
    #[test]
    fn the_span_alone_picks_the_layout() {
        let span = i64::from(u32::MAX);
        for (t0, t1, is_narrow) in [
            (0, span, true),
            (0, span + 1, false),
            (-5_000_000_000, -5_000_000_000 + span, true), // negative base
            (-5_000_000_000, -5_000_000_000 + span + 1, false),
            (i64::MAX - span, i64::MAX, true),
            (i64::MIN, i64::MIN + span, true),
            (i64::MIN, i64::MAX, false),
            (-1, i64::MAX, false), // span overflows i64
            (7, 7, true),
        ] {
            let events = [ev(1, 0, t1), ev(0, 0, t0), ev(0, 1, t0), ev(1, 1, t0)];
            let btm = Btm::from_events(2, 2, &events);
            assert_eq!(narrow(&btm), is_narrow, "{t0}..={t1}");
            let (a0, a1) = (AuthorId(0), AuthorId(1));
            let want = vec![vec![(t0, a0), (t1, a1)], vec![(t0, a0), (t0, a1)]];
            assert_eq!(rows(&btm), want, "{t0}..={t1}");
        }
        assert!(!narrow(&Btm::from_events(8, 6, &messy())));
        assert!(narrow(&Btm::from_events(3, 3, &[])));
    }

    /// Equality is of the decoded rows: the layout and its base are not part
    /// of it, and an exclusion in the build may change both.
    #[test]
    fn equality_ignores_layout_and_base() {
        // author 2's far-off comment is all that makes these rows wide
        let events = [
            ev(0, 0, 100),
            ev(1, 0, 130),
            ev(2, 1, i64::MIN),
            ev(0, 1, 90),
        ];
        let full = Btm::from_events(3, 2, &events);
        let masked = Btm::build(3, 2, &[AuthorId(2)], || events.iter().copied());
        let removed = full.without_authors(&[AuthorId(2)]);
        assert!(!narrow(&full) && !narrow(&removed) && narrow(&masked));
        assert_eq!(masked, removed);
        assert_ne!(masked, full);
        // same layout, different base: dropping the earliest comment re-bases
        // the build at 100 and leaves `without_authors` at 90
        let rebased = Btm::build(3, 2, &[AuthorId(2), AuthorId(0)], || events.iter().copied());
        assert!(narrow(&rebased));
        assert_eq!(rebased, masked.without_authors(&[AuthorId(0)]));
        assert_ne!(rebased, masked);
    }

    /// Delays on the two layouts: two `u32` offsets never overflow, two
    /// `i64` timestamps can, and that is farther than any window.
    #[test]
    fn row_delays_hold_at_the_extremes() {
        let narrow = |ts| pack_narrow(-9, ts, AuthorId(u32::MAX)).unwrap();
        let (first, last) = (narrow(-9), narrow(-9 + i64::from(u32::MAX)));
        assert_eq!(last.author(), AuthorId(u32::MAX));
        assert_eq!(unpack_narrow(-9, last).0, -9 + i64::from(u32::MAX));
        assert_eq!(first.delay_to(last), Some(i64::from(u32::MAX)));
        assert_eq!(
            first.delay_within(last, i64::MAX),
            Some(i64::from(u32::MAX))
        );
        assert_eq!(first.delay_within(last, i64::from(u32::MAX) - 1), None);
        assert!(first < last && narrow(5) < narrow(6));
        assert_eq!(pack_narrow(-9, -10, AuthorId(0)), None);
        assert_eq!(
            pack_narrow(-9, -9 + i64::from(u32::MAX) + 1, AuthorId(0)),
            None
        );
        assert_eq!(pack_narrow(i64::MAX, i64::MIN, AuthorId(0)), None);

        let wide = |ts| (ts, AuthorId(0));
        assert_eq!(wide(i64::MIN).delay_to(wide(i64::MAX)), None);
        assert_eq!(wide(-1).delay_to(wide(i64::MAX)), None);
        assert_eq!(
            wide(0).delay_within(wide(i64::MAX), i64::MAX),
            Some(i64::MAX)
        );
        assert_eq!(wide(0).delay_within(wide(61), 60), None);
    }

    /// A source whose second pass moves a timestamp out of the span the
    /// first pass saw cannot be packed, and says why.
    #[test]
    #[should_panic(expected = "different events on its second pass")]
    fn a_second_pass_outside_the_first_pass_span_is_caught() {
        let calls = std::cell::Cell::new(0);
        Btm::build(1, 1, &[], || {
            calls.set(calls.get() + 1);
            let ts = if calls.get() == 1 { 5 } else { 4 };
            [ev(0, 0, 5), ev(0, 0, ts)].into_iter()
        });
    }
}
