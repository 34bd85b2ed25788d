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
//! (`NarrowRow`; integer order is `(ts, author)` order) whenever the span
//! of the timestamps fits a `u32` — a month is 2.7 M s. An input spread wider
//! than that (136 years) keeps 16 B `(ts, author)` tuples (`WideRow`).
//! Nothing but that property of the input picks the layout, readers get a row
//! as a [`PageRow`] view, and every per-row loop is one body generic over
//! `Row`.
//!
//! `PageRows::build` fills the rows with a counting pass (which also learns
//! the timestamp span), a prefix sum and a scatter pass — constant work per
//! event and no per-page allocation — that only stores each comment at its
//! row's cursor; one sequential pass afterwards comparison-sorts only the
//! rows the input did not already deliver in time order. NDJSON ingest
//! ([`crate::ingest::ingest_rows`]) stages each kept comment in 12 B as it
//! interns (`StagedRows`), and the same passes then run over the staged
//! chunks — each dropped once scattered — so a month read off NDJSON never
//! exists as a 16 B event column. A COORSNAP file stores the rows word for
//! word, so a [`Btm`] read off a snapshot borrows its narrow rows from the
//! mapping (`Btm::from_stored`). The sharded pipeline reads a [`Btm`]'s
//! rows in place on every rank: each rank its own pages' rows, or under a
//! shuffle budget its block of the comments (`Btm::block`: whole pages but
//! for the two a block edge splits) to ship to their pages' owners.
//!
//! The author side — each author's deduplicated page list, the hypergraph
//! side: `p_x` of Eq. 3 and the inputs to `w_xyz` of Eq. 2 — is not stored.
//! Step 3 reads it for the vertices of the triangles that survived steps
//! 1–2, a few dozen authors out of |U|, so it is a value of its own,
//! [`AuthorPages`], harvested from the rows for exactly the authors asked
//! for in one masked scan, each author's pages held as a bitset over the
//! harvest's page space or as a sorted list, whichever is smaller.

use coordination_store::mmap::Words;
use coordination_store::snapshot::narrow_base;

use crate::ids::{AuthorId, Event, PageId, Timestamp};

/// One comment of a narrow row: `(ts − t0) << 32 | author` for the row set's
/// base `t0`, so integer order is `(ts, author)` order.
pub(crate) type NarrowRow = u64;

/// One comment of a wide row.
pub(crate) type WideRow = (Timestamp, AuthorId);

// "Half as wide" is a claim about these two types.
const _: () = assert!(std::mem::size_of::<NarrowRow>() == 8);
const _: () = assert!(std::mem::size_of::<WideRow>() == 16);

/// A comment of a page row in either layout — what the per-row loops are
/// written over, once. Algorithm 1 never needs a comment's absolute time,
/// only its author and its delay to a later comment of the same page.
pub(crate) trait Row: Copy + Ord + Default {
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

/// A page's time-sorted comments in whichever layout its rows took:
/// a small `Copy` view. Per-row loops match on it once per page and run one
/// body generic over `Row` on the slice inside; [`PageRow::iter`] decodes
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
/// is these rows plus the size of the author id space. Equal for any arrival
/// order of the same events: equality is of the decoded rows, not of the
/// layout or its base.
#[derive(Clone, Debug)]
struct PageRows {
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

/// Make room for page `p`'s count at `off[p + 1]` in [`PageRows::build`]'s
/// counting pass: a table the source sizes (`n_pages` is `None`) grows to
/// `p + 1` slots, a fixed one refuses the page.
#[cold]
fn fit(off: &mut Vec<usize>, p: PageId, n_pages: Option<u32>) {
    assert!(n_pages.is_none(), "page id {} out of range", p.0);
    let slots =
        p.0.checked_add(1)
            .expect("dense page ids stay below u32::MAX");
    off.resize(slots as usize + 1, 0);
}

/// Turn per-row counts stored at `off[row + 1]` into row start offsets.
fn prefix_sum(off: &mut [usize]) {
    let mut total = 0;
    for slot in off {
        total += *slot;
        *slot = total;
    }
}

/// The rows a scatter pass fills: every comment lands at its page's cursor,
/// in arrival order — a cursor load and a store, nothing compared, so the
/// cache misses of consecutive comments overlap.
struct Scatter<R> {
    rows: Vec<R>,
    cursor: Vec<usize>,
}

impl<R: Row> Scatter<R> {
    /// Store `r` at page `p`'s cursor.
    #[inline]
    fn place(&mut self, p: PageId, r: R) {
        let at = self
            .cursor
            .get_mut(p.0 as usize)
            .expect(SECOND_PASS_DIFFERS);
        *self.rows.get_mut(*at).expect(SECOND_PASS_DIFFERS) = r;
        *at += 1;
    }
}

/// A scatter pass in one layout (span `btm.scatter`): `fill` places every
/// comment of the rows `off` lays out, then [`order`] sorts the rows that
/// need it.
fn scatter<R: Row>(off: &[usize], fill: impl FnOnce(&mut Scatter<R>)) -> Vec<R> {
    let span = obs::span("btm.scatter");
    let np = off.len() - 1;
    let mut pass = Scatter {
        rows: vec![R::default(); off[np]],
        cursor: off[..np].to_vec(),
    };
    fill(&mut pass);
    // A row that over- or under-filled would silently shift its neighbours;
    // both passes seeing the same events rules that out.
    assert!(pass.cursor == off[1..], "{SECOND_PASS_DIFFERS}");
    drop(span);
    let mut rows = pass.rows;
    order(off, &mut rows);
    rows
}

/// [`PageRows::build`]'s scatter pass over its event source, the comments
/// `gone` drops skipped, each packed as `pack` makes it.
fn scatter_events<R: Row>(
    off: &[usize],
    gone: &[bool],
    mut source: impl Iterator<Item = (PageId, Timestamp, AuthorId)>,
    pack: impl Fn(Timestamp, AuthorId) -> R,
) -> Vec<R> {
    scatter(off, |rows| {
        // Staged through a small buffer for sources that cost a call per
        // event: the one-rank door's boxed source builds in 1.13x the
        // resident build's time staged and 1.24x unstaged (1 M
        // `month_sparse` events, medians of eight runs each); a slice source
        // reads level either way.
        let mut staged = Vec::with_capacity(STAGE_EVENTS);
        loop {
            staged.clear();
            staged.extend(source.by_ref().take(STAGE_EVENTS));
            if staged.is_empty() {
                break;
            }
            for &(p, ts, a) in &staged {
                // The mask is read here, not as a `filter` on the source: one
                // in the staging chain made `Btm::from_events` about 30 %
                // slower.
                if is_kept(gone, a) {
                    rows.place(p, pack(ts, a));
                }
            }
        }
    })
}

/// Sort the rows (page `p`'s are `off[p]..off[p + 1]`) not already in
/// `(ts, author)` order in one sequential pass, counting `btm.pages_sorted`
/// and `btm.pages_presorted`. Returns how many it sorted.
fn order<R: Row>(off: &[usize], rows: &mut [R]) -> u64 {
    let _g = obs::span("btm.order");
    let (mut occupied, mut sorted) = (0, 0);
    for w in off.windows(2) {
        let row = &mut rows[w[0]..w[1]];
        occupied += u64::from(!row.is_empty());
        if !row.is_sorted() {
            row.sort_unstable();
            sorted += 1;
        }
    }
    obs::counter("btm.pages_presorted").add(occupied - sorted);
    obs::counter("btm.pages_sorted").add(sorted);
    sorted
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

/// One staged chunk of [`StagedRows`]: its comments' page ids and narrow
/// words, in arrival order. A word is `(ts − base) mod 2³² << 32 | author`,
/// and the chunk's own timestamps span at most `u32::MAX` s (`lo..=hi`), so
/// a word decodes to its exact timestamp against any base that lies at most
/// that far below every one of them: [`StagedChunk::rebase`].
#[derive(Debug, Default)]
struct StagedChunk {
    base: Timestamp,
    lo: Timestamp,
    hi: Timestamp,
    pages: Vec<u32>,
    words: Vec<NarrowRow>,
}

impl StagedChunk {
    /// A chunk with room for `capacity` comments, the first at `ts`.
    fn new(capacity: usize, ts: Timestamp) -> Self {
        StagedChunk {
            base: ts,
            lo: ts,
            hi: ts,
            pages: Vec::with_capacity(capacity),
            words: Vec::with_capacity(capacity),
        }
    }

    /// Take a comment at `ts` into the chunk's range if it fits: there is
    /// room, and the chunk's span with it still fits a `u32`.
    #[inline]
    fn admit(&mut self, ts: Timestamp) -> bool {
        let (lo, hi) = (self.lo.min(ts), self.hi.max(ts));
        let fits =
            self.words.len() < self.words.capacity() && hi.abs_diff(lo) <= u64::from(u32::MAX);
        if fits {
            (self.lo, self.hi) = (lo, hi);
        }
        fits
    }

    /// `word` as the narrow row `(ts − t0) << 32 | author`, for a `t0` at
    /// most `u32::MAX` s below its timestamp: one add, since the offsets
    /// agree modulo 2³² and the result is known to fit.
    #[inline]
    fn rebase(&self, t0: Timestamp) -> impl Fn(NarrowRow) -> NarrowRow {
        let shift = u64::from(self.base.wrapping_sub(t0) as u32) << 32;
        move |word| word.wrapping_add(shift)
    }

    /// Bytes allocated for the chunk's comments.
    fn bytes(&self) -> usize {
        self.pages.capacity() * std::mem::size_of::<u32>()
            + self.words.capacity() * std::mem::size_of::<NarrowRow>()
    }
}

/// Comments staged for a [`PageRows`] build while they are read, in 12 B
/// each (a `u32` page id, a `u64` narrow word), in chunks of a fixed size.
/// Each chunk is allocated once, never grown, and closes early rather than
/// let its own span pass `u32::MAX` s, so every staged comment decodes to
/// its exact timestamp and the span of all of them alone still picks the
/// layout (only the chunk after such an early close may be smaller).
/// [`StagedRows::into_rows`] counts, then scatters the chunks one after
/// another and drops each once scattered.
#[derive(Debug)]
pub(crate) struct StagedRows {
    /// Comments per chunk.
    capacity: usize,
    /// The chunk being filled; an empty one with no room before the first.
    open: StagedChunk,
    closed: Vec<StagedChunk>,
}

impl StagedRows {
    /// Nothing staged, in chunks of `capacity` comments.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a staging chunk holds at least one comment");
        StagedRows {
            capacity,
            open: StagedChunk::default(),
            closed: Vec::new(),
        }
    }

    /// Stage author `a`'s comment at `ts` on page `p`.
    #[inline]
    pub(crate) fn push(&mut self, p: PageId, ts: Timestamp, a: AuthorId) {
        if !self.open.admit(ts) {
            self.close(ts);
        }
        let chunk = &mut self.open;
        chunk.pages.push(p.0);
        let offset = ts.wrapping_sub(chunk.base) as u32;
        chunk.words.push(u64::from(offset) << 32 | u64::from(a.0));
    }

    /// Close the open chunk and open one for a comment at `ts`. A chunk the
    /// span closed before it was full opens one of at most twice its length,
    /// so an input whose timestamps keep jumping `u32::MAX` s back and forth
    /// holds at most about twice its staged bytes, not a whole chunk per
    /// comment; a month never closes a chunk that way.
    #[cold]
    fn close(&mut self, ts: Timestamp) {
        let len = self.open.words.len();
        let capacity = if len < self.open.words.capacity() {
            (2 * len).clamp(1, self.capacity)
        } else {
            self.capacity
        };
        let done = std::mem::replace(&mut self.open, StagedChunk::new(capacity, ts));
        if len > 0 {
            self.closed.push(done);
        }
    }

    /// Bytes allocated for the staged comments.
    pub(crate) fn bytes(&self) -> usize {
        self.closed
            .iter()
            .chain([&self.open])
            .map(StagedChunk::bytes)
            .sum()
    }

    /// The staged comments as the rows of `n_pages` pages:
    /// [`PageRows::build`]'s passes over the staged chunks instead of the
    /// events — the counting pass reads the 4 B page ids and the chunks'
    /// ranges (`btm.count`), then a prefix sum, the scatter of one chunk
    /// after another, each dropped once scattered, and the order pass.
    ///
    /// # Panics
    /// If a staged page id is not below `n_pages`.
    fn into_rows(self, n_pages: u32) -> PageRows {
        let count = obs::span("btm.count");
        let StagedRows {
            open, mut closed, ..
        } = self;
        closed.push(open);
        let mut off = vec![0usize; n_pages as usize + 1];
        let (mut lo, mut hi) = (Timestamp::MAX, Timestamp::MIN);
        // Only the open chunk can be empty, and only if nothing was staged:
        // then its range, `0..=0`, gives the base `narrow_base` gives no range.
        for chunk in &closed {
            for &p in &chunk.pages {
                off[p as usize + 1] += 1;
            }
            (lo, hi) = (lo.min(chunk.lo), hi.max(chunk.hi));
        }
        prefix_sum(&mut off);
        drop(count);
        let comments = match narrow_base(lo, hi) {
            Some(t0) => {
                let rows = scatter(&off, |rows| {
                    for chunk in closed {
                        let rebase = chunk.rebase(t0);
                        for (&p, &word) in chunk.pages.iter().zip(&chunk.words) {
                            rows.place(PageId(p), rebase(word));
                        }
                    }
                });
                let rows = NarrowRows::Owned(rows);
                Comments::Narrow { t0, rows }
            }
            None => Comments::Wide(scatter(&off, |rows| {
                for chunk in closed {
                    let rebase = chunk.rebase(chunk.lo);
                    for (&p, &word) in chunk.pages.iter().zip(&chunk.words) {
                        rows.place(PageId(p), unpack_narrow(chunk.lo, rebase(word)));
                    }
                }
            })),
        };
        PageRows { off, comments }.counted()
    }
}

impl PageRows {
    /// Partition `(page, timestamp, author)` comments by page: a counting
    /// pass (span `btm.count`), a prefix sum and a scatter pass that only
    /// stores (`btm.scatter`), then one pass that sorts only the rows not yet
    /// in `(ts, author)` order (`btm.order`) — no per-page allocation.
    /// The counting pass also learns the timestamps' span, which alone picks
    /// the layout: 8 B rows when it fits a `u32`, 16 B rows otherwise
    /// (`btm.rows_narrow` / `btm.rows_wide` count the builds of each).
    ///
    /// The page table has `n_pages` slots, or with `None` 1 + the largest
    /// page id the counting pass sees, the comments of the authors `gone`
    /// masks included (`gone[a]` drops author `a`'s comments; an empty mask
    /// drops none): a source that knows no id space sizes it as it is read,
    /// and nobody scans it for that first.
    ///
    /// `events` is called twice and must yield the same events both times,
    /// so they never need to exist as a resident list of their own.
    ///
    /// # Panics
    /// If a page id is not below `n_pages` ("page id N out of range"), is
    /// `u32::MAX` without one ("dense page ids stay below u32::MAX"), or the
    /// two passes differ.
    fn build<I: Iterator<Item = (PageId, Timestamp, AuthorId)>>(
        n_pages: Option<u32>,
        gone: &[bool],
        events: impl Fn() -> I,
    ) -> Self {
        let count = obs::span("btm.count");
        let mut off = vec![0usize; n_pages.map_or(0, |n| n as usize) + 1];
        let (mut lo, mut hi) = (Timestamp::MAX, Timestamp::MIN);
        events().for_each(|(p, ts, a)| {
            let slot = p.0 as usize + 1;
            if slot >= off.len() {
                fit(&mut off, p, n_pages);
            }
            if is_kept(gone, a) {
                off[slot] += 1;
                lo = lo.min(ts);
                hi = hi.max(ts);
            }
        });
        prefix_sum(&mut off);
        drop(count);

        let comments = match narrow_base(lo, hi) {
            Some(t0) => {
                let pack = |ts, a| pack_narrow(t0, ts, a).expect(SECOND_PASS_DIFFERS);
                let rows = NarrowRows::Owned(scatter_events(&off, gone, events(), pack));
                Comments::Narrow { t0, rows }
            }
            None => Comments::Wide(scatter_events(&off, gone, events(), |ts, a| (ts, a))),
        };
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
    fn n_pages(&self) -> u32 {
        (self.off.len() - 1) as u32
    }

    /// Total comments over all rows.
    fn n_comments(&self) -> u64 {
        self.off[self.off.len() - 1] as u64
    }

    /// The offset table and every row end to end as one view: what equality
    /// compares and a snapshot stores.
    fn parts(&self) -> (&[usize], PageRow<'_>) {
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
    fn row(&self, p: PageId) -> PageRow<'_> {
        let p = p.0 as usize;
        self.slice(self.off[p], self.off[p + 1])
    }

    /// Iterate the non-empty rows as `(PageId, comments)`, pages ascending.
    fn pages(&self) -> impl Iterator<Item = (PageId, PageRow<'_>)> {
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
        Self::build(n_authors, Some(n_pages), &[], || events.iter().copied())
    }

    /// Build from a re-iterable event source, dropping every event of the
    /// `excluded` authors (the pre-projection exclusion list; their rows
    /// come out empty, exactly as [`Btm::without_authors`] leaves them).
    /// `n_pages` fixes the page id space, or with `None` the source sizes
    /// it (`PageRows::build`).
    ///
    /// `events` is called twice and must yield the same events both times
    /// (`PageRows::build`'s two passes), so they never need to exist as a
    /// resident `Vec<Event>`. Order-invariant: any permutation of the same
    /// events yields an equal BTM.
    pub fn build<I: Iterator<Item = Event>>(
        n_authors: u32,
        n_pages: Option<u32>,
        excluded: &[AuthorId],
        events: impl Fn() -> I,
    ) -> Self {
        let _g = obs::span("btm.build");
        let in_range = |e: &Event| {
            assert!(
                e.author.0 < n_authors,
                "author id {} out of range",
                e.author.0
            );
        };
        let source = || events().inspect(in_range).map(|e| (e.page, e.ts, e.author));
        let gone = author_mask(n_authors, excluded);
        let rows = PageRows::build(n_pages, &gone, source);
        obs::record_stage_rss("btm");
        Btm { rows, n_authors }
    }

    /// The rows of `staged` over `n_authors` authors and `n_pages` pages
    /// (span `btm.build`): the build of [`crate::ingest::ingest_rows`],
    /// whose ingest dropped the excluded authors' comments.
    pub(crate) fn from_staged(n_authors: u32, n_pages: u32, staged: StagedRows) -> Self {
        let _g = obs::span("btm.build");
        let rows = staged.into_rows(n_pages);
        obs::record_stage_rss("btm");
        Btm { rows, n_authors }
    }

    /// The offset table and every row end to end as one view: what a
    /// snapshot stores.
    pub(crate) fn parts(&self) -> (&[usize], PageRow<'_>) {
        self.rows.parts()
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

    /// Rank `rank`'s block of the comments when `nranks` ranks split them
    /// ([`ygm::block_range`] over the flat rows), page by page in row order
    /// as `(PageId, comments)`: whole pages, but for the two the block's
    /// edges clip, read in place from owned or mapped rows of either layout.
    /// Pages the block holds no comment of are skipped. The page holding the
    /// block's first comment is found in the offsets, so nothing before the
    /// block is read. The blocks of one rank count tile the comments in order.
    pub(crate) fn block(
        &self,
        rank: usize,
        nranks: usize,
    ) -> impl Iterator<Item = (PageId, PageRow<'_>)> + '_ {
        let rows = &self.rows;
        let block = ygm::block_range(rank, rows.n_comments() as usize, nranks);
        let (lo, hi) = (block.start, block.end);
        let first = rows.off.partition_point(|&o| o <= lo) - 1;
        (first..rows.n_pages() as usize)
            .take_while(move |&p| rows.off[p] < hi)
            .map(move |p| (p, rows.off[p].max(lo), rows.off[p + 1].min(hi)))
            .filter(|&(_, from, to)| from < to)
            .map(move |(p, from, to)| (PageId(p as u32), rows.slice(from, to)))
    }

    /// The largest page neighborhood (comment count) — the projection's
    /// worst-case page.
    pub fn max_page_degree(&self) -> usize {
        let degrees = self.rows.off.windows(2).map(|w| w[1] - w[0]);
        degrees.max().unwrap_or(0)
    }
}

/// The author side of a [`Btm`] for a stated set of authors: each one's
/// distinct pages — the hypergraph incidence sets `w_xyz` (Eq. 2) intersects
/// and `p_x` (Eq. 3) measures. Asking for every author gives the full
/// transpose of the page side.
///
/// Each set is held in whichever form is smaller: a bitset over the
/// harvest's page space (one past its largest page id) for an author on at
/// least 1/32 of it, the sorted list otherwise. The form changes no
/// answer, only how step 3's kernel intersects.
#[derive(Clone, Debug)]
pub struct AuthorPages {
    /// `slot[a]` is author `a`'s row below if `a` was asked for, [`NO_SLOT`]
    /// otherwise.
    slot: Vec<u32>,
    /// Row `s` holds `len[s]` distinct pages.
    len: Vec<u32>,
    /// Where row `s` starts: in `words` if it is dense, in `pages` otherwise.
    start: Vec<usize>,
    /// The sparse rows' pages, each row sorted.
    pages: Vec<PageId>,
    /// The dense rows' bitsets, [`AuthorPages::n_words`] words each.
    words: Vec<u64>,
    /// One past the largest page id harvested (0 for none).
    page_space: usize,
}

/// Whether a set of `len` pages in a page space of `page_space` ids is held
/// as a bitset: when `32·len ≥ page_space`, so the bitset's `page_space / 8`
/// bytes are never more than the list's `4·len` (up to the last word's
/// rounding). The one rule both engines' harvests follow.
fn is_dense(len: usize, page_space: usize) -> bool {
    len > 0 && 32 * len >= page_space
}

/// A harvested author's distinct pages, in the form they are held in.
#[derive(Clone, Copy, Debug)]
pub enum PageSet<'a> {
    /// Bit `p % 64` of word `p / 64` is set for each page `p`.
    Bits(&'a [u64]),
    /// The pages, ascending.
    List(&'a [PageId]),
}

impl<'a> PageSet<'a> {
    /// Whether page `p` is in the set.
    #[inline]
    pub fn contains(self, p: PageId) -> bool {
        match self {
            PageSet::Bits(words) => (p.0 as usize) < 64 * words.len() && has(words, p),
            PageSet::List(pages) => pages.binary_search(&p).is_ok(),
        }
    }

    /// The pages, ascending.
    pub fn iter(self) -> impl Iterator<Item = PageId> + 'a {
        let (words, pages) = match self {
            PageSet::Bits(words) => (words, &[][..]),
            PageSet::List(pages) => (&[][..], pages),
        };
        bit_pages(words).chain(pages.iter().copied())
    }
}

/// Whether page `p`, below `64 · words.len()`, is set in `words`.
#[inline]
pub(crate) fn has(words: &[u64], p: PageId) -> bool {
    let p = p.0 as usize;
    words[p / 64] >> (p % 64) & 1 != 0
}

/// The pages set in `words`, ascending.
pub(crate) fn bit_pages(words: &[u64]) -> impl Iterator<Item = PageId> + '_ {
    words.iter().enumerate().flat_map(|(i, &w)| {
        let mut w = w;
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let bit = w.trailing_zeros();
                w &= w - 1;
                PageId(i as u32 * 64 + bit)
            })
        })
    })
}

/// Rows number below `n_authors <= u32::MAX`, so the sentinel is no row.
const NO_SLOT: u32 = u32::MAX;

/// The masked scan under [`AuthorPages::harvest`], fed the page rows in page
/// order: every comment's author is tested against a bitset of the
/// requested ids (`|U|` / 8 bytes, cache-resident where a per-author table is
/// not), and a hit is taken the first time that author is seen on that page —
/// an author's repeat comments all sit inside the page's row, so remembering
/// the last page per requested author catches them.
struct HarvestScan {
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
    fn new(n_authors: u32, authors: impl IntoIterator<Item = AuthorId>) -> Self {
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
    fn n_slots(&self) -> usize {
        self.last_page.len()
    }

    /// Feed the next incidence of a page-major stream: the author's slot if
    /// they were requested and this is their first comment on page `p`.
    #[inline]
    fn first_on_page(&mut self, p: PageId, a: AuthorId) -> Option<u32> {
        let a = a.0 as usize;
        if self.wanted[a / 64] >> (a % 64) & 1 == 0 {
            return None;
        }
        let s = self.slot[a];
        (std::mem::replace(&mut self.last_page[s as usize], p) != p).then_some(s)
    }

    /// Feed page `p`'s whole row: `hit(slot, author)` for each requested
    /// author's first comment on it.
    fn page(&mut self, p: PageId, row: PageRow<'_>, mut hit: impl FnMut(u32, AuthorId)) {
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
        // pages are scanned ascending, so the last hit is on the largest
        let page_space = hits.last().map_or(0, |&(_, p)| p.0 as usize + 1);
        Self::from_hits(scan, &hits, page_space)
    }

    /// Lay `(slot, page)` hits — each slot's pages ascending and distinct, all
    /// below `page_space` — out per author of `scan`'s request by count →
    /// prefix sum → scatter, then fold each dense row, read in order, into
    /// its bitset and close the sparse rows up behind one another, so no
    /// hit's form is decided in the scatter.
    fn from_hits(scan: HarvestScan, hits: &[(u32, PageId)], page_space: usize) -> Self {
        let n_slots = scan.n_slots();
        let mut off = vec![0usize; n_slots + 1];
        for &(s, _) in hits {
            off[s as usize + 1] += 1;
        }
        prefix_sum(&mut off);
        let mut pages = vec![PageId(0); hits.len()];
        let mut cursor = off[..n_slots].to_vec();
        for &(s, p) in hits {
            let at = &mut cursor[s as usize];
            pages[*at] = p;
            *at += 1;
        }
        // each dense row becomes a bitset, and the sparse rows close up
        let n_words = page_space.div_ceil(64);
        let len: Vec<u32> = off.windows(2).map(|w| (w[1] - w[0]) as u32).collect();
        let n_dense = len
            .iter()
            .filter(|&&l| is_dense(l as usize, page_space))
            .count();
        let mut words = vec![0u64; n_dense * n_words];
        let mut start = Vec::with_capacity(n_slots);
        let (mut listed, mut dense) = (0, 0);
        for (s, row) in off.windows(2).enumerate() {
            if is_dense(len[s] as usize, page_space) {
                start.push(dense);
                let set = &mut words[dense..dense + n_words];
                for p in &pages[row[0]..row[1]] {
                    let p = p.0 as usize;
                    set[p / 64] |= 1 << (p % 64);
                }
                dense += n_words;
            } else {
                start.push(listed);
                pages.copy_within(row[0]..row[1], listed);
                listed += row[1] - row[0];
            }
        }
        pages.truncate(listed);
        pages.shrink_to_fit();
        AuthorPages {
            slot: scan.slot,
            len,
            start,
            pages,
            words,
            page_space,
        }
    }

    /// Every author's page list: the full transpose of the page side, by the
    /// same scan.
    pub fn all(btm: &Btm) -> Self {
        Self::harvest(btm, (0..btm.n_authors()).map(AuthorId))
    }

    /// The row of a harvested author.
    fn row(&self, a: AuthorId) -> usize {
        match self.slot.get(a.0 as usize) {
            Some(&s) if s != NO_SLOT => s as usize,
            _ => panic!("author {} was not harvested", a.0),
        }
    }

    /// The author's distinct pages.
    ///
    /// # Panics
    /// If `a` was not among the authors harvested.
    pub fn pages(&self, a: AuthorId) -> PageSet<'_> {
        let s = self.row(a);
        let (start, len) = (self.start[s], self.len[s] as usize);
        if is_dense(len, self.page_space) {
            PageSet::Bits(&self.words[start..start + self.n_words()])
        } else {
            PageSet::List(&self.pages[start..start + len])
        }
    }

    /// `p_x`: the number of pages where `x` has at least one comment (Eq. 3).
    ///
    /// # Panics
    /// If `a` was not among the authors harvested.
    pub fn page_count(&self, a: AuthorId) -> u64 {
        u64::from(self.len[self.row(a)])
    }

    /// Number of distinct authors harvested.
    pub fn n_authors(&self) -> u32 {
        self.len.len() as u32
    }

    /// Number of harvested authors with at least one comment.
    pub fn active_authors(&self) -> u32 {
        self.len.iter().filter(|&&l| l > 0).count() as u32
    }

    /// Total author–page incidences harvested.
    pub fn n_incidences(&self) -> u64 {
        self.len.iter().map(|&l| u64::from(l)).sum()
    }

    /// The incidences of the authors held as bitsets.
    pub(crate) fn dense_incidences(&self) -> u64 {
        let dense = self
            .len
            .iter()
            .filter(|&&l| is_dense(l as usize, self.page_space));
        dense.map(|&l| u64::from(l)).sum()
    }

    /// Words in one page bitset over the harvest's page space.
    pub(crate) fn n_words(&self) -> usize {
        self.page_space.div_ceil(64)
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
            .iter()
            .next()
            .is_none());
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
            let masked = Btm::build(8, Some(6), &excluded, || events.iter().copied());
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
        Btm::build(2, Some(2), &[], || {
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
        let pages: Vec<PageId> = authors.pages(AuthorId(0)).iter().collect();
        assert_eq!(pages, [PageId(0), PageId(1), PageId(2)]);
        assert_eq!(authors.page_count(AuthorId(0)), 3);
    }

    #[test]
    fn multigraph_keeps_repeat_comments() {
        let btm = Btm::from_events(1, 1, &[ev(0, 0, 1), ev(0, 0, 1), ev(0, 0, 2)]);
        assert_eq!(btm.page_neighborhood(PageId(0)).iter().count(), 3);
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
        assert_eq!(cleaned.page_neighborhood(PageId(0)).iter().count(), 2);
        assert!(cleaned.page_neighborhood(PageId(1)).iter().next().is_none());
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
        let pages = |a| some.pages(AuthorId(a)).iter().collect::<Vec<_>>();
        assert_eq!(pages(6), [2, 4].map(PageId));
        assert_eq!(pages(2), [1, 4].map(PageId));
        assert_eq!(pages(7), []);
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
        let masked = Btm::build(3, Some(2), &[AuthorId(2)], || events.iter().copied());
        let removed = full.without_authors(&[AuthorId(2)]);
        assert!(!narrow(&full) && !narrow(&removed) && narrow(&masked));
        assert_eq!(masked, removed);
        assert_ne!(masked, full);
        // same layout, different base: dropping the earliest comment re-bases
        // the build at 100 and leaves `without_authors` at 90
        let rebased = Btm::build(3, Some(2), &[AuthorId(2), AuthorId(0)], || {
            events.iter().copied()
        });
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

    /// Run [`order`] over `pages`, each page's `(ts, author)` comments in
    /// arrival order, laid end to end in the narrow and in the wide layout:
    /// both must end with every row sorted and agree on how many they sorted.
    fn sorted_rows(pages: &[&[(Timestamp, u32)]]) -> u64 {
        let mut off = vec![0];
        let mut wide = Vec::new();
        for page in pages {
            wide.extend(page.iter().map(|&(ts, a)| (ts, AuthorId(a))));
            off.push(wide.len());
        }
        let mut narrow: Vec<NarrowRow> = wide
            .iter()
            .map(|&(ts, a)| pack_narrow(0, ts, a).unwrap())
            .collect();
        let sorted = order(&off, &mut wide);
        assert_eq!(order(&off, &mut narrow), sorted);
        for (p, page) in pages.iter().enumerate() {
            let mut want: Vec<WideRow> = page.iter().map(|&(ts, a)| (ts, AuthorId(a))).collect();
            want.sort_unstable();
            let row = off[p]..off[p + 1];
            assert_eq!(wide[row.clone()], want);
            let decoded = narrow[row].iter().map(|&r| unpack_narrow(0, r));
            assert!(decoded.eq(want));
        }
        sorted
    }

    #[test]
    fn rows_that_arrive_in_ts_author_order_are_not_sorted() {
        let pages: [&[_]; 4] = [&[(1, 0), (1, 2), (5, 1), (5, 1)], &[], &[(2, 3)], &[(0, 9)]];
        assert_eq!(sorted_rows(&pages), 0);
    }

    #[test]
    fn one_late_comment_sorts_only_its_own_row() {
        let pages: [&[_]; 3] = [
            &[(1, 0), (5, 1)],
            &[(3, 0), (2, 1), (4, 2)],
            &[(6, 1), (7, 0)],
        ];
        assert_eq!(sorted_rows(&pages), 1);
    }

    /// The slot before a row's first comment is the previous row's last: a
    /// later one there says nothing about either row's order.
    #[test]
    fn a_row_starting_below_its_neighbours_end_is_not_sorted() {
        let pages: [&[_]; 3] = [&[(8, 0), (9, 1)], &[(1, 2), (2, 0)], &[(0, 1)]];
        assert_eq!(sorted_rows(&pages), 0);
    }

    #[test]
    fn equal_timestamps_with_authors_descending_are_sorted() {
        let pages: [&[_]; 3] = [
            &[(4, 2), (4, 1)],
            &[(4, 1), (4, 2)],
            &[(3, 5), (4, 7), (4, 6)],
        ];
        assert_eq!(sorted_rows(&pages), 2);
    }

    /// `events` staged in chunks of `capacity` comments.
    fn staged(events: &[Event], capacity: usize) -> StagedRows {
        let mut staged = StagedRows::new(capacity);
        for e in events {
            staged.push(e.page, e.ts, e.author);
        }
        staged
    }

    /// Staged chunks of any size build the rows the two-pass build makes of
    /// the same events, in the same layout, in both layouts.
    #[test]
    fn staged_rows_build_what_the_event_build_does() {
        let month: Vec<Event> = (0..60)
            .map(|i| ev(i % 7, i % 5, 1_577_836_800 - i64::from(i * 37 % 200)))
            .collect();
        for events in [messy(), month, vec![]] {
            let want = Btm::from_events(8, 6, &events);
            for capacity in [1, 2, 3, 7, 1 << 16] {
                let got = Btm::from_staged(8, 6, staged(&events, capacity));
                assert_eq!(got, want, "capacity {capacity}");
                assert_eq!(narrow(&got), narrow(&want), "capacity {capacity}");
            }
        }
    }

    /// A chunk holds a span of exactly `u32::MAX` s — its first comment in
    /// the middle, the earliest below it — and closes before a span one
    /// second wider; both build exactly, narrow and then wide.
    #[test]
    fn a_chunk_closes_before_its_span_passes_u32() {
        let span = i64::from(u32::MAX);
        for (spread, chunks, is_narrow) in [(span, 1, true), (span + 1, 2, false)] {
            let lo = -5_000_000_000;
            let events = [
                ev(0, 0, lo + spread / 2),
                ev(1, 0, lo),
                ev(2, 1, lo + spread),
                ev(0, 1, lo + 1),
            ];
            let staged = staged(&events, 1 << 16);
            assert_eq!(staged.closed.len() + 1, chunks, "spread {spread}");
            let btm = Btm::from_staged(3, 2, staged);
            assert_eq!(narrow(&btm), is_narrow);
            assert_eq!(btm, Btm::from_events(3, 2, &events), "spread {spread}");
        }
    }

    /// Timestamps that jump more than `u32::MAX` s at every comment close a
    /// chunk at every comment, and the chunks after the first stay small.
    #[test]
    fn a_chunk_the_span_closes_is_followed_by_a_small_one() {
        let events: Vec<Event> = (0..100)
            .map(|i| ev(i % 3, i % 4, if i % 2 == 0 { 0 } else { 1 << 40 }))
            .collect();
        let staged = staged(&events, 1 << 16);
        assert_eq!(staged.closed.len(), 99);
        let first = 12 << 16;
        assert!(
            staged.bytes() <= first + 99 * 2 * 12,
            "{} bytes",
            staged.bytes()
        );
        assert_eq!(
            Btm::from_staged(3, 4, staged),
            Btm::from_events(3, 4, &events)
        );
    }

    /// The blocks of any rank count tile the rows: every comment once, page
    /// by page in row order, no page empty or twice in one block, each block
    /// its `block_range`'s length — for built narrow and wide rows, and for
    /// narrow rows borrowed from a snapshot.
    #[test]
    fn blocks_tile_the_rows_at_any_rank_count() {
        use coordination_store::{Snapshot, SnapshotWriter};
        let month: Vec<Event> = (0..997u32)
            .map(|i| ev(i % 37, i % 11 + i % 2 * 3, i64::from(i / 3)))
            .collect();
        let names: Vec<String> = (0..37).map(|i| format!("n{i}")).collect();
        let mut w = SnapshotWriter::new();
        w.authors(names.iter().map(String::as_str)).unwrap();
        w.pages(names[..15].iter().map(String::as_str)).unwrap();
        let stored: Vec<_> = month.iter().map(|e| (e.author.0, e.page.0, e.ts)).collect();
        w.events(&stored).unwrap();
        let snap = Snapshot::from_bytes(w.to_bytes().unwrap()).unwrap();
        let mapped = crate::snapshot::btm_from_snapshot(&snap, &[]);
        let (rows, built) = (&mapped.rows.comments, Btm::from_events(37, 15, &month));
        assert!(matches!(
            rows,
            Comments::Narrow {
                rows: NarrowRows::Mapped(_),
                ..
            }
        ));
        assert!(narrow(&built) && mapped == built);
        let wide = Btm::from_events(8, 6, &messy());
        let events = |pages: &mut dyn Iterator<Item = (PageId, PageRow<'_>)>| -> Vec<Event> {
            let mut last = None;
            let mut out = Vec::new();
            for (p, row) in pages {
                assert!(last < Some(p), "page {p:?} after {last:?}");
                last = Some(p);
                let before = out.len();
                out.extend(row.iter().map(|(ts, a)| Event::new(a, p, ts)));
                assert!(out.len() > before, "empty row of page {p:?}");
            }
            out
        };
        for btm in [&built, &wide, &mapped, &Btm::from_events(3, 3, &[])] {
            let all = events(&mut btm.pages());
            for nranks in [1, 2, 3, 7, 1000] {
                let blocks: Vec<Vec<Event>> = (0..nranks)
                    .map(|r| events(&mut btm.block(r, nranks)))
                    .collect();
                for (r, block) in blocks.iter().enumerate() {
                    assert_eq!(block.len(), ygm::block_range(r, all.len(), nranks).len());
                }
                assert_eq!(blocks.concat(), all, "{nranks} ranks");
            }
        }
    }

    /// A second pass with one more comment on the last page runs its row past
    /// the end of the flat array, and says why.
    #[test]
    #[should_panic(expected = "different events on its second pass")]
    fn a_second_pass_that_overfills_the_last_row_is_caught() {
        let calls = std::cell::Cell::new(0);
        Btm::build(1, Some(1), &[], || {
            calls.set(calls.get() + 1);
            [ev(0, 0, 5), ev(0, 0, 5)].into_iter().take(calls.get())
        });
    }

    /// A source whose second pass moves a timestamp out of the span the
    /// first pass saw cannot be packed, and says why.
    #[test]
    #[should_panic(expected = "different events on its second pass")]
    fn a_second_pass_outside_the_first_pass_span_is_caught() {
        let calls = std::cell::Cell::new(0);
        Btm::build(1, Some(1), &[], || {
            calls.set(calls.get() + 1);
            let ts = if calls.get() == 1 { 5 } else { 4 };
            [ev(0, 0, 5), ev(0, 0, ts)].into_iter()
        });
    }
}
