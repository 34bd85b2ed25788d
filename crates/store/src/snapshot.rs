//! The snapshot container: magic, version, checksummed section directory,
//! and the columnar sections themselves.
//!
//! ## File layout (version 6)
//!
//! ```text
//! [0..8)    magic  b"COORSNAP"
//! [8..12)   schema version, u32 LE      — readers refuse every other version
//! [12..16)  section count, u32 LE
//! then      count × 28-byte directory entries:
//!             kind u32 LE · offset u64 LE · len u64 LE · checksum u64 LE
//! then      section bytes at their recorded offsets
//! ```
//!
//! Sections (kinds 1–3 and 7; any other kind is an error). They may not
//! overlap the directory or each other, and together they cover the rest of
//! the file.
//!
//! * `META` — n_authors `u32`, n_pages `u32`, n_events `u64`, min/max
//!   timestamp `i64`, then the projection window: a presence byte, 0 or 1,
//!   and after a 1 the window's `d1` and `d2` (`i64`, `0 ≤ d1 < d2`).
//! * `AUTHOR_NAMES` / `PAGE_NAMES` — interner string tables: count `u32`,
//!   byte length `u64`, the names in strictly increasing byte order as a
//!   fixed-width `u32` end-offset table and their concatenated UTF-8 bytes,
//!   then one `u32` rank per dense id (id `i`'s name is sorted entry `rank[i]`).
//!   Sorted names prove uniqueness neighbour by neighbour; fixed-width ends
//!   and ranks make `name(id)` three loads.
//! * `ROWS` — the BTM's page side exactly as `PageRows` holds it, so readers
//!   borrow it: a 32-byte header (layout `u32`, pad `u32`, `t0`, n_pages,
//!   n_events), `pad` zero bytes up to an 8-aligned file offset, `n_pages +
//!   1` `u64` row offsets, then the rows end to end, each in `(ts, author)`
//!   order — narrow (layout 1): one `(ts − t0) << 32 | author` word per
//!   comment; wide (layout 2, `t0` 0): `ts`, then the author.
//!
//! Every integer in the file is a fixed-width little-endian field.
//!
//! [`Snapshot::open`] maps the file and validates *everything* up front —
//! magic, version, directory bounds, per-section checksums, and a full
//! structural check (id ranges, row order, offsets, timestamp arithmetic,
//! the row layout, `META` agreement and its window, exact byte consumption).
//! After open, every accessor and iterator is infallible; corrupt or
//! truncated input never gets past open, and never panics.

use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

use crate::err::StoreError;
use crate::mmap::{self, Bytes, Words};

/// First eight bytes of every snapshot.
pub const MAGIC: [u8; 8] = *b"COORSNAP";

/// The single schema version this build reads and writes. Bump on any
/// layout change; readers must refuse versions they do not speak.
pub const VERSION: u32 = 6;

mod kind {
    pub(crate) const META: u32 = 1;
    pub(crate) const AUTHOR_NAMES: u32 = 2;
    pub(crate) const PAGE_NAMES: u32 = 3;
    // 4 was version 2's varint `EVENTS`, 5 a version 1 section and 6 the
    // compressed `CI_GRAPH` up to version 4; none is reused.
    pub(crate) const ROWS: u32 = 7;

    pub(crate) const ALL: [u32; 4] = [META, AUTHOR_NAMES, PAGE_NAMES, ROWS];

    pub(crate) fn name(k: u32) -> &'static str {
        match k {
            META => "META",
            AUTHOR_NAMES => "AUTHOR_NAMES",
            PAGE_NAMES => "PAGE_NAMES",
            ROWS => "ROWS",
            _ => "UNKNOWN",
        }
    }
}

/// `ROWS` layout tags: one word per comment, or two.
const NARROW: u32 = 1;
const WIDE: u32 = 2;
/// Bytes of the `ROWS` header, before its padding.
const ROWS_HEADER: usize = 32;
/// Bytes of `META` up to and including its window presence byte.
const META_HEAD: usize = 4 + 4 + 8 + 8 + 8 + 1;
/// Bytes of a name table's header: count `u32`, byte length `u64`.
const NAMES_HEADER: usize = 4 + 8;

/// The little-endian `u64` at `bytes[at..at + 8]`.
#[inline]
fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Bytes the checksum reads per step: one word into each of its four lanes.
const BLOCK: usize = 32;

#[inline]
fn fold(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(K)
}

/// One block's four little-endian words, word `j` into lane `j`.
#[inline]
fn absorb(lanes: &mut [u64; 4], block: &[u8]) {
    let word =
        |j: usize| u64::from_le_bytes(block[8 * j..8 * j + 8].try_into().expect("8-byte word"));
    let [a, b, c, d] = *lanes;
    *lanes = [
        fold(a, word(0)),
        fold(b, word(1)),
        fold(c, word(2)),
        fold(d, word(3)),
    ];
}

/// The running form of [`checksum`], for bytes that arrive in pieces (the
/// spill segments): any split of the same bytes gives the same sum.
pub(crate) struct Checksum {
    lanes: [u64; 4],
    /// The bytes of a block not yet whole.
    pending: [u8; BLOCK],
    filled: usize,
    len: u64,
}

impl Checksum {
    /// The sum of no bytes so far.
    pub(crate) fn new() -> Self {
        Checksum {
            lanes: [0, 1, 2, 3],
            pending: [0; BLOCK],
            filled: 0,
            len: 0,
        }
    }

    /// Fold in the next bytes.
    // Always inlined, so that a one-shot `checksum` keeps the lanes in
    // registers. Out of line they load from and store back to `self`, and
    // the compiler then packs the four chains into two-lane vectors whose
    // 64-bit multiplies take three 32-bit ones each: half the speed.
    #[inline(always)]
    pub(crate) fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.filled > 0 {
            let take = (BLOCK - self.filled).min(bytes.len());
            self.pending[self.filled..self.filled + take].copy_from_slice(&bytes[..take]);
            self.filled += take;
            bytes = &bytes[take..];
            if self.filled < BLOCK {
                return;
            }
            absorb(&mut self.lanes, &self.pending);
            self.filled = 0;
        }
        let mut lanes = self.lanes;
        let mut blocks = bytes.chunks_exact(BLOCK);
        for block in &mut blocks {
            absorb(&mut lanes, block);
        }
        self.lanes = lanes;
        let rest = blocks.remainder();
        self.pending[..rest.len()].copy_from_slice(rest);
        self.filled = rest.len();
    }

    /// The sum of every byte folded in so far.
    pub(crate) fn finish(&self) -> u64 {
        let mut lanes = self.lanes;
        if self.filled > 0 {
            let mut block = [0u8; BLOCK];
            block[..self.filled].copy_from_slice(&self.pending[..self.filled]);
            absorb(&mut lanes, &block);
        }
        let h = lanes
            .iter()
            .fold(fold(0, self.len), |h, &lane| fold(h, lane));
        h ^ (h >> 32)
    }
}

/// The per-section checksum. Word `i` of the bytes (little-endian, the tail
/// zero-padded) goes into lane `i % 4` by xor and a multiplication by an odd
/// constant, so four independent chains keep the multiplier busy; the lanes
/// are then folded the same way into the length. Every step is a bijection
/// of the value it updates, so corrupting any single word always changes the
/// sum; structural validation catches what a colliding multi-word change
/// slips by.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut sum = Checksum::new();
    sum.update(bytes);
    sum.finish()
}

/// Corpus-level facts recorded in the `META` section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Dense author-id vocabulary size.
    pub n_authors: u32,
    /// Dense page-id vocabulary size.
    pub n_pages: u32,
    /// Comments in the `ROWS` section.
    pub n_events: u64,
    /// Smallest timestamp (0 when empty).
    pub min_ts: i64,
    /// Largest timestamp (0 when empty).
    pub max_ts: i64,
    /// The projection window `(d1, d2)` in seconds, `0 ≤ d1 < d2`, that the
    /// writer recorded for readers that re-project the rows; `None` if it
    /// recorded none.
    pub window: Option<(i64, i64)>,
}

/// A window that breaks `0 ≤ d1 < d2` is [`StoreError::Corrupt`].
fn check_window((d1, d2): (i64, i64)) -> Result<(), StoreError> {
    if 0 <= d1 && d1 < d2 {
        return Ok(());
    }
    let what = format!("window ({d1}, {d2}) breaks 0 <= d1 < d2");
    Err(StoreError::corrupt(what))
}

impl SnapshotMeta {
    /// The `META` section's bytes.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(META_HEAD + 16);
        out.extend_from_slice(&self.n_authors.to_le_bytes());
        out.extend_from_slice(&self.n_pages.to_le_bytes());
        out.extend_from_slice(&self.n_events.to_le_bytes());
        out.extend_from_slice(&self.min_ts.to_le_bytes());
        out.extend_from_slice(&self.max_ts.to_le_bytes());
        out.push(u8::from(self.window.is_some()));
        if let Some((d1, d2)) = self.window {
            out.extend_from_slice(&d1.to_le_bytes());
            out.extend_from_slice(&d2.to_le_bytes());
        }
        out
    }

    /// Read a `META` section, all of it: a presence byte other than 0 or 1,
    /// a window that is not one, or a byte after it is corrupt.
    fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        let short = |need: usize| StoreError::Truncated {
            what: "META",
            need: need as u64,
            have: bytes.len() as u64,
        };
        let head = bytes.get(..META_HEAD).ok_or_else(|| short(META_HEAD))?;
        let mut meta = SnapshotMeta {
            n_authors: u32_at(head, 0),
            n_pages: u32_at(head, 1),
            n_events: u64_at(head, 8),
            min_ts: u64_at(head, 16) as i64,
            max_ts: u64_at(head, 24) as i64,
            window: None,
        };
        let len = match head[META_HEAD - 1] {
            0 => META_HEAD,
            1 => {
                let end = META_HEAD + 16;
                let window = bytes.get(META_HEAD..end).ok_or_else(|| short(end))?;
                let window = (u64_at(window, 0) as i64, u64_at(window, 8) as i64);
                check_window(window)?;
                meta.window = Some(window);
                end
            }
            b => {
                let what = format!("META window presence byte {b}");
                return Err(StoreError::corrupt(what));
            }
        };
        if bytes.len() != len {
            return Err(StoreError::corrupt("META has trailing bytes"));
        }
        Ok(meta)
    }
}

/// The narrow layout's base if timestamps spanning `lo..=hi` all fit a `u32`
/// offset from it (`lo > hi`: there were no timestamps at all): the one rule
/// `PageRows::build` picks its layout by and a file's `ROWS` must follow.
pub fn narrow_base(lo: i64, hi: i64) -> Option<i64> {
    if lo > hi {
        return Some(0);
    }
    let span = hi.checked_sub(lo)?;
    u32::try_from(span).is_ok().then_some(lo)
}

/// The comments of a `ROWS` section as words: narrow with a base `t0`, one
/// `(ts − t0) << 32 | author` each, or wide without one, `ts` then the
/// author.
#[derive(Clone, Copy)]
struct Rows<'a> {
    t0: Option<i64>,
    words: &'a [u64],
}

impl Rows<'_> {
    fn len(self) -> usize {
        self.words.len() / if self.t0.is_some() { 1 } else { 2 }
    }

    /// Comment `i` as `(ts, author)`.
    #[inline]
    fn comment(self, i: usize) -> (i64, u32) {
        let w = self.words;
        match self.t0 {
            // `t0 + offset` was checked by `check_rows`
            Some(t0) => (t0 + (w[i] >> 32) as i64, w[i] as u32),
            None => (w[2 * i] as i64, w[2 * i + 1] as u32),
        }
    }
}

/// What `ROWS` must hold, proven by the writer and by open alike in one
/// sequential pass: offsets from 0 to the comment count that never decrease,
/// every row in `(timestamp, author)` order with its authors below
/// `n_authors` (and a wide row's padding zero), no `t0 + offset` outside
/// `i64`, and the layout and base the timestamps' span picks — so every
/// dataset has exactly one encoding. Returns the least and greatest
/// timestamp, 0 and 0 without comments.
fn check_rows(meta: (u32, u32), off: &[u64], rows: Rows<'_>) -> Result<(i64, i64), StoreError> {
    let ((n_authors, n_pages), n) = (meta, rows.len() as u64);
    let whole = rows.t0.is_some() || rows.words.len().is_multiple_of(2);
    if off.len() != n_pages as usize + 1 || off[0] != 0 || off[n_pages as usize] != n || !whole {
        return Err(StoreError::corrupt(format!(
            "{} row offsets do not run from 0 to the {n} comments stored on {n_pages} pages",
            off.len()
        )));
    }
    let (mut lo, mut hi) = (i64::MAX, i64::MIN);
    // an empty row's offsets are checked by its neighbours'
    for (p, w) in off.windows(2).enumerate().filter(|(_, w)| w[0] != w[1]) {
        if w[0] > w[1] || w[1] > n {
            return Err(StoreError::corrupt(format!(
                "row offsets decrease or overrun at page {p}"
            )));
        }
        let (a, b) = (w[0] as usize, w[1] as usize);
        let bad = |what: &str| StoreError::corrupt(format!("page {p}: {what}"));
        let (first, last) = match rows.t0 {
            Some(t0) => {
                let row = &rows.words[a..b];
                if !row.windows(2).all(|x| x[0] <= x[1]) {
                    return Err(bad("row out of (timestamp, author) order"));
                }
                if !row.iter().all(|&x| (x as u32) < n_authors) {
                    return Err(bad("author id out of range"));
                }
                let ts = |x: u64| {
                    t0.checked_add((x >> 32) as i64)
                        .ok_or_else(|| bad("timestamp leaves i64"))
                };
                (ts(row[0])?, ts(row[row.len() - 1])?)
            }
            None => {
                let row = &rows.words[2 * a..2 * b];
                if !row.chunks_exact(2).all(|c| c[1] < u64::from(n_authors)) {
                    return Err(bad("author id out of range or padding not zero"));
                }
                let key = |c: &[u64]| (c[0] as i64, c[1]);
                let mut pairs = row.chunks_exact(2).zip(row.chunks_exact(2).skip(1));
                if !pairs.all(|(x, y)| key(x) <= key(y)) {
                    return Err(bad("row out of (timestamp, author) order"));
                }
                (row[0] as i64, row[row.len() - 2] as i64)
            }
        };
        (lo, hi) = (lo.min(first), hi.max(last));
    }
    let (lo, hi) = if n == 0 { (0, 0) } else { (lo, hi) };
    if rows.t0 != narrow_base(lo, hi) {
        let what = format!("timestamps {lo}..={hi} stored in another layout or base");
        return Err(StoreError::corrupt(what));
    }
    Ok((lo, hi))
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Assembles a snapshot: set the name tables, then the page rows (which also
/// derives `META`), optionally a projection window, then
/// [`SnapshotWriter::write_to`] or [`SnapshotWriter::to_bytes`].
#[derive(Default)]
pub struct SnapshotWriter {
    /// `(name count, section)` of each name table.
    authors: Option<(u32, Vec<u8>)>,
    pages: Option<(u32, Vec<u8>)>,
    /// `META` but for its window.
    meta: Option<SnapshotMeta>,
    window: Option<(i64, i64)>,
    /// Header (its pad still 0), offsets and rows.
    rows: Option<Vec<u8>>,
}

/// The first eight bytes of the name `bytes[lo..hi]` as a big-endian word,
/// zero past its end. Names whose words differ compare as the words do, so
/// sorting and the open-time order check read one integer per name and
/// compare bytes only on a tie.
#[inline]
fn prefix_at(bytes: &[u8], lo: usize, hi: usize) -> u64 {
    let len = hi - lo;
    match bytes.get(lo..lo + 8) {
        Some(word) => {
            let word = u64::from_be_bytes(word.try_into().expect("8 bytes"));
            // a name shorter than 8 bytes keeps only its own
            word & !u64::MAX.checked_shr(8 * len.min(8) as u32).unwrap_or(0)
        }
        None => {
            let mut word = [0u8; 8];
            word[..len].copy_from_slice(&bytes[lo..hi]);
            u64::from_be_bytes(word)
        }
    }
}

/// A name table in dense-id order as its section: the names sorted once —
/// on their first eight bytes as a big-endian integer, which settles most
/// comparisons in one instruction, then on all their bytes — and each id's
/// rank in that order. Two equal names are a [`StoreError::Corrupt`].
fn encode_names<'a>(
    table: &str,
    names: impl Iterator<Item = &'a str>,
) -> Result<(u32, Vec<u8>), StoreError> {
    let names: Vec<&str> = names.collect();
    let count = u32::try_from(names.len())
        .map_err(|_| StoreError::corrupt(format!("{table}: too many names")))?;
    let prefix = |name: &str| prefix_at(name.as_bytes(), 0, name.len());
    let mut order: Vec<(u64, u32)> = (0..count)
        .map(|id| (prefix(names[id as usize]), id))
        .collect();
    order.sort_unstable_by(|x, y| {
        x.0.cmp(&y.0)
            .then_with(|| names[x.1 as usize].cmp(names[y.1 as usize]))
    });
    let mut ends: Vec<u8> = Vec::with_capacity(4 * names.len());
    let mut bytes: Vec<u8> = Vec::new();
    let mut ranks = vec![0u32; names.len()];
    for (rank, &(_, id)) in order.iter().enumerate() {
        let name = names[id as usize];
        if rank > 0 && names[order[rank - 1].1 as usize] == name {
            return Err(StoreError::corrupt(format!(
                "{table}: duplicate name {name:?}"
            )));
        }
        bytes.extend_from_slice(name.as_bytes());
        let end = u32::try_from(bytes.len())
            .map_err(|_| StoreError::corrupt(format!("{table}: name bytes pass u32 offsets")))?;
        ends.extend_from_slice(&end.to_le_bytes());
        ranks[id as usize] = rank as u32;
    }
    let mut out = Vec::with_capacity(NAMES_HEADER + 2 * ends.len() + bytes.len());
    out.extend_from_slice(&count.to_le_bytes());
    out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
    out.extend_from_slice(&ends);
    out.extend_from_slice(&bytes);
    ranks
        .iter()
        .for_each(|r| out.extend_from_slice(&r.to_le_bytes()));
    Ok((count, out))
}

impl SnapshotWriter {
    /// Fresh writer with no sections.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the author name table, in dense-id order (id `i` = `i`-th
    /// name). Must be called before [`SnapshotWriter::page_rows`]. Two
    /// equal names are a [`StoreError::Corrupt`] and record nothing: ids
    /// could not survive a re-interning.
    pub fn authors<'a>(
        &mut self,
        names: impl Iterator<Item = &'a str>,
    ) -> Result<&mut Self, StoreError> {
        self.authors = Some(encode_names(kind::name(kind::AUTHOR_NAMES), names)?);
        Ok(self)
    }

    /// Record the page name table, in dense-id order; refused as
    /// [`SnapshotWriter::authors`] is.
    pub fn pages<'a>(
        &mut self,
        names: impl Iterator<Item = &'a str>,
    ) -> Result<&mut Self, StoreError> {
        self.pages = Some(encode_names(kind::name(kind::PAGE_NAMES), names)?);
        Ok(self)
    }

    /// Record the `ROWS` section, and `META` from it, out of page rows laid
    /// out as `PageRows` holds them: page `p`'s comments are
    /// `off[p]..off[p + 1]` of `words`, which are narrow if `t0` is given —
    /// one `(ts − t0) << 32 | author` word each — and wide if not: `ts as
    /// u64`, then the author. Rows that would not pass open's checks (order,
    /// author ids the name table covers, offsets, the layout and base the
    /// timestamps' span picks) are a writer-side [`StoreError::Corrupt`].
    pub fn page_rows(
        &mut self,
        off: &[u64],
        t0: Option<i64>,
        words: &[u64],
    ) -> Result<&mut Self, StoreError> {
        let (Some((n_authors, _)), Some((n_pages, _))) = (&self.authors, &self.pages) else {
            return Err(StoreError::corrupt(
                "page_rows() requires authors() and pages() first",
            ));
        };
        let (n_authors, n_pages) = (*n_authors, *n_pages);
        let rows = Rows { t0, words };
        let (min_ts, max_ts) = check_rows((n_authors, n_pages), off, rows)?;
        let n_events = rows.len() as u64;
        let layout = u64::from(if t0.is_some() { NARROW } else { WIDE });
        let head = [layout, t0.unwrap_or(0) as u64, u64::from(n_pages), n_events];
        let mut section = Vec::with_capacity(8 * (head.len() + off.len() + words.len()));
        for w in head.iter().chain(off).chain(words) {
            section.extend_from_slice(&w.to_le_bytes());
        }
        self.rows = Some(section);
        self.meta = Some(SnapshotMeta {
            n_authors,
            n_pages,
            n_events,
            min_ts,
            max_ts,
            window: None,
        });
        Ok(self)
    }

    /// [`SnapshotWriter::page_rows`] for `(author, page, ts)` events in any
    /// order: sorts a copy into page rows and packs them in the layout their
    /// span picks, so it suits small inputs. A page id the name table does
    /// not cover is a writer-side [`StoreError::Corrupt`].
    pub fn events(&mut self, events: &[(u32, u32, i64)]) -> Result<&mut Self, StoreError> {
        let n_pages = self.pages.as_ref().map_or(0, |(n, _)| *n);
        let mut sorted: Vec<(u32, i64, u32)> =
            events.iter().map(|&(a, p, ts)| (p, ts, a)).collect();
        sorted.sort_unstable();
        let mut off = vec![0u64; n_pages as usize + 1];
        for &(p, ..) in &sorted {
            *off.get_mut(p as usize + 1)
                .ok_or_else(|| StoreError::corrupt(format!("page id {p} >= {n_pages}")))? += 1;
        }
        (1..off.len()).for_each(|p| off[p] += off[p - 1]);
        let lo = sorted.iter().map(|e| e.1).min().unwrap_or(0);
        let hi = sorted.iter().map(|e| e.1).max().unwrap_or(0);
        let t0 = narrow_base(lo, hi);
        let words: Vec<u64> = match t0 {
            Some(t0) => sorted
                .iter()
                .map(|&(_, ts, a)| ((ts - t0) as u64) << 32 | u64::from(a))
                .collect(),
            None => sorted
                .iter()
                .flat_map(|&(_, ts, a)| [ts as u64, u64::from(a)])
                .collect(),
        };
        self.page_rows(&off, t0, &words)
    }

    /// Record the projection window `(d1, d2)` in `META`, for readers that
    /// re-project the rows. A window that breaks `0 ≤ d1 < d2` is a
    /// writer-side [`StoreError::Corrupt`], as open would refuse it.
    pub fn window(&mut self, d1: i64, d2: i64) -> Result<&mut Self, StoreError> {
        check_window((d1, d2))?;
        self.window = Some((d1, d2));
        Ok(self)
    }

    /// Assemble the full snapshot file image.
    pub fn to_bytes(&self) -> Result<Vec<u8>, StoreError> {
        let (Some(meta), Some(rows)) = (&self.meta, &self.rows) else {
            return Err(StoreError::corrupt(
                "snapshot writer: page_rows() never called",
            ));
        };
        let (_, authors) = self.authors.as_ref().expect("page_rows() needed authors");
        let (_, pages) = self.pages.as_ref().expect("page_rows() needed pages");
        let window = self.window;
        let meta = SnapshotMeta { window, ..*meta }.encode();

        let sections: [(u32, &[u8]); 4] = [
            (kind::META, &meta),
            (kind::AUTHOR_NAMES, authors),
            (kind::PAGE_NAMES, pages),
            (kind::ROWS, rows),
        ];

        let dir_end = 16 + sections.len() * 28;
        let body: usize = sections.iter().map(|(_, s)| s.len()).sum();
        let mut out = Vec::with_capacity(dir_end + ROWS_HEADER + 7 + body);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
        out.resize(dir_end, 0);
        for (i, (k, s)) in sections.iter().enumerate() {
            let at = out.len();
            if *k == kind::ROWS {
                // pad the header so that the offsets start 8-aligned
                let pad = (8 - (at + ROWS_HEADER) % 8) % 8;
                out.extend_from_slice(&s[..ROWS_HEADER]);
                out[at + 4..at + 8].copy_from_slice(&(pad as u32).to_le_bytes());
                out.resize(out.len() + pad, 0);
                out.extend_from_slice(&s[ROWS_HEADER..]);
            } else {
                out.extend_from_slice(s);
            }
            let entry = 16 + i * 28;
            let len = (out.len() - at) as u64;
            let sum = checksum(&out[at..]);
            out[entry..entry + 4].copy_from_slice(&k.to_le_bytes());
            out[entry + 4..entry + 12].copy_from_slice(&(at as u64).to_le_bytes());
            out[entry + 12..entry + 20].copy_from_slice(&len.to_le_bytes());
            out[entry + 20..entry + 28].copy_from_slice(&sum.to_le_bytes());
        }
        Ok(out)
    }

    /// Write the snapshot to `path` (via a sibling temp file + rename, so a
    /// crashed writer never leaves a half-written snapshot at the target).
    pub fn write_to(&self, path: &Path) -> Result<(), StoreError> {
        let bytes = self.to_bytes()?;
        let tmp = path.with_extension("snap.tmp");
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
struct Section {
    kind: u32,
    range: (usize, usize),
}

fn find_section<'d>(sections: &[Section], data: &'d [u8], k: u32) -> Option<&'d [u8]> {
    let s = sections.iter().find(|s| s.kind == k)?;
    Some(&data[s.range.0..s.range.1])
}

/// Where a validated `ROWS` section's offsets and rows lie in the file, and
/// the narrow base (`None`: wide rows).
struct RowsAt {
    t0: Option<i64>,
    off: Range<usize>,
    rows: Range<usize>,
}

impl RowsAt {
    /// Check the `ROWS` section at `data[at.0..at.1]` against `meta`.
    fn parse(data: &[u8], at: (usize, usize), meta: &SnapshotMeta) -> Result<Self, StoreError> {
        let section = &data[at.0..at.1];
        let have = section.len() as u64;
        let head = section.get(..ROWS_HEADER).ok_or(StoreError::Truncated {
            what: "ROWS header",
            need: ROWS_HEADER as u64,
            have,
        })?;
        let word =
            |i: usize| u64::from_le_bytes(head[8 * i..8 * i + 8].try_into().expect("8 bytes"));
        let (tag, pad) = (word(0) as u32, word(0) >> 32);
        let t0 = match (tag, word(1) as i64) {
            (NARROW, t0) => Some(t0),
            (WIDE, 0) => None,
            (_, t0) => return Err(StoreError::corrupt(format!("ROWS layout {tag}, base {t0}"))),
        };
        let width = if t0.is_some() { 1 } else { 2 };
        if (word(2), word(3)) != (u64::from(meta.n_pages), meta.n_events) {
            return Err(StoreError::corrupt("ROWS counts disagree with META"));
        }
        let start = at.0 + ROWS_HEADER + pad as usize;
        if pad >= 8 || !start.is_multiple_of(8) {
            return Err(StoreError::corrupt(format!(
                "ROWS row offsets at file offset {start} are not 8-aligned"
            )));
        }
        let need = (meta.n_events.checked_mul(width))
            .and_then(|w| w.checked_add(u64::from(meta.n_pages) + 1))
            .and_then(|w| w.checked_mul(8))
            .and_then(|b| b.checked_add(ROWS_HEADER as u64 + pad))
            .ok_or_else(|| StoreError::corrupt("ROWS size overflows"))?;
        if have < need {
            return Err(StoreError::Truncated {
                what: "ROWS",
                need,
                have,
            });
        }
        if have > need || section[ROWS_HEADER..start - at.0].iter().any(|&b| b != 0) {
            return Err(StoreError::corrupt("ROWS has stray bytes"));
        }
        let off = start..start + 8 * (meta.n_pages as usize + 1);
        let rows = off.end..at.1;
        let view = Rows {
            t0,
            words: mmap::words(&data[rows.clone()])?,
        };
        let extremes = check_rows(
            (meta.n_authors, meta.n_pages),
            mmap::words(&data[off.clone()])?,
            view,
        )?;
        if extremes != (meta.min_ts, meta.max_ts) {
            return Err(StoreError::corrupt("timestamp extremes disagree with META"));
        }
        Ok(RowsAt { t0, off, rows })
    }
}

/// A validated, opened snapshot. Accessors return borrowed views over the
/// mapped (or owned) bytes; nothing is decoded into resident columns.
pub struct Snapshot {
    bytes: Arc<Bytes>,
    meta: SnapshotMeta,
    sections: Vec<Section>,
    rows: RowsAt,
}

impl Snapshot {
    /// Map `path` and validate the entire file (see module docs).
    ///
    /// The mapping stays valid only while the file keeps its length and its
    /// bytes: the caller must see to it that nothing truncates or rewrites
    /// the file in place while the `Snapshot`, or rows borrowed from it,
    /// live (writers replace a snapshot by rename, never in place). A read
    /// past a truncation point is a `SIGBUS` this process cannot turn into an
    /// error, and bytes rewritten after open were never validated.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let _g = obs::span("snapshot.open");
        let bytes = Bytes::map_file(path)?;
        Self::parse(bytes)
    }

    /// Open an in-memory image (tests, round-trips) with the same
    /// validation as [`Snapshot::open`]. The image is copied to an 8-aligned
    /// address first, so any buffer opens as its file would.
    pub fn from_bytes(bytes: impl AsRef<[u8]>) -> Result<Self, StoreError> {
        Self::parse(Bytes::copy_from(bytes.as_ref()))
    }

    fn require(&self, k: u32) -> &[u8] {
        find_section(&self.sections, &self.bytes, k).expect("mandatory section checked at open")
    }

    fn parse(bytes: Bytes) -> Result<Self, StoreError> {
        let _g = obs::span("snapshot.validate");
        let data: &[u8] = &bytes;
        let mut found = [0u8; 8];
        let head = data.len().min(8);
        found[..head].copy_from_slice(&data[..head]);
        if found != MAGIC {
            return Err(StoreError::BadMagic { found });
        }
        if data.len() < 16 {
            return Err(StoreError::Truncated {
                what: "file header",
                need: 16,
                have: data.len() as u64,
            });
        }
        let version = u32::from_le_bytes(data[8..12].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(StoreError::UnsupportedVersion {
                found: version,
                supported: VERSION,
            });
        }
        let n_sections = u32::from_le_bytes(data[12..16].try_into().expect("4 bytes"));
        let dir_end = 16 + u64::from(n_sections) * 28;
        if (data.len() as u64) < dir_end {
            return Err(StoreError::Truncated {
                what: "section directory",
                need: dir_end,
                have: data.len() as u64,
            });
        }

        let mut sections: Vec<Section> = Vec::with_capacity(n_sections as usize);
        let mut covered = dir_end;
        for at in (16..dir_end as usize).step_by(28) {
            let word = |at| u64_at(data, at);
            let k = u32::from_le_bytes(data[at..at + 4].try_into().expect("4 bytes"));
            let (offset, len, sum) = (word(at + 4), word(at + 12), word(at + 20));
            if !kind::ALL.contains(&k) {
                return Err(StoreError::corrupt(format!("unknown section kind {k}")));
            }
            let name = kind::name(k);
            if sections.iter().any(|s| s.kind == k) {
                return Err(StoreError::corrupt(format!("duplicate section {name}")));
            }
            let end = offset
                .checked_add(len)
                .ok_or_else(|| StoreError::corrupt(format!("section {name} range overflows")))?;
            if offset < dir_end {
                return Err(StoreError::corrupt(format!(
                    "section {name} overlaps the directory"
                )));
            }
            if end > data.len() as u64 {
                return Err(StoreError::Truncated {
                    what: name,
                    need: end,
                    have: data.len() as u64,
                });
            }
            let range = (offset as usize, end as usize);
            if let Some(other) = sections
                .iter()
                .find(|s| range.0 < s.range.1 && s.range.0 < range.1)
            {
                return Err(StoreError::corrupt(format!(
                    "sections {} and {name} overlap",
                    kind::name(other.kind)
                )));
            }
            if checksum(&data[range.0..range.1]) != sum {
                return Err(StoreError::ChecksumMismatch { section: name });
            }
            covered += len;
            sections.push(Section { kind: k, range });
        }
        // Disjoint and inside the file, so equal totals mean an exact tiling.
        if covered != data.len() as u64 {
            return Err(StoreError::corrupt(format!(
                "{} bytes belong to no section",
                data.len() as u64 - covered
            )));
        }

        let missing =
            |k: u32| StoreError::corrupt(format!("missing mandatory section {}", kind::name(k)));
        let get = |k: u32| find_section(&sections, data, k).ok_or_else(|| missing(k));

        let meta = SnapshotMeta::decode(get(kind::META)?)?;

        let names = obs::span("snapshot.validate.names");
        let counts = [
            (kind::AUTHOR_NAMES, meta.n_authors),
            (kind::PAGE_NAMES, meta.n_pages),
        ];
        for (k, expect) in counts {
            let view = NamesView::parse(get(k)?)?;
            if view.len() != expect {
                return Err(StoreError::corrupt(format!(
                    "{} holds {} names, META declares {expect}",
                    kind::name(k),
                    view.len()
                )));
            }
            view.validate(kind::name(k))?;
        }
        drop(names);

        let rows = {
            let _g = obs::span("snapshot.validate.rows");
            let at = sections.iter().find(|s| s.kind == kind::ROWS);
            RowsAt::parse(data, at.ok_or_else(|| missing(kind::ROWS))?.range, &meta)?
        };

        Ok(Snapshot {
            bytes: Arc::new(bytes),
            meta,
            sections,
            rows,
        })
    }

    /// Corpus-level facts.
    pub fn meta(&self) -> &SnapshotMeta {
        &self.meta
    }

    /// Whether the backing bytes are an actual file mapping.
    pub fn is_mapped(&self) -> bool {
        self.bytes.is_mapped()
    }

    /// The author name table (dense-id order).
    pub fn author_names(&self) -> NamesView<'_> {
        NamesView::parse(self.require(kind::AUTHOR_NAMES)).expect("validated at open")
    }

    /// The page name table (dense-id order).
    pub fn page_names(&self) -> NamesView<'_> {
        NamesView::parse(self.require(kind::PAGE_NAMES)).expect("validated at open")
    }

    /// The page rows: every page's `(timestamp, author)` comments, read off
    /// the file's words in place.
    pub fn events(&self) -> EventsView<'_> {
        let words =
            |r: &Range<usize>| mmap::words(&self.bytes[r.clone()]).expect("validated at open");
        let (off, t0, words) = (words(&self.rows.off), self.rows.t0, words(&self.rows.rows));
        let rows = Rows { t0, words };
        EventsView { off, rows }
    }

    /// The narrow rows as `(t0, words)` for a `PageRows` to borrow: the words
    /// share this snapshot's bytes and keep them alive. `None` for a file
    /// whose rows are wide.
    pub fn narrow_words(&self) -> Option<(i64, Words)> {
        let t0 = self.rows.t0?;
        let words = Words::new(Arc::clone(&self.bytes), self.rows.rows.clone());
        Some((t0, words.expect("validated at open")))
    }

    /// Let the pages of the stored page offsets and rows leave the process's
    /// resident set, once the caller holds its own copy of them (rows an
    /// exclusion filtered, wide rows decoded). Reading them again through
    /// this snapshot is still correct: the pages are read back from the file.
    pub fn release_rows(&self) {
        self.bytes.release(self.rows.off.clone());
        self.bytes.release(self.rows.rows.clone());
    }

    /// Human-readable summary for `snapshot inspect`.
    pub fn describe(&self) -> String {
        let m = &self.meta;
        let lens = self.events().off.windows(2).map(|w| w[1] - w[0]);
        let (non_empty, longest) = lens.fold((0u32, 0u64), |(n, l), len| {
            (n + u32::from(len > 0), l.max(len))
        });
        let mut out = format!(
            "snapshot v{VERSION} ({} bytes, {})\n  authors: {}\n  pages:   {} ({non_empty} with comments, longest row {longest})\n  events:  {} spanning ts [{}, {}]\n",
            self.bytes.len(),
            if self.is_mapped() { "mmap" } else { "resident" },
            m.n_authors,
            m.n_pages,
            m.n_events,
            m.min_ts,
            m.max_ts,
        );
        for s in &self.sections {
            let (name, len) = (kind::name(s.kind), s.range.1 - s.range.0);
            out.push_str(&format!("  section {name:<13} {len} bytes\n"));
        }
        let per_event = self.require(kind::ROWS).len() as f64 / m.n_events.max(1) as f64;
        let layout = match self.rows.t0 {
            Some(t0) => format!("narrow, 8 B per comment from t0 {t0}"),
            None => "wide, 16 B per comment".to_string(),
        };
        out.push_str(&format!(
            "  rows:    {layout}; ROWS {per_event:.2} B per event\n"
        ));
        if let Some((d1, d2)) = m.window {
            out.push_str(&format!("  window:  ({d1}s, {d2}s)\n"));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Views
// ---------------------------------------------------------------------------

/// Borrowed view over a name-table section: `&str` by dense id, zero-copy.
/// The names lie in byte order; `ranks` maps each dense id to its place.
#[derive(Clone, Copy)]
pub struct NamesView<'a> {
    count: u32,
    ends: &'a [u8],
    bytes: &'a [u8],
    ranks: &'a [u8],
}

/// Little-endian `u32` `i` of `column`.
#[inline]
fn u32_at(column: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(column[4 * i..4 * i + 4].try_into().expect("4-byte slot"))
}

impl<'a> NamesView<'a> {
    fn parse(section: &'a [u8]) -> Result<Self, StoreError> {
        let have = section.len() as u64;
        let head = section.get(..NAMES_HEADER).ok_or(StoreError::Truncated {
            what: "name table header",
            need: NAMES_HEADER as u64,
            have,
        })?;
        let count = u32_at(head, 0);
        let total = u64_at(head, 4);
        // ≤ 2^34 each, so only adding `total` can overflow
        let column = 4 * u64::from(count);
        let need = (NAMES_HEADER as u64 + 2 * column)
            .checked_add(total)
            .ok_or_else(|| StoreError::corrupt("name table size overflows"))?;
        if have < need {
            return Err(StoreError::Truncated {
                what: "name table",
                need,
                have,
            });
        }
        if have != need {
            return Err(StoreError::corrupt("name table has trailing bytes"));
        }
        let (ends, rest) = section[NAMES_HEADER..].split_at(column as usize);
        let (bytes, ranks) = rest.split_at(total as usize);
        Ok(NamesView {
            count,
            ends,
            bytes,
            ranks,
        })
    }

    /// Where sorted name `s` starts, and name `s - 1` ends.
    fn bound(&self, s: u32) -> usize {
        if s == 0 {
            return 0;
        }
        u32_at(self.ends, s as usize - 1) as usize
    }

    /// Sorted name `s`'s bytes.
    fn sorted(&self, s: u32) -> &'a [u8] {
        &self.bytes[self.bound(s)..self.bound(s + 1)]
    }

    /// One pass, no hashing, linear for any input: the bytes are UTF-8 as a
    /// whole and the ends ascend inside them on character boundaries (so
    /// every name is UTF-8 on its own), each name is greater than the one
    /// before it (so no two are equal: the table is a bijection, which
    /// re-interning it downstream needs to reproduce the dense ids), and the
    /// ranks are a permutation.
    fn validate(&self, table: &str) -> Result<(), StoreError> {
        let bad = |what: String| StoreError::corrupt(format!("{table}: {what}"));
        let text = std::str::from_utf8(self.bytes)
            .map_err(|e| bad(format!("name byte {} is not valid UTF-8", e.valid_up_to())))?;
        let bytes = text.as_bytes();
        // the previous name's first eight bytes and where it starts
        let (mut lo, mut prev) = (0usize, None);
        for (s, end) in self.ends.chunks_exact(4).enumerate() {
            let hi = u32::from_le_bytes(end.try_into().expect("4-byte slot")) as usize;
            if hi < lo || !text.is_char_boundary(hi) {
                return Err(bad(format!(
                    "name {s} ends out of order, out of bounds or inside a character"
                )));
            }
            let word = prefix_at(bytes, lo, hi);
            if let Some((before, start)) = prev {
                if word < before || word == before && bytes[lo..hi] <= bytes[start..lo] {
                    return Err(bad(format!(
                        "names {} and {s} are not in increasing byte order",
                        s - 1
                    )));
                }
            }
            (lo, prev) = (hi, Some((word, lo)));
        }
        if lo != self.bytes.len() {
            return Err(bad("name bytes extend past the last offset".to_string()));
        }
        let mut seen = vec![0u64; (self.count as usize).div_ceil(64)];
        for id in 0..self.count as usize {
            let rank = u32_at(self.ranks, id);
            if rank >= self.count {
                return Err(bad(format!("id {id} has rank {rank} of {}", self.count)));
            }
            let (word, bit) = (rank as usize / 64, 1u64 << (rank % 64));
            if seen[word] & bit != 0 {
                return Err(bad(format!("rank {rank} is given twice")));
            }
            seen[word] |= bit;
        }
        Ok(())
    }

    /// Number of names.
    pub fn len(&self) -> u32 {
        self.count
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The name for dense id `i`. Panics on out-of-range ids (ids come from
    /// the same validated snapshot, so a violation is a caller bug).
    pub fn get(&self, i: u32) -> &'a str {
        assert!(i < self.count, "name id {i} out of range ({})", self.count);
        let name = self.sorted(u32_at(self.ranks, i as usize));
        std::str::from_utf8(name).expect("validated at open")
    }

    /// All names in dense-id order.
    pub fn iter(&self) -> impl Iterator<Item = &'a str> + '_ {
        (0..self.count).map(move |i| self.get(i))
    }

    /// `name`'s dense id: a binary search of the sorted names for its rank,
    /// then one scan of the rank column for the id holding it — nothing is
    /// decoded or hashed, so resolving a handful of exclusion names costs a
    /// pass over 4 B per name.
    pub fn find(&self, name: &str) -> Option<u32> {
        use std::cmp::Ordering;
        let (mut lo, mut hi) = (0, self.count);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.sorted(mid).cmp(name.as_bytes()) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => {
                    let id = self
                        .ranks
                        .chunks_exact(4)
                        .position(|r| *r == mid.to_le_bytes());
                    return id.map(|id| id as u32);
                }
            }
        }
        None
    }
}

/// Borrowed view over the `ROWS` page rows: the file's words, read in place.
#[derive(Clone, Copy)]
pub struct EventsView<'a> {
    off: &'a [u64],
    rows: Rows<'a>,
}

impl<'a> EventsView<'a> {
    /// Number of events.
    pub(crate) fn len(&self) -> u64 {
        self.rows.len() as u64
    }

    /// The `n_pages + 1` row offsets: page `p`'s comments are
    /// `off[p]..off[p + 1]` of [`EventsView::iter`].
    pub fn offsets(&self) -> &'a [u64] {
        self.off
    }

    /// Every comment as `(author, page, ts)`, page by page and in
    /// `(ts, author)` order within a page: page boundaries are stepped over
    /// as the offsets say.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, i64)> + 'a {
        let (off, rows) = (self.off, self.rows);
        let mut page = 0;
        (0..self.len()).map(move |i| {
            while off[page + 1] <= i {
                page += 1;
            }
            let (ts, a) = rows.comment(i as usize);
            (a, page as u32, ts)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.authors(["alice", "bob", "carol"].into_iter()).unwrap();
        w.pages(["t3_a", "t3_b"].into_iter()).unwrap();
        w.events(&[(0, 0, 100), (1, 0, 100), (2, 1, 101), (0, 1, 105)])
            .unwrap();
        w.window(0, 600).unwrap();
        w.to_bytes().unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let snap = Snapshot::from_bytes(sample()).unwrap();
        let m = snap.meta();
        assert_eq!((m.n_authors, m.n_pages, m.n_events), (3, 2, 4));
        assert_eq!((m.min_ts, m.max_ts), (100, 105));
        assert_eq!(snap.author_names().get(1), "bob");
        assert_eq!(
            snap.page_names().iter().collect::<Vec<_>>(),
            vec!["t3_a", "t3_b"]
        );
        assert_eq!(snap.author_names().find("carol"), Some(2));
        assert_eq!(snap.author_names().find("mallory"), None);
        // same length as a stored name, and a prefix of one
        assert_eq!(snap.author_names().find("bot"), None);
        assert_eq!(snap.author_names().find("ali"), None);
        let evs: Vec<_> = snap.events().iter().collect();
        assert_eq!(
            evs,
            vec![(0, 0, 100), (1, 0, 100), (2, 1, 101), (0, 1, 105)]
        );
        assert_eq!(snap.events().offsets(), [0, 2, 4]);
        // the stored words are `PageRows`' own: (ts − t0) << 32 | author
        let (t0, words) = snap.narrow_words().unwrap();
        assert_eq!(t0, 100);
        assert_eq!(*words, [0, 1, 1 << 32 | 2, 5 << 32]);
        assert_eq!(m.window, Some((0, 600)));
    }

    /// Either layout round-trips, and `describe` says which one it is.
    #[test]
    fn wide_rows_round_trip_and_each_layout_describes_itself() {
        let mut w = SnapshotWriter::new();
        w.authors(["a", "b"].into_iter()).unwrap();
        w.pages(["p", "q"].into_iter()).unwrap();
        let events = [(0, 1, i64::MAX), (1, 0, -1), (0, 0, i64::MIN), (1, 0, -1)];
        w.events(&events).unwrap();
        let snap = Snapshot::from_bytes(w.to_bytes().unwrap()).unwrap();
        assert!(snap.narrow_words().is_none());
        assert_eq!(
            snap.events().iter().collect::<Vec<_>>(),
            [(0, 0, i64::MIN), (1, 0, -1), (1, 0, -1), (0, 1, i64::MAX)]
        );
        let wide = snap.describe();
        assert!(wide.contains("rows:    wide, 16 B per comment"), "{wide}");
        assert!(!wide.contains("window:"), "{wide}");
        let narrow = Snapshot::from_bytes(sample()).unwrap().describe();
        assert!(narrow.contains("rows:    narrow, 8 B per comment from t0 100"));
        assert!(narrow.contains("window:  (0s, 600s)"), "{narrow}");
    }

    /// Nothing assumes the caller's buffer is aligned: an image whose first
    /// byte sits at an odd address opens, its words borrowed from an
    /// 8-aligned copy.
    #[test]
    fn an_image_at_an_odd_address_opens() {
        let image = sample();
        let mut buf = vec![0u8; image.len() + 1];
        let skew = 1 - buf.as_ptr() as usize % 2;
        buf[skew..skew + image.len()].copy_from_slice(&image);
        let odd = &buf[skew..skew + image.len()];
        assert_eq!(odd.as_ptr() as usize % 2, 1);
        let snap = Snapshot::from_bytes(odd).unwrap();
        assert_eq!(snap.events().iter().count(), 4);
        assert_eq!(snap.narrow_words().unwrap().1.as_ptr() as usize % 8, 0);
    }

    #[test]
    fn rows_open_would_refuse_are_writer_errors() {
        let mut w = SnapshotWriter::new();
        w.authors(["a", "b"].into_iter()).unwrap();
        w.pages(["p", "q"].into_iter()).unwrap();
        let s = 1u64 << 32; // one second
        for (why, off, t0, words) in [
            ("time runs backwards", vec![0, 2, 2], Some(10), vec![s, 0]),
            (
                "authors do, at one time",
                vec![0, 2, 2],
                Some(10),
                vec![1, 0],
            ),
            ("author id", vec![0, 1, 1], Some(10), vec![2]),
            ("offsets for one page", vec![0, 1], Some(10), vec![0]),
            (
                "offsets short of the rows",
                vec![0, 1, 1],
                Some(10),
                vec![0, 1],
            ),
            ("offsets descend", vec![0, 2, 1], Some(10), vec![0]),
            ("base not the least time", vec![0, 1, 1], Some(9), vec![s]),
            ("wide where narrow fits", vec![0, 1, 1], None, vec![10, 0]),
            ("half a wide comment", vec![0, 1, 1], None, vec![10]),
        ] {
            assert!(
                matches!(
                    w.page_rows(&off, t0, &words),
                    Err(StoreError::Corrupt { .. })
                ),
                "{why}"
            );
        }
        assert!(matches!(
            w.events(&[(0, 7, 10)]),
            Err(StoreError::Corrupt { .. })
        ));
        // `events` takes any order, equal rows included
        w.events(&[(1, 1, 9), (0, 0, 10), (0, 0, 5), (0, 0, 5)])
            .unwrap();
        let snap = Snapshot::from_bytes(w.to_bytes().unwrap()).unwrap();
        assert_eq!(
            snap.events().iter().collect::<Vec<_>>(),
            [(0, 0, 5), (0, 0, 5), (0, 0, 10), (1, 1, 9)]
        );
    }

    #[test]
    fn bad_magic_and_future_version_are_typed() {
        let mut bytes = sample();
        bytes[0] = b'X';
        assert!(matches!(
            Snapshot::from_bytes(bytes),
            Err(StoreError::BadMagic { .. })
        ));

        // v3, whose name tables were in id order, v4, whose `META` had no
        // window, and v5, whose `META` was varints, have no reader either
        for version in [3u32, 4, 5, 99] {
            let mut bytes = sample();
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            match Snapshot::from_bytes(bytes) {
                Err(StoreError::UnsupportedVersion { found, supported }) => {
                    assert_eq!((found, supported), (version, 6));
                }
                Err(other) => panic!("expected UnsupportedVersion, got {other:?}"),
                Ok(_) => panic!("version {version} must not open"),
            }
        }
    }

    /// Any split of the bytes sums alike, and changing any one word of them
    /// — each lane, the tail — changes the sum.
    #[test]
    fn checksum_is_split_free_and_sees_every_word() {
        let bytes: Vec<u8> = (0..203u32).map(|i| (i * 37 % 251) as u8).collect();
        let whole = checksum(&bytes);
        for cut in [0, 1, 7, 31, 32, 33, 64, 100, 203] {
            let mut sum = Checksum::new();
            let (a, b) = bytes.split_at(cut);
            sum.update(a);
            sum.update(&[]);
            b.chunks(5).for_each(|piece| sum.update(piece));
            assert_eq!(sum.finish(), whole, "cut at {cut}");
        }
        for word in 0..bytes.len().div_ceil(8) {
            let mut damaged = bytes.clone();
            damaged[8 * word] ^= 0x01;
            assert_ne!(checksum(&damaged), whole, "word {word}");
        }
        assert_ne!(checksum(&bytes[..202]), whole);
        assert_ne!(checksum(&[]), checksum(&[0]));
    }

    /// `sample()` with directory entry `i`'s offset and length replaced.
    fn with_toc_entry(i: usize, offset: u64, len: u64) -> Result<Snapshot, StoreError> {
        let mut bytes = sample();
        let at = 16 + i * 28;
        bytes[at + 4..at + 12].copy_from_slice(&offset.to_le_bytes());
        bytes[at + 12..at + 20].copy_from_slice(&len.to_le_bytes());
        Snapshot::from_bytes(bytes)
    }

    fn corrupt_message(r: Result<Snapshot, StoreError>) -> String {
        match r {
            Err(StoreError::Corrupt { what }) => what,
            Err(other) => panic!("expected Corrupt, got {other:?}"),
            Ok(_) => panic!("a forged directory must not open"),
        }
    }

    #[test]
    fn a_section_inside_the_directory_is_corrupt_not_truncated() {
        // the file is long enough for [20, 24): it is the directory's bytes
        let what = corrupt_message(with_toc_entry(0, 20, 4));
        assert_eq!(what, "section META overlaps the directory");
    }

    #[test]
    fn aliased_sections_are_corrupt() {
        // point PAGE_NAMES at AUTHOR_NAMES' bytes, checksum and all: every
        // per-section check passes, only the overlap gives it away
        let mut bytes = sample();
        let (authors, pages) = (16 + 28, 16 + 2 * 28);
        bytes.copy_within(authors + 4..authors + 28, pages + 4);
        let what = corrupt_message(Snapshot::from_bytes(bytes));
        assert_eq!(what, "sections AUTHOR_NAMES and PAGE_NAMES overlap");

        // and bytes no section claims are not ignored either
        let mut bytes = sample();
        bytes.push(0);
        let what = corrupt_message(Snapshot::from_bytes(bytes));
        assert_eq!(what, "1 bytes belong to no section");
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            assert!(
                Snapshot::from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not open"
            );
        }
    }

    #[test]
    fn checksum_catches_section_corruption() {
        let good = sample();
        // Flip a byte in the section payload region (past the directory).
        let dir_end = 16 + 4 * 28;
        let mut bytes = good.clone();
        bytes[dir_end + 3] ^= 0x40;
        assert!(matches!(
            Snapshot::from_bytes(bytes),
            Err(StoreError::ChecksumMismatch { section: "META" })
        ));
    }

    /// Recompute every directory checksum over the bytes it addresses.
    fn reseal(bytes: &mut [u8]) {
        let n = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        for entry in (0..n).map(|i| 16 + i * 28) {
            let field = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
            let (lo, len) = (field(entry + 4) as usize, field(entry + 12) as usize);
            let sum = checksum(&bytes[lo..lo + len]);
            bytes[entry + 20..entry + 28].copy_from_slice(&sum.to_le_bytes());
        }
    }

    /// Comments at 10, 10 and 20 s: narrow rows on base 10.
    const NEAR: [(u32, u32, i64); 3] = [(0, 0, 10), (1, 0, 10), (0, 1, 20)];
    /// The same three across all of `i64`: wide rows.
    const FAR: [(u32, u32, i64); 3] = [(0, 0, i64::MIN), (1, 0, i64::MIN), (0, 1, i64::MAX)];

    /// A two-author, three-page image whose `META` is `events`' and whose
    /// `ROWS` section is forged: the given layout tag and base, `skew` zero
    /// bytes more than the alignment needs, then `off` and `words` — valid
    /// checksums, so only the structural check can object.
    fn forged_rows(
        events: &[(u32, u32, i64)],
        (layout, t0): (u32, i64),
        skew: usize,
        off: &[u64],
        words: &[u64],
    ) -> Result<Snapshot, StoreError> {
        let mut w = SnapshotWriter::new();
        w.authors(["a", "b"].into_iter()).unwrap();
        w.pages(["p", "q", "r"].into_iter()).unwrap();
        w.events(events).unwrap();
        let head = [u64::from(layout), t0 as u64, 3, events.len() as u64];
        let mut section: Vec<u8> = head.iter().flat_map(|w| w.to_le_bytes()).collect();
        section.resize(section.len() + skew, 0);
        off.iter()
            .chain(words)
            .for_each(|v| section.extend_from_slice(&v.to_le_bytes()));
        w.rows = Some(section);
        let mut bytes = w.to_bytes().unwrap();
        let rows_entry = 16 + 3 * 28;
        let at = u64::from_le_bytes(bytes[rows_entry + 4..rows_entry + 12].try_into().unwrap());
        let pad = &mut bytes[at as usize + 4..at as usize + 8];
        let skewed = u32::from_le_bytes((&*pad).try_into().unwrap()) + skew as u32;
        pad.copy_from_slice(&skewed.to_le_bytes());
        reseal(&mut bytes);
        Snapshot::from_bytes(bytes)
    }

    #[test]
    fn forged_rows_are_corrupt_behind_a_valid_checksum() {
        let s = 1u64 << 32; // one second
        let near = [0, 1, 10 * s];
        let far = [i64::MIN as u64, 0, i64::MIN as u64, 1, i64::MAX as u64, 0];
        let honest = forged_rows(&NEAR, (NARROW, 10), 0, &[0, 2, 3, 3], &near).unwrap();
        assert_eq!(honest.events().iter().collect::<Vec<_>>(), NEAR);
        let honest = forged_rows(&FAR, (WIDE, 0), 0, &[0, 2, 3, 3], &far).unwrap();
        assert_eq!(honest.events().iter().collect::<Vec<_>>(), FAR);

        let narrow =
            |t0, off: &[u64], words: &[u64]| forged_rows(&NEAR, (NARROW, t0), 0, off, words);
        for (why, forged) in [
            (
                "an unsorted row",
                narrow(10, &[0, 2, 3, 3], &[1, 0, 10 * s]),
            ),
            (
                "time runs backwards",
                narrow(10, &[0, 2, 3, 3], &[s, 0, 10 * s]),
            ),
            (
                "author id out of range",
                narrow(10, &[0, 2, 3, 3], &[0, 2, 10 * s]),
            ),
            ("offsets decrease", narrow(10, &[0, 2, 1, 3], &near)),
            ("offsets overrun", narrow(10, &[0, 4, 3, 3], &near)),
            ("offsets end short", narrow(10, &[0, 2, 3, 2], &near)),
            ("offsets start late", narrow(10, &[1, 2, 3, 3], &near)),
            (
                "t0 + offset leaves i64",
                narrow(i64::MAX - 5, &[0, 2, 3, 3], &near),
            ),
            (
                "the base is not the least time",
                narrow(5, &[0, 2, 3, 3], &[5 * s, 5 * s + 1, 15 * s]),
            ),
            (
                "last time is not META's",
                narrow(10, &[0, 2, 3, 3], &[0, 1, 12 * s]),
            ),
            (
                "a narrow tag on a span that needs wide",
                forged_rows(
                    &FAR,
                    (NARROW, i64::MIN),
                    0,
                    &[0, 2, 3, 3],
                    &[0, 1, u64::from(u32::MAX) << 32],
                ),
            ),
            (
                "a wide tag on a span that fits narrow",
                forged_rows(&NEAR, (WIDE, 0), 0, &[0, 2, 3, 3], &[10, 0, 10, 1, 20, 0]),
            ),
            (
                "a wide tag with a base",
                forged_rows(&FAR, (WIDE, 1), 0, &[0, 2, 3, 3], &far),
            ),
            (
                "an unknown layout tag",
                forged_rows(&NEAR, (3, 10), 0, &[0, 2, 3, 3], &near),
            ),
            (
                "nonzero wide padding",
                forged_rows(
                    &FAR,
                    (WIDE, 0),
                    0,
                    &[0, 2, 3, 3],
                    &[far[0], 1 << 32, far[2], 1, far[4], 0],
                ),
            ),
            (
                "a row array not 8-aligned",
                forged_rows(&NEAR, (NARROW, 10), 1, &[0, 2, 3, 3], &near),
            ),
            (
                "a row array padded a word too far",
                forged_rows(&NEAR, (NARROW, 10), 8, &[0, 2, 3, 3], &near),
            ),
            (
                "a comment too many",
                narrow(10, &[0, 2, 3, 3], &[0, 1, 10 * s, 10 * s]),
            ),
        ] {
            assert!(
                matches!(forged, Err(StoreError::Corrupt { .. })),
                "{why}: {:?}",
                forged.err()
            );
        }
        assert!(matches!(
            narrow(10, &[0, 2, 3, 3], &near[..2]),
            Err(StoreError::Truncated { what: "ROWS", .. })
        ));
    }

    /// A window open would refuse is a writer error; forged into `META`
    /// behind a valid checksum — through the writer's field, or as a
    /// presence byte other than 0 or 1 — it is corrupt, never a panic.
    #[test]
    fn forged_windows_are_corrupt_behind_a_valid_checksum() {
        let writer = |window| {
            let mut w = SnapshotWriter::new();
            w.authors(["a", "b"].into_iter()).unwrap();
            w.pages(["p"].into_iter()).unwrap();
            w.events(&[(0, 0, 1), (1, 0, 2)]).unwrap();
            w.window = window;
            w
        };
        for bad in [(-1, 60), (60, 60), (60, 0), (i64::MIN, i64::MAX)] {
            assert!(matches!(
                writer(None).window(bad.0, bad.1),
                Err(StoreError::Corrupt { .. })
            ));
            let what = corrupt_message(Snapshot::from_bytes(writer(Some(bad)).to_bytes().unwrap()));
            assert!(what.starts_with("window ("), "{bad:?}: {what}");
        }
        let honest = Snapshot::from_bytes(writer(Some((0, 1))).to_bytes().unwrap());
        assert_eq!(honest.unwrap().meta().window, Some((0, 1)));

        // `META` is the first section and, without a window, ends in its
        // presence byte
        let mut bytes = writer(None).to_bytes().unwrap();
        let field = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let end = (field(20) + field(28)) as usize;
        for presence in [2u8, 0xff] {
            bytes[end - 1] = presence;
            reseal(&mut bytes);
            let what = corrupt_message(Snapshot::from_bytes(bytes.clone()));
            assert_eq!(what, format!("META window presence byte {presence}"));
        }
        // a 1 with no window after it is short
        bytes[end - 1] = 1;
        reseal(&mut bytes);
        assert!(matches!(
            Snapshot::from_bytes(bytes),
            Err(StoreError::Truncated {
                what: "META",
                need: 49,
                have: 33
            })
        ));
    }

    /// Names out of id order come back by id, and `find` answers through
    /// the rank column.
    #[test]
    fn names_are_stored_sorted_and_read_by_id() {
        // "a\0" ties "a" on the first eight bytes, zero-padded
        let authors = ["zed", "amy", "émile", "", "amy2", "a", "a\0"];
        let mut w = SnapshotWriter::new();
        w.authors(authors.into_iter()).unwrap();
        w.pages(["q", "p"].into_iter()).unwrap();
        w.events(&[(0, 1, 5), (6, 0, 6)]).unwrap();
        let snap = Snapshot::from_bytes(w.to_bytes().unwrap()).unwrap();
        let names = snap.author_names();
        assert_eq!(names.iter().collect::<Vec<_>>(), authors);
        for (id, name) in authors.iter().enumerate() {
            assert_eq!(names.find(name), Some(id as u32), "{name:?}");
        }
        for absent in ["am", "amy1", "zee", "zz", "é"] {
            assert_eq!(names.find(absent), None, "{absent:?}");
        }
        // stored as "", "a", "a\0", "amy", "amy2", "zed", "émile"
        let sorted: Vec<u32> = (0..7).map(|id| u32_at(names.ranks, id)).collect();
        assert_eq!(sorted, [5, 3, 6, 0, 4, 1, 2]);
    }

    #[test]
    fn duplicate_names_are_writer_errors() {
        let names = ["a", "b", "a"];
        let mut w = SnapshotWriter::new();
        for (table, err) in [
            ("AUTHOR_NAMES", w.authors(names.into_iter()).err()),
            ("PAGE_NAMES", w.pages(names.into_iter()).err()),
        ] {
            match err {
                Some(StoreError::Corrupt { what }) => {
                    assert!(
                        what.starts_with(&format!("{table}: duplicate name")),
                        "{what}"
                    )
                }
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
        // nothing was recorded, so nothing can be written
        assert!(matches!(w.events(&[]), Err(StoreError::Corrupt { .. })));
        assert!(matches!(w.to_bytes(), Err(StoreError::Corrupt { .. })));
    }

    /// A three-name image whose author or page table is forged from sorted
    /// `names` and `ranks` as given — checksums written over the forgery,
    /// so only the name clause can object.
    fn forged_names(k: u32, names: [&[u8]; 3], ranks: [u32; 3]) -> Result<Snapshot, StoreError> {
        let mut section = 3u32.to_le_bytes().to_vec();
        section.extend_from_slice(&(names.concat().len() as u64).to_le_bytes());
        let mut end = 0;
        for name in names {
            end += name.len() as u32;
            section.extend_from_slice(&end.to_le_bytes());
        }
        section.extend_from_slice(&names.concat());
        ranks
            .iter()
            .for_each(|r| section.extend_from_slice(&r.to_le_bytes()));
        let mut w = SnapshotWriter::new();
        w.authors(["a", "b", "c"].into_iter()).unwrap();
        w.pages(["p", "q", "r"].into_iter()).unwrap();
        w.events(&[(0, 0, 1), (1, 1, 2), (2, 2, 3)]).unwrap();
        let forged = Some((3, section));
        match k {
            kind::AUTHOR_NAMES => w.authors = forged,
            _ => w.pages = forged,
        }
        Snapshot::from_bytes(w.to_bytes().unwrap())
    }

    #[test]
    fn forged_name_tables_are_corrupt_behind_a_valid_checksum() {
        for k in [kind::AUTHOR_NAMES, kind::PAGE_NAMES] {
            let honest = forged_names(k, [b"x", b"y", b"z"], [2, 0, 1]).unwrap();
            let table = match k {
                kind::AUTHOR_NAMES => honest.author_names(),
                _ => honest.page_names(),
            };
            assert_eq!(table.iter().collect::<Vec<_>>(), ["z", "x", "y"]);

            for (why, names, ranks) in [
                ("equal neighbours", [&b"x"[..], b"y", b"y"], [0, 1, 2]),
                ("neighbours out of order", [b"x", b"z", b"y"], [0, 1, 2]),
                ("a repeated rank", [b"x", b"y", b"z"], [0, 1, 1]),
                ("a rank past the count", [b"x", b"y", b"z"], [0, 1, 3]),
                (
                    "an end inside a character",
                    [b"x", b"\xc3", b"\xa9"],
                    [0, 1, 2],
                ),
                ("a byte that is not UTF-8", [b"x", b"y", b"\xff"], [0, 1, 2]),
            ] {
                let what = corrupt_message(forged_names(k, names, ranks));
                assert!(
                    what.starts_with(&format!("{}: ", kind::name(k))),
                    "{why}: {what}"
                );
            }
        }
    }

    #[test]
    fn write_to_then_open_maps_the_file() {
        let path = std::env::temp_dir().join(format!("store-snap-{}.snap", std::process::id()));
        let mut w = SnapshotWriter::new();
        w.authors(["a", "b"].into_iter()).unwrap();
        w.pages(["p"].into_iter()).unwrap();
        w.events(&[(0, 0, 1), (1, 0, 2)]).unwrap();
        w.write_to(&path).unwrap();
        let snap = Snapshot::open(&path).unwrap();
        assert_eq!(snap.meta().n_events, 2);
        assert!(snap.is_mapped());
        drop(snap);
        std::fs::remove_file(&path).ok();
    }
}
