//! The snapshot container: magic, version, checksummed section directory,
//! and the columnar sections themselves.
//!
//! ## File layout (version 2)
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
//! Sections (kinds 1–4 and 6; any other kind is an error). They may not
//! overlap the directory or each other, and together they cover the rest of
//! the file.
//!
//! * `META` — n_authors, n_pages, n_events, min/max timestamp (varints).
//! * `AUTHOR_NAMES` / `PAGE_NAMES` — interner string tables in dense-id
//!   order: count, byte length, fixed-width `u32` end-offset table, then the
//!   concatenated UTF-8 bytes. Fixed-width ends make `name(id)` two loads.
//! * `EVENTS` — the page side of the BTM, stored the way it is held in
//!   memory: the event count, then three length-prefixed columns. `row_len`
//!   has one varint per page id (zeros included). `ts` has, per non-empty
//!   page, the first timestamp as a zigzag *wrapping* difference from the
//!   previous non-empty page's first (from 0 for the first such page), then
//!   the non-negative differences along the row. `author` has one varint per
//!   comment. Every row is in `(timestamp, author)` order.
//! * `CI_GRAPH` (optional) — a projected common-interaction graph: the
//!   window it was projected under, the `P'` page counts, and the weighted
//!   compressed CSR the survey decodes block-wise.
//!
//! [`Snapshot::open`] maps the file and validates *everything* up front —
//! magic, version, directory bounds, per-section checksums, and a full
//! structural decode (id ranges, row order, timestamp arithmetic, `META`
//! agreement, exact byte consumption). After open, every accessor and
//! iterator is infallible; corrupt or truncated input never gets past open,
//! and never panics.

use std::path::Path;

use coordination_graph::GraphRef;

use crate::csr::{self, CsrView};
use crate::err::StoreError;
use crate::mmap::Bytes;
use crate::varint;

/// First eight bytes of every snapshot.
pub const MAGIC: [u8; 8] = *b"COORSNAP";

/// The single schema version this build reads and writes. Bump on any
/// layout change; readers must refuse versions they do not speak.
pub const VERSION: u32 = 2;

mod kind {
    pub const META: u32 = 1;
    pub const AUTHOR_NAMES: u32 = 2;
    pub const PAGE_NAMES: u32 = 3;
    pub const EVENTS: u32 = 4;
    // 5 was a version 1 section and is not reused.
    pub const CI_GRAPH: u32 = 6;

    pub const ALL: [u32; 5] = [META, AUTHOR_NAMES, PAGE_NAMES, EVENTS, CI_GRAPH];

    pub fn name(k: u32) -> &'static str {
        match k {
            META => "META",
            AUTHOR_NAMES => "AUTHOR_NAMES",
            PAGE_NAMES => "PAGE_NAMES",
            EVENTS => "EVENTS",
            CI_GRAPH => "CI_GRAPH",
            _ => "UNKNOWN",
        }
    }
}

/// The per-section checksum, also the hash of the name-uniqueness check:
/// the length, then every little-endian 8-byte word (the tail zero-padded)
/// folded in by xor and a multiplication by an odd constant. Each step is a
/// bijection of the running value, so corrupting any single word always
/// changes the sum; structural validation catches what a colliding
/// multi-word change slips by.
pub fn checksum(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let fold = |h: u64, word: [u8; 8]| (h ^ u64::from_le_bytes(word)).wrapping_mul(K);
    let mut words = bytes.chunks_exact(8);
    let mut h = fold(0, (bytes.len() as u64).to_le_bytes());
    for word in &mut words {
        h = fold(h, word.try_into().expect("8-byte chunk"));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        h = fold(h, word);
    }
    h ^ (h >> 32)
}

/// Corpus-level facts recorded in the `META` section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Dense author-id vocabulary size.
    pub n_authors: u32,
    /// Dense page-id vocabulary size.
    pub n_pages: u32,
    /// Events in the `EVENTS` columns.
    pub n_events: u64,
    /// Smallest timestamp (0 when empty).
    pub min_ts: i64,
    /// Largest timestamp (0 when empty).
    pub max_ts: i64,
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Assembles a snapshot: set the name tables, then the page rows (which also
/// derives `META`), optionally a projected CI graph, then
/// [`SnapshotWriter::write_to`] or [`SnapshotWriter::to_bytes`].
#[derive(Default)]
pub struct SnapshotWriter {
    /// `(name count, section)` of each name table.
    authors: Option<(u32, Vec<u8>)>,
    pages: Option<(u32, Vec<u8>)>,
    meta: Option<Vec<u8>>,
    events: Option<Vec<u8>>,
    ci: Option<Vec<u8>>,
}

fn encode_names<'a>(names: impl Iterator<Item = &'a str>) -> (u32, Vec<u8>) {
    let mut ends: Vec<u8> = Vec::new();
    let mut bytes: Vec<u8> = Vec::new();
    let mut count = 0u32;
    for name in names {
        bytes.extend_from_slice(name.as_bytes());
        ends.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        count += 1;
    }
    let mut out = Vec::with_capacity(bytes.len() + ends.len() + 10);
    varint::write_u64(&mut out, u64::from(count));
    varint::write_u64(&mut out, bytes.len() as u64);
    out.extend_from_slice(&ends);
    out.extend_from_slice(&bytes);
    (count, out)
}

impl SnapshotWriter {
    /// Fresh writer with no sections.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the author name table, in dense-id order (id `i` = `i`-th
    /// name). Must be called before [`SnapshotWriter::page_rows`].
    pub fn authors<'a>(&mut self, names: impl Iterator<Item = &'a str>) -> &mut Self {
        self.authors = Some(encode_names(names));
        self
    }

    /// Record the page name table, in dense-id order.
    pub fn pages<'a>(&mut self, names: impl Iterator<Item = &'a str>) -> &mut Self {
        self.pages = Some(encode_names(names));
        self
    }

    /// Record the `EVENTS` section from the BTM's page rows: `(page id, row)`
    /// for pages in strictly ascending id order (pages left out get empty
    /// rows), each row its `(timestamp, author)` comments in that order. A
    /// page or author id the name tables do not cover, a page out of order
    /// or a row out of order is a writer-side [`StoreError::Corrupt`].
    pub fn page_rows<R: IntoIterator<Item = (i64, u32)>>(
        &mut self,
        rows: impl IntoIterator<Item = (u32, R)>,
    ) -> Result<&mut Self, StoreError> {
        let (Some((n_authors, _)), Some((n_pages, _))) = (&self.authors, &self.pages) else {
            return Err(StoreError::corrupt(
                "page_rows() requires authors() and pages() first",
            ));
        };
        let (n_authors, n_pages) = (*n_authors, *n_pages);
        let (mut len_col, mut ts_col, mut author_col) = (Vec::new(), Vec::new(), Vec::new());
        let mut n_events = 0u64;
        let mut next_page = 0u32;
        let mut first = 0i64;
        let (mut min_ts, mut max_ts) = (i64::MAX, i64::MIN);
        for (p, row) in rows {
            if p < next_page || p >= n_pages {
                return Err(StoreError::corrupt(format!(
                    "page id {p} out of order or >= {n_pages}"
                )));
            }
            len_col.resize(len_col.len() + (p - next_page) as usize, 0);
            next_page = p + 1;
            let mut len = 0u64;
            let mut prev = (i64::MIN, 0u32);
            for (ts, a) in row {
                if a >= n_authors || (ts, a) < prev {
                    return Err(StoreError::corrupt(format!(
                        "page {p}: comment {:?} follows {prev:?} or its author id is >= {n_authors}",
                        (ts, a)
                    )));
                }
                // Wrapping: a non-decreasing pair differs by less than 2^64,
                // which is exactly what the wrapped difference read as `u64`
                // holds, however far apart the two `i64`s are.
                if len == 0 {
                    varint::write_i64(&mut ts_col, ts.wrapping_sub(first));
                    first = ts;
                } else {
                    varint::write_u64(&mut ts_col, ts.wrapping_sub(prev.0) as u64);
                }
                varint::write_u64(&mut author_col, u64::from(a));
                prev = (ts, a);
                len += 1;
            }
            if len > 0 {
                (min_ts, max_ts) = (min_ts.min(first), max_ts.max(prev.0));
            }
            varint::write_u64(&mut len_col, len);
            n_events += len;
        }
        len_col.resize(len_col.len() + (n_pages - next_page) as usize, 0);
        if n_events == 0 {
            (min_ts, max_ts) = (0, 0);
        }

        let mut section = Vec::new();
        varint::write_u64(&mut section, n_events);
        for col in [&len_col, &ts_col, &author_col] {
            varint::write_u64(&mut section, col.len() as u64);
            section.extend_from_slice(col);
        }
        self.events = Some(section);

        let mut meta = Vec::new();
        varint::write_u64(&mut meta, u64::from(n_authors));
        varint::write_u64(&mut meta, u64::from(n_pages));
        varint::write_u64(&mut meta, n_events);
        varint::write_i64(&mut meta, min_ts);
        varint::write_i64(&mut meta, max_ts);
        self.meta = Some(meta);
        Ok(self)
    }

    /// [`SnapshotWriter::page_rows`] for `(author, page, ts)` events in any
    /// order: sorts a copy into page rows first, so it suits small inputs.
    pub fn events(&mut self, events: &[(u32, u32, i64)]) -> Result<&mut Self, StoreError> {
        let mut sorted: Vec<(u32, i64, u32)> =
            events.iter().map(|&(a, p, ts)| (p, ts, a)).collect();
        sorted.sort_unstable();
        self.page_rows(
            sorted
                .chunk_by(|x, y| x.0 == y.0)
                .map(|row| (row[0].0, row.iter().map(|&(_, ts, a)| (ts, a)))),
        )
    }

    /// Attach a projected common-interaction graph: the `[d1, d2]` window it
    /// was projected under, the per-author `P'` page counts, and the graph
    /// itself (stored weighted, compressed).
    pub fn ci_graph<G: GraphRef>(
        &mut self,
        d1: i64,
        d2: i64,
        page_counts: &[u64],
        g: &G,
    ) -> Result<&mut Self, StoreError> {
        if page_counts.len() != g.n_vertices() as usize {
            return Err(StoreError::corrupt(format!(
                "page_counts has {} entries for a {}-vertex graph",
                page_counts.len(),
                g.n_vertices()
            )));
        }
        let mut pc = Vec::new();
        for &c in page_counts {
            varint::write_u64(&mut pc, c);
        }
        let mut section = Vec::new();
        varint::write_i64(&mut section, d1);
        varint::write_i64(&mut section, d2);
        varint::write_u64(&mut section, pc.len() as u64);
        section.extend_from_slice(&pc);
        csr::encode_graph(g, &mut section);
        self.ci = Some(section);
        Ok(self)
    }

    /// Assemble the full snapshot file image.
    pub fn to_bytes(&self) -> Result<Vec<u8>, StoreError> {
        let (Some(meta), Some(events)) = (&self.meta, &self.events) else {
            return Err(StoreError::corrupt(
                "snapshot writer: page_rows() never called",
            ));
        };
        let (_, authors) = self.authors.as_ref().expect("page_rows() needed authors");
        let (_, pages) = self.pages.as_ref().expect("page_rows() needed pages");

        let mut sections: Vec<(u32, &[u8])> = vec![
            (kind::META, meta),
            (kind::AUTHOR_NAMES, authors),
            (kind::PAGE_NAMES, pages),
            (kind::EVENTS, events),
        ];
        if let Some(ci) = &self.ci {
            sections.push((kind::CI_GRAPH, ci));
        }

        let header_len = 16 + sections.len() * 28;
        let total: usize = header_len + sections.iter().map(|(_, s)| s.len()).sum::<usize>();
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
        let mut offset = header_len as u64;
        for (k, s) in &sections {
            out.extend_from_slice(&k.to_le_bytes());
            out.extend_from_slice(&offset.to_le_bytes());
            out.extend_from_slice(&(s.len() as u64).to_le_bytes());
            out.extend_from_slice(&checksum(s).to_le_bytes());
            offset += s.len() as u64;
        }
        for (_, s) in &sections {
            out.extend_from_slice(s);
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

/// A validated, opened snapshot. Accessors return borrowed views over the
/// mapped (or owned) bytes; nothing is decoded into resident columns.
pub struct Snapshot {
    bytes: Bytes,
    meta: SnapshotMeta,
    sections: Vec<Section>,
}

impl Snapshot {
    /// Map `path` and validate the entire file (see module docs).
    ///
    /// The mapping stays valid only while the file keeps its length: the
    /// caller must see to it that nothing truncates the file while the
    /// `Snapshot` lives (writers replace a snapshot by rename, never in
    /// place). A read past a truncation point is a `SIGBUS` this process
    /// cannot turn into an error.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let _g = obs::span("snapshot.open");
        let bytes = Bytes::map_file(path)?;
        Self::parse(bytes)
    }

    /// Open an in-memory image (tests, round-trips) with the same
    /// validation as [`Snapshot::open`].
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, StoreError> {
        Self::parse(Bytes::from_vec(bytes))
    }

    fn section(&self, k: u32) -> Option<&[u8]> {
        find_section(&self.sections, &self.bytes, k)
    }

    fn require(&self, k: u32) -> &[u8] {
        self.section(k).expect("mandatory section checked at open")
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
            let word = |at| u64::from_le_bytes(data[at..at + 8].try_into().expect("8 bytes"));
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

        let get = |k: u32| {
            find_section(&sections, data, k).ok_or_else(|| {
                StoreError::corrupt(format!("missing mandatory section {}", kind::name(k)))
            })
        };

        // META
        let meta_bytes = get(kind::META)?;
        let mut pos = 0;
        let meta = SnapshotMeta {
            n_authors: varint::read_u32(meta_bytes, &mut pos)?,
            n_pages: varint::read_u32(meta_bytes, &mut pos)?,
            n_events: varint::read_u64(meta_bytes, &mut pos)?,
            min_ts: varint::read_i64(meta_bytes, &mut pos)?,
            max_ts: varint::read_i64(meta_bytes, &mut pos)?,
        };
        if pos != meta_bytes.len() {
            return Err(StoreError::corrupt("META has trailing bytes"));
        }

        // Name tables
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
            view.validate()?;
        }

        // Page rows: full decode sweep.
        EventsView::parse(get(kind::EVENTS)?)?.validate(&meta)?;

        // Optional CI graph.
        if let Some(section) = find_section(&sections, data, kind::CI_GRAPH) {
            let ci = CiView::parse(section)?;
            if ci.graph.n() != meta.n_authors {
                return Err(StoreError::corrupt(format!(
                    "CI_GRAPH has {} vertices, META declares {} authors",
                    ci.graph.n(),
                    meta.n_authors
                )));
            }
            ci.validate()?;
        }

        Ok(Snapshot {
            bytes,
            meta,
            sections,
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

    /// The page rows: every page's `(timestamp, author)` comments.
    pub fn events(&self) -> EventsView<'_> {
        EventsView::parse(self.require(kind::EVENTS)).expect("validated at open")
    }

    /// The embedded projected CI graph, if the writer attached one.
    pub fn ci_graph(&self) -> Option<CiView<'_>> {
        self.section(kind::CI_GRAPH)
            .map(|b| CiView::parse(b).expect("validated at open"))
    }

    /// Human-readable summary for `snapshot inspect`.
    pub fn describe(&self) -> String {
        let m = &self.meta;
        let events = self.events();
        let (mut non_empty, mut longest) = (0u32, 0u64);
        let mut pos = 0;
        while pos < events.row_len.len() {
            let len = varint::read_u64(events.row_len, &mut pos).expect("validated at open");
            non_empty += u32::from(len > 0);
            longest = longest.max(len);
        }
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
        let per_event = |col: &[u8]| col.len() as f64 / m.n_events.max(1) as f64;
        out.push_str(&format!(
            "  events columns: row_len {:.2} + ts {:.2} + author {:.2} bytes per event\n",
            per_event(events.row_len),
            per_event(events.ts),
            per_event(events.authors),
        ));
        if let Some(ci) = self.ci_graph() {
            out.push_str(&format!(
                "  ci graph: window [{}, {}], {} vertices, {} edges\n",
                ci.d1,
                ci.d2,
                ci.graph.n(),
                ci.graph.count_edges()
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Views
// ---------------------------------------------------------------------------

/// Borrowed view over a name-table section: `&str` by dense id, zero-copy.
#[derive(Clone, Copy)]
pub struct NamesView<'a> {
    count: u32,
    ends: &'a [u8],
    bytes: &'a [u8],
}

impl<'a> NamesView<'a> {
    fn parse(section: &'a [u8]) -> Result<Self, StoreError> {
        let mut pos = 0;
        let count = varint::read_u32(section, &mut pos)?;
        let total = varint::read_u64(section, &mut pos)?;
        let ends_len = (count as usize)
            .checked_mul(4)
            .ok_or_else(|| StoreError::corrupt("name table end-offsets overflow"))?;
        let need = (pos as u64 + ends_len as u64)
            .checked_add(total)
            .ok_or_else(|| StoreError::corrupt("name table size overflows"))?;
        if (section.len() as u64) < need {
            return Err(StoreError::Truncated {
                what: "name table",
                need,
                have: section.len() as u64,
            });
        }
        if section.len() as u64 != need {
            return Err(StoreError::corrupt("name table has trailing bytes"));
        }
        let ends = &section[pos..pos + ends_len];
        let bytes = &section[pos + ends_len..];
        Ok(NamesView { count, ends, bytes })
    }

    fn end(&self, i: u32) -> usize {
        if i == 0 {
            return 0;
        }
        let at = (i as usize - 1) * 4;
        u32::from_le_bytes(self.ends[at..at + 4].try_into().expect("4-byte slot")) as usize
    }

    fn validate(&self) -> Result<(), StoreError> {
        // Valid as a whole and cut at character boundaries is the same as
        // every name being valid UTF-8 on its own.
        let text = std::str::from_utf8(self.bytes).map_err(|e| {
            StoreError::corrupt(format!("name byte {} is not valid UTF-8", e.valid_up_to()))
        })?;
        // The table must be a bijection: re-interning it downstream has to
        // reproduce the dense ids exactly, which duplicates would break.
        // Open addressing over `hash tag | id + 1` slots, 0 for empty; bytes
        // are compared only when the 32-bit tags agree.
        let mask = (self.count as usize * 2).next_power_of_two() - 1;
        let mut slots = vec![0u64; mask + 1];
        let mut prev = 0usize;
        for id in 0..self.count {
            let end = self.end(id + 1);
            let name = text.get(prev..end).ok_or_else(|| {
                StoreError::corrupt(format!(
                    "name {id} ends out of order, out of bounds or inside a character"
                ))
            })?;
            prev = end;
            let hash = checksum(name.as_bytes());
            let entry = hash & !0xffff_ffff | u64::from(id + 1);
            let mut at = hash as usize & mask;
            while slots[at] != 0 {
                let seen = slots[at];
                if seen >> 32 == entry >> 32 && self.get(seen as u32 - 1) == name {
                    return Err(StoreError::corrupt(format!("duplicate name {name:?}")));
                }
                at = (at + 1) & mask;
            }
            slots[at] = entry;
        }
        if prev != self.bytes.len() {
            return Err(StoreError::corrupt(
                "name bytes extend past the last offset",
            ));
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
        let (lo, hi) = (self.end(i), self.end(i + 1));
        std::str::from_utf8(&self.bytes[lo..hi]).expect("validated at open")
    }

    /// All names in dense-id order.
    pub fn iter(&self) -> impl Iterator<Item = &'a str> + '_ {
        (0..self.count).map(move |i| self.get(i))
    }

    /// Linear-scan lookup of `name` → dense id. O(n); fine for resolving a
    /// handful of exclusion names without materializing an interner.
    pub fn find(&self, name: &str) -> Option<u32> {
        (0..self.count).find(|&i| self.get(i) == name)
    }
}

/// Borrowed view over the `EVENTS` page rows.
#[derive(Clone, Copy)]
pub struct EventsView<'a> {
    n: u64,
    row_len: &'a [u8],
    ts: &'a [u8],
    authors: &'a [u8],
}

/// The column at `*pos`: a byte-length varint, then that many bytes.
fn read_column<'a>(section: &'a [u8], pos: &mut usize) -> Result<&'a [u8], StoreError> {
    let len = varint::read_u64(section, pos)?;
    let end = usize::try_from(len)
        .ok()
        .and_then(|len| pos.checked_add(len))
        .ok_or_else(|| StoreError::corrupt("column length overflows"))?;
    let column = section.get(*pos..end).ok_or(StoreError::Truncated {
        what: "column",
        need: end as u64,
        have: section.len() as u64,
    })?;
    *pos = end;
    Ok(column)
}

impl<'a> EventsView<'a> {
    fn parse(section: &'a [u8]) -> Result<Self, StoreError> {
        let mut pos = 0;
        let view = EventsView {
            n: varint::read_u64(section, &mut pos)?,
            row_len: read_column(section, &mut pos)?,
            ts: read_column(section, &mut pos)?,
            authors: read_column(section, &mut pos)?,
        };
        if pos != section.len() {
            return Err(StoreError::corrupt("EVENTS has trailing bytes"));
        }
        Ok(view)
    }

    /// The sweep that makes every later decode infallible: one row per page
    /// id, rows summing to the declared count, every author id in range,
    /// every row in `(timestamp, author)` order with no timestamp leaving
    /// `i64`, each column consumed to its last byte, and the extremes `META`
    /// recorded.
    fn validate(&self, meta: &SnapshotMeta) -> Result<(), StoreError> {
        if self.n != meta.n_events {
            return Err(StoreError::corrupt(format!(
                "EVENTS declares {} events, META {}",
                self.n, meta.n_events
            )));
        }
        let mut rows = self.rows();
        let mut total = 0u64;
        let (mut min_ts, mut max_ts) = (i64::MAX, i64::MIN);
        while let Some((p, len)) = rows.try_next_row()? {
            // A forged length cannot loop for long: the columns run out.
            total = total.saturating_add(len);
            // Timestamps cannot decrease along a row (their differences are
            // unsigned); among equal ones the authors must not either.
            let mut prev = (i64::MIN, 0u32);
            for i in 0..len {
                let (ts, a) = rows.try_next()?;
                if a >= meta.n_authors {
                    return Err(StoreError::corrupt(format!(
                        "page {p} author id {a} >= {}",
                        meta.n_authors
                    )));
                }
                if prev.0 == ts && prev.1 > a {
                    return Err(StoreError::corrupt(format!(
                        "page {p}: author {a} follows {} at timestamp {ts}",
                        prev.1
                    )));
                }
                if i == 0 {
                    min_ts = min_ts.min(ts);
                }
                prev = (ts, a);
            }
            if len > 0 {
                max_ts = max_ts.max(prev.0);
            }
        }
        if rows.page != meta.n_pages || total != self.n {
            return Err(StoreError::corrupt(format!(
                "EVENTS holds {} rows of {total} comments, META declares {} pages and {} events",
                rows.page, meta.n_pages, self.n
            )));
        }
        if rows.ts_at != self.ts.len() || rows.author_at != self.authors.len() {
            return Err(StoreError::corrupt("EVENTS column has trailing bytes"));
        }
        if total == 0 {
            (min_ts, max_ts) = (0, 0);
        }
        if (min_ts, max_ts) != (meta.min_ts, meta.max_ts) {
            return Err(StoreError::corrupt("timestamp extremes disagree with META"));
        }
        Ok(())
    }

    /// Number of events.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// A cursor over the rows, positioned before page 0's.
    pub fn rows(&self) -> RowCursor<'a> {
        RowCursor {
            row_len: self.row_len,
            ts: self.ts,
            authors: self.authors,
            ..RowCursor::default()
        }
    }

    /// Decode every comment as `(author, page, ts)`, page by page and in
    /// `(ts, author)` order within a page.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, i64)> + 'a {
        let mut rows = self.rows();
        let mut page = 0;
        std::iter::from_fn(move || loop {
            if let Some((ts, a)) = rows.next() {
                return Some((a, page, ts));
            }
            page = rows.next_row()?.0;
        })
    }

    /// The half-open event-index range `rank` owns under a block partition of
    /// `0..len()` across `nranks` ranks — same tiling as
    /// `ygm::partition::block_range`, duplicated here so the store stays
    /// below the runtime in the dependency graph. Ranges tile the event space
    /// exactly: disjoint, in order, covering every index.
    pub fn rank_range(&self, rank: usize, nranks: usize) -> std::ops::Range<u64> {
        assert!(nranks > 0, "rank_range needs at least one rank");
        assert!(rank < nranks, "rank {rank} out of range for {nranks} ranks");
        let per = self.n.div_ceil(nranks as u64);
        let lo = (rank as u64 * per).min(self.n);
        let hi = ((rank as u64 + 1) * per).min(self.n);
        lo..hi
    }

    /// Decode only this rank's block of [`EventsView::iter`].
    ///
    /// This is the rank-slice view the distributed pipeline reads: every rank
    /// holds the *same* `EventsView` over the *same* mmap (the view is `Copy`
    /// and borrows the file), and each decodes just its `rank_range` — no
    /// per-rank copy of the event columns is ever materialized. A block is a
    /// run of whole pages plus at most two split ones, so nearly all of a
    /// rank's events go to one owner after another. The columns are
    /// delta/varint coded, so slicing skips (decodes and discards) the
    /// prefix; that scan is branch-light and memory-sequential, and in
    /// practice is a small constant of the rank's own decode work.
    pub fn rank_slice(
        &self,
        rank: usize,
        nranks: usize,
    ) -> impl Iterator<Item = (u32, u32, i64)> + 'a {
        let r = self.rank_range(rank, nranks);
        self.iter()
            .skip(r.start as usize)
            .take((r.end - r.start) as usize)
    }
}

/// Walks the `EVENTS` rows in page-id order: [`RowCursor::next_row`] moves to
/// the next page's row, and the cursor then iterates that row's
/// `(timestamp, author)` comments, ending where the row does.
#[derive(Default)]
pub struct RowCursor<'a> {
    row_len: &'a [u8],
    ts: &'a [u8],
    authors: &'a [u8],
    len_at: usize,
    ts_at: usize,
    author_at: usize,
    /// Id of the next row `next_row` will open.
    page: u32,
    /// Comments of the current row not yet read.
    left: u64,
    /// Whether the next comment is the first of its row.
    row_start: bool,
    /// First timestamp of the latest non-empty row.
    first: i64,
    /// Timestamp of the latest comment.
    now: i64,
}

/// `i64` onto `u64`, order-preserving, and back.
const SIGN: u64 = 1 << 63;

impl RowCursor<'_> {
    fn try_next_row(&mut self) -> Result<Option<(u32, u64)>, StoreError> {
        while self.left > 0 {
            self.try_next()?;
        }
        if self.len_at == self.row_len.len() {
            return Ok(None);
        }
        self.left = varint::read_u64(self.row_len, &mut self.len_at)?;
        self.row_start = true;
        let page = self.page;
        self.page = page
            .checked_add(1)
            .ok_or_else(|| StoreError::corrupt("more rows than page ids"))?;
        Ok(Some((page, self.left)))
    }

    /// The current row's next comment; the caller has checked `left > 0`.
    fn try_next(&mut self) -> Result<(i64, u32), StoreError> {
        self.now = if std::mem::take(&mut self.row_start) {
            let delta = varint::read_i64(self.ts, &mut self.ts_at)?;
            self.first = self.first.wrapping_add(delta);
            self.first
        } else {
            // In the unsigned image of `i64` a non-negative step of any size
            // either lands on a valid timestamp or overflows, checked here.
            let delta = varint::read_u64(self.ts, &mut self.ts_at)?;
            let next = (self.now as u64 ^ SIGN)
                .checked_add(delta)
                .ok_or_else(|| StoreError::corrupt("timestamp overflows i64"))?;
            (next ^ SIGN) as i64
        };
        let author = varint::read_u32(self.authors, &mut self.author_at)?;
        self.left -= 1;
        Ok((self.now, author))
    }

    /// Move to the next page id's row, skipping whatever of the current one
    /// is unread: `(page id, comments in its row)`, `None` after the last
    /// page.
    pub fn next_row(&mut self) -> Option<(u32, u64)> {
        self.try_next_row().expect("validated at open")
    }
}

impl Iterator for RowCursor<'_> {
    type Item = (i64, u32);

    fn next(&mut self) -> Option<(i64, u32)> {
        (self.left > 0).then(|| self.try_next().expect("validated at open"))
    }
}

/// Borrowed view over the optional projected CI-graph section.
pub struct CiView<'a> {
    /// Lower window offset the projection used.
    pub d1: i64,
    /// Upper window offset.
    pub d2: i64,
    /// The compressed weighted CI adjacency.
    pub graph: CsrView<'a>,
    page_counts: &'a [u8],
}

impl<'a> CiView<'a> {
    fn parse(section: &'a [u8]) -> Result<Self, StoreError> {
        let mut pos = 0;
        let d1 = varint::read_i64(section, &mut pos)?;
        let d2 = varint::read_i64(section, &mut pos)?;
        let page_counts = read_column(section, &mut pos)?;
        let graph = CsrView::parse(&section[pos..])?;
        Ok(CiView {
            d1,
            d2,
            graph,
            page_counts,
        })
    }

    fn validate(&self) -> Result<(), StoreError> {
        self.graph.validate(self.graph.n())?;
        let mut pos = 0;
        for _ in 0..self.graph.n() {
            varint::read_u64(self.page_counts, &mut pos)?;
        }
        if pos != self.page_counts.len() {
            return Err(StoreError::corrupt("page_counts has trailing bytes"));
        }
        Ok(())
    }

    /// Decode the `P'` per-author page counts.
    pub fn page_counts(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.graph.n() as usize);
        let mut pos = 0;
        for _ in 0..self.graph.n() {
            out.push(varint::read_u64(self.page_counts, &mut pos).unwrap_or(0));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coordination_graph::CsrGraph;

    fn sample() -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.authors(["alice", "bob", "carol"].into_iter());
        w.pages(["t3_a", "t3_b"].into_iter());
        w.events(&[(0, 0, 100), (1, 0, 100), (2, 1, 101), (0, 1, 105)])
            .unwrap();
        let ci = CsrGraph::from_edges(3, vec![(0, 1, 2), (1, 2, 1)]);
        w.ci_graph(-60, 60, &[2, 1, 1], &ci).unwrap();
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
        let evs: Vec<_> = snap.events().iter().collect();
        assert_eq!(
            evs,
            vec![(0, 0, 100), (1, 0, 100), (2, 1, 101), (0, 1, 105)]
        );
        let mut rows = snap.events().rows();
        assert_eq!(rows.next_row(), Some((0, 2)));
        assert_eq!(rows.next(), Some((100, 0)));
        // the unread rest of a row is skipped
        assert_eq!(rows.next_row(), Some((1, 2)));
        assert_eq!(rows.by_ref().collect::<Vec<_>>(), [(101, 2), (105, 0)]);
        assert_eq!((rows.next(), rows.next_row()), (None, None));
        let ci = snap.ci_graph().unwrap();
        assert_eq!((ci.d1, ci.d2), (-60, 60));
        assert_eq!(ci.page_counts(), vec![2, 1, 1]);
        assert_eq!(
            ci.graph.neighbors(1).collect::<Vec<_>>(),
            vec![(0, 2), (2, 1)]
        );
    }

    #[test]
    fn rank_slices_tile_the_event_table() {
        // Larger table than `sample()` so blocks span several varint runs.
        let mut w = SnapshotWriter::new();
        let author_names: Vec<String> = (0..37).map(|i| format!("a{i}")).collect();
        let page_names: Vec<String> = (0..11).map(|i| format!("p{i}")).collect();
        w.authors(author_names.iter().map(String::as_str));
        w.pages(page_names.iter().map(String::as_str));
        let events: Vec<(u32, u32, i64)> = (0..997u32)
            .map(|i| (i % 37, i % 11, i64::from(i / 3)))
            .collect();
        w.events(&events).unwrap();
        let snap = Snapshot::from_bytes(w.to_bytes().unwrap()).unwrap();
        let view = snap.events();
        let all: Vec<_> = view.iter().collect();
        for nranks in [1usize, 2, 3, 4, 7, 1000, 2000] {
            let mut tiled = Vec::new();
            let mut hi_prev = 0u64;
            for rank in 0..nranks {
                let r = view.rank_range(rank, nranks);
                assert_eq!(r.start, hi_prev, "ranges must tile in order");
                hi_prev = r.end;
                tiled.extend(view.rank_slice(rank, nranks));
            }
            assert_eq!(hi_prev, view.len());
            assert_eq!(tiled, all, "nranks={nranks}");
        }
        // Empty table: every rank gets an empty slice.
        let mut w = SnapshotWriter::new();
        w.authors(std::iter::empty());
        w.pages(std::iter::empty());
        w.events(&[]).unwrap();
        let snap = Snapshot::from_bytes(w.to_bytes().unwrap()).unwrap();
        assert_eq!(snap.events().rank_slice(0, 3).count(), 0);
        assert_eq!(snap.events().rank_range(2, 3), 0..0);
    }

    #[test]
    fn unsorted_or_out_of_range_rows_are_writer_errors() {
        let mut w = SnapshotWriter::new();
        w.authors(["a", "b"].into_iter());
        w.pages(["p", "q"].into_iter());
        for bad in [
            vec![(0, vec![(10, 0), (5, 0)])],             // time runs backwards
            vec![(0, vec![(10, 1), (10, 0)])],            // authors do, at one time
            vec![(0, vec![(10, 2)])],                     // author id
            vec![(2, vec![(10, 0)])],                     // page id
            vec![(1, vec![(10, 0)]), (1, vec![])],        // page repeated
            vec![(1, vec![(10, 0)]), (0, vec![(10, 0)])], // pages descend
        ] {
            assert!(
                matches!(w.page_rows(bad.clone()), Err(StoreError::Corrupt { .. })),
                "{bad:?}"
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

        let mut bytes = sample();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        match Snapshot::from_bytes(bytes) {
            Err(StoreError::UnsupportedVersion { found, supported }) => {
                assert_eq!((found, supported), (99, VERSION));
            }
            Err(other) => panic!("expected UnsupportedVersion, got {other:?}"),
            Ok(_) => panic!("future version must not open"),
        }
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
                Snapshot::from_bytes(bytes[..cut].to_vec()).is_err(),
                "prefix of {cut} bytes must not open"
            );
        }
    }

    #[test]
    fn checksum_catches_section_corruption() {
        let good = sample();
        // Flip a byte in the section payload region (past the directory).
        let dir_end = 16 + 5 * 28;
        let mut bytes = good.clone();
        bytes[dir_end + 3] ^= 0x40;
        assert!(matches!(
            Snapshot::from_bytes(bytes),
            Err(StoreError::ChecksumMismatch { section: "META" })
        ));
    }

    /// A two-author, two-page, three-comment image (`META` says timestamps
    /// 10 to 20) whose `EVENTS` section is replaced by the given raw varint
    /// columns — valid checksums, so only the structural sweep can object.
    fn forged_rows(
        n_events: u64,
        row_len: &[u64],
        ts: &[u64],
        authors: &[u64],
    ) -> Result<Snapshot, StoreError> {
        let mut w = SnapshotWriter::new();
        w.authors(["a", "b"].into_iter());
        w.pages(["p", "q"].into_iter());
        w.events(&[(0, 0, 10), (1, 0, 10), (0, 1, 20)]).unwrap();
        let mut section = Vec::new();
        varint::write_u64(&mut section, n_events);
        for col in [row_len, ts, authors] {
            let mut bytes = Vec::new();
            col.iter().for_each(|&v| varint::write_u64(&mut bytes, v));
            varint::write_u64(&mut section, bytes.len() as u64);
            section.extend_from_slice(&bytes);
        }
        w.events = Some(section);
        Snapshot::from_bytes(w.to_bytes().unwrap())
    }

    #[test]
    fn forged_rows_are_corrupt_behind_a_valid_checksum() {
        // zigzag(10) = 20: page 0 starts at 10, page 1 ten later
        let honest = forged_rows(3, &[2, 1], &[20, 0, 20], &[0, 1, 0]).unwrap();
        assert_eq!(
            honest.events().iter().collect::<Vec<_>>(),
            [(0, 0, 10), (1, 0, 10), (0, 1, 20)]
        );
        for (why, forged) in [
            (
                "authors descend at one timestamp",
                forged_rows(3, &[2, 1], &[20, 0, 20], &[1, 0, 0]),
            ),
            (
                "author id out of range",
                forged_rows(3, &[2, 1], &[20, 0, 20], &[0, 2, 0]),
            ),
            (
                "rows hold more than declared",
                forged_rows(3, &[3, 1], &[20, 0, 0, 20], &[0, 1, 1, 0]),
            ),
            (
                "rows hold fewer than declared",
                forged_rows(3, &[2, 0], &[20, 0], &[0, 1]),
            ),
            (
                "a row short",
                forged_rows(3, &[3], &[20, 0, 10], &[0, 1, 0]),
            ),
            (
                "a row too many",
                forged_rows(3, &[2, 1, 0], &[20, 0, 20], &[0, 1, 0]),
            ),
            (
                "count disagrees with META",
                forged_rows(2, &[2, 0], &[20, 0], &[0, 1]),
            ),
            (
                "last timestamp is not META's",
                forged_rows(3, &[2, 1], &[20, 0, 22], &[0, 1, 0]),
            ),
            (
                "first timestamp is not META's",
                forged_rows(3, &[2, 1], &[18, 1, 22], &[0, 1, 0]),
            ),
            (
                "timestamp leaves i64",
                forged_rows(3, &[2, 1], &[u64::MAX - 1, 1, 0], &[0, 1, 0]),
            ),
            (
                "unread author bytes",
                forged_rows(3, &[2, 1], &[20, 0, 20], &[0, 1, 0, 0]),
            ),
            (
                "unread timestamp bytes",
                forged_rows(3, &[2, 1], &[20, 0, 20, 0], &[0, 1, 0]),
            ),
            (
                "author column runs out",
                forged_rows(3, &[2, 1], &[20, 0, 20], &[0, 1]),
            ),
        ] {
            assert!(
                matches!(
                    forged,
                    Err(StoreError::Corrupt { .. } | StoreError::Truncated { .. })
                ),
                "{why}"
            );
        }
    }

    #[test]
    fn write_to_then_open_maps_the_file() {
        let path = std::env::temp_dir().join(format!("store-snap-{}.snap", std::process::id()));
        let mut w = SnapshotWriter::new();
        w.authors(["a", "b"].into_iter());
        w.pages(["p"].into_iter());
        w.events(&[(0, 0, 1), (1, 0, 2)]).unwrap();
        w.write_to(&path).unwrap();
        let snap = Snapshot::open(&path).unwrap();
        assert_eq!(snap.meta().n_events, 2);
        assert!(snap.is_mapped());
        drop(snap);
        std::fs::remove_file(&path).ok();
    }
}
