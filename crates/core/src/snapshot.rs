//! Dataset ⇄ snapshot glue: the core-side adapters over
//! [`coordination_store`] (re-exported as [`crate::store`]).
//!
//! The store crate speaks raw `(author, page, ts)` tuples and `&str` name
//! tables so it can sit below core in the dependency graph; this module
//! supplies the translations the pipeline actually uses:
//!
//! * [`write_snapshot`] — serialize an ingested [`Dataset`] (its
//!   [`Btm`]'s rows copied word for word as `ROWS`, interner names in dense-id
//!   order so ids survive the round trip), optionally recording the
//!   projection window a later `survey` re-projects the rows under;
//! * [`ingest_to_snapshot`] — the `snapshot write` path: NDJSON ingest
//!   straight into page rows ([`crate::ingest::ingest_rows`]; no event
//!   column) and into a snapshot file that records its window;
//! * [`btm_from_snapshot`] — a [`Btm`] whose narrow rows are the mapping's
//!   own words, borrowed, not decoded; the events never exist as a resident
//!   `Vec<Event>`, which is what puts the snapshot path's peak RSS below the
//!   resident path's. Every reader of a snapshot's comments, both engines
//!   at any rank count included, reads them through it;
//! * [`authors_from_snapshot`] — materialize the author [`Interner`] for
//!   commands that look names up in both directions; ids match the original
//!   ingest exactly.
//!
//! Equivalence contract (pinned by the oracle matrix in `tests/`, where the
//! snapshot of any dataset is a door of both engines): for any dataset,
//! `Pipeline::run_snapshot` over `write_snapshot`'s output produces
//! byte-identical survey and validation results to `Pipeline::run_dataset`
//! on the original. The snapshot stores events page
//! by page (a different order than ingest), but the BTM depends only on the
//! multiset of events, so the projection input — and everything downstream —
//! is identical.

use std::path::Path;

use coordination_store::{Snapshot, SnapshotWriter, StoreError};

use crate::btm::{Btm, PageRow};
use crate::filter::ExclusionList;
use crate::ids::{AuthorId, Interner};
use crate::ingest::{self, IngestConfig, IngestStats};
use crate::records::{Dataset, ReadError};
use crate::window::Window;

/// What a snapshot write produced, for logging.
#[derive(Clone, Copy, Debug)]
pub struct WriteSummary {
    /// Snapshot file size.
    pub bytes: u64,
    /// Events written.
    pub n_events: u64,
}

/// Serialize `ds` to a snapshot at `path`. Pass a `window` to record it in
/// `META`: `survey --from-snapshot` projects the rows under it.
pub fn write_snapshot(
    ds: &Dataset,
    window: Option<Window>,
    path: &Path,
) -> Result<WriteSummary, StoreError> {
    let _g = obs::span("snapshot.write");
    write_rows(&ds.authors, &ds.pages, &ds.btm_without(&[]), window, path)
}

/// Write the name tables and `btm`'s rows — copied word for word as `ROWS` —
/// to a snapshot at `path`, recording `window` if there is one.
fn write_rows(
    authors: &Interner,
    pages: &Interner,
    btm: &Btm,
    window: Option<Window>,
    path: &Path,
) -> Result<WriteSummary, StoreError> {
    let mut w = SnapshotWriter::new();
    w.authors(authors.iter().map(|(_, n)| n))?;
    w.pages(pages.iter().map(|(_, n)| n))?;
    let (off, all) = btm.parts();
    let off: Vec<u64> = off.iter().map(|&o| o as u64).collect();
    let wide = |row: &[(i64, AuthorId)]| -> Vec<u64> {
        let words = row.iter().flat_map(|&(ts, a)| [ts as u64, u64::from(a.0)]);
        words.collect()
    };
    match all {
        PageRow::Narrow { t0, row } => w.page_rows(&off, Some(t0), row)?,
        PageRow::Wide(row) => w.page_rows(&off, None, &wide(row))?,
    };
    if let Some(window) = window {
        w.window(window.d1(), window.d2())?;
    }
    w.write_to(path)?;
    let bytes = std::fs::metadata(path)?.len();
    obs::gauge("snapshot.bytes").set(bytes);
    Ok(WriteSummary {
        bytes,
        n_events: btm.n_comments(),
    })
}

/// The `snapshot write` ingest path: NDJSON from `reader` read straight into
/// page rows ([`ingest::ingest_rows`], nobody excluded — no event column is
/// built) and written to `path`, recording `window` for
/// `survey --from-snapshot`. The file is the one [`write_snapshot`] writes
/// for [`ingest::ingest_reader`]'s dataset of the same input.
pub fn ingest_to_snapshot(
    reader: impl std::io::Read + Send,
    cfg: &IngestConfig,
    window: Window,
    path: &Path,
) -> Result<(WriteSummary, IngestStats), SnapshotWriteError> {
    let ingest = ingest::ingest_rows(reader, cfg, &ExclusionList::new())
        .map_err(SnapshotWriteError::Read)?;
    let _g = obs::span("snapshot.write");
    let summary = write_rows(
        &ingest.authors,
        &ingest.pages,
        &ingest.btm,
        Some(window),
        path,
    )
    .map_err(SnapshotWriteError::Store)?;
    Ok((summary, ingest.stats))
}

/// Either side of [`ingest_to_snapshot`] can fail: the NDJSON parse or the
/// snapshot serialization.
#[derive(Debug)]
pub enum SnapshotWriteError {
    /// NDJSON ingest failed.
    Read(ReadError),
    /// Snapshot serialization failed.
    Store(StoreError),
}

impl std::fmt::Display for SnapshotWriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotWriteError::Read(e) => write!(f, "{e}"),
            SnapshotWriteError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SnapshotWriteError {}

/// The BTM of the mapped page rows, minus the `excluded` authors. With
/// nobody excluded a month-sized (narrow) file's rows are not decoded or
/// copied at all: the `Btm` borrows the mapping's words, and holds a share
/// of it that outlives `snap`; only the page offsets are copied. Wide rows
/// decode into an owned array, and an exclusion filters into one; then the
/// mapped rows leave the resident set ([`Snapshot::release_rows`]), so the
/// rows are not resident twice. No `Vec<Event>`, no interners.
pub fn btm_from_snapshot(snap: &Snapshot, excluded: &[AuthorId]) -> Btm {
    let _g = obs::span("snapshot.btm");
    let view = snap.events();
    let wide = || view.iter().map(|(a, _, ts)| (ts, AuthorId(a))).collect();
    let comments = snap.narrow_words().ok_or_else(wide);
    let copied = comments.is_err() || !excluded.is_empty();
    let btm = Btm::from_stored(snap.meta().n_authors, view.offsets(), comments, excluded);
    if copied {
        snap.release_rows();
    }
    btm
}

/// A snapshot's author table as an [`Interner`], for a caller that looks
/// names up in both directions: the names are re-interned in dense-id order,
/// so every id matches the ingest that wrote the snapshot.
pub fn authors_from_snapshot(snap: &Snapshot) -> Interner {
    let mut interner = Interner::new();
    for n in snap.author_names().iter() {
        interner.intern(n);
    }
    interner
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::PageId;
    use crate::records::CommentRecord;

    fn scenario() -> Dataset {
        let mut recs = Vec::new();
        for page in 0..15 {
            for (i, bot) in ["b1", "b2", "b3"].iter().enumerate() {
                recs.push(CommentRecord::new(
                    *bot,
                    format!("p{page}"),
                    page as i64 * 500 + i as i64,
                ));
            }
            recs.push(CommentRecord::new(
                format!("u{page}"),
                format!("p{page}"),
                page as i64 * 500 + 400,
            ));
        }
        Dataset::from_records(recs)
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("core-snap-{name}-{}.snap", std::process::id()))
    }

    #[test]
    fn dataset_roundtrips_through_snapshot() {
        let ds = scenario();
        let path = tmp("roundtrip");
        let summary = write_snapshot(&ds, None, &path).unwrap();
        assert_eq!(summary.n_events as usize, ds.len());

        let snap = Snapshot::open(&path).unwrap();
        let authors = authors_from_snapshot(&snap);
        assert_eq!(authors.len(), ds.authors.len());
        assert_eq!(snap.page_names().len() as usize, ds.pages.len());
        // Same ids, same names.
        for (id, name) in ds.authors.iter() {
            assert_eq!(authors.get(name), Some(id));
        }
        for (id, name) in ds.pages.iter() {
            assert_eq!(snap.page_names().get(id), name);
        }
        // Same events: the rows are the dataset's BTM.
        assert_eq!(btm_from_snapshot(&snap, &[]), ds.btm());
        drop(snap);
        std::fs::remove_file(&path).ok();
    }

    /// Any non-decreasing `i64` row round-trips: a span no `u32` holds is
    /// stored in the wide layout, timestamps whole.
    #[test]
    fn extreme_timestamps_round_trip() {
        let rec = |who: &str, page: &str, ts| CommentRecord::new(who, page, ts);
        // a row across the whole range, between pages whose first timestamps
        // are above and then below their predecessor's
        let mut spread = vec![rec("a", "p0", 7), rec("b", "p0", 9)];
        for (who, ts) in [("a", i64::MIN), ("b", -1), ("a", 0), ("c", i64::MAX)] {
            spread.push(rec(who, "p1", ts));
        }
        spread.push(rec("c", "p2", i64::MAX));
        // the widest step there is, which version 1 could write but not open
        let widest = vec![rec("a", "p", i64::MIN), rec("a", "p", i64::MAX)];
        for recs in [spread, widest] {
            let ds = Dataset::from_records(recs);
            let path = tmp("extreme");
            write_snapshot(&ds, None, &path).unwrap();
            let snap = Snapshot::open(&path).unwrap();
            assert_eq!(
                (snap.meta().min_ts, snap.meta().max_ts),
                (i64::MIN, i64::MAX)
            );
            assert!(snap.narrow_words().is_none(), "stored wide");
            let (na, np) = (ds.authors.len() as u32, ds.pages.len() as u32);
            assert_eq!(
                btm_from_snapshot(&snap, &[]),
                Btm::from_events(na, np, &ds.events)
            );
            drop(snap);
            std::fs::remove_file(&path).ok();
        }
    }

    /// With nobody excluded the `Btm` borrows: every row lies inside the
    /// mapping's words, and outlives the `Snapshot`. With exclusions it is
    /// an owned copy equal to the dataset's own.
    #[test]
    fn btm_from_snapshot_borrows_the_mapping_unless_someone_is_excluded() {
        let ds = scenario();
        let path = tmp("btm");
        write_snapshot(&ds, None, &path).unwrap();
        let snap = Snapshot::open(&path).unwrap();
        let (_, words) = snap.narrow_words().expect("a month-shaped file is narrow");
        let mapped = words.as_ptr_range();
        let inside = |(_, row): (PageId, PageRow<'_>)| match row {
            PageRow::Narrow { row, .. } => mapped.contains(&row.as_ptr()),
            PageRow::Wide(_) => false,
        };
        let btm = btm_from_snapshot(&snap, &[]);
        assert!(snap.is_mapped() && btm.pages().all(inside));
        let excluded = [AuthorId(0), AuthorId(3)];
        let filtered = btm_from_snapshot(&snap, &excluded);
        assert!(!filtered.pages().any(inside));
        assert_eq!(filtered, ds.btm_without(&excluded));
        drop((snap, words));
        assert_eq!(btm, ds.btm());
        std::fs::remove_file(&path).ok();
    }
}
