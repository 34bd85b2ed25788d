//! Pushshift-style comment records and NDJSON ingestion.
//!
//! The paper's raw input is the pushshift.io Reddit comment archive: one JSON
//! object per line with (among much else) an `author`, a `link_id` naming the
//! submission at the root of the comment tree, and an integer `created_utc`.
//! Those three fields are exactly what the BTM needs (paper §2.1.1); everything
//! else is ignored on read.

use std::io::{BufRead, Write};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::ids::{AuthorId, Event, Interner, PageId, Timestamp};

/// One comment record in the pushshift-compatible schema.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommentRecord {
    /// Account name.
    pub author: String,
    /// Submission (page) id the comment tree roots at, e.g. `"t3_abc123"`.
    pub link_id: String,
    /// Seconds since the epoch.
    pub created_utc: Timestamp,
}

impl CommentRecord {
    /// Construct a record.
    pub fn new(
        author: impl Into<String>,
        link_id: impl Into<String>,
        created_utc: Timestamp,
    ) -> Self {
        CommentRecord {
            author: author.into(),
            link_id: link_id.into(),
            created_utc,
        }
    }
}

/// A dataset of comments with dense author/page id spaces.
///
/// The interners sit behind [`Arc`], so a clone of the dataset shares the
/// name tables instead of deep-cloning them.
#[derive(Clone, Debug, Default)]
pub struct Dataset {
    /// Author-name interner; `AuthorId(i)` ↔ `authors.name(i)`.
    pub authors: Arc<Interner>,
    /// Page-name interner; `PageId(i)` ↔ `pages.name(i)`.
    pub pages: Arc<Interner>,
    /// The interned events.
    pub events: Vec<Event>,
}

impl Dataset {
    /// Intern an iterator of records into dense events.
    pub fn from_records<I: IntoIterator<Item = CommentRecord>>(records: I) -> Self {
        let mut ds = Dataset::default();
        for r in records {
            ds.push(&r);
        }
        ds
    }

    /// Intern and append one record. (`Arc::make_mut` is a cheap refcount
    /// check while the dataset is being built unshared; pushing into a
    /// dataset whose interners are shared with a clone copies them first.)
    pub(crate) fn push(&mut self, r: &CommentRecord) {
        let a = AuthorId(Arc::make_mut(&mut self.authors).intern(&r.author));
        let p = PageId(Arc::make_mut(&mut self.pages).intern(&r.link_id));
        self.events.push(Event::new(a, p, r.created_utc));
    }

    /// Build the BTM over this dataset's full id spaces.
    pub fn btm(&self) -> crate::btm::Btm {
        self.btm_without(&[])
    }

    /// [`Dataset::btm`] minus every event of the `excluded` authors (a
    /// resolved [`crate::filter::ExclusionList`]), dropped while building.
    pub fn btm_without(&self, excluded: &[AuthorId]) -> crate::btm::Btm {
        crate::btm::Btm::build(
            self.authors.len() as u32,
            Some(self.pages.len() as u32),
            excluded,
            || self.events.iter().copied(),
        )
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the dataset has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Errors from NDJSON ingestion.
#[derive(Debug)]
pub enum ReadError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line failed to parse; carries the 1-based line number.
    Parse {
        line: usize,
        source: serde_json::Error,
    },
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "io error: {e}"),
            ReadError::Parse { line, source } => {
                write!(f, "parse error on line {line}: {source}")
            }
        }
    }
}

impl std::error::Error for ReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadError::Io(e) => Some(e),
            ReadError::Parse { source, .. } => Some(source),
        }
    }
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Read NDJSON comment records from `reader`, one JSON object per line.
/// Blank lines are skipped. Unknown fields are ignored (pushshift records
/// carry dozens).
pub fn read_ndjson<R: BufRead>(reader: R) -> Result<Vec<CommentRecord>, ReadError> {
    let mut out = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let rec: CommentRecord =
            serde_json::from_str(trimmed).map_err(|source| ReadError::Parse {
                line: i + 1,
                source,
            })?;
        out.push(rec);
    }
    Ok(out)
}

/// Write records as NDJSON.
pub fn write_ndjson<W: Write>(mut w: W, records: &[CommentRecord]) -> std::io::Result<()> {
    for r in records {
        serde_json::to_writer(&mut w, r)?;
        w.write_all(b"\n")?;
    }
    Ok(())
}

/// Stream NDJSON into a [`Dataset`] without materializing the record list.
///
/// This is the *reference reader*: one line, one `serde_json` parse, one
/// `Dataset::push`. The production path for month-scale archives is
/// [`crate::ingest`] — a zero-copy field scanner feeding one in-order
/// interning pass — which is pinned (by proptest and by a bench-time guard)
/// to produce an identical [`Dataset`] to this function.
pub fn read_ndjson_into_dataset<R: BufRead>(mut reader: R) -> Result<Dataset, ReadError> {
    let mut ds = Dataset::default();
    let mut line = String::new();
    let mut lineno = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let rec: CommentRecord =
            serde_json::from_str(trimmed).map_err(|source| ReadError::Parse {
                line: lineno,
                source,
            })?;
        ds.push(&rec);
    }
    Ok(ds)
}

/// Count events per author as a dense vector indexed by `AuthorId` — one
/// cache-friendly pass over the events, no hashing of author names.
pub(crate) fn comment_counts_dense(ds: &Dataset) -> Vec<u64> {
    let mut out = vec![0u64; ds.authors.len()];
    for e in &ds.events {
        out[e.author.0 as usize] += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_ndjson() {
        let recs = vec![
            CommentRecord::new("alice", "t3_x", 100),
            CommentRecord::new("bob", "t3_y", 200),
        ];
        let mut buf = Vec::new();
        write_ndjson(&mut buf, &recs).unwrap();
        let back = read_ndjson(&buf[..]).unwrap();
        assert_eq!(back, recs);
    }

    #[test]
    fn unknown_fields_are_ignored() {
        let line = br#"{"author":"a","link_id":"t3_z","created_utc":5,"score":12,"body":"hi"}"#;
        let recs = read_ndjson(&line[..]).unwrap();
        assert_eq!(recs, vec![CommentRecord::new("a", "t3_z", 5)]);
    }

    #[test]
    fn blank_lines_are_skipped() {
        let text = "\n{\"author\":\"a\",\"link_id\":\"p\",\"created_utc\":1}\n\n";
        let recs = read_ndjson(text.as_bytes()).unwrap();
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let text = "{\"author\":\"a\",\"link_id\":\"p\",\"created_utc\":1}\nnot json\n";
        let err = read_ndjson(text.as_bytes()).unwrap_err();
        match err {
            ReadError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn dataset_interns_densely() {
        let ds = Dataset::from_records([
            CommentRecord::new("a", "p1", 1),
            CommentRecord::new("b", "p1", 2),
            CommentRecord::new("a", "p2", 3),
        ]);
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.authors.len(), 2);
        assert_eq!(ds.pages.len(), 2);
        assert_eq!(ds.events[0], Event::new(AuthorId(0), PageId(0), 1));
        assert_eq!(ds.events[2], Event::new(AuthorId(0), PageId(1), 3));
        assert_eq!([ds.authors.name(0), ds.authors.name(1)], ["a", "b"]);
    }

    #[test]
    fn streaming_reader_matches_batch_reader() {
        let text = "{\"author\":\"x\",\"link_id\":\"p\",\"created_utc\":9}\n\
                    {\"author\":\"y\",\"link_id\":\"p\",\"created_utc\":10}\n";
        let ds = read_ndjson_into_dataset(text.as_bytes()).unwrap();
        let batch = Dataset::from_records(read_ndjson(text.as_bytes()).unwrap());
        assert_eq!(ds.events, batch.events);
        assert_eq!(ds.authors.len(), batch.authors.len());
    }

    #[test]
    fn btm_from_dataset() {
        let ds = Dataset::from_records([
            CommentRecord::new("a", "p", 1),
            CommentRecord::new("b", "p", 2),
        ]);
        let btm = ds.btm();
        assert_eq!(btm.n_authors(), 2);
        assert_eq!(btm.n_pages(), 1);
        assert_eq!(btm.page_neighborhood(PageId(0)).iter().count(), 2);
    }

    #[test]
    fn comment_counts_by_dense_id() {
        let ds = Dataset::from_records([
            CommentRecord::new("a", "p", 1),
            CommentRecord::new("a", "q", 2),
            CommentRecord::new("b", "p", 3),
        ]);
        assert_eq!(comment_counts_dense(&ds), vec![2, 1]);
    }
}
