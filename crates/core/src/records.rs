//! Pushshift-style comment records, the interned dataset, and NDJSON output.
//!
//! The paper's raw input is the pushshift.io Reddit comment archive: one JSON
//! object per line with (among much else) an `author`, a `link_id` naming the
//! submission at the root of the comment tree, and an integer `created_utc`.
//! Those three fields are exactly what the BTM needs (paper §2.1.1); everything
//! else is ignored on read. Reading is [`crate::ingest`]'s, the one NDJSON
//! parser; [`write_ndjson`] writes the three fields back out.

use std::io::Write;
use std::sync::Arc;

use crate::ids::{AuthorId, Event, Interner, PageId, Timestamp};
use crate::ingest::ParseError;

/// One comment record in the pushshift-compatible schema.
#[derive(Clone, Debug, PartialEq, Eq)]
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
    /// A line is not a record; carries the 1-based line number.
    Parse { line: usize, source: ParseError },
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

/// Write records as NDJSON, one object per line with its keys in byte
/// order.
pub fn write_ndjson<W: Write>(mut w: W, records: &[CommentRecord]) -> std::io::Result<()> {
    for r in records {
        writeln!(
            w,
            "{{\"author\":{},\"created_utc\":{},\"link_id\":{}}}",
            JsonString(&r.author),
            r.created_utc,
            JsonString(&r.link_id)
        )?;
    }
    Ok(())
}

/// A name as a JSON string: `"`, `\\` and the control characters escaped,
/// every other character as it is.
struct JsonString<'a>(&'a str);

impl std::fmt::Display for JsonString<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use std::fmt::Write as _;
        f.write_char('"')?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                '\u{8}' => f.write_str("\\b")?,
                '\u{c}' => f.write_str("\\f")?,
                '\0'..='\u{1f}' => write!(f, "\\u{:04x}", u32::from(c))?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keys in byte order; only what JSON requires is escaped.
    #[test]
    fn write_ndjson_spells_records_one_way() {
        let recs = [
            CommentRecord::new("alice", "t3_x", 100),
            CommentRecord::new("q\"b\\s/\t\u{1}é😀", "t3_y", -2),
        ];
        let mut buf = Vec::new();
        write_ndjson(&mut buf, &recs).unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            concat!(
                "{\"author\":\"alice\",\"created_utc\":100,\"link_id\":\"t3_x\"}\n",
                "{\"author\":\"q\\\"b\\\\s/\\t\\u0001é😀\",\"created_utc\":-2,\"link_id\":\"t3_y\"}\n",
            )
        );
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
}
