//! NDJSON ingest: a zero-copy field scanner feeding one in-order interning
//! pass.
//!
//! The paper's raw input is a month of pushshift.io Reddit comments — tens of
//! GB of NDJSON — and turning its names into dense ids is the first thing
//! every run pays. The reference reader in [`crate::records`] spends one
//! `serde_json` parse and two `String`s per line on it; this module is the
//! production path. Two pieces, composed by [`ingest_str`]:
//!
//! 1. **Zero-copy field scanning.** [`scan_record`] extracts only `author`,
//!    `link_id` and `created_utc` from a line without allocating or building a
//!    value tree for the dozens of unused pushshift fields. The scanner is
//!    deliberately conservative: any construct it is not certain about
//!    (escape sequences, non-integer timestamps, malformed syntax) makes it
//!    bail, and the line is re-parsed by `serde_json` — so the fast path can
//!    never change what gets accepted or rejected.
//! 2. **One pass in input order.** Each scanned line's `author` and `link_id`
//!    are interned straight into the final [`Dataset`]'s arena-backed
//!    [`Interner`]s and its [`Event`] is pushed, so global first-occurrence
//!    ids — exactly the ids the reference reader assigns — fall out by
//!    construction. There is no second name table to merge, no id remap and
//!    no event copy, and a parse error carries its 1-based line number
//!    directly. The pass scans a few lines ahead of the interning
//!    (`SCAN_AHEAD`) so that the lookups' cache misses overlap.
//!
//! The pass runs on the calling thread. Interning in order is the part that
//! cannot be split (it is the Amdahl term: the scanner is about a third of
//! the pass), so a future scan-ahead on real threads would slot in *front* of
//! it — workers scan line ranges into borrowed [`RecordRef`]s, this pass
//! consumes them in input order — without changing any id. Nothing parses a
//! chunk on a thread of its own today: the rank-sharded engine
//! ([`crate::dist_pipeline`]) takes events that already carry dense ids.
//!
//! A strict-vs-lossy switch ([`IngestConfig::skip_bad_lines`]) lets multi-hour
//! archive runs count and skip malformed lines instead of aborting on line 80
//! million; the default remains strict, matching the reference reader.

use std::borrow::Cow;
use std::sync::Arc;

use crate::ids::{AuthorId, Event, Interner, PageId, Timestamp};
use crate::records::{CommentRecord, Dataset, ReadError};

/// Ingest options. The default is strict parsing.
#[derive(Clone, Debug, Default)]
pub struct IngestConfig {
    /// Lossy mode: count malformed lines in
    /// [`IngestStats::skipped_lines`] and keep going, instead of aborting
    /// with [`ReadError::Parse`]. Blank lines are always skipped silently.
    pub skip_bad_lines: bool,
}

/// Counters from one ingest run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Total input lines seen (including blank and malformed ones).
    pub lines: u64,
    /// Records successfully parsed into events.
    pub events: u64,
    /// Malformed lines skipped (always 0 in strict mode).
    pub skipped_lines: u64,
    /// Lines the zero-copy scanner bailed on and handed to `serde_json`
    /// (includes every malformed line — the scanner never rejects on its own).
    pub scanner_fallbacks: u64,
}

/// A parsed dataset plus the run's [`IngestStats`].
#[derive(Clone, Debug)]
pub struct Ingest {
    /// The interned dataset, identical to what the reference reader produces.
    pub dataset: Dataset,
    /// Ingest counters.
    pub stats: IngestStats,
}

/// The three fields the BTM needs, borrowed straight from the input line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecordRef<'a> {
    /// Account name.
    pub author: &'a str,
    /// Submission (page) id the comment tree roots at.
    pub link_id: &'a str,
    /// Seconds since the epoch.
    pub created_utc: Timestamp,
}

// ---------------------------------------------------------------- scanner

/// Index of the first `"` or `\\` in `bytes`, eight bytes at a time.
fn find_quote_or_backslash(bytes: &[u8]) -> Option<usize> {
    const LOW: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    // Nonzero in the lowest byte of `w` that equals `b` (exact for the
    // first match, which is the only one read).
    let hits = |w: u64, b: u8| {
        let x = w ^ (LOW * u64::from(b));
        x.wrapping_sub(LOW) & !x & HIGH
    };
    let mut at = 0;
    while let Some(chunk) = bytes.get(at..at + 8) {
        let w = u64::from_le_bytes(chunk.try_into().expect("an 8-byte slice"));
        let hit = hits(w, b'"') | hits(w, b'\\');
        if hit != 0 {
            return Some(at + hit.trailing_zeros() as usize / 8);
        }
        at += 8;
    }
    bytes[at..]
        .iter()
        .position(|&b| b == b'"' || b == b'\\')
        .map(|i| at + i)
}

/// Byte cursor over one line. All helpers return `None`/`false` to signal
/// "bail to serde" — the scanner never errors on its own.
struct Cursor<'a> {
    line: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.line.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Same whitespace set as the JSON parser this falls back to.
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.line.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    /// A string with no escape sequences, returned as a borrowed slice.
    /// Bails on the first backslash: unescaping needs an allocation and the
    /// serde fallback already knows how to do it.
    fn simple_string(&mut self) -> Option<&'a str> {
        if !self.eat(b'"') {
            return None;
        }
        let start = self.pos;
        let rest = &self.line.as_bytes()[start..];
        let len = find_quote_or_backslash(rest)?;
        if rest[len] == b'\\' {
            return None;
        }
        self.pos = start + len + 1;
        // Both bounds sit next to '"' bytes, which never occur inside a
        // multi-byte sequence, so this is always a char-boundary slice.
        self.line.get(start..start + len)
    }

    /// A plain integer literal. Bails on fractions, exponents and overflow —
    /// the fallback decides whether e.g. `created_utc: 5.0` is acceptable.
    fn integer(&mut self) -> Option<i64> {
        let start = self.pos;
        let negative = self.eat(b'-');
        let digits = self.pos;
        let mut magnitude = 0u64;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            magnitude = magnitude.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
            self.pos += 1;
        }
        let n_digits = self.pos - digits;
        if n_digits == 0 || matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return None;
        }
        if n_digits > 18 {
            // Only past 18 digits can an `i64` overflow (or `magnitude` have
            // wrapped): let the standard parser draw that line.
            return self.line.get(start..self.pos)?.parse().ok();
        }
        let magnitude = magnitude as i64;
        Some(if negative { -magnitude } else { magnitude })
    }

    /// A number in strict grammar: `-? digits (.digits)? ([eE][+-]?digits)?`.
    /// Anything looser (which serde might reject) bails.
    fn skip_number(&mut self) -> bool {
        self.eat(b'-');
        let mut digits = 0;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
            digits += 1;
        }
        if digits == 0 {
            return false;
        }
        if self.eat(b'.') {
            let mut frac = 0;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
                frac += 1;
            }
            if frac == 0 {
                return false;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            let mut exp = 0;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
                exp += 1;
            }
            if exp == 0 {
                return false;
            }
        }
        true
    }

    /// Skip any JSON value without materializing it. Conservative: only
    /// accepts constructs the fallback parser would definitely accept too,
    /// so a scanner-accepted line can never hide a serde parse error.
    fn skip_value(&mut self) -> bool {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => self.simple_string().is_some(),
            Some(b'-' | b'0'..=b'9') => self.skip_number(),
            Some(b't') => self.eat_literal("true"),
            Some(b'f') => self.eat_literal("false"),
            Some(b'n') => self.eat_literal("null"),
            Some(b'{') => {
                self.pos += 1;
                self.skip_ws();
                if self.eat(b'}') {
                    return true;
                }
                loop {
                    self.skip_ws();
                    if self.simple_string().is_none() {
                        return false;
                    }
                    self.skip_ws();
                    if !self.eat(b':') || !self.skip_value() {
                        return false;
                    }
                    self.skip_ws();
                    if self.eat(b',') {
                        continue;
                    }
                    return self.eat(b'}');
                }
            }
            Some(b'[') => {
                self.pos += 1;
                self.skip_ws();
                if self.eat(b']') {
                    return true;
                }
                loop {
                    if !self.skip_value() {
                        return false;
                    }
                    self.skip_ws();
                    if self.eat(b',') {
                        continue;
                    }
                    return self.eat(b']');
                }
            }
            _ => false,
        }
    }
}

/// Extract `author`, `link_id` and `created_utc` from one NDJSON line without
/// allocating. Returns `None` whenever the line contains *anything* the
/// scanner is not certain about (escapes in a needed string, a non-integer
/// timestamp, unusual syntax); the caller then re-parses with `serde_json`,
/// which makes the accept/reject decision. Duplicate keys follow
/// last-occurrence-wins, matching the fallback's object semantics.
pub fn scan_record(line: &str) -> Option<RecordRef<'_>> {
    let mut c = Cursor { line, pos: 0 };
    c.skip_ws();
    if !c.eat(b'{') {
        return None;
    }
    let mut author = None;
    let mut link_id = None;
    let mut created_utc = None;
    c.skip_ws();
    if !c.eat(b'}') {
        loop {
            c.skip_ws();
            let key = c.simple_string()?;
            c.skip_ws();
            if !c.eat(b':') {
                return None;
            }
            c.skip_ws();
            match key {
                "author" => author = Some(c.simple_string()?),
                "link_id" => link_id = Some(c.simple_string()?),
                "created_utc" => created_utc = Some(c.integer()?),
                _ => {
                    if !c.skip_value() {
                        return None;
                    }
                }
            }
            c.skip_ws();
            if c.eat(b',') {
                continue;
            }
            if c.eat(b'}') {
                break;
            }
            return None;
        }
    }
    c.skip_ws();
    if c.pos != line.len() {
        return None; // trailing garbage: serde turns this into a parse error
    }
    Some(RecordRef {
        author: author?,
        link_id: link_id?,
        created_utc: created_utc?,
    })
}

// ---------------------------------------------------------------- the pass

/// Parse every line of `text` in order, feeding each record's three fields
/// to `emit` — borrowed from `text` when the scanner took the line, owned
/// when `serde_json` had to unescape it. On a strict-mode parse failure,
/// returns the 1-based line number within `text` plus the serde error.
fn for_each_record<'a>(
    text: &'a str,
    skip_bad: bool,
    mut emit: impl FnMut(Cow<'a, str>, Cow<'a, str>, Timestamp),
) -> Result<IngestStats, (u64, serde_json::Error)> {
    let mut st = IngestStats::default();
    for line in text.split_terminator('\n') {
        st.lines += 1;
        // The scanner skips JSON whitespace itself, so the Unicode-aware
        // `trim` the reference reader applies is only paid for by lines the
        // scanner did not take as they stand: blank ones, ones padded with
        // non-JSON whitespace (rescanned once trimmed) and true fallbacks.
        let mut scanned = scan_record(line);
        let mut trimmed = line;
        if scanned.is_none() {
            trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            if trimmed.len() != line.len() {
                scanned = scan_record(trimmed);
            }
        }
        let (author, link_id, ts) = match scanned {
            Some(r) => (r.author.into(), r.link_id.into(), r.created_utc),
            None => {
                st.scanner_fallbacks += 1;
                match serde_json::from_str::<CommentRecord>(trimmed) {
                    Ok(rec) => (rec.author.into(), rec.link_id.into(), rec.created_utc),
                    Err(_) if skip_bad => {
                        st.skipped_lines += 1;
                        continue;
                    }
                    Err(source) => return Err((st.lines, source)),
                }
            }
        };
        emit(author, link_id, ts);
        st.events += 1;
    }
    Ok(st)
}

/// How many records are scanned before their names are interned. A lookup
/// in a month-sized name table is a chain of cache misses (slot → offsets →
/// arena); looking a few lines' names up back to back lets those chains
/// overlap instead of each waiting behind the next line's scan. Measured on
/// 1 M lines / 150 K authors: 1 → 4 → 16 lines ahead is 242 → 175 → 170 ns
/// per line, flat beyond.
const SCAN_AHEAD: usize = 16;

/// The in-order pass over one piece of input: scan each line and intern its
/// names straight into the resulting [`Dataset`], whose ids are therefore in
/// first-occurrence order within `chunk` — authors and pages are separate id
/// spaces, so interning a few lines' authors and then the same lines' pages
/// assigns what interning line by line would. Every driver feeds it the
/// whole input as one chunk.
pub(crate) fn parse_chunk(chunk: &str, skip_bad: bool) -> Result<Ingest, (u64, serde_json::Error)> {
    let mut authors = Interner::new();
    let mut pages = Interner::new();
    let mut events: Vec<Event> = Vec::new();
    let mut ahead = Vec::with_capacity(SCAN_AHEAD);
    let mut intern_ahead =
        |ahead: &mut Vec<(Cow<str>, Cow<str>, Timestamp)>| {
            let first = events.len();
            events.extend(ahead.iter().map(|(author, _, ts)| {
                Event::new(AuthorId(authors.intern(author)), PageId(0), *ts)
            }));
            for (event, (_, link_id, _)) in events[first..].iter_mut().zip(ahead.iter()) {
                event.page = PageId(pages.intern(link_id));
            }
            ahead.clear();
        };
    let stats = for_each_record(chunk, skip_bad, |author, link_id, ts| {
        ahead.push((author, link_id, ts));
        if ahead.len() == SCAN_AHEAD {
            intern_ahead(&mut ahead);
        }
    })?;
    intern_ahead(&mut ahead);
    Ok(Ingest {
        dataset: Dataset {
            authors: Arc::new(authors),
            pages: Arc::new(pages),
            events,
        },
        stats,
    })
}

// ---------------------------------------------------------------- drivers

fn parse_error((line, source): (u64, serde_json::Error)) -> ReadError {
    ReadError::Parse {
        line: line as usize,
        source,
    }
}

fn utf8(buf: &[u8]) -> Result<&str, ReadError> {
    std::str::from_utf8(buf).map_err(|e| {
        ReadError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("input is not valid UTF-8: {e}"),
        ))
    })
}

/// Route one run's [`IngestStats`] through the metrics registry, making
/// lossy runs (`--skip-bad-lines`) auditable in the run report rather than
/// stderr-only. Counter registration is unconditional so every documented
/// `ingest.*` name appears in the report even when it stays 0.
fn record_ingest_stats(stats: &IngestStats) {
    obs::counter("ingest.lines").add(stats.lines);
    obs::counter("ingest.events").add(stats.events);
    obs::counter("ingest.skipped_lines").add(stats.skipped_lines);
    obs::counter("ingest.scanner_fallbacks").add(stats.scanner_fallbacks);
    obs::record_stage_rss("ingest");
}

/// Ingest an NDJSON buffer into a [`Dataset`] in one in-order pass. Names
/// get their ids where they first occur, so the output is identical to the
/// reference reader's ([`crate::records::read_ndjson_into_dataset`]).
pub fn ingest_str(text: &str, cfg: &IngestConfig) -> Result<Ingest, ReadError> {
    let _stage = obs::span("ingest");
    let ingest = parse_chunk(text, cfg.skip_bad_lines).map_err(parse_error)?;
    record_ingest_stats(&ingest.stats);
    Ok(ingest)
}

/// [`ingest_str`] over raw bytes; non-UTF-8 input is an I/O error, as it is
/// for the reference line reader.
pub fn ingest_slice(buf: &[u8], cfg: &IngestConfig) -> Result<Ingest, ReadError> {
    ingest_str(utf8(buf)?, cfg)
}

/// Parse to owned records (no interning), in input order — the streaming
/// path wants [`CommentRecord`]s it can sort and replay.
pub fn ingest_records_slice(
    buf: &[u8],
    cfg: &IngestConfig,
) -> Result<(Vec<CommentRecord>, IngestStats), ReadError> {
    let text = utf8(buf)?;
    let _stage = obs::span("ingest");
    let mut records = Vec::new();
    let stats = for_each_record(text, cfg.skip_bad_lines, |author, link_id, ts| {
        records.push(CommentRecord::new(author, link_id, ts));
    })
    .map_err(parse_error)?;
    record_ingest_stats(&stats);
    Ok((records, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::read_ndjson_into_dataset;

    fn line(author: &str, page: &str, ts: i64) -> String {
        format!("{{\"author\":\"{author}\",\"link_id\":\"{page}\",\"created_utc\":{ts}}}")
    }

    fn names(i: &Interner) -> Vec<String> {
        i.iter().map(|(_, n)| n.to_owned()).collect()
    }

    fn assert_same(a: &Dataset, b: &Dataset) {
        assert_eq!(a.events, b.events);
        assert_eq!(names(&a.authors), names(&b.authors));
        assert_eq!(names(&a.pages), names(&b.pages));
    }

    #[test]
    fn scanner_reads_plain_records() {
        let r = scan_record(r#"{"author":"alice","link_id":"t3_x","created_utc":99}"#).unwrap();
        assert_eq!(r.author, "alice");
        assert_eq!(r.link_id, "t3_x");
        assert_eq!(r.created_utc, 99);
    }

    #[test]
    fn scanner_skips_unused_fields_of_every_shape() {
        let line = concat!(
            r#"{"score":-3,"body":"no escapes here","edited":false,"gildings":{"a":[1,2.5e3]},"#,
            r#""author":"a","tags":[null,true,{"k":"v"}],"link_id":"p","created_utc":7}"#
        );
        let r = scan_record(line).unwrap();
        assert_eq!((r.author, r.link_id, r.created_utc), ("a", "p", 7));
    }

    #[test]
    fn scanner_bails_to_serde_on_escapes_and_floats() {
        // escape in a needed field
        assert_eq!(
            scan_record(r#"{"author":"a\"b","link_id":"p","created_utc":1}"#),
            None
        );
        // escape in a skipped field
        assert_eq!(
            scan_record(r#"{"body":"say \"hi\"","author":"a","link_id":"p","created_utc":1}"#),
            None
        );
        // non-integer timestamp
        assert_eq!(
            scan_record(r#"{"author":"a","link_id":"p","created_utc":1.5}"#),
            None
        );
        // missing field
        assert_eq!(scan_record(r#"{"author":"a","created_utc":1}"#), None);
        // trailing garbage
        assert_eq!(
            scan_record(r#"{"author":"a","link_id":"p","created_utc":1} x"#),
            None
        );
    }

    #[test]
    fn scanner_reads_the_whole_i64_range_and_bails_past_it() {
        let ts = |ts: &str| {
            let text = format!(r#"{{"author":"a","link_id":"p","created_utc":{ts}}}"#);
            scan_record(&text).map(|r| r.created_utc)
        };
        assert_eq!(ts("-9223372036854775808"), Some(i64::MIN));
        assert_eq!(ts("9223372036854775807"), Some(i64::MAX));
        assert_eq!(ts("-0"), Some(0));
        assert_eq!(ts("9223372036854775808"), None);
        assert_eq!(ts("-9223372036854775809"), None);
        assert_eq!(ts("-"), None);
    }

    #[test]
    fn scanner_duplicate_keys_are_last_wins_like_serde() {
        let text = r#"{"author":"first","author":"second","link_id":"p","created_utc":1}"#;
        let r = scan_record(text).unwrap();
        let via_serde: CommentRecord = serde_json::from_str(text).unwrap();
        assert_eq!(r.author, via_serde.author);
        assert_eq!(r.author, "second");
    }

    #[test]
    fn fallback_accepts_what_the_scanner_punts_on() {
        let text = format!(
            "{}\n{}\n",
            r#"{"author":"a\\b","link_id":"p","created_utc":1}"#, // escaped backslash
            r#"{"author":"c","link_id":"p","created_utc":2.0}"#,  // integral float ts
        );
        let ing = ingest_str(&text, &IngestConfig::default()).unwrap();
        assert_eq!(ing.stats.events, 2);
        assert_eq!(ing.stats.scanner_fallbacks, 2);
        assert_eq!(ing.dataset.authors.name(0), "a\\b");
        assert_eq!(ing.dataset.events[1].ts, 2);
        assert_same(
            &ing.dataset,
            &read_ndjson_into_dataset(text.as_bytes()).unwrap(),
        );
    }

    #[test]
    fn ingest_matches_the_reference_reader() {
        let mut text = String::new();
        for i in 0..40 {
            text.push_str(&line(
                &format!("u{}", i % 7),
                &format!("p{}", (i * 3) % 11),
                i,
            ));
            text.push('\n');
        }
        text.push('\n'); // blank line
        text.push_str(&line("tail", "p0", 1000)); // no trailing newline
        let reference = read_ndjson_into_dataset(text.as_bytes()).unwrap();
        let ing = ingest_str(&text, &IngestConfig::default()).unwrap();
        assert_same(&ing.dataset, &reference);
        assert_eq!(ing.stats.events, 41);
        assert_eq!(ing.stats.lines, 42);
        assert_eq!(ing.stats.scanner_fallbacks, 0);
    }

    /// Which lines the scanner takes, which fall back, which count as blank
    /// and which are rejected must not depend on where the trim happens.
    #[test]
    fn whitespace_handling_is_the_reference_readers() {
        let good = line("a", "p", 1);
        let text = [
            format!("\u{a0}{good}"),         // non-JSON whitespace: scanned once trimmed
            format!("{good}\r"),             // CRLF ending: scanned as it stands
            format!(" \t{good} \u{2003}\r"), // both kinds, both ends
            "\u{a0} \t\r".to_owned(),        // whitespace only: blank, not a fallback
            String::new(),                   // empty: blank
            format!("{good} x"),             // trailing garbage: fallback, rejected
            format!("\u{b}{}", line("b\\\\c", "p", 2)), // padded *and* escaped: one fallback
        ]
        .join("\n");
        let cfg = IngestConfig {
            skip_bad_lines: true,
        };
        let ing = ingest_str(&text, &cfg).unwrap();
        assert_eq!(
            ing.stats,
            IngestStats {
                lines: 7,
                events: 4,
                skipped_lines: 1,
                scanner_fallbacks: 2,
            }
        );
        assert_eq!(names(&ing.dataset.authors), vec!["a", "b\\c"]);
        // Strict mode stops at the garbage line, as the reference reader does.
        let strict = ingest_str(&text, &IngestConfig::default());
        let reference = read_ndjson_into_dataset(text.as_bytes());
        match (strict, reference) {
            (Err(ReadError::Parse { line: a, .. }), Err(ReadError::Parse { line: b, .. })) => {
                assert_eq!((a, b), (6, 6));
            }
            other => panic!("expected two parse errors, got {other:?}"),
        }
    }

    #[test]
    fn parse_errors_carry_their_line_number() {
        let good = line("u", "p", 1);
        for (bad_at, n) in [(1, 9), (7, 9), (9, 9)] {
            let text: String = (1..=n)
                .map(|i| {
                    if i == bad_at {
                        "definitely not json"
                    } else {
                        &good
                    }
                })
                .map(|l| format!("{l}\n"))
                .collect();
            match ingest_str(&text, &IngestConfig::default()) {
                Err(ReadError::Parse { line, .. }) => assert_eq!(line, bad_at),
                other => panic!("expected parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn skip_bad_lines_counts_instead_of_aborting() {
        let text = format!(
            "{}\nnot json\n{}\n{{\"author\":3}}\n{}\n",
            line("a", "p", 1),
            line("b", "q", 2),
            line("c", "p", 3)
        );
        let cfg = IngestConfig {
            skip_bad_lines: true,
        };
        let ing = ingest_str(&text, &cfg).unwrap();
        assert_eq!(ing.stats.events, 3);
        assert_eq!(ing.stats.skipped_lines, 2);
        assert_eq!(ing.stats.lines, 5);
        assert_eq!(names(&ing.dataset.authors), vec!["a", "b", "c"]);
    }

    #[test]
    fn empty_and_blank_inputs() {
        let ing = ingest_str("", &IngestConfig::default()).unwrap();
        assert!(ing.dataset.is_empty());
        assert_eq!(ing.stats.lines, 0);
        let ing = ingest_str("\n  \n\n", &IngestConfig::default()).unwrap();
        assert!(ing.dataset.is_empty());
        assert_eq!(ing.stats.lines, 3);
    }

    #[test]
    fn non_utf8_is_an_io_error() {
        let bad = [b'{', 0xFF, 0xFE, b'}'];
        match ingest_slice(&bad, &IngestConfig::default()) {
            Err(ReadError::Io(_)) => {}
            other => panic!("expected io error, got {other:?}"),
        }
    }

    #[test]
    fn records_driver_preserves_input_order_and_stats() {
        let text = format!("{}\njunk\n{}\n", line("z", "p", 5), line("a", "q", 1));
        let cfg = IngestConfig {
            skip_bad_lines: true,
        };
        let (records, stats) = ingest_records_slice(text.as_bytes(), &cfg).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0], CommentRecord::new("z", "p", 5));
        assert_eq!(records[1], CommentRecord::new("a", "q", 1));
        assert_eq!(stats.skipped_lines, 1);
    }
}
