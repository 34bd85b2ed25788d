//! NDJSON ingest: a zero-copy field scanner on one thread feeding an
//! in-order interning pass on another, one chunk of text at a time.
//!
//! The paper's raw input is a month of pushshift.io Reddit comments — tens of
//! GB of NDJSON, distributed compressed, so the natural feed is a
//! decompressor's pipe — and turning its names into dense ids is the first
//! thing every run pays. The reference reader in [`crate::records`] spends one
//! `serde_json` parse and two `String`s per line on it; this module is the
//! production path. Three pieces:
//!
//! 1. **The scanner.** [`scan_record`] extracts only `author`, `link_id` and
//!    `created_utc` from a line without allocating or building a value tree
//!    for the dozens of unused pushshift fields. The scanner is deliberately
//!    conservative: any construct it is not certain about (escape sequences,
//!    non-integer timestamps, malformed syntax) makes it bail, and the line
//!    is re-parsed by `serde_json` — so the fast path can never change what
//!    gets accepted or rejected. It also ends its own line: `\n` is not in
//!    its whitespace set and stops a string, so the pass scans a record off
//!    the front of what is left of the text and only a line the scanner does
//!    not take searches for its `\n`.
//! 2. **The scan stage.** One scoped worker thread takes the input a piece
//!    at a time — each piece a run of whole lines — validates it as UTF-8
//!    and scans it into a batch: each record's timestamp and the ends of its
//!    two names, copied back to back into the batch's own string. It counts
//!    lines across pieces, so a parse error's 1-based line number is the
//!    file's. [`ingest_reader`] reads through one reused buffer (`CHUNK`
//!    bytes; a line longer than it doubles the buffer), cuts at the last
//!    `\n` and moves the unterminated tail to the front — so ingest holds the
//!    dataset plus one chunk of text and two batches of names, never the
//!    file, and reads a pipe as readily as a path. [`ingest_slice`] scans
//!    pieces borrowed from the slice, cut at a `\n` about every `CHUNK`
//!    bytes.
//! 3. **The interning stage.** The calling thread interns each batch's
//!    `author`s and `link_id`s straight into the final [`Dataset`]'s
//!    arena-backed [`Interner`]s and pushes its [`Event`]s, batch after batch
//!    in input order, so global first-occurrence ids — exactly the ids the
//!    reference reader assigns — fall out by construction, with no merge and
//!    no remap. It takes a batch's records a few at a time (`SCAN_AHEAD`) so
//!    that the lookups' cache misses overlap, then hands the emptied batch
//!    back to be refilled: the pass allocates its two batches once.
//!
//! **The first fault in file order wins, at any chunking.** A piece that
//! fails UTF-8 validation first has its complete lines before the bad byte
//! scanned — a malformed line among them is the earlier fault and is
//! reported as [`ReadError::Parse`] — and only then returns
//! [`ReadError::Io`] naming the line and the file-absolute byte offset: what
//! the reference reader, which validates line by line, reports. The scan
//! stage stops at its first fault, so no later piece is read.
//!
//! **Two threads, always.** Read + UTF-8 + scan is about half of a serial
//! pass on a 1 M-line month, and interning in order — the part that cannot
//! be split — the other half, so the stages overlap on two cores and ingest
//! takes about as long as interning does. There is exactly one worker, with
//! no setting and no serial fallback: on one core the two stages take turns,
//! at a few percent over what the serial pass cost. The
//! worker's counters (`ingest.scan_wait_ns`: waiting for a free batch) and
//! the calling thread's (`ingest.intern_wait_ns`: waiting for a scanned one)
//! say which stage bounds a run. An error on either side ends the pass with
//! nothing partial returned, and a panic on either side reaches the caller
//! once both have stopped.
//!
//! A strict-vs-lossy switch ([`IngestConfig::skip_bad_lines`]) lets multi-hour
//! archive runs count and skip malformed lines instead of aborting on line 80
//! million; the default remains strict, matching the reference reader.

use std::borrow::Cow;
use std::io::{ErrorKind, Read};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// Index of the first `"`, `\\` or `\n` in `bytes`, eight bytes at a time: the
/// bytes that end a string the scanner can borrow — its closing quote, an
/// escape, or the end of the line it is on.
fn find_string_stop(bytes: &[u8]) -> Option<usize> {
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
        let hit = hits(w, b'"') | hits(w, b'\\') | hits(w, b'\n');
        if hit != 0 {
            return Some(at + hit.trailing_zeros() as usize / 8);
        }
        at += 8;
    }
    bytes[at..]
        .iter()
        .position(|&b| matches!(b, b'"' | b'\\' | b'\n'))
        .map(|i| at + i)
}

/// Byte cursor over the text a record is scanned off the front of: one line,
/// or what is left of a piece. No helper steps over a `\n`, so the scan stays
/// on the first line whatever follows it. All helpers return `None`/`false`
/// to signal "bail to serde" — the scanner never errors on its own.
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// The whitespace of the JSON parser this falls back to that can occur
    /// inside a line.
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    /// A string with no escape sequences, returned as a borrowed slice.
    /// Bails on the first backslash — unescaping needs an allocation and the
    /// serde fallback already knows how to do it — and at the end of the
    /// line: the string is unterminated.
    fn simple_string(&mut self) -> Option<&'a str> {
        if !self.eat(b'"') {
            return None;
        }
        let start = self.pos;
        let rest = &self.text.as_bytes()[start..];
        let len = find_string_stop(rest)?;
        if rest[len] != b'"' {
            return None;
        }
        self.pos = start + len + 1;
        // Both bounds sit next to '"' bytes, which never occur inside a
        // multi-byte sequence, so this is always a char-boundary slice.
        self.text.get(start..start + len)
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
            return self.text.get(start..self.pos)?.parse().ok();
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

/// Scan one record off the front of `text`: its three fields plus what is
/// left of `text` after the record's line. The record must end its line —
/// only JSON whitespace between it and the `\n` or the end of `text` — so
/// the outcome is [`scan_record`]'s on that line alone, whatever follows.
fn scan_prefix(text: &str) -> Option<(RecordRef<'_>, &str)> {
    let mut c = Cursor { text, pos: 0 };
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
    let next_line = match c.peek() {
        None => c.pos,
        Some(b'\n') => c.pos + 1,
        Some(_) => return None, // trailing garbage: serde turns this into a parse error
    };
    let record = RecordRef {
        author: author?,
        link_id: link_id?,
        created_utc: created_utc?,
    };
    Some((record, &text[next_line..]))
}

/// Extract `author`, `link_id` and `created_utc` from one NDJSON line without
/// allocating. Returns `None` whenever the line contains *anything* the
/// scanner is not certain about (escapes in a needed string, a non-integer
/// timestamp, unusual syntax, a `\n` anywhere but at its end); the caller
/// then re-parses with `serde_json`, which makes the accept/reject decision.
/// Duplicate keys follow last-occurrence-wins, matching the fallback's object
/// semantics.
pub fn scan_record(line: &str) -> Option<RecordRef<'_>> {
    let (record, rest) = scan_prefix(line)?;
    rest.is_empty().then_some(record)
}

// ---------------------------------------------------------------- the pass

/// A record's three fields: borrowed from the piece when the scanner took
/// the line, owned when `serde_json` had to unescape it.
type Scanned<'a> = (Cow<'a, str>, Cow<'a, str>, Timestamp);

/// Parse every line of `text` in order, feeding each record to `emit` and
/// counting into `st`, whose line count runs on from the pieces before this
/// one — so a strict-mode parse failure carries the input's 1-based line
/// number.
fn for_each_record<'a>(
    text: &'a str,
    skip_bad: bool,
    st: &mut IngestStats,
    mut emit: impl FnMut(Scanned<'a>),
) -> Result<(), ReadError> {
    let mut rest = text;
    while !rest.is_empty() {
        st.lines += 1;
        if let Some((r, after)) = scan_prefix(rest) {
            rest = after;
            emit((r.author.into(), r.link_id.into(), r.created_utc));
            st.events += 1;
            continue;
        }
        // Only a line the scanner did not take as it stands looks for its
        // end and pays for the Unicode-aware `trim` the reference reader
        // applies: blank ones, ones padded with non-JSON whitespace
        // (rescanned once trimmed) and true fallbacks.
        let (line, after) = rest.split_once('\n').unwrap_or((rest, ""));
        rest = after;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let rescanned = if trimmed.len() != line.len() {
            scan_record(trimmed)
        } else {
            None
        };
        let scanned = match rescanned {
            Some(r) => (r.author.into(), r.link_id.into(), r.created_utc),
            None => {
                st.scanner_fallbacks += 1;
                match serde_json::from_str::<CommentRecord>(trimmed) {
                    Ok(rec) => (rec.author.into(), rec.link_id.into(), rec.created_utc),
                    Err(_) if skip_bad => {
                        st.skipped_lines += 1;
                        continue;
                    }
                    Err(source) => {
                        return Err(ReadError::Parse {
                            line: st.lines as usize,
                            source,
                        })
                    }
                }
            }
        };
        emit(scanned);
        st.events += 1;
    }
    Ok(())
}

/// How many records the interning stage hands its sink at a time. A lookup
/// in a month-sized name table is a chain of cache misses (slot → offsets →
/// arena); looking a few lines' names up back to back lets those chains
/// overlap instead of each waiting behind the next. Measured on the serial
/// pass over 1 M lines / 150 K authors: 1 → 4 → 16 lines at a time is 242 →
/// 175 → 170 ns per line, flat beyond.
const SCAN_AHEAD: usize = 16;

/// Where a pass puts its records: a window of at most [`SCAN_AHEAD`] at a
/// time, in input order.
trait Sink {
    /// Consume `ahead`, leaving it empty.
    fn take(&mut self, ahead: &mut Vec<Scanned<'_>>);
}

/// Interns names straight into the resulting [`Dataset`], whose ids are
/// therefore in first-occurrence order — authors and pages are separate id
/// spaces, so interning a few lines' authors and then the same lines' pages
/// assigns what interning line by line would.
struct Interning {
    authors: Interner,
    pages: Interner,
    events: Vec<Event>,
}

impl Interning {
    fn new() -> Self {
        Interning {
            authors: Interner::new(),
            pages: Interner::new(),
            events: Vec::new(),
        }
    }
}

impl Sink for Interning {
    fn take(&mut self, ahead: &mut Vec<Scanned<'_>>) {
        let first = self.events.len();
        self.events.extend(ahead.iter().map(|(author, _, ts)| {
            Event::new(AuthorId(self.authors.intern(author)), PageId(0), *ts)
        }));
        for (event, (_, link_id, _)) in self.events[first..].iter_mut().zip(ahead.iter()) {
            event.page = PageId(self.pages.intern(link_id));
        }
        ahead.clear();
    }
}

/// Owned records, no interning — the streaming path wants
/// [`CommentRecord`]s it can sort and replay.
impl Sink for Vec<CommentRecord> {
    fn take(&mut self, ahead: &mut Vec<Scanned<'_>>) {
        self.extend(
            ahead
                .drain(..)
                .map(|(author, link_id, ts)| CommentRecord::new(author, link_id, ts)),
        );
    }
}

// ---------------------------------------------------------------- batches

/// One scanned record in a [`Batch`]: its author is the batch's names from
/// the previous record's `page_end` to `author_end`, its page the names from
/// there to `page_end`.
struct Record {
    author_end: usize,
    page_end: usize,
    ts: Timestamp,
}

/// What passes between the two stages: the records of a run of whole lines,
/// in input order, with their names copied out of the text back to back. The
/// interning stage hands each batch back emptied, so the pass allocates its
/// [`BATCHES`] batches once, on the calling thread.
struct Batch {
    names: String,
    records: Vec<Record>,
}

/// Batches in flight: one being filled while the other is interned.
const BATCHES: usize = 2;

/// Bytes of input read and scanned at a time. Measured flat between 256 KiB
/// and 4 MiB on a 60 MB month, slower at 16 MiB.
const CHUNK: usize = 1 << 20;

impl Batch {
    /// An empty batch with room for the records of `bytes` of text: a record
    /// line is at least 42 bytes (`{"author":"","link_id":"","created_utc":0}`),
    /// and its names are a part of it. Memory is only resident once written.
    fn with_room_for(bytes: usize) -> Batch {
        Batch {
            names: String::with_capacity(bytes),
            records: Vec::with_capacity(bytes / 42 + 1),
        }
    }
}

// ---------------------------------------------------------------- scan stage

/// What the scan stage counted.
#[derive(Default)]
struct ScanTally {
    stats: IngestStats,
    bytes: u64,
    chunks: u64,
    /// Time spent waiting for the interning stage to free a batch.
    wait: Duration,
}

/// The scan stage, on the pass's worker thread: it scans the input a piece
/// — a run of whole lines — at a time into an empty batch and hands the batch
/// to the interning stage, in input order, counting as it goes. Its line
/// count runs on from piece to piece, so a parse error's 1-based line number
/// is the input's.
struct Scan {
    skip_bad: bool,
    tally: ScanTally,
    free: Receiver<Batch>,
    full: SyncSender<Batch>,
}

/// The scan stage's error once the interning stage has hung up, which it does
/// only by panicking — so this is never what the caller sees.
fn hung_up<E>(_: E) -> ReadError {
    ReadError::Io(std::io::Error::other("the interning stage stopped"))
}

impl Scan {
    /// Scan `piece` — whole lines, the last of which may lack its `\n` only
    /// at the end of the input — into a batch and hand it over. A strict-mode
    /// parse error ends the pass here.
    fn feed(&mut self, piece: &str) -> Result<(), ReadError> {
        let start = Instant::now();
        let batch = self.free.recv();
        self.tally.wait += start.elapsed();
        let mut batch = batch.map_err(hung_up)?;
        self.tally.bytes += piece.len() as u64;
        self.tally.chunks += 1;
        for_each_record(
            piece,
            self.skip_bad,
            &mut self.tally.stats,
            |(author, page, ts)| {
                batch.names.push_str(&author);
                let author_end = batch.names.len();
                batch.names.push_str(&page);
                let page_end = batch.names.len();
                batch.records.push(Record {
                    author_end,
                    page_end,
                    ts,
                });
            },
        )?;
        self.full.send(batch).map_err(hung_up)
    }

    /// [`Scan::feed`] over raw bytes that start `offset` bytes into the
    /// input. Non-UTF-8 input is an I/O error, as it is for the reference
    /// line reader — reported after the complete lines before the bad byte
    /// have been scanned, so a malformed line among them, being the earlier
    /// fault, is the one reported.
    fn feed_bytes(&mut self, bytes: &[u8], offset: u64) -> Result<(), ReadError> {
        let fault = match std::str::from_utf8(bytes) {
            Ok(text) => return self.feed(text),
            Err(e) => e.valid_up_to(),
        };
        let whole_lines = bytes[..fault]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        let before = std::str::from_utf8(&bytes[..whole_lines])
            .expect("a prefix of the valid prefix, cut after an ASCII byte");
        self.feed(before)?;
        Err(ReadError::Io(std::io::Error::new(
            ErrorKind::InvalidData,
            format!(
                "input is not valid UTF-8 on line {}, at byte {}",
                self.tally.stats.lines + 1,
                offset + fault as u64
            ),
        )))
    }
}

/// The scan stage over everything `reader` yields, through one reused buffer
/// of `capacity` bytes: fill it, cut at the last `\n`, feed that prefix, move
/// the unterminated tail to the front. A line longer than the buffer doubles
/// it. [`ErrorKind::Interrupted`] is retried; any other read error ends the
/// run.
fn read_chunks(mut reader: impl Read, mut buf: Vec<u8>, scan: &mut Scan) -> Result<(), ReadError> {
    // `buf[..filled]` is input not yet fed, `offset` bytes into the input;
    // its first `tail` bytes are known to hold no `\n`.
    let (mut filled, mut tail, mut offset) = (0, 0, 0u64);
    loop {
        let mut eof = false;
        while filled < buf.len() && !eof {
            match reader.read(&mut buf[filled..]) {
                Ok(0) => eof = true,
                Ok(n) => filled += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(ReadError::Io(e)),
            }
        }
        let cut = if eof {
            filled
        } else if let Some(i) = buf[tail..filled].iter().rposition(|&b| b == b'\n') {
            tail + i + 1
        } else {
            tail = filled;
            buf.resize(buf.len() * 2, 0);
            continue;
        };
        if cut > 0 {
            scan.feed_bytes(&buf[..cut], offset)?;
        }
        if eof {
            return Ok(());
        }
        buf.copy_within(cut..filled, 0);
        filled -= cut;
        tail = filled;
        offset += cut as u64;
    }
}

/// The scan stage over `bytes` in memory, in pieces that each run to the
/// first `\n` at least `piece` bytes in, or to the end.
fn slice_pieces(bytes: &[u8], piece: usize, scan: &mut Scan) -> Result<(), ReadError> {
    let mut at = 0;
    while at < bytes.len() {
        let rest = &bytes[at..];
        let end = rest
            .get(piece..)
            .and_then(|after| after.iter().position(|&b| b == b'\n'))
            .map_or(rest.len(), |i| piece + i + 1);
        scan.feed_bytes(&rest[..end], at as u64)?;
        at += end;
    }
    Ok(())
}

// ---------------------------------------------------------------- interning stage

/// Intern `batch` into `sink` in input order, [`SCAN_AHEAD`] records at a
/// time, and empty it for the scan stage to refill.
fn intern<S: Sink>(sink: &mut S, batch: &mut Batch) {
    let names = batch.names.as_str();
    let mut start = 0;
    let mut ahead = Vec::with_capacity(SCAN_AHEAD);
    for window in batch.records.chunks(SCAN_AHEAD) {
        ahead.extend(window.iter().map(|r| {
            let author = &names[start..r.author_end];
            start = r.page_end;
            (
                Cow::Borrowed(author),
                Cow::Borrowed(&names[r.author_end..r.page_end]),
                r.ts,
            )
        }));
        sink.take(&mut ahead);
    }
    batch.names.clear();
    batch.records.clear();
}

/// One run of the pass under the `ingest` span, which covers the read: `scan`
/// on one scoped worker thread, interning into `sink` on this one, with
/// [`BATCHES`] batches sized for `piece` bytes of text between them. Ids are
/// interned in input order, so they are first-occurrence ids by construction.
/// An error ends the pass with nothing partial returned — a scan thread the
/// OS will not start is [`ReadError::Io`] — and a panic on either side
/// reaches the caller once both stages have stopped. The run's counters
/// go through the metrics registry, making lossy runs (`--skip-bad-lines`)
/// auditable in the run report rather than stderr-only; counter registration
/// is unconditional so every documented `ingest.*` name appears in the report
/// even when it stays 0.
fn run<S: Sink>(
    mut sink: S,
    cfg: &IngestConfig,
    piece: usize,
    scan: impl FnOnce(&mut Scan) -> Result<(), ReadError> + Send,
) -> Result<(S, IngestStats), ReadError> {
    let _stage = obs::span("ingest");
    let skip_bad = cfg.skip_bad_lines;
    let (tally, intern_wait) = std::thread::scope(|s| -> Result<_, ReadError> {
        // Both channels live in this closure, so a panic here hangs them up
        // and the worker stops at its next send or receive.
        let (free_tx, free_rx) = sync_channel(BATCHES);
        let (full_tx, full_rx) = sync_channel(BATCHES);
        for _ in 0..BATCHES {
            free_tx
                .send(Batch::with_room_for(piece))
                .expect("a slot for every batch");
        }
        let worker = std::thread::Builder::new()
            .name("ingest-scan".into())
            .spawn_scoped(s, move || {
                let mut stage = Scan {
                    skip_bad,
                    tally: ScanTally::default(),
                    free: free_rx,
                    full: full_tx,
                };
                scan(&mut stage).map(|()| stage.tally)
            })
            .map_err(ReadError::Io)?;
        let mut wait = Duration::ZERO;
        loop {
            let start = Instant::now();
            let batch = full_rx.recv();
            wait += start.elapsed();
            let Ok(mut batch) = batch else { break };
            intern(&mut sink, &mut batch);
            // The scan stage may have finished: a batch it will not refill
            // is dropped here.
            let _ = free_tx.send(batch);
        }
        match worker.join() {
            Ok(tally) => Ok((tally?, wait)),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })?;
    let nanos = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
    obs::counter("ingest.bytes").add(tally.bytes);
    obs::counter("ingest.chunks").add(tally.chunks);
    obs::counter("ingest.lines").add(tally.stats.lines);
    obs::counter("ingest.events").add(tally.stats.events);
    obs::counter("ingest.skipped_lines").add(tally.stats.skipped_lines);
    obs::counter("ingest.scanner_fallbacks").add(tally.stats.scanner_fallbacks);
    obs::counter("ingest.intern_wait_ns").add(nanos(intern_wait));
    obs::counter("ingest.scan_wait_ns").add(nanos(tally.wait));
    obs::record_stage_rss("ingest");
    Ok((sink, tally.stats))
}

/// The pass over `reader`, read through a buffer of `capacity` bytes.
fn read_run<S: Sink>(
    sink: S,
    reader: impl Read + Send,
    capacity: usize,
    cfg: &IngestConfig,
) -> Result<(S, IngestStats), ReadError> {
    // Allocated here, on the calling thread, as the batches are.
    let buf = vec![0u8; capacity];
    run(sink, cfg, capacity, |scan| read_chunks(reader, buf, scan))
}

/// The pass over `bytes`, in pieces of about `piece` bytes.
fn slice_run<S: Sink>(
    sink: S,
    bytes: &[u8],
    piece: usize,
    cfg: &IngestConfig,
) -> Result<(S, IngestStats), ReadError> {
    run(sink, cfg, piece, |scan| slice_pieces(bytes, piece, scan))
}

// ---------------------------------------------------------------- drivers

fn into_ingest((sink, stats): (Interning, IngestStats)) -> Ingest {
    Ingest {
        dataset: Dataset {
            authors: Arc::new(sink.authors),
            pages: Arc::new(sink.pages),
            events: sink.events,
        },
        stats,
    }
}

/// Ingest NDJSON from `reader` — a file, a pipe — into a [`Dataset`] in one
/// in-order pass, holding one chunk of text at a time: a worker thread reads
/// and scans it while this thread interns the chunk before. Names get their
/// ids where they first occur, so the output is identical to the reference
/// reader's ([`crate::records::read_ndjson_into_dataset`]), and so is the
/// fault reported: the first in file order, a malformed line as
/// [`ReadError::Parse`] and a non-UTF-8 one as [`ReadError::Io`]. Nothing
/// partial is returned on an error, and a panic in `reader` reaches the
/// caller.
pub fn ingest_reader(reader: impl Read + Send, cfg: &IngestConfig) -> Result<Ingest, ReadError> {
    read_run(Interning::new(), reader, CHUNK, cfg).map(into_ingest)
}

/// [`ingest_reader`] over bytes already in memory: the same pass, scanning
/// pieces borrowed from `buf` instead of read.
pub fn ingest_slice(buf: &[u8], cfg: &IngestConfig) -> Result<Ingest, ReadError> {
    slice_run(Interning::new(), buf, CHUNK, cfg).map(into_ingest)
}

/// [`ingest_reader`] to owned records (no interning), in input order.
pub fn ingest_records_reader(
    reader: impl Read + Send,
    cfg: &IngestConfig,
) -> Result<(Vec<CommentRecord>, IngestStats), ReadError> {
    read_run(Vec::new(), reader, CHUNK, cfg)
}

/// [`ingest_records_reader`] over raw bytes already in memory.
pub fn ingest_records_slice(
    buf: &[u8],
    cfg: &IngestConfig,
) -> Result<(Vec<CommentRecord>, IngestStats), ReadError> {
    slice_run(Vec::new(), buf, CHUNK, cfg)
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

    /// The chunk reader at a private `capacity`, to put a buffer end — and
    /// so a cut — at every place a 1 MiB chunk would only rarely put one.
    fn ingest_chunked(
        bytes: &[u8],
        capacity: usize,
        cfg: &IngestConfig,
    ) -> Result<Ingest, ReadError> {
        read_run(Interning::new(), bytes, capacity, cfg).map(into_ingest)
    }

    /// [`ingest_slice`] cutting its pieces about every `piece` bytes.
    fn ingest_sliced(bytes: &[u8], piece: usize, cfg: &IngestConfig) -> Result<Ingest, ReadError> {
        slice_run(Interning::new(), bytes, piece, cfg).map(into_ingest)
    }

    /// A finished run, in full: names in id order, events, counters.
    #[derive(Debug, PartialEq)]
    struct Ended {
        authors: Vec<String>,
        pages: Vec<String>,
        events: Vec<Event>,
        stats: IngestStats,
    }

    /// How a run ended: what it produced, or the error, worded.
    fn outcome(r: Result<Ingest, ReadError>) -> Result<Ended, String> {
        r.map(|ing| Ended {
            authors: names(&ing.dataset.authors),
            pages: names(&ing.dataset.pages),
            events: ing.dataset.events,
            stats: ing.stats,
        })
        .map_err(|e| e.to_string())
    }

    /// At every capacity, strict and lossy, the chunk reader ends as the
    /// one-piece pass does — and as the reference reader does, where that has
    /// a say (it has no lossy mode and does not number a non-UTF-8 line).
    fn assert_every_capacity_matches(bytes: &[u8], capacities: impl IntoIterator<Item = usize>) {
        let strict = IngestConfig::default();
        let lossy = IngestConfig {
            skip_bad_lines: true,
        };
        let whole = [&strict, &lossy].map(|cfg| outcome(ingest_slice(bytes, cfg)));
        match (read_ndjson_into_dataset(bytes), &whole[0]) {
            (Ok(reference), Ok(ended)) => {
                assert_eq!(names(&reference.authors), ended.authors);
                assert_eq!(names(&reference.pages), ended.pages);
                assert_eq!(reference.events, ended.events);
            }
            (Err(reference), Err(message)) => match reference {
                ReadError::Parse { .. } => assert_eq!(&reference.to_string(), message),
                ReadError::Io(_) => assert!(message.contains("not valid UTF-8"), "{message}"),
            },
            (reference, whole) => panic!("reference {reference:?}, one piece {whole:?}"),
        }
        for capacity in capacities {
            for (cfg, whole) in [&strict, &lossy].into_iter().zip(&whole) {
                let chunked = outcome(ingest_chunked(bytes, capacity, cfg));
                assert_eq!(&chunked, whole, "capacity {capacity}, {cfg:?}");
                let sliced = outcome(ingest_sliced(bytes, capacity, cfg));
                assert_eq!(&sliced, whole, "slice pieces of {capacity}, {cfg:?}");
            }
        }
    }

    const CAPACITIES: [usize; 5] = [1, 2, 7, 64, 4096];

    /// Record lines in every spelling the tests of this module use, one
    /// each: taken by the scanner, handed to serde, rejected by both.
    fn corpus_lines() -> Vec<String> {
        let good = line("a", "p", 1);
        vec![
            good.clone(),
            line("uni—codé✓", "t3_ü", -7),
            format!("{good}\r"),
            format!(" \t{good} \t"),
            format!("\u{a0}{good}\u{2003}"),
            concat!(
                r#"{"score":-3,"body":"no escapes here","edited":false,"gildings":{"a":[1,2.5e3]},"#,
                r#""author":"a","tags":[null,true,{"k":"v"}],"link_id":"p","created_utc":7}"#
            )
            .to_owned(),
            r#"{"author":"first","author":"second","link_id":"p","created_utc":1}"#.to_owned(),
            r#"{"author":"a\\b","link_id":"p","created_utc":1}"#.to_owned(),
            r#"{"body":"say \"hi\"","author":"a","link_id":"p","created_utc":1}"#.to_owned(),
            r#"{"author":"c","link_id":"p","created_utc":2.0}"#.to_owned(),
            r#"{"author":"a","link_id":"p","created_utc":9223372036854775808}"#.to_owned(),
            r#"{"author":"a","created_utc":1}"#.to_owned(),
            format!("{good} x"),
            format!("{good}{good}"),
            r#"{"author":"a","link_id":"p","created_utc":1"#.to_owned(),
            r#"{"author":"a","link_id":"p"#.to_owned(),
            "{}".to_owned(),
            "definitely not json".to_owned(),
            "\u{a0} \t\r".to_owned(),
            String::new(),
        ]
    }

    #[test]
    fn prefix_scan_of_a_line_and_whatever_follows_is_the_scan_of_the_line() {
        let lines = corpus_lines();
        let mut taken = 0;
        for line in &lines {
            let alone = scan_record(line);
            taken += usize::from(alone.is_some());
            for junk in lines
                .iter()
                .map(String::as_str)
                .chain(["\n", "\"", "}", "\\"])
            {
                let text = format!("{line}\n{junk}");
                let prefix = scan_prefix(&text);
                assert_eq!(prefix.map(|(r, _)| r), alone, "{text:?}");
                if let Some((_, rest)) = prefix {
                    assert_eq!(rest, junk, "{text:?}");
                }
                // the public scanner takes a line, not a prefix
                assert_eq!(
                    scan_record(&text),
                    alone.filter(|_| junk.is_empty()),
                    "{text:?}"
                );
            }
        }
        assert_eq!(taken, 6, "the corpus exercises both outcomes");
    }

    /// The scanner never steps over a `\n`: a record broken over two
    /// physical lines is two malformed lines, a raw newline inside a string
    /// likewise, and a line holding two records is serde's to reject.
    #[test]
    fn lines_the_scanner_does_not_end_reach_serde() {
        let lossy = IngestConfig {
            skip_bad_lines: true,
        };
        let good = line("a", "p", 1);
        for (text, lines, events) in [
            (
                "{\"author\":\"a\",\n\"link_id\":\"p\",\"created_utc\":1}\n".to_owned(),
                2,
                0,
            ),
            (
                "{\"author\":\"a\nb\",\"link_id\":\"p\",\"created_utc\":1}\n".to_owned(),
                2,
                0,
            ),
            (format!("{good}{good}\n{good}\n"), 2, 1),
        ] {
            let ing = ingest_slice(text.as_bytes(), &lossy).unwrap();
            let expected = IngestStats {
                lines,
                events,
                skipped_lines: lines - events,
                scanner_fallbacks: lines - events,
            };
            assert_eq!(ing.stats, expected, "{text:?}");
            assert_every_capacity_matches(text.as_bytes(), CAPACITIES);
        }
    }

    /// Every line of the corpus in one file — so the strict run stops at
    /// the first rejected line, the lossy one counts them all — and each
    /// accepted prefix of it, with and without the final newline.
    #[test]
    fn every_capacity_ends_as_the_one_piece_pass_does() {
        let lines = corpus_lines();
        assert_every_capacity_matches(lines.join("\n").as_bytes(), CAPACITIES);
        let accepted: Vec<String> = lines
            .into_iter()
            .filter(|l| {
                l.trim().is_empty() || serde_json::from_str::<CommentRecord>(l.trim()).is_ok()
            })
            .collect();
        assert_eq!(accepted.len(), 12);
        for newline in ["", "\n", "\r\n"] {
            let text = accepted.join("\n") + newline;
            assert!(ingest_slice(text.as_bytes(), &IngestConfig::default()).is_ok());
            assert_every_capacity_matches(text.as_bytes(), CAPACITIES);
        }
        assert_every_capacity_matches(b"", CAPACITIES);
        assert_every_capacity_matches(b"\n", CAPACITIES);
    }

    /// CRLF endings and multi-byte names, at every capacity up to a few
    /// lines: every byte of the text — inside a character, between `\r` and
    /// `\n` — is where the buffer ends at some capacity.
    #[test]
    fn crlf_and_multibyte_characters_straddle_every_buffer_end() {
        let text: String = (0..6)
            .map(|i| format!("{}\r\n", line("uni—codé✓", &format!("t3_ü{}", i % 2), i)))
            .collect();
        assert_every_capacity_matches(text.as_bytes(), 1..=200);
        assert_every_capacity_matches(text.trim_end().as_bytes(), 1..=200);
    }

    /// The same two faults in either order, at every capacity: the earlier
    /// one is reported, with the file's line number and byte offset.
    #[test]
    fn the_first_fault_in_file_order_wins_at_any_chunking() {
        let good = line("a", "p", 1);
        let mut lines: Vec<&[u8]> = vec![good.as_bytes(); 12];
        lines[2] = b"not json";
        lines[9] = b"{\"author\":\"\xff\"}";
        let bytes = lines.join(&b'\n');
        let message = ingest_slice(&bytes, &IngestConfig::default())
            .unwrap_err()
            .to_string();
        assert!(message.starts_with("parse error on line 3"), "{message}");
        assert_every_capacity_matches(&bytes, 1..=128);

        lines.swap(2, 9);
        let bytes = lines.join(&b'\n');
        let message = ingest_slice(&bytes, &IngestConfig::default())
            .unwrap_err()
            .to_string();
        let offset = 2 * (good.len() + 1) + 11;
        assert!(
            message.ends_with(&format!("not valid UTF-8 on line 3, at byte {offset}")),
            "{message}"
        );
        assert_every_capacity_matches(&bytes, 1..=128);
    }

    /// `n` record lines, every third author and every fifth page new.
    fn lines(n: i64) -> String {
        (0..n)
            .map(|i| line(&format!("u{}", i / 3), &format!("p{}", i / 5), i) + "\n")
            .collect()
    }

    /// Hands out `text` in reads of at most `step` bytes, then fails the way
    /// `end` says.
    struct Then<'a, F> {
        text: &'a [u8],
        step: usize,
        end: F,
    }

    impl<F: FnMut() -> std::io::Error> Read for Then<'_, F> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.text.is_empty() {
                return Err((self.end)());
            }
            let n = self.step.min(buf.len()).min(self.text.len());
            buf[..n].copy_from_slice(&self.text[..n]);
            self.text = &self.text[n..];
            Ok(n)
        }
    }

    fn broken_pipe() -> std::io::Error {
        std::io::Error::new(ErrorKind::BrokenPipe, "the pipe went away")
    }

    /// A sink that counts what it takes and, from the window that brings its
    /// count to `hold_at`, waits until `open` says so.
    struct Held<S> {
        inner: S,
        seen: usize,
        hold_at: usize,
        open: Option<std::sync::mpsc::Receiver<()>>,
    }

    impl<S: Sink> Sink for Held<S> {
        fn take(&mut self, ahead: &mut Vec<Scanned<'_>>) {
            self.seen += ahead.len();
            if self.seen >= self.hold_at {
                if let Some(open) = self.open.take() {
                    let _ = open.recv();
                }
            }
            self.inner.take(ahead);
        }
    }

    /// The pass over `text`, read 7 bytes at a time into `capacity`-byte
    /// buffers by a reader that then fails — with a broken pipe, or a panic —
    /// into `sink`, held from its `hold_at`-th record until the reader has
    /// failed; a panic is caught. Also returns how many records the sink took.
    fn failing_run<S: Sink>(
        sink: S,
        text: &[u8],
        capacity: usize,
        panics: bool,
        hold_at: usize,
    ) -> (std::thread::Result<Result<IngestStats, ReadError>>, usize) {
        let (open, gate) = std::sync::mpsc::channel();
        let reader = Then {
            text,
            step: 7,
            end: move || {
                let _ = open.send(());
                if panics {
                    panic!("the reader gave up");
                }
                broken_pipe()
            },
        };
        let mut held = Held {
            inner: sink,
            seen: 0,
            hold_at,
            open: Some(gate),
        };
        let cfg = IngestConfig::default();
        let ended = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            read_run(&mut held, reader, capacity, &cfg).map(|(_, stats)| stats)
        }));
        (ended, held.seen)
    }

    impl<S: Sink> Sink for &mut S {
        fn take(&mut self, ahead: &mut Vec<Scanned<'_>>) {
            (**self).take(ahead);
        }
    }

    /// A reader that fails after many pieces while the interning stage is
    /// held inside the last batch the scan stage handed over: the failure
    /// meets scanned records that were never interned, and the typed error
    /// or the reader's panic reaches the caller — for both sinks — with
    /// nothing partial returned and no stage left waiting.
    #[test]
    fn a_reader_that_fails_with_records_in_flight_ends_the_run() {
        let text = lines(200);
        for capacity in [64, 300] {
            // Where the held run holds: the last record the sink takes, which
            // is in the last batch sent — the cuts do not depend on timing.
            let (ended, reached) =
                failing_run(Vec::new(), text.as_bytes(), capacity, false, usize::MAX);
            assert!(matches!(ended, Ok(Err(ReadError::Io(_)))), "{ended:?}");
            let per_piece = capacity / line("u0", "p0", 0).len();
            assert!(
                reached > 4 * per_piece,
                "capacity {capacity}: {reached} records"
            );
            for panics in [false, true] {
                let runs = [
                    failing_run(Interning::new(), text.as_bytes(), capacity, panics, reached),
                    failing_run(Vec::new(), text.as_bytes(), capacity, panics, reached),
                ];
                for (ended, seen) in runs {
                    assert_eq!(seen, reached, "capacity {capacity}");
                    match ended {
                        Err(panic) if panics => {
                            assert_eq!(panic.downcast_ref::<&str>(), Some(&"the reader gave up"))
                        }
                        Ok(Err(ReadError::Io(e))) if !panics => {
                            assert_eq!(e.kind(), ErrorKind::BrokenPipe)
                        }
                        other => panic!("capacity {capacity}, panics {panics}: {other:?}"),
                    }
                }
            }
        }
    }

    /// A panic in the interning stage reaches the caller, and the scan stage
    /// — blocked on a full channel or waiting for a free batch — stops.
    #[test]
    fn a_panic_while_interning_reaches_the_caller() {
        struct Explodes(usize);
        impl Sink for Explodes {
            fn take(&mut self, ahead: &mut Vec<Scanned<'_>>) {
                self.0 += ahead.len();
                assert!(self.0 < 40, "the sink gave up");
                ahead.clear();
            }
        }
        let text = lines(200);
        for capacity in [64, 300, CHUNK] {
            let ended = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                read_run(
                    Explodes(0),
                    text.as_bytes(),
                    capacity,
                    &IngestConfig::default(),
                )
                .map(|(_, stats)| stats)
            }));
            let panic = ended.expect_err("the sink panicked");
            assert_eq!(panic.downcast_ref::<&str>(), Some(&"the sink gave up"));
            let ended = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                slice_run(
                    Explodes(0),
                    text.as_bytes(),
                    capacity,
                    &IngestConfig::default(),
                )
                .map(|(_, stats)| stats)
            }));
            assert!(ended.is_err(), "capacity {capacity}");
        }
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
        let ing = ingest_slice(text.as_bytes(), &IngestConfig::default()).unwrap();
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
        let ing = ingest_slice(text.as_bytes(), &IngestConfig::default()).unwrap();
        assert_same(&ing.dataset, &reference);
        assert_eq!(ing.stats.events, 41);
        assert_eq!(ing.stats.lines, 42);
        assert_eq!(ing.stats.scanner_fallbacks, 0);
        assert_every_capacity_matches(text.as_bytes(), CAPACITIES);
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
        let ing = ingest_slice(text.as_bytes(), &cfg).unwrap();
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
        let strict = ingest_slice(text.as_bytes(), &IngestConfig::default());
        let reference = read_ndjson_into_dataset(text.as_bytes());
        match (strict, reference) {
            (Err(ReadError::Parse { line: a, .. }), Err(ReadError::Parse { line: b, .. })) => {
                assert_eq!((a, b), (6, 6));
            }
            other => panic!("expected two parse errors, got {other:?}"),
        }
        assert_every_capacity_matches(text.as_bytes(), CAPACITIES);
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
            match ingest_slice(text.as_bytes(), &IngestConfig::default()) {
                Err(ReadError::Parse { line, .. }) => assert_eq!(line, bad_at),
                other => panic!("expected parse error, got {other:?}"),
            }
            assert_every_capacity_matches(text.as_bytes(), CAPACITIES);
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
        let ing = ingest_slice(text.as_bytes(), &cfg).unwrap();
        assert_eq!(ing.stats.events, 3);
        assert_eq!(ing.stats.skipped_lines, 2);
        assert_eq!(ing.stats.lines, 5);
        assert_eq!(names(&ing.dataset.authors), vec!["a", "b", "c"]);
        assert_every_capacity_matches(text.as_bytes(), CAPACITIES);
    }

    #[test]
    fn empty_and_blank_inputs() {
        let ing = ingest_slice(b"", &IngestConfig::default()).unwrap();
        assert!(ing.dataset.is_empty());
        assert_eq!(ing.stats.lines, 0);
        let ing = ingest_slice(b"\n  \n\n", &IngestConfig::default()).unwrap();
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
