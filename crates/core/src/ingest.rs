//! NDJSON ingest: one RFC 8259 scanner on one thread feeding an in-order
//! interning pass on another, one chunk of text at a time.
//!
//! The paper's raw input is a month of pushshift.io Reddit comments — tens of
//! GB of NDJSON, distributed compressed, so the natural feed is a
//! decompressor's pipe — and turning its names into dense ids is the first
//! thing every run pays. Three pieces:
//!
//! 1. **The scanner.** [`scan_record`] reads a line in RFC 8259's grammar and
//!    keeps only `author`, `link_id` and `created_utc`, without building a
//!    value tree for the dozens of unused pushshift fields. It is the only
//!    JSON reader: every line is accepted or rejected here, a rejected one
//!    with a [`ParseError`] naming what failed at which byte. A name with no
//!    backslash is borrowed from the line; one with escapes is unescaped into
//!    an owned `String`. Arrays and objects in skipped fields are walked with
//!    a bit stack, not by recursion, and a line may nest 128 levels deep
//!    (RFC 8259 §9 lets a parser set that limit), so no line can exhaust the
//!    scan thread's stack. The scanner ends its own line: `\n` is not in its
//!    whitespace set and stops a string, so the pass scans a line off the
//!    front of what is left of the text, and only a rejected line searches
//!    for its `\n`.
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
//!    in input order, so global first-occurrence ids fall out by
//!    construction, with no merge and no remap. It takes a batch's records a
//!    few at a time (`SCAN_AHEAD`) so that the lookups' cache misses overlap,
//!    then hands the emptied batch back to be refilled: the pass allocates
//!    its two batches once.
//!
//! **What a line is.** Whitespace is JSON's — space, tab and `\r` inside a
//! line — so a line of nothing else is blank and skipped, and any other
//! padding (U+00A0, say) is an error. A record is an object holding the
//! three fields: the two names strings, `created_utc` an integer in `i64`
//! range, or a number with a fraction or exponent whose value is one
//! (`1577836800.0`, `1.5e9`). Of a duplicate key the last occurrence wins,
//! whatever the earlier ones held.
//!
//! **The first fault in file order wins, at any chunking.** A piece that
//! fails UTF-8 validation first has its complete lines before the bad byte
//! scanned — a malformed line among them is the earlier fault and is
//! reported as [`ReadError::Parse`] — and only then returns
//! [`ReadError::Io`] naming the line and the file-absolute byte offset. The
//! scan stage stops at its first fault, so no later piece is read.
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
//! million; the default is strict.

use std::borrow::Cow;
use std::fmt;
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
}

/// A parsed dataset plus the run's [`IngestStats`].
#[derive(Clone, Debug)]
pub struct Ingest {
    /// The interned dataset.
    pub dataset: Dataset,
    /// Ingest counters.
    pub stats: IngestStats,
}

/// The three fields the BTM needs: the names borrowed from the line, or
/// unescaped when they hold an escape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordRef<'a> {
    /// Account name.
    pub author: Cow<'a, str>,
    /// Submission (page) id the comment tree roots at.
    pub link_id: Cow<'a, str>,
    /// Seconds since the epoch.
    pub created_utc: Timestamp,
}

// ---------------------------------------------------------------- scanner

/// How many levels a line may nest, the record's own object being the first.
const MAX_DEPTH: usize = 128;

/// What made a line not a record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// The line ends inside a value: a cut mid-token or mid-object.
    UnexpectedEnd,
    /// A byte the grammar does not allow here; names what it allows.
    Expected(&'static str),
    /// A raw U+0000–U+001F inside a string.
    ControlCharacter,
    /// A backslash not followed by one of `"\/bfnrt` or by `u` and four hex
    /// digits.
    BadEscape,
    /// A `\u` escape of one half of a surrogate pair without the other.
    LoneSurrogate,
    /// A number whose integer part is `0` followed by more digits.
    LeadingZero,
    /// A `-`, `.` or exponent with no digits after it.
    BadNumber,
    /// Arrays and objects nested more than 128 deep.
    TooDeep,
    /// Something other than whitespace after the record on its line.
    TrailingCharacters,
    /// The record lacks this field.
    MissingField(&'static str),
    /// This field holds a value of the wrong JSON type.
    WrongType(&'static str),
    /// `created_utc` is a number, but no integer in `i64` range.
    NotATimestamp,
}

/// Why a line is not a record, and the byte of the line where the scanner
/// found out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// What failed.
    pub kind: ParseErrorKind,
    /// Byte offset from the start of the line.
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ParseErrorKind::UnexpectedEnd => f.write_str("the line ends inside a value"),
            ParseErrorKind::Expected(what) => write!(f, "expected {what}"),
            ParseErrorKind::ControlCharacter => f.write_str("raw control character in a string"),
            ParseErrorKind::BadEscape => f.write_str("invalid escape"),
            ParseErrorKind::LoneSurrogate => f.write_str("lone surrogate escape"),
            ParseErrorKind::LeadingZero => f.write_str("number with a leading zero"),
            ParseErrorKind::BadNumber => f.write_str("invalid number"),
            ParseErrorKind::TooDeep => write!(f, "nested deeper than {MAX_DEPTH}"),
            ParseErrorKind::TrailingCharacters => f.write_str("trailing characters"),
            ParseErrorKind::MissingField(field) => write!(f, "missing field `{field}`"),
            ParseErrorKind::WrongType(field) => write!(f, "wrong type for `{field}`"),
            ParseErrorKind::NotATimestamp => f.write_str("`created_utc` is not an i64"),
        }?;
        write!(f, " at byte {} of the line", self.at)
    }
}

impl std::error::Error for ParseError {}

type Parsed<T> = Result<T, ParseError>;

/// Index of the first `"`, `\\` or control character (`\n` among them) in
/// `bytes`, eight bytes at a time: the bytes that end a run a string can
/// borrow — its closing quote, an escape, the end of the line, or an error.
fn find_string_stop(bytes: &[u8]) -> Option<usize> {
    const LOW: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    // Nonzero in the lowest byte of `w` that equals `b` / is below 0x20
    // (exact for the first match, which is the only one read).
    let equals = |w: u64, b: u8| {
        let x = w ^ (LOW * u64::from(b));
        x.wrapping_sub(LOW) & !x & HIGH
    };
    let control = |w: u64| w.wrapping_sub(LOW * 0x20) & !w & HIGH;
    let mut at = 0;
    while let Some(chunk) = bytes.get(at..at + 8) {
        let w = u64::from_le_bytes(chunk.try_into().expect("an 8-byte slice"));
        let hit = equals(w, b'"') | equals(w, b'\\') | control(w);
        if hit != 0 {
            return Some(at + hit.trailing_zeros() as usize / 8);
        }
        at += 8;
    }
    bytes[at..]
        .iter()
        .position(|&b| matches!(b, b'"' | b'\\' | 0..=0x1f))
        .map(|i| at + i)
}

/// Byte cursor over the text a line is scanned off the front of: one line,
/// or what is left of a piece. No helper steps over a `\n`, so the scan stays
/// on the first line whatever follows it, and every fault is at or before
/// that `\n`. A helper that fails records the fault and returns `None`, so
/// the scan's hot path passes nothing bigger than its values around.
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
    fault: Option<ParseError>,
}

/// A string as spelled on the line, and whether that holds an escape.
type Spelled<'a> = (&'a str, bool);

/// A field's value: what it holds, or — for a value of the wrong type — the
/// error it is unless a later duplicate of the key replaces it.
type Field<T> = Option<Parsed<T>>;

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Self {
        Cursor {
            text,
            pos: 0,
            fault: None,
        }
    }

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

    #[cold]
    fn fail_at<T>(&mut self, kind: ParseErrorKind, at: usize) -> Option<T> {
        self.fault = Some(ParseError { kind, at });
        None
    }

    fn fail<T>(&mut self, kind: ParseErrorKind) -> Option<T> {
        self.fail_at(kind, self.pos)
    }

    /// Fail on the byte at the cursor, which the grammar does not allow
    /// here: where the line ends that is a cut, anything else is `kind` at
    /// `at`.
    #[cold]
    fn bad_byte<T>(&mut self, kind: ParseErrorKind, at: usize) -> Option<T> {
        match self.peek() {
            None | Some(b'\n') => self.fail(ParseErrorKind::UnexpectedEnd),
            Some(_) => self.fail_at(kind, at),
        }
    }

    /// Fail on a byte that is not `what`.
    fn unexpected<T>(&mut self, what: &'static str) -> Option<T> {
        self.bad_byte(ParseErrorKind::Expected(what), self.pos)
    }

    fn expect(&mut self, b: u8, what: &'static str) -> Option<()> {
        if self.eat(b) {
            Some(())
        } else {
            self.unexpected(what)
        }
    }

    /// JSON whitespace, but for `\n`: that ends the line.
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r')) {
            self.pos += 1;
        }
    }

    /// What is left of the text past this line, if nothing but whitespace
    /// is left on the line.
    fn line_end(&mut self) -> Option<&'a str> {
        self.skip_ws();
        match self.peek() {
            None => Some(""),
            Some(b'\n') => Some(&self.text[self.pos + 1..]),
            Some(_) => None,
        }
    }

    fn literal(&mut self, lit: &'static str) -> Option<()> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            return Some(());
        }
        lit.bytes().try_for_each(|b| self.expect(b, lit))
    }

    /// The string at the cursor's `"`, moved past, every escape in it
    /// checked: its text as spelled, and whether that holds an escape.
    /// Inlined, as [`Cursor::key`] is, with the escape path out of line: a
    /// record line is mostly short plain strings, and with both outlined a
    /// 75-byte line scanned ~1.2× slower (EXPERIMENTS.md, "One JSON reader").
    #[inline(always)]
    fn string(&mut self) -> Option<Spelled<'a>> {
        let start = self.pos + 1;
        let rest = &self.text.as_bytes()[start..];
        match find_string_stop(rest) {
            Some(len) if rest[len] == b'"' => {
                self.pos = start + len + 1;
                Some((&self.text[start..start + len], false))
            }
            _ => self.escaped_string(start),
        }
    }

    /// [`Cursor::string`] past its first stop that is not the closing `"`.
    #[cold]
    fn escaped_string(&mut self, start: usize) -> Option<Spelled<'a>> {
        self.pos = start;
        loop {
            let rest = &self.text.as_bytes()[self.pos..];
            let len = find_string_stop(rest).unwrap_or(rest.len());
            self.pos += len;
            match rest.get(len) {
                Some(b'"') => {
                    self.pos += 1;
                    return Some((&self.text[start..self.pos - 1], true));
                }
                Some(b'\\') => {
                    self.escape()?;
                }
                _ => return self.bad_byte(ParseErrorKind::ControlCharacter, self.pos),
            }
        }
    }

    /// The escape at the cursor's `\`, moved past: the character it stands
    /// for, a surrogate pair's two escapes read as one.
    fn escape(&mut self) -> Option<char> {
        let at = self.pos;
        self.pos += 1;
        let short = b"\"\\/bfnrt".iter().position(|&e| self.peek() == Some(e));
        if let Some(i) = short {
            self.pos += 1;
            return Some(['"', '\\', '/', '\u{8}', '\u{c}', '\n', '\r', '\t'][i]);
        }
        if self.peek() != Some(b'u') {
            return self.bad_byte(ParseErrorKind::BadEscape, at);
        }
        let code = match self.hex4(at)? {
            high @ 0xD800..=0xDBFF if self.text.as_bytes()[self.pos..].starts_with(b"\\u") => {
                self.pos += 1;
                match self.hex4(at)? {
                    low @ 0xDC00..=0xDFFF => 0x10000 + ((high - 0xD800) << 10) + low - 0xDC00,
                    _ => return self.fail_at(ParseErrorKind::LoneSurrogate, at),
                }
            }
            0xD800..=0xDFFF => return self.fail_at(ParseErrorKind::LoneSurrogate, at),
            code => code,
        };
        Some(char::from_u32(code).expect("a scalar value, surrogates excluded"))
    }

    /// The four hex digits after the `u` at the cursor, moved past, of the
    /// escape that starts at `at`.
    fn hex4(&mut self, at: usize) -> Option<u32> {
        self.pos += 1;
        let mut code = 0;
        for _ in 0..4 {
            match self.peek().and_then(|b| char::from(b).to_digit(16)) {
                Some(digit) => code = code * 16 + digit,
                None => return self.bad_byte(ParseErrorKind::BadEscape, at),
            }
            self.pos += 1;
        }
        Some(code)
    }

    /// Digits at the cursor, moved past; how many.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// The number at the cursor, moved past: its text, and whether it is
    /// spelled as an integer (no fraction, no exponent).
    fn number(&mut self) -> Option<(&'a str, bool)> {
        let start = self.pos;
        self.eat(b'-');
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(b'0'..=b'9')) {
                    return self.fail_at(ParseErrorKind::LeadingZero, start);
                }
            }
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return self.fail(ParseErrorKind::BadNumber),
        }
        let mut integer = true;
        if self.eat(b'.') {
            integer = false;
            if self.digits() == 0 {
                return self.fail(ParseErrorKind::BadNumber);
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integer = false;
            self.pos += 1;
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            if self.digits() == 0 {
                return self.fail(ParseErrorKind::BadNumber);
            }
        }
        Some((&self.text[start..self.pos], integer))
    }

    /// An `author` or `link_id` value into `slot`: borrowed from the line
    /// unless it holds an escape.
    fn name(&mut self, slot: &mut Field<Cow<'a, str>>, field: &'static str) -> Option<()> {
        if self.peek() != Some(b'"') {
            return self.wrong_type(slot, field);
        }
        let (spelled, escaped) = self.string()?;
        *slot = Some(Ok(if escaped {
            Cow::Owned(unescape(spelled))
        } else {
            Cow::Borrowed(spelled)
        }));
        Some(())
    }

    /// `created_utc`'s value. A number spelled with a fraction or an
    /// exponent is read as an `f64` and taken when that is a whole number in
    /// `i64` range.
    fn timestamp(&mut self, slot: &mut Field<Timestamp>) -> Option<()> {
        let at = self.pos;
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return self.wrong_type(slot, "created_utc");
        }
        let (text, integer) = self.number()?;
        let value = if integer && text.len() <= 18 {
            // No `i64` overflows 18 digits, so they are folded unchecked:
            // with `str::parse` here a 75-byte line scanned ~1.09× slower.
            let (negative, digits) = text.strip_prefix('-').map_or((false, text), |d| (true, d));
            let magnitude = digits.bytes().fold(0, |m, d| m * 10 + i64::from(d - b'0'));
            Some(if negative { -magnitude } else { magnitude })
        } else if integer {
            text.parse().ok()
        } else {
            let edge = -(i64::MIN as f64);
            text.parse::<f64>()
                .ok()
                .filter(|f| f.fract() == 0.0 && (-edge..edge).contains(f))
                .map(|f| f as i64)
        };
        *slot = Some(value.ok_or(ParseError {
            kind: ParseErrorKind::NotATimestamp,
            at,
        }));
        Some(())
    }

    /// Skip a value `field` cannot hold: its error, unless a later duplicate
    /// of the key replaces it.
    #[cold]
    fn wrong_type<T>(&mut self, slot: &mut Field<T>, field: &'static str) -> Option<()> {
        let at = self.pos;
        self.skip_value()?;
        *slot = Some(Err(ParseError {
            kind: ParseErrorKind::WrongType(field),
            at,
        }));
        Some(())
    }

    /// An object member's key, as [`Cursor::string`] reads it, with the
    /// whitespace around it and its `:`.
    #[inline(always)]
    fn key(&mut self) -> Option<Spelled<'a>> {
        self.skip_ws();
        if self.peek() != Some(b'"') {
            return self.unexpected("a string");
        }
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':', "':'")?;
        self.skip_ws();
        Some(key)
    }

    /// Skip one value of any type. Arrays and objects are walked with a
    /// stack of one bit a level (set for an object), so the value nests at
    /// most `MAX_DEPTH - 1` levels inside the record, whatever the line
    /// holds.
    fn skip_value(&mut self) -> Option<()> {
        let mut objects = 0u128;
        let mut open = 0;
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.string()?;
                }
                Some(b'-' | b'0'..=b'9') => {
                    self.number()?;
                }
                Some(b't') => self.literal("true")?,
                Some(b'f') => self.literal("false")?,
                Some(b'n') => self.literal("null")?,
                Some(bracket @ (b'{' | b'[')) => {
                    if open + 1 == MAX_DEPTH {
                        return self.fail(ParseErrorKind::TooDeep);
                    }
                    self.pos += 1;
                    let object = bracket == b'{';
                    objects = objects << 1 | u128::from(object);
                    open += 1;
                    self.skip_ws();
                    if !self.eat(if object { b'}' } else { b']' }) {
                        if object {
                            self.key()?;
                        }
                        self.skip_ws();
                        continue;
                    }
                    objects >>= 1;
                    open -= 1;
                }
                _ => return self.unexpected("a value"),
            }
            // After a value: close the containers it ends, or go on to the
            // next element of the innermost.
            loop {
                if open == 0 {
                    return Some(());
                }
                self.skip_ws();
                let object = objects & 1 == 1;
                if self.eat(b',') {
                    if object {
                        self.key()?;
                    }
                    self.skip_ws();
                    break;
                }
                let (close, what) = if object {
                    (b'}', "',' or '}'")
                } else {
                    (b']', "',' or ']'")
                };
                self.expect(close, what)?;
                objects >>= 1;
                open -= 1;
            }
        }
    }

    /// The line at the cursor: its record, `None` when it is blank, and what
    /// is left of the text past it.
    fn line(&mut self) -> Option<(Option<RecordRef<'a>>, &'a str)> {
        if let Some(rest) = self.line_end() {
            return Some((None, rest));
        }
        self.expect(b'{', "'{'")?;
        let (mut author, mut link_id, mut created_utc) = (None, None, None);
        self.skip_ws();
        if !self.eat(b'}') {
            loop {
                // Matched as a `&str`, not a `Cow`: as a `Cow` a 75-byte line
                // scanned ~1.05× slower.
                let (spelled, escaped) = self.key()?;
                let owned;
                let key = if escaped {
                    owned = unescape(spelled);
                    &owned
                } else {
                    spelled
                };
                // A duplicate key's last occurrence wins.
                match key {
                    "author" => self.name(&mut author, "author")?,
                    "link_id" => self.name(&mut link_id, "link_id")?,
                    "created_utc" => self.timestamp(&mut created_utc)?,
                    _ => self.skip_value()?,
                }
                self.skip_ws();
                if self.eat(b'}') {
                    break;
                }
                self.expect(b',', "',' or '}'")?;
            }
        }
        let end = self.pos;
        let Some(rest) = self.line_end() else {
            return self.fail(ParseErrorKind::TrailingCharacters);
        };
        let record = RecordRef {
            author: self.field(author, "author", end)?,
            link_id: self.field(link_id, "link_id", end)?,
            created_utc: self.field(created_utc, "created_utc", end)?,
        };
        Some((Some(record), rest))
    }

    /// The value a record's field ended up with, its error, or — absent — a
    /// missing field at `end`, the byte past the record.
    fn field<T>(&mut self, value: Field<T>, name: &'static str, end: usize) -> Option<T> {
        match value {
            Some(Ok(value)) => Some(value),
            Some(Err(e)) => {
                self.fault = Some(e);
                None
            }
            None => self.fail_at(ParseErrorKind::MissingField(name), end),
        }
    }
}

/// A string's text as spelled, its escapes already checked by
/// [`Cursor::string`], unescaped.
#[cold]
fn unescape(spelled: &str) -> String {
    let mut c = Cursor::new(spelled);
    let mut out = String::with_capacity(spelled.len());
    while let Some(i) = spelled[c.pos..].find('\\') {
        out.push_str(&spelled[c.pos..c.pos + i]);
        c.pos += i;
        out.push(c.escape().expect("an escape the scanner checked"));
    }
    out.push_str(&spelled[c.pos..]);
    out
}

/// Scan one line off the front of `text`: its record, `None` when the line
/// is blank, and what is left of `text` past the line. Nothing past the
/// line's `\n` is read, so the outcome is the line's alone, whatever follows.
fn scan_prefix(text: &str) -> Parsed<(Option<RecordRef<'_>>, &str)> {
    let mut c = Cursor::new(text);
    c.line()
        .ok_or_else(|| c.fault.expect("a failed scan names its fault"))
}

/// Read `author`, `link_id` and `created_utc` from one NDJSON line, `None`
/// when the line is blank or is not a record — or holds a `\n` anywhere but
/// at its end. The names are borrowed from the line unless they hold an
/// escape.
pub fn scan_record(line: &str) -> Option<RecordRef<'_>> {
    match scan_prefix(line) {
        Ok((record, "")) => record,
        _ => None,
    }
}

// ---------------------------------------------------------------- the pass

/// A record's three fields, its names borrowed from a batch.
type Scanned<'a> = (&'a str, &'a str, Timestamp);

/// Scan every line of `text` in order, feeding each record to `emit` and
/// counting into `st`, whose line count runs on from the pieces before this
/// one — so a strict-mode parse failure carries the input's 1-based line
/// number.
fn for_each_record<'a>(
    text: &'a str,
    skip_bad: bool,
    st: &mut IngestStats,
    mut emit: impl FnMut(RecordRef<'a>),
) -> Result<(), ReadError> {
    let mut rest = text;
    while !rest.is_empty() {
        st.lines += 1;
        match scan_prefix(rest) {
            Ok((record, after)) => {
                rest = after;
                if let Some(record) = record {
                    emit(record);
                    st.events += 1;
                }
            }
            Err(_) if skip_bad => {
                st.skipped_lines += 1;
                rest = rest.split_once('\n').map_or("", |(_, after)| after);
            }
            Err(source) => {
                return Err(ReadError::Parse {
                    line: st.lines as usize,
                    source,
                })
            }
        }
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
        self.events.extend(ahead.iter().map(|&(author, _, ts)| {
            Event::new(AuthorId(self.authors.intern(author)), PageId(0), ts)
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
        for_each_record(piece, self.skip_bad, &mut self.tally.stats, |record| {
            batch.names.push_str(&record.author);
            let author_end = batch.names.len();
            batch.names.push_str(&record.link_id);
            let page_end = batch.names.len();
            batch.records.push(Record {
                author_end,
                page_end,
                ts: record.created_utc,
            });
        })?;
        self.full.send(batch).map_err(hung_up)
    }

    /// [`Scan::feed`] over raw bytes that start `offset` bytes into the
    /// input. Non-UTF-8 input is an I/O error, reported after the complete
    /// lines before the bad byte have been scanned, so a malformed line
    /// among them, being the earlier fault, is the one reported.
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
            (author, &names[r.author_end..r.page_end], r.ts)
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
    let mut stage_span = obs::span("ingest");
    let skip_bad = cfg.skip_bad_lines;
    let (tally, scan_cpu, intern_wait) = std::thread::scope(|s| -> Result<_, ReadError> {
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
                let cpu = obs::ThreadCpu::start();
                let mut stage = Scan {
                    skip_bad,
                    tally: ScanTally::default(),
                    free: free_rx,
                    full: full_tx,
                };
                scan(&mut stage).map(|()| (stage.tally, cpu.elapsed_ns()))
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
            Ok(scanned) => scanned.map(|(tally, cpu)| (tally, cpu, wait)),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })?;
    let nanos = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
    obs::counter("ingest.bytes").add(tally.bytes);
    obs::counter("ingest.chunks").add(tally.chunks);
    obs::counter("ingest.lines").add(tally.stats.lines);
    obs::counter("ingest.events").add(tally.stats.events);
    obs::counter("ingest.skipped_lines").add(tally.stats.skipped_lines);
    obs::counter("ingest.intern_wait_ns").add(nanos(intern_wait));
    obs::counter("ingest.scan_wait_ns").add(nanos(tally.wait));
    obs::record_stage_rss("ingest");
    // The scan thread's CPU time is the stage's too.
    stage_span.add_cpu_ns(scan_cpu);
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
/// ids where they first occur. The fault reported is the first in file
/// order: a malformed line as [`ReadError::Parse`], a non-UTF-8 one as
/// [`ReadError::Io`]. Nothing partial is returned on an error, and a panic
/// in `reader` reaches the caller.
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
    use ParseErrorKind::*;

    fn line(author: &str, page: &str, ts: i64) -> String {
        format!("{{\"author\":\"{author}\",\"link_id\":\"{page}\",\"created_utc\":{ts}}}")
    }

    fn names(i: &Interner) -> Vec<String> {
        i.iter().map(|(_, n)| n.to_owned()).collect()
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

    const LOSSY: IngestConfig = IngestConfig {
        skip_bad_lines: true,
    };

    /// At every capacity, strict and lossy, the chunk reader and the slice
    /// pieces end as the one-piece pass does.
    fn assert_every_capacity_matches(bytes: &[u8], capacities: impl IntoIterator<Item = usize>) {
        let strict = IngestConfig::default();
        let whole = [&strict, &LOSSY].map(|cfg| outcome(ingest_slice(bytes, cfg)));
        for capacity in capacities {
            for (cfg, whole) in [&strict, &LOSSY].into_iter().zip(&whole) {
                let chunked = outcome(ingest_chunked(bytes, capacity, cfg));
                assert_eq!(&chunked, whole, "capacity {capacity}, {cfg:?}");
                let sliced = outcome(ingest_sliced(bytes, capacity, cfg));
                assert_eq!(&sliced, whole, "slice pieces of {capacity}, {cfg:?}");
            }
        }
    }

    const CAPACITIES: [usize; 5] = [1, 2, 7, 64, 4096];

    /// Lines in every spelling the tests of this module use, one each, with
    /// how each scans: a record's author, blank, or the fault and its byte.
    /// `…` stands for `"link_id":"p","created_utc":1`.
    fn corpus() -> Vec<(String, Parsed<Option<&'static str>>)> {
        let bad = |kind, at| Err(ParseError { kind, at });
        let skipped = concat!(
            r#"{"score":-3,"body":"say \"hi\"\u00e9\ud83d\ude00","edited":false,"#,
            r#""gildings":{"a":[1,2.5e3,-0.5E-2]},"tags":[null,true,{"k":"v"}],"author":"a",…}"#
        );
        let escaped = r#"{"author":"a\\b\/\u0041\"\b\f\n\r\t\uD83D\uDE00",…}"#;
        let lines = [
            (r#"{"author":"a",…}"#, Ok(Some("a"))),
            ("{\"author\":\"uni—codé✓\",…}\r", Ok(Some("uni—codé✓"))),
            (" \t{\"author\":\"a\",…} \t", Ok(Some("a"))),
            (skipped, Ok(Some("a"))),
            (escaped, Ok(Some("a\\b/A\"\u{8}\u{c}\n\r\t😀"))),
            (r#"{"\u0061uthor":"k","created_utc":2.0,…}"#, Ok(Some("k"))),
            (
                r#"{"author":"1st","link_id":[1],"created_utc":1.5,"author":"2nd",…}"#,
                Ok(Some("2nd")),
            ),
            (" \t\r", Ok(None)),
            ("", Ok(None)),
            ("\u{a0}{\"author\":\"a\",…}", bad(Expected("'{'"), 0)),
            (
                r#"{"author":"a","link_id":"p","created_utc":9223372036854775808}"#,
                bad(NotATimestamp, 42),
            ),
            (
                r#"{"author":"a","created_utc":1}"#,
                bad(MissingField("link_id"), 30),
            ),
            (r#"{"author":"a",…} x"#, bad(TrailingCharacters, 45)),
            (
                r#"{"author":"a",…}{"author":"a",…}"#,
                bad(TrailingCharacters, 44),
            ),
            (r#"{"author":"a",…"#, bad(UnexpectedEnd, 43)),
            (r#"{"author":"a","link_id":"p"#, bad(UnexpectedEnd, 26)),
            ("{}", bad(MissingField("author"), 2)),
            ("definitely not json", bad(Expected("'{'"), 0)),
            ("{\"author\":\"a\tb\",…}", bad(ControlCharacter, 12)),
            (r#"{"author":"a\x",…}"#, bad(BadEscape, 12)),
            (r#"{"author":"\u12G4",…}"#, bad(BadEscape, 11)),
            (r#"{"author":"\ud83d",…}"#, bad(LoneSurrogate, 11)),
            (r#"{"author":"\ud83d\u0041",…}"#, bad(LoneSurrogate, 11)),
            (r#"{"author":"\ude00",…}"#, bad(LoneSurrogate, 11)),
            (r#"{"x":01,"author":"a",…}"#, bad(LeadingZero, 5)),
            (r#"{"x":-00.5,"author":"a",…}"#, bad(LeadingZero, 5)),
            (r#"{"x":1.,…}"#, bad(BadNumber, 7)),
            (r#"{"x":1e,…}"#, bad(BadNumber, 7)),
            (r#"{"x":-,…}"#, bad(BadNumber, 6)),
            (r#"{"x":[1,],…}"#, bad(Expected("a value"), 8)),
            (r#"{"x":{"k":1,},…}"#, bad(Expected("a string"), 12)),
            (r#"{"author":"a",…,}"#, bad(Expected("a string"), 44)),
            (r#"{"x":[1},…}"#, bad(Expected("',' or ']'"), 7)),
            (r#"{"x":nul,…}"#, bad(Expected("null"), 8)),
            (
                r#"{"author":"a","created_utc":"1","link_id":"p"}"#,
                bad(WrongType("created_utc"), 28),
            ),
            (
                r#"{"author":"a",…,"author":null}"#,
                bad(WrongType("author"), 53),
            ),
        ];
        let expand = |l: &str| l.replace('…', r#""link_id":"p","created_utc":1"#);
        lines
            .into_iter()
            .map(|(l, scan)| (expand(l), scan))
            .collect()
    }

    fn scanned(text: &str) -> Parsed<Option<String>> {
        scan_prefix(text).map(|(r, _)| r.map(|r| r.author.into_owned()))
    }

    #[test]
    fn each_line_scans_as_written() {
        for (text, expected) in corpus() {
            let expected = expected.map(|a| a.map(str::to_owned));
            assert_eq!(scanned(&text), expected, "{text:?}");
        }
    }

    /// A name without escapes is borrowed from the line; one with them is
    /// unescaped into a string of its own.
    #[test]
    fn only_escaped_names_are_copied() {
        let r = scan_record(r#"{"author":"a\u0041","link_id":"t3_x","created_utc":1}"#).unwrap();
        assert!(matches!(r.author, Cow::Owned(ref a) if a == "aA"));
        assert!(matches!(r.link_id, Cow::Borrowed("t3_x")));
    }

    #[test]
    fn prefix_scan_of_a_line_and_whatever_follows_is_the_scan_of_the_line() {
        let lines: Vec<String> = corpus().into_iter().map(|(l, _)| l).collect();
        for line in &lines {
            let alone = scanned(line);
            for junk in lines
                .iter()
                .map(String::as_str)
                .chain(["\n", "\"", "}", "\\"])
            {
                let text = format!("{line}\n{junk}");
                assert_eq!(scanned(&text), alone, "{text:?}");
                if let Ok((_, rest)) = scan_prefix(&text) {
                    assert_eq!(rest, junk, "{text:?}");
                }
                // the public scanner takes a line, not a prefix
                let record = scan_record(&text).map(|r| r.author.into_owned());
                let expected = alone.as_ref().ok().cloned().flatten();
                assert_eq!(record, expected.filter(|_| junk.is_empty()), "{text:?}");
            }
        }
    }

    /// The scanner never steps over a `\n`: a record broken over two
    /// physical lines is two malformed lines, a raw newline inside a string
    /// likewise, and a line holding two records is malformed.
    #[test]
    fn a_record_never_spans_lines() {
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
            let ing = ingest_slice(text.as_bytes(), &LOSSY).unwrap();
            let expected = IngestStats {
                lines,
                events,
                skipped_lines: lines - events,
            };
            assert_eq!(ing.stats, expected, "{text:?}");
            assert_every_capacity_matches(text.as_bytes(), CAPACITIES);
        }
    }

    /// Every line of the corpus in one file — so the strict run stops at
    /// the first rejected line, the lossy one counts them all — and the
    /// accepted ones alone, with and without the final newline.
    #[test]
    fn every_capacity_ends_as_the_one_piece_pass_does() {
        let lines = corpus();
        let all: Vec<&str> = lines.iter().map(|(l, _)| l.as_str()).collect();
        assert_every_capacity_matches(all.join("\n").as_bytes(), CAPACITIES);
        let accepted: Vec<&str> = lines
            .iter()
            .filter(|(_, scan)| scan.is_ok())
            .map(|(l, _)| l.as_str())
            .collect();
        assert_eq!(accepted.len(), 9);
        for newline in ["", "\n", "\r\n"] {
            let text = accepted.join("\n") + newline;
            let ing = ingest_slice(text.as_bytes(), &IngestConfig::default()).unwrap();
            let authors = ["a", "uni—codé✓", "a\\b/A\"\u{8}\u{c}\n\r\t😀", "k", "2nd"];
            assert_eq!(names(&ing.dataset.authors), authors);
            assert_eq!(ing.stats.events, 7);
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
        assert_eq!(
            message,
            "parse error on line 3: expected '{' at byte 0 of the line"
        );
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

    /// `created_utc` is any integer in `i64` range, or a number with a
    /// fraction or exponent whose value is one.
    #[test]
    fn timestamps_are_integers_in_i64_range() {
        let ts = |ts: &str| {
            let text = format!(r#"{{"author":"a","link_id":"p","created_utc":{ts}}}"#);
            scan_prefix(&text).map(|(r, _)| r.expect("a record").created_utc)
        };
        for (spelled, value) in [
            ("-9223372036854775808", i64::MIN),
            ("9223372036854775807", i64::MAX),
            ("-0", 0),
            ("1577836800.0", 1_577_836_800),
            ("1.5e9", 1_500_000_000),
            ("15E+8", 1_500_000_000),
            ("-2.5e1", -25),
            ("-9.223372036854775808e18", i64::MIN),
        ] {
            assert_eq!(ts(spelled), Ok(value), "{spelled}");
        }
        for spelled in [
            "9223372036854775808",
            "-9223372036854775809",
            "1.5",
            "9.3e18",
            "1e400",
        ] {
            assert_eq!(
                ts(spelled).map_err(|e| e.kind),
                Err(NotATimestamp),
                "{spelled}"
            );
        }
    }

    /// 128 levels, the record's own object included, read; 129 are an error
    /// where the 129th opens — and so are 50,000, with no recursion to
    /// exhaust the stack.
    #[test]
    fn nesting_stops_at_128_levels() {
        let nested = |levels: usize| {
            let value = "[".repeat(levels - 1) + &"]".repeat(levels - 1);
            format!(r#"{{"x":{value},"author":"a","link_id":"p","created_utc":1}}"#)
        };
        assert!(scan_record(&nested(MAX_DEPTH)).is_some());
        for levels in [MAX_DEPTH + 1, 50_000] {
            let e = scan_prefix(&nested(levels)).map(|_| ()).unwrap_err();
            assert_eq!(
                e,
                ParseError {
                    kind: TooDeep,
                    at: 5 + MAX_DEPTH - 1
                }
            );
        }
    }
}
