//! Property tests pinning every NDJSON ingest driver to the JSON grammar.
//!
//! The oracle is RFC 8259 itself: a strategy builds lines from its
//! productions — escapes and surrogate pairs, numbers with fractions and
//! exponents, arrays and objects nested four deep, whitespace, duplicate keys
//! — so the record each line holds is known by construction, and mutation
//! classes make lines that are malformed by construction. However the bytes
//! arrive, [`ingest::ingest_reader`], [`ingest::ingest_slice`] and their
//! `records` twins must yield exactly those records under first-occurrence
//! ids, the line counts the text implies, and in strict mode the first fault
//! in file order: a malformed line as [`ReadError::Parse`] under its 1-based
//! number, a non-UTF-8 one as an I/O error.

use std::fmt::Write as _;
use std::io::{self, ErrorKind, Read};

use proptest::prelude::*;
use proptest::TestCaseError;

use coordination_core::ids::Interner;
use coordination_core::ingest::{self, IngestConfig, IngestStats, ParseError, ParseErrorKind};
use coordination_core::records::{write_ndjson, CommentRecord, Dataset, ReadError};

// ---------------------------------------------------------------- the grammar

/// The grammar's choices, drawn in order from a tape of random numbers. A
/// spent tape answers 0: the first, shortest production.
struct Tape<'a> {
    draws: &'a [u32],
    at: usize,
}

impl Tape<'_> {
    fn pick(&mut self, n: usize) -> usize {
        let draw = self.draws.get(self.at).copied().unwrap_or(0);
        self.at += 1;
        draw as usize % n
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.pick(n) == 0
    }
}

/// Names heavy on hazards: empty, JSON metacharacters, control characters,
/// characters outside the BMP, and the accounts pushshift months are full of.
const NAMES: &[&str] = &[
    "alice",
    "[deleted]",
    "AutoModerator",
    "t3_abc123",
    "",
    "quote\"in",
    "back\\slash/",
    "uni—codé✓",
    "🤖 outside the BMP 😀",
    "tab\tand\nbreak",
    "\u{1}\u{8}\u{c}\u{1f}",
    "\u{7f}\u{2028}\u{feff}",
];

/// `ws`: JSON whitespace, which inside a line is space, tab and `\r`;
/// mostly none.
fn ws(t: &mut Tape, out: &mut String) {
    for _ in 0..t.pick(6).saturating_sub(3) {
        out.push([' ', '\t', '\r'][t.pick(3)]);
    }
}

/// `string`: `s`, each character spelled one of the ways the grammar
/// allows — as it is, as a short escape, or as `\u` escapes of its UTF-16
/// units (a surrogate pair outside the BMP) in either case. Half the strings
/// escape only what they must.
fn string(t: &mut Tape, s: &str, out: &mut String) {
    out.push('"');
    let plain = t.one_in(2);
    for c in s.chars() {
        let short = match c {
            '"' | '\\' | '/' => Some(c),
            '\u{8}' => Some('b'),
            '\u{c}' => Some('f'),
            '\n' => Some('n'),
            '\r' => Some('r'),
            '\t' => Some('t'),
            _ => None,
        };
        let raw_ok = !matches!(c, '"' | '\\' | '\0'..='\u{1f}');
        match (if plain { 0 } else { t.pick(4) }, short) {
            (0 | 1, _) if raw_ok => out.push(c),
            (2, Some(short)) => {
                out.push('\\');
                out.push(short);
            }
            (_, _) => {
                for unit in c.encode_utf16(&mut [0; 2]) {
                    let _ = if t.one_in(2) {
                        write!(out, "\\u{unit:04x}")
                    } else {
                        write!(out, "\\u{unit:04X}")
                    };
                }
            }
        }
    }
    out.push('"');
}

/// `number`: an optional minus, an integer part with no leading zero, an
/// optional fraction and an optional exponent.
fn number(t: &mut Tape, out: &mut String) {
    if t.one_in(2) {
        out.push('-');
    }
    let _ = match t.pick(3) {
        0 => write!(out, "0"),
        _ => write!(out, "{}", 1 + t.pick(99_999)),
    };
    if t.one_in(2) {
        let _ = write!(out, ".{:0w$}", t.pick(1000), w = 1 + t.pick(3));
    }
    if t.one_in(3) {
        out.push(['e', 'E'][t.pick(2)]);
        out.push_str(["", "+", "-"][t.pick(3)]);
        let _ = write!(out, "{}", t.pick(300));
    }
}

/// `value`: any value, its arrays and objects nested at most `depth` more
/// levels.
fn value(t: &mut Tape, depth: usize, out: &mut String) {
    match t.pick(if depth == 0 { 3 } else { 5 }) {
        0 => {
            let s = name(t);
            string(t, s, out)
        }
        1 => number(t, out),
        2 => out.push_str(["true", "false", "null"][t.pick(3)]),
        3 => {
            out.push('[');
            for i in 0..t.pick(4) {
                if i > 0 {
                    out.push(',');
                }
                ws(t, out);
                value(t, depth - 1, out);
                ws(t, out);
            }
            out.push(']');
        }
        _ => {
            out.push('{');
            for i in 0..t.pick(4) {
                if i > 0 {
                    out.push(',');
                }
                let key = name(t);
                member(t, key, out);
                value(t, depth - 1, out);
                ws(t, out);
            }
            out.push('}');
        }
    }
}

/// A name from [`NAMES`].
fn name(t: &mut Tape) -> &'static str {
    NAMES[t.pick(NAMES.len())]
}

/// A member's `ws key ws : ws`, up to its value.
fn member(t: &mut Tape, key: &str, out: &mut String) {
    ws(t, out);
    string(t, key, out);
    ws(t, out);
    out.push(':');
    ws(t, out);
}

/// A value the field cannot hold: for a name anything but a string, for
/// `created_utc` anything but an integer in `i64` range.
fn wrong_value(t: &mut Tape, timestamp: bool, out: &mut String) {
    out.push_str(match (t.pick(3), timestamp) {
        (0, true) => ["\"1577836800\"", "1.5", "-1e19"][t.pick(3)],
        (0, false) => ["0", "-1.5e3"][t.pick(2)],
        (1, _) => ["true", "false", "null"][t.pick(3)],
        _ => ["[]", "{}", "[\"a\"]", "{\"k\":1}"][t.pick(4)],
    });
}

/// `ts` spelled as an integer, or with a fraction or an exponent whose
/// value it is.
fn timestamp(t: &mut Tape, ts: i64, out: &mut String) {
    let sign = if ts < 0 { "-" } else { "" };
    let digits = ts.unsigned_abs().to_string();
    let (first, rest) = digits.split_at(1);
    let _ = match t.pick(4) {
        0 => write!(out, "{ts}.{}", "0".repeat(1 + t.pick(3))),
        1 => write!(
            out,
            "{sign}{first}.{}{}{}{}",
            if rest.is_empty() { "0" } else { rest },
            ['e', 'E'][t.pick(2)],
            ["", "+"][t.pick(2)],
            rest.len()
        ),
        2 if ts != 0 => write!(out, "{ts}0e-1"),
        _ => write!(out, "{ts}"),
    };
}

/// What makes a line malformed by construction.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Defect {
    /// The line stops inside the record, after its `{`, before its `}`.
    Cut,
    /// A raw U+0000–U+001F (a tab among them; not `\n`) in the author.
    ControlCharacter,
    /// Half a surrogate pair escaped alone in the author.
    LoneSurrogate,
    /// A `,` before the `}` or `]` that closes an object or an array.
    TrailingComma,
    /// A number whose integer part is `0` and more digits.
    LeadingZero,
    /// One of the three fields absent.
    MissingField,
    /// A name that is not a string, or a `created_utc` that is not a number
    /// or not a whole one.
    WrongType,
    /// A value nested past the 128 levels a line may hold.
    TooDeep,
    /// Padding that is whitespace to Unicode but not to JSON.
    ForeignWhitespace,
}

const DEFECTS: [Defect; 9] = [
    Defect::Cut,
    Defect::ControlCharacter,
    Defect::LoneSurrogate,
    Defect::TrailingComma,
    Defect::LeadingZero,
    Defect::MissingField,
    Defect::WrongType,
    Defect::TooDeep,
    Defect::ForeignWhitespace,
];

impl Defect {
    /// Whether the scanner names this defect's fault as it should.
    fn named(self, kind: ParseErrorKind) -> bool {
        use ParseErrorKind::*;
        match self {
            Defect::Cut => true,
            Defect::ControlCharacter => kind == ControlCharacter,
            Defect::LoneSurrogate => kind == LoneSurrogate,
            Defect::TrailingComma => matches!(kind, Expected(_)),
            Defect::LeadingZero => kind == LeadingZero,
            Defect::MissingField => matches!(kind, MissingField(_)),
            Defect::WrongType => matches!(kind, WrongType(_) | NotATimestamp),
            Defect::TooDeep => kind == TooDeep,
            Defect::ForeignWhitespace => matches!(kind, Expected(_) | TrailingCharacters),
        }
    }
}

/// One line from the tape: blank, or a record — its three fields in any
/// order among other members, earlier duplicates of them holding anything
/// — or, given a `defect`, a record line malformed by it. Returns the
/// record a well-formed line holds.
fn line(t: &mut Tape, defect: Option<Defect>, out: &mut String) -> Option<CommentRecord> {
    if defect.is_none() && t.one_in(8) {
        ws(t, out);
        return None;
    }
    let record = CommentRecord::new(
        name(t),
        name(t),
        (t.pick(1 << 30) as i64 - (1 << 29)) * 1000 + t.pick(1000) as i64,
    );
    // 0–2 author, link_id, created_utc; 3 another member; 4–6 an earlier
    // duplicate of 0–2.
    let mut members: Vec<usize> = (0..3).chain(std::iter::repeat_n(3, t.pick(4))).collect();
    if defect == Some(Defect::MissingField) {
        members.remove(t.pick(3));
    }
    for i in (1..members.len()).rev() {
        members.swap(i, t.pick(i + 1));
    }
    for field in 0..3 {
        if let Some(last) = members.iter().position(|&m| m == field) {
            if t.one_in(4) {
                members.insert(t.pick(last + 1), field + 4);
            }
        }
    }
    let wrong = (defect == Some(Defect::WrongType)).then(|| t.pick(3));
    ws(t, out);
    let open = out.len();
    out.push('{');
    let mut author_at = 0;
    for (i, &m) in members.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let key = match m % 4 {
            3 => name(t),
            field => ["author", "link_id", "created_utc"][field],
        };
        member(t, key, out);
        match m {
            _ if wrong == Some(m) => wrong_value(t, m == 2, out),
            0 => {
                author_at = out.len() + 1;
                string(t, &record.author, out);
            }
            1 => string(t, &record.link_id, out),
            2 => timestamp(t, record.created_utc, out),
            _ => value(t, 4, out),
        }
        ws(t, out);
    }
    let close = out.len();
    out.push('}');
    ws(t, out);
    match defect {
        None | Some(Defect::MissingField | Defect::WrongType) => {}
        Some(Defect::Cut) => {
            let cut = open + 1 + t.pick(close - open);
            let cut = (cut..).find(|&i| out.is_char_boundary(i)).unwrap();
            out.truncate(cut.min(close));
        }
        Some(Defect::ControlCharacter) => {
            let c = char::from(t.pick(31) as u8);
            out.insert(author_at, if c == '\n' { '\u{1f}' } else { c });
        }
        Some(Defect::LoneSurrogate) => {
            out.insert_str(author_at, ["\\uD83Dx", "\\udE00"][t.pick(2)]);
        }
        Some(Defect::TrailingComma) => {
            let bad = [",", ",\"x\":[1,]", ",\"x\":{\"k\":[],}"][t.pick(3)];
            out.insert_str(close, bad);
        }
        Some(Defect::LeadingZero) => {
            let bad = ["01", "-007", "00.5", "0123e4"][t.pick(4)];
            out.insert_str(close, &format!(",\"n\":{bad}"));
        }
        Some(Defect::TooDeep) => {
            out.insert_str(
                close,
                &format!(",\"deep\":{}{}", "[".repeat(128), "]".repeat(128)),
            );
        }
        Some(Defect::ForeignWhitespace) => {
            let c = ['\u{a0}', '\u{2003}', '\u{b}', '\u{c}', '\u{feff}'][t.pick(5)];
            let at = [0, open + 1, out.len()][t.pick(3)];
            out.insert(at, c);
        }
    }
    defect.is_none().then_some(record)
}

/// A corpus from the tape: up to `n` lines, with or without the final
/// newline, and the records they hold.
fn corpus(draws: &[u32], n: usize) -> (Vec<String>, Vec<CommentRecord>) {
    let mut t = Tape { draws, at: 0 };
    let mut lines = Vec::new();
    let mut records = Vec::new();
    for _ in 0..n {
        let mut text = String::new();
        records.extend(line(&mut t, None, &mut text));
        lines.push(text);
    }
    (lines, records)
}

fn arb_tape() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..u32::MAX, 0..3000)
}

/// Read sizes for [`ShortReads`] to cycle through.
fn arb_splits() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..200, 1..8)
}

fn join(lines: &[String], final_newline: bool) -> String {
    let mut text = lines.join("\n");
    if final_newline && !lines.is_empty() {
        text.push('\n');
    }
    text
}

// ---------------------------------------------------------------- the drivers

/// The line count the text implies: a line is a `'\n'`-terminated run, or
/// the unterminated tail.
fn implied_stats(text: &str, events: usize, skipped: u64) -> IngestStats {
    let newlines = text.bytes().filter(|&b| b == b'\n').count() as u64;
    let tail = u64::from(!text.is_empty() && !text.ends_with('\n'));
    IngestStats {
        lines: newlines + tail,
        events: events as u64,
        skipped_lines: skipped,
    }
}

fn interner_names(i: &Interner) -> Vec<&str> {
    (0..i.len() as u32).map(|id| i.name(id)).collect()
}

fn assert_datasets_identical(expected: &Dataset, got: &Dataset) -> Result<(), TestCaseError> {
    prop_assert_eq!(&expected.events, &got.events);
    prop_assert_eq!(
        interner_names(&expected.authors),
        interner_names(&got.authors)
    );
    prop_assert_eq!(interner_names(&expected.pages), interner_names(&got.pages));
    // and back: every name resolves to its own id
    for (id, name) in got.authors.iter() {
        prop_assert_eq!(got.authors.get(name), Some(id));
    }
    Ok(())
}

/// A reader that hands its bytes out in scripted short reads — `sizes`,
/// cycled — and fails every fifth call with [`ErrorKind::Interrupted`], which
/// a reader must retry.
struct ShortReads<'a> {
    rest: &'a [u8],
    sizes: &'a [usize],
    calls: usize,
}

impl Read for ShortReads<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.calls += 1;
        if self.calls.is_multiple_of(5) {
            return Err(ErrorKind::Interrupted.into());
        }
        let n = self.sizes[self.calls % self.sizes.len()]
            .max(1)
            .min(buf.len())
            .min(self.rest.len());
        buf[..n].copy_from_slice(&self.rest[..n]);
        self.rest = &self.rest[n..];
        Ok(n)
    }
}

/// A fixed stand-in for "random splits" where the caller has none to give.
const SPLITS: &[usize] = &[3, 64, 1, 1000, 17, 5, 4096, 2];

/// `whole` on `bytes` as one piece, then `streamed` over the chunk reader fed
/// one byte at a time, seven at a time and by `splits`.
fn drivers<'a, T>(
    bytes: &'a [u8],
    splits: &'a [usize],
    whole: impl Fn(&'a [u8]) -> T,
    streamed: impl Fn(ShortReads<'a>) -> T,
) -> Vec<T> {
    let mut out = vec![whole(bytes)];
    for sizes in [&[1], &[7], splits] {
        out.push(streamed(ShortReads {
            rest: bytes,
            sizes,
            calls: 0,
        }));
    }
    out
}

/// Every driver on `bytes` — the dataset drivers and their `records`
/// twins — each as the dataset it ends with, interned from the records for
/// the twins.
fn every_driver(
    bytes: &[u8],
    cfg: &IngestConfig,
    splits: &[usize],
) -> Vec<Result<ingest::Ingest, ReadError>> {
    let mut out = drivers(
        bytes,
        splits,
        |b| ingest::ingest_slice(b, cfg),
        |r| ingest::ingest_reader(r, cfg),
    );
    out.extend(
        drivers(
            bytes,
            splits,
            |b| ingest::ingest_records_slice(b, cfg),
            |r| ingest::ingest_records_reader(r, cfg),
        )
        .into_iter()
        .map(|r| {
            r.map(|(records, stats)| ingest::Ingest {
                dataset: Dataset::from_records(records),
                stats,
            })
        }),
    );
    out
}

/// Every driver, under `cfg`, yields `records` and the stats `text` implies
/// with `skipped` lines skipped.
fn assert_all_drivers_yield(
    text: &str,
    cfg: &IngestConfig,
    splits: &[usize],
    records: &[CommentRecord],
    skipped: u64,
) -> Result<(), TestCaseError> {
    let expected = Dataset::from_records(records.iter().cloned());
    let stats = implied_stats(text, records.len(), skipped);
    for out in every_driver(text.as_bytes(), cfg, splits) {
        let out = out.unwrap();
        assert_datasets_identical(&expected, &out.dataset)?;
        prop_assert_eq!(out.stats, stats);
    }
    Ok(())
}

/// Every strict driver on `bytes` fails, each wording the failure as the
/// others do; the first driver's error.
fn assert_all_drivers_fail_alike(bytes: &[u8], splits: &[usize]) -> ReadError {
    let mut errors = every_driver(bytes, &IngestConfig::default(), splits)
        .into_iter()
        .map(|out| out.expect_err("a strict run fails"));
    let first = errors.next().unwrap();
    for e in errors {
        assert_eq!(e.to_string(), first.to_string());
    }
    first
}

// ---------------------------------------------------------------- properties

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lines built from the grammar's productions, with or without the final
    /// newline, read as built by every driver, strict and lossy.
    #[test]
    fn grammar_lines_read_as_built(
        draws in arb_tape(),
        n in 0usize..40,
        final_newline in 0u8..2,
        splits in arb_splits(),
    ) {
        let (lines, records) = corpus(&draws, n);
        let text = join(&lines, final_newline == 1);
        for cfg in [IngestConfig::default(), IngestConfig { skip_bad_lines: true }] {
            assert_all_drivers_yield(&text, &cfg, &splits, &records, 0)?;
        }
    }

    /// A line malformed by each mutation class in turn, anywhere in a
    /// corpus, is a parse error on its line naming the class's fault in
    /// strict mode; in lossy mode all of them together are skipped lines and
    /// the corpus's records survive.
    #[test]
    fn each_mutation_class_fails_at_its_line(
        draws in arb_tape(),
        n in 0usize..30,
        mutations in arb_tape(),
        places in prop::collection::vec(0usize..40, 9),
        final_newline in 0u8..2,
        splits in arb_splits(),
    ) {
        let (lines, records) = corpus(&draws, n);
        let mut t = Tape { draws: &mutations, at: 0 };
        let mut lossy = lines.clone();
        for (defect, place) in DEFECTS.into_iter().zip(places) {
            let mut bad = String::new();
            prop_assert!(line(&mut t, Some(defect), &mut bad).is_none());
            let mut strict = lines.clone();
            let at = place % (lines.len() + 1);
            strict.insert(at, bad.clone());
            let text = join(&strict, final_newline == 1);
            match assert_all_drivers_fail_alike(text.as_bytes(), &splits) {
                ReadError::Parse { line, source } => {
                    prop_assert_eq!(line, at + 1, "{:?} {:?}", defect, bad);
                    prop_assert!(defect.named(source.kind), "{:?} {:?}: {}", defect, bad, source);
                }
                other => prop_assert!(false, "{:?} {:?}: {}", defect, bad, other),
            }
            lossy.insert(place % (lossy.len() + 1), bad);
        }
        let text = join(&lossy, final_newline == 1);
        let cfg = IngestConfig { skip_bad_lines: true };
        assert_all_drivers_yield(&text, &cfg, &splits, &records, 9)?;
    }

    /// Arbitrary *bytes* — a corpus with runs of anything spliced in: lone
    /// continuation bytes, truncated sequences, newlines, quotes — end the
    /// same way through every driver: the same dataset and counts, or the
    /// same error, worded the same. A lossy run accounts for every line as a
    /// record, a skipped line or a blank one, and every record it accepts
    /// reads back unchanged once [`write_ndjson`] has written it.
    #[test]
    fn arbitrary_bytes_end_alike_on_every_driver(
        draws in arb_tape(),
        n in 0usize..40,
        splices in prop::collection::vec(
            (0usize..4000, prop::collection::vec(0u8..=255, 0..4)),
            0..5,
        ),
        splits in arb_splits(),
    ) {
        let mut bytes = join(&corpus(&draws, n).0, true).into_bytes();
        for (at, run) in splices {
            let at = at % (bytes.len() + 1);
            bytes.splice(at..at, run);
        }
        let lossy = IngestConfig { skip_bad_lines: true };
        if let Ok((records, stats)) = ingest::ingest_records_slice(&bytes, &lossy) {
            let blank = bytes
                .split(|&b| b == b'\n')
                .take(stats.lines as usize)
                .filter(|l| l.iter().all(|b| b" \t\r".contains(b)))
                .count();
            prop_assert_eq!(stats.events + stats.skipped_lines + blank as u64, stats.lines);
            let mut written = Vec::new();
            write_ndjson(&mut written, &records).unwrap();
            let read = ingest::ingest_records_slice(&written, &IngestConfig::default());
            prop_assert_eq!(read.unwrap().0, records);
        }
        for cfg in [IngestConfig::default(), lossy] {
            let mut outs = every_driver(&bytes, &cfg, &splits).into_iter();
            match outs.next().unwrap() {
                Ok(whole) => {
                    for out in outs {
                        let out = out.unwrap();
                        assert_datasets_identical(&whole.dataset, &out.dataset)?;
                        prop_assert_eq!(out.stats, whole.stats);
                    }
                }
                Err(e) => {
                    for out in outs {
                        prop_assert_eq!(out.unwrap_err().to_string(), e.to_string());
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------- fixtures

fn plain_line(author: &str, page: &str, ts: i64) -> String {
    format!(r#"{{"author":"{author}","link_id":"{page}","created_utc":{ts}}}"#)
}

/// `records` as plain lines.
fn plain_text(records: &[CommentRecord], final_newline: bool) -> String {
    let lines: Vec<String> = records
        .iter()
        .map(|r| plain_line(&r.author, &r.link_id, r.created_utc))
        .collect();
    join(&lines, final_newline)
}

/// A hand-written month in pushshift's own format: escaped bodies, nested
/// `gildings` and `all_awardings`, `null`s, `[deleted]`, AutoModerator, a
/// name escaped as a surrogate pair, a duplicate key, integral-float
/// timestamps, padding, a blank line and CRLF endings.
#[test]
fn the_pushshift_corpus_reads_the_same_through_every_driver() {
    let text = include_str!("data/pushshift_2020_01.ndjson");
    assert!(text.contains("\r\n") && text.len() <= 16 << 10);
    let records: Vec<CommentRecord> = [
        ("Grumpy_Ferret_42", "t3_ei1xyz", 1577836800),
        ("AutoModerator", "t3_ei1abc", 1577836801),
        ("[deleted]", "t3_ei1xyz", 1577836805),
        ("quoting_quinn", "t3_ei1xyz", 1577836810),
        ("🤖_helper", "t3_ei1def", 1577836815),
        ("dupe_winner", "t3_ei1def", 1577836820),
        ("mlb_stream_bot_1", "t3_ei2mlb", 1577836830),
        ("mlb_stream_bot_2", "t3_ei2mlb", 1577836831),
        ("mlb_stream_bot_3", "t3_ei2mlb", 1577836833),
        ("gpt2_bot_7", "t3_ei3gpt", 1577836900),
        ("gpt2_bot_8", "t3_ei3gpt", 1577836905),
        ("gpt2_bot_7", "t3_ei3gpt", 1577836910),
        ("smiley_bot", "t3_ei4smi", 1577837000),
        ("casual_carl", "t3_ei4smi", 1577837001),
        ("smiley_bot", "t3_ei4smi", 1577837002),
        ("Grumpy_Ferret_42", "t3_ei1abc", 1577837100),
        ("[deleted]", "t3_ei1abc", 1577837200),
        ("sébastien_ü", "t3_ei5caf", 1577837300),
        ("AutoModerator", "t3_ei5caf", 1577837400),
    ]
    .into_iter()
    .map(|(a, p, ts)| CommentRecord::new(a, p, ts))
    .collect();
    let (read, _) =
        ingest::ingest_records_slice(text.as_bytes(), &IngestConfig::default()).unwrap();
    assert_eq!(read, records);
    assert_all_drivers_yield(text, &IngestConfig::default(), SPLITS, &records, 0).unwrap();
}

/// Every line a new author (and every fifth a new page): the interners grow
/// through many table doublings.
#[test]
fn huge_vocabulary_reads_as_written() {
    let records: Vec<CommentRecord> = (0..3000)
        .map(|i| CommentRecord::new(format!("author_{i}"), format!("t3_{}", i / 5), i / 5 * 100))
        .collect();
    let text = plain_text(&records, true);
    assert_all_drivers_yield(&text, &IngestConfig::default(), SPLITS, &records, 0).unwrap();
    let ds = ingest::ingest_slice(text.as_bytes(), &IngestConfig::default())
        .unwrap()
        .dataset;
    assert_eq!((ds.authors.len(), ds.pages.len()), (3000, 600));
}

/// A malformed line swept through every position of a corpus of equal-width
/// lines, first to last, with and without the final newline: through every
/// driver, a parse error on its line, at the byte where its string is cut.
#[test]
fn strict_error_line_is_the_same_at_every_position() {
    let n = 30;
    let width = plain_line("u00", "p", 100).len();
    for bad_at in 1..=n {
        let lines: Vec<String> = (1..=n)
            .map(|i| {
                if i == bad_at {
                    format!("{:<width$}", "{\"author\": 12, \"oops")
                } else {
                    plain_line(&format!("u{:02}", i % 7), "p", 100 + i as i64)
                }
            })
            .collect();
        assert!(lines.iter().all(|l| l.len() == width));
        let text = join(&lines, bad_at % 2 == 0);
        match assert_all_drivers_fail_alike(text.as_bytes(), SPLITS) {
            ReadError::Parse { line, source } => {
                let cut = ParseError {
                    kind: ParseErrorKind::UnexpectedEnd,
                    at: width,
                };
                assert_eq!((line, source), (bad_at, cut));
            }
            other => panic!("line {bad_at}: expected a parse error, got {other}"),
        }
    }
}

/// A line three times the reader's chunk: the buffer grows to hold it, and
/// the lines after it parse as if nothing happened.
#[test]
fn a_line_longer_than_the_chunk_grows_the_buffer() {
    let long = format!(
        r#"{{"body":"{}","author":"wordy","link_id":"t3_long","created_utc":2}}"#,
        "x\\\"".repeat(1 << 20)
    );
    let lines = [
        plain_line("before", "t3_a", 1),
        long,
        plain_line("after", "t3_a", 3),
        plain_line("wordy", "t3_b", 4),
    ];
    let records = [
        CommentRecord::new("before", "t3_a", 1),
        CommentRecord::new("wordy", "t3_long", 2),
        CommentRecord::new("after", "t3_a", 3),
        CommentRecord::new("wordy", "t3_b", 4),
    ];
    let text = join(&lines, true);
    assert_all_drivers_yield(&text, &IngestConfig::default(), &[1 << 16], &records, 0).unwrap();
}

/// More text than one chunk, no final newline, CRLF endings and multi-byte
/// names on every line: wherever the reader's buffer ends — mid-line,
/// mid-character, between `\r` and `\n` — the tail is carried over whole.
#[test]
fn chunk_boundaries_fall_anywhere_in_a_large_input() {
    let records: Vec<CommentRecord> = (0..60_000)
        .map(|i| {
            CommentRecord::new(
                format!("uni—codé✓{}", i % 977),
                format!("t3_ü{}", i % 1013),
                i,
            )
        })
        .collect();
    let text = plain_text(&records, false).replace("}\n", "}\r\n");
    assert!(text.len() > 3 << 20);
    assert_all_drivers_yield(
        &text,
        &IngestConfig::default(),
        &[8191, 70_001],
        &records,
        0,
    )
    .unwrap();
}

#[test]
fn empty_input_is_an_empty_dataset_for_every_driver() {
    assert_all_drivers_yield("", &IngestConfig::default(), SPLITS, &[], 0).unwrap();
}

/// A file with malformed JSON on line 5 and a non-UTF-8 byte on line 900 is a
/// parse error on line 5 — and the other way round an I/O error naming line
/// 5 — however it is read.
#[test]
fn the_first_fault_in_file_order_wins() {
    let mut lines: Vec<Vec<u8>> = (1..=1000)
        .map(|i| plain_line(&format!("u{}", i % 13), "p", i).into_bytes())
        .collect();
    let (malformed, not_utf8) = (
        b"{\"author\": 12".to_vec(),
        b"{\"author\":\"\xff\"}".to_vec(),
    );

    lines[4] = malformed.clone();
    lines[899] = not_utf8.clone();
    let bytes = lines.join(&b'\n');
    match assert_all_drivers_fail_alike(&bytes, SPLITS) {
        ReadError::Parse { line: 5, .. } => {}
        other => panic!("expected a parse error on line 5, got {other}"),
    }

    lines[4] = not_utf8;
    lines[899] = malformed;
    let bytes = lines.join(&b'\n');
    let offset: usize = lines[..4].iter().map(|l| l.len() + 1).sum::<usize>() + 11;
    match assert_all_drivers_fail_alike(&bytes, SPLITS) {
        ReadError::Io(e) => {
            assert_eq!(e.kind(), ErrorKind::InvalidData);
            assert!(
                e.to_string()
                    .ends_with(&format!("line 5, at byte {offset}")),
                "{e}"
            );
        }
        other => panic!("expected an I/O error, got {other}"),
    }
    // lossy mode skips malformed lines, never undecodable ones
    let lossy = IngestConfig {
        skip_bad_lines: true,
    };
    for out in every_driver(&bytes, &lossy, SPLITS) {
        assert!(matches!(out, Err(ReadError::Io(_))));
    }
}

/// A read error other than `Interrupted` ends the run as `ReadError::Io`:
/// the lines already parsed are not returned — whether it comes on the
/// second read of a two-line input or after several chunks, with scanned
/// chunks still on their way to the interning thread — and a reader that
/// panics mid-stream hands its panic to the caller. Neither stage is left
/// waiting: every run returns.
#[test]
fn a_failing_reader_is_an_io_error_with_nothing_partial() {
    struct Dies<'a> {
        text: &'a [u8],
        panics: bool,
    }
    impl Read for Dies<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.text.is_empty() {
                if self.panics {
                    panic!("the reader gave up");
                }
                return Err(io::Error::new(ErrorKind::BrokenPipe, "the pipe went away"));
            }
            let n = self.text.len().min(buf.len());
            buf[..n].copy_from_slice(&self.text[..n]);
            self.text = &self.text[n..];
            Ok(n)
        }
    }
    fn panic_message<T: std::fmt::Debug>(run: impl FnOnce() -> T) -> String {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
            Err(panic) => panic
                .downcast_ref::<&str>()
                .copied()
                .unwrap_or("?")
                .to_owned(),
            Ok(ended) => panic!("expected the reader's panic, got {ended:?}"),
        }
    }
    let short = join(&[plain_line("a", "p", 1), plain_line("b", "p", 2)], true);
    let lines: Vec<String> = (0..100_000)
        .map(|i| plain_line(&format!("u{}", i % 977), &format!("t3_{}", i % 1013), i))
        .collect();
    let long = join(&lines, true);
    assert!(long.len() > 4 << 20, "several chunks");
    let strict = IngestConfig::default();
    for text in [short.as_bytes(), long.as_bytes()] {
        let dies = || Dies {
            text,
            panics: false,
        };
        match ingest::ingest_reader(dies(), &strict) {
            Err(ReadError::Io(e)) => assert_eq!(e.kind(), ErrorKind::BrokenPipe),
            other => panic!("expected the reader's error, got {other:?}"),
        }
        match ingest::ingest_records_reader(dies(), &strict) {
            Err(ReadError::Io(e)) => assert_eq!(e.kind(), ErrorKind::BrokenPipe),
            other => panic!("expected the reader's error, got {other:?}"),
        }
        let panics = || Dies { text, panics: true };
        assert_eq!(
            panic_message(|| ingest::ingest_reader(panics(), &strict).map(|_| ())),
            "the reader gave up"
        );
        assert_eq!(
            panic_message(|| ingest::ingest_records_reader(panics(), &strict).map(|_| ())),
            "the reader gave up"
        );
    }
}
