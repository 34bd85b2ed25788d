//! Property tests pinning every NDJSON ingest driver to the reference reader
//! and the zero-copy scanner to full serde deserialization.
//!
//! The invariant under test: on ANY input — text or not — and however the
//! bytes arrive, [`ingest::ingest_reader`], [`ingest::ingest_slice`] and their
//! `records` twins see what `read_ndjson_into_dataset` — one `serde_json`
//! parse per line, one `Dataset::push` — sees: the same events, the same names
//! under the same dense ids, the same line counts, and in strict mode the
//! same first fault in file order: a malformed line under its 1-based number,
//! a non-UTF-8 one as an I/O error.

use std::io::{self, ErrorKind, Read};

use proptest::prelude::*;
use proptest::TestCaseError;

use coordination_core::ids::Interner;
use coordination_core::ingest::{self, scan_record, IngestConfig, IngestStats};
use coordination_core::records::{
    read_ndjson_into_dataset, write_ndjson, CommentRecord, Dataset, ReadError,
};

/// Author/page name pool, heavy on serialization hazards: empty strings,
/// JSON metacharacters, escapes, unicode, whitespace, an excluded bot. Names
/// needing escapes force the scanner down its serde-fallback path, so both
/// scanner-handled and fallback lines appear in most generated corpora.
const NAMES: &[&str] = &[
    "alice",
    "bob",
    "carol_9",
    "",
    "[deleted]",
    "AutoModerator",
    "with space",
    "quote\"inside",
    "back\\slash",
    "uni—codé✓",
    "tab\tchar",
    "line\nbreak",
    "a",
    "t3_dupe",
];

const BAD_LINE: &str = "{\"author\": 12, \"oops";

fn arb_name() -> impl Strategy<Value = String> {
    (0usize..NAMES.len()).prop_map(|i| NAMES[i].to_string())
}

/// One input line: a record in one of several spellings, or a blank.
fn arb_line() -> impl Strategy<Value = String> {
    (arb_name(), arb_name(), 0i64..200, 0u8..8, 0u8..4).prop_map(
        |(author, link_id, ts, shape, crlf)| {
            let a = serde_json::to_string(&author).unwrap();
            let p = serde_json::to_string(&link_id).unwrap();
            let mut line = match shape {
                0 | 1 => format!(r#"{{"author":{a},"link_id":{p},"created_utc":{ts}}}"#),
                2 => format!(
                    r#"{{"score":-3,"author":{a},"gildings":{{"a":[1,2.5e3]}},"link_id":{p},"created_utc":{ts},"edited":false}}"#
                ),
                // an integral float: the scanner punts, serde accepts
                3 => format!(r#"{{"author":{a},"link_id":{p},"created_utc":{ts}.0}}"#),
                // duplicate key, last wins: "ghost" must never be interned
                4 => format!(
                    r#"{{"author":"ghost","author":{a},"link_id":{p},"created_utc":{ts}}}"#
                ),
                5 => format!("  {{ \"author\" : {a} ,\t\"link_id\":{p},\"created_utc\": {ts} }}\t "),
                6 => String::new(),
                _ => "  \t".to_owned(),
            };
            if crlf == 0 {
                line.push('\r');
            }
            line
        },
    )
}

/// Read sizes for [`ShortReads`] to cycle through.
fn arb_splits() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..200, 1..8)
}

/// A corpus: generated lines, with or without the final newline.
fn arb_corpus() -> impl Strategy<Value = (Vec<String>, bool)> {
    (prop::collection::vec(arb_line(), 0..60), 0u8..3).prop_map(|(lines, nl)| (lines, nl > 0))
}

fn join(lines: &[String], final_newline: bool) -> String {
    let mut text = lines.join("\n");
    if final_newline && !lines.is_empty() {
        text.push('\n');
    }
    text
}

/// The stats the input itself implies, worked out without any reader: a line
/// is a `'\n'`-terminated run (or the unterminated tail), and the scanner
/// punts exactly on escapes, float timestamps and malformed lines.
fn implied_stats(text: &str, events: u64, skipped: u64) -> IngestStats {
    let newlines = text.bytes().filter(|&b| b == b'\n').count() as u64;
    let tail = u64::from(!text.is_empty() && !text.ends_with('\n'));
    let fallbacks = text
        .split('\n')
        .filter(|l| l.contains('\\') || l.contains(".0}") || l.contains("oops"))
        .count() as u64;
    IngestStats {
        lines: newlines + tail,
        events,
        skipped_lines: skipped,
        scanner_fallbacks: fallbacks,
    }
}

fn interner_names(i: &Interner) -> Vec<&str> {
    (0..i.len() as u32).map(|id| i.name(id)).collect()
}

fn assert_datasets_identical(reference: &Dataset, got: &Dataset) -> Result<(), TestCaseError> {
    prop_assert_eq!(&reference.events, &got.events);
    prop_assert_eq!(
        interner_names(&reference.authors),
        interner_names(&got.authors)
    );
    prop_assert_eq!(interner_names(&reference.pages), interner_names(&got.pages));
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

/// Every dataset driver on `bytes`.
fn dataset_drivers(
    bytes: &[u8],
    cfg: &IngestConfig,
    splits: &[usize],
) -> Vec<Result<ingest::Ingest, ReadError>> {
    drivers(
        bytes,
        splits,
        |b| ingest::ingest_slice(b, cfg),
        |r| ingest::ingest_reader(r, cfg),
    )
}

/// [`dataset_drivers`]' `records` twins.
fn record_drivers(
    bytes: &[u8],
    cfg: &IngestConfig,
    splits: &[usize],
) -> Vec<Result<(Vec<CommentRecord>, IngestStats), ReadError>> {
    drivers(
        bytes,
        splits,
        |b| ingest::ingest_records_slice(b, cfg),
        |r| ingest::ingest_records_reader(r, cfg),
    )
}

/// Every driver, under `cfg`, yields `reference` and `stats`.
fn assert_all_drivers_yield(
    bytes: &[u8],
    cfg: &IngestConfig,
    splits: &[usize],
    reference: &Dataset,
    stats: IngestStats,
) -> Result<(), TestCaseError> {
    for out in dataset_drivers(bytes, cfg, splits) {
        let out = out.unwrap();
        assert_datasets_identical(reference, &out.dataset)?;
        prop_assert_eq!(out.stats, stats);
        prop_assert_eq!(out.dataset.authors.get("ghost"), None);
    }
    for out in record_drivers(bytes, cfg, splits) {
        let (records, record_stats) = out.unwrap();
        assert_datasets_identical(reference, &Dataset::from_records(records))?;
        prop_assert_eq!(record_stats, stats);
    }
    Ok(())
}

/// Every driver against the reference reader on well-formed `text`.
fn assert_all_drivers_match(text: &str, splits: &[usize]) -> Result<(), TestCaseError> {
    let reference = read_ndjson_into_dataset(text.as_bytes()).unwrap();
    let stats = implied_stats(text, reference.len() as u64, 0);
    let strict = IngestConfig::default();
    assert_all_drivers_yield(text.as_bytes(), &strict, splits, &reference, stats)
}

/// How a strict read ended, as far as the reference reader can say: it
/// numbers a malformed line but not a non-UTF-8 one.
#[derive(Debug, PartialEq, Eq)]
enum Fault {
    Parse(usize),
    NotUtf8,
}

fn fault<T: std::fmt::Debug>(r: Result<T, ReadError>) -> Fault {
    match r {
        Err(ReadError::Parse { line, .. }) => Fault::Parse(line),
        Err(ReadError::Io(e)) if e.kind() == ErrorKind::InvalidData => Fault::NotUtf8,
        other => panic!("expected a parse or a UTF-8 error, got {other:?}"),
    }
}

/// Every strict driver stops at the fault the reference reader stops at —
/// the first in file order — and, past what the reference reader can say,
/// the chunk reader and the one-piece pass word it identically.
fn assert_all_drivers_fail_like_the_reference(bytes: &[u8], splits: &[usize]) -> Fault {
    let strict = IngestConfig::default();
    let expected = fault(read_ndjson_into_dataset(bytes));
    let mut messages = Vec::new();
    for out in dataset_drivers(bytes, &strict, splits) {
        messages.push(out.as_ref().unwrap_err().to_string());
        assert_eq!(fault(out), expected);
    }
    for out in record_drivers(bytes, &strict, splits) {
        messages.push(out.as_ref().unwrap_err().to_string());
        assert_eq!(fault(out), expected);
    }
    assert!(messages.iter().all(|m| *m == messages[0]), "{messages:?}");
    expected
}

/// Every strict driver reports the first malformed line of `text` under the
/// same 1-based number as the reference reader.
fn assert_all_drivers_fail_at(text: &str, line: usize, splits: &[usize]) {
    assert_eq!(
        assert_all_drivers_fail_like_the_reference(text.as_bytes(), splits),
        Fault::Parse(line)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Mixed corpora — scanner-eligible lines, escape and float fallbacks,
    /// duplicate keys, padded and blank lines, CRLF endings, with and
    /// without the final newline.
    #[test]
    fn every_driver_matches_the_reference_reader(
        (lines, final_newline) in arb_corpus(),
        splits in arb_splits(),
    ) {
        assert_all_drivers_match(&join(&lines, final_newline), &splits)?;
    }

    /// Strict mode: one malformed line anywhere in the corpus (first, last or
    /// in between) is reported under the same line number by every driver.
    #[test]
    fn strict_mode_reports_the_reference_readers_line(
        (mut lines, final_newline) in arb_corpus(),
        at in 0usize..60,
        splits in arb_splits(),
    ) {
        let at = at.min(lines.len());
        lines.insert(at, BAD_LINE.to_owned());
        assert_all_drivers_fail_at(&join(&lines, final_newline), at + 1, &splits);
    }

    /// Lossy mode over a corpus with malformed lines spliced in: the good
    /// records all survive under the reference reader's ids, and the
    /// counters say exactly what was dropped.
    #[test]
    fn lossy_mode_keeps_good_records_and_counts_the_rest(
        (lines, final_newline) in arb_corpus(),
        every in 2usize..5,
        splits in arb_splits(),
    ) {
        let mut corrupt = Vec::new();
        let mut bad = 0u64;
        for (i, line) in lines.iter().enumerate() {
            corrupt.push(line.clone());
            if i % every == 0 {
                corrupt.push(BAD_LINE.to_owned());
                bad += 1;
            }
        }
        let good = join(&lines, true);
        let text = join(&corrupt, final_newline);
        let reference = read_ndjson_into_dataset(good.as_bytes()).unwrap();
        let stats = implied_stats(&text, reference.len() as u64, bad);
        let lossy = IngestConfig { skip_bad_lines: true };
        assert_all_drivers_yield(text.as_bytes(), &lossy, &splits, &reference, stats)?;
    }

    /// Arbitrary *bytes* — a corpus with runs of anything spliced in: lone
    /// continuation bytes, truncated sequences, newlines, quotes — end the
    /// way the reference reader ends on them: the same dataset, or the same
    /// kind of fault on the same line.
    #[test]
    fn arbitrary_bytes_end_as_the_reference_reader_does(
        (lines, final_newline) in arb_corpus(),
        splices in prop::collection::vec(
            (0usize..4000, prop::collection::vec(0u8..=255, 0..4)),
            0..5,
        ),
        splits in arb_splits(),
    ) {
        let mut bytes = join(&lines, final_newline).into_bytes();
        for (at, run) in splices {
            let at = at % (bytes.len() + 1);
            bytes.splice(at..at, run);
        }
        match read_ndjson_into_dataset(&bytes[..]) {
            Ok(reference) => {
                let strict = IngestConfig::default();
                for out in dataset_drivers(&bytes, &strict, &splits) {
                    assert_datasets_identical(&reference, &out.unwrap().dataset)?;
                }
                for out in record_drivers(&bytes, &strict, &splits) {
                    assert_datasets_identical(&reference, &Dataset::from_records(out.unwrap().0))?;
                }
            }
            Err(_) => {
                assert_all_drivers_fail_like_the_reference(&bytes, &splits);
            }
        }
    }

    /// On every serialized record line the scanner either bails (handing the
    /// line to serde) or extracts exactly the fields serde would.
    #[test]
    fn scanner_agrees_with_serde_on_valid_lines(
        author in arb_name(),
        link_id in arb_name(),
        ts in -1_000i64..1_000_000_000,
    ) {
        let record = CommentRecord::new(author, link_id, ts);
        let mut line = Vec::new();
        write_ndjson(&mut line, std::slice::from_ref(&record)).unwrap();
        let line = std::str::from_utf8(&line).unwrap().trim_end_matches('\n');
        match scan_record(line) {
            Some(r) => {
                prop_assert_eq!(r.author, record.author.as_str());
                prop_assert_eq!(r.link_id, record.link_id.as_str());
                prop_assert_eq!(r.created_utc, record.created_utc);
            }
            None => {
                // bail is always safe: the fallback parses it
                let parsed: CommentRecord = serde_json::from_str(line).unwrap();
                prop_assert_eq!(parsed, record);
            }
        }
    }

    /// Soundness on corrupted input: whenever the scanner accepts a mutated
    /// line, serde must also accept it and agree on every field. (The scanner
    /// may bail where serde succeeds — that is the fallback path — but must
    /// never accept where serde fails or disagrees.)
    #[test]
    fn scanner_never_accepts_what_serde_rejects(
        author in arb_name(),
        link_id in arb_name(),
        ts in -1_000i64..1_000_000_000,
        cut in 0usize..80,
        junk in "[ {}\":,a-z0-9._-]{0,6}",
    ) {
        let record = CommentRecord::new(author, link_id, ts);
        let mut buf = Vec::new();
        write_ndjson(&mut buf, std::slice::from_ref(&record)).unwrap();
        let valid = std::str::from_utf8(&buf).unwrap().trim_end_matches('\n');
        // corrupt: truncate at an arbitrary char boundary, splice junk in
        let at = valid
            .char_indices()
            .map(|(i, _)| i)
            .chain([valid.len()])
            .nth(cut.min(valid.chars().count()))
            .unwrap_or(valid.len());
        let mutated = format!("{}{}{}", &valid[..at], junk, &valid[at..]);
        if let Some(r) = scan_record(&mutated) {
            let parsed: Result<CommentRecord, _> = serde_json::from_str(&mutated);
            let parsed = match parsed {
                Ok(p) => p,
                Err(e) => {
                    return Err(TestCaseError::fail(format!(
                        "scanner accepted {mutated:?} but serde rejected it: {e}"
                    )));
                }
            };
            prop_assert_eq!(r.author, parsed.author.as_str());
            prop_assert_eq!(r.link_id, parsed.link_id.as_str());
            prop_assert_eq!(r.created_utc, parsed.created_utc);
        }
    }
}

fn plain_line(author: &str, page: &str, ts: i64) -> String {
    format!(r#"{{"author":"{author}","link_id":"{page}","created_utc":{ts}}}"#)
}

/// Every line a new author (and every fifth a new page): the interners grow
/// through many table doublings.
#[test]
fn huge_vocabulary_matches_the_reference_reader() {
    let lines: Vec<String> = (0..3000)
        .map(|i| {
            plain_line(
                &format!("author_{i}"),
                &format!("t3_{}", i / 5),
                i / 5 * 100,
            )
        })
        .collect();
    let text = join(&lines, true);
    assert_all_drivers_match(&text, SPLITS).unwrap();
    let ds = ingest::ingest_slice(text.as_bytes(), &IngestConfig::default())
        .unwrap()
        .dataset;
    assert_eq!((ds.authors.len(), ds.pages.len()), (3000, 600));
}

/// The malformed line swept through every position of a corpus, first to
/// last, with and without the final newline.
#[test]
fn strict_error_line_is_the_same_at_every_position() {
    let n = 30;
    let width = plain_line("u00", "p", 100).len();
    for bad_at in 1..=n {
        let lines: Vec<String> = (1..=n)
            .map(|i| {
                if i == bad_at {
                    format!("{BAD_LINE:<width$}")
                } else {
                    plain_line(&format!("u{:02}", i % 7), "p", 100 + i as i64)
                }
            })
            .collect();
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert_all_drivers_fail_at(&join(&lines, bad_at % 2 == 0), bad_at, SPLITS);
    }
}

/// A line three times the reader's chunk: the buffer grows to hold it, and
/// the lines after it parse as if nothing happened.
#[test]
fn a_line_longer_than_the_chunk_grows_the_buffer() {
    let long = format!(
        r#"{{"body":"{}","author":"wordy","link_id":"t3_long","created_utc":2}}"#,
        "x".repeat(3 << 20)
    );
    let lines = [
        plain_line("before", "t3_a", 1),
        long,
        plain_line("after", "t3_a", 3),
        plain_line("wordy", "t3_b", 4),
    ];
    let text = join(&lines, true);
    let reference = read_ndjson_into_dataset(text.as_bytes()).unwrap();
    assert_eq!(reference.len(), 4);
    let sizes = [1 << 16];
    let reader = ShortReads {
        rest: text.as_bytes(),
        sizes: &sizes,
        calls: 0,
    };
    let out = ingest::ingest_reader(reader, &IngestConfig::default()).unwrap();
    assert_datasets_identical(&reference, &out.dataset).unwrap();
    assert_eq!(out.stats, implied_stats(&text, 4, 0));
}

/// More text than one chunk, no final newline, CRLF endings and multi-byte
/// names on every line: wherever the reader's buffer ends — mid-line,
/// mid-character, between `\r` and `\n` — the tail is carried over whole.
#[test]
fn chunk_boundaries_fall_anywhere_in_a_large_input() {
    let lines: Vec<String> = (0..60_000)
        .map(|i| {
            let mut line = plain_line(
                &format!("uni—codé✓{}", i % 977),
                &format!("t3_ü{}", i % 1013),
                i,
            );
            if i % 3 == 0 {
                line.push('\r');
            }
            line
        })
        .collect();
    let text = join(&lines, false);
    assert!(text.len() > 3 << 20);
    assert_all_drivers_match(&text, &[8191, 70_001]).unwrap();
}

#[test]
fn empty_input_is_an_empty_dataset_for_every_driver() {
    assert_all_drivers_match("", SPLITS).unwrap();
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
        BAD_LINE.as_bytes().to_vec(),
        b"{\"author\":\"\xff\"}".to_vec(),
    );

    lines[4] = malformed.clone();
    lines[899] = not_utf8.clone();
    let bytes = lines.join(&b'\n');
    assert_eq!(
        assert_all_drivers_fail_like_the_reference(&bytes, SPLITS),
        Fault::Parse(5)
    );

    lines[4] = not_utf8;
    lines[899] = malformed;
    let bytes = lines.join(&b'\n');
    assert_eq!(
        assert_all_drivers_fail_like_the_reference(&bytes, SPLITS),
        Fault::NotUtf8
    );
    let offset: usize = lines[..4].iter().map(|l| l.len() + 1).sum::<usize>() + 11;
    let message = ingest::ingest_reader(&bytes[..], &IngestConfig::default())
        .unwrap_err()
        .to_string();
    assert!(
        message.contains(&format!("line 5, at byte {offset}")),
        "{message}"
    );
    // lossy mode skips malformed lines, never undecodable ones
    let lossy = IngestConfig {
        skip_bad_lines: true,
    };
    for out in dataset_drivers(&bytes, &lossy, SPLITS) {
        assert_eq!(fault(out), Fault::NotUtf8);
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
