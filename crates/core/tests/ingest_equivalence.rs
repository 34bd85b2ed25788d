//! Property tests pinning every NDJSON ingest driver to the reference reader
//! and the zero-copy scanner to full serde deserialization.
//!
//! The invariant under test: on ANY input, [`ingest::ingest_slice`] and
//! [`ingest::ingest_records_slice`] see what `read_ndjson_into_dataset` — one
//! `serde_json` parse per line, one `Dataset::push` — sees: the same events,
//! the same names under the same dense ids, the same line counts, and in
//! strict mode the same 1-based line number for the first malformed line.

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

/// Every driver against the reference reader on well-formed `text`.
fn assert_all_drivers_match(text: &str) -> Result<(), TestCaseError> {
    let reference = read_ndjson_into_dataset(text.as_bytes()).unwrap();
    let stats = implied_stats(text, reference.len() as u64, 0);

    let resident = ingest::ingest_slice(text.as_bytes(), &IngestConfig::default()).unwrap();
    assert_datasets_identical(&reference, &resident.dataset)?;
    prop_assert_eq!(resident.stats, stats);
    prop_assert_eq!(resident.dataset.authors.get("ghost"), None);

    let (records, record_stats) =
        ingest::ingest_records_slice(text.as_bytes(), &IngestConfig::default()).unwrap();
    assert_datasets_identical(&reference, &Dataset::from_records(records))?;
    prop_assert_eq!(record_stats, stats);
    Ok(())
}

fn parse_error_line<T: std::fmt::Debug>(r: Result<T, ReadError>) -> usize {
    match r {
        Err(ReadError::Parse { line, .. }) => line,
        other => panic!("expected a parse error, got {other:?}"),
    }
}

/// Every strict driver reports the first malformed line of `text` under the
/// same 1-based number as the reference reader.
fn assert_all_drivers_fail_at(text: &str, line: usize) {
    let strict = IngestConfig::default();
    assert_eq!(
        parse_error_line(read_ndjson_into_dataset(text.as_bytes())),
        line
    );
    assert_eq!(
        parse_error_line(ingest::ingest_slice(text.as_bytes(), &strict)),
        line
    );
    assert_eq!(
        parse_error_line(ingest::ingest_records_slice(text.as_bytes(), &strict)),
        line
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Mixed corpora — scanner-eligible lines, escape and float fallbacks,
    /// duplicate keys, padded and blank lines, CRLF endings, with and
    /// without the final newline.
    #[test]
    fn every_driver_matches_the_reference_reader((lines, final_newline) in arb_corpus()) {
        assert_all_drivers_match(&join(&lines, final_newline))?;
    }

    /// Strict mode: one malformed line anywhere in the corpus (first, last or
    /// in between) is reported under the same line number by every driver.
    #[test]
    fn strict_mode_reports_the_reference_readers_line(
        (mut lines, final_newline) in arb_corpus(),
        at in 0usize..60,
    ) {
        let at = at.min(lines.len());
        lines.insert(at, BAD_LINE.to_owned());
        assert_all_drivers_fail_at(&join(&lines, final_newline), at + 1);
    }

    /// Lossy mode over a corpus with malformed lines spliced in: the good
    /// records all survive under the reference reader's ids, and the
    /// counters say exactly what was dropped.
    #[test]
    fn lossy_mode_keeps_good_records_and_counts_the_rest(
        (lines, final_newline) in arb_corpus(),
        every in 2usize..5,
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

        let out = ingest::ingest_slice(text.as_bytes(), &lossy).unwrap();
        assert_datasets_identical(&reference, &out.dataset)?;
        prop_assert_eq!(out.stats, stats);

        let (records, record_stats) =
            ingest::ingest_records_slice(text.as_bytes(), &lossy).unwrap();
        assert_datasets_identical(&reference, &Dataset::from_records(records))?;
        prop_assert_eq!(record_stats, stats);
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
    assert_all_drivers_match(&text).unwrap();
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
        assert_all_drivers_fail_at(&join(&lines, bad_at % 2 == 0), bad_at);
    }
}
