//! Event sources: timestamp-ordered record streams for the engine.
//!
//! The projector requires non-decreasing timestamps, so every source here
//! sorts up front (a real firehose would instead sit behind a small reorder
//! buffer): pushshift-style NDJSON (`{"author", "link_id", "created_utc"}`
//! per line) via [`read_ndjson_sorted`], and any record list — a generated
//! scenario's, cloned so the scenario keeps its ground truth for judging
//! alerts — via [`sort_records`].
//!
//! [`Replay`] optionally paces either stream against the wall clock with a
//! configurable speedup — 3600× replays an hour of Reddit per second — for
//! demo runs of the CLI; tests and benches leave pacing off and ingest at
//! full speed.

use std::io::Read;
use std::time::{Duration, Instant};

use coordination_core::ingest::{ingest_records_reader, IngestConfig, IngestStats};
use coordination_core::records::{CommentRecord, ReadError};

/// Sort records into the engine's required order: by timestamp, with
/// (author, page) as a deterministic tie-break. The tie-break never changes
/// the projection (pair keys are unordered) but keeps replays reproducible.
pub fn sort_records(records: &mut [CommentRecord]) {
    records.sort_by(|a, b| {
        (a.created_utc, &a.author, &a.link_id).cmp(&(b.created_utc, &b.author, &b.link_id))
    });
}

/// Read NDJSON comment records from `reader` — a chunk at a time, through
/// the [`coordination_core::ingest`] layer's scanner — and return them in
/// stream order plus the ingest counters (skipped lines in lossy mode).
pub fn read_ndjson_sorted(
    reader: impl Read + Send,
    skip_bad_lines: bool,
) -> Result<(Vec<CommentRecord>, IngestStats), ReadError> {
    let (mut records, stats) = ingest_records_reader(reader, &IngestConfig { skip_bad_lines })?;
    sort_records(&mut records);
    Ok((records, stats))
}

/// A pacing wrapper: yields records in order, optionally sleeping so that
/// stream time advances `speedup`× faster than wall time.
pub struct Replay {
    records: std::vec::IntoIter<CommentRecord>,
    /// `None` = as fast as possible.
    speedup: Option<f64>,
    /// (wall-clock start, stream timestamp of the first record).
    origin: Option<(Instant, i64)>,
}

impl Replay {
    /// Replay `records` (must already be in stream order) at full speed.
    pub fn new(records: Vec<CommentRecord>) -> Self {
        Replay {
            records: records.into_iter(),
            speedup: None,
            origin: None,
        }
    }

    /// Pace the replay: one stream-second takes `1/speedup` wall-seconds.
    /// Non-finite or non-positive values disable pacing.
    pub fn with_speedup(mut self, speedup: f64) -> Self {
        self.speedup = (speedup.is_finite() && speedup > 0.0).then_some(speedup);
        self
    }
}

impl Iterator for Replay {
    type Item = CommentRecord;

    fn next(&mut self) -> Option<CommentRecord> {
        let record = self.records.next()?;
        if let Some(speedup) = self.speedup {
            let (start, t0) = *self
                .origin
                .get_or_insert_with(|| (Instant::now(), record.created_utc));
            let stream_elapsed = (record.created_utc - t0).max(0) as f64;
            let due = Duration::from_secs_f64(stream_elapsed / speedup);
            let elapsed = start.elapsed();
            if due > elapsed {
                std::thread::sleep(due - elapsed);
            }
        }
        Some(record)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.records.size_hint()
    }
}

impl ExactSizeIterator for Replay {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn ndjson_source_sorts_by_timestamp() {
        let input = concat!(
            r#"{"author":"b","link_id":"t3_x","created_utc":300}"#,
            "\n",
            r#"{"author":"a","link_id":"t3_y","created_utc":100}"#,
            "\n",
            r#"{"author":"c","link_id":"t3_x","created_utc":200}"#,
            "\n",
        );
        let (records, _) = read_ndjson_sorted(Cursor::new(input), false).unwrap();
        let ts: Vec<i64> = records.iter().map(|r| r.created_utc).collect();
        assert_eq!(ts, vec![100, 200, 300]);
    }

    #[test]
    fn lossy_source_skips_and_counts_bad_lines() {
        let input = concat!(
            r#"{"author":"b","link_id":"t3_x","created_utc":300}"#,
            "\n",
            "garbage line\n",
            r#"{"author":"a","link_id":"t3_y","created_utc":100}"#,
            "\n",
        );
        let (records, stats) = read_ndjson_sorted(input.as_bytes(), true).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].created_utc, 100);
        assert_eq!(stats.skipped_lines, 1);
        // strict mode aborts on the same input
        assert!(read_ndjson_sorted(input.as_bytes(), false).is_err());
    }

    #[test]
    fn tie_break_is_deterministic() {
        let mut records = vec![
            CommentRecord::new("zed", "t3_b", 50),
            CommentRecord::new("ann", "t3_b", 50),
            CommentRecord::new("ann", "t3_a", 50),
        ];
        sort_records(&mut records);
        let order: Vec<(&str, &str)> = records
            .iter()
            .map(|r| (r.author.as_str(), r.link_id.as_str()))
            .collect();
        assert_eq!(
            order,
            vec![("ann", "t3_a"), ("ann", "t3_b"), ("zed", "t3_b")]
        );
    }

    #[test]
    fn unpaced_replay_yields_everything_in_order() {
        let records = vec![
            CommentRecord::new("a", "t3_x", 1),
            CommentRecord::new("b", "t3_x", 2),
        ];
        let replay = Replay::new(records.clone());
        assert_eq!(replay.len(), 2);
        let out: Vec<CommentRecord> = replay.collect();
        assert_eq!(out, records);
    }

    #[test]
    fn paced_replay_sleeps_proportionally() {
        // 10 stream-seconds at 1000× ≈ 10 ms wall — measurable but quick.
        let records = vec![
            CommentRecord::new("a", "t3_x", 0),
            CommentRecord::new("b", "t3_x", 10),
        ];
        let start = Instant::now();
        let n = Replay::new(records).with_speedup(1000.0).count();
        assert_eq!(n, 2);
        assert!(start.elapsed() >= Duration::from_millis(9));
    }

    #[test]
    fn scenario_records_are_stream_ordered() {
        let mut records = redditgen::ScenarioConfig::jan2020(0.02).build().records;
        sort_records(&mut records);
        assert!(!records.is_empty());
        assert!(records
            .windows(2)
            .all(|w| w[0].created_utc <= w[1].created_utc));
    }
}
