//! The PR's acceptance bar: the rank-sharded end-to-end pipeline
//! ([`DistPipeline`]) is *exactly* equivalent to the resident path —
//! same CI graph, same survey report, same validated triplets with
//! bit-identical floating-point scores — for any input, any rank count, and
//! any event interleaving.
//!
//! CI runs the named `distributed_matches_resident_at_*_ranks` tests explicitly
//! at 1/2/4 ranks; the proptests below extend the same claim to arbitrary
//! rank counts and shuffled event orders, and to every way in
//! (`every_way_in_is_the_same_door`).

use std::sync::Arc;

use proptest::prelude::*;

use coordination::core::dist_pipeline::{event_source, DistPipeline};
use coordination::core::filter::ExclusionList;
use coordination::core::ids::{AuthorId, Event, PageId};
use coordination::core::pipeline::{Pipeline, PipelineConfig, PipelineOutput};
use coordination::core::records::{CommentRecord, Dataset};
use coordination::core::snapshot::write_snapshot;
use coordination::core::store::Snapshot;
use coordination::core::{Btm, Interner};
use coordination::redditgen::ScenarioConfig;
use coordination::stream::{StreamConfig, StreamEngine};

/// Full-output equality, floats compared by bit pattern.
fn assert_equivalent(resident: &PipelineOutput, dist: &PipelineOutput) {
    assert_eq!(
        resident.stats.comments_reviewed,
        dist.stats.comments_reviewed
    );
    assert_eq!(resident.stats.total_authors, dist.stats.total_authors);
    assert_eq!(
        resident.stats.projected_authors,
        dist.stats.projected_authors
    );
    assert_eq!(resident.stats.ci_edges, dist.stats.ci_edges);
    assert_eq!(
        resident.stats.ci_edges_after_threshold,
        dist.stats.ci_edges_after_threshold
    );
    assert_eq!(
        resident.stats.triangles_examined,
        dist.stats.triangles_examined
    );
    assert_eq!(resident.stats.triangles_kept, dist.stats.triangles_kept);
    assert_eq!(
        resident.stats.triplets_validated,
        dist.stats.triplets_validated
    );
    assert_eq!(
        resident.ci.edges().collect::<Vec<_>>(),
        dist.ci.edges().collect::<Vec<_>>()
    );
    assert_eq!(resident.ci.page_counts(), dist.ci.page_counts());
    assert_eq!(resident.survey.total_examined, dist.survey.total_examined);
    assert_eq!(resident.survey.max_min_weight, dist.survey.max_min_weight);
    assert_eq!(
        resident.survey.min_weight_log_hist,
        dist.survey.min_weight_log_hist
    );
    assert_eq!(resident.survey.triangles.len(), dist.survey.triangles.len());
    for (a, b) in resident.survey.triangles.iter().zip(&dist.survey.triangles) {
        assert_eq!(a.triangle, b.triangle);
        assert_eq!(a.min_weight, b.min_weight);
        assert_eq!(a.t_score.to_bits(), b.t_score.to_bits());
    }
    assert_eq!(resident.triplets.len(), dist.triplets.len());
    for (a, b) in resident.triplets.iter().zip(&dist.triplets) {
        assert_eq!(a.authors, b.authors);
        assert_eq!(a.ci_weights, b.ci_weights);
        assert_eq!(a.min_ci_weight, b.min_ci_weight);
        assert_eq!(a.hyper_weight, b.hyper_weight);
        assert_eq!(a.page_counts, b.page_counts);
        assert_eq!(a.t.to_bits(), b.t.to_bits());
        assert_eq!(a.c.to_bits(), b.c.to_bits());
    }
}

/// A small generated month — realistic name tables, bot families, organic
/// noise, AutoModerator (so the exclusion path is exercised).
fn month() -> Dataset {
    let scenario = ScenarioConfig::jan2020(0.03).build();
    Dataset::from_records(scenario.records)
}

fn run_both(ds: &Dataset, nranks: usize) -> (PipelineOutput, PipelineOutput) {
    let config = PipelineConfig {
        min_triangle_weight: 25,
        ..Default::default()
    };
    let resident = Pipeline::new(config.clone()).run_dataset(ds);
    let dist = DistPipeline::new(config, nranks).run_dataset(ds);
    (resident, dist)
}

#[test]
fn distributed_matches_resident_at_1_rank() {
    let ds = month();
    let (resident, dist) = run_both(&ds, 1);
    assert!(!resident.triplets.is_empty(), "scenario found no triplets");
    assert_equivalent(&resident, &dist);
}

#[test]
fn distributed_matches_resident_at_2_ranks() {
    let ds = month();
    let (resident, dist) = run_both(&ds, 2);
    assert_equivalent(&resident, &dist);
}

#[test]
fn distributed_matches_resident_at_4_ranks() {
    let ds = month();
    let (resident, dist) = run_both(&ds, 4);
    assert_equivalent(&resident, &dist);
}

/// Three coordinated authors on 20 pages, an organic straggler per page,
/// and AutoModerator greeting every page instantly (must be excluded).
fn automoderator_scenario() -> Dataset {
    let mut recs = Vec::new();
    for page in 0..20 {
        for (i, bot) in ["bot_a", "bot_b", "bot_c"].iter().enumerate() {
            recs.push(CommentRecord::new(
                *bot,
                format!("p{page}"),
                page as i64 * 10_000 + i as i64 * 5,
            ));
        }
        recs.push(CommentRecord::new(
            format!("user{page}"),
            format!("p{page}"),
            page as i64 * 10_000 + 7_200,
        ));
    }
    for page in 0..20 {
        recs.push(CommentRecord::new(
            "AutoModerator",
            format!("p{page}"),
            page as i64 * 10_000,
        ));
    }
    Dataset::from_records(recs)
}

/// `ds` written to a snapshot file of this test's own and opened; the file
/// is unlinked when the guard drops.
fn snapshot_of(ds: &Dataset, tag: &str) -> (Snapshot, impl Drop) {
    struct Unlink(std::path::PathBuf);
    impl Drop for Unlink {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }
    let path = std::env::temp_dir().join(format!(
        "dist_equiv_{tag}_{}_{:?}.snap",
        std::process::id(),
        std::thread::current().id()
    ));
    write_snapshot(ds, None, &path).expect("write snapshot");
    let snap = Snapshot::open(&path).expect("open snapshot");
    (snap, Unlink(path))
}

#[test]
fn distributed_dataset_matches_resident_for_any_rank_count() {
    let ds = automoderator_scenario();
    let resident = Pipeline::default().run_dataset(&ds);
    for nranks in [1, 2, 3, 4, 7] {
        let dist = DistPipeline::new(PipelineConfig::default(), nranks).run_dataset(&ds);
        assert_equivalent(&resident, &dist);
    }
}

#[test]
fn distributed_snapshot_matches_resident() {
    let ds = automoderator_scenario();
    let (snap, _unlink) = snapshot_of(&ds, "scenario");
    let resident = Pipeline::default().run_dataset(&ds);
    for nranks in [1, 4] {
        let dist = DistPipeline::new(PipelineConfig::default(), nranks).run_snapshot(&snap);
        assert_equivalent(&resident, &dist);
    }
}

#[test]
fn empty_input_runs_cleanly_at_any_rank_count() {
    for nranks in [1, 2, 5] {
        let out =
            DistPipeline::new(PipelineConfig::default(), nranks).run_dataset(&Dataset::default());
        assert!(out.triplets.is_empty());
        assert_eq!(out.stats.ci_edges, 0);
        assert!(out.survey.min_weight_log_hist.is_empty());
    }
}

/// An event source that yields an author id outside the id space must stop
/// the run at the door, on one rank or three — not index a per-author table
/// out of bounds on one rank and strand the others in a barrier. Run on a
/// helper thread so that a stranded world fails here instead of hanging.
#[test]
fn poisoned_world_an_out_of_range_author_stops_the_run_at_the_door() {
    for nranks in [1, 3] {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let events = [(0, 0, 5), (1, 0, 6), (9, 1, 7), (2, 1, 8)]
                .map(|(a, p, ts)| Event::new(AuthorId(a), PageId(p), ts));
            let source =
                event_source(|rank, n| Box::new(events.iter().skip(rank).step_by(n).copied()));
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                DistPipeline::new(PipelineConfig::default(), nranks).run_events(9, &source)
            }));
            let _ = tx.send(run.err().and_then(|p| p.downcast::<String>().ok()));
        });
        let message = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the world did not tear down within 10 s")
            .expect("the run was expected to panic with a message");
        assert_eq!(*message, "author id 9 out of range", "{nranks} ranks");
    }
}

#[test]
fn packed_exchange_survives_threshold_of_one() {
    // A 1-byte flush threshold clamps every aggregator to one item per
    // batch, so every push ships immediately — the degenerate stress case
    // for the packed exchange's flush path. Output must not move.
    let ds = month();
    let config = PipelineConfig {
        min_triangle_weight: 25,
        ..Default::default()
    };
    let resident = Pipeline::new(config.clone()).run_dataset(&ds);
    let dist = DistPipeline::new(config, 3)
        .with_batch_bytes(1)
        .run_dataset(&ds);
    assert_equivalent(&resident, &dist);
}

#[test]
fn budget_of_one_batch_stress() {
    // The double-degenerate shuffle: a 1-byte flush threshold ships every
    // item as its own batch, AND a 1-byte shuffle budget forces the receive
    // side to spill its run stack to disk after absorbing at most one more
    // batch. Every shuffle label on every rank runs almost entirely
    // out-of-core, and the output still must be bit-identical to the
    // resident pipeline. Run by name in CI.
    let mut records = Vec::new();
    for page in 0..40 {
        for (i, bot) in ["bot_a", "bot_b", "bot_c"].iter().enumerate() {
            records.push(CommentRecord::new(
                *bot,
                format!("p{page}"),
                page as i64 * 10_000 + i as i64 * 5,
            ));
        }
        records.push(CommentRecord::new(
            format!("user{page}"),
            format!("p{page}"),
            page as i64 * 10_000 + 30,
        ));
    }
    let ds = Dataset::from_records(records);
    let config = PipelineConfig {
        min_triangle_weight: 1,
        ..Default::default()
    };
    let resident = Pipeline::new(config.clone()).run_dataset(&ds);
    let spilled = obs::counter("shuffle.spilled_bytes");
    let segments = obs::counter("shuffle.spill_segments");
    obs::Obs::enable();
    let before = (spilled.get(), segments.get());
    let dist = DistPipeline::new(config, 3)
        .with_batch_bytes(1)
        .with_shuffle_budget(1)
        .run_dataset(&ds);
    let after = (spilled.get(), segments.get());
    obs::Obs::disable();
    assert!(
        after.0 > before.0 && after.1 > before.1,
        "budgeted run did not spill (bytes {} -> {}, segments {} -> {})",
        before.0,
        after.0,
        before.1,
        after.1
    );
    assert!(!resident.triplets.is_empty(), "scenario found no triplets");
    assert_equivalent(&resident, &dist);
}

#[test]
fn comments_farther_apart_than_i64_do_not_overflow() {
    // `created_utc` is file-supplied. Three authors on one page, the first
    // and last comment more than `i64::MAX` seconds apart: `tj - ti`
    // overflows, which used to panic in debug builds and, wrapped negative in
    // release, slip under the `> δ2` break. Nobody is within any window of
    // anybody, on every engine.
    let rows = [("a0", i64::MIN), ("a2", 5), ("a1", i64::MAX)];
    let records: Vec<CommentRecord> = rows
        .iter()
        .map(|&(author, ts)| CommentRecord::new(author, "p0", ts))
        .collect();
    let ds = Dataset::from_records(records.clone());
    let config = PipelineConfig {
        min_triangle_weight: 1,
        ..Default::default()
    };

    let btm = Btm::from_events(3, 1, &ds.events);
    let resident = Pipeline::new(config.clone()).run_btm(&btm);
    assert_eq!(resident.stats.comments_reviewed, 3);
    assert_eq!(resident.stats.ci_edges, 0);
    assert!(resident.ci.page_counts().iter().all(|&c| c == 0));

    for nranks in [1, 2] {
        for budget in [None, Some(1), Some(1 << 30)] {
            let mut pipeline = DistPipeline::new(config.clone(), nranks);
            if let Some(bytes) = budget {
                pipeline = pipeline.with_shuffle_budget(bytes);
            }
            assert_equivalent(&resident, &pipeline.run_dataset(&ds));
        }
    }

    let mut engine = StreamEngine::new(StreamConfig {
        window: config.window,
        min_triangle_weight: 1,
        ..Default::default()
    });
    for record in &records {
        assert!(engine.ingest(record).is_empty());
    }
    let live = engine.snapshot();
    assert_eq!(live.n_edges(), 0);
    assert_eq!(live.page_counts(), resident.ci.page_counts());
}

/// File-supplied timestamps are arbitrary `i64`s: both extremes and their
/// neighbourhoods (differences that overflow), negatives, and a few values
/// many comments share (ties broken by author alone).
fn arb_ts() -> impl Strategy<Value = i64> {
    (0u8..16, -1_500i64..1_500).prop_map(|(kind, t)| match kind {
        0 => i64::MIN,
        1 => i64::MAX,
        2 => i64::MIN + 1_500 + t,
        3 => i64::MAX - 1_500 + t,
        4..=6 => t.signum() * 30,
        _ => t,
    })
}

/// Random `(author, page, ts)` rows over small id spaces (heavy collision
/// rate), some repeated verbatim (the multigraph keeps duplicates). The page
/// count is drawn too, so a world often has more ranks than pages and some
/// ranks own an empty partition.
fn arb_rows(
    max_authors: u32,
    max_pages: u32,
    max_events: usize,
) -> impl Strategy<Value = Vec<(u32, u32, i64)>> {
    (1..max_pages + 1)
        .prop_flat_map(move |n_pages| {
            let row = ((0..max_authors, 0..n_pages, arb_ts()), 1usize..3);
            prop::collection::vec(row, 0..max_events)
        })
        .prop_map(|rows| {
            rows.into_iter()
                .flat_map(|(row, copies)| std::iter::repeat_n(row, copies))
                .collect()
        })
}

/// [`arb_rows`] as pushshift-style records, so the dataset path interns real
/// names.
fn arb_records(
    max_authors: u32,
    max_pages: u32,
    max_events: usize,
) -> impl Strategy<Value = Vec<CommentRecord>> {
    arb_rows(max_authors, max_pages, max_events).prop_map(|rows| {
        rows.into_iter()
            .map(|(a, p, t)| CommentRecord::new(format!("author{a}"), format!("page{p}"), t))
            .collect()
    })
}

/// Permute the event interleaving deterministically from a proptest-chosen
/// seed. The permutation changes the chunk contents every rank parses and
/// the arrival order at every shuffle point — the output must not move.
fn shuffled(mut records: Vec<CommentRecord>, seed: u64) -> Dataset {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    records.shuffle(&mut rng);
    Dataset::from_records(records)
}

/// Dense page ids are `PAGE_STRIDE * p + 2` on the streamed-ingest path: most
/// slots of the id space never occur, at both ends and in between.
const PAGE_STRIDE: u32 = 5;

/// [`arb_rows`] as dense-id events for the streamed-ingest path (no names, no
/// exclusions — [`DistPipeline::run_events`]'s contract).
fn arb_events(
    max_authors: u32,
    max_pages: u32,
    max_events: usize,
) -> impl Strategy<Value = Vec<Event>> {
    arb_rows(max_authors, max_pages, max_events).prop_map(|rows| {
        rows.into_iter()
            .map(|(a, p, t)| Event::new(AuthorId(a), PageId(PAGE_STRIDE * p + 2), t))
            .collect()
    })
}

/// The three receive sides, evenly: no budget (flat page rows — the CLI
/// default), a budget every batch overruns (spills all the way), and one
/// larger than any partition (the run stack, never spilling).
fn arb_budget() -> impl Strategy<Value = Option<usize>> {
    (0u8..3).prop_map(|kind| match kind {
        0 => None,
        1 => Some(1),
        _ => Some(1 << 30),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exact equivalence for arbitrary rank counts, event interleavings, and
    /// shuffle budgets — `None` lands in flat page rows, a tiny budget spills
    /// run stacks to disk mid-shuffle, a huge one keeps them resident, and
    /// none may move the output.
    #[test]
    fn distributed_equals_resident_for_any_rank_count(
        records in arb_records(16, 12, 250),
        seed in 0u64..u64::MAX,
        nranks in 1usize..9,
        budget in arb_budget(),
    ) {
        let ds = shuffled(records, seed);
        let config = PipelineConfig {
            min_triangle_weight: 1,
            ..Default::default()
        };
        let resident = Pipeline::new(config.clone()).run_dataset(&ds);
        let mut pipeline = DistPipeline::new(config, nranks);
        if let Some(bytes) = budget {
            pipeline = pipeline.with_shuffle_budget(bytes);
        }
        let dist = pipeline.run_dataset(&ds);
        assert_equivalent(&resident, &dist);
    }

    /// Same claim with the edge threshold and T-score predicates active, so
    /// the distributed orientation (post-threshold degree reduction) and the
    /// keep filter are both on the hook.
    #[test]
    fn distributed_equals_resident_under_thresholds(
        records in arb_records(14, 10, 220),
        seed in 0u64..u64::MAX,
        nranks in 1usize..7,
        edge_threshold in 1u64..4,
    ) {
        let ds = shuffled(records, seed);
        let config = PipelineConfig {
            edge_threshold,
            min_triangle_weight: 2,
            min_t_score: 0.2,
            ..Default::default()
        };
        let resident = Pipeline::new(config.clone()).run_dataset(&ds);
        let dist = DistPipeline::new(config, nranks).run_dataset(&ds);
        assert_equivalent(&resident, &dist);
    }

    /// Streamed ingest ≡ materialize-then-shuffle: feeding the pipeline from
    /// a per-rank event *iterator* ([`DistPipeline::run_events`]) matches the
    /// resident run over the materialized BTM, for arbitrary chunk sizes,
    /// rank counts, and packed-exchange flush thresholds (down to a few
    /// bytes, where ship boundaries land mid-stage everywhere).
    #[test]
    fn streaming_equals_materialized_for_any_flush_threshold(
        events in arb_events(16, 12, 300),
        nranks in 1usize..6,
        chunk in 1usize..64,
        batch_bytes in 1usize..512,
        budget in arb_budget(),
    ) {
        let (n_authors, n_pages) = (16, 12 * PAGE_STRIDE);
        let btm = Btm::from_events(n_authors, n_pages, &events);
        let config = PipelineConfig {
            min_triangle_weight: 1,
            ..Default::default()
        };
        let resident = Pipeline::new(config.clone()).run_btm(&btm);
        // Rank r streams chunks r, r+nranks, … — the union over ranks is the
        // whole log for every rank count, like a block-sharded generator.
        let source = event_source(|rank, nranks| {
            Box::new(events.chunks(chunk).skip(rank).step_by(nranks).flatten().copied())
        });
        let mut pipeline = DistPipeline::new(config, nranks).with_batch_bytes(batch_bytes);
        if let Some(bytes) = budget {
            pipeline = pipeline.with_shuffle_budget(bytes);
        }
        let dist = pipeline.run_events(n_authors, &source);
        assert_equivalent(&resident, &dist);
    }

    /// Every way in is the same door: a dataset, its snapshot and a
    /// pre-filtered event source produce what the resident engine produces,
    /// for a random excluded subset of the authors — plus one excluded name
    /// (and, where raw ids are taken, one id) past the end of the id space,
    /// which has no events to drop and must not index anything.
    #[test]
    fn every_way_in_is_the_same_door(
        events in arb_events(16, 12, 300),
        excluded_bits in 0u32..1 << 16,
        nranks in 1usize..5,
        budget in arb_budget(),
    ) {
        let (n_authors, n_pages) = (16, 12 * PAGE_STRIDE);
        let names = |prefix: &str, n: u32| {
            let mut interner = Interner::new();
            (0..n).for_each(|i| assert_eq!(interner.intern(&format!("{prefix}{i}")), i));
            Arc::new(interner)
        };
        let ds = Dataset {
            authors: names("author", n_authors),
            pages: names("page", n_pages),
            events,
        };
        let mut excluded: Vec<AuthorId> = (0..n_authors)
            .filter(|a| excluded_bits >> a & 1 == 1)
            .map(AuthorId)
            .collect();
        excluded.push(AuthorId(n_authors));
        let mut exclusions = ExclusionList::new();
        exclusions.extend(excluded.iter().map(|a| format!("author{}", a.0)));
        let config = PipelineConfig {
            min_triangle_weight: 1,
            exclusions,
            ..Default::default()
        };

        let resident = Pipeline::new(config.clone()).run_dataset(&ds);
        let by_id = Btm::build(n_authors, n_pages, &excluded, || ds.events.iter().copied());
        assert_equivalent(&resident, &Pipeline::new(config.clone()).run_btm(&by_id));

        let mut pipeline = DistPipeline::new(config, nranks);
        if let Some(bytes) = budget {
            pipeline = pipeline.with_shuffle_budget(bytes);
        }
        assert_equivalent(&resident, &pipeline.run_dataset(&ds));
        let (snap, _unlink) = snapshot_of(&ds, "door");
        assert_equivalent(&resident, &pipeline.run_snapshot(&snap));
        let kept: Vec<Event> = ds
            .events
            .iter()
            .copied()
            .filter(|e| !excluded.contains(&e.author))
            .collect();
        let source = event_source(|rank, n| {
            Box::new(kept[coordination::ygm::block_range(rank, kept.len(), n)].iter().copied())
        });
        assert_equivalent(&resident, &pipeline.run_events(n_authors, &source));
    }
}
