//! The rank-sharded engine through the one matrix (`matrix::check`, every
//! door against the paper's definition): drawn inputs larger than
//! `oracle.rs` draws, at up to eight ranks and flush thresholds up to 511 B,
//! and fixed inputs that pin a setting the drawn cases reach only by chance
//! — a rank count, a budget and flush threshold of one byte, a span past
//! `i64` — plus what is not an equivalence: a panicking rank tears the world
//! down, and a generated month, beyond the cubic definition, prints the same
//! through both engines.

mod matrix;

use proptest::prelude::*;

use coordination::core::dist_pipeline::{event_source, DistPipeline};
use coordination::core::ids::{AuthorId, Event, PageId};
use coordination::core::pipeline::{Pipeline, PipelineConfig};
use coordination::core::records::Dataset;
use coordination::redditgen::ScenarioConfig;

use definition::{Comment, Params};
use matrix::{check, observed, Input, Ranked, BUDGETS};

/// The detector's window, keeping every triangle.
const KEEP_ALL: Params = Params::keep_all(0, 60);

/// The detector's defaults: a 60 s window, `min{w′} ≥ 10`.
const DEFAULTS: Params = Params {
    min_weight: 10,
    ..KEEP_ALL
};

/// Three coordinated authors (0–2) on `pages` pages, 5 s apart, an organic
/// straggler per page `late` seconds after them, and author 3 greeting every
/// page at once — excluded, as AutoModerator is.
fn bots(pages: u32, late: i64) -> Input {
    let mut comments: Vec<Comment> = Vec::new();
    for p in 0..pages {
        let t = i64::from(p) * 10_000;
        comments.extend((0..3).map(|a| (a, p, t + 5 * i64::from(a))));
        comments.extend([(4 + p, p, t + late), (3, p, t)]);
    }
    Input {
        n_authors: 4 + pages,
        n_pages: pages,
        comments,
        excluded: vec![3],
    }
}

/// The generated month both engines run at `ranks` ranks: realistic scale,
/// beyond the cubic definition, so the rank-sharded engine is held to the
/// resident one — everything but the stage timings, scores bit for bit.
fn month_at(ranks: usize) {
    let ds = Dataset::from_records(ScenarioConfig::jan2020(0.03).build().records);
    let config = PipelineConfig {
        min_triangle_weight: 25,
        ..Default::default()
    };
    let resident = observed(&Pipeline::new(config.clone()).run_dataset(&ds)).unwrap();
    assert!(
        !resident.def.triplets.is_empty(),
        "scenario found no triplets"
    );
    let ranked = observed(&DistPipeline::new(config, ranks).run_dataset(&ds)).unwrap();
    assert_eq!(ranked, resident, "{ranks} ranks");
}

#[test]
fn distributed_matches_resident_at_1_rank() {
    month_at(1);
}

#[test]
fn distributed_matches_resident_at_2_ranks() {
    month_at(2);
}

#[test]
fn distributed_matches_resident_at_4_ranks() {
    month_at(4);
}

#[test]
fn distributed_dataset_matches_resident_for_any_rank_count() {
    let ranked = [1, 2, 3, 4, 7].map(Ranked::at);
    let def = check(&bots(20, 7_200), DEFAULTS, &ranked).unwrap();
    assert_eq!(def.triplets.len(), 1, "{def:?}");
}

/// The same pages with one more comment 2⁶² s before the rest, by an author
/// and on a page of its own: the rows, stored and in every rank's
/// partition, are wide.
#[test]
fn distributed_snapshot_matches_resident() {
    let mut input = bots(20, 7_200);
    input
        .comments
        .push((input.n_authors, input.n_pages, -(1 << 62)));
    input.n_authors += 1;
    input.n_pages += 1;
    let def = check(&input, DEFAULTS, &[1, 4].map(Ranked::at)).unwrap();
    assert_eq!(def.triplets.len(), 1, "{def:?}");
}

#[test]
fn empty_input_runs_cleanly_at_any_rank_count() {
    let input = Input {
        n_authors: 0,
        n_pages: 0,
        comments: Vec::new(),
        excluded: Vec::new(),
    };
    let def = check(&input, DEFAULTS, &[1, 2, 5].map(Ranked::at)).unwrap();
    assert!(def.w.is_empty() && def.log_hist.is_empty());
}

/// Run `events` (dense ids, `n_authors` of them) through
/// `DistPipeline::run_events` on `nranks` ranks without a budget, on a helper
/// thread so that a stranded world fails here instead of hanging, and return
/// the message the run panicked with.
fn panic_message(nranks: usize, n_authors: u32, events: [(u32, u32, i64); 4]) -> String {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let events = events.map(|(a, p, ts)| Event::new(AuthorId(a), PageId(p), ts));
        let source = event_source(|rank, n| Box::new(events.iter().skip(rank).step_by(n).copied()));
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            DistPipeline::new(PipelineConfig::default(), nranks).run_events(n_authors, &source)
        }));
        let _ = tx.send(run.err().and_then(|p| p.downcast::<String>().ok()));
    });
    *rx.recv_timeout(std::time::Duration::from_secs(10))
        .expect("the world did not tear down within 10 s")
        .expect("the run was expected to panic with a message")
}

/// An event source that yields an author id outside the id space must stop
/// the run at the door, on one rank or three — not index a per-author table
/// out of bounds on one rank and strand the others in a barrier.
#[test]
fn poisoned_world_an_out_of_range_author_stops_the_run_at_the_door() {
    for nranks in [1, 3] {
        let events = [(0, 0, 5), (1, 0, 6), (9, 1, 7), (2, 1, 8)];
        let message = panic_message(nranks, 9, events);
        assert_eq!(message, "author id 9 out of range", "{nranks} ranks");
    }
}

/// Page id `u32::MAX` has no slot in flat page rows, which index one past
/// the largest page id: the run must stop with that message where the door
/// sizes the `Btm` it builds, on one rank or two, before any rank starts.
#[test]
fn poisoned_world_a_page_id_at_the_top_of_the_space_stops_the_run() {
    for nranks in [1, 2] {
        let events = [(0, 0, 5), (1, u32::MAX, 6), (2, u32::MAX, 7), (1, 3, 8)];
        let message = panic_message(nranks, 3, events);
        assert_eq!(
            message, "dense page ids stay below u32::MAX",
            "{nranks} ranks"
        );
    }
}

/// The door's contract with its source: every run pulls `source(0, 1)`
/// twice (it counts on the first pull and scatters on the second) to build
/// the `Btm` it runs on, at one rank or two, with a budget or without.
#[test]
fn the_door_pulls_the_whole_source_twice_at_any_rank_count_and_budget() {
    let events: Vec<Event> = bots(20, 7_200)
        .comments
        .iter()
        .map(|&(a, p, ts)| Event::new(AuthorId(a), PageId(p), ts))
        .collect();
    let n_authors = 24;
    let resident = Pipeline::new(PipelineConfig::default()).run_btm(
        &coordination::core::Btm::from_events(n_authors, 20, &events),
    );
    for (nranks, budget) in [(1, None), (2, None), (2, Some(1))] {
        let pulls = std::sync::Mutex::new(Vec::new());
        let source = event_source(|rank, n| {
            pulls.lock().unwrap().push((rank, n));
            Box::new(events.iter().skip(rank).step_by(n).copied())
        });
        let out = budgeted(nranks, budget).run_events(n_authors, &source);
        assert_eq!(observed(&out).unwrap(), observed(&resident).unwrap());
        let pulls = pulls.into_inner().unwrap();
        let what = format!("{nranks} ranks, budget {budget:?}");
        assert_eq!(pulls, [(0, 1), (0, 1)], "{what}");
    }
}

/// A default-config pipeline on `nranks` ranks, under `budget` if any.
fn budgeted(nranks: usize, budget: Option<usize>) -> DistPipeline {
    let pipeline = DistPipeline::new(PipelineConfig::default(), nranks);
    match budget {
        Some(bytes) => pipeline.with_shuffle_budget(bytes),
        None => pipeline,
    }
}

/// A source must yield the same events on both pulls: one whose second pull
/// drops an event stops the run with the builder's message, before any rank
/// starts, and nothing is returned — at one rank, at two, and under a
/// budget.
#[test]
fn a_source_whose_second_pull_differs_stops_the_run_at_any_rank_count_and_budget() {
    let events = [(0, 0, 5), (1, 0, 6), (2, 4, 7), (1, 4, 8)]
        .map(|(a, p, ts)| Event::new(AuthorId(a), PageId(p), ts));
    for (nranks, budget) in [(1, None), (2, None), (2, Some(1))] {
        let pulls = std::sync::atomic::AtomicUsize::new(0);
        let source = event_source(|_, _| {
            let pull = pulls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Box::new(events.iter().take(if pull == 0 { 4 } else { 3 }).copied())
        });
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            budgeted(nranks, budget).run_events(3, &source)
        }));
        let what = format!("{nranks} ranks, budget {budget:?}");
        let Err(panic) = run else {
            panic!("{what}: the run returned output")
        };
        let message = *panic.downcast::<String>().expect("a panic message");
        assert!(
            message.contains("different events on its second pass"),
            "{what}: {message}"
        );
        assert_eq!(pulls.into_inner(), 2, "{what}");
    }
}

/// One rank without a budget builds its `Btm` under the run config's
/// exclusion list, as `Pipeline::run_dataset` does: on a generated month
/// with its heaviest accounts excluded, the two print the same.
#[test]
fn one_rank_run_dataset_excludes_as_the_resident_run_does() {
    let ds = Dataset::from_records(ScenarioConfig::jan2020(0.03).build().records);
    let mut config = PipelineConfig {
        min_triangle_weight: 25,
        ..Default::default()
    };
    let heavy =
        coordination::core::filter::high_volume_accounts(&ds.btm(), |id| ds.authors.name(id), 150);
    assert!(!heavy.is_empty(), "no heavy accounts to exclude");
    config
        .exclusions
        .extend(heavy.into_iter().map(|(name, _)| name));
    let resident = observed(&Pipeline::new(config.clone()).run_dataset(&ds)).unwrap();
    assert!(
        resident.def.comments < ds.len() as u64,
        "nothing was excluded"
    );
    let one_rank = observed(&DistPipeline::new(config, 1).run_dataset(&ds)).unwrap();
    assert_eq!(one_rank, resident);
}

/// A 1-byte flush threshold clamps every aggregator to one item per batch,
/// so every push ships immediately: the degenerate case of the packed
/// exchange's flush path.
#[test]
fn packed_exchange_survives_threshold_of_one() {
    let ranked = Ranked {
        flush: Some(1),
        ..Ranked::at(3)
    };
    let def = check(&bots(20, 7_200), DEFAULTS, &[ranked]).unwrap();
    assert_eq!(def.triplets.len(), 1, "{def:?}");
}

/// The doubly degenerate shuffle: a 1-byte flush threshold ships every item
/// as its own batch, and a 1-byte shuffle budget spills the receive side's
/// run stack after at most one more batch, so every shuffle label on every
/// rank runs almost entirely out of core. (That it really spills is a
/// process-global counter read, made in `harvest_counters.rs`.)
#[test]
fn budget_of_one_batch_stress() {
    let ranked = Ranked {
        budget: Some(1),
        flush: Some(1),
        ..Ranked::at(3)
    };
    let def = check(&bots(40, 30), KEEP_ALL, &[ranked]).unwrap();
    assert!(!def.triplets.is_empty(), "scenario found no triplets");
}

/// `created_utc` is file-supplied. Three authors on one page, the first and
/// last comment more than `i64::MAX` seconds apart: `tj - ti` overflows,
/// which used to panic in debug builds and, wrapped negative in release,
/// slip under the `> δ2` break. Nobody is within any window of anybody,
/// through every door, at every receive side.
#[test]
fn comments_farther_apart_than_i64_do_not_overflow() {
    let input = Input {
        n_authors: 3,
        n_pages: 1,
        comments: vec![(0, 0, i64::MIN), (2, 0, 5), (1, 0, i64::MAX)],
        excluded: Vec::new(),
    };
    let ranked = [1, 2].map(|ranks| {
        BUDGETS.map(|budget| Ranked {
            budget,
            ..Ranked::at(ranks)
        })
    });
    let def = check(&input, KEEP_ALL, ranked.as_flattened()).unwrap();
    assert_eq!((def.comments, def.w.len()), (3, 0));
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

/// Up to `max_events` comments by `authors` authors on a drawn number of
/// pages up to `pages`, some repeated verbatim, so a world often has more
/// ranks than pages and some ranks own an empty partition. Page `p` has id
/// `stride·p + stride/2`: at a stride above one, most slots of the page id
/// space never occur, at both ends and in between.
fn arb_input(
    authors: u32,
    pages: u32,
    max_events: usize,
    stride: u32,
) -> impl Strategy<Value = Input> {
    (1..pages + 1)
        .prop_flat_map(move |n_pages| {
            let row = ((0..authors, 0..n_pages, arb_ts()), 1usize..3);
            prop::collection::vec(row, 0..max_events)
        })
        .prop_map(move |rows| Input {
            n_authors: authors,
            n_pages: stride * pages,
            comments: rows
                .into_iter()
                .flat_map(|((a, p, ts), copies)| {
                    std::iter::repeat_n((a, stride * p + stride / 2, ts), copies)
                })
                .collect(),
            excluded: Vec::new(),
        })
}

/// Page ids are sparse on the event-source doors' inputs.
const PAGE_STRIDE: u32 = 5;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary rank counts, arrival orders and receive sides: every door
    /// of both engines matches the definition, so the engines match each
    /// other.
    #[test]
    fn distributed_equals_resident_for_any_rank_count(
        input in arb_input(16, 12, 250, 1),
        seed in 0u64..u64::MAX,
        ranks in 1usize..9,
        budget in 0usize..3,
    ) {
        let ranked = Ranked {
            budget: BUDGETS[budget],
            seed,
            ..Ranked::at(ranks)
        };
        check(&input, KEEP_ALL, &[ranked])?;
    }

    /// The same with the edge threshold and the `T` floor active, so the
    /// rank-sharded orientation (post-threshold degree reduction) and the
    /// keep filter are both on the hook.
    #[test]
    fn distributed_equals_resident_under_thresholds(
        input in arb_input(14, 10, 220, 1),
        seed in 0u64..u64::MAX,
        ranks in 1usize..7,
        edge_threshold in 1u64..4,
    ) {
        let params = Params {
            edge_threshold,
            min_weight: 2,
            min_t: 0.2,
            ..DEFAULTS
        };
        let ranked = Ranked {
            seed,
            ..Ranked::at(ranks)
        };
        check(&input, params, &[ranked])?;
    }

    /// Streamed ingest (`run_events`, arrivals permuted) matches the
    /// materialized doors for flush thresholds down to one byte, where ship
    /// boundaries land mid-stage everywhere, at every receive side.
    #[test]
    fn streaming_equals_materialized_for_any_flush_threshold(
        input in arb_input(16, 12, 300, PAGE_STRIDE),
        seed in 0u64..u64::MAX,
        ranks in 1usize..6,
        flush in 1usize..512,
        budget in 0usize..3,
    ) {
        let ranked = Ranked {
            ranks,
            budget: BUDGETS[budget],
            flush: Some(flush),
            seed,
        };
        check(&input, KEEP_ALL, &[ranked])?;
    }

    /// Every way in is the same door: a dataset, its snapshot, a BTM built
    /// by id and a pre-filtered event source, for a drawn excluded subset of
    /// the authors — plus the id and name one past the id space, which have
    /// no comments to drop and must index nothing.
    #[test]
    fn every_way_in_is_the_same_door(
        input in arb_input(16, 12, 300, PAGE_STRIDE),
        excluded_bits in 0u32..1 << 16,
        ranks in 1usize..5,
        budget in 0usize..3,
    ) {
        let input = Input {
            excluded: (0..16).filter(|a| excluded_bits >> a & 1 == 1).collect(),
            ..input
        };
        let ranked = Ranked {
            budget: BUDGETS[budget],
            ..Ranked::at(ranks)
        };
        check(&input, KEEP_ALL, &[ranked])?;
    }
}
