//! How much of `B` validation touched is reported identically by both
//! engines: `validate.harvest_authors` / `validate.harvest_incidences` agree
//! between the resident run and the rank program for the same input, at any
//! rank count and any shuffle budget — and equal what the validated triplets
//! themselves say (distinct vertices, and their `p_x`). So do the validation
//! kernel's `validate.prefix_runs` (runs of survivors sharing a leading edge
//! `(a, b)`: the distinct such edges) and `validate.prefix_pages` (their
//! `|pages(a) ∩ pages(b)|`, summed), and `validate.dense_incidences` (the
//! incidences of the harvested authors held as bitsets: those on at least
//! 1/32 of the harvest's page space). In `split_runs` the survivors sharing a
//! leading edge close their wedges on different ranks, so the counts hold
//! only if the ranks' folds merge back into the resident survey's order. And
//! a one-byte shuffle budget really spills (`shuffle.spilled_bytes`,
//! `shuffle.spill_segments`), where no budget spills nothing. The stage
//! totals a run report documents — `project.pages`, `project.edges` and
//! `validate.triplets` — are the resident run's in every cell, each rank
//! adding its share. The rank program's shuffles are the events (under a
//! budget only), the pair occurrences and the wedge checks
//! (`ygm.<label>.items_sent`). `survey.triangles_examined` and
//! `survey.wedge_checks` are the resident run's in every cell: the ranks
//! examine each triangle once and send one check per oriented edge, each
//! from the rank owning its apex. One rank without a budget is the resident
//! run: it sends nothing through any shuffle, and its
//! `survey.wedge_list_bytes` is the resident run's too. Every other run
//! sends pairs and wedge checks; only a budget ships the events, since
//! without one each rank reads its pages' rows in place.
//!
//! `obs` counters are process-global, so this is the only test in its binary:
//! beside the pipelines other tests run on parallel threads, the totals read
//! around a run would include theirs. A per-run `obs` session (ROADMAP item
//! 3's scoped registry) would let each run read its own counters, and these
//! checks join the one matrix (`oracle.rs`).

use std::collections::{BTreeMap, BTreeSet};

use coordination::core::dist_pipeline::DistPipeline;
use coordination::core::pipeline::{Pipeline, PipelineConfig, PipelineOutput};
use coordination::core::records::{CommentRecord, Dataset};
use coordination::redditgen::ScenarioConfig;

const COUNTERS: [&str; 16] = [
    "validate.harvest_authors",
    "validate.harvest_incidences",
    "validate.prefix_runs",
    "validate.prefix_pages",
    "shuffle.spilled_bytes",
    "shuffle.spill_segments",
    "ygm.events_to_pages.items_sent",
    "ygm.pair_occurrences.items_sent",
    "ygm.wedge_checks.items_sent",
    "survey.triangles_examined",
    "survey.wedge_checks",
    "survey.wedge_list_bytes",
    "project.pages",
    "project.edges",
    "validate.triplets",
    "validate.dense_incidences",
];

/// Where the shuffles' `items_sent` counters sit in [`COUNTERS`].
const SENT: std::ops::Range<usize> = 6..9;

/// Where the survey counters sit in [`COUNTERS`].
const SURVEY: std::ops::Range<usize> = 9..12;

/// Where the survey counters that do not depend on the rank count sit in
/// [`COUNTERS`]: triangles examined and wedge checks.
const SURVEY_WORK: std::ops::Range<usize> = 9..11;

/// Where the stage totals both engines document sit in [`COUNTERS`].
const STAGES: std::ops::Range<usize> = 12..15;

/// Where `validate.dense_incidences` sits in [`COUNTERS`].
const DENSE: usize = 15;

/// The counters' growth over one run.
fn measured(run: &dyn Fn() -> PipelineOutput) -> (PipelineOutput, [u64; 16]) {
    let read = || COUNTERS.map(|name| obs::counter(name).get());
    let before = read();
    let out = run();
    let after = read();
    (out, std::array::from_fn(|i| after[i] - before[i]))
}

/// Four hub pairs, each closing six triangles: three whose third vertex has
/// degree 2 (below both hubs in degree order) and three whose third vertex
/// has eight more partners (above both). A triangle is kept on the rank
/// owning its middle vertex in that order, so each pair's run of survivors
/// splits between the two hubs' owners whenever those differ.
fn split_runs() -> Dataset {
    let mut records = Vec::new();
    let mut page = 0;
    let mut comment = |authors: &[String]| {
        for (t, a) in authors.iter().enumerate() {
            records.push(CommentRecord::new(a.clone(), format!("p{page}"), t as i64));
        }
        page += 1;
    };
    for h in 0..4 {
        let hubs = [format!("h{h}a"), format!("h{h}b")];
        comment(&[hubs[1].clone(), format!("h{h}fan")]);
        for c in 0..6 {
            let third = format!("h{h}c{c}");
            comment(&[hubs[0].clone(), hubs[1].clone(), third.clone()]);
            for fan in 0..(c / 3) * 8 {
                comment(&[third.clone(), format!("h{h}c{c}fan{fan}")]);
            }
        }
    }
    Dataset::from_records(records)
}

/// Both engines' counters on `ds`, against what the validated triplets say
/// and against each other at 1–4 ranks and three budgets.
fn check(ds: &Dataset, config: &PipelineConfig) {
    let (resident, want) = measured(&|| Pipeline::new(config.clone()).run_dataset(ds));
    let p_x: BTreeMap<u32, u64> = resident
        .triplets
        .iter()
        .flat_map(|t| t.authors.map(|a| a.0).into_iter().zip(t.page_counts))
        .collect();
    assert!(!p_x.is_empty(), "scenario validated no triplets");
    assert_eq!(want[..2], [p_x.len() as u64, p_x.values().sum::<u64>()]);
    // the runs are the distinct leading edges, and their pages in common
    let pages = |a: u32| -> BTreeSet<u32> {
        let mine = ds.events.iter().filter(|e| e.author.0 == a);
        mine.map(|e| e.page.0).collect()
    };
    let edges: BTreeSet<[u32; 2]> = resident
        .triplets
        .iter()
        .map(|t| [t.authors[0].0, t.authors[1].0])
        .collect();
    let shared = edges
        .iter()
        .map(|&[a, b]| pages(a).intersection(&pages(b)).count() as u64);
    assert_eq!(want[2..4], [edges.len() as u64, shared.sum()]);
    // the authors on at least 1/32 of the page space the harvest spans
    let space = p_x.keys().map(|&a| pages(a).last().map_or(0, |&p| p + 1));
    let space = u64::from(space.max().unwrap_or(0));
    let dense = p_x.values().filter(|&&p| p > 0 && 32 * p >= space);
    assert_eq!(
        want[DENSE],
        dense.sum::<u64>(),
        "the resident dense incidences"
    );
    assert_eq!(want[4..SENT.end], [0; 5], "the resident engine shuffled");
    assert!(want[SURVEY].iter().all(|&n| n > 0), "{:?}", &want[SURVEY]);
    // pages with a kept comment, distinct edges, validated triplets
    let excluded = config.exclusions.resolve(ds);
    let kept = ds.events.iter().filter(|e| !excluded.contains(&e.author));
    let pages = kept.map(|e| e.page).collect::<BTreeSet<_>>().len() as u64;
    let stages = [pages, resident.ci.n_edges(), resident.triplets.len() as u64];
    assert_eq!(want[STAGES], stages, "the resident stage totals");

    for nranks in [1, 2, 3, 4] {
        for budget in [None, Some(1), Some(65_536)] {
            let (dist, got) = measured(&|| {
                let pipeline = DistPipeline::new(config.clone(), nranks);
                match budget {
                    Some(bytes) => pipeline.with_shuffle_budget(bytes),
                    None => pipeline,
                }
                .run_dataset(ds)
            });
            assert_eq!(dist.triplets, resident.triplets);
            assert_eq!(got[..4], want[..4], "{nranks} ranks, budget {budget:?}");
            assert_eq!(got[DENSE], want[DENSE], "{nranks} ranks, budget {budget:?}");
            assert_eq!(
                got[SURVEY_WORK], want[SURVEY_WORK],
                "{nranks} ranks, budget {budget:?}: survey work"
            );
            assert_eq!(
                got[STAGES], want[STAGES],
                "{nranks} ranks, budget {budget:?}"
            );
            let spilled = got[4..6].iter().all(|&n| n > 0);
            match budget {
                None => assert_eq!(got[4..6], [0, 0], "{nranks} ranks spilled"),
                Some(1) => assert!(spilled, "{nranks} ranks, budget 1: {:?}", &got[4..6]),
                Some(_) => {}
            }
            // One rank owns every page, edge and vertex: only a budget's run
            // stacks send it its own messages, and without one it is the
            // resident run. Only a budget ships the events to their pages.
            let (events, sent) = (got[SENT.start], &got[SENT.start + 1..SENT.end]);
            let what = format!("{nranks} ranks, budget {budget:?}");
            assert_eq!(events > 0, budget.is_some(), "{what}: {events} events sent");
            if nranks == 1 && budget.is_none() {
                assert_eq!(sent, [0; 2], "one rank sent messages");
                assert_eq!(got[SURVEY], want[SURVEY], "one rank's survey counters");
            } else {
                assert!(sent.iter().all(|&n| n > 0), "{what}: {sent:?}");
            }
        }
    }
}

#[test]
fn harvest_counters_agree_across_engines_ranks_and_budgets() {
    obs::Obs::enable();
    let ds = Dataset::from_records(ScenarioConfig::jan2020(0.03).build().records);
    let config = PipelineConfig {
        min_triangle_weight: 25,
        ..Default::default()
    };
    check(&ds, &config);
    let config = PipelineConfig {
        min_triangle_weight: 1,
        ..Default::default()
    };
    check(&split_runs(), &config);
    obs::Obs::disable();
}
