//! How much of `B` validation touched is reported identically by both
//! engines: `validate.harvest_authors` / `validate.harvest_incidences` agree
//! between the resident `validate_all` and the rank-sharded stage 5 for the
//! same input, at any rank count and any shuffle budget — and equal what the
//! validated triplets themselves say (distinct vertices, and their `p_x`).
//! So do the validation kernel's `validate.prefix_runs` (runs of survivors
//! sharing a leading edge `(a, b)`: the distinct such edges) and
//! `validate.prefix_pages` (their `|pages(a) ∩ pages(b)|`, summed), though a
//! run may split across the ranks that kept its triangles. And a one-byte
//! shuffle budget really spills (`shuffle.spilled_bytes`,
//! `shuffle.spill_segments`), where no budget spills nothing.
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

const COUNTERS: [&str; 6] = [
    "validate.harvest_authors",
    "validate.harvest_incidences",
    "validate.prefix_runs",
    "validate.prefix_pages",
    "shuffle.spilled_bytes",
    "shuffle.spill_segments",
];

/// The counters' growth over one run.
fn measured(run: &dyn Fn() -> PipelineOutput) -> (PipelineOutput, [u64; 6]) {
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
    assert_eq!(want[2..], [edges.len() as u64, shared.sum(), 0, 0]);

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
            let spilled = got[4..].iter().all(|&n| n > 0);
            match budget {
                None => assert_eq!(got[4..], [0, 0], "{nranks} ranks spilled"),
                Some(1) => assert!(spilled, "{nranks} ranks, budget 1: {:?}", &got[4..]),
                Some(_) => {}
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
