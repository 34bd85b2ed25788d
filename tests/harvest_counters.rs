//! How much of `B` validation touched is reported identically by both
//! engines: `validate.harvest_authors` / `validate.harvest_incidences` agree
//! between the resident `validate_all` and the rank-sharded stage 5 for the
//! same input, at any rank count and any shuffle budget — and equal what the
//! validated triplets themselves say (distinct vertices, and their `p_x`).
//!
//! `obs` counters are process-global, so this is the only test in its binary:
//! beside the pipelines `distributed_equivalence.rs` runs on parallel test
//! threads, the totals read around a run would include theirs.

use std::collections::BTreeMap;

use coordination::core::dist_pipeline::DistPipeline;
use coordination::core::pipeline::{Pipeline, PipelineConfig, PipelineOutput};
use coordination::core::records::Dataset;
use coordination::redditgen::ScenarioConfig;

#[test]
fn harvest_counters_agree_across_engines_ranks_and_budgets() {
    let ds = Dataset::from_records(ScenarioConfig::jan2020(0.03).build().records);
    let config = PipelineConfig {
        min_triangle_weight: 25,
        ..Default::default()
    };
    let authors = obs::counter("validate.harvest_authors");
    let incidences = obs::counter("validate.harvest_incidences");
    obs::Obs::enable();
    let measured = |run: &dyn Fn() -> PipelineOutput| {
        let before = (authors.get(), incidences.get());
        let out = run();
        (out, (authors.get() - before.0, incidences.get() - before.1))
    };

    let (resident, want) = measured(&|| Pipeline::new(config.clone()).run_dataset(&ds));
    let p_x: BTreeMap<u32, u64> = resident
        .triplets
        .iter()
        .flat_map(|t| t.authors.map(|a| a.0).into_iter().zip(t.page_counts))
        .collect();
    assert!(!p_x.is_empty(), "scenario validated no triplets");
    assert_eq!(want, (p_x.len() as u64, p_x.values().sum::<u64>()));

    for nranks in [1, 2, 3, 4] {
        for budget in [None, Some(1), Some(65_536)] {
            let (dist, got) = measured(&|| {
                let pipeline = DistPipeline::new(config.clone(), nranks);
                match budget {
                    Some(bytes) => pipeline.with_shuffle_budget(bytes),
                    None => pipeline,
                }
                .run_dataset(&ds)
            });
            assert_eq!(dist.triplets, resident.triplets);
            assert_eq!(got, want, "{nranks} ranks, budget {budget:?}");
        }
    }
    obs::Obs::disable();
}
