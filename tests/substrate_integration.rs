//! Cross-crate integration: the rank-sharded triangle survey must agree with
//! the resident one at realistic scenario scale, and the future-work features
//! must compose with the pipeline.

use coordination::core::pipeline::{Pipeline, PipelineConfig};
use coordination::core::Window;
use coordination::redditgen::ScenarioConfig;
use coordination::tripoll::distributed::distributed_survey;
use coordination::tripoll::OrientedGraph;

fn scenario_ci() -> (
    coordination::core::records::Dataset,
    coordination::core::CiGraph,
) {
    let scenario = ScenarioConfig::jan2020(0.12).build();
    let dataset = scenario.dataset();
    let out = Pipeline::new(PipelineConfig {
        window: Window::zero_to_60s(),
        min_triangle_weight: 20,
        ..Default::default()
    })
    .run_dataset(&dataset);
    (dataset, out.ci)
}

#[test]
fn distributed_survey_agrees_on_a_projected_graph() {
    let (_, ci) = scenario_ci();
    let oriented = OrientedGraph::from_ref(&ci.threshold_view(5));
    let shared = coordination::tripoll::survey::triangles_above(&oriented, 20);
    let mut shared_sorted = shared;
    shared_sorted.sort_unstable_by_key(|t| t.vertices());
    let dist = distributed_survey(&oriented, 20, 4);
    assert_eq!(dist.triangles, shared_sorted);
    assert!(
        dist.messages_sent > 0,
        "the push algorithm must communicate"
    );
}

#[test]
fn groups_and_windowed_validation_compose_with_the_pipeline() {
    let scenario = ScenarioConfig::jan2020(0.12).build();
    let dataset = scenario.dataset();
    let excl = coordination::core::filter::ExclusionList::reddit_defaults();
    let btm = dataset.btm_without(&excl.resolve(&dataset));
    let out = Pipeline::new(PipelineConfig {
        window: Window::zero_to_60s(),
        min_triangle_weight: 20,
        ..Default::default()
    })
    .run_btm(&btm);
    assert!(!out.triplets.is_empty());

    // groups: every member of every merged group is a ground-truth bot
    let groups = coordination::core::groups::merge_triplets(&btm, &out.triplets, 2);
    assert!(!groups.is_empty());
    for g in &groups {
        for a in &g.members {
            let name = dataset.authors.name(a.0);
            assert!(
                scenario.truth.is_bot(name),
                "organic account {name} in a group"
            );
        }
    }

    // windowed validation: the bound holds and scores stay in range
    let triangles: Vec<coordination::tripoll::Triangle> =
        out.survey.triangles.iter().map(|s| s.triangle).collect();
    for w in coordination::core::windowed_hyperedge::validate_windowed(&btm, &triangles, 60) {
        assert!(w.windowed_weight <= w.min_ci_weight);
        assert!(w.windowed_weight <= w.hyper_weight);
        assert!((0.0..=1.0).contains(&w.windowed_c));
    }
}

#[test]
fn refinement_with_groups_reconstructs_families_round_by_round() {
    let scenario = ScenarioConfig::jan2020(0.12).build();
    let dataset = scenario.dataset();
    let excl = coordination::core::filter::ExclusionList::reddit_defaults();
    let btm = dataset.btm_without(&excl.resolve(&dataset));
    let pipeline = Pipeline::new(PipelineConfig {
        window: Window::zero_to_60s(),
        min_triangle_weight: 20,
        ..Default::default()
    });
    let rounds = pipeline.run_refinement(&btm, 4);
    assert!(
        rounds.len() >= 2,
        "at least one productive round plus the empty one"
    );
    // flagged sets across rounds are disjoint (each round removes its flags)
    let mut seen = std::collections::HashSet::new();
    for round in &rounds {
        for a in &round.flagged {
            assert!(seen.insert(*a), "author {a:?} flagged twice across rounds");
        }
    }
    // the union of flagged authors is pure bot
    for a in &seen {
        assert!(scenario.truth.is_bot(dataset.authors.name(a.0)));
    }
    assert!(
        rounds.last().expect("nonempty").flagged.is_empty(),
        "terminates quiet"
    );
}
