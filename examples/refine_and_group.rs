//! The paper's refinement workflow (§2.4) plus both §4.3 future-work
//! features: iteratively peel coordination layers, merge flagged triplets
//! into full groups, and validate each with *time-windowed* hyperedge counts
//! (which restore the provable bound `w_xyz^(δ2) ≤ min w'`).
//!
//! ```text
//! cargo run --release --example refine_and_group
//! ```

use coordination::core::groups::{merge_triplets, prune_group};
use coordination::core::pipeline::{Pipeline, PipelineConfig};
use coordination::core::windowed_hyperedge::validate_windowed;
use coordination::core::Window;
use coordination::redditgen::ScenarioConfig;

fn main() {
    let scenario = ScenarioConfig::jan2020(0.3).build();
    let dataset = scenario.dataset();
    let excl = coordination::core::filter::ExclusionList::reddit_defaults();
    let btm = dataset.btm_without(&excl.resolve(&dataset));
    println!(
        "{} comments, {} authors\n",
        scenario.len(),
        dataset.authors.len()
    );

    let pipeline = Pipeline::new(PipelineConfig {
        window: Window::zero_to_60s(),
        min_triangle_weight: 20,
        ..Default::default()
    });

    // --- refinement: peel layers until quiet -------------------------------
    let rounds = pipeline.run_refinement(&btm, 4);
    for (i, round) in rounds.iter().enumerate() {
        println!(
            "refinement round {i}: {} triplets validated, {} authors flagged",
            round.output.triplets.len(),
            round.flagged.len()
        );
    }
    let first = &rounds[0].output;

    // --- group growth: triplets -> whole networks --------------------------
    println!("\ngroups merged from round-0 triplets:");
    for g in merge_triplets(&btm, &first.triplets, 2) {
        let names: Vec<&str> = g
            .members
            .iter()
            .map(|a| dataset.authors.name(a.0))
            .collect();
        println!(
            "  {} members, w_G = {}, score = {:.3} — {:?}{}",
            g.members.len(),
            g.group_weight,
            g.score,
            &names[..names.len().min(5)],
            if names.len() > 5 { " …" } else { "" }
        );
        // demonstrate pruning hangers-on at a weight floor
        let pruned = prune_group(&btm, &g, 10);
        if pruned.members.len() < g.members.len() {
            println!(
                "    pruned to {} members at weight floor 10 (w_G = {})",
                pruned.members.len(),
                pruned.group_weight
            );
        }
    }

    // --- windowed validation: the restored bound ---------------------------
    let triangles: Vec<coordination::tripoll::Triangle> =
        first.survey.triangles.iter().map(|s| s.triangle).collect();
    let windowed = validate_windowed(&btm, &triangles, 60);
    let violations = windowed
        .iter()
        .filter(|w| w.windowed_weight > w.min_ci_weight)
        .count();
    println!(
        "\nwindowed hyperedge validation over {} triplets: {} bound violations (must be 0)",
        windowed.len(),
        violations
    );
    assert_eq!(violations, 0, "w_xyz^(60s) ≤ min w' is a theorem");
    let heaviest = windowed
        .iter()
        .max_by_key(|w| w.windowed_weight)
        .expect("nonempty");
    let names: Vec<&str> = heaviest
        .authors
        .iter()
        .map(|a| dataset.authors.name(a.0))
        .collect();
    println!(
        "heaviest windowed triplet: {:?} with w^(60s) = {} (unbounded {})",
        names, heaviest.windowed_weight, heaviest.hyper_weight
    );
}
