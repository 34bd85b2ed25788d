//! The paper's §3.1 hunt: project a January-2020-style month at (0, 60s),
//! survey triangles at minimum-edge-weight cutoff 25, and pull out the
//! coordinated components — the GPT-2 generation subreddit (Figure 1) and the
//! restream link-sharing clique (Figure 2) — writing Graphviz renders.
//!
//! ```text
//! cargo run --release --example gpt2_hunt
//! ```

use coordination::analysis::components::{component_dot, describe, named_components};
use coordination::core::pipeline::{Pipeline, PipelineConfig};
use coordination::core::Window;
use coordination::redditgen::ScenarioConfig;

fn main() {
    let scenario = ScenarioConfig::jan2020(0.3).build();
    let dataset = scenario.dataset();
    println!(
        "generated {} comments for {}",
        scenario.len(),
        scenario.name
    );

    let out = Pipeline::new(PipelineConfig {
        window: Window::zero_to_60s(),
        min_triangle_weight: 25,
        ..Default::default()
    })
    .run_dataset(&dataset);

    println!(
        "projection: {} edges; survey: {} triangles examined, {} kept at cutoff 25",
        out.stats.ci_edges, out.stats.triangles_examined, out.stats.triangles_kept
    );

    let components = named_components(&dataset.authors, &out.ci, 25);
    println!("{} connected components at cutoff 25:", components.len());
    std::fs::create_dir_all("target/figures").expect("mkdir target/figures");
    for (i, comp) in components.iter().enumerate() {
        println!("  [{}] {}", i, describe(comp));
        println!("      members: {:?}", comp.members);
        let truth_label = comp
            .members
            .iter()
            .filter_map(|m| scenario.truth.family_of(m))
            .map(|f| f.name.as_str())
            .next()
            .unwrap_or("organic");
        println!("      ground truth: {truth_label}");
        let ids: Vec<u32> = comp
            .members
            .iter()
            .map(|m| dataset.authors.get(m).expect("interned"))
            .collect();
        let path = format!("target/figures/hunt_component_{i}.dot");
        std::fs::write(&path, component_dot(&dataset.authors, &out.ci, &ids, 25))
            .expect("write dot");
        println!("      wrote {path}");
    }

    // the share–reshare ring is the dense one; the GPT net is the sparse one
    let densities: Vec<f64> = components.iter().map(|c| c.summary.density).collect();
    println!("component densities: {densities:?}");
}
