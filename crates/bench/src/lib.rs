//! Shared workload setup for the figure harness and the quality gate.
//!
//! Scenario generation is deterministic but not free; the helpers here build
//! each preset once per process and hand out references.

#![warn(unreachable_pub)]

use std::sync::OnceLock;

use coordination_core::pipeline::{Pipeline, PipelineConfig, PipelineOutput};
use coordination_core::records::Dataset;
use coordination_core::Window;
use redditgen::{Scenario, ScenarioConfig};

/// Default scale for figure regeneration: fast enough for CI, big enough for
/// every structural relationship to be visible.
pub(crate) const FIGURE_SCALE: f64 = 0.5;

/// The January 2020 scenario at the figure scale, built once.
pub fn jan2020() -> &'static (Scenario, Dataset) {
    static CELL: OnceLock<(Scenario, Dataset)> = OnceLock::new();
    CELL.get_or_init(|| {
        let s = ScenarioConfig::jan2020(FIGURE_SCALE).build();
        let ds = s.dataset();
        (s, ds)
    })
}

/// The October 2016 scenario at the figure scale, built once.
pub fn oct2016() -> &'static (Scenario, Dataset) {
    static CELL: OnceLock<(Scenario, Dataset)> = OnceLock::new();
    CELL.get_or_init(|| {
        let s = ScenarioConfig::oct2016(FIGURE_SCALE).build();
        let ds = s.dataset();
        (s, ds)
    })
}

/// Run the pipeline with the paper's hexbin-figure parameters (`cutoff 10`).
pub fn run_figures_config(ds: &Dataset, window: Window) -> PipelineOutput {
    Pipeline::new(PipelineConfig {
        window,
        min_triangle_weight: 10,
        ..Default::default()
    })
    .run_dataset(ds)
}

/// Run the pipeline with the paper's anecdotal-hunt parameters (`cutoff 25`).
pub fn run_hunt_config(ds: &Dataset) -> PipelineOutput {
    Pipeline::new(PipelineConfig {
        window: Window::zero_to_60s(),
        min_triangle_weight: 25,
        ..Default::default()
    })
    .run_dataset(ds)
}

/// Label triplets against ground truth: `(triplet metric set, is_coordinated)`.
/// A triplet is positive when all three authors resolve (through any churn
/// aliases) into one coordinated, non-`Helpful` family.
pub fn label_triplets<'a>(
    out: &'a PipelineOutput,
    ds: &Dataset,
    truth: &redditgen::GroundTruth,
) -> Vec<(&'a coordination_core::TripletMetrics, bool)> {
    out.triplets
        .iter()
        .map(|m| {
            let names = m.authors.map(|a| ds.authors.name(a.0));
            (m, truth.same_coordinated_family(names))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labeling_marks_bot_triplets() {
        let s = ScenarioConfig::jan2020(0.15).build();
        let ds = s.dataset();
        let out = run_hunt_config(&ds);
        let labeled = label_triplets(&out, &ds, &s.truth);
        assert!(!labeled.is_empty());
        assert!(
            labeled.iter().any(|&(_, pos)| pos),
            "no bot triplet flagged"
        );
    }
}
