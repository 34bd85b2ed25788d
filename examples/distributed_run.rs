//! Run the three-step pipeline on the rank-sharded engine — the
//! communication structure the paper ran on LLNL clusters, here over
//! in-process ranks. Verifies it agrees with the resident engine and reports
//! the survey's message traffic.
//!
//! ```text
//! cargo run --release --example distributed_run [n_ranks]
//! ```

use coordination::core::dist_pipeline::DistPipeline;
use coordination::core::pipeline::{Pipeline, PipelineConfig};
use coordination::core::Window;
use coordination::redditgen::ScenarioConfig;
use coordination::tripoll::distributed::survey_on_ranks;
use coordination::tripoll::survey::{survey, SurveyConfig};
use coordination::tripoll::OrientedGraph;

fn main() {
    let nranks: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let scenario = ScenarioConfig::oct2016(0.2).build();
    let dataset = scenario.dataset();
    println!("{} comments, {nranks} ranks\n", scenario.len());

    let config = PipelineConfig {
        window: Window::zero_to_60s(),
        min_triangle_weight: 10,
        ..Default::default()
    };
    // steps 1+2+3 on the resident engine (reference), then rank-sharded
    let shared = Pipeline::new(config.clone()).run_dataset(&dataset);
    let distributed = DistPipeline::new(config, nranks).run_dataset(&dataset);

    println!("engine          edges        triplets");
    println!(
        "resident     {:>8}        {:>5}",
        shared.stats.ci_edges,
        shared.triplets.len()
    );
    println!(
        "{nranks} ranks      {:>8}        {:>5}",
        distributed.stats.ci_edges,
        distributed.triplets.len()
    );
    assert_eq!(shared.stats.ci_edges, distributed.stats.ci_edges);
    assert_eq!(shared.triplets.len(), distributed.triplets.len());

    // rank-sharded triangle survey with message accounting: the same fold
    // and wedge kernel as the resident survey, run where the rows live
    let wg = shared.ci.threshold(2).to_weighted_graph();
    let oriented = OrientedGraph::from_graph(&wg);
    let config = SurveyConfig::with_min_weight(10);
    let pages = shared.ci.page_counts();
    let resident = survey(&oriented, &config, Some(pages));
    let (report, messages_sent) = survey_on_ranks(&oriented, &config, Some(pages), nranks, None);
    println!(
        "\nrank-sharded survey: {} triangles examined, {} kept at cutoff 10, {} active messages",
        report.total_examined,
        report.len(),
        messages_sent
    );
    assert_eq!(report.total_examined, resident.total_examined);
    assert_eq!(report.triplets(), resident.triplets());
    assert_eq!(report.min_weight_log_hist, resident.min_weight_log_hist);
    println!(
        "matches the resident survey: {} examined, {} kept",
        resident.total_examined,
        resident.len()
    );
}
