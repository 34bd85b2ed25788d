//! Per-stage profiler for the `jan2020_large` scaling scenario: times
//! generation alone, then the resident path (Btm build + each stage), then
//! the rank-sharded path at 1 and 4 ranks with `dist.*` span totals and
//! `ygm.*` exchange counters. Run it when the `jan2020_large` crossover in
//! the pipeline bench moves and you need to know which stage to blame:
//!
//! ```sh
//! cargo run --release -p bench --example profile_large
//! ```

use std::time::Instant;

use coordination_core::dist_pipeline::{event_source, DistPipeline};
use coordination_core::pipeline::{Pipeline, PipelineConfig};
use coordination_core::{Btm, Window};
use redditgen::dist::{DistMonth, DistMonthConfig};

fn main() {
    let month = DistMonth::new(DistMonthConfig::jan2020_large());
    let config = PipelineConfig {
        window: Window::zero_to_60s(),
        edge_threshold: 10,
        min_triangle_weight: 10,
        ..Default::default()
    };

    let t = Instant::now();
    let events: Vec<_> = month.all_events().collect();
    println!(
        "generation alone: {:.3}s for {} events",
        t.elapsed().as_secs_f64(),
        events.len()
    );

    let pipe = Pipeline::new(config.clone());
    for _ in 0..2 {
        let t = Instant::now();
        let btm = Btm::from_events(month.total_authors(), month.total_pages(), &events);
        let tb = t.elapsed().as_secs_f64();
        let out = pipe.run_btm(&btm);
        println!(
            "resident: total {:.3}s  btm {tb:.3}s  proj {:.3}s survey {:.3}s val {:.3}s",
            t.elapsed().as_secs_f64(),
            out.timings.projection.as_secs_f64(),
            out.timings.survey.as_secs_f64(),
            out.timings.validation.as_secs_f64(),
        );
    }

    obs::Obs::enable();
    let source = event_source(|r, nr| Box::new(month.rank_events(r, nr)));
    for nranks in [1usize, 4] {
        for _ in 0..2 {
            obs::reset();
            let dist = DistPipeline::new(config.clone(), nranks);
            let t = Instant::now();
            std::hint::black_box(dist.run_events(month.total_authors(), &source));
            println!("ranks_{nranks}: total {:.3}s", t.elapsed().as_secs_f64());
            let snap = obs::snapshot();
            for e in &snap.spans {
                println!(
                    "    span {:<18} {:.3}s (x{})",
                    e.label,
                    e.stats.total_seconds(),
                    e.stats.count
                );
            }
            for (k, v) in &snap.counters {
                if k.starts_with("ygm.") && !k.contains("log2") {
                    println!("    ctr  {k:<30} {v}");
                }
            }
        }
    }
}
