//! `project.edges_w_log2_NN` is the definition's `w′` bucketed: on one
//! input, the resident run and the rank program at two ranks under a
//! shuffle budget each add, to bucket `k`, the pairs with
//! `2ᵏ ≤ w′ < 2ᵏ⁺¹` — every pair, the edge threshold's cut or not — and the
//! buckets sum to `project.edges`.
//!
//! `obs` counters are process-global, so this is the only test in its binary:
//! beside the pipelines other tests run on parallel threads, the totals read
//! around a run would include theirs.

use rand::{Rng, SeedableRng};

use coordination::core::btm::Btm;
use coordination::core::dist_pipeline::DistPipeline;
use coordination::core::ids::{AuthorId, Event, PageId};
use coordination::core::pipeline::{Pipeline, PipelineConfig, PipelineOutput};
use coordination::core::Window;

use definition::{Comment, Params};

/// Buckets `0..64`, then `project.edges`.
fn counters() -> Vec<String> {
    let buckets = (0..64).map(|k| format!("project.edges_w_log2_{k:02}"));
    buckets.chain(["project.edges".to_string()]).collect()
}

/// The counters' growth over one run.
fn measured(run: &dyn Fn() -> PipelineOutput) -> (PipelineOutput, Vec<u64>) {
    let read = || -> Vec<u64> { counters().iter().map(|c| obs::counter(c).get()).collect() };
    let before = read();
    let out = run();
    let grown = read().iter().zip(before).map(|(a, b)| a - b).collect();
    (out, grown)
}

#[test]
fn weight_buckets_are_the_definitions_weights_at_any_engine() {
    obs::Obs::enable();
    // 16 authors, the low ids busier, on 40 pages whose 15 comments spread
    // over 100 s to 1,000 s: a 60 s window pairs busy authors on most pages
    // and quiet ones on few, so the weights span several buckets
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(53);
    let comments: Vec<Comment> = (0..600u32)
        .map(|i| {
            let author: u32 = rng.gen_range(0..16u32) * rng.gen_range(1..17u32) / 16;
            let page = i % 40;
            (
                author,
                page,
                rng.gen_range(0..100 * (1 + i64::from(page % 10))),
            )
        })
        .collect();
    let params = Params {
        edge_threshold: 3,
        ..Params::keep_all(0, 60)
    };
    let def = definition::run(&comments, &[], &params);
    let mut want = vec![0u64; 65];
    for &w in def.w.values() {
        want[w.ilog2() as usize] += 1;
    }
    want[64] = def.w.len() as u64;
    assert!(
        want[..64].iter().filter(|&&n| n > 0).count() >= 4,
        "{want:?}"
    );
    assert!(
        def.edges_kept < def.w.len() as u64,
        "the threshold cut nothing"
    );

    let events: Vec<Event> = comments
        .iter()
        .map(|&(a, p, ts)| Event::new(AuthorId(a), PageId(p), ts))
        .collect();
    let btm = Btm::from_events(16, 40, &events);
    let config = PipelineConfig {
        window: Window::new(params.d1, params.d2),
        edge_threshold: params.edge_threshold,
        min_triangle_weight: params.min_weight,
        ..Default::default()
    };
    let resident = || Pipeline::new(config.clone()).run_btm(&btm);
    let ranked = || {
        DistPipeline::new(config.clone(), 2)
            .with_shuffle_budget(65_536)
            .run_btm(&btm)
    };
    for (engine, run) in [
        ("resident", &resident as &dyn Fn() -> PipelineOutput),
        ("2 ranks, budget 65536", &ranked),
    ] {
        let (out, got) = measured(run);
        assert_eq!(got, want, "{engine}");
        assert_eq!(out.stats.ci_edges, def.w.len() as u64, "{engine}");
        assert_eq!(out.ci.n_edges(), def.edges_kept, "{engine}");
    }
    obs::Obs::disable();
}
