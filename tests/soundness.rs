//! Month-scale soundness: every triplet a run on a generated month validates
//! is re-derived by the paper's definition (`definition::certify`) from page
//! rows this test builds itself out of the dataset's events — no engine code
//! between the events and the reference.

use std::collections::BTreeSet;

use coordination::core::pipeline::{Pipeline, PipelineConfig};
use coordination::redditgen::ScenarioConfig;
use definition::{Comment, Params};

/// `jan2020` at scale 0.1 with no triangle cutoff, so every triangle the
/// survey examines is validated (7,671 of them; ~7 s in a debug build).
#[test]
fn every_validated_triplet_of_a_month_certifies() {
    let ds = ScenarioConfig::jan2020(0.1).build().dataset();
    let pipeline = Pipeline::new(PipelineConfig {
        min_triangle_weight: 1,
        ..PipelineConfig::default()
    });
    let out = pipeline.run_dataset(&ds);
    assert_eq!(out.stats.triplets_validated, out.stats.triangles_examined);
    assert!(
        out.triplets.len() >= 1000,
        "a month should validate triplets, got {}",
        out.triplets.len()
    );

    // The comments the run reads: everyone's but the excluded authors'.
    let excluded = pipeline.config.exclusions.resolve(&ds);
    let comments: Vec<Comment> = ds
        .events
        .iter()
        .filter(|e| !excluded.contains(&e.author))
        .map(|e| (e.author.0, e.page.0, e.ts))
        .collect();
    let rows = definition::rows(&comments, ds.pages.len() as u32);
    let pages = definition::author_pages(&comments, ds.authors.len() as u32);
    let window = pipeline.config.window;
    let params = Params::keep_all(window.d1(), window.d2());

    for m in &out.triplets {
        let trio = m.authors.map(|a| a.0);
        let theirs: BTreeSet<u32> = trio
            .iter()
            .flat_map(|&a| pages[a as usize].iter().copied())
            .collect();
        let their_rows = theirs.iter().map(|&p| rows[p as usize].as_slice());
        let want = definition::certify(their_rows, trio, &params);
        let got = (
            m.ci_weights,
            m.hyper_weight,
            m.page_counts,
            m.t.to_bits(),
            m.c.to_bits(),
        );
        assert_eq!(
            got,
            (want.w, want.w_xyz, want.p, want.t_bits, want.c_bits),
            "triplet {trio:?}: (w′, w_xyz, p, T bits, C bits)"
        );
    }
}
