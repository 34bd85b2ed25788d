//! Camouflage: coordinated accounts that also behave like humans.
//!
//! The paper's normalization argument (§2.1.3) cuts both ways: dividing by
//! the authors' page counts suppresses *hyperactive humans*, but a botnet can
//! exploit it by sprinkling decoy comments across random organic pages —
//! inflating `p_x`/`P'_x` and dragging `C` and `T` down while leaving the raw
//! weights `w_xyz`/`min w'` untouched. This injector wraps any botnet's
//! members with that evasion so tests and benches can quantify how each
//! metric degrades (the raw-weight cutoffs are immune; the normalized scores
//! degrade in proportion to the decoy ratio).

use coordination_core::records::CommentRecord;
use rand::Rng;

/// Decoy configuration.
#[derive(Clone, Debug)]
pub struct CamouflageConfig {
    /// Decoy comments per bot, as a multiple of the bot's coordinated
    /// comment count (1.0 = as many decoys as real actions).
    pub decoy_ratio: f64,
    /// Decoys land on organic pages sampled from this list.
    pub organic_pages: Vec<String>,
}

/// Add decoy comments for every member of `members` found in `coordinated`.
/// Decoy timestamps are sampled uniformly among the coordinated records'
/// span, on random organic pages — deliberately *not* synchronized with the
/// other members.
pub fn add_decoys<R: Rng + ?Sized>(
    cfg: &CamouflageConfig,
    members: &[String],
    coordinated: &[CommentRecord],
    rng: &mut R,
) -> Vec<CommentRecord> {
    assert!(cfg.decoy_ratio >= 0.0);
    assert!(
        !cfg.organic_pages.is_empty(),
        "need organic pages to hide on"
    );
    let (t_min, t_max) = coordinated
        .iter()
        .fold((i64::MAX, i64::MIN), |(lo, hi), r| {
            (lo.min(r.created_utc), hi.max(r.created_utc))
        });
    let mut out = Vec::new();
    for m in members {
        let real = coordinated.iter().filter(|r| &r.author == m).count();
        let decoys = (real as f64 * cfg.decoy_ratio).round() as usize;
        for _ in 0..decoys {
            let page = &cfg.organic_pages[rng.gen_range(0..cfg.organic_pages.len())];
            let ts = if t_max > t_min {
                rng.gen_range(t_min..=t_max)
            } else {
                t_min
            };
            out.push(CommentRecord::new(m.clone(), page.clone(), ts));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bots::reshare::{self, ReshareConfig};
    use coordination_core::records::Dataset;
    use coordination_core::{project, AuthorId, Window};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn organic_pages(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("t3_org{i}")).collect()
    }

    #[test]
    fn decoy_volume_follows_ratio() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let inj = reshare::generate(&ReshareConfig::default(), &mut rng);
        let real = inj.records.len();
        let decoys = add_decoys(
            &CamouflageConfig {
                decoy_ratio: 2.0,
                organic_pages: organic_pages(50),
            },
            &inj.members,
            &inj.records,
            &mut rng,
        );
        let expected = real * 2;
        assert!(
            (decoys.len() as i64 - expected as i64).unsigned_abs() <= inj.members.len() as u64,
            "decoys {} vs expected {expected}",
            decoys.len()
        );
    }

    #[test]
    fn camouflage_dilutes_normalized_scores_but_not_raw_weights() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let inj = reshare::generate(&ReshareConfig::default(), &mut rng);
        let decoys = add_decoys(
            // a big page pool: decoys rarely collide, so they inflate p_x
            // without adding shared pages
            &CamouflageConfig {
                decoy_ratio: 3.0,
                organic_pages: organic_pages(5_000),
            },
            &inj.members,
            &inj.records,
            &mut rng,
        );

        let run = |records: Vec<CommentRecord>| {
            let ds = Dataset::from_records(records);
            let btm = ds.btm();
            let ci = project::project(&btm, Window::zero_to_60s());
            let id = |n: &str| AuthorId(ds.authors.get(n).unwrap());
            let (a, b, c) = (id("stream_bot_0"), id("stream_bot_1"), id("stream_bot_2"));
            let pages = coordination_core::AuthorPages::harvest(&btm, [a, b, c]);
            let min_w = ci.weight(a, b).min(ci.weight(a, c)).min(ci.weight(b, c));
            let w_xyz = coordination_core::hypergraph::hyperedge_weight(&pages, a, b, c);
            let c_score = coordination_core::metrics::c_score(
                w_xyz,
                pages.page_count(a),
                pages.page_count(b),
                pages.page_count(c),
            );
            (min_w, w_xyz, c_score)
        };

        let (w_clean, h_clean, c_clean) = run(inj.records.clone());
        let mut hidden = inj.records.clone();
        hidden.extend(decoys);
        let (w_camo, h_camo, c_camo) = run(hidden);

        // raw windowed weight untouched (decoys are unsynchronized)
        assert!(
            w_camo <= w_clean + 2 && w_camo + 2 >= w_clean,
            "min w' moved: {w_clean} -> {w_camo}"
        );
        // hyperedge weight can only grow (decoys may coincide on pages)
        assert!(h_camo >= h_clean);
        // the normalized score collapses with 3x decoys
        assert!(
            c_camo < c_clean * 0.5,
            "C should dilute: {c_clean:.3} -> {c_camo:.3}"
        );
    }

    #[test]
    #[should_panic(expected = "organic pages")]
    fn needs_pages_to_hide_on() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        add_decoys(
            &CamouflageConfig {
                decoy_ratio: 1.0,
                organic_pages: Vec::new(),
            },
            &["x".to_string()],
            &[CommentRecord::new("x", "p", 0)],
            &mut rng,
        );
    }
}
