//! Account churn: the network rotates handles mid-month.
//!
//! Bans and detection pressure make real botnets cycle accounts. The
//! mechanics here are a share–reshare clique (see [`super::reshare`]) that
//! abandons every handle at a rotation point and continues under fresh ones:
//! each pairwise edge's month of weight is split across two handle pairs,
//! halving every `w'` and fragmenting the CI component into two weaker
//! cliques. Detection quality can only be scored if the ground truth knows
//! the rotation — `ChurnInjection::aliases` maps each post-rotation handle
//! back to its canonical account, and `GroundTruth::add_alias`
//! resolves flagged triplets through it so both eras score as one family.

use coordination_core::records::CommentRecord;
use rand::Rng;

/// Configuration of a handle-rotating coordinated network.
#[derive(Clone, Debug)]
pub struct ChurnConfig {
    /// Network size (canonical accounts; each gets one rotated handle).
    pub n_members: usize,
    /// Trigger pages over the month.
    pub n_triggers: usize,
    /// Probability each member responds to a trigger.
    pub participation: f64,
    /// Response delay after the trigger, seconds.
    pub response_delay: std::ops::Range<i64>,
    /// Rotation point as a fraction of the span (0.5 = mid-month).
    pub rotate_frac: f64,
    /// Month start.
    pub t0: i64,
    /// Month length in seconds.
    pub span: i64,
    /// Account-name prefix.
    pub name_prefix: String,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            n_members: 8,
            n_triggers: 56,
            participation: 0.85,
            response_delay: 1..45,
            rotate_frac: 0.5,
            t0: 0,
            span: crate::MONTH_SECS,
            name_prefix: "churn_bot_".to_string(),
        }
    }
}

/// Output of the churn injector: records, canonical members, and the
/// rotated-handle → canonical-member alias pairs for the ground truth.
pub(crate) struct ChurnInjection {
    /// Generated comments (mixed pre- and post-rotation handles).
    pub records: Vec<CommentRecord>,
    /// Canonical account names (the pre-rotation handles).
    pub members: Vec<String>,
    /// `(rotated_handle, canonical_member)` pairs.
    pub aliases: Vec<(String, String)>,
}

/// The rotated handle of a canonical member name.
pub(crate) fn rotated_handle(canonical: &str) -> String {
    format!("{canonical}_v2")
}

/// Generate the month's activity with a mid-month handle rotation.
pub(crate) fn generate<R: Rng + ?Sized>(cfg: &ChurnConfig, rng: &mut R) -> ChurnInjection {
    assert!(cfg.n_members >= 2, "need at least two members");
    assert!(!cfg.response_delay.is_empty() && cfg.response_delay.start >= 0);
    assert!((0.0..=1.0).contains(&cfg.rotate_frac));
    let members: Vec<String> = (0..cfg.n_members)
        .map(|i| format!("{}{}", cfg.name_prefix, i))
        .collect();
    let rotate_at = cfg.t0 + ((cfg.span as f64) * cfg.rotate_frac) as i64;
    let handle = |i: usize, ts: i64| -> String {
        if ts < rotate_at {
            members[i].clone()
        } else {
            rotated_handle(&members[i])
        }
    };
    let mut records = Vec::new();
    for trig in 0..cfg.n_triggers {
        let page_id = format!("t3_{}link{trig}", cfg.name_prefix);
        let birth = cfg.t0 + rng.gen_range(0..cfg.span.max(1));
        let poster = rng.gen_range(0..cfg.n_members);
        records.push(CommentRecord::new(handle(poster, birth), &page_id, birth));
        for i in 0..cfg.n_members {
            if i == poster || !rng.gen_bool(cfg.participation) {
                continue;
            }
            let ts = birth + rng.gen_range(cfg.response_delay.clone());
            records.push(CommentRecord::new(handle(i, ts), &page_id, ts));
        }
    }
    let aliases = members
        .iter()
        .map(|m| (rotated_handle(m), m.clone()))
        .collect();
    ChurnInjection {
        records,
        members,
        aliases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truth::{BotFamily, BotKind, GroundTruth};
    use coordination_core::records::Dataset;
    use coordination_core::{project, AuthorId, Window};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn inject(seed: u64, cfg: &ChurnConfig) -> ChurnInjection {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        generate(cfg, &mut rng)
    }

    #[test]
    fn handles_are_era_consistent() {
        let cfg = ChurnConfig::default();
        let inj = inject(1, &cfg);
        let rotate_at = ((cfg.span as f64) * cfg.rotate_frac) as i64;
        for r in &inj.records {
            if r.created_utc < rotate_at {
                assert!(!r.author.ends_with("_v2"), "{} before rotation", r.author);
            } else {
                assert!(r.author.ends_with("_v2"), "{} after rotation", r.author);
            }
        }
        assert_eq!(inj.aliases.len(), cfg.n_members);
    }

    #[test]
    fn rotation_splits_the_edge_weight_across_eras() {
        let churned = inject(2, &ChurnConfig::default());
        // the same network without rotation (rotate past month end)
        let stable = inject(
            2,
            &ChurnConfig {
                rotate_frac: 1.0,
                ..Default::default()
            },
        );
        let weight = |inj: &ChurnInjection, a: &str, b: &str| {
            let ds = Dataset::from_records(inj.records.clone());
            let ci = project::project(&ds.btm(), Window::zero_to_60s());
            match (ds.authors.get(a), ds.authors.get(b)) {
                (Some(x), Some(y)) => ci.weight(AuthorId(x), AuthorId(y)),
                _ => 0,
            }
        };
        let w_full = weight(&stable, "churn_bot_0", "churn_bot_1");
        let w_era1 = weight(&churned, "churn_bot_0", "churn_bot_1");
        let w_era2 = weight(&churned, "churn_bot_0_v2", "churn_bot_1_v2");
        assert!(w_era1 > 0 && w_era2 > 0, "both eras must be active");
        assert!(
            w_era1 < w_full && w_era2 < w_full,
            "each era carries only part of the month: {w_era1}/{w_era2} vs {w_full}"
        );
        // no cross-era edge exists — the handles never overlap in time
        assert_eq!(weight(&churned, "churn_bot_0", "churn_bot_1_v2"), 0);
    }

    #[test]
    fn truth_with_aliases_scores_both_eras_as_one_family() {
        let inj = inject(3, &ChurnConfig::default());
        let mut gt = GroundTruth::new();
        gt.add_family(BotFamily {
            name: "churn".into(),
            members: inj.members.clone(),
            kind: BotKind::Churn,
        });
        for (alias, canonical) in &inj.aliases {
            gt.add_alias(alias.clone(), canonical);
        }
        let eval = gt.evaluate([
            ["churn_bot_0", "churn_bot_1", "churn_bot_2"],
            ["churn_bot_0_v2", "churn_bot_1_v2", "churn_bot_2_v2"],
            ["churn_bot_0", "churn_bot_1_v2", "churn_bot_2"],
        ]);
        assert_eq!(eval.true_positives, 3, "all eras resolve to one family");
        // three logical accounts, not six handles
        assert_eq!(eval.members_flagged, 3);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = ChurnConfig::default();
        assert_eq!(inject(9, &cfg).records, inject(9, &cfg).records);
    }
}
