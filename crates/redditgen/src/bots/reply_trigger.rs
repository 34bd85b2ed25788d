//! Reply-trigger utility bots (paper §3.1.4).
//!
//! The paper's heaviest triangle — edge weights (4460, 5516, 13355) — came
//! from bots that reply ":)" whenever a previous comment contains ":(". Such
//! bots patrol *the entire platform*: they co-occur with each other on
//! thousands of organic pages within seconds, producing CI edge weights
//! orders of magnitude above any human pair, while their normalized scores
//! stay unremarkable (they also visit pages the others miss).
//!
//! The injector takes the organic records as input and adds bot replies on a
//! sampled fraction of pages, with per-bot trigger probabilities — unequal
//! probabilities recreate the strongly asymmetric weights of the paper's
//! outlier triangle.

use coordination_core::records::CommentRecord;
use rand::Rng;

use super::gpt2::Injection;

/// Configuration of the reply-bot trio (or larger set).
#[derive(Clone, Debug)]
pub struct ReplyTriggerConfig {
    /// Per-bot probability of firing on a triggering page. One entry per bot;
    /// unequal values yield the asymmetric weights of the paper's outlier.
    pub fire_probs: Vec<f64>,
    /// Fraction of organic pages containing a trigger (a ":(" somewhere).
    pub trigger_page_prob: f64,
    /// Bot response delay after the triggering comment, seconds.
    pub response_delay: std::ops::Range<i64>,
    /// Account-name prefix.
    pub name_prefix: String,
}

impl Default for ReplyTriggerConfig {
    fn default() -> Self {
        ReplyTriggerConfig {
            // bot 2 fires on nearly every trigger; 0 and 1 are choosier —
            // mirrors the (4460, 5516, 13355) asymmetry
            fire_probs: vec![0.55, 0.65, 0.95],
            trigger_page_prob: 0.5,
            response_delay: 1..8,
            name_prefix: "smiley_bot_".to_string(),
        }
    }
}

/// Add reply-bot activity over the given organic records. Pages are sampled
/// by their first appearance in `organic`; each firing bot replies shortly
/// after the triggering (first) comment.
pub(crate) fn generate<R: Rng + ?Sized>(
    cfg: &ReplyTriggerConfig,
    organic: &[CommentRecord],
    rng: &mut R,
) -> Injection {
    assert!(!cfg.fire_probs.is_empty(), "need at least one bot");
    assert!(!cfg.response_delay.is_empty() && cfg.response_delay.start >= 0);
    let members: Vec<String> = (0..cfg.fire_probs.len())
        .map(|i| format!("{}{}", cfg.name_prefix, i))
        .collect();

    // first comment per page = the trigger opportunity
    let mut first_seen: std::collections::HashMap<&str, i64> = std::collections::HashMap::new();
    for r in organic {
        first_seen
            .entry(r.link_id.as_str())
            .and_modify(|t| *t = (*t).min(r.created_utc))
            .or_insert(r.created_utc);
    }
    let mut pages: Vec<(&str, i64)> = first_seen.into_iter().collect();
    pages.sort_unstable(); // deterministic iteration order

    let mut records = Vec::new();
    for (page, t_first) in pages {
        if !rng.gen_bool(cfg.trigger_page_prob) {
            continue;
        }
        for (i, &p) in cfg.fire_probs.iter().enumerate() {
            if rng.gen_bool(p) {
                let ts = t_first + rng.gen_range(cfg.response_delay.clone());
                records.push(CommentRecord::new(&members[i], page, ts));
            }
        }
    }
    Injection { records, members }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::organic::{self, OrganicConfig};
    use coordination_core::records::Dataset;
    use coordination_core::{project, AuthorId, Window};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn organic_month(seed: u64) -> Vec<CommentRecord> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        organic::generate(
            &OrganicConfig {
                n_users: 200,
                n_pages: 800,
                n_comments: 4_000,
                ..Default::default()
            },
            &mut rng,
        )
    }

    #[test]
    fn bots_reply_only_on_existing_pages_shortly_after_first_comment() {
        let org = organic_month(1);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let inj = generate(&ReplyTriggerConfig::default(), &org, &mut rng);
        let mut first: std::collections::HashMap<&str, i64> = std::collections::HashMap::new();
        for r in &org {
            first
                .entry(r.link_id.as_str())
                .and_modify(|t| *t = (*t).min(r.created_utc))
                .or_insert(r.created_utc);
        }
        assert!(!inj.records.is_empty());
        for r in &inj.records {
            let t0 = first[r.link_id.as_str()];
            assert!((1..8).contains(&(r.created_utc - t0)));
        }
    }

    #[test]
    fn trio_dominates_the_weight_ranking() {
        let org = organic_month(3);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let inj = generate(&ReplyTriggerConfig::default(), &org, &mut rng);
        let mut all = org;
        all.extend(inj.records);
        let ds = Dataset::from_records(all);
        let ci = project::project(&ds.btm(), Window::zero_to_60s());
        let id = |n: &str| AuthorId(ds.authors.get(n).unwrap());
        let w01 = ci.weight(id("smiley_bot_0"), id("smiley_bot_1"));
        let w02 = ci.weight(id("smiley_bot_0"), id("smiley_bot_2"));
        let w12 = ci.weight(id("smiley_bot_1"), id("smiley_bot_2"));
        // the trio's minimum edge dwarfs every other edge in the graph
        let trio_min = w01.min(w02).min(w12);
        let other_max = ci
            .edges()
            .filter(|&(a, b, _)| {
                let bots = [
                    id("smiley_bot_0").0,
                    id("smiley_bot_1").0,
                    id("smiley_bot_2").0,
                ];
                !(bots.contains(&a) && bots.contains(&b))
            })
            .map(|(_, _, w)| w)
            .max()
            .unwrap_or(0);
        assert!(
            trio_min > other_max * 2,
            "trio min {trio_min} vs other max {other_max}"
        );
        // asymmetry: the eager bot's edges outweigh the choosy pair's edge
        assert!(w02 > w01 && w12 > w01, "({w01}, {w02}, {w12})");
    }

    #[test]
    fn fire_probability_controls_volume() {
        let org = organic_month(5);
        let count = |probs: Vec<f64>, seed: u64| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            generate(
                &ReplyTriggerConfig {
                    fire_probs: probs,
                    ..Default::default()
                },
                &org,
                &mut rng,
            )
            .records
            .len()
        };
        assert!(count(vec![0.9], 6) > count(vec![0.1], 6) * 3);
    }

    #[test]
    fn deterministic_per_seed() {
        let org = organic_month(7);
        let run = |seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            generate(&ReplyTriggerConfig::default(), &org, &mut rng).records
        };
        assert_eq!(run(8), run(8));
    }
}
