//! Platform-role accounts: AutoModerator and `[deleted]` (paper §3).
//!
//! AutoModerator greets a large fraction of new pages within seconds of
//! creation — precisely the projection's coordination signature, which is why
//! the paper strips it before projecting. `[deleted]` pools the comments of
//! arbitrarily many vanished accounts, so its co-occurrence pattern is
//! meaningless noise at high volume. Injecting both lets the test suite and
//! benches verify that the exclusion list actually matters.

use coordination_core::records::CommentRecord;
use rand::Rng;

/// Configuration for the platform-role accounts.
#[derive(Clone, Debug)]
pub struct HelpfulConfig {
    /// Fraction of pages AutoModerator greets.
    pub automod_page_prob: f64,
    /// AutoModerator's delay after the page's first comment, seconds.
    pub automod_delay: std::ops::Range<i64>,
    /// Fraction of organic comments that become `[deleted]` duplicates (the
    /// deleted user "shadowing" real traffic).
    pub deleted_rate: f64,
}

impl Default for HelpfulConfig {
    fn default() -> Self {
        HelpfulConfig {
            automod_page_prob: 0.6,
            automod_delay: 0..3,
            deleted_rate: 0.02,
        }
    }
}

/// Generate AutoModerator and `[deleted]` records over the organic stream.
pub(crate) fn generate<R: Rng + ?Sized>(
    cfg: &HelpfulConfig,
    organic: &[CommentRecord],
    rng: &mut R,
) -> Vec<CommentRecord> {
    let mut first_seen: std::collections::HashMap<&str, i64> = std::collections::HashMap::new();
    for r in organic {
        first_seen
            .entry(r.link_id.as_str())
            .and_modify(|t| *t = (*t).min(r.created_utc))
            .or_insert(r.created_utc);
    }
    let mut pages: Vec<(&str, i64)> = first_seen.into_iter().collect();
    pages.sort_unstable();

    let mut out = Vec::new();
    for (page, t0) in pages {
        if rng.gen_bool(cfg.automod_page_prob) {
            let ts = t0 + rng.gen_range(cfg.automod_delay.clone());
            out.push(CommentRecord::new("AutoModerator", page, ts));
        }
    }
    for r in organic {
        if rng.gen_bool(cfg.deleted_rate) {
            out.push(CommentRecord::new(
                "[deleted]",
                &r.link_id,
                r.created_utc + 30,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::organic::{self, OrganicConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn organic_month(seed: u64) -> Vec<CommentRecord> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        organic::generate(
            &OrganicConfig {
                n_users: 100,
                n_pages: 300,
                n_comments: 2_000,
                ..Default::default()
            },
            &mut rng,
        )
    }

    #[test]
    fn automod_greets_configured_fraction_of_pages() {
        let org = organic_month(1);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let extra = generate(&HelpfulConfig::default(), &org, &mut rng);
        let pages: std::collections::HashSet<&str> =
            org.iter().map(|r| r.link_id.as_str()).collect();
        let automod_pages = extra.iter().filter(|r| r.author == "AutoModerator").count() as f64;
        let frac = automod_pages / pages.len() as f64;
        assert!((frac - 0.6).abs() < 0.1, "fraction {frac}");
    }

    #[test]
    fn only_known_role_names_are_produced() {
        let org = organic_month(3);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let extra = generate(&HelpfulConfig::default(), &org, &mut rng);
        for r in &extra {
            assert!(r.author == "AutoModerator" || r.author == "[deleted]");
        }
        assert!(extra.iter().any(|r| r.author == "[deleted]"));
    }

    #[test]
    fn exclusion_list_covers_everything_generated() {
        let l = coordination_core::filter::ExclusionList::reddit_defaults();
        let org = organic_month(5);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        for r in generate(&HelpfulConfig::default(), &org, &mut rng) {
            assert!(l.contains(&r.author), "{} not excluded", r.author);
        }
    }
}
