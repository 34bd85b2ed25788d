//! Slow-burn coordination: networks whose responses arrive minutes, not
//! seconds, after the trigger.
//!
//! The paper's §2.2 argues window choice targets behaviour types: "if the
//! bipartite temporal graph represents data from a low traffic network, a
//! larger time window should be selected". Text-generation pipelines with
//! queueing, human-in-the-loop curation, or deliberate jitter respond on the
//! scale of minutes — invisible to a (0, 60 s) projection and plainly visible
//! at (0, 10 min). This injector exists to make that trade measurable: the
//! window-study experiments show the family appearing as the window crosses
//! its response scale.

use coordination_core::records::CommentRecord;
use rand::Rng;

use super::gpt2::Injection;

/// Configuration of a slow-responding coordinated network.
#[derive(Clone, Debug)]
pub struct SlowBurnConfig {
    /// Network size.
    pub n_members: usize,
    /// Trigger pages over the month.
    pub n_triggers: usize,
    /// Probability each member responds to a trigger.
    pub participation: f64,
    /// Response delay after the trigger — *minutes*, the defining trait.
    pub response_delay: std::ops::Range<i64>,
    /// Month start.
    pub t0: i64,
    /// Month length in seconds.
    pub span: i64,
    /// Account-name prefix.
    pub name_prefix: String,
}

impl Default for SlowBurnConfig {
    fn default() -> Self {
        SlowBurnConfig {
            n_members: 6,
            n_triggers: 45,
            participation: 0.85,
            // 2–20 minutes: pairwise response deltas rarely fall inside a
            // 60 s window but almost always inside a 10-minute one
            response_delay: 120..1_200,
            t0: 0,
            span: crate::MONTH_SECS,
            name_prefix: "curator_bot_".to_string(),
        }
    }
}

/// Generate the month's slow trigger/response activity.
pub(crate) fn generate<R: Rng + ?Sized>(cfg: &SlowBurnConfig, rng: &mut R) -> Injection {
    assert!(cfg.n_members >= 2, "need at least two members");
    assert!(!cfg.response_delay.is_empty() && cfg.response_delay.start >= 0);
    let members: Vec<String> = (0..cfg.n_members)
        .map(|i| format!("{}{}", cfg.name_prefix, i))
        .collect();
    let mut records = Vec::new();
    for trig in 0..cfg.n_triggers {
        let page_id = format!("t3_{}page{trig}", cfg.name_prefix);
        let birth = cfg.t0 + rng.gen_range(0..cfg.span.max(1));
        let poster = rng.gen_range(0..cfg.n_members);
        records.push(CommentRecord::new(&members[poster], &page_id, birth));
        for (i, m) in members.iter().enumerate() {
            if i == poster || !rng.gen_bool(cfg.participation) {
                continue;
            }
            records.push(CommentRecord::new(
                m,
                &page_id,
                birth + rng.gen_range(cfg.response_delay.clone()),
            ));
        }
    }
    Injection { records, members }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coordination_core::records::Dataset;
    use coordination_core::{project, Window};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn inject(seed: u64) -> Injection {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        generate(&SlowBurnConfig::default(), &mut rng)
    }

    #[test]
    fn invisible_at_60s_visible_at_10min() {
        let inj = inject(1);
        let ds = Dataset::from_records(inj.records);
        let btm = ds.btm();
        let narrow = project::project(&btm, Window::zero_to_60s());
        let wide = project::project(&btm, Window::zero_to_10m());
        // a few responses land within 60s of each other by chance, but
        // nothing approaching coordination cutoffs
        assert!(
            narrow.max_weight() < 15,
            "60s window should miss the network: max {}",
            narrow.max_weight()
        );
        // the 10-minute window captures most of the response pattern
        assert!(
            wide.max_weight() >= narrow.max_weight() * 2,
            "10min window should expose it: {} vs {}",
            wide.max_weight(),
            narrow.max_weight()
        );
        assert!(
            narrow.components(20).is_empty(),
            "no 60s component at cutoff 20"
        );
        let comps = wide.components(20);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), 6, "the full network connects at 10min");
    }

    #[test]
    fn delays_are_in_the_configured_band() {
        let inj = inject(2);
        let mut per_page: std::collections::HashMap<&str, Vec<i64>> =
            std::collections::HashMap::new();
        for r in &inj.records {
            per_page
                .entry(r.link_id.as_str())
                .or_default()
                .push(r.created_utc);
        }
        for ts in per_page.values_mut() {
            ts.sort_unstable();
            let first = ts[0];
            for &t in &ts[1..] {
                assert!((120..1_200).contains(&(t - first)), "delay {}", t - first);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(inject(9).records, inject(9).records);
    }
}
