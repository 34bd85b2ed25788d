//! Slow-drip coordination: stay below the per-window weight cutoff.
//!
//! Where [`super::jitter`] shaves each burst, slow drip rations how often the
//! network bursts at all: most responses to a trigger arrive hours later
//! (useless to any short projection window), and only an occasional
//! `fast_prob` fraction land in seconds. Each pair therefore accumulates CI
//! weight at a rate of roughly `fast_prob²` per trigger — comfortably below
//! the paper's min-weight cutoff even over a whole month — while the
//! *hypergraph* weight `w_xyz` (which counts shared pages regardless of
//! timing) keeps growing with every trigger. The scenario quantifies which
//! score metric survives: validation's `w_xyz`/`C` see the family, the
//! windowed `min w'`/`T` do not.

use coordination_core::records::CommentRecord;
use rand::Rng;

use super::gpt2::Injection;

/// Configuration of a below-the-cutoff coordinated network.
#[derive(Clone, Debug)]
pub struct SlowDripConfig {
    /// Network size.
    pub n_members: usize,
    /// Trigger pages over the month.
    pub n_triggers: usize,
    /// Probability each member responds to a trigger at all.
    pub participation: f64,
    /// Probability a response is fast (window-visible) rather than hours late.
    pub fast_prob: f64,
    /// Fast-response delay, seconds.
    pub fast_delay: std::ops::Range<i64>,
    /// Slow-response delay, seconds (hours — outside any sane window).
    pub slow_delay: std::ops::Range<i64>,
    /// Month start.
    pub t0: i64,
    /// Month length in seconds.
    pub span: i64,
    /// Account-name prefix.
    pub name_prefix: String,
}

impl Default for SlowDripConfig {
    fn default() -> Self {
        SlowDripConfig {
            n_members: 7,
            n_triggers: 60,
            participation: 0.9,
            // pairwise in-window weight ≈ n_triggers · fast_prob² plus the
            // poster's always-fast contribution ≈ 5, under the paper's
            // cutoff of 10; w_xyz ≈ 40+ regardless
            fast_prob: 0.2,
            fast_delay: 1..45,
            slow_delay: 7_200..72_000,
            t0: 0,
            span: crate::MONTH_SECS,
            name_prefix: "drip_bot_".to_string(),
        }
    }
}

/// Generate the month's rationed trigger/response activity.
pub(crate) fn generate<R: Rng + ?Sized>(cfg: &SlowDripConfig, rng: &mut R) -> Injection {
    assert!(cfg.n_members >= 2, "need at least two members");
    assert!(!cfg.fast_delay.is_empty() && cfg.fast_delay.start >= 0);
    assert!(!cfg.slow_delay.is_empty() && cfg.slow_delay.start >= 0);
    assert!((0.0..=1.0).contains(&cfg.fast_prob));
    let members: Vec<String> = (0..cfg.n_members)
        .map(|i| format!("{}{}", cfg.name_prefix, i))
        .collect();
    let mut records = Vec::new();
    for trig in 0..cfg.n_triggers {
        let page_id = format!("t3_{}link{trig}", cfg.name_prefix);
        let birth = cfg.t0 + rng.gen_range(0..cfg.span.max(1));
        let poster = rng.gen_range(0..cfg.n_members);
        records.push(CommentRecord::new(&members[poster], &page_id, birth));
        for (i, m) in members.iter().enumerate() {
            if i == poster || !rng.gen_bool(cfg.participation) {
                continue;
            }
            let delay = if rng.gen_bool(cfg.fast_prob) {
                rng.gen_range(cfg.fast_delay.clone())
            } else {
                rng.gen_range(cfg.slow_delay.clone())
            };
            records.push(CommentRecord::new(m, &page_id, birth + delay));
        }
    }
    Injection { records, members }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coordination_core::records::Dataset;
    use coordination_core::{project, AuthorId, Window};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn inject(seed: u64) -> Injection {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        generate(&SlowDripConfig::default(), &mut rng)
    }

    #[test]
    fn ci_weights_stay_below_the_cutoff() {
        let inj = inject(1);
        let ds = Dataset::from_records(inj.records);
        let btm = ds.btm();
        let narrow = project::project(&btm, Window::zero_to_60s());
        assert!(
            narrow.max_weight() < 10,
            "drip must stay under the paper's cutoff: max {}",
            narrow.max_weight()
        );
        // unlike slow_burn, a 10-minute window doesn't rescue the detector:
        // the slow tail starts at 2 hours
        let wide = project::project(&btm, Window::zero_to_10m());
        assert!(
            wide.max_weight() < 12,
            "10 min window should stay blind: max {}",
            wide.max_weight()
        );
    }

    #[test]
    fn hypergraph_weight_sees_what_the_window_misses() {
        let inj = inject(2);
        let ds = Dataset::from_records(inj.records);
        let btm = ds.btm();
        let id = |n: &str| AuthorId(ds.authors.get(n).unwrap());
        let (a, b, c) = (id("drip_bot_0"), id("drip_bot_1"), id("drip_bot_2"));
        let pages = coordination_core::AuthorPages::harvest(&btm, [a, b, c]);
        let w_xyz = coordination_core::hypergraph::hyperedge_weight(&pages, a, b, c);
        // all three respond to ~73% of 60 triggers regardless of timing
        assert!(
            w_xyz >= 30,
            "shared-page count should expose the family: w_xyz {w_xyz}"
        );
    }

    #[test]
    fn fast_fraction_controls_visibility() {
        let gen_with = |fast_prob: f64| {
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            let inj = generate(
                &SlowDripConfig {
                    fast_prob,
                    ..Default::default()
                },
                &mut rng,
            );
            let ds = Dataset::from_records(inj.records);
            project::project(&ds.btm(), Window::zero_to_60s()).max_weight()
        };
        assert!(
            gen_with(1.0) > gen_with(0.25) * 3,
            "full-speed responses should tower over the drip"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(inject(9).records, inject(9).records);
    }
}
