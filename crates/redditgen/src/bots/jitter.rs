//! Timing-jittered cliques: coordinated bursts that straddle the window edge.
//!
//! The projection only credits a pair when both comments land inside the
//! (δ1, δ2) window, so an adversary that knows δ2 can spread its responses
//! over a few multiples of it: every trigger still gets the full pile-on, but
//! only a fraction of the pairwise deltas survive the window test. With
//! delays uniform on `(0, straddle·δ2)` the surviving fraction for a
//! responder pair is about `1 − (1 − 1/straddle)²` (5/9 at the default
//! `straddle = 3`), dragging edge weights from "obvious clique" down to the
//! neighbourhood of the paper's min-weight cutoff — the detector's decision
//! boundary, which is exactly where an evader wants to sit.

use coordination_core::records::CommentRecord;
use rand::Rng;

use super::gpt2::Injection;

/// Configuration of a window-straddling coordinated network.
#[derive(Clone, Debug)]
pub struct JitterConfig {
    /// Network size.
    pub n_members: usize,
    /// Trigger pages over the month.
    pub n_triggers: usize,
    /// Probability each member responds to a trigger.
    pub participation: f64,
    /// The δ2 the adversary is evading, seconds.
    pub window_edge: i64,
    /// Response delays are uniform on `(0, straddle · window_edge)`; larger
    /// values push more pairwise deltas outside the window.
    pub straddle: f64,
    /// Month start.
    pub t0: i64,
    /// Month length in seconds.
    pub span: i64,
    /// Account-name prefix.
    pub name_prefix: String,
}

impl Default for JitterConfig {
    fn default() -> Self {
        JitterConfig {
            n_members: 8,
            // 24 triggers × the ~5/9 surviving-pair fraction lands pairwise
            // weights right around the paper's cutoff of 10
            n_triggers: 24,
            participation: 0.9,
            window_edge: 60,
            straddle: 3.0,
            t0: 0,
            span: crate::MONTH_SECS,
            name_prefix: "jitter_bot_".to_string(),
        }
    }
}

/// Generate the month's jittered trigger/response activity.
pub(crate) fn generate<R: Rng + ?Sized>(cfg: &JitterConfig, rng: &mut R) -> Injection {
    assert!(cfg.n_members >= 2, "need at least two members");
    assert!(cfg.window_edge > 0, "window edge must be positive");
    assert!(cfg.straddle >= 1.0, "straddle < 1 would be fully in-window");
    let spread = ((cfg.window_edge as f64) * cfg.straddle) as i64;
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
            let ts = birth + rng.gen_range(1..spread.max(2));
            records.push(CommentRecord::new(m, &page_id, ts));
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

    fn inject(seed: u64, cfg: &JitterConfig) -> Injection {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        generate(cfg, &mut rng)
    }

    #[test]
    fn delays_straddle_the_window_edge() {
        let inj = inject(1, &JitterConfig::default());
        let mut per_page: std::collections::HashMap<&str, Vec<i64>> =
            std::collections::HashMap::new();
        for r in &inj.records {
            per_page
                .entry(r.link_id.as_str())
                .or_default()
                .push(r.created_utc);
        }
        let (mut inside, mut outside) = (0usize, 0usize);
        for ts in per_page.values_mut() {
            ts.sort_unstable();
            let first = ts[0];
            for &t in &ts[1..] {
                let d = t - first;
                assert!((1..180).contains(&d), "delay {d}");
                if d <= 60 {
                    inside += 1;
                } else {
                    outside += 1;
                }
            }
        }
        // the defining trait: responses land on both sides of δ2
        assert!(inside > 0 && outside > 0);
        assert!(outside > inside, "most delays should escape the window");
    }

    #[test]
    fn jitter_suppresses_edge_weights_toward_the_cutoff() {
        let cfg = JitterConfig::default();
        let jittered = inject(2, &cfg);
        // the same cadence without the evasion: all delays inside the window
        let tight = inject(
            2,
            &JitterConfig {
                straddle: 1.0,
                ..cfg.clone()
            },
        );
        let max_w = |inj: Injection| {
            let ds = Dataset::from_records(inj.records);
            project::project(&ds.btm(), Window::zero_to_60s()).max_weight()
        };
        let (wj, wt) = (max_w(jittered), max_w(tight));
        assert!(
            (wj as f64) < wt as f64 * 0.75,
            "straddling should shed weight: jittered {wj} vs tight {wt}"
        );
        // hovers at the decision boundary, not at clique scale
        assert!((6..=18).contains(&wj), "jittered max weight {wj}");
    }

    #[test]
    fn a_wider_window_recovers_the_clique() {
        let inj = inject(3, &JitterConfig::default());
        let ds = Dataset::from_records(inj.records);
        let btm = ds.btm();
        let narrow = project::project(&btm, Window::zero_to_60s());
        let wide = project::project(&btm, Window::zero_to_10m());
        // the (0, 10 min) window swallows the whole 180 s spread
        assert!(wide.max_weight() > narrow.max_weight());
        let comps = wide.components(15);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), 8, "full network connects at 10 min");
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = JitterConfig::default();
        assert_eq!(inject(9, &cfg).records, inject(9, &cfg).records);
    }
}
