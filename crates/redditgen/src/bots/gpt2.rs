//! The GPT-2 text-generation subreddit (paper §3.1.1).
//!
//! All pages live in one bot-only subreddit. Two page types:
//!
//! * **self-threads**: the creating bot replies to itself repeatedly; since
//!   self-interactions are never projected, these pages leave *no trace* in
//!   the CI graph — a deliberate stress on the pipeline;
//! * **mixed pages**: a random subset of the network comments with short gaps
//!   between posts (text generation is fast but not instant).
//!
//! Because only subsets participate per page, pairwise weights grow slowly and
//! the resulting CI component is sparse with a modest weight range (the paper
//! measured 25–33), unlike the dense share–reshare cliques.

use coordination_core::records::CommentRecord;
use rand::seq::SliceRandom;
use rand::Rng;

/// Configuration of a GPT-2-style generation network.
#[derive(Clone, Debug)]
pub struct Gpt2Config {
    /// Number of bot accounts.
    pub n_bots: usize,
    /// Pages the network creates during the month.
    pub n_pages: usize,
    /// Probability a page is a self-thread (no cross-bot comments).
    pub self_thread_prob: f64,
    /// Comments a bot writes on its own self-thread.
    pub self_thread_len: std::ops::Range<usize>,
    /// How many bots (beyond the creator) join a mixed page.
    pub mixed_participants: std::ops::Range<usize>,
    /// Seconds between consecutive comments on a page (generation latency).
    pub comment_gap: std::ops::Range<i64>,
    /// Month start / span.
    pub t0: i64,
    /// Month length in seconds.
    pub span: i64,
    /// Account-name prefix.
    pub name_prefix: String,
}

impl Default for Gpt2Config {
    fn default() -> Self {
        Gpt2Config {
            // 1200 pages over the month puts the pairwise weight distribution
            // right where the paper measured the network: a single sparse
            // component at cutoff 25 with edge weights in [25, 33]
            n_bots: 25,
            n_pages: 1_200,
            self_thread_prob: 0.4,
            self_thread_len: 3..10,
            mixed_participants: 3..8,
            comment_gap: 5..55,
            t0: 0,
            span: crate::MONTH_SECS,
            name_prefix: "gpt2_bot_".to_string(),
        }
    }
}

/// Output of the injector: the records plus member names for ground truth.
pub struct Injection {
    /// Generated comments.
    pub records: Vec<CommentRecord>,
    /// Bot account names.
    pub members: Vec<String>,
}

/// Generate the network's month of activity.
pub(crate) fn generate<R: Rng + ?Sized>(cfg: &Gpt2Config, rng: &mut R) -> Injection {
    assert!(cfg.n_bots >= 2, "a network needs at least two bots");
    assert!(!cfg.comment_gap.is_empty() && cfg.comment_gap.start >= 0);
    let members: Vec<String> = (0..cfg.n_bots)
        .map(|i| format!("{}{}", cfg.name_prefix, i))
        .collect();
    let mut records = Vec::new();
    let idx: Vec<usize> = (0..cfg.n_bots).collect();

    for page in 0..cfg.n_pages {
        let page_id = format!("t3_{}sub{page}", cfg.name_prefix);
        let birth = cfg.t0 + rng.gen_range(0..cfg.span.max(1));
        let creator = rng.gen_range(0..cfg.n_bots);
        let mut ts = birth;
        if rng.gen_bool(cfg.self_thread_prob) {
            // self-thread: creator replies to itself; invisible to projection
            let len = rng.gen_range(cfg.self_thread_len.clone());
            for _ in 0..len.max(1) {
                records.push(CommentRecord::new(&members[creator], &page_id, ts));
                ts += rng.gen_range(cfg.comment_gap.clone());
            }
        } else {
            // mixed page: creator comments, then a random subset follows
            records.push(CommentRecord::new(&members[creator], &page_id, ts));
            let k = rng
                .gen_range(cfg.mixed_participants.clone())
                .min(cfg.n_bots - 1);
            let mut others: Vec<usize> = idx.iter().copied().filter(|&b| b != creator).collect();
            others.shuffle(rng);
            for &b in others.iter().take(k) {
                ts += rng.gen_range(cfg.comment_gap.clone());
                records.push(CommentRecord::new(&members[b], &page_id, ts));
            }
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

    fn inject(seed: u64, cfg: &Gpt2Config) -> Injection {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        generate(cfg, &mut rng)
    }

    #[test]
    fn only_bots_touch_the_subreddit() {
        let inj = inject(1, &Gpt2Config::default());
        let members: std::collections::HashSet<&str> =
            inj.members.iter().map(String::as_str).collect();
        assert_eq!(members.len(), 25);
        for r in &inj.records {
            assert!(members.contains(r.author.as_str()));
            assert!(r.link_id.contains("gpt2_bot_"));
        }
    }

    #[test]
    fn self_threads_produce_no_ci_edges() {
        let cfg = Gpt2Config {
            self_thread_prob: 1.0,
            ..Default::default()
        };
        let inj = inject(2, &cfg);
        let ds = Dataset::from_records(inj.records);
        let ci = project::project(&ds.btm(), Window::zero_to_60s());
        assert_eq!(ci.n_edges(), 0, "self-interactions must not project");
    }

    #[test]
    fn mixed_pages_build_a_connected_sparse_component_at_cutoff_25() {
        // the paper's Figure-1 parameters: window (0, 60s), cutoff 25
        let cfg = Gpt2Config {
            self_thread_prob: 0.3,
            ..Default::default()
        };
        let inj = inject(3, &cfg);
        let ds = Dataset::from_records(inj.records);
        let ci = project::project(&ds.btm(), Window::zero_to_60s());
        let comps = ci.components(25);
        assert_eq!(comps.len(), 1, "one GPT component at cutoff 25");
        assert_eq!(comps[0].len(), 25, "covers the whole network");
        let sub =
            tripoll::clique::Subgraph::induce(&ci.threshold(25).to_weighted_graph(), &comps[0]);
        assert!(
            sub.density() < 0.5,
            "sparse, unlike share–reshare: {}",
            sub.density()
        );
        let (lo, hi) = sub.weight_range().unwrap();
        assert!(
            lo >= 25 && hi <= 40,
            "weight range ({lo},{hi}) vs paper's (25,33)"
        );
    }

    #[test]
    fn comment_gaps_respect_configuration() {
        let cfg = Gpt2Config {
            self_thread_prob: 0.0,
            ..Default::default()
        };
        let inj = inject(4, &cfg);
        // group by page, check consecutive gaps
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
            for pair in ts.windows(2) {
                let gap = pair[1] - pair[0];
                assert!((5..55).contains(&gap), "gap {gap} outside configured range");
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = Gpt2Config::default();
        assert_eq!(inject(9, &cfg).records, inject(9, &cfg).records);
    }
}
