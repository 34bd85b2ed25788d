//! Organic (human) comment traffic.
//!
//! The baseline model layers the regularities of real Reddit months:
//!
//! * **page popularity is Zipf** — a few submissions absorb most comments;
//! * **user activity is log-normal** — most accounts comment a handful of
//!   times, a heavy tail comments constantly;
//! * **comment arrival decays with page age** — exponential delay after the
//!   page's creation (threads are hot for hours, not weeks);
//! * **a diurnal cycle** modulates when comments land.
//!
//! Crucially, humans rarely produce the projection's signature: two specific
//! accounts landing within the same short window on *many distinct pages*.
//! Organic traffic therefore yields a CI graph full of weight-1/2 edges —
//! exactly the haystack the paper describes.

use coordination_core::records::CommentRecord;
use rand::Rng;

use crate::dist::{exponential, LogNormal, WeightedIndex, Zipf};

/// Parameters for an organic month.
#[derive(Clone, Debug)]
pub struct OrganicConfig {
    /// Distinct human accounts.
    pub n_users: usize,
    /// Distinct pages (submissions) created during the month.
    pub n_pages: usize,
    /// Total comments to generate.
    pub n_comments: usize,
    /// Month start timestamp (epoch seconds).
    pub t0: i64,
    /// Month length in seconds.
    pub span: i64,
    /// Zipf exponent for page popularity (≈1.0–1.3 fits Reddit).
    pub page_zipf_s: f64,
    /// Log-space σ of user activity (≈1.2 gives a realistic heavy tail).
    pub user_sigma: f64,
    /// Mean comment delay after page creation, seconds (page "hotness").
    pub mean_page_delay: f64,
    /// Probability each comment draws a quick conversational reply (and each
    /// reply another, geometrically) — threads are dialogues, and this is what
    /// puts *organic* pairs inside short projection windows.
    pub burst_prob: f64,
    /// Delay of a conversational reply after its parent, seconds.
    pub burst_delay: std::ops::Range<i64>,
    /// Number of subreddits pages are partitioned into. `1` disables
    /// community structure (every page in one pool).
    pub n_subreddits: usize,
    /// Probability a user's comment lands in one of their home subreddits
    /// (each user gets two homes); the rest go anywhere. Community affinity
    /// is what clusters organic co-occurrence in real Reddit data.
    pub affinity: f64,
    /// Prefix for generated user names.
    pub user_prefix: String,
    /// Prefix for generated page names.
    pub page_prefix: String,
}

impl Default for OrganicConfig {
    fn default() -> Self {
        OrganicConfig {
            n_users: 2_000,
            n_pages: 1_500,
            n_comments: 20_000,
            t0: 0,
            span: crate::MONTH_SECS,
            page_zipf_s: 1.05,
            user_sigma: 1.2,
            mean_page_delay: 4.0 * 3600.0,
            burst_prob: 0.45,
            burst_delay: 15..240,
            n_subreddits: 1,
            affinity: 0.8,
            user_prefix: "user".to_string(),
            page_prefix: "t3_org".to_string(),
        }
    }
}

/// The diurnal acceptance probability at timestamp `ts` for a cycle anchored
/// at `t0`: activity peaks mid-cycle and troughs at "night", never dropping
/// below 0.1. Shared by organic traffic and by any injector that mimics it
/// (see [`crate::bots::mimicry`]) — an adversary shaping its activity on this
/// exact curve is indistinguishable from humans by rhythm alone.
pub(crate) fn diurnal_accept(ts: i64, t0: i64) -> f64 {
    let phase = ((ts - t0) % 86_400) as f64 / 86_400.0 * std::f64::consts::TAU;
    0.5 * (1.0 + phase.sin()) * 0.9 + 0.1
}

/// Generate one organic month. Returned records are in generation order
/// (callers sort the merged scenario by time).
pub(crate) fn generate<R: Rng + ?Sized>(cfg: &OrganicConfig, rng: &mut R) -> Vec<CommentRecord> {
    assert!(cfg.n_users > 0 && cfg.n_pages > 0, "need users and pages");
    assert!(cfg.span > 0, "month span must be positive");

    assert!(cfg.n_subreddits > 0, "need at least one subreddit");
    assert!(
        (0.0..=1.0).contains(&cfg.affinity),
        "affinity is a probability"
    );

    // Page creation times: uniform over the month (hot pages early or late).
    let page_birth: Vec<i64> = (0..cfg.n_pages)
        .map(|_| cfg.t0 + rng.gen_range(0..cfg.span))
        .collect();

    // Community structure: pages are dealt to subreddits with Zipf-skewed
    // subreddit sizes; each subreddit gets its own Zipf over its pages.
    let nsubs = cfg.n_subreddits.min(cfg.n_pages);
    let sub_pop = Zipf::new(nsubs, 1.0);
    let mut sub_pages: Vec<Vec<usize>> = vec![Vec::new(); nsubs];
    for page in 0..cfg.n_pages {
        sub_pages[sub_pop.sample(rng)].push(page);
    }
    // guarantee non-empty subreddits (tiny tails can come up empty)
    for s in 0..nsubs {
        if sub_pages[s].is_empty() {
            let donor = (0..nsubs)
                .max_by_key(|&d| sub_pages[d].len())
                .expect("nonempty");
            let page = sub_pages[donor].pop().expect("donor has pages");
            sub_pages[s].push(page);
        }
    }
    let sub_zipf: Vec<Zipf> = sub_pages
        .iter()
        .map(|ps| Zipf::new(ps.len(), cfg.page_zipf_s))
        .collect();

    // User activity weights and home subreddits.
    let act = LogNormal::new(0.0, cfg.user_sigma);
    let weights: Vec<f64> = (0..cfg.n_users).map(|_| act.sample(rng)).collect();
    let user_pick = WeightedIndex::new(&weights);
    let homes: Vec<[usize; 2]> = (0..cfg.n_users)
        .map(|_| [sub_pop.sample(rng), sub_pop.sample(rng)])
        .collect();

    let mut out = Vec::with_capacity(cfg.n_comments);
    while out.len() < cfg.n_comments {
        let user = user_pick.sample(rng);
        let sub = if nsubs == 1 {
            0
        } else if rng.gen_bool(cfg.affinity) {
            homes[user][rng.gen_range(0..2usize)]
        } else {
            sub_pop.sample(rng)
        };
        let page_sub = sub;
        let page = sub_pages[sub][sub_zipf[sub].sample(rng)];
        let delay = exponential(rng, cfg.mean_page_delay) as i64;
        let ts = page_birth[page] + delay;
        if ts >= cfg.t0 + cfg.span {
            continue; // page went cold past month end; resample
        }
        if rng.gen::<f64>() > diurnal_accept(ts, cfg.t0) {
            continue;
        }
        // page ids carry the subreddit (as pushshift's `subreddit` field
        // would); the pipeline treats them as opaque strings
        let page_name = format!("{}{}_s{}", cfg.page_prefix, page, page_sub);
        out.push(CommentRecord::new(
            format!("{}{}", cfg.user_prefix, user),
            &page_name,
            ts,
        ));
        // conversational burst: quick replies chain geometrically
        let mut reply_ts = ts;
        while out.len() < cfg.n_comments && cfg.burst_prob > 0.0 && rng.gen_bool(cfg.burst_prob) {
            reply_ts += rng.gen_range(cfg.burst_delay.clone());
            if reply_ts >= cfg.t0 + cfg.span {
                break;
            }
            let replier = user_pick.sample(rng);
            out.push(CommentRecord::new(
                format!("{}{}", cfg.user_prefix, replier),
                &page_name,
                reply_ts,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::collections::HashMap;

    fn gen(seed: u64, cfg: &OrganicConfig) -> Vec<CommentRecord> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        generate(cfg, &mut rng)
    }

    #[test]
    fn produces_requested_volume_within_month() {
        let cfg = OrganicConfig {
            n_comments: 5_000,
            ..Default::default()
        };
        let recs = gen(1, &cfg);
        assert_eq!(recs.len(), 5_000);
        for r in &recs {
            assert!(r.created_utc >= cfg.t0);
            assert!(r.created_utc < cfg.t0 + cfg.span);
        }
    }

    #[test]
    fn page_popularity_is_heavy_tailed() {
        let cfg = OrganicConfig {
            n_comments: 10_000,
            ..Default::default()
        };
        let recs = gen(2, &cfg);
        let mut per_page: HashMap<&str, u64> = HashMap::new();
        for r in &recs {
            *per_page.entry(r.link_id.as_str()).or_insert(0) += 1;
        }
        let mut counts: Vec<u64> = per_page.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        // top page should dwarf the median page
        let median = counts[counts.len() / 2];
        assert!(counts[0] >= median * 5, "top {} median {median}", counts[0]);
    }

    #[test]
    fn user_activity_is_heavy_tailed() {
        let cfg = OrganicConfig {
            n_comments: 10_000,
            ..Default::default()
        };
        let recs = gen(3, &cfg);
        let mut per_user: HashMap<&str, u64> = HashMap::new();
        for r in &recs {
            *per_user.entry(r.author.as_str()).or_insert(0) += 1;
        }
        let mut counts: Vec<u64> = per_user.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        assert!(counts[0] >= 20, "most active user only {}", counts[0]);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = OrganicConfig {
            n_comments: 1_000,
            ..Default::default()
        };
        assert_eq!(gen(7, &cfg), gen(7, &cfg));
        assert_ne!(gen(7, &cfg), gen(8, &cfg));
    }

    /// Subreddit of a generated page id (`..._s<sub>` suffix).
    fn sub_of(link_id: &str) -> &str {
        link_id.rsplit("_s").next().expect("suffix present")
    }

    #[test]
    fn community_affinity_concentrates_users_in_home_subs() {
        let base = OrganicConfig {
            n_users: 200,
            n_pages: 1_000,
            n_comments: 8_000,
            n_subreddits: 20,
            ..Default::default()
        };
        // mean fraction of a user's comments inside their two most-visited
        // subreddits (users with ≥ 10 comments)
        let homeshare = |affinity: f64, seed: u64| -> f64 {
            let cfg = OrganicConfig {
                affinity,
                ..base.clone()
            };
            let recs = gen(seed, &cfg);
            let mut per_user: HashMap<&str, HashMap<&str, u64>> = HashMap::new();
            for r in &recs {
                *per_user
                    .entry(r.author.as_str())
                    .or_default()
                    .entry(sub_of(&r.link_id))
                    .or_insert(0) += 1;
            }
            let mut shares = Vec::new();
            for subs in per_user.values() {
                let total: u64 = subs.values().sum();
                if total < 10 {
                    continue;
                }
                let mut counts: Vec<u64> = subs.values().copied().collect();
                counts.sort_unstable_by(|a, b| b.cmp(a));
                let top2: u64 = counts.iter().take(2).sum();
                shares.push(top2 as f64 / total as f64);
            }
            shares.iter().sum::<f64>() / shares.len() as f64
        };
        let strong = homeshare(0.95, 9);
        let none = homeshare(0.0, 9);
        assert!(
            strong > none + 0.15,
            "affinity should concentrate traffic: {strong:.3} vs {none:.3}"
        );
        // conversational-burst replies land wherever the parent comment is,
        // regardless of the replier's homes, which caps the share below the
        // raw 95% affinity
        assert!(
            strong > 0.6,
            "95% affinity keeps most comments home: {strong:.3}"
        );
    }

    #[test]
    fn every_subreddit_gets_pages() {
        let cfg = OrganicConfig {
            n_users: 50,
            n_pages: 60,
            n_comments: 2_000,
            n_subreddits: 50,
            ..Default::default()
        };
        // would panic inside Zipf::new(0, ..) if a subreddit were empty
        let recs = gen(10, &cfg);
        assert_eq!(recs.len(), 2_000);
    }

    #[test]
    fn organic_traffic_projects_to_light_edges() {
        // the haystack property: no organic pair should rack up a CI weight
        // anywhere near a coordinated one
        use coordination_core::records::Dataset;
        use coordination_core::{project, Window};
        let cfg = OrganicConfig {
            n_users: 300,
            n_pages: 500,
            n_comments: 6_000,
            ..Default::default()
        };
        let ds = Dataset::from_records(gen(4, &cfg));
        let ci = project::project(&ds.btm(), Window::zero_to_60s());
        assert!(
            ci.max_weight() <= 10,
            "organic max CI weight {} suspiciously high — coordinated nets sit at 20+",
            ci.max_weight()
        );
    }
}
