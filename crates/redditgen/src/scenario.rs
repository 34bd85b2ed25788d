//! Month-scale scenario presets mirroring the paper's two analyses.
//!
//! A scenario merges organic traffic with any subset of botnet injectors and
//! returns the time-sorted records plus the ground truth. Two presets:
//!
//! * [`ScenarioConfig::jan2020`] — the January 2020 cast: GPT-2 generation
//!   subreddit, MLB-restream share–reshare ring, the smiley reply-bot trio
//!   (the figure-4 outlier), AutoModerator/`[deleted]`, and organic bulk;
//! * [`ScenarioConfig::oct2016`] — October 2016: a smaller network with two
//!   share–reshare rings (one political amplifier, one link ring) and **no**
//!   GPT-2 (it did not exist) and no smiley trio — which is why the paper's
//!   Figure 6 lacks the second artifact visible in Figure 4.
//!
//! Four adversarial presets (`adv_jitter`, `adv_slow_drip`, `adv_churn`,
//! `adv_mimicry`) each plant exactly one evasion family in a mid-size organic
//! month; the quality bench sweeps every score metric over them to quantify
//! which paper metric survives which evasion. [`ScenarioConfig::preset`]
//! resolves all six by name.
//!
//! The `scale` knob multiplies entity counts so benches can sweep sizes; the
//! default `1.0` runs the whole pipeline in seconds on a laptop while keeping
//! every structural relationship (who wins, what dominates, where the outliers
//! sit) intact.

use coordination_core::records::{CommentRecord, Dataset};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::bots::churn::{self, ChurnConfig};
use crate::bots::gpt2::{self, Gpt2Config};
use crate::bots::helpful::{self, HelpfulConfig};
use crate::bots::jitter::{self, JitterConfig};
use crate::bots::mimicry::{self, MimicryConfig};
use crate::bots::reply_trigger::{self, ReplyTriggerConfig};
use crate::bots::reshare::{self, ReshareConfig};
use crate::bots::slow_burn::{self, SlowBurnConfig};
use crate::bots::slow_drip::{self, SlowDripConfig};
use crate::organic::OrganicConfig;
use crate::truth::{BotFamily, BotKind, GroundTruth};

/// Full configuration of one generated month.
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    /// Scenario label (propagated into reports).
    pub name: String,
    /// RNG seed; everything is deterministic given this.
    pub seed: u64,
    /// The organic baseline.
    pub organic: OrganicConfig,
    /// Optional GPT-2-style network.
    pub gpt2: Option<Gpt2Config>,
    /// Share–reshare networks (each becomes its own family), with labels.
    pub reshare: Vec<(String, ReshareConfig)>,
    /// Optional reply-trigger bots over the organic stream.
    pub reply_trigger: Option<ReplyTriggerConfig>,
    /// Optional slow-burn network (minute-scale responses; only long windows
    /// catch it — the window-study payoff).
    pub slow_burn: Option<SlowBurnConfig>,
    /// Optional window-straddling clique (evasion; `adv_jitter` preset).
    pub jitter: Option<JitterConfig>,
    /// Optional below-the-cutoff drip network (evasion; `adv_slow_drip`).
    pub slow_drip: Option<SlowDripConfig>,
    /// Optional handle-rotating network (evasion; `adv_churn`). Its rotated
    /// handles are registered as ground-truth aliases.
    pub churn: Option<ChurnConfig>,
    /// Optional diurnal-mimicking network (evasion; `adv_mimicry`).
    pub mimicry: Option<MimicryConfig>,
    /// Optional platform-role accounts.
    pub helpful: Option<HelpfulConfig>,
}

fn scaled(base: usize, scale: f64, min: usize) -> usize {
    ((base as f64 * scale) as usize).max(min)
}

impl ScenarioConfig {
    /// The January 2020 preset at the given scale (1.0 ≈ 75k comments).
    pub fn jan2020(scale: f64) -> Self {
        ScenarioConfig {
            name: "jan2020".to_string(),
            seed: 0x0020_2001,
            organic: OrganicConfig {
                n_users: scaled(5_000, scale, 50),
                n_pages: scaled(4_000, scale, 40),
                n_comments: scaled(60_000, scale, 500),
                n_subreddits: scaled(40, scale, 5),
                affinity: 0.8,
                ..Default::default()
            },
            // Botnet parameters deliberately do NOT scale: a network's
            // per-pair weights are set by its own event cadence (games
            // restreamed, pages generated), not by how big the rest of the
            // platform is. Scaling them would shift the weight bands the
            // paper reports (25–33 for GPT-2, 27–91 for the restream ring).
            gpt2: Some(Gpt2Config::default()),
            reshare: vec![(
                "mlb_restream".to_string(),
                ReshareConfig {
                    n_members: 8,
                    n_triggers: 60,
                    ..Default::default()
                },
            )],
            reply_trigger: Some(ReplyTriggerConfig::default()),
            slow_burn: None,
            jitter: None,
            slow_drip: None,
            churn: None,
            mimicry: None,
            helpful: Some(HelpfulConfig::default()),
        }
    }

    /// The October 2016 preset at the given scale (smaller month, no GPT-2,
    /// no smiley trio, one extra political amplification ring).
    pub fn oct2016(scale: f64) -> Self {
        ScenarioConfig {
            name: "oct2016".to_string(),
            seed: 0x0020_1610,
            organic: OrganicConfig {
                // denser than jan2020 per user: fewer accounts, chattier
                // threads, so the organic cloud crosses the figure cutoff at
                // the 10-minute and 1-hour windows like the paper's Figures 7–10
                n_users: scaled(1_200, scale, 40),
                n_pages: scaled(2_000, scale, 30),
                n_comments: scaled(35_000, scale, 400),
                burst_prob: 0.6,
                n_subreddits: scaled(25, scale, 4),
                affinity: 0.8,
                ..Default::default()
            },
            gpt2: None,
            reshare: vec![
                (
                    "election_amplifier".to_string(),
                    ReshareConfig {
                        n_members: 6,
                        n_triggers: 50,
                        participation: 0.8,
                        name_prefix: "maga_bot_".to_string(),
                        ..Default::default()
                    },
                ),
                (
                    "link_ring".to_string(),
                    ReshareConfig {
                        n_members: 5,
                        n_triggers: 40,
                        participation: 0.75,
                        name_prefix: "ring_bot_".to_string(),
                        ..Default::default()
                    },
                ),
            ],
            reply_trigger: None,
            // a curation ring responding on the minute scale: invisible to
            // the (0, 60s) hunt, surfaced by the 10-minute window (§2.2's
            // argument for window targeting)
            slow_burn: Some(SlowBurnConfig::default()),
            jitter: None,
            slow_drip: None,
            churn: None,
            mimicry: None,
            helpful: Some(HelpfulConfig::default()),
        }
    }

    /// The organic baseline shared by the adversarial presets: a mid-size
    /// month with community structure, big enough that the evader has a real
    /// haystack to hide in.
    fn adversarial_base(name: &str, seed: u64, scale: f64) -> Self {
        ScenarioConfig {
            name: name.to_string(),
            seed,
            organic: OrganicConfig {
                n_users: scaled(3_000, scale, 50),
                n_pages: scaled(2_500, scale, 40),
                n_comments: scaled(40_000, scale, 500),
                n_subreddits: scaled(30, scale, 5),
                affinity: 0.8,
                ..Default::default()
            },
            gpt2: None,
            reshare: Vec::new(),
            reply_trigger: None,
            slow_burn: None,
            jitter: None,
            slow_drip: None,
            churn: None,
            mimicry: None,
            helpful: Some(HelpfulConfig::default()),
        }
    }

    /// Evasion preset: a clique whose bursts straddle the (δ1, δ2) edge.
    pub(crate) fn adv_jitter(scale: f64) -> Self {
        ScenarioConfig {
            jitter: Some(JitterConfig::default()),
            ..Self::adversarial_base("adv_jitter", 0x00AD_0001, scale)
        }
    }

    /// Evasion preset: coordination rationed below the min-weight cutoff.
    pub(crate) fn adv_slow_drip(scale: f64) -> Self {
        ScenarioConfig {
            slow_drip: Some(SlowDripConfig::default()),
            ..Self::adversarial_base("adv_slow_drip", 0x00AD_0002, scale)
        }
    }

    /// Evasion preset: the network rotates handles mid-month (ground truth
    /// tracks the rotation via aliases).
    pub(crate) fn adv_churn(scale: f64) -> Self {
        ScenarioConfig {
            churn: Some(ChurnConfig::default()),
            ..Self::adversarial_base("adv_churn", 0x00AD_0003, scale)
        }
    }

    /// Evasion preset: diurnal-shaped bot activity on the organic time curve.
    pub(crate) fn adv_mimicry(scale: f64) -> Self {
        ScenarioConfig {
            mimicry: Some(MimicryConfig::default()),
            ..Self::adversarial_base("adv_mimicry", 0x00AD_0004, scale)
        }
    }

    /// Look up a preset by name (`jan2020`, `oct2016`, or one of the
    /// `adv_*` evasion scenarios). `None` for unknown names.
    pub fn preset(name: &str, scale: f64) -> Option<Self> {
        match name {
            "jan2020" => Some(Self::jan2020(scale)),
            "oct2016" => Some(Self::oct2016(scale)),
            "adv_jitter" => Some(Self::adv_jitter(scale)),
            "adv_slow_drip" => Some(Self::adv_slow_drip(scale)),
            "adv_churn" => Some(Self::adv_churn(scale)),
            "adv_mimicry" => Some(Self::adv_mimicry(scale)),
            _ => None,
        }
    }

    /// Every preset name accepted by [`ScenarioConfig::preset`], paper
    /// scenarios first.
    pub const PRESETS: [&'static str; 6] = [
        "jan2020",
        "oct2016",
        "adv_jitter",
        "adv_slow_drip",
        "adv_churn",
        "adv_mimicry",
    ];

    /// Generate the scenario.
    pub fn build(&self) -> Scenario {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut truth = GroundTruth::new();
        let mut records = crate::organic::generate(&self.organic, &mut rng);

        if let Some(cfg) = &self.gpt2 {
            let inj = gpt2::generate(cfg, &mut rng);
            truth.add_family(BotFamily {
                name: "gpt2".to_string(),
                members: inj.members,
                kind: BotKind::Gpt2,
            });
            records.extend(inj.records);
        }
        for (label, cfg) in &self.reshare {
            let inj = reshare::generate(cfg, &mut rng);
            truth.add_family(BotFamily {
                name: label.clone(),
                members: inj.members,
                kind: BotKind::ShareReshare,
            });
            records.extend(inj.records);
        }
        if let Some(cfg) = &self.slow_burn {
            let inj = slow_burn::generate(cfg, &mut rng);
            truth.add_family(BotFamily {
                name: "slow_burn".to_string(),
                members: inj.members,
                kind: BotKind::SlowBurn,
            });
            records.extend(inj.records);
        }
        if let Some(cfg) = &self.jitter {
            let inj = jitter::generate(cfg, &mut rng);
            truth.add_family(BotFamily {
                name: "jitter".to_string(),
                members: inj.members,
                kind: BotKind::JitteredClique,
            });
            records.extend(inj.records);
        }
        if let Some(cfg) = &self.slow_drip {
            let inj = slow_drip::generate(cfg, &mut rng);
            truth.add_family(BotFamily {
                name: "slow_drip".to_string(),
                members: inj.members,
                kind: BotKind::SlowDrip,
            });
            records.extend(inj.records);
        }
        if let Some(cfg) = &self.churn {
            let inj = churn::generate(cfg, &mut rng);
            truth.add_family(BotFamily {
                name: "churn".to_string(),
                members: inj.members,
                kind: BotKind::Churn,
            });
            for (alias, canonical) in &inj.aliases {
                truth.add_alias(alias.clone(), canonical);
            }
            records.extend(inj.records);
        }
        if let Some(cfg) = &self.mimicry {
            let inj = mimicry::generate(cfg, &mut rng);
            truth.add_family(BotFamily {
                name: "mimicry".to_string(),
                members: inj.members,
                kind: BotKind::Mimicry,
            });
            records.extend(inj.records);
        }
        if let Some(cfg) = &self.reply_trigger {
            // reply bots patrol the organic stream only (platform-wide sweep)
            let organic_only: Vec<CommentRecord> = records
                .iter()
                .filter(|r| r.link_id.starts_with(&self.organic.page_prefix))
                .cloned()
                .collect();
            let inj = reply_trigger::generate(cfg, &organic_only, &mut rng);
            truth.add_family(BotFamily {
                name: "reply_trigger".to_string(),
                members: inj.members,
                kind: BotKind::ReplyTrigger,
            });
            records.extend(inj.records);
        }
        if let Some(cfg) = &self.helpful {
            let base: Vec<CommentRecord> = records.clone();
            let extra = helpful::generate(cfg, &base, &mut rng);
            truth.add_family(BotFamily {
                name: "platform_roles".to_string(),
                members: vec!["AutoModerator".to_string(), "[deleted]".to_string()],
                kind: BotKind::Helpful,
            });
            records.extend(extra);
        }

        records.sort_by(|a, b| {
            (a.created_utc, &a.author, &a.link_id).cmp(&(b.created_utc, &b.author, &b.link_id))
        });
        Scenario {
            name: self.name.clone(),
            records,
            truth,
        }
    }
}

/// A generated month: records in timestamp order plus ground truth.
pub struct Scenario {
    /// Scenario label.
    pub name: String,
    /// All comments, sorted by `(created_utc, author, link_id)`.
    pub records: Vec<CommentRecord>,
    /// Which accounts coordinate, and how.
    pub truth: GroundTruth,
}

impl Scenario {
    /// Intern into a [`Dataset`] ready for the pipeline.
    pub fn dataset(&self) -> Dataset {
        Dataset::from_records(self.records.iter().cloned())
    }

    /// Total comments.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the scenario has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jan2020_contains_every_cast_member() {
        let s = ScenarioConfig::jan2020(0.1).build();
        assert!(!s.is_empty());
        let authors: std::collections::HashSet<&str> =
            s.records.iter().map(|r| r.author.as_str()).collect();
        assert!(authors.iter().any(|a| a.starts_with("gpt2_bot_")));
        assert!(authors.iter().any(|a| a.starts_with("stream_bot_")));
        assert!(authors.iter().any(|a| a.starts_with("smiley_bot_")));
        assert!(authors.contains("AutoModerator"));
        assert!(authors.iter().any(|a| a.starts_with("user")));
        // ground truth covers the cast
        assert_eq!(s.truth.families().len(), 4);
        assert!(s.truth.is_bot("smiley_bot_0"));
    }

    #[test]
    fn oct2016_lacks_gpt2_and_smiley() {
        let s = ScenarioConfig::oct2016(0.1).build();
        let authors: std::collections::HashSet<&str> =
            s.records.iter().map(|r| r.author.as_str()).collect();
        assert!(!authors.iter().any(|a| a.starts_with("gpt2_bot_")));
        assert!(!authors.iter().any(|a| a.starts_with("smiley_bot_")));
        assert!(authors.iter().any(|a| a.starts_with("maga_bot_")));
        assert!(authors.iter().any(|a| a.starts_with("ring_bot_")));
        assert_eq!(
            s.truth
                .families()
                .iter()
                .filter(|f| f.kind == BotKind::ShareReshare)
                .count(),
            2
        );
    }

    #[test]
    fn records_are_time_sorted() {
        let s = ScenarioConfig::jan2020(0.05).build();
        for pair in s.records.windows(2) {
            assert!(pair[0].created_utc <= pair[1].created_utc);
        }
    }

    #[test]
    fn build_is_deterministic() {
        let a = ScenarioConfig::jan2020(0.05).build();
        let b = ScenarioConfig::jan2020(0.05).build();
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn scale_controls_organic_volume() {
        // botnet intensity is fixed by design; only the platform grows
        let small = ScenarioConfig::jan2020(0.2).build();
        let large = ScenarioConfig::jan2020(0.8).build();
        let organic = |s: &Scenario| {
            s.records
                .iter()
                .filter(|r| r.author.starts_with("user"))
                .count()
        };
        assert!(organic(&large) > organic(&small) * 3);
        let bots = |s: &Scenario| {
            s.records
                .iter()
                .filter(|r| r.author.starts_with("stream_bot_"))
                .count()
        };
        // reshare activity is scale-independent up to participation noise
        let (b_small, b_large) = (bots(&small) as f64, bots(&large) as f64);
        assert!((b_small - b_large).abs() / b_large < 0.2);
    }

    #[test]
    fn every_preset_resolves_and_builds() {
        for name in ScenarioConfig::PRESETS {
            let cfg = ScenarioConfig::preset(name, 0.05).expect("known preset");
            assert_eq!(cfg.name, name);
            let s = cfg.build();
            assert!(!s.is_empty(), "{name} generated nothing");
        }
        assert!(ScenarioConfig::preset("nope", 1.0).is_none());
    }

    #[test]
    fn adversarial_presets_plant_their_family() {
        let cases = [
            ("adv_jitter", "jitter", "jitter_bot_0"),
            ("adv_slow_drip", "slow_drip", "drip_bot_0"),
            ("adv_churn", "churn", "churn_bot_0"),
            ("adv_mimicry", "mimicry", "mimic_bot_0"),
        ];
        for (preset, family, member) in cases {
            let s = ScenarioConfig::preset(preset, 0.05).unwrap().build();
            let fam = s.truth.family_of(member).unwrap_or_else(|| {
                panic!("{preset}: {member} missing from truth");
            });
            assert_eq!(fam.name, family);
            // exactly one coordinated family + platform roles
            assert_eq!(s.truth.families().len(), 2, "{preset}");
            assert!(s.records.iter().any(|r| r.author.starts_with("user")));
        }
    }

    #[test]
    fn churn_scenario_truth_resolves_rotated_handles() {
        let s = ScenarioConfig::adv_churn(0.05).build();
        let authors: std::collections::HashSet<&str> =
            s.records.iter().map(|r| r.author.as_str()).collect();
        assert!(authors.contains("churn_bot_0"));
        assert!(authors.contains("churn_bot_0_v2"));
        assert_eq!(s.truth.family_of("churn_bot_0_v2").unwrap().name, "churn");
        assert!(s.truth.same_coordinated_family([
            "churn_bot_0_v2",
            "churn_bot_1",
            "churn_bot_2_v2"
        ]));
    }

    #[test]
    fn dataset_roundtrip() {
        let s = ScenarioConfig::oct2016(0.05).build();
        let ds = s.dataset();
        assert_eq!(ds.len(), s.len());
        assert!(!ds.authors.is_empty());
    }
}
