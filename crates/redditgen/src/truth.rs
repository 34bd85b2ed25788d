//! Ground-truth labels and detection-quality evaluation.
//!
//! The paper validated its findings by manually inspecting components; with a
//! generator we know exactly which accounts coordinate, so flagged triplets
//! can be scored. A triplet is a *true positive* when all three authors belong
//! to the same coordinated family.

use std::collections::{HashMap, HashSet};

/// The kind of coordination a family exhibits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BotKind {
    /// GPT-2-style generation subreddit (paper §3.1.1).
    Gpt2,
    /// Share–reshare / link distribution (paper §3.1.2).
    ShareReshare,
    /// Minute-scale coordinated responses (window-targeting study).
    SlowBurn,
    /// Reply-trigger utility bots (paper §3.1.4).
    ReplyTrigger,
    /// Platform-role accounts (excluded pre-projection).
    Helpful,
    /// Burst delays straddling the (δ1, δ2) window edge (evasion).
    JitteredClique,
    /// Coordination spread too thin for the per-window weight cutoff (evasion).
    SlowDrip,
    /// Handle rotation mid-month; aliases map back to one family (evasion).
    Churn,
    /// Diurnal-shaped bot activity imitating the organic curve (evasion).
    Mimicry,
}

/// One coordinated family.
#[derive(Clone, Debug)]
pub struct BotFamily {
    /// Family label, e.g. `"gpt2"`.
    pub name: String,
    /// Member account names.
    pub members: Vec<String>,
    /// Mechanism.
    pub kind: BotKind,
}

/// The full ground truth of a generated scenario.
#[derive(Clone, Debug, Default)]
pub struct GroundTruth {
    families: Vec<BotFamily>,
    member_to_family: HashMap<String, usize>,
    /// Rotated handle → canonical member name. A churned botnet writes under
    /// several handles over the month; detection quality must credit a flagged
    /// rotated handle to the same family (and the same logical account) as its
    /// canonical name, or churn would turn every true positive into a false
    /// one.
    aliases: HashMap<String, String>,
}

impl GroundTruth {
    /// Empty truth (all traffic organic).
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Register a family. Member names must be globally unique.
    pub(crate) fn add_family(&mut self, family: BotFamily) {
        let idx = self.families.len();
        for m in &family.members {
            assert!(
                !self.aliases.contains_key(m),
                "account {m} is already an alias"
            );
            let prev = self.member_to_family.insert(m.clone(), idx);
            assert!(prev.is_none(), "account {m} belongs to two families");
        }
        self.families.push(family);
    }

    /// Register `alias` as a rotated handle of the already-registered member
    /// `canonical`. Lookups and evaluation resolve through the alias, so the
    /// two handles score as one account in one family.
    pub(crate) fn add_alias(&mut self, alias: impl Into<String>, canonical: &str) {
        let alias = alias.into();
        assert!(
            self.member_to_family.contains_key(canonical),
            "canonical account {canonical} is not a registered member"
        );
        assert!(
            !self.member_to_family.contains_key(&alias),
            "alias {alias} is already a member"
        );
        let prev = self.aliases.insert(alias.clone(), canonical.to_string());
        assert!(prev.is_none(), "alias {alias} registered twice");
    }

    /// All families.
    pub fn families(&self) -> &[BotFamily] {
        &self.families
    }

    /// All registered handle aliases as `(alias, canonical)` pairs, sorted by
    /// alias so output built from them is deterministic.
    pub fn aliases(&self) -> Vec<(&str, &str)> {
        let mut out: Vec<(&str, &str)> = self
            .aliases
            .iter()
            .map(|(a, c)| (a.as_str(), c.as_str()))
            .collect();
        out.sort_unstable();
        out
    }

    /// Resolve a handle to its canonical member name (identity for
    /// non-aliased names).
    pub(crate) fn resolve<'a>(&'a self, name: &'a str) -> &'a str {
        self.aliases.get(name).map(String::as_str).unwrap_or(name)
    }

    /// The family containing `name` (alias-resolved), if any.
    pub fn family_of(&self, name: &str) -> Option<&BotFamily> {
        self.member_to_family
            .get(self.resolve(name))
            .map(|&i| &self.families[i])
    }

    /// Whether `name` (alias-resolved) is any kind of bot.
    pub fn is_bot(&self, name: &str) -> bool {
        self.member_to_family.contains_key(self.resolve(name))
    }

    /// Whether all three (alias-resolved) authors belong to one coordinated
    /// (non-`Helpful`) family — the true-positive criterion for a flagged
    /// triplet.
    pub fn same_coordinated_family(&self, t: [&str; 3]) -> bool {
        let fams = t.map(|n| self.member_to_family.get(self.resolve(n)));
        match fams {
            [Some(a), Some(b), Some(c)] if a == b && b == c => {
                self.families[*a].kind != BotKind::Helpful
            }
            _ => false,
        }
    }

    /// Total coordinated accounts, excluding `Helpful` (which the pipeline
    /// removes before projection and should never flag).
    pub fn n_coordinated_accounts(&self) -> usize {
        self.families
            .iter()
            .filter(|f| f.kind != BotKind::Helpful)
            .map(|f| f.members.len())
            .sum()
    }

    /// Score a set of flagged triplets (author names).
    pub fn evaluate<'a, I>(&self, flagged: I) -> Evaluation
    where
        I: IntoIterator<Item = [&'a str; 3]>,
    {
        let mut flagged_total = 0usize;
        let mut true_positives = 0usize;
        let mut detected_families: HashSet<usize> = HashSet::new();
        let mut flagged_members: HashSet<&str> = HashSet::new();
        for t in flagged {
            flagged_total += 1;
            if self.same_coordinated_family(t) {
                true_positives += 1;
                let canon = self.resolve(t[0]);
                let fam = self.member_to_family[canon];
                detected_families.insert(fam);
                for n in t {
                    // alias-resolved: pre- and post-rotation handles of a
                    // churned account count as one member for recall
                    flagged_members.insert(self.resolve(n));
                }
            }
        }
        let coordinated_families = self
            .families
            .iter()
            .enumerate()
            .filter(|(_, f)| f.kind != BotKind::Helpful)
            .count();
        let members_in_detected: usize = flagged_members.len();
        Evaluation {
            flagged_total,
            true_positives,
            precision: if flagged_total == 0 {
                1.0
            } else {
                true_positives as f64 / flagged_total as f64
            },
            families_detected: detected_families.len(),
            families_total: coordinated_families,
            family_recall: if coordinated_families == 0 {
                1.0
            } else {
                detected_families.len() as f64 / coordinated_families as f64
            },
            members_flagged: members_in_detected,
            member_recall: if self.n_coordinated_accounts() == 0 {
                1.0
            } else {
                members_in_detected as f64 / self.n_coordinated_accounts() as f64
            },
        }
    }
}

/// Detection-quality metrics for one pipeline run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Evaluation {
    /// Triplets flagged by the pipeline.
    pub flagged_total: usize,
    /// Flagged triplets fully inside one coordinated family.
    pub true_positives: usize,
    /// `true_positives / flagged_total` (1.0 when nothing was flagged).
    pub precision: f64,
    /// Coordinated families hit by at least one true-positive triplet.
    pub families_detected: usize,
    /// Coordinated families in the ground truth.
    pub families_total: usize,
    /// `families_detected / families_total`.
    pub family_recall: f64,
    /// Distinct coordinated accounts appearing in true-positive triplets.
    pub members_flagged: usize,
    /// `members_flagged / coordinated accounts`.
    pub member_recall: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth() -> GroundTruth {
        let mut gt = GroundTruth::new();
        gt.add_family(BotFamily {
            name: "gpt2".into(),
            members: (0..5).map(|i| format!("g{i}")).collect(),
            kind: BotKind::Gpt2,
        });
        gt.add_family(BotFamily {
            name: "stream".into(),
            members: (0..4).map(|i| format!("s{i}")).collect(),
            kind: BotKind::ShareReshare,
        });
        gt.add_family(BotFamily {
            name: "helpful".into(),
            members: vec!["AutoModerator".into()],
            kind: BotKind::Helpful,
        });
        gt
    }

    #[test]
    fn lookup_and_membership() {
        let gt = truth();
        assert!(gt.is_bot("g0"));
        assert!(!gt.is_bot("alice"));
        assert_eq!(gt.family_of("s2").unwrap().name, "stream");
        assert_eq!(gt.n_coordinated_accounts(), 9);
    }

    #[test]
    #[should_panic(expected = "two families")]
    fn duplicate_membership_panics() {
        let mut gt = truth();
        gt.add_family(BotFamily {
            name: "dup".into(),
            members: vec!["g0".into()],
            kind: BotKind::Gpt2,
        });
    }

    #[test]
    fn evaluation_scores_mixed_flags() {
        let gt = truth();
        let eval = gt.evaluate([
            ["g0", "g1", "g2"],    // TP (gpt2)
            ["s0", "s1", "s2"],    // TP (stream)
            ["g0", "s0", "s1"],    // FP: cross-family
            ["g0", "g1", "alice"], // FP: organic member
        ]);
        assert_eq!(eval.flagged_total, 4);
        assert_eq!(eval.true_positives, 2);
        assert!((eval.precision - 0.5).abs() < 1e-12);
        assert_eq!(eval.families_detected, 2);
        assert_eq!(eval.families_total, 2);
        assert_eq!(eval.family_recall, 1.0);
        assert_eq!(eval.members_flagged, 6);
        assert!((eval.member_recall - 6.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn helpful_triplets_are_never_true_positives() {
        let mut gt = GroundTruth::new();
        gt.add_family(BotFamily {
            name: "helpful".into(),
            members: vec!["a".into(), "b".into(), "c".into()],
            kind: BotKind::Helpful,
        });
        let eval = gt.evaluate([["a", "b", "c"]]);
        assert_eq!(eval.true_positives, 0);
        assert_eq!(eval.families_total, 0);
    }

    #[test]
    fn empty_flag_set_is_vacuously_precise() {
        let gt = truth();
        let eval = gt.evaluate(std::iter::empty());
        assert_eq!(eval.precision, 1.0);
        assert_eq!(eval.family_recall, 0.0);
    }

    #[test]
    fn aliases_resolve_to_the_canonical_family() {
        let mut gt = truth();
        gt.add_alias("g0_v2", "g0");
        gt.add_alias("g1_v2", "g1");
        assert!(gt.is_bot("g0_v2"));
        assert_eq!(gt.family_of("g0_v2").unwrap().name, "gpt2");
        assert_eq!(gt.resolve("g1_v2"), "g1");
        assert_eq!(gt.resolve("alice"), "alice");
        // rotated handles don't inflate the account census
        assert_eq!(gt.n_coordinated_accounts(), 9);
    }

    #[test]
    fn evaluation_credits_rotated_handles_as_one_family() {
        let mut gt = truth();
        gt.add_alias("g0_v2", "g0");
        gt.add_alias("g1_v2", "g1");
        gt.add_alias("g2_v2", "g2");
        let eval = gt.evaluate([
            ["g0_v2", "g1_v2", "g2_v2"], // all rotated, same family → TP
            ["g0", "g1_v2", "g2"],       // mixed eras, same family → TP
        ]);
        assert_eq!(eval.true_positives, 2);
        assert_eq!(eval.precision, 1.0);
        // g0/g0_v2 etc. collapse to 3 distinct logical accounts
        assert_eq!(eval.members_flagged, 3);
    }

    #[test]
    fn same_coordinated_family_rejects_cross_family_and_organic() {
        let mut gt = truth();
        gt.add_alias("s0_v2", "s0");
        assert!(gt.same_coordinated_family(["s0_v2", "s1", "s2"]));
        assert!(!gt.same_coordinated_family(["s0_v2", "g0", "g1"]));
        assert!(!gt.same_coordinated_family(["s0", "s1", "alice"]));
        assert!(!gt.same_coordinated_family(["AutoModerator", "AutoModerator", "AutoModerator"]));
    }

    #[test]
    #[should_panic(expected = "not a registered member")]
    fn alias_of_unknown_canonical_panics() {
        let mut gt = truth();
        gt.add_alias("x_v2", "nobody");
    }

    #[test]
    #[should_panic(expected = "already an alias")]
    fn member_reusing_an_alias_name_panics() {
        let mut gt = truth();
        gt.add_alias("g0_v2", "g0");
        gt.add_family(BotFamily {
            name: "clash".into(),
            members: vec!["g0_v2".into()],
            kind: BotKind::Churn,
        });
    }
}
