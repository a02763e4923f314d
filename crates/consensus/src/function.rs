//! Group consensus functions (§2.3).
//!
//! The paper evaluates four configurations, which we reproduce exactly:
//!
//! | name   | group preference | disagreement      | weights        |
//! |--------|------------------|-------------------|----------------|
//! | AP/AR  | average          | —                 | `w1 = 1`       |
//! | MO     | least-misery     | —                 | `w1 = 1`       |
//! | PD V1  | average          | average pairwise  | `w1 = 0.8`     |
//! | PD V2  | average          | average pairwise  | `w1 = 0.2`     |
//!
//! plus the variance-based disagreement variant. `F = w1·gpref +
//! w2·(1−dis)` follows the paper verbatim; `dis` is not rescaled (the
//! paper's running example also "ignores normalization").

/// The group-preference aggregation (first consensus aspect, §2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GroupPreferenceKind {
    /// `gpref = (1/|G|)·Σ pref(u,i,G,p)`.
    Average,
    /// `gpref = min_u pref(u,i,G,p)`.
    LeastMisery,
}

/// The disagreement measure (second consensus aspect, §2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DisagreementKind {
    /// No disagreement term (`dis = 0`, so `F = w1·gpref + w2`).
    NoDisagreement,
    /// `dis = (2/(|G|(|G|−1)))·Σ_{u≠v} |pref_u − pref_v|`.
    AveragePairwise,
    /// `dis = (1/|G|)·Σ (pref_u − mean)²`.
    Variance,
}

/// A fully-specified consensus function `F(G, i, p)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConsensusFunction {
    /// Group-preference aggregation.
    pub preference: GroupPreferenceKind,
    /// Disagreement measure.
    pub disagreement: DisagreementKind,
    /// Weight of the preference term; the disagreement term gets `1 − w1`.
    pub w1: f64,
}

impl ConsensusFunction {
    /// AP — the paper's default ("Average Preference").
    pub fn average_preference() -> Self {
        ConsensusFunction {
            preference: GroupPreferenceKind::Average,
            disagreement: DisagreementKind::NoDisagreement,
            w1: 1.0,
        }
    }

    /// MO — "Least-Misery Only".
    pub fn least_misery() -> Self {
        ConsensusFunction {
            preference: GroupPreferenceKind::LeastMisery,
            disagreement: DisagreementKind::NoDisagreement,
            w1: 1.0,
        }
    }

    /// PD — "Pair-wise Disagreement" with the given preference weight
    /// (`w1 = 0.8` is the paper's PD V1, `w1 = 0.2` its PD V2, §4.2.5).
    pub fn pairwise_disagreement(w1: f64) -> Self {
        assert!((0.0..=1.0).contains(&w1), "w1 must be in [0,1]");
        ConsensusFunction {
            preference: GroupPreferenceKind::Average,
            disagreement: DisagreementKind::AveragePairwise,
            w1,
        }
    }

    /// Variance-disagreement variant (§2.3's second `dis` definition).
    pub fn variance_disagreement(w1: f64) -> Self {
        assert!((0.0..=1.0).contains(&w1), "w1 must be in [0,1]");
        ConsensusFunction {
            preference: GroupPreferenceKind::Average,
            disagreement: DisagreementKind::Variance,
            w1,
        }
    }

    /// Weight of the disagreement term (`w2 = 1 − w1`).
    pub fn w2(&self) -> f64 {
        1.0 - self.w1
    }

    /// Short label matching the paper's figures.
    pub fn label(&self) -> String {
        match (self.preference, self.disagreement) {
            (GroupPreferenceKind::Average, DisagreementKind::NoDisagreement) => "AP".into(),
            (GroupPreferenceKind::LeastMisery, DisagreementKind::NoDisagreement) => "MO".into(),
            (GroupPreferenceKind::Average, DisagreementKind::AveragePairwise) => {
                format!("PD(w1={})", self.w1)
            }
            (GroupPreferenceKind::Average, DisagreementKind::Variance) => {
                format!("VD(w1={})", self.w1)
            }
            (p, d) => format!("{p:?}+{d:?}(w1={})", self.w1),
        }
    }

    /// The group-preference term over member preferences.
    pub fn group_preference(&self, prefs: &[f64]) -> f64 {
        assert!(!prefs.is_empty(), "group preference needs members");
        match self.preference {
            GroupPreferenceKind::Average => prefs.iter().sum::<f64>() / prefs.len() as f64,
            GroupPreferenceKind::LeastMisery => prefs.iter().cloned().fold(f64::INFINITY, f64::min),
        }
    }

    /// The disagreement term over member preferences.
    pub fn disagreement(&self, prefs: &[f64]) -> f64 {
        let n = prefs.len();
        match self.disagreement {
            DisagreementKind::NoDisagreement => 0.0,
            DisagreementKind::AveragePairwise => {
                if n < 2 {
                    return 0.0;
                }
                let mut sum = 0.0;
                for i in 0..n {
                    for j in (i + 1)..n {
                        sum += (prefs[i] - prefs[j]).abs();
                    }
                }
                2.0 * sum / (n as f64 * (n as f64 - 1.0))
            }
            DisagreementKind::Variance => {
                if n == 0 {
                    return 0.0;
                }
                let mean = prefs.iter().sum::<f64>() / n as f64;
                prefs.iter().map(|p| (p - mean).powi(2)).sum::<f64>() / n as f64
            }
        }
    }

    /// The full consensus score `F = w1·gpref + w2·(1 − dis)`.
    pub fn score(&self, prefs: &[f64]) -> f64 {
        self.w1 * self.group_preference(prefs) + self.w2() * (1.0 - self.disagreement(prefs))
    }

    /// The four configurations benchmarked in Figure 8
    /// (AR = AP, MO, PD V1 `w1=0.8`, PD V2 `w1=0.2`).
    pub fn figure8_sweep() -> [ConsensusFunction; 4] {
        [
            ConsensusFunction::average_preference(),
            ConsensusFunction::least_misery(),
            ConsensusFunction::pairwise_disagreement(0.8),
            ConsensusFunction::pairwise_disagreement(0.2),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_preference_is_mean() {
        let f = ConsensusFunction::average_preference();
        assert_eq!(f.score(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(f.group_preference(&[4.0]), 4.0);
    }

    #[test]
    fn least_misery_is_min() {
        let f = ConsensusFunction::least_misery();
        assert_eq!(f.score(&[1.0, 2.0, 3.0]), 1.0);
    }

    #[test]
    fn pairwise_disagreement_known_value() {
        // prefs (1, 3, 5): pairwise diffs 2, 4, 2 → sum 8;
        // dis = 2·8/(3·2) = 8/3.
        let f = ConsensusFunction::pairwise_disagreement(0.5);
        let dis = f.disagreement(&[1.0, 3.0, 5.0]);
        assert!((dis - 8.0 / 3.0).abs() < 1e-12);
        let want = 0.5 * 3.0 + 0.5 * (1.0 - 8.0 / 3.0);
        assert!((f.score(&[1.0, 3.0, 5.0]) - want).abs() < 1e-12);
    }

    #[test]
    fn variance_disagreement_known_value() {
        let f = ConsensusFunction::variance_disagreement(0.0);
        // prefs (1, 3): mean 2, var = 1.
        assert!((f.disagreement(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
        assert!((f.score(&[1.0, 3.0]) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn singleton_group_has_no_disagreement() {
        for f in [
            ConsensusFunction::pairwise_disagreement(0.5),
            ConsensusFunction::variance_disagreement(0.5),
        ] {
            assert_eq!(f.disagreement(&[3.0]), 0.0);
        }
    }

    #[test]
    fn unanimous_groups_maximize_pd_score() {
        // With equal preferences, dis = 0, so PD reduces to
        // w1·pref + w2 — higher than any same-mean disagreeing profile.
        let f = ConsensusFunction::pairwise_disagreement(0.5);
        let agree = f.score(&[3.0, 3.0, 3.0]);
        let disagree = f.score(&[2.0, 3.0, 4.0]);
        assert!(agree > disagree);
    }

    #[test]
    fn w2_complements_w1() {
        let f = ConsensusFunction::pairwise_disagreement(0.8);
        assert!((f.w1 + f.w2() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn labels_match_paper_names() {
        assert_eq!(ConsensusFunction::average_preference().label(), "AP");
        assert_eq!(ConsensusFunction::least_misery().label(), "MO");
        assert_eq!(
            ConsensusFunction::pairwise_disagreement(0.8).label(),
            "PD(w1=0.8)"
        );
    }

    #[test]
    fn figure8_sweep_order() {
        let fs = ConsensusFunction::figure8_sweep();
        assert_eq!(fs[0].label(), "AP");
        assert_eq!(fs[1].label(), "MO");
        assert_eq!(fs[2].w1, 0.8);
        assert_eq!(fs[3].w1, 0.2);
    }

    #[test]
    #[should_panic(expected = "w1 must be in [0,1]")]
    fn invalid_weight_rejected() {
        ConsensusFunction::pairwise_disagreement(1.5);
    }

    #[test]
    fn monotone_for_average_and_misery() {
        // Lemma 1's base case: AP and MO are monotone in each member
        // preference.
        let ap = ConsensusFunction::average_preference();
        let mo = ConsensusFunction::least_misery();
        let base = [2.0, 3.0, 1.0];
        for f in [ap, mo] {
            for i in 0..3 {
                let mut up = base;
                up[i] += 0.5;
                assert!(f.score(&up) >= f.score(&base), "{} at {i}", f.label());
            }
        }
    }
}
