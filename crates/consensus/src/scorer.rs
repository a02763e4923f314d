//! Exact group scoring: relative preference + consensus (§2.2–§2.3).
//!
//! [`GroupScorer`] binds a [`GroupAffinity`] view to a
//! [`ConsensusFunction`] and evaluates items from their members' absolute
//! preferences. This is the reference ("compute the complete score")
//! implementation used by the naive baseline, the evaluation harness, and
//! the property tests that validate GRECA's bounded computation.

use greca_affinity::GroupAffinity;
use greca_dataset::UserId;

pub use crate::function::ConsensusFunction;

/// Exact scorer for one group at one query period.
#[derive(Debug, Clone)]
pub struct GroupScorer {
    affinity: GroupAffinity,
    consensus: ConsensusFunction,
    normalize_rpref: bool,
}

impl GroupScorer {
    /// Create a scorer. `normalize_rpref` divides the relative-preference
    /// sum by `|G|−1` so `pref` stays on the rating scale regardless of
    /// group size (the paper's example "ignores normalization and final
    /// averaging"; set `false` to match its raw arithmetic).
    pub fn new(
        affinity: GroupAffinity,
        consensus: ConsensusFunction,
        normalize_rpref: bool,
    ) -> Self {
        GroupScorer {
            affinity,
            consensus,
            normalize_rpref,
        }
    }

    /// The affinity view.
    pub fn affinity(&self) -> &GroupAffinity {
        &self.affinity
    }

    /// The consensus function.
    pub fn consensus(&self) -> ConsensusFunction {
        self.consensus
    }

    /// Whether relative preference is normalized by `|G|−1`.
    pub fn normalizes_rpref(&self) -> bool {
        self.normalize_rpref
    }

    /// Group members.
    pub fn members(&self) -> &[UserId] {
        self.affinity.members()
    }

    /// `rpref(u,i,G,p) = Σ_{u'≠u} aff(u,u',p)·apref(u',i)` for the member
    /// at index `idx`; `aprefs` holds the members' absolute preferences in
    /// member order.
    pub fn relative_preference(&self, idx: usize, aprefs: &[f64]) -> f64 {
        let members = self.affinity.members();
        debug_assert_eq!(aprefs.len(), members.len());
        let u = members[idx];
        let mut sum = 0.0;
        for (jdx, &v) in members.iter().enumerate() {
            if jdx == idx {
                continue;
            }
            sum += self.affinity.affinity_between(u, v) * aprefs[jdx];
        }
        if self.normalize_rpref && members.len() > 1 {
            sum / (members.len() - 1) as f64
        } else {
            sum
        }
    }

    /// `pref(u,i,G,p) = apref(u,i) + rpref(u,i,G,p)` for every member.
    pub fn member_preferences(&self, aprefs: &[f64]) -> Vec<f64> {
        (0..self.affinity.members().len())
            .map(|idx| aprefs[idx] + self.relative_preference(idx, aprefs))
            .collect()
    }

    /// The consensus score `F(G, i, p)` of an item from its members'
    /// absolute preferences.
    pub fn score(&self, aprefs: &[f64]) -> f64 {
        self.consensus.score(&self.member_preferences(aprefs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greca_affinity::{AffinityMode, GroupAffinity};

    fn two_user_view(mode: AffinityMode) -> GroupAffinity {
        GroupAffinity::new(vec![UserId(0), UserId(1)], mode, vec![0.5], vec![], vec![])
    }

    #[test]
    fn rpref_uses_other_members_only() {
        let scorer = GroupScorer::new(
            two_user_view(AffinityMode::StaticOnly),
            ConsensusFunction::average_preference(),
            false,
        );
        // aprefs: u0 → 4, u1 → 2. rpref(u0) = 0.5·2 = 1; rpref(u1) = 0.5·4 = 2.
        assert_eq!(scorer.relative_preference(0, &[4.0, 2.0]), 1.0);
        assert_eq!(scorer.relative_preference(1, &[4.0, 2.0]), 2.0);
        let prefs = scorer.member_preferences(&[4.0, 2.0]);
        assert_eq!(prefs, vec![5.0, 4.0]);
    }

    #[test]
    fn affinity_agnostic_reduces_to_apref() {
        let scorer = GroupScorer::new(
            two_user_view(AffinityMode::None),
            ConsensusFunction::average_preference(),
            true,
        );
        let prefs = scorer.member_preferences(&[4.0, 2.0]);
        assert_eq!(prefs, vec![4.0, 2.0]);
        assert_eq!(scorer.score(&[4.0, 2.0]), 3.0);
    }

    #[test]
    fn normalization_divides_by_group_size_minus_one() {
        let view = GroupAffinity::new(
            vec![UserId(0), UserId(1), UserId(2)],
            AffinityMode::StaticOnly,
            vec![1.0, 1.0, 1.0],
            vec![],
            vec![],
        );
        let raw = GroupScorer::new(view.clone(), ConsensusFunction::average_preference(), false);
        let norm = GroupScorer::new(view, ConsensusFunction::average_preference(), true);
        let aprefs = [3.0, 3.0, 3.0];
        assert_eq!(raw.relative_preference(0, &aprefs), 6.0);
        assert_eq!(norm.relative_preference(0, &aprefs), 3.0);
    }

    #[test]
    fn higher_affinity_with_a_fan_raises_everyones_preference() {
        // §3's monotonicity intuition: "if both users like i highly,
        // higher affinity between them only improves i's overall
        // preference".
        let low = GroupScorer::new(
            GroupAffinity::new(
                vec![UserId(0), UserId(1)],
                AffinityMode::StaticOnly,
                vec![0.1],
                vec![],
                vec![],
            ),
            ConsensusFunction::average_preference(),
            true,
        );
        let high = GroupScorer::new(
            GroupAffinity::new(
                vec![UserId(0), UserId(1)],
                AffinityMode::StaticOnly,
                vec![0.9],
                vec![],
                vec![],
            ),
            ConsensusFunction::average_preference(),
            true,
        );
        let aprefs = [5.0, 5.0];
        assert!(high.score(&aprefs) > low.score(&aprefs));
    }

    #[test]
    fn same_user_different_groups_scores_differently() {
        // The paper's core conjecture: the same user appreciates the same
        // item differently in different company.
        let with_fan = GroupScorer::new(
            GroupAffinity::new(
                vec![UserId(0), UserId(1)],
                AffinityMode::StaticOnly,
                vec![0.8],
                vec![],
                vec![],
            ),
            ConsensusFunction::average_preference(),
            true,
        );
        let with_hater = with_fan.clone();
        // Same affinity structure, but the companion's apref differs.
        let pref_with_fan = with_fan.member_preferences(&[3.0, 5.0])[0];
        let pref_with_hater = with_hater.member_preferences(&[3.0, 0.5])[0];
        assert!(pref_with_fan > pref_with_hater);
    }

    #[test]
    fn score_matches_manual_composition() {
        let scorer = GroupScorer::new(
            two_user_view(AffinityMode::StaticOnly),
            ConsensusFunction::pairwise_disagreement(0.8),
            false,
        );
        let aprefs = [4.0, 2.0];
        let prefs = scorer.member_preferences(&aprefs);
        let f = scorer.consensus();
        let want = 0.8 * f.group_preference(&prefs) + 0.2 * (1.0 - f.disagreement(&prefs));
        assert!((scorer.score(&aprefs) - want).abs() < 1e-12);
    }
}
