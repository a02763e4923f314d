//! Per-group affinity view: the component decomposition GRECA scans.
//!
//! For a group `G` at query period `p`, the affinity of each member pair
//! decomposes into (§3.1):
//!
//! * one **static component** (entry of the `LaffS` lists, Tables 2),
//! * one **periodic component per period `p' ⪯ p`** (entries of the
//!   `LaffV` lists, Tables 3–4).
//!
//! [`GroupAffinity::affinity_from_components`] folds any assignment of
//! these components into a pairwise affinity under the configured
//! [`AffinityMode`]. The function is **monotone non-decreasing in every
//! component**, which is what lets GRECA turn per-component bounds into
//! sound affinity bounds (Lemma 1); a property test asserts it.

use greca_dataset::UserId;

/// How pairwise affinity is assembled from its components.
///
/// `None` and `StaticOnly` are the ablations evaluated in Figure 1 B
/// ("affinity-agnostic") and C ("time-agnostic"); `Discrete` and
/// `Continuous` are the paper's two dynamic models (§2.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AffinityMode {
    /// Affinity-agnostic: every pairwise affinity is 0, so relative
    /// preference vanishes and only `apref` matters.
    None,
    /// Time-agnostic: affinity is the static component only.
    StaticOnly,
    /// Discrete dynamic model: `affD = max(0, affS + affV)` with
    /// `affV = Σ drift / #periods` (Eq. 1, Δ = period count).
    Discrete,
    /// Continuous dynamic model: `affC = affS · e^{scale · Σ drift}`
    /// (Eq. 1 with Δ = f−s0 folded into the exponent; see crate docs).
    Continuous {
        /// Exponent gain; 1.0 reproduces the paper's formulation.
        scale: f64,
    },
}

impl AffinityMode {
    /// The paper's default continuous model.
    pub fn continuous() -> Self {
        AffinityMode::Continuous { scale: 1.0 }
    }

    /// Whether this mode consumes per-period components.
    pub fn is_temporal(&self) -> bool {
        matches!(
            self,
            AffinityMode::Discrete | AffinityMode::Continuous { .. }
        )
    }

    /// Whether this mode consumes the static component.
    pub fn uses_static(&self) -> bool {
        !matches!(self, AffinityMode::None)
    }
}

/// Materialized affinity components for one group at one query period.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupAffinity {
    members: Vec<UserId>,
    mode: AffinityMode,
    /// Per-pair static component, normalized by the group max (§4.1.2).
    static_comp: Vec<f64>,
    /// `period_comps[p][pair]`: normalized periodic affinity, `[0,1]`.
    period_comps: Vec<Vec<f64>>,
    /// Normalized population average per period (`Avḡ` of Eq. 1).
    avgbar: Vec<f64>,
}

impl GroupAffinity {
    /// Assemble a view from raw parts (the population index does this).
    pub fn new(
        members: Vec<UserId>,
        mode: AffinityMode,
        static_comp: Vec<f64>,
        period_comps: Vec<Vec<f64>>,
        avgbar: Vec<f64>,
    ) -> Self {
        let n = members.len();
        let n_pairs = n * n.saturating_sub(1) / 2;
        assert_eq!(static_comp.len(), n_pairs, "one static component per pair");
        assert_eq!(period_comps.len(), avgbar.len(), "one avg per period");
        for pc in &period_comps {
            assert_eq!(pc.len(), n_pairs, "one periodic component per pair");
        }
        GroupAffinity {
            members,
            mode,
            static_comp,
            period_comps,
            avgbar,
        }
    }

    /// Group members (sorted).
    pub fn members(&self) -> &[UserId] {
        &self.members
    }

    /// The configured mode.
    pub fn mode(&self) -> AffinityMode {
        self.mode
    }

    /// Number of member pairs.
    pub fn num_pairs(&self) -> usize {
        self.static_comp.len()
    }

    /// Number of periods aggregated by the drift (Eq. 1's range).
    pub fn num_periods(&self) -> usize {
        self.period_comps.len()
    }

    /// Triangular pair index of `(u, v)` within the group.
    pub fn pair_of(&self, u: UserId, v: UserId) -> Option<usize> {
        if u == v {
            return None;
        }
        let pu = self.members.binary_search(&u.min(v)).ok()?;
        let pv = self.members.binary_search(&u.max(v)).ok()?;
        let n = self.members.len();
        Some(pu * n - pu * (pu + 1) / 2 + (pv - pu - 1))
    }

    /// The member pair at a triangular index.
    pub fn pair_users(&self, pair: usize) -> (UserId, UserId) {
        let n = self.members.len();
        let mut rem = pair;
        for a in 0..n {
            let row = n - a - 1;
            if rem < row {
                return (self.members[a], self.members[a + 1 + rem]);
            }
            rem -= row;
        }
        panic!("pair index {pair} out of range");
    }

    /// Static component of a pair.
    pub fn static_component(&self, pair: usize) -> f64 {
        self.static_comp[pair]
    }

    /// Periodic component of a pair for period `p` (0-based).
    pub fn period_component(&self, p: usize, pair: usize) -> f64 {
        self.period_comps[p][pair]
    }

    /// Normalized population average for period `p`.
    pub fn avgbar(&self, p: usize) -> f64 {
        self.avgbar[p]
    }

    /// The affinity of a pair from its stored components.
    pub fn affinity(&self, pair: usize) -> f64 {
        let comps: Vec<f64> = (0..self.num_periods())
            .map(|p| self.period_comps[p][pair])
            .collect();
        self.affinity_from_components(self.static_comp[pair], &comps)
    }

    /// Affinity of `(u, v)`; 0 for identical users (a user has no relative
    /// preference with itself).
    pub fn affinity_between(&self, u: UserId, v: UserId) -> f64 {
        match self.pair_of(u, v) {
            Some(p) => self.affinity(p),
            None => 0.0,
        }
    }

    /// Fold an arbitrary component assignment into an affinity value.
    ///
    /// `comps` must hold one value per aggregated period. The fold is
    /// monotone non-decreasing in `static_c` and in every `comps[p]`
    /// (given all inputs ≥ 0), which GRECA's bound computation relies on:
    /// feeding component lower bounds yields an affinity lower bound, and
    /// component upper bounds an upper bound.
    pub fn affinity_from_components(&self, static_c: f64, comps: &[f64]) -> f64 {
        debug_assert_eq!(comps.len(), self.num_periods());
        match self.mode {
            AffinityMode::None => 0.0,
            AffinityMode::StaticOnly => static_c,
            AffinityMode::Discrete => {
                if comps.is_empty() {
                    return static_c.max(0.0);
                }
                let cum: f64 = comps.iter().zip(&self.avgbar).map(|(&c, &a)| c - a).sum();
                (static_c + cum / comps.len() as f64).max(0.0)
            }
            AffinityMode::Continuous { scale } => {
                let cum: f64 = comps.iter().zip(&self.avgbar).map(|(&c, &a)| c - a).sum();
                // Clamp the exponent to keep the result finite even for
                // adversarial component assignments.
                static_c * (scale * cum).clamp(-60.0, 60.0).exp()
            }
        }
    }

    /// Upper bound of any pair affinity achievable with components in
    /// `[0, 1]` — a coarse cap used for sanity checks and thresholds.
    pub fn affinity_cap(&self) -> f64 {
        let ones = vec![1.0; self.num_periods()];
        self.affinity_from_components(1.0, &ones)
    }

    /// Minimum affinity achievable with all components 0 (the LB GRECA
    /// substitutes for unseen entries, §3.2).
    pub fn affinity_floor(&self) -> f64 {
        let zeros = vec![0.0; self.num_periods()];
        self.affinity_from_components(0.0, &zeros)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(mode: AffinityMode) -> GroupAffinity {
        GroupAffinity::new(
            vec![UserId(0), UserId(1), UserId(2)],
            mode,
            vec![1.0, 0.2, 0.3],
            vec![vec![1.0, 0.125, 0.25], vec![1.0, 0.143, 0.143]],
            vec![0.458, 0.429],
        )
    }

    #[test]
    fn pair_round_trip() {
        let v = view(AffinityMode::Discrete);
        for pair in 0..v.num_pairs() {
            let (a, b) = v.pair_users(pair);
            assert_eq!(v.pair_of(a, b), Some(pair));
            assert_eq!(v.pair_of(b, a), Some(pair));
        }
        assert_eq!(v.pair_of(UserId(0), UserId(0)), None);
        assert_eq!(v.pair_of(UserId(0), UserId(7)), None);
    }

    #[test]
    fn none_mode_zeroes_everything() {
        let v = view(AffinityMode::None);
        for pair in 0..v.num_pairs() {
            assert_eq!(v.affinity(pair), 0.0);
        }
        assert_eq!(v.affinity_cap(), 0.0);
    }

    #[test]
    fn static_only_ignores_periods() {
        let v = view(AffinityMode::StaticOnly);
        assert_eq!(v.affinity(0), 1.0);
        assert_eq!(v.affinity(1), 0.2);
        assert_eq!(v.affinity_between(UserId(0), UserId(2)), 0.2);
    }

    #[test]
    fn discrete_adds_mean_drift() {
        let v = view(AffinityMode::Discrete);
        // Pair 0 drift: (1.0−0.458) + (1.0−0.429) = 1.113; /2 = 0.5565.
        assert!((v.affinity(0) - (1.0 + 0.5565)).abs() < 1e-9);
        // Pair 1 is below average in both periods → clamped ≥ 0.
        assert!(v.affinity(1) >= 0.0);
    }

    #[test]
    fn continuous_grows_and_decays() {
        let v = view(AffinityMode::continuous());
        assert!(v.affinity(0) > 1.0, "above-average pair grows");
        assert!(v.affinity(1) < 0.2, "below-average pair decays");
        assert!(v.affinity(1) > 0.0, "decay never reaches zero");
    }

    #[test]
    fn zero_static_kills_continuous() {
        let v = GroupAffinity::new(
            vec![UserId(0), UserId(1)],
            AffinityMode::continuous(),
            vec![0.0],
            vec![vec![1.0]],
            vec![0.2],
        );
        assert_eq!(v.affinity(0), 0.0);
    }

    #[test]
    fn monotone_in_components() {
        for mode in [
            AffinityMode::None,
            AffinityMode::StaticOnly,
            AffinityMode::Discrete,
            AffinityMode::continuous(),
        ] {
            let v = view(mode);
            let lo = v.affinity_from_components(0.3, &[0.2, 0.2]);
            let hi_static = v.affinity_from_components(0.6, &[0.2, 0.2]);
            let hi_period = v.affinity_from_components(0.3, &[0.9, 0.2]);
            assert!(hi_static >= lo, "{mode:?} static monotone");
            assert!(hi_period >= lo, "{mode:?} period monotone");
        }
    }

    #[test]
    fn cap_and_floor_bound_real_affinities() {
        for mode in [
            AffinityMode::StaticOnly,
            AffinityMode::Discrete,
            AffinityMode::continuous(),
        ] {
            let v = view(mode);
            for pair in 0..v.num_pairs() {
                let a = v.affinity(pair);
                assert!(a <= v.affinity_cap() + 1e-12, "{mode:?} cap");
                assert!(a >= v.affinity_floor() - 1e-12, "{mode:?} floor");
            }
        }
    }

    #[test]
    fn degenerate_no_periods() {
        let v = GroupAffinity::new(
            vec![UserId(0), UserId(1)],
            AffinityMode::Discrete,
            vec![0.5],
            vec![],
            vec![],
        );
        assert_eq!(v.affinity(0), 0.5);
        assert_eq!(v.num_periods(), 0);
    }

    #[test]
    #[should_panic(expected = "one static component per pair")]
    fn mismatched_components_rejected() {
        let _ = GroupAffinity::new(
            vec![UserId(0), UserId(1), UserId(2)],
            AffinityMode::Discrete,
            vec![0.5],
            vec![],
            vec![],
        );
    }

    #[test]
    fn self_affinity_is_zero() {
        let v = view(AffinityMode::Discrete);
        assert_eq!(v.affinity_between(UserId(1), UserId(1)), 0.0);
    }
}
