//! The recommendation variants compared in Figures 1–3.
//!
//! Figure 1's charts A–F each change one parameter against the default
//! (affinity-aware, discrete time model, time-aware, AP consensus):
//!
//! * **A Default** — discrete temporal affinity + AP;
//! * **B Affinity-agnostic** — no affinity at all;
//! * **C Time-agnostic** — static affinity only;
//! * **D Continuous time model** — continuous instead of discrete;
//! * **E MO** — least-misery consensus;
//! * **F PD** — pairwise-disagreement consensus.

use greca_affinity::AffinityMode;
use greca_consensus::ConsensusFunction;

/// A recommendation variant: an affinity mode plus a consensus function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecVariant {
    /// Chart A: discrete temporal affinity, AP.
    Default,
    /// Chart B: affinity-agnostic, AP.
    AffinityAgnostic,
    /// Chart C: time-agnostic (static affinity only), AP.
    TimeAgnostic,
    /// Chart D: continuous temporal affinity, AP.
    ContinuousTime,
    /// Chart E: discrete temporal affinity, least-misery.
    LeastMisery,
    /// Chart F: discrete temporal affinity, pairwise disagreement.
    PairwiseDisagreement,
}

impl RecVariant {
    /// All six variants in Figure 1 order.
    pub fn figure1_sweep() -> [RecVariant; 6] {
        [
            RecVariant::Default,
            RecVariant::AffinityAgnostic,
            RecVariant::TimeAgnostic,
            RecVariant::ContinuousTime,
            RecVariant::LeastMisery,
            RecVariant::PairwiseDisagreement,
        ]
    }

    /// The affinity mode this variant recommends with.
    pub fn mode(&self) -> AffinityMode {
        match self {
            RecVariant::AffinityAgnostic => AffinityMode::None,
            RecVariant::TimeAgnostic => AffinityMode::StaticOnly,
            RecVariant::ContinuousTime => AffinityMode::continuous(),
            _ => AffinityMode::Discrete,
        }
    }

    /// The consensus function this variant recommends with.
    pub fn consensus(&self) -> ConsensusFunction {
        match self {
            RecVariant::LeastMisery => ConsensusFunction::least_misery(),
            RecVariant::PairwiseDisagreement => ConsensusFunction::pairwise_disagreement(0.8),
            _ => ConsensusFunction::average_preference(),
        }
    }

    /// Chart label used in Figure 1.
    pub fn label(&self) -> &'static str {
        match self {
            RecVariant::Default => "(A) Default",
            RecVariant::AffinityAgnostic => "(B) Affinity-agnostic",
            RecVariant::TimeAgnostic => "(C) Time-agnostic",
            RecVariant::ContinuousTime => "(D) Continuous Time Model",
            RecVariant::LeastMisery => "(E) MO Consensus Function",
            RecVariant::PairwiseDisagreement => "(F) PD Consensus Function",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_six_charts() {
        let v = RecVariant::figure1_sweep();
        assert_eq!(v.len(), 6);
        assert_eq!(v[0], RecVariant::Default);
    }

    #[test]
    fn modes_match_chart_semantics() {
        assert_eq!(RecVariant::Default.mode(), AffinityMode::Discrete);
        assert_eq!(RecVariant::AffinityAgnostic.mode(), AffinityMode::None);
        assert_eq!(RecVariant::TimeAgnostic.mode(), AffinityMode::StaticOnly);
        assert!(matches!(
            RecVariant::ContinuousTime.mode(),
            AffinityMode::Continuous { .. }
        ));
    }

    #[test]
    fn consensus_matches_chart_semantics() {
        assert_eq!(RecVariant::Default.consensus().label(), "AP");
        assert_eq!(RecVariant::LeastMisery.consensus().label(), "MO");
        assert!(RecVariant::PairwiseDisagreement
            .consensus()
            .label()
            .starts_with("PD"));
    }
}
