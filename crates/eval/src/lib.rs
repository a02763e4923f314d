//! # greca-eval
//!
//! Quality-study simulator reproducing §4.1 of the paper.
//!
//! The paper recruited 72 Facebook users who (1) rated ≥30 MovieLens
//! movies, then (2) judged group recommendation lists in two protocols:
//! *independent* (score one list 0–5) and *comparative* (pick one of two
//! or three lists). Humans are not available to a reproduction, so this
//! crate substitutes a **satisfaction oracle** (see [`oracle`]) whose
//! ground truth deliberately contains the affinity and temporal signals
//! the paper's models compete to capture:
//!
//! * a user's true appreciation of an item in a group blends her latent
//!   taste with her companions' tastes, weighted by *true* temporal
//!   affinity (the paper's core conjecture, §1);
//! * enjoying an item together is dampened by how much the group's
//!   tastes spread on it (the behavioural basis for disagreement-aware
//!   consensus [20, 22]).
//!
//! Under this oracle the reproduction asks the same *directional*
//! questions as Figures 1–3: does including affinity/time/consensus
//! machinery recover satisfaction that ablated variants leave behind?
//! Absolute percentages are not comparable to the human study; the win
//! ordering is, so that is what the figures compare.

pub mod metrics;
pub mod oracle;
pub mod study;
pub mod variants;
pub mod world;

pub use metrics::{mean, percent};
pub use oracle::{OracleConfig, SatisfactionOracle};
pub use study::{
    ComparativeOutcome, GroupCharacteristic, IndependentOutcome, Study, StudyConfig, StudyGroup,
};
pub use variants::RecVariant;
pub use world::{StudyWorld, WorldConfig};
