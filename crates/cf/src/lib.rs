//! # greca-cf
//!
//! Collaborative-filtering substrate for the GRECA reproduction.
//!
//! The paper computes individual (absolute) preferences `apref(u, i)` with
//! user-based collaborative filtering, "where user similarity is computed
//! with cosine similarity over vec(u), i.e., the ratings of u for each
//! movie" (§4). This crate provides:
//!
//! * sparse similarity measures (cosine — the paper's choice — plus
//!   Pearson and Jaccard),
//! * a user-based neighbourhood model whose fit scores every co-rater
//!   in one pass over the item postings and whose column support
//!   scatters neighbour rows, both bit-identical to the pairwise path,
//! * per-user **preference lists**: items sorted by decreasing predicted
//!   preference, the `PL_u` inputs of GRECA (§3.1),
//! * the **live-update delta layer** ([`delta`]): a [`RatingStore`] of
//!   staged rating upserts/retractions and the [`DirtySet`] computation
//!   that tells a serving substrate which `PL_u` lists and pair-affinity
//!   entries a batch invalidates (the §2.4 serving scenario with
//!   preferences evolving between queries).
//!
//! ```
//! use greca_dataset::prelude::*;
//! use greca_cf::{CfConfig, UserCfModel};
//!
//! let ml = MovieLensConfig::small().generate();
//! let model = UserCfModel::fit(&ml.matrix, CfConfig::default());
//! let score = model.predict(UserId(0), ItemId(1));
//! assert!((0.0..=5.0).contains(&score));
//! ```

pub mod delta;
pub mod preference;
pub mod similarity;
pub mod user_cf;

pub use delta::{DeltaBatch, DirtySet, InvalidationScope, RatingStore};
pub use preference::{
    candidate_items, group_preference_lists, preference_list, rated_items, NonFiniteScore,
    PreferenceList, PreferenceProvider, RawRatings,
};
pub use similarity::{user_similarity, Similarity};
pub use user_cf::{CfConfig, UserCfModel};
