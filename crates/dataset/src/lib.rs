//! # greca-dataset
//!
//! Data substrates for the GRECA reproduction (EDBT 2015, *Group
//! Recommendation with Temporal Affinities*).
//!
//! The paper evaluates on two data sources that are not redistributable:
//!
//! 1. the **MovieLens 1M** collaborative rating dataset (6,040 users,
//!    3,952 movies, 1,000,209 ratings), and
//! 2. a **Facebook crawl** of 72 users (13 seeds plus their friends) with
//!    friendship edges and timestamped page-likes over 197 categories.
//!
//! This crate provides *synthetic* substitutes for both, generated to
//! reproduce the statistics the paper's algorithms and protocols depend
//! on (the [`movielens`] and [`social`] module docs list them), plus the
//! shared data model: user/item identifiers, rating matrices, timestamps, time-period
//! discretization (paper §2) and the group-formation procedures of §4.1.3.
//!
//! ```
//! use greca_dataset::prelude::*;
//!
//! // A small MovieLens-like world, deterministic under a seed.
//! let ml = MovieLensConfig::small().generate();
//! assert!(ml.matrix.num_ratings() > 0);
//!
//! // A social world with friendships and timestamped page-likes.
//! let social = SocialConfig::paper_scale().generate();
//! assert!(social.num_users() >= 65, "13 seed clusters plus recruits");
//! ```

pub mod error;
pub mod groups;
pub mod movielens;
pub mod randx;
pub mod ratings;
pub mod social;
pub mod time;

pub use error::DatasetError;
pub use groups::{AffinityLevel, Cohesion, Group, GroupBuilder, GroupSpec};
pub use movielens::{MovieLens, MovieLensConfig, MovieLensStats};
pub use ratings::{ItemId, Rating, RatingMatrix, RatingMatrixBuilder, UserId};
pub use social::{LikeEvent, SocialConfig, SocialNetwork};
pub use time::{Granularity, Period, Timeline, Timestamp};

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::groups::{AffinityLevel, Cohesion, Group, GroupBuilder, GroupSpec};
    pub use crate::movielens::{MovieLens, MovieLensConfig, MovieLensStats};
    pub use crate::ratings::{ItemId, Rating, RatingMatrix, RatingMatrixBuilder, UserId};
    pub use crate::social::{LikeEvent, SocialConfig, SocialNetwork};
    pub use crate::time::{Granularity, Period, Timeline, Timestamp};
}
