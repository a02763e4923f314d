//! The study world: ratings + social signals + CF + affinity index.
//!
//! Mirrors the paper's setup (§4.1): a MovieLens-like rating matrix for
//! individual preferences (via user-based cosine CF), a social network
//! for affinities (friendships → static, page-likes → periodic), one
//! year of history at two-month granularity, and the social users as the
//! study population.
//!
//! Social users are identified with the first `num_users` rows of the
//! rating matrix — the paper likewise merged its participants' ratings
//! into the MovieLens matrix before running CF.

use greca_affinity::{PopulationAffinity, SocialAffinitySource};
use greca_cf::{CfConfig, UserCfModel};
use greca_dataset::{
    Granularity, MovieLens, MovieLensConfig, SocialConfig, SocialNetwork, Timeline, UserId,
};

/// Configuration for building a [`StudyWorld`].
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Rating world configuration.
    pub movielens: MovieLensConfig,
    /// Social world configuration.
    pub social: SocialConfig,
    /// Period granularity (paper default: two-month).
    pub granularity: Granularity,
    /// CF configuration.
    pub cf: CfConfig,
}

impl WorldConfig {
    /// The paper's study scale: 72-ish participants over a small
    /// MovieLens world (fast enough for tests).
    ///
    /// The rating world is tuned toward *taste-differentiated* items
    /// (higher taste gain, lower shared item-quality bias): group
    /// recommendation variants can only differ on items the members
    /// disagree about, and the study's whole purpose is to expose those
    /// differences (the paper's similar/dissimilar axis presumes them).
    pub fn study_scale() -> Self {
        let movielens = MovieLensConfig {
            num_users: 400,
            num_items: 900,
            target_ratings: 40_000,
            num_archetypes: 6,
            taste_gain: 4.5,
            item_bias_std: 0.10,
            noise_std: 0.35,
            ..MovieLensConfig::small()
        };
        WorldConfig {
            movielens,
            social: SocialConfig::paper_scale(),
            granularity: Granularity::TwoMonth,
            // Pearson + a tight neighbourhood: the study world's rating
            // pool is three orders of magnitude smaller than MovieLens
            // 1M, so raw-cosine neighbourhoods (the paper's choice at
            // full scale) degenerate to the global average here; centred
            // similarity restores the taste signal the full-size matrix
            // would carry.
            cf: CfConfig {
                similarity: greca_cf::Similarity::Pearson,
                top_n: 15,
                ..CfConfig::default()
            },
        }
    }

    /// Scalability-experiment scale: the full MovieLens-1M fingerprint
    /// (6,040 users × 3,952 items × ~1M ratings, §4.2's item range tops
    /// out at 3,900). CF neighbourhoods are fitted per group member via
    /// [`StudyWorld::cf_model_for`]; fitting all 6,040 users is neither
    /// needed nor what the paper's ad-hoc-group setting implies.
    pub fn scalability_scale() -> Self {
        WorldConfig {
            movielens: MovieLensConfig::paper_scale(),
            social: SocialConfig::paper_scale(),
            granularity: Granularity::TwoMonth,
            // ~5% of the population as neighbourhood: at 6,040 users the
            // default 40 neighbours see too few co-ratings per candidate
            // item and predictions collapse to per-user means, which
            // destroys the shared list heads the pruning experiments
            // exercise.
            cf: CfConfig {
                top_n: 300,
                ..CfConfig::default()
            },
        }
    }

    /// Build the world.
    pub fn build(self) -> StudyWorld {
        StudyWorld::build(self)
    }
}

/// A fully materialized study world.
pub struct StudyWorld {
    /// The rating world (with its latent ground truth).
    pub movielens: MovieLens,
    /// The social world.
    pub social: SocialNetwork,
    /// The discretized year.
    pub timeline: Timeline,
    /// The population affinity index over the study users.
    pub population: PopulationAffinity,
    /// The configuration used.
    pub config: WorldConfig,
}

impl StudyWorld {
    /// Build everything from a configuration.
    pub fn build(config: WorldConfig) -> Self {
        let mut movielens = config.movielens.generate();
        let social = config.social.generate();
        assert!(
            social.num_users() <= movielens.matrix.num_users(),
            "every study user needs a rating-matrix row ({} social vs {} matrix)",
            social.num_users(),
            movielens.matrix.num_users()
        );
        inject_participant_ratings(&mut movielens, &social);
        let timeline =
            Timeline::discretize(0, social.horizon(), config.granularity).expect("valid horizon");
        let universe: Vec<UserId> = social.users().collect();
        let population =
            PopulationAffinity::build(&SocialAffinitySource::new(&social), &universe, &timeline);
        StudyWorld {
            movielens,
            social,
            timeline,
            population,
            config: config_owned(config),
        }
    }

    /// The study participants (social users).
    pub fn study_users(&self) -> Vec<UserId> {
        self.social.users().collect()
    }

    /// Fit the CF model for every user (borrowing the matrix).
    pub fn cf_model(&self) -> UserCfModel<'_> {
        UserCfModel::fit(&self.movielens.matrix, self.config.cf)
    }

    /// Fit the CF model for the given users only — the scalable path for
    /// large matrices (see [`WorldConfig::scalability_scale`]).
    pub fn cf_model_for(&self, users: &[UserId]) -> UserCfModel<'_> {
        UserCfModel::fit_for(&self.movielens.matrix, self.config.cf, users)
    }

    /// Index of the last period — the study's query period.
    pub fn last_period(&self) -> usize {
        self.timeline.num_periods() - 1
    }
}

fn config_owned(c: WorldConfig) -> WorldConfig {
    c
}

/// Reproduce the user-collection protocol of §4.1.1: every study
/// participant rates ≥30 movies from a pre-computed set — either the
/// **Similar Set** (the 50 most popular movies) or the **Dissimilar Set**
/// (the top-25 popular movies plus the 25 highest rating-variance movies
/// ranked in the top-200 by popularity).
///
/// This is load-bearing for both experiment families: it gives study
/// users a strongly co-rated pool, so they become each other's CF
/// neighbours and their preference lists correlate — the structure the
/// similar/dissimilar formation (§4.1.3) and GRECA's early termination
/// (§4.2) both exploit, exactly as in the paper's study.
fn inject_participant_ratings(ml: &mut MovieLens, social: &SocialNetwork) {
    use greca_dataset::{ItemId, Rating, RatingMatrixBuilder};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    let matrix = &ml.matrix;
    let by_pop = matrix.items_by_popularity();
    let popular_set: Vec<ItemId> = by_pop.iter().take(50).copied().collect();
    // Diversity set: highest rating variance among the top-200 popular.
    let mut top200: Vec<ItemId> = by_pop.iter().take(200).copied().collect();
    top200.sort_by(|&a, &b| {
        let va = matrix.item_rating_variance(a).unwrap_or(0.0);
        let vb = matrix.item_rating_variance(b).unwrap_or(0.0);
        vb.partial_cmp(&va).expect("finite").then_with(|| a.cmp(&b))
    });
    let diversity_set: Vec<ItemId> = top200.iter().take(25).copied().collect();
    let mut dissimilar_set: Vec<ItemId> = popular_set.iter().take(25).copied().collect();
    dissimilar_set.extend(diversity_set.iter().copied());
    dissimilar_set.sort_unstable();
    dissimilar_set.dedup();

    let mut rng = StdRng::seed_from_u64(0x9a17_1c1a);
    let mut builder = RatingMatrixBuilder::new(matrix.num_users(), matrix.num_items());
    for u in matrix.users() {
        for &(i, v) in matrix.user_ratings(u) {
            builder.rate(u, i, v, 0);
        }
    }
    for u in social.users() {
        // Alternate clusters between the two rating sets, mirroring the
        // study's assignment of participants to one of two pre-computed
        // sets.
        let set: &[ItemId] = if social.cluster_of(u) % 2 == 0 {
            &popular_set
        } else {
            &dissimilar_set
        };
        let want = rng.random_range(30..=set.len().min(45));
        let mut pool = set.to_vec();
        for slot in 0..want {
            let j = rng.random_range(slot..pool.len());
            pool.swap(slot, j);
            let item = pool[slot];
            let noisy = ml.latent_utility(u, item)
                + greca_dataset::randx::normal(&mut rng, 0.0, ml.config.noise_std);
            builder.push(Rating {
                user: u,
                item,
                value: greca_dataset::randx::to_star_rating(noisy),
                ts: rng.random_range(0..social.horizon().max(1)),
            });
        }
    }
    ml.matrix = builder.build();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_world_builds_consistently() {
        let w = WorldConfig::study_scale().build();
        assert!(w.study_users().len() >= 65);
        assert_eq!(
            w.population.num_periods(),
            w.timeline.num_periods(),
            "one index slice per period"
        );
        assert!(w.last_period() >= 5, "two-month periods over a year");
    }

    #[test]
    fn cf_model_predicts_for_study_users() {
        let w = WorldConfig::study_scale().build();
        let cf = w.cf_model();
        for &u in w.study_users().iter().take(5) {
            let p = cf.predict(u, greca_dataset::ItemId(0));
            assert!(p.is_finite() && (0.0..=5.0).contains(&p));
        }
    }
}
