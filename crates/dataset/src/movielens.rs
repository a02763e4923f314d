//! Synthetic MovieLens-1M-like rating dataset.
//!
//! The paper evaluates on MovieLens 1M (Table 5: 6,040 users, 3,952
//! movies, 1,000,209 ratings, 1–5 stars). The raw file is not
//! redistributable, so this module generates a dataset with the same
//! statistical fingerprint — the properties GRECA's early termination
//! and the §4.1.3 group formation depend on:
//!
//! * **item popularity** follows a Zipf-like law (a few blockbusters, a
//!   long tail), which drives the skew of preference-list scores that the
//!   top-k algorithms exploit;
//! * **user activity** is log-normal (MovieLens users rate 20–2,000+
//!   movies);
//! * **rating values** come from a latent genre-factor model
//!   `r = μ + b_u + q_i + γ·(taste_u · genres_i) + ε` quantized to 1–5
//!   stars with a global mean near MovieLens' 3.58;
//! * **taste clustering**: users sample their taste from a small number of
//!   archetypes, giving the similar/dissimilar structure the group
//!   formation procedure (§4.1.3) needs.

use crate::randx::{self, CumTable};
use crate::ratings::{ItemId, Rating, RatingMatrix, RatingMatrixBuilder, UserId};
use crate::time::{Timestamp, YEAR};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Configuration for the synthetic MovieLens generator.
#[derive(Debug, Clone)]
pub struct MovieLensConfig {
    /// Number of users (paper: 6,040).
    pub num_users: usize,
    /// Number of items (paper: 3,952).
    pub num_items: usize,
    /// Target number of ratings (paper: 1,000,209). The generator lands
    /// within a few percent of this.
    pub target_ratings: usize,
    /// Number of latent genres (MovieLens has 18).
    pub num_genres: usize,
    /// Number of user taste archetypes (controls similarity clustering).
    pub num_archetypes: usize,
    /// Zipf exponent for item popularity.
    pub popularity_skew: f64,
    /// Strength of the taste·genre interaction term.
    pub taste_gain: f64,
    /// Std-dev of the rating noise ε.
    pub noise_std: f64,
    /// Std-dev of the per-item quality bias `q_i` (how much "everyone
    /// agrees this movie is good" dominates taste).
    pub item_bias_std: f64,
    /// Std-dev of the per-user rating bias `b_u`.
    pub user_bias_std: f64,
    /// Global rating intercept μ (MovieLens 1M mean ≈ 3.58).
    pub mean_rating: f64,
    /// Rating timestamps are drawn uniformly from `[0, horizon)`.
    pub horizon: Timestamp,
    /// RNG seed; the generator is fully deterministic given the config.
    pub seed: u64,
}

impl MovieLensConfig {
    /// Full paper-scale configuration (Table 5), with effect sizes
    /// calibrated to MovieLens 1M itself: the per-item quality effect
    /// (item-mean std ≈ 0.78 stars) dominates the per-user taste
    /// interaction, and residual noise is large (≈ 0.8 stars). This
    /// quality-dominated structure is what makes different users' CF
    /// preference lists share their heads — the property the top-k
    /// pruning results of §4.2 rest on.
    pub fn paper_scale() -> Self {
        MovieLensConfig {
            num_users: 6_040,
            num_items: 3_952,
            target_ratings: 1_000_209,
            item_bias_std: 0.75,
            taste_gain: 1.0,
            noise_std: 0.95,
            ..MovieLensConfig::small()
        }
    }

    /// A small world for tests and examples (200 users × 400 items).
    pub fn small() -> Self {
        MovieLensConfig {
            num_users: 200,
            num_items: 400,
            target_ratings: 12_000,
            num_genres: 18,
            num_archetypes: 8,
            popularity_skew: 0.9,
            taste_gain: 2.2,
            noise_std: 0.55,
            item_bias_std: 0.45,
            user_bias_std: 0.35,
            mean_rating: 3.58,
            horizon: YEAR,
            seed: 0x5eed,
        }
    }

    /// A medium world (the scalability experiments' item range tops out at
    /// 3,900 items, §4.2.2 Figure 5C).
    pub fn scalability_scale() -> Self {
        MovieLensConfig {
            num_users: 1_200,
            num_items: 3_900,
            target_ratings: 180_000,
            ..MovieLensConfig::small()
        }
    }

    /// Override the seed, keeping everything else.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the item count, keeping everything else.
    pub fn with_items(mut self, num_items: usize) -> Self {
        self.num_items = num_items;
        self
    }

    /// Generate the dataset.
    pub fn generate(&self) -> MovieLens {
        generate(self)
    }
}

/// The generated synthetic dataset: the rating matrix plus the latent
/// structure (kept so evaluation code can build ground-truth oracles).
#[derive(Debug, Clone)]
pub struct MovieLens {
    /// The observable rating matrix.
    pub matrix: RatingMatrix,
    /// Per-item genre mixture vectors (rows sum to 1).
    pub item_genres: Vec<Vec<f64>>,
    /// Per-user taste vectors over genres (rows sum to 1).
    pub user_tastes: Vec<Vec<f64>>,
    /// Per-user rating bias `b_u`.
    pub user_bias: Vec<f64>,
    /// Per-item quality bias `q_i`.
    pub item_bias: Vec<f64>,
    /// Archetype index each user's taste was drawn from.
    pub user_archetype: Vec<usize>,
    /// The configuration that produced this dataset.
    pub config: MovieLensConfig,
}

impl MovieLens {
    /// The latent (noise-free, unquantized) appreciation of `user` for
    /// `item`: the ground truth behind the observed star ratings. Used by
    /// the evaluation crate's satisfaction oracle.
    pub fn latent_utility(&self, user: UserId, item: ItemId) -> f64 {
        let c = &self.config;
        let taste = &self.user_tastes[user.idx()];
        let genres = &self.item_genres[item.idx()];
        let dot: f64 = taste.iter().zip(genres).map(|(a, b)| a * b).sum();
        let centered = dot - 1.0 / c.num_genres as f64;
        c.mean_rating
            + self.user_bias[user.idx()]
            + self.item_bias[item.idx()]
            + c.taste_gain * centered * c.num_genres as f64 / 4.0
    }

    /// Dataset statistics in the shape of the paper's Table 5.
    pub fn stats(&self) -> MovieLensStats {
        MovieLensStats {
            num_users: self.matrix.num_users(),
            num_items: self.matrix.num_items(),
            num_ratings: self.matrix.num_ratings(),
            mean_rating: self.matrix.global_mean().unwrap_or(0.0),
            density: self.matrix.density(),
        }
    }
}

/// Summary statistics (Table 5 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MovieLensStats {
    /// `# users`.
    pub num_users: usize,
    /// `# movies`.
    pub num_items: usize,
    /// `# ratings`.
    pub num_ratings: usize,
    /// Mean star rating.
    pub mean_rating: f64,
    /// Matrix density.
    pub density: f64,
}

fn dirichlet_like<R: RngExt + ?Sized>(rng: &mut R, n: usize, concentration: f64) -> Vec<f64> {
    // Approximate Dirichlet sampling: exponentiated normals normalized.
    // Smaller `concentration` → sparser vectors.
    let mut v: Vec<f64> = (0..n)
        .map(|_| randx::normal(rng, 0.0, 1.0 / concentration).exp())
        .collect();
    let sum: f64 = v.iter().sum();
    for x in &mut v {
        *x /= sum;
    }
    v
}

fn generate(cfg: &MovieLensConfig) -> MovieLens {
    assert!(cfg.num_users > 0 && cfg.num_items > 0, "empty world");
    assert!(
        cfg.num_genres > 0 && cfg.num_archetypes > 0,
        "need latent structure"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // --- Latent item structure -------------------------------------------
    let mut item_genres = Vec::with_capacity(cfg.num_items);
    let mut item_bias = Vec::with_capacity(cfg.num_items);
    for _ in 0..cfg.num_items {
        // Movies have 1–3 dominant genres.
        let dominant = rng.random_range(1..=3usize);
        let mut g = vec![0.015 / cfg.num_genres as f64; cfg.num_genres];
        for _ in 0..dominant {
            let gi = rng.random_range(0..cfg.num_genres);
            g[gi] += 1.0 / dominant as f64;
        }
        let sum: f64 = g.iter().sum();
        for x in &mut g {
            *x /= sum;
        }
        item_genres.push(g);
        item_bias.push(randx::normal(&mut rng, 0.0, cfg.item_bias_std));
    }

    // --- Latent user structure -------------------------------------------
    let archetypes: Vec<Vec<f64>> = (0..cfg.num_archetypes)
        .map(|_| dirichlet_like(&mut rng, cfg.num_genres, 0.45))
        .collect();
    let mut user_tastes = Vec::with_capacity(cfg.num_users);
    let mut user_bias = Vec::with_capacity(cfg.num_users);
    let mut user_archetype = Vec::with_capacity(cfg.num_users);
    for _ in 0..cfg.num_users {
        let a = rng.random_range(0..cfg.num_archetypes);
        user_archetype.push(a);
        // Taste = archetype plus personal perturbation, renormalized.
        let mut t: Vec<f64> = archetypes[a]
            .iter()
            .map(|&x| (x + 0.03 * rng.random::<f64>()).max(1e-9))
            .collect();
        let sum: f64 = t.iter().sum();
        for x in &mut t {
            *x /= sum;
        }
        user_tastes.push(t);
        user_bias.push(randx::normal(&mut rng, 0.0, cfg.user_bias_std));
    }

    // --- Popularity + activity -------------------------------------------
    let pop = CumTable::new(&randx::zipf_weights(cfg.num_items, cfg.popularity_skew));
    // Log-normal activity normalized to hit the target rating count.
    let raw_activity: Vec<f64> = (0..cfg.num_users)
        .map(|_| randx::log_normal(&mut rng, 0.0, 0.9))
        .collect();
    let act_sum: f64 = raw_activity.iter().sum();
    let scale = cfg.target_ratings as f64 / act_sum;

    // --- Emit ratings ------------------------------------------------------
    let mut builder = RatingMatrixBuilder::new(cfg.num_users, cfg.num_items);
    let mut tastes_cache = MovieLens {
        matrix: RatingMatrixBuilder::new(0, 0).build(),
        item_genres,
        user_tastes,
        user_bias,
        item_bias,
        user_archetype,
        config: cfg.clone(),
    };
    for (u, &activity) in raw_activity.iter().enumerate() {
        let want = ((activity * scale).round() as usize).clamp(1, cfg.num_items);
        let picks = randx::sample_distinct(&mut rng, &pop, want);
        for idx in picks {
            let item = ItemId(idx as u32);
            let user = UserId(u as u32);
            let util = tastes_cache.latent_utility(user, item);
            let noisy = util + randx::normal(&mut rng, 0.0, cfg.noise_std);
            let value = randx::to_star_rating(noisy);
            let ts: Timestamp = rng.random_range(0..cfg.horizon.max(1));
            builder.push(Rating {
                user,
                item,
                value,
                ts,
            });
        }
    }
    tastes_cache.matrix = builder.build();
    tastes_cache
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_world_matches_config_counts() {
        let ml = MovieLensConfig::small().generate();
        let s = ml.stats();
        assert_eq!(s.num_users, 200);
        assert_eq!(s.num_items, 400);
        // Within 10% of target (dedup / clamping cause slight shortfall).
        let target = 12_000f64;
        assert!(
            (s.num_ratings as f64 - target).abs() / target < 0.10,
            "got {} ratings",
            s.num_ratings
        );
    }

    #[test]
    fn ratings_are_integer_stars_in_range() {
        let ml = MovieLensConfig::small().generate();
        for u in ml.matrix.users() {
            for &(_, v) in ml.matrix.user_ratings(u) {
                assert!((1.0..=5.0).contains(&v));
                assert_eq!(v, v.round());
            }
        }
    }

    #[test]
    fn mean_rating_is_near_movielens() {
        let ml = MovieLensConfig::small().generate();
        let mean = ml.matrix.global_mean().unwrap();
        assert!((3.1..=4.1).contains(&mean), "mean {mean}");
    }

    #[test]
    fn popularity_is_skewed() {
        let ml = MovieLensConfig::small().generate();
        let ranked = ml.matrix.items_by_popularity();
        let top = ml.matrix.item_popularity(ranked[0]);
        let median = ml.matrix.item_popularity(ranked[ranked.len() / 2]);
        assert!(
            top as f64 >= 4.0 * (median.max(1)) as f64,
            "top {top} vs median {median}: popularity should be heavy-tailed"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let a = MovieLensConfig::small().generate();
        let b = MovieLensConfig::small().generate();
        assert_eq!(a.matrix.num_ratings(), b.matrix.num_ratings());
        for u in a.matrix.users() {
            assert_eq!(a.matrix.user_ratings(u), b.matrix.user_ratings(u));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = MovieLensConfig::small().generate();
        let b = MovieLensConfig::small().with_seed(99).generate();
        let same = a
            .matrix
            .users()
            .all(|u| a.matrix.user_ratings(u) == b.matrix.user_ratings(u));
        assert!(!same);
    }

    #[test]
    fn archetype_users_agree_more_than_cross_archetype() {
        // The taste clustering must be recoverable from the latent utility:
        // same-archetype users should have more correlated utilities.
        let ml = MovieLensConfig::small().generate();
        let users: Vec<UserId> = ml.matrix.users().collect();
        let items: Vec<ItemId> = (0..50).map(ItemId).collect();
        let utility_vec =
            |u: UserId| -> Vec<f64> { items.iter().map(|&i| ml.latent_utility(u, i)).collect() };
        let corr = |a: &[f64], b: &[f64]| -> f64 {
            let n = a.len() as f64;
            let ma = a.iter().sum::<f64>() / n;
            let mb = b.iter().sum::<f64>() / n;
            let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
            let va: f64 = a.iter().map(|x| (x - ma).powi(2)).sum();
            let vb: f64 = b.iter().map(|y| (y - mb).powi(2)).sum();
            cov / (va.sqrt() * vb.sqrt()).max(1e-12)
        };
        let mut same = Vec::new();
        let mut cross = Vec::new();
        for (ai, &a) in users.iter().enumerate().take(40) {
            for &b in users.iter().skip(ai + 1).take(40) {
                let c = corr(&utility_vec(a), &utility_vec(b));
                if ml.user_archetype[a.idx()] == ml.user_archetype[b.idx()] {
                    same.push(c);
                } else {
                    cross.push(c);
                }
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(
            mean(&same) > mean(&cross) + 0.1,
            "same-archetype corr {} should exceed cross {}",
            mean(&same),
            mean(&cross)
        );
    }

    #[test]
    fn timestamps_within_horizon() {
        let cfg = MovieLensConfig::small();
        let _ml = cfg.generate();
        // Timestamps are internal to the builder; validated via generation
        // not panicking and horizon being positive.
        assert!(cfg.horizon > 0);
    }
}
