//! User-based collaborative filtering: the paper's `apref(u, i)` source.
//!
//! Fits a k-nearest-neighbour model: for every user, the `top_n` most
//! similar other users are found through an inverted index over co-rated
//! items (only users sharing at least one item can have non-zero cosine
//! similarity, so the index avoids the dense all-pairs sweep). Prediction
//! uses mean-centred weighted aggregation with graceful fallbacks.

use crate::similarity::{user_similarity, Similarity};
use greca_dataset::{ItemId, RatingMatrix, UserId};

/// Configuration of the user-based CF model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CfConfig {
    /// Similarity measure (paper: cosine).
    pub similarity: Similarity,
    /// Neighbourhood size per user.
    pub top_n: usize,
    /// Drop neighbours with similarity below this threshold.
    pub min_similarity: f64,
    /// Predictions are clamped into `[min_score, max_score]`; the paper's
    /// preference lists contain scores as low as 0.5 on a 5-star scale.
    pub min_score: f64,
    /// Upper clamp for predictions.
    pub max_score: f64,
}

impl Default for CfConfig {
    fn default() -> Self {
        CfConfig {
            similarity: Similarity::Cosine,
            top_n: 40,
            min_similarity: 1e-6,
            min_score: 0.0,
            max_score: 5.0,
        }
    }
}

/// A fitted user-based CF model borrowing the rating matrix.
#[derive(Debug, Clone)]
pub struct UserCfModel<'a> {
    matrix: &'a RatingMatrix,
    cfg: CfConfig,
    /// Per-user neighbour lists `(neighbour, similarity)`, similarity-descending.
    neighbors: Vec<Vec<(UserId, f64)>>,
    user_means: Vec<f64>,
    global_mean: f64,
}

impl<'a> UserCfModel<'a> {
    /// Fit the model: discover each user's `top_n` neighbours.
    pub fn fit(matrix: &'a RatingMatrix, cfg: CfConfig) -> Self {
        let all: Vec<UserId> = (0..matrix.num_users() as u32).map(UserId).collect();
        Self::fit_for(matrix, cfg, &all)
    }

    /// Fit neighbourhoods only for `users` — everything the
    /// group-recommendation path needs, since preference lists are built
    /// per group member. At MovieLens-1M scale this turns an all-pairs
    /// sweep into a per-member one (the paper's ad-hoc-group setting).
    /// Predictions for unfitted users fall back to their rating mean.
    pub fn fit_for(matrix: &'a RatingMatrix, cfg: CfConfig, users: &[UserId]) -> Self {
        assert!(cfg.top_n > 0, "neighbourhood must be non-empty");
        assert!(cfg.min_score <= cfg.max_score, "invalid clamp range");
        let n = matrix.num_users();
        let global_mean = matrix
            .global_mean()
            .unwrap_or((cfg.min_score + cfg.max_score) / 2.0);
        let user_means: Vec<f64> = (0..n as u32)
            .map(|u| matrix.user_mean(UserId(u)).unwrap_or(global_mean))
            .collect();

        let mut neighbors = vec![Vec::new(); n];
        // Scratch: candidate marks to avoid re-scoring within one user.
        let mut seen_epoch = vec![u32::MAX; n];
        for &user in users {
            let u = user.idx();
            let mut cands: Vec<UserId> = Vec::new();
            for &(item, _) in matrix.user_ratings(user) {
                for &(v, _) in matrix.item_ratings(item) {
                    let vi = v.idx();
                    if vi != u && seen_epoch[vi] != u as u32 {
                        seen_epoch[vi] = u as u32;
                        cands.push(v);
                    }
                }
            }
            let mut scored: Vec<(UserId, f64)> = cands
                .into_iter()
                .map(|v| (v, user_similarity(matrix, user, v, cfg.similarity)))
                .filter(|&(_, s)| s > cfg.min_similarity)
                .collect();
            scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("similarities are finite"));
            scored.truncate(cfg.top_n);
            neighbors[u] = scored;
        }
        UserCfModel {
            matrix,
            cfg,
            neighbors,
            user_means,
            global_mean,
        }
    }

    /// The fitted configuration.
    pub fn config(&self) -> &CfConfig {
        &self.cfg
    }

    /// The underlying rating matrix.
    pub fn matrix(&self) -> &RatingMatrix {
        self.matrix
    }

    /// The neighbours of `u` with their similarities, best first.
    pub fn neighbors(&self, u: UserId) -> &[(UserId, f64)] {
        &self.neighbors[u.idx()]
    }

    /// Predicted preference `apref(u, i)`.
    ///
    /// If `u` has rated `i`, the observed rating is returned (the best
    /// possible estimate). Otherwise the mean-centred neighbour
    /// aggregation is used, falling back to the user mean and finally the
    /// global mean. The result is clamped to the configured score range,
    /// so it is always finite and non-negative (a requirement of GRECA's
    /// lower-bound computation, which substitutes 0 for unseen entries).
    pub fn predict(&self, u: UserId, i: ItemId) -> f64 {
        if let Some(v) = self.matrix.get(u, i) {
            return (v as f64).clamp(self.cfg.min_score, self.cfg.max_score);
        }
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for &(v, sim) in &self.neighbors[u.idx()] {
            if let Some(r) = self.matrix.get(v, i) {
                num += sim * (r as f64 - self.user_means[v.idx()]);
                den += sim.abs();
            }
        }
        let base = self.user_means[u.idx()];
        let raw = if den > 0.0 { base + num / den } else { base };
        let raw = if raw.is_finite() {
            raw
        } else {
            self.global_mean
        };
        raw.clamp(self.cfg.min_score, self.cfg.max_score)
    }

    /// Mean rating the model uses for `u`.
    pub fn user_mean(&self, u: UserId) -> f64 {
        self.user_means[u.idx()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greca_dataset::{MovieLensConfig, RatingMatrixBuilder};

    fn tiny_matrix() -> RatingMatrix {
        // u0 and u1 agree perfectly; u2 is the odd one out.
        let mut b = RatingMatrixBuilder::new(3, 4);
        b.rate(UserId(0), ItemId(0), 5.0, 0)
            .rate(UserId(0), ItemId(1), 4.0, 0)
            .rate(UserId(0), ItemId(2), 1.0, 0)
            .rate(UserId(1), ItemId(0), 5.0, 0)
            .rate(UserId(1), ItemId(1), 4.0, 0)
            .rate(UserId(1), ItemId(3), 5.0, 0)
            .rate(UserId(2), ItemId(0), 1.0, 0)
            .rate(UserId(2), ItemId(2), 5.0, 0);
        b.build()
    }

    #[test]
    fn known_rating_is_returned_verbatim() {
        let m = tiny_matrix();
        let model = UserCfModel::fit(&m, CfConfig::default());
        assert_eq!(model.predict(UserId(0), ItemId(0)), 5.0);
    }

    #[test]
    fn prediction_follows_similar_neighbour() {
        let m = tiny_matrix();
        let model = UserCfModel::fit(&m, CfConfig::default());
        // u0 hasn't rated i3; the similar u1 rated it 5 (above u1's mean),
        // so u0's prediction must exceed u0's own mean.
        let p = model.predict(UserId(0), ItemId(3));
        let mean0 = model.user_mean(UserId(0));
        assert!(p > mean0, "prediction {p} should be above mean {mean0}");
    }

    #[test]
    fn predictions_clamped_and_finite() {
        let ml = MovieLensConfig::small().generate();
        let model = UserCfModel::fit(&ml.matrix, CfConfig::default());
        for u in ml.matrix.users().take(25) {
            for i in ml.matrix.items().take(60) {
                let p = model.predict(u, i);
                assert!(p.is_finite());
                assert!((0.0..=5.0).contains(&p));
            }
        }
    }

    #[test]
    fn cold_user_falls_back_to_global_mean() {
        let mut b = RatingMatrixBuilder::new(2, 2);
        b.rate(UserId(0), ItemId(0), 4.0, 0);
        let m = b.build();
        let model = UserCfModel::fit(&m, CfConfig::default());
        // User 1 has no ratings at all → global mean (4.0).
        assert_eq!(model.predict(UserId(1), ItemId(1)), 4.0);
    }

    #[test]
    fn neighbors_sorted_and_bounded() {
        let ml = MovieLensConfig::small().generate();
        let cfg = CfConfig {
            top_n: 10,
            ..CfConfig::default()
        };
        let model = UserCfModel::fit(&ml.matrix, cfg);
        for u in ml.matrix.users() {
            let ns = model.neighbors(u);
            assert!(ns.len() <= 10);
            for w in ns.windows(2) {
                assert!(w[0].1 >= w[1].1);
            }
            for &(v, s) in ns {
                assert_ne!(v, u, "self is never a neighbour");
                assert!(s > 0.0);
            }
        }
    }

    #[test]
    fn empty_matrix_predicts_midpoint() {
        let m = RatingMatrixBuilder::new(3, 3).build();
        let model = UserCfModel::fit(&m, CfConfig::default());
        assert_eq!(model.predict(UserId(0), ItemId(0)), 2.5);
    }

    #[test]
    #[should_panic(expected = "neighbourhood")]
    fn zero_topn_rejected() {
        let m = RatingMatrixBuilder::new(1, 1).build();
        let _ = UserCfModel::fit(
            &m,
            CfConfig {
                top_n: 0,
                ..CfConfig::default()
            },
        );
    }
}
