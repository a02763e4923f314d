//! User-based collaborative filtering: the paper's `apref(u, i)` source.
//!
//! Fits a k-nearest-neighbour model: for every user, the `top_n` most
//! similar other users. Prediction uses mean-centred weighted aggregation
//! with graceful fallbacks. Both hot loops make one pass over the sparse
//! structure they walk:
//!
//! * **Gather fit.** Only users sharing at least one item can have a
//!   non-zero similarity, so a user's candidates are found by walking
//!   their row in ascending item order and each item's raters (the item
//!   postings). The same walk accumulates each candidate's co-rating
//!   state — the cosine dot product, the Jaccard co-rated count, or the
//!   Pearson co-rated pairs — into scratch indexed by user id and
//!   re-armed on discovery. Row norms are computed once per fit. Each
//!   candidate is then scored by the same finishing function
//!   [`user_similarity`](crate::user_similarity)'s merge-join uses, with
//!   contributions summed in the same item order, so the scores are
//!   bit-identical to the pairwise path.
//! * **Scatter support.** [`PreferenceProvider::support`] walks each
//!   neighbour's rating row once, in neighbour-list order, and scatters
//!   its weighted deviation into per-position sums. It then emits the
//!   positions `u` rated and those a neighbour with non-zero weight
//!   rated; each is finished by the helper [`UserCfModel::predict`]
//!   uses. Every other position scores the default, `u`'s no-neighbour
//!   blend, which is what `predict` computes there. Each position
//!   receives its terms in the order `predict` adds them, so support
//!   plus default equal per-item `predict` bit for bit. A rated item's
//!   position comes from a catalog-indexed table when the neighbours'
//!   ratings outnumber the catalog, and from a binary search otherwise.
//!
//! [`PreferenceProvider::support`]: crate::PreferenceProvider::support

use crate::similarity::{self, Similarity};
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
        let mut gather = Gather::new(matrix, cfg.similarity);
        for &user in users {
            let mut scored = gather.score(matrix, user);
            scored.retain(|&(_, s)| s > cfg.min_similarity);
            scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("similarities are finite"));
            scored.truncate(cfg.top_n);
            neighbors[user.idx()] = scored;
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
            return self.observed(v);
        }
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for &(v, sim) in &self.neighbors[u.idx()] {
            if let Some(r) = self.matrix.get(v, i) {
                num += sim * (r as f64 - self.user_means[v.idx()]);
                den += sim.abs();
            }
        }
        self.blend(u, num, den)
    }

    /// `u`'s support over a strictly ascending itemset, by neighbour-row
    /// scatter (see the module docs): the observed rating at every
    /// position `u` rated, and the [`blend`](Self::blend) of the sums at
    /// every other position with a positive weight sum. Returns the
    /// blend of empty sums, every remaining position's `predict`.
    pub(crate) fn scatter_support(
        &self,
        u: UserId,
        items: &[ItemId],
        out: &mut Vec<(u32, f64)>,
    ) -> f64 {
        let neighbors = &self.neighbors[u.idx()];
        // Locate a rated item's position with a catalog-indexed table
        // when the neighbours' ratings outnumber the catalog (building it
        // is then cheaper than searching for each), else binary search.
        let catalog = self.matrix.num_items();
        let volume: usize = neighbors
            .iter()
            .map(|&(v, _)| self.matrix.user_ratings(v).len())
            .sum();
        let mut table = Vec::new();
        if volume >= catalog {
            table = vec![u32::MAX; catalog];
            for (d, item) in items.iter().enumerate() {
                if item.idx() < catalog {
                    table[item.idx()] = d as u32;
                }
            }
        }
        let position = |item: ItemId| match table.get(item.idx()) {
            Some(&d) => (d != u32::MAX).then_some(d as usize),
            None => items.binary_search(&item).ok(),
        };
        // `(numerator, weight)` sums per position.
        let mut sums = vec![(0.0f64, 0.0f64); items.len()];
        for &(v, sim) in neighbors {
            let mean_v = self.user_means[v.idx()];
            for &(item, r) in self.matrix.user_ratings(v) {
                if let Some(d) = position(item) {
                    sums[d].0 += sim * (r as f64 - mean_v);
                    sums[d].1 += sim.abs();
                }
            }
        }
        // `u`'s row ascends by item, so its positions ascend too.
        let mut own = self
            .matrix
            .user_ratings(u)
            .iter()
            .filter_map(|&(item, r)| position(item).map(|d| (d, r)))
            .peekable();
        for (d, &(num, den)) in sums.iter().enumerate() {
            if let Some((_, r)) = own.next_if(|&(p, _)| p == d) {
                out.push((d as u32, self.observed(r)));
            } else if den > 0.0 {
                out.push((d as u32, self.blend(u, num, den)));
            }
        }
        self.blend(u, 0.0, 0.0)
    }

    /// The preference for an item `u` rated: the observed rating, clamped.
    fn observed(&self, r: f32) -> f64 {
        (r as f64).clamp(self.cfg.min_score, self.cfg.max_score)
    }

    /// The preference for an item `u` has not rated, from its neighbour
    /// sums: `u`'s mean plus the weighted mean deviation (the mean alone
    /// when no neighbour rated the item), the global mean if that is not
    /// finite, clamped to the score range.
    fn blend(&self, u: UserId, num: f64, den: f64) -> f64 {
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

/// Scratch of the gather fit: the co-rating state of one user's
/// candidates, indexed by candidate id and re-armed when a candidate is
/// first discovered for that user.
struct Gather {
    measure: Similarity,
    /// `mark[v] == u` once `v` has been discovered as a candidate of `u`.
    mark: Vec<u32>,
    /// The current user's candidates, in discovery order.
    cands: Vec<UserId>,
    /// Cosine: the co-rated dot product per candidate.
    dot: Vec<f64>,
    /// Cosine: every row's norm, computed once per fit.
    norms: Vec<f64>,
    /// Jaccard and Pearson: the co-rated count per candidate. Pearson
    /// then reuses it as the candidate's bucket cursor.
    count: Vec<u32>,
    /// Pearson: `(candidate, r_u, r_v)` in walk order, then bucketed by
    /// candidate into `xs`/`ys` with each bucket in item order.
    pairs: Vec<(u32, f32, f32)>,
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl Gather {
    fn new(matrix: &RatingMatrix, measure: Similarity) -> Self {
        let n = matrix.num_users();
        let cosine = measure == Similarity::Cosine;
        let norms = if cosine {
            matrix
                .users()
                .map(|v| similarity::row_norm(matrix.user_ratings(v)))
                .collect()
        } else {
            Vec::new()
        };
        Gather {
            measure,
            mark: vec![u32::MAX; n],
            cands: Vec::new(),
            dot: vec![0.0; if cosine { n } else { 0 }],
            norms,
            count: vec![0; if cosine { 0 } else { n }],
            pairs: Vec::new(),
            xs: Vec::new(),
            ys: Vec::new(),
        }
    }

    /// Every co-rater of `user` with its similarity, in discovery order:
    /// `user`'s items ascending, each item's raters by id.
    fn score(&mut self, matrix: &RatingMatrix, user: UserId) -> Vec<(UserId, f64)> {
        let row = matrix.user_ratings(user);
        self.cands.clear();
        self.pairs.clear();
        for &(item, r_u) in row {
            for &(v, r_v) in matrix.item_ratings(item) {
                if v == user {
                    continue;
                }
                let vi = v.idx();
                if self.mark[vi] != user.0 {
                    self.mark[vi] = user.0;
                    self.cands.push(v);
                    match self.measure {
                        Similarity::Cosine => self.dot[vi] = 0.0,
                        Similarity::Pearson | Similarity::Jaccard => self.count[vi] = 0,
                    }
                }
                match self.measure {
                    Similarity::Cosine => self.dot[vi] += r_u as f64 * r_v as f64,
                    Similarity::Jaccard => self.count[vi] += 1,
                    Similarity::Pearson => {
                        self.count[vi] += 1;
                        self.pairs.push((v.0, r_u, r_v));
                    }
                }
            }
        }
        match self.measure {
            Similarity::Cosine => {
                let norm_u = self.norms[user.idx()];
                self.cands
                    .iter()
                    .map(|&v| {
                        let s = similarity::cosine(self.dot[v.idx()], norm_u, self.norms[v.idx()]);
                        (v, s)
                    })
                    .collect()
            }
            Similarity::Jaccard => self
                .cands
                .iter()
                .map(|&v| {
                    let inter = self.count[v.idx()] as usize;
                    let s = similarity::jaccard(inter, row.len(), matrix.user_ratings(v).len());
                    (v, s)
                })
                .collect(),
            Similarity::Pearson => {
                // Counting sort: turn each count into its bucket's start,
                // scatter the pairs (a stable pass, so every bucket stays
                // in item order), and read each bucket back up to where
                // its cursor stopped.
                let mut next = 0u32;
                for &v in &self.cands {
                    let c = self.count[v.idx()];
                    self.count[v.idx()] = next;
                    next += c;
                }
                self.xs.resize(next as usize, 0.0);
                self.ys.resize(next as usize, 0.0);
                for &(v, x, y) in &self.pairs {
                    let at = &mut self.count[v as usize];
                    self.xs[*at as usize] = x as f64;
                    self.ys[*at as usize] = y as f64;
                    *at += 1;
                }
                let mut start = 0usize;
                self.cands
                    .iter()
                    .map(|&v| {
                        let end = self.count[v.idx()] as usize;
                        let s = similarity::pearson(&self.xs[start..end], &self.ys[start..end]);
                        start = end;
                        (v, s)
                    })
                    .collect()
            }
        }
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
