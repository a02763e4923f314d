//! Bit-identity of the user-CF gather fit and scatter support.
//!
//! `UserCfModel::fit_for` scores each user's co-raters from one pass over
//! the item postings, and `support` emits a column's support by
//! scattering neighbour rows. Both compute the same function as the
//! pairwise path in a different loop order, so they must agree with it
//! bit for bit. [`reference`] keeps that pairwise path here as the oracle:
//! candidate discovery through the postings, one `user_similarity`
//! merge-join per candidate, the stable similarity sort and truncation,
//! and a per-item prediction that probes the matrix once per neighbour.
//!
//! Neighbours are compared by id, by `to_bits()` of the similarity and by
//! list order; per-item predictions by `to_bits()`. Supports go through
//! the shared provider contract check, against per-item `apref`, for
//! user CF, raw ratings and the trait's default. Coverage: seeded random
//! matrices under all three measures, with empty rows, users without
//! neighbours, clamp-hitting predictions, partial fits, and itemsets that
//! are ascending, non-ascending, or reach past the catalog (supports run
//! over each itemset's sorted, deduplicated form).

use greca_bench::contract::assert_support_contract;
use greca_cf::{
    user_similarity, CfConfig, PreferenceProvider, RawRatings, Similarity, UserCfModel,
};
use greca_dataset::{ItemId, RatingMatrix, RatingMatrixBuilder, UserId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The pairwise user-CF path. Do not "improve" this code: its value is
/// being the snapshot the fast path is measured against.
mod reference {
    use super::*;

    /// `u`'s neighbour list: co-raters in discovery order (`u`'s items
    /// ascending, each item's raters by id), scored pairwise, filtered,
    /// stably sorted by descending similarity, truncated.
    pub fn neighbors(m: &RatingMatrix, cfg: &CfConfig, u: UserId) -> Vec<(UserId, f64)> {
        let mut seen = vec![false; m.num_users()];
        let mut cands = Vec::new();
        for &(item, _) in m.user_ratings(u) {
            for &(v, _) in m.item_ratings(item) {
                if v != u && !seen[v.idx()] {
                    seen[v.idx()] = true;
                    cands.push(v);
                }
            }
        }
        let mut scored: Vec<(UserId, f64)> = cands
            .into_iter()
            .map(|v| (v, user_similarity(m, u, v, cfg.similarity)))
            .filter(|&(_, s)| s > cfg.min_similarity)
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("similarities are finite"));
        scored.truncate(cfg.top_n);
        scored
    }

    /// The rating means predictions centre on: per user, falling back to
    /// the global mean, which falls back to the score range's midpoint.
    pub struct Means {
        pub global: f64,
        pub user: Vec<f64>,
    }

    impl Means {
        pub fn of(m: &RatingMatrix, cfg: &CfConfig) -> Self {
            let global = m
                .global_mean()
                .unwrap_or((cfg.min_score + cfg.max_score) / 2.0);
            let user = m
                .users()
                .map(|u| m.user_mean(u).unwrap_or(global))
                .collect();
            Means { global, user }
        }
    }

    /// `apref(u, i)` from `u`'s neighbour list, one matrix probe per
    /// neighbour.
    pub fn predict(
        m: &RatingMatrix,
        cfg: &CfConfig,
        means: &Means,
        neighbors: &[(UserId, f64)],
        u: UserId,
        i: ItemId,
    ) -> f64 {
        if let Some(v) = m.get(u, i) {
            return (v as f64).clamp(cfg.min_score, cfg.max_score);
        }
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for &(v, sim) in neighbors {
            if let Some(r) = m.get(v, i) {
                num += sim * (r as f64 - means.user[v.idx()]);
                den += sim.abs();
            }
        }
        let base = means.user[u.idx()];
        let raw = if den > 0.0 { base + num / den } else { base };
        let raw = if raw.is_finite() { raw } else { means.global };
        raw.clamp(cfg.min_score, cfg.max_score)
    }
}

/// A seeded sparse matrix of half-star ratings (so similarities tie
/// often). Some users rate nothing, and a few rate one item nobody else
/// rates, so they have no neighbours.
fn random_matrix(rng: &mut StdRng) -> RatingMatrix {
    let n = rng.random_range(1usize..40);
    let m = rng.random_range(1usize..30);
    let density = rng.random_range(1u32..60) as f64 / 100.0;
    let mut b = RatingMatrixBuilder::new(n, m + 1);
    for u in 0..n as u32 {
        match rng.random_range(0u32..8) {
            0 => {}
            1 => {
                b.rate(UserId(u), ItemId(m as u32), 3.0, 0);
            }
            _ => {
                for i in 0..m as u32 {
                    if rng.random::<f64>() < density {
                        let stars = rng.random_range(1u32..=10) as f32 / 2.0;
                        b.rate(UserId(u), ItemId(i), stars, 0);
                    }
                }
            }
        }
    }
    b.build()
}

fn random_config(rng: &mut StdRng, similarity: Similarity) -> CfConfig {
    let top_n = [1, 2, 3, 5, 40][rng.random_range(0usize..5)];
    // A negative threshold admits zero and negative similarities, so
    // negative weights reach the prediction sums too.
    let min_similarity = [1e-6, 0.3, -2.0][rng.random_range(0usize..3)];
    // A narrow score range makes clamps common.
    let (min_score, max_score) = [(0.0, 5.0), (2.0, 3.5), (1.5, 1.5)][rng.random_range(0usize..3)];
    CfConfig {
        similarity,
        top_n,
        min_similarity,
        min_score,
        max_score,
    }
}

/// A provider with only `apref`, so its support is the trait's default.
struct PerItem<'a>(&'a UserCfModel<'a>);

impl PreferenceProvider for PerItem<'_> {
    fn apref(&self, u: UserId, i: ItemId) -> f64 {
        self.0.predict(u, i)
    }
}

/// Itemsets the predictions must handle: the catalog, a random ascending
/// subset, ids past the catalog, and non-ascending orders (reversed,
/// shuffled with duplicates).
fn itemsets(rng: &mut StdRng, num_items: usize) -> Vec<Vec<ItemId>> {
    let catalog: Vec<ItemId> = (0..num_items as u32).map(ItemId).collect();
    let subset: Vec<ItemId> = catalog
        .iter()
        .copied()
        .filter(|_| rng.random::<bool>())
        .collect();
    let mut past = subset.clone();
    past.extend([ItemId(num_items as u32 + 3), ItemId(num_items as u32 + 50)]);
    let mut reversed = past.clone();
    reversed.reverse();
    let mut shuffled: Vec<ItemId> = (0..num_items + 4)
        .map(|_| ItemId(rng.random_range(0..num_items as u32 + 2)))
        .collect();
    shuffled.push(shuffled[0]);
    vec![catalog, subset, past, reversed, shuffled, Vec::new()]
}

fn assert_neighbors_identical(got: &[(UserId, f64)], want: &[(UserId, f64)], ctx: &str) {
    let bits = |l: &[(UserId, f64)]| l.iter().map(|&(v, s)| (v, s.to_bits())).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(want), "neighbours differ: {ctx}");
}

/// What a run exercised, so the suite fails if a shape it claims to
/// cover stops being generated.
#[derive(Default)]
struct Coverage {
    empty_rows: usize,
    no_neighbors: usize,
    clamped: usize,
    negative_weights: usize,
    non_ascending: usize,
    past_catalog: usize,
}

fn check_seed(seed: u64, similarity: Similarity, cov: &mut Coverage) {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = random_matrix(&mut rng);
    let cfg = random_config(&mut rng, similarity);
    // Fit everyone, or a random subset: unfitted users have no
    // neighbours and predict from their mean.
    let fitted: Vec<UserId> = if rng.random::<bool>() {
        m.users().collect()
    } else {
        m.users().filter(|_| rng.random::<bool>()).collect()
    };
    let model = UserCfModel::fit_for(&m, cfg, &fitted);
    let sets = itemsets(&mut rng, m.num_items());
    let means = reference::Means::of(&m, &cfg);
    let unclamped = CfConfig {
        min_score: f64::NEG_INFINITY,
        max_score: f64::INFINITY,
        ..cfg
    };
    for u in m.users() {
        let ctx = format!("seed {seed}, {similarity:?}, {cfg:?}, user {u}");
        let want = if fitted.contains(&u) {
            reference::neighbors(&m, &cfg, u)
        } else {
            Vec::new()
        };
        assert_neighbors_identical(model.neighbors(u), &want, &ctx);
        cov.empty_rows += m.user_ratings(u).is_empty() as usize;
        cov.no_neighbors += (fitted.contains(&u) && want.is_empty()) as usize;
        cov.negative_weights += want.iter().any(|&(_, s)| s < 0.0) as usize;
        for items in &sets {
            let expect: Vec<u64> = items
                .iter()
                .map(|&i| reference::predict(&m, &cfg, &means, &want, u, i).to_bits())
                .collect();
            let per_item: Vec<f64> = items.iter().map(|&i| model.predict(u, i)).collect();
            let bits: Vec<u64> = per_item.iter().map(|s| s.to_bits()).collect();
            assert_eq!(bits, expect, "predict differs: {ctx}, items {items:?}");
            let mut distinct = items.clone();
            distinct.sort_unstable();
            distinct.dedup();
            let providers: [&dyn PreferenceProvider; 3] =
                [&model, &RawRatings(&m), &PerItem(&model)];
            for provider in providers {
                assert_support_contract(provider, u, &distinct, m.num_items());
            }
            for (&i, &s) in items.iter().zip(&per_item) {
                let raw = reference::predict(&m, &unclamped, &means, &want, u, i);
                cov.clamped += (raw != s) as usize;
            }
            cov.non_ascending += items.windows(2).any(|w| w[0] >= w[1]) as usize;
            cov.past_catalog += items.iter().any(|i| i.idx() >= m.num_items()) as usize;
        }
    }
}

#[test]
fn gather_fit_and_scatter_support_match_the_pairwise_oracle() {
    for similarity in [Similarity::Cosine, Similarity::Pearson, Similarity::Jaccard] {
        let mut cov = Coverage::default();
        for seed in 0..300 {
            check_seed(seed, similarity, &mut cov);
        }
        for (name, hits) in [
            ("empty rows", cov.empty_rows),
            ("users without neighbours", cov.no_neighbors),
            ("clamped predictions", cov.clamped),
            ("non-ascending itemsets", cov.non_ascending),
            ("itemsets past the catalog", cov.past_catalog),
        ] {
            assert!(hits > 0, "{similarity:?}: no {name} generated");
        }
        if similarity == Similarity::Pearson {
            assert!(cov.negative_weights > 0, "no negative similarities");
        }
    }
}

#[test]
fn full_fit_matches_the_oracle_on_a_generated_world() {
    let ml = greca_dataset::MovieLensConfig::small().generate();
    let m = &ml.matrix;
    let items: Vec<ItemId> = m.items().collect();
    for similarity in [Similarity::Cosine, Similarity::Pearson, Similarity::Jaccard] {
        let cfg = CfConfig {
            similarity,
            top_n: 10,
            ..CfConfig::default()
        };
        let model = UserCfModel::fit(m, cfg);
        let means = reference::Means::of(m, &cfg);
        for u in m.users().step_by(7) {
            let want = reference::neighbors(m, &cfg, u);
            assert_neighbors_identical(model.neighbors(u), &want, &format!("{similarity:?} {u}"));
            assert_support_contract(&model, u, &items, m.num_items());
            for &i in &items {
                let r = reference::predict(m, &cfg, &means, &want, u, i);
                assert_eq!(
                    model.predict(u, i).to_bits(),
                    r.to_bits(),
                    "{similarity:?} {u} {i}"
                );
            }
        }
    }
}

/// Users 1 and 2 score bit-equal against user 0 under every measure,
/// but user 2 is discovered first (through item 0, before item 1 leads
/// to user 1). The stable sort keeps discovery order, so the list is
/// `[2, 1]`, not id order; with `top_n = 1` only user 2 survives.
#[test]
fn tied_neighbours_keep_discovery_order() {
    let mut b = RatingMatrixBuilder::new(3, 4);
    b.rate(UserId(0), ItemId(0), 1.0, 0)
        .rate(UserId(0), ItemId(1), 2.0, 0)
        .rate(UserId(0), ItemId(2), 1.0, 0)
        .rate(UserId(0), ItemId(3), 2.0, 0)
        .rate(UserId(2), ItemId(0), 2.0, 0)
        .rate(UserId(2), ItemId(1), 5.0, 0)
        .rate(UserId(1), ItemId(2), 2.0, 0)
        .rate(UserId(1), ItemId(3), 5.0, 0);
    let m = b.build();
    for similarity in [Similarity::Cosine, Similarity::Pearson, Similarity::Jaccard] {
        let s1 = user_similarity(&m, UserId(0), UserId(1), similarity);
        let s2 = user_similarity(&m, UserId(0), UserId(2), similarity);
        assert_eq!(s1.to_bits(), s2.to_bits(), "{similarity:?}: not a tie");
        assert!(s1 > 0.0);
        for top_n in [1, 40] {
            let cfg = CfConfig {
                similarity,
                top_n,
                ..CfConfig::default()
            };
            let model = UserCfModel::fit(&m, cfg);
            let want = reference::neighbors(&m, &cfg, UserId(0));
            assert_neighbors_identical(model.neighbors(UserId(0)), &want, &format!("{cfg:?}"));
            let ids: Vec<UserId> = model.neighbors(UserId(0)).iter().map(|&(v, _)| v).collect();
            let expected = [UserId(2), UserId(1)];
            assert_eq!(ids, expected[..top_n.min(2)], "{cfg:?}");
        }
    }
}
