//! Every dirty pair holds a dirty user.
//!
//! `DeltaBatch::dirty_set_bounded` records a pair `(u, v)` only for a
//! rater `u` of the batch, and inserts `u` into `users` first. Cache
//! survival rests on this: a query footprint is its member set, and a
//! footprint holding both ends of a dirty pair then already holds a
//! dirty user, so the pair set can never decide survival on its own.
//!
//! Coverage: seeded random matrices and batches (upserts, retractions,
//! new users and items, raters with no other ratings) under both
//! invalidation scopes, uncapped and capped at every size, counting
//! every user or only some.

use greca_cf::{DeltaBatch, InvalidationScope, RatingStore};
use greca_dataset::{ItemId, Rating, RatingMatrix, RatingMatrixBuilder, UserId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn random_matrix(rng: &mut StdRng) -> RatingMatrix {
    let n = rng.random_range(1usize..30);
    let m = rng.random_range(1usize..20);
    let density = rng.random_range(1u32..60) as f64 / 100.0;
    let mut b = RatingMatrixBuilder::new(n, m);
    for u in 0..n as u32 {
        for i in 0..m as u32 {
            if rng.random::<f64>() < density {
                let stars = rng.random_range(1u32..=10) as f32 / 2.0;
                b.rate(UserId(u), ItemId(i), stars, 0);
            }
        }
    }
    b.build()
}

/// A batch over `pre`'s users and items plus a few new ones.
fn random_batch(rng: &mut StdRng, pre: &RatingMatrix) -> DeltaBatch {
    let (n, m) = (pre.num_users() as u32 + 3, pre.num_items() as u32 + 3);
    let mut store = RatingStore::new();
    for _ in 0..rng.random_range(0usize..8) {
        let (user, item) = (
            UserId(rng.random_range(0..n)),
            ItemId(rng.random_range(0..m)),
        );
        if rng.random_range(0u32..4) == 0 {
            store.stage_retraction(user, item);
        } else {
            let value = rng.random_range(1u32..=10) as f32 / 2.0;
            store
                .stage(Rating {
                    user,
                    item,
                    value,
                    ts: 1,
                })
                .expect("finite rating");
        }
    }
    store.drain()
}

#[test]
fn every_dirty_pair_holds_a_dirty_user() {
    let mut rng = StdRng::seed_from_u64(0x5eed_d1a7);
    let mut pairs_seen = 0usize;
    for case in 0..300 {
        let pre = random_matrix(&mut rng);
        let batch = random_batch(&mut rng, &pre);
        let post = pre.apply_deltas(&batch.upserts, &batch.retractions);
        let modulus = rng.random_range(1u32..4);
        for scope in [InvalidationScope::RowOnly, InvalidationScope::Neighborhood] {
            for cap in (1..=post.num_users() + 1).chain([usize::MAX]) {
                let (dirty, _capped) =
                    batch.dirty_set_bounded(&pre, &post, scope, cap, |u| u.0 % modulus == 0);
                for &(a, b) in &dirty.pairs {
                    assert!(
                        dirty.contains_user(a) || dirty.contains_user(b),
                        "case {case}, {scope:?}, cap {cap}: pair ({a:?}, {b:?}) has no dirty user"
                    );
                }
                pairs_seen += dirty.num_pairs();
            }
        }
    }
    assert!(
        pairs_seen > 1000,
        "the batches must dirty pairs ({pairs_seen})"
    );
}
