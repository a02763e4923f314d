//! `candidate_items` equals its definition: every catalog item no group
//! member has rated, in ascending id.
//!
//! The implementation marks the members' rating rows and filters the
//! catalog once; the definition probes every item against every member.
//! Coverage: seeded random matrices (empty rows, fully rated rows,
//! members who rate nothing) and groups of one member up to every user.

use greca_cf::candidate_items;
use greca_dataset::{Group, ItemId, RatingMatrix, RatingMatrixBuilder, UserId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn random_matrix(rng: &mut StdRng) -> RatingMatrix {
    let n = rng.random_range(1usize..12);
    let m = rng.random_range(1usize..40);
    let mut b = RatingMatrixBuilder::new(n, m);
    for u in 0..n as u32 {
        // Per-user density, so some rows are empty and some full.
        let density = rng.random_range(0u32..=100) as f64 / 100.0;
        for i in 0..m as u32 {
            if rng.random::<f64>() < density {
                b.rate(UserId(u), ItemId(i), rng.random_range(1u32..=5) as f32, 0);
            }
        }
    }
    b.build()
}

/// The filter definition: probe every item against every member.
fn by_definition(matrix: &RatingMatrix, group: &Group) -> Vec<ItemId> {
    matrix
        .items()
        .filter(|&i| group.members().iter().all(|&u| !matrix.has_rated(u, i)))
        .collect()
}

#[test]
fn candidate_items_match_the_filter_definition() {
    let mut rng = StdRng::seed_from_u64(0xCA7D);
    for case in 0..500 {
        let matrix = random_matrix(&mut rng);
        let n = matrix.num_users() as u32;
        let size = rng.random_range(1..=n);
        let members: Vec<UserId> = (0..size).map(|_| UserId(rng.random_range(0..n))).collect();
        let group = Group::new(members).expect("non-empty");
        assert_eq!(
            candidate_items(&matrix, &group),
            by_definition(&matrix, &group),
            "case {case}: group {:?}",
            group.members()
        );
    }
}
