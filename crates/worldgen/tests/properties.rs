//! Property tests over generated worlds: every tier yields valid
//! substrates, and identical seeds are byte-reproducible.
//!
//! Big tiers are structurally scaled down (fewer users, same generator,
//! same catalog shape ratios) so the whole suite stays test-sized; the
//! full populations are exercised by the `world_scale` bench.

use greca_cf::preference_list;
use greca_core::{BuildOptions, SegmentHandle, Substrate};
use greca_dataset::UserId;
use greca_worldgen::{GenWorld, Tier, WorldSpec, ALL_TIERS};

/// A test-sized spec that keeps the tier's structure (periods, cluster
/// count, Zipf exponent, serving/catalog ratio) but caps the sizes.
fn scaled(tier: Tier) -> WorldSpec {
    let full = tier.spec();
    let num_users = full.num_users.min(300);
    WorldSpec {
        num_users,
        num_items: full.num_items.min(600),
        serving_items: full.serving_items.min(250),
        cohort: full.cohort.min(24),
        mean_ratings_per_user: full.mean_ratings_per_user.min(20.0),
        ..full
    }
}

/// A column's entries in list order: ids and score bits.
fn entries(h: &SegmentHandle) -> Vec<(u32, u64)> {
    h.view(0).iter().map(|(i, s)| (i, s.to_bits())).collect()
}

/// Validity of one substrate over a generated world: finite scores,
/// lists sorted by the strict (score desc, id asc) order, full item
/// coverage per segment.
fn assert_valid_substrate(world: &GenWorld, substrate: &Substrate) {
    let provider = world.provider();
    let m = substrate.num_items();
    for idx in 0..substrate.users().len() {
        let h = substrate.segment_handle(&provider, idx).unwrap();
        let (ids, scores): (Vec<u32>, Vec<f64>) = h.view(0).iter().unzip();
        assert_eq!(ids.len(), m);
        for s in &scores {
            assert!(s.is_finite() && *s >= 0.0, "finite non-negative scores");
        }
        for i in 1..m {
            let strictly_descending =
                scores[i - 1] > scores[i] || (scores[i - 1] == scores[i] && ids[i - 1] < ids[i]);
            assert!(
                strictly_descending,
                "list must strictly descend by (score, then id): \
                 ({}, {}) before ({}, {})",
                ids[i - 1],
                scores[i - 1],
                ids[i],
                scores[i]
            );
        }
        let mut sorted = ids;
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), m, "every universe item appears once");
    }
}

#[test]
fn every_tier_yields_valid_substrates() {
    for tier in ALL_TIERS {
        let world = GenWorld::build(scaled(tier));
        let items = world.serving_items();
        let (eager, lazy) = {
            // Mirror the tier's residency split on the scaled world:
            // 1M leaves the non-cohort population lazy.
            let (e, l) = world.substrate_users();
            (e, l)
        };
        let substrate = Substrate::build_with(
            &world.provider(),
            &world.population,
            &items,
            &eager,
            &lazy,
            BuildOptions::default(),
        )
        .unwrap_or_else(|e| panic!("tier {tier}: {e:?}"));
        assert_eq!(substrate.users().len(), world.spec.num_users);
        assert_valid_substrate(&world, &substrate);
    }
}

#[test]
fn affinity_pairs_are_symmetric_across_tiers() {
    use greca_affinity::AffinitySource;
    for tier in ALL_TIERS {
        let spec = scaled(tier);
        let world = GenWorld::build(spec);
        let src = world.affinity_source();
        let cohort = world.cohort_users();
        for (i, &u) in cohort.iter().enumerate() {
            for &v in &cohort[i + 1..] {
                assert_eq!(
                    src.static_raw(u, v).to_bits(),
                    src.static_raw(v, u).to_bits(),
                    "tier {tier}: static affinity must be symmetric"
                );
                for &p in world.timeline.periods() {
                    assert_eq!(
                        src.periodic_raw(u, v, p).to_bits(),
                        src.periodic_raw(v, u, p).to_bits(),
                        "tier {tier}: periodic affinity must be symmetric"
                    );
                }
            }
        }
        // The built index agrees with itself when rebuilt — the
        // population layer sees one value per unordered pair.
        assert!(world.population.num_pairs() > 0);
    }
}

#[test]
fn identical_seeds_are_byte_reproducible_per_tier() {
    for tier in ALL_TIERS {
        let spec = scaled(tier);
        let a = GenWorld::build(spec);
        let b = GenWorld::build(spec);
        for u in 0..spec.num_users as u32 {
            let (ra, rb) = (
                a.matrix.user_ratings(UserId(u)),
                b.matrix.user_ratings(UserId(u)),
            );
            assert_eq!(ra.len(), rb.len());
            for (x, y) in ra.iter().zip(rb) {
                assert_eq!(x.0, y.0);
                assert_eq!(x.1.to_bits(), y.1.to_bits(), "bytes, not approx");
            }
        }
        // Substrates built from the two worlds are bit-identical too.
        let items = a.serving_items();
        let sa = Substrate::build(&a.provider(), &a.population, &items).unwrap();
        let sb = Substrate::build(&b.provider(), &b.population, &items).unwrap();
        for idx in 0..sa.users().len().min(20) {
            let (ha, hb) = (
                sa.segment_handle(&a.provider(), idx).unwrap(),
                sb.segment_handle(&b.provider(), idx).unwrap(),
            );
            assert_eq!(entries(&ha), entries(&hb));
        }
        // Streams and workloads reproduce as well.
        assert_eq!(a.rating_stream(40, 3), b.rating_stream(40, 3));
        let (ga, gb) = (
            a.group_workload(6, 4, 0.5, 9),
            b.group_workload(6, 4, 0.5, 9),
        );
        assert_eq!(
            ga.iter().map(|g| g.members().to_vec()).collect::<Vec<_>>(),
            gb.iter().map(|g| g.members().to_vec()).collect::<Vec<_>>()
        );
    }
}

#[test]
fn quantized_substrate_is_bit_identical_at_study_shape() {
    // The serving lists' score sets are tiny (star ratings), so every
    // column is stored as dictionary codes, and dequantization must reproduce
    // the provider's sorted list bit for bit.
    let world = GenWorld::build(scaled(Tier::Study));
    let items = world.serving_items();
    let provider = world.provider();
    let all: Vec<UserId> = (0..world.spec.num_users as u32).map(UserId).collect();
    let quant = Substrate::build_with(
        &provider,
        &world.population,
        &items,
        &all,
        &[],
        BuildOptions::default(),
    )
    .unwrap();
    for (idx, &u) in all.iter().enumerate() {
        let (ids, scores) = preference_list(&provider, u, &items)
            .unwrap()
            .into_sorted_columns();
        let hq = quant.segment_handle(&provider, idx).unwrap();
        let want: Vec<(u32, u64)> = ids
            .iter()
            .zip(&scores)
            .map(|(&i, s)| (i, s.to_bits()))
            .collect();
        assert_eq!(entries(&hq), want);
    }
    // Dense storage is a `u32` id plus an `f64` score per entry.
    let dense_bytes = all.len() * items.len() * 12;
    assert!(
        (quant.pref_bytes() as f64) < 0.6 * dense_bytes as f64,
        "quantized storage at least 40% smaller: {} vs {}",
        quant.pref_bytes(),
        dense_bytes
    );
}

#[test]
fn generated_worlds_drive_the_engine_end_to_end() {
    use greca_core::GrecaEngine;
    let world = GenWorld::build(scaled(Tier::Users10k));
    let items = world.serving_items();
    let provider = world.provider();
    let engine =
        GrecaEngine::warm_for(&provider, &world.population, &items, &world.cohort_users()).unwrap();
    for group in world.group_workload(5, 4, 0.5, 2) {
        let top = engine.query(&group).items(&items).top(5).run().unwrap();
        assert_eq!(top.items.len(), 5);
        for it in &top.items {
            assert!(it.lb.is_finite() && it.ub.is_finite());
            assert!((it.item.0 as usize) < world.spec.serving_items);
        }
    }
}
