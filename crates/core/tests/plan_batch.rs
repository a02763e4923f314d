//! Bit-identity of the batch planner.
//!
//! Every sharing lever in `greca_core::plan` — QueryKey dedup, the
//! shared member-state arena, overlap-bucketed scheduling — must change
//! *nothing* observable: a planned wave's per-query results (itemsets,
//! `[LB, UB]` envelopes, access counts, sweeps, stop reasons) and its
//! summed batch statistics must equal running each query alone with
//! `GroupQuery::run`, exactly, on every storage path the planner can
//! route through (cold, warm full-universe, warm subset-filtered,
//! warm-with-cold-fallback) and for waves mixing engines. Identity is
//! asserted with full `TopKResult` equality — the same oracle
//! discipline as `kernel_identity.rs`.

use greca_affinity::{PopulationAffinity, TableAffinitySource};
use greca_cf::RawRatings;
use greca_core::{run_batch, AccessStats, GrecaEngine, GroupQuery, SharedMemberState};
use greca_dataset::{
    Granularity, Group, ItemId, RatingMatrix, RatingMatrixBuilder, Timeline, UserId,
};

const USERS: usize = 12;
const ITEMS: usize = 24;

/// A deterministic world: 12 users × 24 items with interleaved ratings
/// (so candidate sets differ per group), static affinity on a chain of
/// consecutive users plus a few long-range pairs, two periods.
fn world() -> (RatingMatrix, PopulationAffinity, Vec<ItemId>) {
    let mut b = RatingMatrixBuilder::new(USERS, ITEMS);
    for u in 0..USERS as u32 {
        for i in 0..ITEMS as u32 {
            // Sparse, user-dependent pattern; scores vary per (u, i).
            if (u + i) % 3 == 0 {
                let score = 1.0 + ((u * 7 + i * 3) % 9) as f32 / 2.0;
                b.rate(UserId(u), ItemId(i), score, i64::from(i % 2) * 60);
            }
        }
    }
    let matrix = b.build();
    let mut src = TableAffinitySource::new();
    let tl = Timeline::discretize(0, 120, Granularity::Custom(60)).unwrap();
    for u in 0..(USERS as u32 - 1) {
        src.set_static(UserId(u), UserId(u + 1), 0.3 + f64::from(u % 5) / 10.0);
        src.set_periodic(
            UserId(u),
            UserId(u + 1),
            tl.periods()[(u % 2) as usize].start,
            0.2 + f64::from(u % 3) / 10.0,
        );
    }
    src.set_static(UserId(0), UserId(5), 0.9)
        .set_static(UserId(2), UserId(9), 0.6);
    let users: Vec<UserId> = (0..USERS as u32).map(UserId).collect();
    let pop = PopulationAffinity::build(&src, &users, &tl);
    let items: Vec<ItemId> = (0..ITEMS as u32).map(ItemId).collect();
    (matrix, pop, items)
}

/// Overlapping groups: group `g` holds users `{g, g+1, g+2}`, so every
/// interior user appears in three consecutive groups.
fn overlapping_groups(n: usize) -> Vec<Group> {
    (0..n)
        .map(|g| {
            Group::new(vec![
                UserId(g as u32),
                UserId(g as u32 + 1),
                UserId(g as u32 + 2),
            ])
            .unwrap()
        })
        .collect()
}

/// Member-disjoint groups: `{0,1,2}, {3,4,5}, …` — nothing to share.
fn disjoint_groups() -> Vec<Group> {
    (0..USERS / 3)
        .map(|g| {
            let base = (g * 3) as u32;
            Group::new(vec![UserId(base), UserId(base + 1), UserId(base + 2)]).unwrap()
        })
        .collect()
}

/// Run `queries` as one planned wave and assert full equality of
/// per-query results with running each query alone, and of the summed
/// stats with the solo runs' sum; returns the planned result.
fn assert_wave_identical(queries: &[GroupQuery<'_>]) -> greca_core::BatchResult {
    let solo: Vec<_> = queries.iter().map(GroupQuery::run).collect();
    let mut solo_stats = AccessStats::default();
    for r in solo.iter().flatten() {
        solo_stats.sa += r.stats.sa;
        solo_stats.ra += r.stats.ra;
        solo_stats.total_entries += r.stats.total_entries;
    }
    let on = run_batch(queries);
    assert_eq!(solo, on.results, "planned wave drifted from solo runs");
    assert_eq!(solo_stats, on.stats, "summed access stats must match");
    on
}

#[test]
fn cold_overlapping_wave_is_bit_identical() {
    let (matrix, pop, items) = world();
    let raw = RawRatings(&matrix);
    let engine = GrecaEngine::new(&raw, &pop);
    let groups = overlapping_groups(8);
    let queries: Vec<GroupQuery<'_>> = groups
        .iter()
        .map(|g| engine.query(g).items(&items).top(5))
        .collect();
    let on = assert_wave_identical(&queries);
    let plan = on.plan;
    assert_eq!(plan.wave, 8);
    assert_eq!(plan.unique_queries, 8);
    assert!(plan.shared_member_slots > 0);
    assert!(plan.reused_members > 0, "chained groups reuse member lists");
    assert!(plan.reused_prefix_items > 0);
    assert!(
        plan.shared_member_ratio() > 0.5,
        "interior members dominate"
    );
    // The chain of overlapping groups is one connected component.
    assert_eq!(plan.buckets, 1);
}

#[test]
fn warm_full_universe_wave_is_bit_identical() {
    let (matrix, pop, items) = world();
    let raw = RawRatings(&matrix);
    let engine = GrecaEngine::warm(&raw, &pop, &items).unwrap();
    let groups = overlapping_groups(8);
    let queries: Vec<GroupQuery<'_>> = groups
        .iter()
        .map(|g| engine.query(g).items(&items).top(5))
        .collect();
    let on = assert_wave_identical(&queries);
    assert!(on.plan.reused_members > 0, "segment handles are shared");
}

#[test]
fn warm_subset_filtered_wave_is_bit_identical() {
    let (matrix, pop, items) = world();
    let raw = RawRatings(&matrix);
    let engine = GrecaEngine::warm(&raw, &pop, &items).unwrap();
    let subset = &items[..ITEMS / 2];
    let groups = overlapping_groups(8);
    let queries: Vec<GroupQuery<'_>> = groups
        .iter()
        .map(|g| engine.query(g).items(subset).top(5))
        .collect();
    let on = assert_wave_identical(&queries);
    assert!(
        on.plan.reused_prefix_items > 0,
        "filter passes are shared per (member, itemset)"
    );
}

#[test]
fn warm_engine_cold_fallback_wave_is_bit_identical() {
    let (matrix, pop, items) = world();
    let raw = RawRatings(&matrix);
    // Warm only over the first 20 items; querying items 18..22 includes
    // foreign items, so coverage fails and preparation falls back to
    // the (shared) cold path — on a warm engine.
    let engine = GrecaEngine::warm(&raw, &pop, &items[..20]).unwrap();
    let foreign = &items[18..22];
    let groups = overlapping_groups(6);
    let queries: Vec<GroupQuery<'_>> = groups
        .iter()
        .map(|g| engine.query(g).items(foreign).top(3))
        .collect();
    let on = assert_wave_identical(&queries);
    assert!(on.plan.reused_members > 0, "cold lists are shared");
}

#[test]
fn duplicate_queries_collapse_to_one_kernel_run() {
    let (matrix, pop, items) = world();
    let raw = RawRatings(&matrix);
    let engine = GrecaEngine::warm(&raw, &pop, &items).unwrap();
    let group = Group::new(vec![UserId(3), UserId(4), UserId(5)]).unwrap();
    let shuffled: Vec<ItemId> = items.iter().rev().copied().collect();
    let queries: Vec<GroupQuery<'_>> = (0..6)
        .map(|i| {
            // Alternate itemset permutations: QueryKey canonicalization
            // must still see one query.
            if i % 2 == 0 {
                engine.query(&group).items(&items).top(5)
            } else {
                engine.query(&group).items(&shuffled).top(5)
            }
        })
        .collect();
    let on = assert_wave_identical(&queries);
    let plan = on.plan;
    assert_eq!(plan.unique_queries, 1);
    assert_eq!(plan.dedup_hits, 5);
    // All six slots carry the identical result.
    let first = on.results[0].as_ref().unwrap();
    for r in &on.results[1..] {
        assert_eq!(r.as_ref().unwrap(), first);
    }
}

#[test]
fn mixed_engine_wave_partitions_and_stays_identical() {
    let (matrix, pop, items) = world();
    let raw = RawRatings(&matrix);
    let cold = GrecaEngine::new(&raw, &pop);
    let warm = GrecaEngine::warm(&raw, &pop, &items).unwrap();
    let groups = overlapping_groups(6);
    let queries: Vec<GroupQuery<'_>> = groups
        .iter()
        .enumerate()
        .map(|(i, g)| {
            let engine = if i % 2 == 0 { &cold } else { &warm };
            engine.query(g).items(&items).top(4)
        })
        .collect();
    let on = assert_wave_identical(&queries);
    // Shared state never crosses engines, so the chain splits into one
    // component per engine at minimum.
    assert!(on.plan.buckets >= 2);
}

#[test]
fn zero_overlap_wave_shares_nothing() {
    let (matrix, pop, items) = world();
    let raw = RawRatings(&matrix);
    let engine = GrecaEngine::warm(&raw, &pop, &items).unwrap();
    let groups = disjoint_groups();
    let queries: Vec<GroupQuery<'_>> = groups
        .iter()
        .map(|g| engine.query(g).items(&items).top(5))
        .collect();
    let on = assert_wave_identical(&queries);
    let plan = on.plan;
    assert_eq!(plan.dedup_hits, 0);
    assert_eq!(plan.shared_member_slots, 0);
    assert_eq!(plan.reused_members, 0, "no member list is reused");
    assert_eq!(plan.resolved_members, plan.member_slots as u64);
}

#[test]
fn engine_clones_run_planner_off() {
    // One clone per query: the planner partitions by engine identity, so
    // every query gets its own arena and no dedup — planner-off on the
    // same executor — and the wave still matches solo runs.
    let (matrix, pop, items) = world();
    let raw = RawRatings(&matrix);
    let engine = GrecaEngine::warm(&raw, &pop, &items).unwrap();
    let groups = overlapping_groups(4);
    let clones: Vec<GrecaEngine<'_>> = (0..2 * groups.len()).map(|_| engine.clone()).collect();
    let queries: Vec<GroupQuery<'_>> = clones
        .iter()
        .zip(groups.iter().cycle())
        .map(|(e, g)| e.query(g).items(&items[..ITEMS / 2]).top(5))
        .collect();
    let plan = assert_wave_identical(&queries).plan;
    assert_eq!(plan.unique_queries, queries.len(), "no dedup across clones");
    assert_eq!(plan.shared_member_slots, 0);
    assert_eq!(plan.reused_members, 0);
    assert_eq!(plan.buckets, queries.len());
}

#[test]
fn run_shared_matches_run_for_single_queries() {
    let (matrix, pop, items) = world();
    let raw = RawRatings(&matrix);
    let subset = &items[..ITEMS / 2];
    for engine in [
        GrecaEngine::new(&raw, &pop),
        GrecaEngine::warm(&raw, &pop, &items).unwrap(),
    ] {
        let state = SharedMemberState::new();
        for g in overlapping_groups(5) {
            for items_sel in [&items[..], subset] {
                let q = engine.query(&g).items(items_sel).top(5);
                assert_eq!(q.run().unwrap(), q.run_shared(&state).unwrap());
            }
            // Defaulted (empty) itemset resolves per group and keys the
            // arena by what it resolved to.
            let q = engine.query(&g).top(5);
            assert_eq!(q.run(), q.run_shared(&state));
        }
        assert!(state.resolved_members() > 0);
        assert!(state.reused_members() > 0, "repeat members hit the arena");
        assert!(state.entries() > 0);
    }
}

#[test]
fn shared_state_caches_failures_deterministically() {
    let (matrix, pop, _items) = world();
    let raw = RawRatings(&matrix);
    let engine = GrecaEngine::new(&raw, &pop);
    let state = SharedMemberState::new();
    let group = Group::new(vec![UserId(0), UserId(1)]).unwrap();
    // Zero k fails validation identically on both paths.
    let q = engine.query(&group).top(0);
    assert_eq!(q.run(), q.run_shared(&state));
    assert!(q.run_shared(&state).is_err());
}
