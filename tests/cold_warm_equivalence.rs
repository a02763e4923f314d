//! Cold-vs-warm serving equivalence on real CF inputs.
//!
//! A warm [`GrecaEngine`] answers from the precomputed `Substrate`
//! (zero-copy preference views, rank-ordered affinity lists, cached
//! group-affinity views); a cold engine materializes every query from
//! scratch. The contract: **bit-identical results** — same itemsets,
//! same bounds, same access statistics — across affinity modes,
//! consensus functions and list layouts, for full-universe, subset,
//! shuffled and defaulted itemsets, solo or batched.

use greca::cf::group_preference_lists;
use greca::core::{greca_topk_with, MaterializedInputs, Substrate};
use greca::prelude::*;
use greca_bench::baselines::{naive_topk, ta_topk};

struct World {
    ml: greca_dataset::MovieLens,
    net: greca_dataset::SocialNetwork,
    timeline: Timeline,
}

fn world() -> World {
    let ml = MovieLensConfig::small().generate();
    let net = SocialConfig::tiny().generate();
    let timeline =
        Timeline::discretize(0, net.horizon(), Granularity::Season).expect("valid horizon");
    World { ml, net, timeline }
}

fn population(w: &World) -> PopulationAffinity {
    let universe: Vec<UserId> = w.net.users().collect();
    PopulationAffinity::build(&SocialAffinitySource::new(&w.net), &universe, &w.timeline)
}

/// Assert two preparations of the same query are bit-identical under
/// GRECA and both §4.2 baselines.
fn assert_identical(cold: &PreparedQuery, warm: &PreparedQuery, ctx: &str) {
    assert_eq!(cold.run(), warm.run(), "greca mismatch: {ctx}");
    assert_eq!(ta_topk(cold), ta_topk(warm), "ta mismatch: {ctx}");
    assert_eq!(naive_topk(cold), naive_topk(warm), "naive mismatch: {ctx}");
    assert_eq!(
        cold.exact_scores(),
        warm.exact_scores(),
        "exact-score mismatch: {ctx}"
    );
}

/// The arena-independent cold reference for a default-shaped query
/// (discrete affinity at the last period, decomposed lists, AP
/// consensus, normalized rpref, GRECA): each member's list sorted by
/// [`MaterializedInputs::build`] and run by the kernel directly, so it
/// shares no preparation code with `GroupQuery`.
fn materialized_reference(
    provider: &dyn PreferenceProvider,
    pop: &PopulationAffinity,
    group: &Group,
    items: &[ItemId],
    k: usize,
) -> TopKResult {
    let period = pop.num_periods() - 1;
    let affinity = pop.group_view(group, period, AffinityMode::Discrete);
    let lists = group_preference_lists(provider, group, items).expect("finite scores");
    let inputs =
        MaterializedInputs::build(&lists, &affinity, ListLayout::Decomposed).expect("finite");
    greca_topk_with(
        &inputs.views(),
        &affinity,
        ConsensusFunction::average_preference(),
        true,
        GrecaConfig::top(k),
        &mut GrecaScratch::default(),
    )
}

#[test]
fn warm_engine_equals_cold_across_modes_consensus_layouts() {
    let w = world();
    let cf = UserCfModel::fit(&w.ml.matrix, CfConfig::default());
    let pop = population(&w);
    let items: Vec<ItemId> = w.ml.matrix.items().take(120).collect();
    let cold_engine = GrecaEngine::new(&cf, &pop);
    let warm_engine = GrecaEngine::warm(&cf, &pop, &items).expect("finite CF scores");
    assert!(warm_engine.is_warm() && !cold_engine.is_warm());

    let group = Group::new(vec![UserId(1), UserId(3), UserId(6)]).unwrap();
    let period = w.timeline.num_periods() - 1;
    for mode in [
        AffinityMode::None,
        AffinityMode::StaticOnly,
        AffinityMode::Discrete,
        AffinityMode::continuous(),
    ] {
        for consensus in [
            ConsensusFunction::average_preference(),
            ConsensusFunction::least_misery(),
            ConsensusFunction::pairwise_disagreement(0.8),
            ConsensusFunction::variance_disagreement(0.5),
        ] {
            for layout in [ListLayout::Decomposed, ListLayout::Single] {
                let mk = |engine: &GrecaEngine<'_>| {
                    engine
                        .query(&group)
                        .items(&items)
                        .period(period)
                        .affinity(mode)
                        .consensus(consensus)
                        .layout(layout)
                        .top(6)
                        .prepare()
                        .unwrap()
                };
                let cold = mk(&cold_engine);
                let warm = mk(&warm_engine);
                assert!(!cold.is_warm(), "cold engine must materialize");
                assert!(warm.is_warm(), "warm engine must serve views");
                let ctx = format!("{mode:?}/{}/{layout:?}", consensus.label());
                assert_identical(&cold, &warm, &ctx);
            }
        }
    }
}

#[test]
fn itemset_shape_never_changes_results() {
    // The substrate serves the full universe zero-copy, subsets via an
    // order-preserving filter, and arbitrary input order must not
    // matter; every shape stays bit-identical to cold materialization.
    let w = world();
    let cf = UserCfModel::fit(&w.ml.matrix, CfConfig::default());
    let pop = population(&w);
    let universe: Vec<ItemId> = w.ml.matrix.items().take(150).collect();
    let cold_engine = GrecaEngine::new(&cf, &pop);
    let warm_engine = GrecaEngine::warm(&cf, &pop, &universe).expect("finite CF scores");
    let group = Group::new(vec![UserId(0), UserId(2), UserId(5)]).unwrap();

    // Reversed full universe (same set, different order).
    let mut reversed = universe.clone();
    reversed.reverse();
    // A strict subset, deliberately unsorted.
    let mut subset: Vec<ItemId> = universe.iter().copied().step_by(3).collect();
    subset.reverse();

    for (label, itemset) in [
        ("full", universe.clone()),
        ("reversed", reversed),
        ("subset", subset),
    ] {
        let cold = cold_engine
            .query(&group)
            .items(&itemset)
            .top(5)
            .prepare()
            .unwrap();
        let warm = warm_engine
            .query(&group)
            .items(&itemset)
            .top(5)
            .prepare()
            .unwrap();
        assert!(warm.is_warm(), "{label} itemset must be substrate-served");
        assert_identical(&cold, &warm, label);
    }

    // An itemset with an item outside the substrate's universe falls
    // back to cold materialization — transparently, same results.
    let foreign: Vec<ItemId> = w.ml.matrix.items().take(160).collect();
    if foreign.len() > universe.len() {
        let cold = cold_engine
            .query(&group)
            .items(&foreign)
            .top(5)
            .prepare()
            .unwrap();
        let fallback = warm_engine
            .query(&group)
            .items(&foreign)
            .top(5)
            .prepare()
            .unwrap();
        assert!(!fallback.is_warm(), "foreign items must fall back cold");
        assert_identical(&cold, &fallback, "foreign fallback");
        assert_eq!(
            fallback.run(),
            materialized_reference(&cf, &pop, &group, &foreign, 5),
            "foreign fallback vs materialized reference"
        );
    }
}

#[test]
fn defaulted_itemset_matches_cold_default() {
    // Omitting `.items(...)` resolves to the provider's candidate set on
    // both engines; on the warm engine the (strict-subset) candidate set
    // goes through the filtered view path.
    let w = world();
    let cf = UserCfModel::fit(&w.ml.matrix, CfConfig::default());
    let pop = population(&w);
    let catalog: Vec<ItemId> = w.ml.matrix.items().collect();
    let cold_engine = GrecaEngine::new(&cf, &pop);
    let warm_engine = GrecaEngine::warm(&cf, &pop, &catalog).expect("finite CF scores");
    let group = Group::new(vec![UserId(0), UserId(4)]).unwrap();
    let cold = cold_engine.query(&group).top(5).prepare().unwrap();
    let warm = warm_engine.query(&group).top(5).prepare().unwrap();
    assert!(warm.is_warm());
    assert_identical(&cold, &warm, "defaulted itemset");
    let candidates = greca::cf::candidate_items(&w.ml.matrix, &group);
    assert_eq!(
        warm.run(),
        materialized_reference(&cf, &pop, &group, &candidates, 5),
        "defaulted itemset vs materialized reference"
    );
}

#[test]
fn warm_batch_shares_one_substrate_and_matches_solo_runs() {
    let w = world();
    let cf = UserCfModel::fit(&w.ml.matrix, CfConfig::default());
    let pop = population(&w);
    let items: Vec<ItemId> = w.ml.matrix.items().take(150).collect();
    let engine = GrecaEngine::warm(&cf, &pop, &items).expect("finite CF scores");
    let groups: Vec<Group> = [[0u32, 1, 2], [3, 4, 5], [6, 7, 8], [0, 4, 8]]
        .iter()
        .map(|m| Group::new(m.iter().map(|&u| UserId(u)).collect()).unwrap())
        .collect();
    let queries: Vec<GroupQuery> = groups
        .iter()
        .map(|g| engine.query(g).items(&items).top(5))
        .collect();
    let batch = engine.run_batch(&queries);
    for (q, r) in queries.iter().zip(&batch.results) {
        let solo = q.run().expect("valid query");
        let batched = r.as_ref().expect("valid query");
        assert_eq!(&solo, batched, "batched result must equal solo run");
    }
    // The cohort of 9 users shares one substrate's buffers; the engine
    // reports it as warm and the substrate covers every queried group.
    let substrate = engine.substrate().expect("warm engine has a substrate");
    for g in &groups {
        assert!(substrate.covers_group(g));
    }
}

#[test]
fn stale_epoch_affinity_views_are_never_served_after_swap() {
    // Every preparation computes its group's affinity view from the
    // population index, which an ingest swap leaves alone: a post-swap
    // query's view equals the pre-swap one in value, and each pin stays
    // on its own epoch.
    let w = world();
    let pop = population(&w);
    let items: Vec<ItemId> = w.ml.matrix.items().take(80).collect();
    let live = LiveEngine::new(
        &pop,
        LiveModel::UserCf(CfConfig::default()),
        &w.ml.matrix,
        &items,
    )
    .expect("finite CF scores");
    let group = Group::new(vec![UserId(0), UserId(3)]).unwrap();

    let pin0 = live.pin();
    let q1 = pin0
        .engine()
        .query(&group)
        .items(&items)
        .top(3)
        .prepare()
        .unwrap();

    let report = live
        .ingest(&[Rating {
            user: UserId(3),
            item: items[0],
            value: 5.0,
            ts: 1,
        }])
        .unwrap();
    assert_eq!(report.epoch, 1);

    let pin1 = live.pin();
    let q3 = pin1
        .engine()
        .query(&group)
        .items(&items)
        .top(3)
        .prepare()
        .unwrap();
    // Affinity is social-derived, so the recomputed view is *equal* in
    // value.
    assert_eq!(q1.affinity(), q3.affinity());
    assert_eq!(pin0.epoch(), 0);
    assert_eq!(pin1.epoch(), 1);
}

#[test]
fn live_pinned_queries_match_dedicated_warm_engines() {
    // The live layer is plumbing around the same substrate machinery:
    // a pinned epoch's queries must be bit-identical to a standalone
    // warm engine built from the same ratings.
    let w = world();
    let pop = population(&w);
    let items: Vec<ItemId> = w.ml.matrix.items().take(80).collect();
    let live = LiveEngine::new(
        &pop,
        LiveModel::UserCf(CfConfig::default()),
        &w.ml.matrix,
        &items,
    )
    .expect("finite CF scores");
    // Stream a few ratings, then compare the final epoch.
    live.ingest(&[
        Rating {
            user: UserId(1),
            item: items[2],
            value: 4.5,
            ts: 1,
        },
        Rating {
            user: UserId(5),
            item: items[7],
            value: 1.0,
            ts: 2,
        },
    ])
    .unwrap();
    let pin = live.pin();
    let cf = UserCfModel::fit(pin.matrix(), CfConfig::default());
    let reference = GrecaEngine::warm(&cf, &pop, &items).expect("finite CF scores");
    for members in [[0u32, 3], [1, 5], [2, 7]] {
        let group = Group::new(members.iter().map(|&u| UserId(u)).collect()).unwrap();
        let warm = pin
            .engine()
            .query(&group)
            .items(&items)
            .top(5)
            .prepare()
            .unwrap();
        let standalone = reference
            .query(&group)
            .items(&items)
            .top(5)
            .prepare()
            .unwrap();
        assert!(warm.is_warm() && standalone.is_warm());
        assert_identical(&warm, &standalone, &format!("group {members:?}"));
    }
}

#[test]
fn shared_substrate_serves_multiple_engines() {
    // A Substrate built once can warm several engines (the sharding
    // shape: one storage, many serving facades).
    let w = world();
    let cf = UserCfModel::fit(&w.ml.matrix, CfConfig::default());
    let pop = population(&w);
    let items: Vec<ItemId> = w.ml.matrix.items().take(100).collect();
    let substrate =
        std::sync::Arc::new(Substrate::build(&cf, &pop, &items).expect("finite CF scores"));
    let a = GrecaEngine::with_substrate(&cf, &pop, std::sync::Arc::clone(&substrate));
    let b = GrecaEngine::with_substrate(&cf, &pop, std::sync::Arc::clone(&substrate));
    let group = Group::new(vec![UserId(1), UserId(2)]).unwrap();
    let ra = a.query(&group).items(&items).top(4).run().unwrap();
    let rb = b.query(&group).items(&items).top(4).run().unwrap();
    assert_eq!(ra, rb);
    assert!(substrate.pref_bytes() > 0);
}
