//! Contract tests for the `GrecaEngine` / `GroupQuery` API:
//!
//! * builder defaults equal the paper's §4.2 settings;
//! * invalid queries fail with typed errors before any work happens;
//! * non-finite provider scores surface as typed errors, never panics.
//!
//! (The 8-argument `prepare()`/`Prepared` shims these tests once
//! guarded the migration from were deleted after their deprecation
//! window; the builder is the only entry point now.)

use greca::prelude::*;
use greca_bench::baselines::ta_topk;

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

#[test]
fn builder_defaults_are_the_paper_settings() {
    // Omitting every optional field must give §4.2's defaults: k = 10,
    // AP consensus, discrete affinity, decomposed layout, normalized
    // rpref, the latest period, GRECA. We verify behaviorally: the
    // default query equals the same query with every default spelled
    // out.
    let w = world();
    let cf = UserCfModel::fit(&w.ml.matrix, CfConfig::default());
    let pop = population(&w);
    let engine = GrecaEngine::new(&cf, &pop);
    let group = Group::new(vec![UserId(0), UserId(2), UserId(5)]).unwrap();
    let items: Vec<ItemId> = w.ml.matrix.items().take(120).collect();

    let defaulted = engine.query(&group).items(&items).run().unwrap();
    let spelled_out = engine
        .query(&group)
        .items(&items)
        .period(w.timeline.num_periods() - 1)
        .affinity(AffinityMode::Discrete)
        .layout(ListLayout::Decomposed)
        .consensus(ConsensusFunction::average_preference())
        .normalize_rpref(true)
        .top(10)
        .stopping(StoppingRule::Greca)
        .run()
        .unwrap();
    assert_eq!(defaulted, spelled_out);
    assert_eq!(defaulted.items.len(), 10, "paper default k = 10");
}

#[test]
fn validation_errors_are_typed() {
    let w = world();
    let cf = UserCfModel::fit(&w.ml.matrix, CfConfig::default());
    let pop = population(&w);
    let engine = GrecaEngine::new(&cf, &pop);
    let group = Group::new(vec![UserId(0), UserId(1)]).unwrap();
    let items: Vec<ItemId> = w.ml.matrix.items().take(20).collect();

    // An omitted itemset defaults to the provider's candidate set (every
    // catalog item no member has rated), so the matrix-backed CF engine
    // answers it — identically to spelling that set out by hand.
    let defaulted = engine.query(&group).run().expect("default itemset");
    let candidates = candidate_items(&w.ml.matrix, &group);
    let explicit = engine.query(&group).items(&candidates).run().unwrap();
    assert_eq!(
        defaulted, explicit,
        "default = candidate_items(matrix, group)"
    );

    // A provider without an item catalog cannot default the itemset:
    // only then is an omitted itemset a typed EmptyItemset error.
    struct TableProvider;
    impl PreferenceProvider for TableProvider {
        fn apref(&self, _: UserId, _: ItemId) -> f64 {
            1.0
        }
    }
    let table = TableProvider;
    let table_engine = GrecaEngine::new(&table, &pop);
    assert_eq!(
        table_engine.query(&group).run().unwrap_err(),
        QueryError::EmptyItemset
    );

    // Period beyond the index.
    let np = pop.num_periods();
    assert_eq!(
        engine
            .query(&group)
            .items(&items)
            .period(np)
            .run()
            .unwrap_err(),
        QueryError::PeriodOutOfRange {
            period: np,
            num_periods: np
        }
    );

    // k = 0.
    assert_eq!(
        engine.query(&group).items(&items).top(0).run().unwrap_err(),
        QueryError::ZeroK
    );

    // A member outside the affinity universe (social users are a strict
    // subset of the rating-matrix rows).
    let stranger = UserId(u32::MAX);
    let mixed = Group::new(vec![UserId(0), stranger]).unwrap();
    assert_eq!(
        engine.query(&mixed).items(&items).run().unwrap_err(),
        QueryError::UnknownMember(stranger)
    );

    // A temporal mode against a static-only (zero-period) index would
    // silently degrade to static scoring; it must refuse instead.
    let static_pop = PopulationAffinity::new_static_only(
        &SocialAffinitySource::new(&w.net),
        &w.net.users().collect::<Vec<UserId>>(),
    );
    let static_engine = GrecaEngine::new(&cf, &static_pop);
    assert_eq!(
        static_engine
            .query(&group)
            .items(&items)
            .affinity(AffinityMode::Discrete)
            .run()
            .unwrap_err(),
        QueryError::PeriodOutOfRange {
            period: 0,
            num_periods: 0
        }
    );
    // The non-temporal modes still answer against the same index.
    assert!(static_engine
        .query(&group)
        .items(&items)
        .affinity(AffinityMode::StaticOnly)
        .run()
        .is_ok());

    // Errors are std errors with readable messages.
    let msg = QueryError::EmptyItemset.to_string();
    assert!(msg.contains("empty"), "message: {msg}");
}

#[test]
fn query_top_k_alone_sets_result_size() {
    // `top(k)` is the only place k is stated: GRECA under every
    // stopping rule and the bench-side TA all return k items, and a
    // prepared query's own `top` retargets them all.
    let w = world();
    let cf = UserCfModel::fit(&w.ml.matrix, CfConfig::default());
    let pop = population(&w);
    let engine = GrecaEngine::new(&cf, &pop);
    let group = Group::new(vec![UserId(0), UserId(4)]).unwrap();
    let items: Vec<ItemId> = w.ml.matrix.items().take(60).collect();
    let prepared = engine.query(&group).items(&items).top(3).prepare().unwrap();
    for k in [3, 7] {
        let p = prepared.clone().top(k);
        for rule in [
            StoppingRule::Greca,
            StoppingRule::ThresholdOnly,
            StoppingRule::Exhaustive,
        ] {
            assert_eq!(p.clone().stopping(rule).run().items.len(), k, "{rule:?}");
        }
        assert_eq!(ta_topk(&p).items.len(), k, "ta");
    }
}

#[test]
fn engine_serves_any_sync_provider() {
    // The provider is a trait object: raw ratings serve through the
    // same engine type as the CF models.
    let w = world();
    let pop = population(&w);
    let raw = greca::cf::RawRatings(&w.ml.matrix);
    let engine = GrecaEngine::new(&raw, &pop);
    let group = Group::new(vec![UserId(0), UserId(1)]).unwrap();
    let items: Vec<ItemId> = w.ml.matrix.items().take(40).collect();
    let r = engine.query(&group).items(&items).top(5).run().unwrap();
    assert_eq!(r.items.len(), 5);
}

#[test]
fn builder_rejects_non_finite_scores_with_typed_error() {
    // The ingestion contract: a NaN provider score surfaces as
    // `QueryError::NonFiniteScore` naming the offending item, instead
    // of panicking deep inside list construction.
    struct Poisoned;
    impl greca::cf::PreferenceProvider for Poisoned {
        fn apref(&self, _: UserId, i: ItemId) -> f64 {
            if i == ItemId(1) {
                f64::NAN
            } else {
                1.0
            }
        }
    }

    let w = world();
    let pop = population(&w);
    let engine = GrecaEngine::new(&Poisoned, &pop);
    let group = Group::new(vec![UserId(0), UserId(1)]).unwrap();
    let items = vec![ItemId(0), ItemId(1), ItemId(2)];
    let err = engine
        .query(&group)
        .items(&items)
        .top(2)
        .prepare()
        .unwrap_err();
    match err {
        QueryError::NonFiniteScore { what } => {
            assert!(what.contains("i1"), "offending item surfaced: {what}");
        }
        other => panic!("expected NonFiniteScore, got {other:?}"),
    }
}
