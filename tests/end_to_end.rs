//! Cross-crate integration: the full pipeline from raw synthetic data to
//! GRECA recommendations, validated against the naive oracle on real CF
//! inputs (not hand-built tables) — all through the `GrecaEngine` query
//! API.

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

fn prepared(
    w: &World,
    cf: &UserCfModel<'_>,
    population: &PopulationAffinity,
    members: Vec<u32>,
    mode: AffinityMode,
    n_items: usize,
) -> PreparedQuery {
    let group = Group::new(members.into_iter().map(UserId).collect()).expect("non-empty");
    let items: Vec<ItemId> = w.ml.matrix.items().take(n_items).collect();
    GrecaEngine::new(cf, population)
        .query(&group)
        .items(&items)
        .period(w.timeline.num_periods() - 1)
        .affinity(mode)
        .prepare()
        .expect("valid query")
}

#[test]
fn full_pipeline_matches_naive_across_configs() {
    let w = world();
    let cf = UserCfModel::fit(&w.ml.matrix, CfConfig::default());
    let universe: Vec<UserId> = w.net.users().collect();
    let population =
        PopulationAffinity::build(&SocialAffinitySource::new(&w.net), &universe, &w.timeline);

    for mode in [
        AffinityMode::None,
        AffinityMode::StaticOnly,
        AffinityMode::Discrete,
        AffinityMode::continuous(),
    ] {
        for consensus in [
            ConsensusFunction::average_preference(),
            ConsensusFunction::least_misery(),
            ConsensusFunction::pairwise_disagreement(0.2),
            ConsensusFunction::variance_disagreement(0.5),
        ] {
            let k = 7;
            let p = prepared(&w, &cf, &population, vec![0, 2, 5], mode, 120)
                .consensus(consensus)
                .top(k);
            let greca = p.run();
            let naive = naive_topk(&p);
            let exact = p.exact_scores();
            let score_of =
                |item: ItemId| exact.iter().find(|&&(i, _)| i == item).expect("scored").1;
            let mut got: Vec<f64> = greca.item_ids().iter().map(|&i| score_of(i)).collect();
            got.sort_by(|a, b| b.partial_cmp(a).unwrap());
            for (g, n) in got.iter().zip(naive.items.iter()) {
                assert!(
                    (g - n.lb).abs() < 1e-9,
                    "{mode:?}/{}: {g} vs naive {}",
                    consensus.label(),
                    n.lb
                );
            }
            assert!(greca.stats.sa <= naive.stats.sa);
        }
    }
}

#[test]
fn ta_and_threshold_only_agree_with_naive_end_to_end() {
    let w = world();
    let cf = UserCfModel::fit(&w.ml.matrix, CfConfig::default());
    let universe: Vec<UserId> = w.net.users().collect();
    let population =
        PopulationAffinity::build(&SocialAffinitySource::new(&w.net), &universe, &w.timeline);
    let p = prepared(
        &w,
        &cf,
        &population,
        vec![1, 3, 4],
        AffinityMode::Discrete,
        100,
    )
    .top(5);
    let naive = naive_topk(&p);
    let ta = ta_topk(&p);
    let nra = p.clone().stopping(StoppingRule::ThresholdOnly).run();
    let exact = p.exact_scores();
    let score_of = |item: ItemId| exact.iter().find(|&&(i, _)| i == item).expect("scored").1;
    for r in [&ta, &nra] {
        let mut got: Vec<f64> = r.item_ids().iter().map(|&i| score_of(i)).collect();
        got.sort_by(|a, b| b.partial_cmp(a).unwrap());
        for (g, n) in got.iter().zip(naive.items.iter()) {
            assert!((g - n.lb).abs() < 1e-9);
        }
    }
    assert!(ta.stats.ra > 0, "TA must pay random accesses");
    assert_eq!(nra.stats.ra, 0, "GRECA variants make no random accesses");
}

#[test]
fn different_groups_get_different_lists() {
    // The paper's premise end-to-end: recommendations are group-relative.
    let w = world();
    let cf = UserCfModel::fit(&w.ml.matrix, CfConfig::default());
    let universe: Vec<UserId> = w.net.users().collect();
    let population =
        PopulationAffinity::build(&SocialAffinitySource::new(&w.net), &universe, &w.timeline);
    let a = prepared(
        &w,
        &cf,
        &population,
        vec![0, 1, 2],
        AffinityMode::Discrete,
        200,
    )
    .run();
    let b = prepared(
        &w,
        &cf,
        &population,
        vec![6, 7, 8],
        AffinityMode::Discrete,
        200,
    )
    .run();
    assert_ne!(a.item_ids(), b.item_ids());
}

#[test]
fn k_larger_than_catalog_returns_everything() {
    let w = world();
    let cf = UserCfModel::fit(&w.ml.matrix, CfConfig::default());
    let universe: Vec<UserId> = w.net.users().collect();
    let population =
        PopulationAffinity::build(&SocialAffinitySource::new(&w.net), &universe, &w.timeline);
    let r = prepared(&w, &cf, &population, vec![0, 1], AffinityMode::Discrete, 8)
        .top(50)
        .run();
    assert_eq!(r.items.len(), 8);
}

#[test]
fn batch_queries_match_individual_runs() {
    // run_batch is a pure execution strategy: per-query results must be
    // bit-identical to running the same queries one at a time, and the
    // aggregated stats must be their sum.
    let w = world();
    let cf = UserCfModel::fit(&w.ml.matrix, CfConfig::default());
    let universe: Vec<UserId> = w.net.users().collect();
    let population =
        PopulationAffinity::build(&SocialAffinitySource::new(&w.net), &universe, &w.timeline);
    let engine = GrecaEngine::new(&cf, &population);
    let groups: Vec<Group> = [[0u32, 1, 2], [3, 4, 5], [6, 7, 8], [0, 4, 8]]
        .iter()
        .map(|m| Group::new(m.iter().map(|&u| UserId(u)).collect()).unwrap())
        .collect();
    let items: Vec<ItemId> = w.ml.matrix.items().take(150).collect();
    let queries: Vec<GroupQuery> = groups
        .iter()
        .map(|g| engine.query(g).items(&items).top(5))
        .collect();
    let batch = engine.run_batch(&queries);
    assert_eq!(batch.results.len(), queries.len());
    let mut sa_sum = 0;
    for (q, r) in queries.iter().zip(&batch.results) {
        let solo = q.run().expect("valid query");
        let batched = r.as_ref().expect("valid query");
        assert_eq!(solo.item_ids(), batched.item_ids());
        assert_eq!(solo.stats, batched.stats);
        sa_sum += solo.stats.sa;
    }
    assert_eq!(batch.stats.sa, sa_sum);
    let agg = batch.sa_percent_aggregate();
    assert_eq!(agg.n, queries.len());
    assert!(agg.mean > 0.0 && agg.mean <= 100.0);
}

#[test]
fn batch_handles_empty_and_oversubscribed_inputs() {
    // The worker pool is capped by available_parallelism and fed from
    // one shared queue: an empty batch is a no-op, and far more queries
    // than cores must all complete exactly once.
    let w = world();
    let cf = UserCfModel::fit(&w.ml.matrix, CfConfig::default());
    let universe: Vec<UserId> = w.net.users().collect();
    let population =
        PopulationAffinity::build(&SocialAffinitySource::new(&w.net), &universe, &w.timeline);
    let engine = GrecaEngine::new(&cf, &population);

    let empty = engine.run_batch(&[]);
    assert!(empty.results.is_empty());
    assert_eq!(empty.stats.sa, 0);

    let group = Group::new(vec![UserId(0), UserId(1)]).unwrap();
    let items: Vec<ItemId> = w.ml.matrix.items().take(40).collect();
    let queries: Vec<GroupQuery> =
        vec![engine.query(&group).items(&items).top(3); 3 * num_cpus_hint()];
    let batch = engine.run_batch(&queries);
    assert_eq!(batch.results.len(), queries.len());
    let first = batch.results[0].as_ref().expect("valid query");
    for r in &batch.results {
        assert_eq!(r.as_ref().expect("valid query"), first);
    }
}

fn num_cpus_hint() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[test]
fn incremental_index_supports_midyear_queries() {
    // Query after every append; results at period p must match a
    // batch-built index queried at p.
    let w = world();
    let cf = UserCfModel::fit(&w.ml.matrix, CfConfig::default());
    let universe: Vec<UserId> = w.net.users().collect();
    let source = SocialAffinitySource::new(&w.net);
    let batch = PopulationAffinity::build(&source, &universe, &w.timeline);
    let mut inc = PopulationAffinity::new_static_only(&source, &universe);
    for (p_idx, &period) in w.timeline.periods().iter().enumerate() {
        inc.append_period(&source, period);
        let group = Group::new(vec![UserId(0), UserId(3), UserId(5)]).unwrap();
        let items: Vec<ItemId> = w.ml.matrix.items().take(60).collect();
        let a = GrecaEngine::new(&cf, &inc)
            .query(&group)
            .items(&items)
            .period(p_idx)
            .top(5)
            .run()
            .expect("valid incremental query");
        let b = GrecaEngine::new(&cf, &batch)
            .query(&group)
            .items(&items)
            .period(p_idx)
            .top(5)
            .run()
            .expect("valid batch query");
        assert_eq!(a.item_ids(), b.item_ids(), "period {p_idx}");
    }
}
