//! Directional paper claims, asserted end-to-end on small worlds.
//!
//! These pin the *shape* of the reproduction: who wins, roughly by what
//! factor, and where the qualitative crossovers fall — the contract the
//! `greca-bench` figure binaries regenerate at full scale.

use greca::prelude::*;

#[test]
fn greca_saves_accesses_on_a_quality_dominated_world() {
    // §4.2's headline, scaled down. Early termination depends on
    // preference lists sharing their heads, which MovieLens-like
    // (quality-dominated) ratings produce: every rating carries the
    // item's quality term, so the same items lead every member's list.
    // We build a mid-size world with the perf calibration and require a
    // real saveup.
    let mut config = WorldConfig::scalability_scale();
    config.movielens.num_users = 2_000;
    config.movielens.num_items = 1_200;
    config.movielens.target_ratings = 300_000;
    config.cf.top_n = 150;
    let world = config.build();
    let cf = world.cf_model_for(&world.study_users());
    let users = world.study_users();
    let mut total = 0.0;
    for s in 0..3 {
        let group = Group::new(users[s * 6..s * 6 + 6].to_vec()).unwrap();
        let items: Vec<ItemId> = world.movielens.matrix.items().take(1_200).collect();
        let r = GrecaEngine::new(&cf, &world.population)
            .query(&group)
            .items(&items)
            .normalize_rpref(false)
            .run()
            .expect("valid query");
        total += r.stats.sa_percent();
    }
    let mean = total / 3.0;
    assert!(
        mean < 70.0,
        "GRECA should terminate early on average, read {mean:.1}%"
    );
}

#[test]
fn pd_with_heavier_disagreement_weight_stops_earlier() {
    // Figure 8: "PD V2 [w1=0.2] outperforms PD V1 [w1=0.8] … a higher
    // weight on disagreement allows faster stopping, because the items
    // have smaller scores."
    let world = WorldConfig::study_scale().build();
    let cf = world.cf_model_for(&world.study_users());
    let users = world.study_users();
    let items: Vec<ItemId> = world.movielens.matrix.items().take(400).collect();
    let mut v1_total = 0.0;
    let mut v2_total = 0.0;
    for s in 0..4u32 {
        let group = Group::new(users[(s as usize) * 6..(s as usize) * 6 + 6].to_vec()).unwrap();
        let p = GrecaEngine::new(&cf, &world.population)
            .query(&group)
            .items(&items)
            .normalize_rpref(false)
            .prepare()
            .expect("valid query");
        v1_total += p
            .run_with(ConsensusFunction::pairwise_disagreement(0.8))
            .stats
            .sa_percent();
        v2_total += p
            .run_with(ConsensusFunction::pairwise_disagreement(0.2))
            .stats
            .sa_percent();
    }
    assert!(
        v2_total <= v1_total * 1.1,
        "PD V2 ({v2_total:.1}) should not read much more than PD V1 ({v1_total:.1})"
    );
}

#[test]
fn discrete_and_continuous_costs_are_comparable() {
    // §4.2.4: 16.32% vs 16.6% — "the number of accesses for both methods
    // are very similar". We allow a generous factor-2 band.
    let world = WorldConfig::study_scale().build();
    let cf = world.cf_model_for(&world.study_users());
    let users = world.study_users();
    let group = Group::new(users[..6].to_vec()).unwrap();
    let items: Vec<ItemId> = world.movielens.matrix.items().take(400).collect();
    let engine = GrecaEngine::new(&cf, &world.population);
    let run = |mode: AffinityMode| {
        engine
            .query(&group)
            .items(&items)
            .affinity(mode)
            .normalize_rpref(false)
            .run()
            .expect("valid query")
            .stats
            .sa_percent()
    };
    let d = run(AffinityMode::Discrete);
    let c = run(AffinityMode::continuous());
    assert!(
        c < 2.0 * d + 10.0 && d < 2.0 * c + 10.0,
        "discrete {d:.1}% vs continuous {c:.1}%"
    );
}

#[test]
fn accesses_grow_with_period_count() {
    // Figure 6: later query periods add lists, so absolute accesses grow.
    let world = WorldConfig::study_scale().build();
    let cf = world.cf_model_for(&world.study_users());
    let users = world.study_users();
    let group = Group::new(users[..6].to_vec()).unwrap();
    let items: Vec<ItemId> = world.movielens.matrix.items().take(300).collect();
    let engine = GrecaEngine::new(&cf, &world.population);
    let run = |p_idx: usize| {
        engine
            .query(&group)
            .items(&items)
            .period(p_idx)
            .normalize_rpref(false)
            .run()
            .expect("valid query")
            .stats
            .total_entries
    };
    let early = run(0);
    let late = run(world.last_period());
    assert!(
        late > early,
        "later periods must carry more list entries ({early} vs {late})"
    );
}

#[test]
fn figure4_granularity_tradeoff_shape() {
    // Coarser granularity → fewer periods and a higher non-empty
    // fraction; two-month sits between the extremes (Figure 4).
    let net = SocialConfig::paper_scale().generate();
    let source = SocialAffinitySource::new(&net);
    let universe: Vec<UserId> = net.users().collect();
    let mut rows = Vec::new();
    for g in Granularity::figure4_sweep() {
        let tl = Timeline::discretize(0, net.horizon(), g).unwrap();
        let pop = PopulationAffinity::build(&source, &universe, &tl);
        rows.push((tl.num_periods(), pop.non_empty_fraction()));
    }
    for w in rows.windows(2) {
        assert!(w[0].0 >= w[1].0, "period counts shrink");
    }
    let week = rows[0].1;
    let half_year = rows[4].1;
    assert!(
        half_year > week,
        "half-year ({half_year:.2}) must be fuller than week ({week:.2})"
    );
    let two_month = rows[2].1;
    assert!(two_month > week && two_month < half_year + 1e-9);
}

#[test]
fn buffer_rule_never_reads_more_than_threshold_only() {
    // The buffer condition is the novelty that enables early stopping;
    // the traditional threshold-only rule can only ever stop later.
    let world = WorldConfig::study_scale().build();
    let cf = world.cf_model_for(&world.study_users());
    let users = world.study_users();
    let group = Group::new(users[..4].to_vec()).unwrap();
    let items: Vec<ItemId> = world.movielens.matrix.items().take(300).collect();
    let p = GrecaEngine::new(&cf, &world.population)
        .query(&group)
        .items(&items)
        .normalize_rpref(false)
        .prepare()
        .expect("valid query");
    let buffer = p.run();
    let threshold_only = p.run_algorithm(Algorithm::Greca(
        GrecaConfig::default().stopping(StoppingRule::ThresholdOnly),
    ));
    assert!(buffer.stats.sa <= threshold_only.stats.sa);
}
