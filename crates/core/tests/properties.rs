//! Property tests: GRECA's correctness guarantee (Lemma 2) on random
//! instances.
//!
//! For arbitrary preference lists, affinity tables, affinity modes,
//! consensus functions, result sizes and list layouts:
//!
//! * GRECA, the TA baseline and the threshold-only variant must all
//!   return an itemset whose exact consensus scores equal the naive
//!   full-scan top-k's score multiset (ties may swap items; scores
//!   cannot differ);
//! * every returned envelope must sandwich the item's exact score;
//! * GRECA never reads more than the naive scan.

use greca_affinity::{AffinityMode, PopulationAffinity, TableAffinitySource};
use greca_bench::baselines::{naive_topk, ta_topk};
use greca_cf::{PreferenceList, RawRatings};
use greca_consensus::ConsensusFunction;
use greca_core::{GrecaEngine, ListLayout, PreparedQuery, StoppingRule};
use greca_dataset::{Granularity, Group, ItemId, RatingMatrixBuilder, Timeline, UserId};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Instance {
    n: usize,
    m: usize,
    periods: usize,
    aprefs: Vec<Vec<f64>>,       // [user][item]
    static_raw: Vec<f64>,        // per pair
    periodic_raw: Vec<Vec<f64>>, // [period][pair]
    mode_sel: u8,
    consensus_sel: u8,
    k: usize,
    layout_single: bool,
    normalize: bool,
}

fn num_pairs(n: usize) -> usize {
    n * (n - 1) / 2
}

fn instance_strategy() -> impl Strategy<Value = Instance> {
    (2usize..=4, 1usize..=18, 0usize..=3).prop_flat_map(|(n, m, periods)| {
        let aprefs = proptest::collection::vec(proptest::collection::vec(0.0f64..5.0, m), n);
        let static_raw = proptest::collection::vec(0.0f64..3.0, num_pairs(n));
        let periodic_raw = proptest::collection::vec(
            proptest::collection::vec(0.0f64..4.0, num_pairs(n)),
            periods,
        );
        (
            Just(n),
            Just(m),
            Just(periods),
            aprefs,
            static_raw,
            periodic_raw,
            0u8..4,
            0u8..5,
            1usize..=6,
            any::<bool>(),
            any::<bool>(),
        )
            .prop_map(
                |(
                    n,
                    m,
                    periods,
                    aprefs,
                    static_raw,
                    periodic_raw,
                    mode_sel,
                    consensus_sel,
                    k,
                    layout_single,
                    normalize,
                )| {
                    Instance {
                        n,
                        m,
                        periods,
                        aprefs,
                        static_raw,
                        periodic_raw,
                        mode_sel,
                        consensus_sel,
                        k: k.min(m),
                        layout_single,
                        normalize,
                    }
                },
            )
    })
}

fn mode_of(sel: u8) -> AffinityMode {
    match sel {
        0 => AffinityMode::None,
        1 => AffinityMode::StaticOnly,
        2 => AffinityMode::Discrete,
        _ => AffinityMode::continuous(),
    }
}

fn consensus_of(sel: u8) -> ConsensusFunction {
    match sel {
        0 => ConsensusFunction::average_preference(),
        1 => ConsensusFunction::least_misery(),
        2 => ConsensusFunction::pairwise_disagreement(0.8),
        3 => ConsensusFunction::pairwise_disagreement(0.2),
        _ => ConsensusFunction::variance_disagreement(0.5),
    }
}

/// The instance's user universe and population-affinity index.
fn population_of(inst: &Instance) -> (Vec<UserId>, PopulationAffinity) {
    let users: Vec<UserId> = (0..inst.n as u32).map(UserId).collect();
    let mut src = TableAffinitySource::new();
    let mut pair = 0;
    for i in 0..inst.n {
        for j in (i + 1)..inst.n {
            src.set_static(users[i], users[j], inst.static_raw[pair]);
            pair += 1;
        }
    }
    let pop = if inst.periods == 0 {
        PopulationAffinity::new_static_only(&src, &users)
    } else {
        let tl =
            Timeline::discretize(0, (inst.periods as i64) * 100, Granularity::Custom(100)).unwrap();
        for (p, pdata) in inst.periodic_raw.iter().enumerate() {
            let start = tl.periods()[p].start;
            let mut pr = 0;
            for i in 0..inst.n {
                for j in (i + 1)..inst.n {
                    src.set_periodic(users[i], users[j], start, pdata[pr]);
                    pr += 1;
                }
            }
        }
        PopulationAffinity::build(&src, &users, &tl)
    };
    (users, pop)
}

fn build(inst: &Instance) -> PreparedQuery {
    let (users, pop) = population_of(inst);
    let group = Group::new(users.clone()).unwrap();
    let p_idx = inst.periods.saturating_sub(1);
    let affinity = pop.group_view(&group, p_idx, mode_of(inst.mode_sel));
    let pref_lists: Vec<PreferenceList> = (0..inst.n)
        .map(|u| {
            PreferenceList::from_entries(
                users[u],
                (0..inst.m)
                    .map(|i| (ItemId(i as u32), inst.aprefs[u][i]))
                    .collect(),
            )
            .expect("generated scores are finite")
        })
        .collect();
    let layout = if inst.layout_single {
        ListLayout::Single
    } else {
        ListLayout::Decomposed
    };
    PreparedQuery::from_parts(affinity, &pref_lists, layout, inst.normalize)
        .expect("generated inputs are finite")
        .consensus(consensus_of(inst.consensus_sel))
        .top(inst.k)
}

/// Exact scores of the returned items, descending.
fn returned_scores(p: &PreparedQuery, items: &[ItemId]) -> Vec<f64> {
    let exact = p.exact_scores();
    let mut got: Vec<f64> = items
        .iter()
        .map(|it| exact.iter().find(|&&(i, _)| i == *it).expect("exists").1)
        .collect();
    got.sort_by(|a, b| b.partial_cmp(a).unwrap());
    got
}

fn assert_matches_naive(p: &PreparedQuery, items: &[ItemId], k: usize) {
    let exact = p.exact_scores();
    let want: Vec<f64> = exact.iter().take(k).map(|&(_, s)| s).collect();
    let got = returned_scores(p, items);
    assert_eq!(
        got.len(),
        want.len(),
        "returned {} items, want {}",
        got.len(),
        want.len()
    );
    for (g, w) in got.iter().zip(&want) {
        assert!(
            (g - w).abs() < 1e-6,
            "score mismatch: got {got:?}, want {want:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn greca_equals_naive(inst in instance_strategy()) {
        let p = build(&inst);
        let result = p.run();
        assert_matches_naive(&p, &result.item_ids(), inst.k);
        prop_assert!(result.stats.sa <= p.inputs().total_entries());
    }

    #[test]
    fn threshold_only_equals_naive(inst in instance_strategy()) {
        let p = build(&inst);
        let result = p.clone().stopping(StoppingRule::ThresholdOnly).run();
        assert_matches_naive(&p, &result.item_ids(), inst.k);
    }

    #[test]
    fn ta_equals_naive(inst in instance_strategy()) {
        let p = build(&inst);
        let result = ta_topk(&p);
        assert_matches_naive(&p, &result.item_ids(), inst.k);
    }

    #[test]
    fn bounds_sandwich_exact(inst in instance_strategy()) {
        let p = build(&inst);
        let exact = p.exact_scores();
        let result = p.run();
        for t in &result.items {
            let score = exact.iter().find(|&&(i, _)| i == t.item).unwrap().1;
            prop_assert!(t.lb - 1e-6 <= score && score <= t.ub + 1e-6,
                "{}: {score} outside [{}, {}]", t.item, t.lb, t.ub);
        }
    }

    /// Cold-vs-warm equivalence: for every AffinityMode × consensus ×
    /// ListLayout instance, a `PreparedQuery` must be **bit-identical**
    /// whether built by the legacy per-query materialization path (cold
    /// engine) or from substrate views (warm engine) — the deprecation-
    /// safety contract of the Substrate layer, for both the zero-copy
    /// full-universe itemset and an order-preserving filtered subset.
    #[test]
    fn warm_substrate_equals_cold_materialization(inst in instance_strategy()) {
        let (users, pop) = population_of(&inst);
        let mut b = RatingMatrixBuilder::new(inst.n, inst.m);
        for (u, row) in inst.aprefs.iter().enumerate() {
            for (i, &score) in row.iter().enumerate() {
                b.rate(users[u], ItemId(i as u32), score as f32, 0);
            }
        }
        let matrix = b.build();
        let raw = RawRatings(&matrix);
        let items: Vec<ItemId> = (0..inst.m as u32).map(ItemId).collect();
        let group = Group::new(users.clone()).unwrap();
        let p_idx = inst.periods.saturating_sub(1);
        // A temporal mode needs at least one period to pass validation.
        let mode = match (inst.periods, mode_of(inst.mode_sel)) {
            (0, m) if m.is_temporal() => AffinityMode::StaticOnly,
            (_, m) => m,
        };
        let consensus = consensus_of(inst.consensus_sel);
        let layout = if inst.layout_single {
            ListLayout::Single
        } else {
            ListLayout::Decomposed
        };

        let cold_engine = GrecaEngine::new(&raw, &pop);
        let warm_engine = GrecaEngine::warm(&raw, &pop, &items).expect("finite scores");
        let mk = |engine: &GrecaEngine<'_>, itemset: &[ItemId]| {
            engine
                .query(&group)
                .items(itemset)
                .period(p_idx)
                .affinity(mode)
                .consensus(consensus)
                .layout(layout)
                .top(inst.k)
                .prepare()
                .expect("valid query")
        };

        let cold = mk(&cold_engine, &items);
        let warm = mk(&warm_engine, &items);
        prop_assert!(!cold.is_warm() && warm.is_warm());
        prop_assert_eq!(cold.run(), warm.run());
        prop_assert_eq!(ta_topk(&cold), ta_topk(&warm));
        prop_assert_eq!(naive_topk(&cold), naive_topk(&warm));
        prop_assert_eq!(cold.exact_scores(), warm.exact_scores());

        // A strict-subset itemset goes through the filtered (no-sort)
        // path and must stay bit-identical too.
        let subset: Vec<ItemId> = items.iter().copied().step_by(2).collect();
        let cold_sub = mk(&cold_engine, &subset);
        let warm_sub = mk(&warm_engine, &subset);
        prop_assert!(warm_sub.is_warm());
        prop_assert_eq!(cold_sub.run(), warm_sub.run());
        prop_assert_eq!(cold_sub.exact_scores(), warm_sub.exact_scores());
    }

    #[test]
    fn layouts_agree_on_the_itemset_scores(inst in instance_strategy()) {
        let mut a = inst.clone();
        a.layout_single = false;
        let mut b = inst;
        b.layout_single = true;
        let pa = build(&a);
        let pb = build(&b);
        let ra = pa.run();
        let rb = pb.run();
        let sa = returned_scores(&pa, &ra.item_ids());
        let sb = returned_scores(&pb, &rb.item_ids());
        for (x, y) in sa.iter().zip(&sb) {
            prop_assert!((x - y).abs() < 1e-6);
        }
    }
}
