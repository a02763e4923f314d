//! Property tests for the live-ingestion layer: **for any interleaving
//! of ingest/retract batches, a pinned-epoch warm query is bit-identical
//! to cold materialization from that epoch's ratings.**
//!
//! Each generated instance streams a random sequence of delta batches
//! into a [`LiveEngine`] (raw-rating or user-CF model). After every
//! publish the test:
//!
//! 1. independently replays the surviving rating log into a fresh
//!    matrix (validating `RatingMatrix::apply_deltas` against a from-
//!    scratch build),
//! 2. fits a *cold* engine on that matrix (a full refit — no dirty-set
//!    shortcuts), and
//! 3. asserts the pinned warm query equals the cold query bit-for-bit:
//!    same itemsets, same bounds, same access statistics, same exact
//!    scores — for the zero-copy full itemset and the filtered subset
//!    path.
//!
//! Pins taken at earlier epochs are re-run at the end, after every
//! subsequent swap, and must still return their original results —
//! epoch immutability under arbitrary later ingestion.

use greca_affinity::{AffinityMode, PopulationAffinity, TableAffinitySource};
use greca_bench::baselines::{naive_topk, ta_topk};
use greca_cf::{CfConfig, PreferenceProvider, RawRatings, UserCfModel};
use greca_consensus::ConsensusFunction;
use greca_core::{GrecaEngine, LiveEngine, LiveModel};
use greca_dataset::{
    Granularity, Group, ItemId, Rating, RatingMatrix, RatingMatrixBuilder, Timeline, UserId,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One staged event: upsert when `retract` is false.
#[derive(Debug, Clone, Copy)]
struct Event {
    user: usize,
    item: usize,
    value: f64,
    retract: bool,
}

#[derive(Debug, Clone)]
struct LiveInstance {
    n: usize,
    m: usize,
    periods: usize,
    static_raw: Vec<f64>,
    periodic_raw: Vec<Vec<f64>>,
    /// Initial log: one optional rating per grid cell.
    initial: Vec<Option<f64>>,
    /// The interleaving under test.
    batches: Vec<Vec<Event>>,
    usercf: bool,
    mode_sel: u8,
    consensus_sel: u8,
    k: usize,
    group_size: usize,
}

fn num_pairs(n: usize) -> usize {
    n * (n - 1) / 2
}

fn instance_strategy() -> impl Strategy<Value = LiveInstance> {
    (2usize..=5, 3usize..=8, 0usize..=2).prop_flat_map(|(n, m, periods)| {
        let static_raw = proptest::collection::vec(0.0f64..3.0, num_pairs(n));
        let periodic_raw = proptest::collection::vec(
            proptest::collection::vec(0.0f64..4.0, num_pairs(n)),
            periods,
        );
        // `(keep, value)` per grid cell — the vendored proptest has no
        // `option::of`.
        let initial =
            proptest::collection::vec((any::<bool>(), 0.5f64..5.0), n * m).prop_map(|cells| {
                cells
                    .into_iter()
                    .map(|(keep, v)| keep.then_some(v))
                    .collect::<Vec<Option<f64>>>()
            });
        let event =
            (0..n, 0..m, 0.5f64..5.0, any::<bool>()).prop_map(|(user, item, value, retract)| {
                Event {
                    user,
                    item,
                    value,
                    retract,
                }
            });
        let batches =
            proptest::collection::vec(proptest::collection::vec(event, 1..5usize), 1..5usize);
        (
            Just(n),
            Just(m),
            Just(periods),
            static_raw,
            periodic_raw,
            initial,
            batches,
            any::<bool>(),
            (0u8..4, 0u8..5),
            1usize..=4,
            2usize..=3,
        )
            .prop_map(
                |(
                    n,
                    m,
                    periods,
                    static_raw,
                    periodic_raw,
                    initial,
                    batches,
                    usercf,
                    (mode_sel, consensus_sel),
                    k,
                    group_size,
                )| LiveInstance {
                    n,
                    m,
                    periods,
                    static_raw,
                    periodic_raw,
                    initial,
                    batches,
                    usercf,
                    mode_sel,
                    consensus_sel,
                    k: k.min(m),
                    group_size: group_size.min(n),
                },
            )
    })
}

fn mode_of(sel: u8, periods: usize) -> AffinityMode {
    let mode = match sel {
        0 => AffinityMode::None,
        1 => AffinityMode::StaticOnly,
        2 => AffinityMode::Discrete,
        _ => AffinityMode::continuous(),
    };
    // A temporal mode needs at least one period to pass validation.
    if periods == 0 && mode.is_temporal() {
        AffinityMode::StaticOnly
    } else {
        mode
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

fn population_of(inst: &LiveInstance) -> (Vec<UserId>, PopulationAffinity) {
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

/// A from-scratch matrix build of the surviving log — deliberately NOT
/// `apply_deltas`, so the incremental path is checked against an
/// independent construction.
fn matrix_of(log: &BTreeMap<(u32, u32), f32>, n: usize, m: usize) -> RatingMatrix {
    let mut b = RatingMatrixBuilder::new(n, m);
    for (&(u, i), &v) in log {
        b.rate(UserId(u), ItemId(i), v, 0);
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pinned_epoch_equals_cold_materialization(inst in instance_strategy()) {
        let (users, pop) = population_of(&inst);
        let items: Vec<ItemId> = (0..inst.m as u32).map(ItemId).collect();
        let subset: Vec<ItemId> = items.iter().copied().step_by(2).collect();
        let group = Group::new(users[..inst.group_size].to_vec()).unwrap();
        let p_idx = inst.periods.saturating_sub(1);
        let mode = mode_of(inst.mode_sel, inst.periods);
        let consensus = consensus_of(inst.consensus_sel);

        // The independently-maintained rating log.
        let mut log: BTreeMap<(u32, u32), f32> = BTreeMap::new();
        for (cell, v) in inst.initial.iter().enumerate() {
            if let Some(v) = v {
                log.insert(((cell / inst.m) as u32, (cell % inst.m) as u32), *v as f32);
            }
        }

        let (model, cfg) = if inst.usercf {
            let cfg = CfConfig::default();
            (LiveModel::UserCf(cfg), Some(cfg))
        } else {
            (LiveModel::Raw, None)
        };
        let initial = matrix_of(&log, inst.n, inst.m);
        let live = LiveEngine::new(&pop, model, &initial, &items).unwrap();

        let mut history = Vec::new();
        for batch in &inst.batches {
            for e in batch {
                if e.retract {
                    live.stage_retractions(&[(UserId(e.user as u32), ItemId(e.item as u32))])
                        .unwrap();
                    log.remove(&(e.user as u32, e.item as u32));
                } else {
                    live.stage(&[Rating {
                        user: UserId(e.user as u32),
                        item: ItemId(e.item as u32),
                        value: e.value as f32,
                        ts: 0,
                    }]).unwrap();
                    log.insert((e.user as u32, e.item as u32), e.value as f32);
                }
            }
            live.publish().unwrap();
            let pin = live.pin();

            // The epoch's matrix equals an independent replay of the log.
            let expected = matrix_of(&log, inst.n, inst.m);
            for &u in &users {
                prop_assert_eq!(pin.matrix().user_ratings(u), expected.user_ratings(u));
            }
            prop_assert_eq!(pin.matrix().num_ratings(), expected.num_ratings());

            // Cold reference: a full refit on the epoch's ratings — no
            // dirty-set shortcuts, no shared segments.
            let provider: Box<dyn PreferenceProvider + Sync> = match cfg {
                None => Box::new(RawRatings(&expected)),
                Some(cfg) => Box::new(UserCfModel::fit(&expected, cfg)),
            };
            let cold_engine = GrecaEngine::new(provider.as_ref(), &pop);

            for itemset in [&items, &subset] {
                let warm = pin
                    .engine()
                    .query(&group)
                    .items(itemset)
                    .period(p_idx)
                    .affinity(mode)
                    .consensus(consensus)
                    .top(inst.k)
                    .prepare()
                    .unwrap();
                let cold = cold_engine
                    .query(&group)
                    .items(itemset)
                    .period(p_idx)
                    .affinity(mode)
                    .consensus(consensus)
                    .top(inst.k)
                    .prepare()
                    .unwrap();
                prop_assert!(warm.is_warm(), "substrate must cover the query");
                prop_assert!(!cold.is_warm());
                prop_assert_eq!(cold.run(), warm.run());
                prop_assert_eq!(ta_topk(&cold), ta_topk(&warm));
                prop_assert_eq!(naive_topk(&cold), naive_topk(&warm));
                prop_assert_eq!(cold.exact_scores(), warm.exact_scores());
            }

            let reference = pin
                .engine()
                .query(&group)
                .items(&items)
                .period(p_idx)
                .affinity(mode)
                .consensus(consensus)
                .top(inst.k)
                .run()
                .unwrap();
            history.push((pin, reference));
        }

        // Every pinned epoch must still serve its original answer after
        // all subsequent swaps (epochs are immutable snapshots).
        for (epoch_no, (pin, reference)) in history.iter().enumerate() {
            let again = pin
                .engine()
                .query(&group)
                .items(&items)
                .period(p_idx)
                .affinity(mode)
                .consensus(consensus)
                .top(inst.k)
                .run()
                .unwrap();
            prop_assert_eq!(
                &again,
                reference,
                "epoch {} drifted after later ingestion",
                epoch_no + 1
            );
        }
    }
}
