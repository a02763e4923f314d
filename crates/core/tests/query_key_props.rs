//! Property tests: [`QueryKey`] canonicalization.
//!
//! The key is the identity every sharing layer trusts — the serve
//! result cache, the batch planner's group-level dedup, the shared
//! member arena's itemset scoping. Two properties pin it down:
//!
//! * **Canonical**: member-order and itemset-order permutations of one
//!   query produce *equal* keys (groups are canonical by construction,
//!   itemsets through the order-independent fingerprint).
//! * **Separating**: changing any single parameter — k, affinity mode,
//!   consensus, period, layout, rpref normalization, stopping rule, one
//!   itemset element, one member — produces a *distinct* key.
//!
//! [`QueryKey`]: greca_core::QueryKey

use greca_affinity::{AffinityMode, PopulationAffinity, TableAffinitySource};
use greca_cf::RawRatings;
use greca_consensus::ConsensusFunction;
use greca_core::{GrecaEngine, GroupQuery, ListLayout, StoppingRule};
use greca_dataset::{Granularity, Group, ItemId, RatingMatrixBuilder, Timeline, UserId};
use proptest::prelude::*;

const UNIVERSE_USERS: u32 = 8;
const UNIVERSE_ITEMS: u32 = 40;
const PERIODS: usize = 3;

/// One query's full parameter set, as raw generatable values.
#[derive(Debug, Clone)]
struct Params {
    members: Vec<u32>,
    items: Vec<u32>,
    period: usize,
    mode_sel: u8,
    consensus_sel: u8,
    layout_single: bool,
    normalize: bool,
    k: usize,
    stopping_sel: u8,
    /// Seeds for the two permutations under test.
    member_perm: u64,
    item_perm: u64,
}

fn params_strategy() -> impl Strategy<Value = Params> {
    (
        proptest::collection::vec(0u32..UNIVERSE_USERS, 2usize..6),
        proptest::collection::vec(0u32..UNIVERSE_ITEMS, 1usize..13),
        0usize..PERIODS,
        0u8..4,
        0u8..5,
        any::<bool>(),
        any::<bool>(),
        1usize..=10,
        0u8..3,
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(
            |(
                members,
                items,
                period,
                mode_sel,
                consensus_sel,
                layout_single,
                normalize,
                k,
                stopping_sel,
                member_perm,
                item_perm,
            )| Params {
                // Distinct, sorted member/item id sets (groups reject
                // duplicates; the itemset fingerprint is multiset-
                // sensitive, so duplicates would be a *different* set).
                members: {
                    let mut m = members;
                    m.sort_unstable();
                    m.dedup();
                    let mut next = 0;
                    while m.len() < 2 {
                        if !m.contains(&next) {
                            m.push(next);
                        }
                        next += 1;
                    }
                    m.sort_unstable();
                    m
                },
                items: {
                    let mut i = items;
                    i.sort_unstable();
                    i.dedup();
                    i
                },
                period,
                mode_sel,
                consensus_sel,
                layout_single,
                normalize,
                k,
                stopping_sel,
                member_perm,
                item_perm,
            },
        )
}

/// Deterministic Fisher–Yates from a SplitMix64 stream — proptest
/// shrinks the seed, the permutation follows.
fn permute<T: Copy>(xs: &[T], mut seed: u64) -> Vec<T> {
    let mut out = xs.to_vec();
    for i in (1..out.len()).rev() {
        seed = seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        out.swap(i, (seed % (i as u64 + 1)) as usize);
    }
    out
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

fn stopping_of(sel: u8) -> StoppingRule {
    match sel {
        0 => StoppingRule::Greca,
        1 => StoppingRule::ThresholdOnly,
        _ => StoppingRule::Exhaustive,
    }
}

/// The fixed world the keys are taken against (key contents don't
/// depend on ratings or affinity *values*, only on the parameter set
/// and the period resolution, but a real engine keeps the API honest).
fn world() -> (greca_dataset::RatingMatrix, PopulationAffinity) {
    let mut b = RatingMatrixBuilder::new(UNIVERSE_USERS as usize, UNIVERSE_ITEMS as usize);
    b.rate(UserId(0), ItemId(0), 4.0, 0);
    let matrix = b.build();
    let mut src = TableAffinitySource::new();
    src.set_static(UserId(0), UserId(1), 0.5);
    let tl = Timeline::discretize(0, PERIODS as i64 * 50, Granularity::Custom(50)).unwrap();
    let users: Vec<UserId> = (0..UNIVERSE_USERS).map(UserId).collect();
    let pop = PopulationAffinity::build(&src, &users, &tl);
    (matrix, pop)
}

fn build_query<'q>(
    engine: &'q GrecaEngine<'q>,
    group: &'q Group,
    items: &'q [ItemId],
    p: &Params,
) -> GroupQuery<'q> {
    engine
        .query(group)
        .items(items)
        .period(p.period)
        .affinity(mode_of(p.mode_sel))
        .layout(if p.layout_single {
            ListLayout::Single
        } else {
            ListLayout::Decomposed
        })
        .consensus(consensus_of(p.consensus_sel))
        .normalize_rpref(p.normalize)
        .top(p.k)
        .stopping(stopping_of(p.stopping_sel))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Member-order and itemset-order permutations share one key.
    #[test]
    fn key_is_invariant_under_member_and_itemset_permutation(p in params_strategy()) {
        let (matrix, pop) = world();
        let raw = RawRatings(&matrix);
        let engine = GrecaEngine::new(&raw, &pop);

        let members: Vec<UserId> = p.members.iter().map(|&u| UserId(u)).collect();
        let items: Vec<ItemId> = p.items.iter().map(|&i| ItemId(i)).collect();
        let group = Group::new(members.clone()).unwrap();
        let base = build_query(&engine, &group, &items, &p).cache_key();

        let shuffled_members = permute(&members, p.member_perm);
        let shuffled_group = Group::new(shuffled_members).unwrap();
        let shuffled_items = permute(&items, p.item_perm);

        prop_assert_eq!(
            &base,
            &build_query(&engine, &shuffled_group, &items, &p).cache_key()
        );
        prop_assert_eq!(
            &base,
            &build_query(&engine, &group, &shuffled_items, &p).cache_key()
        );
        prop_assert_eq!(
            &base,
            &build_query(&engine, &shuffled_group, &shuffled_items, &p).cache_key()
        );
    }

    /// Any single differing parameter separates keys.
    #[test]
    fn key_separates_every_single_parameter_change(p in params_strategy()) {
        let (matrix, pop) = world();
        let raw = RawRatings(&matrix);
        let engine = GrecaEngine::new(&raw, &pop);

        let members: Vec<UserId> = p.members.iter().map(|&u| UserId(u)).collect();
        let items: Vec<ItemId> = p.items.iter().map(|&i| ItemId(i)).collect();
        let group = Group::new(members.clone()).unwrap();
        let base = build_query(&engine, &group, &items, &p).cache_key();

        // k.
        let mut q = p.clone();
        q.k += 1;
        prop_assert_ne!(&base, &build_query(&engine, &group, &items, &q).cache_key());

        // Period.
        let mut q = p.clone();
        q.period = (p.period + 1) % PERIODS;
        prop_assert_ne!(&base, &build_query(&engine, &group, &items, &q).cache_key());

        // Affinity mode.
        let mut q = p.clone();
        q.mode_sel = (p.mode_sel + 1) % 4;
        prop_assert_ne!(&base, &build_query(&engine, &group, &items, &q).cache_key());

        // Consensus.
        let mut q = p.clone();
        q.consensus_sel = (p.consensus_sel + 1) % 5;
        prop_assert_ne!(&base, &build_query(&engine, &group, &items, &q).cache_key());

        // Layout.
        let mut q = p.clone();
        q.layout_single = !p.layout_single;
        prop_assert_ne!(&base, &build_query(&engine, &group, &items, &q).cache_key());

        // Normalization.
        let mut q = p.clone();
        q.normalize = !p.normalize;
        prop_assert_ne!(&base, &build_query(&engine, &group, &items, &q).cache_key());

        // Stopping rule.
        let mut q = p.clone();
        q.stopping_sel = (p.stopping_sel + 1) % 3;
        prop_assert_ne!(&base, &build_query(&engine, &group, &items, &q).cache_key());

        // One itemset element replaced by an id outside the set.
        let mut changed_items = items.clone();
        changed_items[0] = ItemId(UNIVERSE_ITEMS + 1);
        prop_assert_ne!(
            &base,
            &build_query(&engine, &group, &changed_items, &p).cache_key()
        );

        // One itemset element dropped (length change).
        if items.len() > 1 {
            prop_assert_ne!(
                &base,
                &build_query(&engine, &group, &items[1..], &p).cache_key()
            );
        }

        // One member replaced by a user outside the group.
        let mut changed_members = members.clone();
        changed_members[0] = UserId(UNIVERSE_USERS + 1);
        let changed_group = Group::new(changed_members).unwrap();
        prop_assert_ne!(
            &base,
            &build_query(&engine, &changed_group, &items, &p).cache_key()
        );
    }
}
