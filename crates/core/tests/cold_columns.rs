//! Cold preference columns equal the independent reference, bit for bit.
//!
//! A column the substrate does not serve — every column of an engine
//! with no substrate, and every column of a warm engine's query over a
//! foreign or duplicated item — is derived by the substrate's segment
//! builder. The reference shares none of that code: each member's list
//! is `PreferenceProvider::preference_list` (sorted by
//! `PreferenceList::from_entries`), laid out by
//! `MaterializedInputs::build` and run by the kernel directly.
//!
//! Coverage: score tables with ties, `+0.0`, `-0.0` and negative
//! scores; raw ratings (the provider's sparse path); ascending,
//! shuffled and duplicated itemsets, with items outside a warm
//! engine's universe; non-finite scores, which both sides reject with
//! the same error variant. Over an ascending itemset the error is the
//! same too; over another, a member with two bad items may report a
//! different one (the builder reports the first by id, the reference
//! the first in itemset order).

use greca_affinity::{AffinityMode, PopulationAffinity, TableAffinitySource};
use greca_cf::{group_preference_lists, PreferenceProvider, RawRatings};
use greca_consensus::ConsensusFunction;
use greca_core::{
    greca_topk_with, GrecaConfig, GrecaEngine, GrecaScratch, ListLayout, MaterializedInputs,
    PreparedQuery, QueryError, TopKResult,
};
use greca_dataset::{Granularity, Group, ItemId, RatingMatrixBuilder, Timeline, UserId};
use proptest::prelude::*;

/// `apref(u, i) = table[u][i]`.
#[derive(Debug, Clone)]
struct Table(Vec<Vec<f64>>);

impl PreferenceProvider for Table {
    fn apref(&self, u: UserId, i: ItemId) -> f64 {
        self.0[u.idx()][i.idx()]
    }
}

/// Catalog items a warm engine's substrate covers; ids up to
/// `CATALOG + 2` are drawn, so an itemset may hold foreign items.
const CATALOG: u32 = 16;

/// A score drawn to produce ties, signed zeros and negatives.
fn score_of((kind, level): (u8, u32)) -> f64 {
    match kind {
        0 => 0.0,
        1 => -0.0,
        2 => -f64::from(level) / 4.0,
        _ => f64::from(level) / 4.0,
    }
}

#[derive(Debug, Clone)]
struct Instance {
    /// `[user][item]` scores over `CATALOG + 2` items.
    table: Vec<Vec<f64>>,
    /// Item ids, possibly shuffled, duplicated or foreign.
    items: Vec<u32>,
    /// Sort and dedup `items` first (the substrate-served shape).
    ascending: bool,
    /// Turn the table into raw ratings (nonzero ⇒ rated) instead.
    raw: bool,
}

fn instance_strategy() -> impl Strategy<Value = Instance> {
    (2usize..=4, 1usize..=24).prop_flat_map(|(n, m)| {
        let row = collection::vec((0u8..6, 1u32..5).prop_map(score_of), CATALOG as usize + 2);
        (
            collection::vec(row, n),
            collection::vec(0u32..CATALOG + 2, m),
            any::<bool>(),
            any::<bool>(),
        )
            .prop_map(|(table, items, ascending, raw)| Instance {
                table,
                items,
                ascending,
                raw,
            })
    })
}

fn population(n: usize) -> PopulationAffinity {
    let users: Vec<UserId> = (0..n as u32).map(UserId).collect();
    let mut src = TableAffinitySource::new();
    for i in 0..n {
        for j in (i + 1)..n {
            src.set_static(users[i], users[j], 0.25 + (i * 3 + j) as f64 * 0.125);
        }
    }
    let tl = Timeline::discretize(0, 200, Granularity::Custom(100)).unwrap();
    src.set_periodic(users[0], users[1], tl.periods()[1].start, 0.9);
    PopulationAffinity::build(&src, &users, &tl)
}

/// The reference: lists sorted by `PreferenceList::from_entries`, laid
/// out by `MaterializedInputs::build` and, when every score is `≥ 0` as
/// GRECA's bounds require, run by the kernel directly.
fn reference(
    provider: &dyn PreferenceProvider,
    pop: &PopulationAffinity,
    group: &Group,
    items: &[ItemId],
) -> Result<(MaterializedInputs, Option<TopKResult>), QueryError> {
    let affinity = pop.group_view(group, 1, AffinityMode::Discrete);
    let lists = group_preference_lists(provider, group, items)?;
    let inputs = MaterializedInputs::build(&lists, &affinity, ListLayout::Decomposed)?;
    let non_negative = lists
        .iter()
        .all(|l| l.entries.iter().all(|&(_, s)| s >= 0.0));
    let result = non_negative.then(|| {
        greca_topk_with(
            &inputs.views(),
            &affinity,
            ConsensusFunction::average_preference(),
            true,
            GrecaConfig::top(3),
            &mut GrecaScratch::new(),
        )
    });
    Ok((inputs, result))
}

fn prepare(
    engine: &GrecaEngine<'_>,
    group: &Group,
    items: &[ItemId],
) -> Result<PreparedQuery, QueryError> {
    engine.query(group).items(items).period(1).top(3).prepare()
}

/// Every preference column of `prepared` equals the reference's: ids
/// and score bits, member by member; and the kernel's results agree.
fn assert_columns_match(
    prepared: &PreparedQuery,
    (reference, result): &(MaterializedInputs, Option<TopKResult>),
    ctx: &str,
) -> TestCaseResult {
    let (got, want) = (prepared.inputs(), reference.views());
    prop_assert_eq!(got.pref_lists.len(), want.pref_lists.len(), "{}", ctx);
    for (g, w) in got.pref_lists.iter().zip(&want.pref_lists) {
        prop_assert_eq!(g.kind, w.kind, "{}", ctx);
        prop_assert_eq!(g.ids, w.ids, "{}: ids", ctx);
        let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(g.scores), bits(w.scores), "{}: score bits", ctx);
    }
    if let Some(result) = result {
        prop_assert_eq!(&prepared.run(), result, "{}: results", ctx);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn cold_columns_equal_the_materialized_reference(inst in instance_strategy()) {
        let n = inst.table.len();
        let pop = population(n);
        let group = Group::new((0..n as u32).map(UserId).collect()).unwrap();
        let mut items: Vec<ItemId> = inst.items.iter().map(|&i| ItemId(i)).collect();
        if inst.ascending {
            items.sort_unstable();
            items.dedup();
        }
        let matrix = {
            let mut b = RatingMatrixBuilder::new(n, CATALOG as usize + 2);
            for (u, row) in inst.table.iter().enumerate() {
                for (i, &s) in row.iter().enumerate() {
                    if s > 0.0 {
                        b.rate(UserId(u as u32), ItemId(i as u32), s as f32, 0);
                    }
                }
            }
            b.build()
        };
        let (table, raw) = (Table(inst.table.clone()), RawRatings(&matrix));
        let provider: &(dyn PreferenceProvider + Sync) = if inst.raw { &raw } else { &table };
        let want = reference(provider, &pop, &group, &items).expect("finite scores");

        let cold_engine = GrecaEngine::new(provider, &pop);
        let cold = prepare(&cold_engine, &group, &items).expect("finite scores");
        prop_assert!(!cold.is_warm());
        assert_columns_match(&cold, &want, "engine with no substrate")?;

        let catalog: Vec<ItemId> = (0..CATALOG).map(ItemId).collect();
        let warm_engine = GrecaEngine::warm(provider, &pop, &catalog).expect("finite scores");
        let warm = prepare(&warm_engine, &group, &items).expect("finite scores");
        let mut distinct = items.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let served = distinct.len() == items.len() && items.iter().all(|i| i.0 < CATALOG);
        prop_assert_eq!(warm.is_warm(), served);
        assert_columns_match(&warm, &want, "warm engine")?;
    }

    #[test]
    fn non_finite_scores_fail_like_the_reference(
        inst in instance_strategy(),
        bad in collection::vec((0usize..4, 0u32..CATALOG + 2, 0u8..3), 1..4),
    ) {
        let n = inst.table.len();
        let mut table = inst.table.clone();
        let mut items: Vec<ItemId> = inst.items.iter().map(|&i| ItemId(i)).collect();
        for &(user, item, kind) in &bad {
            table[user % n][item as usize] =
                [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][kind as usize];
            items.push(ItemId(item));
        }
        if inst.ascending {
            items.sort_unstable();
            items.dedup();
        }
        let pop = population(n);
        let group = Group::new((0..n as u32).map(UserId).collect()).unwrap();
        let provider = Table(table);
        let want = reference(&provider, &pop, &group, &items).map(|_| ());
        let got = prepare(&GrecaEngine::new(&provider, &pop), &group, &items).map(|_| ());
        prop_assert!(
            matches!(want, Err(QueryError::NonFiniteScore { .. })),
            "reference: {:?}",
            want
        );
        prop_assert!(matches!(got, Err(QueryError::NonFiniteScore { .. })), "cold: {:?}", got);
        if inst.ascending {
            prop_assert_eq!(got, want);
        }
    }
}
