//! A query without an itemset runs over the catalog minus the items its
//! members rated, bit for bit as the same query given that set.
//!
//! The default itemset is never built: its arena fingerprint is the
//! catalog's with the rated ids' terms taken out, and each member's
//! column is their column over the catalog with the rated ids dropped
//! from its support and skipped by its default run. The reference is
//! `greca_cf::candidate_items`, which builds the set and reads nothing
//! an engine caches.
//!
//! * **Fingerprint**: a default query and the explicit query over
//!   `candidate_items` key one arena scope: the explicit query, run
//!   second through the same arena, resolves no column. A group whose
//!   members rated nothing leaves the whole catalog; a group that rated
//!   every item gets `QueryError::EmptyItemset`.
//! * **Runs**: result items, score bits, access stats, sweeps, checks
//!   and checked items are identical under raw ratings and user CF, on
//!   a cold engine, a warm engine whose universe is the catalog and one
//!   whose universe is a strict subset of it, through a fresh arena per
//!   run and through one arena shared with other groups' queries
//!   (including columns of one scope resolved by both paths).
//!   Catalogs run from one item to a few thousand, the large ones
//!   rated sparsely.
//! * **Bytes**: a group that rated most of the catalog leaves runs
//!   shorter than their skip lists, and those columns are written out.
//! * **Contract**: a provider whose `rated_items` is not ascending,
//!   distinct and inside its catalog makes the query panic with the
//!   contract's message, not read out of bounds.
//! * **Live epochs**: after an ingest names a new item id, the next
//!   epoch's default answer equals the explicit one over the grown
//!   catalog, through `PinnedEpoch::engine` and the epoch's arena.

use greca_affinity::{PopulationAffinity, TableAffinitySource};
use greca_cf::{candidate_items, CfConfig, PreferenceProvider, RawRatings, UserCfModel};
use greca_core::{
    GrecaEngine, LiveEngine, LiveModel, QueryError, SharedMemberState, StoppingRule, TopKResult,
};
use greca_dataset::{
    Granularity, Group, ItemId, Rating, RatingMatrix, RatingMatrixBuilder, Timeline, UserId,
};
use proptest::prelude::*;
use std::panic::AssertUnwindSafe;

/// Users of every world here; all belong to the population universe.
const USERS: u32 = 6;

/// A result with its float fields as bits, so `==` is bit identity.
fn bits(r: &TopKResult) -> impl PartialEq + std::fmt::Debug {
    let items: Vec<(ItemId, u64, u64)> = r
        .items
        .iter()
        .map(|t| (t.item, t.lb.to_bits(), t.ub.to_bits()))
        .collect();
    (
        items,
        r.stats,
        r.sweeps,
        r.checks,
        r.check_items,
        r.stop_reason,
    )
}

fn population() -> PopulationAffinity {
    let users: Vec<UserId> = (0..USERS).map(UserId).collect();
    let mut src = TableAffinitySource::new();
    for i in 0..USERS {
        for j in (i + 1)..USERS {
            src.set_static(UserId(i), UserId(j), 0.125 + f64::from(i * 5 + j) / 32.0);
        }
    }
    let tl = Timeline::discretize(0, 200, Granularity::Custom(100)).unwrap();
    src.set_periodic(UserId(0), UserId(1), tl.periods()[1].start, 0.9)
        .set_periodic(UserId(2), UserId(4), tl.periods()[0].start, 0.4);
    PopulationAffinity::build(&src, &users, &tl)
}

#[derive(Debug, Clone)]
struct Instance {
    /// Items in the catalog `0..catalog`.
    catalog: usize,
    /// Per user: rating density in `1/per` steps (0 = rated nothing)
    /// and a seed for which items and stars.
    rows: Vec<(u32, u64)>,
    /// 10 for a small catalog (up to rated everything), 1,000 for a
    /// large one, where the group rates at most 1% of it each.
    per: u64,
    /// Group members (deduplicated, at least two).
    members: Vec<u32>,
    /// Items `0..cut` form the strict-subset universe (`cut < catalog`).
    cut: usize,
    k: usize,
    stopping: u8,
}

fn instance_strategy() -> impl Strategy<Value = Instance> {
    (
        (any::<bool>(), 1usize..48, 200usize..3000),
        proptest::collection::vec((0u32..=10, any::<u64>()), USERS as usize),
        proptest::collection::vec(0u32..USERS, 2usize..5),
        any::<u64>(),
        1usize..=6,
        0u8..3,
    )
        .prop_map(|((large, small, big), rows, members, cut, k, stopping)| {
            let (catalog, per) = if large { (big, 1000) } else { (small, 10) };
            Instance {
                catalog,
                rows,
                per,
                members: {
                    let mut m = members;
                    m.sort_unstable();
                    m.dedup();
                    if m.len() < 2 {
                        m = vec![m[0], (m[0] + 1) % USERS];
                    }
                    m
                },
                cut: (cut % catalog as u64) as usize,
                k,
                stopping,
            }
        })
}

/// SplitMix64 step.
fn next(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut x = *seed;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn matrix(inst: &Instance) -> RatingMatrix {
    let mut b = RatingMatrixBuilder::new(USERS as usize, inst.catalog);
    for (u, &(steps, seed)) in inst.rows.iter().enumerate() {
        let mut seed = seed;
        for i in 0..inst.catalog as u32 {
            let draw = next(&mut seed);
            if draw % inst.per < u64::from(steps) {
                let stars = 1.0 + (draw >> 8) as f32 % 9.0 / 2.0;
                b.rate(UserId(u as u32), ItemId(i), stars, i64::from(i));
            }
        }
    }
    b.build()
}

fn stopping_of(sel: u8) -> StoppingRule {
    match sel {
        0 => StoppingRule::Greca,
        1 => StoppingRule::ThresholdOnly,
        _ => StoppingRule::Exhaustive,
    }
}

/// Every check of one instance over one provider.
fn check_provider(
    provider: &(dyn PreferenceProvider + Sync),
    matrix: &RatingMatrix,
    pop: &PopulationAffinity,
    inst: &Instance,
) {
    let catalog: Vec<ItemId> = (0..inst.catalog as u32).map(ItemId).collect();
    let group = Group::new(inst.members.iter().map(|&u| UserId(u)).collect()).unwrap();
    let candidates = candidate_items(matrix, &group);
    let cold = GrecaEngine::new(provider, pop);
    let warm = GrecaEngine::warm(provider, pop, &catalog).expect("finite scores");
    let subset = GrecaEngine::warm(provider, pop, &catalog[..inst.cut]).expect("finite scores");
    // A user outside the group who rated nothing: added to it, the
    // default itemset (and its arena scope) stays the same.
    let idle = (0..USERS)
        .map(UserId)
        .find(|u| !group.members().contains(u) && matrix.user_ratings(*u).is_empty());
    let widened = idle.map(|u| {
        let mut members = group.members().to_vec();
        members.push(u);
        Group::new(members).unwrap()
    });
    let shared = SharedMemberState::new();
    for (name, engine, is_warm) in [
        ("cold", &cold, false),
        ("warm", &warm, true),
        ("subset", &subset, false),
    ] {
        let query = |g| {
            engine
                .query(g)
                .top(inst.k)
                .stopping(stopping_of(inst.stopping))
        };
        if candidates.is_empty() {
            assert_eq!(query(&group).run(), Err(QueryError::EmptyItemset), "{name}");
            assert_eq!(
                query(&group).run_shared(&shared),
                Err(QueryError::EmptyItemset),
                "{name}"
            );
            continue;
        }
        let explicit = query(&group).items(&candidates).run().unwrap();
        let prepared = query(&group).prepare().unwrap();
        assert_eq!(prepared.is_warm(), is_warm, "{name}: served warm");
        assert_eq!(
            bits(&prepared.run()),
            bits(&explicit),
            "{name}: fresh arena"
        );

        // One arena: the explicit query finds every column the default
        // one resolved, so both key the same scope. (A candidate set
        // inside a subset universe is served warm when given, and then
        // resolves the members' universe columns too.)
        let arena = SharedMemberState::new();
        let default = query(&group).run_shared(&arena).unwrap();
        let resolved = arena.resolved_members();
        let again = query(&group).items(&candidates).run_shared(&arena).unwrap();
        let explicit_warm = query(&group)
            .items(&candidates)
            .prepare()
            .unwrap()
            .is_warm();
        let universe = if explicit_warm && !is_warm {
            group.members().len() as u64
        } else {
            0
        };
        assert_eq!(
            arena.resolved_members(),
            resolved + universe,
            "{name}: one scope"
        );
        assert_eq!(bits(&default), bits(&explicit), "{name}: arena, default");
        assert_eq!(bits(&again), bits(&explicit), "{name}: arena, explicit");

        // An arena shared across engines' other groups and both paths:
        // the widened group reads the default path's columns for the
        // group's members and resolves its idle member explicitly.
        assert_eq!(
            bits(&query(&group).run_shared(&shared).unwrap()),
            bits(&explicit),
            "{name}: shared arena"
        );
        if let Some(wide) = &widened {
            let reference = query(wide).items(&candidates).run().unwrap();
            let mixed = SharedMemberState::new();
            query(&group).run_shared(&mixed).unwrap();
            let explicit_first = query(wide).items(&candidates).run_shared(&mixed).unwrap();
            assert_eq!(bits(&explicit_first), bits(&reference), "{name}: mixed");
            assert_eq!(
                bits(&query(wide).run_shared(&mixed).unwrap()),
                bits(&reference),
                "{name}: mixed, default"
            );
            assert_eq!(
                bits(&query(wide).run_shared(&shared).unwrap()),
                bits(&reference),
                "{name}: widened, shared arena"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The default itemset keys, resolves and runs as the explicit
    /// candidate set does, under raw ratings and user CF.
    #[test]
    fn default_itemset_runs_as_the_built_candidate_set(inst in instance_strategy()) {
        let pop = population();
        let matrix = matrix(&inst);
        check_provider(&RawRatings(&matrix), &matrix, &pop, &inst);
        let cf = UserCfModel::fit(&matrix, CfConfig::default());
        check_provider(&cf, &matrix, &pop, &inst);
    }
}

/// The two edges of the catalog arithmetic, pinned: members who rated
/// nothing leave the whole catalog, and members who rated everything
/// leave nothing.
#[test]
fn empty_and_full_rated_sets() {
    let pop = population();
    let mut b = RatingMatrixBuilder::new(USERS as usize, 5);
    for i in 0..5 {
        b.rate(UserId(2), ItemId(i), 3.0, 0);
    }
    let matrix = b.build();
    let raw = RawRatings(&matrix);
    let catalog: Vec<ItemId> = (0..5).map(ItemId).collect();
    let engine = GrecaEngine::warm(&raw, &pop, &catalog).unwrap();
    let idle = Group::new(vec![UserId(0), UserId(1)]).unwrap();
    assert_eq!(candidate_items(&matrix, &idle), catalog);
    let default = engine.query(&idle).run().unwrap();
    let explicit = engine.query(&idle).items(&catalog).run().unwrap();
    assert_eq!(bits(&default), bits(&explicit));
    let full = Group::new(vec![UserId(0), UserId(2)]).unwrap();
    assert_eq!(engine.query(&full).run(), Err(QueryError::EmptyItemset));
    assert_eq!(
        GrecaEngine::new(&raw, &pop).query(&full).run(),
        Err(QueryError::EmptyItemset)
    );
}

/// A group that rated 32 of 40 items leaves each member's column a run
/// of 8 items skipping 32 ids: written out instead, 12 B per entry (id
/// and score), as the explicit candidate set's columns are.
#[test]
fn default_columns_settle() {
    let pop = population();
    let mut b = RatingMatrixBuilder::new(USERS as usize, 40);
    for i in 0..32 {
        b.rate(UserId(2), ItemId(i), 3.0, 0);
    }
    let matrix = b.build();
    let raw = RawRatings(&matrix);
    let group = Group::new(vec![UserId(0), UserId(2)]).unwrap();
    let candidates = candidate_items(&matrix, &group);
    assert_eq!(candidates.len(), 8);
    let engine = GrecaEngine::new(&raw, &pop);
    let arena = SharedMemberState::new();
    let default = engine.query(&group).run_shared(&arena).unwrap();
    assert_eq!(arena.memory_bytes(), 2 * 8 * 12, "two written-out columns");
    let explicit = engine.query(&group).items(&candidates).run().unwrap();
    assert_eq!(bits(&default), bits(&explicit));
}

/// Raw ratings whose `rated_items` reports a fixed list, whatever it is.
struct Misrated<'a> {
    raw: RawRatings<'a>,
    rated: Vec<ItemId>,
}

impl PreferenceProvider for Misrated<'_> {
    fn apref(&self, u: UserId, i: ItemId) -> f64 {
        self.raw.apref(u, i)
    }

    fn catalog_size(&self) -> Option<usize> {
        self.raw.catalog_size()
    }

    fn rated_items(&self, _: &Group) -> Vec<ItemId> {
        self.rated.clone()
    }
}

/// Unsorted, repeated and out-of-catalog rated ids are refused with the
/// contract's message before anything reads them.
#[test]
fn misreported_rated_items_panic_clearly() {
    let pop = population();
    let matrix = RatingMatrixBuilder::new(USERS as usize, 8).build();
    let group = Group::new(vec![UserId(0), UserId(1)]).unwrap();
    for rated in [[3, 1], [2, 2], [1, 8]] {
        let provider = Misrated {
            raw: RawRatings(&matrix),
            rated: rated.map(ItemId).to_vec(),
        };
        let engine = GrecaEngine::new(&provider, &pop);
        let panic = std::panic::catch_unwind(AssertUnwindSafe(|| engine.query(&group).run()))
            .expect_err("a misreported rated set panics");
        let message = panic.downcast_ref::<String>().expect("a formatted message");
        assert!(
            message.contains("rated_items must return ascending, distinct ids below"),
            "{rated:?}: {message}"
        );
    }
}

/// Ingests naming new item ids grow the next epoch's catalog; its
/// default answers equal the explicit ones over the built candidate
/// set, which reads no engine state, for both live models.
#[test]
fn live_epochs_default_to_their_own_catalog() {
    let pop = population();
    let inst = Instance {
        catalog: 30,
        rows: (0..USERS).map(|u| (u % 4 + 1, u64::from(u) * 77)).collect(),
        per: 10,
        members: vec![0, 1, 3],
        cut: 0,
        k: 5,
        stopping: 0,
    };
    let initial = matrix(&inst);
    let universe: Vec<ItemId> = (0..20).map(ItemId).collect();
    for model in [LiveModel::Raw, LiveModel::UserCf(CfConfig::default())] {
        let live = LiveEngine::new(&pop, model, &initial, &universe).unwrap();
        let rate = |user, item, value| Rating {
            user: UserId(user),
            item: ItemId(item),
            value,
            ts: 500,
        };
        // A new id rated by a non-member, one rated by a member, then a
        // batch inside the catalog.
        let batches = [
            vec![rate(2, 30, 4.0)],
            vec![rate(1, 33, 5.0), rate(4, 31, 2.0)],
            vec![rate(0, 7, 1.0)],
        ];
        let groups = [
            Group::new(vec![UserId(0), UserId(1), UserId(3)]).unwrap(),
            Group::new(vec![UserId(2), UserId(5)]).unwrap(),
        ];
        let mut sizes = Vec::new();
        for batch in batches {
            live.ingest(&batch).unwrap();
            let pin = live.pin();
            sizes.push(pin.matrix().num_items());
            let engine = pin.engine();
            for group in &groups {
                let candidates = candidate_items(pin.matrix(), group);
                let explicit = engine.query(group).items(&candidates).run().unwrap();
                let default = engine.query(group).run().unwrap();
                assert_eq!(bits(&default), bits(&explicit), "{model:?}: direct");
                let served = engine.query(group).run_shared(pin.members()).unwrap();
                assert_eq!(bits(&served), bits(&explicit), "{model:?}: epoch arena");
            }
        }
        assert_eq!(sizes, [31, 34, 34], "{model:?}: the catalog grows");
    }
}
