//! Bit-identity of the allocation-free GRECA kernel.
//!
//! The kernel rewrite (dense item arena, incremental bound maintenance,
//! bounded top-k heap, reusable scratch) must change *nothing*
//! observable: itemsets, `[LB, UB]` envelopes, sequential-access counts,
//! sweep counts and stop reasons all stay bit-identical to the
//! pre-refactor semantics, for every `StoppingRule`.
//!
//! Three oracles pin this down:
//!
//! * [`reference`] — the pre-refactor `greca_topk` implementation,
//!   kept here **verbatim** (HashMap item buffer, full bound recompute
//!   per check, full LB sort). It keeps the stopping-check cadences the
//!   crate once offered as a test-local [`reference::CheckInterval`]:
//!   the kernel runs one cadence, which the reference runs as
//!   `Adaptive`. Every kernel output is compared against that run with
//!   full `TopKResult` equality, which is as mutation-resistant as it
//!   gets: any behavioral drift in the kernel shows up as a concrete
//!   field diff.
//! * The reference's `EverySweep` cadence — Algorithm 1's per-sweep
//!   check: the kernel may notice a stopping condition later, but never
//!   earlier and never more than 31 sweeps later.
//! * `StoppingRule::Exhaustive` — the in-tree truth: the returned
//!   itemset's exact scores must match the exhaustive run's top-k.
//!
//! Coverage: random instances over AffinityMode × ConsensusFunction ×
//! ListLayout with k ∈ {1, paper default, |items|}; the degenerate
//! shapes (singleton member, empty itemset, all-tied scores) as
//! deterministic cases; and large itemsets (m ≈ 600 and 1,500) on which
//! the cadence stretches past one sweep, which the small random
//! instances never reach.

use greca_affinity::{AffinityMode, GroupAffinity, PopulationAffinity, TableAffinitySource};
use greca_cf::PreferenceList;
use greca_consensus::ConsensusFunction;
use greca_core::{
    greca_topk_with, GrecaConfig, GrecaScratch, ListLayout, MaterializedInputs, StoppingRule,
    TopKResult,
};
use greca_dataset::{Granularity, Group, ItemId, Timeline, UserId};
use proptest::prelude::*;
use reference::CheckInterval;

/// The pre-refactor GRECA implementation, verbatim (modulo the
/// `list_contains_pair` helper being inlined below it, imports going
/// through the public API, the cadence being a test-local parameter and
/// the run reporting the largest cadence stretch it reached). Do not
/// "improve" this code: its whole value is being the behavioral
/// snapshot the kernel is measured against.
mod reference {
    use greca_consensus::ConsensusFunction;
    use greca_core::{
        AccessStats, BoundScorer, GrecaConfig, GrecaInputs, Interval, ListKind, ListView,
        StopReason, StoppingRule, TopKItem, TopKResult,
    };
    use greca_dataset::ItemId;
    use std::collections::HashMap;

    /// How often the bound refresh and stopping checks run.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum CheckInterval {
        /// After every full round-robin sweep (Algorithm 1 verbatim).
        EverySweep,
        /// Every `(buffered items / 128).clamp(1, 32)` sweeps: the
        /// kernel's one cadence.
        Adaptive,
    }

    #[derive(Debug, Clone)]
    struct ItemState {
        aprefs: Vec<Option<f64>>,
        bounds: Interval,
    }

    struct RunState<'a> {
        inputs: &'a GrecaInputs<'a>,
        scorer: BoundScorer<'a>,
        positions: Vec<usize>,
        cursors: Vec<f64>,
        pair_static: Vec<Option<f64>>,
        pair_period: Vec<Vec<Option<f64>>>,
        items: HashMap<u32, ItemState>,
        pruned: std::collections::HashSet<u32>,
        pair_affs: Vec<Interval>,
        stats: AccessStats,
        lists: Vec<ListView<'a>>,
    }

    impl<'a> RunState<'a> {
        fn new(inputs: &'a GrecaInputs<'a>, scorer: BoundScorer<'a>) -> Self {
            let lists: Vec<ListView<'a>> = inputs.all_lists().collect();
            let stats = AccessStats::new(inputs.total_entries());
            RunState {
                inputs,
                scorer,
                positions: vec![0; lists.len()],
                cursors: lists
                    .iter()
                    .map(|l| l.first_score().unwrap_or(0.0))
                    .collect(),
                pair_static: vec![None; inputs.num_pairs],
                pair_period: vec![vec![None; inputs.num_pairs]; inputs.period_lists.len()],
                items: HashMap::new(),
                pruned: std::collections::HashSet::new(),
                pair_affs: Vec::new(),
                stats,
                lists,
            }
        }

        fn sweep(&mut self) -> bool {
            let mut read_any = false;
            for li in 0..self.lists.len() {
                let pos = self.positions[li];
                let list = self.lists[li];
                if pos >= list.len() {
                    continue;
                }
                let (id, score) = list.entry(pos);
                self.positions[li] = pos + 1;
                self.cursors[li] = score;
                self.stats.record_sa();
                read_any = true;
                match list.kind {
                    ListKind::Preference { member } => {
                        if self.pruned.contains(&id) {
                            continue;
                        }
                        let n = self.inputs.num_members;
                        let entry = self.items.entry(id).or_insert_with(|| ItemState {
                            aprefs: vec![None; n],
                            bounds: Interval::new(f64::NEG_INFINITY, f64::INFINITY),
                        });
                        entry.aprefs[member as usize] = Some(score);
                    }
                    ListKind::StaticAffinity => {
                        self.pair_static[id as usize] = Some(score);
                    }
                    ListKind::PeriodicAffinity { period } => {
                        self.pair_period[period as usize][id as usize] = Some(score);
                    }
                }
            }
            read_any
        }

        fn static_cursor(&self, pair: usize) -> f64 {
            let base = self.inputs.pref_lists.len();
            let mut best: f64 = 0.0;
            for (off, &list) in self.inputs.static_lists.iter().enumerate() {
                let li = base + off;
                if self.positions[li] < list.len() && list_contains_pair(list, pair) {
                    best = best.max(self.cursors[li]);
                }
            }
            best
        }

        fn period_cursor(&self, period: usize, pair: usize) -> f64 {
            let mut best: f64 = 0.0;
            let mut li = self.inputs.pref_lists.len() + self.inputs.static_lists.len();
            for (p, lists) in self.inputs.period_lists.iter().enumerate() {
                for &list in lists {
                    if p == period
                        && self.positions[li] < list.len()
                        && list_contains_pair(list, pair)
                    {
                        best = best.max(self.cursors[li]);
                    }
                    li += 1;
                }
            }
            best
        }

        fn refresh_pair_affs(&mut self) {
            let n_pairs = self.inputs.num_pairs;
            let mode_static = !self.inputs.static_lists.is_empty();
            let n_periods = self.inputs.period_lists.len();
            let mut out = Vec::with_capacity(n_pairs);
            for pair in 0..n_pairs {
                let s_iv = match self.pair_static[pair] {
                    Some(v) => Interval::exact(v),
                    None if !mode_static => Interval::exact(0.0),
                    None => Interval::new(0.0, self.static_cursor(pair)),
                };
                let comps: Vec<Interval> = (0..n_periods)
                    .map(|p| match self.pair_period[p][pair] {
                        Some(v) => Interval::exact(v),
                        None => Interval::new(0.0, self.period_cursor(p, pair)),
                    })
                    .collect();
                out.push(self.scorer.pair_affinity_interval(s_iv, &comps));
            }
            self.pair_affs = out;
        }

        fn pref_cursor(&self, member: usize) -> f64 {
            let list = self.inputs.pref_lists.get(member).expect("member list");
            if self.positions[member] >= list.len() {
                list.last_score().unwrap_or(0.0)
            } else {
                self.cursors[member]
            }
        }

        fn refresh_bounds(&mut self) {
            self.refresh_pair_affs();
            let n = self.inputs.num_members;
            let cursors: Vec<f64> = (0..n).map(|m| self.pref_cursor(m)).collect();
            let pair_affs = std::mem::take(&mut self.pair_affs);
            for st in self.items.values_mut() {
                let aprefs: Vec<Interval> = st
                    .aprefs
                    .iter()
                    .enumerate()
                    .map(|(m, v)| match v {
                        Some(x) => Interval::exact(*x),
                        None => Interval::new(0.0, cursors[m]),
                    })
                    .collect();
                st.bounds = self.scorer.score_interval(&aprefs, &pair_affs);
            }
            self.pair_affs = pair_affs;
        }

        fn threshold(&self) -> Option<f64> {
            let n = self.inputs.num_members;
            let any_exhausted =
                (0..n).any(|m| self.positions[m] >= self.inputs.pref_lists[m].len());
            if any_exhausted {
                return None;
            }
            let aprefs: Vec<Interval> = (0..n)
                .map(|m| Interval::new(0.0, self.pref_cursor(m)))
                .collect();
            Some(self.scorer.score_interval(&aprefs, &self.pair_affs).hi)
        }
    }

    fn list_contains_pair(list: ListView<'_>, pair: usize) -> bool {
        list.contains_id(pair as u32)
    }

    /// Run GRECA on the given cadence. Also returns the largest number
    /// of sweeps the cadence waited between two checks (1 under
    /// `EverySweep`).
    pub fn greca_topk(
        inputs: &GrecaInputs<'_>,
        affinity: &greca_affinity::GroupAffinity,
        consensus: ConsensusFunction,
        normalize_rpref: bool,
        config: GrecaConfig,
        check_interval: CheckInterval,
    ) -> (TopKResult, u64) {
        assert!(config.k > 0, "k must be positive");
        assert_eq!(
            affinity.num_pairs(),
            inputs.num_pairs,
            "affinity view must match the inputs"
        );
        let scorer = BoundScorer::new(affinity, consensus, normalize_rpref);
        let mut state = RunState::new(inputs, scorer);
        let k = config.k.min(inputs.num_items.max(1));
        let mut sweeps: u64 = 0;
        let mut since_check: u64 = 0;
        let mut max_stretch: u64 = 1;
        let mut stop_reason = StopReason::Exhausted;

        loop {
            let read_any = state.sweep();
            if !read_any {
                break;
            }
            sweeps += 1;
            since_check += 1;
            let check_now = match check_interval {
                CheckInterval::EverySweep => true,
                CheckInterval::Adaptive => {
                    let target = (state.items.len() as u64 / 128).clamp(1, 32);
                    since_check >= target
                }
            };
            if !check_now || matches!(config.stopping, StoppingRule::Exhaustive) {
                continue;
            }
            max_stretch = max_stretch.max(since_check);
            since_check = 0;
            state.refresh_bounds();
            if state.items.len() < k {
                continue;
            }
            let mut lbs: Vec<f64> = state.items.values().map(|s| s.bounds.lo).collect();
            lbs.sort_by(|a, b| b.partial_cmp(a).expect("finite bounds"));
            let kth_lb = lbs[k - 1];
            let threshold = state.threshold();
            let threshold_ok = threshold.is_none_or(|t| t <= kth_lb + 1e-12);

            match config.stopping {
                StoppingRule::Greca => {
                    let before = state.items.len();
                    if before > k {
                        let mut ranked: Vec<(u32, f64)> = state
                            .items
                            .iter()
                            .map(|(&id, s)| (id, s.bounds.lo))
                            .collect();
                        ranked.sort_by(|a, b| {
                            b.1.partial_cmp(&a.1)
                                .expect("finite")
                                .then_with(|| a.0.cmp(&b.0))
                        });
                        let topk: std::collections::HashSet<u32> =
                            ranked[..k].iter().map(|&(id, _)| id).collect();
                        let pruned: Vec<u32> = state
                            .items
                            .iter()
                            .filter(|(&id, s)| !topk.contains(&id) && s.bounds.hi <= kth_lb + 1e-12)
                            .map(|(&id, _)| id)
                            .collect();
                        for id in pruned {
                            state.items.remove(&id);
                            state.pruned.insert(id);
                        }
                    }
                    if state.items.len() == k && threshold_ok {
                        stop_reason = if state.pruned.is_empty() {
                            StopReason::Threshold
                        } else {
                            StopReason::Buffer
                        };
                        break;
                    }
                }
                StoppingRule::ThresholdOnly => {
                    if state.items.len() == k && threshold_ok {
                        stop_reason = StopReason::Threshold;
                        break;
                    }
                }
                StoppingRule::Exhaustive => unreachable!("handled above"),
            }
        }

        if matches!(stop_reason, StopReason::Exhausted) {
            state.refresh_bounds();
        }
        let mut ranked: Vec<(u32, Interval)> =
            state.items.iter().map(|(&id, s)| (id, s.bounds)).collect();
        ranked.sort_by(|a, b| {
            b.1.lo
                .partial_cmp(&a.1.lo)
                .expect("finite")
                .then_with(|| a.0.cmp(&b.0))
        });
        ranked.truncate(k);
        let result = TopKResult {
            items: ranked
                .into_iter()
                .map(|(id, iv)| TopKItem {
                    item: ItemId(id),
                    lb: iv.lo,
                    ub: iv.hi,
                })
                .collect(),
            stats: state.stats,
            sweeps,
            stop_reason,
        };
        (result, max_stretch)
    }
}

/// One test world: preference tables plus a population-affinity index.
#[derive(Debug, Clone)]
struct World {
    affinity: GroupAffinity,
    inputs: MaterializedInputs,
}

fn num_pairs(n: usize) -> usize {
    n * (n - 1) / 2
}

/// Build a world from raw tables.
#[allow(clippy::too_many_arguments)]
fn world(
    n: usize,
    m: usize,
    periods: usize,
    aprefs: &[Vec<f64>],
    static_raw: &[f64],
    periodic_raw: &[Vec<f64>],
    mode: AffinityMode,
    layout: ListLayout,
) -> World {
    let users: Vec<UserId> = (0..n as u32).map(UserId).collect();
    // A singleton group cannot come from a population index (it needs
    // ≥ 2 users); build its trivial affinity view directly.
    if n == 1 {
        let mode = match (periods, mode) {
            (0, m) if m.is_temporal() => AffinityMode::StaticOnly,
            (_, m) => m,
        };
        let affinity = GroupAffinity::new(
            users.clone(),
            mode,
            vec![],
            vec![vec![]; periods],
            vec![0.0; periods],
        );
        let pref_lists = vec![PreferenceList::from_entries(
            users[0],
            (0..m).map(|i| (ItemId(i as u32), aprefs[0][i])).collect(),
        )
        .expect("finite scores")];
        let inputs = MaterializedInputs::build(&pref_lists, &affinity, layout).expect("finite");
        return World { affinity, inputs };
    }
    let mut src = TableAffinitySource::new();
    let mut pair = 0;
    for i in 0..n {
        for j in (i + 1)..n {
            src.set_static(users[i], users[j], static_raw[pair]);
            pair += 1;
        }
    }
    let pop = if periods == 0 {
        PopulationAffinity::new_static_only(&src, &users)
    } else {
        let tl = Timeline::discretize(0, (periods as i64) * 100, Granularity::Custom(100)).unwrap();
        for (p, pdata) in periodic_raw.iter().enumerate() {
            let start = tl.periods()[p].start;
            let mut pr = 0;
            for i in 0..n {
                for j in (i + 1)..n {
                    src.set_periodic(users[i], users[j], start, pdata[pr]);
                    pr += 1;
                }
            }
        }
        PopulationAffinity::build(&src, &users, &tl)
    };
    let group = Group::new(users.clone()).unwrap();
    // A temporal mode needs at least one period.
    let mode = match (periods, mode) {
        (0, m) if m.is_temporal() => AffinityMode::StaticOnly,
        (_, m) => m,
    };
    let affinity = pop.group_view(&group, periods.saturating_sub(1), mode);
    let pref_lists: Vec<PreferenceList> = (0..n)
        .map(|u| {
            PreferenceList::from_entries(
                users[u],
                (0..m).map(|i| (ItemId(i as u32), aprefs[u][i])).collect(),
            )
            .expect("finite scores")
        })
        .collect();
    let inputs = MaterializedInputs::build(&pref_lists, &affinity, layout).expect("finite");
    World { affinity, inputs }
}

const ALL_STOPPING: [StoppingRule; 3] = [
    StoppingRule::Greca,
    StoppingRule::ThresholdOnly,
    StoppingRule::Exhaustive,
];

/// Assert full-result identity between the kernel (with the given
/// shared, recycled scratch) and the reference on the kernel's cadence,
/// for every StoppingRule at the given `k`; also sanity-check the
/// returned itemset against the Exhaustive truth. Returns the kernel's
/// `Greca`-rule result and the largest cadence stretch that run reached.
fn assert_identical(
    w: &World,
    consensus: ConsensusFunction,
    normalize: bool,
    k: usize,
    scratch: &mut GrecaScratch,
) -> (TopKResult, u64) {
    let views = w.inputs.views();
    let reference = |stopping, interval| {
        let config = GrecaConfig::top(k).stopping(stopping);
        reference::greca_topk(&views, &w.affinity, consensus, normalize, config, interval)
    };
    let (truth, _) = reference(StoppingRule::Exhaustive, CheckInterval::EverySweep);
    let mut greca_run = None;
    for stopping in ALL_STOPPING {
        let config = GrecaConfig::top(k).stopping(stopping);
        let (want, stretch) = reference(stopping, CheckInterval::Adaptive);
        let got = greca_topk_with(&views, &w.affinity, consensus, normalize, config, scratch);
        assert_eq!(
            got,
            want,
            "kernel drifted from reference at {stopping:?} k={k} \
             consensus={} normalize={normalize}",
            consensus.label()
        );
        // Early stopping returns the same itemset the exhaustive
        // truth does (score ties may reorder; the exact LB multiset
        // of the exhaustive run is the cleanest itemset identity).
        let mut got_ids: Vec<u32> = got.items.iter().map(|t| t.item.0).collect();
        got_ids.sort_unstable();
        let mut truth_scores: Vec<f64> = truth.items.iter().map(|t| t.lb).collect();
        truth_scores.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let exact_of = |id: u32| truth.items.iter().find(|t| t.item.0 == id).map(|t| t.lb);
        // Every returned item that the exhaustive top-k also ranked
        // must carry a score matching the truth multiset.
        for (gi, &id) in got_ids.iter().enumerate() {
            if let Some(s) = exact_of(id) {
                assert!(
                    truth_scores.iter().any(|&t| (t - s).abs() < 1e-9),
                    "item {id} (rank {gi}) score {s} not in exhaustive top-k"
                );
            }
        }
        if stopping == StoppingRule::Greca {
            greca_run = Some((got, stretch));
        }
    }
    greca_run.expect("the Greca rule ran")
}

#[derive(Debug, Clone)]
struct Instance {
    n: usize,
    m: usize,
    periods: usize,
    aprefs: Vec<Vec<f64>>,
    static_raw: Vec<f64>,
    periodic_raw: Vec<Vec<f64>>,
    mode_sel: u8,
    consensus_sel: u8,
    layout_single: bool,
    normalize: bool,
}

fn instance_strategy() -> impl Strategy<Value = Instance> {
    (1usize..=4, 1usize..=16, 0usize..=3).prop_flat_map(|(n, m, periods)| {
        let aprefs = proptest::collection::vec(proptest::collection::vec(0.0f64..5.0, m), n);
        let static_raw = proptest::collection::vec(0.0f64..3.0, num_pairs(n).max(1));
        let periodic_raw = proptest::collection::vec(
            proptest::collection::vec(0.0f64..4.0, num_pairs(n).max(1)),
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
                    layout_single,
                    normalize,
                )| Instance {
                    n,
                    m,
                    periods,
                    aprefs,
                    static_raw,
                    periodic_raw,
                    mode_sel,
                    consensus_sel,
                    layout_single,
                    normalize,
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

fn world_of(inst: &Instance) -> World {
    world(
        inst.n,
        inst.m,
        inst.periods,
        &inst.aprefs,
        &inst.static_raw,
        &inst.periodic_raw,
        mode_of(inst.mode_sel),
        if inst.layout_single {
            ListLayout::Single
        } else {
            ListLayout::Decomposed
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(72))]

    /// The headline contract: full-result identity to the pre-refactor
    /// implementation, every StoppingRule, with one
    /// scratch recycled across every run of every case (so cross-query
    /// state leakage would surface as a diff too). k sweeps the
    /// degenerate 1, the paper's 10 and the full itemset.
    #[test]
    fn kernel_is_bit_identical_to_reference(inst in instance_strategy()) {
        let w = world_of(&inst);
        let consensus = consensus_of(inst.consensus_sel);
        let mut scratch = GrecaScratch::new();
        for k in [1, 10.min(inst.m.max(1)), inst.m.max(1)] {
            assert_identical(&w, consensus, inst.normalize, k, &mut scratch);
        }
    }
}

/// Deterministic degenerate shapes the strategy is unlikely to weight
/// heavily, across the full AffinityMode × ConsensusFunction grid.
#[test]
fn degenerate_shapes_are_bit_identical() {
    let mut scratch = GrecaScratch::new();
    for mode_sel in 0..4u8 {
        for consensus_sel in 0..5u8 {
            let consensus = consensus_of(consensus_sel);
            for layout in [ListLayout::Decomposed, ListLayout::Single] {
                // Singleton member: no pairs, no affinity lists.
                let w = world(
                    1,
                    5,
                    2,
                    &[vec![3.0, 1.0, 4.0, 1.0, 5.0]],
                    &[],
                    &[vec![], vec![]],
                    mode_of(mode_sel),
                    layout,
                );
                for k in [1, 5] {
                    assert_identical(&w, consensus, true, k, &mut scratch);
                }

                // Empty itemset: every preference list has zero entries.
                let w = world(
                    3,
                    0,
                    1,
                    &[vec![], vec![], vec![]],
                    &[0.5, 0.2, 0.9],
                    &[vec![0.1, 0.8, 0.3]],
                    mode_of(mode_sel),
                    layout,
                );
                assert_identical(&w, consensus, false, 1, &mut scratch);

                // All-tied scores: every apref and affinity identical, so
                // every bound collapses to one value and pruning decides
                // purely by id ties.
                let w = world(
                    3,
                    6,
                    2,
                    &[vec![2.0; 6], vec![2.0; 6], vec![2.0; 6]],
                    &[0.7; 3],
                    &[vec![0.4; 3], vec![0.4; 3]],
                    mode_of(mode_sel),
                    layout,
                );
                for k in [1, 3, 6] {
                    assert_identical(&w, consensus, true, k, &mut scratch);
                }
            }
        }
    }
}

/// A deterministic splitmix64 stream of floats in `[0, hi)`.
struct Stream(u64);

impl Stream {
    fn next(&mut self, hi: f64) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64 * hi
    }
}

/// Itemsets large enough that the cadence stretches past one sweep
/// (about 4 sweeps at m = 600, about 11 at m = 1,500), which the random
/// instances (m ≤ 16) never reach. Each case must actually stretch, and
/// the `Greca` rule must stop no earlier and at most 31 sweeps later
/// than Algorithm 1's per-sweep check. On these instances, at k = 10
/// the buffer has shrunk below 256 live items by the time GRECA stops,
/// so it stops on the per-sweep check's sweep; at k = m / 2 it has not,
/// so most cases stop a few sweeps late and the cadence itself shows in
/// the result.
#[test]
fn large_itemsets_stretch_the_cadence_and_stay_bit_identical() {
    // (n, m, mode_sel, consensus_sel)
    const CASES: [(usize, usize, u8, u8); 4] = [
        (3, 600, 2, 0),
        (6, 600, 3, 1),
        (3, 600, 1, 4),
        (3, 1_500, 3, 2),
    ];
    let mut scratch = GrecaScratch::new();
    for (seed, (n, m, mode_sel, consensus_sel)) in CASES.into_iter().enumerate() {
        let periods = 2;
        let mut rng = Stream(seed as u64 + 1);
        let mut draw = |len: usize, hi: f64| (0..len).map(|_| rng.next(hi)).collect::<Vec<_>>();
        let aprefs: Vec<Vec<f64>> = (0..n).map(|_| draw(m, 5.0)).collect();
        let static_raw = draw(num_pairs(n), 3.0);
        let periodic_raw: Vec<Vec<f64>> = (0..periods).map(|_| draw(num_pairs(n), 4.0)).collect();
        let w = world(
            n,
            m,
            periods,
            &aprefs,
            &static_raw,
            &periodic_raw,
            mode_of(mode_sel),
            ListLayout::Decomposed,
        );
        let consensus = consensus_of(consensus_sel);
        for k in [10, m / 2] {
            let label = format!(
                "n={n} m={m} mode={mode_sel} consensus={} k={k}",
                consensus.label()
            );
            let (got, stretch) = assert_identical(&w, consensus, true, k, &mut scratch);
            assert!(
                stretch > 1,
                "{label}: the Greca rule never stretched the cadence past one sweep"
            );
            let (per_sweep, _) = reference::greca_topk(
                &w.inputs.views(),
                &w.affinity,
                consensus,
                true,
                GrecaConfig::top(k),
                CheckInterval::EverySweep,
            );
            assert!(
                per_sweep.sweeps <= got.sweeps && got.sweeps <= per_sweep.sweeps + 31,
                "{label}: the kernel stopped after {} sweeps, the per-sweep check after {}",
                got.sweeps,
                per_sweep.sweeps
            );
        }
    }
}

/// A recycled scratch returns exactly what a fresh scratch returns (a
/// workspace cannot leak state into results).
#[test]
fn scratch_reuse_is_observable_and_harmless() {
    let w = world(
        3,
        8,
        2,
        &[
            vec![5.0, 4.0, 3.0, 2.0, 1.0, 0.5, 0.2, 0.1],
            vec![0.1, 5.0, 0.2, 4.0, 0.3, 3.0, 0.4, 2.0],
            vec![2.0, 2.0, 2.0, 5.0, 1.0, 1.0, 4.0, 0.0],
        ],
        &[1.0, 0.2, 0.3],
        &[vec![0.8, 0.1, 0.2], vec![0.7, 0.1, 0.1]],
        AffinityMode::Discrete,
        ListLayout::Decomposed,
    );
    let views = w.inputs.views();
    let consensus = ConsensusFunction::average_preference();
    let mut scratch = GrecaScratch::new();
    let config = GrecaConfig::top(3);
    let fresh = greca_topk_with(
        &views,
        &w.affinity,
        consensus,
        true,
        config,
        &mut GrecaScratch::new(),
    );
    // Run a *different* query through the same scratch first, then the
    // original: identical to the fresh-scratch result.
    let _ = greca_topk_with(
        &views,
        &w.affinity,
        ConsensusFunction::least_misery(),
        false,
        GrecaConfig::top(8),
        &mut scratch,
    );
    let reused = greca_topk_with(&views, &w.affinity, consensus, true, config, &mut scratch);
    assert_eq!(fresh, reused);
}
