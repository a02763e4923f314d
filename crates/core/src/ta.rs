//! TA baseline: threshold algorithm with random accesses.
//!
//! §3.1 argues that a TA-style computation of a single item's complete
//! score is expensive: for item `i1` of the running example it needs 21
//! RAs — one per missing `apref` component and one per affinity entry per
//! member, *re-fetched per item without caching*. We reproduce that
//! accounting: each newly encountered item charges
//!
//! * `n − 1` RAs for the other members' `apref` values, and
//! * `n − 1` RAs per member per affinity kind — i.e.
//!   `n·(n−1)·(T+1)` RAs for the `T` periodic plus one static affinity
//!   list sets (21 for `n = 3`, `T = 2`: 3 apref + 3·6 affinity).
//!
//! TA keeps a top-k heap of exact scores and stops when no unseen item's
//! upper bound (from the cursors) can beat the current k-th best.

use crate::access::AccessStats;
use crate::greca::{StopReason, TopKItem, TopKResult};
use crate::interval::Interval;
use crate::lists::{GrecaInputs, ListKind};
use crate::score::BoundScorer;
use greca_affinity::GroupAffinity;
use greca_consensus::{ConsensusFunction, GroupScorer};
use greca_dataset::ItemId;
use std::collections::{HashMap, HashSet};

/// TA configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaConfig {
    /// Result size.
    pub k: usize,
    /// When true, affinity components are fetched once and cached
    /// (cheaper); when false every item re-fetches them, matching the
    /// paper's §3.1 accounting. Default: false.
    pub cache_affinity: bool,
}

impl Default for TaConfig {
    /// The paper's default `k = 10` with per-item affinity re-fetching.
    fn default() -> Self {
        TaConfig::top(10)
    }
}

impl TaConfig {
    /// Paper-faithful configuration for a given `k`.
    pub fn top(k: usize) -> Self {
        TaConfig {
            k,
            cache_affinity: false,
        }
    }
}

/// Run the TA baseline.
pub fn ta_topk(
    inputs: &GrecaInputs<'_>,
    affinity: &GroupAffinity,
    consensus: ConsensusFunction,
    normalize_rpref: bool,
    config: TaConfig,
) -> TopKResult {
    assert!(config.k > 0, "k must be positive");
    let n = inputs.num_members;
    let k = config.k.min(inputs.num_items.max(1));
    let mut stats = AccessStats::new(inputs.total_entries());

    // Random-access side indexes (an index lookup is what an RA charges).
    let apref_index: Vec<HashMap<u32, f64>> = inputs
        .pref_lists
        .iter()
        .map(|l| l.iter().collect())
        .collect();

    let scorer = GroupScorer::new(affinity.clone(), consensus, normalize_rpref);
    let bound_scorer = BoundScorer::new(affinity, consensus, normalize_rpref);
    let exact_affs: Vec<Interval> = (0..affinity.num_pairs())
        .map(|p| Interval::exact(affinity.affinity(p)))
        .collect();
    // RA cost of the affinity components for one item: each member
    // fetches its n−1 pair entries from the static and each periodic
    // list set (the paper's accounting; §3.1's 6 RAs per member).
    let n_kinds = (!inputs.static_lists.is_empty()) as u64 + inputs.period_lists.len() as u64;
    let affinity_ras_per_item = (n as u64) * (n as u64 - 1) * n_kinds;
    let mut affinity_charged_once = false;

    let mut seen: HashSet<u32> = HashSet::new();
    let mut heap: Vec<(ItemId, f64)> = Vec::new(); // small k: sorted vec
    let mut positions = vec![0usize; n];
    let mut cursors: Vec<f64> = inputs
        .pref_lists
        .iter()
        .map(|l| l.first_score().unwrap_or(0.0))
        .collect();

    loop {
        let mut read_any = false;
        for (m, list) in inputs.pref_lists.iter().enumerate() {
            let pos = positions[m];
            if pos >= list.len() {
                continue;
            }
            let (id, score) = list.entry(pos);
            positions[m] = pos + 1;
            cursors[m] = score;
            stats.record_sa();
            read_any = true;
            debug_assert!(matches!(list.kind, ListKind::Preference { .. }));
            if !seen.insert(id) {
                continue;
            }
            // Complete the item's score by random access.
            let mut aprefs = vec![0.0f64; n];
            aprefs[m] = score;
            for (other, index) in apref_index.iter().enumerate() {
                if other == m {
                    continue;
                }
                stats.record_ra();
                aprefs[other] = *index.get(&id).unwrap_or(&0.0);
            }
            if !config.cache_affinity || !affinity_charged_once {
                stats.ra += affinity_ras_per_item;
                affinity_charged_once = true;
            }
            let s = scorer.score(&aprefs);
            heap.push((ItemId(id), s));
            heap.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .expect("finite")
                    .then_with(|| a.0.cmp(&b.0))
            });
            heap.truncate(k);
        }
        if !read_any {
            return finish(heap, stats, StopReason::Exhausted);
        }
        // Threshold: the best score an unseen item could reach, with
        // apref components bounded by the cursors and exact affinities.
        if heap.len() == k {
            let any_exhausted = (0..n).any(|m| positions[m] >= inputs.pref_lists[m].len());
            if any_exhausted {
                return finish(heap, stats, StopReason::Exhausted);
            }
            let aprefs_iv: Vec<Interval> = cursors.iter().map(|&c| Interval::new(0.0, c)).collect();
            let threshold = bound_scorer.score_interval(&aprefs_iv, &exact_affs).hi;
            let kth = heap[k - 1].1;
            if threshold <= kth + 1e-12 {
                return finish(heap, stats, StopReason::Threshold);
            }
        }
    }
}

fn finish(heap: Vec<(ItemId, f64)>, stats: AccessStats, reason: StopReason) -> TopKResult {
    TopKResult {
        items: heap
            .into_iter()
            .map(|(item, s)| TopKItem { item, lb: s, ub: s })
            .collect(),
        stats,
        sweeps: 0,
        stop_reason: reason,
    }
}
