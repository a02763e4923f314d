//! The §3.1/§4.2 comparison set: the TA baseline and the naive full
//! scan.
//!
//! GRECA is the only algorithm `greca-core` ships. These two exist to be
//! compared against — the naive scan for "%SA compared to a naive
//! algorithm which entirely scans all lists" (§4.2), TA for §3.1's cost
//! of completing one score by random access — so they live here, with
//! the experiments and the tests that compare. Both run over a
//! [`PreparedQuery`]'s own inputs, affinity view and scoring settings,
//! at its [`top`](PreparedQuery::top) `k`, so a comparison reads exactly
//! the lists GRECA reads and returns as many items.

use greca_consensus::GroupScorer;
use greca_core::{
    AccessStats, BoundScorer, Interval, ListKind, PreparedQuery, StopReason, TopKItem, TopKResult,
};
use greca_dataset::ItemId;
use std::collections::{HashMap, HashSet};

/// Threshold algorithm with random accesses.
///
/// §3.1 argues that a TA-style computation of a single item's complete
/// score is expensive: for item `i1` of the running example it needs 21
/// RAs — one per missing `apref` component and one per affinity entry
/// per member, *re-fetched per item without caching*. This reproduces
/// that accounting: each newly encountered item charges
///
/// * `n − 1` RAs for the other members' `apref` values, and
/// * `n − 1` RAs per member per affinity kind — i.e. `n·(n−1)·(T+1)`
///   RAs for the `T` periodic plus one static affinity list sets
///   (20 in all for `n = 3`, `T = 2`: 2 apref + 3·6 affinity; the paper
///   counts 21 because it also re-fetches the component under the
///   cursor).
///
/// TA keeps a top-`k` heap of exact scores and stops when no unseen
/// item's upper bound (from the cursors) can beat the current k-th
/// best.
pub fn ta_topk(prepared: &PreparedQuery) -> TopKResult {
    assert!(prepared.k() > 0, "k must be positive");
    let inputs = prepared.inputs();
    let affinity = prepared.affinity();
    let (consensus, normalize_rpref) = (prepared.consensus_function(), prepared.normalize_rpref());
    let n = inputs.num_members;
    let k = prepared.k().min(inputs.num_items.max(1));
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
            stats.ra += affinity_ras_per_item;
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

/// Naive full-scan top-`k`: every entry of every list is read (one SA
/// each, so `sa` is the inputs' total entry count) and every item's
/// exact consensus score ranks the result — the
/// [`PreparedQuery::exact_scores`] reference truncated to `k`.
pub fn naive_topk(prepared: &PreparedQuery) -> TopKResult {
    assert!(prepared.k() > 0, "k must be positive");
    let total_entries = prepared.inputs().total_entries();
    let mut scored = prepared.exact_scores();
    scored.truncate(prepared.k());
    let stats = AccessStats {
        sa: total_entries,
        ..AccessStats::new(total_entries)
    };
    finish(scored, stats, StopReason::Exhausted)
}

/// Exactly scored items, best first, as a result whose envelopes are
/// points (`lb == ub`).
fn finish(scored: Vec<(ItemId, f64)>, stats: AccessStats, reason: StopReason) -> TopKResult {
    TopKResult {
        items: scored
            .into_iter()
            .map(|(item, s)| TopKItem { item, lb: s, ub: s })
            .collect(),
        stats,
        sweeps: 0,
        checks: 0,
        check_items: 0,
        stop_reason: reason,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greca_affinity::{AffinityMode, PopulationAffinity, TableAffinitySource};
    use greca_cf::PreferenceList;
    use greca_core::ListLayout;
    use greca_dataset::{Granularity, Group, Timeline, UserId};

    const U1: UserId = UserId(1);
    const U2: UserId = UserId(2);
    const U3: UserId = UserId(3);

    /// The paper's running example (§3.1, Tables 1–4): three users,
    /// three items, two six-month periods.
    fn running_example() -> PreparedQuery {
        let (i1, i2, i3) = (ItemId(1), ItemId(2), ItemId(3));
        let lists = vec![
            PreferenceList::from_entries(U1, vec![(i1, 5.0), (i2, 1.0), (i3, 1.0)]).unwrap(),
            PreferenceList::from_entries(U2, vec![(i1, 5.0), (i2, 1.0), (i3, 0.5)]).unwrap(),
            PreferenceList::from_entries(U3, vec![(i3, 2.0), (i1, 2.0), (i2, 1.0)]).unwrap(),
        ];
        let tl = Timeline::discretize(0, 365 * 86_400, Granularity::Custom(183 * 86_400)).unwrap();
        let (p1, p2) = (tl.periods()[0], tl.periods()[1]);
        let mut src = TableAffinitySource::new();
        src.set_static(U1, U2, 1.0)
            .set_static(U1, U3, 0.2)
            .set_static(U2, U3, 0.3)
            .set_periodic(U1, U2, p1.start, 0.8)
            .set_periodic(U1, U3, p1.start, 0.1)
            .set_periodic(U2, U3, p1.start, 0.2)
            .set_periodic(U1, U2, p2.start, 0.7)
            .set_periodic(U1, U3, p2.start, 0.1)
            .set_periodic(U2, U3, p2.start, 0.1);
        let pop = PopulationAffinity::build(&src, &[U1, U2, U3], &tl);
        let group = Group::new(vec![U1, U2, U3]).unwrap();
        let affinity = pop.group_view(&group, tl.num_periods() - 1, AffinityMode::Discrete);
        PreparedQuery::from_parts(affinity, &lists, ListLayout::Decomposed, false)
            .expect("the running example's tables are finite")
    }

    /// Distinct items among TA's first `sa` reads, in its round-robin
    /// order — the items whose scores TA completed.
    fn items_completed(p: &PreparedQuery, sa: u64) -> u64 {
        let inputs = p.inputs();
        let mut seen = HashSet::new();
        let mut reads = 0u64;
        for pos in 0.. {
            for list in &inputs.pref_lists {
                if reads == sa {
                    return seen.len() as u64;
                }
                if pos < list.len() {
                    seen.insert(list.entry(pos).0);
                    reads += 1;
                }
            }
        }
        unreachable!()
    }

    #[test]
    fn ta_charges_section_3_1_ras_per_completed_item() {
        let p = running_example();
        // n = 3 members, T = 2 periods plus the static set: each newly
        // completed item costs (n−1) apref RAs plus n(n−1)(T+1) affinity
        // RAs = 2 + 18 = 20.
        let inputs = p.inputs();
        assert_eq!((inputs.num_members, inputs.period_lists.len()), (3, 2));
        assert!(!inputs.static_lists.is_empty());
        let exact = p.exact_scores();
        for k in 1..=3 {
            let ta = ta_topk(&p.clone().top(k));
            assert_eq!(ta.items.len(), k);
            let want: Vec<ItemId> = exact.iter().take(k).map(|&(i, _)| i).collect();
            assert_eq!(
                ta.item_ids(),
                want,
                "k = {k}: TA agrees with the naive scan"
            );
            let completed = items_completed(&p, ta.stats.sa);
            assert!(completed >= k as u64);
            assert_eq!(ta.stats.ra, 20 * completed, "k = {k}");
        }
        // §3.2's outcome: i1 is the group's top-1 item.
        assert_eq!(ta_topk(&p.top(1)).items[0].item, ItemId(1));
    }

    #[test]
    fn naive_reads_every_entry_and_ranks_by_exact_score() {
        let p = running_example();
        let naive = naive_topk(&p.clone().top(2));
        assert_eq!(naive.stats.sa, 18, "9 pref + 3 static + 6 periodic");
        assert_eq!(naive.stats.sa, naive.stats.total_entries);
        assert_eq!(naive.stats.ra, 0);
        let exact = p.exact_scores();
        for (t, &(item, s)) in naive.items.iter().zip(&exact) {
            assert_eq!((t.item, t.lb, t.ub), (item, s, s));
        }
    }
}
