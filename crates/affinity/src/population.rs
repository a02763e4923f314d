//! Population-level affinity index with incremental period appends.
//!
//! Holds, for a user universe `U` and a timeline:
//!
//! * raw static affinities for all `|U|·(|U|−1)/2` pairs;
//! * per period `p'`: raw periodic affinities `affP(u,u',p')`, the
//!   population average `AvgaffP(p') = 2·Σ affP / (|U|² − |U|)` (§2.1)
//!   and the period's max (for `[0,1]` normalization, §4.1.2);
//! * running cumulative drift sums `Σ_{p'⪯p}(affP̄ − Avḡ)` per pair, so
//!   that Eq. 1 queries are O(1) and **appending a new period never
//!   recomputes old ones** — the paper's index-maintenance claim (§1).

use crate::group::{AffinityMode, GroupAffinity};
use crate::source::AffinitySource;
use greca_dataset::{Group, Period, Timeline, UserId};

/// Per-period slice of the index.
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodAffinityData {
    /// The period this slice covers.
    pub period: Period,
    /// Raw `affP` per pair (triangular layout).
    pub raw: Vec<f64>,
    /// Population average of raw `affP` (the paper's `AvgaffP(p')`).
    pub avg_raw: f64,
    /// Max raw `affP` over pairs; 0 for an all-empty period.
    pub max_raw: f64,
}

impl PeriodAffinityData {
    /// Normalized periodic affinity of a pair: `affP / max` in `[0,1]`
    /// (0 when the period is empty).
    pub fn normalized(&self, pair: usize) -> f64 {
        if self.max_raw > 0.0 {
            self.raw[pair] / self.max_raw
        } else {
            0.0
        }
    }

    /// Normalized population average `AvgaffP / max`.
    pub fn normalized_avg(&self) -> f64 {
        if self.max_raw > 0.0 {
            self.avg_raw / self.max_raw
        } else {
            0.0
        }
    }

    /// Whether any pair shares a like in this period.
    pub fn is_empty_period(&self) -> bool {
        self.max_raw <= 0.0
    }
}

/// The population affinity index (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationAffinity {
    universe: Vec<UserId>,
    /// `universe[i]` ↔ dense index `i`; inverse map for queries.
    user_pos: Vec<Option<u32>>,
    static_raw: Vec<f64>,
    static_max: f64,
    periods: Vec<PeriodAffinityData>,
    /// `cum_drift[p][pair] = Σ_{p'≤p} (norm affP − norm Avg)`.
    cum_drift: Vec<Vec<f64>>,
}

impl PopulationAffinity {
    /// Build the index over `universe` for every period of `timeline`.
    pub fn build(
        source: &(impl AffinitySource + ?Sized),
        universe: &[UserId],
        timeline: &Timeline,
    ) -> Self {
        let mut idx = Self::new_static_only(source, universe);
        for &p in timeline.periods() {
            idx.append_period(source, p);
        }
        idx
    }

    /// Build with static affinities only; periods are appended later via
    /// [`PopulationAffinity::append_period`].
    pub fn new_static_only(source: &(impl AffinitySource + ?Sized), universe: &[UserId]) -> Self {
        let mut universe = universe.to_vec();
        universe.sort_unstable();
        universe.dedup();
        assert!(universe.len() >= 2, "affinity needs at least two users");
        let max_id = universe.last().expect("non-empty").idx();
        let mut user_pos = vec![None; max_id + 1];
        for (pos, &u) in universe.iter().enumerate() {
            user_pos[u.idx()] = Some(pos as u32);
        }
        let n = universe.len();
        let mut static_raw = Vec::with_capacity(n * (n - 1) / 2);
        let mut static_max = 0.0f64;
        for i in 0..n {
            for j in (i + 1)..n {
                let v = source.static_raw(universe[i], universe[j]);
                debug_assert!(v >= 0.0 && v.is_finite());
                static_max = static_max.max(v);
                static_raw.push(v);
            }
        }
        PopulationAffinity {
            universe,
            user_pos,
            static_raw,
            static_max,
            periods: Vec::new(),
            cum_drift: Vec::new(),
        }
    }

    /// Append the next period's affinities.
    ///
    /// Cost is `O(|U|²)` for the new period only; previously computed
    /// periods and cumulative sums are untouched (the incremental-index
    /// property benchmarked by `ablation_incremental`).
    pub fn append_period(&mut self, source: &(impl AffinitySource + ?Sized), period: Period) {
        if let Some(last) = self.periods.last() {
            assert!(
                last.period.end <= period.start,
                "periods must be appended in chronological order"
            );
        }
        let n = self.universe.len();
        let mut raw = Vec::with_capacity(n * (n - 1) / 2);
        let mut sum = 0.0f64;
        let mut max = 0.0f64;
        for i in 0..n {
            for j in (i + 1)..n {
                let v = source.periodic_raw(self.universe[i], self.universe[j], period);
                debug_assert!(v >= 0.0 && v.is_finite());
                sum += v;
                max = max.max(v);
                raw.push(v);
            }
        }
        let n_pairs = raw.len().max(1);
        // AvgaffP(p') = 2·Σ / (|U|²−|U|) = Σ / #pairs.
        let avg_raw = sum / n_pairs as f64;
        let data = PeriodAffinityData {
            period,
            raw,
            avg_raw,
            max_raw: max,
        };
        let avg_norm = data.normalized_avg();
        let prev = self.cum_drift.last();
        let mut cum = Vec::with_capacity(n_pairs);
        for pair in 0..data.raw.len() {
            let drift = data.normalized(pair) - avg_norm;
            let base = prev.map_or(0.0, |c| c[pair]);
            cum.push(base + drift);
        }
        self.periods.push(data);
        self.cum_drift.push(cum);
    }

    /// The (sorted, deduplicated) user universe.
    pub fn universe(&self) -> &[UserId] {
        &self.universe
    }

    /// Number of periods currently indexed.
    pub fn num_periods(&self) -> usize {
        self.periods.len()
    }

    /// Per-period data slices.
    pub fn periods(&self) -> &[PeriodAffinityData] {
        &self.periods
    }

    /// Triangular pair index of `(u, v)` within the universe.
    pub fn pair_of(&self, u: UserId, v: UserId) -> Option<usize> {
        if u == v {
            return None;
        }
        let pu = *self.user_pos.get(u.idx())?;
        let pv = *self.user_pos.get(v.idx())?;
        let (a, b) = (pu?.min(pv?) as usize, pu?.max(pv?) as usize);
        let n = self.universe.len();
        // Row-major triangular: pairs (a, b) with a < b.
        Some(a * n - a * (a + 1) / 2 + (b - a - 1))
    }

    /// Whether `u` belongs to the indexed universe (O(1)).
    pub fn contains_user(&self, u: UserId) -> bool {
        self.user_pos.get(u.idx()).is_some_and(|p| p.is_some())
    }

    /// Number of user pairs in the universe (`|U|·(|U|−1)/2`).
    pub fn num_pairs(&self) -> usize {
        self.static_raw.len()
    }

    /// Every pair index ordered by **globally normalized static
    /// affinity descending** (ties by pair index), paired with the
    /// values in that order — the population-level inverted list, for
    /// inspection (the `affinity_explorer` example). Query preparation
    /// never builds it: per-group lists are sorted from the group view.
    pub fn static_sorted_desc(&self) -> (Vec<u32>, Vec<f64>) {
        sorted_desc(self.num_pairs(), |pair| self.static_norm(pair))
    }

    /// Every pair index ordered by **normalized periodic affinity of
    /// period `p_idx` descending** (ties by pair index), with the values
    /// — for inspection, like [`PopulationAffinity::static_sorted_desc`].
    pub fn period_sorted_desc(&self, p_idx: usize) -> (Vec<u32>, Vec<f64>) {
        let pd = &self.periods[p_idx];
        sorted_desc(self.num_pairs(), |pair| pd.normalized(pair))
    }

    /// The maximum raw static affinity over a group's pairs — the
    /// denominator of §4.1.2's per-group renormalization ("we normalize
    /// all static affinity values in a group by the maximum pair-wise
    /// value in the group").
    pub fn group_static_max(&self, group: &Group) -> f64 {
        group
            .pairs()
            .map(|(u, v)| {
                let pi = self
                    .pair_of(u, v)
                    .expect("group members must belong to the indexed universe");
                self.static_raw[pi]
            })
            .fold(0.0f64, f64::max)
    }

    /// Globally normalized static affinity in `[0,1]`.
    pub fn static_norm(&self, pair: usize) -> f64 {
        if self.static_max > 0.0 {
            self.static_raw[pair] / self.static_max
        } else {
            0.0
        }
    }

    /// Raw static affinity of a pair.
    pub fn static_raw_of(&self, pair: usize) -> f64 {
        self.static_raw[pair]
    }

    /// Cumulative normalized drift `Σ_{p'≤p}(affP̄ − Avḡ)` of a pair up
    /// to (and including) period `p_idx`.
    pub fn cumulative_drift(&self, pair: usize, p_idx: usize) -> f64 {
        self.cum_drift[p_idx][pair]
    }

    /// The paper's `affV(u,u',p)` under the **discrete** model: the
    /// cumulative drift divided by the number of periods (Eq. 1's Δ).
    pub fn aff_v_discrete(&self, pair: usize, p_idx: usize) -> f64 {
        self.cumulative_drift(pair, p_idx) / (p_idx + 1) as f64
    }

    /// Full pairwise affinity under `mode`, using globally normalized
    /// static affinity (group views re-normalize per group).
    pub fn affinity(&self, pair: usize, p_idx: usize, mode: AffinityMode) -> f64 {
        let s = self.static_norm(pair);
        match mode {
            AffinityMode::None => 0.0,
            AffinityMode::StaticOnly => s,
            AffinityMode::Discrete => (s + self.aff_v_discrete(pair, p_idx)).max(0.0),
            AffinityMode::Continuous { scale } => {
                s * (scale * self.cumulative_drift(pair, p_idx)).min(30.0).exp()
            }
        }
    }

    /// Fraction of (pair, period) cells with non-zero periodic affinity —
    /// the "percentage of non-emptiness" of Figure 4.
    pub fn non_empty_fraction(&self) -> f64 {
        let mut non_empty = 0usize;
        let mut total = 0usize;
        for p in &self.periods {
            total += p.raw.len();
            non_empty += p.raw.iter().filter(|&&v| v > 0.0).count();
        }
        if total == 0 {
            0.0
        } else {
            non_empty as f64 / total as f64
        }
    }

    /// Std-dev over periods of each pair's raw common likes, averaged over
    /// pairs — the calibration statistic of §4.1.2 (the paper reports 0.42).
    pub fn mean_pair_std_dev(&self) -> f64 {
        let n_pairs = self.static_raw.len();
        if n_pairs == 0 || self.periods.is_empty() {
            return 0.0;
        }
        let np = self.periods.len() as f64;
        let mut acc = 0.0;
        for pair in 0..n_pairs {
            let mean: f64 = self.periods.iter().map(|p| p.raw[pair]).sum::<f64>() / np;
            let var: f64 = self
                .periods
                .iter()
                .map(|p| (p.raw[pair] - mean).powi(2))
                .sum::<f64>()
                / np;
            acc += var.sqrt();
        }
        acc / n_pairs as f64
    }

    /// Materialize the per-group view needed by the consensus functions
    /// and GRECA: group-normalized static components, per-period
    /// normalized components and the constants of Eq. 1, evaluated for the
    /// query period `p_idx` (drift aggregates periods `0..=p_idx`).
    pub fn group_view(&self, group: &Group, p_idx: usize, mode: AffinityMode) -> GroupAffinity {
        assert!(
            p_idx < self.periods.len() || self.periods.is_empty(),
            "period index {p_idx} out of range ({} periods)",
            self.periods.len()
        );
        let members = group.members().to_vec();
        let pairs: Vec<(UserId, UserId)> = group.pairs().collect();
        // §4.1.2: "We normalize all static affinity values in a group by
        // the maximum pair-wise value in the group".
        let mut static_raw_vals = Vec::with_capacity(pairs.len());
        for &(u, v) in &pairs {
            let pi = self
                .pair_of(u, v)
                .expect("group members must belong to the indexed universe");
            static_raw_vals.push(self.static_raw[pi]);
        }
        let gmax = self.group_static_max(group);
        let static_comp: Vec<f64> = static_raw_vals
            .iter()
            .map(|&v| if gmax > 0.0 { v / gmax } else { 0.0 })
            .collect();
        // Non-temporal modes ignore periodic components entirely; don't
        // materialize (or later scan) them.
        let upto = if self.periods.is_empty() || !mode.is_temporal() {
            0
        } else {
            p_idx + 1
        };
        let mut period_comps = Vec::with_capacity(upto);
        let mut avgbar = Vec::with_capacity(upto);
        for pd in &self.periods[..upto] {
            let comps: Vec<f64> = pairs
                .iter()
                .map(|&(u, v)| {
                    let pi = self.pair_of(u, v).expect("indexed");
                    pd.normalized(pi)
                })
                .collect();
            period_comps.push(comps);
            avgbar.push(pd.normalized_avg());
        }
        GroupAffinity::new(members, mode, static_comp, period_comps, avgbar)
    }
}

/// Pair ids `0..n_pairs` sorted by `value_of` descending, ties by pair
/// id ascending, plus the values in that order. All affinity components
/// are finite and ≥ 0 (enforced at ingestion); `+ 0.0` collapses a
/// `-0.0` (which `v >= 0.0` admits) onto `+0.0` so `total_cmp` agrees
/// exactly with the IEEE partial order a per-group value sort uses —
/// otherwise the two zeros would order differently on the two paths.
fn sorted_desc(n_pairs: usize, value_of: impl Fn(usize) -> f64) -> (Vec<u32>, Vec<f64>) {
    let mut pairs: Vec<u32> = (0..n_pairs as u32).collect();
    pairs.sort_by(|&a, &b| {
        (value_of(b as usize) + 0.0)
            .total_cmp(&(value_of(a as usize) + 0.0))
            .then_with(|| a.cmp(&b))
    });
    let values = pairs.iter().map(|&p| value_of(p as usize)).collect();
    (pairs, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{SocialAffinitySource, TableAffinitySource};
    use greca_dataset::{Granularity, SocialConfig, Timeline};

    fn table_world() -> (TableAffinitySource, Timeline) {
        // The running example of §3.1 (Tables 2–4): three users, two
        // six-month periods.
        let mut src = TableAffinitySource::new();
        src.set_static(UserId(0), UserId(1), 1.0)
            .set_static(UserId(0), UserId(2), 0.2)
            .set_static(UserId(1), UserId(2), 0.3);
        let tl = Timeline::discretize(0, 100, Granularity::Custom(50)).unwrap();
        let (p1, p2) = (tl.periods()[0], tl.periods()[1]);
        src.set_periodic(UserId(0), UserId(1), p1.start, 0.8)
            .set_periodic(UserId(0), UserId(2), p1.start, 0.1)
            .set_periodic(UserId(1), UserId(2), p1.start, 0.2)
            .set_periodic(UserId(0), UserId(1), p2.start, 0.7)
            .set_periodic(UserId(0), UserId(2), p2.start, 0.1)
            .set_periodic(UserId(1), UserId(2), p2.start, 0.1);
        (src, tl)
    }

    fn users3() -> Vec<UserId> {
        vec![UserId(0), UserId(1), UserId(2)]
    }

    #[test]
    fn pair_indexing_is_triangular() {
        let (src, tl) = table_world();
        let pop = PopulationAffinity::build(&src, &users3(), &tl);
        assert_eq!(pop.pair_of(UserId(0), UserId(1)), Some(0));
        assert_eq!(pop.pair_of(UserId(0), UserId(2)), Some(1));
        assert_eq!(pop.pair_of(UserId(1), UserId(2)), Some(2));
        assert_eq!(pop.pair_of(UserId(1), UserId(0)), Some(0), "symmetric");
        assert_eq!(pop.pair_of(UserId(0), UserId(0)), None);
        assert_eq!(pop.pair_of(UserId(0), UserId(9)), None);
    }

    #[test]
    fn static_normalization_by_max() {
        let (src, tl) = table_world();
        let pop = PopulationAffinity::build(&src, &users3(), &tl);
        assert!((pop.static_norm(0) - 1.0).abs() < 1e-12);
        assert!((pop.static_norm(1) - 0.2).abs() < 1e-12);
        assert!((pop.static_norm(2) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn avg_aff_p_matches_paper_formula() {
        let (src, tl) = table_world();
        let pop = PopulationAffinity::build(&src, &users3(), &tl);
        // Period 1 raws: 0.8, 0.1, 0.2 → Avg = 1.1/3.
        let p0 = &pop.periods()[0];
        assert!((p0.avg_raw - 1.1 / 3.0).abs() < 1e-12);
        assert!((p0.max_raw - 0.8).abs() < 1e-12);
    }

    #[test]
    fn drift_sign_tracks_population() {
        let (src, tl) = table_world();
        let pop = PopulationAffinity::build(&src, &users3(), &tl);
        // Pair (u0,u1) is above average in both periods → positive drift;
        // (u0,u2) below average → negative drift.
        assert!(pop.cumulative_drift(0, 1) > 0.0);
        assert!(pop.cumulative_drift(1, 1) < 0.0);
        // Discrete affV averages over the 2 periods.
        assert!((pop.aff_v_discrete(0, 1) - pop.cumulative_drift(0, 1) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn tables_3_and_4_show_decreasing_affinity_for_u1u2() {
        // The paper notes "the temporal affinity of users u1 and u2 has
        // decreased between periods p1 and p2" — the per-period drift of
        // the pair must shrink.
        let (src, tl) = table_world();
        let pop = PopulationAffinity::build(&src, &users3(), &tl);
        // Raw list values: 0.8 in p1 vs 0.7 in p2.
        assert!(pop.periods()[0].raw[0] > pop.periods()[1].raw[0]);
        // Raw drift against the population average also shrinks:
        // p1: 0.8 − 1.1/3 ≈ 0.433;  p2: 0.7 − 0.9/3 = 0.4.
        let raw_drift = |p: usize| pop.periods()[p].raw[0] - pop.periods()[p].avg_raw;
        assert!(raw_drift(1) < raw_drift(0));
    }

    #[test]
    fn incremental_append_equals_batch_build() {
        let net = SocialConfig::tiny().generate();
        let src = SocialAffinitySource::new(&net);
        let tl = Timeline::discretize(0, net.horizon(), Granularity::TwoMonth).unwrap();
        let universe: Vec<UserId> = net.users().collect();
        let batch = PopulationAffinity::build(&src, &universe, &tl);
        let mut inc = PopulationAffinity::new_static_only(&src, &universe);
        for &p in tl.periods() {
            inc.append_period(&src, p);
        }
        assert_eq!(batch, inc);
    }

    #[test]
    #[should_panic(expected = "chronological")]
    fn append_rejects_out_of_order_periods() {
        let (src, tl) = table_world();
        let mut pop = PopulationAffinity::new_static_only(&src, &users3());
        pop.append_period(&src, tl.periods()[1]);
        pop.append_period(&src, tl.periods()[0]);
    }

    #[test]
    fn affinity_modes_behave() {
        let (src, tl) = table_world();
        let pop = PopulationAffinity::build(&src, &users3(), &tl);
        let p = 1;
        assert_eq!(pop.affinity(0, p, AffinityMode::None), 0.0);
        assert!((pop.affinity(0, p, AffinityMode::StaticOnly) - 1.0).abs() < 1e-12);
        let d = pop.affinity(0, p, AffinityMode::Discrete);
        assert!(d > 1.0, "positive drift should lift the discrete affinity");
        let c = pop.affinity(0, p, AffinityMode::Continuous { scale: 1.0 });
        assert!(c > 1.0, "positive drift grows the continuous affinity");
        // Negative-drift pair: continuous decays below its static value.
        let c2 = pop.affinity(1, p, AffinityMode::Continuous { scale: 1.0 });
        assert!(c2 < pop.static_norm(1));
        // Discrete clamps at 0.
        assert!(pop.affinity(1, p, AffinityMode::Discrete) >= 0.0);
    }

    #[test]
    fn empty_periods_contribute_zero_drift() {
        let mut src = TableAffinitySource::new();
        src.set_static(UserId(0), UserId(1), 1.0);
        let tl = Timeline::discretize(0, 100, Granularity::Custom(50)).unwrap();
        let pop = PopulationAffinity::build(&src, &users3(), &tl);
        assert!(pop.periods()[0].is_empty_period());
        assert_eq!(pop.cumulative_drift(0, 1), 0.0);
        assert_eq!(pop.non_empty_fraction(), 0.0);
    }

    #[test]
    fn non_empty_fraction_counts_cells() {
        let (src, tl) = table_world();
        let pop = PopulationAffinity::build(&src, &users3(), &tl);
        assert!((pop.non_empty_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_pair_std_dev_known_value() {
        let (src, tl) = table_world();
        let pop = PopulationAffinity::build(&src, &users3(), &tl);
        // Pair drifts: (0.8,0.7) → sd 0.05; (0.1,0.1) → 0; (0.2,0.1) → 0.05.
        let want = (0.05 + 0.0 + 0.05) / 3.0;
        assert!((pop.mean_pair_std_dev() - want).abs() < 1e-12);
    }

    #[test]
    fn sorted_pair_arrays_are_descending_and_complete() {
        let (src, tl) = table_world();
        let pop = PopulationAffinity::build(&src, &users3(), &tl);
        let (pairs, values) = pop.static_sorted_desc();
        // Static norms: pair 0 → 1.0, pair 1 → 0.2, pair 2 → 0.3.
        assert_eq!(pairs, vec![0, 2, 1]);
        assert!((values[0] - 1.0).abs() < 1e-12);
        for p_idx in 0..pop.num_periods() {
            let (pairs, values) = pop.period_sorted_desc(p_idx);
            assert_eq!(pairs.len(), pop.num_pairs());
            for w in values.windows(2) {
                assert!(w[0] >= w[1], "period {p_idx} not descending");
            }
            for (i, &pair) in pairs.iter().enumerate() {
                assert!((pop.periods()[p_idx].normalized(pair as usize) - values[i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn sorted_pair_arrays_treat_signed_zeros_as_ties() {
        // `v >= 0.0` admits -0.0, which normalizes to -0.0; the sorted
        // order must still tie-break ±0.0 by pair id (as a value sort
        // with partial_cmp would), not by sign bit.
        let mut src = TableAffinitySource::new();
        src.set_static(UserId(0), UserId(1), 1.0)
            .set_static(UserId(0), UserId(2), 1.0)
            .set_static(UserId(1), UserId(2), 1.0);
        let tl = Timeline::discretize(0, 100, Granularity::Custom(100)).unwrap();
        let start = tl.periods()[0].start;
        src.set_periodic(UserId(0), UserId(1), start, -0.0)
            .set_periodic(UserId(0), UserId(2), start, 1.0)
            .set_periodic(UserId(1), UserId(2), start, 0.0);
        let pop = PopulationAffinity::build(&src, &users3(), &tl);
        let (pairs, _) = pop.period_sorted_desc(0);
        // Pair 1 carries 1.0; pairs 0 (-0.0) and 2 (+0.0) are equal and
        // must order by ascending pair id.
        assert_eq!(pairs, vec![1, 0, 2]);
    }

    #[test]
    fn universe_dedup_and_sort() {
        let (src, _tl) = table_world();
        let pop = PopulationAffinity::new_static_only(
            &src,
            &[UserId(2), UserId(0), UserId(2), UserId(1)],
        );
        assert_eq!(pop.universe(), &[UserId(0), UserId(1), UserId(2)]);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn singleton_universe_rejected() {
        let src = TableAffinitySource::new();
        let _ = PopulationAffinity::new_static_only(&src, &[UserId(0)]);
    }
}
