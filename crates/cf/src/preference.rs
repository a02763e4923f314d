//! Absolute preference lists `PL_u` — GRECA's per-user sorted inputs.
//!
//! §3.1: "The user-item preference lists of those group members … Each
//! list contains items preferred by each user sorted in decreasing order
//! of preference", and §3.2: "Each PL can be obtained with any single
//! user recommendation strategy."
//!
//! [`PreferenceProvider`] abstracts over the `apref` source (user-based
//! CF, raw ratings, or hand-written tables like the paper's running
//! example) so the group-recommendation layers stay independent of how
//! individual preferences are produced.

use crate::user_cf::UserCfModel;
use greca_dataset::{Group, ItemId, RatingMatrix, UserId};

/// A non-finite preference score caught at ingestion.
///
/// GRECA's bound arithmetic is only sound over finite scores; a NaN or
/// infinity coming out of a provider used to surface as a sort-comparator
/// panic deep inside list construction. It is now rejected where the
/// value enters the system and reported with its origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NonFiniteScore {
    /// The user whose preference produced the value.
    pub user: UserId,
    /// The item it was produced for.
    pub item: ItemId,
    /// The offending value (NaN or ±∞).
    pub value: f64,
}

impl std::fmt::Display for NonFiniteScore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "non-finite preference score {} for apref({}, {})",
            self.value, self.user, self.item
        )
    }
}

impl std::error::Error for NonFiniteScore {}

/// A source of absolute preferences `apref(u, i)`.
///
/// Implementations must return finite, non-negative scores: GRECA's
/// lower-bound computation substitutes 0 for unseen entries (§3.2), which
/// is only a valid lower bound when scores cannot be negative.
pub trait PreferenceProvider {
    /// Absolute preference of `u` for `i` (finite, ≥ 0).
    fn apref(&self, u: UserId, i: ItemId) -> f64;

    /// Build the sorted preference list of `u` over `items`, rejecting
    /// non-finite scores instead of panicking later in a sort comparator.
    /// Scores come from one [`fill_aprefs`](PreferenceProvider::fill_aprefs)
    /// call, so a provider's batched path serves list builds too.
    fn preference_list(
        &self,
        u: UserId,
        items: &[ItemId],
    ) -> Result<PreferenceList, NonFiniteScore> {
        // The entries are allocated before the transient score column so
        // that freeing the column does not leave a hole under the live
        // list: with the column first, peak RSS on 120k-item cold lists
        // rose ~8%.
        let mut entries: Vec<(ItemId, f64)> = Vec::with_capacity(items.len());
        let mut scores = vec![0.0; items.len()];
        self.fill_aprefs(u, items, &mut scores);
        entries.extend(items.iter().copied().zip(scores));
        PreferenceList::from_entries(u, entries)
    }

    /// Fill `out[d] = apref(u, items[d])` for the whole itemset in one
    /// call — the batched form bulk consumers (substrate construction)
    /// use so a `dyn` provider pays one virtual dispatch per *user*
    /// rather than one per *item*. `out.len()` must equal
    /// `items.len()`; scores are written unvalidated (callers that need
    /// the finiteness guarantee check the filled slice, where the
    /// offending item is still addressable by index).
    ///
    /// Sparse providers should override this: [`RawRatings`] walks the
    /// user's rating row once instead of probing it per item, and
    /// [`UserCfModel`] scatters its neighbours' rows.
    fn fill_aprefs(&self, u: UserId, items: &[ItemId], out: &mut [f64]) {
        debug_assert_eq!(items.len(), out.len());
        for (d, &i) in items.iter().enumerate() {
            out[d] = self.apref(u, i);
        }
    }

    /// Sparse form of [`fill_aprefs`](PreferenceProvider::fill_aprefs):
    /// append `(d, apref(u, items[d]))` for every itemset position `d`
    /// whose score **may** be nonzero, in strictly ascending `d`, and
    /// return `true`. Positions not emitted are guaranteed to score
    /// exactly `+0.0`. Returning `false` (the default) tells the caller
    /// the provider has no sparse structure to exploit; bulk consumers
    /// then fall back to the dense fill.
    ///
    /// **Precondition:** `items` must be strictly ascending by id —
    /// bulk consumers (substrate construction) always canonicalize
    /// itemsets that way. Implementations may rely on it (and should
    /// `debug_assert!` it) rather than re-checking per call.
    fn sparse_aprefs(&self, u: UserId, items: &[ItemId], out: &mut Vec<(u32, f64)>) -> bool {
        let _ = (u, items, out);
        false
    }

    /// The candidate itemset for `group` when the caller does not supply
    /// one: every catalog item **no group member has already rated**
    /// (§2.4 poses the problem over such a set). `None` when the provider
    /// cannot enumerate an item catalog (e.g. a hand-built score table).
    fn candidate_items(&self, group: &Group) -> Option<Vec<ItemId>> {
        let _ = group;
        None
    }
}

impl PreferenceProvider for UserCfModel<'_> {
    fn apref(&self, u: UserId, i: ItemId) -> f64 {
        self.predict(u, i)
    }

    /// Neighbour-row scatter: one position lookup per neighbour rating
    /// plus `O(m)` to finish, instead of `m·(k + 1)` binary-searched
    /// matrix probes for `k` neighbours; bit-identical to per-item
    /// [`UserCfModel::predict`].
    fn fill_aprefs(&self, u: UserId, items: &[ItemId], out: &mut [f64]) {
        debug_assert_eq!(items.len(), out.len());
        // The scatter addresses itemset positions by id, which needs
        // strictly ascending ids; other itemsets take per-item `predict`.
        if items.windows(2).any(|w| w[0] >= w[1]) {
            for (d, &i) in items.iter().enumerate() {
                out[d] = self.predict(u, i);
            }
            return;
        }
        self.scatter_predictions(u, items, out);
    }

    fn candidate_items(&self, group: &Group) -> Option<Vec<ItemId>> {
        Some(candidate_items(self.matrix(), group))
    }
}

/// Raw observed ratings as preferences (0 when unrated); useful in tests
/// and for encoding the paper's running example.
#[derive(Debug, Clone)]
pub struct RawRatings<'a>(pub &'a RatingMatrix);

impl PreferenceProvider for RawRatings<'_> {
    fn apref(&self, u: UserId, i: ItemId) -> f64 {
        self.0.get(u, i).map(|v| v as f64).unwrap_or(0.0)
    }

    fn candidate_items(&self, group: &Group) -> Option<Vec<ItemId>> {
        Some(candidate_items(self.0, group))
    }

    /// Walk `u`'s rating row once (`O(r log m + m)`) instead of binary
    /// searching it per item (`O(m log r)`) — the row is usually a few
    /// dozen entries while serving itemsets run to thousands.
    fn fill_aprefs(&self, u: UserId, items: &[ItemId], out: &mut [f64]) {
        debug_assert_eq!(items.len(), out.len());
        // The row walk scatters by itemset position, which is only
        // correct when positions are unambiguous (strictly ascending
        // ids). Arbitrary itemsets take the generic per-item path.
        if items.windows(2).any(|w| w[0] >= w[1]) {
            for (d, &i) in items.iter().enumerate() {
                out[d] = self.apref(u, i);
            }
            return;
        }
        out.fill(0.0);
        for &(item, value) in self.0.user_ratings(u) {
            if let Ok(d) = items.binary_search(&item) {
                out[d] = f64::from(value);
            }
        }
    }

    /// A rating row is the sparse structure itself: one pass over it,
    /// `O(r log m)`, touching nothing per unrated item.
    fn sparse_aprefs(&self, u: UserId, items: &[ItemId], out: &mut Vec<(u32, f64)>) -> bool {
        debug_assert!(
            items.windows(2).all(|w| w[0] < w[1]),
            "sparse_aprefs requires a strictly ascending itemset"
        );
        for &(item, value) in self.0.user_ratings(u) {
            if let Ok(d) = items.binary_search(&item) {
                out.push((d as u32, f64::from(value)));
            }
        }
        true
    }
}

/// One user's absolute-preference list, sorted by decreasing score.
#[derive(Debug, Clone, PartialEq)]
pub struct PreferenceList {
    /// The list's owner.
    pub user: UserId,
    /// `(item, apref)` pairs, score-descending.
    pub entries: Vec<(ItemId, f64)>,
}

impl PreferenceList {
    /// Build directly from entries, sorting them score-descending.
    ///
    /// Non-finite scores are rejected here, at ingestion, instead of
    /// panicking inside the sort comparator.
    pub fn from_entries(
        user: UserId,
        mut entries: Vec<(ItemId, f64)>,
    ) -> Result<Self, NonFiniteScore> {
        for &(item, value) in &entries {
            if !value.is_finite() {
                return Err(NonFiniteScore { user, item, value });
            }
        }
        entries.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("validated finite above")
                .then_with(|| a.0.cmp(&b.0))
        });
        Ok(PreferenceList { user, entries })
    }

    /// Decompose into columnar `(item ids, scores)` arrays, preserving
    /// the sorted order without re-sorting — the reference `greca-core`'s
    /// segment builder is checked against.
    pub fn into_sorted_columns(self) -> (Vec<u32>, Vec<f64>) {
        let mut ids = Vec::with_capacity(self.entries.len());
        let mut scores = Vec::with_capacity(self.entries.len());
        for (i, s) in self.entries {
            ids.push(i.0);
            scores.push(s);
        }
        (ids, scores)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The candidate item set for a group: all items **no group member has
/// already rated** (the problem definition excludes items already known
/// to members: "i is not individually recommended to u", §2.4), in
/// ascending id. One pass marks the members' rating rows, one filters
/// the catalog.
pub fn candidate_items(matrix: &RatingMatrix, group: &Group) -> Vec<ItemId> {
    let mut rated = vec![false; matrix.num_items()];
    for &u in group.members() {
        for &(i, _) in matrix.user_ratings(u) {
            rated[i.idx()] = true;
        }
    }
    matrix.items().filter(|i| !rated[i.idx()]).collect()
}

/// Build the `PL_u` lists for every group member over a shared candidate
/// item set, rejecting non-finite scores at ingestion.
pub fn group_preference_lists<P: PreferenceProvider + ?Sized>(
    provider: &P,
    group: &Group,
    items: &[ItemId],
) -> Result<Vec<PreferenceList>, NonFiniteScore> {
    group
        .members()
        .iter()
        .map(|&u| provider.preference_list(u, items))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::user_cf::CfConfig;
    use greca_dataset::{MovieLensConfig, RatingMatrixBuilder};

    #[test]
    fn preference_list_is_sorted_desc() {
        let ml = MovieLensConfig::small().generate();
        let model = UserCfModel::fit(&ml.matrix, CfConfig::default());
        let items: Vec<ItemId> = ml.matrix.items().take(100).collect();
        let pl = model
            .preference_list(UserId(3), &items)
            .expect("CF scores are finite");
        assert_eq!(pl.len(), 100);
        for w in pl.entries.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn ties_break_by_item_id() {
        let pl = PreferenceList::from_entries(
            UserId(0),
            vec![(ItemId(5), 1.0), (ItemId(2), 1.0), (ItemId(9), 2.0)],
        )
        .unwrap();
        let ids: Vec<u32> = pl.entries.iter().map(|&(i, _)| i.0).collect();
        assert_eq!(ids, vec![9, 2, 5]);
    }

    #[test]
    fn non_finite_scores_rejected_at_ingestion() {
        let err =
            PreferenceList::from_entries(UserId(3), vec![(ItemId(0), 1.0), (ItemId(7), f64::NAN)])
                .unwrap_err();
        assert_eq!(err.user, UserId(3));
        assert_eq!(err.item, ItemId(7));
        assert!(err.value.is_nan());
        assert!(err.to_string().contains("non-finite"));
        let inf = PreferenceList::from_entries(UserId(0), vec![(ItemId(1), f64::INFINITY)]);
        assert!(inf.is_err());
    }

    #[test]
    fn sorted_columns_preserve_order() {
        let pl = PreferenceList::from_entries(
            UserId(0),
            vec![(ItemId(5), 1.0), (ItemId(2), 3.0), (ItemId(9), 2.0)],
        )
        .unwrap();
        let (ids, scores) = pl.into_sorted_columns();
        assert_eq!(ids, vec![2, 9, 5]);
        assert_eq!(scores, vec![3.0, 2.0, 1.0]);
    }

    #[test]
    fn providers_supply_candidate_itemsets() {
        let mut b = RatingMatrixBuilder::new(2, 3);
        b.rate(UserId(0), ItemId(0), 5.0, 0);
        let m = b.build();
        let g = Group::new(vec![UserId(0), UserId(1)]).unwrap();
        let raw = RawRatings(&m);
        assert_eq!(
            raw.candidate_items(&g),
            Some(vec![ItemId(1), ItemId(2)]),
            "raw ratings exclude member-rated items"
        );
        // A provider with no catalog (the trait default) opts out.
        struct Table;
        impl PreferenceProvider for Table {
            fn apref(&self, _: UserId, _: ItemId) -> f64 {
                1.0
            }
        }
        assert_eq!(Table.candidate_items(&g), None);
    }

    #[test]
    fn candidate_items_excludes_rated_by_any_member() {
        let mut b = RatingMatrixBuilder::new(3, 4);
        b.rate(UserId(0), ItemId(0), 5.0, 0)
            .rate(UserId(1), ItemId(1), 4.0, 0)
            .rate(UserId(2), ItemId(2), 3.0, 0);
        let m = b.build();
        let g = Group::new(vec![UserId(0), UserId(1)]).unwrap();
        let cands = candidate_items(&m, &g);
        // Items 0 and 1 are rated by members; 2 (rated only by the
        // non-member u2) and 3 remain.
        assert_eq!(cands, vec![ItemId(2), ItemId(3)]);
    }

    #[test]
    fn raw_ratings_provider_defaults_to_zero() {
        let mut b = RatingMatrixBuilder::new(1, 2);
        b.rate(UserId(0), ItemId(0), 4.5, 0);
        let m = b.build();
        let p = RawRatings(&m);
        assert_eq!(p.apref(UserId(0), ItemId(0)), 4.5);
        assert_eq!(p.apref(UserId(0), ItemId(1)), 0.0);
    }

    #[test]
    fn group_lists_cover_all_members() {
        let ml = MovieLensConfig::small().generate();
        let model = UserCfModel::fit(&ml.matrix, CfConfig::default());
        let g = Group::new(vec![UserId(0), UserId(5), UserId(9)]).unwrap();
        let items: Vec<ItemId> = ml.matrix.items().take(50).collect();
        let lists = group_preference_lists(&model, &g, &items).expect("finite CF scores");
        assert_eq!(lists.len(), 3);
        assert_eq!(lists[0].user, UserId(0));
        assert_eq!(lists[2].user, UserId(9));
        for l in &lists {
            assert_eq!(l.len(), 50);
        }
    }
}
