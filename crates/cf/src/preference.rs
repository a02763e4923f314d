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
///
/// A provider gives one user's scores in two shapes: per item
/// ([`apref`](PreferenceProvider::apref)) and as a column's *support*
/// plus a default ([`support`](PreferenceProvider::support)), which bulk
/// consumers (substrate construction) read with one virtual call per
/// user.
pub trait PreferenceProvider {
    /// Absolute preference of `u` for `i` (finite, ≥ 0).
    fn apref(&self, u: UserId, i: ItemId) -> f64;

    /// Append `(d, apref(u, items[d]))`, in strictly ascending `d`, for
    /// every itemset position `d` whose score may differ from the
    /// returned default. Every other position scores the default, bit
    /// for bit. Scores are appended unvalidated; consumers check them.
    ///
    /// `items` must be strictly ascending by id. The default emits every
    /// position through `apref`; [`RawRatings`] emits its rated
    /// positions and [`UserCfModel`] the positions its neighbourhood
    /// reaches.
    fn support(&self, u: UserId, items: &[ItemId], out: &mut Vec<(u32, f64)>) -> f64 {
        debug_assert!(strictly_ascending(items), "support needs ascending items");
        out.extend((0..).zip(items).map(|(d, &i)| (d, self.apref(u, i))));
        0.0
    }

    /// The size `n` of the provider's item catalog, whose ids are
    /// `0..n`. A group's candidate itemset, when the caller does not
    /// supply one, is every catalog item **no group member has already
    /// rated** (§2.4 poses the problem over such a set): the catalog
    /// minus [`rated_items`](PreferenceProvider::rated_items). `None`
    /// when the provider cannot enumerate a catalog (e.g. a hand-built
    /// score table).
    fn catalog_size(&self) -> Option<usize> {
        None
    }

    /// The catalog items any member of `group` has rated, ascending,
    /// distinct and below [`catalog_size`](Self::catalog_size): what the
    /// group's candidate itemset leaves out of the catalog. A default
    /// query checks this and panics on a list that breaks it. Empty for
    /// a provider without a catalog.
    fn rated_items(&self, group: &Group) -> Vec<ItemId> {
        let _ = group;
        Vec::new()
    }
}

/// Whether `items` ascend strictly by id, as
/// [`PreferenceProvider::support`] requires.
fn strictly_ascending(items: &[ItemId]) -> bool {
    items.windows(2).all(|w| w[0] < w[1])
}

impl PreferenceProvider for UserCfModel<'_> {
    fn apref(&self, u: UserId, i: ItemId) -> f64 {
        self.predict(u, i)
    }

    /// The positions `u` or a weighted neighbour rated, by neighbour-row
    /// scatter; the default is `u`'s no-neighbour blend.
    fn support(&self, u: UserId, items: &[ItemId], out: &mut Vec<(u32, f64)>) -> f64 {
        debug_assert!(strictly_ascending(items), "support needs ascending items");
        self.scatter_support(u, items, out)
    }

    fn catalog_size(&self) -> Option<usize> {
        Some(self.matrix().num_items())
    }

    fn rated_items(&self, group: &Group) -> Vec<ItemId> {
        rated_items(self.matrix(), group)
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

    fn catalog_size(&self) -> Option<usize> {
        Some(self.0.num_items())
    }

    fn rated_items(&self, group: &Group) -> Vec<ItemId> {
        rated_items(self.0, group)
    }

    /// The rated positions, from one pass over `u`'s rating row
    /// (`O(r log m)`, nothing per unrated item); the default is `+0.0`.
    fn support(&self, u: UserId, items: &[ItemId], out: &mut Vec<(u32, f64)>) -> f64 {
        debug_assert!(strictly_ascending(items), "support needs ascending items");
        for &(item, value) in self.0.user_ratings(u) {
            if let Ok(d) = items.binary_search(&item) {
                out.push((d as u32, f64::from(value)));
            }
        }
        0.0
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

/// The items any member of `group` has rated, ascending and distinct:
/// the union of the members' rating rows, `O(r log r)` in the `r`
/// ratings they hold, nothing per catalog item.
pub fn rated_items(matrix: &RatingMatrix, group: &Group) -> Vec<ItemId> {
    let mut rated: Vec<ItemId> = group
        .members()
        .iter()
        .flat_map(|&u| matrix.user_ratings(u).iter().map(|&(i, _)| i))
        .collect();
    rated.sort_unstable();
    rated.dedup();
    rated
}

/// The candidate item set for a group: all items **no group member has
/// already rated** (the problem definition excludes items already known
/// to members: "i is not individually recommended to u", §2.4), in
/// ascending id. The ranges of ids between consecutive
/// [`rated_items`] are copied out of the catalog `0..num_items`.
pub fn candidate_items(matrix: &RatingMatrix, group: &Group) -> Vec<ItemId> {
    let rated = rated_items(matrix, group);
    let end = matrix.num_items() as u32;
    let mut candidates = Vec::with_capacity(matrix.num_items() - rated.len());
    let mut next = 0;
    for ItemId(r) in rated.into_iter().chain([ItemId(end)]) {
        candidates.extend((next..r).map(ItemId));
        next = r + 1;
    }
    candidates
}

/// The sorted preference list `PL_u` over any itemset, rejecting
/// non-finite scores instead of panicking later in a sort comparator —
/// the reference the segment builder is checked against, and the
/// baselines' "one provider call + full sort" per user.
///
/// One [`support`](PreferenceProvider::support) call over the sorted,
/// deduplicated itemset is expanded densely; each item of `items` then
/// takes its position's score (so duplicates repeat), and
/// [`PreferenceList::from_entries`] sorts the entries.
pub fn preference_list<P: PreferenceProvider + ?Sized>(
    provider: &P,
    u: UserId,
    items: &[ItemId],
) -> Result<PreferenceList, NonFiniteScore> {
    let mut distinct = items.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let mut support = Vec::new();
    let default = provider.support(u, &distinct, &mut support);
    let mut scores = vec![default; distinct.len()];
    for (d, s) in support {
        scores[d as usize] = s;
    }
    let entries = if distinct == items {
        distinct.into_iter().zip(scores).collect()
    } else {
        let score = |i: &ItemId| scores[distinct.binary_search(i).expect("item is in the set")];
        items.iter().map(|i| (*i, score(i))).collect()
    };
    PreferenceList::from_entries(u, entries)
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
        .map(|&u| preference_list(provider, u, items))
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
        let pl = preference_list(&model, UserId(3), &items).expect("CF scores are finite");
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
        assert_eq!(raw.catalog_size(), Some(3));
        assert_eq!(
            raw.rated_items(&g),
            vec![ItemId(0)],
            "the members' rated items, which the candidates leave out"
        );
        // A provider with no catalog (the trait default) opts out.
        struct Table;
        impl PreferenceProvider for Table {
            fn apref(&self, _: UserId, _: ItemId) -> f64 {
                1.0
            }
        }
        assert_eq!(Table.catalog_size(), None);
        assert!(Table.rated_items(&g).is_empty());
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
