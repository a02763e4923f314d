//! Users, items, ratings and the rating matrix.
//!
//! The paper's data model (§2): a set of `m` items `I`, a set of `n` users
//! `U`, and a collaborative rating dataset over them (MovieLens-style 1–5
//! star ratings). `RatingMatrix` stores the ratings sparsely, indexed both
//! by user and by item, which is what the collaborative-filtering substrate
//! (crate `greca-cf`) needs for cosine similarity and prediction.

use crate::time::Timestamp;
use std::fmt;
use std::sync::Arc;

/// Identifier of a user `u ∈ U`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UserId(pub u32);

/// Identifier of an item `i ∈ I`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ItemId(pub u32);

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

impl fmt::Display for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

impl UserId {
    /// Index into user-indexed arrays.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl ItemId {
    /// Index into item-indexed arrays.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// One observed rating event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rating {
    /// The rating user.
    pub user: UserId,
    /// The rated item.
    pub item: ItemId,
    /// Rating value; MovieLens uses integer stars in `1..=5`.
    pub value: f32,
    /// When the rating was given.
    pub ts: Timestamp,
}

/// Sparse user–item rating matrix with both user-major and item-major views.
///
/// Rows (per-user vectors) are sorted by item id, columns (per-item vectors)
/// by user id, enabling `O(log nnz_row)` lookups and linear-time sparse dot
/// products for cosine similarity.
///
/// Rows and columns live behind `Arc`s, so cloning a matrix — and, more
/// importantly, deriving the next live-serving epoch via
/// [`RatingMatrix::apply_deltas`] — copies pointers and rewrites only the
/// touched rows/columns (copy-on-write), never the whole rating log.
#[derive(Debug, Clone)]
pub struct RatingMatrix {
    num_users: usize,
    num_items: usize,
    by_user: Vec<Arc<Vec<(ItemId, f32)>>>,
    by_item: Vec<Arc<Vec<(UserId, f32)>>>,
    num_ratings: usize,
}

impl RatingMatrix {
    /// Number of users `n = |U|`.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Number of items `m = |I|`.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Number of stored ratings.
    pub fn num_ratings(&self) -> usize {
        self.num_ratings
    }

    /// Fraction of the user×item grid that is filled.
    pub fn density(&self) -> f64 {
        if self.num_users == 0 || self.num_items == 0 {
            return 0.0;
        }
        self.num_ratings as f64 / (self.num_users as f64 * self.num_items as f64)
    }

    /// The ratings of `user`, sorted by item id.
    pub fn user_ratings(&self, user: UserId) -> &[(ItemId, f32)] {
        &self.by_user[user.idx()]
    }

    /// The ratings of `item`, sorted by user id.
    pub fn item_ratings(&self, item: ItemId) -> &[(UserId, f32)] {
        &self.by_item[item.idx()]
    }

    /// Rating of `user` for `item`, if present.
    pub fn get(&self, user: UserId, item: ItemId) -> Option<f32> {
        let row = &self.by_user[user.idx()];
        row.binary_search_by_key(&item, |&(i, _)| i)
            .ok()
            .map(|pos| row[pos].1)
    }

    /// Whether `user` has rated `item`.
    pub fn has_rated(&self, user: UserId, item: ItemId) -> bool {
        self.get(user, item).is_some()
    }

    /// Mean rating of `user`, or `None` if the user rated nothing.
    pub fn user_mean(&self, user: UserId) -> Option<f64> {
        let row = &self.by_user[user.idx()];
        if row.is_empty() {
            return None;
        }
        Some(row.iter().map(|&(_, v)| v as f64).sum::<f64>() / row.len() as f64)
    }

    /// Mean of all ratings, or `None` for an empty matrix.
    pub fn global_mean(&self) -> Option<f64> {
        if self.num_ratings == 0 {
            return None;
        }
        let sum: f64 = self
            .by_user
            .iter()
            .flat_map(|row| row.iter().map(|&(_, v)| v as f64))
            .sum();
        Some(sum / self.num_ratings as f64)
    }

    /// Number of users who rated `item` (its popularity).
    pub fn item_popularity(&self, item: ItemId) -> usize {
        self.by_item[item.idx()].len()
    }

    /// Variance of the ratings of `item`, or `None` if unrated.
    pub fn item_rating_variance(&self, item: ItemId) -> Option<f64> {
        let col = &self.by_item[item.idx()];
        if col.is_empty() {
            return None;
        }
        let mean = col.iter().map(|&(_, v)| v as f64).sum::<f64>() / col.len() as f64;
        Some(
            col.iter()
                .map(|&(_, v)| (v as f64 - mean).powi(2))
                .sum::<f64>()
                / col.len() as f64,
        )
    }

    /// Iterate over all user ids.
    pub fn users(&self) -> impl Iterator<Item = UserId> + '_ {
        (0..self.num_users as u32).map(UserId)
    }

    /// Iterate over all item ids.
    pub fn items(&self) -> impl Iterator<Item = ItemId> + '_ {
        (0..self.num_items as u32).map(ItemId)
    }

    /// Items ranked by descending popularity (ties broken by item id); used
    /// by the user study's "popular set" selection (§4.1.1).
    pub fn items_by_popularity(&self) -> Vec<ItemId> {
        let mut items: Vec<ItemId> = self.items().collect();
        items.sort_by_key(|&i| (std::cmp::Reverse(self.item_popularity(i)), i));
        items
    }

    /// A copy of this matrix with a delta batch applied: `retractions`
    /// remove their `(user, item)` rating if present, `upserts` insert or
    /// overwrite theirs. Dimensions grow to admit ids beyond the current
    /// grid; retractions of absent pairs (or out-of-range ids) are no-ops.
    ///
    /// Retractions apply before upserts, so a key staged in both lists
    /// ends up with the upserted value (the keep-latest contract of
    /// `greca-cf`'s `RatingStore` never stages a key in both). Cost is
    /// `O(nnz)` for the structural copy plus `O(log row/col)` per delta —
    /// the epoch-construction step of the live-ingestion path, paid per
    /// *published batch*, never per query.
    pub fn apply_deltas(&self, upserts: &[Rating], retractions: &[(UserId, ItemId)]) -> Self {
        let num_users = upserts
            .iter()
            .map(|r| r.user.idx() + 1)
            .max()
            .unwrap_or(0)
            .max(self.num_users);
        let num_items = upserts
            .iter()
            .map(|r| r.item.idx() + 1)
            .max()
            .unwrap_or(0)
            .max(self.num_items);
        // `Arc` pointer copies; `Arc::make_mut` below rewrites only the
        // rows/columns the batch touches (the previous epoch keeps the
        // originals).
        let mut by_user = self.by_user.clone();
        by_user.resize(num_users, Arc::new(Vec::new()));
        let mut by_item = self.by_item.clone();
        by_item.resize(num_items, Arc::new(Vec::new()));
        let mut num_ratings = self.num_ratings;

        for &(user, item) in retractions {
            let Some(row) = by_user.get_mut(user.idx()) else {
                continue;
            };
            if let Ok(pos) = row.binary_search_by_key(&item, |&(i, _)| i) {
                Arc::make_mut(row).remove(pos);
                let col = &mut by_item[item.idx()];
                let cpos = col
                    .binary_search_by_key(&user, |&(u, _)| u)
                    .expect("row and column views agree");
                Arc::make_mut(col).remove(cpos);
                num_ratings -= 1;
            }
        }
        for r in upserts {
            debug_assert!(r.value.is_finite(), "rating values must be finite");
            let row = Arc::make_mut(&mut by_user[r.user.idx()]);
            match row.binary_search_by_key(&r.item, |&(i, _)| i) {
                Ok(pos) => row[pos].1 = r.value,
                Err(pos) => {
                    row.insert(pos, (r.item, r.value));
                    num_ratings += 1;
                }
            }
            let col = Arc::make_mut(&mut by_item[r.item.idx()]);
            match col.binary_search_by_key(&r.user, |&(u, _)| u) {
                Ok(pos) => col[pos].1 = r.value,
                Err(pos) => col.insert(pos, (r.user, r.value)),
            }
        }
        RatingMatrix {
            num_users,
            num_items,
            by_user,
            by_item,
            num_ratings,
        }
    }

    /// A copy with the grid padded to at least `num_users × num_items`
    /// (no rating changes). The live-ingestion layer uses this so a
    /// population universe wider than the seed rating log indexes safely.
    pub fn padded_to(&self, num_users: usize, num_items: usize) -> Self {
        let mut out = self.clone();
        if num_users > out.num_users {
            out.by_user.resize(num_users, Arc::new(Vec::new()));
            out.num_users = num_users;
        }
        if num_items > out.num_items {
            out.by_item.resize(num_items, Arc::new(Vec::new()));
            out.num_items = num_items;
        }
        out
    }

    /// Whether `user`'s rating row is the *same allocation* in both
    /// matrices — observability for the copy-on-write contract of
    /// [`RatingMatrix::apply_deltas`].
    pub fn shares_user_row_with(&self, other: &RatingMatrix, user: UserId) -> bool {
        match (self.by_user.get(user.idx()), other.by_user.get(user.idx())) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// Incremental builder for [`RatingMatrix`].
///
/// Duplicate (user, item) pairs keep the **latest** value by insertion
/// order, matching how a ratings log would be replayed.
#[derive(Debug, Clone)]
pub struct RatingMatrixBuilder {
    num_users: usize,
    num_items: usize,
    ratings: Vec<Rating>,
}

impl RatingMatrixBuilder {
    /// Start a builder for an `num_users × num_items` matrix.
    pub fn new(num_users: usize, num_items: usize) -> Self {
        RatingMatrixBuilder {
            num_users,
            num_items,
            ratings: Vec::new(),
        }
    }

    /// Append one rating. Panics in debug builds on out-of-range ids.
    pub fn push(&mut self, rating: Rating) -> &mut Self {
        debug_assert!(rating.user.idx() < self.num_users, "user out of range");
        debug_assert!(rating.item.idx() < self.num_items, "item out of range");
        self.ratings.push(rating);
        self
    }

    /// Append a rating from parts.
    pub fn rate(&mut self, user: UserId, item: ItemId, value: f32, ts: Timestamp) -> &mut Self {
        self.push(Rating {
            user,
            item,
            value,
            ts,
        })
    }

    /// Number of ratings pushed so far (before dedup).
    pub fn len(&self) -> usize {
        self.ratings.len()
    }

    /// Whether no ratings were pushed.
    pub fn is_empty(&self) -> bool {
        self.ratings.is_empty()
    }

    /// Finalize into a [`RatingMatrix`].
    pub fn build(self) -> RatingMatrix {
        let mut by_user: Vec<Vec<(ItemId, f32)>> = vec![Vec::new(); self.num_users];
        // Replay in order so later duplicates overwrite earlier ones.
        let mut slot: std::collections::HashMap<(u32, u32), usize> =
            std::collections::HashMap::new();
        for r in &self.ratings {
            let key = (r.user.0, r.item.0);
            match slot.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    by_user[r.user.idx()][*e.get()].1 = r.value;
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    let row = &mut by_user[r.user.idx()];
                    e.insert(row.len());
                    row.push((r.item, r.value));
                }
            }
        }
        let mut num_ratings = 0;
        for row in &mut by_user {
            row.sort_by_key(|&(i, _)| i);
            num_ratings += row.len();
        }
        let mut by_item: Vec<Vec<(UserId, f32)>> = vec![Vec::new(); self.num_items];
        for (u, row) in by_user.iter().enumerate() {
            for &(item, v) in row {
                by_item[item.idx()].push((UserId(u as u32), v));
            }
        }
        // by_item is already sorted by user id because we iterate users in order.
        RatingMatrix {
            num_users: self.num_users,
            num_items: self.num_items,
            by_user: by_user.into_iter().map(Arc::new).collect(),
            by_item: by_item.into_iter().map(Arc::new).collect(),
            num_ratings,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RatingMatrix {
        let mut b = RatingMatrixBuilder::new(3, 4);
        b.rate(UserId(0), ItemId(0), 5.0, 0)
            .rate(UserId(0), ItemId(2), 3.0, 1)
            .rate(UserId(1), ItemId(0), 4.0, 2)
            .rate(UserId(2), ItemId(3), 1.0, 3);
        b.build()
    }

    #[test]
    fn basic_counts() {
        let m = tiny();
        assert_eq!(m.num_users(), 3);
        assert_eq!(m.num_items(), 4);
        assert_eq!(m.num_ratings(), 4);
        assert!((m.density() - 4.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn lookup_and_means() {
        let m = tiny();
        assert_eq!(m.get(UserId(0), ItemId(0)), Some(5.0));
        assert_eq!(m.get(UserId(0), ItemId(1)), None);
        assert!(m.has_rated(UserId(2), ItemId(3)));
        assert_eq!(m.user_mean(UserId(0)), Some(4.0));
        let gm = m.global_mean().unwrap();
        assert!((gm - 13.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_user_mean_is_none() {
        let m = RatingMatrixBuilder::new(2, 2).build();
        assert_eq!(m.user_mean(UserId(0)), None);
        assert_eq!(m.global_mean(), None);
        assert_eq!(m.density(), 0.0);
    }

    #[test]
    fn duplicates_keep_latest() {
        let mut b = RatingMatrixBuilder::new(1, 1);
        b.rate(UserId(0), ItemId(0), 2.0, 0)
            .rate(UserId(0), ItemId(0), 5.0, 1);
        let m = b.build();
        assert_eq!(m.num_ratings(), 1);
        assert_eq!(m.get(UserId(0), ItemId(0)), Some(5.0));
    }

    #[test]
    fn item_views_are_consistent() {
        let m = tiny();
        assert_eq!(m.item_popularity(ItemId(0)), 2);
        assert_eq!(
            m.item_ratings(ItemId(0)),
            &[(UserId(0), 5.0), (UserId(1), 4.0)]
        );
        let var = m.item_rating_variance(ItemId(0)).unwrap();
        assert!((var - 0.25).abs() < 1e-12);
        assert_eq!(m.item_rating_variance(ItemId(1)), None);
    }

    #[test]
    fn popularity_ranking() {
        let m = tiny();
        let ranked = m.items_by_popularity();
        assert_eq!(ranked[0], ItemId(0)); // two raters
                                          // Remaining have ≤1 rater; i2 and i3 have one each, i1 zero.
        assert_eq!(*ranked.last().unwrap(), ItemId(1));
    }

    #[test]
    fn display_formats() {
        assert_eq!(UserId(3).to_string(), "u3");
        assert_eq!(ItemId(9).to_string(), "i9");
    }

    #[test]
    fn apply_deltas_upserts_overwrites_and_retracts() {
        let m = tiny();
        let upserts = [
            Rating {
                user: UserId(1),
                item: ItemId(2),
                value: 2.5,
                ts: 9,
            },
            Rating {
                user: UserId(0),
                item: ItemId(0),
                value: 1.0,
                ts: 10,
            },
        ];
        let retractions = [(UserId(2), ItemId(3)), (UserId(1), ItemId(3))];
        let next = m.apply_deltas(&upserts, &retractions);
        // Insert, overwrite, retract-present, retract-absent.
        assert_eq!(next.get(UserId(1), ItemId(2)), Some(2.5));
        assert_eq!(next.get(UserId(0), ItemId(0)), Some(1.0));
        assert_eq!(next.get(UserId(2), ItemId(3)), None);
        assert_eq!(next.num_ratings(), 4);
        // Both views stay aligned and sorted.
        assert_eq!(
            next.item_ratings(ItemId(2)),
            &[(UserId(0), 3.0), (UserId(1), 2.5)]
        );
        assert_eq!(next.user_ratings(UserId(2)), &[]);
        // The original is untouched (epochs are snapshots).
        assert_eq!(m.get(UserId(0), ItemId(0)), Some(5.0));
        assert_eq!(m.num_ratings(), 4);
        // A full rebuild from the equivalent log agrees.
        let mut b = RatingMatrixBuilder::new(3, 4);
        b.rate(UserId(0), ItemId(0), 1.0, 0)
            .rate(UserId(0), ItemId(2), 3.0, 1)
            .rate(UserId(1), ItemId(0), 4.0, 2)
            .rate(UserId(1), ItemId(2), 2.5, 9);
        let rebuilt = b.build();
        for u in rebuilt.users() {
            assert_eq!(next.user_ratings(u), rebuilt.user_ratings(u));
        }
    }

    #[test]
    fn apply_deltas_grows_dimensions() {
        let m = tiny();
        let next = m.apply_deltas(
            &[Rating {
                user: UserId(5),
                item: ItemId(7),
                value: 4.0,
                ts: 0,
            }],
            &[(UserId(9), ItemId(9))],
        );
        assert_eq!(next.num_users(), 6);
        assert_eq!(next.num_items(), 8);
        assert_eq!(next.get(UserId(5), ItemId(7)), Some(4.0));
        assert_eq!(next.num_ratings(), 5);
    }

    #[test]
    fn apply_deltas_is_copy_on_write() {
        let m = tiny();
        let next = m.apply_deltas(
            &[Rating {
                user: UserId(1),
                item: ItemId(2),
                value: 2.5,
                ts: 9,
            }],
            &[],
        );
        // Untouched rows alias the same allocations; the touched row is
        // a fresh copy (epoch derivation costs O(touched), not O(nnz)).
        assert!(m.shares_user_row_with(&next, UserId(0)));
        assert!(m.shares_user_row_with(&next, UserId(2)));
        assert!(!m.shares_user_row_with(&next, UserId(1)));
    }

    #[test]
    fn padded_matrix_keeps_ratings() {
        let m = tiny();
        let p = m.padded_to(10, 2);
        assert_eq!(p.num_users(), 10);
        assert_eq!(p.num_items(), 4, "padding never shrinks");
        assert_eq!(p.num_ratings(), m.num_ratings());
        assert_eq!(p.user_ratings(UserId(9)), &[]);
    }

    #[test]
    fn rows_sorted_by_item() {
        let mut b = RatingMatrixBuilder::new(1, 5);
        b.rate(UserId(0), ItemId(4), 1.0, 0)
            .rate(UserId(0), ItemId(1), 2.0, 0)
            .rate(UserId(0), ItemId(3), 3.0, 0);
        let m = b.build();
        let items: Vec<u32> = m
            .user_ratings(UserId(0))
            .iter()
            .map(|&(i, _)| i.0)
            .collect();
        assert_eq!(items, vec![1, 3, 4]);
    }
}
