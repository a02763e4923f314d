//! Live-update deltas: staged rating changes and the dirty sets they
//! imply.
//!
//! §2.4's ad-hoc-group scenario assumes preferences keep evolving while
//! the serving substrates stay long-lived. This module is the
//! bookkeeping half of that story:
//!
//! * [`RatingStore`] accumulates rating upserts and retractions between
//!   publications, deduplicating by `(user, item)` with keep-latest
//!   semantics (the same contract as a replayed ratings log);
//! * [`DeltaBatch`] is one drained, deterministic batch of changes;
//! * [`DeltaBatch::dirty_set`] computes which users' preference lists
//!   `PL_u` and which pair-affinity entries the batch invalidates — the
//!   input to `greca-core`'s incremental `Substrate::rebuild_dirty`.
//!
//! ## Why the dirty rules are what they are
//!
//! Under [`InvalidationScope::RowOnly`] (raw-rating providers, where
//! `apref(u, i)` reads only `u`'s own row) a batch invalidates exactly
//! the batch users' lists.
//!
//! Under [`InvalidationScope::Neighborhood`] (user-based CF) a change to
//! `u`'s row additionally perturbs:
//!
//! * **every user sharing an item with `u`** — cosine/Pearson/Jaccard
//!   similarity to `u` depends on `u`'s whole vector (its norm changes
//!   with any edit), so every co-rater's neighbourhood, and therefore
//!   their predictions, may change. Co-raters are collected over both
//!   the pre- and post-batch matrices: a retraction can *end* a co-rating
//!   relationship that still influenced the pre-batch neighbourhoods;
//! * **every user with an empty rating row** — their fitted mean falls
//!   back to the global mean, which moves with any batch.
//!
//! Everything else is provably untouched: a clean user's own row, mean,
//! and neighbour similarities are unchanged, and their neighbours' rows
//! are unchanged (a changed row forces its owner into the dirty set).
//! The live-path property test (`live_properties.rs` in `greca-core`)
//! exercises exactly this argument against cold refits.

use crate::preference::NonFiniteScore;
use greca_dataset::{ItemId, Rating, RatingMatrix, UserId};
use std::collections::{BTreeMap, BTreeSet};

/// How far a rating change propagates through a preference provider.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvalidationScope {
    /// `apref(u, i)` reads only `u`'s own ratings (e.g.
    /// [`RawRatings`](crate::RawRatings)): a batch dirties exactly the
    /// batch users.
    RowOnly,
    /// `apref(u, i)` aggregates over similarity neighbourhoods (e.g.
    /// [`UserCfModel`](crate::UserCfModel)): a batch dirties the batch
    /// users, all their co-raters, and all empty-row users (see the
    /// module docs for why this set is sufficient).
    Neighborhood,
}

/// One staged change, keyed by `(user, item)`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Pending {
    Upsert(f32, greca_dataset::Timestamp),
    Retract,
}

/// Accumulates rating deltas between publications (keep-latest per
/// `(user, item)` key).
///
/// This is the ingestion buffer of the live-serving path: writers stage
/// cheaply here, and the expensive work — dirty-set computation,
/// incremental substrate rebuild, epoch swap — happens once per drained
/// batch.
#[derive(Debug, Clone, Default)]
pub struct RatingStore {
    pending: BTreeMap<(u32, u32), Pending>,
    /// Next id [`RatingStore::allocate_batch_id`] hands out (ids start
    /// at 1; 0 means "no batch").
    next_batch: u64,
    /// Highest batch id accepted by [`RatingStore::stage_batch`].
    last_staged: u64,
}

impl RatingStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stage one rating upsert. A later stage of the same `(user, item)`
    /// key — upsert or retraction — replaces it.
    ///
    /// Non-finite values are rejected here, at ingestion, exactly like
    /// the preference-list and sorted-list constructors; ratings should
    /// also lie within the provider's score scale (the CF models clamp,
    /// raw-rating providers serve them verbatim).
    pub fn stage(&mut self, rating: Rating) -> Result<(), NonFiniteScore> {
        if !rating.value.is_finite() {
            return Err(NonFiniteScore {
                user: rating.user,
                item: rating.item,
                value: rating.value as f64,
            });
        }
        debug_assert!(rating.value >= 0.0, "ratings must be non-negative");
        self.pending.insert(
            (rating.user.0, rating.item.0),
            Pending::Upsert(rating.value, rating.ts),
        );
        Ok(())
    }

    /// Stage a batch of upserts atomically: the whole slice is validated
    /// first, and on a non-finite value *nothing* is staged — a rejected
    /// batch leaves no partial prefix behind to leak into a later,
    /// unrelated publish.
    pub fn stage_all(&mut self, ratings: &[Rating]) -> Result<(), NonFiniteScore> {
        for r in ratings {
            if !r.value.is_finite() {
                return Err(NonFiniteScore {
                    user: r.user,
                    item: r.item,
                    value: r.value as f64,
                });
            }
        }
        for &r in ratings {
            self.stage(r).expect("validated finite above");
        }
        Ok(())
    }

    /// Stage the removal of `(user, item)`'s rating (a no-op at apply
    /// time if the pair is unrated).
    pub fn stage_retraction(&mut self, user: UserId, item: ItemId) {
        self.pending.insert((user.0, item.0), Pending::Retract);
    }

    /// Reserve the next monotonic batch id (ids start at 1). The
    /// caller makes the id durable (the live engine's WAL `Batch`
    /// record) before staging under it with
    /// [`RatingStore::stage_batch`]; an allocated-but-never-staged id
    /// (the append failed) simply leaves a harmless gap.
    pub fn allocate_batch_id(&mut self) -> u64 {
        self.next_batch = self.next_batch.max(self.last_staged) + 1;
        self.next_batch
    }

    /// Stage one identified batch — upserts then retractions, with the
    /// same atomic validation as [`RatingStore::stage_all`] — unless
    /// `batch_id` was already staged.
    ///
    /// Returns `Ok(true)` when the batch was staged and `Ok(false)`
    /// when `batch_id ≤` the last staged id, in which case the store
    /// is untouched: replaying a write-ahead log (or a client retrying
    /// an acknowledged ingest) is idempotent. Ids must otherwise
    /// arrive in increasing order — this is the single-writer staging
    /// path, serialized by the engine's store lock.
    pub fn stage_batch(
        &mut self,
        batch_id: u64,
        upserts: &[Rating],
        retractions: &[(UserId, ItemId)],
    ) -> Result<bool, NonFiniteScore> {
        if batch_id <= self.last_staged {
            return Ok(false);
        }
        self.stage_all(upserts)?;
        for &(u, i) in retractions {
            self.stage_retraction(u, i);
        }
        self.last_staged = batch_id;
        self.next_batch = self.next_batch.max(batch_id);
        Ok(true)
    }

    /// Highest batch id ever staged (0 if none): the `through_batch`
    /// watermark a publish commits.
    pub fn last_batch(&self) -> u64 {
        self.last_staged
    }

    /// Number of staged keys.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Drain everything staged into one deterministic batch (keys in
    /// `(user, item)` order), leaving the store empty.
    pub fn drain(&mut self) -> DeltaBatch {
        let pending = std::mem::take(&mut self.pending);
        let mut upserts = Vec::new();
        let mut retractions = Vec::new();
        for ((u, i), change) in pending {
            match change {
                Pending::Upsert(value, ts) => upserts.push(Rating {
                    user: UserId(u),
                    item: ItemId(i),
                    value,
                    ts,
                }),
                Pending::Retract => retractions.push((UserId(u), ItemId(i))),
            }
        }
        DeltaBatch {
            upserts,
            retractions,
        }
    }
}

/// One drained batch of rating changes, deduplicated by key.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaBatch {
    /// Ratings to insert or overwrite.
    pub upserts: Vec<Rating>,
    /// `(user, item)` ratings to remove.
    pub retractions: Vec<(UserId, ItemId)>,
}

impl DeltaBatch {
    /// Number of staged changes.
    pub fn len(&self) -> usize {
        self.upserts.len() + self.retractions.len()
    }

    /// Whether the batch holds no changes.
    pub fn is_empty(&self) -> bool {
        self.upserts.is_empty() && self.retractions.is_empty()
    }

    /// The `(user, item)` keys the batch touches.
    pub fn touched(&self) -> impl Iterator<Item = (UserId, ItemId)> + '_ {
        self.upserts
            .iter()
            .map(|r| (r.user, r.item))
            .chain(self.retractions.iter().copied())
    }

    /// The users' preference lists and pair-affinity entries this batch
    /// invalidates, given the rating matrices before (`pre`) and after
    /// (`post`) the batch was applied.
    ///
    /// The user rules are scope-dependent (see the module docs); the
    /// pair set is scope-independent: a pair `(u, v)` is dirty when the
    /// batch changes whether — or what — `u` and `v` co-rated, i.e. `v`
    /// rated a touched item in either matrix. That is precisely the set
    /// of entries a co-rating-derived [`AffinitySource`] would have to
    /// recompute; the social-derived sources the paper uses never go
    /// stale from ratings, and serving layers may ignore the pair set
    /// for them.
    ///
    /// [`AffinitySource`]: https://docs.rs/greca-affinity
    pub fn dirty_set(
        &self,
        pre: &RatingMatrix,
        post: &RatingMatrix,
        scope: InvalidationScope,
    ) -> DirtySet {
        self.dirty_set_bounded(pre, post, scope, usize::MAX, |_| true)
            .0
    }

    /// Like [`DeltaBatch::dirty_set`], but abandons the (potentially
    /// expensive) neighborhood closure as soon as `cap` distinct dirty
    /// users satisfying `counted` have been found — the serving layer's
    /// early exit for degenerate batches ("this already dirties nearly
    /// every precomputed segment; stop counting, rebuild wholesale").
    ///
    /// Returns the dirty set found so far and whether the cap was
    /// reached. When it was, `users`/`pairs` are **lower bounds** of
    /// the full dirty set; when it was not, the result is exactly
    /// [`DeltaBatch::dirty_set`]'s.
    pub fn dirty_set_bounded(
        &self,
        pre: &RatingMatrix,
        post: &RatingMatrix,
        scope: InvalidationScope,
        cap: usize,
        counted: impl Fn(UserId) -> bool,
    ) -> (DirtySet, bool) {
        if self.is_empty() {
            return (DirtySet::default(), false);
        }
        let mut users: BTreeSet<UserId> = BTreeSet::new();
        let mut pairs: BTreeSet<(UserId, UserId)> = BTreeSet::new();
        let mut counted_n = 0usize;
        let mut insert_user = |users: &mut BTreeSet<UserId>, u: UserId| -> bool {
            if users.insert(u) && counted(u) {
                counted_n += 1;
            }
            counted_n >= cap
        };
        let mut capped = false;
        for (u, i) in self.touched() {
            capped |= insert_user(&mut users, u);
            for m in [pre, post] {
                if i.idx() >= m.num_items() {
                    continue;
                }
                for &(v, _) in m.item_ratings(i) {
                    if v != u {
                        pairs.insert((u.min(v), u.max(v)));
                    }
                }
            }
        }
        if scope == InvalidationScope::Neighborhood && !capped {
            let touched_users: Vec<UserId> = users.iter().copied().collect();
            // Co-raters of `u` are users sharing an item with `u` in the
            // pre matrix (pre row × pre columns) or the post matrix
            // (post row × post columns) — each matrix is internally
            // consistent, so cross-matrix combinations add nothing.
            'closure: for &u in &touched_users {
                for m in [pre, post] {
                    if u.idx() >= m.num_users() {
                        continue;
                    }
                    for &(item, _) in m.user_ratings(u) {
                        for &(v, _) in m.item_ratings(item) {
                            if insert_user(&mut users, v) {
                                capped = true;
                                break 'closure;
                            }
                        }
                    }
                }
            }
            // The global mean moved; empty-row users' fallback means —
            // and thus their whole preference lists — moved with it.
            // (Non-batch users are empty in `post` iff empty in `pre`.)
            if !capped {
                for u in post.users() {
                    if post.user_ratings(u).is_empty() && insert_user(&mut users, u) {
                        capped = true;
                        break;
                    }
                }
            }
        }
        (
            DirtySet {
                users: users.into_iter().collect(),
                pairs: pairs.into_iter().collect(),
            },
            capped,
        )
    }
}

/// What a delta batch invalidates: preference lists by user, affinity
/// entries by pair. Both sorted ascending and deduplicated.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirtySet {
    /// Users whose `PL_u` must be recomputed.
    pub users: Vec<UserId>,
    /// `(min, max)` user pairs whose co-rating-derived affinity entries
    /// are invalidated. Every pair holds a batch rater, who is in
    /// `users` too ([`DeltaBatch::dirty_set_bounded`] inserts the rater
    /// before recording a pair).
    pub pairs: Vec<(UserId, UserId)>,
}

impl DirtySet {
    /// Whether `u`'s preference list is invalidated (binary search —
    /// `users` is sorted).
    pub fn contains_user(&self, u: UserId) -> bool {
        self.users.binary_search(&u).is_ok()
    }

    /// Number of dirty users.
    pub fn num_users(&self) -> usize {
        self.users.len()
    }

    /// Number of dirty pairs.
    pub fn num_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the (unordered) pair `{a, b}` has invalidated affinity
    /// entries. Order-insensitive: pairs are stored `(min, max)`.
    pub fn contains_pair(&self, a: UserId, b: UserId) -> bool {
        let key = if a.0 <= b.0 { (a, b) } else { (b, a) };
        self.pairs.binary_search(&key).is_ok()
    }

    /// Whether any user in `members` is dirty. `members` must be sorted
    /// ascending (true for `Group` member lists); both sides being
    /// sorted makes this a single merge walk.
    pub fn intersects_users(&self, members: &[UserId]) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.users.len() && j < members.len() {
            match self.users[i].0.cmp(&members[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// Fold `other` into `self` (set union on both components). Used to
    /// coalesce the dirty sets of several publishes into one.
    pub fn merge(&mut self, other: &DirtySet) {
        merge_sorted(&mut self.users, &other.users);
        merge_sorted(&mut self.pairs, &other.pairs);
    }

    /// Compact wire form: `u:1,2;p:3-4,5-6` (either side may be empty).
    /// Used by the serving layer to ship small invalidation summaries
    /// to downstream caches.
    pub fn to_wire(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("u:");
        for (i, u) in self.users.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}", u.0);
        }
        out.push_str(";p:");
        for (i, (a, b)) in self.pairs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}-{}", a.0, b.0);
        }
        out
    }

    /// Parse the `to_wire` form. Returns `None` on any malformed,
    /// unsorted, or duplicated input (the wire form is canonical).
    pub fn from_wire(s: &str) -> Option<DirtySet> {
        let rest = s.strip_prefix("u:")?;
        let (users_part, pairs_part) = rest.split_once(";p:")?;
        let mut users = Vec::new();
        if !users_part.is_empty() {
            for tok in users_part.split(',') {
                users.push(UserId(tok.parse().ok()?));
            }
        }
        let mut pairs = Vec::new();
        if !pairs_part.is_empty() {
            for tok in pairs_part.split(',') {
                let (a, b) = tok.split_once('-')?;
                let (a, b): (u32, u32) = (a.parse().ok()?, b.parse().ok()?);
                if a > b {
                    return None;
                }
                pairs.push((UserId(a), UserId(b)));
            }
        }
        if users.windows(2).any(|w| w[0] >= w[1]) || pairs.windows(2).any(|w| w[0] >= w[1]) {
            return None;
        }
        Some(DirtySet { users, pairs })
    }
}

/// Merge sorted-deduped `other` into sorted-deduped `dst`, keeping it
/// sorted and deduplicated.
fn merge_sorted<T: Ord + Copy>(dst: &mut Vec<T>, other: &[T]) {
    if other.is_empty() {
        return;
    }
    let mut merged = Vec::with_capacity(dst.len() + other.len());
    let (mut i, mut j) = (0, 0);
    while i < dst.len() && j < other.len() {
        match dst[i].cmp(&other[j]) {
            std::cmp::Ordering::Less => {
                merged.push(dst[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                merged.push(other[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                merged.push(dst[i]);
                i += 1;
                j += 1;
            }
        }
    }
    merged.extend_from_slice(&dst[i..]);
    merged.extend_from_slice(&other[j..]);
    *dst = merged;
}

#[cfg(test)]
mod tests {
    use super::*;
    use greca_dataset::RatingMatrixBuilder;

    fn world() -> RatingMatrix {
        // u0 co-rates i0 with u1; u2 rates i2 alone; u3 is empty.
        let mut b = RatingMatrixBuilder::new(4, 3);
        b.rate(UserId(0), ItemId(0), 5.0, 0)
            .rate(UserId(0), ItemId(1), 3.0, 0)
            .rate(UserId(1), ItemId(0), 4.0, 0)
            .rate(UserId(2), ItemId(2), 2.0, 0);
        b.build()
    }

    #[test]
    fn store_dedups_keep_latest() {
        let mut store = RatingStore::new();
        store
            .stage(Rating {
                user: UserId(0),
                item: ItemId(1),
                value: 2.0,
                ts: 0,
            })
            .unwrap();
        store
            .stage(Rating {
                user: UserId(0),
                item: ItemId(1),
                value: 4.5,
                ts: 1,
            })
            .unwrap();
        store.stage_retraction(UserId(1), ItemId(0));
        store
            .stage(Rating {
                user: UserId(1),
                item: ItemId(0),
                value: 1.0,
                ts: 2,
            })
            .unwrap();
        assert_eq!(store.len(), 2);
        let batch = store.drain();
        assert!(store.is_empty());
        // The upsert superseded the retraction; the later value won.
        assert_eq!(batch.retractions, vec![]);
        assert_eq!(batch.upserts.len(), 2);
        assert_eq!(batch.upserts[0].value, 4.5);
        assert_eq!(batch.upserts[1].value, 1.0);
    }

    #[test]
    fn retraction_supersedes_upsert() {
        let mut store = RatingStore::new();
        store
            .stage(Rating {
                user: UserId(0),
                item: ItemId(1),
                value: 2.0,
                ts: 0,
            })
            .unwrap();
        store.stage_retraction(UserId(0), ItemId(1));
        let batch = store.drain();
        assert!(batch.upserts.is_empty());
        assert_eq!(batch.retractions, vec![(UserId(0), ItemId(1))]);
    }

    #[test]
    fn non_finite_values_rejected_at_staging() {
        let mut store = RatingStore::new();
        let err = store
            .stage(Rating {
                user: UserId(3),
                item: ItemId(1),
                value: f32::NAN,
                ts: 0,
            })
            .unwrap_err();
        assert_eq!(err.user, UserId(3));
        assert!(store.is_empty());
    }

    #[test]
    fn rejected_batch_stages_nothing() {
        // Atomicity: a valid prefix before the offending rating must
        // not survive the error (it would leak into a later publish).
        let mut store = RatingStore::new();
        let batch = [
            Rating {
                user: UserId(0),
                item: ItemId(0),
                value: 4.0,
                ts: 0,
            },
            Rating {
                user: UserId(1),
                item: ItemId(1),
                value: f32::INFINITY,
                ts: 1,
            },
        ];
        assert!(store.stage_all(&batch).is_err());
        assert!(store.is_empty(), "no partial prefix staged");
    }

    #[test]
    fn batch_ids_make_replay_idempotent() {
        let mut store = RatingStore::new();
        assert_eq!(store.last_batch(), 0);
        let id1 = store.allocate_batch_id();
        let id2 = store.allocate_batch_id();
        assert!(0 < id1 && id1 < id2, "ids are monotonic and nonzero");
        let up = [Rating {
            user: UserId(0),
            item: ItemId(1),
            value: 4.0,
            ts: 0,
        }];
        assert!(store.stage_batch(id1, &up, &[]).unwrap());
        assert_eq!(store.last_batch(), id1);
        assert_eq!(store.len(), 1);
        // A replayed (or client-retried) id is a no-op.
        assert!(!store.stage_batch(id1, &up, &[]).unwrap());
        assert_eq!(store.len(), 1);
        assert!(store
            .stage_batch(id2, &[], &[(UserId(2), ItemId(2))])
            .unwrap());
        assert_eq!(store.last_batch(), id2);
        // The watermark survives a drain (it is cumulative, not
        // per-publish) and later allocations stay above it.
        store.drain();
        assert_eq!(store.last_batch(), id2);
        assert!(store.allocate_batch_id() > id2);
        // Validation failures stage nothing and do not advance the
        // watermark.
        let bad = [Rating {
            user: UserId(9),
            item: ItemId(9),
            value: f32::NAN,
            ts: 0,
        }];
        assert!(store.stage_batch(id2 + 10, &bad, &[]).is_err());
        assert_eq!(store.last_batch(), id2);
        assert!(store.is_empty());
    }

    #[test]
    fn row_only_scope_dirties_exactly_batch_users() {
        let pre = world();
        let mut store = RatingStore::new();
        store
            .stage(Rating {
                user: UserId(2),
                item: ItemId(0),
                value: 1.0,
                ts: 1,
            })
            .unwrap();
        let batch = store.drain();
        let post = pre.apply_deltas(&batch.upserts, &batch.retractions);
        let dirty = batch.dirty_set(&pre, &post, InvalidationScope::RowOnly);
        assert_eq!(dirty.users, vec![UserId(2)]);
        // u2 now co-rates i0 with u0 and u1: both pairs invalidated.
        assert_eq!(
            dirty.pairs,
            vec![(UserId(0), UserId(2)), (UserId(1), UserId(2))]
        );
        assert!(dirty.contains_user(UserId(2)));
        assert!(!dirty.contains_user(UserId(0)));
    }

    #[test]
    fn neighborhood_scope_adds_coraters_and_empty_rows() {
        let pre = world();
        let mut store = RatingStore::new();
        store
            .stage(Rating {
                user: UserId(0),
                item: ItemId(2),
                value: 4.0,
                ts: 1,
            })
            .unwrap();
        let batch = store.drain();
        let post = pre.apply_deltas(&batch.upserts, &batch.retractions);
        let dirty = batch.dirty_set(&pre, &post, InvalidationScope::Neighborhood);
        // u0 changed; u1 co-rates i0 with u0; u2 now co-rates i2 with
        // u0; u3 is an empty row (global-mean coupling). Everyone.
        assert_eq!(
            dirty.users,
            vec![UserId(0), UserId(1), UserId(2), UserId(3)]
        );
        assert_eq!(dirty.pairs, vec![(UserId(0), UserId(2))]);
    }

    #[test]
    fn retraction_dirties_the_pre_batch_coraters() {
        let pre = world();
        let mut store = RatingStore::new();
        store.stage_retraction(UserId(1), ItemId(0));
        let batch = store.drain();
        let post = pre.apply_deltas(&batch.upserts, &batch.retractions);
        let dirty = batch.dirty_set(&pre, &post, InvalidationScope::Neighborhood);
        // u1's only co-rating (with u0, on i0) existed only pre-batch;
        // the pre matrix must still surface it.
        assert!(dirty.contains_user(UserId(0)), "pre-batch co-rater");
        assert!(dirty.contains_user(UserId(1)));
        assert_eq!(dirty.pairs, vec![(UserId(0), UserId(1))]);
    }

    /// The bounded variant is exact when the cap is not reached, and a
    /// truthful lower bound (with the flag set) when it is.
    #[test]
    fn bounded_dirty_set_caps_the_closure() {
        let pre = world();
        let mut store = RatingStore::new();
        store
            .stage(Rating {
                user: UserId(0),
                item: ItemId(2),
                value: 4.0,
                ts: 1,
            })
            .unwrap();
        let batch = store.drain();
        let post = pre.apply_deltas(&batch.upserts, &batch.retractions);
        let full = batch.dirty_set(&pre, &post, InvalidationScope::Neighborhood);
        assert_eq!(full.num_users(), 4, "everyone is dirty in this world");
        // High cap: identical to the unbounded set, not capped.
        let (same, capped) =
            batch.dirty_set_bounded(&pre, &post, InvalidationScope::Neighborhood, 100, |_| true);
        assert!(!capped);
        assert_eq!(same, full);
        // Low cap: stops early with a subset and the flag raised.
        let (partial, capped) =
            batch.dirty_set_bounded(&pre, &post, InvalidationScope::Neighborhood, 2, |_| true);
        assert!(capped);
        assert!(partial.num_users() >= 2);
        assert!(partial.users.iter().all(|u| full.users.contains(u)));
        // Caps count only `counted` users: restricting to u3 (reached
        // last, via the empty-row rule) forces the full closure first.
        let (restricted, capped) =
            batch.dirty_set_bounded(&pre, &post, InvalidationScope::Neighborhood, 1, |u| {
                u == UserId(3)
            });
        assert!(capped);
        assert!(restricted.users.contains(&UserId(3)));
    }

    #[test]
    fn empty_batch_dirties_nothing() {
        let pre = world();
        let batch = DeltaBatch::default();
        let dirty = batch.dirty_set(&pre, &pre, InvalidationScope::Neighborhood);
        assert_eq!(dirty, DirtySet::default());
        assert_eq!(dirty.num_users(), 0);
        assert_eq!(dirty.num_pairs(), 0);
    }

    fn dirty(users: &[u32], pairs: &[(u32, u32)]) -> DirtySet {
        DirtySet {
            users: users.iter().map(|&u| UserId(u)).collect(),
            pairs: pairs.iter().map(|&(a, b)| (UserId(a), UserId(b))).collect(),
        }
    }

    #[test]
    fn intersection_helpers() {
        let d = dirty(&[2, 5, 9], &[(2, 5), (3, 7)]);
        assert!(d.contains_pair(UserId(5), UserId(2)), "order-insensitive");
        assert!(!d.contains_pair(UserId(2), UserId(9)));
        assert!(d.intersects_users(&[UserId(1), UserId(5), UserId(20)]));
        assert!(!d.intersects_users(&[UserId(1), UserId(4), UserId(20)]));
        assert!(!d.intersects_users(&[]));
    }

    #[test]
    fn merge_unions_both_components() {
        let mut a = dirty(&[1, 3], &[(1, 3)]);
        let b = dirty(&[2, 3, 4], &[(1, 3), (2, 4)]);
        a.merge(&b);
        assert_eq!(a, dirty(&[1, 2, 3, 4], &[(1, 3), (2, 4)]));
        a.merge(&DirtySet::default());
        assert_eq!(a.num_users(), 4);
    }

    #[test]
    fn wire_round_trip() {
        for d in [
            DirtySet::default(),
            dirty(&[7], &[]),
            dirty(&[], &[(0, 9)]),
            dirty(&[1, 2, 3], &[(1, 2), (1, 3)]),
        ] {
            assert_eq!(DirtySet::from_wire(&d.to_wire()), Some(d));
        }
        for bad in [
            "",
            "u:;p",
            "u:2,1;p:",
            "u:;p:3-1",
            "u:x;p:",
            "u:1;p:1-2,1-2",
        ] {
            assert_eq!(DirtySet::from_wire(bad), None, "{bad:?}");
        }
    }
}
