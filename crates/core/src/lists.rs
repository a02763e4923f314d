//! The sorted-list inputs of GRECA (§3.1): owned storage and borrowed
//! views.
//!
//! For a group of `n` users at query period `p` with `T = p+1` aggregated
//! periods, GRECA scans:
//!
//! * `n` **preference lists** `PL_u` (`m` items each, score-descending);
//! * the **static affinity lists** `LaffS` — either decomposed into
//!   `n−1` per-user lists (the paper's layout: "the i-th list stands for
//!   user u_i with n−i entries") or one combined list with `n(n−1)/2`
//!   entries (the alternative §3.1 mentions; kept for the ablation bench);
//! * `T` sets of **periodic affinity lists** `LaffV`, same layout.
//!
//! Every list is sorted descending, is read only by sequential accesses,
//! and exposes its *cursor*: the value of the most recently read entry,
//! which upper-bounds everything below it.
//!
//! ## View vs. owned storage
//!
//! The algorithms (GRECA here, TA and the naive scan in
//! `greca_bench::baselines`) never touch owned storage: they execute
//! over [`GrecaInputs`], a bundle of [`ListView`]s — borrowed slices
//! with no lifecycle of their own. A view is a list's explicit *support*
//! entries, columnar `(ids, scores)`, plus, for a preference column, an
//! implicit *default run* over the column's shared itemset. Two storage
//! shapes produce those views:
//!
//! * [`SortedList`] — owned columnar buffers, every entry explicit,
//!   built by sorting (the affinity lists, and the hand-built tables of
//!   the running example); [`MaterializedInputs`] bundles one query's
//!   worth of them as the independent reference the tests check
//!   prepared queries against;
//! * [`SegmentHandle`](crate::substrate::SegmentHandle) — a preference
//!   column stored as its support plus a default run, shared from the
//!   [`Substrate`](crate::substrate::Substrate) or derived per itemset.
//!
//! Keeping views slice-backed is what makes preparation copy-free: a
//! full-universe query's preference lists are the substrate's support
//! columns (a coded column's support is dequantized once per arena, not
//! per query) over the universe itemset, and a column over a default
//! itemset costs its support, not its itemset. Per-query state shrinks
//! to cursors plus the interval bookkeeping in [`crate::interval`] /
//! [`crate::score`].

use greca_affinity::GroupAffinity;
use greca_cf::PreferenceList;
use greca_dataset::ItemId;

/// What a list contains (and thus what its entry ids mean).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ListKind {
    /// `PL_u` of the member at this index; entry ids are item ids.
    Preference {
        /// Index of the owning member within the group.
        member: u32,
    },
    /// Static affinity list; entry ids are group pair indices.
    StaticAffinity,
    /// Periodic affinity list for one period; entry ids are pair indices.
    PeriodicAffinity {
        /// 0-based period index.
        period: u32,
    },
}

/// A non-finite value rejected at list ingestion.
///
/// Carried up to the query layer as
/// [`QueryError::NonFiniteScore`](crate::query::QueryError::NonFiniteScore)
/// instead of panicking inside a sort comparator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NonFiniteEntry {
    /// The list the value was destined for.
    pub kind: ListKind,
    /// The entry id (item id or pair index).
    pub id: u32,
    /// The offending value (NaN or ±∞).
    pub value: f64,
}

impl std::fmt::Display for NonFiniteEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "non-finite score {} for entry {} of {:?} list",
            self.value, self.id, self.kind
        )
    }
}

impl std::error::Error for NonFiniteEntry {}

/// The implicit part of a preference list: every item of the itemset
/// `items` whose id `skip` does not hold, in ascending id, each scoring
/// `default` unless the list's equal entries hold its id.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DefaultRun<'a> {
    /// The list's itemset, ascending by id.
    pub(crate) items: &'a [ItemId],
    /// Ascending ids of the support entries above and below the
    /// default, all in `items`, which the run passes over.
    pub(crate) skip: &'a [u32],
    /// The score of every run entry that is not an equal entry.
    pub(crate) default: f64,
}

impl DefaultRun<'_> {
    /// No run: a list whose entries are all explicit.
    const NONE: DefaultRun<'static> = DefaultRun {
        items: &[],
        skip: &[],
        default: 0.0,
    };
}

/// Where a sequential reader stands in a list's default run: the next
/// itemset position, the next `skip` id and the next equal entry.
/// Each read moves them forward, so reading a whole run costs
/// `O(itemset)` in all, `O(1)` per read amortized.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RunCursor {
    item: usize,
    skip: usize,
    equal: usize,
}

/// A borrowed, read-only view of one sorted list. This is the only
/// shape the algorithms consume; copying a view copies a few slices,
/// never entries.
///
/// A list is its *support* — explicit `(id, score)` entries in list
/// order — and, for a preference column, an implicit *default run*
/// (see [`SegmentHandle`](crate::substrate::SegmentHandle)). The
/// support splits three ways around the run: the entries above the
/// provider's default come first, then the run region, then the entries
/// below the default. The run region holds every itemset item not in
/// the support, at the default, merged by id with the support entries
/// that compare equal to the default (which keep their own bits). A
/// list without a run holds every entry in its support. Reading a run
/// entry is a sequential access like any other: [`ListView::len`] and
/// `%SA` count it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ListView<'a> {
    /// What the entries mean.
    pub kind: ListKind,
    /// Support entry ids, aligned with `scores`.
    ids: &'a [u32],
    /// Support entry scores: descending in list order.
    scores: &'a [f64],
    /// `ids[..above]` precede the run region.
    above: usize,
    /// `ids[above..below]` sit inside it in ascending id; `ids[below..]`
    /// follow it.
    below: usize,
    run: DefaultRun<'a>,
}

impl<'a> ListView<'a> {
    /// A list whose entries are all explicit: aligned columnar slices.
    #[inline]
    pub fn new(kind: ListKind, ids: &'a [u32], scores: &'a [f64]) -> Self {
        debug_assert_eq!(ids.len(), scores.len(), "columns must align");
        ListView {
            kind,
            ids,
            scores,
            above: ids.len(),
            below: ids.len(),
            run: DefaultRun::NONE,
        }
    }

    /// A list of support entries (`ids[..above]` above the default,
    /// `ids[above..below]` equal to it in ascending id, the rest below
    /// it) around a default run.
    pub(crate) fn with_run(
        kind: ListKind,
        (ids, scores): (&'a [u32], &'a [f64]),
        (above, below): (usize, usize),
        run: DefaultRun<'a>,
    ) -> Self {
        debug_assert_eq!(ids.len(), scores.len(), "columns must align");
        debug_assert!(above <= below && below <= ids.len());
        debug_assert!(run.skip.len() + (below - above) <= run.items.len());
        ListView {
            kind,
            ids,
            scores,
            above,
            below,
            run,
        }
    }

    /// Entries of the run region: the itemset minus the skipped ids
    /// (the equal entries included).
    #[inline]
    fn run_len(&self) -> usize {
        self.run.items.len() - self.run.skip.len()
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len() - (self.below - self.above) + self.run_len()
    }

    /// Whether the list is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The score of run-region item `id`: its equal entry's, or the
    /// default.
    fn run_score(&self, id: u32) -> f64 {
        let equal = &self.ids[self.above..self.below];
        match equal.binary_search(&id) {
            Ok(e) => self.scores[self.above + e],
            Err(_) => self.run.default,
        }
    }

    /// The `(id, score)` entry at `pos`: `O(1)` in the support,
    /// `O(log support · log itemset)` in the run region (a search over
    /// the skipped ids). The kernel reads a long run sequentially,
    /// through a run cursor, instead; [`ListView::iter`] does too.
    pub fn entry(&self, pos: usize) -> (u32, f64) {
        if pos < self.above {
            return (self.ids[pos], self.scores[pos]);
        }
        let j = pos - self.above;
        let run_len = self.run_len();
        if j >= run_len {
            let k = self.below + (j - run_len);
            return (self.ids[k], self.scores[k]);
        }
        // `skip[i]`'s itemset position minus `i` counts the run entries
        // before it, so the j-th run entry sits `j` plus the skips it
        // passes into the itemset.
        let (items, skip) = (self.run.items, self.run.skip);
        let position = |id: u32| items.partition_point(|i| i.0 < id);
        let (mut lo, mut hi) = (0, skip.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if position(skip[mid]) - mid <= j {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let id = items[j + lo].0;
        (id, self.run_score(id))
    }

    /// The entry at `pos` for a reader that reads positions `0, 1, 2, …`
    /// in turn with one `cursor` (fresh at position 0): support entries
    /// in `O(1)`, run entries in `O(1)` amortized.
    #[inline]
    pub(crate) fn read(&self, pos: usize, cursor: &mut RunCursor) -> (u32, f64) {
        if pos < self.above || pos - self.above >= self.run_len() {
            return self.entry(pos);
        }
        let items = self.run.items;
        let mut id = items[cursor.item].0;
        while self.run.skip.get(cursor.skip) == Some(&id) {
            cursor.skip += 1;
            cursor.item += 1;
            id = items[cursor.item].0;
        }
        cursor.item += 1;
        let e = self.above + cursor.equal;
        if e < self.below && self.ids[e] == id {
            cursor.equal += 1;
            (id, self.scores[e])
        } else {
            (id, self.run.default)
        }
    }

    /// Score of the first (largest) entry, if any.
    #[inline]
    pub fn first_score(&self) -> Option<f64> {
        (!self.is_empty()).then(|| self.entry(0).1)
    }

    /// Score of the last (smallest) entry, if any.
    #[inline]
    pub fn last_score(&self) -> Option<f64> {
        self.len().checked_sub(1).map(|pos| self.entry(pos).1)
    }

    /// Iterate `(id, score)` entries in list order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + 'a {
        let view = *self;
        let mut cursor = RunCursor::default();
        (0..view.len()).map(move |pos| view.read(pos, &mut cursor))
    }
}

/// One sorted, sequentially-accessed input list — the *owned* columnar
/// storage behind a [`ListView`].
#[derive(Debug, Clone, PartialEq)]
pub struct SortedList {
    /// What the entries mean.
    pub kind: ListKind,
    ids: Vec<u32>,
    scores: Vec<f64>,
}

impl SortedList {
    /// Build, sorting entries descending (ties by id for determinism).
    ///
    /// Non-finite scores are rejected here, at ingestion, instead of
    /// panicking in the sort comparator.
    pub fn new(kind: ListKind, entries: Vec<(u32, f64)>) -> Result<Self, NonFiniteEntry> {
        let mut entries = entries;
        for &(id, value) in &entries {
            if !value.is_finite() {
                return Err(NonFiniteEntry { kind, id, value });
            }
        }
        entries.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("validated finite above")
                .then_with(|| a.0.cmp(&b.0))
        });
        let mut ids = Vec::with_capacity(entries.len());
        let mut scores = Vec::with_capacity(entries.len());
        for (id, s) in entries {
            ids.push(id);
            scores.push(s);
        }
        Ok(SortedList { kind, ids, scores })
    }

    /// The `(ids, scores)` columns, in list order.
    pub(crate) fn into_columns(self) -> (Vec<u32>, Vec<f64>) {
        (self.ids, self.scores)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The borrowed view the algorithms execute over.
    #[inline]
    pub fn as_view(&self) -> ListView<'_> {
        ListView::new(self.kind, &self.ids, &self.scores)
    }
}

/// How affinity lists are laid out (§3.1 discusses both; the decomposed
/// layout "allows us to design efficient algorithms").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ListLayout {
    /// `n−1` lists per affinity kind, the i-th holding user u_i's pairs.
    #[default]
    Decomposed,
    /// A single list with all `n(n−1)/2` pairs per affinity kind.
    Single,
}

/// Sentinel for "no affinity list holds this pair" in the membership
/// tables of [`GrecaInputs`].
const NO_LIST: u32 = u32::MAX;

/// All inputs for one algorithm execution, as borrowed views.
///
/// This is what [`crate::greca::greca_topk`] — the only algorithm this
/// crate ships — consumes, as do the §4.2 baselines in
/// `greca_bench::baselines`. It borrows from whichever
/// storage backs the query — owned [`SortedList`]s or the engine's
/// shared [`crate::substrate::Substrate`] — and costs only the
/// view vectors (plus two tiny pair-membership tables) to assemble.
///
/// Construct via [`GrecaInputs::assemble`], which derives the
/// pair-affinity membership tables ([`GrecaInputs::static_list_of`] /
/// [`GrecaInputs::period_list_of`]) the GRECA kernel's cursor bounds
/// read instead of linearly scanning list ids.
#[derive(Debug, Clone, PartialEq)]
pub struct GrecaInputs<'a> {
    /// Preference lists, one per member (member order = group order).
    pub pref_lists: Vec<ListView<'a>>,
    /// Static affinity lists (empty when the mode ignores static affinity).
    pub static_lists: Vec<ListView<'a>>,
    /// Periodic affinity lists, grouped per period (empty when the mode is
    /// not temporal).
    pub period_lists: Vec<Vec<ListView<'a>>>,
    /// Number of group members.
    pub num_members: usize,
    /// Number of group pairs.
    pub num_pairs: usize,
    /// Number of candidate items.
    pub num_items: usize,
    /// For each pair, the index into `static_lists` of the (single) list
    /// holding it, or [`NO_LIST`].
    static_list_of_pair: Vec<u32>,
    /// Flattened `[period · num_pairs + pair]` → index into
    /// `period_lists[period]`, or [`NO_LIST`].
    period_list_of_pair: Vec<u32>,
}

impl<'a> GrecaInputs<'a> {
    /// Assemble the inputs, deriving the pair-membership tables from the
    /// affinity lists' entry ids (each pair lives in exactly one list per
    /// affinity kind under either [`ListLayout`]; the derivation simply
    /// records where).
    ///
    /// Contract: every preference list ranks the same itemset, and
    /// affinity entry ids are group pair indices `< num_pairs`. The
    /// kernel does not check the first: the places that bundle columns
    /// do ([`MaterializedInputs::build`], and every preparation in
    /// `crate::query`). Over lists that break it a run still returns,
    /// but its top-k is unspecified.
    pub fn assemble(
        pref_lists: Vec<ListView<'a>>,
        static_lists: Vec<ListView<'a>>,
        period_lists: Vec<Vec<ListView<'a>>>,
        num_members: usize,
        num_pairs: usize,
        num_items: usize,
    ) -> Self {
        let mut static_list_of_pair = vec![NO_LIST; num_pairs];
        for (off, l) in static_lists.iter().enumerate() {
            for (pair, _) in l.iter() {
                static_list_of_pair[pair as usize] = off as u32;
            }
        }
        let mut period_list_of_pair = vec![NO_LIST; num_pairs * period_lists.len()];
        for (p, lists) in period_lists.iter().enumerate() {
            for (off, l) in lists.iter().enumerate() {
                for (pair, _) in l.iter() {
                    period_list_of_pair[p * num_pairs + pair as usize] = off as u32;
                }
            }
        }
        GrecaInputs {
            pref_lists,
            static_lists,
            period_lists,
            num_members,
            num_pairs,
            num_items,
            static_list_of_pair,
            period_list_of_pair,
        }
    }

    /// Index into [`GrecaInputs::static_lists`] of the list holding
    /// `pair`, if any. O(1) — precomputed at assembly.
    #[inline]
    pub fn static_list_of(&self, pair: usize) -> Option<usize> {
        match self.static_list_of_pair.get(pair).copied() {
            Some(off) if off != NO_LIST => Some(off as usize),
            _ => None,
        }
    }

    /// Index into `period_lists[period]` of the list holding `pair`, if
    /// any. O(1) — precomputed at assembly.
    #[inline]
    pub fn period_list_of(&self, period: usize, pair: usize) -> Option<usize> {
        match self
            .period_list_of_pair
            .get(period * self.num_pairs + pair)
            .copied()
        {
            Some(off) if off != NO_LIST => Some(off as usize),
            _ => None,
        }
    }

    /// Every list in round-robin order: preference lists first, then
    /// static, then each period's lists (§3.2's "round-robin fashion over
    /// the aforementioned lists").
    pub fn all_lists(&self) -> impl Iterator<Item = ListView<'a>> + '_ {
        self.pref_lists
            .iter()
            .chain(self.static_lists.iter())
            .chain(self.period_lists.iter().flatten())
            .copied()
    }

    /// Number of lists.
    pub fn num_lists(&self) -> usize {
        self.pref_lists.len()
            + self.static_lists.len()
            + self.period_lists.iter().map(Vec::len).sum::<usize>()
    }

    /// Total entries across all lists — the denominator of `%SA` and the
    /// SA count of the naive algorithm.
    pub fn total_entries(&self) -> u64 {
        self.all_lists().map(|l| l.len() as u64).sum()
    }
}

/// Per-query owned list storage: every list sorted and buffered for
/// this query alone.
///
/// [`MaterializedInputs::views`] hands the algorithms their
/// [`GrecaInputs`]. Prepared queries never build this type (their cold
/// path shares member lists through a
/// [`SharedMemberState`](crate::plan::SharedMemberState)); it is the
/// straightforward reference the identity tests compare them against.
#[derive(Debug, Clone)]
pub struct MaterializedInputs {
    /// Preference lists, one per member (member order = group order).
    pub pref_lists: Vec<SortedList>,
    /// Static affinity lists (empty when the mode ignores static affinity).
    pub static_lists: Vec<SortedList>,
    /// Periodic affinity lists, grouped per period.
    pub period_lists: Vec<Vec<SortedList>>,
    /// Number of group members.
    pub num_members: usize,
    /// Number of group pairs.
    pub num_pairs: usize,
    /// Number of candidate items.
    pub num_items: usize,
}

impl MaterializedInputs {
    /// Assemble the inputs from per-member preference lists and the
    /// group's affinity view, sorting every list.
    ///
    /// All preference lists must rank the same candidate item set; this
    /// is how §2.4's problem statement is posed (one itemset `I`).
    /// Panics otherwise.
    pub fn build(
        pref_lists: &[PreferenceList],
        affinity: &GroupAffinity,
        layout: ListLayout,
    ) -> Result<Self, NonFiniteEntry> {
        let n = affinity.members().len();
        assert_eq!(pref_lists.len(), n, "one preference list per group member");
        let num_items = common_itemset(pref_lists).len();
        let plists: Vec<SortedList> = pref_lists
            .iter()
            .enumerate()
            .map(|(idx, pl)| {
                SortedList::new(
                    ListKind::Preference { member: idx as u32 },
                    pl.entries.iter().map(|&(i, s)| (i.0, s)).collect(),
                )
            })
            .collect::<Result<_, _>>()?;

        let num_pairs = affinity.num_pairs();
        let (static_lists, period_lists) = group_affinity_list_sets(affinity, layout)?;
        Ok(MaterializedInputs {
            pref_lists: plists,
            static_lists,
            period_lists,
            num_members: n,
            num_pairs,
            num_items,
        })
    }

    /// The borrowed views the algorithms execute over.
    pub fn views(&self) -> GrecaInputs<'_> {
        GrecaInputs::assemble(
            self.pref_lists.iter().map(SortedList::as_view).collect(),
            self.static_lists.iter().map(SortedList::as_view).collect(),
            self.period_lists
                .iter()
                .map(|ls| ls.iter().map(SortedList::as_view).collect())
                .collect(),
            self.num_members,
            self.num_pairs,
            self.num_items,
        )
    }

    /// Total entries across all lists.
    pub fn total_entries(&self) -> u64 {
        self.views().total_entries()
    }
}

/// The itemset every list of `pref_lists` ranks, ascending. Panics
/// unless all of them rank the same one: lists of different lengths
/// "must align", lists over different ids "must rank the same itemset".
pub(crate) fn common_itemset(pref_lists: &[PreferenceList]) -> Vec<ItemId> {
    let sorted_ids = |l: &PreferenceList| {
        let mut ids: Vec<ItemId> = l.entries.iter().map(|&(i, _)| i).collect();
        ids.sort_unstable();
        ids
    };
    let itemset = pref_lists.first().map_or_else(Vec::new, sorted_ids);
    for l in pref_lists {
        assert_eq!(l.len(), itemset.len(), "preference lists must align");
        assert!(
            sorted_ids(l) == itemset,
            "preference lists must rank the same itemset"
        );
    }
    itemset
}

/// Both affinity list sets (static + per-period) for one group view —
/// the mode-gated assembly shared by [`MaterializedInputs::build`] and
/// every preparation in `crate::query`, warm or cold.
pub(crate) fn group_affinity_list_sets(
    affinity: &GroupAffinity,
    layout: ListLayout,
) -> Result<(Vec<SortedList>, Vec<Vec<SortedList>>), NonFiniteEntry> {
    let mode = affinity.mode();
    let static_lists = if mode.uses_static() {
        build_affinity_lists(affinity, layout, ListKind::StaticAffinity, |pair| {
            affinity.static_component(pair)
        })?
    } else {
        Vec::new()
    };
    let period_lists = if mode.is_temporal() {
        (0..affinity.num_periods())
            .map(|p| {
                build_affinity_lists(
                    affinity,
                    layout,
                    ListKind::PeriodicAffinity { period: p as u32 },
                    |pair| affinity.period_component(p, pair),
                )
            })
            .collect::<Result<_, _>>()?
    } else {
        Vec::new()
    };
    Ok((static_lists, period_lists))
}

/// Build one affinity kind's lists from a group view's components,
/// sorting each list (tiny: ≤ n−1 entries each).
fn build_affinity_lists(
    affinity: &GroupAffinity,
    layout: ListLayout,
    kind: ListKind,
    component: impl Fn(usize) -> f64,
) -> Result<Vec<SortedList>, NonFiniteEntry> {
    let n = affinity.members().len();
    match layout {
        ListLayout::Single => {
            let entries: Vec<(u32, f64)> = (0..affinity.num_pairs())
                .map(|pair| (pair as u32, component(pair)))
                .collect();
            Ok(vec![SortedList::new(kind, entries)?])
        }
        ListLayout::Decomposed => {
            // The i-th list holds u_i's pairs (u_i, u_j) for j > i: n−1
            // lists (the last user's list would be empty and is skipped,
            // exactly as in the running example of §3.1).
            let members = affinity.members();
            (0..n.saturating_sub(1))
                .map(|i| {
                    let entries: Vec<(u32, f64)> = ((i + 1)..n)
                        .map(|j| {
                            let pair = affinity
                                .pair_of(members[i], members[j])
                                .expect("members are in the group");
                            (pair as u32, component(pair))
                        })
                        .collect();
                    SortedList::new(kind, entries)
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greca_affinity::AffinityMode;
    use greca_dataset::{ItemId, UserId};

    fn affinity(mode: AffinityMode) -> GroupAffinity {
        GroupAffinity::new(
            vec![UserId(0), UserId(1), UserId(2)],
            mode,
            vec![1.0, 0.2, 0.3],
            vec![vec![0.8, 0.1, 0.2], vec![0.7, 0.1, 0.1]],
            vec![0.37, 0.3],
        )
    }

    fn pls() -> Vec<PreferenceList> {
        vec![
            PreferenceList::from_entries(
                UserId(0),
                vec![(ItemId(0), 5.0), (ItemId(1), 1.0), (ItemId(2), 1.0)],
            )
            .unwrap(),
            PreferenceList::from_entries(
                UserId(1),
                vec![(ItemId(0), 5.0), (ItemId(1), 1.0), (ItemId(2), 0.5)],
            )
            .unwrap(),
            PreferenceList::from_entries(
                UserId(2),
                vec![(ItemId(2), 2.0), (ItemId(0), 2.0), (ItemId(1), 1.0)],
            )
            .unwrap(),
        ]
    }

    fn build(mode: AffinityMode, layout: ListLayout) -> MaterializedInputs {
        MaterializedInputs::build(&pls(), &affinity(mode), layout).expect("finite inputs")
    }

    #[test]
    fn sorted_list_sorts_desc_with_id_ties() {
        let l =
            SortedList::new(ListKind::StaticAffinity, vec![(2, 0.5), (0, 0.5), (1, 0.9)]).unwrap();
        let ids: Vec<u32> = l.as_view().iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![1, 0, 2]);
    }

    #[test]
    fn non_finite_entries_rejected() {
        let err = SortedList::new(
            ListKind::PeriodicAffinity { period: 1 },
            vec![(0, 0.5), (3, f64::NAN)],
        )
        .unwrap_err();
        assert_eq!(err.id, 3);
        assert_eq!(err.kind, ListKind::PeriodicAffinity { period: 1 });
        assert!(err.value.is_nan());
        assert!(err.to_string().contains("non-finite"));
    }

    #[test]
    fn views_mirror_owned_storage() {
        let l = SortedList::new(ListKind::StaticAffinity, vec![(7, 0.25), (1, 0.75)]).unwrap();
        let v = l.as_view();
        assert_eq!(v.len(), 2);
        assert_eq!(v.entry(0), (1, 0.75));
        assert_eq!(v.first_score(), Some(0.75));
        assert_eq!(v.last_score(), Some(0.25));
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![(1, 0.75), (7, 0.25)]);
    }

    #[test]
    fn decomposed_layout_matches_running_example() {
        // §3.1: LaffS(u1) holds u1's two pairs, LaffS(u2) holds one, and
        // "no static affinity list needs to be created for user u3".
        let inputs = build(AffinityMode::Discrete, ListLayout::Decomposed);
        assert_eq!(inputs.static_lists.len(), 2);
        assert_eq!(inputs.static_lists[0].len(), 2);
        assert_eq!(inputs.static_lists[1].len(), 1);
        assert_eq!(inputs.period_lists.len(), 2);
        assert_eq!(inputs.period_lists[0].len(), 2);
        let views = inputs.views();
        // 3 pref lists + 2 static + 2×2 periodic = 9 lists.
        assert_eq!(views.num_lists(), 9);
        // Entries: 3×3 + 3 + 2×3 = 18.
        assert_eq!(views.total_entries(), 18);
    }

    #[test]
    fn single_layout_has_one_list_per_kind() {
        let inputs = build(AffinityMode::Discrete, ListLayout::Single);
        assert_eq!(inputs.static_lists.len(), 1);
        assert_eq!(inputs.static_lists[0].len(), 3);
        assert_eq!(inputs.period_lists[0].len(), 1);
        assert_eq!(inputs.total_entries(), 18, "same entries either layout");
    }

    #[test]
    fn affinity_agnostic_mode_has_no_affinity_lists() {
        let inputs = build(AffinityMode::None, ListLayout::Decomposed);
        assert!(inputs.static_lists.is_empty());
        assert!(inputs.period_lists.is_empty());
        assert_eq!(inputs.total_entries(), 9);
    }

    #[test]
    fn static_only_mode_has_no_period_lists() {
        let inputs = build(AffinityMode::StaticOnly, ListLayout::Decomposed);
        assert_eq!(inputs.static_lists.len(), 2);
        assert!(inputs.period_lists.is_empty());
    }

    /// The precomputed membership tables must agree with a linear scan
    /// of the list ids for every pair, for both static and periodic
    /// lists, under both layouts — the lookup that replaced the GRECA
    /// kernel's `list_contains_pair` scan.
    #[test]
    fn pair_membership_matches_linear_scan() {
        for layout in [ListLayout::Decomposed, ListLayout::Single] {
            let inputs = build(AffinityMode::Discrete, layout);
            let views = inputs.views();
            for pair in 0..views.num_pairs {
                let holds = |l: &ListView<'_>| l.iter().any(|(id, _)| id == pair as u32);
                let scanned = views.static_lists.iter().position(holds);
                assert_eq!(views.static_list_of(pair), scanned, "{layout:?} static");
                for (p, lists) in views.period_lists.iter().enumerate() {
                    let scanned = lists.iter().position(holds);
                    assert_eq!(
                        views.period_list_of(p, pair),
                        scanned,
                        "{layout:?} period {p}"
                    );
                }
            }
            // Every pair is held by exactly one list per kind.
            assert!((0..views.num_pairs).all(|p| views.static_list_of(p).is_some()));
        }
        // Affinity-agnostic inputs: no lists, no membership.
        let none = build(AffinityMode::None, ListLayout::Decomposed);
        let views = none.views();
        assert!((0..views.num_pairs).all(|p| views.static_list_of(p).is_none()));
        // Out-of-range probes are None, not panics.
        assert_eq!(views.static_list_of(999), None);
        assert_eq!(views.period_list_of(0, 0), None);
    }

    #[test]
    fn affinity_lists_sorted_desc() {
        let inputs = build(AffinityMode::Discrete, ListLayout::Single);
        for l in inputs.views().all_lists() {
            let scores: Vec<f64> = l.iter().map(|(_, s)| s).collect();
            assert!(scores.windows(2).all(|w| w[0] >= w[1]));
        }
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn mismatched_pref_lists_rejected() {
        let mut lists = pls();
        lists[1].entries.pop();
        let _ = MaterializedInputs::build(
            &lists,
            &affinity(AffinityMode::Discrete),
            ListLayout::Decomposed,
        );
    }

    #[test]
    #[should_panic(expected = "must rank the same itemset")]
    fn pref_lists_over_different_ids_rejected() {
        let mut lists = pls();
        lists[1].entries[2].0 = ItemId(7);
        let _ = MaterializedInputs::build(
            &lists,
            &affinity(AffinityMode::Discrete),
            ListLayout::Decomposed,
        );
    }

    /// A run view reads, entry by entry, like the explicit list it
    /// stands for: by position, sequentially and through `iter`.
    #[test]
    fn a_default_run_reads_like_its_explicit_list() {
        let items: Vec<ItemId> = [1, 3, 4, 6, 8, 9].map(ItemId).to_vec();
        // Above the default: 8, 3. Equal to it: 6 (its own `-0.0`).
        // Below it: 9. The run skips 3, 8 and 9.
        let (ids, scores) = ([8, 3, 6, 9], [5.0, 2.0, -0.0, -1.0]);
        let skip = [3, 8, 9];
        let run = DefaultRun {
            items: &items,
            skip: &skip,
            default: 0.0,
        };
        let kind = ListKind::Preference { member: 0 };
        let v = ListView::with_run(kind, (&ids, &scores), (2, 3), run);
        let want = [(8, 5.0), (3, 2.0), (1, 0.0), (4, 0.0), (6, -0.0), (9, -1.0)];
        let bits = |e: &[(u32, f64)]| e.iter().map(|&(i, s)| (i, s.to_bits())).collect::<Vec<_>>();
        assert_eq!(v.len(), want.len());
        let by_pos: Vec<(u32, f64)> = (0..v.len()).map(|p| v.entry(p)).collect();
        assert_eq!(bits(&by_pos), bits(&want));
        assert_eq!(bits(&v.iter().collect::<Vec<_>>()), bits(&want));
        assert_eq!(v.first_score(), Some(5.0));
        assert_eq!(v.last_score(), Some(-1.0));
        // A run with no support is the itemset in id order.
        let bare = ListView::with_run(kind, (&[], &[]), (0, 0), DefaultRun { skip: &[], ..run });
        let ids: Vec<u32> = bare.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![1, 3, 4, 6, 8, 9]);
        assert_eq!(bare.entry(4), (8, 0.0));
    }
}
