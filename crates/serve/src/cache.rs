//! The epoch-aware result cache: memoized [`TopKResult`]s keyed by
//! canonical query identity, selectively invalidated on epoch swaps
//! (entries whose [`QueryFootprint`] — the query's member set — holds
//! no user of the publish's dirty set *survive*), with single-flight
//! stampede protection.
//!
//! A production group-recommendation deployment sees the *same* query
//! many times — the hot groups re-ask every few seconds, dashboards
//! poll, retries duplicate — and GRECA is deterministic over one
//! epoch's substrate, so re-running the kernel for an identical
//! `(epoch, query)` pair is pure waste. The cache closes that gap with
//! three guarantees:
//!
//! * **Bit-identity** — a cached response is the very value a direct
//!   kernel run produced (shared by `Arc`, never recomputed, never
//!   transformed), so serving from cache is observably identical to
//!   serving from the engine (property-tested in
//!   `tests/cache_correctness.rs`).
//! * **No stale epochs** — entries are scoped to one
//!   [`LiveEngine`](greca_core::LiveEngine) epoch. The serving layer
//!   registers [`ResultCache::apply_publish`] as an
//!   `on_publish_delta` hook: entries none of whose members is a dirty
//!   user of the publish are re-stamped to the new epoch and kept
//!   (they are bit-identical there by the dirty-set contract — see
//!   [`QueryFootprint`]), everything else — and
//!   everything, on the full-rebuild fallback, where the dirty set is
//!   only a lower bound — is dropped. And because every lookup also
//!   carries the *pinned* epoch of its own query, even a racing lookup
//!   can never read an entry from a different epoch (the lazy epoch
//!   check is a second, independent guard — hook or no hook, stale
//!   results are unreachable).
//! * **No stampedes** — the first miss for a key installs an in-flight
//!   marker and computes; concurrent identical queries *wait on that
//!   computation* instead of re-entering the kernel, so `n`
//!   simultaneous identical requests cost one kernel execution, not
//!   `n` (the "thundering herd" guard; accounted as `coalesced`).
//!
//! Capacity is bounded the same way the engine's member arena is:
//! reaching the cap flushes wholesale (hot keys repopulate in one
//! miss each) rather than maintaining LRU precision.

use greca_core::{PublishDelta, QueryError, QueryFootprint, QueryKey, TopKResult};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// How a lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from a resident entry; no kernel work.
    Hit,
    /// Computed by this caller and (on success) installed.
    Miss,
    /// Waited on a concurrent identical computation (stampede
    /// protection); no kernel work.
    Coalesced,
    /// The caller's pinned epoch was older than the cache's — computed
    /// directly without touching the map (only possible in the narrow
    /// race between pinning and lookup while a publish lands).
    Bypass,
}

impl CacheOutcome {
    /// Wire label for responses and stats.
    pub fn label(&self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Coalesced => "coalesced",
            CacheOutcome::Bypass => "bypass",
        }
    }
}

/// Why a lookup produced no result.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheError {
    /// The engine rejected the query (never cached; every identical
    /// request re-validates and gets its own typed error).
    Query(QueryError),
    /// The computing thread panicked; waiters get this instead of
    /// hanging forever.
    ComputePanicked,
}

/// Monotonic counters, readable without the map lock.
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Lookups served from resident entries.
    pub hits: AtomicU64,
    /// Lookups that computed (and tried to install) a fresh entry.
    pub misses: AtomicU64,
    /// Lookups that waited on a concurrent identical computation.
    pub coalesced: AtomicU64,
    /// Lookups that bypassed the map entirely (older pinned epoch).
    pub bypasses: AtomicU64,
    /// Wholesale invalidations (epoch swaps observed).
    pub invalidations: AtomicU64,
    /// Wholesale flushes forced by the capacity bound.
    pub capacity_flushes: AtomicU64,
    /// Selective invalidations applied ([`ResultCache::apply_publish`]
    /// calls that kept the map, possibly emptied).
    pub selective_invalidations: AtomicU64,
    /// Entries re-stamped and kept across epoch swaps (footprint
    /// disjoint from the dirty set).
    pub survivors: AtomicU64,
    /// Ready entries dropped by selective invalidation (footprint
    /// intersecting the dirty set; in-flight markers are not counted).
    pub dropped: AtomicU64,
}

impl CacheStats {
    fn load(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Hit rate over all map-served lookups (hits + coalesced count as
    /// avoided kernel runs).
    pub fn hit_rate(&self) -> f64 {
        let avoided = Self::load(&self.hits) + Self::load(&self.coalesced);
        let total = avoided + Self::load(&self.misses) + Self::load(&self.bypasses);
        if total == 0 {
            0.0
        } else {
            avoided as f64 / total as f64
        }
    }

    /// Fraction of entries that survived across all selective
    /// invalidations (survivors / (survivors + dropped); 0 when no
    /// selective invalidation touched any entry).
    pub fn survival_rate(&self) -> f64 {
        let kept = Self::load(&self.survivors);
        let total = kept + Self::load(&self.dropped);
        if total == 0 {
            0.0
        } else {
            kept as f64 / total as f64
        }
    }
}

/// A single-flight cell: the first computer fills it, waiters block on
/// the condvar.
struct InFlight {
    done: Mutex<Option<Result<Arc<TopKResult>, CacheError>>>,
    cv: Condvar,
}

enum Slot {
    /// A resident value plus the footprint recorded when it was
    /// installed — the state slice the value depends on, consulted by
    /// [`ResultCache::apply_publish`] to decide survival.
    Ready {
        value: Arc<TopKResult>,
        footprint: QueryFootprint,
    },
    InFlight(Arc<InFlight>),
}

struct CacheState {
    /// The epoch the resident entries belong to.
    epoch: u64,
    map: HashMap<QueryKey, Slot>,
}

/// The cache. See the module docs for the contract.
pub struct ResultCache {
    state: Mutex<CacheState>,
    capacity: usize,
    /// Lookup/invalidation counters.
    pub stats: CacheStats,
}

/// Unwind cleanup for an in-flight computation: if the computing
/// closure panics, evict the dead in-flight marker from the map (so
/// future lookups recompute instead of coalescing onto a corpse) and
/// release the waiters with a typed error instead of hanging them.
struct FlightGuard<'c> {
    cache: &'c ResultCache,
    key: QueryKey,
    cell: Arc<InFlight>,
    armed: bool,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.cache.evict_in_flight(&self.key, &self.cell);
            fill(&self.cell, Err(CacheError::ComputePanicked));
        }
    }
}

fn fill(cell: &InFlight, value: Result<Arc<TopKResult>, CacheError>) {
    let mut done = cell
        .done
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    *done = Some(value);
    cell.cv.notify_all();
}

fn lock_state(m: &Mutex<CacheState>) -> MutexGuard<'_, CacheState> {
    // A panic can only poison this lock between pure map operations
    // (no user code runs under it), so the state is structurally sound;
    // recover rather than wedging the serving path.
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => {
            m.clear_poison();
            poisoned.into_inner()
        }
    }
}

impl ResultCache {
    /// An empty cache that starts at epoch 0 and flushes wholesale at
    /// `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            state: Mutex::new(CacheState {
                epoch: 0,
                map: HashMap::new(),
            }),
            capacity: capacity.max(1),
            stats: CacheStats::default(),
        }
    }

    /// The epoch the resident entries belong to.
    pub fn epoch(&self) -> u64 {
        lock_state(&self.state).epoch
    }

    /// Resident entry count (in-flight markers included).
    pub fn len(&self) -> usize {
        lock_state(&self.state).map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Advance to `epoch`, clearing every resident entry — how a
    /// server starts the cache at the engine's epoch when it binds
    /// (publishes after that go through
    /// [`apply_publish`](Self::apply_publish)). Regressing or
    /// same-epoch calls are no-ops (epochs are monotonic).
    pub fn invalidate_to(&self, epoch: u64) {
        let mut state = lock_state(&self.state);
        if epoch > state.epoch {
            state.epoch = epoch;
            state.map.clear();
            self.stats.invalidations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Advance to `delta.epoch` *selectively* — the
    /// [`LiveEngine::on_publish_delta`](greca_core::LiveEngine::on_publish_delta)
    /// hook target. Ready entries whose recorded footprint the delta
    /// does not affect are re-stamped to the new epoch and kept: by the
    /// dirty-set contract they are bit-identical to a cold re-execution
    /// there (property-tested in `tests/survival_properties.rs`).
    /// Everything else is dropped, and so is the whole map when the
    /// publish fell back to a full rebuild (the dirty set is then only
    /// a lower bound). In-flight markers are always dropped — their
    /// computation pinned the old epoch, and the install step's own
    /// epoch check already refuses them; waiters still get their value
    /// through the flight cell. Regressing or same-epoch deltas are
    /// no-ops.
    pub fn apply_publish(&self, delta: &PublishDelta) {
        let mut state = lock_state(&self.state);
        if delta.epoch <= state.epoch {
            return;
        }
        state.epoch = delta.epoch;
        if delta.full_rebuild {
            let dropped = state
                .map
                .values()
                .filter(|s| matches!(s, Slot::Ready { .. }))
                .count();
            state.map.clear();
            self.stats.invalidations.fetch_add(1, Ordering::Relaxed);
            self.stats
                .dropped
                .fetch_add(dropped as u64, Ordering::Relaxed);
            return;
        }
        let ready_before = state
            .map
            .values()
            .filter(|s| matches!(s, Slot::Ready { .. }))
            .count();
        state.map.retain(|_, slot| match slot {
            Slot::Ready { footprint, .. } => !delta.affects(footprint),
            Slot::InFlight(_) => false,
        });
        let kept = state.map.len();
        drop(state);
        self.stats
            .selective_invalidations
            .fetch_add(1, Ordering::Relaxed);
        self.stats
            .survivors
            .fetch_add(kept as u64, Ordering::Relaxed);
        self.stats
            .dropped
            .fetch_add((ready_before - kept) as u64, Ordering::Relaxed);
    }

    /// Drop `key`'s in-flight marker if (and only if) it is still
    /// `cell` — the panic-path cleanup.
    fn evict_in_flight(&self, key: &QueryKey, cell: &Arc<InFlight>) {
        let mut state = lock_state(&self.state);
        let ours = matches!(
            state.map.get(key),
            Some(Slot::InFlight(resident)) if Arc::ptr_eq(resident, cell)
        );
        if ours {
            state.map.remove(key);
        }
    }

    /// Non-blocking lookup: the resident value for `key` at the
    /// caller's pinned `epoch`, or `None` when absent, still in flight,
    /// or pinned behind the cache's epoch. This is the serving layer's
    /// **fast path** — a hit is answered on the connection thread
    /// without touching the admission queue, because it costs no
    /// kernel work (the same reasoning that keeps `stats`/`health`
    /// inline). Counts a hit when it returns `Some`; misses are
    /// counted by the [`get_or_compute`](Self::get_or_compute) that
    /// follows.
    pub fn try_get(&self, epoch: u64, key: &QueryKey) -> Option<Arc<TopKResult>> {
        let mut state = lock_state(&self.state);
        if epoch > state.epoch {
            state.epoch = epoch;
            state.map.clear();
            self.stats.invalidations.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        if epoch < state.epoch {
            return None; // the queued path will bypass
        }
        match state.map.get(key) {
            Some(Slot::Ready { value, .. }) => {
                let v = Arc::clone(value);
                drop(state);
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            _ => None,
        }
    }

    /// Install a value for `key` at `epoch` with an *explicit*
    /// footprint, replacing any resident slot. This is the pre-seeding
    /// path (cache warmers) and the fault-injection path for the
    /// survival property tests — which deliberately install widened and
    /// narrowed footprints to prove the survival invariants would catch
    /// a wrong one. The serving path never calls this: it derives the
    /// footprint from the key at install time.
    pub fn install(
        &self,
        epoch: u64,
        key: QueryKey,
        footprint: QueryFootprint,
        value: Arc<TopKResult>,
    ) {
        let mut state = lock_state(&self.state);
        if epoch > state.epoch {
            state.epoch = epoch;
            state.map.clear();
            self.stats.invalidations.fetch_add(1, Ordering::Relaxed);
        } else if epoch < state.epoch {
            return;
        }
        if state.map.len() >= self.capacity {
            state.map.clear();
            self.stats.capacity_flushes.fetch_add(1, Ordering::Relaxed);
        }
        state.map.insert(key, Slot::Ready { value, footprint });
    }

    /// Look `key` up at the caller's pinned `epoch`; on a miss, run
    /// `compute` exactly once across all concurrent identical callers
    /// and share the value. Errors are returned to every waiter but
    /// never cached.
    pub fn get_or_compute(
        &self,
        epoch: u64,
        key: QueryKey,
        compute: impl FnOnce() -> Result<TopKResult, QueryError>,
    ) -> (Result<Arc<TopKResult>, CacheError>, CacheOutcome) {
        let cell = {
            let mut state = lock_state(&self.state);
            // Lazy epoch guard: even without the publish hook, an entry
            // from a different epoch is unreachable.
            if epoch > state.epoch {
                state.epoch = epoch;
                state.map.clear();
                self.stats.invalidations.fetch_add(1, Ordering::Relaxed);
            } else if epoch < state.epoch {
                // This caller pinned before the last swap; its snapshot
                // is consistent but must not populate (or read) the
                // newer cache.
                drop(state);
                self.stats.bypasses.fetch_add(1, Ordering::Relaxed);
                let result = compute().map(Arc::new).map_err(CacheError::Query);
                return (result, CacheOutcome::Bypass);
            }
            match state.map.get(&key) {
                Some(Slot::Ready { value, .. }) => {
                    self.stats.hits.fetch_add(1, Ordering::Relaxed);
                    return (Ok(Arc::clone(value)), CacheOutcome::Hit);
                }
                Some(Slot::InFlight(cell)) => {
                    let cell = Arc::clone(cell);
                    drop(state);
                    self.stats.coalesced.fetch_add(1, Ordering::Relaxed);
                    let mut done = cell
                        .done
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    while done.is_none() {
                        done = cell
                            .cv
                            .wait(done)
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                    }
                    return (
                        done.clone().expect("loop exits only when filled"),
                        CacheOutcome::Coalesced,
                    );
                }
                None => {
                    if state.map.len() >= self.capacity {
                        state.map.clear();
                        self.stats.capacity_flushes.fetch_add(1, Ordering::Relaxed);
                    }
                    let cell = Arc::new(InFlight {
                        done: Mutex::new(None),
                        cv: Condvar::new(),
                    });
                    state
                        .map
                        .insert(key.clone(), Slot::InFlight(Arc::clone(&cell)));
                    cell
                }
            }
        };

        // Compute outside the lock; if the kernel panics, the unwind
        // guard evicts the marker and releases the waiters with a
        // typed error.
        let mut guard = FlightGuard {
            cache: self,
            key: key.clone(),
            cell: Arc::clone(&cell),
            armed: true,
        };
        let result = compute().map(Arc::new).map_err(CacheError::Query);
        guard.armed = false;
        drop(guard);

        {
            let mut state = lock_state(&self.state);
            // Only touch the map if our in-flight marker is still the
            // resident slot (an epoch swap or capacity flush may have
            // dropped it; a successor computation may own the key now).
            let ours = matches!(
                state.map.get(&key),
                Some(Slot::InFlight(resident)) if Arc::ptr_eq(resident, &cell)
            );
            if ours {
                match &result {
                    Ok(v) if state.epoch == epoch => {
                        let footprint = key.footprint();
                        state.map.insert(
                            key,
                            Slot::Ready {
                                value: Arc::clone(v),
                                footprint,
                            },
                        );
                    }
                    _ => {
                        state.map.remove(&key);
                    }
                }
            }
        }
        fill(&cell, result.clone());
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        (result, CacheOutcome::Miss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greca_core::{AccessStats, StopReason};
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    // QueryKey has no public constructor by design; unit tests reuse a
    // real engine over a micro-world to mint keys.
    use greca_affinity::{PopulationAffinity, TableAffinitySource};
    use greca_cf::RawRatings;
    use greca_dataset::{
        Granularity, Group, ItemId, RatingMatrix, RatingMatrixBuilder, Timeline, UserId,
    };

    fn world() -> (RatingMatrix, PopulationAffinity, Vec<ItemId>) {
        let mut b = RatingMatrixBuilder::new(3, 4);
        b.rate(UserId(0), ItemId(0), 5.0, 0)
            .rate(UserId(1), ItemId(1), 4.0, 0)
            .rate(UserId(2), ItemId(2), 3.0, 0);
        let mut src = TableAffinitySource::new();
        src.set_static(UserId(0), UserId(1), 1.0)
            .set_static(UserId(1), UserId(2), 0.5);
        let tl = Timeline::discretize(0, 100, Granularity::Custom(50)).unwrap();
        let users = vec![UserId(0), UserId(1), UserId(2)];
        let pop = PopulationAffinity::build(&src, &users, &tl);
        (b.build(), pop, (0..4).map(ItemId).collect())
    }

    fn fake_result(marker: u64) -> TopKResult {
        TopKResult {
            items: Vec::new(),
            stats: AccessStats {
                sa: marker,
                ra: 0,
                total_entries: 0,
            },
            sweeps: 0,
            checks: 0,
            check_items: 0,
            stop_reason: StopReason::Exhausted,
        }
    }

    fn key_for(k: usize) -> QueryKey {
        let (matrix, pop, items) = world();
        let raw = RawRatings(&matrix);
        let engine = greca_core::GrecaEngine::new(&raw, &pop);
        let group = Group::new(vec![UserId(0), UserId(1)]).unwrap();
        engine.query(&group).items(&items).top(k).cache_key()
    }

    #[test]
    fn hit_after_miss_shares_the_same_allocation() {
        let cache = ResultCache::new(64);
        let (first, o1) = cache.get_or_compute(0, key_for(1), || Ok(fake_result(7)));
        assert_eq!(o1, CacheOutcome::Miss);
        let (second, o2) = cache.get_or_compute(0, key_for(1), || panic!("must not recompute"));
        assert_eq!(o2, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&first.unwrap(), &second.unwrap()));
        assert_eq!(cache.stats.hit_rate(), 0.5);
    }

    #[test]
    fn epoch_swap_invalidates_and_regression_is_a_noop() {
        let cache = ResultCache::new(64);
        let _ = cache.get_or_compute(0, key_for(1), || Ok(fake_result(1)));
        assert_eq!(cache.len(), 1);
        cache.invalidate_to(1);
        assert_eq!((cache.len(), cache.epoch()), (0, 1));
        // Stale-hook delivery (or equal epoch) must not clear anew.
        let _ = cache.get_or_compute(1, key_for(1), || Ok(fake_result(2)));
        cache.invalidate_to(1);
        cache.invalidate_to(0);
        assert_eq!((cache.len(), cache.epoch()), (1, 1));
        assert_eq!(cache.stats.invalidations.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn newer_pin_clears_lazily_and_older_pin_bypasses() {
        let cache = ResultCache::new(64);
        let _ = cache.get_or_compute(3, key_for(1), || Ok(fake_result(3)));
        assert_eq!(cache.epoch(), 3);
        // An older pin computes directly: correct for its snapshot,
        // invisible to the newer cache.
        let (r, outcome) = cache.get_or_compute(2, key_for(1), || Ok(fake_result(2)));
        assert_eq!(outcome, CacheOutcome::Bypass);
        assert_eq!(r.unwrap().stats.sa, 2);
        let (r, outcome) = cache.get_or_compute(3, key_for(1), || unreachable!());
        assert_eq!(outcome, CacheOutcome::Hit);
        assert_eq!(r.unwrap().stats.sa, 3, "resident entry untouched");
    }

    #[test]
    fn errors_are_shared_with_waiters_but_never_cached() {
        let cache = ResultCache::new(64);
        let (r, outcome) = cache.get_or_compute(0, key_for(1), || Err(QueryError::ZeroK));
        assert_eq!(outcome, CacheOutcome::Miss);
        assert_eq!(r.unwrap_err(), CacheError::Query(QueryError::ZeroK));
        assert_eq!(cache.len(), 0, "errors leave no entry behind");
        let (_, outcome) = cache.get_or_compute(0, key_for(1), || Ok(fake_result(1)));
        assert_eq!(
            outcome,
            CacheOutcome::Miss,
            "retried, not served stale error"
        );
    }

    #[test]
    fn concurrent_identical_lookups_run_the_kernel_once() {
        const WAITERS: usize = 8;
        let cache = Arc::new(ResultCache::new(64));
        let executions = Arc::new(AtomicUsize::new(0));
        let gate = Arc::new(Barrier::new(WAITERS + 1));
        let key = key_for(1);
        let results: Vec<(u64, CacheOutcome)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..WAITERS + 1)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let executions = Arc::clone(&executions);
                    let gate = Arc::clone(&gate);
                    let key = key.clone();
                    s.spawn(move || {
                        gate.wait();
                        let (r, outcome) = cache.get_or_compute(0, key, || {
                            executions.fetch_add(1, Ordering::SeqCst);
                            // Hold the computation long enough that the
                            // herd piles onto the in-flight cell.
                            std::thread::sleep(std::time::Duration::from_millis(50));
                            Ok(fake_result(42))
                        });
                        (r.unwrap().stats.sa, outcome)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(
            executions.load(Ordering::SeqCst),
            1,
            "one kernel run for the whole herd"
        );
        assert!(results.iter().all(|(sa, _)| *sa == 42));
        assert_eq!(
            results
                .iter()
                .filter(|(_, o)| *o == CacheOutcome::Miss)
                .count(),
            1
        );
        // Everyone else either coalesced onto the in-flight run or hit
        // the entry it installed.
        assert!(results.iter().all(|(_, o)| matches!(
            o,
            CacheOutcome::Miss | CacheOutcome::Coalesced | CacheOutcome::Hit
        )));
    }

    #[test]
    fn panicking_computation_releases_waiters() {
        let cache = Arc::new(ResultCache::new(64));
        let gate = Arc::new(Barrier::new(2));
        let key = key_for(1);
        std::thread::scope(|s| {
            let panicker = {
                let cache = Arc::clone(&cache);
                let gate = Arc::clone(&gate);
                let key = key.clone();
                s.spawn(move || {
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        cache.get_or_compute(0, key, || {
                            gate.wait();
                            std::thread::sleep(std::time::Duration::from_millis(30));
                            panic!("kernel bug")
                        })
                    }));
                })
            };
            gate.wait(); // the in-flight marker is installed
            let (r, outcome) = cache.get_or_compute(0, key.clone(), || Ok(fake_result(1)));
            // Either we coalesced onto the doomed run (typed error) or
            // it already unwound and we recomputed cleanly.
            match outcome {
                CacheOutcome::Coalesced => {
                    assert_eq!(r.unwrap_err(), CacheError::ComputePanicked)
                }
                CacheOutcome::Miss => assert!(r.is_ok()),
                other => panic!("unexpected outcome {other:?}"),
            }
            panicker.join().unwrap();
        });
        // The poisoned run left no resident garbage: a fresh lookup
        // computes and caches normally.
        let (r, _) = cache.get_or_compute(0, key, || Ok(fake_result(9)));
        assert_eq!(r.unwrap().stats.sa, 9);
    }

    fn delta(epoch: u64, users: &[u32], full_rebuild: bool) -> PublishDelta {
        PublishDelta {
            epoch,
            dirty: Arc::new(greca_cf::DirtySet {
                users: users.iter().map(|&u| UserId(u)).collect(),
                pairs: Vec::new(),
            }),
            full_rebuild,
        }
    }

    #[test]
    fn selective_invalidation_keeps_disjoint_entries() {
        let cache = ResultCache::new(64);
        let _ = cache.get_or_compute(0, key_for(1), || Ok(fake_result(1)));
        let _ = cache.get_or_compute(0, key_for(2), || Ok(fake_result(2)));
        // Members are {0, 1}; dirtying user 2 touches neither entry.
        cache.apply_publish(&delta(1, &[2], false));
        assert_eq!((cache.len(), cache.epoch()), (2, 1));
        let (r, o) = cache.get_or_compute(1, key_for(1), || unreachable!("survivor"));
        assert_eq!(o, CacheOutcome::Hit);
        assert_eq!(r.unwrap().stats.sa, 1);
        // Dirtying a member drops both entries (same group).
        cache.apply_publish(&delta(2, &[1], false));
        assert_eq!((cache.len(), cache.epoch()), (0, 2));
        assert_eq!(cache.stats.survivors.load(Ordering::Relaxed), 2);
        assert_eq!(cache.stats.dropped.load(Ordering::Relaxed), 2);
        assert!((cache.stats.survival_rate() - 0.5).abs() < 1e-12);
        // Full rebuild: disjoint dirty set, everything dropped anyway.
        let _ = cache.get_or_compute(2, key_for(1), || Ok(fake_result(3)));
        cache.apply_publish(&delta(3, &[2], true));
        assert_eq!((cache.len(), cache.epoch()), (0, 3));
        // Regression / same epoch: no-op.
        cache.apply_publish(&delta(3, &[0], false));
        assert_eq!(cache.epoch(), 3);
    }

    #[test]
    fn install_respects_epoch_and_explicit_footprint() {
        let cache = ResultCache::new(64);
        let key = key_for(1);
        // A footprint narrowed away from the real members survives a
        // publish that dirties a member — exactly the wrongness the
        // mutation tests rely on install() to inject.
        let narrowed = key.footprint().with_members(vec![UserId(7)]);
        cache.install(0, key.clone(), narrowed, Arc::new(fake_result(9)));
        cache.apply_publish(&delta(1, &[0], false));
        let (r, o) = cache.get_or_compute(1, key.clone(), || unreachable!());
        assert_eq!(o, CacheOutcome::Hit);
        assert_eq!(r.unwrap().stats.sa, 9);
        // Stale-epoch install is refused.
        cache.install(0, key.clone(), key.footprint(), Arc::new(fake_result(1)));
        let (r, _) = cache.get_or_compute(1, key, || unreachable!());
        assert_eq!(r.unwrap().stats.sa, 9);
    }

    #[test]
    fn capacity_bound_flushes_wholesale() {
        let cache = ResultCache::new(2);
        for k in 1..=3 {
            let _ = cache.get_or_compute(0, key_for(k), || Ok(fake_result(k as u64)));
        }
        assert_eq!(cache.stats.capacity_flushes.load(Ordering::Relaxed), 1);
        assert_eq!(cache.len(), 1, "flush then the newest entry");
    }
}
