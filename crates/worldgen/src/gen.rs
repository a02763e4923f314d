//! The generator: seeded synthetic worlds at any [`Tier`].
//!
//! One [`WorldSpec`] deterministically produces a rating matrix with
//! Zipf (power-law) item popularity and log-normal per-user activity, a
//! latent cluster × genre taste grid (users in one cluster like the
//! same genres — the structure group recommendation needs to expose),
//! a bounded group-forming cohort with a hash-derived affinity index,
//! overlapping-membership group workloads, and timestamped rating
//! streams for `LiveEngine::ingest`. Everything downstream consumes the
//! existing interfaces: the matrix is a plain
//! [`RatingMatrix`], preferences come from any
//! [`PreferenceProvider`](greca_cf::PreferenceProvider) over it (the
//! scale path wraps [`RawRatings`]), affinity from a standard
//! [`PopulationAffinity`].

use crate::tier::{Tier, WorldSpec};
use greca_affinity::{AffinitySource, PopulationAffinity};
use greca_cf::RawRatings;
use greca_dataset::randx::{
    log_normal, normal, sample_distinct, to_star_rating, zipf_weights, CumTable,
};
use greca_dataset::{
    Granularity, Group, ItemId, Period, Rating, RatingMatrix, RatingMatrixBuilder, Timeline, UserId,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// SplitMix64 — the cheap stateless mixer behind every hash-derived
/// signal (tastes, clusters, affinities). Statelessness is the point:
/// pair affinities are evaluated on demand with no stored pair state,
/// so the cohort's quadratic cost is paid only inside the affinity
/// index, never in the generator.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from a hash key.
fn hash01(key: u64) -> f64 {
    (splitmix64(key) >> 11) as f64 / (1u64 << 53) as f64
}

/// Mix several key parts into one hash key.
fn key(parts: &[u64]) -> u64 {
    let mut acc = 0xa076_1d64_78bd_642f_u64;
    for &p in parts {
        acc = splitmix64(acc ^ p);
    }
    acc
}

const SALT_CLUSTER: u64 = 0x01;
const SALT_GENRE: u64 = 0x02;
const SALT_TASTE: u64 = 0x03;
const SALT_STATIC: u64 = 0x04;
const SALT_PERIODIC: u64 = 0x05;
const SALT_STREAM: u64 = 0x06;
const SALT_GROUPS: u64 = 0x07;

/// Deterministic, symmetric pair-affinity signals for a generated
/// world, derived by hashing the unordered pair (plus the world seed) —
/// no stored pair state, so the source itself is O(1) memory at any
/// cohort size.
///
/// Users sharing a cluster get a strong static base and a high
/// co-activity probability per period; cross-cluster pairs keep a weak
/// noisy baseline. All values are finite and non-negative, as
/// [`PopulationAffinity`] requires.
#[derive(Debug, Clone, Copy)]
pub struct HashAffinitySource {
    seed: u64,
    num_clusters: usize,
}

impl HashAffinitySource {
    /// The affinity source of `spec`'s world.
    pub fn new(spec: &WorldSpec) -> Self {
        HashAffinitySource {
            seed: spec.seed,
            num_clusters: spec.num_clusters.max(1),
        }
    }

    /// The taste/affinity cluster of a user.
    pub fn cluster_of(&self, u: UserId) -> usize {
        (splitmix64(key(&[self.seed, SALT_CLUSTER, u.0 as u64])) % self.num_clusters as u64)
            as usize
    }

    /// Key over the unordered pair (symmetry by construction).
    fn pair_key(&self, u: UserId, v: UserId, salt: u64) -> u64 {
        let (a, b) = if u.0 <= v.0 { (u.0, v.0) } else { (v.0, u.0) };
        key(&[self.seed, salt, a as u64, b as u64])
    }
}

impl AffinitySource for HashAffinitySource {
    fn static_raw(&self, u: UserId, v: UserId) -> f64 {
        let base = if self.cluster_of(u) == self.cluster_of(v) {
            3.0
        } else {
            0.4
        };
        base + 2.0 * hash01(self.pair_key(u, v, SALT_STATIC))
    }

    fn periodic_raw(&self, u: UserId, v: UserId, period: Period) -> f64 {
        let p_active = if self.cluster_of(u) == self.cluster_of(v) {
            0.6
        } else {
            0.15
        };
        let k = key(&[self.pair_key(u, v, SALT_PERIODIC), period.start as u64]);
        if hash01(k) < p_active {
            1.0 + 9.0 * hash01(key(&[k, 1]))
        } else {
            0.0
        }
    }
}

/// A fully generated world at some tier: ratings, timeline, and the
/// cohort's affinity index, all deterministic under the spec's seed.
#[derive(Debug)]
pub struct GenWorld {
    /// The spec this world was generated from.
    pub spec: WorldSpec,
    /// The rating matrix (all users × the full catalog).
    pub matrix: RatingMatrix,
    /// The discretized horizon (`spec.num_periods` periods).
    pub timeline: Timeline,
    /// The affinity index over the group-forming cohort (users
    /// `0..spec.cohort`).
    pub population: PopulationAffinity,
}

impl GenWorld {
    /// Generate the world for a tier under its default seed.
    pub fn of_tier(tier: Tier) -> Self {
        Self::build(tier.spec())
    }

    /// Generate the world for an explicit spec.
    ///
    /// Generation is sequential and single-streamed on purpose: one
    /// `StdRng` over users in id order makes identical specs
    /// byte-reproducible regardless of host parallelism.
    pub fn build(spec: WorldSpec) -> Self {
        assert!(spec.num_users >= 2, "need at least two users");
        assert!(spec.serving_items <= spec.num_items);
        assert!(spec.cohort >= 2 && spec.cohort <= spec.num_users);
        assert!(spec.num_periods >= 1 && spec.period_len > 0);
        let timeline =
            Timeline::discretize(0, spec.horizon(), Granularity::Custom(spec.period_len))
                .expect("positive horizon");
        let source = HashAffinitySource::new(&spec);
        let popularity = CumTable::new(&zipf_weights(spec.num_items, spec.zipf_exponent));
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let mut builder = RatingMatrixBuilder::new(spec.num_users, spec.num_items);
        let horizon = spec.horizon();
        let mu = spec.mean_ratings_per_user.ln();
        for u in 0..spec.num_users {
            let user = UserId(u as u32);
            let want = log_normal(&mut rng, mu, 0.45)
                .round()
                .clamp(3.0, spec.mean_ratings_per_user * 8.0) as usize;
            for idx in sample_distinct(&mut rng, &popularity, want) {
                let item = ItemId(idx as u32);
                let value = rate(&source, &spec, &mut rng, user, item);
                builder.push(Rating {
                    user,
                    item,
                    value,
                    ts: rng.random_range(0..horizon),
                });
            }
        }
        let matrix = builder.build();
        let cohort: Vec<UserId> = (0..spec.cohort as u32).map(UserId).collect();
        let population = PopulationAffinity::build(&source, &cohort, &timeline);
        GenWorld {
            spec,
            matrix,
            timeline,
            population,
        }
    }

    /// The serving itemset — the paper's §4.2 item range. The Zipf
    /// popularity model concentrates ratings on low item ids, so the
    /// first `serving_items` ids are the catalog's popular head.
    pub fn serving_items(&self) -> Vec<ItemId> {
        (0..self.spec.serving_items as u32).map(ItemId).collect()
    }

    /// The group-forming cohort (the population-affinity universe).
    pub fn cohort_users(&self) -> Vec<UserId> {
        (0..self.spec.cohort as u32).map(UserId).collect()
    }

    /// The substrate residency split for this tier: `(eager, lazy)`
    /// user lists for `Substrate::build_with`. Every tier keeps the
    /// cohort eager; the 1M tier leaves the non-cohort population lazy
    /// (a million resident lists is exactly what the lazy path exists
    /// to avoid), smaller tiers build everyone eagerly.
    pub fn substrate_users(&self) -> (Vec<UserId>, Vec<UserId>) {
        let all: Vec<UserId> = (0..self.spec.num_users as u32).map(UserId).collect();
        match self.spec.tier {
            Tier::Users1M => {
                let cohort = self.cohort_users();
                let lazy = all[self.spec.cohort..].to_vec();
                (cohort, lazy)
            }
            _ => (all, Vec::new()),
        }
    }

    /// The raw-ratings preference provider over this world's matrix —
    /// the scale path (CF model fitting stays available through the
    /// usual `greca-cf` constructors for cohort-sized user sets).
    pub fn provider(&self) -> RawRatings<'_> {
        RawRatings(&self.matrix)
    }

    /// The world's affinity source (for building custom populations or
    /// checking signals directly).
    pub fn affinity_source(&self) -> HashAffinitySource {
        HashAffinitySource::new(&self.spec)
    }

    /// An overlapping-membership group workload over the cohort:
    /// `num_groups` groups of `size` members where consecutive groups
    /// share ~`overlap` of their membership — the repeat-group shape
    /// the serving cache and the member arena are sensitive to.
    /// Deterministic under `(spec.seed, salt)`.
    pub fn group_workload(
        &self,
        num_groups: usize,
        size: usize,
        overlap: f64,
        salt: u64,
    ) -> Vec<Group> {
        assert!(
            size >= 2 && size <= self.spec.cohort,
            "group size within cohort"
        );
        assert!((0.0..=1.0).contains(&overlap), "overlap is a fraction");
        let mut rng = StdRng::seed_from_u64(key(&[self.spec.seed, SALT_GROUPS, salt]));
        let cohort = self.spec.cohort as u32;
        let keep = ((size as f64 * overlap).round() as usize).min(size.saturating_sub(1));
        let mut groups = Vec::with_capacity(num_groups);
        let mut prev: Vec<UserId> = Vec::new();
        for _ in 0..num_groups {
            let mut members: Vec<UserId> = prev.iter().copied().take(keep).collect();
            while members.len() < size {
                let cand = UserId(rng.random_range(0..cohort));
                if !members.contains(&cand) {
                    members.push(cand);
                }
            }
            prev = members.clone();
            groups.push(Group::new(members).expect("non-empty distinct members"));
        }
        groups
    }

    /// A timestamped rating stream for `LiveEngine::ingest`: `count`
    /// fresh cohort ratings over the serving itemset, timestamped past
    /// the generated horizon (strictly increasing), deterministic under
    /// `(spec.seed, salt)`.
    pub fn rating_stream(&self, count: usize, salt: u64) -> Vec<Rating> {
        let mut rng = StdRng::seed_from_u64(key(&[self.spec.seed, SALT_STREAM, salt]));
        let source = self.affinity_source();
        let horizon = self.spec.horizon();
        (0..count)
            .map(|i| {
                let user = UserId(rng.random_range(0..self.spec.cohort as u32));
                let item = ItemId(rng.random_range(0..self.spec.serving_items as u32));
                Rating {
                    user,
                    item,
                    value: rate(&source, &self.spec, &mut rng, user, item),
                    ts: horizon + i as i64,
                }
            })
            .collect()
    }
}

/// One star rating from the latent taste grid: the user's cluster meets
/// the item's genre, plus observation noise.
fn rate(
    source: &HashAffinitySource,
    spec: &WorldSpec,
    rng: &mut StdRng,
    user: UserId,
    item: ItemId,
) -> f32 {
    let genre =
        splitmix64(key(&[spec.seed, SALT_GENRE, item.0 as u64])) % spec.num_genres.max(1) as u64;
    let taste = hash01(key(&[
        spec.seed,
        SALT_TASTE,
        source.cluster_of(user) as u64,
        genre,
    ]));
    let base = 1.0 + 4.0 * taste;
    to_star_rating(normal(rng, base, 0.7))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> WorldSpec {
        WorldSpec {
            num_users: 60,
            num_items: 300,
            serving_items: 120,
            cohort: 12,
            mean_ratings_per_user: 15.0,
            ..Tier::Study.spec()
        }
    }

    #[test]
    fn world_shape_matches_spec() {
        let w = GenWorld::build(tiny_spec());
        assert_eq!(w.matrix.num_users(), 60);
        assert_eq!(w.matrix.num_items(), 300);
        assert_eq!(w.population.universe().len(), 12);
        assert_eq!(w.timeline.num_periods(), 6);
        assert_eq!(w.serving_items().len(), 120);
        assert!(w.matrix.num_ratings() > 60 * 3);
    }

    #[test]
    fn popularity_is_head_heavy() {
        let w = GenWorld::build(tiny_spec());
        let mut counts = vec![0usize; w.matrix.num_items()];
        for u in w.matrix.users() {
            for &(i, _) in w.matrix.user_ratings(u) {
                counts[i.0 as usize] += 1;
            }
        }
        let head: usize = counts[..30].iter().sum();
        let tail: usize = counts[270..].iter().sum();
        assert!(head > tail * 3, "Zipf head {head} should dwarf tail {tail}");
    }

    #[test]
    fn affinity_source_is_symmetric_and_finite() {
        let spec = tiny_spec();
        let src = HashAffinitySource::new(&spec);
        let tl =
            Timeline::discretize(0, spec.horizon(), Granularity::Custom(spec.period_len)).unwrap();
        for a in 0..10u32 {
            for b in (a + 1)..10u32 {
                let (u, v) = (UserId(a), UserId(b));
                let s = src.static_raw(u, v);
                assert!(s.is_finite() && s >= 0.0);
                assert_eq!(s.to_bits(), src.static_raw(v, u).to_bits());
                for &p in tl.periods() {
                    let x = src.periodic_raw(u, v, p);
                    assert!(x.is_finite() && x >= 0.0);
                    assert_eq!(x.to_bits(), src.periodic_raw(v, u, p).to_bits());
                }
            }
        }
    }

    #[test]
    fn workload_overlaps_and_streams_are_deterministic() {
        let w = GenWorld::build(tiny_spec());
        let groups = w.group_workload(10, 5, 0.6, 1);
        assert_eq!(groups.len(), 10);
        for pair in groups.windows(2) {
            let shared = pair[1]
                .members()
                .iter()
                .filter(|m| pair[0].members().contains(m))
                .count();
            assert!(shared >= 2, "consecutive groups share members");
        }
        assert_eq!(
            w.group_workload(10, 5, 0.6, 1)
                .iter()
                .map(|g| g.members().to_vec())
                .collect::<Vec<_>>(),
            groups
                .iter()
                .map(|g| g.members().to_vec())
                .collect::<Vec<_>>()
        );

        let s1 = w.rating_stream(50, 7);
        let s2 = w.rating_stream(50, 7);
        assert_eq!(s1, s2);
        assert_ne!(s1, w.rating_stream(50, 8), "salt varies the stream");
        let horizon = w.spec.horizon();
        for r in &s1 {
            assert!(r.ts >= horizon, "stream is strictly post-horizon");
            assert!((1.0..=5.0).contains(&(r.value as f64)));
            assert!(r.user.0 < w.spec.cohort as u32);
        }
    }

    #[test]
    fn identical_seeds_are_byte_reproducible() {
        let a = GenWorld::build(tiny_spec());
        let b = GenWorld::build(tiny_spec());
        for u in a.matrix.users() {
            assert_eq!(a.matrix.user_ratings(u), b.matrix.user_ratings(u));
        }
        let mut c = tiny_spec();
        c.seed ^= 1;
        let c = GenWorld::build(c);
        let differs = a
            .matrix
            .users()
            .any(|u| a.matrix.user_ratings(u) != c.matrix.user_ratings(u));
        assert!(differs, "a different seed yields a different world");
    }
}
