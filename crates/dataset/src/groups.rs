//! Ad-hoc group formation (§4.1.3).
//!
//! The paper forms evaluation groups along three axes:
//!
//! * **size** — 3 ("small") and 6 ("large"), plus larger sizes in the
//!   scalability study (3–12, Figure 5B);
//! * **cohesiveness** — *similar* groups maximize the summed pairwise
//!   rating similarity of their members, *dissimilar* groups minimize it;
//! * **affinity strength** — *high-affinity* groups have every pairwise
//!   affinity ≥ 0.4 (after per-group normalization), low-affinity groups
//!   do not.
//!
//! Finding the exact max/min-sum group is NP-hard (it contains densest
//! k-subgraph); like the study itself we use a greedy construction over
//! random restarts, which is ample for the directional experiments.

use crate::error::DatasetError;
use crate::ratings::UserId;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// An ad-hoc user group `G ⊆ U`: distinct members, sorted by id.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Group {
    members: Vec<UserId>,
}

impl Group {
    /// Build a group from members; deduplicates and sorts.
    pub fn new(mut members: Vec<UserId>) -> Result<Self, DatasetError> {
        members.sort_unstable();
        members.dedup();
        if members.is_empty() {
            return Err(DatasetError::GroupFormation(
                "group must be non-empty".into(),
            ));
        }
        Ok(Group { members })
    }

    /// Group members, sorted by id.
    pub fn members(&self) -> &[UserId] {
        &self.members
    }

    /// Group size `|G|`.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the group is empty (never true for constructed groups).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether `u` is a member.
    pub fn contains(&self, u: UserId) -> bool {
        self.members.binary_search(&u).is_ok()
    }

    /// All unordered member pairs `(u, v)` with `u < v` —
    /// `|G|·(|G|−1)/2` of them, the paper's affinity-list entries.
    pub fn pairs(&self) -> impl Iterator<Item = (UserId, UserId)> + '_ {
        self.members
            .iter()
            .enumerate()
            .flat_map(move |(i, &u)| self.members[i + 1..].iter().map(move |&v| (u, v)))
    }

    /// Number of unordered pairs.
    pub fn num_pairs(&self) -> usize {
        self.members.len() * (self.members.len() - 1) / 2
    }
}

/// Cohesiveness axis of §4.1.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cohesion {
    /// Maximize summed pairwise rating similarity.
    Similar,
    /// Minimize summed pairwise rating similarity.
    Dissimilar,
    /// No cohesiveness constraint.
    Any,
}

/// Affinity-strength axis of §4.1.3. The paper calls a group high-affinity
/// "if each pair-wise affinity in a group is equal to 0.4 or higher".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AffinityLevel {
    /// Every pairwise affinity ≥ threshold (default 0.4).
    High,
    /// At least one pairwise affinity < threshold.
    Low,
    /// No affinity constraint.
    Any,
}

/// A full group specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupSpec {
    /// Desired group size.
    pub size: usize,
    /// Cohesiveness constraint.
    pub cohesion: Cohesion,
    /// Affinity constraint.
    pub affinity: AffinityLevel,
    /// Threshold for [`AffinityLevel::High`] (paper: 0.4).
    pub affinity_threshold: f64,
}

impl GroupSpec {
    /// Specification with no constraints beyond size.
    pub fn of_size(size: usize) -> Self {
        GroupSpec {
            size,
            cohesion: Cohesion::Any,
            affinity: AffinityLevel::Any,
            affinity_threshold: 0.4,
        }
    }

    /// Set the cohesion axis.
    pub fn cohesion(mut self, c: Cohesion) -> Self {
        self.cohesion = c;
        self
    }

    /// Set the affinity axis.
    pub fn affinity(mut self, a: AffinityLevel) -> Self {
        self.affinity = a;
        self
    }
}

/// Greedy group builder over a user universe with caller-provided pairwise
/// similarity and affinity functions.
pub struct GroupBuilder<'a> {
    universe: Vec<UserId>,
    similarity: Box<dyn Fn(UserId, UserId) -> f64 + 'a>,
    affinity: Box<dyn Fn(UserId, UserId) -> f64 + 'a>,
    restarts: usize,
}

impl<'a> GroupBuilder<'a> {
    /// Create a builder over `universe` with the two pairwise measures.
    pub fn new(
        universe: Vec<UserId>,
        similarity: impl Fn(UserId, UserId) -> f64 + 'a,
        affinity: impl Fn(UserId, UserId) -> f64 + 'a,
    ) -> Self {
        GroupBuilder {
            universe,
            similarity: Box::new(similarity),
            affinity: Box::new(affinity),
            restarts: 8,
        }
    }

    /// Number of greedy restarts per group (more = closer to optimum).
    pub fn with_restarts(mut self, restarts: usize) -> Self {
        self.restarts = restarts.max(1);
        self
    }

    fn affinity_ok(&self, members: &[UserId], spec: &GroupSpec) -> bool {
        let min_aff = members
            .iter()
            .enumerate()
            .flat_map(|(i, &u)| members[i + 1..].iter().map(move |&v| (self.affinity)(u, v)))
            .fold(f64::INFINITY, f64::min);
        match spec.affinity {
            AffinityLevel::High => min_aff >= spec.affinity_threshold,
            AffinityLevel::Low => min_aff < spec.affinity_threshold,
            AffinityLevel::Any => true,
        }
    }

    fn greedy_once(&self, rng: &mut StdRng, spec: &GroupSpec) -> Option<Vec<UserId>> {
        if self.universe.len() < spec.size || spec.size == 0 {
            return None;
        }
        let seed_user = self.universe[rng.random_range(0..self.universe.len())];
        let mut members = vec![seed_user];
        while members.len() < spec.size {
            let mut best: Option<(UserId, f64)> = None;
            for &cand in &self.universe {
                if members.contains(&cand) {
                    continue;
                }
                // Affinity feasibility pruning for High groups: every new
                // pair must clear the threshold.
                if matches!(spec.affinity, AffinityLevel::High)
                    && members
                        .iter()
                        .any(|&m| (self.affinity)(m, cand) < spec.affinity_threshold)
                {
                    continue;
                }
                let sim_sum: f64 = members.iter().map(|&m| (self.similarity)(m, cand)).sum();
                let score = match spec.cohesion {
                    Cohesion::Similar => sim_sum,
                    Cohesion::Dissimilar => -sim_sum,
                    Cohesion::Any => rng.random::<f64>(),
                };
                if best.is_none_or(|(_, s)| score > s) {
                    best = Some((cand, score));
                }
            }
            members.push(best?.0);
        }
        self.affinity_ok(&members, spec).then_some(members)
    }

    /// Build one group satisfying `spec`, best over the configured restarts.
    pub fn build(&self, spec: GroupSpec, seed: u64) -> Result<Group, DatasetError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut best: Option<(Vec<UserId>, f64)> = None;
        for _ in 0..self.restarts {
            if let Some(members) = self.greedy_once(&mut rng, &spec) {
                let sim_sum: f64 = members
                    .iter()
                    .enumerate()
                    .flat_map(|(i, &u)| {
                        members[i + 1..]
                            .iter()
                            .map(move |&v| (self.similarity)(u, v))
                    })
                    .sum();
                let score = match spec.cohesion {
                    Cohesion::Similar => sim_sum,
                    Cohesion::Dissimilar => -sim_sum,
                    Cohesion::Any => 0.0,
                };
                if best.as_ref().is_none_or(|&(_, s)| score > s) {
                    best = Some((members, score));
                }
            }
        }
        let members = best.map(|(m, _)| m).ok_or_else(|| {
            DatasetError::GroupFormation(format!(
                "no group of size {} satisfies {:?}/{:?}",
                spec.size, spec.cohesion, spec.affinity
            ))
        })?;
        Group::new(members)
    }

    /// Build `n` distinct random groups of the given size (used by the
    /// scalability experiments: "20 different random groups", §4.2).
    pub fn random_groups(
        &self,
        n: usize,
        size: usize,
        seed: u64,
    ) -> Result<Vec<Group>, DatasetError> {
        if self.universe.len() < size || size == 0 {
            return Err(DatasetError::GroupFormation(format!(
                "universe of {} users cannot host groups of size {size}",
                self.universe.len()
            )));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut groups = Vec::with_capacity(n);
        let mut tries = 0usize;
        while groups.len() < n {
            tries += 1;
            if tries > 100 * n + 100 {
                return Err(DatasetError::GroupFormation(
                    "could not form enough distinct random groups".into(),
                ));
            }
            let mut pool = self.universe.clone();
            // Partial Fisher–Yates: draw `size` distinct users.
            for i in 0..size {
                let j = rng.random_range(i..pool.len());
                pool.swap(i, j);
            }
            let g = Group::new(pool[..size].to_vec()).expect("size > 0");
            if !groups.contains(&g) {
                groups.push(g);
            }
        }
        Ok(groups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe(n: u32) -> Vec<UserId> {
        (0..n).map(UserId).collect()
    }

    /// Similarity: users with close ids are similar. Affinity: users in the
    /// same half of the id space have affinity 0.9, otherwise 0.1.
    fn builder<'a>(n: u32) -> GroupBuilder<'a> {
        GroupBuilder::new(
            universe(n),
            |a, b| 1.0 / (1.0 + (a.0 as f64 - b.0 as f64).abs()),
            move |a, b| {
                if (a.0 < n / 2) == (b.0 < n / 2) {
                    0.9
                } else {
                    0.1
                }
            },
        )
    }

    #[test]
    fn group_sorts_and_dedups() {
        let g = Group::new(vec![UserId(3), UserId(1), UserId(3)]).unwrap();
        assert_eq!(g.members(), &[UserId(1), UserId(3)]);
        assert_eq!(g.len(), 2);
        assert!(g.contains(UserId(3)));
        assert!(!g.contains(UserId(2)));
    }

    #[test]
    fn empty_group_rejected() {
        assert!(Group::new(vec![]).is_err());
    }

    #[test]
    fn pairs_enumerates_all_unordered_pairs() {
        let g = Group::new(vec![UserId(1), UserId(2), UserId(5)]).unwrap();
        let pairs: Vec<_> = g.pairs().collect();
        assert_eq!(
            pairs,
            vec![
                (UserId(1), UserId(2)),
                (UserId(1), UserId(5)),
                (UserId(2), UserId(5))
            ]
        );
        assert_eq!(g.num_pairs(), 3);
    }

    #[test]
    fn similar_groups_beat_dissimilar_on_sim_sum() {
        let b = builder(30);
        let sim = |g: &Group| -> f64 {
            g.pairs()
                .map(|(u, v)| 1.0 / (1.0 + (u.0 as f64 - v.0 as f64).abs()))
                .sum()
        };
        let s = b
            .build(GroupSpec::of_size(4).cohesion(Cohesion::Similar), 1)
            .unwrap();
        let d = b
            .build(GroupSpec::of_size(4).cohesion(Cohesion::Dissimilar), 1)
            .unwrap();
        assert!(
            sim(&s) > sim(&d),
            "similar {} vs dissimilar {}",
            sim(&s),
            sim(&d)
        );
    }

    #[test]
    fn high_affinity_groups_respect_threshold() {
        let b = builder(30);
        let g = b
            .build(GroupSpec::of_size(5).affinity(AffinityLevel::High), 7)
            .unwrap();
        for (u, v) in g.pairs() {
            let aff = if (u.0 < 15) == (v.0 < 15) { 0.9 } else { 0.1 };
            assert!(aff >= 0.4);
        }
    }

    #[test]
    fn low_affinity_groups_have_a_weak_pair() {
        let b = builder(30);
        let g = b
            .build(GroupSpec::of_size(4).affinity(AffinityLevel::Low), 3)
            .unwrap();
        let has_weak = g.pairs().any(|(u, v)| (u.0 < 15) != (v.0 < 15));
        assert!(has_weak);
    }

    #[test]
    fn infeasible_specs_error() {
        let b = builder(4);
        assert!(b.build(GroupSpec::of_size(10), 0).is_err());
        assert!(b.build(GroupSpec::of_size(0), 0).is_err());
    }

    #[test]
    fn random_groups_are_distinct_and_sized() {
        let b = builder(20);
        let gs = b.random_groups(10, 3, 42).unwrap();
        assert_eq!(gs.len(), 10);
        for g in &gs {
            assert_eq!(g.len(), 3);
        }
        for (i, a) in gs.iter().enumerate() {
            for bg in &gs[i + 1..] {
                assert_ne!(a, bg);
            }
        }
    }

    #[test]
    fn random_groups_rejects_oversized() {
        let b = builder(3);
        assert!(b.random_groups(1, 10, 0).is_err());
    }

    #[test]
    fn deterministic_under_seed() {
        let b = builder(20);
        let g1 = b
            .build(GroupSpec::of_size(4).cohesion(Cohesion::Similar), 5)
            .unwrap();
        let g2 = b
            .build(GroupSpec::of_size(4).cohesion(Cohesion::Similar), 5)
            .unwrap();
        assert_eq!(g1, g2);
    }
}
