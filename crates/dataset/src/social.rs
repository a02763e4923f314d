//! Social-network substrate: friendship graph and timestamped page-likes.
//!
//! Stands in for the paper's Facebook crawl (§4.1.1–§4.1.2):
//!
//! * **recruitment structure** — 13 seed users, each inviting 10–20
//!   friends (depth 1 of the social graph), 72 users overall;
//! * **static affinity source** — friendship lists:
//!   `affS(u,u') = |friends(u) ∩ friends(u')|`, normalized per group;
//! * **dynamic affinity source** — page-likes with timestamps over 197
//!   page categories:
//!   `affP(u,u',p) = |page_likes(u,p) ∩ page_likes(u',p)|` where
//!   `page_likes(u,p)` is the set of *categories* liked in period `p`;
//! * calibration targets: with two-month periods ≈65% of (pair, period)
//!   cells are non-empty (Figure 4) and the std-dev of per-pair common
//!   likes across the 6 periods is ≈0.42 (§4.1.2).
//!
//! The simulator gives each seed cluster a community interest profile and
//! each user an individual drift trajectory, so some user pairs converge
//! and others diverge over the year — exactly the positive/negative drift
//! Eq. 1 is designed to capture.

use crate::randx::{self, CumTable};
use crate::ratings::UserId;
use crate::time::{Period, Timestamp, YEAR};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One page-like event: `user` liked a page of `category` at time `ts`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LikeEvent {
    /// The liking user.
    pub user: UserId,
    /// Facebook page category (0..`num_categories`); the paper records the
    /// category, not the page, for privacy.
    pub category: u16,
    /// When the like happened.
    pub ts: Timestamp,
}

/// Configuration for the social simulator.
#[derive(Debug, Clone)]
pub struct SocialConfig {
    /// Number of seed users (paper: 13).
    pub num_seeds: usize,
    /// Inclusive range of friends recruited per seed (paper: 10–20).
    pub friends_per_seed: (usize, usize),
    /// Number of page categories (paper: 197).
    pub num_categories: usize,
    /// Probability that two seeds are friends.
    pub seed_edge_prob: f64,
    /// Probability that two friends of the same seed are friends
    /// (triadic closure within a cluster).
    pub closure_prob: f64,
    /// Probability of a random cross-cluster friendship.
    pub cross_edge_prob: f64,
    /// Mean page-likes per user per year.
    pub likes_per_user_year: f64,
    /// Number of categories in a community's interest profile.
    pub community_interest_size: usize,
    /// Fraction of users whose interests drift toward another community
    /// over the year (creates diverging/converging pairs).
    pub drifter_fraction: f64,
    /// Observation horizon (paper: one year).
    pub horizon: Timestamp,
    /// RNG seed.
    pub seed: u64,
}

impl SocialConfig {
    /// The paper's study scale: 13 seeds × (10–20) friends ≈ 72+ users.
    pub fn paper_scale() -> Self {
        SocialConfig {
            num_seeds: 13,
            friends_per_seed: (4, 6),
            num_categories: 197,
            seed_edge_prob: 0.45,
            closure_prob: 0.35,
            cross_edge_prob: 0.02,
            likes_per_user_year: 90.0,
            community_interest_size: 14,
            drifter_fraction: 0.5,
            horizon: YEAR,
            seed: 0xface_b00c,
        }
    }

    /// A tiny world for unit tests.
    pub fn tiny() -> Self {
        SocialConfig {
            num_seeds: 3,
            friends_per_seed: (2, 3),
            num_categories: 20,
            likes_per_user_year: 40.0,
            community_interest_size: 5,
            ..SocialConfig::paper_scale()
        }
    }

    /// Override the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Scale the number of seed clusters (for larger perf worlds).
    pub fn with_seeds(mut self, num_seeds: usize) -> Self {
        self.num_seeds = num_seeds;
        self
    }

    /// Generate the network.
    pub fn generate(&self) -> SocialNetwork {
        generate(self)
    }
}

/// The generated social world.
#[derive(Debug, Clone)]
pub struct SocialNetwork {
    num_users: usize,
    num_categories: usize,
    horizon: Timestamp,
    /// Adjacency lists, sorted, symmetric, no self-loops.
    adjacency: Vec<Vec<UserId>>,
    /// Per-user like events sorted by timestamp.
    likes_by_user: Vec<Vec<(Timestamp, u16)>>,
    /// Which seed cluster each user belongs to (seeds belong to their own).
    cluster_of: Vec<usize>,
}

impl SocialNetwork {
    /// Number of users in the network.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Number of page categories.
    pub fn num_categories(&self) -> usize {
        self.num_categories
    }

    /// Observation horizon.
    pub fn horizon(&self) -> Timestamp {
        self.horizon
    }

    /// All user ids.
    pub fn users(&self) -> impl Iterator<Item = UserId> + '_ {
        (0..self.num_users as u32).map(UserId)
    }

    /// Friends of `u`, sorted by id.
    pub fn friends(&self, u: UserId) -> &[UserId] {
        &self.adjacency[u.idx()]
    }

    /// Whether `u` and `v` are friends.
    pub fn are_friends(&self, u: UserId, v: UserId) -> bool {
        self.adjacency[u.idx()].binary_search(&v).is_ok()
    }

    /// `|friends(u) ∩ friends(v)|` — the paper's raw static affinity.
    pub fn common_friends(&self, u: UserId, v: UserId) -> usize {
        sorted_intersection_len(&self.adjacency[u.idx()], &self.adjacency[v.idx()])
    }

    /// Seed-cluster index of a user.
    pub fn cluster_of(&self, u: UserId) -> usize {
        self.cluster_of[u.idx()]
    }

    /// All like events of `u`, sorted by time.
    pub fn likes_of(&self, u: UserId) -> &[(Timestamp, u16)] {
        &self.likes_by_user[u.idx()]
    }

    /// Total number of like events.
    pub fn num_likes(&self) -> usize {
        self.likes_by_user.iter().map(Vec::len).sum()
    }

    /// Distinct categories liked by `u` during `period`, sorted.
    ///
    /// This is the paper's `page_likes(u, p)` (§4.1.2): the *set of page
    /// categories* whose pages `u` liked in period `p`.
    pub fn categories_liked_in(&self, u: UserId, period: Period) -> Vec<u16> {
        let likes = &self.likes_by_user[u.idx()];
        let lo = likes.partition_point(|&(ts, _)| ts < period.start);
        let hi = likes.partition_point(|&(ts, _)| ts < period.end);
        let mut cats: Vec<u16> = likes[lo..hi].iter().map(|&(_, c)| c).collect();
        cats.sort_unstable();
        cats.dedup();
        cats
    }

    /// `|page_likes(u,p) ∩ page_likes(v,p)|` — the paper's periodic
    /// affinity `affP(u, v, p)` before normalization.
    pub fn common_category_likes(&self, u: UserId, v: UserId, period: Period) -> usize {
        let a = self.categories_liked_in(u, period);
        let b = self.categories_liked_in(v, period);
        sorted_intersection_len(&a, &b)
    }
}

fn sorted_intersection_len<T: Ord>(a: &[T], b: &[T]) -> usize {
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

fn generate(cfg: &SocialConfig) -> SocialNetwork {
    assert!(cfg.num_seeds > 0, "need at least one seed");
    assert!(
        cfg.friends_per_seed.0 <= cfg.friends_per_seed.1 && cfg.friends_per_seed.0 > 0,
        "invalid friends-per-seed range"
    );
    assert!(cfg.num_categories > 0 && cfg.horizon > 0, "invalid world");
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // --- Recruitment structure -------------------------------------------
    // Users 0..num_seeds are seeds; each seed then brings its friends.
    let mut cluster_of = Vec::new();
    let mut members_of: Vec<Vec<usize>> = Vec::with_capacity(cfg.num_seeds);
    for s in 0..cfg.num_seeds {
        cluster_of.push(s);
        members_of.push(vec![s]);
    }
    for (s, members) in members_of.iter_mut().enumerate() {
        let n_friends = rng.random_range(cfg.friends_per_seed.0..=cfg.friends_per_seed.1);
        for _ in 0..n_friends {
            let uid = cluster_of.len();
            cluster_of.push(s);
            members.push(uid);
        }
    }
    let num_users = cluster_of.len();

    // --- Friendship edges ---------------------------------------------------
    let mut adj: Vec<std::collections::BTreeSet<u32>> =
        vec![std::collections::BTreeSet::new(); num_users];
    let add_edge = |adj: &mut Vec<std::collections::BTreeSet<u32>>, a: usize, b: usize| {
        if a != b {
            adj[a].insert(b as u32);
            adj[b].insert(a as u32);
        }
    };
    // Seeds befriend each other with some probability.
    for a in 0..cfg.num_seeds {
        for b in (a + 1)..cfg.num_seeds {
            if rng.random::<f64>() < cfg.seed_edge_prob {
                add_edge(&mut adj, a, b);
            }
        }
    }
    // Each friend is connected to its seed; same-cluster closure.
    for (s, members) in members_of.iter().enumerate() {
        for &m in &members[1..] {
            add_edge(&mut adj, s, m);
        }
        for (ai, &a) in members.iter().enumerate() {
            for &b in members.iter().skip(ai + 1) {
                if rng.random::<f64>() < cfg.closure_prob {
                    add_edge(&mut adj, a, b);
                }
            }
        }
    }
    // Sparse random cross-cluster friendships.
    for a in 0..num_users {
        for b in (a + 1)..num_users {
            if cluster_of[a] != cluster_of[b] && rng.random::<f64>() < cfg.cross_edge_prob {
                add_edge(&mut adj, a, b);
            }
        }
    }
    let adjacency: Vec<Vec<UserId>> = adj
        .into_iter()
        .map(|s| s.into_iter().map(UserId).collect())
        .collect();

    // --- Interest profiles --------------------------------------------------
    // Each cluster gets a sparse community interest profile; users mix the
    // community profile with personal interests. Drifters interpolate
    // toward a different cluster's profile over the year.
    let uniform = CumTable::new(&vec![1.0; cfg.num_categories]);
    let mut community_profiles: Vec<Vec<f64>> = Vec::with_capacity(cfg.num_seeds);
    for _ in 0..cfg.num_seeds {
        let mut w = vec![0.02; cfg.num_categories];
        let hot = randx::sample_distinct(
            &mut rng,
            &uniform,
            cfg.community_interest_size.min(cfg.num_categories),
        );
        for h in hot {
            w[h] += 1.0 + rng.random::<f64>();
        }
        community_profiles.push(w);
    }

    struct UserInterest {
        start: Vec<f64>,
        target: Vec<f64>,
    }
    let mut interests = Vec::with_capacity(num_users);
    for &c in cluster_of.iter().take(num_users) {
        let personal = randx::sample_distinct(&mut rng, &uniform, 4);
        let mut start = community_profiles[c].clone();
        for p in &personal {
            start[*p] += 0.8 + 0.4 * rng.random::<f64>();
        }
        let target = if rng.random::<f64>() < cfg.drifter_fraction && cfg.num_seeds > 1 {
            // Drift toward a different community's interests.
            let mut other = rng.random_range(0..cfg.num_seeds);
            if other == c {
                other = (other + 1) % cfg.num_seeds;
            }
            let mut t = community_profiles[other].clone();
            for p in &personal {
                t[*p] += 0.4;
            }
            t
        } else {
            start.clone()
        };
        interests.push(UserInterest { start, target });
    }

    // --- Like events ---------------------------------------------------------
    let mut likes_by_user: Vec<Vec<(Timestamp, u16)>> = vec![Vec::new(); num_users];
    for u in 0..num_users {
        // Per-user yearly activity, log-normal around the configured mean.
        let rate = cfg.likes_per_user_year * randx::log_normal(&mut rng, -0.15, 0.55);
        let n_events = rate.round().max(1.0) as usize;
        let ui = &interests[u];
        for _ in 0..n_events {
            let ts: Timestamp = rng.random_range(0..cfg.horizon);
            let frac = ts as f64 / cfg.horizon as f64;
            // Linear interpolation between start and target interests.
            let weights: Vec<f64> = ui
                .start
                .iter()
                .zip(&ui.target)
                .map(|(&s, &t)| s * (1.0 - frac) + t * frac)
                .collect();
            let table = CumTable::new(&weights);
            let cat = table.sample(&mut rng) as u16;
            likes_by_user[u].push((ts, cat));
        }
        likes_by_user[u].sort_unstable();
    }

    SocialNetwork {
        num_users,
        num_categories: cfg.num_categories,
        horizon: cfg.horizon,
        adjacency,
        likes_by_user,
        cluster_of,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{Granularity, Timeline};

    #[test]
    fn paper_scale_has_expected_population() {
        let net = SocialConfig::paper_scale().generate();
        // 13 seeds + 13×(4..=6) friends: 65..=91 users.
        assert!(
            net.num_users() >= 65 && net.num_users() <= 91,
            "{}",
            net.num_users()
        );
        assert_eq!(net.num_categories(), 197);
    }

    #[test]
    fn friendship_is_symmetric_and_loop_free() {
        let net = SocialConfig::paper_scale().generate();
        for u in net.users() {
            assert!(!net.are_friends(u, u));
            for &v in net.friends(u) {
                assert!(net.are_friends(v, u), "{u} ~ {v} must be symmetric");
            }
        }
    }

    #[test]
    fn seeds_connect_to_their_recruits() {
        let cfg = SocialConfig::paper_scale();
        let net = cfg.generate();
        for u in net.users().skip(cfg.num_seeds) {
            let s = net.cluster_of(u);
            assert!(net.are_friends(u, UserId(s as u32)));
        }
    }

    #[test]
    fn common_friends_is_symmetric() {
        let net = SocialConfig::tiny().generate();
        for u in net.users() {
            for v in net.users() {
                assert_eq!(net.common_friends(u, v), net.common_friends(v, u));
            }
        }
    }

    #[test]
    fn same_cluster_pairs_share_more_friends() {
        let net = SocialConfig::paper_scale().generate();
        let users: Vec<UserId> = net.users().collect();
        let (mut same, mut same_n, mut cross, mut cross_n) = (0usize, 0usize, 0usize, 0usize);
        for (i, &a) in users.iter().enumerate() {
            for &b in &users[i + 1..] {
                let cf = net.common_friends(a, b);
                if net.cluster_of(a) == net.cluster_of(b) {
                    same += cf;
                    same_n += 1;
                } else {
                    cross += cf;
                    cross_n += 1;
                }
            }
        }
        let same_avg = same as f64 / same_n as f64;
        let cross_avg = cross as f64 / cross_n as f64;
        assert!(
            same_avg > 2.0 * cross_avg,
            "same-cluster common friends {same_avg} vs cross {cross_avg}"
        );
    }

    #[test]
    fn likes_sorted_and_within_horizon() {
        let net = SocialConfig::paper_scale().generate();
        for u in net.users() {
            let likes = net.likes_of(u);
            assert!(!likes.is_empty(), "everyone likes something");
            for w in likes.windows(2) {
                assert!(w[0].0 <= w[1].0);
            }
            for &(ts, cat) in likes {
                assert!(ts >= 0 && ts < net.horizon());
                assert!((cat as usize) < net.num_categories());
            }
        }
    }

    #[test]
    fn category_sets_per_period_are_sorted_unique() {
        let net = SocialConfig::tiny().generate();
        let tl = Timeline::discretize(0, net.horizon(), Granularity::TwoMonth).unwrap();
        for u in net.users() {
            for &p in tl.periods() {
                let cats = net.categories_liked_in(u, p);
                for w in cats.windows(2) {
                    assert!(w[0] < w[1]);
                }
            }
        }
    }

    #[test]
    fn periodic_affinity_symmetric() {
        let net = SocialConfig::tiny().generate();
        let tl = Timeline::discretize(0, net.horizon(), Granularity::Season).unwrap();
        let p = tl.periods()[0];
        for u in net.users() {
            for v in net.users() {
                assert_eq!(
                    net.common_category_likes(u, v, p),
                    net.common_category_likes(v, u, p)
                );
            }
        }
    }

    #[test]
    fn two_month_nonemptiness_is_calibrated() {
        // Figure 4: with two-month periods ~65% of cells are non-empty.
        // "Non-empty" for a pair-period = the pair shares ≥1 common liked
        // category in the period. We check the population-level figure is
        // in a sane band (the paper reports 67.4%).
        let net = SocialConfig::paper_scale().generate();
        let tl = Timeline::discretize(0, net.horizon(), Granularity::TwoMonth).unwrap();
        let users: Vec<UserId> = net.users().collect();
        let mut non_empty = 0usize;
        let mut total = 0usize;
        for &p in tl.periods().iter().take(6) {
            for (i, &a) in users.iter().enumerate() {
                for &b in &users[i + 1..] {
                    total += 1;
                    if net.common_category_likes(a, b, p) > 0 {
                        non_empty += 1;
                    }
                }
            }
        }
        let frac = non_empty as f64 / total as f64;
        assert!(
            (0.40..=0.90).contains(&frac),
            "two-month non-emptiness {frac} outside calibration band"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let a = SocialConfig::tiny().generate();
        let b = SocialConfig::tiny().generate();
        assert_eq!(a.num_users(), b.num_users());
        for u in a.users() {
            assert_eq!(a.likes_of(u), b.likes_of(u));
            assert_eq!(a.friends(u), b.friends(u));
        }
    }

    #[test]
    fn with_seeds_scales_population() {
        let net = SocialConfig::tiny().with_seeds(6).generate();
        assert!(net.num_users() > SocialConfig::tiny().generate().num_users());
    }
}
