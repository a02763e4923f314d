//! The three workloads: their worlds, preference models and seeded
//! operation streams.

use greca_affinity::PopulationAffinity;
use greca_bench::PerfWorld;
use greca_cf::CfConfig;
use greca_core::LiveModel;
use greca_dataset::{Group, ItemId, Rating, RatingMatrix, UserId};
use greca_worldgen::{GenWorld, Tier};

/// Result size of every query (the paper's §4.2 default).
pub const K: usize = 10;
/// Members per group (the paper's §4.2 default).
pub const GROUP_SIZE: usize = 6;
/// `hot_mixed`: the hot pool is this many independent overlapping
/// chains of [`HOT_CHAIN`] groups each.
const HOT_CHAINS: u64 = 24;
/// `hot_mixed`: groups per chain. `group_workload` keeps the same
/// leading members along a whole chain, so one chain spanning the pool
/// would let a single rating by one of them invalidate every hot entry
/// at once, and the run's miss count would hinge on whether the seed
/// happened to draw such a rater; short chains keep that share steady.
const HOT_CHAIN: usize = 4;
/// `hot_mixed`: consecutive groups of a chain share this share of
/// members.
const HOT_OVERLAP: f64 = 0.7;
/// `hot_mixed`: every `INGEST_EVERY`-th request is an ingest.
const INGEST_EVERY: usize = 10;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// §4.2's shape: user-CF over the scalability world, distinct random
    /// 6-member groups, k = 10, no writes.
    PaperRead,
    /// 10k tier, raw model, WAL: hot overlapping groups with a
    /// single-rating ingest every tenth request.
    HotMixed,
    /// Study tier, user-CF, WAL: single-rating ingests, each followed by
    /// one read for a group containing the rater.
    CfIngest,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [Workload::PaperRead, Workload::HotMixed, Workload::CfIngest];

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in the output.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperRead => "paper_read",
            Workload::HotMixed => "hot_mixed",
            Workload::CfIngest => "cf_ingest",
        }
    }

    /// Whether the workload ingests (and so keeps a WAL and recovers).
    pub fn writes(self) -> bool {
        self != Workload::PaperRead
    }

    /// Operations per second of `--seconds`: a run issues a fixed
    /// `seconds × rate` operations — about `--seconds` of client time on
    /// a 2-vCPU host — so two runs of one seed do the same work, hit the
    /// cache the same way, and differ only in how long that work took.
    pub fn ops_per_second(self) -> f64 {
        match self {
            Workload::PaperRead => 150.0,
            Workload::HotMixed => 130.0,
            Workload::CfIngest => 9.0,
        }
    }

    /// Publishes the timed recovery replays: the WAL prefix through this
    /// many commits (fewer if the run published fewer). Fixed, so the
    /// recovery time does not scale with how many operations a run
    /// fitted into its measured phase.
    pub fn recover_publishes(self) -> u64 {
        match self {
            Workload::PaperRead => 0,
            Workload::HotMixed => 160,
            Workload::CfIngest => 6,
        }
    }
}

/// The world a workload serves.
pub enum World {
    /// The scalability study world (`PerfWorld::build`).
    Perf(Box<PerfWorld>),
    /// A generated worldgen tier.
    Gen(Box<GenWorld>),
}

impl World {
    /// Generate the workload's world (fixed world seed; the run's seed
    /// only draws the operation stream).
    pub fn build(workload: Workload) -> World {
        match workload {
            Workload::PaperRead => World::Perf(Box::new(PerfWorld::build())),
            Workload::HotMixed => World::Gen(Box::new(GenWorld::of_tier(Tier::Users10k))),
            Workload::CfIngest => World::Gen(Box::new(GenWorld::of_tier(Tier::Study))),
        }
    }

    /// A short label for the output.
    pub fn label(&self) -> String {
        match self {
            World::Perf(_) => "scalability_scale".to_string(),
            World::Gen(w) => format!("worldgen {}", w.spec.tier),
        }
    }

    /// The population-affinity index (its universe is the cohort).
    pub fn population(&self) -> &PopulationAffinity {
        match self {
            World::Perf(pw) => &pw.world().population,
            World::Gen(w) => &w.population,
        }
    }

    /// The epoch-0 rating matrix.
    pub fn matrix(&self) -> &RatingMatrix {
        match self {
            World::Perf(pw) => &pw.world().movielens.matrix,
            World::Gen(w) => &w.matrix,
        }
    }

    /// The substrate's itemset: the whole catalog for the study worlds
    /// (so a group's default itemset is served warm), the 3,900-item
    /// serving head for the 10k tier (whose 120k catalog is not).
    pub fn substrate_items(&self) -> Vec<ItemId> {
        match self {
            World::Perf(pw) => pw.items(usize::MAX),
            World::Gen(w) => w.serving_items(),
        }
    }

    /// The preference model the workload's engine serves.
    pub fn model(&self) -> LiveModel {
        match self {
            World::Perf(pw) => LiveModel::UserCf(pw.world().config.cf),
            World::Gen(w) if w.spec.tier == Tier::Study => LiveModel::UserCf(CfConfig::default()),
            World::Gen(_) => LiveModel::Raw,
        }
    }
}

/// One client operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A `query` over the group's default itemset with k = [`K`].
    Query(Group),
    /// A single-rating `ingest`.
    Ingest(Rating),
}

/// SplitMix64: the benchmark's own seeded draws.
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// A draw from `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A workload's operation stream, deterministic in the run's seed.
pub struct OpStream {
    workload: Workload,
    rng: Rng,
    groups: Vec<Group>,
    /// `hot_mixed`: the distinct members of the hot pool.
    hot_users: Vec<UserId>,
    ratings: Vec<Rating>,
    cohort: u32,
    total: usize,
    issued: usize,
    next_group: usize,
    next_rating: usize,
}

impl OpStream {
    /// The `total` operations `workload` issues against `world` under
    /// `seed`.
    pub fn new(workload: Workload, world: &World, seed: u64, total: usize) -> OpStream {
        let (groups, ratings, cohort) = match (workload, world) {
            (Workload::PaperRead, World::Perf(pw)) => {
                (pw.random_groups(total, GROUP_SIZE, seed), Vec::new(), 0)
            }
            (Workload::HotMixed, World::Gen(w)) => (
                (0..HOT_CHAINS)
                    .flat_map(|c| {
                        w.group_workload(HOT_CHAIN, GROUP_SIZE, HOT_OVERLAP, seed ^ (c << 48))
                    })
                    .collect(),
                w.rating_stream(total / INGEST_EVERY + 1, seed),
                w.spec.cohort as u32,
            ),
            (Workload::CfIngest, World::Gen(w)) => (
                Vec::new(),
                w.rating_stream(total / 2 + 1, seed),
                w.spec.cohort as u32,
            ),
            _ => unreachable!("World::build pairs each workload with its world"),
        };
        let mut hot_users: Vec<UserId> = match workload {
            Workload::HotMixed => groups.iter().flat_map(|g| g.members().to_vec()).collect(),
            _ => Vec::new(),
        };
        hot_users.sort_unstable();
        hot_users.dedup();
        OpStream {
            workload,
            rng: Rng::new(seed ^ 0x0b5e_55ed),
            groups,
            hot_users,
            ratings,
            cohort,
            total,
            issued: 0,
            next_group: 0,
            next_rating: 0,
        }
    }

    fn rating(&mut self) -> Option<Rating> {
        let r = self.ratings.get(self.next_rating).copied();
        self.next_rating += 1;
        r
    }

    /// A group of [`GROUP_SIZE`] cohort users that contains `user`.
    fn group_with(&mut self, user: UserId) -> Group {
        let mut members = vec![user];
        while members.len() < GROUP_SIZE {
            let u = UserId(self.rng.below(self.cohort as usize) as u32);
            if !members.contains(&u) {
                members.push(u);
            }
        }
        Group::new(members).expect("distinct, non-empty members")
    }

    /// The next operation; `None` once all `total` were issued.
    pub fn next_op(&mut self) -> Option<Op> {
        let i = self.issued;
        if i == self.total {
            return None;
        }
        self.issued += 1;
        match self.workload {
            Workload::PaperRead => {
                let g = self.groups.get(self.next_group).cloned();
                self.next_group += 1;
                g.map(Op::Query)
            }
            // The rater is a hot-pool member, drawn uniformly: users who
            // query are the users who rate, so every ingest dirties some
            // cached entry while the rest of the pool survives it.
            Workload::HotMixed if i % INGEST_EVERY == INGEST_EVERY - 1 => {
                let rating = self.rating()?;
                let user = self.hot_users[self.rng.below(self.hot_users.len())];
                Some(Op::Ingest(Rating { user, ..rating }))
            }
            Workload::HotMixed => {
                let g = self.rng.below(self.groups.len());
                Some(Op::Query(self.groups[g].clone()))
            }
            // Even positions ingest a rating; odd positions read a group
            // containing the rater of the rating just ingested.
            Workload::CfIngest if i.is_multiple_of(2) => self.rating().map(Op::Ingest),
            Workload::CfIngest => {
                let rater = self.ratings[self.next_rating - 1].user;
                Some(Op::Query(self.group_with(rater)))
            }
        }
    }
}
