//! The satisfaction oracle: the reproduction's stand-in for human raters.
//!
//! **What the paper had:** 72 people scoring "how satisfied she is with
//! watching those movies with other group members" (0–5), and picking
//! between lists.
//!
//! **What we build:** a ground-truth utility
//!
//! ```text
//! truth(u, i, G, p) = latent(u, i)
//!                   + w · Σ_{v≠u} affᵗ(u,v,p)·latent(v, i)
//!                   − β · spread(i, G)
//! ```
//!
//! where `latent` is the generator's noise-free appreciation (hidden
//! from the recommenders, which only see quantized ratings), `affᵗ` is
//! the *true* temporal affinity from the full social history, and
//! `spread` is the standard deviation of the group's latent appreciation
//! of `i` (shared experiences suffer when tastes split — the
//! behavioural finding behind disagreement-aware consensus [20, 22]).
//!
//! **Why the substitution preserves behaviour:** the paper's premise is
//! that real users value company and its temporal evolution; encoding
//! exactly that premise as ground truth lets us verify which *recommender
//! variants* recover the signal — the same directional question Figures
//! 1–3 answer. A variant can only score well by actually modelling
//! affinity/time/disagreement; ablated variants lose precisely what the
//! ablation removes.

use crate::world::StudyWorld;
use greca_dataset::{Group, ItemId, UserId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Oracle parameters.
#[derive(Debug, Clone, Copy)]
pub struct OracleConfig {
    /// Weight of the company term relative to own taste.
    pub company_weight: f64,
    /// Disagreement penalty β.
    pub disagreement_penalty: f64,
    /// Std-dev of the judgment noise added per (user, list) evaluation.
    pub judgment_noise: f64,
    /// Seed for the judgment noise.
    pub seed: u64,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            company_weight: 0.9,
            disagreement_penalty: 0.35,
            judgment_noise: 0.08,
            seed: 0x04ac1e,
        }
    }
}

/// The oracle over one study world.
pub struct SatisfactionOracle<'a> {
    world: &'a StudyWorld,
    config: OracleConfig,
}

impl<'a> SatisfactionOracle<'a> {
    /// Create an oracle.
    pub fn new(world: &'a StudyWorld, config: OracleConfig) -> Self {
        SatisfactionOracle { world, config }
    }

    /// The oracle's configuration.
    pub fn config(&self) -> &OracleConfig {
        &self.config
    }

    /// Ground-truth appreciation of `item` by `user` within `group` at
    /// period `p_idx` (see module docs).
    ///
    /// The company term weights companions by the *true* discrete
    /// temporal affinity under the same §4.1.2 group normalization the
    /// paper applies ("we normalize all static affinity values in a
    /// group by the maximum pair-wise value in the group") — group
    /// membership changes how much each companion matters, exactly the
    /// premise the study tests. Recommenders still only see CF-predicted
    /// preferences, so the oracle is not an answer key: a variant scores
    /// well only by modelling the affinity/temporal structure.
    pub fn truth(&self, user: UserId, item: ItemId, group: &Group, p_idx: usize) -> f64 {
        let ml = &self.world.movielens;
        let own = ml.latent_utility(user, item);
        let members = group.members();
        if members.len() < 2 {
            return own;
        }
        let pop = &self.world.population;
        // §4.1.2 group renormalization of static affinity.
        let gmax = pop.group_static_max(group);
        let mut company = 0.0;
        for &v in members {
            if v == user {
                continue;
            }
            let pair = pop
                .pair_of(user, v)
                .expect("study users are in the affinity universe");
            let static_c = if gmax > 0.0 {
                pop.static_raw_of(pair) / gmax
            } else {
                0.0
            };
            let aff = (static_c + pop.aff_v_discrete(pair, p_idx)).clamp(0.0, 2.0);
            company += aff * ml.latent_utility(v, item);
        }
        // The paper's relative-preference premise is an *unnormalized*
        // sum over companions (§2.2) — company matters more in larger
        // groups; the oracle mirrors that.
        // Spread of the group's latent appreciation.
        let utils: Vec<f64> = members
            .iter()
            .map(|&m| ml.latent_utility(m, item))
            .collect();
        let mean = utils.iter().sum::<f64>() / utils.len() as f64;
        let spread =
            (utils.iter().map(|u| (u - mean).powi(2)).sum::<f64>() / utils.len() as f64).sqrt();
        own + self.config.company_weight * company - self.config.disagreement_penalty * spread
    }

    /// Mean ground truth of a list for one user.
    pub fn list_truth(&self, user: UserId, list: &[ItemId], group: &Group, p_idx: usize) -> f64 {
        if list.is_empty() {
            return 0.0;
        }
        list.iter()
            .map(|&i| self.truth(user, i, group, p_idx))
            .sum::<f64>()
            / list.len() as f64
    }

    /// Independent-evaluation satisfaction (0–100%): how `user` rates the
    /// list against the best and worst lists of the same length she could
    /// have been shown (computed over `candidates`), plus judgment noise.
    pub fn satisfaction_percent(
        &self,
        user: UserId,
        list: &[ItemId],
        candidates: &[ItemId],
        group: &Group,
        p_idx: usize,
        rng: &mut StdRng,
    ) -> f64 {
        assert!(!list.is_empty(), "cannot judge an empty list");
        // Two blended judgments, both in [0, 1]:
        // (a) value: mean truth of the list between the worst and best
        //     same-length lists the user could have been shown;
        // (b) rank quality: nDCG of the list against the user's oracle
        //     ranking of the candidates (humans notice *which* items
        //     made the list, not only their average quality — this is
        //     what separates lists whose averages are close).
        let mut truths: Vec<f64> = candidates
            .iter()
            .map(|&i| self.truth(user, i, group, p_idx))
            .collect();
        truths.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
        let n = list.len().min(truths.len());
        let best: f64 = truths[..n].iter().sum::<f64>() / n as f64;
        let worst: f64 = truths[truths.len() - n..].iter().sum::<f64>() / n as f64;
        let got = self.list_truth(user, list, group, p_idx);
        let value = if best > worst {
            ((got - worst) / (best - worst)).clamp(0.0, 1.0)
        } else {
            1.0
        };
        // nDCG with graded gains: shift truths so the minimum is 0.
        let floor = truths.last().copied().unwrap_or(0.0);
        let dcg: f64 = list
            .iter()
            .enumerate()
            .map(|(rank, &i)| {
                (self.truth(user, i, group, p_idx) - floor) / ((rank + 2) as f64).log2()
            })
            .sum();
        let idcg: f64 = truths[..n]
            .iter()
            .enumerate()
            .map(|(rank, &t)| (t - floor) / ((rank + 2) as f64).log2())
            .sum();
        let ndcg = if idcg > 0.0 {
            (dcg / idcg).clamp(0.0, 1.0)
        } else {
            1.0
        };
        let frac = 0.5 * value + 0.5 * ndcg;
        let noisy = frac + self.config.judgment_noise * (rng.random::<f64>() - 0.5) * 2.0;
        100.0 * noisy.clamp(0.0, 1.0)
    }

    /// Comparative pick: does `user` prefer `l1` over `l2`? (Closed-world:
    /// exactly one is chosen, §4.1.4.)
    pub fn prefers(
        &self,
        user: UserId,
        l1: &[ItemId],
        l2: &[ItemId],
        group: &Group,
        p_idx: usize,
        rng: &mut StdRng,
    ) -> bool {
        let t1 = self.list_truth(user, l1, group, p_idx);
        let t2 = self.list_truth(user, l2, group, p_idx);
        let noise = self.config.judgment_noise * (rng.random::<f64>() - 0.5) * 2.0;
        t1 + noise >= t2
    }

    /// Three-way pick (Figure 2): index of the preferred list.
    pub fn pick_of_three(
        &self,
        user: UserId,
        lists: [&[ItemId]; 3],
        group: &Group,
        p_idx: usize,
        rng: &mut StdRng,
    ) -> usize {
        let mut best = 0;
        let mut best_t = f64::NEG_INFINITY;
        for (idx, l) in lists.iter().enumerate() {
            let t = self.list_truth(user, l, group, p_idx)
                + self.config.judgment_noise * (rng.random::<f64>() - 0.5) * 2.0;
            if t > best_t {
                best_t = t;
                best = idx;
            }
        }
        best
    }

    /// A deterministic RNG for judgment noise.
    pub fn judgment_rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.config.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;

    fn world() -> StudyWorld {
        WorldConfig::study_scale().build()
    }

    #[test]
    fn truth_includes_company() {
        let w = world();
        let oracle = SatisfactionOracle::new(&w, OracleConfig::default());
        let users = w.study_users();
        let g = Group::new(vec![users[0], users[1], users[2]]).unwrap();
        let p = w.last_period();
        let item = ItemId(0);
        let single = Group::new(vec![users[0]]).unwrap();
        let alone = oracle.truth(users[0], item, &single, p);
        let together = oracle.truth(users[0], item, &g, p);
        // Company and spread shift the value; they rarely cancel exactly.
        assert!(alone.is_finite() && together.is_finite());
        assert_ne!(alone, together);
    }

    #[test]
    fn satisfaction_is_bounded_and_monotone_in_list_quality() {
        let w = world();
        let oracle = SatisfactionOracle::new(
            &w,
            OracleConfig {
                judgment_noise: 0.0,
                ..OracleConfig::default()
            },
        );
        let users = w.study_users();
        let g = Group::new(vec![users[0], users[1], users[2]]).unwrap();
        let p = w.last_period();
        let candidates: Vec<ItemId> = (0..60).map(ItemId).collect();
        // Oracle-best list vs oracle-worst list for user 0.
        let mut ranked = candidates.clone();
        ranked.sort_by(|&a, &b| {
            oracle
                .truth(users[0], b, &g, p)
                .partial_cmp(&oracle.truth(users[0], a, &g, p))
                .unwrap()
        });
        let best: Vec<ItemId> = ranked[..5].to_vec();
        let worst: Vec<ItemId> = ranked[ranked.len() - 5..].to_vec();
        let mut rng = oracle.judgment_rng();
        let s_best = oracle.satisfaction_percent(users[0], &best, &candidates, &g, p, &mut rng);
        let s_worst = oracle.satisfaction_percent(users[0], &worst, &candidates, &g, p, &mut rng);
        assert!((0.0..=100.0).contains(&s_best));
        assert!((0.0..=100.0).contains(&s_worst));
        assert!(s_best > s_worst);
        assert!(s_best > 85.0, "best list scores near 100% (got {s_best})");
        assert!(s_worst < 15.0, "worst list scores near 0% (got {s_worst})");
    }

    #[test]
    fn prefers_is_consistent_without_noise() {
        let w = world();
        let oracle = SatisfactionOracle::new(
            &w,
            OracleConfig {
                judgment_noise: 0.0,
                ..OracleConfig::default()
            },
        );
        let users = w.study_users();
        let g = Group::new(vec![users[0], users[3]]).unwrap();
        let p = w.last_period();
        let l1 = vec![ItemId(0), ItemId(1)];
        let l2 = vec![ItemId(2), ItemId(3)];
        let mut rng = oracle.judgment_rng();
        let pick12 = oracle.prefers(users[0], &l1, &l2, &g, p, &mut rng);
        let t1 = oracle.list_truth(users[0], &l1, &g, p);
        let t2 = oracle.list_truth(users[0], &l2, &g, p);
        assert_eq!(pick12, t1 >= t2);
    }

    #[test]
    fn pick_of_three_selects_truth_maximizer_without_noise() {
        let w = world();
        let oracle = SatisfactionOracle::new(
            &w,
            OracleConfig {
                judgment_noise: 0.0,
                ..OracleConfig::default()
            },
        );
        let users = w.study_users();
        let g = Group::new(vec![users[0], users[1]]).unwrap();
        let p = w.last_period();
        let lists = [
            vec![ItemId(0), ItemId(1)],
            vec![ItemId(2), ItemId(3)],
            vec![ItemId(4), ItemId(5)],
        ];
        let mut rng = oracle.judgment_rng();
        let pick =
            oracle.pick_of_three(users[0], [&lists[0], &lists[1], &lists[2]], &g, p, &mut rng);
        let truths: Vec<f64> = lists
            .iter()
            .map(|l| oracle.list_truth(users[0], l, &g, p))
            .collect();
        let argmax = truths
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(pick, argmax);
    }
}
