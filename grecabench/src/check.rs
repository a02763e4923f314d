//! The correctness gate: every answer is bit-compared against a direct
//! `PinnedEpoch::engine()` run.

use crate::workload::K;
use greca_core::{LiveModel, PinnedEpoch, QueryError, TopKResult};
use greca_dataset::{Group, UserId};
use greca_serve::Json;
use std::collections::HashMap;
use std::sync::Arc;

/// Whether two results agree bit for bit: item ids, `lb`/`ub` bits,
/// SA/RA counts and sweeps.
pub fn same_result(a: &TopKResult, b: &TopKResult) -> bool {
    a.items.len() == b.items.len()
        && a.items.iter().zip(&b.items).all(|(x, y)| {
            x.item == y.item && x.lb.to_bits() == y.lb.to_bits() && x.ub.to_bits() == y.ub.to_bits()
        })
        && a.stats.sa == b.stats.sa
        && a.stats.ra == b.stats.ra
        && a.sweeps == b.sweeps
}

/// Whether a served `query` payload carries exactly `want`.
pub fn payload_matches(response: &Json, want: &TopKResult) -> bool {
    let Some(items) = response.get("items").and_then(Json::as_array) else {
        return false;
    };
    items.len() == want.items.len()
        && items.iter().zip(&want.items).all(|(got, want)| {
            got.get("item").and_then(Json::as_u64) == Some(u64::from(want.item.0))
                && got.get("lb").and_then(Json::as_f64).map(f64::to_bits) == Some(want.lb.to_bits())
                && got.get("ub").and_then(Json::as_f64).map(f64::to_bits) == Some(want.ub.to_bits())
        })
        && response.get("sa").and_then(Json::as_u64) == Some(want.stats.sa)
        && response.get("ra").and_then(Json::as_u64) == Some(want.stats.ra)
        && response.get("sweeps").and_then(Json::as_u64) == Some(want.sweeps)
}

/// Direct answers, memoized while provably unchanged.
///
/// Under the raw model a group's answer is a function of its members'
/// rating rows alone (the catalog and the affinity index never change),
/// so a direct answer computed at epoch `e` is the direct answer at
/// every later epoch until an ingest touches one of its members; the
/// oracle recomputes exactly then. Under user-CF a rating can move any
/// neighbour's predictions, so answers are reused within one epoch only.
pub struct Oracle {
    raw: bool,
    memo: HashMap<Vec<UserId>, (u64, Arc<TopKResult>)>,
    touched: HashMap<UserId, u64>,
    /// Direct engine runs performed (memo misses).
    pub direct_runs: usize,
}

impl Oracle {
    /// An oracle for an engine serving `model`.
    pub fn new(model: LiveModel) -> Oracle {
        Oracle {
            raw: model == LiveModel::Raw,
            memo: HashMap::new(),
            touched: HashMap::new(),
            direct_runs: 0,
        }
    }

    /// Record that the publish of `epoch` changed `user`'s ratings.
    pub fn note_ingest(&mut self, user: UserId, epoch: u64) {
        self.touched.insert(user, epoch);
    }

    /// The direct answer for `group` at `pin`'s epoch.
    pub fn direct(
        &mut self,
        pin: &PinnedEpoch<'_>,
        group: &Group,
    ) -> Result<Arc<TopKResult>, QueryError> {
        let epoch = pin.epoch();
        if let Some((at, result)) = self.memo.get(group.members()) {
            let fresh = if self.raw {
                group
                    .members()
                    .iter()
                    .all(|u| self.touched.get(u).is_none_or(|&t| t <= *at))
            } else {
                *at == epoch
            };
            if fresh && *at <= epoch {
                return Ok(Arc::clone(result));
            }
        }
        self.direct_runs += 1;
        let result = Arc::new(pin.engine().query(group).top(K).run()?);
        self.memo
            .insert(group.members().to_vec(), (epoch, Arc::clone(&result)));
        Ok(result)
    }
}
