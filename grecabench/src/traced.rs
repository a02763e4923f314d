//! The traced run: the served run's operation sequence re-driven
//! in-process on a fresh engine, through each layer's public functions,
//! with the benchmark's spans around every call.
//!
//! Queries follow the server's path: protocol parse, epoch pin, cache
//! lookup, and on a miss the candidate itemset, list preparation
//! through the epoch's planner arena, and the kernel; then response
//! serialization. Ingests follow it too: parse, WAL append + stage,
//! publish (whose cache-survival hook runs inside the `publish` span)
//! and the ack. Before each publish a *shadow replay* re-runs the
//! publish's stages on the pre-publish epoch to split its time into
//! dirty-set, refit and rebuild; the shadow sits outside every request
//! span, so it never counts toward a request's time.

use crate::check::same_result;
use crate::spans::{self, Span};
use crate::workload::{Op, World, K};
use greca_cf::{candidate_items, RatingStore, RawRatings, UserCfModel};
use greca_core::{
    GrecaScratch, IngestReport, LiveEngine, LiveModel, PinnedEpoch, SharedMemberState, Substrate,
    TopKResult, Wal, WalOptions, WalRecord,
};
use greca_dataset::{Group, Rating, UserId};
use greca_serve::protocol::{self, Request};
use greca_serve::{json, Json, ResultCache, ServeConfig};
use std::path::Path;
use std::sync::Arc;

/// What one traced query's miss path saw.
pub struct Miss {
    /// Candidate itemset size (`candidate_items`).
    pub candidates: usize,
    /// Whether preparation took the warm (substrate-view) path.
    pub warm: bool,
    /// Sequential accesses, their share of all list entries, sweeps.
    pub sa: u64,
    pub sa_pct: f64,
    pub sweeps: u64,
}

/// Dirty and rebuilt counts the shadow replay found for one publish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shadow {
    pub dirty_users: usize,
    pub rebuilt_segments: usize,
    pub full_rebuild: bool,
}

/// The traced run's record.
pub struct Traced {
    pub spans: Vec<Span>,
    /// Per operation: root span index and whether it was a cache hit
    /// (`None` for ingests).
    pub ops: Vec<(usize, Option<bool>)>,
    pub misses: Vec<Miss>,
    pub reports: Vec<IngestReport>,
    pub plan_resolved: u64,
    pub plan_reused: u64,
    pub hit_rate: f64,
    pub survival_rate: f64,
    pub wal_bytes: u64,
    /// Ratings ingested (the WAL's payload count).
    pub ratings: usize,
    pub substrate_bytes: usize,
    /// Correctness failures, one line each.
    pub failures: Vec<String>,
}

/// The request line a client sends for `op` (the shape `Client::query`
/// and `Client::ingest` write).
pub fn request_line(op: &Op) -> String {
    let body = match op {
        Op::Query(g) => Json::obj(vec![
            ("verb", Json::str("query")),
            (
                "group",
                Json::Arr(g.members().iter().map(|u| Json::num(u.0)).collect()),
            ),
            ("k", Json::num(K as f64)),
        ]),
        Op::Ingest(r) => Json::obj(vec![
            ("verb", Json::str("ingest")),
            (
                "ratings",
                Json::Arr(vec![Json::Arr(vec![
                    Json::num(r.user.0),
                    Json::num(r.item.0),
                    Json::num(f64::from(r.value)),
                    Json::num(r.ts as f64),
                ])]),
            ),
        ]),
    };
    body.to_line()
}

fn parse(line: &str) -> Request {
    let value = json::parse(line).expect("the benchmark writes valid JSON");
    protocol::parse_request(&value).expect("the benchmark writes valid requests")
}

/// The ingest ack the server writes for a committed publish.
fn ack_line(report: &IngestReport, batch_id: u64, trace: u64) -> String {
    let n = |x: usize| Json::num(x as f64);
    Json::Obj(vec![
        ("ok".to_string(), Json::Bool(true)),
        ("verb".to_string(), Json::str("ingest")),
        ("trace".to_string(), Json::num(trace as f64)),
        ("epoch".to_string(), Json::num(report.epoch as f64)),
        ("batch_id".to_string(), Json::num(batch_id as f64)),
        ("duplicate".to_string(), Json::Bool(false)),
        ("upserts".to_string(), n(report.upserts)),
        ("retractions".to_string(), n(report.retractions)),
        ("dirty_users".to_string(), n(report.dirty_users)),
        ("dirty_pairs".to_string(), n(report.dirty_pairs)),
        ("rebuilt_segments".to_string(), n(report.rebuilt_segments)),
        ("shared_segments".to_string(), n(report.shared_segments)),
        ("full_rebuild".to_string(), Json::Bool(report.full_rebuild)),
    ])
    .to_line()
}

/// Re-run one publish's stages on the pre-publish epoch `pin`:
/// `RatingMatrix::apply_deltas` + `DeltaBatch::dirty_set_bounded`, the
/// user-CF refit over the rebuilt users, and the substrate rebuild.
fn shadow_publish(live: &LiveEngine<'_>, pin: &PinnedEpoch<'_>, ratings: &[Rating]) -> Shadow {
    let mut store = RatingStore::new();
    store.stage_all(ratings).expect("finite ratings");
    let batch = store.drain();
    let substrate = pin.substrate();
    let total = substrate.users().len();
    let fraction = live.full_rebuild_fraction();
    let cap = if fraction <= 1.0 {
        ((fraction * total as f64).ceil() as usize).max(1)
    } else {
        usize::MAX
    };
    let (post, (dirty, full)) = spans::timed("shadow.dirty", || {
        let post = pin
            .matrix()
            .apply_deltas(&batch.upserts, &batch.retractions);
        let dirty = batch.dirty_set_bounded(pin.matrix(), &post, live.model().scope(), cap, |u| {
            substrate.user_index(u).is_some()
        });
        (post, dirty)
    });
    let users: Vec<UserId> = if full {
        substrate.users().to_vec()
    } else {
        dirty
            .users
            .iter()
            .copied()
            .filter(|&u| substrate.user_index(u).is_some())
            .collect()
    };
    let opts = live.build_options();
    let rebuild = |provider: &(dyn greca_cf::PreferenceProvider + Sync)| {
        spans::timed("shadow.rebuild", || {
            if full {
                Substrate::build_with(
                    provider,
                    live.population(),
                    substrate.items(),
                    &users,
                    &[],
                    opts,
                )
            } else {
                substrate.rebuild_dirty(provider, &users)
            }
        })
        .expect("shadow rebuild of finite scores")
    };
    match live.model() {
        LiveModel::Raw => drop(rebuild(&RawRatings(&post))),
        LiveModel::UserCf(cfg) => {
            let cf = spans::timed("shadow.refit", || UserCfModel::fit_for(&post, cfg, &users));
            drop(rebuild(&cf));
        }
    }
    Shadow {
        dirty_users: dirty.num_users(),
        rebuilt_segments: users.len(),
        full_rebuild: full,
    }
}

/// Re-drive `ops` on a fresh engine over `world` logging to `wal_dir`,
/// checking each answer against `direct` — the served run's direct
/// engine answer for the same operation, at the same epoch (both
/// engines replay one deterministic sequence) — then recover from the
/// log's prefix through `recover_publishes` commits under `recover_dir`.
pub fn redrive(
    world: &World,
    ops: &[Op],
    direct: &[Option<(u64, Arc<TopKResult>)>],
    wal_dir: &Path,
    recover_dir: &Path,
    recover_publishes: u64,
) -> Result<Traced, String> {
    let live = crate::engine(world, Some(wal_dir))?;
    let cache = Arc::new(ResultCache::new(ServeConfig::default().cache_capacity));
    let hook_cache = Arc::clone(&cache);
    live.on_publish_delta(move |delta| {
        let _span = spans::enter("cache.apply_publish");
        hook_cache.apply_publish(delta);
    });
    let mut plan = (live.epoch(), Arc::new(SharedMemberState::new()));
    let (mut plan_resolved, mut plan_reused) = (0u64, 0u64);
    let mut out = Traced {
        spans: Vec::new(),
        ops: Vec::with_capacity(ops.len()),
        misses: Vec::new(),
        reports: Vec::new(),
        plan_resolved: 0,
        plan_reused: 0,
        hit_rate: 0.0,
        survival_rate: 0.0,
        wal_bytes: 0,
        ratings: 0,
        substrate_bytes: 0,
        failures: Vec::new(),
    };
    let mut ratings = 0usize;

    spans::start();
    for (i, op) in ops.iter().enumerate() {
        let trace = i as u64 + 1;
        let line = request_line(op);
        match op {
            Op::Query(_) => {
                let root = spans::enter("op.query");
                let this_root = root.index();
                let Request::Query(req) = spans::timed("protocol.parse", || parse(&line)) else {
                    unreachable!("a query line parses as a query");
                };
                let (group, pin) = spans::timed("serve.pin", || {
                    (
                        Group::new(req.group.clone()).expect("valid group"),
                        live.pin(),
                    )
                });
                let epoch = pin.epoch();
                let engine = pin.engine();
                let query = engine.query(&group).top(K);
                let key = query.cache_key();
                let cached = spans::timed("cache.lookup", || cache.try_get(epoch, &key));
                let (top, label) = match cached {
                    Some(top) => (top, "hit"),
                    None => {
                        if plan.0 != epoch {
                            plan_resolved += plan.1.resolved_members();
                            plan_reused += plan.1.reused_members();
                            plan = (epoch, Arc::new(SharedMemberState::new()));
                        }
                        let mut miss = None;
                        let (result, outcome) = spans::timed("cache.compute", || {
                            cache.get_or_compute(epoch, key, || {
                                let items = spans::timed("prepare.candidates", || {
                                    candidate_items(pin.matrix(), &group)
                                });
                                let prepared = spans::timed("prepare.lists", || {
                                    engine
                                        .query(&group)
                                        .items(&items)
                                        .top(K)
                                        .prepare_shared(&plan.1)
                                })?;
                                // A fresh workspace per request, as the
                                // server gets: its per-request engine
                                // starts with an empty scratch pool.
                                let top = spans::timed("kernel", || {
                                    prepared.run_with_scratch(&mut GrecaScratch::new())
                                });
                                miss = Some(Miss {
                                    candidates: items.len(),
                                    warm: prepared.is_warm(),
                                    sa: top.stats.sa,
                                    sa_pct: top.stats.sa_percent(),
                                    sweeps: top.sweeps,
                                });
                                Ok(top)
                            })
                        });
                        out.misses.extend(miss);
                        let top = result.map_err(|e| format!("traced query {i}: {e:?}"))?;
                        (top, outcome.label())
                    }
                };
                let line = spans::timed("protocol.serialize", || {
                    protocol::query_response(&top, epoch, label, None, &req.id, Some(trace))
                });
                drop(root);
                std::hint::black_box(line);
                out.ops.push((this_root, Some(label == "hit")));
                let agrees = direct[i]
                    .as_ref()
                    .is_some_and(|(at, want)| *at == epoch && same_result(&top, want));
                if !agrees {
                    out.failures.push(format!(
                        "traced op {i}: answer differs from a direct run at epoch {epoch}"
                    ));
                }
            }
            Op::Ingest(r) => {
                let before = live.pin();
                let shadow = shadow_publish(&live, &before, std::slice::from_ref(r));
                drop(before);
                let root = spans::enter("op.ingest");
                let this_root = root.index();
                let Request::Ingest(req) = spans::timed("protocol.parse", || parse(&line)) else {
                    unreachable!("an ingest line parses as an ingest");
                };
                let staged = spans::timed("wal.stage", || {
                    live.stage_keyed(req.batch_key, &req.ratings, &req.retractions)
                })
                .map_err(|e| format!("traced stage {i}: {e}"))?;
                let report = spans::timed("publish", || live.publish())
                    .map_err(|e| format!("traced publish {i}: {e}"))?;
                let ack = spans::timed("protocol.serialize", || {
                    ack_line(&report, staged.batch_id, trace)
                });
                drop(root);
                std::hint::black_box(ack);
                out.ops.push((this_root, None));
                ratings += req.ratings.len();
                let published = Shadow {
                    dirty_users: report.dirty_users,
                    rebuilt_segments: report.rebuilt_segments,
                    full_rebuild: report.full_rebuild,
                };
                if shadow != published {
                    out.failures.push(format!(
                        "traced op {i}: shadow replay {shadow:?} != IngestReport {published:?}"
                    ));
                }
                out.reports.push(report);
            }
        }
    }
    plan_resolved += plan.1.resolved_members();
    plan_reused += plan.1.reused_members();
    out.plan_resolved = plan_resolved;
    out.plan_reused = plan_reused;
    out.hit_rate = cache.stats.hit_rate();
    out.survival_rate = cache.stats.survival_rate();
    out.substrate_bytes = live.pin().substrate().memory_footprint().total();
    out.wal_bytes = crate::dir_bytes(wal_dir);
    out.ratings = ratings;

    if recover_publishes > 0 {
        let copied = crate::copy_wal_prefix(wal_dir, recover_dir, recover_publishes)
            .map_err(|e| format!("copy traced WAL prefix: {e}"))?;
        let (wal, records, _) = spans::timed("recover.scan", || {
            Wal::recover(recover_dir, WalOptions::default())
        })
        .map_err(|e| format!("traced WAL scan: {e}"))?;
        drop(wal);
        let engine = spans::timed("recover.engine", || crate::engine(world, None))?;
        spans::timed("recover.replay", || -> Result<(), String> {
            for record in records {
                match record {
                    WalRecord::Batch {
                        client_key,
                        upserts,
                        retractions,
                        ..
                    } => {
                        engine
                            .stage_keyed(client_key, &upserts, &retractions)
                            .map_err(|e| format!("replay stage: {e}"))?;
                    }
                    WalRecord::Publish { .. } => {
                        engine
                            .publish()
                            .map_err(|e| format!("replay publish: {e}"))?;
                    }
                }
            }
            Ok(())
        })?;
        if engine.epoch() != copied {
            out.failures.push(format!(
                "traced replay reached epoch {} of {copied}",
                engine.epoch()
            ));
        }
    }
    out.spans = spans::finish();
    Ok(out)
}
