//! `chaos`: a deterministic crash/fault/recovery harness for the full
//! serve stack, emitting `BENCH_chaos.json`.
//!
//! The harness runs N **cycles**. Each cycle recovers a [`LiveEngine`]
//! from the write-ahead log left by every previous cycle, fronts it
//! with a real [`GrecaServer`] on an ephemeral port, and drives keyed
//! ingests through a real client while a [`FaultPlan`] injects exactly
//! one scheduled WAL fault — a mid-frame [`IoFault::Crash`] (torn
//! bytes, every later write refused: a process death frozen in amber),
//! a transient `Fail`/`DiskFull`, or a short `Torn` write — at a
//! cycle-varying write-op index. The client keeps its own **ack log**:
//! a batch counts as committed iff its ingest response said `ok`.
//!
//! Because the schedule is deterministic and the client is sequential,
//! the harness *simulates* the fault plan client-side (which append
//! fails, whether the batch frame was already durable, when the WAL is
//! stalled) and cross-checks every single response against the
//! simulation — acked/refused, epoch numbers, `duplicate` flags,
//! degraded annotations. After each crash the cycle also issues reads,
//! which must be **answered** from the last healthy epoch with
//! `degraded: true` + `staleness_ms`, not shed.
//!
//! At every cycle boundary (and once more at the end) recovery is
//! verified two ways:
//!
//! * **zero committed loss** — the recovered epoch equals the last
//!   acked publish and the recovered matrix equals an independent
//!   replay of the ack log, rating by rating;
//! * **`recovered_identical`** — a group query served over the wire by
//!   the recovered server is bit-identical (item ids, lb/ub bits,
//!   SA/RA counters, sweeps) to a cold [`GrecaEngine`] refit on the
//!   ack-log state.
//!
//! Gates (asserted, `--quick` included): ≥ 20 fault-injected cycles,
//! `lost_committed == 0`, `recovered_identical == true`, every
//! degraded-window read answered (never shed) and annotated, zero
//! protocol errors, and the simulation never diverging from the wire.
//!
//! Run with: `cargo run -p greca-bench --release --bin chaos`
//! (`--quick` shrinks the world and per-cycle workload for CI;
//! `--cycles <n>` overrides the cycle count).

use greca_affinity::{PopulationAffinity, TableAffinitySource};
use greca_bench::harness::{banner, percentile, sorted_ms, Report, Stamp};
use greca_cf::RawRatings;
use greca_core::{
    BuildOptions, FaultCtx, FaultPlan, GrecaEngine, IoFault, LiveEngine, LiveModel, TopKResult,
    Wal, WalOptions,
};
use greca_dataset::{
    Granularity, Group, ItemId, RatingMatrix, RatingMatrixBuilder, Timeline, UserId,
};
use greca_serve::{Client, GrecaServer, Json, ServeConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// One upsert as the ack log stores it.
type Cell = (u32, u32);

/// The world: deterministic ratings and affinities, sized by `quick`.
struct ChaosWorld {
    users: u32,
    items_n: u32,
    initial: RatingMatrix,
    pop: PopulationAffinity,
    items: Vec<ItemId>,
}

fn build_world(quick: bool) -> ChaosWorld {
    let (users, items_n) = if quick {
        (16u32, 60u32)
    } else {
        (24u32, 120u32)
    };
    let mut b = RatingMatrixBuilder::new(users as usize, items_n as usize);
    for u in 0..users {
        for i in 0..items_n {
            if (u + i) % 3 == 0 {
                b.rate(UserId(u), ItemId(i), ((u * i) % 5 + 1) as f32, 0);
            }
        }
    }
    let mut src = TableAffinitySource::new();
    let tl = Timeline::discretize(0, 100, Granularity::Custom(50)).unwrap();
    for u in 0..users {
        for v in (u + 1)..users {
            src.set_static(UserId(u), UserId(v), f64::from((u + v) % 10) / 10.0);
            src.set_periodic(
                UserId(u),
                UserId(v),
                tl.periods()[0].start,
                f64::from((u * v) % 10) / 10.0,
            );
        }
    }
    let cohort: Vec<UserId> = (0..users).map(UserId).collect();
    let pop = PopulationAffinity::build(&src, &cohort, &tl);
    ChaosWorld {
        users,
        items_n,
        initial: b.build(),
        pop,
        items: (0..items_n).map(ItemId).collect(),
    }
}

/// Replay the ack log into a fresh matrix (independent construction —
/// no `apply_deltas`).
fn matrix_of(log: &BTreeMap<Cell, f32>, n: usize, m: usize) -> RatingMatrix {
    let mut b = RatingMatrixBuilder::new(n, m);
    for (&(u, i), &v) in log {
        b.rate(UserId(u), ItemId(i), v, 0);
    }
    b.build()
}

/// Bit-compare one served payload against a direct engine run.
fn payload_identical(response: &Json, direct: &TopKResult) -> bool {
    let Some(items) = response.get("items").and_then(Json::as_array) else {
        return false;
    };
    if items.len() != direct.items.len() {
        return false;
    }
    let rows = items.iter().zip(&direct.items).all(|(got, want)| {
        got.get("item").and_then(Json::as_u64) == Some(u64::from(want.item.0))
            && got.get("lb").and_then(Json::as_f64).map(f64::to_bits) == Some(want.lb.to_bits())
            && got.get("ub").and_then(Json::as_f64).map(f64::to_bits) == Some(want.ub.to_bits())
    });
    rows && response.get("sa").and_then(Json::as_u64) == Some(direct.stats.sa)
        && response.get("ra").and_then(Json::as_u64) == Some(direct.stats.ra)
        && response.get("sweeps").and_then(Json::as_u64) == Some(direct.sweeps)
}

/// Client-side mirror of the cycle's single scheduled WAL fault: which
/// append fails, whether the refused batch was already durable, and
/// when the engine is stalled (degraded). The server ingest path
/// consumes one WAL write op for the batch append and — only if that
/// succeeded — one for the publish commit marker.
struct FaultSim {
    fault_op: u64,
    /// A crash latches: every WAL write after the fault op fails too.
    latches: bool,
    op: u64,
    crashed: bool,
    /// The WAL is stalled (degraded mode) after any append failure,
    /// until the next successful publish.
    stalled: bool,
}

/// What the simulator predicts for one ingest attempt.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum Predicted {
    /// Both appends land: the batch (and any durable tail) commits.
    Acked,
    /// The batch append fails: refused, nothing durable.
    RefusedDropped,
    /// The commit append fails: refused, but the batch frame is
    /// durable and will fold into the next successful publish.
    RefusedDurable,
}

impl FaultSim {
    fn new(fault_op: u64, latches: bool) -> FaultSim {
        FaultSim {
            fault_op,
            latches,
            op: 0,
            crashed: false,
            stalled: false,
        }
    }

    fn write_fails(&mut self) -> bool {
        let fires = self.op == self.fault_op;
        self.op += 1;
        if fires && self.latches {
            self.crashed = true;
        }
        self.crashed || fires
    }

    fn ingest(&mut self) -> Predicted {
        if self.write_fails() {
            self.stalled = true;
            return Predicted::RefusedDropped;
        }
        if self.write_fails() {
            self.stalled = true;
            return Predicted::RefusedDurable;
        }
        self.stalled = false;
        Predicted::Acked
    }
}

/// Per-cycle fault rotation: mostly crashes at varying torn-frame
/// fractions, plus the transient single-op failures.
fn fault_of(cycle: usize) -> IoFault {
    match cycle % 6 {
        0 => IoFault::Crash { keep_permille: 750 },
        1 => IoFault::Fail,
        2 => IoFault::Crash { keep_permille: 250 },
        3 => IoFault::DiskFull,
        4 => IoFault::Crash { keep_permille: 0 },
        _ => IoFault::Torn { keep_permille: 500 },
    }
}

struct CycleOutcome {
    injected: usize,
    acked: usize,
    refused: usize,
    degraded_reads: usize,
    degraded_answered: usize,
    recovery: std::time::Duration,
    identical: bool,
    lost: usize,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let cycles: usize = args
        .windows(2)
        .find(|w| w[0] == "--cycles")
        .map(|w| w[1].parse().expect("--cycles takes a usize"))
        .unwrap_or(24);
    let ingests_per_cycle: u64 = if quick { 6 } else { 8 };
    banner("chaos: deterministic crash/fault injection over the serve stack");

    let world = build_world(quick);
    let k = 5usize;
    let dir: PathBuf = std::env::temp_dir().join(format!("greca-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Small segments so the accumulated log rotates and recovery scans
    // a multi-segment history.
    let wal_tuning = |fault: Option<Arc<FaultPlan>>| WalOptions {
        segment_bytes: 4096,
        fault,
        ..WalOptions::default()
    };

    // The ack log: committed state, the durable-but-unpublished tail,
    // and the acked epoch — maintained purely from wire responses plus
    // the deterministic fault schedule.
    let mut committed: BTreeMap<Cell, f32> = BTreeMap::new();
    for u in 0..world.users {
        for i in 0..world.items_n {
            if (u + i) % 3 == 0 {
                committed.insert((u, i), ((u * i) % 5 + 1) as f32);
            }
        }
    }
    let mut tail: Vec<(Cell, f32)> = Vec::new();
    let mut acked_epoch = 0u64;
    let mut next_key = 1u64;
    let mut outcomes: Vec<CycleOutcome> = Vec::new();

    for cycle in 0..cycles {
        let fault = fault_of(cycle);
        let latches = matches!(fault, IoFault::Crash { .. });
        // Any op below `ingests_per_cycle` is guaranteed to be reached:
        // every ingest attempt consumes at least the batch-append op.
        let fault_op = (cycle as u64 * 5 + 1) % ingests_per_cycle;
        let plan =
            Arc::new(FaultPlan::new(cycle as u64).schedule(FaultCtx::WalWrite, fault_op, fault));
        let mut sim = FaultSim::new(fault_op, latches);

        // ── Recover from everything previous cycles left behind ──────
        let t0 = Instant::now();
        let live = if cycle == 0 {
            let wal = Wal::create(&dir, wal_tuning(Some(Arc::clone(&plan)))).expect("create WAL");
            LiveEngine::new(&world.pop, LiveModel::Raw, &world.initial, &world.items)
                .expect("epoch 0")
                .with_wal(wal)
        } else {
            LiveEngine::recover(
                &world.pop,
                LiveModel::Raw,
                &world.initial,
                &world.items,
                BuildOptions::default(),
                &dir,
                wal_tuning(Some(Arc::clone(&plan))),
            )
            .expect("recover")
            .0
        };
        let recovery = t0.elapsed();
        assert_eq!(
            live.epoch(),
            acked_epoch,
            "cycle {cycle}: recovered epoch must be the last acked publish"
        );

        // Zero committed loss, checked against the independent replay.
        let expected = matrix_of(&committed, world.users as usize, world.items_n as usize);
        let mut lost = 0usize;
        {
            let pin = live.pin();
            for u in 0..world.users {
                if pin.matrix().user_ratings(UserId(u)) != expected.user_ratings(UserId(u)) {
                    lost += 1;
                }
            }
        }

        // ── Serve the cycle under the fault schedule ─────────────────
        let server = GrecaServer::bind(
            &live,
            ServeConfig {
                fault_plan: None,
                world_label: format!("chaos:{cycle}"),
                ..ServeConfig::default()
            },
        )
        .expect("bind");
        let handle = server.handle();
        let group_ids: Vec<u32> = (0..3).map(|j| (cycle as u32 + j) % world.users).collect();
        let group = Group::new(group_ids.iter().copied().map(UserId).collect()).expect("group");
        let item_ids: Vec<u32> = world.items.iter().map(|i| i.0).collect();

        let outcome = std::thread::scope(|s| {
            s.spawn(|| server.run());
            let mut client = Client::connect(handle.addr()).expect("connect");

            // Post-recovery identity over the wire: served == cold refit
            // on the ack log, bit for bit.
            let served = client
                .query(&group_ids, Some(&item_ids), Some(k))
                .expect("identity query");
            assert_eq!(served.get("ok").and_then(Json::as_bool), Some(true));
            let provider = RawRatings(&expected);
            let cold = GrecaEngine::new(&provider, &world.pop);
            let direct = cold
                .query(&group)
                .items(&world.items)
                .top(k)
                .run()
                .expect("cold run");
            let identical = payload_identical(&served, &direct);
            assert!(
                served.get("degraded").is_none(),
                "cycle {cycle}: fresh recovery must not be degraded"
            );

            let (mut acked, mut refused) = (0usize, 0usize);
            let (mut degraded_reads, mut degraded_answered) = (0usize, 0usize);
            for j in 0..ingests_per_cycle {
                let key = next_key;
                next_key += 1;
                let u = (cycle as u32 + j as u32 * 5) % world.users;
                let i = (cycle as u32 * 3 + j as u32 * 7) % world.items_n;
                let value = ((cycle as u64 * ingests_per_cycle + j) % 9) as f32 * 0.5 + 0.5;
                let predicted = sim.ingest();
                let r = client
                    .ingest_keyed(key, &[(u, i, value, 0)])
                    .expect("ingest transport");
                let ok = r.get("ok").and_then(Json::as_bool) == Some(true);
                match predicted {
                    Predicted::Acked => {
                        assert!(
                            ok,
                            "cycle {cycle} ingest {j}: sim says acked, wire says {r:?}"
                        );
                        assert_eq!(
                            r.get("duplicate").and_then(Json::as_bool),
                            Some(false),
                            "fresh keys are not duplicates"
                        );
                        acked_epoch += 1;
                        assert_eq!(
                            r.get("epoch").and_then(Json::as_u64),
                            Some(acked_epoch),
                            "cycle {cycle} ingest {j}: epoch mismatch"
                        );
                        // The durable tail folds in *before* this batch.
                        for (cell, v) in tail.drain(..) {
                            committed.insert(cell, v);
                        }
                        committed.insert((u, i), value);
                        acked += 1;
                    }
                    Predicted::RefusedDropped | Predicted::RefusedDurable => {
                        assert!(
                            !ok,
                            "cycle {cycle} ingest {j}: sim says refused, wire says ok"
                        );
                        assert_eq!(
                            r.get("code").and_then(Json::as_str),
                            Some("degraded"),
                            "WAL failures are the typed degraded code: {r:?}"
                        );
                        if predicted == Predicted::RefusedDurable {
                            tail.push(((u, i), value));
                        }
                        refused += 1;
                    }
                }

                // While stalled, reads must be *answered* from the last
                // healthy epoch and annotated — never shed.
                if sim.stalled {
                    degraded_reads += 1;
                    let read = client
                        .query(&group_ids, Some(&item_ids), Some(k))
                        .expect("degraded read");
                    let answered = read.get("ok").and_then(Json::as_bool) == Some(true)
                        && read.get("degraded").and_then(Json::as_bool) == Some(true)
                        && read.get("staleness_ms").and_then(Json::as_u64).is_some()
                        && read.get("epoch").and_then(Json::as_u64) == Some(acked_epoch);
                    if answered {
                        degraded_answered += 1;
                    }
                    let h = client.health().expect("health");
                    assert_eq!(h.get("degraded").and_then(Json::as_bool), Some(true));
                }
            }

            let protocol_errors = server.metrics().protocol_errors.load(Ordering::Relaxed);
            assert_eq!(protocol_errors, 0, "cycle {cycle}: protocol errors");
            handle.shutdown();
            CycleOutcome {
                injected: plan.injected().len(),
                acked,
                refused,
                degraded_reads,
                degraded_answered,
                recovery,
                identical,
                lost,
            }
        });
        assert!(
            outcome.injected >= 1,
            "cycle {cycle}: the scheduled fault must fire"
        );
        outcomes.push(outcome);
        drop(live);
    }

    // ── Final recovery with a clean plan: the survivor the log owes ──
    banner("final recovery: clean replay of the whole history");
    let t0 = Instant::now();
    let (live, report) = LiveEngine::recover(
        &world.pop,
        LiveModel::Raw,
        &world.initial,
        &world.items,
        BuildOptions::default(),
        &dir,
        wal_tuning(None),
    )
    .expect("final recover");
    let final_wall = t0.elapsed();
    assert_eq!(
        live.epoch(),
        acked_epoch,
        "final epoch != last acked publish"
    );
    let expected = matrix_of(&committed, world.users as usize, world.items_n as usize);
    let mut final_lost = 0usize;
    {
        let pin = live.pin();
        for u in 0..world.users {
            if pin.matrix().user_ratings(UserId(u)) != expected.user_ratings(UserId(u)) {
                final_lost += 1;
            }
        }
    }
    let final_group = Group::new(vec![UserId(0), UserId(1), UserId(2)]).expect("group");
    let provider = RawRatings(&expected);
    let cold = GrecaEngine::new(&provider, &world.pop);
    let direct = cold
        .query(&final_group)
        .items(&world.items)
        .top(k)
        .run()
        .expect("cold run");
    let warm = live
        .pin()
        .engine()
        .query(&final_group)
        .items(&world.items)
        .top(k)
        .run()
        .expect("warm run");
    let final_identical = warm == direct;

    let faults_injected: usize = outcomes.iter().map(|o| o.injected).sum();
    let injected_cycles = outcomes.iter().filter(|o| o.injected >= 1).count();
    let total_acked: usize = outcomes.iter().map(|o| o.acked).sum();
    let total_refused: usize = outcomes.iter().map(|o| o.refused).sum();
    let degraded_reads: usize = outcomes.iter().map(|o| o.degraded_reads).sum();
    let degraded_answered: usize = outcomes.iter().map(|o| o.degraded_answered).sum();
    let lost_committed: usize = outcomes.iter().map(|o| o.lost).sum::<usize>() + final_lost;
    let recovered_identical =
        outcomes.iter().all(|o| o.identical) && final_identical && acked_epoch == live.epoch();
    // Cycle 0 is a create, not a recovery.
    let recovery_ms = sorted_ms(outcomes.iter().skip(1).map(|o| o.recovery));
    let replay_records = report.batches_replayed + report.publishes_replayed;
    let replay_per_s = if final_wall.as_secs_f64() > 0.0 {
        replay_records as f64 / final_wall.as_secs_f64()
    } else {
        0.0
    };

    let mut bench = Report::new("chaos");
    bench
        .record("cycles", cycles)
        .record("injected_cycles", injected_cycles)
        .record("faults_injected", faults_injected);
    bench.section("ingests", |s| {
        s.record("acked", total_acked)
            .record("refused", total_refused);
    });
    bench
        .record("lost_committed", lost_committed)
        .record("recovered_identical", recovered_identical);
    bench.section("degraded_reads", |s| {
        s.record("issued", degraded_reads)
            .record("answered", degraded_answered);
    });
    bench.record("final_epoch", acked_epoch);
    bench.section("wal", |s| {
        s.record("records", report.wal.records)
            .record("segments", report.wal.segments)
            .record("bytes", report.wal.bytes_scanned)
            .record("torn_tail_truncations", usize::from(report.wal.torn_tail));
    });
    bench.section("replay", |s| {
        s.record("records", replay_records)
            .record("wall_ms", final_wall.as_secs_f64() * 1e3)
            .record("records_per_s", replay_per_s);
    });
    bench.section("recovery_ms", |s| {
        s.record("p50", percentile(&recovery_ms, 0.5))
            .record("max", recovery_ms.last().copied().unwrap_or(0.0));
    });
    // Every engine this run builds covers the world's users.
    bench.write(Stamp {
        mode: if quick { "quick" } else { "full" },
        build_workers: BuildOptions::default().workers_for(world.users as usize),
        seed: None,
    });
    let _ = std::fs::remove_dir_all(&dir);

    // ── Gates (every run, --quick included) ──────────────────────────
    assert!(
        injected_cycles >= 20,
        "need ≥ 20 fault-injected cycles, got {injected_cycles}"
    );
    assert_eq!(lost_committed, 0, "committed batches were lost");
    assert!(
        recovered_identical,
        "recovered state must equal the ack-log replay bit for bit"
    );
    assert!(
        degraded_reads >= 1,
        "the schedule must open degraded windows"
    );
    assert_eq!(
        degraded_answered, degraded_reads,
        "every degraded-window read must be answered and annotated"
    );
    assert!(
        total_acked >= 1 && total_refused >= 1,
        "the workload must see both acks and refusals"
    );
}
