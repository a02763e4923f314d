//! `serve_load`: a closed-loop, multi-client load harness for the
//! `greca-serve` front-end, emitting `BENCH_serve.json`.
//!
//! Five phases, all against real sockets on an ephemeral port:
//!
//! 1. **Mixed workload** — `CLIENTS` threads in closed loop, each
//!    request drawn per-client-deterministically: mostly queries over a
//!    small pool of *hot* groups (cache exercise), a slice of *cold*
//!    one-shot groups (guaranteed misses), and a trickle of single
//!    rating `ingest`s (epoch swaps that invalidate the cache
//!    mid-flight). Client-side latencies are recorded exactly and split
//!    by verb and by the server's reported cache disposition.
//! 2. **Identity verification** — after the workload quiesces, every
//!    hot group (and fresh cold groups) is asked once more over the
//!    wire and the payload is compared **bit for bit** (item ids, lb/ub
//!    float bits, SA/RA counters, sweeps) against a direct
//!    `PinnedEpoch::engine()` run at the same epoch. `identical` in the
//!    JSON is the AND over all of them.
//! 3. **Survival** — a fresh server warms a pool of overlapping
//!    groups, then one ingest publishes an epoch swap whose dirty set
//!    is *disjoint* from every warm footprint. Every warm entry must
//!    survive (re-stamped to the new epoch), so every re-query must be
//!    a cache hit, and every surviving answer is bit-compared against
//!    a direct engine run at the new epoch.
//! 4. **Subscriptions** — a client `subscribe`s a continuous group
//!    query, then streams rating ingests that touch the group. The
//!    pushed delta frames must carry strictly increasing epochs (zero
//!    stale pushes) and the final pushed state must equal a direct
//!    engine run at the final epoch, bit for bit.
//! 5. **Overload** — a second server with deliberately tight admission
//!    (2 query workers, queue of 8) takes a burst of closed-loop
//!    clients issuing unique-group queries. The acceptance shape: a
//!    healthy overload response sheds (`overloaded` replies > 0) while
//!    the p99 of *accepted* requests stays bounded by queue depth ×
//!    service time — not by how much demand arrived.
//!
//! Gates asserted by the binary (always, including `--quick` — the CI
//! smoke): `identical == true`, zero protocol errors, survivor
//! identity (`survivors_identical == true`), every post-swap re-query
//! of a surviving group a hit, zero stale pushes and a convergent push
//! stream. The full run additionally gates cache-hit p50 ≥ 10× faster
//! than cache-miss p50 and a shedding, bounded-p99 overload phase.
//!
//! Run with: `cargo run -p greca-bench --release --bin serve_load`
//! (pass `--quick` for the small study world and a shorter workload, or
//! `--world <study|10k|100k|1m>` to front a generated worldgen tier
//! instead of the built-in study worlds). Pass `--overlap <frac>` to
//! draw chained groups sharing that fraction of consecutive membership
//! instead of independent random groups — cache-miss queries then
//! exercise the planner's epoch-scoped shared member arena (distinct
//! overlapping groups resolve each member's lists once per epoch).
//! Pass `--seed <u64>` to re-key every client RNG and group draw for a
//! reproducible-but-different CI smoke.

use greca_affinity::PopulationAffinity;
use greca_bench::harness::{banner, percentile, print_row, sorted_ms};
use greca_bench::{PerfSettings, PerfWorld};
use greca_core::{LiveEngine, LiveModel};
use greca_dataset::{Group, ItemId, RatingMatrix, UserId};
use greca_serve::{Client, GrecaServer, Json, ServeConfig};
use greca_worldgen::{GenWorld, Tier};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::io::Write as _;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// One recorded request from a workload client.
struct Sample {
    verb: &'static str,
    /// Cache disposition for queries (`hit`/`miss`/…), `-` otherwise.
    disposition: String,
    latency: Duration,
    ok: bool,
    shed: bool,
}

/// A query line over the provider's default candidate itemset — the
/// production shape: the client names a group, the server resolves
/// what is recommendable (catalog minus the group's rated items).
fn query_body(group: &Group, k: usize) -> Json {
    Json::obj(vec![
        ("verb", Json::str("query")),
        (
            "group",
            Json::Arr(group.members().iter().map(|u| Json::num(u.0)).collect()),
        ),
        ("k", Json::num(k as u32)),
    ])
}

/// Compare one served payload against a direct engine run, bit for bit.
fn payload_identical(response: &Json, direct: &greca_core::TopKResult) -> bool {
    let Some(items) = response.get("items").and_then(Json::as_array) else {
        return false;
    };
    if items.len() != direct.items.len() {
        return false;
    }
    let rows_match = items.iter().zip(&direct.items).all(|(got, want)| {
        got.get("item").and_then(Json::as_u64) == Some(u64::from(want.item.0))
            && got.get("lb").and_then(Json::as_f64).map(f64::to_bits) == Some(want.lb.to_bits())
            && got.get("ub").and_then(Json::as_f64).map(f64::to_bits) == Some(want.ub.to_bits())
    });
    rows_match
        && response.get("sa").and_then(Json::as_u64) == Some(direct.stats.sa)
        && response.get("ra").and_then(Json::as_u64) == Some(direct.stats.ra)
        && response.get("sweeps").and_then(Json::as_u64) == Some(direct.sweeps)
}

#[allow(clippy::too_many_arguments)]
fn mixed_workload(
    addr: std::net::SocketAddr,
    clients: usize,
    requests: usize,
    hot_groups: &[Group],
    cold_groups: &[Vec<Group>],
    items: &[ItemId],
    users: &[UserId],
    k: usize,
    seed: u64,
) -> Vec<Sample> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let cold = &cold_groups[c];
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut rng = StdRng::seed_from_u64(0x10ad ^ seed ^ (c as u64) << 17);
                    let mut samples = Vec::with_capacity(requests);
                    let mut cold_iter = cold.iter().cycle();
                    for r in 0..requests {
                        let roll: f64 = rng.random();
                        let t0 = Instant::now();
                        let (verb, response) = if roll < 0.05 {
                            // A single-rating ingest: rotate through
                            // users × items × star values.
                            let u = users[rng.random_range(0..users.len())];
                            let i = items[rng.random_range(0..items.len())];
                            let value = (r % 5) as f32 + 1.0;
                            (
                                "ingest",
                                client.ingest(&[(u.0, i.0, value, (c * requests + r) as i64)]),
                            )
                        } else {
                            let group = if roll < 0.15 {
                                cold_iter.next().expect("cycle")
                            } else {
                                &hot_groups[rng.random_range(0..hot_groups.len())]
                            };
                            ("query", client.request(&query_body(group, k)))
                        };
                        let latency = t0.elapsed();
                        let response = response.expect("transport");
                        let ok = response.get("ok").and_then(Json::as_bool) == Some(true);
                        let code = response.get("code").and_then(Json::as_str).unwrap_or("");
                        samples.push(Sample {
                            verb,
                            disposition: response
                                .get("cache")
                                .and_then(Json::as_str)
                                .unwrap_or("-")
                                .to_string(),
                            latency,
                            ok,
                            shed: code == "overloaded",
                        });
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// The world behind the server: one of the built-in study worlds, or a
/// generated worldgen tier (`--world <tier>`). Everything downstream —
/// the live engine, the group workloads, the verification phase — goes
/// through this so the serving stack runs unchanged on either.
enum LoadWorld {
    Study(Box<PerfWorld>),
    Gen(Box<GenWorld>),
}

impl LoadWorld {
    fn population(&self) -> &PopulationAffinity {
        match self {
            LoadWorld::Study(pw) => &pw.world().population,
            LoadWorld::Gen(w) => &w.population,
        }
    }

    fn matrix(&self) -> &RatingMatrix {
        match self {
            LoadWorld::Study(pw) => &pw.world().movielens.matrix,
            LoadWorld::Gen(w) => &w.matrix,
        }
    }

    /// The substrate's itemset. For the study worlds this is the full
    /// catalog so every group's default candidate itemset (catalog
    /// minus rated) stays on the warm subset-filter path; generated
    /// worlds serve their Zipf-head serving slice.
    fn items(&self) -> Vec<ItemId> {
        match self {
            LoadWorld::Study(pw) => pw.items(usize::MAX),
            LoadWorld::Gen(w) => w.serving_items(),
        }
    }

    /// Draw `n` groups of `size` cohort users, deterministically in
    /// `seed`. With `overlap` unset, study worlds draw independent
    /// random groups and generated worlds use their overlapping
    /// workload at 0.5 (the cache-friendly sharing shape);
    /// `--overlap <frac>` forces chained membership at that fraction
    /// on either world.
    fn groups(&self, n: usize, size: usize, overlap: Option<f64>, seed: u64) -> Vec<Group> {
        match self {
            LoadWorld::Study(pw) => match overlap {
                Some(f) => {
                    let users = pw.world().study_users();
                    chained_groups(&users, n, size, f, seed)
                }
                None => pw.random_groups(n, size, seed),
            },
            LoadWorld::Gen(w) => w.group_workload(n, size, overlap.unwrap_or(0.5), seed),
        }
    }
}

/// Chained overlapping groups over `users`: consecutive groups keep
/// ~`overlap` of the previous membership (the same shape as worldgen's
/// `group_workload`, for worlds without one). Deterministic in `seed`.
fn chained_groups(users: &[UserId], n: usize, size: usize, overlap: f64, seed: u64) -> Vec<Group> {
    assert!((0.0..=1.0).contains(&overlap), "overlap is a fraction");
    assert!(size >= 2 && size <= users.len(), "group size within cohort");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0e11_a9ed);
    let keep = ((size as f64 * overlap).round() as usize).min(size - 1);
    let mut groups = Vec::with_capacity(n);
    let mut prev: Vec<UserId> = Vec::new();
    for _ in 0..n {
        let mut members: Vec<UserId> = prev.iter().copied().take(keep).collect();
        while members.len() < size {
            let cand = users[rng.random_range(0..users.len())];
            if !members.contains(&cand) {
                members.push(cand);
            }
        }
        prev = members.clone();
        groups.push(Group::new(members).expect("non-empty distinct members"));
    }
    groups
}

/// What the survival phase measured.
struct SurvivalOutcome {
    /// Post-swap re-queries answered from cache.
    hits: usize,
    /// Re-queries issued (one per warm group).
    total: usize,
    /// `cache.survivors` as reported by the server's `stats` verb.
    survivors: u64,
    /// `cache.survival_rate` as reported by the server.
    survival_rate: f64,
    /// AND over bit-comparisons of every post-swap answer against a
    /// direct engine run at the new epoch.
    identical: bool,
}

/// Phase 3: warm `groups` into a fresh server's cache, publish one
/// epoch swap whose dirty set is disjoint from every warm footprint,
/// and re-query. The warm entries survive the swap as hits at the new
/// epoch. Every post-swap answer is bit-compared against direct engine
/// execution at the new epoch.
fn survival_phase(
    live: &LiveEngine,
    groups: &[Group],
    disjoint_user: UserId,
    item: ItemId,
    k: usize,
    world_label: &str,
) -> SurvivalOutcome {
    let server = GrecaServer::bind(
        live,
        ServeConfig {
            world_label: world_label.to_string(),
            ..ServeConfig::default()
        },
    )
    .expect("bind survival");
    let handle = server.handle();
    std::thread::scope(|s| {
        s.spawn(|| server.run());
        let mut client = Client::connect(handle.addr()).expect("connect");
        for group in groups {
            let warm = client.request(&query_body(group, k)).expect("warm query");
            assert_eq!(
                warm.get("ok").and_then(Json::as_bool),
                Some(true),
                "warm query must succeed"
            );
        }
        // One rating from a user outside every warm group: the
        // published dirty set is disjoint from every cached footprint.
        client
            .ingest(&[(disjoint_user.0, item.0, 3.5, 7)])
            .expect("swap ingest");
        let pin = live.pin();
        let engine = pin.engine();
        let (mut hits, mut identical) = (0usize, true);
        for group in groups {
            let served = client.request(&query_body(group, k)).expect("re-query");
            if served.get("cache").and_then(Json::as_str) == Some("hit") {
                hits += 1;
            }
            if served.get("epoch").and_then(Json::as_u64) != Some(pin.epoch()) {
                identical = false;
                continue;
            }
            let direct = engine.query(group).top(k).run().expect("direct run");
            identical &= payload_identical(&served, &direct);
        }
        let stats = client.stats().expect("stats");
        let cache = stats.get("cache").expect("stats.cache");
        let outcome = SurvivalOutcome {
            hits,
            total: groups.len(),
            survivors: cache.get("survivors").and_then(Json::as_u64).unwrap_or(0),
            survival_rate: cache
                .get("survival_rate")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            identical,
        };
        handle.shutdown();
        outcome
    })
}

/// What the subscription phase observed on the wire.
struct SubscriptionOutcome {
    /// Push frames received.
    pushes: usize,
    /// Frames whose epoch failed to strictly increase past the
    /// baseline and every earlier frame (must be 0).
    stale: usize,
    /// The last pushed state equals a direct engine run at the final
    /// epoch, bit for bit.
    convergent: bool,
}

/// Phase 4: subscribe a continuous group query over an explicit
/// itemset, stream rating ingests that touch the group, and audit the
/// pushed delta stream: strictly increasing epochs and bit-identical
/// convergence with direct execution at the final epoch.
fn subscription_phase(
    live: &LiveEngine,
    group: &Group,
    feed: &[ItemId],
    k: usize,
    world_label: &str,
    swaps: usize,
) -> SubscriptionOutcome {
    let server = GrecaServer::bind(
        live,
        ServeConfig {
            world_label: world_label.to_string(),
            ..ServeConfig::default()
        },
    )
    .expect("bind subscriptions");
    let handle = server.handle();
    std::thread::scope(|s| {
        s.spawn(|| server.run());
        let mut client = Client::connect(handle.addr()).expect("connect");
        let members: Vec<u32> = group.members().iter().map(|u| u.0).collect();
        let feed_ids: Vec<u32> = feed.iter().map(|i| i.0).collect();
        let baseline = client
            .subscribe(&members, Some(&feed_ids), Some(k))
            .expect("subscribe");
        assert_eq!(
            baseline.get("ok").and_then(Json::as_bool),
            Some(true),
            "subscribe must succeed"
        );
        let base_epoch = baseline
            .get("epoch")
            .and_then(Json::as_u64)
            .expect("baseline epoch");
        for r in 0..swaps {
            let u = members[r % members.len()];
            let i = feed_ids[r % feed_ids.len()];
            // Non-integral, varying values so consecutive swaps keep
            // moving the scores (and therefore keep producing pushes).
            let value = 1.05 + (r % 8) as f32 * 0.45;
            client.ingest(&[(u, i, value, r as i64)]).expect("ingest");
        }
        // Drain the push stream: the pump coalesces bursts, so wait
        // for silence rather than for one frame per publish.
        let mut frames: Vec<Json> = client.take_pushes();
        while let Some(frame) = client
            .poll_push(Duration::from_millis(400))
            .expect("poll push")
        {
            frames.push(frame);
        }
        let pin = live.pin();
        let direct = pin
            .engine()
            .query(group)
            .items(feed)
            .top(k)
            .run()
            .expect("direct run");
        let mut stale = 0usize;
        let mut prev = base_epoch;
        for frame in &frames {
            let epoch = frame
                .get("epoch")
                .and_then(Json::as_u64)
                .expect("push epoch");
            if epoch <= prev {
                stale += 1;
            }
            prev = epoch;
        }
        // If the last swap left the top-k bit-identical the pump
        // rightly stays quiet, so compare whatever state the client
        // last saw (baseline if nothing ever changed).
        let last_seen = frames.last().unwrap_or(&baseline);
        let outcome = SubscriptionOutcome {
            pushes: frames.len(),
            stale,
            convergent: payload_identical(last_seen, &direct),
        };
        handle.shutdown();
        outcome
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let tier: Option<Tier> = args.windows(2).find(|w| w[0] == "--world").map(|w| {
        Tier::parse(&w[1])
            .unwrap_or_else(|| panic!("unknown tier '{}' (expected study/10k/100k/1m)", w[1]))
    });
    let overlap: Option<f64> = args.windows(2).find(|w| w[0] == "--overlap").map(|w| {
        let f: f64 = w[1]
            .parse()
            .unwrap_or_else(|_| panic!("--overlap takes a fraction, got '{}'", w[1]));
        assert!((0.0..=1.0).contains(&f), "--overlap must be in [0, 1]");
        f
    });
    let seed: u64 = args
        .windows(2)
        .find(|w| w[0] == "--seed")
        .map(|w| {
            w[1].parse()
                .unwrap_or_else(|_| panic!("--seed takes a u64, got '{}'", w[1]))
        })
        .unwrap_or(0);
    banner("serve_load: mixed-workload load harness over greca-serve");
    let (clients, requests, overload_clients) = if quick { (6, 50, 16) } else { (12, 200, 48) };
    let settings = if quick {
        PerfSettings {
            num_items: 600,
            ..PerfSettings::default()
        }
    } else {
        PerfSettings::default()
    };
    let (world, world_label) = match tier {
        Some(t) => (
            LoadWorld::Gen(Box::new(GenWorld::of_tier(t))),
            format!("worldgen:{}", t.name()),
        ),
        None if quick => (
            LoadWorld::Study(Box::new(PerfWorld::build_small())),
            "study_scale".to_string(),
        ),
        None => (
            LoadWorld::Study(Box::new(PerfWorld::build())),
            "scalability_scale".to_string(),
        ),
    };
    let items = world.items();
    let k = settings.k;

    let live = LiveEngine::new(world.population(), LiveModel::Raw, world.matrix(), &items)
        .expect("finite ratings");
    let users: Vec<UserId> = live.pin().substrate().users().to_vec();
    let hot_groups = world.groups(6, settings.group_size, overlap, 0xb07 ^ seed);
    let cold_groups: Vec<Vec<Group>> = (0..clients)
        .map(|c| world.groups(20, settings.group_size, overlap, (0xc01d + c as u64) ^ seed))
        .collect();
    print_row("world", &world_label);
    print_row("seed", seed);
    print_row(
        "overlap",
        overlap.map_or("default".to_string(), |f| format!("{f}")),
    );
    print_row("items", items.len());
    print_row("clients × requests", format!("{clients} × {requests}"));

    // ── Phase 1: mixed workload ──────────────────────────────────────
    let server = GrecaServer::bind(
        &live,
        ServeConfig {
            world_label: world_label.clone(),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let handle = server.handle();
    let (samples, stats_line, verify_identical, protocol_errors) = std::thread::scope(|s| {
        s.spawn(|| server.run());
        let t0 = Instant::now();
        let samples = mixed_workload(
            handle.addr(),
            clients,
            requests,
            &hot_groups,
            &cold_groups,
            &items,
            &users,
            k,
            seed,
        );
        let wall = t0.elapsed();
        print_row(
            "workload wall / throughput",
            format!(
                "{:7.2} s / {:7.0} req/s",
                wall.as_secs_f64(),
                samples.len() as f64 / wall.as_secs_f64()
            ),
        );

        // ── Phase 2: identity verification at the quiesced epoch ────
        let mut client = Client::connect(handle.addr()).expect("connect");
        let verify_groups: Vec<Group> = hot_groups
            .iter()
            .cloned()
            .chain(world.groups(4, settings.group_size, overlap, 0x1d37 ^ seed))
            .collect();
        let pin = live.pin();
        let engine = pin.engine();
        let mut identical = true;
        for group in &verify_groups {
            let served = client.request(&query_body(group, k)).expect("verify query");
            if served.get("epoch").and_then(Json::as_u64) != Some(pin.epoch()) {
                identical = false;
                continue;
            }
            let direct = engine.query(group).top(k).run().expect("direct run");
            identical &= payload_identical(&served, &direct);
        }
        let stats = client.stats().expect("stats");
        let protocol_errors = server.metrics().protocol_errors.load(Ordering::Relaxed);
        handle.shutdown();
        (samples, stats, identical, protocol_errors)
    });

    let query_ms = sorted_ms(
        samples
            .iter()
            .filter(|s| s.verb == "query" && s.ok)
            .map(|s| s.latency),
    );
    let ingest_ms = sorted_ms(
        samples
            .iter()
            .filter(|s| s.verb == "ingest" && s.ok)
            .map(|s| s.latency),
    );
    let hit_ms = sorted_ms(
        samples
            .iter()
            .filter(|s| s.disposition == "hit")
            .map(|s| s.latency),
    );
    let miss_ms = sorted_ms(
        samples
            .iter()
            .filter(|s| s.disposition == "miss")
            .map(|s| s.latency),
    );
    let hit_p50 = percentile(&hit_ms, 0.5);
    let miss_p50 = percentile(&miss_ms, 0.5);
    let hit_speedup = if hit_p50 > 0.0 {
        miss_p50 / hit_p50
    } else {
        0.0
    };
    let cache_json = stats_line.get("cache").expect("stats.cache");
    let hit_rate = cache_json
        .get("hit_rate")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let publishes = stats_line
        .get("metrics")
        .and_then(|m| m.get("publishes_observed"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let memory_total = stats_line
        .get("memory")
        .and_then(|m| m.get("total_bytes"))
        .and_then(Json::as_u64)
        .unwrap_or(0);

    print_row(
        "query p50 / p99",
        format!(
            "{:8.3} ms / {:8.3} ms  (n={})",
            percentile(&query_ms, 0.5),
            percentile(&query_ms, 0.99),
            query_ms.len()
        ),
    );
    print_row(
        "ingest p50 / p99",
        format!(
            "{:8.3} ms / {:8.3} ms  (n={})",
            percentile(&ingest_ms, 0.5),
            percentile(&ingest_ms, 0.99),
            ingest_ms.len()
        ),
    );
    print_row(
        "cache hit p50 vs miss p50",
        format!("{hit_p50:8.3} ms vs {miss_p50:8.3} ms  ({hit_speedup:.1}×)"),
    );
    print_row("cache hit rate", format!("{:.1}%", hit_rate * 100.0));
    print_row("epoch publishes observed", publishes);
    print_row(
        "substrate memory",
        format!("{:.1} MiB", memory_total as f64 / (1024.0 * 1024.0)),
    );
    print_row("identical (served == direct)", verify_identical);
    print_row("protocol errors", protocol_errors);

    // ── Phase 3: cache survival across a disjoint epoch swap ────────
    banner("survival: cache entries across a disjoint epoch swap");
    let survival_groups = world.groups(
        8,
        settings.group_size,
        Some(overlap.unwrap_or(0.5)),
        0x5afe ^ seed,
    );
    let member_union: std::collections::HashSet<UserId> = survival_groups
        .iter()
        .flat_map(|g| g.members().iter().copied())
        .collect();
    let disjoint_user = users
        .iter()
        .copied()
        .find(|u| !member_union.contains(u))
        .expect("a user outside every survival group");
    let survival = survival_phase(
        &live,
        &survival_groups,
        disjoint_user,
        items[0],
        k,
        &world_label,
    );
    print_row(
        "post-swap hits",
        format!("{}/{}", survival.hits, survival.total),
    );
    print_row(
        "survivors / survival rate",
        format!(
            "{} / {:.1}%",
            survival.survivors,
            survival.survival_rate * 100.0
        ),
    );
    print_row("survivors identical", survival.identical);

    // ── Phase 4: continuous queries over the push stream ────────────
    banner("subscriptions: push stream under streaming ingests");
    let sub_swaps = if quick { 8 } else { 24 };
    let feed: Vec<ItemId> = items.iter().copied().take(48).collect();
    let subs = subscription_phase(
        &live,
        &survival_groups[0],
        &feed,
        k.min(feed.len()),
        &world_label,
        sub_swaps,
    );
    print_row(
        "pushes / stale / convergent",
        format!("{} / {} / {}", subs.pushes, subs.stale, subs.convergent),
    );

    // ── Phase 5: overload ────────────────────────────────────────────
    banner("overload: tight admission, unique-group burst");
    let overload_config = ServeConfig {
        query_workers: 2,
        query_queue: 8,
        world_label: world_label.clone(),
        ..ServeConfig::default()
    };
    let (oq_workers, oq_queue) = (overload_config.query_workers, overload_config.query_queue);
    let over_server = GrecaServer::bind(&live, overload_config).expect("bind overload");
    let over_handle = over_server.handle();
    let over_requests = if quick { 10 } else { 25 };
    let over_cold: Vec<Vec<Group>> = (0..overload_clients)
        .map(|c| {
            world.groups(
                over_requests,
                settings.group_size,
                overlap,
                (0x0537 + c as u64) ^ seed,
            )
        })
        .collect();
    let over_samples = std::thread::scope(|s| {
        s.spawn(|| over_server.run());
        let samples = mixed_workload(
            over_handle.addr(),
            overload_clients,
            over_requests,
            // No hot pool: route every query cold so each accepted
            // request costs a kernel run.
            &over_cold[0],
            &over_cold,
            &items,
            &users,
            k,
            seed,
        );
        over_handle.shutdown();
        samples
    });
    let accepted_ms = sorted_ms(
        over_samples
            .iter()
            .filter(|s| s.verb == "query" && s.ok)
            .map(|s| s.latency),
    );
    let shed: usize = over_samples.iter().filter(|s| s.shed).count();
    let over_p50 = percentile(&accepted_ms, 0.5);
    let over_p99 = percentile(&accepted_ms, 0.99);
    // Bounded-p99 criterion: an accepted request can wait behind at
    // most (queue + workers) kernel runs, so p99 must track queue
    // depth × service time, not offered load. 8× headroom over that
    // product absorbs scheduler noise; the absolute floor keeps the
    // tiny quick world from gating on microsecond jitter.
    let p99_bound_ms = (8.0 * (oq_queue + oq_workers) as f64 * miss_p50.max(over_p50)).max(250.0);
    let bounded = over_p99 < p99_bound_ms;
    print_row(
        "overload clients / capacity",
        format!("{overload_clients} / queue {oq_queue} + {oq_workers} workers"),
    );
    print_row(
        "accepted p50 / p99",
        format!("{over_p50:8.3} ms / {over_p99:8.3} ms (bound {p99_bound_ms:.0} ms)"),
    );
    print_row(
        "shed (overloaded replies)",
        format!("{shed} of {}", over_samples.len()),
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"world\": \"{world}\",\n",
            "  \"overlap\": {overlap},\n",
            "  \"clients\": {clients},\n",
            "  \"requests_per_client\": {requests},\n",
            "  \"verbs\": {{\n",
            "    \"query\": {{\"requests\": {qn}, \"p50_ms\": {qp50:.4}, \"p99_ms\": {qp99:.4}}},\n",
            "    \"ingest\": {{\"requests\": {inn}, \"p50_ms\": {ip50:.4}, \"p99_ms\": {ip99:.4}}}\n",
            "  }},\n",
            "  \"cache\": {{\"hit_rate\": {hit_rate:.4}, \"hit_p50_ms\": {hp50:.4}, \"miss_p50_ms\": {mp50:.4}, \"hit_speedup\": {speedup:.1}}},\n",
            "  \"survival\": {{\"groups\": {sgroups}, \"hits\": {shits}, \"survivors\": {survivors}, \"survival_rate\": {survrate:.4}, \"survivors_identical\": {sident}}},\n",
            "  \"subscriptions\": {{\"pushes\": {pushes}, \"stale_pushes\": {stale}, \"convergent\": {convergent}}},\n",
            "  \"epoch_publishes\": {publishes},\n",
            "  \"substrate_total_bytes\": {memory},\n",
            "  \"overload\": {{\"clients\": {oc}, \"queue\": {oq}, \"workers\": {ow}, \"accepted\": {oacc}, \"shed\": {shed}, \"p50_ms\": {op50:.4}, \"p99_ms\": {op99:.4}, \"p99_bound_ms\": {obound:.1}, \"bounded\": {bounded}}},\n",
            "  \"identical\": {identical},\n",
            "  \"protocol_errors\": {perr}\n",
            "}}\n",
        ),
        world = world_label,
        overlap = overlap.map_or("null".to_string(), |f| format!("{f}")),
        clients = clients,
        requests = requests,
        qn = query_ms.len(),
        qp50 = percentile(&query_ms, 0.5),
        qp99 = percentile(&query_ms, 0.99),
        inn = ingest_ms.len(),
        ip50 = percentile(&ingest_ms, 0.5),
        ip99 = percentile(&ingest_ms, 0.99),
        hit_rate = hit_rate,
        hp50 = hit_p50,
        mp50 = miss_p50,
        speedup = hit_speedup,
        sgroups = survival.total,
        shits = survival.hits,
        survivors = survival.survivors,
        survrate = survival.survival_rate,
        sident = survival.identical,
        pushes = subs.pushes,
        stale = subs.stale,
        convergent = subs.convergent,
        publishes = publishes,
        memory = memory_total,
        oc = overload_clients,
        oq = oq_queue,
        ow = oq_workers,
        oacc = accepted_ms.len(),
        shed = shed,
        op50 = over_p50,
        op99 = over_p99,
        obound = p99_bound_ms,
        bounded = bounded,
        identical = verify_identical,
        perr = protocol_errors,
    );
    let path = "BENCH_serve.json";
    std::fs::File::create(path)
        .and_then(|mut f| f.write_all(json.as_bytes()))
        .expect("write BENCH_serve.json");
    println!("\nwrote {path}");

    // The CI gates: every run (quick included) must serve bit-identical
    // results with a clean protocol; the full run additionally gates
    // the cache and overload headlines.
    assert!(
        verify_identical,
        "served results must equal direct engine execution"
    );
    assert_eq!(
        protocol_errors, 0,
        "no protocol errors under the mixed workload"
    );
    assert!(
        survival.identical,
        "post-swap answers (survivors included) must equal direct execution at the new epoch"
    );
    assert!(
        survival.total > 0 && survival.hits == survival.total,
        "every post-swap re-query of a surviving group must hit ({}/{})",
        survival.hits,
        survival.total
    );
    assert_eq!(subs.stale, 0, "push epochs must strictly increase");
    assert!(
        subs.pushes >= 1,
        "streaming ingests that touch the subscribed group must push"
    );
    assert!(
        subs.convergent,
        "the last pushed state must equal direct execution at the final epoch"
    );
    // The performance headlines gate only the calibrated full study
    // run; `--world` tier runs are exploratory capacity probes.
    if !quick && tier.is_none() {
        assert!(
            hit_speedup >= 10.0,
            "cache-hit p50 ({hit_p50:.3} ms) must be ≥10× faster than miss p50 ({miss_p50:.3} ms)"
        );
        assert!(shed > 0, "the overload burst must shed");
        assert!(
            bounded,
            "overload p99 {over_p99:.1} ms exceeds bound {p99_bound_ms:.1} ms"
        );
    }
}
