//! `obs_overhead`: the observability layer's cost-and-correctness
//! gate, emitting `BENCH_obs.json`.
//!
//! Tracing is *always on* in production (the flight recorder has no
//! sampling switch), so its cost has to be provably negligible and its
//! presence provably inert. Three phases against one real server:
//!
//! 1. **Overhead** — a warm hot-group pool is queried in alternating
//!    blocks with the recorder disabled (`obs::set_enabled(false)`)
//!    and enabled, interleaved round-robin so machine drift hits both
//!    modes equally. The headline is warm-query (cache-hit) p50 per
//!    mode: the hit path is the cheapest request the server serves, so
//!    it bounds tracing overhead from above — every span open, phase
//!    stamp, and ring write lands on a request that does almost
//!    nothing else.
//! 2. **Identity** — fresh cold groups are queried over the wire with
//!    tracing ON (cache misses: each costs a real kernel run under
//!    full span/phase instrumentation) and compared bit for bit (item
//!    ids, lb/ub float bits, SA/RA counters, sweeps) against direct
//!    `PinnedEpoch::engine()` runs executed with tracing OFF.
//!    `identical` in the JSON is the AND over all of them: tracing
//!    must never perturb what the kernel computes.
//! 3. **Trace roundtrip** — one traced query's id, echoed in its
//!    response, must retrieve the span's end-to-end cost attribution
//!    (admit/cache/prepare/kernel/serialize plus SA/RA matching the
//!    response's own counts) via the `trace` verb.
//!
//! Gates asserted by the binary (always, including `--quick` — the CI
//! smoke): `identical == true`, a successful trace roundtrip, and
//! warm-query p50 overhead ≤ 5% (with a small absolute floor so the
//! gate measures tracing, not microsecond scheduler jitter on a
//! near-zero baseline).
//!
//! Run with: `cargo run -p greca-bench --release --bin obs_overhead`
//! (pass `--quick` for the small study world and shorter blocks, or
//! `--seed <u64>` to re-key the group draws).

use greca_bench::harness::{banner, percentile, sorted_ms, Report, Stamp};
use greca_bench::{PerfSettings, PerfWorld};
use greca_core::{obs, BuildOptions, LiveEngine, LiveModel};
use greca_dataset::Group;
use greca_serve::{Client, GrecaServer, Json, ServeConfig};
use std::time::{Duration, Instant};

fn member_ids(group: &Group) -> Vec<u32> {
    group.members().iter().map(|u| u.0).collect()
}

/// One measurement block: every hot group queried `rounds` times, all
/// answers expected warm (cache hits at the pinned epoch). Returns the
/// per-request latencies and how many were actually hits.
fn warm_block(
    client: &mut Client,
    hot: &[Vec<u32>],
    k: usize,
    rounds: usize,
) -> (Vec<Duration>, usize) {
    let mut latencies = Vec::with_capacity(hot.len() * rounds);
    let mut hits = 0usize;
    for _ in 0..rounds {
        for group in hot {
            let t0 = Instant::now();
            let response = client.query(group, None, Some(k)).expect("warm query");
            latencies.push(t0.elapsed());
            assert_eq!(
                response.get("ok").and_then(Json::as_bool),
                Some(true),
                "warm query must succeed: {response:?}"
            );
            if response.get("cache").and_then(Json::as_str) == Some("hit") {
                hits += 1;
            }
        }
    }
    (latencies, hits)
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

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let seed: u64 = args
        .windows(2)
        .find(|w| w[0] == "--seed")
        .map(|w| {
            w[1].parse()
                .unwrap_or_else(|_| panic!("--seed takes a u64, got '{}'", w[1]))
        })
        .unwrap_or(0);
    banner("obs_overhead: tracing cost and identity over greca-serve");
    let settings = if quick {
        PerfSettings {
            num_items: 600,
            ..PerfSettings::default()
        }
    } else {
        PerfSettings::default()
    };
    // Alternating off/on blocks per round; total warm samples per mode
    // is hot_pool × rounds_per_block × alternations.
    let (hot_pool, rounds_per_block, alternations, cold_n) =
        if quick { (6, 8, 4, 6) } else { (8, 24, 8, 16) };
    let (world, world_label) = if quick {
        (PerfWorld::build_small(), "study_scale")
    } else {
        (PerfWorld::build(), "scalability_scale")
    };
    let items = world.items(settings.num_items);
    let k = settings.k;
    let live = LiveEngine::new(
        &world.world().population,
        LiveModel::Raw,
        &world.world().movielens.matrix,
        &items,
    )
    .expect("finite ratings");

    let hot: Vec<Vec<u32>> = world
        .random_groups(hot_pool, settings.group_size, 0x0b5 ^ seed)
        .iter()
        .map(member_ids)
        .collect();
    let cold_groups = world.random_groups(cold_n, settings.group_size, 0xc01d ^ seed);

    let server = GrecaServer::bind(
        &live,
        ServeConfig {
            world_label: world_label.to_string(),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let handle = server.handle();

    let outcome = std::thread::scope(|s| {
        s.spawn(|| server.run());
        let mut client = Client::connect(handle.addr()).expect("connect");

        // ── Phase 1: warm-query overhead, recorder off vs on ────────
        // Warm the pool with tracing on (its production state), then
        // alternate measured blocks so drift cancels across modes.
        obs::set_enabled(true);
        let (_, _) = warm_block(&mut client, &hot, k, 1);
        let mut off = Vec::new();
        let mut on = Vec::new();
        let mut hits = 0usize;
        let mut total = 0usize;
        for _ in 0..alternations {
            obs::set_enabled(false);
            let (lat, h) = warm_block(&mut client, &hot, k, rounds_per_block);
            hits += h;
            total += lat.len();
            off.extend(lat);
            obs::set_enabled(true);
            let (lat, h) = warm_block(&mut client, &hot, k, rounds_per_block);
            hits += h;
            total += lat.len();
            on.extend(lat);
        }
        let warm_hit_rate = hits as f64 / total as f64;

        // ── Phase 2: traced kernel runs vs untraced direct runs ─────
        // Cold groups miss the cache: each served answer is a fresh
        // kernel run under full instrumentation. The direct baseline
        // runs with tracing disabled — any divergence would mean the
        // observability layer leaks into the computation.
        let pin = live.pin();
        let engine = pin.engine();
        let mut identical = true;
        for group in &cold_groups {
            obs::set_enabled(true);
            let served = client
                .query(&member_ids(group), None, Some(k))
                .expect("cold query");
            if served.get("epoch").and_then(Json::as_u64) != Some(pin.epoch()) {
                identical = false;
                continue;
            }
            obs::set_enabled(false);
            let direct = engine.query(group).top(k).run().expect("direct run");
            identical &= payload_identical(&served, &direct);
        }
        obs::set_enabled(true);

        // ── Phase 3: end-to-end trace roundtrip ─────────────────────
        const TRACE: u64 = 0x0b5_0b5_0b5;
        let fresh = world.random_groups(1, settings.group_size, 0x7ace ^ seed);
        let response = client
            .query_traced(&member_ids(&fresh[0]), None, Some(k), TRACE)
            .expect("traced query");
        let echoed = response.get("trace").and_then(Json::as_u64) == Some(TRACE);
        let dump = client.trace_dump(Some(TRACE), false).expect("trace dump");
        let span = dump
            .get("spans")
            .and_then(Json::as_array)
            .and_then(|s| s.first().cloned());
        let roundtrip = echoed
            && span.as_ref().is_some_and(|span| {
                let phases = span.get("phases");
                let phase_us = |name: &str| {
                    phases
                        .and_then(|p| p.get(name))
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0)
                };
                span.get("kind").and_then(Json::as_str) == Some("query")
                    && span.get("sa").and_then(Json::as_u64)
                        == response.get("sa").and_then(Json::as_u64)
                    && span.get("ra").and_then(Json::as_u64)
                        == response.get("ra").and_then(Json::as_u64)
                    && phase_us("kernel_us") > 0.0
                    && phase_us("serialize_us") > 0.0
            });
        handle.shutdown();
        (off, on, warm_hit_rate, identical, roundtrip)
    });
    let (off, on, warm_hit_rate, identical, roundtrip) = outcome;

    let off_ms = sorted_ms(off);
    let on_ms = sorted_ms(on);
    let off_p50 = percentile(&off_ms, 0.5);
    let on_p50 = percentile(&on_ms, 0.5);
    let delta_ms = on_p50 - off_p50;
    let overhead_pct = if off_p50 > 0.0 {
        delta_ms / off_p50 * 100.0
    } else {
        0.0
    };
    // The 5% gate, with an absolute floor: on a sub-100µs hit path a
    // few microseconds of scheduler jitter can masquerade as percents,
    // and tracing's real cost (one span open, a handful of phase
    // stamps, one seqlock ring write) is far below the floor.
    let overhead_ok = overhead_pct <= 5.0 || delta_ms <= 0.010;
    let totals = obs::recorder().totals();

    let mut report = Report::new("obs");
    report
        .record("world", world_label)
        .record("samples_per_mode", off_ms.len())
        .record("warm_p50_off_ms", off_p50)
        .record("warm_p50_on_ms", on_p50)
        .record("warm_p99_off_ms", percentile(&off_ms, 0.99))
        .record("warm_p99_on_ms", percentile(&on_ms, 0.99))
        .record("warm_hit_rate", warm_hit_rate)
        .record("overhead_pct", overhead_pct)
        .record("overhead_delta_us", delta_ms * 1e3)
        .record("overhead_ok", overhead_ok)
        .record("cold_groups_verified", cold_n)
        .record("identical", identical)
        .record("trace_roundtrip", roundtrip)
        .record("spans_recorded", totals.spans.iter().sum::<u64>())
        .record("slow_spans", totals.slow);
    // The live engine builds with the default options over the universe.
    report.write(Stamp {
        mode: if quick { "quick" } else { "full" },
        build_workers: BuildOptions::default()
            .workers_for(world.world().population.universe().len()),
        seed: Some(seed),
    });

    // The CI gates — every run, quick included.
    assert!(
        identical,
        "kernel results must be bit-identical with tracing on vs off"
    );
    assert!(
        roundtrip,
        "a traced query's attribution must be retrievable end-to-end via the trace verb"
    );
    assert!(
        overhead_ok,
        "tracing overhead {overhead_pct:+.2}% ({:+.1} µs) exceeds the 5% gate",
        delta_ms * 1e3
    );
}
