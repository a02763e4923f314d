//! `group_overlap`: the batch planner under overlapping-group waves,
//! emitting `BENCH_overlap.json` — one row per worldgen tier.
//!
//! Per tier the binary builds the warm substrate, then times two waves
//! through [`greca_core::run_batch`], planner **off** vs planner **on**.
//! Both arms run on the same executor with the same workers. Planner
//! off gives every query its own clone of the engine: the planner
//! partitions a wave by engine identity, so each query then gets its
//! own member arena and nothing is deduplicated. Planner on sends the
//! whole wave to one engine.
//!
//! * **high overlap** — `WAVE_GROUPS` chained groups sharing ~80 % of
//!   consecutive membership, each repeated `REPEATS` times (the
//!   serving shape: the same group asks again, its neighbors overlap).
//!   Dedup collapses the repeats; the shared member arena collapses
//!   the overlap.
//! * **zero overlap** — member-disjoint groups, nothing shareable. The
//!   planned wave pays the analysis and one shared arena for nothing,
//!   so its latency must track planner off.
//!
//! Queries run over a *subset* itemset (half the serving head), which
//! routes warm preparation through the per-member filter pass — the
//! work the arena exists to share across distinct groups.
//!
//! Gates asserted by the binary:
//!
//! * planned waves are **bit-identical** to planner-off waves at every
//!   tier (full `TopKResult` + summed-stats equality);
//! * the planned high-overlap wave is **≥ 1.5× faster** (min-of-rounds
//!   wall time; relaxed to "not slower" under `--quick`, where study-
//!   tier waves finish in microseconds and timer noise dominates);
//! * the planned zero-overlap wave regresses **≤ 5 %** plus a 0.25 ms
//!   absolute allowance — wave analysis is O(wave) and constant-tiny,
//!   but sub-2 ms waves put 5 % inside timer noise (≤ 25 % under
//!   `--quick`, same caveat).
//!
//! Modes: `--quick` runs the study tier (the CI smoke), the default
//! adds 10k, `--full` adds 100k.
//!
//! Run with: `cargo run -p greca-bench --release --bin group_overlap`

use greca_bench::harness::{banner, Report, Section, Stamp};
use greca_core::{run_batch, BatchResult, BuildOptions, GrecaEngine, GroupQuery, Substrate};
use greca_dataset::{Group, ItemId, UserId};
use greca_worldgen::{GenWorld, Tier, DEFAULT_SEED};
use std::sync::Arc;
use std::time::Instant;

/// Distinct groups per wave.
const WAVE_GROUPS: usize = 12;
/// Members per group.
const GROUP_SIZE: usize = 6;
/// Times each distinct group repeats within the high-overlap wave.
const REPEATS: usize = 4;
/// Membership overlap between consecutive high-overlap groups.
const OVERLAP: f64 = 0.8;
/// Timed rounds per (wave, planner setting); min is reported.
const ROUNDS: usize = 5;

/// One top-10 query per group over `items` at `period`; query `i` runs
/// on `engines[i % engines.len()]`.
fn wave<'q>(
    engines: &'q [GrecaEngine<'q>],
    groups: &[&'q Group],
    items: &'q [ItemId],
    period: usize,
) -> Vec<GroupQuery<'q>> {
    groups
        .iter()
        .enumerate()
        .map(|(i, g)| {
            engines[i % engines.len()]
                .query(g)
                .items(items)
                .period(period)
                .top(10)
        })
        .collect()
}

/// Minimum wall time (ms) for the wave over [`ROUNDS`] rounds.
fn time_wave(queries: &[GroupQuery<'_>]) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        let batch = run_batch(queries);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(batch);
        best = best.min(ms);
    }
    best
}

/// Full wave equality: per-query results and summed stats.
fn waves_identical(off: &BatchResult, on: &BatchResult) -> bool {
    off.results == on.results && off.stats == on.stats
}

/// Measure one tier into `row` and assert its gates (see the module
/// docs; `quick` loosens the timing gates). Returns the workers the
/// tier's substrate build ran with.
fn measure(tier: Tier, quick: bool, row: &mut Section) -> usize {
    banner(&format!("tier {tier}"));
    let world = GenWorld::of_tier(tier);
    let spec = world.spec;
    let items = world.serving_items();
    let provider = world.provider();
    let (eager, lazy) = world.substrate_users();
    let substrate = Arc::new(
        Substrate::build_with(
            &provider,
            &world.population,
            &items,
            &eager,
            &lazy,
            BuildOptions::default(),
        )
        .expect("generated scores are finite"),
    );
    let engine = GrecaEngine::with_substrate(&provider, &world.population, substrate);
    // Planner off: one engine clone per query of the larger wave.
    let clones: Vec<GrecaEngine<'_>> = (0..WAVE_GROUPS * REPEATS).map(|_| engine.clone()).collect();
    let shared = std::slice::from_ref(&engine);
    // Half the serving head: warm preparation takes the subset-filter
    // path, whose per-member pass is what the arena shares.
    let subset: Vec<ItemId> = items[..items.len() / 2].to_vec();
    let last_period = spec.num_periods - 1;

    // ── High-overlap wave: chained groups × repeats ──────────────────
    let groups = world.group_workload(WAVE_GROUPS, GROUP_SIZE, OVERLAP, 0xA11);
    let high_groups: Vec<&Group> = (0..REPEATS).flat_map(|_| &groups).collect();
    let high_off = wave(&clones, &high_groups, &subset, last_period);
    let high_on = wave(shared, &high_groups, &subset, last_period);

    // ── Zero-overlap wave: member-disjoint cohort chunks ─────────────
    let disjoint: Vec<Group> = (0..(spec.cohort / GROUP_SIZE).min(WAVE_GROUPS))
        .map(|g| {
            let base = (g * GROUP_SIZE) as u32;
            Group::new((base..base + GROUP_SIZE as u32).map(UserId).collect())
                .expect("distinct chunked members")
        })
        .collect();
    let zero_groups: Vec<&Group> = disjoint.iter().collect();
    let zero_off = wave(&clones, &zero_groups, &subset, last_period);
    let zero_on = wave(shared, &zero_groups, &subset, last_period);

    // Identity first (also warms the substrate's lazy state so the
    // timed rounds compare steady-state execution).
    let (high_off_run, high_on_run) = (run_batch(&high_off), run_batch(&high_on));
    let (zero_off_run, zero_on_run) = (run_batch(&zero_off), run_batch(&zero_on));
    let identical = waves_identical(&high_off_run, &high_on_run)
        && waves_identical(&zero_off_run, &zero_on_run);
    for off in [&high_off_run.plan, &zero_off_run.plan] {
        assert!(
            off.dedup_hits == 0 && off.reused_members == 0,
            "engine clones must share nothing"
        );
    }
    let plan = high_on_run.plan;
    assert!(plan.reused_members > 0, "high-overlap wave must share");
    assert_eq!(
        zero_on_run.plan.reused_members, 0,
        "zero-overlap wave has nothing to share"
    );
    let off_high_ms = time_wave(&high_off);
    let on_high_ms = time_wave(&high_on);
    let speedup_high = off_high_ms / on_high_ms.max(1e-9);
    let off_zero_ms = time_wave(&zero_off);
    let on_zero_ms = time_wave(&zero_on);
    row.record("tier", tier.name())
        .record("users", spec.num_users)
        .record("wave", plan.wave)
        .record("unique_queries", plan.unique_queries)
        .record("dedup_hits", plan.dedup_hits)
        .record("shared_member_ratio", plan.shared_member_ratio())
        .record("reused_prefix_items", plan.reused_prefix_items)
        .record("off_high_ms", off_high_ms)
        .record("on_high_ms", on_high_ms)
        .record("speedup_high", speedup_high)
        .record("off_zero_ms", off_zero_ms)
        .record("on_zero_ms", on_zero_ms)
        .record("ratio_zero", on_zero_ms / off_zero_ms.max(1e-9))
        .record("identical", identical);

    // Quick mode keeps the identity gate absolute but loosens the
    // timing gates: study-tier waves are microsecond-scale and shared
    // CI runners add noise.
    let (min_speedup, max_zero_ratio) = if quick { (1.0, 1.25) } else { (1.5, 1.05) };
    assert!(
        identical,
        "tier {tier}: planned waves must be bit-identical to planner-off waves"
    );
    assert!(
        speedup_high >= min_speedup,
        "tier {tier}: high-overlap wave must be ≥{min_speedup:.2}× faster planned (got {speedup_high:.2}×)"
    );
    // Relative bound plus a small absolute allowance: on a shareless
    // wave the planner's analysis costs O(wave) key hashing and the
    // shared arena one lock per member — far below 0.25 ms — while
    // sub-2 ms waves put a bare 5 % bound inside timer noise.
    let allowed_zero_ms = off_zero_ms * max_zero_ratio + 0.25;
    assert!(
        on_zero_ms <= allowed_zero_ms,
        "tier {tier}: zero-overlap wave must not regress beyond {max_zero_ratio:.2}×+0.25ms (got {on_zero_ms:.3} ms vs {allowed_zero_ms:.3} ms allowed)"
    );
    BuildOptions::default().workers_for(eager.len())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let full = args.iter().any(|a| a == "--full");
    assert!(
        !(quick && full),
        "--quick and --full are mutually exclusive"
    );
    let (mode, tiers): (&str, &[Tier]) = if quick {
        ("quick", &[Tier::Study])
    } else if full {
        ("full", &[Tier::Study, Tier::Users10k, Tier::Users100k])
    } else {
        ("default", &[Tier::Study, Tier::Users10k])
    };
    banner(&format!("group_overlap: batch planner on vs off ({mode})"));

    let mut report = Report::new("overlap");
    report
        .record("wave_groups", WAVE_GROUPS)
        .record("repeats", REPEATS)
        .record("overlap", OVERLAP);
    let build_workers = tiers
        .iter()
        .map(|&t| report.row("rows", |row| measure(t, quick, row)))
        .min()
        .unwrap_or(0);
    // Every tier builds with `workers_for(eager users)`; the smallest
    // count is the one all tiers share once each has at least as many
    // users as threads.
    report.write(Stamp {
        mode,
        build_workers,
        seed: Some(DEFAULT_SEED),
    });
}
