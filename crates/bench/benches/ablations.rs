//! Ablation benches for three design choices of the reproduction:
//!
//! * **stopping rule** — GRECA's buffer condition vs threshold-only vs
//!   no early stop (the paper's key novelty, §3.2);
//! * **affinity list layout** — the paper's decomposed `n−1` lists vs a
//!   single combined list (§3.1);
//! * **incremental index** — appending one period vs rebuilding the
//!   whole population index (§1's maintenance claim).
//!
//! The stopping-check cadence is not ablated: the kernel runs one
//! cadence, a check whenever the reads since the previous one reach the
//! live items it visits (`greca_core::greca` module docs).
//! `greca_kernel` reports its latency, SA% and checks per stopping rule.

use criterion::{criterion_group, criterion_main, Criterion};
use greca_affinity::{PopulationAffinity, SocialAffinitySource};
use greca_bench::{PerfSettings, PerfWorld};
use greca_core::{GrecaEngine, ListLayout, StoppingRule};
use greca_dataset::UserId;
use std::hint::black_box;

fn bench_stopping_rules(c: &mut Criterion) {
    let pw = PerfWorld::build_small();
    let cf = pw.cf();
    let settings = PerfSettings {
        num_items: 500,
        ..PerfSettings::default()
    };
    let group = pw.random_groups(1, 6, 11)[0].clone();
    let prepared = pw.prepare_group(&cf, &group, &settings);

    let mut g = c.benchmark_group("ablation_stopping");
    for (name, rule) in [
        ("buffer(greca)", StoppingRule::Greca),
        ("threshold_only", StoppingRule::ThresholdOnly),
        ("exhaustive", StoppingRule::Exhaustive),
    ] {
        let prepared = prepared.clone().stopping(rule);
        g.bench_function(name, |b| b.iter(|| black_box(prepared.run())));
    }
    g.finish();
}

fn bench_list_layout(c: &mut Criterion) {
    let pw = PerfWorld::build_small();
    let cf = pw.cf();
    let settings = PerfSettings {
        num_items: 500,
        ..PerfSettings::default()
    };
    let group = pw.random_groups(1, 6, 13)[0].clone();
    let items = pw.items(settings.num_items);
    let engine = GrecaEngine::new(&cf, &pw.world().population);

    let mut g = c.benchmark_group("ablation_layout");
    for (name, layout) in [
        ("decomposed", ListLayout::Decomposed),
        ("single", ListLayout::Single),
    ] {
        let prepared = engine
            .query(&group)
            .items(&items)
            .affinity(settings.mode)
            .layout(layout)
            .normalize_rpref(false)
            .prepare()
            .expect("valid layout-ablation query");
        g.bench_function(name, |b| b.iter(|| black_box(prepared.run())));
    }
    g.finish();
}

fn bench_incremental_index(c: &mut Criterion) {
    let pw = PerfWorld::build_small();
    let world = pw.world();
    let source = SocialAffinitySource::new(&world.social);
    let universe: Vec<UserId> = world.study_users();
    let timeline = &world.timeline;
    let all_but_last: Vec<_> = timeline.periods()[..timeline.num_periods() - 1].to_vec();
    let last = *timeline.periods().last().expect("non-empty timeline");

    let mut g = c.benchmark_group("ablation_incremental");
    // Incremental: one append on top of a prebuilt prefix.
    let mut prefix = PopulationAffinity::new_static_only(&source, &universe);
    for &p in &all_but_last {
        prefix.append_period(&source, p);
    }
    g.bench_function("append_one_period", |b| {
        b.iter_with_setup(
            || prefix.clone(),
            |mut idx| {
                idx.append_period(&source, last);
                black_box(idx)
            },
        )
    });
    // Full recompute of every period from scratch.
    g.bench_function("rebuild_all_periods", |b| {
        b.iter(|| black_box(PopulationAffinity::build(&source, &universe, timeline)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_stopping_rules,
    bench_list_layout,
    bench_incremental_index
);
criterion_main!(benches);
