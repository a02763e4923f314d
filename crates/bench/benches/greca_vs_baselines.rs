//! Wall-clock comparison of GRECA against the TA and naive baselines on
//! a fixed prepared group (complements the access-count figures: GRECA's
//! saveup must also show up as time, not just avoided reads).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use greca_bench::baselines::{naive_topk, ta_topk};
use greca_bench::{PerfSettings, PerfWorld};
use std::hint::black_box;

fn bench_algorithms(c: &mut Criterion) {
    let pw = PerfWorld::build_small();
    let cf = pw.cf();
    let settings = PerfSettings {
        num_items: 600,
        ..PerfSettings::default()
    };
    let group = pw.random_groups(1, 6, 7)[0].clone();
    let prepared = pw.prepare_group(&cf, &group, &settings);

    let mut g = c.benchmark_group("topk_algorithms");
    for k in [5usize, 10] {
        let prepared = prepared.clone().top(k);
        g.bench_with_input(BenchmarkId::new("greca", k), &k, |b, _| {
            b.iter(|| black_box(prepared.run()))
        });
        g.bench_with_input(BenchmarkId::new("ta", k), &k, |b, _| {
            b.iter(|| black_box(ta_topk(&prepared)))
        });
        g.bench_with_input(BenchmarkId::new("naive", k), &k, |b, _| {
            b.iter(|| black_box(naive_topk(&prepared)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_algorithms);
criterion_main!(benches);
