//! Micro-benchmarks of the substrates underneath GRECA: CF fitting and
//! prediction, preference-list construction, and the affinity index.

use criterion::{criterion_group, criterion_main, Criterion};
use greca_affinity::{PopulationAffinity, SocialAffinitySource};
use greca_cf::{preference_list, CfConfig, UserCfModel};
use greca_dataset::{ItemId, MovieLensConfig, SocialConfig, Timeline, UserId};
use std::hint::black_box;

fn bench_cf(c: &mut Criterion) {
    let ml = MovieLensConfig::small().generate();
    let mut g = c.benchmark_group("cf");
    g.bench_function("fit_200_users", |b| {
        b.iter(|| black_box(UserCfModel::fit(&ml.matrix, CfConfig::default())))
    });
    let model = UserCfModel::fit(&ml.matrix, CfConfig::default());
    g.bench_function("predict_one", |b| {
        b.iter(|| black_box(model.predict(UserId(3), ItemId(17))))
    });
    let items: Vec<ItemId> = ml.matrix.items().collect();
    g.bench_function("preference_list_400_items", |b| {
        b.iter(|| black_box(preference_list(&model, UserId(3), &items)))
    });
    g.finish();
}

fn bench_affinity(c: &mut Criterion) {
    let net = SocialConfig::paper_scale().generate();
    let source = SocialAffinitySource::new(&net);
    let universe: Vec<UserId> = net.users().collect();
    let tl = Timeline::paper_default();
    let mut g = c.benchmark_group("affinity");
    g.bench_function("build_population_index", |b| {
        b.iter(|| black_box(PopulationAffinity::build(&source, &universe, &tl)))
    });
    let pop = PopulationAffinity::build(&source, &universe, &tl);
    let group = greca_dataset::Group::new(universe[..6].to_vec()).expect("six users");
    g.bench_function("group_view", |b| {
        b.iter(|| {
            black_box(pop.group_view(
                &group,
                tl.num_periods() - 1,
                greca_affinity::AffinityMode::Discrete,
            ))
        })
    });
    g.finish();
}

fn bench_generators(c: &mut Criterion) {
    let mut g = c.benchmark_group("generators");
    g.sample_size(10);
    g.bench_function("movielens_small", |b| {
        b.iter(|| black_box(MovieLensConfig::small().generate()))
    });
    g.bench_function("social_paper_scale", |b| {
        b.iter(|| black_box(SocialConfig::paper_scale().generate()))
    });
    g.finish();
}

criterion_group!(benches, bench_cf, bench_affinity, bench_generators);
criterion_main!(benches);
