//! Micro-benchmarks of the relational substrate: projection, grouping,
//! pairwise hash join and semijoin, on random relations of realistic sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;

use ajd_random::generators::random_relation;
use ajd_relation::join::{count_natural_join, natural_join, semijoin};
use ajd_relation::{AttrSet, Relation};

fn make_relation(n: u64, dims: &[u64], seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    random_relation(&mut rng, dims, n).expect("relation fits the domain")
}

fn bench_projection(c: &mut Criterion) {
    let mut group = c.benchmark_group("relation/projection");
    for &n in &[10_000u64, 100_000] {
        let r = make_relation(n, &[64, 64, 64, 64], 1);
        let attrs = AttrSet::from_ids([0u32, 2]);
        group.throughput(Throughput::Elements(n));
        group.bench_with_input(BenchmarkId::from_parameter(n), &r, |b, r| {
            b.iter(|| r.project(&attrs))
        });
    }
    group.finish();
}

fn bench_group_counts(c: &mut Criterion) {
    let mut group = c.benchmark_group("relation/group_counts");
    for &n in &[10_000u64, 100_000] {
        let r = make_relation(n, &[64, 64, 64, 64], 2);
        let attrs = AttrSet::from_ids([1u32, 3]);
        group.throughput(Throughput::Elements(n));
        group.bench_with_input(BenchmarkId::from_parameter(n), &r, |b, r| {
            b.iter(|| r.group_counts(&attrs).unwrap())
        });
    }
    group.finish();
}

fn bench_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("relation/natural_join");
    for &n in &[10_000u64, 50_000] {
        // R(X0, X1) and S(X1, X2): join on the shared attribute X1.
        let r = make_relation(n, &[256, 256], 3);
        let mut rng = StdRng::seed_from_u64(4);
        let s_raw = random_relation(&mut rng, &[256, 256], n).unwrap();
        let mut s = Relation::new(vec![ajd_relation::AttrId(1), ajd_relation::AttrId(2)]).unwrap();
        for row in s_raw.iter_rows() {
            s.push_row(&row).unwrap();
        }
        group.throughput(Throughput::Elements(n));
        group.bench_with_input(BenchmarkId::new("materialised", n), &n, |b, _| {
            b.iter(|| natural_join(&r, &s).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("count_only", n), &n, |b, _| {
            b.iter(|| count_natural_join(&r, &s).unwrap())
        });
    }
    group.finish();
}

fn bench_semijoin(c: &mut Criterion) {
    let mut group = c.benchmark_group("relation/semijoin");
    let n = 50_000u64;
    let r = make_relation(n, &[512, 512], 5);
    let s = make_relation(n / 4, &[512, 512], 6);
    group.throughput(Throughput::Elements(n));
    group.bench_function("semijoin_50k", |b| b.iter(|| semijoin(&r, &s).unwrap()));
    group.finish();
}

criterion_group!(
    benches,
    bench_projection,
    bench_group_counts,
    bench_join,
    bench_semijoin
);
criterion_main!(benches);
