//! Criterion wall-clock benches over the same workloads as the experiment
//! tables of `paper_tables` (one group per table/figure family).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use dsf_baselines::khan::{solve_khan, KhanConfig};
use dsf_baselines::solve_collect_at_root;
use dsf_congest::CongestConfig;
use dsf_core::det::{solve_deterministic, solve_growth, DetConfig, GrowthConfig};
use dsf_core::randomized::{solve_randomized, RandConfig};
use dsf_embed::{distributed::le_lists_distributed, random_ranks, Embedding, EmbeddingConfig};
use dsf_graph::generators;
use dsf_lower_bounds::measure_ic_gadget;
use dsf_steiner::{exact, moat, random_instance};

/// E1/E2 — centralized moat growing and the exact oracle.
fn bench_centralized(c: &mut Criterion) {
    let mut group = c.benchmark_group("centralized_moat");
    group.sample_size(20);
    for &n in &[16usize, 32, 64] {
        let g = generators::gnp_connected(n, 0.2, 12, 1);
        let inst = random_instance(&g, 3, 2, 2);
        group.bench_with_input(BenchmarkId::new("algorithm1", n), &n, |b, _| {
            b.iter(|| moat::grow(&g, &inst))
        });
    }
    let g = generators::gnp_connected(14, 0.3, 10, 1);
    let inst = random_instance(&g, 3, 2, 2);
    group.bench_function("exact_oracle_n14_k3", |b| {
        b.iter(|| exact::solve(&g, &inst))
    });
    group.finish();
}

/// E3 — the deterministic distributed algorithm (simulated).
fn bench_det_distributed(c: &mut Criterion) {
    let mut group = c.benchmark_group("det_distributed");
    group.sample_size(10);
    for &k in &[1usize, 2, 4] {
        let g = generators::grid(4, 6, 6, 9);
        let inst = random_instance(&g, k, 2, 5);
        group.bench_with_input(BenchmarkId::new("grid4x6_k", k), &k, |b, _| {
            b.iter(|| solve_deterministic(&g, &inst, &DetConfig::default()).unwrap())
        });
    }
    group.finish();
}

/// E12 — growth-phase variant.
fn bench_growth(c: &mut Criterion) {
    let mut group = c.benchmark_group("growth_phases");
    group.sample_size(10);
    let g = generators::caterpillar(8, 2, 4, 3);
    let inst = random_instance(&g, 3, 2, 3);
    group.bench_function("caterpillar_k3", |b| {
        b.iter(|| solve_growth(&g, &inst, &GrowthConfig::default()).unwrap())
    });
    group.finish();
}

/// E4/E5 — randomized algorithm vs the \[14\] baseline.
fn bench_randomized_vs_khan(c: &mut Criterion) {
    let mut group = c.benchmark_group("rand_vs_khan");
    group.sample_size(10);
    let g = generators::gnp_connected(28, 0.15, 10, 5);
    let inst = random_instance(&g, 4, 2, 1);
    group.bench_function("randomized_k4", |b| {
        b.iter(|| {
            solve_randomized(
                &g,
                &inst,
                &RandConfig {
                    seed: 2,
                    repetitions: 1,
                    force_truncation: Some(false),
                    ..RandConfig::default()
                },
            )
            .unwrap()
        })
    });
    group.bench_function("khan_k4", |b| {
        b.iter(|| {
            solve_khan(
                &g,
                &inst,
                &KhanConfig {
                    seed: 2,
                    repetitions: 1,
                },
            )
            .unwrap()
        })
    });
    group.bench_function("collect_at_root", |b| {
        b.iter(|| solve_collect_at_root(&g, &inst).unwrap())
    });
    group.finish();
}

/// E5b/E6 — embedding construction, centralized and in CONGEST.
fn bench_embedding(c: &mut Criterion) {
    let mut group = c.benchmark_group("embedding");
    group.sample_size(10);
    for &n in &[32usize, 64] {
        let g = generators::gnp_connected(n, 3.0 / n as f64, 12, 3);
        group.bench_with_input(BenchmarkId::new("build", n), &n, |b, _| {
            b.iter(|| Embedding::build(&g, &EmbeddingConfig::new(11)))
        });
        let ranks = random_ranks(n, 11);
        let cfg = CongestConfig::for_graph(&g);
        group.bench_with_input(BenchmarkId::new("le_lists_congest", n), &n, |b, _| {
            b.iter(|| le_lists_distributed(&g, &ranks, &cfg).unwrap())
        });
    }
    group.finish();
}

/// E10 — lower-bound gadget pipeline.
fn bench_gadgets(c: &mut Criterion) {
    let mut group = c.benchmark_group("lower_bound_gadgets");
    group.sample_size(10);
    group.bench_function("ic_gadget_u16", |b| {
        b.iter(|| measure_ic_gadget(16, true, 9))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_centralized,
    bench_det_distributed,
    bench_growth,
    bench_randomized_vs_khan,
    bench_embedding,
    bench_gadgets
);
criterion_main!(benches);
