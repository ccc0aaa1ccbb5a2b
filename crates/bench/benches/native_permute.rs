//! Wall-clock Table II analog on the CPU backend: direct scatter/gather vs
//! the fused scheduled permutation, per permutation family and size.
//!
//! Sizes default to 64K–4M; set `HMM_BENCH_FULL=1` for 16M (the working
//! set where the scheduled passes' cache behaviour matters most).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hmm_native::{copy_baseline, gather_permute, scatter_permute, NativeScheduled};
use hmm_perm::families::Family;

fn sizes() -> Vec<usize> {
    if std::env::var("HMM_BENCH_FULL").is_ok() {
        vec![1 << 20, 1 << 22, 1 << 24]
    } else {
        vec![1 << 16, 1 << 20, 1 << 22]
    }
}

fn bench_native(c: &mut Criterion) {
    for n in sizes() {
        let src: Vec<u32> = (0..n as u32).collect();
        let mut dst = vec![0u32; n];
        let mut scratch = vec![0u32; n];

        let mut group = c.benchmark_group(format!("native/{}", n));
        group.throughput(Throughput::Elements(n as u64));
        group.sample_size(10);

        group.bench_function("copy", |b| b.iter(|| copy_baseline(&src, &mut dst)));
        for fam in [Family::Identical, Family::Random, Family::BitReversal] {
            let p = fam.build(n, 7).unwrap();
            let q = p.inverse();
            let sched = NativeScheduled::build(&p, 32).unwrap();
            group.bench_with_input(BenchmarkId::new("scatter", fam.name()), &p, |b, p| {
                b.iter(|| scatter_permute(&src, p, &mut dst))
            });
            group.bench_with_input(BenchmarkId::new("gather", fam.name()), &q, |b, q| {
                b.iter(|| gather_permute(&src, q, &mut dst))
            });
            group.bench_with_input(
                BenchmarkId::new("scheduled", fam.name()),
                &sched,
                |b, sched| b.iter(|| sched.run_with_scratch(&src, &mut dst, &mut scratch)),
            );
        }
        group.finish();
    }
}

criterion_group!(benches, bench_native);
criterion_main!(benches);
