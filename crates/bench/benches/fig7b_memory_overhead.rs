//! Criterion companion to Fig 7(b): fault-free execution time of the
//! computational+memory FT schemes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ftfft::prelude::*;

fn bench(c: &mut Criterion) {
    let n = 1 << 16;
    let mut group = c.benchmark_group("fig7b_memory_overhead");
    group.sample_size(10);
    for scheme in [Scheme::Plain, Scheme::OfflineMem, Scheme::OnlineMem, Scheme::OnlineMemOpt] {
        let plan = FtFftPlan::from_spec(&PlanSpec::builder(n).scheme(scheme).build());
        let mut ws = plan.make_workspace();
        let x = uniform_signal(n, 42);
        let mut xin = x.clone();
        let mut out = vec![Complex64::ZERO; n];
        group.bench_function(BenchmarkId::from_parameter(scheme.label()), |b| {
            b.iter(|| {
                xin.copy_from_slice(&x);
                std::hint::black_box(plan.execute(&mut xin, &mut out, &NoFaults, &mut ws));
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
