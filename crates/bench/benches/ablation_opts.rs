//! Ablation of the §4 sequential optimizations (the design choices
//! DESIGN.md calls out):
//!
//! * naive vs closed-form checksum-vector generation (Offline pair);
//! * strided vs buffered checksum passes + twiddle fusion (OnlineComp pair);
//! * Fig 2 vs Fig 3 memory hierarchy (OnlineMem pair).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ftfft::prelude::*;

fn bench(c: &mut Criterion) {
    let n = 1 << 16;
    let mut group = c.benchmark_group("ablation_sequential_optimizations");
    group.sample_size(10);
    let pairs: &[(&str, Scheme)] = &[
        ("rA-gen/naive", Scheme::OfflineNaive),
        ("rA-gen/closed-form", Scheme::Offline),
        ("online/strided", Scheme::OnlineComp),
        ("online/buffered+fused", Scheme::OnlineCompOpt),
        ("memory/fig2-hierarchy", Scheme::OnlineMem),
        ("memory/fig3-optimized", Scheme::OnlineMemOpt),
    ];
    for (label, scheme) in pairs {
        let plan = FtFftPlan::from_spec(&PlanSpec::builder(n).scheme(*scheme).build());
        let mut ws = plan.make_workspace();
        let x = uniform_signal(n, 42);
        let mut xin = x.clone();
        let mut out = vec![Complex64::ZERO; n];
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
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
