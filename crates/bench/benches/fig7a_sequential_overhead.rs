//! Criterion companion to Fig 7(a): fault-free execution time of the
//! computational-FT schemes at one representative size. The `fig7` binary
//! prints the paper-style overhead table across sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ftfft::prelude::*;

fn bench(c: &mut Criterion) {
    let n = 1 << 16;
    let mut group = c.benchmark_group("fig7a_sequential_overhead");
    group.sample_size(10);
    for scheme in [
        Scheme::Plain,
        Scheme::OfflineNaive,
        Scheme::Offline,
        Scheme::OnlineComp,
        Scheme::OnlineCompOpt,
    ] {
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
