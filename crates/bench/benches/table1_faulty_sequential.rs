//! Criterion companion to Table 1: execution time with injected faults.
//! The offline scheme's fault case should cost ~2× its fault-free case;
//! the online scheme's cases should be nearly identical.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ftfft::prelude::*;

fn faults(case: &str) -> Vec<ScriptedFault> {
    let mem = ScriptedFault::new(Site::InputMemory, 999, FaultKind::SetValue { re: 5.0, im: -5.0 });
    let c1 = ScriptedFault::new(
        Site::SubFftCompute { part: Part::First, index: 3 },
        7,
        FaultKind::AddDelta { re: 1e-2, im: 0.0 },
    );
    let c2 = ScriptedFault::new(
        Site::SubFftCompute { part: Part::Second, index: 11 },
        2,
        FaultKind::AddDelta { re: 0.0, im: 1e-2 },
    );
    match case {
        "0" => vec![],
        "1m" => vec![mem],
        "1c" => vec![c1],
        "1m+1c" => vec![mem, c1],
        "1m+2c" => vec![mem, c1, c2],
        _ => unreachable!(),
    }
}

fn bench(c: &mut Criterion) {
    let n = 1 << 16;
    let mut group = c.benchmark_group("table1_faulty_sequential");
    group.sample_size(10);

    let cases: &[(Scheme, &str)] = &[
        (Scheme::OfflineMem, "0"),
        (Scheme::OfflineMem, "1m"),
        (Scheme::OnlineMemOpt, "0"),
        (Scheme::OnlineMemOpt, "1c"),
        (Scheme::OnlineMemOpt, "1m+1c"),
        (Scheme::OnlineMemOpt, "1m+2c"),
    ];
    for (scheme, case) in cases {
        let plan = FtFftPlan::from_spec(&PlanSpec::builder(n).scheme(*scheme).build());
        let mut ws = plan.make_workspace();
        let x = uniform_signal(n, 42);
        let mut xin = x.clone();
        let mut out = vec![Complex64::ZERO; n];
        let id = format!("{} ({case})", scheme.label());
        group.bench_function(BenchmarkId::from_parameter(id), |b| {
            b.iter(|| {
                xin.copy_from_slice(&x);
                let inj = ScriptedInjector::new(faults(case));
                let rep = plan.execute(&mut xin, &mut out, &inj, &mut ws);
                assert_eq!(rep.uncorrectable, 0);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
