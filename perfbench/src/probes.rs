//! Layer probes of the traced run: each times one layer's public entry
//! point from outside, on a workload's own transform size and scheme,
//! with clean inputs. Every probe call is also recorded as a span.

use std::hint::black_box;
use std::time::Instant;

use ftfft::checksum::{gather_sum1, input_checksum_vector};
use ftfft::core::{FtFftPlan, PlanSpec, Scheme};
use ftfft::fault::NoFaults;
use ftfft::fft::{split_balanced, Direction, FftPlan, FftSpec};
use ftfft::numeric::{uniform_signal, Complex64};
use ftfft::parallel::PooledFtFft;
use ftfft::roundoff::thresholds_for_split;
use ftfft::service::{FftService, ServiceConfig};

use crate::env::nproc;
use crate::trace::{SpanLog, Tracer, PROBE};

/// Runs `f` once to warm up, then at least `min_reps` times and for at
/// least `min_secs`; returns the median call time in ms. Each timed call
/// is recorded as a probe span named `name`.
fn median_ms(
    tracer: &Tracer,
    log: &mut SpanLog,
    name: &'static str,
    min_reps: usize,
    min_secs: f64,
    mut f: impl FnMut(),
) -> f64 {
    f();
    let mut times = Vec::new();
    let begin = Instant::now();
    while times.len() < min_reps || (begin.elapsed().as_secs_f64() < min_secs && times.len() < 500)
    {
        let t0 = Instant::now();
        f();
        let t1 = Instant::now();
        tracer.record(log, tracer.id(), 0, PROBE, name, t0, t1);
        times.push((t1 - t0).as_secs_f64() * 1e3);
    }
    crate::stats::median(&times)
}

/// Median ms of building a value with `make` (the value is dropped
/// outside the timed region).
fn build_ms<T>(
    tracer: &Tracer,
    log: &mut SpanLog,
    name: &'static str,
    reps: usize,
    mut make: impl FnMut() -> T,
) -> f64 {
    let mut times = Vec::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        let v = make();
        let t1 = Instant::now();
        drop(black_box(v));
        tracer.record(log, tracer.id(), 0, PROBE, name, t0, t1);
        times.push((t1 - t0).as_secs_f64() * 1e3);
    }
    crate::stats::median(&times)
}

/// What a workload asks the probes to measure.
pub struct ProbeTarget {
    /// Transform size of the workload's protected transforms.
    pub n: usize,
    /// Scheme timed against the plain plans.
    pub scheme: Scheme,
    /// Specs a service serving this workload would warm.
    pub warm_specs: Vec<PlanSpec>,
}

/// Times every layer probe for `t`.
pub fn run(t: &ProbeTarget, tracer: &Tracer, log: &mut SpanLog) -> Vec<(&'static str, f64)> {
    let n = t.n;
    let (k, m) = split_balanced(n);
    let spec = PlanSpec::builder(n).scheme(t.scheme).threads(nproc()).build();
    // Clean runs leave the input untouched, so one buffer serves every
    // repetition without a copy inside the timed call.
    let x = uniform_signal(n, 0x5eed);
    let mut xs = x.clone();
    let mut out = vec![Complex64::ZERO; n];
    let secs = 0.3;

    let best = FftPlan::from_spec(&FftSpec::new(n, Direction::Forward));
    let mut scratch = vec![Complex64::ZERO; best.scratch_len()];
    let best_ms = median_ms(tracer, log, "fft.execute_best", 7, secs, || {
        best.execute(black_box(&x), &mut out, &mut scratch)
    });
    let serial_plain = FftPlan::from_spec(&FftSpec::new(n, Direction::Forward).with_threads(1));
    let mut scratch = vec![Complex64::ZERO; serial_plain.scratch_len()];
    let serial_plain_ms = median_ms(tracer, log, "fft.execute_serial", 7, secs, || {
        serial_plain.execute(black_box(&x), &mut out, &mut scratch)
    });

    let two_layer = FtFftPlan::from_spec(&PlanSpec::builder(n).threads(nproc()).build());
    let mut ws = two_layer.make_workspace();
    let two_layer_ms = median_ms(tracer, log, "core.execute_plain", 7, secs, || {
        two_layer.execute(&mut xs, &mut out, &NoFaults, &mut ws);
    });
    drop(ws);

    let serial = FtFftPlan::from_spec(&spec);
    let mut ws = serial.make_workspace();
    let serial_ms = median_ms(tracer, log, "core.execute", 7, secs, || {
        serial.execute(&mut xs, &mut out, &NoFaults, &mut ws);
    });
    drop(ws);

    let pooled = PooledFtFft::new(FtFftPlan::from_spec(&spec));
    let mut pws = pooled.make_workspace();
    let pooled_ms = median_ms(tracer, log, "parallel.execute", 7, secs, || {
        pooled.execute(&mut xs, &mut out, &NoFaults, &mut pws);
    });
    drop(pws);
    drop(pooled);

    // One part-1 sweep of strided CCG traffic: k gathers of m elements
    // at stride k, reading each input element once.
    let ra = input_checksum_vector(m, Direction::Forward);
    let mut buf = vec![Complex64::ZERO; m];
    let ccg_ms = median_ms(tracer, log, "checksum.gather_sum1", 7, secs, || {
        let mut acc = Complex64::ZERO;
        for j in 0..k {
            acc += gather_sum1(black_box(&x), j, k, &ra, &mut buf);
        }
        black_box(acc);
    });
    // Computed bytes: every source element read once and written once
    // into the gather buffer (16 B each way).
    let ccg_gbps = crate::stats::ratio(32.0 * n as f64, ccg_ms * 1e6);

    const THRESHOLD_CALLS: usize = 1000;
    let threshold_ms = median_ms(tracer, log, "roundoff.thresholds_for_split", 5, 0.05, || {
        for _ in 0..THRESHOLD_CALLS {
            black_box(thresholds_for_split(black_box(n), k, m, spec.sigma0()));
        }
    }) / THRESHOLD_CALLS as f64;

    let plan_build_ms = build_ms(tracer, log, "core.from_spec", 5, || FtFftPlan::from_spec(&spec));
    let mut plans: Vec<FtFftPlan> = (0..5).map(|_| FtFftPlan::from_spec(&spec)).collect();
    let pool_start_ms = build_ms(tracer, log, "parallel.pool_new", 5, || {
        PooledFtFft::new(plans.pop().expect("one plan per repetition"))
    });
    let warm_ms = build_ms(tracer, log, "service.new_warm", 3, || {
        let svc = FftService::new(ServiceConfig::default());
        for s in &t.warm_specs {
            svc.submit("warm", s, uniform_signal(s.n(), 1)).wait();
        }
        svc
    });
    let downlink_spec = crate::downlink::spec();
    let stream_build_ms =
        build_ms(tracer, log, "stream.build", 5, || crate::downlink::build(&downlink_spec));

    let flops = 5.0 * n as f64 * (n as f64).log2();
    // The honest base is the fastest unprotected plan, whichever of the
    // planner's default and the serial kernel that is on this machine.
    let fastest_ms = best_ms.min(serial_plain_ms);
    vec![
        ("fft.best_plain_ms", best_ms),
        ("fft.serial_plain_ms", serial_plain_ms),
        ("fft.gflops", crate::stats::ratio(flops, best_ms * 1e6)),
        ("fft.two_layer_ms", two_layer_ms),
        ("fft.two_layer_vs_best", crate::stats::ratio(two_layer_ms, best_ms)),
        ("core.serial_ms", serial_ms),
        ("parallel.execute_ms", pooled_ms),
        ("parallel.speedup", crate::stats::ratio(serial_ms, pooled_ms)),
        ("core.vs_best_plain", crate::stats::ratio(pooled_ms, fastest_ms)),
        ("core.vs_two_layer", crate::stats::ratio(pooled_ms, two_layer_ms)),
        ("checksum.ccg_ms", ccg_ms),
        ("checksum.ccg_gbps", ccg_gbps),
        ("roundoff.threshold_ms", threshold_ms),
        ("core.plan_build_ms", plan_build_ms),
        ("parallel.pool_start_ms", pool_start_ms),
        ("service.warm_ms", warm_ms),
        ("stream.build_ms", stream_build_ms),
    ]
}
