//! `large_transform`: one 2^20-point Opt-Online(m) transform at a time
//! through `PooledFtFft`, closed loop, one client. Every second call
//! carries one seeded computational fault (`Site::SubFftCompute`); every
//! other one of those also carries one seeded memory fault
//! (`Site::InputMemory`) — the paper's Table 1 fault model. The calls
//! with a computational fault alone keep the computational repair under
//! the bitwise check: a memory repair restores the input from its
//! checksums with rounding, so a call that carries one can only be
//! within tolerance.

use std::time::Instant;

use ftfft::core::{FtFftPlan, FtReport, PlanSpec, Scheme};
use ftfft::fault::{
    FaultInjector, FaultKind, NoFaults, Part, ScriptedFault, ScriptedInjector, Site,
};
use ftfft::fft::{split_balanced, Direction, FftPlan, FftSpec};
use ftfft::numeric::{uniform_signal, Complex64};
use ftfft::parallel::{PooledFtFft, PooledWorkspace};

use crate::env::{fft_plan_json, nproc, protected_plan_json};
use crate::oracle::{judge, within_tolerance, Tally};
use crate::probes::ProbeTarget;
use crate::stats::{ratio, Rng};
use crate::trace::{SpanLog, Tracer};
use crate::{FaultTally, Measured};

pub const LOG2N: u32 = 20;
/// Distinct seeded inputs the calls cycle through (each 16 MiB, with a
/// 16 MiB reference).
const INPUTS: usize = 2;
const SETUP_REPS: usize = 15;
/// p90: a 40 s run makes ~400 calls, leaving ~40 beyond it.
pub const TAIL_Q: f64 = 0.90;

pub struct Large {
    seed: u64,
    n: usize,
    spec: PlanSpec,
    pooled: PooledFtFft,
    ws: PooledWorkspace,
    inputs: Vec<Vec<Complex64>>,
    refs: Vec<Vec<Complex64>>,
    refs_ok: Vec<bool>,
    plain: Vec<Vec<Complex64>>,
    x: Vec<Complex64>,
    out: Vec<Complex64>,
    plans: Vec<String>,
    /// Call counter, continued across phases so no two calls share a
    /// fault plan.
    call: u64,
}

/// Builds the workload; returns it with the set-up times (s) of
/// `SETUP_REPS` full set-ups: plan build, pool start, workspace.
pub fn setup(seed: u64) -> (Large, Vec<f64>) {
    let n = 1usize << LOG2N;
    let spec = PlanSpec::builder(n).scheme(Scheme::OnlineMemOpt).threads(nproc()).build();
    let mut times = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let t0 = Instant::now();
        let pooled = PooledFtFft::new(FtFftPlan::from_spec(&spec));
        let ws = pooled.make_workspace();
        times.push(t0.elapsed().as_secs_f64());
        built = Some((pooled, ws));
    }
    let (pooled, ws) = built.expect("at least one set-up");

    // References, never timed: a clean direct execution of the same spec
    // and the unprotected best plan.
    let direct = FtFftPlan::from_spec(&spec);
    let mut dws = direct.make_workspace();
    let plain = FftPlan::from_spec(&FftSpec::new(n, Direction::Forward));
    let mut scratch = vec![Complex64::ZERO; plain.scratch_len()];
    let (mut inputs, mut refs, mut refs_ok, mut plains) = (vec![], vec![], vec![], vec![]);
    for i in 0..INPUTS {
        let x = uniform_signal(n, Rng::new(seed, 100 + i as u64).next_u64());
        let mut xc = x.clone();
        let mut r = vec![Complex64::ZERO; n];
        direct.execute(&mut xc, &mut r, &NoFaults, &mut dws);
        let mut p = vec![Complex64::ZERO; n];
        plain.execute(&x, &mut p, &mut scratch);
        refs_ok.push(within_tolerance(&r, &p));
        inputs.push(x);
        refs.push(r);
        plains.push(p);
    }
    let plans = vec![protected_plan_json(pooled.plan()), fft_plan_json(&plain)];
    let large = Large {
        seed,
        n,
        spec,
        pooled,
        ws,
        inputs,
        refs,
        refs_ok,
        plain: plains,
        x: vec![Complex64::ZERO; n],
        out: vec![Complex64::ZERO; n],
        plans,
        call: 0,
    };
    (large, times)
}

/// Faults of call `call`: none on even calls, a computational fault on
/// calls 1 mod 4, a computational and a memory fault on calls 3 mod 4.
fn faults_of(call: u64) -> (bool, bool) {
    (call % 2 == 1, call % 4 == 3)
}

/// One call's fault plan: a computational fault in a seeded sub-FFT of a
/// seeded part and, with `memory`, a memory fault at a seeded input
/// element.
fn fault_plan(rng: &mut Rng, n: usize, memory: bool) -> Vec<ScriptedFault> {
    let (k, m) = split_balanced(n);
    // Part 1 runs k sub-FFTs of m points; part 2 runs m of k points.
    let (part, count, len) =
        if rng.below(2) == 0 { (Part::First, k, m) } else { (Part::Second, m, k) };
    let site = Site::SubFftCompute { part, index: rng.below(count) };
    let delta = 1e-2 * (1.0 + rng.unit()) * if rng.below(2) == 0 { 1.0 } else { -1.0 };
    let kind = match rng.below(2) {
        0 => FaultKind::AddDelta { re: delta, im: 0.0 },
        _ => FaultKind::AddDelta { re: 0.0, im: delta },
    };
    let comp = ScriptedFault::new(site, rng.below(len), kind);
    let value = |r: &mut Rng| (1.0 + 4.0 * r.unit()) * if r.below(2) == 0 { 1.0 } else { -1.0 };
    let (re, im) = (value(rng), value(rng));
    let mem = ScriptedFault::new(Site::InputMemory, rng.below(n), FaultKind::SetValue { re, im });
    if memory {
        vec![comp, mem]
    } else {
        vec![comp]
    }
}

impl crate::Workload for Large {
    fn tail_q(&self) -> f64 {
        TAIL_Q
    }

    fn plans(&self) -> Vec<String> {
        self.plans.clone()
    }

    fn probe_target(&self) -> ProbeTarget {
        ProbeTarget { n: self.n, scheme: self.spec.scheme(), warm_specs: vec![self.spec] }
    }

    /// Closed loop for `seconds`: one call after another.
    fn measure(&mut self, seconds: f64, tracer: &Tracer) -> Measured {
        let mut log = SpanLog::default();
        let mut tally = Tally::default();
        let mut faults = FaultTally::default();
        let mut report = FtReport::new();
        let mut lat = Vec::new();
        let begin = Instant::now();
        while begin.elapsed().as_secs_f64() < seconds || lat.len() < 4 {
            let req = self.call;
            self.call += 1;
            let slot = (req % INPUTS as u64) as usize;
            let root = tracer.id();
            let t_req = Instant::now();
            tracer.span(&mut log, root, req, "bench.prepare", || {
                self.x.copy_from_slice(&self.inputs[slot])
            });
            let (comp, memory) = faults_of(req);
            let inj = comp.then(|| {
                tracer.span(&mut log, root, req, "fault.script", || {
                    let mut rng = Rng::new(self.seed, 1_000_000 + req);
                    ScriptedInjector::new(fault_plan(&mut rng, self.n, memory))
                })
            });
            let injector: &dyn FaultInjector = match &inj {
                Some(s) => s,
                None => &NoFaults,
            };
            let t0 = Instant::now();
            let rep = self.pooled.execute(&mut self.x, &mut self.out, injector, &mut self.ws);
            let t1 = Instant::now();
            tracer.record(&mut log, tracer.id(), root, req, "parallel.execute", t0, t1);
            let ms = (t1 - t0).as_secs_f64() * 1e3;
            let injected = inj.as_ref().map_or(0, |s| s.log().len() as u64);
            let verdict = tracer.span(&mut log, root, req, "bench.check", || {
                let (r, p) = (&self.refs[slot], &self.plain[slot]);
                judge(&self.out, r, self.refs_ok[slot], p, rep.uncorrectable)
            });
            let ok = tally.count(verdict);
            let detected = rep.total_detected() as u64;
            faults.note(injected, detected, rep.uncorrectable > 0, ok, ms);
            report.merge(&rep);
            lat.push(ms);
            tracer.record(&mut log, root, 0, req, "bench.request", t_req, Instant::now());
        }
        let busy_s: f64 = lat.iter().sum::<f64>() / 1e3;
        Measured {
            throughput_tps: ratio(lat.len() as f64, busy_s),
            latencies_ms: lat,
            tally,
            report,
            faults,
            layer: Vec::new(),
            spans: log,
        }
    }
}
