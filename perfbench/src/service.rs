//! `service_mixed`: open-loop multi-tenant traffic through `FftService`
//! with its default configuration.
//!
//! One generator thread submits [`RATE`] requests/s on a fixed schedule,
//! in pairs sent back to back: one seeded spec, one 1-frame and one
//! 8-frame request from two different tenants, so they meet within the
//! service's coalescing deadline; one collector thread redeems tickets
//! and checks outputs.
//! Traffic: 2^10 and 2^12 × {Opt-Online(c), Opt-Online(m),
//! BatchChecksum}; half the requests carry 1 frame and half 8, so joint
//! batches cross `batch_break_even(n)`. Four tenants with amplitudes
//! {1, 1, 1e-6, 1e3}: mixed scales are real tenant traffic, and the loud
//! tenant exposes the amplitude-dependent detection defect. One request
//! in 16 runs through `submit_injected` with one seeded computational
//! fault.
//!
//! A request's latency runs from its submit call to completion, as
//! `ServiceResponse::latency` reports it. How late the generator's own
//! sleeps left each submit behind its due time is reported apart
//! (`bench.gen_late_*`): on a 2-vCPU guest that lateness is the
//! hypervisor's wake-up jitter of the benchmark's thread (on single
//! requests every 5 ms, the median measured from the due time moved
//! 0.75-1.2 ms between identical runs while submit-to-completion held
//! at 0.60-0.65 ms).

use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ftfft::core::{FtFftPlan, FtReport, PlanSpec, Scheme};
use ftfft::fault::{NoFaults, RandomInjector, RandomKind, Site};
use ftfft::fft::{Direction, FftPlan, FftSpec};
use ftfft::numeric::{uniform_signal, Complex64};
use ftfft::obs::LatencyHistogram;
use ftfft::service::{FftService, ServiceConfig, Ticket};

use crate::env::{fft_plan_json, protected_plan_json};
use crate::oracle::{judge, within_tolerance, Tally, Verdict};
use crate::probes::ProbeTarget;
use crate::stats::{median, percentile, ratio, Deck, Rng};
use crate::trace::{SpanLog, Tracer};
use crate::{FaultTally, Measured};

/// Offered load, requests/s. At 500/s on a 2-vCPU host the loud
/// tenant's recompute storms, plus the host's steal time, tip the
/// 2-worker service into backlog episodes (p50 from 0.7 to 5-12 ms
/// between identical runs); 200/s stays clear of them while still
/// coalescing and queueing.
pub const RATE: f64 = 200.0;
/// Requests per burst; bursts are due every `BURST / RATE` seconds.
/// A pair of a 1-frame and an 8-frame request joins into one batch of 9
/// frames, across `batch_break_even` (4 frames at 2^10 and 2^12). In
/// seeded bursts of 1 to 7 requests (mean batch 4.3), and in pairs that
/// could carry 16 frames or two 1e3-tenant requests, the loud tenant's
/// recompute storms grew long enough to queue the other requests behind
/// them, and p50 and p80 moved by a third between runs.
const BURST: u64 = 2;
const TENANTS: [(&str, f64); 4] =
    [("unit-a", 1.0), ("unit-b", 1.0), ("quiet", 1e-6), ("loud", 1e3)];
const SIZES: [usize; 2] = [1 << 10, 1 << 12];
const SCHEMES: [Scheme; 3] = [Scheme::OnlineCompOpt, Scheme::OnlineMemOpt, Scheme::BatchChecksum];
/// Distinct seeded inputs per (tenant, spec).
const VARIANTS: usize = 2;
const MAX_FRAMES: usize = 8;
const FAULT_EVERY: usize = 16;
const SETUP_REPS: usize = 75;
/// p75: the highest percentile that repeats between runs; p80 moved by
/// a quarter between runs as the host's contention queued requests
/// behind the loud tenant's recompute storms.
pub const TAIL_Q: f64 = 0.75;
/// The service's `ftfft-obs` histograms.
const QUEUE_WAIT: &str = "ftfft_service_queue_wait_ns";
const EXECUTE: &str = "ftfft_service_execute_ns";

/// One pooled input: `MAX_FRAMES` frames, each with its clean direct
/// output and that output's agreement with the unprotected plan.
struct Input {
    spec: usize,
    frames: Vec<Complex64>,
    refs: Vec<Complex64>,
    refs_ok: Vec<bool>,
    plain: Vec<Complex64>,
}

pub struct Service {
    seed: u64,
    specs: Vec<PlanSpec>,
    inputs: Vec<Input>,
    plans: Vec<String>,
    /// Requests issued so far, continued across phases.
    issued: u64,
}

fn specs() -> Vec<PlanSpec> {
    SIZES
        .iter()
        .flat_map(|&n| SCHEMES.iter().map(move |&s| PlanSpec::builder(n).scheme(s).build()))
        .collect()
}

fn input_index(tenant: usize, spec: usize, variant: usize) -> usize {
    (tenant * SIZES.len() * SCHEMES.len() + spec) * VARIANTS + variant
}

/// A started service whose plan cache holds every spec of the mix.
fn start(specs: &[PlanSpec]) -> FftService {
    let svc = FftService::new(ServiceConfig::default());
    for s in specs {
        svc.submit("warm", s, uniform_signal(s.n(), 1)).wait();
    }
    svc
}

pub fn setup(seed: u64) -> (Service, Vec<f64>) {
    let specs = specs();
    let mut times = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let svc = start(&specs);
        times.push(t0.elapsed().as_secs_f64());
        drop(svc);
    }

    let mut plans = Vec::new();
    let mut inputs = Vec::new();
    for (t, &(_, amp)) in TENANTS.iter().enumerate() {
        for (s, spec) in specs.iter().enumerate() {
            let n = spec.n();
            let direct = FtFftPlan::from_spec(spec);
            let mut ws = direct.make_workspace();
            let plain = FftPlan::from_spec(&FftSpec::new(n, Direction::Forward));
            let mut scratch = vec![Complex64::ZERO; plain.scratch_len()];
            if t == 0 {
                plans.push(protected_plan_json(&direct));
                if s % SCHEMES.len() == 0 {
                    plans.push(fft_plan_json(&plain));
                }
            }
            for v in 0..VARIANTS {
                let mut rng = Rng::new(seed, input_index(t, s, v) as u64);
                let frames: Vec<Complex64> = uniform_signal(n * MAX_FRAMES, rng.next_u64())
                    .iter()
                    .map(|z| z.scale(amp))
                    .collect();
                let mut refs = vec![Complex64::ZERO; n * MAX_FRAMES];
                let mut plain_out = vec![Complex64::ZERO; n * MAX_FRAMES];
                let mut refs_ok = Vec::new();
                let outs = refs.chunks_exact_mut(n).zip(plain_out.chunks_exact_mut(n));
                for (x, (r, p)) in frames.chunks_exact(n).zip(outs) {
                    direct.execute(&mut x.to_vec(), r, &NoFaults, &mut ws);
                    plain.execute(x, p, &mut scratch);
                    refs_ok.push(within_tolerance(r, p));
                }
                inputs.push(Input { spec: s, frames, refs, refs_ok, plain: plain_out });
            }
        }
    }
    (Service { seed, specs, inputs, plans, issued: 0 }, times)
}

/// A submitted request on its way to the collector.
struct InFlight {
    req: u64,
    root: u64,
    input: usize,
    frames: usize,
    due: Instant,
    submitted: Instant,
    ticket: Ticket,
    injector: Option<Arc<RandomInjector>>,
}

/// Everything the collector gathers over one phase.
struct Collected {
    log: SpanLog,
    tally: Tally,
    faults: FaultTally,
    report: FtReport,
    /// Per request, from its submit call to completion.
    latencies_ms: Vec<f64>,
    /// Per request, `ServiceResponse::latency`.
    in_service_ms: Vec<f64>,
    frames_done: u64,
    last_done: Instant,
}

/// Mean of the 1st..99th percentiles of `ms`: a trimmed mean that moves
/// with the whole distribution rather than one bucket edge.
fn trimmed_mean(ms: &[f64]) -> f64 {
    (1..100).map(|p| percentile(ms, p as f64 / 100.0)).sum::<f64>() / 99.0
}

fn histogram(name: &str) -> LatencyHistogram {
    ftfft::obs::global()
        .snapshot()
        .histograms
        .into_iter()
        .find(|(n, _)| n == name)
        .map(|(_, h)| h)
        .unwrap_or_default()
}

/// The `ftfft-obs` bucket of `ns`: a quarter octave.
fn bucket_of(ns: u64) -> u64 {
    let v = ns.max(1);
    if v < 4 {
        v
    } else {
        let oct = 63 - v.leading_zeros() as u64;
        oct * 4 + ((v >> (oct - 2)) & 3)
    }
}

/// One value per observation of `h`, in order: its bucket's upper edge,
/// in ns. The histogram exposes no buckets, so they are read back
/// through `percentile` at every rank.
fn observations(h: &LatencyHistogram) -> impl Iterator<Item = u64> + '_ {
    let total = h.count();
    (1..=total).map(move |r| h.percentile((r as f64 - 0.5) / total as f64).as_nanos() as u64)
}

/// The observations, in ms, that `after` holds beyond `before`, an
/// earlier snapshot of the same process-wide histogram: one phase's
/// share, without the set-up's and earlier phases' requests.
fn phase_ms(before: &LatencyHistogram, after: &LatencyHistogram) -> Vec<f64> {
    let mut earlier: HashMap<u64, u64> = HashMap::new();
    for ns in observations(before) {
        *earlier.entry(bucket_of(ns)).or_default() += 1;
    }
    observations(after)
        .filter(|&ns| match earlier.get_mut(&bucket_of(ns)) {
            Some(c) if *c > 0 => {
                *c -= 1;
                false
            }
            _ => true,
        })
        .map(|ns| ns as f64 / 1e6)
        .collect()
}

impl crate::Workload for Service {
    fn tail_q(&self) -> f64 {
        TAIL_Q
    }

    fn plans(&self) -> Vec<String> {
        self.plans.clone()
    }

    fn probe_target(&self) -> ProbeTarget {
        ProbeTarget { n: SIZES[1], scheme: Scheme::OnlineMemOpt, warm_specs: self.specs.clone() }
    }

    /// Open loop for `seconds` at [`RATE`] on a freshly started service.
    fn measure(&mut self, seconds: f64, tracer: &Tracer) -> Measured {
        let svc = start(&self.specs);
        let (wait0, exec0) = (histogram(QUEUE_WAIT), histogram(EXECUTE));
        let total = ((seconds * RATE).ceil() as u64).max(1);
        let first = self.issued;
        self.issued += total;
        let mut sched = Rng::new(self.seed, 0x5c4ed ^ first);
        // Pairs and faults come from decks, so every run holds the exact
        // mix and only its order is random. A pair's card names its spec,
        // its two tenants (always two different ones) and which of them
        // sends 8 frames: every combination comes once per deck of 144.
        let tenant_pairs: Vec<(usize, usize)> = (0..TENANTS.len())
            .flat_map(|a| (0..TENANTS.len()).filter(move |&b| b != a).map(move |b| (a, b)))
            .collect();
        let mut pairs = Deck::new((0..self.specs.len() * tenant_pairs.len() * 2).collect());
        let mut faults = Deck::new((0..FAULT_EVERY).collect());
        let (tx, rx) = mpsc::channel::<InFlight>();
        let begin = Instant::now() + Duration::from_millis(5);

        let (gen_log, late_ms, submit_us, collected) = std::thread::scope(|scope| {
            let collector = scope.spawn(|| self.collect(rx, tracer));
            let mut log = SpanLog::default();
            let (mut late_ms, mut submit_us) = (Vec::new(), Vec::new());
            let mut i = 0;
            while i < total {
                // A burst: drawn and copied first, then submitted back to
                // back, then handed to the collector.
                let size = BURST.min(total - i);
                let due = begin + Duration::from_secs_f64(i as f64 / RATE);
                let card = pairs.draw(&mut sched);
                let (s, rest) = (card % self.specs.len(), card / self.specs.len());
                let spec = &self.specs[s];
                let (a, b) = tenant_pairs[rest / 2];
                let members = if rest % 2 == 0 {
                    [(a, 1), (b, MAX_FRAMES)]
                } else {
                    [(a, MAX_FRAMES), (b, 1)]
                };
                let burst: Vec<_> = members[..size as usize]
                    .iter()
                    .map(|&(t, frames)| {
                        let idx = input_index(t, s, sched.below(VARIANTS));
                        let faulted = faults.draw(&mut sched) == 0;
                        let fault_seed = sched.next_u64();
                        let input = self.inputs[idx].frames[..frames * spec.n()].to_vec();
                        let injector = faulted.then(|| {
                            let magnitude = 1e-2 * TENANTS[t].1;
                            Arc::new(
                                RandomInjector::new(
                                    fault_seed,
                                    1.0,
                                    RandomKind::AddConstant { magnitude },
                                    1,
                                )
                                .with_site_filter(|s| {
                                    matches!(
                                        s,
                                        Site::SubFftCompute { .. } | Site::BatchMemberOutput { .. }
                                    )
                                }),
                            )
                        });
                        (t, idx, frames, input, injector)
                    })
                    .collect();
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                let mut flights = Vec::with_capacity(burst.len());
                for (t, idx, frames, input, injector) in burst {
                    let req = first + i;
                    i += 1;
                    let root = tracer.id();
                    let s0 = Instant::now();
                    let ticket = match &injector {
                        Some(inj) => svc.submit_injected(TENANTS[t].0, spec, input, inj.clone()),
                        None => svc.submit(TENANTS[t].0, spec, input),
                    };
                    let s1 = Instant::now();
                    tracer.record(&mut log, tracer.id(), root, req, "service.submit", s0, s1);
                    late_ms.push((s0 - due).as_secs_f64() * 1e3);
                    submit_us.push((s1 - s0).as_secs_f64() * 1e6);
                    let submitted = s0;
                    flights.push(InFlight {
                        req,
                        root,
                        input: idx,
                        frames,
                        due,
                        submitted,
                        ticket,
                        injector,
                    });
                }
                for f in flights {
                    tx.send(f).expect("collector outlives the generator");
                }
            }
            drop(tx);
            (log, late_ms, submit_us, collector.join().expect("collector thread"))
        });
        let Collected {
            mut log,
            tally,
            faults,
            report,
            latencies_ms,
            in_service_ms,
            frames_done,
            last_done,
        } = collected;
        log.append(gen_log);

        let stats = svc.stats();
        // Dropping the service joins its workers, so every request's
        // histogram records are in.
        drop(svc);
        let queue_wait = phase_ms(&wait0, &histogram(QUEUE_WAIT));
        let execute = phase_ms(&exec0, &histogram(EXECUTE));
        let span_s = last_done.saturating_duration_since(begin).as_secs_f64();
        let requests = stats.requests.max(1) as f64;
        Measured {
            throughput_tps: ratio(frames_done as f64, span_s),
            latencies_ms,
            tally,
            report,
            faults,
            layer: vec![
                ("service.submit_us", median(&submit_us)),
                ("service.in_service_ms", median(&in_service_ms)),
                ("service.queue_wait_ms", trimmed_mean(&queue_wait)),
                ("service.execute_ms", trimmed_mean(&execute)),
                ("service.mean_batch", stats.mean_batch),
                ("service.batch_protected_share", stats.batch_protected as f64 / requests),
                ("service.batch_fallback_share", stats.batch_fallback as f64 / requests),
                ("service.cache_hit_rate", stats.hit_rate),
                ("bench.gen_late_p99_ms", percentile(&late_ms, 0.99)),
                ("bench.gen_late_max_ms", percentile(&late_ms, 1.0)),
            ],
            spans: log,
        }
    }
}

impl Service {
    /// The collector: redeems tickets in submission order and checks
    /// each response.
    fn collect(&self, rx: mpsc::Receiver<InFlight>, tracer: &Tracer) -> Collected {
        let mut c = Collected {
            log: SpanLog::default(),
            tally: Tally::default(),
            faults: FaultTally::default(),
            report: FtReport::new(),
            latencies_ms: Vec::new(),
            in_service_ms: Vec::new(),
            frames_done: 0,
            last_done: Instant::now(),
        };
        let log = &mut c.log;
        for f in rx {
            let input = &self.inputs[f.input];
            let n = self.specs[input.spec].n();
            let w0 = Instant::now();
            let result = f.ticket.wait_result();
            let w1 = Instant::now();
            tracer.record(log, tracer.id(), f.root, f.req, "service.wait", w0, w1);
            let injected = f.injector.as_ref().map_or(0, |i| i.fired() as u64);
            let (done, verdict, rep) = match &result {
                Ok(resp) => {
                    let done = f.submitted + resp.latency;
                    let verdict = tracer.span(log, f.root, f.req, "bench.check", || {
                        if resp.output.len() != f.frames * n {
                            return Verdict::Wrong;
                        }
                        (0..f.frames)
                            .map(|j| {
                                let r = j * n..(j + 1) * n;
                                let out = &resp.output[r.clone()];
                                let (reference, plain) = (&input.refs[r.clone()], &input.plain[r]);
                                judge(
                                    out,
                                    reference,
                                    input.refs_ok[j],
                                    plain,
                                    resp.report.uncorrectable,
                                )
                            })
                            .max()
                            .unwrap_or(Verdict::Ok)
                    });
                    c.in_service_ms.push(resp.latency.as_secs_f64() * 1e3);
                    c.frames_done += f.frames as u64;
                    (done, verdict, resp.report)
                }
                Err(_) => (w1, Verdict::Wrong, FtReport::new()),
            };
            let ms = done.saturating_duration_since(f.submitted).as_secs_f64() * 1e3;
            let ok = c.tally.count(verdict);
            let detected = rep.total_detected() as u64;
            c.faults.note(injected, detected, rep.uncorrectable > 0, ok, ms);
            c.report.merge(&rep);
            c.latencies_ms.push(ms);
            c.last_done = c.last_done.max(done);
            tracer.record(log, f.root, 0, f.req, "bench.request", f.due, Instant::now());
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_phase_keeps_only_its_own_observations() {
        let mut before = LatencyHistogram::default();
        before.record(Duration::from_micros(5));
        let mut after = before.clone();
        after.record(Duration::from_micros(5));
        after.record(Duration::from_millis(3));
        let ms = phase_ms(&before, &after);
        assert_eq!(ms.len(), 2, "{ms:?}");
        assert!((0.005..0.0065).contains(&ms[0]), "{ms:?}");
        assert_eq!(ms[1], 3.0);
    }
}
