//! `downlink_campaign`: the protected telemetry pipeline under a steady
//! fault load, closed loop, one producer.
//!
//! 2^12-sample frames, Opt-Online(m) STFT stage, CRC guard on, built as
//! the repository's pipeline timing harness builds it. The encoded
//! stream is fed in chunks of [`CHUNK`] frames through `push_bytes` /
//! `pump` / `pop_frame`, over and over. Every chunk runs its own seeded
//! campaign with the harness's kinds and rates — compute bit flips
//! (exponent bits 52..62, rate 0.05 per sub-FFT) and single-bit strikes
//! on cold ring slots (rate 0.25 per slot) — capped at one of each, so
//! each chunk sees the same expected fault load.

use std::time::Instant;

use ftfft::core::{FtReport, PlanSpec, Scheme};
use ftfft::fault::{
    ByteFaultKind, ByteRegion, NoByteFaults, NoFaults, RandomByteInjector, RandomInjector,
    RandomKind, Site,
};
use ftfft::fft::{Direction, FftPlan, FftSpec};
use ftfft::numeric::{uniform_signal, Complex64};
use ftfft::stream::{encode_stream, FrameSync, PipelineBuilder, ProtectedPipeline};

use crate::env::{fft_plan_json, nproc};
use crate::oracle::{check_frames, within_tolerance_real, Tally};
use crate::probes::ProbeTarget;
use crate::stats::{ratio, Rng};
use crate::trace::{SpanLog, Tracer};
use crate::{FaultTally, Measured};

pub const LOG2N: u32 = 12;
/// Frames per pass over the encoded stream (and queue/ring capacity).
pub const FRAMES: usize = 256;
/// Frames fed per `push_bytes` call.
pub const CHUNK: usize = 8;
const SETUP_REPS: usize = 45;
/// p95: the highest percentile that repeats between runs (~11000 chunks
/// in a 40 s run); p99 follows the host's steal time.
pub const TAIL_Q: f64 = 0.95;

pub struct Downlink {
    seed: u64,
    spec: PlanSpec,
    pipeline: ProtectedPipeline,
    stream: Vec<u8>,
    /// Fault-free output of each frame of a pass, and its agreement with
    /// the unprotected round trip.
    refs: Vec<Vec<f64>>,
    refs_ok: Vec<bool>,
    plain: Vec<Vec<f64>>,
    plans: Vec<String>,
    /// Sequence number of the next frame fed (continued across phases,
    /// and the seed of each chunk's campaign).
    next_seq: u64,
}

pub fn spec() -> PlanSpec {
    PlanSpec::builder(1 << LOG2N).scheme(Scheme::OnlineMemOpt).build()
}

/// The pipeline exactly as this workload builds it.
pub fn build(spec: &PlanSpec) -> ProtectedPipeline {
    PipelineBuilder::new(spec).queue_capacity(FRAMES).ring_capacity(FRAMES).crc(true).build()
}

/// Unprotected reference of the stage (gate 0, rectangular window, hop
/// = n): a forward then inverse transform of the frame, normalized.
fn plain_round_trip(frame: &[f64]) -> Vec<f64> {
    let n = frame.len();
    let fwd = FftPlan::from_spec(&FftSpec::new(n, Direction::Forward));
    let inv = FftPlan::from_spec(&FftSpec::new(n, Direction::Inverse));
    let mut scratch = vec![Complex64::ZERO; fwd.scratch_len().max(inv.scratch_len())];
    let x: Vec<Complex64> = frame.iter().map(|&v| Complex64::new(v, 0.0)).collect();
    let (mut spec, mut back) = (vec![Complex64::ZERO; n], vec![Complex64::ZERO; n]);
    fwd.execute(&x, &mut spec, &mut scratch);
    inv.execute(&spec, &mut back, &mut scratch);
    back.iter().map(|z| z.re / n as f64).collect()
}

pub fn setup(seed: u64) -> (Downlink, Vec<f64>) {
    let spec = spec();
    let n = spec.n();
    let signal: Vec<f64> = uniform_signal(n * FRAMES, Rng::new(seed, 3).next_u64())
        .iter()
        .map(|z| z.re * 0.5)
        .collect();
    let stream = encode_stream(&signal, n);

    // Set-up is the time to the first delivered chunk: the build alone
    // (~0.4 ms, mostly allocation) is too small to time steadily.
    let first_chunk = &stream[..stream.len() / FRAMES * CHUNK];
    let mut times = Vec::new();
    let mut sink = Vec::new();
    for _ in 0..SETUP_REPS {
        sink.clear();
        let t0 = Instant::now();
        let mut p = build(&spec);
        p.process(first_chunk, &NoFaults, &NoByteFaults, &mut sink);
        times.push(t0.elapsed().as_secs_f64());
        drop(p);
    }

    // References, never timed: a fault-free pass through the pipeline
    // the workload then measures (which also warms it), and the
    // unprotected round trip of each decoded frame.
    let mut pipeline = build(&spec);
    sink.clear();
    pipeline.process(&stream, &NoFaults, &NoByteFaults, &mut sink);
    let mut decoded = Vec::new();
    FrameSync::new(n).push(&stream, &mut |f: Vec<f64>| decoded.push(f));
    let refs: Vec<Vec<f64>> = sink.into_iter().map(|f| f.samples).collect();
    let plain: Vec<Vec<f64>> = decoded.iter().map(|d| plain_round_trip(d)).collect();
    let refs_ok = refs.iter().zip(&plain).map(|(r, p)| within_tolerance_real(r, p)).collect();
    let plans = vec![
        format!("{{\"pipeline_spec\":\"{:?}\",\"nproc\":{}}}", spec.resolve(), nproc()),
        fft_plan_json(&FftPlan::from_spec(&FftSpec::new(n, Direction::Forward))),
    ];
    let d = Downlink {
        seed,
        spec,
        pipeline,
        stream,
        refs,
        refs_ok,
        plain,
        plans,
        next_seq: FRAMES as u64,
    };
    (d, times)
}

fn per_frame(total_ns: u64, frames: u64) -> f64 {
    ratio(total_ns as f64 / 1e6, frames as f64)
}

impl crate::Workload for Downlink {
    fn tail_q(&self) -> f64 {
        TAIL_Q
    }

    fn plans(&self) -> Vec<String> {
        self.plans.clone()
    }

    fn probe_target(&self) -> ProbeTarget {
        ProbeTarget { n: self.spec.n(), scheme: self.spec.scheme(), warm_specs: vec![self.spec] }
    }

    /// Closed loop for `seconds`: one chunk at a time, each drained
    /// before the next is fed.
    fn measure(&mut self, seconds: f64, tracer: &Tracer) -> Measured {
        let mut log = SpanLog::default();
        let mut tally = Tally::default();
        let mut faults = FaultTally::default();
        let mut lat = Vec::new();
        let (mut sync_ns, mut pump_ns, mut deliver_ns) = (0u64, 0u64, 0u64);
        let chunk_bytes = self.stream.len() / FRAMES * CHUNK;
        let before = self.pipeline.report();
        let begin = Instant::now();
        let mut busy_s = 0.0;
        'passes: loop {
            // Each phase starts a fresh pass, so frame `c·CHUNK + j` of the
            // stream is the reference slot of the j-th frame of chunk c.
            for (c, chunk) in self.stream.chunks(chunk_bytes).enumerate() {
                if begin.elapsed().as_secs_f64() >= seconds && lat.len() >= 4 {
                    break 'passes;
                }
                let req = self.next_seq / CHUNK as u64;
                let root = tracer.id();
                let mut rng = Rng::new(self.seed, 0xd0_0000 + req);
                let comp = RandomInjector::new(
                    rng.next_u64(),
                    0.05,
                    RandomKind::BitFlipInRange { lo: 52, hi: 62 },
                    1,
                )
                .with_site_filter(|s| matches!(s, Site::SubFftCompute { .. }));
                let mem = RandomByteInjector::new(rng.next_u64(), 0.25, ByteFaultKind::BitFlip, 1)
                    .with_region_filter(|r| matches!(r, ByteRegion::ColdSlot { .. }));
                let before_chunk = self.pipeline.report();
                let t0 = Instant::now();
                self.pipeline.push_bytes(chunk);
                let s1 = Instant::now();
                tracer.record(&mut log, tracer.id(), root, req, "stream.push_bytes", t0, s1);
                sync_ns += (s1 - t0).as_nanos() as u64;
                let mut delivered = Vec::with_capacity(CHUNK);
                loop {
                    let mut progress = false;
                    loop {
                        let p0 = Instant::now();
                        let more = self.pipeline.pump(&comp, &mem);
                        let p1 = Instant::now();
                        tracer.record(&mut log, tracer.id(), root, req, "stream.pump", p0, p1);
                        pump_ns += (p1 - p0).as_nanos() as u64;
                        if !more {
                            break;
                        }
                        progress = true;
                    }
                    loop {
                        let d0 = Instant::now();
                        let frame = self.pipeline.pop_frame(&comp);
                        let d1 = Instant::now();
                        tracer.record(&mut log, tracer.id(), root, req, "stream.pop_frame", d0, d1);
                        deliver_ns += (d1 - d0).as_nanos() as u64;
                        match frame {
                            Some(f) => delivered.push(f),
                            None => break,
                        }
                        progress = true;
                    }
                    if !progress {
                        break;
                    }
                }
                let t1 = Instant::now();
                let ms = (t1 - t0).as_secs_f64() * 1e3;
                busy_s += ms / 1e3;
                lat.push(ms);
                let first_seq = self.next_seq;
                self.next_seq += CHUNK as u64;
                let mut chunk_tally = Tally::default();
                tracer.span(&mut log, root, req, "bench.check", || {
                    let frames: Vec<(u64, &[f64])> =
                        delivered.iter().map(|f| (f.seq, f.samples.as_slice())).collect();
                    let (refs, ok, plain) = (&self.refs, &self.refs_ok, &self.plain);
                    check_frames(
                        &mut chunk_tally,
                        &frames,
                        first_seq,
                        c * CHUNK,
                        CHUNK,
                        refs,
                        ok,
                        plain,
                    );
                });
                let after_chunk = self.pipeline.report();
                let ft = ft_delta(&after_chunk.transform.ft, &before_chunk.transform.ft);
                let crc = after_chunk.cold.crc_detected - before_chunk.cold.crc_detected;
                let injected = (comp.fired() + mem.fired()) as u64;
                let detected = ft.total_detected() as u64 + crc;
                let ok = chunk_tally.failed() == 0;
                faults.note(injected, detected, ft.uncorrectable > 0, ok, ms);
                tally.merge(&chunk_tally);
                tracer.record(&mut log, root, 0, req, "bench.request", t0, Instant::now());
            }
        }
        let after = self.pipeline.report();
        let frames = tally.attempted;
        let report = ft_delta(&after.transform.ft, &before.transform.ft);
        let d = |a: u64, b: u64| (a - b) as f64;
        let chunks = lat.len() as f64;
        let per_op = |v: f64| ratio(v, chunks);
        Measured {
            throughput_tps: ratio((after.sink.delivered - before.sink.delivered) as f64, busy_s),
            latencies_ms: lat,
            tally,
            report,
            faults,
            layer: vec![
                ("stream.sync_ms", per_frame(sync_ns, frames)),
                ("stream.pump_ms", per_frame(pump_ns, frames)),
                ("stream.deliver_ms", per_frame(deliver_ns, frames)),
                ("stream.retries", per_op(d(after.transform.retries, before.transform.retries))),
                (
                    "stream.quarantined",
                    per_op(d(after.transform.quarantined, before.transform.quarantined)),
                ),
                ("stream.dropped", per_op(d(after.dropped(), before.dropped()))),
                (
                    "stream.crc_detected",
                    per_op(d(after.cold.crc_detected, before.cold.crc_detected)),
                ),
                (
                    "stream.frame_recomputed",
                    per_op(d(after.cold.recomputed, before.cold.recomputed)),
                ),
                (
                    "stream.delivered_share",
                    ratio(d(after.sink.delivered, before.sink.delivered), frames as f64),
                ),
            ],
            spans: log,
        }
    }
}

/// Field-wise `a - b` of two cumulative reports.
fn ft_delta(a: &FtReport, b: &FtReport) -> FtReport {
    let mut r = *a;
    r.comp_detected -= b.comp_detected;
    r.mem_detected -= b.mem_detected;
    r.mem_corrected -= b.mem_corrected;
    r.dmr_votes -= b.dmr_votes;
    r.subfft_recomputed -= b.subfft_recomputed;
    r.full_recomputed -= b.full_recomputed;
    r.comm_corrected -= b.comm_corrected;
    r.checks -= b.checks;
    r.uncorrectable -= b.uncorrectable;
    r
}
