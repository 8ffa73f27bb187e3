//! The repository benchmark: three seeded workloads driven through the
//! public `ftfft` API, each output checked by an oracle built at set-up.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <large_transform|service_mixed|downlink_campaign|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` runs the same loop untraced and then traced (half the
//! seconds each), times every layer probe, writes the spans to
//! `perfbench/out/`, and reports the per-layer metrics. `all` runs each
//! workload in a child process of its own, so process-wide figures (peak
//! RSS, the `ftfft-obs` registry) belong to that workload alone. The
//! last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` (the operations whose answer was wrong or
//! missing) and `metrics`. See `perfbench/README.md` for
//! what each metric means.

mod downlink;
mod env;
mod large;
mod oracle;
mod probes;
mod service;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use ftfft::core::FtReport;

use oracle::Tally;
use probes::ProbeTarget;
use stats::{median, percentile, ratio};
use trace::{SpanLog, Tracer};

pub const WORKLOADS: [&str; 3] = ["large_transform", "service_mixed", "downlink_campaign"];

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: [(&str, &str); 7] = [
    ("throughput_tps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ok_share", "share"),
    ("within_tol_share", "share"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run. Every workload reports every
/// one; a layer a workload leaves idle reads 0. Counts are per
/// operation (call, request or chunk).
pub const PER_LAYER: [(&str, &str); 56] = [
    ("parallel.execute_ms", "ms"),
    ("core.serial_ms", "ms"),
    ("parallel.speedup", "x"),
    ("fft.best_plain_ms", "ms"),
    ("fft.serial_plain_ms", "ms"),
    ("fft.gflops", "GFLOP/s"),
    ("fft.two_layer_ms", "ms"),
    ("fft.two_layer_vs_best", "x"),
    ("core.vs_best_plain", "x"),
    ("core.vs_two_layer", "x"),
    ("core.clean_ms", "ms"),
    ("core.faulted_ms", "ms"),
    ("checksum.ccg_ms", "ms"),
    ("checksum.ccg_gbps", "GB/s"),
    ("core.checks", "count/op"),
    ("core.comp_detected", "count/op"),
    ("core.mem_detected", "count/op"),
    ("core.subfft_recomputed", "count/op"),
    ("core.full_recomputed", "count/op"),
    ("core.uncorrectable", "count/op"),
    ("fault.injected", "count/op"),
    ("core.detect_ratio", "ratio"),
    ("roundoff.threshold_ms", "ms"),
    ("core.plan_build_ms", "ms"),
    ("parallel.pool_start_ms", "ms"),
    ("service.warm_ms", "ms"),
    ("stream.build_ms", "ms"),
    ("service.submit_us", "us"),
    ("service.in_service_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.execute_ms", "ms"),
    ("service.mean_batch", "requests"),
    ("service.batch_protected_share", "share"),
    ("service.batch_fallback_share", "share"),
    ("service.cache_hit_rate", "share"),
    ("core.false_positive_share", "share"),
    ("core.escape_share", "share"),
    ("core.uncorrectable_share", "share"),
    ("bench.gen_late_p99_ms", "ms"),
    ("bench.gen_late_max_ms", "ms"),
    ("stream.sync_ms", "ms"),
    ("stream.pump_ms", "ms"),
    ("stream.deliver_ms", "ms"),
    ("stream.retries", "count/op"),
    ("stream.quarantined", "count/op"),
    ("stream.dropped", "count/op"),
    ("stream.crc_detected", "count/op"),
    ("stream.frame_recomputed", "count/op"),
    ("stream.delivered_share", "share"),
    ("bench.bitwise_only_share", "share"),
    ("obs.trace_overhead", "ratio"),
    ("bench.self_ms", "ms/op"),
    ("fault.self_ms", "ms/op"),
    ("parallel.self_ms", "ms/op"),
    ("service.self_ms", "ms/op"),
    ("stream.self_ms", "ms/op"),
];

/// Injection and detection outcomes per operation.
#[derive(Default)]
pub struct FaultTally {
    pub injected: u64,
    /// Detections of any kind (ABFT checks, CRC).
    pub detected: u64,
    pub faulted_ops: u64,
    pub clean_ops: u64,
    /// Unfaulted operations with a detection.
    pub false_positives: u64,
    /// Faulted operations that failed the oracle with no detection.
    pub escapes: u64,
    pub uncorrectable_ops: u64,
    pub clean_ms: Vec<f64>,
    pub faulted_ms: Vec<f64>,
}

impl FaultTally {
    /// Notes one operation: faults injected into it, detections, whether
    /// it was flagged uncorrectable, the oracle's verdict and its latency.
    pub fn note(&mut self, injected: u64, detected: u64, uncorrectable: bool, ok: bool, ms: f64) {
        self.injected += injected;
        self.detected += detected;
        self.uncorrectable_ops += uncorrectable as u64;
        if injected > 0 {
            self.faulted_ops += 1;
            self.escapes += (!ok && detected == 0) as u64;
            self.faulted_ms.push(ms);
        } else {
            self.clean_ops += 1;
            self.false_positives += (detected > 0) as u64;
            self.clean_ms.push(ms);
        }
    }
}

/// One measured phase of a workload.
pub struct Measured {
    pub throughput_tps: f64,
    pub latencies_ms: Vec<f64>,
    pub tally: Tally,
    pub report: FtReport,
    pub faults: FaultTally,
    /// Workload-specific per-layer values.
    pub layer: Vec<(&'static str, f64)>,
    pub spans: SpanLog,
}

pub trait Workload {
    /// Percentile reported as `latency_tail_ms`: the highest with at
    /// least ten samples beyond it in a default-length run whose value
    /// repeats between runs.
    fn tail_q(&self) -> f64;
    fn measure(&mut self, seconds: f64, tracer: &Tracer) -> Measured;
    fn probe_target(&self) -> ProbeTarget;
    /// Resolved plan descriptions (JSON objects) for the environment record.
    fn plans(&self) -> Vec<String>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = raw.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        raw.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?} or all"));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

struct RunResult {
    tally: Tally,
    metrics: Vec<(&'static str, f64, &'static str)>,
    env: String,
}

fn layer_metrics(
    untraced: &Measured,
    traced: &Measured,
    probe: Vec<(&'static str, f64)>,
) -> Vec<(&'static str, f64)> {
    let ops = traced.latencies_ms.len().max(1) as f64;
    let r = &traced.report;
    let f = &traced.faults;
    let per_op = |v: u32| v as f64 / ops;
    let mut out = vec![
        ("core.checks", per_op(r.checks)),
        ("core.comp_detected", per_op(r.comp_detected)),
        ("core.mem_detected", per_op(r.mem_detected)),
        ("core.subfft_recomputed", per_op(r.subfft_recomputed)),
        ("core.full_recomputed", per_op(r.full_recomputed)),
        ("core.uncorrectable", per_op(r.uncorrectable)),
        ("fault.injected", f.injected as f64 / ops),
        ("core.detect_ratio", ratio(f.detected as f64, f.injected as f64)),
        (
            "bench.bitwise_only_share",
            ratio(traced.tally.bitwise_only as f64, traced.tally.attempted as f64),
        ),
        ("core.false_positive_share", ratio(f.false_positives as f64, f.clean_ops as f64)),
        ("core.escape_share", ratio(f.escapes as f64, f.faulted_ops as f64)),
        ("core.uncorrectable_share", ratio(f.uncorrectable_ops as f64, ops)),
        ("core.clean_ms", median(&f.clean_ms)),
        ("core.faulted_ms", median(&f.faulted_ms)),
        ("obs.trace_overhead", ratio(traced.throughput_tps, untraced.throughput_tps)),
    ];
    for (layer, ns) in trace::self_time_by_layer(&traced.spans) {
        let name = PER_LAYER.iter().map(|p| p.0).find(|n| *n == format!("{layer}.self_ms"));
        if let Some(name) = name {
            out.push((name, ns as f64 / 1e6 / ops));
        }
    }
    out.extend(probe);
    out.extend(traced.layer.iter().copied());
    out
}

fn run_one(name: &str, a: &Args) -> RunResult {
    let (mut w, setup): (Box<dyn Workload>, Vec<f64>) = match name {
        "large_transform" => {
            let (w, s) = large::setup(a.seed);
            (Box::new(w), s)
        }
        "service_mixed" => {
            let (w, s) = service::setup(a.seed);
            (Box::new(w), s)
        }
        _ => {
            let (w, s) = downlink::setup(a.seed);
            (Box::new(w), s)
        }
    };
    let env = env::record(name, a.seed, a.seconds, a.trace, &w.plans());
    // A traced run splits its time between an untraced and a traced pass
    // of the same loop, so it measures for `--seconds` in all.
    let phase_s = if a.trace { a.seconds / 2.0 } else { a.seconds };
    let off = Tracer::new(false);
    let untraced = w.measure(phase_s, &off);
    let mut tally = untraced.tally;
    let tail_q = w.tail_q();
    let beyond = untraced.latencies_ms.len() as f64 * (1.0 - tail_q);
    if beyond < 10.0 {
        eprintln!(
            "warning: {name}: only {beyond:.1} samples beyond p{:.0}; run longer for a stable tail",
            tail_q * 100.0
        );
    }
    let metrics = if a.trace {
        let on = Tracer::new(true);
        let traced = w.measure(phase_s, &on);
        tally.merge(&traced.tally);
        let mut probe_log = SpanLog::default();
        let probe = probes::run(&w.probe_target(), &on, &mut probe_log);
        let layer = layer_metrics(&untraced, &traced, probe);
        let mut spans = traced.spans;
        spans.append(probe_log);
        let path = out_dir().join(format!("trace-{name}-seed{}.jsonl", a.seed));
        match trace::write(&path, &env, &spans) {
            Ok(()) => eprintln!("trace: {} spans written to {}", spans.spans.len(), path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
        PER_LAYER
            .iter()
            .map(|&(n, unit)| {
                let v = layer.iter().find(|l| l.0 == n).map_or(0.0, |l| l.1);
                (n, v, unit)
            })
            .collect()
    } else {
        let m = &untraced;
        let values = [
            m.throughput_tps,
            median(&m.latencies_ms),
            percentile(&m.latencies_ms, tail_q),
            1.0 - m.tally.fail_share(),
            m.tally.within_tol_share(),
            median(&setup),
            env::peak_rss_mb(),
        ];
        END_TO_END.iter().zip(values).map(|(&(n, unit), v)| (n, v, unit)).collect()
    };
    RunResult { tally, metrics, env }
}

fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Reported metrics: name, value, unit.
type Metrics = Vec<(String, f64, String)>;

fn json_result(correct: bool, tally: &Tally, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.wrong,
        body.join(", ")
    )
}

/// The number after `"key": ` in a result line.
fn json_count(line: &str, key: &str) -> Option<u64> {
    let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
    rest[..rest.find(|c: char| !c.is_ascii_digit())?].parse().ok()
}

/// Runs one workload in a child process of this binary and relays its
/// report. Returns whether it was correct, its tally and its metrics.
fn run_child(name: &str, a: &Args) -> Result<(bool, Tally, Metrics), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", name, "--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string(), "--trace", if a.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{name}: could not start: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    let (result, report) = lines.split_last().ok_or(format!("{name}: printed nothing"))?;
    let mut metrics = Vec::new();
    for line in report {
        println!("{line}");
        if let [w, metric, value, unit] = line.split_whitespace().collect::<Vec<_>>()[..] {
            if w == name {
                let v = value.parse().map_err(|e| format!("{name} {metric}: {e}"))?;
                metrics.push((format!("{name}.{metric}"), v, unit.to_owned()));
            }
        }
    }
    let count = |key| json_count(result, key).ok_or(format!("{name}: no result line"));
    let tally =
        Tally { attempted: count("attempted")?, wrong: count("failed")?, ..Tally::default() };
    Ok((out.status.success() && result.contains("\"correct\": true"), tally, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("error: build with --release; a debug build measures a different program");
        return ExitCode::from(2);
    }
    let overrides = env::ftfft_overrides();
    if !overrides.is_empty() {
        eprintln!("error: refusing to run with planner overrides set: {overrides:?}");
        return ExitCode::from(2);
    }
    if let Err(e) = oracle::self_check() {
        eprintln!("error: the oracle is broken: {e}");
        return ExitCode::from(1);
    }

    let (mut correct, tally, mut all) = if args.workload == "all" {
        let (mut correct, mut tally, mut all) = (true, Tally::default(), Vec::new());
        for name in WORKLOADS {
            match run_child(name, &args) {
                Ok((ok, t, metrics)) => {
                    correct &= ok;
                    tally.merge(&t);
                    all.extend(metrics);
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(1);
                }
            }
        }
        (correct, tally, all)
    } else {
        let name = args.workload.as_str();
        let r = run_one(name, &args);
        println!("{}", r.env);
        for (n, v, u) in &r.metrics {
            println!("{name} {n} {v} {u}");
        }
        // The gated metric is the complement `ok_share`, which is never 0.
        let t = &r.tally;
        println!(
            "{name} fail_share {} share ({} of {} failed: {} bitwise-only, {} flagged, {} wrong)",
            t.fail_share(),
            t.failed(),
            t.attempted,
            t.bitwise_only,
            t.flagged,
            t.wrong
        );
        if r.tally.anomalies > 0 {
            eprintln!(
                "error: {} unexpected outputs (frames or responses never requested)",
                r.tally.anomalies
            );
        }
        let metrics = r.metrics.iter().map(|&(n, v, u)| (n.to_owned(), v, u.to_owned())).collect();
        (r.tally.anomalies == 0, r.tally, metrics)
    };
    let finite = all.iter().all(|m| m.1.is_finite());
    correct &= finite && tally.attempted > 0;
    if !finite {
        all.iter_mut().for_each(|m| m.1 = if m.1.is_finite() { m.1 } else { -1.0 });
        eprintln!("error: a metric was not finite");
    }
    println!("{}", json_result(correct, &tally, &all));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric the binary reports is declared, with its unit, in the
    /// repository's `BENCHMARK.json`, and the counts agree.
    #[test]
    fn metrics_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{name} ({unit}) missing from BENCHMARK.json");
        }
        assert_eq!(json.matches("\"better\"").count(), END_TO_END.len() + PER_LAYER.len());
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }
}
