//! The environment every result is recorded with: worker count, SIMD
//! dispatch, cache sizes, and each plan's resolved kernel, layout and
//! strategy — so a number taken on a different dispatch is identifiable.

use ftfft::core::{FtFftPlan, PlanSpec};
use ftfft::fft::{split_balanced, FftPlan, FftSpec};
use ftfft::numeric::simd_level;

/// Worker count: the machine's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Names of any `FTFFT_*` environment variables. Each one overrides a
/// planner or dispatch knob process-wide, so a run under any of them
/// measures a different program.
pub fn ftfft_overrides() -> Vec<String> {
    std::env::vars().map(|(k, _)| k).filter(|k| k.starts_with("FTFFT_")).collect()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `"L1d=48K L2=2048K L3=307200K"` from sysfs, for cpu0.
fn cache_sizes() -> String {
    let mut out = Vec::new();
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            break;
        };
        let tag = match kind.trim() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        out.push(format!("L{}{tag}={}", level.trim(), size.trim()));
    }
    out.join(" ")
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

pub fn fft_plan_json(p: &FftPlan) -> String {
    format!(
        "{{\"n\":{},\"kernel\":{},\"layout\":{},\"threads\":{}}}",
        p.len(),
        json_str(p.kernel_name()),
        json_str(p.layout_name()),
        p.strategy_threads().map_or("null".to_owned(), |t| t.to_string())
    )
}

/// One protected plan: its resolved spec plus the plain plans its two
/// sub-FFT sizes resolve to under that spec's template (the planner
/// heuristics are pure functions of size and pinned knobs).
pub fn protected_plan_json(plan: &FtFftPlan) -> String {
    let spec: &PlanSpec = plan.spec();
    let (k, m) = split_balanced(spec.n());
    let sub = |n: usize| FftPlan::from_spec(&FftSpec { n, ..spec.fft_template() });
    format!(
        "{{\"spec\":{},\"sub_k\":{},\"sub_m\":{}}}",
        json_str(&format!("{spec:?}")),
        fft_plan_json(&sub(k)),
        fft_plan_json(&sub(m))
    )
}

/// The environment record, one JSON object; `plans` are already JSON.
pub fn record(workload: &str, seed: u64, seconds: f64, trace: bool, plans: &[String]) -> String {
    let llc = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("cache size"))
                .map(|l| l.split(':').nth(1).unwrap_or("").trim().to_owned())
        })
        .unwrap_or_default();
    format!(
        "{{\"env\":{{\"workload\":{},\"seed\":{seed},\"seconds\":{seconds},\"trace\":{trace},\
         \"nproc\":{},\"simd\":{},\"caches\":{},\"cpuinfo_cache_size\":{},\
         \"ftfft_overrides\":{},\"plans\":[{}]}}}}",
        json_str(workload),
        nproc(),
        json_str(simd_level().name()),
        json_str(&cache_sizes()),
        json_str(&llc),
        ftfft_overrides().len(),
        plans.join(",")
    )
}
