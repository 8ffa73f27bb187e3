//! Table 6 — distribution of output relative errors over fault-injection
//! campaigns: one random high-bit flip per run in the input or output
//! array, 1000 runs (default 300 here), for No-Correction / Offline /
//! Online.
//!
//! Reported per scheme: the fraction of runs with relative error
//! `‖x′−x‖∞/‖x‖∞` above 10⁻⁶ / 10⁻⁸ / 10⁻¹⁰ / 10⁻¹², plus the
//! "Uncorrected" bucket (detected but not repaired within the retry
//! budget, or index decode failed — the paper's round-off-indexing cases).
//!
//! ```text
//! cargo run -p ftfft-bench --release --bin table6 -- [--log2n 15] [--runs 300]
//! ```

use ftfft::prelude::*;
use ftfft_bench::Args;

struct Row {
    uncorrected: usize,
    above: [usize; 4], // > 1e-6, 1e-8, 1e-10, 1e-12
    runs: usize,
}

impl Row {
    fn new() -> Self {
        Row { uncorrected: 0, above: [0; 4], runs: 0 }
    }

    fn record(&mut self, err: f64, uncorrected: bool) {
        self.runs += 1;
        if uncorrected {
            self.uncorrected += 1;
        }
        let thresholds = [1e-6, 1e-8, 1e-10, 1e-12];
        for (slot, &t) in self.above.iter_mut().zip(&thresholds) {
            if err > t {
                *slot += 1;
            }
        }
    }

    fn print(&self, label: &str) {
        print!("{label:<16}");
        print!("{:>11.1}%", 100.0 * self.uncorrected as f64 / self.runs as f64);
        for &a in &self.above {
            print!("{:>11.1}%", 100.0 * a as f64 / self.runs as f64);
        }
        println!();
    }
}

fn main() {
    let args = Args::parse();
    let log2n: u32 = args.get("log2n").unwrap_or(15);
    let runs: usize = args.get("runs").unwrap_or(300);
    let n = 1usize << log2n;

    println!("=== Table 6: relative output error distribution, N = 2^{log2n}, {runs} runs ===");
    println!("(one random bit flip per run, bits 52..=62, input or output array)\n");

    // Clean reference per seed signal.
    let signal = uniform_signal(n, 1);
    let plain = FtFftPlan::from_spec(&PlanSpec::builder(n).build());
    let mut clean = vec![Complex64::ZERO; n];
    {
        let mut x = signal.clone();
        plain.execute_alloc(&mut x, &mut clean, &NoFaults);
    }

    println!(
        "{:<16}{:>12}{:>12}{:>12}{:>12}{:>12}",
        "Scheme", "Uncorrected", ">1e-6", ">1e-8", ">1e-10", ">1e-12"
    );

    // --- No correction: flip a bit in the input, run plain. --------------
    let mut row = Row::new();
    for seed in 0..runs as u64 {
        let inj = RandomInjector::new(seed, 1.0, RandomKind::BitFlipInRange { lo: 52, hi: 62 }, 1)
            .with_site_filter(|s| matches!(s, Site::InputMemory | Site::OutputMemory));
        let mut x = signal.clone();
        // Emulate the unprotected pipeline: corrupt input before, output after.
        inj.inject(InjectionCtx::default(), Site::InputMemory, &mut x);
        let mut out = vec![Complex64::ZERO; n];
        plain.execute_alloc(&mut x, &mut out, &NoFaults);
        inj.inject(InjectionCtx::default(), Site::OutputMemory, &mut out);
        row.record(relative_error_inf(&out, &clean), false);
    }
    row.print("No Correction");

    // --- Offline and Online protected runs. ------------------------------
    for (label, scheme, retries) in
        [("Offline", Scheme::OfflineMem, 3u32), ("Online", Scheme::OnlineMemOpt, 3u32)]
    {
        let spec = PlanSpec::builder(n).scheme(scheme).max_retries(retries).build();
        let plan = FtFftPlan::from_spec(&spec);
        let mut ws = plan.make_workspace();
        let mut row = Row::new();
        for seed in 0..runs as u64 {
            let inj =
                RandomInjector::new(seed, 1.0, RandomKind::BitFlipInRange { lo: 52, hi: 62 }, 1)
                    .with_site_filter(|s| matches!(s, Site::InputMemory | Site::OutputMemory));
            let mut x = signal.clone();
            let mut out = vec![Complex64::ZERO; n];
            let rep = plan.execute(&mut x, &mut out, &inj, &mut ws);
            let err = relative_error_inf(&out, &clean);
            let uncorrected = rep.uncorrectable > 0 || (!err.is_finite());
            row.record(err, uncorrected);
        }
        row.print(label);
    }

    println!(
        "\n(paper at N=2^25: No-Correction leaves 73–84% of runs >1e-6..1e-12; Offline\n ~4.4% uncorrected with 21–36% residue rows; Online 2.5% uncorrected and every\n other bucket at the same 2.5% — i.e. coverage ≈96% at 1e-12 vs ≈64% offline)"
    );
}
