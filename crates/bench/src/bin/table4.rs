//! Table 4 — round-off error approximation: measured max checksum
//! residuals vs the §8 model estimates, with throughput, for `U(-1,1)` and
//! `N(0,1)` inputs.
//!
//! Columns per part: `Max` (largest fault-free residual over all sub-FFT
//! checks in all runs), `Est` (the η the model sets), `Thput` (fraction of
//! checks that did not false-alarm).
//!
//! ```text
//! cargo run -p ftfft-bench --release --bin table4 -- [--log2n 16] [--runs 200]
//! ```

use ftfft::prelude::*;
use ftfft_bench::Args;

fn main() {
    let args = Args::parse();
    let log2n: u32 = args.get("log2n").unwrap_or(16);
    let runs: usize = args.get("runs").unwrap_or(200);
    let n = 1usize << log2n;

    println!("=== Table 4: round-off approximation, N = 2^{log2n}, {runs} runs ===\n");
    println!(
        "{:<10}{:>12}{:>12}{:>9}{:>12}{:>12}{:>9}",
        "Input", "Max 1", "Est 1", "Thput 1", "Max 2", "Est 2", "Thput 2"
    );

    for dist in [SignalDist::Uniform, SignalDist::Normal] {
        let spec = PlanSpec::builder(n)
            .scheme(Scheme::OnlineCompOpt)
            .sigma0(dist.component_std_dev())
            .build();
        let plan = FtFftPlan::from_spec(&spec);
        let th = *plan.thresholds();
        let mut ws = plan.make_workspace();
        let (k, m) = (plan.two().k(), plan.two().m());

        let mut max1 = 0.0f64;
        let mut max2 = 0.0f64;
        let mut false_alarms = 0u64;
        let mut checks = 0u64;
        for seed in 0..runs as u64 {
            let mut x = dist.generate(n, seed);
            let mut out = vec![Complex64::ZERO; n];
            let rep = plan.execute(&mut x, &mut out, &NoFaults, &mut ws);
            max1 = max1.max(rep.max_ok_residual_part1);
            max2 = max2.max(rep.max_ok_residual_part2);
            // In a fault-free run every recomputation is a false alarm.
            false_alarms += rep.subfft_recomputed as u64;
            checks += (k + m) as u64;
        }
        let thput = ftfft::roundoff::empirical_throughput(checks, false_alarms);
        let label = match dist {
            SignalDist::Uniform => "U(-1,1)",
            SignalDist::Normal => "N(0,1)",
        };
        println!(
            "{label:<10}{max1:>12.2e}{:>12.2e}{:>8.2}%{max2:>12.2e}{:>12.2e}{:>8.2}%",
            th.eta1,
            100.0 * thput,
            th.eta2,
            100.0 * thput
        );
    }
    println!(
        "\n(paper: Est within ~one order of Max, throughput ≈ 100%; the second part's\n residuals are larger because its inputs are √m bigger)"
    );
}
