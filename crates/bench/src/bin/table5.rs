//! Table 5 — minimal magnitude of error that can be detected, offline vs
//! online, at the paper's three injection points:
//!
//! * e1: input, after the input checksums exist;
//! * e2: input of the second part (the intermediate matrix);
//! * e3: the final output.
//!
//! For each point the harness sweeps magnitudes 10⁰ … 10⁻¹⁵ and reports the
//! smallest power of ten the scheme still detects.
//!
//! ```text
//! cargo run -p ftfft-bench --release --bin table5 -- [--log2n 16]
//! ```

use ftfft::prelude::*;
use ftfft_bench::Args;

fn detects(plan: &FtFftPlan, ws: &mut Workspace, n: usize, site: Site, magnitude: f64) -> bool {
    let inj = ScriptedInjector::new(vec![ScriptedFault::new(
        site,
        n / 3 + 11,
        FaultKind::AddDelta { re: magnitude, im: 0.0 },
    )]);
    let mut x = uniform_signal(n, 7);
    let mut out = vec![Complex64::ZERO; n];
    let rep = plan.execute(&mut x, &mut out, &inj, ws);
    rep.total_detected() > 0 || rep.uncorrectable > 0
}

fn min_detectable(plan: &FtFftPlan, ws: &mut Workspace, n: usize, site: Site) -> Option<i32> {
    let mut best: Option<i32> = None;
    for exp in (-15..=0).rev() {
        let mag = 10f64.powi(exp);
        if detects(plan, ws, n, site, mag) {
            best = Some(exp);
        } else {
            break;
        }
    }
    best
}

fn main() {
    let args = Args::parse();
    let log2n: u32 = args.get("log2n").unwrap_or(16);
    let n = 1usize << log2n;

    println!("=== Table 5: minimal detectable error magnitude, N = 2^{log2n} ===\n");
    println!("{:<12}{:>10}{:>10}{:>10}", "Scheme", "e1", "e2", "e3");

    for (label, scheme) in [("Offline", Scheme::OfflineMem), ("Online", Scheme::OnlineMemOpt)] {
        // e2 ("input of the second FFT") is internal to the offline
        // scheme's monolithic transform; its closest analogue there is a
        // mid-computation strike on the whole-FFT output.
        let sites = if scheme == Scheme::OfflineMem {
            [Site::InputMemory, Site::WholeFftCompute, Site::OutputMemory]
        } else {
            [Site::InputMemory, Site::IntermediateMemory, Site::OutputMemory]
        };
        let plan = FtFftPlan::from_spec(&PlanSpec::builder(n).scheme(scheme).build());
        let mut ws = plan.make_workspace();
        print!("{label:<12}");
        for site in sites {
            match min_detectable(&plan, &mut ws, n, site) {
                Some(exp) => print!("{:>10}", format!("1e{exp}")),
                None => print!("{:>10}", "-"),
            }
        }
        println!();
    }
    println!(
        "\n(paper at N=2^25: Offline 1e-2 everywhere; Online 1e-7/1e-6/1e-6 — the online\n per-sub-FFT η is orders of magnitude tighter than one whole-transform η.\n Note: the offline scheme's e2 strike window lies inside its single monolithic\n transform, surfacing like e1/e3 through the final verification.)"
    );
}
