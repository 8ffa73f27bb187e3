//! Threshold and round-off behaviour: no false positives across many
//! fault-free seeds, residuals within the §8 model, throughput accounting.

use ftfft::prelude::*;

#[test]
fn no_false_positives_over_many_seeds() {
    let n = 4096;
    let plan = FtFftPlan::from_spec(&PlanSpec::builder(n).scheme(Scheme::OnlineMemOpt).build());
    let mut ws = plan.make_workspace();
    for seed in 0..40u64 {
        let mut x = uniform_signal(n, seed);
        let mut out = vec![Complex64::ZERO; n];
        let rep = plan.execute(&mut x, &mut out, &NoFaults, &mut ws);
        assert!(rep.is_clean(), "seed {seed}: {rep:?}");
    }
}

#[test]
fn no_false_positives_with_normal_inputs() {
    let n = 4096;
    let spec = PlanSpec::builder(n)
        .scheme(Scheme::OnlineMemOpt)
        .sigma0(SignalDist::Normal.component_std_dev())
        .build();
    let plan = FtFftPlan::from_spec(&spec);
    let mut ws = plan.make_workspace();
    for seed in 0..20u64 {
        let mut x = ftfft::numeric::normal_signal(n, seed);
        let mut out = vec![Complex64::ZERO; n];
        let rep = plan.execute(&mut x, &mut out, &NoFaults, &mut ws);
        assert!(rep.is_clean(), "seed {seed}: {rep:?}");
    }
}

#[test]
fn observed_residuals_sit_below_model_thresholds() {
    let n = 4096;
    let plan = FtFftPlan::from_spec(&PlanSpec::builder(n).scheme(Scheme::OnlineCompOpt).build());
    let th = *plan.thresholds();
    let mut ws = plan.make_workspace();
    let mut max1 = 0.0f64;
    let mut max2 = 0.0f64;
    for seed in 100..130u64 {
        let mut x = uniform_signal(n, seed);
        let mut out = vec![Complex64::ZERO; n];
        let rep = plan.execute(&mut x, &mut out, &NoFaults, &mut ws);
        max1 = max1.max(rep.max_ok_residual_part1);
        max2 = max2.max(rep.max_ok_residual_part2);
    }
    assert!(max1 > 0.0 && max1 <= th.eta1, "part1 max {max1:.3e} vs η1 {:.3e}", th.eta1);
    assert!(max2 > 0.0 && max2 <= th.eta2, "part2 max {max2:.3e} vs η2 {:.3e}", th.eta2);
    // Table 4's structure: the second part's residual floor is higher.
    assert!(max2 > max1, "second part carries larger values");
}

#[test]
fn threshold_scale_zero_forces_detection_storm() {
    // Degenerate setting: η = 0 turns every round-off wiggle into a
    // "detected error"; the executor must still terminate (bounded
    // retries) and report the failures as uncorrectable.
    let n = 256;
    let spec = PlanSpec::builder(n)
        .scheme(Scheme::OnlineCompOpt)
        .threshold_scale(0.0)
        .max_retries(1)
        .build();
    let plan = FtFftPlan::from_spec(&spec);
    let mut x = uniform_signal(n, 1);
    let mut out = vec![Complex64::ZERO; n];
    let rep = plan.execute_alloc(&mut x, &mut out, &NoFaults);
    assert!(rep.uncorrectable > 0);
    assert!(rep.subfft_recomputed > 0);
}

#[test]
fn throughput_model_matches_paper_constants() {
    // η = 3σ√N ⇒ 0.997 (§8.1).
    let t = throughput(3.0, 1.0);
    assert!((t - 0.997).abs() < 5e-4);
    // Campaign bookkeeping.
    assert!((ftfft::roundoff::empirical_throughput(997, 3) - 0.997).abs() < 1e-9);
}

#[test]
fn calibrator_reproduces_table6_protocol() {
    // Fault-free runs → max residual → η with headroom → no false alarms.
    let n = 1024;
    let plan = FtFftPlan::from_spec(&PlanSpec::builder(n).scheme(Scheme::OnlineCompOpt).build());
    let mut ws = plan.make_workspace();
    let mut cal = Calibrator::new();
    for seed in 0..10u64 {
        let mut x = uniform_signal(n, seed);
        let mut out = vec![Complex64::ZERO; n];
        let rep = plan.execute(&mut x, &mut out, &NoFaults, &mut ws);
        cal.observe(rep.max_ok_residual_part1.max(rep.max_ok_residual_part2));
    }
    assert_eq!(cal.count(), 10);
    let eta = cal.eta(2.0);
    assert!(eta > 0.0);
    // The calibrated η must clear every observed residual.
    assert!(eta >= cal.max_residual());
}

#[test]
fn model_thresholds_scale_with_problem_size() {
    let sigma = SignalDist::Uniform.component_std_dev();
    let small = thresholds_for_split(1 << 10, 1 << 5, 1 << 5, sigma);
    let large = thresholds_for_split(1 << 20, 1 << 10, 1 << 10, sigma);
    assert!(large.eta1 > small.eta1);
    assert!(large.eta_offline > small.eta_offline);
    // The offline/online gap grows with N — the Table 5 story.
    assert!(large.eta_offline / large.eta2 > small.eta_offline / small.eta2);
}
