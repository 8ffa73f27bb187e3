//! End-to-end computational fault campaigns: every injection site, every
//! scheme that claims to cover it, with injector-log/report cross-checks.

use ftfft::prelude::*;

const N: usize = 1024;

fn run(
    scheme: Scheme,
    faults: Vec<ScriptedFault>,
) -> (Vec<Complex64>, Vec<Complex64>, FtReport, ScriptedInjector) {
    let x = uniform_signal(N, 77);
    let want = dft_naive(&x, Direction::Forward);
    let plan = FtFftPlan::from_spec(&PlanSpec::builder(N).scheme(scheme).build());
    let inj = ScriptedInjector::new(faults);
    let mut xin = x;
    let mut out = vec![Complex64::ZERO; N];
    let rep = plan.execute_alloc(&mut xin, &mut out, &inj);
    (out, want, rep, inj)
}

#[test]
fn every_first_part_subfft_index_is_protected() {
    let plan = FtFftPlan::from_spec(&PlanSpec::builder(N).scheme(Scheme::OnlineCompOpt).build());
    let k = plan.two().k();
    for index in (0..k).step_by(7) {
        let (out, want, rep, inj) = run(
            Scheme::OnlineCompOpt,
            vec![ScriptedFault::new(
                Site::SubFftCompute { part: Part::First, index },
                index % 13,
                FaultKind::AddDelta { re: 1e-3, im: -1e-3 },
            )],
        );
        assert_eq!(inj.log().len(), 1, "index {index} never injected");
        assert_eq!(rep.comp_detected, 1, "index {index}: {rep:?}");
        assert!(ftfft::numeric::max_abs_diff(&out, &want) < 1e-8 * N as f64, "index {index}");
    }
}

#[test]
fn every_second_part_subfft_index_is_protected() {
    let plan = FtFftPlan::from_spec(&PlanSpec::builder(N).scheme(Scheme::OnlineCompOpt).build());
    let m = plan.two().m();
    for index in (0..m).step_by(5) {
        let (out, want, rep, inj) = run(
            Scheme::OnlineCompOpt,
            vec![ScriptedFault::new(
                Site::SubFftCompute { part: Part::Second, index },
                index % 17,
                FaultKind::AddDelta { re: 0.0, im: 2e-3 },
            )],
        );
        assert_eq!(inj.log().len(), 1);
        assert_eq!(rep.comp_detected, 1, "index {index}: {rep:?}");
        assert!(ftfft::numeric::max_abs_diff(&out, &want) < 1e-8 * N as f64);
    }
}

#[test]
fn online_recovery_is_local_offline_recovery_is_global() {
    // The headline claim: one fault costs the online scheme one sub-FFT,
    // the offline scheme the whole transform.
    let (out, want, rep, _) = run(
        Scheme::OnlineCompOpt,
        vec![ScriptedFault::new(
            Site::SubFftCompute { part: Part::First, index: 2 },
            0,
            FaultKind::AddDelta { re: 1.0, im: 0.0 },
        )],
    );
    assert_eq!(rep.subfft_recomputed, 1);
    assert_eq!(rep.full_recomputed, 0);
    assert!(ftfft::numeric::max_abs_diff(&out, &want) < 1e-8 * N as f64);

    let (out, want, rep, _) = run(
        Scheme::Offline,
        vec![ScriptedFault::new(
            Site::WholeFftCompute,
            100,
            FaultKind::AddDelta { re: 1.0, im: 0.0 },
        )],
    );
    assert_eq!(rep.subfft_recomputed, 0);
    assert_eq!(rep.full_recomputed, 1);
    assert!(ftfft::numeric::max_abs_diff(&out, &want) < 1e-8 * N as f64);
}

#[test]
fn dmr_covers_twiddle_and_checksum_generation_everywhere() {
    for scheme in
        [Scheme::OnlineComp, Scheme::OnlineCompOpt, Scheme::OnlineMem, Scheme::OnlineMemOpt]
    {
        let (out, want, rep, inj) = run(
            scheme,
            vec![
                ScriptedFault::new(
                    Site::TwiddleDmrPass { pass: 0 },
                    1,
                    FaultKind::SetValue { re: 1e3, im: 1e3 },
                )
                .at_occurrence(2),
                ScriptedFault::new(
                    Site::ChecksumGenPass { pass: 1 },
                    3,
                    FaultKind::AddDelta { re: 7.0, im: 0.0 },
                ),
            ],
        );
        assert_eq!(inj.log().len(), 2, "{scheme:?}");
        assert_eq!(rep.dmr_votes, 2, "{scheme:?}: {rep:?}");
        assert_eq!(rep.subfft_recomputed, 0, "{scheme:?}: DMR fixes without recompute");
        assert!(ftfft::numeric::max_abs_diff(&out, &want) < 1e-8 * N as f64, "{scheme:?}");
    }
}

#[test]
fn burst_of_faults_across_parts_is_survived() {
    // One fault per protected region class, all in one run.
    let (out, want, rep, inj) = run(
        Scheme::OnlineMemOpt,
        vec![
            ScriptedFault::new(
                Site::SubFftCompute { part: Part::First, index: 0 },
                0,
                FaultKind::AddDelta { re: 0.5, im: 0.0 },
            ),
            ScriptedFault::new(
                Site::SubFftCompute { part: Part::First, index: 31 },
                5,
                FaultKind::AddDelta { re: 0.0, im: 0.5 },
            ),
            ScriptedFault::new(
                Site::SubFftCompute { part: Part::Second, index: 16 },
                8,
                FaultKind::AddDelta { re: -0.25, im: 0.0 },
            ),
            ScriptedFault::new(
                Site::TwiddleDmrPass { pass: 0 },
                2,
                FaultKind::SetValue { re: 0.0, im: 0.0 },
            ),
            ScriptedFault::new(Site::InputMemory, 500, FaultKind::SetValue { re: 3.0, im: 3.0 }),
            ScriptedFault::new(Site::OutputMemory, 42, FaultKind::AddDelta { re: 2.0, im: 2.0 }),
        ],
    );
    assert_eq!(inj.log().len(), 6);
    assert_eq!(rep.uncorrectable, 0, "{rep:?}");
    assert!(rep.total_detected() >= 5, "{rep:?}");
    assert!(ftfft::numeric::max_abs_diff(&out, &want) < 1e-8 * N as f64);
}

#[test]
fn detection_threshold_gap_offline_vs_online() {
    // Table 5's mechanism: a small error visible to the online scheme's
    // per-sub-FFT η escapes the offline scheme's whole-transform η. At
    // N=1024 the thresholds are η₁ ≈ 2e-12 and η_offline ≈ 3e-9 (both grow
    // with N — the paper's 1e-7 vs 1e-2 gap is at N=2²⁵), so a 1e-10 error
    // sits exactly in the gap.
    let magnitude = 1e-10;
    let fault =
        |site| vec![ScriptedFault::new(site, 11, FaultKind::AddDelta { re: magnitude, im: 0.0 })];

    let (_, _, rep_online, _) =
        run(Scheme::OnlineCompOpt, fault(Site::SubFftCompute { part: Part::First, index: 1 }));
    assert!(rep_online.comp_detected >= 1, "online must see 1e-5: {rep_online:?}");

    let (_, _, rep_offline, _) = run(Scheme::Offline, fault(Site::WholeFftCompute));
    assert_eq!(rep_offline.comp_detected, 0, "offline η is too coarse for 1e-5: {rep_offline:?}");
}

#[test]
fn random_campaign_no_silent_output_corruption() {
    let plan = FtFftPlan::from_spec(&PlanSpec::builder(N).scheme(Scheme::OnlineMemOpt).build());
    let mut ws = plan.make_workspace();
    let x = uniform_signal(N, 1);
    let mut clean = vec![Complex64::ZERO; N];
    let mut xin = x.clone();
    plan.execute(&mut xin, &mut clean, &NoFaults, &mut ws);

    let mut campaigns = 0;
    for seed in 0..60u64 {
        let inj = RandomInjector::new(seed, 1.0, RandomKind::BitFlipInRange { lo: 54, hi: 62 }, 1)
            .with_site_filter(|s| {
                matches!(s, Site::InputMemory | Site::IntermediateMemory | Site::OutputMemory)
            });
        let mut xin = x.clone();
        let mut out = vec![Complex64::ZERO; N];
        let rep = plan.execute(&mut xin, &mut out, &inj, &mut ws);
        if inj.log().is_empty() {
            continue;
        }
        campaigns += 1;
        let err = relative_error_inf(&out, &clean);
        assert!(
            rep.total_detected() > 0 || err < 1e-10,
            "seed {seed}: silent corruption err={err}, {rep:?}"
        );
    }
    assert!(campaigns > 30, "campaign should have injected most seeds");
}
