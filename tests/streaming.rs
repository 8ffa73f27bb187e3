//! Property and integration tests for the streaming subsystem
//! (`ftfft-stream`): overlap-save convolution against the direct O(n·k)
//! oracle, the protected real-input path against the complex plan,
//! STFT round trips, chunking invariance, and the pooled frame scheduler.

use ftfft::prelude::*;
use ftfft::stream::cola_profile;
use proptest::prelude::*;

fn real_signal(n: usize, seed: u64) -> Vec<f64> {
    uniform_signal(n, seed).iter().map(|z| z.re).collect()
}

/// Direct (schoolbook) linear convolution — the O(n·k) oracle.
fn convolve_direct(x: &[f64], taps: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; x.len() + taps.len() - 1];
    for (i, &a) in x.iter().enumerate() {
        for (j, &b) in taps.iter().enumerate() {
            y[i + j] += a * b;
        }
    }
    y
}

/// Runs a whole signal through a fresh convolver (process + flush).
fn stream_convolve(
    taps: &[f64],
    fft_size: usize,
    scheme: Scheme,
    x: &[f64],
    chunks: &[usize],
    injector: &dyn FaultInjector,
) -> (Vec<f64>, StreamReport) {
    let mut conv = StreamingConvolver::from_spec_with_fft_size(
        taps,
        fft_size,
        &PlanSpec::builder(fft_size).scheme(scheme).build(),
    );
    let mut out = vec![0.0; x.len() + taps.len() - 1 + conv.hop()];
    let mut consumed = 0;
    let mut produced = 0;
    for &c in chunks {
        let end = (consumed + c).min(x.len());
        produced += conv.process_into(&x[consumed..end], &mut out[produced..], injector);
        consumed = end;
    }
    produced += conv.process_into(&x[consumed..], &mut out[produced..], injector);
    produced += conv.flush_into(&mut out[produced..], injector);
    out.truncate(produced);
    let report = *conv.report();
    (out, report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Overlap-save protected convolution equals the direct O(n·k)
    /// convolution on random signals and taps, for any scheme class.
    #[test]
    fn overlap_save_matches_direct(
        len in 40usize..400,
        taps_log in 1u32..5,
        seed in 0u64..1000,
    ) {
        let taps = real_signal((1usize << taps_log) + 1, seed.wrapping_mul(7) + 1);
        let x = real_signal(len, seed + 1);
        let want = convolve_direct(&x, &taps);
        let (got, rep) = stream_convolve(
            &taps, 64, Scheme::OnlineMemOpt, &x, &[], &NoFaults,
        );
        prop_assert_eq!(got.len(), want.len());
        for (t, (a, b)) in got.iter().zip(&want).enumerate() {
            prop_assert!((a - b).abs() < 1e-9, "t={} {} vs {}", t, a, b);
        }
        prop_assert!(rep.is_clean());
    }

    /// Streaming output is bitwise independent of input chunking — any
    /// split of `process_into` calls equals the one-shot batch, report
    /// included.
    #[test]
    fn chunked_stream_equals_one_shot_bitwise(
        len in 100usize..500,
        seed in 0u64..1000,
        cuts in prop::collection::vec(1usize..97, 0..8),
    ) {
        let taps = real_signal(9, 42);
        let x = real_signal(len, seed);
        let (want, want_rep) =
            stream_convolve(&taps, 64, Scheme::OnlineMemOpt, &x, &[], &NoFaults);
        let (got, got_rep) =
            stream_convolve(&taps, 64, Scheme::OnlineMemOpt, &x, &cuts, &NoFaults);
        prop_assert_eq!(got, want);
        prop_assert_eq!(got_rep, want_rep);
    }

    /// The protected real-input path agrees with the complex plan run on
    /// the real-extended input (clean).
    #[test]
    fn real_plan_matches_complex_plan(log2n in 4u32..9, seed in 0u64..1000) {
        let n = 1usize << log2n;
        let x = real_signal(n, seed);
        let real_plan =
            RealFtFftPlan::from_spec(&PlanSpec::builder(n).scheme(Scheme::OnlineMemOpt).build());
        let mut rws = real_plan.make_workspace();
        let mut spec = vec![Complex64::ZERO; real_plan.spectrum_len()];
        let rep = real_plan.forward(&x, &mut spec, &NoFaults, &mut rws);
        prop_assert_eq!(rep.uncorrectable, 0);

        let complex_plan =
            FtFftPlan::from_spec(&PlanSpec::builder(n).scheme(Scheme::OnlineMemOpt).build());
        let mut cws = complex_plan.make_workspace();
        let mut xc: Vec<Complex64> = x.iter().map(|&r| Complex64::new(r, 0.0)).collect();
        let mut want = vec![Complex64::ZERO; n];
        complex_plan.execute(&mut xc, &mut want, &NoFaults, &mut cws);

        for j in 0..=n / 2 {
            prop_assert!(
                spec[j].approx_eq(want[j], 1e-9 * n as f64),
                "bin {}: {:?} vs {:?}", j, spec[j], want[j]
            );
        }
    }

    /// STFT → ISTFT round trip is exact (≤ 1e-10) for COLA windows
    /// wherever the window stack covers the sample.
    #[test]
    fn stft_round_trip(
        frames in 3usize..12,
        hop_div in 1u32..3,
        seed in 0u64..1000,
        win in prop::sample::select(vec![Window::Hann, Window::Hamming]),
    ) {
        let n = 128;
        let hop = n / (2 << hop_div.min(2));
        let spec = PlanSpec::builder(n).scheme(Scheme::OnlineMemOpt).build();
        let plan = StftPlan::from_spec(&spec, hop, win);
        let len = plan.signal_len(frames);
        let x = real_signal(len, seed);
        let mut ws = plan.make_workspace();
        let mut spec = vec![Complex64::ZERO; plan.num_frames(len) * plan.bins()];
        let a_rep = plan.analyze_into(&x, &mut spec, &NoFaults, &mut ws);
        prop_assert!(a_rep.is_clean());
        let mut back = vec![0.0; len];
        let s_rep = plan.synthesize_into(&spec, &mut back, &NoFaults, &mut ws);
        prop_assert!(s_rep.is_clean());
        for t in 1..len - 1 {
            prop_assert!((back[t] - x[t]).abs() < 1e-10, "t={} {} vs {}", t, back[t], x[t]);
        }
    }
}

#[test]
fn convolver_works_with_every_scheme() {
    let taps = real_signal(9, 1);
    let x = real_signal(260, 2);
    let want = convolve_direct(&x, &taps);
    for scheme in Scheme::ALL {
        let (got, rep) = stream_convolve(&taps, 64, scheme, &x, &[50, 3, 120], &NoFaults);
        assert_eq!(got.len(), want.len(), "{scheme:?}");
        for (t, (a, b)) in got.iter().zip(&want).enumerate() {
            assert!((a - b).abs() < 1e-9, "{scheme:?} t={t}: {a} vs {b}");
        }
        assert!(rep.is_clean(), "{scheme:?}: {rep:?}");
        assert!(rep.frames > 0, "{scheme:?}");
    }
}

#[test]
fn stft_works_with_every_scheme() {
    for scheme in Scheme::ALL {
        let plan =
            StftPlan::from_spec(&PlanSpec::builder(128).scheme(scheme).build(), 64, Window::Hann);
        let len = plan.signal_len(6);
        let x = real_signal(len, 3);
        let mut ws = plan.make_workspace();
        let mut spec = vec![Complex64::ZERO; plan.num_frames(len) * plan.bins()];
        let rep = plan.analyze_into(&x, &mut spec, &NoFaults, &mut ws);
        assert!(rep.is_clean(), "{scheme:?}: {rep:?}");
        let mut back = vec![0.0; len];
        plan.synthesize_into(&spec, &mut back, &NoFaults, &mut ws);
        for t in 1..len - 1 {
            assert!((back[t] - x[t]).abs() < 1e-10, "{scheme:?} t={t}");
        }
    }
}

/// Scripted per-frame faults at covered sites are detected and corrected
/// in the streaming convolver: the output still matches the direct
/// convolution and the `StreamReport` carries the counts.
#[test]
fn convolver_corrects_scripted_faults() {
    let taps = real_signal(9, 4);
    let x = real_signal(300, 5);
    let want = convolve_direct(&x, &taps);
    for scheme in [Scheme::OnlineCompOpt, Scheme::OnlineMemOpt, Scheme::OfflineMem] {
        // The online schemes visit per-sub-FFT sites; the offline scheme
        // protects the whole transform.
        let faults = if scheme == Scheme::OfflineMem {
            vec![
                ScriptedFault::new(
                    Site::WholeFftCompute,
                    2,
                    FaultKind::AddDelta { re: 3e-2, im: 0.0 },
                ),
                ScriptedFault::new(
                    Site::WholeFftCompute,
                    1,
                    FaultKind::AddDelta { re: 0.0, im: -4e-2 },
                )
                .at_occurrence(2),
            ]
        } else {
            vec![
                ScriptedFault::new(
                    Site::SubFftCompute { part: Part::First, index: 1 },
                    2,
                    FaultKind::AddDelta { re: 3e-2, im: 0.0 },
                ),
                ScriptedFault::new(
                    Site::SubFftCompute { part: Part::Second, index: 0 },
                    1,
                    FaultKind::AddDelta { re: 0.0, im: -4e-2 },
                )
                .at_occurrence(2),
            ]
        };
        let inj = ScriptedInjector::new(faults);
        let (got, rep) = stream_convolve(&taps, 64, scheme, &x, &[97], &inj);
        assert!(inj.exhausted(), "{scheme:?}: faults not all fired");
        assert!(rep.detected() >= 2, "{scheme:?}: {rep:?}");
        assert!(rep.corrected() >= 1, "{scheme:?}: {rep:?}");
        assert_eq!(rep.ft.uncorrectable, 0, "{scheme:?}");
        for (t, (a, b)) in got.iter().zip(&want).enumerate() {
            assert!((a - b).abs() < 1e-9, "{scheme:?} t={t}: {a} vs {b}");
        }
    }
}

/// Memory faults on the packed frames are located and repaired by the
/// memory-protecting schemes mid-stream.
#[test]
fn convolver_corrects_memory_faults() {
    let taps = real_signal(7, 8);
    let x = real_signal(280, 9);
    let want = convolve_direct(&x, &taps);
    let faults = vec![ScriptedFault::new(
        Site::InputMemory,
        11,
        FaultKind::SetValue { re: 40.0, im: -40.0 },
    )
    .at_occurrence(3)];
    let inj = ScriptedInjector::new(faults);
    let (got, rep) = stream_convolve(&taps, 64, Scheme::OnlineMemOpt, &x, &[], &inj);
    assert!(inj.exhausted());
    assert!(rep.ft.mem_detected >= 1, "{rep:?}");
    assert!(rep.ft.mem_corrected >= 1, "{rep:?}");
    for (t, (a, b)) in got.iter().zip(&want).enumerate() {
        assert!((a - b).abs() < 1e-9, "t={t}: {a} vs {b}");
    }
}

/// STFT analysis under scripted faults: the spectrogram equals the clean
/// one bitwise after correction.
#[test]
fn stft_corrects_scripted_faults() {
    let plan = StftPlan::from_spec(
        &PlanSpec::builder(256).scheme(Scheme::OnlineMemOpt).build(),
        128,
        Window::Hann,
    );
    let len = plan.signal_len(7);
    let x = real_signal(len, 11);
    let frames = plan.num_frames(len);
    let mut ws = plan.make_workspace();

    let mut clean = vec![Complex64::ZERO; frames * plan.bins()];
    plan.analyze_into(&x, &mut clean, &NoFaults, &mut ws);

    let inj = ScriptedInjector::new(vec![ScriptedFault::new(
        Site::SubFftCompute { part: Part::First, index: 2 },
        5,
        FaultKind::BitFlip { bit: 60, component: Component::Re },
    )]);
    let mut faulted = vec![Complex64::ZERO; frames * plan.bins()];
    let rep = plan.analyze_into(&x, &mut faulted, &inj, &mut ws);
    assert!(inj.exhausted());
    assert!(rep.detected() >= 1, "{rep:?}");
    assert_eq!(rep.ft.uncorrectable, 0);
    assert_eq!(faulted, clean, "corrected spectrogram must be bitwise clean");
}

/// The pooled scheduler at several worker counts equals the serial
/// engine bitwise (clean), with identical report totals under faults.
#[test]
fn scheduler_matches_serial_at_any_worker_count() {
    let plan = StftPlan::from_spec(
        &PlanSpec::builder(128).scheme(Scheme::OnlineMemOpt).build(),
        32,
        Window::Hamming,
    );
    let len = plan.signal_len(11);
    let x = real_signal(len, 13);
    let frames = plan.num_frames(len);
    let mut ws = plan.make_workspace();
    let mut want = vec![Complex64::ZERO; frames * plan.bins()];
    let want_rep = plan.analyze_into(&x, &mut want, &NoFaults, &mut ws);

    for threads in [1usize, 2, 4, 8] {
        let sched = FrameScheduler::new(Some(threads));
        let mut wss = sched.make_stft_workspaces(&plan);
        let mut got = vec![Complex64::ZERO; frames * plan.bins()];
        let rep = sched.analyze(&plan, &x, &mut got, &NoFaults, &mut wss);
        assert_eq!(got, want, "threads={threads}");
        assert_eq!(rep, want_rep, "threads={threads}");
    }
}

#[test]
fn cola_profile_is_reexported_and_sane() {
    let mut w = vec![0.0; 64];
    Window::Hann.fill(&mut w);
    let (gain, dev) = cola_profile(&w, 32);
    assert!(dev < 1e-12);
    assert!((gain - 1.0).abs() < 1e-12);
}
