//! Pooled frame fan-out (feature `parallel`).
//!
//! [`FrameScheduler`] drives independent stream frames across
//! `ftfft-parallel`'s persistent [`ThreadPool`] in **round-robin** order:
//! worker `w` of `t` owns frames `w, w+t, w+2t, …`, so each worker's load
//! is spread evenly along the stream timeline and the assignment is
//! static (deterministic per-worker state and fault-site visit sets).
//!
//! Per-frame work is independent — an STFT analysis frame reads a window
//! of the shared input and writes its own spectrum row — so outputs are
//! **bitwise identical** to the serial engine at any worker count, and the
//! aggregated [`StreamReport`] matches in totals (counter sums and
//! residual maxima are order-free). Sites whose occurrence counters are
//! shared across frames (`InputMemory`, …) land on a scheduling-dependent
//! frame under threading, exactly like the pooled batch executor — every
//! scripted fault still fires once and totals are unchanged.

use ftfft_core::FtReport;
use ftfft_fault::FaultInjector;
use ftfft_numeric::Complex64;
use ftfft_parallel::{resolve_threads, ThreadPool};
use parking_lot::Mutex;

use crate::report::StreamReport;
use crate::stft::{StftPlan, StftWorkspace};

/// One worker's analysis state: its workspace plus its round-robin share
/// of the spectrogram rows (worker `w`'s `i`-th row is frame `w + i·t`).
type WorkerSlot<'a> = Mutex<(&'a mut StftWorkspace, Vec<&'a mut [Complex64]>)>;

/// A persistent worker pool scheduling stream frames round-robin.
///
/// Worker count: the explicit argument if given, else `FTFFT_THREADS`,
/// else the machine's available parallelism (see
/// [`resolve_threads`]).
pub struct FrameScheduler {
    pool: ThreadPool,
}

impl FrameScheduler {
    /// Creates a scheduler with `threads` workers (resolution as in
    /// [`resolve_threads`]).
    pub fn new(threads: Option<usize>) -> Self {
        FrameScheduler { pool: ThreadPool::new(resolve_threads(threads)) }
    }

    /// Worker count (including the calling thread).
    pub fn threads(&self) -> usize {
        self.pool.size()
    }

    /// Workers that will actually run for `frames` frames.
    pub fn workers_for(&self, frames: usize) -> usize {
        self.pool.workers_for(frames)
    }

    /// One [`StftWorkspace`] per worker for [`analyze`](Self::analyze):
    /// worker 0 gets a full batched workspace (the serial fallback path
    /// runs through it), workers `1..` get single-frame workspaces — the
    /// pooled path dispatches one frame at a time, so full
    /// `BATCH_FRAMES`-deep buffers per worker would be pure waste at
    /// large frame sizes.
    pub fn make_stft_workspaces(&self, plan: &StftPlan) -> Vec<StftWorkspace> {
        (0..self.pool.size())
            .map(|w| if w == 0 { plan.make_workspace() } else { plan.make_frame_workspace() })
            .collect()
    }

    /// Fans the generic per-frame closure across the pool round-robin and
    /// aggregates the per-frame [`FtReport`]s into one [`StreamReport`]
    /// (merged in worker order — totals are scheduling-independent).
    ///
    /// `f(worker, frame)` runs frame `frame` on worker `worker`; frames
    /// with the same worker id run in increasing order on one thread.
    pub fn map_frames<F>(&self, frames: usize, f: F) -> StreamReport
    where
        F: Fn(usize, usize) -> FtReport + Sync,
    {
        let t = self.pool.workers_for(frames);
        let slots: Vec<Mutex<StreamReport>> =
            (0..t).map(|_| Mutex::new(StreamReport::new())).collect();
        self.pool.run_round_robin(frames, |w, frame| {
            let ft = f(w, frame);
            let mut rep = slots[w].lock();
            rep.merge_ft(&ft);
            rep.frames = rep.frames.saturating_add(1);
        });
        let mut total = StreamReport::new();
        for slot in slots {
            total.merge(&slot.into_inner());
        }
        total
    }

    /// Pooled STFT analysis: fans the plan's frames across the workers
    /// (each with its own workspace from
    /// [`make_stft_workspaces`](Self::make_stft_workspaces)), writing the
    /// same spectrogram the serial [`StftPlan::analyze_into`] produces —
    /// bitwise — and returning the aggregated report.
    ///
    /// # Panics
    /// Panics if `spec_frames` has the wrong length or `workspaces` has
    /// fewer entries than the workers used.
    pub fn analyze(
        &self,
        plan: &StftPlan,
        x: &[f64],
        spec_frames: &mut [Complex64],
        injector: &dyn FaultInjector,
        workspaces: &mut [StftWorkspace],
    ) -> StreamReport {
        let frames = plan.num_frames(x.len());
        let bins = plan.bins();
        assert_eq!(spec_frames.len(), frames * bins, "spectrogram length mismatch");
        let t = self.pool.workers_for(frames);
        assert!(workspaces.len() >= t, "need {t} workspaces, got {}", workspaces.len());
        if t == 1 {
            return plan.analyze_into(x, spec_frames, injector, &mut workspaces[0]);
        }

        // Pre-split the spectrogram into per-worker frame rows in the
        // round-robin order the pool hands out: worker w's i-th row is
        // frame w + i·t.
        let mut per_worker: Vec<Vec<&mut [Complex64]>> =
            (0..t).map(|_| Vec::with_capacity(frames / t + 1)).collect();
        for (f, row) in spec_frames.chunks_exact_mut(bins).enumerate() {
            per_worker[f % t].push(row);
        }
        let slots: Vec<WorkerSlot> = workspaces
            .iter_mut()
            .take(t)
            .zip(per_worker)
            .map(|(ws, rows)| Mutex::new((ws, rows)))
            .collect();

        // Frames dispatch one at a time (not in the serial path's
        // BATCH_FRAMES groups): a worker's round-robin rows are not
        // contiguous in the spectrogram, so grouping would need a staging
        // copy per group. Batch == looped is bitwise by contract, so this
        // only trades a little per-call overhead, not output.
        let mut rep = self.map_frames(frames, |w, frame| {
            let mut slot = slots[w].lock();
            let (ws, rows) = &mut *slot;
            let idx = (frame - w) / t;
            plan.analyze_frame_into(x, frame, rows[idx], injector, ws)
        });
        rep.samples_in = x.len() as u64;
        rep.samples_out = (frames * bins) as u64;
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::Window;
    use ftfft_core::{PlanSpec, Scheme};
    use ftfft_fault::{FaultKind, NoFaults, Part, ScriptedFault, ScriptedInjector, Site};
    use ftfft_numeric::uniform_signal;

    fn real_signal(n: usize, seed: u64) -> Vec<f64> {
        uniform_signal(n, seed).iter().map(|z| z.re).collect()
    }

    fn serial_spectrogram(
        plan: &StftPlan,
        x: &[f64],
        inj: &dyn FaultInjector,
    ) -> (Vec<Complex64>, StreamReport) {
        let mut ws = plan.make_workspace();
        let mut spec = vec![Complex64::ZERO; plan.num_frames(x.len()) * plan.bins()];
        let rep = plan.analyze_into(x, &mut spec, inj, &mut ws);
        (spec, rep)
    }

    #[test]
    fn pooled_analysis_matches_serial_bitwise() {
        for scheme in [Scheme::Plain, Scheme::OnlineCompOpt, Scheme::OnlineMemOpt] {
            let plan = StftPlan::from_spec(
                &PlanSpec::builder(128).scheme(scheme).build(),
                32,
                Window::Hann,
            );
            let x = real_signal(plan.signal_len(13), 5);
            let (want, want_rep) = serial_spectrogram(&plan, &x, &NoFaults);
            for threads in [1usize, 2, 3, 5] {
                let sched = FrameScheduler::new(Some(threads));
                assert_eq!(sched.threads(), threads);
                let mut wss = sched.make_stft_workspaces(&plan);
                let mut got = vec![Complex64::ZERO; want.len()];
                let rep = sched.analyze(&plan, &x, &mut got, &NoFaults, &mut wss);
                assert_eq!(got, want, "{scheme:?} threads={threads}");
                assert_eq!(rep, want_rep, "{scheme:?} threads={threads}");
            }
        }
    }

    #[test]
    fn pooled_analysis_detects_scripted_faults_with_identical_totals() {
        let plan = StftPlan::from_spec(
            &PlanSpec::builder(128).scheme(Scheme::OnlineMemOpt).build(),
            64,
            Window::Hann,
        );
        let x = real_signal(plan.signal_len(8), 9);
        let faults = || {
            vec![ScriptedFault::new(
                Site::SubFftCompute { part: Part::First, index: 1 },
                2,
                FaultKind::AddDelta { re: 5e-2, im: 0.0 },
            )]
        };
        let serial_inj = ScriptedInjector::new(faults());
        let (want, want_rep) = serial_spectrogram(&plan, &x, &serial_inj);
        assert!(serial_inj.exhausted());
        assert!(want_rep.detected() >= 1);

        for threads in [2usize, 4] {
            let sched = FrameScheduler::new(Some(threads));
            let mut wss = sched.make_stft_workspaces(&plan);
            let mut got = vec![Complex64::ZERO; want.len()];
            let inj = ScriptedInjector::new(faults());
            let rep = sched.analyze(&plan, &x, &mut got, &inj, &mut wss);
            assert!(inj.exhausted(), "threads={threads}");
            // The fault is detected and corrected on whichever frame its
            // occurrence lands; the corrected spectrogram is bitwise the
            // clean one and totals match the serial faulted run.
            assert_eq!(rep.detected(), want_rep.detected(), "threads={threads}");
            assert_eq!(rep.corrected(), want_rep.corrected(), "threads={threads}");
            assert_eq!(rep.frames, want_rep.frames);
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn map_frames_aggregates_every_frame() {
        let sched = FrameScheduler::new(Some(3));
        let rep = sched.map_frames(10, |_w, _frame| {
            let mut ft = FtReport::new();
            ft.checks = 2;
            ft
        });
        assert_eq!(rep.frames, 10);
        assert_eq!(rep.ft.checks, 20);
    }
}
