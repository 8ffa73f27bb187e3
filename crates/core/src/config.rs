//! Scheme selection and executor configuration, and the canonical
//! [`PlanSpec`] every protected plan is built from.

use std::hash::{Hash, Hasher};

use ftfft_fft::{Direction, FftSpec, Layout, Pow2Kernel, Strategy};
use ftfft_numeric::{simd_level, SimdLevel};

/// Which fault-tolerance scheme wraps the FFT.
///
/// The names mirror the bars of Fig 7 and the rows of Tables 1/5/6.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Unprotected two-layer FFT — the "FFTW" baseline.
    Plain,
    /// Algorithm 1 with naive (`sin`/`cos` per element) checksum-vector
    /// generation — Fig 7's "Offline" bar.
    OfflineNaive,
    /// Algorithm 1 with the optimized closed-form generator —
    /// "Opt-Offline", computational FT only.
    Offline,
    /// Algorithm 2 without the §4 optimizations — "CFTO-Online":
    /// strided checksum passes and a separate column-wise twiddle stage.
    OnlineComp,
    /// Algorithm 2 with the §4 optimizations (buffered gathers, fused
    /// row-wise twiddle DMR) — "Opt-Online", computational FT only.
    OnlineCompOpt,
    /// Offline scheme with combined memory checksums on input/output —
    /// "Opt-Offline" of Fig 7(b) / Table 1.
    OfflineMem,
    /// Online scheme with the *unoptimized* memory hierarchy of Fig 2
    /// (classic r₁/r₂ checksums, separate MCG/MCV at every stage) —
    /// "Online" of Fig 7(b).
    OnlineMem,
    /// Online scheme with the optimized hierarchy of Fig 3 (§4.1 combined
    /// checksums, §4.2 postponing, §4.3 incremental slots, §4.4 buffering)
    /// — "Opt-Online" of Fig 7(b) / Tables 1, 5, 6.
    OnlineMemOpt,
    /// Batch-level two-sided checksums (TurboFFT-style, beyond the
    /// paper): `B` same-size transforms run *plain* and a weighted input
    /// combination is transformed alongside them; the linearity identity
    /// `FFT(Σ wᵢxᵢ) = Σ wᵢFFT(xᵢ)` detects any computational error at
    /// O(n) cost per member, a second (lazily built, fault-path-only)
    /// weighted combination gives the two-sided residual ratio that
    /// localizes the faulty member, and only implicated members are
    /// recomputed under [`Scheme::OnlineCompOpt`]. Amortizes protection
    /// across the batch — clean-path overhead `(B+1)/B + O(1/log n)`
    /// instead of the per-transform ~1.7×.
    BatchChecksum,
}

impl Scheme {
    /// `true` for schemes that detect errors before the transform finishes.
    /// The batch scheme is *not* online: like the offline schemes it
    /// verifies after its transforms complete (once per batch).
    pub fn is_online(self) -> bool {
        matches!(
            self,
            Scheme::OnlineComp | Scheme::OnlineCompOpt | Scheme::OnlineMem | Scheme::OnlineMemOpt
        )
    }

    /// `true` for schemes that also protect stored data against memory
    /// faults (not just computational errors).
    pub fn protects_memory(self) -> bool {
        matches!(self, Scheme::OfflineMem | Scheme::OnlineMem | Scheme::OnlineMemOpt)
    }

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Plain => "FFTW",
            Scheme::OfflineNaive => "Offline",
            Scheme::Offline => "Opt-Offline",
            Scheme::OnlineComp => "CFTO-Online",
            Scheme::OnlineCompOpt => "Opt-Online",
            Scheme::OfflineMem => "Opt-Offline(m)",
            Scheme::OnlineMem => "Online(m)",
            Scheme::OnlineMemOpt => "Opt-Online(m)",
            Scheme::BatchChecksum => "Batch-Checksum",
        }
    }

    /// Stable lowercase name (accepted back by [`Scheme::parse`] — the
    /// loadgen harness' `--schemes` vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Plain => "plain",
            Scheme::OfflineNaive => "offline-naive",
            Scheme::Offline => "offline",
            Scheme::OnlineComp => "online-comp",
            Scheme::OnlineCompOpt => "online-comp-opt",
            Scheme::OfflineMem => "offline-mem",
            Scheme::OnlineMem => "online-mem",
            Scheme::OnlineMemOpt => "online-mem-opt",
            Scheme::BatchChecksum => "batch",
        }
    }

    /// Parses a scheme name (accepts `-`/`_` interchangeably).
    pub fn parse(name: &str) -> Option<Scheme> {
        let name = name.to_ascii_lowercase().replace('_', "-");
        Scheme::ALL.iter().copied().find(|s| s.name() == name)
    }

    /// All schemes, in Fig 7 presentation order (the batch scheme, which
    /// is beyond the paper's figures, comes last).
    pub const ALL: [Scheme; 9] = [
        Scheme::Plain,
        Scheme::OfflineNaive,
        Scheme::Offline,
        Scheme::OnlineComp,
        Scheme::OnlineCompOpt,
        Scheme::OfflineMem,
        Scheme::OnlineMem,
        Scheme::OnlineMemOpt,
        Scheme::BatchChecksum,
    ];
}

/// Environment variable selecting the *default* protection scheme
/// (consulted by [`PlanSpec::resolve`]): any [`Scheme::name`] (`-`/`_`
/// interchangeable); `auto` and the empty string defer. Like the planner's
/// `FTFFT_*` knobs it fills the default only — a spec whose scheme was set
/// to anything other than [`Scheme::Plain`] is never overridden, so
/// protected A/B harnesses and scheme-specific tests keep their explicit
/// choices while `FTFFT_SCHEME=batch` re-runs every default-configured
/// (plain) plan under batch protection.
pub const SCHEME_ENV: &str = "FTFFT_SCHEME";

/// The env tier of default-scheme resolution: [`SCHEME_ENV`] when set
/// (panicking on an unknown name — a silent typo would invalidate a
/// `FTFFT_SCHEME` CI leg), `None` when the default should stand.
fn scheme_env_override() -> Option<Scheme> {
    match std::env::var(SCHEME_ENV) {
        Ok(v) => match v.to_ascii_lowercase().as_str() {
            "auto" | "" => None,
            other => Some(
                Scheme::parse(other)
                    .unwrap_or_else(|| panic!("{SCHEME_ENV}={v:?} is not a scheme name")),
            ),
        },
        Err(_) => None,
    }
}

/// Policy for the fused gather+checksum hot path (§4.4 single-pass
/// buffering, SIMD-accumulated).
///
/// Fused and separate passes are **bitwise identical** by the checksum
/// crate's contract, so this is purely a performance knob. The perfgate
/// matrix (see `BENCH_PR.json`, `fused_gain` column) showed the global
/// always-fused default of PR 3 losing a few percent at mid sizes
/// (radix2 @ 2¹²) where the gather buffer is L1-resident and the
/// streaming-accumulator setup is pure overhead per tiny column — hence a
/// per-(size, layout) resolution instead of a global boolean.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FusedPolicy {
    /// Per-(size, layout) heuristic (the default): fused except for very
    /// short checksum columns, where accumulator setup dominates the
    /// saved pass — and **never** for split-complex (SoA) sub-plans.
    /// The SoA fused path was assumed to break even earlier (it folds
    /// the deinterleave into the gather sweep), but a best-of-5 A/B on
    /// the reference AVX box shows it *losing* 27–37% at every measured
    /// size (2¹⁰–2¹⁶, radix-2 and radix-4 alike): the combined
    /// gather+checksum+deinterleave sweep vectorizes worse than the
    /// plane kernels' bulk conversion it replaces — the radix4+SoA
    /// `fused_gain < 1` cells of BENCH_PR.json, now resolved unfused.
    Auto,
    /// Always the fused single-pass path (PR-3 behavior).
    Always,
    /// Always the PR-2-era separate gather-then-checksum passes — the
    /// perf harness' A/B baseline.
    Never,
}

impl FusedPolicy {
    /// Resolves the policy for a sub-FFT of `count` gathered elements
    /// whose sub-plan runs `layout`. `Auto` fuses from 16 elements for
    /// AoS sub-plans and never for SoA ones (measured 27–37% slower at
    /// every size — see the variant doc); `Always`/`Never` ignore both
    /// arguments.
    pub fn resolve_for(self, count: usize, layout: Layout) -> bool {
        match self {
            FusedPolicy::Always => true,
            FusedPolicy::Never => false,
            FusedPolicy::Auto => layout == Layout::Aos && count >= 16,
        }
    }
}

/// The canonical description of a protected FFT plan — size, direction,
/// scheme, every planner knob, and every threshold knob — and the single
/// public way to configure one: build it with [`PlanSpec::builder`], then
/// hand it to any `from_spec` constructor (`FtFftPlan`, `RealFtFftPlan`,
/// the stream plans) or to the `ftfft-service` layer, which uses the
/// resolved spec as its plan-cache key.
///
/// Unset knobs resolve in the fixed order **explicit builder > `FTFFT_*`
/// env > heuristic**, applied once at plan-build time by
/// [`PlanSpec::resolve`] — a built plan never re-reads the environment.
/// `Hash`/`Eq` are bit-exact (the `f64` threshold knobs compare by bits),
/// so two specs are equal exactly when they build interchangeable plans.
#[derive(Clone, Copy, Debug)]
pub struct PlanSpec {
    n: usize,
    dir: Direction,
    scheme: Scheme,
    kernel: Option<Pow2Kernel>,
    layout: Option<Layout>,
    strategy: Option<Strategy>,
    threads: Option<usize>,
    fused: FusedPolicy,
    /// SIMD dispatch level recorded at resolution (`FTFFT_SIMD` routes
    /// through the same process-global detection every kernel uses; the
    /// spec records it so cache keys and telemetry distinguish runs, not
    /// to steer per-plan dispatch — that is process-wide by design).
    simd: Option<SimdLevel>,
    /// Bound on recomputations of any one protected part before the run is
    /// declared uncorrectable (the paper's `while` loops retry forever;
    /// transient-fault semantics make a small bound equivalent).
    max_retries: u32,
    /// Second-part batch size `s` (k-point FFTs per verification group in
    /// the memory hierarchies).
    batch_s: usize,
    /// Explicit first-layer count `k` (`None` = balanced split).
    split_k: Option<usize>,
    /// Input component standard deviation σ₀ used by the threshold model
    /// (1/√3 for the paper's `U(-1,1)` workload).
    sigma0: f64,
    /// Multiplier applied to all model thresholds (empirical calibration).
    threshold_scale: f64,
}

impl PlanSpec {
    /// Starts a builder for an `n`-point forward transform of the
    /// unprotected [`Scheme::Plain`] with the paper's defaults: 3 retries,
    /// the `U(-1,1)` σ₀ = 1/√3, unscaled thresholds, balanced split,
    /// `s = 8`, per-size fused policy, and every planner knob unset.
    pub fn builder(n: usize) -> PlanSpecBuilder {
        PlanSpecBuilder {
            spec: PlanSpec {
                n,
                dir: Direction::Forward,
                scheme: Scheme::Plain,
                kernel: None,
                layout: None,
                strategy: None,
                threads: None,
                fused: FusedPolicy::Auto,
                simd: None,
                max_retries: 3,
                batch_s: 8,
                split_k: None,
                sigma0: (1.0f64 / 3.0).sqrt(),
                threshold_scale: 1.0,
            },
        }
    }

    /// Canonical resolution, applied exactly once at plan-build time and
    /// the **single point where the `FTFFT_*` environment enters
    /// protected-plan resolution**: fills every still-unset planner knob
    /// from `FTFFT_KERNEL` / `FTFFT_LAYOUT` / `FTFFT_STRATEGY` /
    /// `FTFFT_THREADS` (via [`FftSpec::from_env_overrides`]), records the
    /// `FTFFT_SIMD`-resolved dispatch level, and lets [`SCHEME_ENV`] fill
    /// the default scheme. Explicit builder choices are never
    /// overwritten.
    ///
    /// The remaining `None` knobs are deliberate — they mean "per-sub-plan
    /// heuristic", which the decomposition applies per sub-FFT *size*
    /// through [`FftSpec::resolve`] when each sub-plan is built. Because
    /// those heuristics are pure functions of (size, resolved knobs), two
    /// specs that are equal after `resolve` build bitwise-interchangeable
    /// plans — which is why the service layer keys its plan cache on the
    /// resolved spec.
    pub fn resolve(mut self) -> PlanSpec {
        let f = self.fft_template().from_env_overrides();
        self.kernel = f.kernel;
        self.layout = f.layout;
        self.strategy = f.strategy;
        self.threads = f.threads;
        self.simd = self.simd.or_else(|| Some(simd_level()));
        // The scheme knob has no unset state, so [`Scheme::Plain`] (the
        // builder default) is what "unset" looks like: `FTFFT_SCHEME`
        // fills it, and any explicitly-protected choice wins over the
        // environment like every other knob.
        if self.scheme == Scheme::Plain {
            if let Some(s) = scheme_env_override() {
                self.scheme = s;
            }
        }
        self
    }

    /// The raw-FFT half of this spec: the template every sub-FFT of the
    /// decomposition inherits its pinned knobs from (`n`/`dir` are
    /// replaced per sub-plan).
    pub fn fft_template(&self) -> FftSpec {
        FftSpec {
            n: self.n,
            dir: self.dir,
            kernel: self.kernel,
            layout: self.layout,
            strategy: self.strategy,
            threads: self.threads,
        }
    }

    /// Same spec for a different size (used by the real-input and stream
    /// plans, which derive inner complex sizes from the caller's).
    pub fn with_n(mut self, n: usize) -> PlanSpec {
        self.n = n;
        self
    }

    /// Same spec for a different direction.
    pub fn with_direction(mut self, dir: Direction) -> PlanSpec {
        self.dir = dir;
        self
    }

    /// Same spec under a different scheme (used by the batch executor to
    /// derive its [`Scheme::OnlineCompOpt`] repair plan from the batch
    /// plan's own spec, keeping every planner/threshold knob aligned).
    pub fn with_scheme(mut self, scheme: Scheme) -> PlanSpec {
        self.scheme = scheme;
        self
    }

    /// Same spec with a different σ₀ (the stream plans scale σ₀ by window
    /// energy).
    pub fn with_sigma0(mut self, sigma0: f64) -> PlanSpec {
        self.sigma0 = sigma0;
        self
    }

    /// Transform size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Transform direction.
    pub fn direction(&self) -> Direction {
        self.dir
    }

    /// Fault-tolerance scheme.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Pinned power-of-two kernel, if any.
    pub fn kernel(&self) -> Option<Pow2Kernel> {
        self.kernel
    }

    /// Pinned data layout, if any.
    pub fn layout(&self) -> Option<Layout> {
        self.layout
    }

    /// Pinned execution strategy, if any.
    pub fn strategy(&self) -> Option<Strategy> {
        self.strategy
    }

    /// Pinned worker count, if any.
    pub fn threads(&self) -> Option<usize> {
        self.threads
    }

    /// Fused gather+checksum policy.
    pub fn fused(&self) -> FusedPolicy {
        self.fused
    }

    /// SIMD dispatch level recorded at resolution (`None` before
    /// [`PlanSpec::resolve`]).
    pub fn simd(&self) -> Option<SimdLevel> {
        self.simd
    }

    /// Retry bound.
    pub fn max_retries(&self) -> u32 {
        self.max_retries
    }

    /// Second-part batch size `s`.
    pub fn batch_s(&self) -> usize {
        self.batch_s
    }

    /// Explicit first-layer split, if any.
    pub fn split_k(&self) -> Option<usize> {
        self.split_k
    }

    /// Input component standard deviation σ₀.
    pub fn sigma0(&self) -> f64 {
        self.sigma0
    }

    /// Threshold scale factor.
    pub fn threshold_scale(&self) -> f64 {
        self.threshold_scale
    }

    /// Everything that distinguishes two specs, with the `f64` knobs in
    /// bit form so the derived-looking `Eq`/`Hash` below are total.
    #[allow(clippy::type_complexity)]
    fn key(
        &self,
    ) -> (
        (usize, Direction, Scheme, Option<Pow2Kernel>, Option<Layout>, Option<Strategy>),
        (Option<usize>, FusedPolicy, Option<SimdLevel>, u32, usize, Option<usize>),
        (u64, u64),
    ) {
        (
            (self.n, self.dir, self.scheme, self.kernel, self.layout, self.strategy),
            (self.threads, self.fused, self.simd, self.max_retries, self.batch_s, self.split_k),
            (self.sigma0.to_bits(), self.threshold_scale.to_bits()),
        )
    }
}

impl PartialEq for PlanSpec {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for PlanSpec {}

impl Hash for PlanSpec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

/// Fluent constructor for [`PlanSpec`] — the builder API every example
/// and harness goes through. Knobs left untouched resolve from the env
/// overrides and the planner heuristics at build time.
#[derive(Clone, Copy, Debug)]
pub struct PlanSpecBuilder {
    spec: PlanSpec,
}

impl PlanSpecBuilder {
    /// Sets the transform direction (default forward).
    pub fn direction(mut self, dir: Direction) -> Self {
        self.spec.dir = dir;
        self
    }

    /// Sets the fault-tolerance scheme (default [`Scheme::Plain`]).
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.spec.scheme = scheme;
        self
    }

    /// Pins the power-of-two kernel for every sub-FFT (default: the
    /// `FTFFT_KERNEL` override, then the size heuristic per sub-plan).
    pub fn kernel(mut self, kernel: Pow2Kernel) -> Self {
        self.spec.kernel = Some(kernel);
        self
    }

    /// Pins the data layout (default: `FTFFT_LAYOUT`, then the size
    /// heuristic per sub-plan). Explicit layouts are honored verbatim —
    /// the A/B primitive.
    pub fn layout(mut self, layout: Layout) -> Self {
        self.spec.layout = Some(layout);
        self
    }

    /// Pins the execution strategy (default: `FTFFT_STRATEGY`, then
    /// [`Strategy::Auto`]).
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.spec.strategy = Some(strategy);
        self
    }

    /// Pins the worker count (default: `FTFFT_THREADS`, then hardware
    /// parallelism). Feeds both the pooled executors and the parallel-DIT
    /// strategy decision.
    pub fn threads(mut self, threads: usize) -> Self {
        self.spec.threads = Some(threads.max(1));
        self
    }

    /// Pins the fused gather+checksum hot path on or off: `true` maps to
    /// [`FusedPolicy::Always`], `false` to [`FusedPolicy::Never`]. The per-size default
    /// ([`FusedPolicy::Auto`]) is only reachable by *not* calling this —
    /// or explicitly via [`PlanSpecBuilder::fused_policy`].
    pub fn fused(self, fused: bool) -> Self {
        self.fused_policy(if fused { FusedPolicy::Always } else { FusedPolicy::Never })
    }

    /// Sets the fused-path policy directly, making [`FusedPolicy::Auto`]
    /// reachable without env vars.
    pub fn fused_policy(mut self, policy: FusedPolicy) -> Self {
        self.spec.fused = policy;
        self
    }

    /// Overrides the retry bound.
    pub fn max_retries(mut self, r: u32) -> Self {
        self.spec.max_retries = r;
        self
    }

    /// Overrides the input σ₀.
    pub fn sigma0(mut self, sigma0: f64) -> Self {
        self.spec.sigma0 = sigma0;
        self
    }

    /// Overrides the threshold scale factor.
    pub fn threshold_scale(mut self, s: f64) -> Self {
        self.spec.threshold_scale = s;
        self
    }

    /// Overrides the first-layer split.
    pub fn split_k(mut self, k: usize) -> Self {
        self.spec.split_k = Some(k);
        self
    }

    /// Overrides the second-part batch size `s`.
    pub fn batch_s(mut self, s: usize) -> Self {
        self.spec.batch_s = s;
        self
    }

    /// Finishes the build. The spec is *not* yet resolved — resolution
    /// (env + heuristics) happens once, inside the `from_spec`
    /// constructor that consumes it.
    pub fn build(self) -> PlanSpec {
        self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_predicates() {
        assert!(!Scheme::Plain.is_online());
        assert!(!Scheme::Offline.is_online());
        assert!(Scheme::OnlineCompOpt.is_online());
        assert!(Scheme::OnlineMemOpt.protects_memory());
        assert!(!Scheme::OnlineCompOpt.protects_memory());
        // The batch scheme verifies once per batch, after its transforms
        // complete (offline-flavored), and covers compute only.
        assert!(!Scheme::BatchChecksum.is_online());
        assert!(!Scheme::BatchChecksum.protects_memory());
        assert_eq!(Scheme::ALL.len(), 9);
    }

    #[test]
    fn config_builders() {
        // The builder starts from the paper's defaults, bit-exact: a
        // drifted default would shift every threshold or retry bound of a
        // plan that never set it.
        let spec = PlanSpec::builder(64).build();
        assert_eq!(spec.direction(), Direction::Forward);
        assert_eq!(spec.scheme(), Scheme::Plain);
        assert_eq!(spec.max_retries(), 3);
        assert_eq!(spec.sigma0().to_bits(), (1.0f64 / 3.0).sqrt().to_bits());
        assert_eq!(spec.threshold_scale(), 1.0);
        assert_eq!(spec.batch_s(), 8);
        assert_eq!(spec.split_k(), None);
        assert_eq!(spec.fused(), FusedPolicy::Auto);
        assert_eq!(spec.threads(), None);
        assert_eq!((spec.kernel(), spec.layout(), spec.strategy()), (None, None, None));
        assert_eq!(spec.simd(), None);
        // A pinned worker count is at least one.
        assert_eq!(PlanSpec::builder(64).threads(0).build().threads(), Some(1));
    }

    #[test]
    fn scheme_names_round_trip() {
        for s in Scheme::ALL {
            assert_eq!(Scheme::parse(s.name()), Some(s));
        }
        assert_eq!(Scheme::parse("online_mem_opt"), Some(Scheme::OnlineMemOpt));
        assert_eq!(Scheme::parse("ONLINE-COMP"), Some(Scheme::OnlineComp));
        assert_eq!(Scheme::parse("batch"), Some(Scheme::BatchChecksum));
        assert_eq!(Scheme::parse("fftw"), None);
    }

    #[test]
    fn with_scheme_swaps_only_the_scheme() {
        let spec = PlanSpec::builder(64).scheme(Scheme::BatchChecksum).split_k(8).build();
        let repair = spec.with_scheme(Scheme::OnlineCompOpt);
        assert_eq!(repair.scheme(), Scheme::OnlineCompOpt);
        assert_eq!(repair.split_k(), Some(8));
    }

    #[test]
    fn builder_round_trips_every_knob() {
        let spec = PlanSpec::builder(1 << 12)
            .direction(Direction::Inverse)
            .scheme(Scheme::OnlineMemOpt)
            .kernel(Pow2Kernel::Radix4)
            .layout(Layout::Soa)
            .strategy(Strategy::Serial)
            .threads(4)
            .fused_policy(FusedPolicy::Auto)
            .max_retries(5)
            .sigma0(1.0)
            .threshold_scale(2.0)
            .split_k(64)
            .batch_s(16)
            .build();
        assert_eq!(spec.n(), 1 << 12);
        assert_eq!(spec.direction(), Direction::Inverse);
        assert_eq!(spec.scheme(), Scheme::OnlineMemOpt);
        assert_eq!(spec.kernel(), Some(Pow2Kernel::Radix4));
        assert_eq!(spec.layout(), Some(Layout::Soa));
        assert_eq!(spec.strategy(), Some(Strategy::Serial));
        assert_eq!(spec.threads(), Some(4));
        assert_eq!(spec.fused(), FusedPolicy::Auto);
        assert_eq!(spec.max_retries(), 5);
        assert_eq!(spec.sigma0(), 1.0);
        assert_eq!(spec.threshold_scale(), 2.0);
        assert_eq!(spec.split_k(), Some(64));
        assert_eq!(spec.batch_s(), 16);
    }

    #[test]
    fn builder_fused_bool_maps_to_always_never() {
        // The documented fused(bool) contract: true → Always,
        // false → Never, untouched → Auto.
        assert_eq!(PlanSpec::builder(8).fused(true).build().fused(), FusedPolicy::Always);
        assert_eq!(PlanSpec::builder(8).fused(false).build().fused(), FusedPolicy::Never);
        assert_eq!(PlanSpec::builder(8).build().fused(), FusedPolicy::Auto);
        // Auto is reachable without env vars through the policy setter.
        assert_eq!(
            PlanSpec::builder(8).fused(false).fused_policy(FusedPolicy::Auto).build().fused(),
            FusedPolicy::Auto
        );
    }

    #[test]
    fn spec_precedence_explicit_beats_env_beats_heuristic() {
        // Unset: resolution takes the env tier (`FTFFT_LAYOUT`, when the
        // suite runs under a layout CI leg) and otherwise leaves the knob
        // for the per-sub-plan heuristic.
        let unset = PlanSpec::builder(1 << 12).build();
        assert_eq!(unset.resolve().layout(), Layout::env_override());
        // An explicit builder choice is never overwritten, whichever
        // layout the env asks for.
        for layout in Layout::ALL {
            let explicit = PlanSpec::builder(1 << 12).layout(layout).build();
            assert_eq!(explicit.resolve().layout(), Some(layout));
        }
    }

    #[test]
    fn spec_resolution_records_simd_and_is_idempotent() {
        let spec = PlanSpec::builder(256).scheme(Scheme::OnlineCompOpt).build();
        assert_eq!(spec.simd(), None);
        let r = spec.resolve();
        assert!(r.simd().is_some(), "resolution records the dispatch level");
        assert!(r.threads().is_some(), "resolution pins the worker count");
        assert_eq!(r, r.resolve(), "resolve is a fixpoint");
    }

    #[test]
    fn spec_hash_eq_distinguish_every_knob() {
        use std::collections::HashSet;
        let base = || PlanSpec::builder(1 << 10).scheme(Scheme::OnlineMemOpt);
        let specs = [
            base().build(),
            base().direction(Direction::Inverse).build(),
            base().scheme(Scheme::Plain).build(),
            base().kernel(Pow2Kernel::Radix2).build(),
            base().layout(Layout::Aos).build(),
            base().strategy(Strategy::Serial).build(),
            base().threads(2).build(),
            base().fused(true).build(),
            base().fused(false).build(),
            base().max_retries(9).build(),
            base().sigma0(0.25).build(),
            base().threshold_scale(3.0).build(),
            base().split_k(32).build(),
            base().batch_s(4).build(),
        ];
        let set: HashSet<PlanSpec> = specs.iter().copied().collect();
        assert_eq!(set.len(), specs.len(), "every knob must key the hash");
        assert_eq!(specs[0], base().build(), "equal specs stay equal");
    }

    #[test]
    fn fused_policy_resolution() {
        assert!(FusedPolicy::Always.resolve_for(1, Layout::Aos));
        assert!(!FusedPolicy::Never.resolve_for(1 << 20, Layout::Aos));
        assert!(!FusedPolicy::Auto.resolve_for(8, Layout::Aos));
        assert!(FusedPolicy::Auto.resolve_for(16, Layout::Aos));
        assert!(FusedPolicy::Auto.resolve_for(1 << 10, Layout::Aos));
    }

    #[test]
    fn fused_policy_is_layout_aware() {
        // Auto: AoS sub-plans fuse from 16 elements; SoA sub-plans never
        // auto-fuse (measured 27–37% slower at every size — the fused
        // strided sweep defeats the plane kernels' bulk conversion).
        assert!(!FusedPolicy::Auto.resolve_for(8, Layout::Soa));
        assert!(!FusedPolicy::Auto.resolve_for(1 << 20, Layout::Soa));
        assert!(!FusedPolicy::Auto.resolve_for(8, Layout::Aos));
        assert!(FusedPolicy::Auto.resolve_for(16, Layout::Aos));
        // The pins ignore layout entirely.
        for layout in [Layout::Aos, Layout::Soa] {
            assert!(FusedPolicy::Always.resolve_for(1, layout));
            assert!(!FusedPolicy::Never.resolve_for(1 << 20, layout));
        }
    }
}
