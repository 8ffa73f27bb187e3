//! End-to-end precedence of `FTFFT_SCHEME` through [`PlanSpec::resolve`]:
//! the variable fills the default ([`Scheme::Plain`]) scheme, never an
//! explicitly protected one, and rejects unknown names loudly.
//!
//! This integration binary is the one place that mutates `FTFFT_SCHEME`,
//! so its single test serializes on [`ENV_LOCK`] and restores whatever
//! value the surrounding run exported (a CI leg may set it).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use ftfft_core::config::SCHEME_ENV;
use ftfft_core::{FtFftPlan, PlanSpec, Scheme};

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with `FTFFT_SCHEME` set to `value` (`None` = unset).
fn with_scheme_env(value: Option<&str>, f: impl FnOnce()) {
    match value {
        Some(v) => std::env::set_var(SCHEME_ENV, v),
        None => std::env::remove_var(SCHEME_ENV),
    }
    f();
}

#[test]
fn scheme_env_fills_default_but_never_explicit() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let saved = std::env::var(SCHEME_ENV).ok();
    let default = || PlanSpec::builder(64).build();
    let explicit = || PlanSpec::builder(64).scheme(Scheme::OnlineMemOpt).build();

    with_scheme_env(None, || {
        assert_eq!(default().resolve().scheme(), Scheme::Plain);
    });

    // The env fills the Plain default, and the built plan runs it: a
    // batch plan carries its Opt-Online repair sibling.
    with_scheme_env(Some("batch"), || {
        assert_eq!(default().resolve().scheme(), Scheme::BatchChecksum);
        let plan = FtFftPlan::from_spec(&default());
        assert_eq!(plan.spec().scheme(), Scheme::BatchChecksum);
        assert!(plan.repair_plan().is_some());
        // An explicitly protected scheme is never overridden.
        assert_eq!(explicit().resolve().scheme(), Scheme::OnlineMemOpt);
    });

    // `auto` and the empty string defer to the default.
    for defer in ["auto", ""] {
        with_scheme_env(Some(defer), || {
            assert_eq!(default().resolve().scheme(), Scheme::Plain);
        });
    }

    // An unknown name panics at resolve time: a silent typo would
    // invalidate a whole CI leg.
    with_scheme_env(Some("fftw"), || {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = catch_unwind(AssertUnwindSafe(|| default().resolve()));
        std::panic::set_hook(hook);
        assert!(result.is_err(), "FTFFT_SCHEME=fftw must panic");
    });

    match saved {
        Some(v) => std::env::set_var(SCHEME_ENV, v),
        None => std::env::remove_var(SCHEME_ENV),
    }
}
