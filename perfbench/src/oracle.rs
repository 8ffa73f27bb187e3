//! The correctness oracle.
//!
//! Every reference is computed during set-up and never timed, and every
//! attempted operation is counted. An operation meets the full contract
//! ([`Verdict::Ok`]) when its output is bitwise equal to a clean direct
//! execution of the same spec, that clean output lies within [`TOL`] of
//! an unprotected `FftPlan` reference, and its fault report says
//! `uncorrectable == 0`. Anything short of that is a failure in the
//! sense of `fail_share`, but failures differ in kind:
//!
//! - [`Verdict::Wrong`]: the request errored, the output lies outside
//!   [`TOL`] of the unprotected reference, or (for the pipeline) a frame
//!   was dropped, quarantined or never delivered. The caller got a wrong
//!   answer or none; the result line's `failed` counts these alone.
//! - [`Verdict::Flagged`]: the output is right within [`TOL`], but the
//!   report says `uncorrectable > 0` — a false alarm.
//! - [`Verdict::BitwiseOnly`]: right within [`TOL`] and not flagged, but
//!   not bitwise equal to the fault-free output.

use ftfft::numeric::{relative_error_inf, Complex64};

/// Relative ∞-norm tolerance of a protected result against the
/// unprotected reference (scale-free, so it holds at every amplitude).
pub const TOL: f64 = 1e-9;

/// The oracle's verdict on one operation, ordered by severity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    Ok,
    /// Right within [`TOL`], not flagged, not bitwise equal to the
    /// fault-free output.
    BitwiseOnly,
    /// Right within [`TOL`], but flagged `uncorrectable`.
    Flagged,
    /// A wrong answer, an error, or a missing frame.
    Wrong,
}

/// Tallies by verdict, plus anomalies: outcomes the benchmark did not
/// expect at all (a frame it never fed). Any anomaly makes the run
/// incorrect.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub bitwise_only: u64,
    pub flagged: u64,
    pub wrong: u64,
    pub anomalies: u64,
}

impl Tally {
    /// Counts one operation; returns whether it met the full contract.
    pub fn count(&mut self, v: Verdict) -> bool {
        self.attempted += 1;
        self.bitwise_only += (v == Verdict::BitwiseOnly) as u64;
        self.flagged += (v == Verdict::Flagged) as u64;
        self.wrong += (v == Verdict::Wrong) as u64;
        v == Verdict::Ok
    }

    pub fn merge(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.bitwise_only += o.bitwise_only;
        self.flagged += o.flagged;
        self.wrong += o.wrong;
        self.anomalies += o.anomalies;
    }

    /// Operations short of the full contract, of any kind.
    pub fn failed(&self) -> u64 {
        self.bitwise_only + self.flagged + self.wrong
    }

    pub fn fail_share(&self) -> f64 {
        crate::stats::ratio(self.failed() as f64, self.attempted as f64)
    }

    /// Share of operations whose output is right within [`TOL`]: all but
    /// the [`Verdict::Wrong`] ones.
    pub fn within_tol_share(&self) -> f64 {
        1.0 - crate::stats::ratio(self.wrong as f64, self.attempted as f64)
    }
}

fn bitwise_eq(a: &[Complex64], b: &[Complex64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

fn bitwise_eq_real(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Whether `protected` agrees with the unprotected reference `plain`.
pub fn within_tolerance(protected: &[Complex64], plain: &[Complex64]) -> bool {
    protected.len() == plain.len() && {
        let e = relative_error_inf(protected, plain);
        e.is_finite() && e <= TOL
    }
}

/// [`within_tolerance`] for real samples.
pub fn within_tolerance_real(protected: &[f64], plain: &[f64]) -> bool {
    let as_c = |v: &[f64]| v.iter().map(|&x| Complex64::new(x, 0.0)).collect::<Vec<_>>();
    within_tolerance(&as_c(protected), &as_c(plain))
}

/// The verdict on one transform: `reference` is the clean direct output,
/// `reference_ok` its agreement with the unprotected output `plain`.
pub fn judge(
    out: &[Complex64],
    reference: &[Complex64],
    reference_ok: bool,
    plain: &[Complex64],
    uncorrectable: u32,
) -> Verdict {
    let exact = reference_ok && bitwise_eq(out, reference);
    if !exact && !within_tolerance(out, plain) {
        Verdict::Wrong
    } else if uncorrectable > 0 {
        Verdict::Flagged
    } else if exact {
        Verdict::Ok
    } else {
        Verdict::BitwiseOnly
    }
}

/// Checks one chunk of pipeline deliveries. The chunk fed frames
/// `first_seq ..` (`count` of them), which are frames `first_slot ..` of
/// the encoded stream; each must be delivered once, in order, bitwise
/// equal to the fault-free output `refs[slot]` (itself within tolerance:
/// `refs_ok`; `plain` is the unprotected output). A missing frame is
/// wrong; a frame outside the chunk is an anomaly.
#[allow(clippy::too_many_arguments)]
pub fn check_frames(
    tally: &mut Tally,
    delivered: &[(u64, &[f64])],
    first_seq: u64,
    first_slot: usize,
    count: usize,
    refs: &[Vec<f64>],
    refs_ok: &[bool],
    plain: &[Vec<f64>],
) {
    let mut next = 0usize;
    for j in 0..count {
        let (seq, slot) = (first_seq + j as u64, first_slot + j);
        let verdict = match delivered.get(next) {
            Some(&(s, samples)) if s == seq => {
                next += 1;
                if refs_ok[slot] && bitwise_eq_real(samples, &refs[slot]) {
                    Verdict::Ok
                } else if within_tolerance_real(samples, &plain[slot]) {
                    Verdict::BitwiseOnly
                } else {
                    Verdict::Wrong
                }
            }
            _ => Verdict::Wrong,
        };
        tally.count(verdict);
    }
    tally.anomalies += (delivered.len() - next) as u64;
}

/// Feeds the checkers one corrupted output and one dropped frame and
/// confirms both count as wrong (and the clean cases do not), so a
/// broken oracle stops the run instead of reporting success.
pub fn self_check() -> Result<(), String> {
    let reference: Vec<Complex64> =
        (0..64).map(|i| Complex64::new(i as f64 * 0.25, -(i as f64))).collect();
    let mut last_bit = reference.clone();
    last_bit[17].im = f64::from_bits(last_bit[17].im.to_bits() ^ 1);
    let mut wrong = reference.clone();
    wrong[3].re += 1e-3;
    let mut tally = Tally::default();
    let cases = [(&reference, 0), (&last_bit, 0), (&wrong, 0), (&reference, 1), (&wrong, 1)];
    for (out, unc) in cases {
        tally.count(judge(out, &reference, true, &reference, unc));
    }
    let kinds = (tally.attempted, tally.bitwise_only, tally.flagged, tally.wrong);
    if kinds != (5, 1, 1, 2) || tally.failed() != 4 || tally.within_tol_share() != 0.6 {
        return Err(format!(
            "transform oracle counted {tally:?}, expected 5 / 1 bitwise-only / 1 flagged / 2 wrong"
        ));
    }

    let refs: Vec<Vec<f64>> = (0..4).map(|f| vec![f as f64; 8]).collect();
    let refs_ok = vec![true; 4];
    let frames: Vec<(u64, &[f64])> = vec![(40, &refs[0]), (41, &refs[1]), (43, &refs[3])];
    let mut tally = Tally::default();
    check_frames(&mut tally, &frames, 40, 0, 4, &refs, &refs_ok, &refs);
    if (tally.attempted, tally.wrong, tally.anomalies) != (4, 1, 0) {
        return Err(format!("frame oracle counted {tally:?} for one dropped frame"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_check_passes() {
        self_check().unwrap();
    }

    #[test]
    fn unexpected_frames_are_anomalies() {
        let refs = vec![vec![1.0; 2]; 2];
        let frames: Vec<(u64, &[f64])> = vec![(0, &refs[0]), (1, &refs[1]), (9, &refs[1])];
        let mut t = Tally::default();
        check_frames(&mut t, &frames, 0, 0, 2, &refs, &[true, true], &refs);
        assert_eq!((t.attempted, t.failed(), t.anomalies), (2, 0, 1));
    }
}
