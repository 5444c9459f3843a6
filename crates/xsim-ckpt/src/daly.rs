//! Optimal checkpoint-interval estimation (Daly's model).
//!
//! The paper positions its contribution against prior
//! checkpoint/restart modeling "such as by finding the optimal
//! checkpoint interval \[31\]" (§II-B, citing J. T. Daly, *A higher order
//! estimate of the optimum checkpoint interval for restart dumps*, FGCS
//! 2006). This module implements both the first-order (Young) and
//! higher-order (Daly) estimates, so simulated Table-II-style sweeps can
//! be compared against the analytic optimum — exactly the kind of
//! model-validation study the toolkit exists to support.

use xsim_core::SimTime;

/// First-order (Young) estimate: `t_opt = sqrt(2 δ M)` where `δ` is the
/// checkpoint commit cost and `M` the system MTTF. Valid for `δ ≪ M`.
///
/// ```
/// use xsim_ckpt::{young_interval, daly_interval};
/// use xsim_core::SimTime;
///
/// let delta = SimTime::from_secs(20);
/// let mttf = SimTime::from_secs(3000);
/// let young = young_interval(delta, mttf);
/// let daly = daly_interval(delta, mttf);
/// assert!((young.as_secs_f64() - 346.4).abs() < 0.1);
/// assert!(daly < young); // the higher-order correction shortens it
/// ```
pub fn young_interval(delta: SimTime, mttf: SimTime) -> SimTime {
    let d = delta.as_secs_f64();
    let m = mttf.as_secs_f64();
    if d <= 0.0 || m <= 0.0 {
        return SimTime::ZERO;
    }
    SimTime::from_secs_f64((2.0 * d * m).sqrt())
}

/// Daly's higher-order estimate:
///
/// `t_opt = sqrt(2δM)·[1 + ⅓·sqrt(δ/2M) + (1/9)·(δ/2M)] − δ` for
/// `δ < 2M`, and `t_opt = M` otherwise.
pub fn daly_interval(delta: SimTime, mttf: SimTime) -> SimTime {
    let d = delta.as_secs_f64();
    let m = mttf.as_secs_f64();
    if d <= 0.0 || m <= 0.0 {
        return SimTime::ZERO;
    }
    if d >= 2.0 * m {
        return mttf;
    }
    let x = d / (2.0 * m);
    let t = (2.0 * d * m).sqrt() * (1.0 + x.sqrt() / 3.0 + x / 9.0) - d;
    SimTime::from_secs_f64(t.max(0.0))
}

/// Daly's expected total wall time for a run of `solve` useful compute,
/// checkpointing every `tau` with per-checkpoint cost `delta`, restart
/// cost `restart`, under exponential failures with MTTF `mttf`:
///
/// `T = M · e^{R/M} · (e^{(τ+δ)/M} − 1) · T_s / τ`
///
/// (the standard renewal-reward form). Useful to predict the E2 column
/// of Table II for a given interval.
pub fn expected_runtime(
    solve: SimTime,
    tau: SimTime,
    delta: SimTime,
    restart: SimTime,
    mttf: SimTime,
) -> SimTime {
    let ts = solve.as_secs_f64();
    let t = tau.as_secs_f64();
    let d = delta.as_secs_f64();
    let r = restart.as_secs_f64();
    let m = mttf.as_secs_f64();
    if t <= 0.0 || m <= 0.0 {
        return SimTime::MAX;
    }
    let total = m * (r / m).exp() * (((t + d) / m).exp() - 1.0) * ts / t;
    SimTime::from_secs_f64(total)
}

/// Predicted vs measured checkpoint overhead for one run. Build with
/// [`compare_overhead`] from the observability layer's totals (the
/// `ckpt.commit_ns` histogram sum and the run's exit time) and the
/// configured interval/commit cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadComparison {
    /// Model-predicted overhead fraction in the failure-free limit:
    /// `δ / (τ + δ)` — of every interval-plus-commit cycle, the commit
    /// share is pure overhead.
    pub predicted_fraction: f64,
    /// Measured overhead fraction: virtual time spent committing
    /// checkpoints over total virtual run time.
    pub actual_fraction: f64,
}

impl OverheadComparison {
    /// Signed prediction error (`actual − predicted`); positive means
    /// checkpointing cost more than the model predicts (e.g. rework
    /// after failures, I/O contention).
    pub fn error(&self) -> f64 {
        self.actual_fraction - self.predicted_fraction
    }
}

/// Failure-free predicted checkpoint-overhead fraction for checkpoint
/// interval `tau` and per-checkpoint commit cost `delta`.
pub(crate) fn predicted_overhead_fraction(tau: SimTime, delta: SimTime) -> f64 {
    let t = tau.as_secs_f64();
    let d = delta.as_secs_f64();
    if d <= 0.0 || t + d <= 0.0 {
        return 0.0;
    }
    d / (t + d)
}

/// Compare the Daly-model prediction against a run's measured totals:
/// `ckpt_ns` is the total virtual time spent committing checkpoints
/// (the observability layer's `ckpt.commit_ns` histogram sum) and
/// `run_ns` the total virtual run time.
pub fn compare_overhead(
    tau: SimTime,
    delta: SimTime,
    ckpt_ns: u64,
    run_ns: u64,
) -> OverheadComparison {
    OverheadComparison {
        predicted_fraction: predicted_overhead_fraction(tau, delta),
        actual_fraction: if run_ns == 0 {
            0.0
        } else {
            ckpt_ns as f64 / run_ns as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: f64) -> SimTime {
        SimTime::from_secs_f64(v)
    }

    #[test]
    fn young_matches_textbook_example() {
        // δ = 10 min, M = 24 h: sqrt(2 * 600 * 86400) ≈ 10182 s.
        let t = young_interval(s(600.0), s(86_400.0));
        assert!((t.as_secs_f64() - 10_182.3).abs() < 1.0, "{t}");
    }

    #[test]
    fn daly_is_close_to_young_for_small_delta_and_below_it() {
        let (d, m) = (s(10.0), s(10_000.0));
        let y = young_interval(d, m).as_secs_f64();
        let dl = daly_interval(d, m).as_secs_f64();
        // Higher-order correction is small and reduces the interval by
        // about δ.
        assert!((dl - y).abs() < 0.2 * y);
        assert!(dl < y, "daly {dl} vs young {y}");
    }

    #[test]
    fn daly_clamps_to_mttf_for_huge_delta() {
        assert_eq!(daly_interval(s(100.0), s(10.0)), s(10.0));
    }

    #[test]
    fn degenerate_inputs_are_safe() {
        assert_eq!(young_interval(SimTime::ZERO, s(10.0)), SimTime::ZERO);
        assert_eq!(daly_interval(s(1.0), SimTime::ZERO), SimTime::ZERO);
        assert_eq!(
            expected_runtime(s(1.0), SimTime::ZERO, s(1.0), s(1.0), s(1.0)),
            SimTime::MAX
        );
    }

    #[test]
    fn expected_runtime_is_minimized_near_daly_interval() {
        // Numerically verify that Daly's interval sits at (or near) the
        // minimum of the expected-runtime curve.
        let (solve, delta, restart, mttf) = (s(5000.0), s(20.0), s(60.0), s(3000.0));
        let t_opt = daly_interval(delta, mttf);
        let at = |tau: SimTime| expected_runtime(solve, tau, delta, restart, mttf).as_secs_f64();
        let best = at(t_opt);
        for factor in [0.25, 0.5, 2.0, 4.0] {
            let other = at(t_opt.scale(factor));
            assert!(
                best <= other * 1.005,
                "tau = {factor}·t_opt beats the optimum: {other} < {best}"
            );
        }
    }

    #[test]
    fn overhead_comparison_matches_hand_math() {
        // τ = 90 s, δ = 10 s: 10/(90+10) = 10% predicted overhead.
        let c = compare_overhead(s(90.0), s(10.0), 30_000_000_000, 200_000_000_000);
        assert!((c.predicted_fraction - 0.10).abs() < 1e-12);
        assert!((c.actual_fraction - 0.15).abs() < 1e-12);
        assert!((c.error() - 0.05).abs() < 1e-12);
        // Degenerate inputs stay finite.
        let z = compare_overhead(SimTime::ZERO, SimTime::ZERO, 0, 0);
        assert_eq!(z.predicted_fraction, 0.0);
        assert_eq!(z.actual_fraction, 0.0);
    }

    #[test]
    fn expected_runtime_exceeds_solve_time() {
        let t = expected_runtime(s(5000.0), s(500.0), s(10.0), s(0.0), s(6000.0));
        assert!(t > s(5000.0));
        // And grows as MTTF shrinks.
        let worse = expected_runtime(s(5000.0), s(500.0), s(10.0), s(0.0), s(1500.0));
        assert!(worse > t);
    }
}
