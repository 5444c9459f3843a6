//! Property test for the heartbeat failure detector: it must always
//! detect a real death within its declared detection bound, and never
//! inside the grace period. The property runs `CASES` cases, case `i`
//! drawing from `DetRng::stream(SEED, i)`.

use xsim_core::rng::for_each_case;
use xsim_core::{DetRng, SimTime};
use xsim_mpi::HeartbeatConfig;

const SEED: u64 = 0xC0DE_0004;
const CASES: u64 = 64;

/// Arbitrary-but-sane protocol parameters: periods from 1 ms to 10 s,
/// graces from 1 to 8 periods plus up to 1 ms.
fn arb_config(g: &mut DetRng) -> HeartbeatConfig {
    let period = g.gen_in(1_000_000..10_000_000_000); // 1 ms .. 10 s
    HeartbeatConfig {
        period: SimTime(period),
        grace: SimTime(period * g.gen_in(100..801) / 100 + g.gen_in(0..1_000_000)),
    }
}

/// Real deaths are always detected, and within the declared window:
/// detection happens after the death plus the grace (a detector cannot
/// fire before its grace period ends) and no later than
/// `detection_bound` past it.
#[test]
fn real_deaths_detected_within_bound() {
    for_each_case(SEED, CASES, |g| {
        let cfg = arb_config(g);
        let tof = SimTime(g.gen_in(0..10_000_000_000_000));
        let detect = cfg.detection_time(tof);
        assert!(detect >= tof, "detection precedes the death");
        assert!(
            detect >= tof + cfg.grace,
            "detection fired inside the grace period"
        );
        assert!(
            detect <= tof + cfg.detection_bound(),
            "detection exceeded the declared bound"
        );
    });
}
