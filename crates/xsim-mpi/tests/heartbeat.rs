//! Property tests for the heartbeat failure detector: the virtual-time
//! protocol must never accuse a live replica (no false positives under
//! any jitter within the declared bound) and must always detect a real
//! death within its declared detection bound. Every property runs
//! `CASES` cases, case `i` drawing from `DetRng::stream(SEED, i)`.

use xsim_core::rng::for_each_case;
use xsim_core::{DetRng, SimTime};
use xsim_mpi::HeartbeatConfig;

const SEED: u64 = 0xC0DE_0004;
const CASES: u64 = 64;

/// Arbitrary-but-sane protocol parameters: periods from 1 ms to 10 s,
/// timeouts and jitter bounds scaled off the period, any seed.
fn arb_config(g: &mut DetRng) -> HeartbeatConfig {
    let period = g.gen_in(1_000_000..10_000_000_000); // 1 ms .. 10 s
    HeartbeatConfig {
        period: SimTime(period),
        timeout: SimTime(period * g.gen_in(1..8)),
        jitter_bound: SimTime(period * g.gen_in(0..101) / 100),
        latency: SimTime(g.gen_in(0..1_000_000)),
        seed: g.next_u64(),
    }
}

/// An observer/target pair.
fn arb_edge(g: &mut DetRng) -> (usize, usize) {
    (g.gen_in(0..4096) as usize, g.gen_in(0..4096) as usize)
}

/// No false positives: for any observer/target pair and any beat
/// number, the k-th heartbeat's jittered arrival never lands after
/// the deadline at which the observer would declare the target dead
/// — a live replica is never accused, no matter how the per-pair
/// deterministic jitter falls within its bound.
#[test]
fn live_replicas_are_never_accused() {
    for_each_case(SEED, CASES, |g| {
        let cfg = arb_config(g);
        let (observer, target) = arb_edge(g);
        let k = g.gen_in(0..100_000);
        let jitter = cfg.jitter(observer, target, k);
        assert!(
            jitter <= cfg.jitter_bound,
            "jitter exceeds its declared bound"
        );
        assert!(
            cfg.arrival(observer, target, k) <= cfg.deadline(k),
            "live heartbeat {k} would miss its deadline"
        );
    });
}

/// Real deaths are always detected, and within the declared window:
/// detection happens after the death (plus the timeout — a detector
/// cannot fire before its grace period ends) and no later than
/// `detection_bound` past it.
#[test]
fn real_deaths_detected_within_bound() {
    for_each_case(SEED, CASES, |g| {
        let cfg = arb_config(g);
        let (observer, target) = arb_edge(g);
        let tof = SimTime(g.gen_in(0..10_000_000_000_000));
        let detect = cfg.detection_time(observer, target, tof);
        assert!(detect >= tof, "detection precedes the death");
        assert!(
            detect >= tof + cfg.timeout,
            "detection fired inside the grace period"
        );
        assert!(
            detect <= tof + cfg.detection_bound(),
            "detection exceeded the declared bound"
        );
    });
}

/// Determinism: the protocol's jitter is a pure function of
/// (seed, observer, target, beat) — same inputs, same draw — and
/// distinct observers of the same target draw independent jitter
/// streams (they do not march in lockstep).
#[test]
fn jitter_is_deterministic_per_edge() {
    for_each_case(SEED, CASES, |g| {
        let cfg = arb_config(g);
        let (observer, target) = arb_edge(g);
        let k = g.gen_in(0..100_000);
        assert_eq!(
            cfg.jitter(observer, target, k),
            cfg.jitter(observer, target, k)
        );
    });
}
