//! Deterministic, stream-splittable randomness.
//!
//! The paper stresses that "the experiments are repeatable as the
//! simulator and the application are deterministic" (§V-E). All randomness
//! in xsim-rs flows from one master seed through named streams, so a run
//! is a pure function of its configuration — regardless of worker count.

/// SplitMix64 step — used to derive independent stream seeds from the
/// master seed. (Same mixer used to seed xoshiro-family generators.)
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic RNG bound to a named stream of the master seed:
/// xoshiro256++ (public domain, Blackman & Vigna) seeded through
/// SplitMix64. The stream is part of the simulator's observable
/// behaviour — failure schedules and every golden statistic derive from
/// it — and is pinned by `stream_known_answers` below.
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Derive a stream from `(master_seed, stream_tag)`. Streams with
    /// different tags are statistically independent; the same
    /// `(seed, tag)` always yields the same sequence.
    pub fn stream(master_seed: u64, stream_tag: u64) -> Self {
        let mut mix = master_seed ^ stream_tag.rotate_left(17);
        // Run the mixer a few times so correlated (seed, tag) pairs
        // decorrelate before seeding. SplitMix64's output is a bijection
        // of its (advancing) state, so the four words differ: never the
        // all-zero state xoshiro forbids.
        DetRng {
            s: std::array::from_fn(|_| splitmix64(&mut mix)),
        }
    }

    /// Stream tags for well-known consumers.
    pub const STREAM_FAILURES: u64 = 0xFA11;
    /// Stream tag for application-visible randomness.
    pub const STREAM_APP: u64 = 0xA44;
    /// Stream tag for fault-campaign victims.
    pub const STREAM_CAMPAIGN: u64 = 0xCA3B;

    /// Uniform `u64`.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, bound)`. `bound` must be positive.
    pub fn gen_range_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty sample range");
        // Rejection sampling: draw until the value falls inside the
        // largest multiple of `bound`, so every residue is equally likely.
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Uniform in `[0, bound)` as usize.
    pub fn gen_index(&mut self, bound: usize) -> usize {
        self.gen_range_u64(bound as u64) as usize
    }

    /// Uniform float in `[0, 1)`: 53 uniform mantissa bits.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[range.start, range.end)`. The range must not be empty.
    pub fn gen_in(&mut self, range: std::ops::Range<u64>) -> u64 {
        range.start + self.gen_range_u64(range.end - range.start)
    }

    /// Fair coin.
    pub fn gen_bool(&mut self) -> bool {
        self.next_u64() >> 63 == 1
    }

    /// Uniform bytes, a uniform number of them in `len`.
    pub fn gen_bytes(&mut self, len: std::ops::Range<u64>) -> Vec<u8> {
        (0..self.gen_in(len))
            .map(|_| (self.next_u64() >> 56) as u8)
            .collect()
    }

    /// Sample an exponential with the given mean (rate = 1/mean), via
    /// inverse transform. Used by the exponential failure-injection
    /// extension.
    pub fn gen_exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        let u: f64 = 1.0 - self.gen_f64(); // in (0, 1]
        -mean * u.ln()
    }
}

/// Seeded property-test driver of the workspace's test suites: run
/// `prop` on `DetRng::stream(seed, case)` for every `case < cases`. A
/// panicking case prints its index, so a failure names the one stream
/// that reproduces it.
pub fn for_each_case(seed: u64, cases: u64, mut prop: impl FnMut(&mut DetRng)) {
    struct FailingCase {
        seed: u64,
        case: u64,
    }
    impl Drop for FailingCase {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!(
                    "property failed at case {}: DetRng::stream({:#x}, {})",
                    self.case, self.seed, self.case
                );
            }
        }
    }
    for case in 0..cases {
        let _report = FailingCase { seed, case };
        prop(&mut DetRng::stream(seed, case));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_stream_is_reproducible() {
        let mut a = DetRng::stream(42, 7);
        let mut b = DetRng::stream(42, 7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// Captured from the generator as it stood when `perf/golden.json`
    /// was blessed; a change here changes every failure schedule.
    #[test]
    fn stream_known_answers() {
        let mut r = DetRng::stream(17, DetRng::STREAM_FAILURES);
        let first: [u64; 4] = std::array::from_fn(|_| r.next_u64());
        assert_eq!(
            first,
            [
                0x8779_afc8_019e_0e92,
                0x474c_8c0c_c197_aecb,
                0x9af0_ac44_d0a1_63e0,
                0xd757_a175_bc46_76b1,
            ]
        );
        assert_eq!(r.gen_range_u64(1000), 934);
        assert_eq!(r.gen_f64().to_bits(), 0x3fdc_fd68_75a5_48c2);
    }

    #[test]
    fn different_tags_differ() {
        let mut a = DetRng::stream(42, 1);
        let mut b = DetRng::stream(42, 2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::stream(1, 7);
        let mut b = DetRng::stream(2, 7);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = DetRng::stream(9, 9);
        for _ in 0..1000 {
            assert!(r.gen_range_u64(10) < 10);
            assert!(r.gen_index(3) < 3);
            assert!((5..8).contains(&r.gen_in(5..8)));
            let f = r.gen_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn exponential_mean_is_plausible() {
        let mut r = DetRng::stream(3, 3);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.gen_exponential(5.0)).sum();
        let mean = sum / n as f64;
        assert!(
            (mean - 5.0).abs() < 0.25,
            "empirical mean {mean} too far from 5.0"
        );
    }
}
