//! Bit-flip injection into a simulated victim process.
//!
//! Reproduces the Finject experiment behind the paper's Table I (§II-C):
//! "register bit flips were introduced into a user-space application
//! (victim) using ptrace(2). While the detector watches the victim
//! process and reports on its exit, the analyzer counts the injections
//! and detections." The paper's substrate — a native Linux process — is
//! replaced by a *simulated* victim with a structured memory image
//! (text/pointer/data/unused segments); a flip into a sensitive segment
//! crashes the victim, a flip into plain data silently corrupts it, and
//! a flip into unused memory is benign. The injections-to-failure
//! distribution is therefore geometric-like, matching the regime of
//! Table I (mean ≫ median, long tail).

use xsim_core::DetRng;

/// Sizes of the victim's memory segments, in bytes. The defaults are
/// calibrated so the per-injection crash probability is ≈ 1/22, the
/// regime of the paper's Table I (mean 21.97 injections to failure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VictimLayout {
    /// Executable text; flips here crash the victim (illegal
    /// instruction / wild jump).
    pub text_bytes: usize,
    /// Pointer-dense segment (stack frames, GOT); flips here crash the
    /// victim (illegal memory access).
    pub pointer_bytes: usize,
    /// Plain data; flips here silently corrupt output.
    pub data_bytes: usize,
    /// Allocated-but-unused memory; flips here are benign.
    pub unused_bytes: usize,
}

impl Default for VictimLayout {
    fn default() -> Self {
        // 1 MiB image, ~4.5% sensitive.
        VictimLayout {
            text_bytes: 24 * 1024,
            pointer_bytes: 24 * 1024,
            data_bytes: 464 * 1024,
            unused_bytes: 512 * 1024,
        }
    }
}

impl VictimLayout {
    /// Total image size.
    pub fn total_bytes(&self) -> usize {
        self.text_bytes + self.pointer_bytes + self.data_bytes + self.unused_bytes
    }

    /// Probability that one uniformly placed bit flip crashes the victim.
    pub fn crash_probability(&self) -> f64 {
        (self.text_bytes + self.pointer_bytes) as f64 / self.total_bytes() as f64
    }
}

/// Outcome of one injected bit flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlipOutcome {
    /// The victim crashed (detected failure; the campaign's detector
    /// "reports on its exit").
    Crashed,
    /// The flip landed in live data: the victim keeps running but its
    /// output is corrupt (the silent-data-corruption case RedMPI
    /// targets, §II-C).
    SilentCorruption,
    /// The flip landed in unused memory; no observable effect.
    Benign,
}

/// A simulated victim process accepting bit-flip injections.
#[derive(Debug)]
pub(crate) struct Victim {
    layout: VictimLayout,
    injections: u32,
    corrupted: bool,
    crashed: bool,
}

impl Victim {
    /// A fresh victim with the given memory layout.
    pub(crate) fn new(layout: VictimLayout) -> Self {
        Victim {
            layout,
            injections: 0,
            corrupted: false,
            crashed: false,
        }
    }

    /// Inject one uniformly placed bit flip (the ptrace(2) analogue).
    /// Panics if the victim already crashed (the real tool would fail to
    /// attach).
    pub(crate) fn inject(&mut self, rng: &mut DetRng) -> FlipOutcome {
        assert!(!self.crashed, "cannot inject into a crashed victim");
        self.injections += 1;
        let total_bits = self.layout.total_bytes() as u64 * 8;
        let bit = rng.gen_range_u64(total_bits);
        let byte = (bit / 8) as usize;
        let sensitive = self.layout.text_bytes + self.layout.pointer_bytes;
        let live_data = sensitive + self.layout.data_bytes;
        if byte < sensitive {
            self.crashed = true;
            FlipOutcome::Crashed
        } else if byte < live_data {
            self.corrupted = true;
            FlipOutcome::SilentCorruption
        } else {
            FlipOutcome::Benign
        }
    }

    /// Inject until the victim crashes; returns the number of injections
    /// needed (the per-victim figure aggregated in Table I).
    pub(crate) fn run_to_failure(&mut self, rng: &mut DetRng, max_injections: u32) -> Option<u32> {
        while self.injections < max_injections {
            if self.inject(rng) == FlipOutcome::Crashed {
                return Some(self.injections);
            }
        }
        None
    }
}

/// Aggregate statistics over a campaign of victims — the fields of the
/// paper's Table I.
///
/// ```
/// use xsim_fault::bitflip::{run_campaign, CampaignStats, VictimLayout};
///
/// let counts = run_campaign(100, 100, VictimLayout::default(), 17);
/// let stats = CampaignStats::from_counts(&counts).unwrap();
/// // Geometric-like regime, as in the paper: mean >> median >= mode.
/// assert!(stats.mean > stats.median);
/// assert!(stats.min >= 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignStats {
    /// Number of victim application instances.
    pub victims: u32,
    /// Total injected failures across all runs.
    pub injections: u64,
    /// Minimum injections to victim failure.
    pub min: u32,
    /// Maximum injections to victim failure.
    pub max: u32,
    /// Mean injections to victim failure.
    pub mean: f64,
    /// Median injections to victim failure.
    pub median: f64,
    /// Mode (most frequent count; smallest on ties).
    pub mode: u32,
    /// Population standard deviation.
    pub stddev: f64,
}

impl CampaignStats {
    /// Compute the Table I statistics from per-victim injection counts.
    /// Returns `None` for an empty campaign.
    pub fn from_counts(counts: &[u32]) -> Option<Self> {
        if counts.is_empty() {
            return None;
        }
        let n = counts.len() as f64;
        let mut sorted = counts.to_vec();
        sorted.sort_unstable();
        let min = sorted[0];
        let max = *sorted.last().expect("non-empty");
        let sum: u64 = counts.iter().map(|&c| c as u64).sum();
        let mean = sum as f64 / n;
        let median = if sorted.len() % 2 == 1 {
            sorted[sorted.len() / 2] as f64
        } else {
            (sorted[sorted.len() / 2 - 1] as f64 + sorted[sorted.len() / 2] as f64) / 2.0
        };
        // Mode: most frequent value, smallest value on ties.
        let mut best = (0u32, 0usize);
        let mut i = 0;
        while i < sorted.len() {
            let v = sorted[i];
            let mut j = i;
            while j < sorted.len() && sorted[j] == v {
                j += 1;
            }
            if j - i > best.1 {
                best = (v, j - i);
            }
            i = j;
        }
        let var = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        Some(CampaignStats {
            victims: counts.len() as u32,
            injections: sum,
            min,
            max,
            mean,
            median,
            mode: best.0,
            stddev: var.sqrt(),
        })
    }
}

/// Run a Table-I-style campaign: `victims` victim instances, each
/// injected until failure (or `max_injections`, the paper's "arbitrary
/// maximum of 100"). Returns the per-victim counts; victims that never
/// crashed are excluded from the counts (none are expected with the
/// default layout and cap).
pub fn run_campaign(
    victims: u32,
    max_injections: u32,
    layout: VictimLayout,
    seed: u64,
) -> Vec<u32> {
    let mut counts = Vec::with_capacity(victims as usize);
    for v in 0..victims {
        let mut rng = DetRng::stream(seed, DetRng::STREAM_CAMPAIGN ^ (v as u64).rotate_left(32));
        let mut victim = Victim::new(layout);
        if let Some(c) = victim.run_to_failure(&mut rng, max_injections) {
            counts.push(c);
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_probability() {
        let l = VictimLayout::default();
        assert_eq!(l.total_bytes(), 1024 * 1024);
        let p = l.crash_probability();
        assert!((p - 1.0 / 21.33).abs() < 0.005, "p = {p}");
    }

    #[test]
    fn victim_state_machine() {
        let mut rng = DetRng::stream(1, 2);
        let mut v = Victim::new(VictimLayout {
            text_bytes: 1024,
            pointer_bytes: 0,
            data_bytes: 0,
            unused_bytes: 0,
        });
        // Everything is text: first injection crashes.
        assert_eq!(v.inject(&mut rng), FlipOutcome::Crashed);
    }

    #[test]
    #[should_panic(expected = "crashed victim")]
    fn cannot_inject_into_crashed() {
        let mut rng = DetRng::stream(1, 2);
        let mut v = Victim::new(VictimLayout {
            text_bytes: 8,
            pointer_bytes: 0,
            data_bytes: 0,
            unused_bytes: 0,
        });
        v.inject(&mut rng);
        v.inject(&mut rng);
    }

    #[test]
    fn data_flips_corrupt_silently() {
        let mut rng = DetRng::stream(3, 4);
        let mut v = Victim::new(VictimLayout {
            text_bytes: 0,
            pointer_bytes: 0,
            data_bytes: 64,
            unused_bytes: 0,
        });
        assert_eq!(v.inject(&mut rng), FlipOutcome::SilentCorruption);
    }

    #[test]
    fn stats_match_hand_computation() {
        let counts = [1, 4, 4, 7, 9];
        let s = CampaignStats::from_counts(&counts).unwrap();
        assert_eq!(s.victims, 5);
        assert_eq!(s.injections, 25);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 9);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.median, 4.0);
        assert_eq!(s.mode, 4);
        assert!((s.stddev - 2.756809).abs() < 1e-5);
    }

    #[test]
    fn stats_even_median_and_tie_mode() {
        let counts = [2, 2, 3, 3];
        let s = CampaignStats::from_counts(&counts).unwrap();
        assert_eq!(s.median, 2.5);
        assert_eq!(s.mode, 2, "smallest value wins ties");
        assert!(CampaignStats::from_counts(&[]).is_none());
    }

    #[test]
    fn campaign_is_deterministic_and_geometric_like() {
        let counts = run_campaign(100, 1000, VictimLayout::default(), 0xF00D);
        let counts2 = run_campaign(100, 1000, VictimLayout::default(), 0xF00D);
        assert_eq!(counts, counts2);
        let s = CampaignStats::from_counts(&counts).unwrap();
        assert_eq!(s.victims, 100);
        // Geometric regime: mean near 1/p ≈ 21.3, median below mean,
        // long right tail.
        assert!(s.mean > 10.0 && s.mean < 40.0, "mean {}", s.mean);
        assert!(s.median < s.mean, "median {} mean {}", s.median, s.mean);
        assert!(s.max > 2 * s.mean as u32, "max {}", s.max);
        assert!(s.min >= 1);
    }
}
