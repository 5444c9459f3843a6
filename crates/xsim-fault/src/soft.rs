//! Soft-error (silent data corruption) injection into application
//! memory.
//!
//! The paper's conclusion reports that "the tracking of dynamic memory
//! allocation of simulated MPI processes … was the last piece needed to
//! develop a soft error injector" (§VI). In xsim-rs the application owns
//! its memory inside its coroutine, so the injector works
//! cooperatively: a [`SoftErrorPlan`] schedules bit flips at
//! `(rank, virtual time)`; the kernel queues them; the application
//! drains them at its convenience with [`poll_flips`] and applies them
//! to its buffers with [`apply_flip`] — modeling memory that silently
//! flipped while the application computed, exactly the fault class the
//! RedMPI study targets (§II-C).

use std::collections::HashMap;
use xsim_core::event::Action;
use xsim_core::{ctx, Kernel, Rank, SimTime};

/// One scheduled soft error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoftFlip {
    /// Virtual time the flip occurs.
    pub at: SimTime,
    /// Selector used to pick the affected bit (reduced modulo the
    /// buffer size by [`apply_flip`]).
    pub bit_selector: u64,
}

/// A plan of soft errors to inject.
#[derive(Debug, Clone, Default)]
pub struct SoftErrorPlan {
    flips: Vec<(usize, SoftFlip)>,
}

impl SoftErrorPlan {
    /// Empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule a flip at `rank` at virtual time `at`.
    pub fn with_flip(mut self, rank: usize, at: SimTime, bit_selector: u64) -> Self {
        self.flips.push((rank, SoftFlip { at, bit_selector }));
        self
    }

    /// Build a setup hook installing this plan on a kernel shard (pass
    /// to `SimBuilder::setup_hook`).
    pub fn install_hook(&self) -> impl Fn(&mut Kernel) + Send + Sync + 'static {
        let flips = self.flips.clone();
        move |k: &mut Kernel| {
            k.install_service(SoftErrorService::default());
            for (rank, flip) in &flips {
                let rank = Rank::new(*rank);
                if !k.owns(rank) {
                    continue;
                }
                let flip = *flip;
                k.schedule_at(
                    flip.at,
                    rank,
                    Action::call(move |k: &mut Kernel| {
                        if k.vp(rank).is_done() {
                            return;
                        }
                        xsim_obs::service::record(k, xsim_obs::ids::FAULT_SOFT_FLIPS, 1);
                        k.service_mut::<SoftErrorService>()
                            .pending
                            .entry(rank)
                            .or_default()
                            .push(flip);
                    }),
                );
            }
        }
    }
}

/// Kernel service buffering delivered-but-unconsumed flips per rank.
#[derive(Debug, Default)]
pub(crate) struct SoftErrorService {
    pending: HashMap<Rank, Vec<SoftFlip>>,
}

/// Drain the soft errors that have struck the calling rank since the
/// last poll. Applications call this between compute phases and apply
/// the flips to their own buffers.
pub fn poll_flips() -> Vec<SoftFlip> {
    ctx::with_kernel(
        |k, me| match k.service_mut::<SoftErrorService>().pending.get_mut(&me) {
            Some(v) => std::mem::take(v),
            None => Vec::new(),
        },
    )
}

/// Apply a flip to a buffer: flips bit `selector mod (len·8)`. Returns
/// the affected (byte, bit) position, or `None` for an empty buffer.
pub fn apply_flip(buf: &mut [u8], flip: SoftFlip) -> Option<(usize, u8)> {
    if buf.is_empty() {
        return None;
    }
    let bit = flip.bit_selector % (buf.len() as u64 * 8);
    let byte = (bit / 8) as usize;
    let off = (bit % 8) as u8;
    buf[byte] ^= 1 << off;
    Some((byte, off))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builder_accumulates() {
        let p = SoftErrorPlan::new()
            .with_flip(0, SimTime::from_secs(1), 5)
            .with_flip(3, SimTime::from_secs(2), 9);
        assert_eq!(p.flips.len(), 2);
        assert_eq!(p.flips[1].0, 3);
    }

    #[test]
    fn apply_flip_flips_exactly_one_bit() {
        let mut buf = vec![0u8; 16];
        let (byte, bit) = apply_flip(
            &mut buf,
            SoftFlip {
                at: SimTime::ZERO,
                bit_selector: 77,
            },
        )
        .unwrap();
        assert_eq!(byte, 77 / 8);
        assert_eq!(bit, (77 % 8) as u8);
        assert_eq!(buf.iter().map(|b| b.count_ones()).sum::<u32>(), 1);
        // Applying again restores.
        apply_flip(
            &mut buf,
            SoftFlip {
                at: SimTime::ZERO,
                bit_selector: 77,
            },
        );
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn apply_flip_wraps_selector_and_handles_empty() {
        let mut buf = vec![0u8; 2];
        let (byte, _) = apply_flip(
            &mut buf,
            SoftFlip {
                at: SimTime::ZERO,
                bit_selector: 16 + 3,
            },
        )
        .unwrap();
        assert_eq!(byte, 0, "selector wraps modulo buffer bits");
        assert!(apply_flip(
            &mut [],
            SoftFlip {
                at: SimTime::ZERO,
                bit_selector: 1
            }
        )
        .is_none());
    }
}
