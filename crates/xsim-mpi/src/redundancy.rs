//! Process-level redundancy (the RedMPI approach, paper §II-C).
//!
//! "RedMPI is capable of online detection and correction of soft errors
//! (bit flips) without requiring any modifications to the application
//! using double or triple redundancy. It can be also used as a fault
//! injection tool by disabling the online correction and keeping
//! replicas isolated."
//!
//! [`Redundant::split`] partitions `MPI_COMM_WORLD` into `r` replica
//! spheres: each sphere gets its own *work* communicator on which the
//! application runs unmodified, and each logical rank gets a *team*
//! communicator linking its `r` replicas. Teams compare (and with
//! `r ≥ 3` majority-correct) application data at verification points —
//! the message-comparison discipline of RedMPI reduced to its essence.

use crate::collective;
use crate::comm::Comm;
use crate::error::MpiError;
use crate::mpi_ctx::MpiCtx;
use xsim_core::Bytes;

/// Outcome of a redundant verification point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// All replicas agree.
    Consistent,
    /// Replicas diverged and a majority value existed; the returned data
    /// is the corrected (majority) value. Carries the number of
    /// out-voted replicas.
    Corrected {
        /// Replicas whose value disagreed with the majority.
        outvoted: u32,
    },
    /// Replicas diverged with no majority (or only two replicas):
    /// detection without correction.
    Uncorrectable,
}

/// The replica structure of one process.
#[derive(Debug, Clone, Copy)]
pub struct Redundant {
    /// Degree of redundancy (2 = double, 3 = triple).
    pub r: usize,
    /// This process's replica index in `0..r`.
    pub replica: usize,
    /// Logical rank of this process (shared by its replicas).
    pub logical_rank: usize,
    /// Number of logical ranks.
    pub logical_size: usize,
    /// Communicator of this process's replica sphere: run the
    /// application on it, unmodified.
    pub work: Comm,
    /// Communicator of this logical rank's replica team (size `r`):
    /// verification traffic.
    pub team: Comm,
}

impl Redundant {
    /// Split the world into `r` replica spheres. World size must be an
    /// exact multiple of `r`; replicas are interleaved (world rank =
    /// `logical · r + replica`), so consecutive logical ranks land on
    /// distinct nodes under block placement — RedMPI's layout.
    pub async fn split(mpi: &MpiCtx, r: usize) -> Result<Redundant, MpiError> {
        if r < 2 {
            return Err(MpiError::Invalid("redundancy degree must be >= 2"));
        }
        if !mpi.size.is_multiple_of(r) {
            return Err(MpiError::Invalid("world size must be a multiple of r"));
        }
        let replica = mpi.rank % r;
        let logical_rank = mpi.rank / r;
        let logical_size = mpi.size / r;
        let world = mpi.world();
        let work = mpi
            .comm_split(world, Some(replica as u32), logical_rank as i64)
            .await?
            .expect("every rank has a replica color");
        let team = mpi
            .comm_split(world, Some(logical_rank as u32), replica as i64)
            .await?
            .expect("every rank has a team color");
        Ok(Redundant {
            r,
            replica,
            logical_rank,
            logical_size,
            work,
            team,
        })
    }

    /// Verify (and with `r ≥ 3`, correct) a datum across the replica
    /// team. Every replica passes its local value; the returned bytes
    /// are the majority value (or the caller's own on full agreement).
    ///
    /// An [`Verdict::Uncorrectable`] divergence (no majority — the only
    /// possible divergence outcome for `r = 2`) **escalates into the
    /// process-failure path**: the team cannot tell which replica is
    /// corrupt, so proceeding would propagate silent data corruption.
    /// Every team member fail-stops, which the simulator then handles
    /// exactly like a crash (detection, notification, abort or ULFM
    /// recovery by the rest of the job). Use [`Redundant::verify_detect`]
    /// for RedMPI's detection-only mode (correction disabled, replicas
    /// kept isolated).
    ///
    /// This is the verification point a RedMPI-protected application
    /// hits on every message; here the application chooses where to
    /// place it (e.g. once per iteration on its state checksum).
    pub async fn verify(&self, mpi: &MpiCtx, data: Bytes) -> Result<(Bytes, Verdict), MpiError> {
        let (winner, verdict) = self.verify_detect(mpi, data).await?;
        if verdict == Verdict::Uncorrectable {
            // All replicas of this logical rank observe the same gathered
            // values, so all reach this branch: the whole team fail-stops
            // deterministically and the failure machinery takes over.
            mpi.fail_now().await;
        }
        Ok((winner, verdict))
    }

    /// Detection-only verification (RedMPI with "online correction
    /// disabled"): identical voting, but an uncorrectable divergence is
    /// reported to the caller instead of escalating to a process
    /// failure.
    pub async fn verify_detect(
        &self,
        _mpi: &MpiCtx,
        data: Bytes,
    ) -> Result<(Bytes, Verdict), MpiError> {
        // Gather all replicas' values on every team member (team sizes
        // are tiny: r).
        let all = collective::allgather(self.team.id, data.clone()).await;
        let all = match all {
            Ok(v) => v,
            Err(e) => return Err(e),
        };
        // Majority vote.
        let mut best: Option<(&Bytes, u32)> = None;
        for candidate in &all {
            let votes = all.iter().filter(|d| *d == candidate).count() as u32;
            best = match best {
                Some((_, b)) if b >= votes => best,
                _ => Some((candidate, votes)),
            };
        }
        let (winner, votes) = best.expect("team is non-empty");
        let verdict = if votes as usize == self.r {
            Verdict::Consistent
        } else if votes as usize * 2 > self.r {
            Verdict::Corrected {
                outvoted: self.r as u32 - votes,
            }
        } else {
            Verdict::Uncorrectable
        };
        Ok((winner.clone(), verdict))
    }

    /// Verify a `u64` state checksum (convenience over
    /// [`Redundant::verify`] — escalates uncorrectable divergence).
    pub async fn verify_u64(&self, mpi: &MpiCtx, value: u64) -> Result<(u64, Verdict), MpiError> {
        let (bytes, verdict) = self
            .verify(mpi, Bytes::copy_from_slice(&value.to_le_bytes()))
            .await?;
        Self::decode_u64(&bytes).map(|v| (v, verdict))
    }

    /// Detection-only `u64` verification (convenience over
    /// [`Redundant::verify_detect`]).
    pub async fn verify_u64_detect(
        &self,
        mpi: &MpiCtx,
        value: u64,
    ) -> Result<(u64, Verdict), MpiError> {
        let (bytes, verdict) = self
            .verify_detect(mpi, Bytes::copy_from_slice(&value.to_le_bytes()))
            .await?;
        Self::decode_u64(&bytes).map(|v| (v, verdict))
    }

    fn decode_u64(bytes: &Bytes) -> Result<u64, MpiError> {
        bytes
            .get(..8)
            .and_then(|b| b.try_into().ok())
            .map(u64::from_le_bytes)
            .ok_or(MpiError::Invalid("corrupt verification payload"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict_for(r: usize, votes: usize) -> Verdict {
        if votes == r {
            Verdict::Consistent
        } else if votes * 2 > r {
            Verdict::Corrected {
                outvoted: (r - votes) as u32,
            }
        } else {
            Verdict::Uncorrectable
        }
    }

    #[test]
    fn verdict_boundaries() {
        // Same arithmetic as `verify`; the full path is exercised by the
        // integration tests in tests/redundancy.rs.
        assert_eq!(verdict_for(3, 3), Verdict::Consistent);
        assert_eq!(verdict_for(3, 2), Verdict::Corrected { outvoted: 1 });
        assert_eq!(verdict_for(3, 1), Verdict::Uncorrectable);
        assert_eq!(verdict_for(2, 2), Verdict::Consistent);
        assert_eq!(verdict_for(2, 1), Verdict::Uncorrectable);
        assert_eq!(verdict_for(5, 3), Verdict::Corrected { outvoted: 2 });
    }
}
