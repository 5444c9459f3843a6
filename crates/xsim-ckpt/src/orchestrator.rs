//! Restart orchestration: run → abort → cleanup → restart with the
//! virtual timeline continued.
//!
//! This is the outer loop of the paper's Table II experiments: each row
//! "represents the execution of 1,000 iterations, including any
//! failure/restart cycle, with randomly injected MPI process failures"
//! (§V-E). The orchestrator:
//!
//! 1. draws the run's random failure (rank uniform, time uniform in
//!    2·MTTF_s relative to the run start — §V-C),
//! 2. runs the application under the simulator,
//! 3. on abort: persists the exit virtual time (§IV-E), removes
//!    incomplete checkpoint sets (the shell-script step of §V-B), and
//!    restarts with all VP clocks initialized to the carried time,
//! 4. repeats until the application completes (or a restart budget is
//!    exhausted).
//!
//! [`ProtectionCampaign`] drives the same loop for the FIT × protection-
//! scheme ablation, so checkpoint/restart and replication compose. It
//! differs from [`Orchestrator`] in exactly the two inputs the loop
//! takes:
//!
//! * **Schedule-driven injection.** Instead of drawing one random
//!   failure per run, the campaign takes a whole absolute-time
//!   [`FailureSchedule`] up front (e.g. from
//!   `SystemReliability::generate_schedule`). Every scheme under an
//!   ablation is fed the *same* schedule for a given seed, so their
//!   completion times are comparable apples-to-apples; each run injects
//!   the entries still in its future.
//! * **Replication-aware success.** A replicated run that absorbed
//!   replica deaths ends with [`ExitKind::FailedOnly`] — the dead
//!   replicas are real process failures — even though the *application*
//!   finished. The campaign therefore accepts a run as complete when the
//!   application's completion marker (see `heat3d_rep`'s `done_marker`)
//!   exists in the store, not only on a clean [`ExitKind::Completed`].

use crate::manager::{read_exit_time, write_exit_time, CheckpointManager};
use std::collections::BTreeMap;
use std::sync::Arc;
use xsim_core::vp::VpProgram;
use xsim_core::{ExitKind, SimError, SimTime};
use xsim_fault::{FailureModel, FailureSchedule};
use xsim_fs::FsStore;
use xsim_mpi::{CkptMode, RunReport, SimBuilder};

/// Outcome of a full run-to-completion campaign.
#[derive(Debug)]
pub struct CampaignResult {
    /// Per-run reports, in execution order.
    pub runs: Vec<RunReport>,
    /// Whether the application eventually completed.
    pub completed: bool,
    /// Final virtual time (the Table II `E2` when `completed`).
    pub finish_time: SimTime,
    /// Total activated process failures across runs (Table II `F`).
    pub failures: u64,
}

impl CampaignResult {
    /// The experienced application mean time to failure: total virtual
    /// time divided by the number of runs (Table II `MTTF_a = E2/(F+1)`).
    pub fn application_mttf(&self) -> Option<SimTime> {
        if self.failures == 0 {
            return None;
        }
        Some(SimTime(self.finish_time.as_nanos() / (self.failures + 1)))
    }
}

/// The restart orchestrator. Configure with the failure model and a
/// budget, then [`run_to_completion`](Self::run_to_completion).
pub struct Orchestrator {
    /// Random failure injection model applied per run.
    pub model: FailureModel,
    /// Seed for the failure draws (independent of the in-run seed).
    pub seed: u64,
    /// Maximum number of restarts before giving up.
    pub max_restarts: usize,
    /// Checkpoint manager matching the application's (for the
    /// between-runs cleanup step).
    pub manager: CheckpointManager,
    /// Checkpoint mode the application writes with (selects the
    /// between-runs cleanup layout).
    pub mode: CkptMode,
}

impl Orchestrator {
    /// Orchestrator with the paper's defaults.
    pub fn new(model: FailureModel, seed: u64, manager: CheckpointManager) -> Self {
        Orchestrator {
            model,
            seed,
            max_restarts: 256,
            manager,
            mode: CkptMode::Full,
        }
    }

    /// Run the application to completion across failure/restart cycles.
    ///
    /// `make_builder` produces a fresh, fully configured [`SimBuilder`]
    /// per run (machine models, workers, seed…); the orchestrator
    /// overrides the store, start time and failure injection.
    pub fn run_to_completion(
        &self,
        store: Arc<FsStore>,
        program: Arc<dyn VpProgram>,
        n_ranks: usize,
        make_builder: impl Fn() -> SimBuilder,
    ) -> Result<CampaignResult, SimError> {
        restart_loop(
            store,
            program,
            self.max_restarts,
            |store, failed| {
                self.manager
                    .cleanup_between_runs(store, n_ranks as u32, self.mode, failed);
            },
            None,
            make_builder,
            |builder, run_idx, start| match self.model.draw(self.seed, run_idx, n_ranks) {
                Some(draw) => builder.inject_failure(draw.rank, start + draw.at),
                None => builder,
            },
        )
    }
}

/// Schedule-driven, scheme-agnostic restart campaign.
pub struct ProtectionCampaign {
    /// Absolute-time failure schedule over *physical* ranks, shared by
    /// every scheme of an ablation cell.
    pub schedule: FailureSchedule,
    /// Maximum restarts before giving up.
    pub max_restarts: usize,
    /// Checkpoint manager for between-run cleanup (harmless when the
    /// scheme writes no checkpoints).
    pub manager: CheckpointManager,
    /// Number of checkpointing ranks (logical ranks for replicated
    /// schemes) — the completeness unit for cleanup.
    pub ckpt_ranks: u32,
    /// Checkpoint mode the application writes with (selects the
    /// between-runs cleanup layout).
    pub mode: CkptMode,
    /// Store name of the application's completion marker, if the
    /// application writes one (replicated runs); `None` = only
    /// `ExitKind::Completed` counts as success.
    pub done_marker: Option<String>,
}

/// The earliest post-`start` failure of each rank in `schedule`.
fn earliest_per_rank(schedule: &FailureSchedule, start: SimTime) -> BTreeMap<usize, SimTime> {
    let mut next = BTreeMap::new();
    for (rank, at) in schedule.iter().filter(|(_, at)| *at > start) {
        next.entry(rank)
            .and_modify(|t: &mut SimTime| *t = (*t).min(at))
            .or_insert(at);
    }
    next
}

impl ProtectionCampaign {
    /// Run the application to completion across failure/restart cycles,
    /// injecting the schedule's future entries into every run.
    ///
    /// `make_builder` produces a fresh, fully configured [`SimBuilder`]
    /// per run; the campaign overrides the store, start time and failure
    /// injection.
    pub fn run_to_completion(
        &self,
        store: Arc<FsStore>,
        program: Arc<dyn VpProgram>,
        make_builder: impl Fn() -> SimBuilder,
    ) -> Result<CampaignResult, SimError> {
        restart_loop(
            store,
            program,
            self.max_restarts,
            |store, failed| {
                self.manager
                    .cleanup_between_runs(store, self.ckpt_ranks, self.mode, failed);
            },
            self.done_marker.as_deref(),
            make_builder,
            // A rank dies once per run, so only its *earliest* future
            // entry applies now; the later ones hit the runs after the
            // node's repair/replacement. (The kernel keeps one pending
            // failure time per rank — feeding it a node's whole future
            // would leave only the last entry standing.)
            |builder, _, start| {
                earliest_per_rank(&self.schedule, start)
                    .into_iter()
                    .fold(builder, |b, (rank, at)| b.inject_failure(rank, at))
            },
        )
    }
}

/// Whether a finished run means the application completed: a clean
/// exit, or survivor replicas that finished while dead teammates count
/// as process failures (`FailedOnly`) and left the completion marker.
fn run_succeeded(exit: ExitKind, marker_present: bool) -> bool {
    match exit {
        ExitKind::Completed => true,
        ExitKind::FailedOnly => marker_present,
        ExitKind::Aborted => false,
    }
}

/// The restart loop of both campaign types ([`Orchestrator`] and
/// [`ProtectionCampaign`]). Per run: start the clocks at the
/// previous run's persisted exit time (paper §IV-E), let `inject` add
/// the run's failures (given the run index and start time), run. A run
/// that succeeded ([`run_succeeded`], the marker being `done_marker` in
/// the store) ends the campaign; otherwise the exit time is persisted,
/// `cleanup` removes the checkpoint sets a restart could not restore
/// from (given the run's failed ranks, paper §V-B), and the next run
/// starts — at most `max_restarts` times.
fn restart_loop(
    store: Arc<FsStore>,
    program: Arc<dyn VpProgram>,
    max_restarts: usize,
    cleanup: impl Fn(&FsStore, &[u32]),
    done_marker: Option<&str>,
    make_builder: impl Fn() -> SimBuilder,
    inject: impl Fn(SimBuilder, u64, SimTime) -> SimBuilder,
) -> Result<CampaignResult, SimError> {
    let mut runs = Vec::new();
    let mut failures = 0u64;
    for run_idx in 0..=max_restarts as u64 {
        let start = read_exit_time(&store).unwrap_or(SimTime::ZERO);
        let builder = make_builder().fs_store(store.clone()).start_time(start);
        let report = inject(builder, run_idx, start).run(program.clone())?;
        failures += report.sim.failures.len() as u64;
        let exit_kind = report.sim.exit;
        let exit_time = report.exit_time();
        let failed: Vec<u32> = report.sim.failures.iter().map(|f| f.rank.0).collect();
        runs.push(report);

        let marker_present = done_marker.is_some_and(|name| store.exists(name));
        if run_succeeded(exit_kind, marker_present) {
            return Ok(CampaignResult {
                runs,
                completed: true,
                finish_time: exit_time,
                failures,
            });
        }
        write_exit_time(&store, exit_time);
        cleanup(&store, &failed);
    }
    let finish_time = runs.last().map(|r| r.exit_time()).unwrap_or(SimTime::ZERO);
    Ok(CampaignResult {
        runs,
        completed: false,
        finish_time,
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn success_requires_marker_only_for_failed_only_exits() {
        assert!(run_succeeded(ExitKind::Completed, false));
        assert!(run_succeeded(ExitKind::Completed, true));
        assert!(run_succeeded(ExitKind::FailedOnly, true));
        assert!(!run_succeeded(ExitKind::FailedOnly, false));
        assert!(!run_succeeded(ExitKind::Aborted, true));
        assert!(!run_succeeded(ExitKind::Aborted, false));
    }

    #[test]
    fn application_mttf_matches_table_ii_definition() {
        let r = CampaignResult {
            runs: Vec::new(),
            completed: true,
            finish_time: SimTime::from_secs(7957),
            failures: 1,
        };
        // Table II row: E2 = 7957 s, F = 1 → MTTF_a = 3978.5 s.
        assert_eq!(
            r.application_mttf().unwrap(),
            SimTime::from_secs_f64(3978.5)
        );
        let r0 = CampaignResult { failures: 0, ..r };
        assert!(r0.application_mttf().is_none());
    }

    #[test]
    fn earliest_per_rank_takes_first_future_entry() {
        let s = FailureSchedule::new()
            .with(3, SimTime::from_secs(10))
            .with(3, SimTime::from_secs(500))
            .with(3, SimTime::from_secs(900))
            .with(7, SimTime::from_secs(40));
        let next = earliest_per_rank(&s, SimTime::ZERO);
        assert_eq!(next[&3], SimTime::from_secs(10));
        assert_eq!(next[&7], SimTime::from_secs(40));
        // Past entries (≤ the run's start) drop out.
        let next = earliest_per_rank(&s, SimTime::from_secs(40));
        assert_eq!(next[&3], SimTime::from_secs(500));
        assert!(!next.contains_key(&7));
    }
}
