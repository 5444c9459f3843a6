//! Engine configuration.

use crate::error::SimError;
use crate::time::SimTime;

/// Which event-processing engine executes the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Pick automatically: the parallel engine when `workers > 1` and
    /// there is more than one rank to shard, the sequential engine
    /// otherwise.
    #[default]
    Auto,
    /// Force the reference sequential engine regardless of `workers`.
    Sequential,
    /// Force the conservative windowed parallel engine, even with a
    /// single worker thread (useful for differential testing: the
    /// parallel code path with no actual concurrency).
    Parallel,
}

/// Shards per parallel-engine worker thread. A constant, not an option:
/// with one shard per worker the 2²⁰-VP raw-core ring ran ≈ 20 % slower
/// on the 2-vCPU reference host (unverified explanation: a same-time
/// flood of 131 k events sorts in cache, one of 524 k does not) while
/// heat3d and the 64k-rank allreduce did not care, and four keeps
/// `EngineKind::Parallel` + `workers(1)` a *multi-shard* single-thread
/// run — the differential suites' middle leg still crosses shard
/// boundaries without concurrency.
pub(crate) const SHARDS_PER_WORKER: usize = 4;

/// Core engine configuration, independent of any machine model.
#[derive(Debug, Clone)]
pub struct CoreConfig {
    /// Number of simulated virtual processes (MPI ranks).
    pub n_ranks: usize,
    /// Number of native worker threads used by the parallel engine.
    pub workers: usize,
    /// Which engine runs the simulation (see [`EngineKind`]).
    pub engine: EngineKind,
    /// Initial virtual clock of every VP. Nonzero when a run continues the
    /// virtual timeline of a previous aborted run (paper §IV-E:
    /// "continuous virtual timing after an abort and a following restart").
    pub start_time: SimTime,
    /// Master seed for all deterministic randomness in the simulation.
    pub seed: u64,
    /// Conservative lookahead: the minimum virtual delay of any
    /// cross-shard event, and the width of the parallel engine's
    /// windows. Set by the machine layer from the link latencies. Must
    /// be positive when the parallel engine can run.
    pub lookahead: SimTime,
    /// If `true`, a scheduled process failure also activates while the VP
    /// is blocked on communication (an *eager* extension). The paper's
    /// strict semantics (`false`) activate a failure only when the VP's
    /// clock is updated by its own execution (§IV-B).
    pub fail_blocked: bool,
    /// Safety valve: abort the run with
    /// [`SimError::EventBudgetExceeded`] after this many events
    /// (`u64::MAX` = unlimited).
    pub max_events: u64,
    /// Print simulator-internal informational messages (failure/abort
    /// locations and times, shutdown statistics) to stderr, as xSim prints
    /// them to the command line.
    pub verbose: bool,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            n_ranks: 1,
            workers: 1,
            engine: EngineKind::Auto,
            start_time: SimTime::ZERO,
            seed: 0x5eed_cafe_f00d_beef,
            lookahead: SimTime::from_nanos(1),
            fail_blocked: false,
            max_events: u64::MAX,
            verbose: false,
        }
    }
}

impl CoreConfig {
    /// Validate invariants the engines rely on.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.n_ranks == 0 {
            return Err(SimError::Config("n_ranks must be > 0".into()));
        }
        if self.workers == 0 {
            return Err(SimError::Config("workers must be > 0".into()));
        }
        if (self.workers > 1 || self.engine == EngineKind::Parallel)
            && self.lookahead == SimTime::ZERO
        {
            return Err(SimError::Config(
                "parallel engine requires positive lookahead".into(),
            ));
        }
        Ok(())
    }

    /// Whether this configuration selects the parallel engine.
    pub fn use_parallel(&self) -> bool {
        match self.engine {
            EngineKind::Sequential => false,
            EngineKind::Parallel => true,
            EngineKind::Auto => self.workers > 1 && self.n_ranks > 1,
        }
    }

    /// Number of ranks each shard owns (the last shard may own fewer).
    /// Contiguous block partitioning keeps neighbour communication of
    /// typical decompositions shard-local.
    pub fn ranks_per_shard(&self) -> usize {
        self.n_ranks.div_ceil(self.n_shards())
    }

    /// Effective number of shards: `SHARDS_PER_WORKER` (4) per worker,
    /// never more than ranks. The last shards own nothing when the
    /// ranks do not fill them.
    pub fn n_shards(&self) -> usize {
        self.n_ranks.min(self.workers.max(1) * SHARDS_PER_WORKER)
    }

    /// The shard owning `rank`.
    pub fn shard_of(&self, rank: usize) -> usize {
        rank / self.ranks_per_shard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        CoreConfig::default().validate().unwrap();
    }

    #[test]
    fn rejects_bad_configs() {
        let c = CoreConfig {
            n_ranks: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = CoreConfig {
            workers: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let mut c = CoreConfig {
            workers: 4,
            n_ranks: 8,
            ..Default::default()
        };
        c.lookahead = SimTime::ZERO;
        assert!(c.validate().is_err());
        // Forced-parallel with one worker still needs lookahead.
        let mut c = CoreConfig {
            workers: 1,
            n_ranks: 8,
            engine: EngineKind::Parallel,
            ..Default::default()
        };
        c.lookahead = SimTime::ZERO;
        assert!(c.validate().is_err());
    }

    #[test]
    fn engine_kind_selection() {
        let c = CoreConfig {
            n_ranks: 8,
            workers: 4,
            ..Default::default()
        };
        assert!(c.use_parallel());
        let c = CoreConfig {
            workers: 1,
            ..c.clone()
        };
        assert!(!c.use_parallel());
        let c = CoreConfig {
            engine: EngineKind::Parallel,
            ..c.clone()
        };
        assert!(c.use_parallel());
        let c = CoreConfig {
            engine: EngineKind::Sequential,
            workers: 4,
            ..c.clone()
        };
        assert!(!c.use_parallel());
        // Auto never goes parallel for a single rank.
        let c = CoreConfig {
            engine: EngineKind::Auto,
            n_ranks: 1,
            workers: 4,
            ..c.clone()
        };
        assert!(!c.use_parallel());
    }

    #[test]
    fn shard_partitioning_covers_all_ranks() {
        let c = CoreConfig {
            n_ranks: 10,
            workers: 1,
            ..Default::default()
        };
        assert_eq!(c.ranks_per_shard(), 3);
        assert_eq!(c.n_shards(), 4);
        let shards: Vec<usize> = (0..10).map(|r| c.shard_of(r)).collect();
        assert_eq!(shards, vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 3]);
        // Ragged tail: 9 ranks over 2 workers make 8 shards of 2, so
        // rank 8 sits alone on shard 4 and shards 5..8 own nothing.
        let c = CoreConfig {
            n_ranks: 9,
            workers: 2,
            ..Default::default()
        };
        assert_eq!((c.n_shards(), c.ranks_per_shard()), (8, 2));
        let shards: Vec<usize> = (0..9).map(|r| c.shard_of(r)).collect();
        assert_eq!(shards, vec![0, 0, 1, 1, 2, 2, 3, 3, 4]);
    }

    #[test]
    fn oversubscription_creates_more_shards_than_workers() {
        assert_eq!(SHARDS_PER_WORKER, 4);
        let c = CoreConfig {
            n_ranks: 64,
            workers: 4,
            ..Default::default()
        };
        // 4 workers × 4 shards of 4 ranks each.
        assert_eq!(c.n_shards(), 16);
        assert_eq!(c.ranks_per_shard(), 4);
        // Every rank maps to a valid shard, in nondecreasing order.
        let shards: Vec<usize> = (0..64).map(|r| c.shard_of(r)).collect();
        assert!(shards.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*shards.last().unwrap(), 15);
    }

    #[test]
    fn more_workers_than_ranks_collapses() {
        let c = CoreConfig {
            n_ranks: 2,
            workers: 8,
            ..Default::default()
        };
        assert_eq!(c.n_shards(), 2);
        assert_eq!(c.shard_of(0), 0);
        assert_eq!(c.shard_of(1), 1);
    }
}
