//! The reference sequential engine: global-key-order event processing.

use super::{assemble_report, SetupFn};
use crate::config::CoreConfig;
use crate::ctx;
use crate::error::SimError;
use crate::kernel::Kernel;
use crate::report::{EngineProfile, SimReport};
use crate::vp::VpProgram;
use std::sync::Arc;

/// Run the simulation on the calling thread, processing events in global
/// `(time, dst, src, seq)` order.
pub fn run_sequential(
    cfg: CoreConfig,
    program: Arc<dyn VpProgram>,
    setup: SetupFn<'_>,
) -> Result<SimReport, SimError> {
    cfg.validate()?;
    let start = std::time::Instant::now();
    let cfg = Arc::new(cfg);
    let mut kernel = Kernel::new(0, cfg.clone(), 0..cfg.n_ranks, program);
    kernel.schedule_spawns();
    setup(&mut kernel);

    let lent = ctx::lend(kernel);
    lent.drain(|k| {
        if k.events_processed > cfg.max_events {
            return None;
        }
        k.queue.pop()
    });
    let kernel = lent.take();
    if kernel.events_processed > cfg.max_events {
        return Err(SimError::EventBudgetExceeded {
            processed: kernel.events_processed,
        });
    }
    debug_assert!(
        kernel.outbox.iter().all(|lane| lane.is_empty()),
        "sequential engine owns all ranks"
    );

    assemble_report(
        &cfg,
        vec![kernel],
        EngineProfile::default(),
        start.elapsed(),
    )
}
