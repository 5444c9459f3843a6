//! The event budget (`SimBuilder::max_events`) on a replicated heat run,
//! sequential and parallel: a budget below the run's event count ends
//! it with `SimError::EventBudgetExceeded` — no panic, no hang — and a
//! budget at or above the count changes nothing, down to the run digest.
//!
//! Every run goes through a helper thread and `recv_timeout`, so a hang
//! fails the test instead of stalling the suite.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;
use xsim::apps::heat3d::{ComputeMode, HeatConfig};
use xsim::apps::heat3d_rep::{self, RepHeatConfig};
use xsim::prelude::*;

fn small_rep() -> RepHeatConfig {
    RepHeatConfig {
        heat: HeatConfig {
            mode: ComputeMode::Modeled,
            ..HeatConfig::small()
        },
        scheme: ProtectionScheme::Replication { degree: 2 },
        hb: HeartbeatConfig::default(),
        ckpt: false,
    }
}

/// Run the replicated heat program under `budget` (none: unbounded) on
/// a helper thread; a run that takes a minute is a hang.
fn run(engine: EngineKind, budget: Option<u64>) -> Result<RunReport, SimError> {
    let cfg = small_rep();
    let mut builder = SimBuilder::new(cfg.physical_size())
        .net(NetModel::small(cfg.physical_size()))
        .detector(cfg.hb.detector())
        .engine(engine)
        .workers(if engine == EngineKind::Parallel { 2 } else { 1 });
    if let Some(n) = budget {
        builder = builder.max_events(n);
    }
    let (tx, rx) = mpsc::channel();
    let helper = thread::spawn(move || {
        let _ = tx.send(builder.run(heat3d_rep::program(cfg)));
    });
    let out = rx
        .recv_timeout(Duration::from_secs(60))
        .unwrap_or_else(|e| panic!("{engine:?} run under budget {budget:?}: {e}"));
    helper.join().expect("helper thread");
    out
}

#[test]
fn event_budget_stops_a_replicated_run_or_leaves_it_alone() {
    for engine in [EngineKind::Sequential, EngineKind::Parallel] {
        let free = run(engine, None).expect("unbudgeted run");
        assert_eq!(free.sim.exit, ExitKind::Completed);
        let events = free.sim.events_processed;

        for budget in [1, events / 2, events - 1] {
            match run(engine, Some(budget)) {
                Err(SimError::EventBudgetExceeded { processed }) => assert!(
                    processed > budget && processed <= events,
                    "{engine:?}, budget {budget}: {processed} of {events} events"
                ),
                other => panic!("{engine:?}, budget {budget} of {events}: {other:?}"),
            }
        }
        for budget in [events, events + 1_000] {
            let report = run(engine, Some(budget))
                .unwrap_or_else(|e| panic!("{engine:?}, budget {budget} of {events}: {e}"));
            assert_eq!(report.sim.exit, ExitKind::Completed);
            assert_eq!(report.sim.events_processed, events, "{engine:?}");
            assert_eq!(
                report.sim.digest, free.sim.digest,
                "{engine:?}, budget {budget}"
            );
        }
    }
}
