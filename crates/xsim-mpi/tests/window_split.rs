//! How a two-worker parallel run splits each window's events: a tree
//! allreduce's up-sweep and down-sweep must both spread over the
//! workers, not land on one worker per sweep.

use xsim_apps::kernels;
use xsim_core::{EngineKind, SimTime};
use xsim_mpi::{CollAlgo, SimBuilder};
use xsim_net::{NetModel, Topology};

/// `compute_allreduce(1, 64, 1 ms)` with tree collectives on 4,096 ranks
/// of the paper machine at 2 workers. `window_balance` is deterministic
/// for a fixed worker count: 0.9164 (17,875 critical of 32,762 events)
/// with interleaved shards, 0.8653 (18,932 critical) when each worker
/// owned a contiguous block of shards.
#[test]
fn tree_allreduce_windows_keep_both_workers_busy() {
    const RANKS: usize = 4096;
    let mut net = NetModel::paper_machine();
    net.topology = Topology::Torus3d { dims: [16, 16, 16] };
    let run = || {
        SimBuilder::new(RANKS)
            .net(net.clone())
            .workers(2)
            .engine(EngineKind::Parallel)
            .collectives(CollAlgo::Tree)
            .run(kernels::compute_allreduce(1, 64, SimTime::from_millis(1)))
            .expect("allreduce run")
            .sim
    };
    let sim = run();
    let profile = &sim.profile;
    assert_eq!(profile.worker_busy_ns.len(), 2, "two workers ran");
    assert!(profile.window_critical_events <= sim.events_processed);
    assert!(2 * profile.window_critical_events >= sim.events_processed);
    let balance = sim.window_balance();
    eprintln!(
        "window_balance {balance:.4}: {} events, {} critical",
        sim.events_processed, profile.window_critical_events
    );
    assert_eq!(
        run().profile.window_critical_events,
        profile.window_critical_events,
        "the split repeats"
    );
    assert!(balance >= 0.91, "window_balance {balance:.4}, want >= 0.91");
}
