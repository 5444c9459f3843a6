//! Route-cache regression tests: the epoch-keyed cache must be
//! semantically invisible when link state changes *both ways* mid-run —
//! a link that dies and later recovers crosses two epoch boundaries, and
//! a stale cache entry in either direction (healthy route served during
//! the outage, or detour served after the repair) would change message
//! timing and break determinism.
//!
//! `tests/engine_diff.rs` and `tests/net_faults.rs` pin the cross-engine
//! surface; this file pins cached-vs-uncached equivalence.

use xsim::prelude::*;
use xsim_net::{LinkFaultKind, LinkStateTable, NetFault};

/// Unit level: warm the cache while the link is healthy, query through
/// the outage, query again after the repair. Every answer must equal
/// the cache-bypassing BFS oracle, and the detour must appear *and
/// disappear* — a cache keyed on anything coarser than the fault epoch
/// would serve the healthy route during the outage or the detour after
/// the repair.
#[test]
fn die_and_recover_invalidates_cached_routes() {
    let topo = Topology::Torus3d { dims: [4, 4, 4] };
    // The endpoints of the faulted link itself: healthy they are 1 hop
    // apart, during the outage the shortest detour is 3 hops.
    let (a, b) = (topo.node_at([1, 0, 0]), topo.node_at([2, 0, 0]));
    let mut tbl = LinkStateTable::new(topo.clone());
    tbl.add(NetFault {
        node: a,
        dir: Some(0), // +x: the a→b link
        kind: LinkFaultKind::Down,
        from: SimTime::from_millis(500),
        until: Some(SimTime::from_secs(1)),
    });
    assert_eq!(tbl.epoch_count(), 3, "healthy / down / repaired");

    let base = topo.hops(a, b);
    assert_eq!(base, 1);
    // Probe each epoch twice (cold then warm) on, before and after each
    // boundary.
    let probes = [
        (SimTime::ZERO, base),
        (SimTime::from_millis(499), base),
        (SimTime::from_millis(500), base + 2), // outage: detour
        (SimTime::from_millis(999), base + 2),
        (SimTime::from_secs(1), base), // repaired: detour gone
        (SimTime::from_secs(2), base),
    ];
    for (t, want_hops) in probes {
        for pass in ["cold", "warm"] {
            let got = tbl.route(a, b, t).expect("torus stays connected");
            assert_eq!(got.hops, want_hops, "{pass} hops at {t:?}");
            assert_eq!(
                Some(got),
                tbl.route_uncached(a, b, t),
                "{pass} route() must match the fresh-BFS oracle at {t:?}"
            );
        }
    }
    // Only the outage epoch consults the cache (fault-free epochs take
    // the closed-form fast path): one miss fills (a, b, outage-epoch),
    // the three remaining outage probes hit it.
    let stats = tbl.route_cache_stats();
    assert_eq!(stats.misses, 1, "{stats:?}");
    assert_eq!(stats.hits, 3, "{stats:?}");
}

/// Full-run level: a neighbor exchange that crosses the faulted link
/// before, during and after the outage lands on exactly the simulated
/// times and event count that every message re-running the BFS produced
/// (the values pinned below were recorded on that uncached path).
#[test]
fn cached_and_uncached_runs_are_byte_identical() {
    let report = {
        let mut net = NetModel::paper_machine();
        net.topology = Topology::Torus3d { dims: [4, 4, 4] };
        let faults = vec![
            // Dies at 500 ms, recovers at 1 s.
            NetFault {
                node: net.topology.node_at([1, 0, 0]),
                dir: Some(0),
                kind: LinkFaultKind::Down,
                from: SimTime::from_millis(500),
                until: Some(SimTime::from_secs(1)),
            },
            // A second transition pair from a degraded link, so the run
            // spans several distinct epochs.
            NetFault {
                node: net.topology.node_at([2, 2, 0]),
                dir: Some(2),
                kind: LinkFaultKind::Degraded(0.25),
                from: SimTime::from_millis(700),
                until: Some(SimTime::from_millis(1500)),
            },
        ];
        SimBuilder::new(64)
            .net(net)
            .net_faults(faults)
            .metrics(true)
            .run_app(|mpi| async move {
                let w = mpi.world();
                let dst = (mpi.rank + 1) % mpi.size;
                let src = (mpi.rank + mpi.size - 1) % mpi.size;
                // One exchange in each fault epoch: healthy, dead,
                // degraded, repaired.
                for (round, pause_ms) in [(0u32, 600u64), (1, 300), (2, 700), (3, 0)] {
                    let got = mpi
                        .sendrecv(
                            w,
                            dst,
                            round,
                            Bytes::from(vec![round as u8; 2048]),
                            Some(src),
                            Some(round),
                        )
                        .await?;
                    assert_eq!(got.data.len(), 2048);
                    if pause_ms > 0 {
                        mpi.sleep(SimTime::from_millis(pause_ms)).await;
                    }
                }
                mpi.finalize();
                Ok(())
            })
            .expect("route-cache run")
    };

    assert_eq!(report.sim.exit, ExitKind::Completed);
    assert_eq!(report.sim.events_processed, 1024, "event schedule moved");
    assert_eq!(
        report.sim.digest, 0x94a9_8523_81e2_0ffe,
        "event schedule moved"
    );
    // The outage delays the ranks whose exchange crossed the detour.
    let extra_us = |r: usize| match r {
        3 => 3,
        4 => 2,
        r if r % 16 < 4 => 1,
        _ => 0,
    };
    let want: Vec<SimTime> = (0..64)
        .map(|r| SimTime(1_600_013_256 + 1_000 * extra_us(r)))
        .collect();
    assert_eq!(report.sim.final_clocks, want, "simulated time moved");
    let metrics = &report.metrics.expect("metrics enabled").set;
    assert_eq!(metrics.value(metric_ids::NET_REROUTED_HOPS), 4);
}
