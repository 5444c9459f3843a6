//! Execution-trace integration tests.

use std::collections::HashSet;
use xsim::apps::heat3d::{self, HeatConfig};
use xsim::mpi::{PhaseKind, Trace};
use xsim::obs::Json;
use xsim::prelude::*;

/// The Chrome trace `RunReport::write_profile` streams to disk, read
/// back (the temp files are removed); `None` when the run wrote none.
fn profile_trace(report: &RunReport, name: &str) -> Option<String> {
    let dir = std::env::temp_dir();
    let stem = dir.join(format!("xsim-{name}-{}", std::process::id()));
    let stem = stem.to_str().expect("UTF-8 temp path");
    let path = format!("{stem}.json");
    report.write_profile(&path).expect("write the profile");
    let trace = std::fs::read_to_string(&path).ok();
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(format!("{stem}.metrics.json"));
    trace
}

#[test]
fn trace_captures_phase_timeline() {
    let report = SimBuilder::new(2)
        .net(NetModel::small(2))
        .trace(true)
        .run_app(|mpi| async move {
            let w = mpi.world();
            mpi.compute(Work::native_time(SimTime::from_millis(10)))
                .await;
            if mpi.rank == 0 {
                mpi.send(w, 1, 0, Bytes::from(vec![0u8; 256])).await?;
            } else {
                mpi.recv(w, Some(0), Some(0)).await?;
            }
            mpi.barrier(w).await?;
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    let trace = report.trace.expect("tracing enabled");

    // Every rank has a compute phase of exactly 10 ms starting at 0.
    for r in 0..2u32 {
        let first = trace.for_rank(Rank(r)).next().expect("events exist");
        assert_eq!(first.kind, PhaseKind::Compute);
        assert_eq!(first.start, SimTime::ZERO);
        assert_eq!(first.duration(), SimTime::from_millis(10));
    }
    // Rank 0 sent 256 bytes to rank 1.
    let send = trace
        .for_rank(Rank(0))
        .find(|e| e.kind == PhaseKind::Send)
        .expect("send traced");
    assert_eq!(send.peer, Some(Rank(1)));
    assert_eq!(send.bytes, 256);
    assert!(send.start >= SimTime::from_millis(10));
    // Rank 1's recv knows its source.
    let recv = trace
        .for_rank(Rank(1))
        .find(|e| e.kind == PhaseKind::Recv)
        .expect("recv traced");
    assert_eq!(recv.peer, Some(Rank(0)));
    assert_eq!(recv.bytes, 256);
    // Both ranks traced the barrier.
    assert_eq!(
        trace
            .events
            .iter()
            .filter(|e| e.kind == PhaseKind::Collective)
            .count(),
        2
    );
    // Intervals are well-formed.
    for e in &trace.events {
        assert!(e.end >= e.start, "negative interval {e:?}");
    }
}

#[test]
fn trace_totals_reflect_compute_share() {
    let report = SimBuilder::new(4)
        .net(NetModel::small(4))
        .trace(true)
        .run_app(|mpi| async move {
            for _ in 0..5 {
                mpi.compute(Work::native_time(SimTime::from_millis(20)))
                    .await;
                mpi.allreduce_f64(mpi.world(), &[1.0], ReduceOp::Sum)
                    .await?;
            }
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    let trace = report.trace.unwrap();
    let frac = trace.compute_fraction();
    assert!(
        frac > 0.9,
        "compute-bound run should be >90% compute, got {frac}"
    );
    let totals = trace.totals();
    let compute = totals
        .iter()
        .find(|(k, _)| *k == PhaseKind::Compute)
        .unwrap()
        .1;
    // 4 ranks × 5 phases × 20 ms.
    assert_eq!(compute, SimTime::from_millis(400));
}

#[test]
fn tracing_disabled_by_default_and_costless() {
    let report = SimBuilder::new(2)
        .net(NetModel::small(2))
        .run_app(|mpi| async move {
            mpi.compute(Work::native_time(SimTime::from_millis(1)))
                .await;
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert!(report.trace.is_none());
}

#[test]
fn trace_is_deterministic_and_engine_independent() {
    let run = |workers: usize| {
        SimBuilder::new(6)
            .net(NetModel::small(6))
            .workers(workers)
            .trace(true)
            .run_app(|mpi| async move {
                mpi.compute(Work::native_time(SimTime::from_micros(
                    (mpi.rank as u64 + 1) * 100,
                )))
                .await;
                mpi.barrier(mpi.world()).await?;
                mpi.finalize();
                Ok(())
            })
            .unwrap()
    };
    let a = run(1);
    let b = run(3).trace.unwrap();
    let json = profile_trace(&a, "trace-engines").expect("tracing enabled");
    let a = a.trace.unwrap();
    assert_eq!(a.events, b.events, "trace must not depend on the engine");
    // The Chrome trace holds one event per span.
    let doc = Json::parse(&json).expect("valid JSON");
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    assert_eq!(events.len(), a.events.len());
}

#[test]
fn empty_run_yields_empty_trace() {
    let report = SimBuilder::new(1)
        .net(NetModel::small(1))
        .trace(true)
        .run_app(|mpi| async move {
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    let t: Trace = report.trace.unwrap();
    assert!(t.events.is_empty());
    assert_eq!(t.compute_fraction(), 0.0);
}

/// `.trace(true)` alone records the file I/O of a checkpointing heat3d:
/// the timeline needs no `.metrics(true)`, and each fs interval appears
/// once.
#[test]
fn trace_only_run_records_file_io_once() {
    let cfg = HeatConfig::small();
    let report = SimBuilder::new(cfg.n_ranks())
        .net(NetModel::small(cfg.n_ranks()))
        .fs_model(FsModel::typical_pfs())
        .trace(true)
        .run(heat3d::program(cfg.clone()))
        .expect("heat3d run");
    assert_eq!(report.sim.exit, ExitKind::Completed);
    assert!(
        report.metrics.is_none(),
        "tracing keeps no metrics registry"
    );
    let trace = report.trace.expect("tracing enabled");
    let io: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.kind == PhaseKind::FileIo)
        .collect();
    assert!(!io.is_empty(), "file I/O traced without metrics");
    let io_time = trace
        .totals()
        .into_iter()
        .find(|(k, _)| *k == PhaseKind::FileIo)
        .unwrap()
        .1;
    assert!(io_time > SimTime::ZERO, "file I/O takes virtual time");
    let distinct: HashSet<_> = io.iter().map(|e| (e.rank, e.start, e.end)).collect();
    assert_eq!(distinct.len(), io.len(), "an fs interval appears twice");
}
