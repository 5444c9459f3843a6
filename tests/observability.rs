//! End-to-end observability tests: a traced + metered heat3d run must
//! produce phase and file-I/O spans, a parseable Chrome trace, and
//! nonzero subsystem counters — and a run with neither switch must carry
//! no observability state at all.

use xsim::apps::heat3d::{self, HeatConfig};
use xsim::mpi::PhaseKind;
use xsim::obs::Json;
use xsim::prelude::*;

fn metered_run(cfg: &HeatConfig) -> RunReport {
    SimBuilder::new(cfg.n_ranks())
        .net(NetModel::small(cfg.n_ranks()))
        .proc(ProcModel::default())
        .fs_model(FsModel::typical_pfs())
        .trace(true)
        .metrics(true)
        .run(heat3d::program(cfg.clone()))
        .expect("heat3d run")
}

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
fn heat3d_produces_trace_events_and_metrics() {
    let cfg = HeatConfig::small();
    let report = metered_run(&cfg);
    assert_eq!(report.sim.exit, ExitKind::Completed);

    // Trace: collective phases (the per-checkpoint barrier) and file-io
    // spans (checkpoint writes, recorded by the fs layer).
    let trace = report.trace.as_ref().expect("tracing enabled");
    let count = |k: PhaseKind| trace.events.iter().filter(|e| e.kind == k).count();
    assert!(count(PhaseKind::Collective) > 0, "collectives traced");
    assert!(count(PhaseKind::FileIo) > 0, "file I/O traced");

    // Metrics: engine, network, fs and checkpoint counters are nonzero.
    let obs = report.metrics.as_ref().expect("metrics enabled");
    assert!(obs.set.value(metric_ids::NET_MSGS_EAGER) > 0);
    assert!(obs.set.value(metric_ids::FS_WRITES) > 0);
    assert!(obs.set.value(metric_ids::CKPT_WRITES) > 0);
    assert!(obs.set.value(metric_ids::CKPT_BYTES_WRITTEN) > 0);
    let write_hist = obs.set.hist(metric_ids::FS_WRITE_NS).expect("histogram");
    assert_eq!(write_hist.count, obs.set.value(metric_ids::FS_WRITES));
    // One span per fs operation, none from the checkpoint layer on top.
    assert_eq!(
        count(PhaseKind::FileIo) as u64,
        obs.set.value(metric_ids::FS_WRITES) + obs.set.value(metric_ids::FS_READS),
        "one file-io span per fs operation"
    );
    assert!(report.sim.events_processed > 0);
}

#[test]
fn chrome_trace_is_valid_json_with_expected_fields() {
    let cfg = HeatConfig::small();
    let report = metered_run(&cfg);
    let json = profile_trace(&report, "chrome-trace").expect("trace+metrics enabled");
    let doc = Json::parse(&json).expect("valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let mut phases = 0u32;
    let mut spans = 0u32;
    for e in events {
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
        assert!(e.get("ts").and_then(Json::as_f64).is_some(), "ts present");
        let pid = e.get("pid").and_then(Json::as_u64).expect("pid present");
        assert!(pid < cfg.n_ranks() as u64);
        match e.get("tid").and_then(Json::as_u64) {
            Some(0) => phases += 1,
            Some(1) => spans += 1,
            other => panic!("unexpected tid {other:?}"),
        }
    }
    assert!(phases > 0, "MPI phase lane populated");
    assert!(spans > 0, "subsystem span lane populated");
}

#[test]
fn metrics_snapshot_json_includes_engine_section() {
    let cfg = HeatConfig::small();
    let report = metered_run(&cfg);
    let json = report.metrics_json().expect("metrics enabled");
    let doc = Json::parse(&json).expect("valid JSON");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("xsim-metrics-v1")
    );
    let engine = doc.get("engine").expect("engine section");
    assert!(
        engine
            .get("events_processed")
            .and_then(Json::as_u64)
            .unwrap()
            > 0
    );
    // The event queue's profile is printed here, once: the metrics
    // section carries no copy of any engine number.
    for key in [
        "window_barrier_hwm_ns",
        "pool_reuse_ratio",
        "queue_bucket_hwm",
        "queue_ring_hwm",
        "queue_empty_steps",
        "queue_rebuilds",
    ] {
        assert!(
            engine.get(key).and_then(Json::as_f64).is_some(),
            "engine.{key} present"
        );
    }
    assert!(
        engine
            .get("queue_bucket_hwm")
            .and_then(Json::as_u64)
            .unwrap()
            > 0
    );
    let metrics = doc.get("metrics").expect("metrics section");
    assert!(
        metrics.get("fs.writes").is_some(),
        "per-metric entries present"
    );
    let Json::Obj(metrics) = metrics else {
        panic!("metrics section is an object")
    };
    for name in metrics.keys() {
        assert!(
            !name.starts_with("engine."),
            "{name} copies the engine section"
        );
    }
}

#[test]
fn metrics_disabled_leaves_no_observability_state() {
    let cfg = HeatConfig::small();
    let report = SimBuilder::new(cfg.n_ranks())
        .net(NetModel::small(cfg.n_ranks()))
        .run(heat3d::program(cfg.clone()))
        .expect("heat3d run");
    assert!(report.metrics.is_none());
    assert!(report.metrics_json().is_none());
    assert!(profile_trace(&report, "no-obs").is_none());
}

#[test]
fn metrics_are_engine_independent() {
    let cfg = HeatConfig::small();
    let run = |workers: usize| {
        SimBuilder::new(cfg.n_ranks())
            .net(NetModel::small(cfg.n_ranks()))
            .fs_model(FsModel::typical_pfs())
            .workers(workers)
            .trace(true)
            .metrics(true)
            .run(heat3d::program(cfg.clone()))
            .expect("heat3d run")
    };
    let a = run(1);
    let b = run(3);
    let (ma, mb) = (a.metrics.unwrap(), b.metrics.unwrap());
    let (ta, tb) = (a.trace.unwrap(), b.trace.unwrap());
    for id in 0..xsim::obs::SPEC.len() {
        // Volatile metrics (window counts, steal counts, barrier waits…)
        // describe the execution shape, which legitimately varies with
        // the worker count; everything else must match exactly.
        if xsim::obs::SPEC[id].volatile {
            continue;
        }
        assert_eq!(
            ma.set.value(id),
            mb.set.value(id),
            "metric {} differs across engines",
            xsim::obs::SPEC[id].name
        );
    }
    assert!(
        ta.events.iter().any(|e| e.kind == PhaseKind::FileIo),
        "file-io spans covered"
    );
    assert_eq!(ta.events, tb.events, "spans differ across engines");
}
