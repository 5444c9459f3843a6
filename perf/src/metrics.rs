//! The metric catalogue: what `BENCHMARK.json` declares, in one place.
//!
//! `moves` records, for every per-layer metric, which end-to-end metric
//! it should move and on which workload — written down before anything
//! is measured, so a later optimisation can be judged against it.

/// How a per-layer value is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A count made by the program; repeats exactly on the sequential
    /// engine.
    Count,
    /// A count that depends on thread scheduling (parallel engine).
    Volatile,
    /// Host time of a harness-side driver calling the layer's public
    /// functions with the workload's own parameters.
    Driver,
    /// Derived: a ratio of counts, count × driver cost ÷ wall, or a
    /// difference of two walls.
    Computed,
}

/// One end-to-end metric. All are "lower is better".
pub struct EndToEnd {
    /// Name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, reported per workload with `--trace 0`.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        bound: 0.25,
    },
];

/// One per-layer metric.
pub struct PerLayer {
    /// Name in `BENCHMARK.json` (`<layer>.<what>`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether a higher value is better.
    pub higher: bool,
    /// How the value is obtained.
    pub kind: Kind,
    /// The end-to-end metric and workload this should move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    higher: bool,
    kind: Kind,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher,
        kind,
        moves,
    }
}

use Kind::{Computed as X, Count as C, Driver as D, Volatile as V};

const CORE: &str = "wall_s on rawcore_1m (most), allreduce_64k (some), storm_faulted (none)";
const ENGINE: &str = "wall_s on allreduce_64k_par2 only";
const MPI: &str = "wall_s on allreduce_64k, table2_heat3d; none on rawcore_1m";
const REP: &str = "wall_s on protection_mix";
const NET: &str = "wall_s on storm_faulted; ~0 on every healthy-topology workload";
const FS: &str = "wall_s on ckpt_modes_real, protection_mix; 0 on free-FS table2_heat3d";
const CKPT: &str = "wall_s on ckpt_modes_real, protection_mix, table2_heat3d";
const FAULT: &str = "setup_s and wall_s on protection_mix";
const OBS: &str = "none untraced; the cost of the traced pass";

/// The per-layer metrics, reported per workload with `--trace 1`
/// (0 where a layer does no work on a workload).
pub const PER_LAYER: [PerLayer; 74] = [
    // core
    m("core.events", "count", false, C, CORE),
    m("core.context_switches", "count", false, C, CORE),
    m("core.events_per_s", "1/s", true, X, CORE),
    m("core.host_ns_per_event", "ns", false, X, CORE),
    m("core.queue.hold_ns_per_op", "ns", false, D, CORE),
    m("core.queue.share", "share", false, X, CORE),
    m("core.queue.bucket_hwm", "count", false, C, CORE),
    m("core.pool.reuse_ratio", "ratio", true, X, CORE),
    m(
        "core.spawn_ns_per_vp",
        "ns",
        false,
        D,
        "setup_s everywhere, wall_s on protection_mix",
    ),
    m(
        "core.bytes_per_vp",
        "B",
        false,
        X,
        "peak_rss_mib on rawcore_1m",
    ),
    m("core.engine.windows", "count", false, C, ENGINE),
    m("core.engine.steals", "count", false, V, ENGINE),
    m("core.engine.batched_events", "count", false, C, ENGINE),
    m("core.engine.ingest_skips", "count", true, C, ENGINE),
    m("core.engine.barrier_wait_s", "s", false, X, ENGINE),
    m("core.engine.cpu_s", "s", false, X, ENGINE),
    m("core.engine.par_efficiency", "ratio", true, X, ENGINE),
    // mpi
    m("mpi.sends", "count", false, C, MPI),
    m("mpi.recvs", "count", false, C, MPI),
    m("mpi.bytes_sent", "B", false, C, MPI),
    m("mpi.collectives", "count", false, C, MPI),
    m("mpi.proc_failed_errors", "count", false, C, REP),
    m("mpi.unexpected_hwm", "count", false, C, MPI),
    m("mpi.host_us_per_msg", "us", false, X, MPI),
    m("mpi.p2p_ns_per_msg", "ns", false, D, MPI),
    m("mpi.share", "share", false, X, MPI),
    m("mpi.payload_clones", "count", false, C, MPI),
    m("mpi.payload_copy_bytes", "B", false, C, MPI),
    m("mpi.payload_ns_per_clone", "ns", false, D, MPI),
    m(
        "mpi.bytes_per_rank",
        "B",
        false,
        X,
        "peak_rss_mib on allreduce_64k",
    ),
    m("mpi.rep.copies", "count", false, C, REP),
    m("mpi.rep.failovers", "count", false, C, REP),
    m("mpi.rep.heartbeats", "count", false, C, REP),
    m("mpi.rep.detections", "count", false, C, REP),
    // net
    m("net.msgs_eager", "count", false, C, NET),
    m("net.msgs_rendezvous", "count", false, C, NET),
    m("net.route_cache_hits", "count", true, C, NET),
    m("net.route_cache_misses", "count", false, C, NET),
    m("net.route_hit_ratio", "ratio", true, X, NET),
    m("net.rerouted_hops", "count", false, C, NET),
    m("net.route_hit_ns", "ns", false, D, NET),
    m("net.route_miss_us", "us", false, D, NET),
    m("net.p2p_healthy_ns", "ns", false, D, NET),
    m("net.route_share", "share", false, X, NET),
    m("net.model_build_ms", "ms", false, D, "setup_s everywhere"),
    // fs
    m("fs.writes", "count", false, C, FS),
    m("fs.reads", "count", false, C, FS),
    m("fs.write_bytes", "B", false, C, FS),
    m("fs.read_bytes", "B", false, C, FS),
    m("fs.stripe.requests", "count", false, C, FS),
    m("fs.stripe.queue_s", "s", false, C, FS),
    m("fs.store_put_ns_per_kib", "ns", false, D, FS),
    m("fs.store_get_ns", "ns", false, D, FS),
    m("fs.pfs_split_ns", "ns", false, D, FS),
    // ckpt
    m("ckpt.writes", "count", false, C, CKPT),
    m("ckpt.bytes_written", "B", false, C, CKPT),
    m("ckpt.loads", "count", false, C, CKPT),
    m("ckpt.deletes", "count", false, C, CKPT),
    m("ckpt.diff_blocks", "count", false, C, CKPT),
    m("ckpt.agg_forward_bytes", "B", false, C, CKPT),
    m("ckpt.buddy_copies", "count", false, C, CKPT),
    m("ckpt.restarts", "count", false, C, CKPT),
    m("ckpt.encode_ns_per_kib", "ns", false, D, CKPT),
    m("ckpt.decode_ns_per_kib", "ns", false, D, CKPT),
    m("ckpt.diff_ns_per_kib", "ns", false, D, CKPT),
    m("ckpt.orchestrate_s", "s", false, X, CKPT),
    // fault
    m("fault.activations", "count", false, C, FAULT),
    m("fault.schedule_entries", "count", false, C, FAULT),
    m("fault.schedule_gen_ms", "ms", false, D, FAULT),
    // obs
    m("obs.overhead_frac", "share", false, X, OBS),
    m("obs.metric_add_ns", "ns", false, D, OBS),
    m("obs.snapshot_ms", "ms", false, D, OBS),
    // apps
    m(
        "apps.stencil_ns_per_point",
        "ns",
        false,
        X,
        "wall_s on ckpt_modes_real only",
    ),
    // accuracy of the simulated result against the paper (sim, not host)
    m(
        "sim.paper_e1_err_pct",
        "%",
        false,
        X,
        "none: a change that moves it changed the model, not the simulator's speed",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|e| e.name)
            .chain(PER_LAYER.iter().map(|p| p.name));
        for name in names {
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    /// `BENCHMARK.json` is written by hand; this keeps it and the
    /// harness from drifting apart.
    #[test]
    fn benchmark_json_declares_exactly_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = xsim_obs::Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let field = |j: &xsim_obs::Json, k: &str| j.get(k).unwrap().as_str().unwrap().to_string();

        let e2e = doc.get("end_to_end").unwrap().as_arr().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, e) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(j, "name"), e.name);
            assert_eq!(field(j, "unit"), e.unit);
            assert_eq!(field(j, "better"), "lower");
            assert_eq!(j.get("bound").unwrap().as_f64(), Some(e.bound));
        }
        let layers = doc.get("per_layer").unwrap().as_arr().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, p) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(j, "name"), p.name);
            assert_eq!(field(j, "unit"), p.unit);
            assert_eq!(
                field(j, "better"),
                if p.higher { "higher" } else { "lower" }
            );
        }
        let workloads: Vec<String> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }
}
