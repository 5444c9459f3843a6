//! The traced pass: per-layer numbers for one workload.
//!
//! Counts come from the simulator's own reports (summed over the
//! body's runs, see `workloads::Outcome::counters`). Times come from
//! the **drivers** below, which call each layer's public functions with
//! the workload's own parameters and time them from the outside; shares
//! are computed as count × driver cost ÷ wall. Every driver runs under
//! a `drivers › <layer>.<op>` span.

use crate::host;
use crate::tracer::Tracer;
use crate::workloads::{raw_core_run, LayerProfile, Outcome};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use xsim_apps::kernels;
use xsim_ckpt::{block_diff, Checkpoint, DIFF_BLOCK};
use xsim_core::event::{Action, EventKey, EventRec};
use xsim_core::{EventQueue, Rank, SimTime};
use xsim_fs::FsStore;
use xsim_mpi::SimBuilder;
use xsim_net::{LinkStateTable, NetModel};
use xsim_obs::{ids, MetricSet};

/// Per-layer values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Smallest rank count the footprint probes use: below it the RSS delta
/// drowns in page granularity.
const FOOTPRINT_MIN_RANKS: usize = 1 << 16;

/// Host-memory footprint per VP and per MPI rank, from `VmHWM` deltas.
/// Must run before anything else allocates: the high-water mark only
/// ever rises.
pub struct Footprint {
    /// Bytes per VP of the bare core (ring of wakes, every VP parked).
    pub bytes_per_vp: f64,
    /// Extra bytes per rank of a no-op run under `SimBuilder`.
    pub mpi_bytes_per_rank: f64,
    /// Host ns per raw-core event, from the same probe run.
    pub raw_ns_per_event: f64,
}

/// Measure the [`Footprint`] at the workload's rank count.
pub fn footprint(ranks: usize, mpi: bool, tr: &mut Tracer) -> Footprint {
    let n = ranks.max(FOOTPRINT_MIN_RANKS);
    let span = tr.enter("core.footprint");
    let h0 = host::peak_rss_kib();
    let sim = raw_core_run(n, 1, 1);
    let h1 = host::peak_rss_kib();
    tr.exit(span);
    let raw_ns_per_event = sim.wall.as_nanos() as f64 / sim.events_processed as f64;
    let mut mpi_bytes_per_rank = 0.0;
    if mpi {
        let span = tr.enter("mpi.footprint");
        SimBuilder::new(n)
            .net(NetModel::small(n))
            .run(kernels::noop(SimTime::from_millis(1)))
            .expect("footprint no-op");
        let h2 = host::peak_rss_kib();
        tr.exit(span);
        mpi_bytes_per_rank = h2.saturating_sub(h1) as f64 * 1024.0 / n as f64;
    }
    Footprint {
        bytes_per_vp: h1.saturating_sub(h0) as f64 * 1024.0 / n as f64,
        mpi_bytes_per_rank,
        raw_ns_per_event,
    }
}

/// What the traced pass measured around the body.
pub struct BodyTimes {
    /// Wall of one untraced body (same process, for the overhead ratio).
    pub untraced_s: f64,
    /// Wall of the traced body.
    pub traced_s: f64,
    /// User + system CPU of the traced body.
    pub cpu_s: f64,
}

/// Time `f` under a driver span and return `(result, seconds)`.
fn timed<T>(tr: &mut Tracer, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let span = tr.enter(name);
    let t = Instant::now();
    let out = f();
    let secs = t.elapsed().as_secs_f64();
    tr.exit(span);
    (out, secs)
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Steady-state hold-model cost of the event queue (pop the minimum,
/// push a successor a pseudorandom distance ahead) at `pending`
/// resident events. One untimed conditioning pass that turns the whole
/// population over comes first: the calendar queue re-fits its geometry
/// during the first churn epoch, a one-time cost a real run amortizes to
/// nothing.
fn queue_hold_ns_per_op(pending: usize, ops: usize) -> f64 {
    fn push_at(q: &mut EventQueue, rng: &mut u64, seq: &mut u64, time: u64) {
        let r = xorshift(rng);
        *seq += 1;
        q.push(EventRec {
            key: EventKey {
                time: SimTime(time),
                dst: Rank((r >> 8) as u32 & 0x3f),
                src: Rank((r >> 16) as u32 & 0x3f),
                seq: *seq,
            },
            action: Action::Spawn,
        });
    }
    let mut queue = EventQueue::new();
    let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
    let mut seq = 0u64;
    for _ in 0..pending {
        let t = xorshift(&mut rng) % 1_000_000;
        push_at(&mut queue, &mut rng, &mut seq, t);
    }
    let mut churn = |queue: &mut EventQueue, ops: usize| {
        for _ in 0..ops {
            let ev = queue.pop().expect("hold-model queue never empties");
            let delta = 1 + xorshift(&mut rng) % 10_000;
            push_at(queue, &mut rng, &mut seq, ev.key.time.as_nanos() + delta);
        }
    };
    churn(&mut queue, ops.max(pending));
    let t = Instant::now();
    churn(&mut queue, ops);
    t.elapsed().as_nanos() as f64 / ops as f64
}

/// A payload handle of `len` bytes, of whatever type the program uses
/// for payloads (obtained through the store so the harness does not
/// name the payload crate).
fn payload(len: usize) -> impl Clone {
    let store = FsStore::new();
    store.put("p", vec![0u8; len].into());
    store.get("p").expect("just written").bytes().clone()
}

/// Run the layer drivers for `profile` and assemble every per-layer
/// value from them, the traced body's counters and the body walls.
pub fn measure(
    profile: &LayerProfile,
    seed: u64,
    outcome: &Outcome,
    times: &BodyTimes,
    foot: &Footprint,
    tr: &mut Tracer,
) -> Values {
    let mut v = Values::new();
    let count = |name: &str| outcome.counters.get(name).copied().unwrap_or(0) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let wall = times.untraced_s;
    for (name, value) in &outcome.counters {
        v.insert(name, *value as f64);
    }

    // ---- core --------------------------------------------------------
    let events = count("core.events");
    v.insert("core.events_per_s", ratio(events, wall));
    v.insert("core.host_ns_per_event", ratio(wall * 1e9, events));
    let (hold_ns, _) = timed(tr, "core.queue.hold", || {
        queue_hold_ns_per_op(profile.ranks, 200_000)
    });
    v.insert("core.queue.hold_ns_per_op", hold_ns);
    v.insert("core.queue.share", ratio(events * hold_ns * 1e-9, wall));
    v.insert(
        "core.pool.reuse_ratio",
        ratio(count("core.pool.reused"), count("core.pool.pushes")),
    );
    let (_, spawn_s) = timed(tr, "core.spawn", || raw_core_run(profile.ranks, 0, seed));
    v.insert("core.spawn_ns_per_vp", spawn_s * 1e9 / profile.ranks as f64);
    v.insert("core.bytes_per_vp", foot.bytes_per_vp);
    v.insert(
        "core.engine.barrier_wait_s",
        outcome.barrier_wait.as_secs_f64(),
    );
    v.insert("core.engine.cpu_s", times.cpu_s);

    // ---- mpi ---------------------------------------------------------
    let sends = count("mpi.sends");
    v.insert("mpi.host_us_per_msg", ratio(wall * 1e6, sends));
    v.insert("mpi.bytes_per_rank", foot.mpi_bytes_per_rank);
    if profile.mpi {
        const ROUNDS: u32 = 20_000;
        let (report, secs) = timed(tr, "mpi.p2p", || {
            SimBuilder::new(2)
                .net(NetModel::small(2))
                .run(kernels::pingpong(ROUNDS, profile.payload))
                .expect("ping-pong driver")
        });
        // What the MPI layer adds on top of the core events it rides on.
        let core_s = report.sim.events_processed as f64 * foot.raw_ns_per_event * 1e-9;
        let p2p_ns = (secs - core_s).max(0.0) * 1e9 / (2.0 * ROUNDS as f64);
        v.insert("mpi.p2p_ns_per_msg", p2p_ns);
        v.insert("mpi.share", ratio(sends * p2p_ns * 1e-9, wall));

        const CLONES: usize = 1_000_000;
        let handle = payload(profile.payload);
        let (_, secs) = timed(tr, "mpi.payload_clone", || {
            for _ in 0..CLONES {
                black_box(black_box(&handle).clone());
            }
        });
        v.insert("mpi.payload_ns_per_clone", secs * 1e9 / CLONES as f64);
    }

    // ---- net ---------------------------------------------------------
    let (hits, misses) = (
        count("net.route_cache_hits"),
        count("net.route_cache_misses"),
    );
    v.insert("net.route_hit_ratio", ratio(hits, hits + misses));
    let build = |faulted: bool| {
        let mut net = profile.net.clone();
        if faulted && !profile.faults.is_empty() {
            let mut table = LinkStateTable::new(net.topology.clone());
            for f in &profile.faults {
                table.add(*f);
            }
            net = net.with_faults(table);
        }
        net.precompute_hops();
        net
    };
    let (net, build_s) = timed(tr, "net.model_build", || build(true));
    v.insert("net.model_build_ms", build_s * 1e3);
    if profile.mpi {
        const LOOKUPS: usize = 200_000;
        let healthy = build(false);
        let n = profile.ranks;
        let (_, secs) = timed(tr, "net.p2p_healthy", || {
            let mut rng = seed | 1;
            for _ in 0..LOOKUPS {
                let (a, b) = (
                    xorshift(&mut rng) as usize % n,
                    xorshift(&mut rng) as usize % n,
                );
                black_box(healthy.p2p_at(
                    Rank::new(a),
                    Rank::new(b),
                    profile.payload,
                    SimTime::ZERO,
                ));
            }
        });
        v.insert("net.p2p_healthy_ns", secs * 1e9 / LOOKUPS as f64);
    }
    if let Some(table) = &net.faults {
        // Cold BFS per pair, then the same pairs again from the cache.
        // An odd step, so the sample does not lock onto one stride of a
        // pair set that interleaves several.
        let step = profile.pairs.len().div_ceil(256) | 1;
        let pairs: Vec<(usize, usize)> = profile.pairs.iter().step_by(step).copied().collect();
        let at = SimTime::from_micros(1);
        let (_, secs) = timed(tr, "net.route_miss", || {
            for &(a, b) in &pairs {
                black_box(table.route(net.node_of(Rank::new(a)), net.node_of(Rank::new(b)), at));
            }
        });
        let miss_us = secs * 1e6 / pairs.len() as f64;
        const PASSES: usize = 200;
        let (_, secs) = timed(tr, "net.route_hit", || {
            for _ in 0..PASSES {
                for &(a, b) in &pairs {
                    black_box(table.route(
                        net.node_of(Rank::new(a)),
                        net.node_of(Rank::new(b)),
                        at,
                    ));
                }
            }
        });
        let hit_ns = secs * 1e9 / (PASSES * pairs.len()) as f64;
        v.insert("net.route_miss_us", miss_us);
        v.insert("net.route_hit_ns", hit_ns);
        v.insert(
            "net.route_share",
            ratio(misses * miss_us * 1e-6 + hits * hit_ns * 1e-9, wall),
        );
    }

    // ---- fs / ckpt ---------------------------------------------------
    v.insert("fs.stripe.queue_s", count("fs.stripe.queue_ns") * 1e-9);
    v.insert(
        "ckpt.orchestrate_s",
        (times.traced_s - outcome.sim_wall.as_secs_f64()).max(0.0),
    );
    if profile.ckpt_bytes > 0 {
        let kib = profile.ckpt_bytes as f64 / 1024.0;
        let reps = (64 * 1024 * 1024 / profile.ckpt_bytes).clamp(64, 20_000);
        let store = FsStore::new();
        let names: Vec<String> = (0..reps).map(|i| format!("drv/{i:06}")).collect();
        // A fresh buffer per file, as a checkpoint write produces.
        let (_, secs) = timed(tr, "fs.store_put", || {
            for name in &names {
                store.put(name, vec![1u8; profile.ckpt_bytes].into());
            }
        });
        v.insert("fs.store_put_ns_per_kib", secs * 1e9 / reps as f64 / kib);
        let (_, secs) = timed(tr, "fs.store_get", || {
            for name in &names {
                black_box(store.get(name));
            }
        });
        v.insert("fs.store_get_ns", secs * 1e9 / reps as f64);
        if let Some(pfs) = profile.fs.pfs {
            const SPLITS: u32 = 200_000;
            let (_, secs) = timed(tr, "fs.pfs_split", || {
                for hash in 0..SPLITS {
                    black_box(pfs.split(hash, profile.ckpt_bytes as u64));
                }
            });
            v.insert("fs.pfs_split_ns", secs * 1e9 / SPLITS as f64);
        }

        let mut grid = vec![0u8; profile.ckpt_bytes];
        let mut rng = seed | 1;
        for b in grid.iter_mut() {
            *b = xorshift(&mut rng) as u8;
        }
        let ckpt = Checkpoint::new(0, 1).with_section("grid", grid.clone().into());
        let (encoded, secs) = timed(tr, "ckpt.encode", || {
            let mut last = ckpt.encode();
            for _ in 1..reps {
                last = black_box(&ckpt).encode();
            }
            last
        });
        v.insert("ckpt.encode_ns_per_kib", secs * 1e9 / reps as f64 / kib);
        let (_, secs) = timed(tr, "ckpt.decode", || {
            for _ in 0..reps {
                black_box(Checkpoint::decode(black_box(&encoded)).expect("valid checkpoint"));
            }
        });
        v.insert("ckpt.decode_ns_per_kib", secs * 1e9 / reps as f64 / kib);
        // Every fourth block changed: the diff both compares and copies.
        let mut next = grid.clone();
        for block in next.chunks_mut(DIFF_BLOCK).step_by(4) {
            block[0] ^= 0xff;
        }
        let (_, secs) = timed(tr, "ckpt.diff", || {
            for _ in 0..reps {
                black_box(block_diff(black_box(&grid), black_box(&next), DIFF_BLOCK));
            }
        });
        v.insert("ckpt.diff_ns_per_kib", secs * 1e9 / reps as f64 / kib);
    }

    // ---- fault -------------------------------------------------------
    if let Some((reliability, horizon)) = &profile.reliability {
        let (schedule, secs) = timed(tr, "fault.schedule_gen", || {
            reliability.generate_schedule(*horizon, seed)
        });
        v.insert("fault.schedule_gen_ms", secs * 1e3);
        v.insert("fault.schedule_entries", schedule.len() as f64);
    }

    // ---- obs ---------------------------------------------------------
    v.insert("obs.overhead_frac", times.traced_s / times.untraced_s - 1.0);
    const ADDS: usize = 10_000_000;
    let (_, secs) = timed(tr, "obs.metric_add", || {
        let mut set = MetricSet::new();
        for i in 0..ADDS {
            black_box(&mut set).add(ids::NET_MSGS_EAGER, i as u64 & 1);
        }
        black_box(set.value(ids::NET_MSGS_EAGER));
    });
    v.insert("obs.metric_add_ns", secs * 1e9 / ADDS as f64);
    if profile.mpi {
        let n = profile.ranks.min(4096);
        let report = SimBuilder::new(n)
            .net(NetModel::small(n))
            .metrics(true)
            .run(kernels::ring(1, 64))
            .expect("metered ring");
        let (_, secs) = timed(tr, "obs.snapshot", || black_box(report.metrics_json()));
        v.insert("obs.snapshot_ms", secs * 1e3);
    }
    v
}
