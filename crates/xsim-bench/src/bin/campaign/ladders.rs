//! The two host-cost ladders of the event core.
//!
//! `queue` — event-queue churn, calendar queue vs. a binary heap over
//! the keys: uniform hold-model churn on a long-lived queue at the
//! standard pending tiers (1k / 100k / 1M), and the campaign shape —
//! far timers behind a nanosecond front, a fresh queue per short run
//! with construction and drop on the clock — at 256 and 16,384 pending,
//! and the flood shape: the raw-core ring of wakes on 2²⁰ VPs, whose
//! lock-step waves each arrive in ascending rank order. Its gate fails
//! if the calendar queue falls below 1.0× the heap at any tier: the
//! calendar is kept only because it beats the heap. `--quick` trims the
//! timed span (the flood tier always runs its whole program); the tiers
//! and the gate stay the same. `--ops N` sets the timed span.
//!
//! `vp-scaling` — the VP ladder toward the paper's headline 2²⁷
//! simulated MPI processes on one host (§II-A):
//!
//! * raw core (default): the `million_vp` workload from 2²⁰ VPs — the
//!   numbers that say whether the event core's memory diet holds at
//!   scale;
//! * `--mpi`: `compute_allreduce(rounds, 64, 1 ms)` with tree
//!   collectives on the paper machine from 2¹⁶ ranks — what a simulated
//!   MPI process costs.
//!
//! Rungs run in ascending order so the monotone `VmHWM` reading after
//! each rung is that rung's own peak. A free-memory gate (80% of
//! `MemAvailable` over a deliberately pessimistic bytes-per-VP estimate,
//! one for each ladder) skips the rungs that would not fit; `--max-vps`
//! caps the ladder explicitly and composes with the gate (the smaller
//! bound wins). A skipped rung stays a row of empty cells. `--quick`
//! runs the single 2¹⁶ rung. `--rounds` defaults to 2 sleep/wake rounds
//! per VP, or 1 compute + allreduce round per rank with `--mpi`. Each
//! finished rung also prints its row to stderr, so a long ladder shows
//! progress.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xsim_apps::kernels;
use xsim_apps::scenario::Cli;
use xsim_bench::{fixed, proc_kib, Report};
use xsim_core::event::{Action, EventKey, EventRec};
use xsim_core::vp::{VpExit, VpFuture, VpProgram};
use xsim_core::{ctx, Rank, SimTime};
use xsim_mpi::SimBuilder;
use xsim_net::{NetModel, Topology};
use xsim_obs::Json;

/// Peak resident set size of this process in MiB (0 where unreadable).
fn peak_rss_mib() -> f64 {
    proc_kib("/proc/self/status", "VmHWM").unwrap_or(0) as f64 / 1024.0
}

// ----------------------------------------------------------------------
// campaign queue
// ----------------------------------------------------------------------

/// Delta distribution of a queue-churn tier.
#[derive(Clone, Copy)]
enum QueueShape {
    /// Uniform hold model on one long-lived queue: successors 1 ns –
    /// 10 µs ahead, geometry conditioned before the timed span.
    Uniform,
    /// The campaign shape: one push in 32 is a timer 1 ms – 65 s out
    /// (log-uniform), the rest land 1 – 4,096 ns ahead; a fresh queue
    /// per trial, construction, drain and drop inside the timed span.
    Campaign,
    /// The raw-core ring of wakes (`million_vp_program`) as queue
    /// traffic, `pending` VPs: a same-instant wave of `pending` records
    /// pushed in descending rank order (generic traffic here, pushed
    /// into both queues alike: the engine's own spawn wave is a virtual
    /// run, `EventQueue::push_spawns`), then every VP sleeps 10 µs and
    /// wakes its ring successor 2 µs later, twice — four lock-step waves
    /// that each arrive in ascending rank order. Construction, every
    /// wave and the drop are timed; an op is one event popped.
    Flood,
}

/// Tiers of the churn comparison: pending population, delta shape and
/// its name in the table.
const QUEUE_TIERS: [(usize, QueueShape, &str); 6] = [
    (1_000, QueueShape::Uniform, "uniform"),
    (100_000, QueueShape::Uniform, "uniform"),
    (1_000_000, QueueShape::Uniform, "uniform"),
    (256, QueueShape::Campaign, "campaign"),
    (16_384, QueueShape::Campaign, "campaign"),
    (1 << 20, QueueShape::Flood, "flood"),
];

/// Events per VP of the [`QueueShape::Flood`] tier: the spawn and two
/// rounds of a sleep completion and a successor's wake.
const FLOOD_EVENTS_PER_VP: usize = 5;

/// Trials per implementation per tier; the reported cost is the
/// minimum, which discards scheduler/cache noise (any single trial can
/// only be *slowed* by interference, never sped up).
const QUEUE_TRIALS: usize = 5;

/// The `queue` campaign.
pub(crate) fn queue(cli: &Cli) -> Report {
    let ops = cli.ops.unwrap_or(if cli.quick { 50_000 } else { 200_000 });
    let mut r = Report::default();
    r.table(
        format!("Event-queue churn, calendar queue vs. a binary heap (best of {QUEUE_TRIALS})"),
        "pending shape ops heap_ns_per_op calendar_ns_per_op speedup",
    );
    let mut beats_heap = true;
    for (pending, shape, name) in QUEUE_TIERS {
        let (ops, heap, calendar) = run_queue_tier(pending, shape, ops);
        let speedup = heap / calendar;
        beats_heap &= speedup >= 1.0;
        r.row(vec![
            pending.into(),
            name.into(),
            ops.into(),
            fixed(heap, 1),
            fixed(calendar, 1),
            fixed(speedup, 2),
        ]);
    }
    r.gate("calendar queue >= 1.0x the heap at every tier", beats_heap);
    r.note(format!("peak RSS: {:.1} MiB", peak_rss_mib()));
    r
}

/// Time one churn tier for the heap oracle and the calendar queue,
/// best-of-[`QUEUE_TRIALS`], interleaving the two so ambient load
/// perturbs them evenly. Returns the ops timed (the flood tier's is its
/// event count, not `ops`) and each queue's ns per op.
fn run_queue_tier(pending: usize, shape: QueueShape, ops: usize) -> (usize, f64, f64) {
    let ops = match shape {
        QueueShape::Flood => FLOOD_EVENTS_PER_VP * pending,
        _ => ops,
    };
    let mut heap = f64::INFINITY;
    let mut calendar = f64::INFINITY;
    for _ in 0..QUEUE_TRIALS {
        heap = heap.min(churn_ns_per_op::<HeapOracle>(pending, shape, ops));
        calendar = calendar.min(churn_ns_per_op::<xsim_core::EventQueue>(
            pending, shape, ops,
        ));
    }
    (ops, heap, calendar)
}

/// What the churn driver asks of a queue.
trait HoldQueue: Default {
    fn push(&mut self, ev: EventRec);
    fn pop(&mut self) -> Option<EventKey>;
}

impl HoldQueue for xsim_core::EventQueue {
    fn push(&mut self, ev: EventRec) {
        self.push(ev);
    }
    fn pop(&mut self) -> Option<EventKey> {
        self.pop().map(|e| e.key)
    }
}

/// The oracle the calendar queue is gated against: a binary heap over
/// the keys.
#[derive(Default)]
struct HeapOracle(BinaryHeap<Reverse<EventKey>>);

impl HoldQueue for HeapOracle {
    fn push(&mut self, ev: EventRec) {
        self.0.push(Reverse(ev.key));
    }
    fn pop(&mut self) -> Option<EventKey> {
        self.0.pop().map(|r| r.0)
    }
}

/// The hold-model driver: pop the minimum, push a successor a
/// pseudorandom distance into the future. Keys are unique, as the
/// engine guarantees.
struct Churn {
    rng: u64,
    seq: u64,
    shape: QueueShape,
}

impl Churn {
    fn next(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    fn delta(&mut self) -> u64 {
        let r = self.next();
        match self.shape {
            QueueShape::Uniform => 1 + r % 10_000,
            QueueShape::Campaign if r & 31 != 0 => 1 + (r >> 8) % 4_096,
            QueueShape::Campaign => {
                let octave = 1_000_000u64 << ((r >> 8) % 16);
                octave + self.next() % octave
            }
            QueueShape::Flood => unreachable!("the flood tier draws no deltas"),
        }
    }

    fn push_at<Q: HoldQueue>(&mut self, q: &mut Q, time: u64) {
        let r = self.next();
        self.seq += 1;
        q.push(EventRec {
            key: EventKey {
                time: SimTime(time),
                dst: Rank((r >> 8) as u32 & 0x3f),
                src: Rank((r >> 16) as u32 & 0x3f),
                seq: self.seq,
            },
            action: Action::Spawn,
        });
    }

    fn hold<Q: HoldQueue>(&mut self, q: &mut Q, ops: usize) {
        for _ in 0..ops {
            let now = q.pop().expect("hold-model queue never empties");
            let t = now.time.as_nanos() + self.delta();
            self.push_at(q, t);
        }
    }
}

/// The queue traffic of [`million_vp_program`] on `vps` VPs, in the
/// keys the kernel gives it; drains the queue.
fn ring_of_wakes<Q: HoldQueue>(q: &mut Q, vps: usize) {
    const SLEEP: u64 = 10_000;
    const WAKE: u64 = 2_000;
    const ROUNDS: u64 = 2;
    let push = |q: &mut Q, time: u64, dst: usize, src: usize, seq: u64| {
        q.push(EventRec {
            key: EventKey {
                time: SimTime(time),
                dst: Rank::new(dst),
                src: Rank::new(src),
                seq,
            },
            action: Action::Spawn,
        })
    };
    for r in (0..vps).rev() {
        push(q, 0, r, r, 0);
    }
    let mut popped = 0;
    while let Some(k) = q.pop() {
        popped += 1;
        let (t, r) = (k.time.as_nanos(), k.dst.idx());
        // A spawn or a sleep completion: wake the successor, sleep on.
        if t % SLEEP == 0 {
            let round = t / SLEEP;
            if round > 0 {
                push(q, t + WAKE, (r + 1) % vps, r, k.seq + 1);
            }
            if round < ROUNDS {
                push(q, t + SLEEP, r, r, k.seq + 2);
            }
        }
    }
    assert_eq!(popped, FLOOD_EVENTS_PER_VP * vps);
}

/// Churn cost of a queue in nanoseconds per hold operation.
///
/// [`QueueShape::Uniform`] prefills `pending` events, conditions with
/// `ops` untimed hold operations, then times `ops` more. The untimed
/// pass matters for adaptive implementations: the prefill distribution
/// (uniform over 1 ms) is ~100× sparser than the steady hold-model
/// front, so the calendar queue re-fits its bucket width during the
/// first churn epoch — a one-time cost a long run amortizes to nothing.
///
/// [`QueueShape::Campaign`] is the opposite regime, one short run: the
/// clock covers construction, the prefill, `ops` hold operations, the
/// drain and the drop, so whatever a queue costs per *instance* — a
/// ring sized to the timers' span, say — is in the number.
///
/// [`QueueShape::Flood`] times one [`ring_of_wakes`] the same way.
fn churn_ns_per_op<Q: HoldQueue>(pending: usize, shape: QueueShape, ops: usize) -> f64 {
    let mut c = Churn {
        rng: 0x9e3779b97f4a7c15,
        seq: 0,
        shape,
    };
    let created = Instant::now();
    let mut queue = Q::default();
    let elapsed = match shape {
        QueueShape::Uniform => {
            for _ in 0..pending {
                let t = c.next() % 1_000_000;
                c.push_at(&mut queue, t);
            }
            c.hold(&mut queue, ops);
            let conditioned = Instant::now();
            c.hold(&mut queue, ops);
            conditioned.elapsed()
        }
        QueueShape::Campaign => {
            for _ in 0..pending {
                let t = c.delta();
                c.push_at(&mut queue, t);
            }
            c.hold(&mut queue, ops);
            while queue.pop().is_some() {}
            drop(queue);
            created.elapsed()
        }
        QueueShape::Flood => {
            ring_of_wakes(&mut queue, pending);
            drop(queue);
            created.elapsed()
        }
    };
    elapsed.as_nanos() as f64 / ops.max(1) as f64
}

// ----------------------------------------------------------------------
// campaign vp-scaling
// ----------------------------------------------------------------------

/// Conservative resident-cost estimate for one VP of the raw-core
/// ladder: ~34 B of SoA table columns, a boxed ring future plus its
/// allocator slack, and this VP's share of the in-flight 32-byte event
/// records. Deliberately pessimistic — the gate must fail *before* the
/// allocation does: the ladder measures ≈ 181 B/VP at 2²² VPs
/// (EXPERIMENTS.md §II-A), well under this estimate.
const VP_SCALING_BYTES_PER_VP: u64 = 512;

/// The same estimate for one rank of the MPI rungs: the rank's future,
/// VP slot and MPI state, its share of the in-flight events, envelopes
/// and payloads, and allocator slack. The rungs measure ≈ 1.8 KiB per
/// rank over the whole process (EXPERIMENTS.md §II-A), under this
/// estimate.
const MPI_SCALING_BYTES_PER_RANK: u64 = 3072;

/// Columns of a ladder row. `messages` is 0 on the raw-core rungs.
const RUNG_COLUMNS: &str = "vps wall_s events messages events_per_s host_us_per_event \
    host_us_per_msg peak_rss_mib bytes_per_vp";

/// The ladder's rungs, ascending, each with whether it runs: `--quick`
/// is the single 2¹⁶ rung, else powers of two from 2^`first` to 2²⁷; a
/// rung above `cap` (the smaller of the memory gate and `--max-vps`) is
/// skipped.
fn rungs(quick: bool, first: u32, cap: usize) -> Vec<(usize, bool)> {
    let exps = if quick { 16..=16 } else { first..=27 };
    exps.map(|e| 1usize << e).map(|v| (v, v <= cap)).collect()
}

/// Add one row per rung to the table started last — `measure`'s cells
/// for a rung that runs, `vps` and empty cells for a skipped one — and
/// the gate that some rung ran.
fn ladder(r: &mut Report, rungs: &[(usize, bool)], mut measure: impl FnMut(usize) -> Vec<Json>) {
    let width = RUNG_COLUMNS.split_whitespace().count();
    for &(vps, runs) in rungs {
        let mut row = vec![vps.into()];
        if runs {
            row.extend(measure(vps));
            eprintln!("rung {}", Json::Arr(row.clone()));
        } else {
            row.resize(width, Json::Null);
        }
        r.row(row);
    }
    r.gate(
        "a rung fits under the memory gate and --max-vps",
        rungs.iter().any(|&(_, runs)| runs),
    );
}

/// The `vp-scaling` campaign.
pub(crate) fn vp_scaling(cli: &Cli) -> Report {
    let workers = cli.scenario.workers;
    let rounds = cli.rounds.unwrap_or(if cli.mpi { 1 } else { 2 });
    let (first, bytes_per_vp, what) = match cli.mpi {
        true => (
            16,
            MPI_SCALING_BYTES_PER_RANK,
            format!("MPI ranks: compute_allreduce({rounds} round(s), tree collectives)"),
        ),
        false => (
            20,
            VP_SCALING_BYTES_PER_VP,
            format!("raw core: million_vp ({rounds} sleep/wake round(s) per VP)"),
        ),
    };
    // 80% of `MemAvailable` over the per-VP estimate.
    let gate = proc_kib("/proc/meminfo", "MemAvailable")
        .map(|kib| (kib * 1024 / 10 * 8 / bytes_per_vp) as usize);
    let max_vps = cli.max_vps.unwrap_or(usize::MAX);
    let mut r = Report::default();
    r.table(format!("VP-scaling ladder, {what}"), RUNG_COLUMNS);
    let plan = rungs(cli.quick, first, gate.map_or(max_vps, |g| g.min(max_vps)));
    ladder(&mut r, &plan, |vps| {
        let t = Instant::now();
        let (events, messages) = match cli.mpi {
            true => run_mpi_rung(vps, workers, rounds),
            false => (run_million_vp(vps, workers, rounds), 0),
        };
        rung_cells(vps, t.elapsed(), events, messages)
    });
    r.note(match gate {
        Some(g) => format!("memory gate: {g} VPs (80% of MemAvailable at {bytes_per_vp} B/VP)"),
        None => "memory gate: unavailable (/proc/meminfo unreadable)".into(),
    });
    if let Some(cap) = cli.max_vps {
        r.note(format!("cap: --max-vps {cap}"));
    }
    r
}

/// A measured rung's cells after `vps`. The wall is end to end (spawn
/// scheduling and report assembly included — a throughput number, not
/// a profile); the peak RSS is `VmHWM` after the rung.
fn rung_cells(vps: usize, wall: Duration, events: u64, messages: u64) -> Vec<Json> {
    let secs = wall.as_secs_f64();
    let rss = peak_rss_mib();
    let per_msg = (messages > 0).then(|| fixed(secs * 1e6 / messages as f64, 3));
    vec![
        fixed(secs, 3),
        events.into(),
        messages.into(),
        fixed(events as f64 / secs, 0),
        fixed(secs * 1e6 / events as f64, 3),
        per_msg.unwrap_or(Json::Null),
        fixed(rss, 1),
        fixed(rss * 1024.0 * 1024.0 / vps as f64, 0),
    ]
}

/// The engine-level oversubscription workload: each VP alternates timer
/// sleeps with a lookahead-respecting wake of its ring successor,
/// exercising the event core — calendar queue, inline `Call` storage,
/// SoA VP table, cross-shard exchange — without any MPI-layer machinery
/// on top.
fn million_vp_program(n_ranks: usize, rounds: u32) -> Arc<dyn VpProgram> {
    Arc::new(move |rank: Rank| {
        let n = n_ranks;
        Box::pin(async move {
            for _ in 0..rounds {
                ctx::sleep(SimTime::from_micros(10)).await;
                let peer = Rank::new((rank.idx() + 1) % n);
                ctx::with_kernel(|k, me| {
                    let t = k.vp(me).clock() + SimTime::from_micros(2);
                    k.schedule_at(t, peer, Action::WakeMessage);
                });
            }
            VpExit::Finished
        }) as VpFuture
    })
}

/// One `million_vp` rung on the core engine; returns the events
/// processed.
fn run_million_vp(vps: usize, workers: usize, rounds: u32) -> u64 {
    let cfg = xsim_core::CoreConfig {
        n_ranks: vps,
        workers,
        engine: if workers > 1 {
            xsim_core::EngineKind::Parallel
        } else {
            xsim_core::EngineKind::Auto
        },
        lookahead: SimTime::from_micros(1),
        ..Default::default()
    };
    let setup = |_: &mut xsim_core::Kernel| {};
    xsim_core::engine::run(cfg, million_vp_program(vps, rounds), &setup)
        .expect("million_vp run")
        .events_processed
}

/// One MPI rung: `compute_allreduce(rounds, 64, 1 ms)` with tree
/// collectives over `ranks` simulated MPI processes on the paper
/// machine, its 3-D torus sized to the rank count. Returns the events
/// processed and the messages sent.
fn run_mpi_rung(ranks: usize, workers: usize, rounds: u32) -> (u64, u64) {
    // `ranks` is a power of two: split the exponent across the three
    // torus dimensions.
    let e = ranks.trailing_zeros() as usize;
    let (a, b) = (e / 3, (e - e / 3) / 2);
    let mut net = NetModel::paper_machine();
    net.topology = Topology::Torus3d {
        dims: [1 << a, 1 << b, 1 << (e - a - b)],
    };
    let report = SimBuilder::new(ranks)
        .net(net)
        .workers(workers)
        .collectives(xsim_mpi::CollAlgo::Tree)
        .run(kernels::compute_allreduce(
            rounds,
            64,
            SimTime::from_millis(1),
        ))
        .expect("MPI rung");
    (report.sim.events_processed, report.mpi.sends)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_the_single_2_16_rung_and_the_cap_skips_rungs() {
        assert_eq!(rungs(true, 20, usize::MAX), [(1 << 16, true)]);
        assert_eq!(rungs(true, 16, 1 << 15), [(1 << 16, false)]);
        let capped = rungs(false, 20, 1 << 21);
        assert_eq!(capped.len(), 8);
        assert_eq!(
            &capped[..3],
            [(1 << 20, true), (1 << 21, true), (1 << 22, false)]
        );
        assert_eq!(capped.last(), Some(&(1 << 27, false)));
        assert_eq!(rungs(false, 16, usize::MAX).len(), 12);
    }

    #[test]
    fn a_cap_below_every_rung_fails_the_gate_and_keeps_every_row() {
        let plan = rungs(false, 20, (1 << 20) - 1);
        let mut r = Report::default();
        r.table("ladder", RUNG_COLUMNS);
        ladder(&mut r, &plan, |_| {
            unreachable!("a skipped rung is not measured")
        });
        assert_eq!(r.exit_code(), 1);
        let text = r.render("vp-scaling --max-vps 1048575", 1);
        assert!(text.contains("gate FAIL: a rung fits under the memory gate and --max-vps"));
        let json = Json::parse(text.lines().last().unwrap()).unwrap();
        let rows = json.get("tables").and_then(Json::as_arr).unwrap()[0]
            .get("rows")
            .and_then(Json::as_arr)
            .unwrap()
            .to_vec();
        assert_eq!(rows.len(), 8);
        assert_eq!(
            rows[0].to_string(),
            "[1048576,null,null,null,null,null,null,null,null]"
        );
    }

    #[test]
    fn a_measured_rung_fills_every_column() {
        let mut r = Report::default();
        r.table("ladder", RUNG_COLUMNS);
        let plan = rungs(true, 20, usize::MAX);
        ladder(&mut r, &plan, |vps| {
            rung_cells(vps, Duration::from_millis(5), 327_680, 0)
        });
        assert_eq!(r.exit_code(), 0);
    }
}
