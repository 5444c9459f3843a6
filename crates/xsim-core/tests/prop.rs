//! Seeded property tests for the PDES substrate: time arithmetic, the
//! event order, queue behaviour, and sequential/parallel engine
//! equivalence over randomized programs. Every property runs a fixed
//! number of cases, case `i` drawing from `DetRng::stream(SEED, i)`.

use std::sync::Arc;
use xsim_core::engine;
use xsim_core::event::{Action, EventKey, EventRec};
use xsim_core::queue::EventQueue;
use xsim_core::rng::for_each_case;
use xsim_core::vp::{VpExit, VpFuture};
use xsim_core::{ctx, CoreConfig, DetRng, EngineKind, Kernel, LookaheadProvider, Rank, SimTime};

const SEED: u64 = 0xC0DE_0001;
const CASES: u64 = 64;
/// The engine-equivalence properties spawn worker threads per case.
const ENGINE_CASES: u64 = 24;

/// Up to 100 arbitrary event keys `(time, dst, src, seq)`.
fn arb_keys(g: &mut DetRng) -> Vec<(u64, u32, u32, u64)> {
    (0..g.gen_in(0..100))
        .map(|_| {
            (
                g.next_u64(),
                g.gen_in(0..64) as u32,
                g.gen_in(0..64) as u32,
                g.next_u64(),
            )
        })
        .collect()
}

/// `ranks` opcode lists of up to `max_ops - 1` arbitrary opcodes each.
fn arb_opcodes(g: &mut DetRng, ranks: std::ops::Range<u64>, max_ops: u64) -> Arc<Vec<Vec<u8>>> {
    Arc::new(
        (0..g.gen_in(ranks))
            .map(|_| g.gen_bytes(0..max_ops))
            .collect(),
    )
}

#[test]
fn simtime_add_is_monotone() {
    for_each_case(SEED, CASES, |g| {
        let (ta, tb) = (SimTime(g.next_u64()), SimTime(g.next_u64()));
        assert!(ta + tb >= ta);
        assert!(ta + tb >= tb);
        assert_eq!(ta + tb, tb + ta);
    });
}

#[test]
fn simtime_sub_then_add_round_trips_when_no_clamp() {
    for_each_case(SEED, CASES, |g| {
        let (a, b) = (g.next_u64(), g.next_u64());
        let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
        assert_eq!((SimTime(hi) - SimTime(lo)) + SimTime(lo), SimTime(hi));
    });
}

#[test]
fn secs_f64_round_trip_is_close() {
    for_each_case(SEED, CASES, |g| {
        let s = g.gen_f64() * 1e6;
        let t = SimTime::from_secs_f64(s);
        assert!((t.as_secs_f64() - s).abs() < 1e-6);
    });
}

#[test]
fn event_queue_pops_sorted() {
    for_each_case(SEED, CASES, |g| {
        let keys = arb_keys(g);
        let mut q = EventQueue::new();
        for (t, dst, src, seq) in &keys {
            q.push(EventRec {
                key: EventKey {
                    time: SimTime(*t),
                    dst: Rank(*dst),
                    src: Rank(*src),
                    seq: *seq,
                },
                action: Action::Spawn,
            });
        }
        let mut popped: Vec<EventKey> = Vec::new();
        while let Some(e) = q.pop() {
            popped.push(e.key);
        }
        assert_eq!(popped.len(), keys.len());
        for w in popped.windows(2) {
            assert!(w[0] <= w[1], "out of order: {:?} then {:?}", w[0], w[1]);
        }
    });
}

/// The queue's pop order is a pure function of the key *set*: any
/// push-order interleaving (here: identity, reversed, and an
/// arbitrary rotation) yields the same total order. This is the
/// property that makes batched cross-shard insertion safe — the
/// parallel engine may deliver remote events in any slot order.
#[test]
fn event_queue_total_order_is_interleaving_independent() {
    for_each_case(SEED, CASES, |g| {
        let keys = arb_keys(g);
        let rot = g.next_u64() as usize;
        let pop_all = |order: &[usize]| -> Vec<EventKey> {
            let mut q = EventQueue::new();
            for &i in order {
                let (t, dst, src, seq) = keys[i];
                q.push(EventRec {
                    key: EventKey {
                        time: SimTime(t),
                        dst: Rank(dst),
                        src: Rank(src),
                        seq,
                    },
                    action: Action::Spawn,
                });
            }
            let mut popped = Vec::new();
            while let Some(e) = q.pop() {
                popped.push(e.key);
            }
            popped
        };
        let n = keys.len();
        let identity: Vec<usize> = (0..n).collect();
        let reversed: Vec<usize> = (0..n).rev().collect();
        let rotated: Vec<usize> = if n == 0 {
            Vec::new()
        } else {
            (0..n).map(|i| (i + rot % n) % n).collect()
        };
        let reference = pop_all(&identity);
        assert_eq!(&pop_all(&reversed), &reference);
        assert_eq!(&pop_all(&rotated), &reference);
    });
}

/// The calendar queue is byte-identical to the binary-heap oracle
/// under arbitrary *interleaved* push/pop traffic — not just
/// push-all-then-pop-all. Times are drawn from three bands: a small
/// range where same-timestamp ties (broken by `(dst, src, seq)`)
/// are common, a mid band that spreads events over many slices
/// (ring growth, width re-fits, the settle scan's buffer
/// recycling), and a far-future band exercising the overflow lane
/// and its migration/re-fit path. Each push op optionally becomes a
/// same-time *burst* whose size crosses the bounded-memmove cap, so
/// both the in-order insertion and the append-and-sort-once
/// fallback run against the oracle, interleaved with pops and
/// geometry changes.
#[test]
fn calendar_queue_matches_heap_under_interleaved_ops() {
    /// Deepest burst; must exceed the queue's 64-event memmove cap.
    const MAX_BURST: u64 = 1 + 48 * 2;
    let mut bucket_hwm = 0;
    for_each_case(SEED, CASES, |g| {
        let mut heap = EventQueue::heap();
        let mut cal = EventQueue::calendar();
        let mut seq = 0u64;
        for _ in 0..g.gen_in(1..250) {
            let push = g.gen_bool();
            let t = g.gen_in(0..512);
            let (dst, src) = (g.gen_in(0..16) as u32, g.gen_in(0..16) as u32);
            let (band, burst) = (g.gen_in(0..3), g.gen_in(0..3));
            if push || heap.is_empty() {
                // Unique keys, as the engine guarantees: the per-source
                // seq counter disambiguates colliding (time, dst, src).
                let time = match band {
                    0 => SimTime(t),
                    1 => SimTime(t.saturating_mul(1 << 12)),
                    _ => SimTime(t.saturating_mul(1 << 40)),
                };
                // A burst stacks same-(time, dst, src) events whose
                // order is decided by seq alone — deep enough to force
                // the memmove-capped path inside one bucket.
                let burst_len = 1 + 48 * burst;
                for _ in 0..burst_len {
                    let key = EventKey {
                        time,
                        dst: Rank(dst),
                        src: Rank(src),
                        seq,
                    };
                    seq += 1;
                    heap.push(EventRec {
                        key,
                        action: Action::Spawn,
                    });
                    cal.push(EventRec {
                        key,
                        action: Action::Spawn,
                    });
                }
            } else {
                let h = heap.pop().map(|e| e.key);
                let c = cal.pop().map(|e| e.key);
                assert_eq!(c, h, "pop diverged from the heap oracle");
            }
            assert_eq!(cal.len(), heap.len());
            assert_eq!(cal.next_time(), heap.next_time());
        }
        // Drain both to the end: the tails must agree too.
        loop {
            let h = heap.pop().map(|e| e.key);
            let c = cal.pop().map(|e| e.key);
            assert_eq!(c, h, "drain diverged from the heap oracle");
            if h.is_none() {
                break;
            }
        }
        bucket_hwm = bucket_hwm.max(cal.stats().bucket_hwm);
    });
    assert!(
        bucket_hwm >= MAX_BURST,
        "no case stacked a full burst in one bucket (hwm {bucket_hwm})"
    );
}

/// A randomized program: each rank performs a schedule of sleeps and
/// cross-rank wakes derived from the per-rank opcode list.
fn random_program(
    opcodes: Arc<Vec<Vec<u8>>>,
    n_ranks: usize,
) -> impl Fn(Rank) -> VpFuture + Send + Sync {
    random_program_with_delay(opcodes, n_ranks, 2)
}

/// Like [`random_program`] but with a configurable minimum cross-rank
/// wake delay, so lookahead-related properties can vary the true
/// delivery latency independently of the engine's window bound.
fn random_program_with_delay(
    opcodes: Arc<Vec<Vec<u8>>>,
    n_ranks: usize,
    wake_delay_us: u64,
) -> impl Fn(Rank) -> VpFuture + Send + Sync {
    move |rank: Rank| {
        let ops = opcodes[rank.idx() % opcodes.len()].clone();
        let n = n_ranks;
        let delay = SimTime::from_micros(wake_delay_us);
        Box::pin(async move {
            for op in ops {
                match op % 3 {
                    0 => ctx::sleep(SimTime::from_micros(1 + op as u64)).await,
                    1 => {
                        // Wake a derived peer after a lookahead-respecting
                        // delay.
                        let peer = Rank::new((rank.idx() + op as usize + 1) % n);
                        ctx::with_kernel(|k, me| {
                            let t = k.vp(me).clock() + delay;
                            k.schedule_at(t, peer, Action::WakeMessage);
                        });
                    }
                    _ => ctx::yield_now().await,
                }
            }
            VpExit::Finished
        }) as VpFuture
    }
}

/// Sequential, parallel(1) and multi-worker runs of one random program
/// agree on clocks and scalar counters.
fn assert_engines_agree(opcodes: Arc<Vec<Vec<u8>>>, n_ranks: usize) {
    let run = |workers: usize, engine_kind: EngineKind| {
        let cfg = CoreConfig {
            n_ranks,
            workers,
            engine: engine_kind,
            lookahead: SimTime::from_micros(1),
            ..Default::default()
        };
        let setup = |_: &mut Kernel| {};
        engine::run(
            cfg,
            Arc::new(random_program(opcodes.clone(), n_ranks)),
            &setup,
        )
        .unwrap()
    };
    let seq = run(1, EngineKind::Auto);
    // The parallel path with one worker exercises the full window
    // machinery (shards, exchange slots, bounds) without
    // concurrency; it must agree on *everything*, including the
    // scalar counters.
    let par1 = run(1, EngineKind::Parallel);
    assert_eq!(&par1.final_clocks, &seq.final_clocks, "parallel(1)");
    assert_eq!(
        par1.events_processed, seq.events_processed,
        "parallel(1) events"
    );
    assert_eq!(
        par1.context_switches, seq.context_switches,
        "parallel(1) switches"
    );
    for workers in [2usize, 5] {
        let par = run(workers, EngineKind::Auto);
        assert_eq!(&par.final_clocks, &seq.final_clocks, "workers={workers}");
        assert_eq!(
            par.events_processed, seq.events_processed,
            "workers={workers}"
        );
        assert_eq!(
            par.context_switches, seq.context_switches,
            "workers={workers}"
        );
    }
}

#[test]
fn engines_agree_on_random_programs() {
    for_each_case(SEED, ENGINE_CASES, |g| {
        let opcodes = arb_opcodes(g, 1..6, 12);
        let n_ranks = g.gen_in(1..24) as usize;
        assert_engines_agree(opcodes, n_ranks);
    });
}

/// Pinned regression (a past shrunk failure): a lone rank whose only
/// op wakes itself.
#[test]
fn engines_agree_on_single_rank_self_wake() {
    assert_engines_agree(Arc::new(vec![vec![46], vec![], vec![]]), 1);
}

/// Window-bound safety: every static lookahead no larger than the
/// minimum cross-rank delay (2µs in [`random_program`]) is a safe
/// window bound — the parallel engine must reproduce the sequential
/// oracle exactly for *any* such bound, not just the default.
#[test]
fn any_safe_static_lookahead_reproduces_the_oracle() {
    for_each_case(SEED, ENGINE_CASES, |g| {
        let opcodes = arb_opcodes(g, 1..4, 10);
        let n_ranks = g.gen_in(2..16) as usize;
        let la_us = g.gen_in(1..3);
        let workers = g.gen_in(2..6) as usize;
        let run = |workers: usize, engine_kind: EngineKind| {
            let cfg = CoreConfig {
                n_ranks,
                workers,
                engine: engine_kind,
                lookahead: SimTime::from_micros(la_us),
                ..Default::default()
            };
            let setup = |_: &mut Kernel| {};
            engine::run(
                cfg,
                Arc::new(random_program(opcodes.clone(), n_ranks)),
                &setup,
            )
            .unwrap()
        };
        let seq = run(1, EngineKind::Sequential);
        let par = run(workers, EngineKind::Parallel);
        assert_eq!(&par.final_clocks, &seq.final_clocks);
        assert_eq!(par.events_processed, seq.events_processed);
        assert_eq!(par.context_switches, seq.context_switches);
    });
}

/// Adaptive-lookahead conservativeness: with cross-rank wakes
/// arriving after `delay_us`, any adaptive provider returning a
/// value in `1..=delay_us` only *widens* windows relative to the
/// 1µs static floor and must never change results vs the
/// sequential oracle.
#[test]
fn adaptive_lookahead_is_conservative_vs_static_oracle() {
    for_each_case(SEED, ENGINE_CASES, |g| {
        let opcodes = arb_opcodes(g, 1..4, 10);
        let n_ranks = g.gen_in(2..16) as usize;
        let delay_us = g.gen_in(2..8);
        let adaptive_frac = g.gen_in(1..101);
        let workers = g.gen_in(2..6) as usize;
        // Provider value in 1..=delay_us, derived deterministically.
        let adaptive_us = 1 + (adaptive_frac * delay_us.saturating_sub(1)) / 100;
        let run = |workers: usize, engine_kind: EngineKind, provider: Option<LookaheadProvider>| {
            let cfg = CoreConfig {
                n_ranks,
                workers,
                engine: engine_kind,
                lookahead: SimTime::from_micros(1),
                lookahead_fn: provider,
                ..Default::default()
            };
            let setup = |_: &mut Kernel| {};
            engine::run(
                cfg,
                Arc::new(random_program_with_delay(
                    opcodes.clone(),
                    n_ranks,
                    delay_us,
                )),
                &setup,
            )
            .unwrap()
        };
        let seq = run(1, EngineKind::Sequential, None);
        let adaptive = run(
            workers,
            EngineKind::Parallel,
            Some(LookaheadProvider::constant(SimTime::from_micros(
                adaptive_us,
            ))),
        );
        assert_eq!(
            &adaptive.final_clocks, &seq.final_clocks,
            "delay={delay_us}us adaptive={adaptive_us}us"
        );
        assert_eq!(adaptive.events_processed, seq.events_processed);
        assert_eq!(adaptive.context_switches, seq.context_switches);
    });
}
