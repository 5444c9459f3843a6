//! Seeded property tests for the PDES substrate: time arithmetic, the
//! event order, queue behaviour, and sequential/parallel engine
//! equivalence over randomized programs. Every property runs a fixed
//! number of cases, case `i` drawing from `DetRng::stream(SEED, i)`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use xsim_core::engine;
use xsim_core::event::{Action, EventKey, EventRec};
use xsim_core::queue::EventQueue;
use xsim_core::rng::for_each_case;
use xsim_core::vp::{VpExit, VpFuture};
use xsim_core::{ctx, CoreConfig, DetRng, EngineKind, Kernel, Rank, SimTime};

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

/// The queue in lock-step with the oracle — a binary heap over the
/// keys. Every pop checks `next_key`, the popped key and `len` against
/// it, and that the ring stayed sized to the population: never above
/// `max(256, 2 · next_pow2(len high-water mark))` buckets.
#[derive(Default)]
struct Checked {
    q: EventQueue,
    oracle: BinaryHeap<Reverse<EventKey>>,
    len_hwm: usize,
    seq: u64,
}

impl Checked {
    /// Push a fresh key at `time`; `seq` keeps keys unique, as the
    /// engine's per-source counter does.
    fn push(&mut self, time: u64, dst: u32, src: u32) {
        self.push_key(EventKey {
            time: SimTime(time),
            dst: Rank(dst),
            src: Rank(src),
            seq: self.seq,
        });
        self.seq += 1;
    }

    fn push_key(&mut self, key: EventKey) {
        self.oracle.push(Reverse(key));
        self.q.push(EventRec {
            key,
            action: Action::Spawn,
        });
        self.len_hwm = self.len_hwm.max(self.oracle.len());
    }

    fn pop(&mut self) -> Option<EventKey> {
        let want = self.oracle.pop().map(|r| r.0);
        assert_eq!(self.q.next_key(), want, "next_key diverged from the oracle");
        assert_eq!(
            self.q.pop().map(|e| e.key),
            want,
            "pop diverged from the oracle"
        );
        assert_eq!(self.q.len(), self.oracle.len());
        let bound = 256.max(2 * self.len_hwm.next_power_of_two()) as u64;
        let ring = self.q.stats().ring_hwm;
        assert!(
            ring <= bound,
            "{ring} buckets for {} events at most",
            self.len_hwm
        );
        want
    }

    fn drain(&mut self) {
        while self.pop().is_some() {}
    }
}

/// `lo · 2^u` for a uniform `u`: log-uniform over `[lo, lo · 2^bits)`.
fn log_uniform(g: &mut DetRng, lo: u64, bits: u64) -> u64 {
    let octave = lo << g.gen_in(0..bits);
    octave + g.gen_in(0..octave)
}

/// The queue pops exactly as the binary-heap oracle does under
/// arbitrary *interleaved* push/pop traffic — not just
/// push-all-then-pop-all. Times are drawn from three bands: a small
/// range where same-timestamp ties (broken by `(dst, src, seq)`)
/// are common, a mid band that spreads events over many slices, and a
/// far-future band that parks in the lane and comes back through
/// migrations. Each push op optionally becomes a same-time *burst*
/// whose size crosses the bounded-memmove cap, so both the in-order
/// insertion and the append-and-sort-once fallback run against the
/// oracle, interleaved with pops and geometry changes.
#[test]
fn queue_matches_oracle_under_interleaved_ops() {
    /// Deepest burst; must exceed the queue's 64-event memmove cap.
    const MAX_BURST: u64 = 1 + 48 * 2;
    let mut bucket_hwm = 0;
    for_each_case(SEED, CASES, |g| {
        let mut c = Checked::default();
        for _ in 0..g.gen_in(1..250) {
            let push = g.gen_bool();
            let t = g.gen_in(0..512);
            let (dst, src) = (g.gen_in(0..16) as u32, g.gen_in(0..16) as u32);
            let (band, burst) = (g.gen_in(0..3), g.gen_in(0..3));
            if push || c.oracle.is_empty() {
                let time = match band {
                    0 => t,
                    1 => t << 12,
                    _ => t << 40,
                };
                // A burst stacks same-(time, dst, src) events whose
                // order is decided by seq alone — deep enough to force
                // the memmove-capped path inside one bucket.
                for _ in 0..1 + 48 * burst {
                    c.push(time, dst, src);
                }
            } else {
                c.pop();
            }
        }
        c.drain();
        bucket_hwm = bucket_hwm.max(c.q.stats().bucket_hwm);
    });
    assert!(
        bucket_hwm >= MAX_BURST,
        "no case stacked a full burst in one bucket (hwm {bucket_hwm})"
    );
}

/// The campaign shape: a dense nanosecond cluster in front of sparse
/// millisecond-to-kilosecond timers, at populations from 50 to 20,000.
/// The near chain keeps dying out (one push in eight is a far timer),
/// so the ring drains to the lane again and again and every migration
/// must re-fit the width to whatever front the lane then has.
#[test]
fn queue_matches_oracle_on_campaign_shapes() {
    let mut rebuilds = 0;
    for_each_case(SEED, 24, |g| {
        let population = log_uniform(g, 50, 8).min(20_000);
        let far_one_in = g.gen_in(2..64);
        let mut c = Checked::default();
        let delta = |g: &mut DetRng| {
            if g.gen_in(0..far_one_in) == 0 {
                log_uniform(g, 1_000_000, 20)
            } else {
                g.gen_in(1..4_097)
            }
        };
        for _ in 0..population {
            let t = delta(g);
            c.push(t, g.gen_in(0..64) as u32, 0);
        }
        for _ in 0..(4 * population).min(30_000) {
            let now = c.pop().expect("hold model never empties").time.as_nanos();
            let t = now + delta(g);
            c.push(t, g.gen_in(0..64) as u32, 0);
        }
        c.drain();
        rebuilds += c.q.stats().rebuilds;
    });
    assert!(
        rebuilds > 24,
        "the lane was hardly used ({rebuilds} passes)"
    );
}

/// Floods: waves of identical timestamps whose order is decided by
/// `(dst, src, seq)` alone, pushed ascending, descending or shuffled,
/// with pops between the waves. A flood cannot be spread over slices;
/// it must sort once and pop in key order.
#[test]
fn queue_matches_oracle_on_same_time_floods() {
    for_each_case(SEED, 24, |g| {
        let mut c = Checked::default();
        let gap = [0, 1, 1_000, 1_000_000_000][g.gen_index(4)];
        let mut seq = 0;
        for wave in 0..g.gen_in(1..6) {
            let n = g.gen_in(1..3_000);
            let mut order: Vec<u64> = (0..n).collect();
            match g.gen_in(0..3) {
                0 => {}
                1 => order.reverse(),
                _ => (1..order.len())
                    .rev()
                    .for_each(|i| order.swap(i, g.gen_index(i + 1))),
            }
            for j in order {
                c.push_key(EventKey {
                    time: SimTime(wave * gap),
                    dst: Rank((j / 7) as u32),
                    src: Rank((j % 7) as u32),
                    seq: seq + j,
                });
            }
            seq += n;
            for _ in 0..g.gen_in(0..n + 1) {
                c.pop();
            }
        }
        c.drain();
    });
}

/// Lane overtaking (the PR 8 soundness bug): events parked beyond the
/// window fall inside it as the window slides, while pushes keep
/// landing between the window head and the earliest parked event —
/// before it, at exactly its time, and after it. A push that rides the
/// ring past a parked event pops out of order.
#[test]
fn queue_matches_oracle_when_the_window_slides_past_parked_events() {
    for_each_case(SEED, CASES, |g| {
        let mut c = Checked::default();
        // Where the parked events sit: from just past a 256-slice
        // window of the cluster's width to far beyond any window.
        let park = 1u64 << g.gen_in(8..40);
        for _ in 0..g.gen_in(2..400) {
            let t = g.gen_in(0..1_000);
            c.push(t, g.gen_in(0..8) as u32, 0);
        }
        for _ in 0..g.gen_in(1..40) {
            let t = park + g.gen_in(0..1_000);
            c.push(t, g.gen_in(0..8) as u32, 1);
        }
        for _ in 0..g.gen_in(1..60) {
            let mut now = 0;
            for _ in 0..g.gen_in(1..20) {
                if let Some(k) = c.pop() {
                    now = k.time.as_nanos();
                }
            }
            // Around the earliest parked event, ties with it included.
            let times = c.oracle.iter().map(|r| r.0.time.as_nanos());
            let parked = times.filter(|&t| t >= park).min();
            for _ in 0..g.gen_in(1..8) {
                let t = match (g.gen_in(0..4), parked) {
                    (0, _) | (_, None) => now + g.gen_in(0..2_000),
                    (1, Some(p)) => now + g.gen_in(0..p.saturating_sub(now) + 1),
                    (2, Some(_)) => park + g.gen_in(0..1_000),
                    (_, Some(p)) => p + g.gen_in(0..2 * park),
                };
                c.push(t, g.gen_in(0..8) as u32, 2);
            }
        }
        c.drain();
    });
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

/// Window-bound safety: with cross-rank wakes arriving after
/// `delay_us`, every lookahead in `1..=delay_us` is a safe window bound
/// — the parallel engine must reproduce the sequential oracle exactly
/// for *any* such bound, from the narrowest to the one every cross-shard
/// event lands exactly on.
#[test]
fn any_safe_static_lookahead_reproduces_the_oracle() {
    for_each_case(SEED, ENGINE_CASES, |g| {
        let opcodes = arb_opcodes(g, 1..4, 10);
        let n_ranks = g.gen_in(2..16) as usize;
        let delay_us = g.gen_in(2..8);
        let la_us = g.gen_in(1..delay_us + 1);
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
                Arc::new(random_program_with_delay(
                    opcodes.clone(),
                    n_ranks,
                    delay_us,
                )),
                &setup,
            )
            .unwrap()
        };
        let seq = run(1, EngineKind::Sequential);
        let par = run(workers, EngineKind::Parallel);
        assert_eq!(
            &par.final_clocks, &seq.final_clocks,
            "delay={delay_us}us lookahead={la_us}us"
        );
        assert_eq!(par.events_processed, seq.events_processed);
        assert_eq!(par.context_switches, seq.context_switches);
    });
}
