//! Integration tests for the PDES engines, exercising the public kernel
//! API the way upper layers (xsim-mpi et al.) do.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use xsim_core::engine;
use xsim_core::event::Action;
use xsim_core::vp::{VpExit, VpFuture, WaitClass};
use xsim_core::{ctx, CoreConfig, EngineKind, ExitKind, Kernel, Rank, SimError, SimTime};

fn cfg(n: usize, workers: usize) -> CoreConfig {
    CoreConfig {
        n_ranks: n,
        workers,
        lookahead: SimTime::from_micros(1),
        ..Default::default()
    }
}

fn no_setup(_: &mut Kernel) {}

/// Every VP sleeps an amount derived from its rank and finishes.
fn sleepy_program(rank: Rank) -> VpFuture {
    Box::pin(async move {
        ctx::sleep(SimTime::from_millis(1 + rank.idx() as u64)).await;
        ctx::sleep(SimTime::from_millis(2)).await;
        VpExit::Finished
    })
}

#[test]
fn sleeps_advance_clocks_deterministically() {
    let report = engine::run(cfg(8, 1), Arc::new(sleepy_program), &no_setup).unwrap();
    assert_eq!(report.exit, ExitKind::Completed);
    for r in 0..8 {
        assert_eq!(
            report.final_clocks[r],
            SimTime::from_millis(3 + r as u64),
            "rank {r}"
        );
    }
    assert_eq!(report.timing.min, SimTime::from_millis(3));
    assert_eq!(report.timing.max, SimTime::from_millis(10));
}

#[test]
fn start_time_offsets_all_clocks() {
    let mut c = cfg(4, 1);
    c.start_time = SimTime::from_secs(100);
    let report = engine::run(c, Arc::new(sleepy_program), &no_setup).unwrap();
    assert_eq!(
        report.final_clocks[0],
        SimTime::from_secs(100) + SimTime::from_millis(3)
    );
}

/// A relay chain: rank 0 wakes rank 1, which wakes rank 2, … Each hop adds
/// one hop-delay. Exercises cross-rank (and, with workers > 1,
/// cross-shard) event scheduling.
fn relay_program(n: usize) -> impl Fn(Rank) -> VpFuture + Send + Sync {
    move |rank: Rank| {
        let n = n;
        Box::pin(async move {
            let hop = SimTime::from_micros(5);
            if rank.idx() == 0 {
                ctx::with_kernel(|k, r| {
                    let t = k.vp(r).clock() + hop;
                    k.schedule_at(t, Rank::new(1), Action::WakeMessage);
                });
            } else {
                ctx::block(WaitClass::Message, "relay wait").await;
                if rank.idx() + 1 < n {
                    let next = Rank::new(rank.idx() + 1);
                    ctx::with_kernel(|k, r| {
                        let t = k.vp(r).clock() + hop;
                        k.schedule_at(t, next, Action::WakeMessage);
                    });
                }
            }
            VpExit::Finished
        }) as VpFuture
    }
}

#[test]
fn relay_chain_accumulates_hop_latency() {
    let n = 16;
    let report = engine::run(cfg(n, 1), Arc::new(relay_program(n)), &no_setup).unwrap();
    for r in 1..n {
        assert_eq!(
            report.final_clocks[r],
            SimTime::from_micros(5 * r as u64),
            "rank {r}"
        );
    }
}

#[test]
fn parallel_engine_matches_sequential() {
    let n = 32;
    let seq = engine::run(cfg(n, 1), Arc::new(relay_program(n)), &no_setup).unwrap();
    for workers in [2, 3, 7] {
        let par = engine::run(cfg(n, workers), Arc::new(relay_program(n)), &no_setup).unwrap();
        assert_eq!(par.final_clocks, seq.final_clocks, "workers={workers}");
        assert_eq!(par.exit, seq.exit);
    }
}

#[test]
fn forced_parallel_single_worker_matches_sequential() {
    // EngineKind::Parallel with workers=1 runs the full parallel code
    // path (windows, exchange batching) without concurrency — the
    // middle leg of every differential comparison.
    let n = 16;
    let seq = engine::run(cfg(n, 1), Arc::new(relay_program(n)), &no_setup).unwrap();
    let par = engine::run(
        CoreConfig {
            engine: EngineKind::Parallel,
            ..cfg(n, 1)
        },
        Arc::new(relay_program(n)),
        &no_setup,
    )
    .unwrap();
    assert_eq!(par.final_clocks, seq.final_clocks);
    assert_eq!(par.events_processed, seq.events_processed);
    assert_eq!(par.context_switches, seq.context_switches);
    assert_eq!(par.exit, seq.exit);
    assert!(par.profile.windows > 0, "parallel path actually ran");
    assert_eq!(par.shards.len(), 4, "the middle leg is multi-shard");
    assert_eq!(seq.profile.windows, 0, "sequential profile is empty");
}

/// Every rank > 0 schedules two `Call` events to rank 0, all at the
/// *same* absolute virtual time, each appending its rank to a shared
/// log. The log order observed on rank 0 is therefore purely the
/// same-timestamp tie-break `(dst, src, seq)` — identical across
/// engines and shard counts or the exchange batching reordered ties.
fn collide_program(log: Arc<Mutex<Vec<u64>>>) -> impl Fn(Rank) -> VpFuture + Send + Sync {
    move |rank: Rank| {
        let log = log.clone();
        Box::pin(async move {
            assert_eq!(ctx::lookahead(), SimTime::from_micros(1));
            if rank.idx() > 0 {
                for _ in 0..2 {
                    let log = log.clone();
                    let r = rank.idx() as u64;
                    ctx::with_kernel(move |k, _| {
                        k.schedule_at(
                            SimTime::from_millis(1),
                            Rank::new(0),
                            Action::call(move |_k: &mut Kernel| {
                                log.lock().unwrap().push(r);
                            }),
                        );
                    });
                }
            }
            VpExit::Finished
        }) as VpFuture
    }
}

#[test]
fn colliding_timestamps_across_shards_keep_tie_order() {
    let n = 9;
    let expected: Vec<u64> = (1..n as u64).flat_map(|r| [r, r]).collect();
    for (workers, engine_kind) in [
        (1, EngineKind::Auto),
        (1, EngineKind::Parallel),
        (2, EngineKind::Auto),
        (4, EngineKind::Auto),
        (8, EngineKind::Auto),
    ] {
        let log = Arc::new(Mutex::new(Vec::new()));
        let c = CoreConfig {
            engine: engine_kind,
            ..cfg(n, workers)
        };
        let report = engine::run(c, Arc::new(collide_program(log.clone())), &no_setup).unwrap();
        assert_eq!(report.exit, ExitKind::Completed);
        assert_eq!(
            *log.lock().unwrap(),
            expected,
            "tie order broke at workers={workers} engine={engine_kind:?}"
        );
    }
}

#[test]
fn adaptive_lookahead_reduces_windows_preserving_results() {
    // sleepy_program's wakes are spread 1 ms apart; with a 1 µs
    // lookahead every distinct wake time needs its own window, while a
    // 5 ms lookahead lets one window swallow several. Results must not
    // change — a larger (still safe) lookahead only widens windows.
    let n = 8;
    let static_run = engine::run(cfg(n, 4), Arc::new(sleepy_program), &no_setup).unwrap();
    let adaptive = CoreConfig {
        lookahead: SimTime::from_millis(5),
        ..cfg(n, 4)
    };
    let adaptive_run = engine::run(adaptive, Arc::new(sleepy_program), &no_setup).unwrap();
    assert_eq!(adaptive_run.final_clocks, static_run.final_clocks);
    assert_eq!(adaptive_run.events_processed, static_run.events_processed);
    assert!(adaptive_run.profile.windows > 0);
    assert!(
        adaptive_run.profile.windows < static_run.profile.windows,
        "wider windows must mean fewer synchronizations: {} >= {}",
        adaptive_run.profile.windows,
        static_run.profile.windows
    );
}

#[test]
fn adaptive_lookahead_handles_events_on_the_window_bound() {
    // Relay hop (5 µs) exactly equals the lookahead: every
    // cross-shard event lands precisely on the receiver's exclusive
    // window bound — the off-by-one edge of the conservative argument.
    let n = 16;
    let seq = engine::run(cfg(n, 1), Arc::new(relay_program(n)), &no_setup).unwrap();
    let c = CoreConfig {
        lookahead: SimTime::from_micros(5),
        ..cfg(n, 4)
    };
    let par = engine::run(c, Arc::new(relay_program(n)), &no_setup).unwrap();
    assert_eq!(par.final_clocks, seq.final_clocks);
    assert_eq!(par.events_processed, seq.events_processed);
}

#[test]
fn blocked_vp_without_events_is_a_deadlock() {
    let program = |_rank: Rank| -> VpFuture {
        Box::pin(async move {
            ctx::block(WaitClass::Message, "recv that never matches").await;
            VpExit::Finished
        })
    };
    let err = engine::run(cfg(2, 1), Arc::new(program), &no_setup).unwrap_err();
    match err {
        SimError::Deadlock(d) => {
            assert!(d.contains("recv that never matches"), "diagnosis: {d}");
            assert!(d.contains("2 of 2"));
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn failure_activates_at_next_clock_update() {
    // Rank 1 computes in 10 ms slices; a failure scheduled at t=25 ms must
    // activate at the *end* of the slice in progress, i.e. t=30 ms
    // (paper §IV-B: scheduled time is the earliest time of failure).
    let program = |rank: Rank| -> VpFuture {
        Box::pin(async move {
            for _ in 0..10 {
                ctx::sleep(SimTime::from_millis(10)).await;
            }
            let _ = rank;
            VpExit::Finished
        })
    };
    let setup = |k: &mut Kernel| {
        k.set_time_of_failure(Rank::new(1), SimTime::from_millis(25));
    };
    let report = engine::run(cfg(2, 1), Arc::new(program), &setup).unwrap();
    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.failures[0].rank, Rank::new(1));
    assert_eq!(report.failures[0].scheduled, SimTime::from_millis(25));
    assert_eq!(report.failures[0].actual, SimTime::from_millis(30));
    assert_eq!(report.final_clocks[1], SimTime::from_millis(30));
    // Rank 0 is unaffected (no MPI layer here to propagate anything).
    assert_eq!(report.final_clocks[0], SimTime::from_millis(100));
    assert_eq!(report.exit, ExitKind::FailedOnly);
}

#[test]
fn failure_at_time_zero_kills_at_spawn() {
    let program = |_r: Rank| -> VpFuture {
        Box::pin(async move {
            ctx::sleep(SimTime::from_secs(1)).await;
            VpExit::Finished
        })
    };
    let setup = |k: &mut Kernel| {
        k.set_time_of_failure(Rank::new(0), SimTime::ZERO);
    };
    let report = engine::run(cfg(1, 1), Arc::new(program), &setup).unwrap();
    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.failures[0].actual, SimTime::ZERO);
}

#[test]
fn fail_now_terminates_the_caller() {
    let program = |rank: Rank| -> VpFuture {
        Box::pin(async move {
            ctx::sleep(SimTime::from_millis(5)).await;
            if rank.idx() == 0 {
                ctx::fail_now().await
            }
            ctx::sleep(SimTime::from_millis(5)).await;
            VpExit::Finished
        })
    };
    let report = engine::run(cfg(2, 1), Arc::new(program), &no_setup).unwrap();
    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.failures[0].rank, Rank::new(0));
    assert_eq!(report.failures[0].actual, SimTime::from_millis(5));
    assert_eq!(report.final_clocks[1], SimTime::from_millis(10));
}

#[test]
fn fail_hooks_observe_failures() {
    let seen = Arc::new(AtomicU64::new(0));
    let program = |rank: Rank| -> VpFuture {
        Box::pin(async move {
            ctx::sleep(SimTime::from_millis(rank.idx() as u64 + 1)).await;
            VpExit::Finished
        })
    };
    let seen2 = seen.clone();
    let setup = move |k: &mut Kernel| {
        let seen = seen2.clone();
        k.add_fail_hook(Arc::new(move |_k, rank, time| {
            seen.fetch_add(
                rank.idx() as u64 * 1_000_000 + time.as_nanos() / 1_000_000,
                Ordering::Relaxed,
            );
        }));
        k.set_time_of_failure(Rank::new(3), SimTime::from_millis(2));
    };
    let report = engine::run(cfg(4, 1), Arc::new(program), &setup).unwrap();
    assert_eq!(report.failures.len(), 1);
    // rank 3 fails at its first clock update, t = 4 ms.
    assert_eq!(seen.load(Ordering::Relaxed), 3_000_000 + 4);
}

#[test]
fn program_reported_failure_counts() {
    // Returning VpExit::Failed models "returning from main() without
    // having called MPI_Finalize()" (paper §IV-B).
    let program = |rank: Rank| -> VpFuture {
        Box::pin(async move {
            ctx::sleep(SimTime::from_millis(1)).await;
            if rank.idx() == 1 {
                VpExit::Failed
            } else {
                VpExit::Finished
            }
        })
    };
    let report = engine::run(cfg(2, 1), Arc::new(program), &no_setup).unwrap();
    assert_eq!(report.exit, ExitKind::FailedOnly);
    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.failures[0].rank, Rank::new(1));
}

#[test]
fn abort_activation_stops_computation() {
    let program = |_r: Rank| -> VpFuture {
        Box::pin(async move {
            for _ in 0..100 {
                ctx::sleep(SimTime::from_millis(1)).await;
            }
            VpExit::Finished
        })
    };
    let setup = |k: &mut Kernel| {
        k.set_abort_at(Rank::new(0), SimTime::from_millis(10));
        k.set_abort_at(Rank::new(1), SimTime::from_millis(10));
    };
    let report = engine::run(cfg(2, 1), Arc::new(program), &setup).unwrap();
    assert_eq!(report.exit, ExitKind::Aborted);
    assert_eq!(report.final_clocks[0], SimTime::from_millis(10));
    assert_eq!(report.abort_time, Some(SimTime::from_millis(10)));
}

#[test]
fn event_budget_is_enforced() {
    let program = |_r: Rank| -> VpFuture {
        Box::pin(async move {
            loop {
                ctx::sleep(SimTime::from_nanos(100)).await;
            }
        })
    };
    let mut c = cfg(1, 1);
    c.max_events = 1000;
    let err = engine::run(c, Arc::new(program), &no_setup).unwrap_err();
    assert!(matches!(err, SimError::EventBudgetExceeded { .. }));
}

/// A panic inside a worker's phase must come out of `engine::run` as
/// that panic, not strand the other workers at a window barrier. Runs
/// on a helper thread so that a hang is a test failure, not a stuck job.
/// Covers both phases: a VP panics while its shard executes (Phase B),
/// and a setup hook panics on first touch (Phase A).
#[test]
fn panic_in_a_parallel_worker_unwinds_instead_of_hanging() {
    for (workers, in_setup) in [1, 2, 4].into_iter().flat_map(|w| [(w, false), (w, true)]) {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let program = move |rank: Rank| -> VpFuture {
                Box::pin(async move {
                    ctx::sleep(SimTime::from_micros(10)).await;
                    if rank.idx() == 0 && !in_setup {
                        panic!("rank 0 blew up");
                    }
                    ctx::sleep(SimTime::from_millis(1)).await;
                    VpExit::Finished
                })
            };
            let setup = move |k: &mut Kernel| {
                if in_setup && k.owns(Rank::new(0)) {
                    panic!("rank 0 blew up");
                }
            };
            let c = CoreConfig {
                engine: EngineKind::Parallel,
                ..cfg(16, workers)
            };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine::run(c, Arc::new(program), &setup).map(|_| ())
            }));
            let _ = tx.send(outcome.map_err(|p| p.downcast_ref::<&str>().map(|m| m.to_string())));
        });
        match rx.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok(Err(Some(msg))) => assert_eq!(msg, "rank 0 blew up"),
            Ok(other) => panic!("workers={workers} in_setup={in_setup}: got {other:?}"),
            Err(_) => panic!("workers={workers} in_setup={in_setup}: engine::run hung"),
        }
    }
}

#[test]
fn services_are_reachable_from_vps() {
    struct Tally(u64);
    let program = |_r: Rank| -> VpFuture {
        Box::pin(async move {
            ctx::with_kernel(|k, _| k.service_mut::<Tally>().0 += 1);
            VpExit::Finished
        })
    };
    let out = Arc::new(AtomicU64::new(0));
    let out2 = out.clone();
    let setup = move |k: &mut Kernel| {
        k.install_service(Tally(0));
        let out = out2.clone();
        // Observe the tally at shutdown via a far-future event? Simpler:
        // VPs bump an Arc-backed counter through the service at exit.
        let _ = &out;
    };
    let _ = engine::run(cfg(4, 1), Arc::new(program), &setup).unwrap();
    // The run completing without panic proves service access worked; a
    // stronger cross-checking test lives in the MPI layer.
}

#[test]
fn resume_counts_are_reported() {
    let report = engine::run(cfg(4, 1), Arc::new(sleepy_program), &no_setup).unwrap();
    // Each VP: spawn + 2 sleep completions = 3 resumes.
    assert_eq!(report.context_switches, 12);
    assert!(report.events_processed >= 12);
}

#[test]
fn fail_blocked_mode_kills_blocked_vps() {
    // Strict paper semantics: a VP blocked on communication never
    // activates its failure (it would deadlock here). The eager
    // extension (`fail_blocked`) activates it at the scheduled time.
    let program = |rank: Rank| -> VpFuture {
        Box::pin(async move {
            if rank.idx() == 0 {
                ctx::block(WaitClass::Message, "recv that never matches").await;
            } else {
                ctx::sleep(SimTime::from_secs(1)).await;
            }
            VpExit::Finished
        })
    };
    // Strict mode: deadlock (rank 0 never dies, nobody wakes it).
    let mut strict = cfg(2, 1);
    strict.fail_blocked = false;
    let setup = |k: &mut Kernel| {
        k.set_time_of_failure(Rank::new(0), SimTime::from_millis(100));
    };
    let err = engine::run(strict, Arc::new(program), &setup).unwrap_err();
    assert!(matches!(err, SimError::Deadlock(_)));

    // Eager mode: the failure activates at its scheduled time even
    // though the VP is blocked.
    let mut eager = cfg(2, 1);
    eager.fail_blocked = true;
    let report = engine::run(eager, Arc::new(program), &setup).unwrap();
    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.failures[0].actual, SimTime::from_millis(100));
    assert_eq!(report.final_clocks[0], SimTime::from_millis(100));
}

#[test]
fn fail_blocked_does_not_interrupt_compute() {
    // Even in eager mode, a computing VP keeps the paper's activation
    // rule: the failure lands at the end of the compute slice.
    let program = |_r: Rank| -> VpFuture {
        Box::pin(async move {
            ctx::sleep(SimTime::from_secs(10)).await;
            VpExit::Finished
        })
    };
    let mut c = cfg(1, 1);
    c.fail_blocked = true;
    let setup = |k: &mut Kernel| {
        k.set_time_of_failure(Rank::new(0), SimTime::from_secs(3));
    };
    let report = engine::run(c, Arc::new(program), &setup).unwrap();
    assert_eq!(report.failures[0].actual, SimTime::from_secs(10));
}

#[test]
fn yield_now_preserves_clock_and_interleaves() {
    let program = |_r: Rank| -> VpFuture {
        Box::pin(async move {
            let before = ctx::now();
            ctx::yield_now().await;
            assert_eq!(ctx::now(), before, "yield must not advance the clock");
            ctx::sleep(SimTime::from_millis(1)).await;
            VpExit::Finished
        })
    };
    let report = engine::run(cfg(4, 1), Arc::new(program), &no_setup).unwrap();
    assert_eq!(report.exit, ExitKind::Completed);
}

#[test]
fn arm_wait_and_prearmed_block_round_trip() {
    // arm_wait + block_prearmed is the two-phase wait upper layers use
    // when they must schedule the wake before suspending.
    let program = |_r: Rank| -> VpFuture {
        Box::pin(async move {
            let token = ctx::arm_wait(WaitClass::Compute, "two-phase");
            ctx::with_kernel(|k, me| {
                let at = k.vp(me).clock() + SimTime::from_millis(7);
                k.schedule_at(at, me, Action::WakeToken(token));
            });
            let woke_at = ctx::block_prearmed(token).await;
            assert_eq!(woke_at, SimTime::from_millis(7));
            VpExit::Finished
        })
    };
    let report = engine::run(cfg(1, 1), Arc::new(program), &no_setup).unwrap();
    assert_eq!(report.final_clocks[0], SimTime::from_millis(7));
}

#[test]
fn stale_wake_tokens_are_ignored() {
    // A wake scheduled for an old wait must not disturb a newer one.
    let program = |_r: Rank| -> VpFuture {
        Box::pin(async move {
            // Arm a wait, schedule its wake far in the future, then
            // abandon it by re-arming (sleep creates a fresh token).
            let stale = ctx::arm_wait(WaitClass::Compute, "stale");
            ctx::with_kernel(|k, me| {
                k.schedule_at(SimTime::from_millis(1), me, Action::WakeToken(stale));
                // Un-block manually so we can continue (the test then
                // enters a real sleep whose token differs).
                k.vp_mut(me).set_state(xsim_core::vp::VpState::Running);
            });
            ctx::sleep(SimTime::from_millis(10)).await;
            // The stale wake at t=1ms must not have ended the 10ms sleep.
            assert_eq!(ctx::now(), SimTime::from_millis(10));
            VpExit::Finished
        })
    };
    let report = engine::run(cfg(1, 1), Arc::new(program), &no_setup).unwrap();
    assert_eq!(report.final_clocks[0], SimTime::from_millis(10));
}

#[test]
fn early_released_sleep_reblocks_on_its_token_until_the_deadline() {
    // Two `Call`s wake a 10 ms sleep early, at 3 and 5 ms. Each time the
    // sleep must re-block as a compute wait under the same token (so the
    // wake scheduled for its deadline still matches) and finally resume
    // exactly at 10 ms.
    let waits = Arc::new(Mutex::new(Vec::new()));
    let seen = waits.clone();
    let program = move |_r: Rank| -> VpFuture {
        let seen = seen.clone();
        Box::pin(async move {
            ctx::with_kernel(|k, me| {
                for at in [SimTime::from_millis(3), SimTime::from_millis(5)] {
                    let seen = seen.clone();
                    let release = move |k: &mut Kernel| {
                        let vp = k.vp(me);
                        seen.lock()
                            .unwrap()
                            .push((vp.wait_class(), vp.wait_token()));
                        k.wake(me, at);
                    };
                    k.schedule_at(at, me, Action::call(release));
                }
            });
            ctx::sleep(SimTime::from_millis(10)).await;
            assert_eq!(ctx::now(), SimTime::from_millis(10));
            VpExit::Finished
        })
    };
    let report = engine::run(cfg(1, 1), Arc::new(program), &no_setup).unwrap();
    assert_eq!(report.exit, ExitKind::Completed);
    assert_eq!(report.final_clocks[0], SimTime::from_millis(10));
    let waits = waits.lock().unwrap();
    assert_eq!(waits.len(), 2);
    assert_eq!(waits[0].0, WaitClass::Compute);
    assert_eq!(waits[0], waits[1], "the re-blocked sleep kept its token");
}

#[test]
fn report_summary_mentions_key_facts() {
    let report = engine::run(cfg(2, 1), Arc::new(sleepy_program), &no_setup).unwrap();
    let s = report.summary();
    assert!(s.contains("Completed"), "{s}");
    assert!(s.contains("events"), "{s}");
}

#[test]
fn start_time_failure_schedule_interacts() {
    // A failure scheduled before the start time activates immediately at
    // spawn (clock already past it) — the restart-continuation edge.
    let program = |_r: Rank| -> VpFuture {
        Box::pin(async move {
            ctx::sleep(SimTime::from_secs(1)).await;
            VpExit::Finished
        })
    };
    let mut c = cfg(1, 1);
    c.start_time = SimTime::from_secs(100);
    let setup = |k: &mut Kernel| {
        k.set_time_of_failure(Rank::new(0), SimTime::from_secs(50));
    };
    let report = engine::run(c, Arc::new(program), &setup).unwrap();
    assert_eq!(report.failures[0].actual, SimTime::from_secs(100));
}
