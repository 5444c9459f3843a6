//! Integration tests for the PDES engines, exercising the public kernel
//! API the way upper layers (xsim-mpi et al.) do.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use xsim_core::engine;
use xsim_core::event::Action;
use xsim_core::vp::{VpExit, VpFuture, VpProgram, WaitClass};
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

/// The calling thread is the first of a parallel run's threads: rank 0,
/// in shard 0, is polled on it.
#[test]
fn rank_0_is_polled_on_the_calling_thread() {
    let polled_on = Arc::new(Mutex::new(None));
    let log = polled_on.clone();
    let program = move |rank: Rank| -> VpFuture {
        let log = log.clone();
        Box::pin(async move {
            if rank.idx() == 0 {
                *log.lock().unwrap() = Some(std::thread::current().id());
            }
            ctx::sleep(SimTime::from_micros(1)).await;
            VpExit::Finished
        })
    };
    let report = engine::run(cfg(16, 2), Arc::new(program), &no_setup).unwrap();
    assert!(report.profile.windows > 0, "the parallel engine ran");
    assert_eq!(
        *polled_on.lock().unwrap(),
        Some(std::thread::current().id())
    );
}

/// Asking for more workers than the host has CPUs keeps the requested
/// shard layout, and so every result, but starts no more threads than
/// CPUs.
#[test]
fn a_run_starts_no_more_threads_than_cpus() {
    let cpus = std::thread::available_parallelism().map_or(1, |c| c.get());
    // Capped, so that a many-CPU host does not start many threads.
    let workers = (cpus + 2).min(16);
    let n = 64;
    let seq = engine::run(cfg(n, 1), Arc::new(relay_program(n)), &no_setup).unwrap();
    let par = engine::run(cfg(n, workers), Arc::new(relay_program(n)), &no_setup).unwrap();
    assert_eq!(
        par.shards.len(),
        4 * workers,
        "the shards follow the request"
    );
    let threads = par.profile.worker_busy_ns.len();
    assert!(threads <= cpus, "{threads} threads on {cpus} CPUs");
    assert_eq!(par.final_clocks, seq.final_clocks);
    assert_eq!(par.digest, seq.digest);
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

/// A setup hook wakes a middle rank at the start time. Its event,
/// keyed `(start, r, r, 1)`, queues beside the spawn run and must pop
/// right after that rank's spawn, once the rank is blocked, on every
/// engine and shard layout: the run finishes with equal digests and
/// clocks, where a wake before the spawn would leave the rank blocked
/// for good.
#[test]
fn a_setup_event_at_the_start_time_follows_its_ranks_spawn() {
    const N: usize = 13;
    const MID: usize = 6;
    let start = SimTime::from_secs(100);
    let program = |rank: Rank| -> VpFuture {
        Box::pin(async move {
            if rank.idx() == MID {
                ctx::block(WaitClass::Message, "setup wake").await;
            }
            ctx::sleep(SimTime::from_millis(1 + rank.idx() as u64)).await;
            VpExit::Finished
        })
    };
    let setup = |k: &mut Kernel| {
        let mid = Rank::new(MID);
        if k.owns(mid) {
            k.schedule_at(start, mid, Action::WakeMessage);
        }
    };
    let run = |workers, engine| {
        let c = CoreConfig {
            engine,
            start_time: start,
            ..cfg(N, workers)
        };
        engine::run(c, Arc::new(program), &setup).unwrap()
    };
    let seq = run(1, EngineKind::Auto);
    assert_eq!(seq.exit, ExitKind::Completed);
    assert_eq!(seq.events_processed, 2 * N as u64 + 1);
    let want: Vec<SimTime> = (0..N)
        .map(|r| start + SimTime::from_millis(1 + r as u64))
        .collect();
    assert_eq!(seq.final_clocks, want);
    for (workers, engine) in [
        (1, EngineKind::Parallel),
        (2, EngineKind::Auto),
        (4, EngineKind::Auto),
    ] {
        let par = run(workers, engine);
        assert_eq!(
            par.digest, seq.digest,
            "workers={workers} engine={engine:?}"
        );
        assert_eq!(par.final_clocks, seq.final_clocks, "workers={workers}");
        assert_eq!(par.events_processed, seq.events_processed);
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

/// A panic payload's message, whether `panic!` made it a `&str` or a
/// `String`.
fn message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(m) => *m,
        Err(p) => p.downcast_ref::<&str>().unwrap_or(&"").to_string(),
    }
}

/// Where [`Bomb`] panics.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Site {
    /// Rank 0's poll: Phase B on the first thread, the caller.
    FirstRank,
    /// The last rank's poll: Phase B on the last thread.
    LastRank,
    /// The setup hook of rank 0's shard: the first Phase A.
    Setup,
    /// The last `shard_handle` call of the run: a shard build, in the
    /// first Phase A of whichever thread asks last.
    Build,
}

/// A program of `ranks` ranks that panics at `site`.
struct Bomb {
    site: Site,
    ranks: usize,
    shards: usize,
    handles: AtomicU64,
}

impl Site {
    fn message(self) -> &'static str {
        match self {
            Site::FirstRank => "rank 0 blew up",
            Site::LastRank => "the last rank blew up",
            Site::Setup => "rank 0's setup blew up",
            Site::Build => "the last shard build blew up",
        }
    }
}

impl VpProgram for Bomb {
    fn spawn(&self, rank: Rank) -> VpFuture {
        let (site, last) = (self.site, rank.idx() + 1 == self.ranks);
        Box::pin(async move {
            ctx::sleep(SimTime::from_micros(10)).await;
            if (site == Site::FirstRank && rank.idx() == 0) || (site == Site::LastRank && last) {
                std::panic::panic_any(site.message());
            }
            ctx::sleep(SimTime::from_millis(1)).await;
            VpExit::Finished
        })
    }

    fn shard_handle(&self) -> Option<Arc<dyn VpProgram>> {
        let asked = self.handles.fetch_add(1, Ordering::SeqCst) + 1;
        if self.site == Site::Build && asked as usize == self.shards {
            std::panic::panic_any(self.site.message());
        }
        None
    }
}

/// A panic inside a thread's phase must come out of `engine::run` as
/// that panic, not strand the other threads at a window barrier. Runs
/// on a helper thread so that a hang is a test failure, not a stuck job.
/// Covers both phases on the first thread (the caller) and the last: a
/// VP panics while its shard executes (Phase B), a setup hook panics on
/// first touch and a shard build panics (both in the first Phase A).
#[test]
fn panic_in_a_parallel_worker_unwinds_instead_of_hanging() {
    const N: usize = 16;
    let sites = [Site::FirstRank, Site::LastRank, Site::Setup, Site::Build];
    for (workers, site) in [1, 2, 4].into_iter().flat_map(|w| sites.map(|s| (w, s))) {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let c = CoreConfig {
                engine: EngineKind::Parallel,
                ..cfg(N, workers)
            };
            let program = Bomb {
                site,
                ranks: N,
                shards: c.n_shards(),
                handles: AtomicU64::new(0),
            };
            let setup = move |k: &mut Kernel| {
                if site == Site::Setup && k.owns(Rank::new(0)) {
                    std::panic::panic_any(site.message());
                }
            };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine::run(c, Arc::new(program), &setup).map(|_| ())
            }));
            let _ = tx.send(outcome.map_err(message));
        });
        match rx.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok(Err(msg)) => assert_eq!(msg, site.message(), "workers={workers}"),
            Ok(other) => panic!("workers={workers} {site:?}: got {other:?}"),
            Err(_) => panic!("workers={workers} {site:?}: engine::run hung"),
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

/// A `Call` that wakes its destination runs to its end before the engine
/// polls the woken VP, so the VP sees what the call did after the wake.
#[test]
fn a_woken_vp_sees_what_its_waking_call_did_after_the_wake() {
    /// The ranks whose waking call has run to its end.
    struct Released(Vec<Rank>);
    let seen = Arc::new(Mutex::new(Vec::new()));
    let log = seen.clone();
    let program = move |_r: Rank| -> VpFuture {
        let log = log.clone();
        Box::pin(async move {
            ctx::with_kernel(|k, me| {
                let at = k.vp(me).clock() + SimTime::from_millis(1);
                let release = move |k: &mut Kernel| {
                    k.wake(me, at);
                    k.service_mut::<Released>().0.push(me);
                };
                k.schedule_at(at, me, Action::call(release));
            });
            ctx::block(WaitClass::Message, "released").await;
            let mine = ctx::with_kernel(|k, me| (me, k.service::<Released>().0.contains(&me)));
            log.lock().unwrap().push(mine);
            VpExit::Finished
        })
    };
    let setup = |k: &mut Kernel| k.install_service(Released(Vec::new()));
    for workers in [1, 2] {
        seen.lock().unwrap().clear();
        let report = engine::run(cfg(8, workers), Arc::new(program.clone()), &setup).unwrap();
        assert_eq!(report.exit, ExitKind::Completed);
        let mut seen = seen.lock().unwrap();
        seen.sort();
        let want: Vec<_> = (0..8).map(|r| (Rank::new(r), true)).collect();
        assert_eq!(*seen, want, "workers={workers}");
    }
}

/// A panic that unwinds out of a run — from a VP poll, from inside a
/// simulator call, or from a `Call`, on the sequential engine or on the
/// calling thread of a two-thread parallel run — releases the thread's
/// kernel slot: the next run on the same thread succeeds, and a
/// simulator call between runs finds no kernel.
#[test]
fn a_caught_panic_leaves_the_thread_ready_for_the_next_run() {
    for (site, workers) in (0..3).flat_map(|site| [(site, 1), (site, 2)]) {
        let program = move |_r: Rank| -> VpFuture {
            Box::pin(async move {
                ctx::sleep(SimTime::from_micros(10)).await;
                match site {
                    0 => panic!("blew up in a poll"),
                    1 => ctx::with_kernel(|_, _| panic!("blew up in a simulator call")),
                    _ => ctx::with_kernel(|k, me| {
                        let at = k.vp(me).clock();
                        let boom = |_: &mut Kernel| panic!("blew up in a call");
                        k.schedule_at(at, me, Action::call(boom));
                    }),
                }
                ctx::sleep(SimTime::from_micros(10)).await;
                VpExit::Finished
            })
        };
        // Every rank panics, so the calling thread's shards do too.
        let ranks = 8 * workers;
        let run = std::panic::catch_unwind(|| {
            engine::run(cfg(ranks, workers), Arc::new(program), &no_setup)
        });
        let case = format!("site {site}, workers={workers}");
        assert!(message(run.unwrap_err()).starts_with("blew up"), "{case}");
        let outside = std::panic::catch_unwind(|| ctx::with_kernel(|_, _| ()));
        assert_eq!(
            message(outside.unwrap_err()),
            "simulator call outside of a virtual process context",
            "{case}"
        );
        let report = engine::run(cfg(4, workers), Arc::new(sleepy_program), &no_setup).unwrap();
        assert_eq!(report.exit, ExitKind::Completed, "{case}");
        assert_eq!(report.final_clocks[3], SimTime::from_millis(6), "{case}");
    }
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

/// The raw-core ring of wakes (`xsim_bench::million_vp_program`): every
/// VP sleeps 10 µs, then wakes its ring successor 2 µs later, twice.
/// Its four 2¹⁶-event waves each arrive in ascending rank order behind
/// a short in-order prefix, the two wake waves with the wrap record to
/// rank 0 last, and the spawn wave is one run: the queue settles all
/// of them by run merge and sorts only the strays — 17 per sleep wave,
/// 18 per wake wave, where a whole-bucket sort took 4 × 2¹⁶.
#[test]
fn lock_step_waves_sort_only_their_strays() {
    const VPS: usize = 1 << 16;
    let program = |rank: Rank| -> VpFuture {
        Box::pin(async move {
            for _ in 0..2 {
                ctx::sleep(SimTime::from_micros(10)).await;
                let peer = Rank::new((rank.idx() + 1) % VPS);
                ctx::with_kernel(|k, me| {
                    let t = k.vp(me).clock() + SimTime::from_micros(2);
                    k.schedule_at(t, peer, Action::WakeMessage);
                });
            }
            VpExit::Finished
        })
    };
    let report = engine::run(cfg(VPS, 1), Arc::new(program), &no_setup).unwrap();
    assert_eq!(report.events_processed, 5 * VPS as u64);
    assert_eq!(report.profile.queue_sorted, 2 * 17 + 2 * 18);
}

/// Records, from inside `spawn`, how many strong handles on it exist.
struct CountingProgram {
    me: Weak<CountingProgram>,
    seen: Mutex<Vec<usize>>,
}

impl VpProgram for CountingProgram {
    fn spawn(&self, _rank: Rank) -> VpFuture {
        self.seen.lock().unwrap().push(self.me.strong_count());
        Box::pin(async {
            ctx::sleep(SimTime::from_micros(1)).await;
            VpExit::Finished
        })
    }
}

/// A spawn clones no handle on the program: seen from inside `spawn`,
/// its strong count is the count at run start plus one handle per shard
/// (a program without its own [`VpProgram::shard_handle`] is shared),
/// for every rank, and never one more.
#[test]
fn a_spawn_adds_no_refcount_traffic() {
    const N: usize = 64;
    for (workers, engine_kind) in [(1, EngineKind::Sequential), (2, EngineKind::Parallel)] {
        let program = Arc::new_cyclic(|me| CountingProgram {
            me: me.clone(),
            seen: Mutex::default(),
        });
        let handle: Arc<dyn VpProgram> = program.clone();
        let at_start = Arc::strong_count(&program);
        let c = CoreConfig {
            engine: engine_kind,
            ..cfg(N, workers)
        };
        let shard_handles = if c.use_parallel() { c.n_shards() } else { 0 };
        engine::run(c, handle, &no_setup).unwrap();
        let seen = program.seen.lock().unwrap();
        assert_eq!(seen.len(), N);
        assert!(
            seen.iter().all(|&n| n == at_start + shard_handles),
            "workers={workers}: strong counts {seen:?}, want {} each",
            at_start + shard_handles
        );
    }
}
