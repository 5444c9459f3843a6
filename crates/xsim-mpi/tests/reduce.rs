//! Reductions fold on the wire bytes; these tests hold them to a
//! reference decode-and-fold in the documented order, bit for bit: a
//! member's own data first, then its children — at a linear root every
//! other member in rank order, in a binomial tree the children in
//! increasing bit order. The `f64` values (1e16, 1, −1e16) make a sum
//! depend on that order, and the `u64` values wrap; signed zeros and
//! NaNs make `f64` `Min` and `Max` depend on the argument order inside
//! each fold step.
//!
//! Every run also yields its [`Timing`] — run digest, event count and
//! exit time — and `collective_schedules_are_pinned` holds broadcast,
//! reduce, allreduce and barrier to the values the composed
//! `recv`/`send` futures produced, so a reordered post, overhead sleep or
//! `coll_begin` fails here, not only in the benchmark's golden file.

use std::sync::{Arc, Mutex};
use xsim_core::{Bytes, SimTime};
use xsim_mpi::collective::{self, ReduceOp, COLL_TAG_BASE};
use xsim_mpi::{p2p, CollAlgo, CommId, MpiError, RunReport, SimBuilder};
use xsim_net::NetModel;

const SIZES: [usize; 8] = [1, 2, 3, 5, 7, 12, 33, 64];
const OPS: [ReduceOp; 4] = [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max, ReduceOp::Prod];
const LEN: usize = 3;

fn f64_data(rank: usize) -> Vec<f64> {
    const VALS: [f64; 3] = [1e16, 1.0, -1e16];
    (0..LEN).map(|j| VALS[(rank + j) % 3]).collect()
}

fn u64_data(rank: usize) -> Vec<u64> {
    (0..LEN)
        .map(|j| u64::MAX - ((rank * 7 + j) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect()
}

fn fold_f64(op: ReduceOp, a: f64, b: f64) -> f64 {
    match op {
        ReduceOp::Sum => a + b,
        ReduceOp::Min => a.min(b),
        ReduceOp::Max => a.max(b),
        ReduceOp::Prod => a * b,
    }
}

fn fold_u64(op: ReduceOp, a: u64, b: u64) -> u64 {
    match op {
        ReduceOp::Sum => a.wrapping_add(b),
        ReduceOp::Min => a.min(b),
        ReduceOp::Max => a.max(b),
        ReduceOp::Prod => a.wrapping_mul(b),
    }
}

/// The members `me` receives from, in fold order.
fn children(algo: CollAlgo, me: usize, root: usize, size: usize) -> Vec<usize> {
    match algo {
        CollAlgo::Linear if me == root => (0..size).filter(|&r| r != root).collect(),
        CollAlgo::Linear => Vec::new(),
        CollAlgo::Tree => {
            let vrank = (me + size - root) % size;
            let lowbit = if vrank == 0 {
                size.next_power_of_two()
            } else {
                vrank & vrank.wrapping_neg()
            };
            let mut out = Vec::new();
            let mut bit = 1;
            while bit < lowbit && bit < size {
                if vrank | bit < size {
                    out.push(((vrank | bit) + root) % size);
                }
                bit <<= 1;
            }
            out
        }
    }
}

/// Decode-and-fold reference: a member's value is its own data folded
/// with each child's value in order.
fn reference<T: Copy>(
    algo: CollAlgo,
    me: usize,
    root: usize,
    size: usize,
    data: &impl Fn(usize) -> Vec<T>,
    fold: &impl Fn(T, T) -> T,
) -> Vec<T> {
    let mut acc = data(me);
    for child in children(algo, me, root, size) {
        let other = reference(algo, child, root, size, data, fold);
        for (a, b) in acc.iter_mut().zip(other) {
            *a = fold(*a, b);
        }
    }
    acc
}

/// One result row: `(rank, op index, f64 bits, u64 values)`.
type Row = (usize, usize, Vec<u64>, Vec<u64>);

/// What a run's schedule leaves behind: `(run digest, events executed,
/// exit time in ns)`.
type Timing = (u64, u64, u64);

fn timing(report: &RunReport) -> Timing {
    (
        report.sim.digest,
        report.sim.events_processed,
        report.exit_time().as_nanos(),
    )
}

/// Every op's reduce to `root` (`root = None`: allreduce) on `size`
/// ranks, through the `algo` variants of the free functions.
fn run(algo: CollAlgo, size: usize, root: Option<usize>) -> (Vec<Row>, Timing) {
    let rows: Arc<Mutex<Vec<Row>>> = Arc::default();
    let sink = rows.clone();
    let report = SimBuilder::new(size)
        .net(NetModel::small(size))
        .run_app(move |mpi| {
            let sink = sink.clone();
            async move {
                let w = CommId::WORLD;
                let (fd, ud) = (f64_data(mpi.rank), u64_data(mpi.rank));
                for (i, op) in OPS.into_iter().enumerate() {
                    let (f, u) = match (algo, root) {
                        (CollAlgo::Linear, Some(root)) => (
                            collective::reduce_f64(w, root, &fd, op).await?,
                            collective::reduce_u64(w, root, &ud, op).await?,
                        ),
                        (CollAlgo::Tree, Some(root)) => (
                            collective::reduce_f64_tree(w, root, &fd, op).await?,
                            collective::reduce_u64_tree(w, root, &ud, op).await?,
                        ),
                        (CollAlgo::Linear, None) => (
                            Some(collective::allreduce_f64(w, &fd, op).await?),
                            Some(collective::allreduce_u64(w, &ud, op).await?),
                        ),
                        (CollAlgo::Tree, None) => (
                            Some(collective::allreduce_f64_tree(w, &fd, op).await?),
                            Some(collective::allreduce_u64_tree(w, &ud, op).await?),
                        ),
                    };
                    assert_eq!(f.is_some(), u.is_some());
                    if let (Some(f), Some(u)) = (f, u) {
                        let bits = f.iter().map(|x| x.to_bits()).collect();
                        sink.lock().unwrap().push((mpi.rank, i, bits, u));
                    }
                }
                mpi.finalize();
                Ok(())
            }
        })
        .expect("reduce run");
    let mut rows = std::mem::take(&mut *rows.lock().unwrap());
    rows.sort();
    (rows, timing(&report))
}

fn check(algo: CollAlgo, size: usize, root: Option<usize>) -> Timing {
    let (rows, timing) = run(algo, size, root);
    let holders: Vec<usize> = match root {
        Some(r) => vec![r],
        None => (0..size).collect(),
    };
    assert_eq!(
        rows.len(),
        holders.len() * OPS.len(),
        "{algo:?} {size} {root:?}"
    );
    // An allreduce is a reduce to rank 0 and a broadcast of its bytes.
    let at = root.unwrap_or(0);
    for (rank, i, bits, u) in rows {
        assert!(holders.contains(&rank));
        let op = OPS[i];
        let want_f = reference(algo, at, at, size, &f64_data, &|a, b| fold_f64(op, a, b));
        let want_u = reference(algo, at, at, size, &u64_data, &|a, b| fold_u64(op, a, b));
        let want_bits: Vec<u64> = want_f.iter().map(|x| x.to_bits()).collect();
        assert_eq!(
            bits, want_bits,
            "f64 {op:?} {algo:?} size {size} root {root:?} rank {rank}"
        );
        assert_eq!(
            u, want_u,
            "u64 {op:?} {algo:?} size {size} root {root:?} rank {rank}"
        );
    }
    timing
}

#[test]
fn reduce_matches_reference_fold_bit_for_bit() {
    for algo in [CollAlgo::Linear, CollAlgo::Tree] {
        for size in SIZES {
            let mut roots = vec![size - 1, size / 2];
            roots.dedup();
            for root in roots {
                check(algo, size, Some(root));
            }
        }
    }
}

#[test]
fn allreduce_matches_reference_fold_bit_for_bit() {
    for algo in [CollAlgo::Linear, CollAlgo::Tree] {
        for size in SIZES {
            check(algo, size, None);
        }
    }
}

#[test]
fn the_order_matters_for_these_values() {
    // Guard against a data set on which every order agrees: rank order
    // and tree order give different f64 sums at 12 ranks.
    let sum = |a: f64, b: f64| a + b;
    let linear = reference(CollAlgo::Linear, 0, 0, 12, &f64_data, &sum);
    let tree = reference(CollAlgo::Tree, 0, 0, 12, &f64_data, &sum);
    assert_ne!(linear, tree);
}

/// Signed zeros and NaNs of either sign and two payloads. For these
/// pairs `f64` `Min` and `Max` return one operand or the other by
/// position, so only a fold that keeps `op(own, acc)` for a member's own
/// data and `op(acc, child)` for each further child matches the
/// reference bit for bit.
const EDGE: [f64; 5] = [
    0.0,
    -0.0,
    f64::NAN,
    -f64::NAN,
    f64::from_bits(0x7ff8_0000_0000_0001),
];

fn edge_data(rank: usize) -> Vec<f64> {
    (0..EDGE.len())
        .map(|j| EDGE[(rank + j) % EDGE.len()])
        .collect()
}

fn to_bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A member and the bits of the result it holds.
type EdgeRow = (usize, Vec<u64>);

/// The [`EdgeRow`] of every member holding a result of one `f64` reduce
/// to `root` (`None`: allreduce) of [`edge_data`].
fn run_edge(algo: CollAlgo, size: usize, root: Option<usize>, op: ReduceOp) -> Vec<EdgeRow> {
    let rows: Arc<Mutex<Vec<EdgeRow>>> = Arc::default();
    let sink = rows.clone();
    SimBuilder::new(size)
        .net(NetModel::small(size))
        .run_app(move |mpi| {
            let sink = sink.clone();
            async move {
                let (w, data) = (CommId::WORLD, edge_data(mpi.rank));
                let out = match (algo, root) {
                    (CollAlgo::Linear, Some(root)) => {
                        collective::reduce_f64(w, root, &data, op).await?
                    }
                    (CollAlgo::Tree, Some(root)) => {
                        collective::reduce_f64_tree(w, root, &data, op).await?
                    }
                    (CollAlgo::Linear, None) => {
                        Some(collective::allreduce_f64(w, &data, op).await?)
                    }
                    (CollAlgo::Tree, None) => {
                        Some(collective::allreduce_f64_tree(w, &data, op).await?)
                    }
                };
                if let Some(out) = out {
                    sink.lock().unwrap().push((mpi.rank, to_bits(&out)));
                }
                mpi.finalize();
                Ok(())
            }
        })
        .expect("reduce run");
    let mut rows = std::mem::take(&mut *rows.lock().unwrap());
    rows.sort();
    rows
}

#[test]
fn min_max_keep_the_fold_order_on_signed_zeros_and_nans() {
    for op in [ReduceOp::Min, ReduceOp::Max] {
        let fold = |a, b| fold_f64(op, a, b);
        let swapped = |a, b| fold_f64(op, b, a);
        for algo in [CollAlgo::Linear, CollAlgo::Tree] {
            // From 3 members on, a node has a second child: both the
            // own-first and the child-first fold run.
            for size in [2, 3, 4, 5] {
                for root in [Some(size - 1), None] {
                    let at = root.unwrap_or(0);
                    let want = to_bits(&reference(algo, at, at, size, &edge_data, &fold));
                    let other = to_bits(&reference(algo, at, at, size, &edge_data, &swapped));
                    let case = format!("{op:?} {algo:?} size {size} root {root:?}");
                    assert_ne!(want, other, "{case}: the order must matter");
                    let rows = run_edge(algo, size, root, op);
                    assert_eq!(rows.len(), if root.is_some() { 1 } else { size }, "{case}");
                    for (rank, bits) in rows {
                        assert_eq!(bits, want, "{case} rank {rank}");
                    }
                }
            }
        }
    }
}

/// The root's error from a reduce in which rank 1 misbehaves as
/// `child`, everyone else contributing [`LEN`] `u64`s.
fn root_error(algo: CollAlgo, child: fn() -> ChildPayload) -> MpiError {
    let found: Arc<Mutex<Option<MpiError>>> = Arc::default();
    let sink = found.clone();
    SimBuilder::new(4)
        .net(NetModel::small(4))
        .run_app(move |mpi| {
            let sink = sink.clone();
            async move {
                let w = CommId::WORLD;
                let data = u64_data(mpi.rank);
                let r = match (mpi.rank, child()) {
                    (1, ChildPayload::Raw(bytes)) => {
                        // The first collective on the world uses this tag.
                        p2p::send_raw(w, 0, COLL_TAG_BASE + 1, bytes).await?;
                        Ok(None)
                    }
                    (1, ChildPayload::Short) => match algo {
                        CollAlgo::Linear => {
                            collective::reduce_u64(w, 0, &data[1..], ReduceOp::Sum).await
                        }
                        CollAlgo::Tree => {
                            collective::reduce_u64_tree(w, 0, &data[1..], ReduceOp::Sum).await
                        }
                    },
                    _ => match algo {
                        CollAlgo::Linear => {
                            collective::reduce_u64(w, 0, &data, ReduceOp::Sum).await
                        }
                        CollAlgo::Tree => {
                            collective::reduce_u64_tree(w, 0, &data, ReduceOp::Sum).await
                        }
                    },
                };
                if let Err(e) = r {
                    *sink.lock().unwrap() = Some(e);
                }
                mpi.finalize();
                Ok(())
            }
        })
        .expect("reduce run");
    let e = found.lock().unwrap().take();
    e.expect("the root saw an error")
}

enum ChildPayload {
    /// A payload that is not a whole number of elements.
    Raw(Bytes),
    /// One element fewer than the others.
    Short,
}

#[test]
fn malformed_payloads_keep_their_typed_errors() {
    for algo in [CollAlgo::Linear, CollAlgo::Tree] {
        let e = root_error(algo, || ChildPayload::Raw(Bytes::from_static(b"12345")));
        assert!(
            matches!(e, MpiError::Invalid("reduce payload size mismatch")),
            "{algo:?}: {e:?}"
        );
        let e = root_error(algo, || ChildPayload::Short);
        assert!(
            matches!(e, MpiError::Invalid("reduce payload length mismatch")),
            "{algo:?}: {e:?}"
        );
    }
}

#[test]
fn an_out_of_range_root_is_an_invalid_argument() {
    let errors: Arc<Mutex<Vec<MpiError>>> = Arc::default();
    let sink = errors.clone();
    SimBuilder::new(4)
        .net(NetModel::small(4))
        .run_app(move |mpi| {
            let sink = sink.clone();
            async move {
                let w = CommId::WORLD;
                let data = u64_data(mpi.rank);
                let bcast = collective::bcast(w, 4, Bytes::new()).await.err();
                let reduce = collective::reduce_u64_tree(w, usize::MAX, &data, ReduceOp::Sum)
                    .await
                    .err();
                sink.lock().unwrap().extend(bcast.into_iter().chain(reduce));
                mpi.finalize();
                Ok(())
            }
        })
        .expect("collective run");
    let errors = errors.lock().unwrap();
    assert_eq!(errors.len(), 8, "{errors:?}");
    for e in errors.iter() {
        assert!(matches!(e, MpiError::Invalid("root out of range")), "{e:?}");
    }
}

/// A collective [`MpiCtx`](xsim_mpi::MpiCtx) runs with the run's
/// configured algorithm.
#[derive(Debug, Clone, Copy)]
enum CtxCase {
    /// An eager and a rendezvous broadcast from the last rank.
    Bcast,
    /// Three barriers after rank-skewed compute.
    Barrier,
}

fn run_ctx(case: CtxCase, algo: CollAlgo, size: usize) -> Timing {
    let report = SimBuilder::new(size)
        .net(NetModel::small(size))
        .collectives(algo)
        .run_app(move |mpi| async move {
            let w = mpi.world();
            match case {
                CtxCase::Bcast => {
                    let root = size - 1;
                    // Below and above the 256 kB eager threshold.
                    for len in [24, 300 * 1024] {
                        let data = if mpi.rank == root {
                            Bytes::zeroed(len)
                        } else {
                            Bytes::new()
                        };
                        let got = mpi.bcast(w, root, data).await?;
                        if got.len() != len {
                            return Err(MpiError::Invalid("wrong broadcast payload"));
                        }
                    }
                }
                CtxCase::Barrier => {
                    for round in 0..3u64 {
                        let skew = (mpi.rank as u64 * 7 + round * 3) % 11;
                        mpi.sleep(SimTime::from_micros(skew)).await;
                        mpi.barrier(w).await?;
                    }
                }
            }
            mpi.finalize();
            Ok(())
        })
        .expect("collective run");
    timing(&report)
}

/// `(collective, algorithm, ranks, run digest, events, exit ns)`,
/// recorded over the composed `recv_raw`/`send_raw` collectives. The
/// reduce is to the last rank and the allreduce runs every op on `f64`
/// and `u64` data, as in [`check`].
const PINNED: [(&str, CollAlgo, usize, u64, u64, u64); 32] = {
    use CollAlgo::{Linear, Tree};
    [
        ("bcast", Linear, 1, 0x0000000000000000, 1, 0),
        ("reduce", Linear, 1, 0x0000000000000000, 1, 0),
        ("allreduce", Linear, 1, 0x0000000000000000, 1, 0),
        ("barrier", Linear, 1, 0xd60b7dd2f5bff1a4, 4, 9000),
        ("bcast", Linear, 2, 0x95bab829984133ff, 9, 15600),
        ("reduce", Linear, 2, 0xfcefa8c2d4d28c8d, 26, 10000),
        ("allreduce", Linear, 2, 0xd2903fc449f039d4, 50, 48000),
        ("barrier", Linear, 2, 0x1ca1d03798604594, 26, 37000),
        ("bcast", Linear, 7, 0xb9edc4bcef14c3dc, 49, 88600),
        ("reduce", Linear, 7, 0x537242ad786a86c4, 151, 50000),
        ("allreduce", Linear, 7, 0xb47121d27383bda5, 295, 100000),
        ("barrier", Linear, 7, 0xbcc7c08c3a9f0901, 136, 57000),
        ("bcast", Linear, 64, 0xeb2ea7a1a1a816ce, 505, 920800),
        ("reduce", Linear, 64, 0x0f622ec0b0d661c9, 1576, 506000),
        ("allreduce", Linear, 64, 0xf6c24cfd21e4bf00, 3088, 1012000),
        ("barrier", Linear, 64, 0xeeca5a973e223843, 1390, 228000),
        ("bcast", Tree, 1, 0x0000000000000000, 1, 0),
        ("reduce", Tree, 1, 0x0000000000000000, 1, 0),
        ("allreduce", Tree, 1, 0x0000000000000000, 1, 0),
        ("barrier", Tree, 1, 0xd60b7dd2f5bff1a4, 4, 9000),
        ("bcast", Tree, 2, 0x95bab829984133ff, 9, 15600),
        ("reduce", Tree, 2, 0xfcefa8c2d4d28c8d, 26, 10000),
        ("allreduce", Tree, 2, 0xd2903fc449f039d4, 50, 48000),
        ("barrier", Tree, 2, 0x1ca1d03798604594, 26, 37000),
        ("bcast", Tree, 7, 0xe2c5321b35d904de, 49, 73000),
        ("reduce", Tree, 7, 0x8d9e6ad32cdfcf7c, 151, 28000),
        ("allreduce", Tree, 7, 0xcfa32b98907796d8, 295, 121000),
        ("barrier", Tree, 7, 0x2f73881d25ed3445, 136, 70000),
        ("bcast", Tree, 64, 0x39398c8efe0199f1, 505, 297600),
        ("reduce", Tree, 64, 0xd93a1cdc23d79ce4, 1576, 60000),
        ("allreduce", Tree, 64, 0xcf6fbab9292f07e6, 3088, 408000),
        ("barrier", Tree, 64, 0xf37d2d19726350e6, 1390, 172000),
    ]
};

#[test]
fn collective_schedules_are_pinned() {
    use CollAlgo::{Linear, Tree};
    let mut got = Vec::new();
    for algo in [Linear, Tree] {
        for size in [1, 2, 7, 64] {
            let cases = [
                ("bcast", run_ctx(CtxCase::Bcast, algo, size)),
                ("reduce", check(algo, size, Some(size - 1))),
                ("allreduce", check(algo, size, None)),
                ("barrier", run_ctx(CtxCase::Barrier, algo, size)),
            ];
            for (name, (digest, events, exit_ns)) in cases {
                got.push((name, algo, size, digest, events, exit_ns));
            }
        }
    }
    let table: Vec<String> = got
        .iter()
        .map(|(n, a, s, d, e, x)| format!("    (\"{n}\", {a:?}, {s}, {d:#018x}, {e}, {x}),"))
        .collect();
    assert!(
        got == PINNED,
        "collective timing moved; measured:\n{}",
        table.join("\n")
    );
}
