//! Reductions fold on the wire bytes; these tests hold them to a
//! reference decode-and-fold in the documented order, bit for bit: a
//! member's own data first, then its children — at a linear root every
//! other member in rank order, in a binomial tree the children in
//! increasing bit order. The `f64` values (1e16, 1, −1e16) make a sum
//! depend on that order, and the `u64` values wrap.

use std::sync::{Arc, Mutex};
use xsim_core::Bytes;
use xsim_mpi::collective::{self, ReduceOp, COLL_TAG_BASE};
use xsim_mpi::{p2p, CollAlgo, CommId, MpiError, SimBuilder};
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

/// One result row: `(rank, op index, f64 bits or u64 values)`.
type Rows = Arc<Mutex<Vec<(usize, usize, Vec<u64>, Vec<u64>)>>>;

/// Every op's reduce to `root` (`root = None`: allreduce) on `size`
/// ranks, through the `algo` variants of the free functions.
fn run(
    algo: CollAlgo,
    size: usize,
    root: Option<usize>,
) -> Vec<(usize, usize, Vec<u64>, Vec<u64>)> {
    let rows: Rows = Arc::default();
    let sink = rows.clone();
    SimBuilder::new(size)
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
    rows
}

fn check(algo: CollAlgo, size: usize, root: Option<usize>) {
    let rows = run(algo, size, root);
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
