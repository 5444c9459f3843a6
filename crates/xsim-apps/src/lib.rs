//! # xsim-apps — simulated applications
//!
//! The workloads of the reproduction:
//!
//! * [`heat3d`] — the paper's target application (§V-B): iterative 3-D
//!   heat equation, cube decomposition, halo exchanges, application-
//!   level checkpoint/restart. Drives Table II.
//! * [`jacobi2d`] — a 2-D Jacobi solver with residual allreduce
//!   (structurally different communication pattern).
//! * [`sweep`] — a Sweep3D-style pipelined wavefront (dependency-chain
//!   dominated, unlike the bulk-synchronous apps).
//! * [`kernels`] — ring / compute+allreduce / ping-pong / noop
//!   microbenchmark programs for tests, examples and ablations.
//! * [`scenario`] — the run inputs every front end reads from its
//!   command line and environment, through one parser.

#![forbid(unsafe_code)]

pub mod heat3d;
pub mod heat3d_rep;
pub mod jacobi2d;
pub mod kernels;
pub mod scenario;
pub mod sweep;

pub use heat3d::ComputeMode;

use xsim_core::Bytes;

/// The little-endian bytes of `vals` (halo rows, checkpointed grids),
/// built in one pass at their final size: a copy loop over 8-byte
/// words, flattened into bytes without a second buffer.
pub(crate) fn pack_f64s(vals: &[f64]) -> Bytes {
    let words: Vec<[u8; 8]> = vals.iter().map(|v| v.to_le_bytes()).collect();
    words.into_flattened().into()
}

/// Inverse of [`pack_f64s`]; stops at the shorter of the two.
pub(crate) fn unpack_f64s(data: &[u8], vals: &mut [f64]) {
    for (slot, chunk) in vals.iter_mut().zip(data.chunks_exact(8)) {
        *slot = f64::from_le_bytes(chunk.try_into().expect("chunk of 8"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_codec_round_trips() {
        let row = [1.0, -2.5, 3.25];
        let packed = pack_f64s(&row);
        let mut out = [0.0; 3];
        unpack_f64s(&packed, &mut out);
        assert_eq!(out, row);
    }
}
