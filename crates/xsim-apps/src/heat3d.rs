//! The paper's target application (§V-B): an iterative 3-D heat-equation
//! solver with cube decomposition, periodic halo exchanges, and
//! application-level checkpoint/restart.
//!
//! "It decomposes the 3D problem by splitting it into cubes distributed
//! across the MPI ranks. Each rank performs the same total number of
//! iterations … A halo exchange between neighboring cubes is performed
//! at a certain iteration interval … A checkpoint is written to disk at
//! a certain iteration interval … After writing out a checkpoint, a
//! global barrier synchronizes all processes, such that the previous
//! checkpoint can be deleted safely. In case of a failure, the
//! application can be restarted using the same number of MPI ranks. It
//! automatically loads the last checkpoint and automatically deletes any
//! corrupted checkpoint."
//!
//! Two compute modes:
//!
//! * [`ComputeMode::Real`] — the stencil really runs on real data;
//!   checkpoints carry the grid. Used at small scale by tests that prove
//!   numerical equivalence between failure-free and failure+restart
//!   executions.
//! * [`ComputeMode::Modeled`] — virtual time is charged for the same
//!   work but only a deterministic state token is updated; checkpoints
//!   stay tiny ("the individual checkpoint files are extremely small",
//!   §V-C). Used at the paper's 32,768-rank scale.

use crate::{pack_f64s, unpack_f64s};
use std::future::Future;
use std::sync::Arc;
use xsim_ckpt::{Checkpoint, CheckpointManager, ModeWriter};
use xsim_core::vp::VpProgram;
use xsim_core::{Bytes, SimTime};
use xsim_mpi::{mpi_program, CkptMode, MpiCtx, MpiError, ReduceOp};
use xsim_proc::Work;

/// How the computation phase is performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComputeMode {
    /// Execute the stencil on real data.
    Real,
    /// Charge the time, update a deterministic token only.
    Modeled,
}

/// Heat application configuration (the paper's four parameters, §V-B:
/// problem size, total iteration count, halo-exchange interval,
/// checkpoint interval — plus the decomposition and compute mode).
#[derive(Debug, Clone, PartialEq)]
pub struct HeatConfig {
    /// Global grid points per dimension (paper: 512×512×512).
    pub global: [usize; 3],
    /// Ranks per dimension (paper: 32×32×32 cubes).
    pub ranks: [usize; 3],
    /// Total iterations (paper: 1,000).
    pub iterations: u64,
    /// Halo-exchange interval in iterations (paper: equal to the
    /// checkpoint interval, "a halo exchange takes place right before a
    /// checkpoint").
    pub halo_interval: u64,
    /// Checkpoint interval in iterations (the paper's varied parameter).
    pub ckpt_interval: u64,
    /// Compute mode.
    pub mode: ComputeMode,
    /// Checkpoint write strategy (paper-fidelity default: `Full`).
    pub ckpt_mode: CkptMode,
    /// Native reference-core time to update one grid point (calibrated
    /// default reproduces the paper's E1 ≈ 5,248 s baseline at full
    /// scale under the 1000× slowdown model).
    pub per_point: SimTime,
    /// Checkpoint namespace on the simulated file system.
    pub prefix: String,
}

impl HeatConfig {
    /// The paper's full-scale configuration (§V-E): 512³ points over
    /// 32,768 ranks in 32³ cubes (16³ points each), 1,000 iterations,
    /// modeled compute. The per-point cost is calibrated so the
    /// failure-free baseline lands at the paper's E1 ≈ 5,248 s under the
    /// 1000× node slowdown: 1000 iters × 4096 points × 1.28 µs × 1000 ≈
    /// 5,243 s.
    pub fn paper(ckpt_interval: u64) -> Self {
        HeatConfig {
            global: [512, 512, 512],
            ranks: [32, 32, 32],
            iterations: 1000,
            halo_interval: ckpt_interval,
            ckpt_interval,
            mode: ComputeMode::Modeled,
            ckpt_mode: CkptMode::Full,
            per_point: SimTime::from_nanos(1280),
            prefix: "heat".into(),
        }
    }

    /// A small configuration for tests and examples.
    pub fn small() -> Self {
        HeatConfig {
            global: [8, 8, 8],
            ranks: [2, 2, 2],
            iterations: 20,
            halo_interval: 5,
            ckpt_interval: 5,
            mode: ComputeMode::Real,
            ckpt_mode: CkptMode::Full,
            per_point: SimTime::from_nanos(160),
            prefix: "heat".into(),
        }
    }

    /// Total rank count.
    pub fn n_ranks(&self) -> usize {
        self.ranks[0] * self.ranks[1] * self.ranks[2]
    }

    /// Local (per-rank) interior extent per dimension.
    pub fn local(&self) -> [usize; 3] {
        [
            self.global[0] / self.ranks[0],
            self.global[1] / self.ranks[1],
            self.global[2] / self.ranks[2],
        ]
    }

    /// Points per rank.
    pub fn points_per_rank(&self) -> u64 {
        let l = self.local();
        (l[0] * l[1] * l[2]) as u64
    }

    /// Validate divisibility and intervals.
    pub fn validate(&self) -> Result<(), String> {
        for d in 0..3 {
            if self.ranks[d] == 0 || self.global[d] == 0 {
                return Err("zero extent".into());
            }
            if !self.global[d].is_multiple_of(self.ranks[d]) {
                return Err(format!(
                    "global[{d}]={} not divisible by ranks[{d}]={}",
                    self.global[d], self.ranks[d]
                ));
            }
        }
        if self.iterations == 0 || self.halo_interval == 0 || self.ckpt_interval == 0 {
            return Err("iterations and intervals must be positive".into());
        }
        Ok(())
    }

    fn rank_coords(&self, rank: usize) -> [usize; 3] {
        [
            rank % self.ranks[0],
            (rank / self.ranks[0]) % self.ranks[1],
            rank / (self.ranks[0] * self.ranks[1]),
        ]
    }

    fn rank_at(&self, c: [usize; 3]) -> usize {
        c[0] + self.ranks[0] * (c[1] + self.ranks[1] * c[2])
    }

    /// The six mesh neighbours (±x, ±y, ±z) of a rank; `None` at the
    /// global boundary (the heat problem is not periodic).
    pub fn neighbors(&self, rank: usize) -> [Option<usize>; 6] {
        let c = self.rank_coords(rank);
        let mut out = [None; 6];
        for dim in 0..3 {
            if c[dim] + 1 < self.ranks[dim] {
                let mut cc = c;
                cc[dim] += 1;
                out[2 * dim] = Some(self.rank_at(cc));
            }
            if c[dim] > 0 {
                let mut cc = c;
                cc[dim] -= 1;
                out[2 * dim + 1] = Some(self.rank_at(cc));
            }
        }
        out
    }

    /// Face sizes (points) per direction pair (x, y, z).
    fn face_points(&self) -> [usize; 3] {
        let l = self.local();
        [l[1] * l[2], l[0] * l[2], l[0] * l[1]]
    }
}

/// Local solver state.
pub(crate) enum State {
    Real(Grid),
    Modeled { token: u64 },
}

impl State {
    /// The cold-start state of `rank`.
    fn new(cfg: &HeatConfig, rank: usize) -> Self {
        match cfg.mode {
            ComputeMode::Real => State::Real(Grid::new(cfg, rank)),
            ComputeMode::Modeled => State::Modeled { token: 0 },
        }
    }

    /// The outgoing halo face toward direction `dir`: the packed
    /// interior layer, or in modeled compute a zero surrogate of its size.
    pub(crate) fn face(&self, cfg: &HeatConfig, dir: usize) -> Bytes {
        match self {
            State::Real(g) => g.pack_face(dir),
            State::Modeled { .. } => Bytes::zeroed(cfg.face_points()[dir / 2] * 8),
        }
    }
}

/// A local grid block with one halo layer.
pub(crate) struct Grid {
    l: [usize; 3],
    data: Vec<f64>,
    /// Two z-planes of scratch for [`step`](Self::step): the pre-sweep
    /// values of the plane being rewritten and of the one below it.
    planes: Vec<f64>,
}

impl Grid {
    fn new(cfg: &HeatConfig, rank: usize) -> Self {
        let l = cfg.local();
        let dims = [l[0] + 2, l[1] + 2, l[2] + 2];
        let mut g = Grid {
            l,
            data: vec![0.0; dims[0] * dims[1] * dims[2]],
            planes: vec![0.0; 2 * dims[0] * dims[1]],
        };
        // Initial/boundary condition: the global x=0 face is held hot.
        if cfg.rank_coords(rank)[0] == 0 {
            for k in 0..dims[2] {
                for j in 0..dims[1] {
                    let idx = g.idx(0, j, k);
                    g.data[idx] = 100.0;
                }
            }
        }
        g
    }

    #[inline]
    fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        (k * (self.l[1] + 2) + j) * (self.l[0] + 2) + i
    }

    /// One 7-point relaxation sweep over the interior, in place: every
    /// point is computed from pre-sweep values only (a Jacobi sweep, not
    /// Gauss-Seidel), halo cells are left as they are. Plane `k` is
    /// rewritten from a saved copy of itself (centre, x and y
    /// neighbours), the saved pre-sweep plane `k-1` and the not yet
    /// touched plane `k+1`. The operand order
    /// `((((x⁻+x⁺)+y⁻)+y⁺)+z⁻)+z⁺`, then `(c+sum)/7`, is part of the
    /// result: `perf/golden.json` pins the grid bits.
    fn step(&mut self) {
        let (lx, ly, lz) = (self.l[0], self.l[1], self.l[2]);
        let nx = lx + 2;
        let plane = nx * (ly + 2);
        let (mut below, mut cur) = self.planes.split_at_mut(plane);
        below.copy_from_slice(&self.data[..plane]);
        for k in 1..=lz {
            let (head, above) = self.data.split_at_mut((k + 1) * plane);
            let out = &mut head[k * plane..];
            cur.copy_from_slice(out);
            for j in 1..=ly {
                let row = j * nx..(j + 1) * nx;
                let c = &cur[row.clone()];
                let y_lo = &cur[row.start - nx..row.start];
                let y_hi = &cur[row.end..row.end + nx];
                let z_lo = &below[row.clone()];
                let z_hi = &above[row.clone()];
                let out = &mut out[row];
                for i in 1..=lx {
                    let sum = c[i - 1] + c[i + 1] + y_lo[i] + y_hi[i] + z_lo[i] + z_hi[i];
                    out[i] = (c[i] + sum) / 7.0;
                }
            }
            std::mem::swap(&mut below, &mut cur);
        }
    }

    /// Pack the interior face adjacent to direction `dir`
    /// (0=+x, 1=−x, 2=+y, 3=−y, 4=+z, 5=−z).
    fn pack_face(&self, dir: usize) -> Bytes {
        let face = self.face(dir, false);
        let mut out = Vec::with_capacity(face.len() * 8);
        for idx in face.indices() {
            out.extend_from_slice(&self.data[idx].to_le_bytes());
        }
        out.into()
    }

    /// Unpack received data into the halo layer of direction `dir`.
    fn unpack_halo(&mut self, dir: usize, data: &[u8]) {
        for (idx, chunk) in self.face(dir, true).indices().zip(data.chunks_exact(8)) {
            self.data[idx] = f64::from_le_bytes(chunk.try_into().expect("chunk of 8"));
        }
    }

    /// The face for a direction: the interior boundary layer when
    /// `halo == false`, the halo layer when `halo == true`.
    fn face(&self, dir: usize, halo: bool) -> Face {
        let nx = self.l[0] + 2;
        let plane = nx * (self.l[1] + 2);
        let dim = dir / 2;
        let fixed = match (dir.is_multiple_of(2), halo) {
            (true, false) => self.l[dim],    // interior high layer
            (true, true) => self.l[dim] + 1, // high halo
            (false, false) => 1,             // interior low layer
            (false, true) => 0,              // low halo
        };
        let strides = [1, nx, plane];
        let (inner, outer) = match dim {
            0 => (1, 2),
            1 => (0, 2),
            _ => (0, 1),
        };
        Face {
            base: fixed * strides[dim],
            outer: (self.l[outer], strides[outer]),
            inner: (self.l[inner], strides[inner]),
        }
    }
}

/// One face of a [`Grid`]: the points `base + o·outer.1 + i·inner.1` for
/// `o` in `1..=outer.0`, `i` in `1..=inner.0`, visited `i` fastest (the
/// wire order of a halo message).
struct Face {
    base: usize,
    outer: (usize, usize),
    inner: (usize, usize),
}

impl Face {
    fn len(&self) -> usize {
        self.outer.0 * self.inner.0
    }

    fn indices(self) -> impl Iterator<Item = usize> {
        (1..=self.outer.0).flat_map(move |o| {
            (1..=self.inner.0).map(move |i| self.base + o * self.outer.1 + i * self.inner.1)
        })
    }
}

fn mix_token(token: u64, it: u64, rank: u64) -> u64 {
    let mut z = token ^ it.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ rank.rotate_left(32);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

/// Section names used in heat checkpoints.
pub mod sections {
    /// Configuration fingerprint.
    pub const CONFIG: &str = "config";
    /// Real-mode grid payload.
    pub const GRID: &str = "grid";
    /// Modeled-mode state token.
    pub const TOKEN: &str = "token";
}

pub(crate) fn config_fingerprint(cfg: &HeatConfig) -> Bytes {
    let mut b = Vec::new();
    for d in 0..3 {
        b.extend_from_slice(&(cfg.global[d] as u64).to_le_bytes());
        b.extend_from_slice(&(cfg.ranks[d] as u64).to_le_bytes());
    }
    b.extend_from_slice(&cfg.iterations.to_le_bytes());
    b.extend_from_slice(&cfg.halo_interval.to_le_bytes());
    b.extend_from_slice(&cfg.ckpt_interval.to_le_bytes());
    b.into()
}

/// The message layer the solver runs over, with two implementations:
/// the world communicator of an [`MpiCtx`] (below) and a replica team,
/// [`xsim_mpi::replication::Replicated`] (in [`crate::heat3d_rep`]).
/// [`solve`] is monomorphised per layer, so the world instantiation
/// carries no replication state.
pub(crate) trait Layer: Send {
    /// The rank the solver computes, exchanges and checkpoints as.
    fn rank(&self) -> usize;

    /// This process's MPI context (compute charges, checkpoint I/O).
    fn mpi(&self) -> &MpiCtx;

    /// Exchange halo faces with the mesh neighbours of [`Self::rank`].
    fn halo(
        &mut self,
        cfg: &HeatConfig,
        state: &mut State,
    ) -> impl Future<Output = Result<(), MpiError>> + Send;

    /// Element-wise maximum of `vals` over all ranks.
    fn max_u64(&mut self, vals: &[u64]) -> impl Future<Output = Result<Vec<u64>, MpiError>> + Send;

    /// Synchronise all ranks (the barrier between a checkpoint and the
    /// deletion of its predecessor).
    fn barrier(&mut self) -> impl Future<Output = Result<(), MpiError>> + Send;

    /// Leave after the last iteration: `MPI_Finalize`, plus whatever the
    /// layer owes before it.
    fn finish(
        &mut self,
        cfg: &HeatConfig,
        state: &State,
    ) -> impl Future<Output = Result<(), MpiError>> + Send;
}

/// The world layer: real or modeled faces, fire-and-forget sends.
impl Layer for MpiCtx {
    fn rank(&self) -> usize {
        self.rank
    }

    fn mpi(&self) -> &MpiCtx {
        self
    }

    async fn halo(&mut self, cfg: &HeatConfig, state: &mut State) -> Result<(), MpiError> {
        let w = self.world();
        let neighbors = cfg.neighbors(self.rank);
        let mut recvs = Vec::new();
        for (dir, nb) in neighbors.iter().enumerate() {
            if let Some(nb) = nb {
                recvs.push((dir, self.irecv(w, Some(*nb), Some(dir as u32 ^ 1))?));
            }
        }
        for (dir, nb) in neighbors.iter().enumerate() {
            if let Some(nb) = nb {
                // Fire and forget: the halo completes on the receive side.
                let sreq = self.isend(w, *nb, dir as u32, state.face(cfg, dir)).await?;
                self.request_free(w, sreq)?;
            }
        }
        let reqs: Vec<_> = recvs.iter().map(|(_, r)| *r).collect();
        let outs = self.waitall(w, &reqs).await?;
        if let State::Real(g) = state {
            for ((dir, _), out) in recvs.iter().zip(outs) {
                let msg = out.expect("halo receives carry payloads");
                g.unpack_halo(*dir, &msg.data);
            }
        }
        Ok(())
    }

    fn max_u64(&mut self, vals: &[u64]) -> impl Future<Output = Result<Vec<u64>, MpiError>> + Send {
        self.allreduce_u64(self.world(), vals, ReduceOp::Max)
    }

    fn barrier(&mut self) -> impl Future<Output = Result<(), MpiError>> + Send {
        MpiCtx::barrier(self, self.world())
    }

    fn finish(
        &mut self,
        _: &HeatConfig,
        _: &State,
    ) -> impl Future<Output = Result<(), MpiError>> + Send {
        self.finalize();
        std::future::ready(Ok(()))
    }
}

async fn write_checkpoint(
    layer: &impl Layer,
    cfg: &HeatConfig,
    writer: &mut ModeWriter,
    state: &State,
    it: u64,
) -> Result<(), MpiError> {
    let mut ckpt = Checkpoint::new(layer.rank() as u32, it)
        .with_section(sections::CONFIG, config_fingerprint(cfg));
    ckpt = match state {
        State::Real(g) => ckpt.with_section(sections::GRID, pack_f64s(&g.data)),
        State::Modeled { token } => {
            ckpt.with_section(sections::TOKEN, Bytes::from(token.to_le_bytes().to_vec()))
        }
    };
    // In modeled compute the checkpoint is a tiny surrogate; the writer
    // charges the I/O/network volume the real grid would have cost
    // (free under the paper's Table II file system model).
    let model_bytes = matches!(state, State::Modeled { .. }).then(|| cfg.points_per_rank() * 8);
    writer.write(layer.mpi(), &ckpt, model_bytes).await
}

/// The solver state a checkpoint restores, and its iteration; `None`
/// when the checkpoint is not one this configuration wrote.
fn restore_state(cfg: &HeatConfig, ckpt: &Checkpoint, rank: usize) -> Option<(State, u64)> {
    if ckpt.section(sections::CONFIG)? != &config_fingerprint(cfg) {
        return None;
    }
    let state = match cfg.mode {
        ComputeMode::Real => {
            let raw = ckpt.section(sections::GRID)?;
            let mut g = Grid::new(cfg, rank);
            if raw.len() != g.data.len() * 8 {
                return None;
            }
            unpack_f64s(raw, &mut g.data);
            State::Real(g)
        }
        ComputeMode::Modeled => State::Modeled {
            token: u64::from_le_bytes(*ckpt.section(sections::TOKEN)?.first_chunk()?),
        },
    };
    Some((state, ckpt.iteration))
}

/// The heat solver over any [`Layer`]: restart load and iteration
/// agreement, the compute / halo / checkpoint cadence, checkpoint →
/// barrier → retire, then the layer's finish. With `checkpoints` off
/// nothing is loaded or written.
///
/// An async block, not an `async fn`: the block's captures are the only
/// copy of the arguments in the rank future (an `async fn` keeps a
/// second, 32 B larger here).
#[allow(clippy::manual_async_fn)]
pub(crate) fn solve<L: Layer>(
    mut layer: L,
    cfg: Arc<HeatConfig>,
    checkpoints: bool,
) -> impl Future<Output = Result<(), MpiError>> {
    async move {
        let mut writer = ModeWriter::new(CheckpointManager::new(&cfg.prefix), cfg.ckpt_mode);

        // Restart path: load the newest valid checkpoint, deleting
        // corrupted ones (paper §V-B); agree on the restart iteration (the
        // campaign's cleanup guarantees a consistent latest generation —
        // this reduction asserts it).
        let loaded = if checkpoints {
            writer.load_latest(layer.mpi(), layer.rank() as u32).await
        } else {
            None
        };
        let (mut state, mut it) = match loaded.map(|c| restore_state(&cfg, &c, layer.rank())) {
            Some(Some(restored)) => restored,
            Some(None) => return Err(MpiError::Io("incompatible checkpoint".into())),
            None => (State::new(&cfg, layer.rank()), 0),
        };
        // One reduction: max(it) and max(!it) = !min(it) together.
        let agreed = layer.max_u64(&[it, !it]).await?;
        let (max_it, min_it) = (agreed[0], !agreed[1]);
        if max_it != min_it {
            return Err(MpiError::Io(format!(
                "inconsistent restart iterations: {min_it} vs {max_it}"
            )));
        }

        let mut last_ckpt: Option<u64> = (it > 0).then_some(it);
        while it < cfg.iterations {
            let next_halo = ((it / cfg.halo_interval) + 1) * cfg.halo_interval;
            let next_ckpt = ((it / cfg.ckpt_interval) + 1) * cfg.ckpt_interval;
            let next = next_halo.min(next_ckpt).min(cfg.iterations);
            let steps = next - it;

            // Computation phase: real sweeps and/or the modeled time charge
            // for the same work.
            match &mut state {
                State::Real(g) => {
                    for _ in 0..steps {
                        g.step();
                    }
                }
                State::Modeled { token } => {
                    for s in 1..=steps {
                        *token = mix_token(*token, it + s, layer.rank() as u64);
                    }
                }
            }
            let work_ns = cfg
                .per_point
                .as_nanos()
                .saturating_mul(cfg.points_per_rank())
                .saturating_mul(steps);
            layer
                .mpi()
                .compute(Work::native_time(SimTime(work_ns)))
                .await;
            it = next;

            // Halo exchange phase ("right before a checkpoint").
            if it.is_multiple_of(cfg.halo_interval) || it == cfg.iterations {
                layer.halo(&cfg, &mut state).await?;
            }

            // Checkpoint phase: write, barrier, delete previous.
            if checkpoints && (it.is_multiple_of(cfg.ckpt_interval) || it == cfg.iterations) {
                write_checkpoint(&layer, &cfg, &mut writer, &state, it).await?;
                layer.barrier().await?;
                if let Some(prev) = last_ckpt.take() {
                    if prev != it {
                        writer
                            .retire(layer.mpi(), layer.rank() as u32, prev)
                            .await?;
                    }
                }
                last_ckpt = Some(it);
            }
        }

        layer.finish(&cfg, &state).await
    }
}

/// Build the heat application as a [`VpProgram`].
pub fn program(cfg: HeatConfig) -> Arc<dyn VpProgram> {
    cfg.validate().expect("invalid heat configuration");
    let cfg = Arc::new(cfg);
    mpi_program(move |mpi: MpiCtx| solve(mpi, cfg.clone(), true))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid() {
        let c = HeatConfig::paper(125);
        c.validate().unwrap();
        assert_eq!(c.n_ranks(), 32_768);
        assert_eq!(c.local(), [16, 16, 16]);
        assert_eq!(c.points_per_rank(), 4096);
    }

    #[test]
    fn rejects_bad_configs() {
        let mut c = HeatConfig::small();
        c.global = [9, 8, 8];
        assert!(c.validate().is_err());
        let mut c = HeatConfig::small();
        c.ckpt_interval = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn neighbor_structure_is_mesh() {
        let c = HeatConfig::small(); // 2x2x2 ranks
        let n0 = c.neighbors(0);
        assert_eq!(n0[0], Some(1)); // +x
        assert_eq!(n0[1], None); // -x at boundary
        assert_eq!(n0[2], Some(2)); // +y
        assert_eq!(n0[4], Some(4)); // +z
        let n7 = c.neighbors(7);
        assert_eq!(n7[0], None);
        assert_eq!(n7[1], Some(6));
    }

    #[test]
    fn grid_init_heats_global_x0_face_only() {
        let c = HeatConfig::small();
        let g0 = Grid::new(&c, 0); // rank at x=0
        let g1 = Grid::new(&c, 1); // rank at x=1 (not global x=0)
        assert!(g0.data.contains(&100.0));
        assert!(g1.data.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn stencil_diffuses_heat_inward() {
        let c = HeatConfig {
            ranks: [1, 1, 1],
            ..HeatConfig::small()
        };
        let mut g = Grid::new(&c, 0);
        let probe = g.idx(1, 4, 4);
        assert_eq!(g.data[probe], 0.0);
        for _ in 0..3 {
            g.step();
        }
        assert!(g.data[probe] > 0.0, "heat did not diffuse");
        // Conservation-ish sanity: values stay within [0, 100].
        assert!(g.data.iter().all(|&v| (0.0..=100.0).contains(&v)));
    }

    /// The sweep as first written: a full copy, `idx()` per neighbour.
    fn step_reference(g: &Grid) -> Vec<f64> {
        let mut next = g.data.clone();
        for k in 1..=g.l[2] {
            for j in 1..=g.l[1] {
                for i in 1..=g.l[0] {
                    let sum = g.data[g.idx(i - 1, j, k)]
                        + g.data[g.idx(i + 1, j, k)]
                        + g.data[g.idx(i, j - 1, k)]
                        + g.data[g.idx(i, j + 1, k)]
                        + g.data[g.idx(i, j, k - 1)]
                        + g.data[g.idx(i, j, k + 1)];
                    next[g.idx(i, j, k)] = (g.data[g.idx(i, j, k)] + sum) / 7.0;
                }
            }
        }
        next
    }

    #[test]
    fn in_place_sweep_is_bit_identical_to_the_copying_sweep() {
        let c = HeatConfig {
            global: [10, 6, 8],
            ranks: [2, 2, 2],
            ..HeatConfig::small()
        };
        let mut g = Grid::new(&c, 0);
        let mut rng = xsim_core::DetRng::stream(7, 0);
        for v in g.data.iter_mut() {
            // Mixed magnitudes, so a reassociated sum would round apart.
            *v = (rng.gen_f64() - 0.5) * 10f64.powi(rng.gen_in(0..12) as i32);
        }
        for _ in 0..4 {
            let expect = step_reference(&g);
            g.step();
            let same = g
                .data
                .iter()
                .zip(&expect)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "halo cells carry over, interior bits match");
        }
    }

    #[test]
    fn faces_visit_points_in_wire_order() {
        let c = HeatConfig {
            global: [10, 6, 8],
            ranks: [2, 2, 2],
            ..HeatConfig::small()
        };
        let g = Grid::new(&c, 0);
        let [lx, ly, lz] = g.l;
        for dir in 0..6 {
            for halo in [false, true] {
                let fixed = match (dir % 2 == 0, halo) {
                    (true, false) => g.l[dir / 2],
                    (true, true) => g.l[dir / 2] + 1,
                    (false, false) => 1,
                    (false, true) => 0,
                };
                let mut expect = Vec::new();
                match dir / 2 {
                    0 => (1..=lz)
                        .for_each(|k| (1..=ly).for_each(|j| expect.push(g.idx(fixed, j, k)))),
                    1 => (1..=lz)
                        .for_each(|k| (1..=lx).for_each(|i| expect.push(g.idx(i, fixed, k)))),
                    _ => (1..=ly)
                        .for_each(|j| (1..=lx).for_each(|i| expect.push(g.idx(i, j, fixed)))),
                }
                let face = g.face(dir, halo);
                assert_eq!(face.len(), expect.len());
                assert_eq!(
                    face.indices().collect::<Vec<_>>(),
                    expect,
                    "dir {dir} halo {halo}"
                );
            }
        }
    }

    #[test]
    fn faces_pack_and_unpack_consistently() {
        let c = HeatConfig::small();
        let mut g = Grid::new(&c, 0);
        for (i, v) in g.data.iter_mut().enumerate() {
            *v = i as f64;
        }
        for dir in 0..6 {
            let face = g.pack_face(dir);
            let l = c.local();
            let expect = match dir / 2 {
                0 => l[1] * l[2],
                1 => l[0] * l[2],
                _ => l[0] * l[1],
            };
            assert_eq!(face.len(), expect * 8, "dir {dir}");
            // Unpacking into the opposite halo must not touch the
            // interior.
            let before = g.data.clone();
            let mut g2 = Grid::new(&c, 0);
            g2.data = before.clone();
            g2.unpack_halo(dir, &face);
            let interior_changed = (1..=c.local()[0]).any(|i| {
                (1..=c.local()[1]).any(|j| {
                    (1..=c.local()[2]).any(|k| g2.data[g2.idx(i, j, k)] != before[g2.idx(i, j, k)])
                })
            });
            assert!(!interior_changed, "dir {dir} wrote interior");
        }
    }

    #[test]
    fn token_mixing_is_deterministic_and_sensitive() {
        let a = mix_token(0, 1, 2);
        assert_eq!(a, mix_token(0, 1, 2));
        assert_ne!(a, mix_token(0, 2, 2));
        assert_ne!(a, mix_token(0, 1, 3));
        assert_ne!(a, mix_token(1, 1, 2));
    }
}
