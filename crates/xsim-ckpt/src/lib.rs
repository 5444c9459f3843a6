//! # xsim-ckpt — application-level checkpoint/restart
//!
//! The paper's fault-handling technique of record: "Application state is
//! regularly written out to the parallel file system as a checkpoint. In
//! case of a failure, the application is restarted and the last written
//! out checkpoint is read back in … The progress between the time the
//! last checkpoint was written and the application failed is lost and
//! needs to be recomputed" (§III-B). This crate provides:
//!
//! * [`codec`] — a checksummed checkpoint format, so *corrupted*
//!   checkpoints (exist but incomplete, §V-B) are detectable.
//! * [`manager`] — naming, simulated-I/O write/delete, the
//!   barrier-then-delete protocol helpers, incomplete-set cleanup, and
//!   the exit-time persistence of paper §IV-E.
//! * [`modes`] — the full / aggregated / buddy / incremental write
//!   strategies and the one restore walk per mode behind the
//!   in-simulation loader, [`resolve_latest`] and mode-aware cleanup.
//! * [`daly`] — Young/Daly optimal checkpoint-interval estimates (the
//!   paper's reference model \[31\] for checkpoint optimization, §II-B),
//!   so simulated interval sweeps can be validated analytically.
//! * [`orchestrator`] — the one run → abort → cleanup → restart loop
//!   with continuous virtual timing, and its two front ends: per-run random
//!   failure injection ([`Orchestrator`], exactly the procedure behind
//!   Table II) and a shared failure schedule plus completion marker
//!   ([`ProtectionCampaign`], so checkpoint/restart and replication
//!   compose in the FIT × protection-scheme ablation).

#![forbid(unsafe_code)]

pub mod codec;
pub mod daly;
pub mod manager;
pub mod modes;
pub mod orchestrator;

pub use codec::{crc32, Checkpoint, CodecError, Crc32, Section};
pub use daly::{
    compare_overhead, daly_interval, expected_runtime, predicted_overhead_fraction, young_interval,
    OverheadComparison,
};
pub use manager::{read_exit_time, write_exit_time, CheckpointManager, EXIT_TIME_FILE};
pub use modes::{
    apply_diff, block_diff, decode_diff, encode_diff, member_section, resolve_latest, DiffFile,
    ModeWriter, ResolvedCheckpoint, CKPT_TAG, DIFF_BLOCK,
};
pub use orchestrator::{CampaignResult, Orchestrator, ProtectionCampaign};
