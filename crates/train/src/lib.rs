//! The shared training pipeline of the HybridGNN reproduction.
//!
//! Every model in the workspace — the nine baselines and HybridGNN itself —
//! trains through the same explicit stage sequence owned by this crate:
//!
//! ```text
//! Sampler ──► Batcher ──► Step (forward/backward/optim) ──► Validator/EarlyStop
//! ```
//!
//! A model contributes two things: a **sampling recipe** (a closure that
//! turns an epoch index and a seeded RNG into minibatches) and a
//! [`TrainStep`] implementation (one optimizer step per batch, plus a
//! validation pass that returns its AUC and the [`Artefact`] it scored).
//! The pipeline owns everything else: the epoch loop, loss averaging,
//! early stopping, keeping the best-validation artefact (which [`train`]
//! returns), report bookkeeping and the per-stage timing breakdown.
//!
//! # Background sampling
//!
//! [`train`] can run the sampling recipe on a worker thread, double-buffered
//! against the compute stage (see `mhg_sampling::run_prefetched`): while the
//! main thread trains on epoch `e`, the worker generates the batches of
//! epoch `e + 1`. Each epoch's sampler RNG is derived deterministically from
//! a base seed and the epoch index ([`epoch_seed`]), so the produced batches
//! are bit-identical whether sampling runs inline or in the background —
//! the switch is purely a throughput knob.
//!
//! # Crash safety
//!
//! With [`TrainOptions::checkpoint_dir`] set, the pipeline persists
//! versioned, checksummed, atomically-written snapshots (via `mhg-ckpt`) of
//! everything a run owns — model parameters, optimizer moments, the best
//! artefact, the RNG stream, the epoch cursor, early-stopping state — at
//! the configured cadence and at run end. [`TrainOptions::resume`] restores the latest
//! snapshot; a killed-and-resumed run is bit-identical to an uninterrupted
//! one. Independently, the loop recovers from a panicking background
//! sampler (inline fallback), non-finite losses (rollback to the last good
//! state) and transient checkpoint IO errors (bounded retry) — all
//! deterministically, exercised by the `mhg-faults` injection harness.
//!
//! This crate is the single owner of training control flow: the `epoch-loop`
//! rule of `mhg-lint` flags `for epoch in` loops anywhere outside it.
// Library code must not panic; clippy.toml exempts `#[cfg(test)]` code.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

mod error;
mod pipeline;
mod recipes;
mod report;

pub use error::TrainError;
pub use pipeline::{epoch_seed, train, Artefact, BatchLoss, TrainOptions, TrainStep};
pub use recipes::{edge_batches, pair_batches, EdgeBatch, PairExample};
pub use report::{
    pair_budget, EarlyStopper, RecoveryCounters, StopDecision, TimingBreakdown, TrainReport,
};
