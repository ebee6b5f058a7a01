//! Crash-safe checkpointing for the training pipeline.
//!
//! Four layers, each usable on its own:
//!
//! * [`frame`] — the one framed codec (magic, version, length-guarded
//!   reads, checked narrowing, XXH64 trailer, typed [`FrameError`]) that
//!   every persisted format in the workspace is written with.
//! * [`StateDict`] + [`encode`] / [`decode`] — a named, typed state
//!   dictionary with a byte-deterministic frame encoding. Corrupt input
//!   (bit flips, truncation, hostile length fields, version skew) always
//!   yields a typed [`CkptError`], never a panic or an unbounded
//!   allocation.
//! * [`atomic_write`] / [`atomic_write_retry`] / [`read_file`] — durable
//!   file IO: write-tmp + fsync + rename, with a bounded retry whose
//!   decisions depend only on the attempt count (deterministic under fault
//!   injection; see `mhg-faults`), and whole-file reads.
//! * [`Checkpointer`] — epoch-indexed checkpoint files in a directory,
//!   with newest-checkpoint discovery for resume.
//!
//! The `mhg-train` pipeline composes these into `train(k) → crash → resume`
//! runs that are bit-identical to straight-through training; see
//! DESIGN.md §2.11.
// Library code must not panic; clippy.toml exempts `#[cfg(test)]` code.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

mod atomic;
mod checkpoint;
mod codec;
mod error;
pub mod frame;

pub use atomic::{
    atomic_write, atomic_write_retry, read_file, write_retries, DEFAULT_WRITE_ATTEMPTS,
};
pub use checkpoint::Checkpointer;
pub use codec::{decode, encode, StateDict, Value};
pub use error::CkptError;
pub use frame::{fnv1a64, FrameError};

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared serialization of tests that install process-global fault
    //! plans or write through the fault-injectable IO layer.

    use std::sync::{Mutex, MutexGuard};

    pub fn faults_guard() -> MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }
}
