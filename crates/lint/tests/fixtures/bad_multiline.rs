//! Fixture: needles split across line breaks — invisible to a
//! line-oriented scanner, caught by the token-stream engine. Each bad
//! construct below breaks its needle across a newline, so no single line
//! of this file holds either needle. `tests/fixtures.rs` pins the
//! positions of both findings. Never compiled.

use std::sync::atomic::{AtomicU64, Ordering};

pub fn publish(cell: &AtomicU64) {
    cell.store(1, Ordering::
        SeqCst);
}

pub fn train(epochs: usize) {
    for epoch
        in 0..epochs
    {
        let _ = epoch;
    }
}
