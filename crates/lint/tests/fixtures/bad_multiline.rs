//! Fixture: a needle split across a line break — invisible to a
//! line-oriented scanner, caught by the token-stream engine. The bad
//! construct below breaks its needle across a newline, so no single line
//! of this file holds it. `tests/fixtures.rs` pins the position of the
//! finding. Never compiled.

use std::sync::atomic::{AtomicU64, Ordering};

pub fn publish(cell: &AtomicU64) {
    cell.store(1, Ordering::
        SeqCst);
}
