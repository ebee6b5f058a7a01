//! Fixture: needles split across line breaks — invisible to a
//! line-oriented scanner, caught by the token-stream engine. Each bad
//! construct below breaks its needle across a newline, so no single line
//! of this file holds either needle. The JSON report golden pins the
//! positions of both findings. Never compiled.

pub fn load(points: &[u64]) -> u64 {
    let first = points
        .first()
        .expect
        ("points must be non-empty");
    *first
}

pub fn train(epochs: usize) {
    for epoch
        in 0..epochs
    {
        let _ = epoch;
    }
}
