//! Lint fixture: a file every rule should accept.
//! Never compiled — read by `tests/fixtures.rs` via `include_str!`.

/// Returns the first element, or zero for an empty slice.
pub fn first_or_zero(xs: &[f32]) -> f32 {
    xs.first().copied().unwrap_or(0.0)
}

/// Sums a slice; mentions "for epoch in" and Ordering::SeqCst only in
/// this doc comment and in the string below, which the lexer must ignore.
pub fn sum(xs: &[f32]) -> f32 {
    let _note = "a `for epoch in 0..n` loop or Ordering::Relaxed in a string is fine";
    // for epoch in a comment is fine too
    xs.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_loops_allowed_in_tests() {
        for epoch in 0..2 {
            assert!(first_or_zero(&[epoch as f32]) >= 0.0);
        }
    }
}
