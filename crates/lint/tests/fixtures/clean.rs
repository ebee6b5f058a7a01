//! Lint fixture: a file every rule should accept.
//! Never compiled — read by `tests/fixtures.rs` via `include_str!`.

/// Returns the first element, or zero for an empty slice.
pub fn first_or_zero(xs: &[f32]) -> f32 {
    xs.first().copied().unwrap_or(0.0)
}

/// Sums a slice; mentions Ordering::SeqCst only in this doc comment and
/// in the string below, which the lexer must ignore.
pub fn sum(xs: &[f32]) -> f32 {
    let _note = "Ordering::Relaxed in a string is fine";
    // Ordering::SeqCst in a comment is fine too
    xs.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_of_empty_is_zero() {
        assert_eq!(first_or_zero(&[]), 0.0);
    }
}
