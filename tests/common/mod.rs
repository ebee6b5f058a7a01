//! Bit-level comparison helpers shared by the tape-op equivalence tests.

use mhg_autograd::{Grad, GradStore};
use mhg_tensor::Tensor;

/// Every element's bits.
pub fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Every gradient as `(param, row, bits)`, touched rows only for a sparse
/// gradient, so a row touched with a zero gradient still counts.
pub fn grad_bits(grads: &GradStore) -> Vec<(usize, Option<usize>, Vec<u32>)> {
    let mut out = Vec::new();
    for (id, grad) in grads.iter() {
        match grad {
            Grad::Dense(t) => out.push((id.index(), None, bits(t))),
            Grad::Rows { rows } => {
                for (r, row) in rows.iter() {
                    out.push((
                        id.index(),
                        Some(r),
                        row.iter().map(|v| v.to_bits()).collect(),
                    ));
                }
            }
        }
    }
    out
}
