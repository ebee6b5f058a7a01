//! Every public op that combines two tensors rejects mismatched shapes with
//! its own message. The shapes are chosen so that the op would otherwise
//! run, or fail somewhere else: `2x3` against `3x2` has the same element
//! count, so an elementwise op without its assert would silently pair the
//! wrong elements. A new two-tensor op adds its case here.

use mhg_tensor::Tensor;

fn t(rows: usize, cols: usize) -> Tensor {
    Tensor::zeros(rows, cols)
}

#[test]
#[should_panic(expected = "matmul shape mismatch: 2x3 · 2x3")]
fn matmul_rejects_mismatched_inner_dims() {
    let _ = t(2, 3).matmul(&t(2, 3));
}

#[test]
#[should_panic(expected = "matmul_transposed shape mismatch: 2x3 · 3x2ᵀ")]
fn matmul_transposed_rejects_mismatched_widths() {
    let _ = t(2, 3).matmul_transposed(&t(3, 2));
}

#[test]
#[should_panic(expected = "transposed_matmul shape mismatch: 2x3ᵀ · 3x2")]
fn transposed_matmul_rejects_mismatched_heights() {
    let _ = t(2, 3).transposed_matmul(&t(3, 2));
}

#[test]
#[should_panic(expected = "elementwise shape mismatch")]
fn zip_map_rejects_mismatched_shapes() {
    let _ = t(2, 3).zip_map(&t(3, 2), |a, b| a + b);
}

#[test]
#[should_panic(expected = "elementwise shape mismatch")]
fn add_rejects_mismatched_shapes() {
    let _ = t(2, 3).add(&t(3, 2));
}

#[test]
#[should_panic(expected = "elementwise shape mismatch")]
fn sub_rejects_mismatched_shapes() {
    let _ = t(2, 3).sub(&t(3, 2));
}

#[test]
#[should_panic(expected = "elementwise shape mismatch")]
fn mul_rejects_mismatched_shapes() {
    let _ = t(2, 3).mul(&t(3, 2));
}

#[test]
#[should_panic(expected = "axpy shape mismatch")]
fn axpy_rejects_mismatched_shapes() {
    t(2, 3).axpy(1.0, &t(3, 2));
}

#[test]
#[should_panic(expected = "bias must be a row vector")]
fn add_row_broadcast_rejects_a_bias_of_several_rows() {
    let _ = t(2, 3).add_row_broadcast(&t(2, 3));
}

#[test]
#[should_panic(expected = "bias width mismatch")]
fn add_row_broadcast_rejects_a_bias_of_the_wrong_width() {
    let _ = t(2, 3).add_row_broadcast(&t(1, 2));
}

#[test]
#[should_panic(expected = "row_dot width mismatch")]
fn row_dot_rejects_mismatched_widths() {
    let _ = t(2, 3).row_dot(0, &t(2, 4), 0);
}

#[test]
#[should_panic(expected = "vstack width mismatch")]
fn vstack_rejects_mismatched_widths() {
    let _ = Tensor::vstack(&[&t(2, 3), &t(2, 4)]);
}

#[test]
#[should_panic(expected = "scatter_add_rows: 1 indices for 2 source rows")]
fn scatter_add_rows_rejects_an_index_count_unlike_the_source_rows() {
    t(4, 3).scatter_add_rows(&[0], &t(2, 3));
}

#[test]
#[should_panic(expected = "scatter_add_rows width mismatch: 3 vs 2")]
fn scatter_add_rows_rejects_mismatched_widths() {
    t(4, 3).scatter_add_rows(&[0, 1], &t(2, 2));
}

#[test]
#[should_panic(expected = "shape mismatch in max_abs_diff")]
fn max_abs_diff_rejects_mismatched_shapes() {
    let _ = t(2, 3).max_abs_diff(&t(3, 2));
}
