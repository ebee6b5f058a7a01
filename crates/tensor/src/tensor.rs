//! The core dense tensor type.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::Shape;

/// A dense, row-major, 2-D `f32` tensor.
///
/// All model state in the reproduction (embedding tables, weight matrices,
/// activations) is stored in this type. Row vectors are `1 × n` tensors.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of the given shape filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            shape: Shape::new(rows, cols),
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a tensor of the given shape filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            shape: Shape::new(rows, cols),
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(n, n);
        for i in 0..n {
            t[(i, i)] = 1.0;
        }
        t
    }

    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self {
            shape: Shape::new(rows, cols),
            data,
        }
    }

    /// Creates a tensor from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths or no rows are given.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "ragged rows in from_rows");
            data.extend_from_slice(row);
        }
        Self::from_vec(rows.len(), cols, data)
    }

    /// Creates a `1 × n` row-vector tensor.
    pub fn row_vector(values: &[f32]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// The shape of the tensor.
    #[inline]
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.shape.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.shape.cols
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        let c = self.shape.cols;
        &self.data[r * c..(r + 1) * c]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let c = self.shape.cols;
        &mut self.data[r * c..(r + 1) * c]
    }

    /// Iterates over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.shape.cols.max(1))
    }

    /// Copies `src` into row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `src.len() != self.cols()`.
    pub fn set_row(&mut self, r: usize, src: &[f32]) {
        assert_eq!(src.len(), self.cols(), "row length mismatch");
        self.row_mut(r).copy_from_slice(src);
    }

    /// Fills the tensor with `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    /// Returns `true` if every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Panics with a diagnostic if any element is NaN or infinite.
    ///
    /// `context` names the operation or value being checked and is included
    /// in the panic message together with the position and value of the
    /// first offending element and the total count of non-finite entries.
    /// Under `--features checked` every kernel in [`crate::Tensor`] routes
    /// its output through this check.
    ///
    /// # Panics
    ///
    /// Panics if the tensor contains a non-finite element.
    #[expect(
        clippy::panic,
        reason = "the checked-mode diagnostic: its panic is the contextful report"
    )]
    pub fn assert_finite(&self, context: &str) {
        if self.all_finite() {
            return;
        }
        let bad = self.data.iter().filter(|v| !v.is_finite()).count();
        let (first, value) = self
            .data
            .iter()
            .enumerate()
            .find(|(_, v)| !v.is_finite())
            .map(|(i, v)| (i, *v))
            .unwrap_or((0, f32::NAN));
        let cols = self.shape.cols.max(1);
        panic!(
            "{context}: tensor {shape} contains {bad} non-finite element(s); \
             first at ({r}, {c}) = {value}",
            shape = self.shape,
            r = first / cols,
            c = first % cols,
        );
    }

    /// Maximum absolute difference against another tensor of the same shape.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "shape mismatch in max_abs_diff");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

impl Index<(usize, usize)> for Tensor {
    type Output = f32;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.shape.rows && c < self.shape.cols);
        &self.data[r * self.shape.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Tensor {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.shape.rows && c < self.shape.cols);
        &mut self.data[r * self.shape.cols + c]
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Tensor {} [", self.shape)?;
        for r in 0..self.shape.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.shape.cols.min(8) {
                write!(f, "{:>9.4}", self[(r, c)])?;
                if c + 1 < self.shape.cols.min(8) {
                    write!(f, ", ")?;
                }
            }
            if self.shape.cols > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.shape.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let z = Tensor::zeros(2, 3);
        assert_eq!(z.shape(), Shape::new(2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));

        let f = Tensor::full(2, 2, 7.5);
        assert!(f.as_slice().iter().all(|&v| v == 7.5));

        let i = Tensor::eye(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i[(2, 2)], 1.0);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_rejects_bad_len() {
        let _ = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged() {
        let _ = Tensor::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn row_access() {
        let mut t = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(t.row(1), &[3.0, 4.0]);
        t.set_row(0, &[9.0, 8.0]);
        assert_eq!(t.row(0), &[9.0, 8.0]);
        t.row_mut(1)[0] = 0.0;
        assert_eq!(t[(1, 0)], 0.0);
    }

    #[test]
    fn rows_iter_matches_rows() {
        let t = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let collected: Vec<&[f32]> = t.rows_iter().collect();
        assert_eq!(collected.len(), 3);
        assert_eq!(collected[2], &[5.0, 6.0]);
    }

    #[test]
    fn finite_detection() {
        let mut t = Tensor::zeros(1, 2);
        assert!(t.all_finite());
        t[(0, 1)] = f32::NAN;
        assert!(!t.all_finite());
    }

    #[test]
    fn max_abs_diff_works() {
        let a = Tensor::from_rows(&[&[1.0, 2.0]]);
        let b = Tensor::from_rows(&[&[1.5, 2.0]]);
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-7);
    }
}
