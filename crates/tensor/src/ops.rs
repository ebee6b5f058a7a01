//! Dense kernels: matmul, elementwise arithmetic, reductions, softmax.
//!
//! These are the only numeric kernels the whole reproduction needs. They are
//! deliberately BLAS-free, which keeps the build hermetic and every bit
//! under this crate's control. All three dense products (`A·B`, `A·Bᵀ`,
//! `Aᵀ·B`) run through one GEMM core that reads `A` through a strided view
//! and keeps a `GEMM_MR × GEMM_NR` block of outputs in registers; small
//! shapes take a scalar loop instead. Both sum every output in ascending
//! `k` from `0.0`, so the path never changes a bit.
//!
//! The hot kernels (matmul, transpose, elementwise, softmax, gather/scatter)
//! run on the `mhg-par` worker pool. Each kernel partitions its *output* into
//! fixed per-worker row ranges, and each worker computes its rows exactly as
//! the serial loop would — so results are bit-identical for any `MHG_THREADS`
//! (see DESIGN.md §2.10 for the contract).

use crate::Tensor;

/// Routes an op's output through [`Tensor::assert_finite`] under the
/// `checked` feature; compiles to a move otherwise.
#[inline(always)]
fn guard(out: Tensor, _op: &str) -> Tensor {
    #[cfg(feature = "checked")]
    out.assert_finite(_op);
    out
}

/// Scalar counterpart of [`guard`]: rejects NaN/Inf reduction results under
/// the `checked` feature.
#[inline(always)]
fn guard_scalar(v: f32, _op: &str) -> f32 {
    #[cfg(feature = "checked")]
    assert!(v.is_finite(), "{_op}: non-finite scalar result {v}");
    v
}

/// Output rows of the GEMM register tile.
pub const GEMM_MR: usize = 4;
/// Output columns of the GEMM register tile: the width of one packed
/// column panel of `B`.
pub const GEMM_NR: usize = 8;
/// Smallest `k` that runs the tiled path: a tile's fixed cost (zeroing,
/// storing, packing its rows of `A`) is repaid over its `k` steps.
const TILED_MIN_K: usize = 16;
/// Smallest multiply-add count that runs the tiled path: below it, the
/// two packing buffers cost more than the scalar loops lose.
const TILED_MIN_MACS: usize = 4096;

/// Gathered elements counted as one scalar op of `mhg-par` work.
const GATHER_ELEMS_PER_OP: usize = 32;

/// A read-only matrix operand: element `(r, c)` is `data[r * rs + c * cs]`.
/// A row-major tensor is read with strides `(cols, 1)`, its transpose
/// with `(1, cols)`, so one of the two strides is always 1.
#[derive(Clone, Copy)]
struct View<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

impl<'a> View<'a> {
    fn of(t: &'a Tensor) -> Self {
        Self {
            data: t.as_slice(),
            rs: t.cols(),
            cs: 1,
        }
    }

    fn transposed(t: &'a Tensor) -> Self {
        Self {
            data: t.as_slice(),
            rs: 1,
            cs: t.cols(),
        }
    }

    #[inline(always)]
    fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.rs + c * self.cs]
    }
}

/// The one GEMM core: `A · B` for an `m × k` view `a` and a `k × n` view
/// `b`.
///
/// Every output is `0.0 + a₀b₀ + a₁b₁ + …`, each product rounded before
/// its add and the sum taken in ascending `k`, on every path, tile edge and
/// worker count. Only independent outputs are computed side by side; no
/// sum is ever split or reordered.
///
/// Large shapes pack `b` once into zero-padded `k × GEMM_NR` column panels
/// and each block of `GEMM_MR` rows of `a` into a `k × GEMM_MR` strip,
/// then keep the `GEMM_MR × GEMM_NR` outputs of each (strip, panel) pair
/// in registers across the whole `k` loop ([`gemm_tile`]). Padding rows
/// and columns compute outputs that are never stored. Shapes below one
/// tile, `TILED_MIN_K` or `TILED_MIN_MACS` run a scalar loop with no
/// allocation that walks `b` along its contiguous axis. It is inlined
/// into each product, so the strides that product fixes fold away.
#[inline(always)]
fn gemm(a: View<'_>, b: View<'_>, m: usize, k: usize, n: usize) -> Tensor {
    let mut out = Tensor::zeros(m, n);
    if out.is_empty() || k == 0 {
        return out;
    }
    let tiled = m >= GEMM_MR && n >= GEMM_NR && k >= TILED_MIN_K && m * k * n >= TILED_MIN_MACS;
    if !tiled {
        mhg_par::par_chunks_mut(out.as_mut_slice(), n, 2 * k * n, |i0, chunk| {
            for (ii, c_row) in chunk.chunks_exact_mut(n).enumerate() {
                let i = i0 + ii;
                if b.cs == 1 {
                    // Rows of `b` are contiguous: add `a[i,p] · b[p,:]` to
                    // the whole output row, one `k` step at a time.
                    let a_row = a.data[i * a.rs..].iter().step_by(a.cs);
                    for (p, &a_ip) in a_row.take(k).enumerate() {
                        let b_row = &b.data[p * b.rs..p * b.rs + n];
                        for (c, &b_pj) in c_row.iter_mut().zip(b_row) {
                            *c += a_ip * b_pj;
                        }
                    }
                } else {
                    // Columns of `b` are contiguous: only `self · rhsᵀ`
                    // reads `b` this way, and its `a` is row-major.
                    debug_assert_eq!(a.cs, 1, "a column-contiguous `b` needs a row-major `a`");
                    let a_row = &a.data[i * a.rs..i * a.rs + k];
                    for (j, c) in c_row.iter_mut().enumerate() {
                        let b_col = &b.data[j * b.cs..j * b.cs + k];
                        let mut acc = 0.0;
                        for (&a_ip, &b_pj) in a_row.iter().zip(b_col) {
                            acc += a_ip * b_pj;
                        }
                        *c = acc;
                    }
                }
            }
        });
        return out;
    }
    let mut panels = vec![0.0; n.div_ceil(GEMM_NR) * k * GEMM_NR];
    for (jp, panel) in panels.chunks_exact_mut(k * GEMM_NR).enumerate() {
        let j0 = jp * GEMM_NR;
        let w = GEMM_NR.min(n - j0);
        for (p, row) in panel.chunks_exact_mut(GEMM_NR).enumerate() {
            for (jj, v) in row[..w].iter_mut().enumerate() {
                *v = b.at(p, j0 + jj);
            }
        }
    }
    mhg_par::par_chunks_mut(out.as_mut_slice(), n, 2 * k * n, |i0, chunk| {
        let mut strip = vec![0.0; k * GEMM_MR];
        for (blk, c_blk) in chunk.chunks_mut(GEMM_MR * n).enumerate() {
            let r0 = i0 + blk * GEMM_MR;
            let h = c_blk.len() / n;
            for (p, col) in strip.chunks_exact_mut(GEMM_MR).enumerate() {
                for (ii, v) in col.iter_mut().enumerate() {
                    *v = if ii < h { a.at(r0 + ii, p) } else { 0.0 };
                }
            }
            for (jp, panel) in panels.chunks_exact(k * GEMM_NR).enumerate() {
                let tile = gemm_tile(&strip, panel);
                let j0 = jp * GEMM_NR;
                let w = GEMM_NR.min(n - j0);
                for (c_row, t_row) in c_blk.chunks_exact_mut(n).zip(&tile) {
                    c_row[j0..j0 + w].copy_from_slice(&t_row[..w]);
                }
            }
        }
    });
    out
}

/// The register tile: `strip` holds `GEMM_MR` values of `A` per `k` step,
/// `panel` holds `GEMM_NR` values of `B` per `k` step. Each of the
/// `GEMM_MR × GEMM_NR` outputs is its own ascending-`k` sum, so the loop
/// vectorizes across outputs without reassociating any of them.
#[inline(always)]
fn gemm_tile(strip: &[f32], panel: &[f32]) -> [[f32; GEMM_NR]; GEMM_MR] {
    let mut acc = [[0.0f32; GEMM_NR]; GEMM_MR];
    let (a_steps, _) = strip.as_chunks::<GEMM_MR>();
    let (b_steps, _) = panel.as_chunks::<GEMM_NR>();
    for (a_p, b_p) in a_steps.iter().zip(b_steps) {
        for (acc_row, &a_ip) in acc.iter_mut().zip(a_p) {
            for (c, &b_pj) in acc_row.iter_mut().zip(b_p) {
                *c += a_ip * b_pj;
            }
        }
    }
    acc
}

impl Tensor {
    /// Matrix product `self · rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(
            self.cols(),
            rhs.rows(),
            "matmul shape mismatch: {} · {}",
            self.shape(),
            rhs.shape()
        );
        let out = gemm(
            View::of(self),
            View::of(rhs),
            self.rows(),
            self.cols(),
            rhs.cols(),
        );
        guard(out, "matmul")
    }

    /// Matrix product `self · rhsᵀ`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_transposed(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(
            self.cols(),
            rhs.cols(),
            "matmul_transposed shape mismatch: {} · {}ᵀ",
            self.shape(),
            rhs.shape()
        );
        let out = gemm(
            View::of(self),
            View::transposed(rhs),
            self.rows(),
            self.cols(),
            rhs.rows(),
        );
        guard(out, "matmul_transposed")
    }

    /// Matrix product `selfᵀ · rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn transposed_matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(
            self.rows(),
            rhs.rows(),
            "transposed_matmul shape mismatch: {}ᵀ · {}",
            self.shape(),
            rhs.shape()
        );
        let out = gemm(
            View::transposed(self),
            View::of(rhs),
            self.cols(),
            self.rows(),
            rhs.cols(),
        );
        guard(out, "transposed_matmul")
    }

    /// Returns the transposed tensor.
    ///
    /// Cache-blocked in 32×32 tiles so both the source reads and the
    /// destination writes stay within a few cache lines per tile, instead of
    /// striding the whole source column by column.
    pub fn transpose(&self) -> Tensor {
        const TILE: usize = 32;
        let (m, n) = (self.rows(), self.cols());
        let mut out = Tensor::zeros(n, m);
        if out.is_empty() {
            return guard(out, "transpose");
        }
        let src = self.as_slice();
        // Output rows (length m) are the parallel unit; tiles start at the
        // absolute row index so the tiling is identical for any partition.
        mhg_par::par_chunks_mut(out.as_mut_slice(), m, 2 * m, |j0, chunk| {
            let j_end = j0 + chunk.len() / m;
            let mut bj = j0;
            while bj < j_end {
                let j_hi = (bj + TILE).min(j_end);
                let mut bi = 0;
                while bi < m {
                    let i_hi = (bi + TILE).min(m);
                    for j in bj..j_hi {
                        for i in bi..i_hi {
                            chunk[(j - j0) * m + i] = src[i * n + j];
                        }
                    }
                    bi += TILE;
                }
                bj += TILE;
            }
        });
        guard(out, "transpose")
    }

    /// Elementwise binary op into a fresh tensor.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip_map(&self, rhs: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
        assert_eq!(self.shape(), rhs.shape(), "elementwise shape mismatch");
        let mut out = Tensor::zeros(self.rows(), self.cols());
        let (a, b) = (self.as_slice(), rhs.as_slice());
        mhg_par::par_chunks_mut(out.as_mut_slice(), 1, 4, |start, chunk| {
            for (i, o) in chunk.iter_mut().enumerate() {
                *o = f(a[start + i], b[start + i]);
            }
        });
        guard(out, "zip_map")
    }

    /// Elementwise unary op into a fresh tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        let mut out = Tensor::zeros(self.rows(), self.cols());
        let a = self.as_slice();
        mhg_par::par_chunks_mut(out.as_mut_slice(), 1, 4, |start, chunk| {
            for (i, o) in chunk.iter_mut().enumerate() {
                *o = f(a[start + i]);
            }
        });
        guard(out, "map")
    }

    /// Elementwise sum.
    pub fn add(&self, rhs: &Tensor) -> Tensor {
        self.zip_map(rhs, |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, rhs: &Tensor) -> Tensor {
        self.zip_map(rhs, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, rhs: &Tensor) -> Tensor {
        self.zip_map(rhs, |a, b| a * b)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|a| a * s)
    }

    /// In-place `self += alpha * rhs` (axpy).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, rhs: &Tensor) {
        assert_eq!(self.shape(), rhs.shape(), "axpy shape mismatch");
        for (a, b) in self.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
            *a += alpha * b;
        }
        #[cfg(feature = "checked")]
        self.assert_finite("axpy");
    }

    /// Adds a `1 × cols` row vector to every row.
    ///
    /// # Panics
    ///
    /// Panics unless `bias` is `1 × self.cols()`.
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Tensor {
        assert_eq!(bias.rows(), 1, "bias must be a row vector");
        assert_eq!(bias.cols(), self.cols(), "bias width mismatch");
        let mut out = self.clone();
        for r in 0..out.rows() {
            for (o, b) in out.row_mut(r).iter_mut().zip(bias.row(0)) {
                *o += b;
            }
        }
        guard(out, "add_row_broadcast")
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        guard_scalar(self.as_slice().iter().sum(), "sum")
    }

    /// Arithmetic mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Column-wise sum: returns a `1 × cols` tensor whose column `c` is
    /// `0.0 + x₀c + x₁c + …` in row order.
    pub fn sum_rows(&self) -> Tensor {
        let mut out = Tensor::zeros(1, self.cols());
        for row in self.rows_iter() {
            for (o, v) in out.row_mut(0).iter_mut().zip(row) {
                *o += v;
            }
        }
        guard(out, "sum_rows")
    }

    /// Column-wise mean: returns a `1 × cols` tensor.
    pub fn mean_rows(&self) -> Tensor {
        if self.rows() == 0 {
            return Tensor::zeros(1, self.cols());
        }
        let mut out = self.sum_rows();
        let inv = 1.0 / self.rows() as f32;
        for o in out.as_mut_slice() {
            *o *= inv;
        }
        guard(out, "mean_rows")
    }

    /// Dot product of row `i` of `self` with row `j` of `rhs`.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn row_dot(&self, i: usize, rhs: &Tensor, j: usize) -> f32 {
        assert_eq!(self.cols(), rhs.cols(), "row_dot width mismatch");
        guard_scalar(
            self.row(i).iter().zip(rhs.row(j)).map(|(a, b)| a * b).sum(),
            "row_dot",
        )
    }

    /// Squared Frobenius norm.
    pub fn norm_sq(&self) -> f32 {
        guard_scalar(self.as_slice().iter().map(|v| v * v).sum(), "norm_sq")
    }

    /// Numerically-stable row-wise softmax.
    pub fn softmax_rows(&self) -> Tensor {
        let mut out = self.clone();
        let cols = out.cols();
        if out.is_empty() {
            return guard(out, "softmax_rows");
        }
        mhg_par::par_chunks_mut(out.as_mut_slice(), cols, 4 * cols, |_r0, chunk| {
            for row in chunk.chunks_exact_mut(cols) {
                let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let mut sum = 0.0;
                for v in row.iter_mut() {
                    *v = (*v - max).exp();
                    sum += *v;
                }
                let inv = 1.0 / sum;
                for v in row.iter_mut() {
                    *v *= inv;
                }
            }
        });
        guard(out, "softmax_rows")
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&self) -> Tensor {
        self.map(crate::ops::sigmoid_scalar)
    }

    /// Stacks tensors vertically (all must share a width).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or widths differ.
    pub fn vstack(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "vstack of zero tensors");
        let cols = parts[0].cols();
        let rows: usize = parts.iter().map(|p| p.rows()).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            assert_eq!(p.cols(), cols, "vstack width mismatch");
            data.extend_from_slice(p.as_slice());
        }
        guard(Tensor::from_vec(rows, cols, data), "vstack")
    }

    /// Gathers rows by index into a fresh tensor.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor {
        let (rows, cols) = (self.rows(), self.cols());
        for &idx in indices {
            assert!(
                idx < rows,
                "gather_rows index {idx} out of bounds for {rows} rows"
            );
        }
        let mut out = Tensor::zeros(indices.len(), cols);
        if out.is_empty() {
            return guard(out, "gather_rows");
        }
        let src = self.as_slice();
        // A row copy is a memcpy, far cheaper per element than the scalar
        // op `mhg-par`'s fan-out floor assumes. Counting one op per
        // `GATHER_ELEMS_PER_OP` elements puts the two-worker threshold at
        // 2^20 gathered elements, where two threads start to win (DESIGN
        // §2.10).
        let work_per_row = cols.div_ceil(GATHER_ELEMS_PER_OP);
        mhg_par::par_chunks_mut(out.as_mut_slice(), cols, work_per_row, |r0, chunk| {
            for (i, dst) in chunk.chunks_exact_mut(cols).enumerate() {
                let idx = indices[r0 + i];
                dst.copy_from_slice(&src[idx * cols..(idx + 1) * cols]);
            }
        });
        guard(out, "gather_rows")
    }

    /// Scatter-add: `self[indices[r], :] += src[r, :]` for every source row
    /// `r`, the adjoint of [`Tensor::gather_rows`].
    ///
    /// Serial: every destination row receives its adds in index order. A
    /// split over destination rows made every worker scan every index, and
    /// two threads ran at less than half the one-thread bandwidth (DESIGN
    /// §2.10).
    ///
    /// # Panics
    ///
    /// Panics if `indices.len() != src.rows()`, widths differ, or an index
    /// is out of bounds.
    pub fn scatter_add_rows(&mut self, indices: &[u32], src: &Tensor) {
        assert_eq!(
            indices.len(),
            src.rows(),
            "scatter_add_rows: {} indices for {} source rows",
            indices.len(),
            src.rows()
        );
        assert_eq!(
            self.cols(),
            src.cols(),
            "scatter_add_rows width mismatch: {} vs {}",
            self.cols(),
            src.cols()
        );
        let (rows, cols) = (self.rows(), self.cols());
        for &idx in indices {
            assert!(
                (idx as usize) < rows,
                "scatter_add_rows index {idx} out of bounds for {rows} rows"
            );
        }
        let (dst, s) = (self.as_mut_slice(), src.as_slice());
        for (r, &idx) in indices.iter().enumerate() {
            let idx = idx as usize;
            let row = &s[r * cols..(r + 1) * cols];
            for (d, v) in dst[idx * cols..(idx + 1) * cols].iter_mut().zip(row) {
                *d += v;
            }
        }
        #[cfg(feature = "checked")]
        self.assert_finite("scatter_add_rows");
    }
}

/// Numerically-stable scalar logistic sigmoid.
#[inline]
pub fn sigmoid_scalar(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// `ln(sigmoid(x))` computed without overflow for large negative `x`.
#[inline]
pub fn log_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        -(1.0 + (-x).exp()).ln()
    } else {
        x - (1.0 + x.exp()).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn matmul_small() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Tensor::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.matmul(&Tensor::eye(3)), a);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_mismatch() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matmul_transposed_agrees_with_explicit_transpose() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Tensor::from_rows(&[&[7.0, 8.0, 9.0], &[1.0, 0.5, -1.0]]);
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let via_t = a.matmul(&b.transpose());
        assert_eq!(bits(&a.matmul_transposed(&b)), bits(&via_t));
        let at_b = a.transpose().transposed_matmul(&b.transpose());
        assert_eq!(bits(&at_b), bits(&via_t));
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_rows(&[&[1.0, 2.0]]);
        let b = Tensor::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.add(&b), Tensor::from_rows(&[&[4.0, 6.0]]));
        assert_eq!(a.sub(&b), Tensor::from_rows(&[&[-2.0, -2.0]]));
        assert_eq!(a.mul(&b), Tensor::from_rows(&[&[3.0, 8.0]]));
        assert_eq!(a.scale(2.0), Tensor::from_rows(&[&[2.0, 4.0]]));
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_rows(&[&[1.0, 1.0]]);
        let b = Tensor::from_rows(&[&[2.0, 3.0]]);
        a.axpy(0.5, &b);
        assert_eq!(a, Tensor::from_rows(&[&[2.0, 2.5]]));
    }

    #[test]
    fn broadcast_bias() {
        let a = Tensor::from_rows(&[&[0.0, 0.0], &[1.0, 1.0]]);
        let bias = Tensor::row_vector(&[10.0, 20.0]);
        let out = a.add_row_broadcast(&bias);
        assert_eq!(out, Tensor::from_rows(&[&[10.0, 20.0], &[11.0, 21.0]]));
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert!(approx(a.sum(), 10.0));
        assert!(approx(a.mean(), 2.5));
        let mr = a.mean_rows();
        assert!(approx(mr[(0, 0)], 2.0));
        assert!(approx(mr[(0, 1)], 3.0));
        assert!(approx(a.norm_sq(), 30.0));
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[1000.0, 1000.0, 1000.0]]);
        let s = a.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!(approx(sum, 1.0));
        }
        assert!(s[(0, 2)] > s[(0, 1)] && s[(0, 1)] > s[(0, 0)]);
        // Large uniform logits must not overflow.
        assert!(approx(s[(1, 0)], 1.0 / 3.0));
    }

    #[test]
    fn sigmoid_stability() {
        assert!(approx(sigmoid_scalar(0.0), 0.5));
        assert!(sigmoid_scalar(100.0) > 0.999);
        assert!(sigmoid_scalar(-100.0) < 1e-4);
        assert!(sigmoid_scalar(-1000.0).is_finite());
        assert!(log_sigmoid(-1000.0).is_finite());
        assert!(approx(log_sigmoid(0.0), (0.5f32).ln()));
    }

    #[test]
    fn vstack_and_gather() {
        let a = Tensor::from_rows(&[&[1.0, 2.0]]);
        let b = Tensor::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let s = Tensor::vstack(&[&a, &b]);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.row(2), &[5.0, 6.0]);
        let g = s.gather_rows(&[2, 0]);
        assert_eq!(g, Tensor::from_rows(&[&[5.0, 6.0], &[1.0, 2.0]]));
    }

    #[test]
    fn scatter_add_is_gather_adjoint() {
        let mut table = Tensor::zeros(4, 2);
        let src = Tensor::from_rows(&[&[1.0, 2.0], &[10.0, 20.0], &[0.5, 0.5]]);
        table.scatter_add_rows(&[3, 1, 3], &src);
        assert_eq!(table.row(0), &[0.0, 0.0]);
        assert_eq!(table.row(1), &[10.0, 20.0]);
        assert_eq!(table.row(3), &[1.5, 2.5]);
    }

    #[test]
    #[should_panic(expected = "scatter_add_rows index")]
    fn scatter_add_rejects_out_of_bounds() {
        let mut table = Tensor::zeros(2, 2);
        let src = Tensor::zeros(1, 2);
        table.scatter_add_rows(&[2], &src);
    }

    #[test]
    fn row_dot() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]);
        assert!(approx(a.row_dot(0, &a, 1), 2.0));
    }
}
