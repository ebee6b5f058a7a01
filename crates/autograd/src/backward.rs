//! Reverse-mode gradient computation over the tape.

use mhg_tensor::{sigmoid_scalar, Tensor};

use crate::graph::{Graph, Op, Var};
use crate::store::GradStore;

impl Graph<'_> {
    /// Runs the backward pass from a `1 × 1` loss variable and returns the
    /// accumulated parameter gradients.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not `1 × 1`. Under `--features checked` the tape
    /// is additionally validated via [`Graph::validate_tape`] before the
    /// pass and the produced gradients via [`Graph::validate_grads`] after,
    /// so malformed tapes and corrupt gradients fail with a diagnostic.
    pub fn backward(&self, loss: Var) -> GradStore {
        #[cfg(feature = "checked")]
        self.validate_tape();
        let loss_t = self.value(loss);
        assert_eq!(
            (loss_t.rows(), loss_t.cols()),
            (1, 1),
            "backward() requires a scalar loss, got {}",
            loss_t.shape()
        );

        let n = self.nodes.len();
        let mut grads: Vec<Option<Tensor>> = vec![None; n];
        grads[loss.index()] = Some(Tensor::from_vec(1, 1, vec![1.0]));

        let mut store = GradStore::new();

        for i in (0..n).rev() {
            let Some(g) = grads[i].take() else { continue };
            match &self.nodes[i].op {
                Op::Leaf => {}
                Op::Param(pid) => store.accumulate_dense(*pid, g),
                Op::Gather { pid, indices } => store.accumulate_gather(*pid, indices, &g),
                Op::GatherSegmentMean(op) => {
                    // One call per segment, last segment first: the calls,
                    // and their order, of the reverse pass over a `gather` +
                    // `mean_rows` (or `scale(·, 0.0)`) pair per segment.
                    let cols = g.cols();
                    let mut rows = Vec::new();
                    for i in (0..op.centers.len()).rev() {
                        let segment = op.segment(i);
                        let (indices, s) = if segment.is_empty() {
                            (std::slice::from_ref(&op.centers[i]), 0.0)
                        } else {
                            (segment, 1.0 / segment.len() as f32)
                        };
                        rows.clear();
                        for _ in indices {
                            rows.extend(g.row(i).iter().map(|v| v * s));
                        }
                        store.accumulate_gather_rows(op.pid, indices, cols, &rows);
                    }
                }
                Op::MeanTowers(op) => op.backward(&g, self.store, &mut store),
                Op::SegmentAttention(op) => {
                    let gx = op.backward(self.value(op.x), &g, self.store, &mut store);
                    accumulate(&mut grads, op.x, gx);
                }
                Op::ProjectResidual(op) => {
                    let gx = op.backward(self.value(op.x), &g, self.store, &mut store);
                    accumulate(&mut grads, op.x, gx);
                }
                Op::Add(a, b) => {
                    accumulate(&mut grads, *a, g.clone());
                    accumulate(&mut grads, *b, g);
                }
                Op::Sub(a, b) => {
                    accumulate(&mut grads, *a, g.clone());
                    accumulate(&mut grads, *b, g.scale(-1.0));
                }
                Op::Mul(a, b) => {
                    let ga = g.mul(self.value(*b));
                    let gb = g.mul(self.value(*a));
                    accumulate(&mut grads, *a, ga);
                    accumulate(&mut grads, *b, gb);
                }
                Op::Scale(a, s) => accumulate(&mut grads, *a, g.scale(*s)),
                Op::MatMul(a, b) => {
                    // C = A·B ⇒ dA = dC·Bᵀ, dB = Aᵀ·dC
                    let ga = g.matmul_transposed(self.value(*b));
                    let gb = self.value(*a).transposed_matmul(&g);
                    accumulate(&mut grads, *a, ga);
                    accumulate(&mut grads, *b, gb);
                }
                Op::Transpose(a) => accumulate(&mut grads, *a, g.transpose()),
                Op::Sigmoid(a) => {
                    let y = &self.nodes[i].value;
                    let ga = g.zip_map(y, |gv, yv| gv * yv * (1.0 - yv));
                    accumulate(&mut grads, *a, ga);
                }
                Op::Tanh(a) => {
                    let y = &self.nodes[i].value;
                    let ga = g.zip_map(y, |gv, yv| gv * (1.0 - yv * yv));
                    accumulate(&mut grads, *a, ga);
                }
                Op::Relu(a) => {
                    let x = self.value(*a);
                    let ga = g.zip_map(x, |gv, xv| if xv > 0.0 { gv } else { 0.0 });
                    accumulate(&mut grads, *a, ga);
                }
                Op::SoftmaxRows(a) => {
                    // Per row: dx = y ⊙ (dy − (dy·y) 1); rows are independent,
                    // so they parallelise under the mhg-par contract.
                    let y = &self.nodes[i].value;
                    let cols = y.cols();
                    let mut ga = Tensor::zeros(y.rows(), cols);
                    if !ga.is_empty() {
                        let (gs, ys) = (g.as_slice(), y.as_slice());
                        mhg_par::par_chunks_mut(ga.as_mut_slice(), cols, 4 * cols, |r0, chunk| {
                            for (rr, out_row) in chunk.chunks_exact_mut(cols).enumerate() {
                                let r = r0 + rr;
                                let dy = &gs[r * cols..(r + 1) * cols];
                                let yr = &ys[r * cols..(r + 1) * cols];
                                let dot: f32 = dy.iter().zip(yr).map(|(d, v)| d * v).sum();
                                for ((o, &d), &v) in out_row.iter_mut().zip(dy).zip(yr) {
                                    *o = v * (d - dot);
                                }
                            }
                        });
                    }
                    accumulate(&mut grads, *a, ga);
                }
                Op::MeanRows(a) => {
                    let src_rows = self.value(*a).rows();
                    let inv = 1.0 / src_rows.max(1) as f32;
                    let mut ga = Tensor::zeros(src_rows, g.cols());
                    for r in 0..src_rows {
                        for (o, v) in ga.row_mut(r).iter_mut().zip(g.row(0)) {
                            *o = v * inv;
                        }
                    }
                    accumulate(&mut grads, *a, ga);
                }
                Op::ConcatRows(parts) => {
                    let cols = g.cols();
                    let mut offset = 0;
                    for &p in parts {
                        let rows = self.value(p).rows();
                        let block = &g.as_slice()[offset * cols..(offset + rows) * cols];
                        accumulate(&mut grads, p, Tensor::from_vec(rows, cols, block.to_vec()));
                        offset += rows;
                    }
                }
                Op::SliceRows(a, start, end) => {
                    let src = self.value(*a);
                    let cols = src.cols();
                    let mut ga = Tensor::zeros(src.rows(), cols);
                    ga.as_mut_slice()[start * cols..end * cols].copy_from_slice(g.as_slice());
                    accumulate(&mut grads, *a, ga);
                }
                Op::RowDot(a, b) => {
                    let (ta, tb) = (self.value(*a), self.value(*b));
                    let mut ga = Tensor::zeros(ta.rows(), ta.cols());
                    let mut gb = Tensor::zeros(tb.rows(), tb.cols());
                    for r in 0..ta.rows() {
                        let gr = g[(r, 0)];
                        for (o, &bv) in ga.row_mut(r).iter_mut().zip(tb.row(r)) {
                            *o = gr * bv;
                        }
                        for (o, &av) in gb.row_mut(r).iter_mut().zip(ta.row(r)) {
                            *o = gr * av;
                        }
                    }
                    accumulate(&mut grads, *a, ga);
                    accumulate(&mut grads, *b, gb);
                }
                Op::AddBroadcastRow(a, bias) => {
                    // d bias = column sums of g.
                    let mut gb = Tensor::zeros(1, g.cols());
                    for r in 0..g.rows() {
                        for (o, v) in gb.row_mut(0).iter_mut().zip(g.row(r)) {
                            *o += v;
                        }
                    }
                    accumulate(&mut grads, *a, g);
                    accumulate(&mut grads, *bias, gb);
                }
                Op::LogisticLoss { scores, labels } => {
                    // L = mean_i −log σ(y_i s_i) ⇒ dL/ds_i = −y_i σ(−y_i s_i)/n
                    let s = self.value(*scores);
                    let n = labels.len().max(1) as f32;
                    let upstream = g[(0, 0)];
                    let mut gs = Tensor::zeros(s.rows(), 1);
                    for (r, &y) in labels.iter().enumerate() {
                        gs[(r, 0)] = upstream * (-y * sigmoid_scalar(-y * s[(r, 0)])) / n;
                    }
                    accumulate(&mut grads, *scores, gs);
                }
                Op::SumAll(a) => {
                    let src = self.value(*a);
                    let ga = Tensor::full(src.rows(), src.cols(), g[(0, 0)]);
                    accumulate(&mut grads, *a, ga);
                }
            }
        }

        #[cfg(feature = "checked")]
        self.validate_grads(&store);
        store
    }
}

fn accumulate(grads: &mut [Option<Tensor>], v: Var, g: Tensor) {
    match &mut grads[v.index()] {
        Some(existing) => existing.axpy(1.0, &g),
        slot @ None => *slot = Some(g),
    }
}
