//! The differentiation tape: forward op recording.
//!
//! A [`Graph`] is created per training step, records the forward computation
//! as a flat tape of [`Node`]s, and is consumed by
//! [`Graph::backward`](crate::Graph::backward) to produce a
//! [`GradStore`](crate::GradStore). Variables ([`Var`]) are indices into the
//! tape and are `Copy`.

use mhg_tensor::Tensor;

use crate::batched::{MeanTowers, ProjectResidual, SegmentAttention, Towers};
use crate::store::{ParamId, ParamStore};
use crate::validate::{check_projection, check_segment_attention, check_segments, check_towers};

/// Handle to a tape node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Var(pub(crate) u32);

impl Var {
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// An operation recorded on the tape.
#[derive(Debug)]
pub(crate) enum Op {
    /// Constant input; receives no gradient.
    Leaf,
    /// Whole-parameter leaf (small weight matrices).
    Param(ParamId),
    /// Embedding-row gather from a parameter table.
    Gather { pid: ParamId, indices: Vec<u32> },
    /// Per-segment mean of gathered table rows, boxed so that `Node` stays
    /// the size of the other variants.
    GatherSegmentMean(Box<SegmentMean>),
    /// Leaves-to-root mean-aggregation towers over a parameter table.
    MeanTowers(Box<MeanTowers>),
    /// Per-segment self-attention and/or mean over a variable's rows.
    SegmentAttention(Box<SegmentAttention>),
    /// Per-row projection plus a gathered table row, of picked rows.
    ProjectResidual(Box<ProjectResidual>),
    /// Elementwise sum.
    Add(Var, Var),
    /// Elementwise difference.
    Sub(Var, Var),
    /// Elementwise product.
    Mul(Var, Var),
    /// Scalar multiple.
    Scale(Var, f32),
    /// Matrix product.
    MatMul(Var, Var),
    /// Transpose.
    Transpose(Var),
    /// Logistic sigmoid.
    Sigmoid(Var),
    /// Hyperbolic tangent.
    Tanh(Var),
    /// Rectified linear unit.
    Relu(Var),
    /// Row-wise softmax.
    SoftmaxRows(Var),
    /// Column-wise mean producing a `1 × d` row.
    MeanRows(Var),
    /// Vertical stack of rows.
    ConcatRows(Vec<Var>),
    /// Row-wise dot product of two `n × d` tensors, producing `n × 1`.
    RowDot(Var, Var),
    /// Adds a `1 × d` row vector to every row of a matrix.
    AddBroadcastRow(Var, Var),
    /// Contiguous row slice `[start, end)`.
    SliceRows(Var, usize, usize),
    /// Mean negative log-sigmoid loss over labelled scores (`n × 1` → `1 × 1`).
    LogisticLoss { scores: Var, labels: Vec<f32> },
    /// Sum of all entries (`1 × 1`).
    SumAll(Var),
}

/// The payload of a [`Graph::gather_segment_mean`] node.
#[derive(Debug)]
pub(crate) struct SegmentMean {
    pub pid: ParamId,
    /// The table rows of every segment, back to back.
    pub ids: Vec<u32>,
    /// Segment `i` is `ids[offsets[i]..offsets[i + 1]]`.
    pub offsets: Vec<usize>,
    /// One row per segment; an empty segment `i` yields `centers[i]`'s row
    /// times `0.0`.
    pub centers: Vec<u32>,
}

impl SegmentMean {
    /// The table rows of segment `i`.
    #[inline]
    pub fn segment(&self, i: usize) -> &[u32] {
        &self.ids[self.offsets[i]..self.offsets[i + 1]]
    }
}

pub(crate) struct Node {
    pub value: Tensor,
    pub op: Op,
}

/// A per-step reverse-mode differentiation tape.
pub struct Graph<'s> {
    pub(crate) store: &'s ParamStore,
    pub(crate) nodes: Vec<Node>,
}

impl<'s> Graph<'s> {
    /// Creates an empty tape over a parameter store.
    pub fn new(store: &'s ParamStore) -> Self {
        Self {
            store,
            nodes: Vec::with_capacity(256),
        }
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        #[cfg(feature = "checked")]
        value.assert_finite(&format!("recording tape node {op:?}"));
        #[cfg(not(feature = "checked"))]
        debug_assert!(value.all_finite(), "non-finite value produced by {op:?}");
        let v = Var(self.nodes.len() as u32);
        self.nodes.push(Node { value, op });
        v
    }

    /// The forward value of a variable.
    ///
    /// # Panics
    ///
    /// Under `--features checked`, panics with a diagnostic if `v` does not
    /// belong to this tape (a dangling `Var` forged on another graph).
    #[inline]
    pub fn value(&self, v: Var) -> &Tensor {
        #[cfg(feature = "checked")]
        assert!(
            v.index() < self.nodes.len(),
            "dangling Var #{}: this tape has only {} node(s) — was the Var \
             created on another Graph?",
            v.index(),
            self.nodes.len(),
        );
        &self.nodes[v.index()].value
    }

    /// Shape of a parameter in the underlying store (no tape node created).
    pub fn param_shape(&self, id: ParamId) -> mhg_tensor::Shape {
        self.store.value(id).shape()
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    // ------------------------------------------------------------------
    // Inputs
    // ------------------------------------------------------------------

    /// Records a constant (non-differentiable) input.
    pub fn constant(&mut self, t: Tensor) -> Var {
        self.push(t, Op::Leaf)
    }

    /// Records a whole parameter as a differentiable leaf.
    ///
    /// Copies the value onto the tape — intended for small weight matrices.
    /// For embedding tables use [`Graph::gather`].
    pub fn param(&mut self, id: ParamId) -> Var {
        let value = self.store.value(id).clone();
        self.push(value, Op::Param(id))
    }

    /// Gathers rows `indices` of parameter `id` into an `n × d` variable.
    ///
    /// The backward pass scatter-adds into a sparse per-row gradient, so the
    /// full table is never materialised on the tape.
    pub fn gather(&mut self, id: ParamId, indices: &[u32]) -> Var {
        let table = self.store.value(id);
        let mut out = Tensor::zeros(indices.len(), table.cols());
        for (r, &idx) in indices.iter().enumerate() {
            assert!(
                (idx as usize) < table.rows(),
                "gather: row index {idx} out of bounds for parameter table \
                 `{}` with {} rows",
                self.store.name(id),
                table.rows()
            );
            out.set_row(r, table.row(idx as usize));
        }
        self.push(
            out,
            Op::Gather {
                pid: id,
                indices: indices.to_vec(),
            },
        )
    }

    /// One row per segment: row `i` is the mean of table rows
    /// `ids[offsets[i]..offsets[i + 1]]` of parameter `id`, or
    /// `centers[i]`'s row times `0.0` when that segment is empty.
    ///
    /// Bit-identical, forward and backward, to a [`Graph::gather`] plus a
    /// [`Graph::mean_rows`] per segment (a `gather` of the centre and a
    /// [`Graph::scale`] by `0.0` for an empty one) stacked by
    /// [`Graph::concat_rows`], but recorded as a single tape node.
    ///
    /// # Panics
    ///
    /// Panics unless `offsets` starts at 0, never decreases and ends at
    /// `ids.len()`, `centers` has one entry per segment, and every id and
    /// centre is a row of the table.
    pub fn gather_segment_mean(
        &mut self,
        id: ParamId,
        ids: Vec<u32>,
        offsets: Vec<usize>,
        centers: Vec<u32>,
    ) -> Var {
        let table = self.store.value(id);
        let op = SegmentMean {
            pid: id,
            ids,
            offsets,
            centers,
        };
        check_segments(
            &op,
            table.shape(),
            "gather_segment_mean",
            self.store.name(id),
        );
        let mut out = Tensor::zeros(op.centers.len(), table.cols());
        for (i, &center) in op.centers.iter().enumerate() {
            let dst = out.row_mut(i);
            let segment = op.segment(i);
            if segment.is_empty() {
                for (o, &x) in dst.iter_mut().zip(table.row(center as usize)) {
                    *o = x * 0.0;
                }
                continue;
            }
            // `Tensor::mean_rows`: a zero-seeded sum in segment order, then
            // one multiply by the inverse length.
            for &row in segment {
                for (o, &x) in dst.iter_mut().zip(table.row(row as usize)) {
                    *o += x;
                }
            }
            let inv = 1.0 / segment.len() as f32;
            for o in dst {
                *o *= inv;
            }
        }
        self.push(out, Op::GatherSegmentMean(Box::new(op)))
    }

    /// One row per tower of `towers`: a tower is a leaves-to-root mean
    /// aggregation over table rows (HybridGNN's Eqs. 3–4). Starting at its
    /// leaf step, each step pools the mean of its ids' rows and of the row
    /// carried up from the step below, then carries up
    /// `tanh(pooled · W)`; the root step's row is the tower's output.
    ///
    /// Bit-identical, forward and backward, to this composition per tower,
    /// stacked by [`Graph::concat_rows`]: one [`Graph::param`] of `W`, then
    /// per step, leaf first, a [`Graph::gather`] of its ids,
    /// [`Graph::concat_rows`] with the carried row (none at the leaf),
    /// [`Graph::mean_rows`], [`Graph::matmul`] by `W` and [`Graph::tanh`].
    /// The backward replays that composition's gradient calls in its order
    /// (towers last to first, each tower's steps root to leaf, then one
    /// dense call of its weight's partial), so a weight shared by several
    /// towers sums the same way.
    ///
    /// # Panics
    ///
    /// Panics unless both offset lists start at 0 and never decrease, the
    /// step offsets end at `ids.len()`, every tower has at least one step
    /// and the tower offsets end at the step count, there is one weight per
    /// tower, each a registered `d × d` parameter for the table's width
    /// `d`, and every id is a row of the table.
    pub fn mean_towers(&mut self, table: ParamId, ids: Vec<u32>, towers: Towers) -> Var {
        check_towers(self.store, table, &ids, &towers, "mean_towers");
        let (op, out) = MeanTowers::forward(self.store, table, ids, towers);
        self.push(out, Op::MeanTowers(Box::new(op)))
    }

    /// Scaled dot-product self-attention within each segment of `x`'s rows
    /// (HybridGNN's Eq. 9): segment `i`, rows `offsets[i]..offsets[i + 1]`,
    /// becomes `softmax(X·Wq · (X·Wk)ᵀ / √d_k) · X·Wv` with
    /// `[Wq, Wk, Wv] = qkv`, so the output has one row per row of `x`.
    ///
    /// Bit-identical, forward and backward, to this composition per
    /// segment, each over its own variable `X`: a [`Graph::param`] and
    /// [`Graph::matmul`] each for `Q`, `K` and `V`, [`Graph::transpose`] of
    /// `K`, [`Graph::matmul`], [`Graph::scale`] by `1/√d_k`,
    /// [`Graph::softmax_rows`] and [`Graph::matmul`] by `V`; stacked by
    /// [`Graph::concat_rows`]. The backward makes each segment's `Wv`,
    /// `Wk`, `Wq` gradient calls, last segment first. The softmax weights
    /// stay readable through [`Graph::attention_weights`].
    ///
    /// # Panics
    ///
    /// Panics unless `offsets` starts at 0, strictly increases (no empty
    /// segment) and ends at `x`'s row count, and `Wq`, `Wk` are `d × d_k`
    /// and `Wv` is `d × d_v` for `x`'s width `d`.
    pub fn segment_attention(&mut self, x: Var, offsets: Vec<usize>, qkv: [ParamId; 3]) -> Var {
        self.segment_op(x, offsets, Some(qkv), false, "segment_attention")
    }

    /// One row per segment of `x`'s rows: the mean of the segment's rows,
    /// after [`Graph::segment_attention`]'s self-attention within it when
    /// `attention` is `Some([Wq, Wk, Wv])` (HybridGNN's Eqs. 6–7; with
    /// `None`, the plain mean of its ablation).
    ///
    /// Bit-identical, forward and backward, to the per-segment composition
    /// of [`Graph::segment_attention`] (or none) followed by
    /// [`Graph::mean_rows`], stacked by [`Graph::concat_rows`].
    ///
    /// # Panics
    ///
    /// As [`Graph::segment_attention`].
    pub fn segment_mean_rows(
        &mut self,
        x: Var,
        offsets: Vec<usize>,
        attention: Option<[ParamId; 3]>,
    ) -> Var {
        self.segment_op(x, offsets, attention, true, "segment_mean_rows")
    }

    fn segment_op(
        &mut self,
        x: Var,
        offsets: Vec<usize>,
        qkv: Option<[ParamId; 3]>,
        pool: bool,
        ctx: &str,
    ) -> Var {
        let xv = self.value(x);
        check_segment_attention(self.store, xv.shape(), &offsets, qkv, ctx);
        let (op, out) = SegmentAttention::forward(self.store, x, xv, offsets, qkv, pool);
        self.push(out, Op::SegmentAttention(Box::new(op)))
    }

    /// The `n × n` softmax weights, row-major, of segment `segment` of a
    /// [`Graph::segment_attention`] or attending
    /// [`Graph::segment_mean_rows`] node; `None` for any other node or
    /// segment.
    pub fn attention_weights(&self, v: Var, segment: usize) -> Option<&[f32]> {
        match &self.nodes.get(v.index())?.op {
            Op::SegmentAttention(op) => op.weights(segment),
            _ => None,
        }
    }

    /// HybridGNN's Eq. 10 for a batch of centres, `e*_{c,r} = e_c +
    /// x_{c,r} · W_r`, emitting the rows `picks` selects. Centre `c` owns
    /// the `L = weights.len()` rows `c·L..(c + 1)·L` of `x` and table row
    /// `centres[c]`; row `c·L + r` is projected by `weights[r]`. Output row
    /// `j` is projected row `picks[j]`.
    ///
    /// Bit-identical, forward and backward, to this composition, with each
    /// centre's block of `x` its own `L`-row variable: per centre, a
    /// [`Graph::gather`] of its table row, then per row `r` a
    /// [`Graph::slice_rows`], a [`Graph::param`] of `weights[r]`, a
    /// [`Graph::matmul`] and a [`Graph::add`] of the table row; then a
    /// [`Graph::concat_rows`] of the picked rows. So each picked row makes
    /// one dense gradient call of its weight, each centre one gather call
    /// of its table row, and a centre's block of `x`'s gradient carries the
    /// `+ 0.0` that summing its zero-padded slice gradients adds.
    ///
    /// # Panics
    ///
    /// Panics unless `weights` is not empty, `x` has `L` rows per centre,
    /// every weight is a registered `d_x × d` parameter for `x`'s width
    /// `d_x` and the table's width `d`, every centre is a row of the table,
    /// and every pick is a row of `x`, with each centre picked at least
    /// once.
    pub fn project_residual(
        &mut self,
        x: Var,
        table: ParamId,
        centres: Vec<u32>,
        weights: Vec<ParamId>,
        picks: Vec<u32>,
    ) -> Var {
        let xv = self.value(x);
        let op = ProjectResidual {
            x,
            table,
            centres,
            weights,
            picks,
        };
        check_projection(self.store, xv.shape(), &op, "project_residual");
        let out = op.forward(self.store, xv);
        self.push(out, Op::ProjectResidual(Box::new(op)))
    }

    // ------------------------------------------------------------------
    // Arithmetic
    // ------------------------------------------------------------------

    /// Elementwise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).add(self.value(b));
        self.push(value, Op::Add(a, b))
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).sub(self.value(b));
        self.push(value, Op::Sub(a, b))
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).mul(self.value(b));
        self.push(value, Op::Mul(a, b))
    }

    /// Scalar multiple.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let value = self.value(a).scale(s);
        self.push(value, Op::Scale(a, s))
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).matmul(self.value(b));
        self.push(value, Op::MatMul(a, b))
    }

    /// Transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let value = self.value(a).transpose();
        self.push(value, Op::Transpose(a))
    }

    /// Adds a `1 × d` row vector to every row of `a`.
    pub fn add_broadcast_row(&mut self, a: Var, bias: Var) -> Var {
        let value = self.value(a).add_row_broadcast(self.value(bias));
        self.push(value, Op::AddBroadcastRow(a, bias))
    }

    // ------------------------------------------------------------------
    // Nonlinearities
    // ------------------------------------------------------------------

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let value = self.value(a).sigmoid();
        self.push(value, Op::Sigmoid(a))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let value = self.value(a).map(f32::tanh);
        self.push(value, Op::Tanh(a))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let value = self.value(a).map(|x| x.max(0.0));
        self.push(value, Op::Relu(a))
    }

    /// Numerically-stable row-wise softmax.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let value = self.value(a).softmax_rows();
        self.push(value, Op::SoftmaxRows(a))
    }

    // ------------------------------------------------------------------
    // Structure
    // ------------------------------------------------------------------

    /// Column-wise mean producing a `1 × d` row vector.
    pub fn mean_rows(&mut self, a: Var) -> Var {
        let value = self.value(a).mean_rows();
        self.push(value, Op::MeanRows(a))
    }

    /// Vertically stacks variables (all must share a width).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty.
    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_rows of zero vars");
        let tensors: Vec<&Tensor> = parts.iter().map(|&p| self.value(p)).collect();
        let value = Tensor::vstack(&tensors);
        self.push(value, Op::ConcatRows(parts.to_vec()))
    }

    /// Contiguous row slice `[start, end)` of `a`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or empty.
    pub fn slice_rows(&mut self, a: Var, start: usize, end: usize) -> Var {
        let src = self.value(a);
        assert!(
            start < end && end <= src.rows(),
            "bad row slice {start}..{end}"
        );
        let indices: Vec<usize> = (start..end).collect();
        let value = src.gather_rows(&indices);
        self.push(value, Op::SliceRows(a, start, end))
    }

    /// Row-wise dot product of two `n × d` variables, producing `n × 1`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn row_dot(&mut self, a: Var, b: Var) -> Var {
        let (ta, tb) = (self.value(a), self.value(b));
        assert_eq!(ta.shape(), tb.shape(), "row_dot shape mismatch");
        let mut value = Tensor::zeros(ta.rows(), 1);
        for i in 0..ta.rows() {
            value[(i, 0)] = ta.row_dot(i, tb, i);
        }
        self.push(value, Op::RowDot(a, b))
    }

    // ------------------------------------------------------------------
    // Losses
    // ------------------------------------------------------------------

    /// Mean negative log-sigmoid loss: `mean_i -log σ(labels[i] · scores[i])`.
    ///
    /// `labels` must be ±1: +1 for positive pairs, −1 for negative samples.
    /// This is the skip-gram-with-negative-sampling objective of the paper's
    /// Eq. 13 applied to a batch of scored pairs.
    ///
    /// # Panics
    ///
    /// Panics unless `scores` is `n × 1` with `n == labels.len()`.
    pub fn logistic_loss(&mut self, scores: Var, labels: &[f32]) -> Var {
        let s = self.value(scores);
        assert_eq!(s.cols(), 1, "scores must be a column");
        assert_eq!(s.rows(), labels.len(), "labels length mismatch");
        debug_assert!(labels.iter().all(|&l| l == 1.0 || l == -1.0));
        let n = labels.len().max(1) as f32;
        let loss = -labels
            .iter()
            .zip(s.as_slice())
            .map(|(&y, &sc)| mhg_tensor::log_sigmoid(y * sc))
            .sum::<f32>()
            / n;
        self.push(
            Tensor::from_vec(1, 1, vec![loss]),
            Op::LogisticLoss {
                scores,
                labels: labels.to_vec(),
            },
        )
    }

    /// Sum of all entries, producing `1 × 1`.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let value = Tensor::from_vec(1, 1, vec![self.value(a).sum()]);
        self.push(value, Op::SumAll(a))
    }

    /// The scalar value of a `1 × 1` variable.
    ///
    /// # Panics
    ///
    /// Panics if the variable is not `1 × 1`.
    pub fn scalar(&self, v: Var) -> f32 {
        let t = self.value(v);
        assert_eq!((t.rows(), t.cols()), (1, 1), "scalar() on non-scalar");
        t.as_slice()[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_op_is_wider_than_a_gather() {
        // A HybridGNN step records thousands of nodes: a variant with a
        // wider inline payload than `Gather`'s would grow every one of them.
        // Large payloads go behind a `Box`.
        assert!(std::mem::size_of::<Op>() <= std::mem::size_of::<(ParamId, Vec<u32>)>());
    }
}
