//! The differentiation tape: forward op recording.
//!
//! A [`Graph`] is created per training step, records the forward computation
//! as a flat tape of [`Node`]s, and is consumed by
//! [`Graph::backward`](crate::Graph::backward) to produce a
//! [`GradStore`](crate::GradStore). Variables ([`Var`]) are indices into the
//! tape and are `Copy`.

use mhg_tensor::Tensor;

use crate::store::{ParamId, ParamStore};

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
