//! Batched tape nodes for models whose per-node computation is a short
//! chain of row-wise ops: one node stands for a whole batch of per-node
//! subgraphs.
//!
//! Each op here is bit-identical, forward and backward, to a composition of
//! the tape's public ops (documented on its `Graph` method). Two rules make
//! that hold:
//!
//! * **Forward:** every output is computed by the arithmetic of the op it
//!   replaces, row by row: [`gemm`] keeps `Tensor::matmul`'s contract, and
//!   means, softmax and `tanh` are the same expressions as in `mhg-tensor`.
//! * **Backward (order replay):** the `GradStore` calls are the ones the
//!   reverse pass over the composition would make, in its order, for each
//!   parameter: one `accumulate_gather` per gathered step and one
//!   `accumulate_dense` per weight use, never one `Xᵀ·G` over the batch.
//!   A shared weight's gradient is the same sum in the same association.
//!   Within a replaced subgraph, every tape-slot sum keeps its order too,
//!   down to the `+ 0.0` of a zero-padded `slice_rows` gradient.

use std::fmt;
use std::ops::Range;

use mhg_tensor::Tensor;

use crate::graph::Var;
use crate::store::{GradStore, ParamId, ParamStore};

/// The layout of a [`Graph::mean_towers`](crate::Graph::mean_towers) node:
/// which ids each step gathers, which steps each tower runs, and the weight
/// each tower applies.
///
/// Step `s` gathers `ids[step_offsets[s]..step_offsets[s + 1]]`. Tower `t`
/// runs steps `tower_offsets[t]..tower_offsets[t + 1]`, its root step first
/// and its leaf step last, and multiplies every pooled step by
/// `weights[t]`. Build one with [`Towers::end_step`] and
/// [`Towers::end_tower`], or fill the fields directly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Towers {
    /// Step boundaries in the id list; starts at 0.
    pub step_offsets: Vec<usize>,
    /// Tower boundaries in the step list; starts at 0.
    pub tower_offsets: Vec<usize>,
    /// One weight per tower.
    pub weights: Vec<ParamId>,
}

impl Default for Towers {
    fn default() -> Self {
        Self::new()
    }
}

impl Towers {
    /// A layout with no towers yet.
    pub fn new() -> Self {
        Self {
            step_offsets: vec![0],
            tower_offsets: vec![0],
            weights: Vec::new(),
        }
    }

    /// Ends the current step: it gathers the ids from the previous step's
    /// end up to `end`.
    pub fn end_step(&mut self, end: usize) {
        self.step_offsets.push(end);
    }

    /// Ends the current tower: the steps since the previous tower, root
    /// first, each multiplied by `weight`.
    pub fn end_tower(&mut self, weight: ParamId) {
        self.tower_offsets.push(self.step_offsets.len() - 1);
        self.weights.push(weight);
    }

    /// Number of towers.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether there are no towers.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Number of steps over all towers.
    pub(crate) fn num_steps(&self) -> usize {
        self.step_offsets.len() - 1
    }

    /// The steps of tower `t`, root first.
    fn steps(&self, t: usize) -> Range<usize> {
        self.tower_offsets[t]..self.tower_offsets[t + 1]
    }

    /// The ids step `s` gathers.
    fn step_ids<'a>(&self, ids: &'a [u32], s: usize) -> &'a [u32] {
        &ids[self.step_offsets[s]..self.step_offsets[s + 1]]
    }
}

/// The payload of a [`Graph::mean_towers`](crate::Graph::mean_towers) node.
pub(crate) struct MeanTowers {
    pub table: ParamId,
    pub ids: Vec<u32>,
    pub towers: Towers,
    /// Per step, its pooled row: the mean of its ids' rows and the row
    /// carried up from the step below it.
    pooled: Vec<f32>,
    /// Per step, `tanh(pooled · W)`: the row it carries up, or, for a root
    /// step, its tower's output.
    act: Vec<f32>,
}

impl fmt::Debug for MeanTowers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MeanTowers {{ table: #{}, towers: {}, steps: {}, ids: {} }}",
            self.table.index(),
            self.towers.len(),
            self.towers.num_steps(),
            self.ids.len()
        )
    }
}

impl MeanTowers {
    /// Runs every tower, leaf step to root step, and returns the payload and
    /// the `towers × cols` output. The layout must already be checked.
    pub fn forward(
        store: &ParamStore,
        table: ParamId,
        ids: Vec<u32>,
        towers: Towers,
    ) -> (Self, Tensor) {
        let rows = store.value(table);
        let d = rows.cols();
        let steps = towers.num_steps();
        let mut pooled = vec![0.0; steps * d];
        let mut act = vec![0.0; steps * d];
        let mut out = Tensor::zeros(towers.len(), d);
        for t in 0..towers.len() {
            let w = store.value(towers.weights[t]).as_slice();
            let mut carried: Option<usize> = None;
            for s in towers.steps(t).rev() {
                // `Tensor::mean_rows` over the step's rows, then the carried
                // row: a zero-seeded sum, then one multiply by the inverse
                // count (no multiply when the stack is empty).
                let p = &mut pooled[s * d..(s + 1) * d];
                let step_ids = towers.step_ids(&ids, s);
                for &id in step_ids {
                    add_into(p, rows.row(id as usize));
                }
                let mut n = step_ids.len();
                if let Some(c) = carried {
                    add_into(p, &act[c * d..(c + 1) * d]);
                    n += 1;
                }
                if n > 0 {
                    let inv = 1.0 / n as f32;
                    for v in p.iter_mut() {
                        *v *= inv;
                    }
                }
                let y = &mut act[s * d..(s + 1) * d];
                gemm(Mat::rows(p, d), Mat::rows(w, d), 1, d, d, y);
                for v in y.iter_mut() {
                    *v = v.tanh();
                }
                carried = Some(s);
            }
            if let Some(root) = carried {
                out.set_row(t, &act[root * d..(root + 1) * d]);
            }
        }
        let op = Self {
            table,
            ids,
            towers,
            pooled,
            act,
        };
        (op, out)
    }

    /// Replays the reverse pass over the per-tower composition: towers last
    /// to first, each tower's steps root to leaf with one
    /// `accumulate_gather` per non-empty step, then one `accumulate_dense`
    /// of the tower's `((root + mid) + leaf)` weight partial.
    pub fn backward(&self, g: &Tensor, store: &ParamStore, grads: &mut GradStore) {
        let d = g.cols();
        let mut up = vec![0.0; d];
        let mut g_lin = vec![0.0; d];
        let mut g_pooled = vec![0.0; d];
        let (mut g_w, mut g_step) = (vec![0.0; d * d], vec![0.0; d * d]);
        let mut rows = Vec::new();
        for t in (0..self.towers.len()).rev() {
            let w = store.value(self.towers.weights[t]).as_slice();
            up.copy_from_slice(g.row(t));
            let steps = self.towers.steps(t);
            let leaf = steps.end - 1;
            for s in steps.clone() {
                // tanh: dx = dy · (1 − y²).
                let y = &self.act[s * d..(s + 1) * d];
                for ((o, &u), &yv) in g_lin.iter_mut().zip(&up).zip(y) {
                    *o = u * (1.0 - yv * yv);
                }
                // pooled · W: d pooled = d lin · Wᵀ, dW = pooledᵀ · d lin.
                gemm(
                    Mat::rows(&g_lin, d),
                    Mat::cols(w, d),
                    1,
                    d,
                    d,
                    &mut g_pooled,
                );
                // The weight's tape slot: the root's product as is, each
                // deeper one added to it (`Tensor::axpy` with `1.0`).
                let pooled = Mat::cols(&self.pooled[s * d..(s + 1) * d], 1);
                let dy = Mat::rows(&g_lin, d);
                if s == steps.start {
                    gemm(pooled, dy, d, 1, d, &mut g_w);
                } else {
                    gemm(pooled, dy, d, 1, d, &mut g_step);
                    add_into(&mut g_w, &g_step);
                }
                // mean_rows: every stacked row gets d pooled / count.
                let step_ids = self.towers.step_ids(&self.ids, s);
                let n = step_ids.len() + usize::from(s < leaf);
                let inv = 1.0 / n.max(1) as f32;
                for v in g_pooled.iter_mut() {
                    *v *= inv;
                }
                if !step_ids.is_empty() {
                    rows.clear();
                    for _ in step_ids {
                        rows.extend_from_slice(&g_pooled);
                    }
                    grads.accumulate_gather_rows(self.table, step_ids, d, &rows);
                }
                up.copy_from_slice(&g_pooled);
            }
            grads.accumulate_dense_rows(self.towers.weights[t], d, d, &g_w);
        }
    }
}

/// The payload of a [`Graph::segment_attention`](crate::Graph::segment_attention)
/// or [`Graph::segment_mean_rows`](crate::Graph::segment_mean_rows) node.
pub(crate) struct SegmentAttention {
    pub x: Var,
    /// Segment `i` is rows `offsets[i]..offsets[i + 1]` of `x`.
    pub offsets: Vec<usize>,
    /// `[Wq, Wk, Wv]`, or `None` for a plain mean.
    pub qkv: Option<[ParamId; 3]>,
    /// One output row per segment, the mean of its rows, instead of one
    /// per input row.
    pub pool: bool,
    /// Per input row, its `x·Wq`, `x·Wk` and `x·Wv` rows.
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    /// Per segment of `n` rows, its `n × n` softmax weights, back to back;
    /// segment `i` starts at `attn_offsets[i]`.
    attn: Vec<f32>,
    attn_offsets: Vec<usize>,
}

impl fmt::Debug for SegmentAttention {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SegmentAttention {{ x: Var #{}, segments: {}, attention: {}, pool: {} }}",
            self.x.index(),
            self.offsets.len() - 1,
            self.qkv.is_some(),
            self.pool
        )
    }
}

impl SegmentAttention {
    /// Attends within every segment of `x` (when `qkv` is set) and pools
    /// each segment to its mean row (when `pool` is set). The layout must
    /// already be checked.
    pub fn forward(
        store: &ParamStore,
        x: Var,
        xv: &Tensor,
        offsets: Vec<usize>,
        qkv: Option<[ParamId; 3]>,
        pool: bool,
    ) -> (Self, Tensor) {
        let d = xv.cols();
        let segments = offsets.len() - 1;
        let mut op = Self {
            x,
            offsets,
            qkv,
            pool,
            q: Vec::new(),
            k: Vec::new(),
            v: Vec::new(),
            attn: Vec::new(),
            attn_offsets: vec![0],
        };
        let Some([wq, wk, wv]) = qkv else {
            let mut out = Tensor::zeros(segments, d);
            for i in 0..segments {
                let seg = op.segment(i);
                mean_rows(
                    &xv.as_slice()[seg.start * d..seg.end * d],
                    d,
                    out.row_mut(i),
                );
            }
            return (op, out);
        };
        let (wq, wk, wv) = (store.value(wq), store.value(wk), store.value(wv));
        let (dk, dv) = (wq.cols(), wv.cols());
        let rows = xv.rows();
        op.q = vec![0.0; rows * dk];
        op.k = vec![0.0; rows * dk];
        op.v = vec![0.0; rows * dv];
        // Every output row depends on its own input row only.
        let all = Mat::rows(xv.as_slice(), d);
        gemm(all, Mat::rows(wq.as_slice(), dk), rows, d, dk, &mut op.q);
        gemm(all, Mat::rows(wk.as_slice(), dk), rows, d, dk, &mut op.k);
        gemm(all, Mat::rows(wv.as_slice(), dv), rows, d, dv, &mut op.v);
        let scale = 1.0 / (dk as f32).sqrt();
        let mut out = Tensor::zeros(if pool { segments } else { rows }, dv);
        let mut attended = Vec::new();
        for i in 0..segments {
            let seg = op.segment(i);
            let n = seg.len();
            let at = op.attn.len();
            op.attn.resize(at + n * n, 0.0);
            op.attn_offsets.push(op.attn.len());
            let a = &mut op.attn[at..];
            let q = Mat::rows(&op.q[seg.start * dk..seg.end * dk], dk);
            let k = Mat::cols(&op.k[seg.start * dk..seg.end * dk], dk);
            gemm(q, k, n, dk, n, a);
            for l in a.iter_mut() {
                *l *= scale;
            }
            softmax_rows(a, n);
            let v = Mat::rows(&op.v[seg.start * dv..seg.end * dv], dv);
            if pool {
                attended.clear();
                attended.resize(n * dv, 0.0);
                gemm(Mat::rows(a, n), v, n, n, dv, &mut attended);
                mean_rows(&attended, dv, out.row_mut(i));
            } else {
                let dst = &mut out.as_mut_slice()[seg.start * dv..seg.end * dv];
                gemm(Mat::rows(a, n), v, n, n, dv, dst);
            }
        }
        (op, out)
    }

    /// The rows of segment `i`.
    fn segment(&self, i: usize) -> Range<usize> {
        self.offsets[i]..self.offsets[i + 1]
    }

    /// The `n × n` softmax weights of segment `i`, row-major, if the node
    /// attends.
    pub fn weights(&self, i: usize) -> Option<&[f32]> {
        self.qkv?;
        Some(&self.attn[*self.attn_offsets.get(i)?..*self.attn_offsets.get(i + 1)?])
    }

    /// Replays the reverse pass over the per-segment composition, last
    /// segment first: each segment's `Wv`, `Wk` and `Wq` gradients, in that
    /// order, and its rows of the returned gradient of `x`.
    pub fn backward(
        &self,
        xv: &Tensor,
        g: &Tensor,
        store: &ParamStore,
        grads: &mut GradStore,
    ) -> Tensor {
        let d = xv.cols();
        let mut gx = Tensor::zeros(xv.rows(), d);
        let out_cols = g.cols();
        let mut g_out = Vec::new();
        let segments = self.offsets.len() - 1;
        let Some([wq, wk, wv]) = self.qkv else {
            // The mean alone: every row gets g / count.
            for i in (0..segments).rev() {
                let seg = self.segment(i);
                spread_mean(g.row(i), seg.len(), block_mut(&mut gx, seg));
            }
            return gx;
        };
        let (wq_t, wk_t, wv_t) = (store.value(wq), store.value(wk), store.value(wv));
        let (dk, dv) = (wq_t.cols(), wv_t.cols());
        let scale = 1.0 / (dk as f32).sqrt();
        let (mut g_attn, mut g_v, mut g_q, mut g_k) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let (mut g_x, mut term, mut g_w) = (Vec::new(), Vec::new(), Vec::new());
        for i in (0..segments).rev() {
            let seg = self.segment(i);
            let n = seg.len();
            if self.pool {
                g_out.clear();
                g_out.resize(n * out_cols, 0.0);
                spread_mean(g.row(i), n, &mut g_out);
            } else {
                g_out.clear();
                g_out.extend_from_slice(&g.as_slice()[seg.start * dv..seg.end * dv]);
            }
            let x = &xv.as_slice()[seg.start * d..seg.end * d];
            let q = &self.q[seg.start * dk..seg.end * dk];
            let k = &self.k[seg.start * dk..seg.end * dk];
            let v = &self.v[seg.start * dv..seg.end * dv];
            let a = &self.attn[self.attn_offsets[i]..self.attn_offsets[i + 1]];
            // out = attn · V.
            resize(&mut g_attn, n * n);
            gemm(
                Mat::rows(&g_out, dv),
                Mat::cols(v, dv),
                n,
                dv,
                n,
                &mut g_attn,
            );
            resize(&mut g_v, n * dv);
            gemm(Mat::cols(a, n), Mat::rows(&g_out, dv), n, n, dv, &mut g_v);
            // softmax, then the 1/√d_k scale.
            softmax_rows_backward(&mut g_attn, a, n);
            for l in g_attn.iter_mut() {
                *l *= scale;
            }
            // logits = Q · Kᵀ.
            resize(&mut g_q, n * dk);
            gemm(Mat::rows(&g_attn, n), Mat::rows(k, dk), n, n, dk, &mut g_q);
            resize(&mut g_k, n * dk);
            gemm(Mat::cols(&g_attn, n), Mat::rows(q, dk), n, n, dk, &mut g_k);
            // x · Wv, x · Wk, x · Wq, visited in reverse recording order.
            resize(&mut g_x, n * d);
            resize(&mut term, n * d);
            for (w, w_t, g_p, cols, first) in [
                (wv, wv_t, &g_v, dv, true),
                (wk, wk_t, &g_k, dk, false),
                (wq, wq_t, &g_q, dk, false),
            ] {
                let dst = if first { &mut g_x } else { &mut term };
                gemm(
                    Mat::rows(g_p, cols),
                    Mat::cols(w_t.as_slice(), cols),
                    n,
                    cols,
                    d,
                    dst,
                );
                if !first {
                    add_into(&mut g_x, &term);
                }
                resize(&mut g_w, d * cols);
                gemm(Mat::cols(x, d), Mat::rows(g_p, cols), d, n, cols, &mut g_w);
                grads.accumulate_dense_rows(w, d, cols, &g_w);
            }
            block_mut(&mut gx, seg).copy_from_slice(&g_x);
        }
        gx
    }
}

/// The payload of a [`Graph::project_residual`](crate::Graph::project_residual)
/// node.
pub(crate) struct ProjectResidual {
    pub x: Var,
    pub table: ParamId,
    /// Centre `c` owns rows `c * weights.len()..(c + 1) * weights.len()` of
    /// `x` and table row `centres[c]`.
    pub centres: Vec<u32>,
    /// Row `r` of every centre's block is projected by `weights[r]`.
    pub weights: Vec<ParamId>,
    /// Output row `j` is projected row `picks[j]`.
    pub picks: Vec<u32>,
}

impl fmt::Debug for ProjectResidual {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ProjectResidual {{ x: Var #{}, table: #{}, centres: {}, weights: {}, picks: {} }}",
            self.x.index(),
            self.table.index(),
            self.centres.len(),
            self.weights.len(),
            self.picks.len()
        )
    }
}

impl ProjectResidual {
    /// Row `picks[j]` of `table[centre] + x_row · W_r`, for every `j`; rows
    /// no pick names are never computed. The layout must already be
    /// checked.
    pub fn forward(&self, store: &ParamStore, xv: &Tensor) -> Tensor {
        let table = store.value(self.table);
        let (d_in, d_out) = (xv.cols(), table.cols());
        let per = self.weights.len();
        let mut picked = vec![false; xv.rows()];
        for &k in &self.picks {
            picked[k as usize] = true;
        }
        let mut e = vec![0.0; xv.rows() * d_out];
        for (c, &centre) in self.centres.iter().enumerate() {
            let base = table.row(centre as usize);
            for (r, &w) in self.weights.iter().enumerate() {
                let row = c * per + r;
                if !picked[row] {
                    continue;
                }
                let dst = &mut e[row * d_out..(row + 1) * d_out];
                let w = store.value(w).as_slice();
                gemm(
                    Mat::rows(xv.row(row), d_in),
                    Mat::rows(w, d_out),
                    1,
                    d_in,
                    d_out,
                    dst,
                );
                for (o, &b) in dst.iter_mut().zip(base) {
                    *o += b;
                }
            }
        }
        let mut out = Tensor::zeros(self.picks.len(), d_out);
        for (j, &k) in self.picks.iter().enumerate() {
            let k = k as usize;
            out.set_row(j, &e[k * d_out..(k + 1) * d_out]);
        }
        out
    }

    /// Replays the reverse pass over the per-centre composition. Each
    /// projected row's gradient is the sum of its picks in pick order.
    /// Then, centres last to first, each picked relation (last first)
    /// makes one `accumulate_dense` of its weight, and the centre one
    /// `accumulate_gather` of its table row. A centre's block of the
    /// returned `x` gradient is what its zero-padded `slice_rows` gradients
    /// sum to: exact with one picked row, `+ 0.0` on each with more.
    pub fn backward(
        &self,
        xv: &Tensor,
        g: &Tensor,
        store: &ParamStore,
        grads: &mut GradStore,
    ) -> Tensor {
        let (d_in, d_out) = (xv.cols(), g.cols());
        let per = self.weights.len();
        let mut g_e = vec![0.0; xv.rows() * d_out];
        let mut picked = vec![false; xv.rows()];
        for (j, &k) in self.picks.iter().enumerate() {
            let k = k as usize;
            let dst = &mut g_e[k * d_out..(k + 1) * d_out];
            if picked[k] {
                add_into(dst, g.row(j));
            } else {
                dst.copy_from_slice(g.row(j));
                picked[k] = true;
            }
        }
        let mut gx = Tensor::zeros(xv.rows(), d_in);
        let mut g_base = vec![0.0; d_out];
        let mut g_w = vec![0.0; d_in * d_out];
        for (c, &centre) in self.centres.iter().enumerate().rev() {
            let mut used = 0;
            for (r, &w) in self.weights.iter().enumerate().rev() {
                let row = c * per + r;
                if !picked[row] {
                    continue;
                }
                let g_row = &g_e[row * d_out..(row + 1) * d_out];
                if used == 0 {
                    g_base.copy_from_slice(g_row);
                } else {
                    add_into(&mut g_base, g_row);
                }
                used += 1;
                let w_t = store.value(w).as_slice();
                let g_out = Mat::rows(g_row, d_out);
                gemm(
                    g_out,
                    Mat::cols(w_t, d_out),
                    1,
                    d_out,
                    d_in,
                    gx.row_mut(row),
                );
                gemm(Mat::cols(xv.row(row), 1), g_out, d_in, 1, d_out, &mut g_w);
                grads.accumulate_dense_rows(w, d_in, d_out, &g_w);
            }
            if used > 1 {
                for v in block_mut(&mut gx, c * per..(c + 1) * per) {
                    *v += 0.0;
                }
            }
            grads.accumulate_gather_rows(self.table, &[centre], d_out, &g_base);
        }
        gx
    }
}

/// A read-only row-major matrix operand, read either as stored or
/// transposed: element `(r, c)` is `data[r * rs + c * cs]`.
#[derive(Clone, Copy)]
struct Mat<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

impl<'a> Mat<'a> {
    /// A row-major matrix with `cols` columns, read as stored.
    fn rows(data: &'a [f32], cols: usize) -> Self {
        Self {
            data,
            rs: cols,
            cs: 1,
        }
    }

    /// The transpose of a row-major matrix with `cols` columns.
    fn cols(data: &'a [f32], cols: usize) -> Self {
        Self {
            data,
            rs: 1,
            cs: cols,
        }
    }

    #[inline(always)]
    fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.rs + c * self.cs]
    }
}

/// `out = a · b` for an `m × k` operand `a` and a `k × n` operand `b`,
/// under `Tensor::matmul`'s contract: output `(i, j)` is
/// `0.0 + a(i,0)·b(0,j) + a(i,1)·b(1,j) + …`, each product rounded before
/// its add, in ascending inner index. Every GEMM path in `mhg-tensor`
/// gives these bits, so these loops do too. Like `mhg-tensor`'s scalar
/// path, they walk `b` along whichever axis is contiguous.
fn gemm(a: Mat<'_>, b: Mat<'_>, m: usize, k: usize, n: usize, out: &mut [f32]) {
    let out = &mut out[..m * n];
    if b.cs == 1 {
        // Rows of `b` are contiguous: add `a(i,p) · b(p,:)` to the whole
        // output row, one `p` at a time.
        out.fill(0.0);
        for (i, row) in out.chunks_exact_mut(n).enumerate() {
            for p in 0..k {
                let a_ip = a.at(i, p);
                let b_row = &b.data[p * b.rs..p * b.rs + n];
                for (o, &b_pj) in row.iter_mut().zip(b_row) {
                    *o += a_ip * b_pj;
                }
            }
        }
    } else if a.cs == 1 && b.rs == 1 {
        // Rows of `a` and columns of `b` are contiguous: one dot each.
        for (i, row) in out.chunks_exact_mut(n).enumerate() {
            let a_row = &a.data[i * a.rs..i * a.rs + k];
            for (j, o) in row.iter_mut().enumerate() {
                let b_col = &b.data[j * b.cs..j * b.cs + k];
                let mut acc = 0.0;
                for (&a_ip, &b_pj) in a_row.iter().zip(b_col) {
                    acc += a_ip * b_pj;
                }
                *o = acc;
            }
        }
    } else {
        for (i, row) in out.chunks_exact_mut(n).enumerate() {
            for (j, o) in row.iter_mut().enumerate() {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a.at(i, p) * b.at(p, j);
                }
                *o = acc;
            }
        }
    }
}

/// `Tensor::mean_rows` of the `cols`-wide rows in `src` into `dst`: a
/// zero-seeded sum in row order, then one multiply by the inverse count.
fn mean_rows(src: &[f32], cols: usize, dst: &mut [f32]) {
    dst.fill(0.0);
    let n = src.len() / cols;
    if n == 0 {
        return;
    }
    for row in src.chunks_exact(cols) {
        add_into(dst, row);
    }
    let inv = 1.0 / n as f32;
    for o in dst {
        *o *= inv;
    }
}

/// The `mean_rows` backward: each of the `n` rows of `dst` is `g / n`.
fn spread_mean(g: &[f32], n: usize, dst: &mut [f32]) {
    let inv = 1.0 / n.max(1) as f32;
    for row in dst.chunks_exact_mut(g.len()) {
        for (o, &v) in row.iter_mut().zip(g) {
            *o = v * inv;
        }
    }
}

/// `Tensor::softmax_rows` in place over `cols`-wide rows.
fn softmax_rows(data: &mut [f32], cols: usize) {
    for row in data.chunks_exact_mut(cols) {
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
}

/// The `SoftmaxRows` backward in place: per row, `dx = y ⊙ (dy − dy·y)`.
fn softmax_rows_backward(g: &mut [f32], y: &[f32], cols: usize) {
    for (dy, yr) in g.chunks_exact_mut(cols).zip(y.chunks_exact(cols)) {
        let dot: f32 = dy.iter().zip(yr).map(|(d, v)| d * v).sum();
        for (o, &v) in dy.iter_mut().zip(yr) {
            *o = v * (*o - dot);
        }
    }
}

/// `dst += src`, element by element.
fn add_into(dst: &mut [f32], src: &[f32]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// Rows `rows` of `t`, back to back.
fn block_mut(t: &mut Tensor, rows: Range<usize>) -> &mut [f32] {
    let cols = t.cols();
    &mut t.as_mut_slice()[rows.start * cols..rows.end * cols]
}

/// Sets `buf` to `len` zeros, reusing its capacity.
fn resize(buf: &mut Vec<f32>, len: usize) {
    buf.clear();
    buf.resize(len, 0.0);
}
