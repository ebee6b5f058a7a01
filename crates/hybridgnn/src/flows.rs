//! Hybrid aggregation flows (paper §III-C, Eq. 3–5) and the hierarchical
//! attention blocks (§III-D, Eq. 6–9), expressed on the autograd tape.

use mhg_autograd::{Graph, ParamId, Var};
use mhg_sampling::LayeredNeighbors;

/// Computes one aggregation flow embedding `h_{v|P}` (Eq. 3 for metapath
/// flows, Eq. 4 for the randomized-exploration flow) from layered neighbor
/// sets: the recursion folds the layers leaves-to-root, sharing the flow's
/// weight matrix `w` at every step and pooling each step's rows with the
/// mean, the paper's aggregator.
///
/// `layers[0]` must be `[v]`. Returns a `1 × d_h` variable.
pub(crate) fn flow_embedding(
    g: &mut Graph<'_>,
    flow_table: ParamId,
    w: ParamId,
    layers: &LayeredNeighbors,
) -> Var {
    debug_assert!(!layers.is_empty() && layers[0].len() == 1);
    let wv = g.param(w);
    let mut carried: Option<Var> = None;
    for layer in layers.iter().skip(1).rev() {
        let ids: Vec<u32> = layer.iter().map(|n| n.0).collect();
        let gathered = g.gather(flow_table, &ids);
        let stack = match carried {
            Some(c) => g.concat_rows(&[gathered, c]),
            None => gathered,
        };
        let pooled = g.mean_rows(stack);
        let lin = g.matmul(pooled, wv);
        carried = Some(g.tanh(lin));
    }
    // Root step: combine v's own flow embedding with the carried summary.
    let self_ids = [layers[0][0].0];
    let self_row = g.gather(flow_table, &self_ids);
    let stack = match carried {
        Some(c) => g.concat_rows(&[self_row, c]),
        None => self_row,
    };
    let pooled = g.mean_rows(stack);
    let lin = g.matmul(pooled, wv);
    g.tanh(lin)
}

/// Single-head scaled dot-product self-attention (Eq. 6 / Eq. 9):
/// `softmax(X·Wq · (X·Wk)ᵀ / √d_k) · X·Wv`.
///
/// Returns `(output, attention)` where `attention` is the `n × n` softmax
/// matrix (used by the Fig. 4 attention-score export).
pub(crate) fn self_attention(
    g: &mut Graph<'_>,
    x: Var,
    wq: ParamId,
    wk: ParamId,
    wv: ParamId,
) -> (Var, Var) {
    let d_k = g.param_shape(wq).cols as f32;
    let q = {
        let w = g.param(wq);
        g.matmul(x, w)
    };
    let k = {
        let w = g.param(wk);
        g.matmul(x, w)
    };
    let v = {
        let w = g.param(wv);
        g.matmul(x, w)
    };
    let kt = g.transpose(k);
    let logits = g.matmul(q, kt);
    let scaled = g.scale(logits, 1.0 / d_k.sqrt());
    let attn = g.softmax_rows(scaled);
    (g.matmul(attn, v), attn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhg_autograd::ParamStore;
    use mhg_graph::NodeId;
    use mhg_tensor::{InitKind, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (ParamStore, ParamId, ParamId) {
        let mut rng = StdRng::seed_from_u64(1);
        let mut params = ParamStore::new();
        let flow = params.register(
            "flow",
            Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0], &[2.0, 0.0]]),
        );
        let w = params.register("w", InitKind::XavierUniform.init(2, 2, &mut rng));
        (params, flow, w)
    }

    #[test]
    fn flow_embedding_shape() {
        let (params, flow, w) = setup();
        let mut g = Graph::new(&params);
        let layers = vec![vec![NodeId(0)], vec![NodeId(1), NodeId(2)], vec![NodeId(3)]];
        let h = flow_embedding(&mut g, flow, w, &layers);
        let t = g.value(h);
        assert_eq!((t.rows(), t.cols()), (1, 2));
        assert!(t.all_finite());
        // tanh output bounded.
        assert!(t.as_slice().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn flow_embedding_single_layer() {
        let (params, flow, w) = setup();
        let mut g = Graph::new(&params);
        let layers = vec![vec![NodeId(2)]];
        let h = flow_embedding(&mut g, flow, w, &layers);
        assert_eq!(g.value(h).rows(), 1);
    }

    /// §III-F, case G₂: with a single relation the relationship-level
    /// softmax is 1×1 and its weight is identically 1 — the attention
    /// mechanism carries no information on such graphs.
    #[test]
    fn single_row_attention_weight_is_one() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut params = ParamStore::new();
        let wq = params.register("wq", InitKind::XavierUniform.init(3, 3, &mut rng));
        let wk = params.register("wk", InitKind::XavierUniform.init(3, 3, &mut rng));
        let wv = params.register("wv", InitKind::XavierUniform.init(3, 3, &mut rng));
        let mut g = Graph::new(&params);
        let x = g.constant(Tensor::from_rows(&[&[0.3, -0.7, 1.1]]));
        let (_, attn) = self_attention(&mut g, x, wq, wk, wv);
        let a = g.value(attn);
        assert_eq!((a.rows(), a.cols()), (1, 1));
        assert!((a[(0, 0)] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn self_attention_rows_are_distributions() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut params = ParamStore::new();
        let wq = params.register("wq", InitKind::XavierUniform.init(3, 3, &mut rng));
        let wk = params.register("wk", InitKind::XavierUniform.init(3, 3, &mut rng));
        let wv = params.register("wv", InitKind::XavierUniform.init(3, 3, &mut rng));
        let mut g = Graph::new(&params);
        let x = g.constant(InitKind::Uniform { limit: 1.0 }.init(4, 3, &mut rng));
        let (out, attn) = self_attention(&mut g, x, wq, wk, wv);
        let a = g.value(attn);
        assert_eq!((a.rows(), a.cols()), (4, 4));
        for r in 0..4 {
            let sum: f32 = a.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        assert_eq!(g.value(out).rows(), 4);
    }
}
