//! Attention building blocks shared by HAN, MAGNN and GATNE.

use mhg_autograd::{Graph, ParamId, ParamStore, Var};
use mhg_graph::{MetapathScheme, NodeId};
use mhg_tensor::{InitKind, Tensor};
use rand::rngs::StdRng;

use crate::common::FitData;

/// Scaled dot-product attention pooling: scores `keys` (n × d) against a
/// single `query` (1 × d), softmax-normalises and returns the weighted sum
/// (1 × d).
pub(crate) fn dot_attention_pool(g: &mut Graph<'_>, query: Var, keys: Var) -> Var {
    let d = g.value(query).cols() as f32;
    let qt = g.transpose(query); // d×1
    let logits = g.matmul(keys, qt); // n×1
    let scaled = g.scale(logits, 1.0 / d.sqrt());
    let row = g.transpose(scaled); // 1×n
    let attn = g.softmax_rows(row); // 1×n
    g.matmul(attn, keys) // 1×d
}

/// Semantic-level attention (HAN-style): given stacked per-scheme summaries
/// `z` (S × d), computes `β = softmax(q^T tanh(z·W + b))` and returns the
/// β-weighted sum (1 × d), plus the attention row (1 × S).
pub(crate) fn semantic_attention(
    g: &mut Graph<'_>,
    z: Var,
    w: ParamId,
    b: ParamId,
    q: ParamId,
) -> (Var, Var) {
    let wv = g.param(w);
    let bv = g.param(b);
    let qv = g.param(q);
    let proj = g.matmul(z, wv); // S×ds
    let shifted = g.add_broadcast_row(proj, bv);
    let t = g.tanh(shifted);
    let scores = g.matmul(t, qv); // S×1
    let row = g.transpose(scores); // 1×S
    let attn = g.softmax_rows(row); // 1×S
    let pooled = g.matmul(attn, z); // 1×d
    (pooled, attn)
}

/// The parameter block and encoder tail HAN and MAGNN share: one
/// projection per metapath scheme, a self projection, and the semantic
/// attention that pools the per-scheme summaries of a node.
pub(crate) struct SchemeAttention {
    /// Node embeddings (`N × d`).
    pub(crate) emb: ParamId,
    /// Table II shapes instantiated under every relation (both models
    /// flatten multiplexity, so all instantiations feed one embedding).
    schemes: Vec<MetapathScheme>,
    /// One projection per scheme.
    w_scheme: Vec<ParamId>,
    /// Projection of the node's own row, registered after the scheme
    /// projections under the next `w_p{i}` name.
    w_self: ParamId,
    w_sem: ParamId,
    b_sem: ParamId,
    q_sem: ParamId,
}

impl SchemeAttention {
    /// Registers the block in `params` for the schemes of `data`.
    pub(crate) fn register(
        params: &mut ParamStore,
        data: &FitData<'_>,
        dim: usize,
        rng: &mut StdRng,
    ) -> Self {
        let schemes: Vec<MetapathScheme> = data
            .metapath_shapes
            .iter()
            .flat_map(|shape| {
                data.graph
                    .schema()
                    .relations()
                    .map(|r| MetapathScheme::intra(shape.clone(), r))
            })
            .collect();
        let ds = (dim / 2).max(8);
        let emb = params.register(
            "emb",
            InitKind::Uniform {
                limit: 0.5 / dim as f32,
            }
            .init(data.graph.num_nodes(), dim, rng),
        );
        let mut projection = |i: usize, rng: &mut StdRng| {
            params.register(
                format!("w_p{i}"),
                InitKind::XavierUniform.init(dim, dim, rng),
            )
        };
        Self {
            emb,
            w_scheme: (0..schemes.len()).map(|i| projection(i, rng)).collect(),
            w_self: projection(schemes.len(), rng),
            w_sem: params.register("w_sem", InitKind::XavierUniform.init(dim, ds, rng)),
            b_sem: params.register("b_sem", Tensor::zeros(1, ds)),
            q_sem: params.register("q_sem", InitKind::XavierUniform.init(ds, 1, rng)),
            schemes,
        }
    }

    /// Encodes `nodes`, one row each. A node's rows to pool are
    /// `summary(g, w, scheme, v, rng)` for every scheme it yields one for
    /// (`w` is that scheme's projection), then its projected self row, so
    /// every node has at least one.
    pub(crate) fn encode<'s>(
        &self,
        g: &mut Graph<'s>,
        nodes: &[NodeId],
        rng: &mut StdRng,
        mut summary: impl FnMut(
            &mut Graph<'s>,
            ParamId,
            &MetapathScheme,
            NodeId,
            &mut StdRng,
        ) -> Option<Var>,
    ) -> Var {
        let mut rows = Vec::with_capacity(nodes.len());
        for &v in nodes {
            let mut z_rows: Vec<Var> = Vec::with_capacity(self.schemes.len() + 1);
            for (scheme, &w) in self.schemes.iter().zip(&self.w_scheme) {
                z_rows.extend(summary(g, w, scheme, v, rng));
            }
            let w = g.param(self.w_self);
            let self_emb = g.gather(self.emb, &[v.0]);
            z_rows.push(g.matmul(self_emb, w));
            let z = g.concat_rows(&z_rows);
            let (pooled, _) = semantic_attention(g, z, self.w_sem, self.b_sem, self.q_sem);
            rows.push(pooled);
        }
        g.concat_rows(&rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhg_autograd::ParamStore;
    use mhg_tensor::{InitKind, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dot_attention_prefers_aligned_keys() {
        let params = ParamStore::new();
        let mut g = Graph::new(&params);
        let query = g.constant(Tensor::from_rows(&[&[1.0, 0.0]]));
        // Key 0 aligned with the query, key 1 orthogonal.
        let keys = g.constant(Tensor::from_rows(&[&[10.0, 0.0], &[0.0, 10.0]]));
        let pooled = dot_attention_pool(&mut g, query, keys);
        let v = g.value(pooled);
        assert!(v[(0, 0)] > v[(0, 1)], "pooled {v:?}");
    }

    #[test]
    fn semantic_attention_is_convex_combination() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut params = ParamStore::new();
        let w = params.register("w", InitKind::XavierUniform.init(3, 4, &mut rng));
        let b = params.register("b", Tensor::zeros(1, 4));
        let q = params.register("q", InitKind::XavierUniform.init(4, 1, &mut rng));
        let mut g = Graph::new(&params);
        let z = g.constant(Tensor::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]));
        let (pooled, attn) = semantic_attention(&mut g, z, w, b, q);
        let a = g.value(attn);
        let sum: f32 = a.row(0).iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        let p = g.value(pooled);
        // Convex combination of one-hot rows: entries in [0,1], sum 1.
        let psum: f32 = p.row(0).iter().sum();
        assert!((psum - 1.0).abs() < 1e-5, "{p:?}");
    }

    /// Finite-difference gradient checks for both attention blocks, compiled
    /// under `--features checked` so every forward pass the checker runs is
    /// also swept by the dynamic sanitizer.
    #[cfg(feature = "checked")]
    mod gradients {
        use super::*;
        use mhg_autograd::gradcheck::check_gradients;
        use proptest::prelude::*;

        fn assert_checks_pass(
            checks: Vec<mhg_autograd::gradcheck::GradCheck>,
        ) -> Result<(), TestCaseError> {
            for c in checks {
                prop_assert!(
                    c.max_rel_err < 5e-2 || c.max_abs_err < 1e-3,
                    "param #{} rel {:.2e} abs {:.2e}",
                    c.id.index(),
                    c.max_rel_err,
                    c.max_abs_err
                );
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            #[test]
            fn semantic_attention_matches_finite_differences(
                seed in 0u64..1_000_000,
                s in 2usize..5,
                d in 2usize..5,
                ds in 2usize..5,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let z_t = InitKind::XavierUniform.init(s, d, &mut rng);
                let mut params = ParamStore::new();
                let w = params.register("w", InitKind::XavierUniform.init(d, ds, &mut rng));
                let b = params.register("b", Tensor::zeros(1, ds));
                let q = params.register("q", InitKind::XavierUniform.init(ds, 1, &mut rng));
                let checks = check_gradients(
                    &mut params,
                    |g| {
                        let z = g.constant(z_t.clone());
                        let (pooled, _) = semantic_attention(g, z, w, b, q);
                        let sq = g.mul(pooled, pooled);
                        g.sum_all(sq)
                    },
                    1e-2,
                );
                assert_checks_pass(checks)?;
            }

            #[test]
            fn dot_attention_matches_finite_differences(
                seed in 0u64..1_000_000,
                n in 2usize..6,
                d in 2usize..5,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut params = ParamStore::new();
                let qp = params.register("query", InitKind::XavierUniform.init(1, d, &mut rng));
                let kp = params.register("keys", InitKind::XavierUniform.init(n, d, &mut rng));
                let checks = check_gradients(
                    &mut params,
                    |g| {
                        let query = g.param(qp);
                        let keys = g.param(kp);
                        let pooled = dot_attention_pool(g, query, keys);
                        let sq = g.mul(pooled, pooled);
                        g.sum_all(sq)
                    },
                    1e-2,
                );
                assert_checks_pass(checks)?;
            }
        }
    }
}
