//! R-GCN baseline (Schlichtkrull et al., ESWC 2018).
//!
//! Relational graph convolution:
//! `h_v = relu(x_v·W₀ + Σ_r mean(x_{N_r(v)})·W_r)`
//! followed by a DistMult decoder
//! `score(u, v, r) = Σ_d h_u[d] · R_r[d] · h_v[d]`,
//! trained with the logistic cross-entropy over positives and sampled
//! negatives, exactly the encoder/decoder split the original paper uses for
//! link prediction.

use mhg_autograd::{Graph, ParamId, ParamStore, Var};
use mhg_graph::{MultiplexGraph, NodeId, RelationId};
use mhg_tensor::{InitKind, Tensor};
use mhg_train::EdgeBatch;
use rand::rngs::StdRng;

use crate::agg::{gather_nodes, mean_relation_neighbors};
use crate::common::{
    CommonConfig, EmbeddingScores, FitData, LinkPredictor, TrainError, TrainReport,
};
use crate::encoder::{fit_encoder, Encoder};

const FAN_OUT: usize = 8;
const BATCH: usize = 256;

/// The R-GCN baseline.
pub struct RGcn {
    config: CommonConfig,
    /// Final node representations with the DistMult relation diagonals.
    scores: EmbeddingScores,
}

impl RGcn {
    /// Creates an untrained model.
    pub fn new(config: CommonConfig) -> Self {
        Self {
            config,
            scores: EmbeddingScores::default(),
        }
    }
}

struct RgcnEncoder<'a> {
    graph: &'a MultiplexGraph,
    emb: ParamId,
    w_self: ParamId,
    w_rel: Vec<ParamId>,
    rel_diag: ParamId,
}

impl Encoder for RgcnEncoder<'_> {
    const BATCH: usize = BATCH;
    const MAX_NEGATIVES: usize = 3;

    fn encode(&self, g: &mut Graph<'_>, nodes: &[NodeId], rng: &mut StdRng) -> Var {
        let self_emb = gather_nodes(g, self.emb, nodes);
        let w0 = g.param(self.w_self);
        let mut acc = g.matmul(self_emb, w0);
        for r in self.graph.schema().relations() {
            let neigh = mean_relation_neighbors(g, self.emb, self.graph, nodes, r, FAN_OUT, rng);
            let wr = g.param(self.w_rel[r.index()]);
            let proj = g.matmul(neigh, wr);
            acc = g.add(acc, proj);
        }
        // tanh keeps the DistMult decoder sign-expressive.
        g.tanh(acc)
    }

    /// DistMult scores for aligned `(hl, hr)` rows under per-row relations.
    fn logits(&self, g: &mut Graph<'_>, hl: Var, hr: Var, batch: &EdgeBatch) -> Var {
        let rel_ids: Vec<u32> = batch.relations.iter().map(|r| r.0 as u32).collect();
        let diag = g.gather(self.rel_diag, &rel_ids);
        let weighted = g.mul(hl, diag);
        g.row_dot(weighted, hr)
    }

    fn scores(&self, params: &ParamStore, table: Tensor) -> EmbeddingScores {
        EmbeddingScores::shared(table).with_distmult(params.value(self.rel_diag).clone())
    }
}

impl LinkPredictor for RGcn {
    fn name(&self) -> &'static str {
        "R-GCN"
    }

    fn fit(&mut self, data: &FitData<'_>, rng: &mut StdRng) -> Result<TrainReport, TrainError> {
        let dim = self.config.dim;
        let num_rel = data.graph.schema().num_relations();
        let mut params = ParamStore::new();
        let encoder = RgcnEncoder {
            graph: data.graph,
            emb: params.register(
                "emb",
                InitKind::Uniform {
                    limit: 0.5 / dim as f32,
                }
                .init(data.graph.num_nodes(), dim, rng),
            ),
            w_self: params.register("w_self", InitKind::XavierUniform.init(dim, dim, rng)),
            w_rel: (0..num_rel)
                .map(|i| {
                    params.register(
                        format!("w_r{i}"),
                        InitKind::XavierUniform.init(dim, dim, rng),
                    )
                })
                .collect(),
            rel_diag: params.register(
                "rel_diag",
                InitKind::Uniform { limit: 1.0 }.init(num_rel, dim, rng),
            ),
        };
        fit_encoder(encoder, params, &self.config, data, &mut self.scores, rng)
    }

    fn score(&self, u: NodeId, v: NodeId, r: RelationId) -> f32 {
        self.scores.score(u, v, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::evaluate;
    use mhg_datasets::{DatasetKind, EdgeSplit};
    use rand::SeedableRng;

    #[test]
    fn beats_random_on_multiplex_graph() {
        let dataset = DatasetKind::Taobao.generate(0.01, 14);
        let mut rng = StdRng::seed_from_u64(15);
        let split = EdgeSplit::default_split(&dataset.graph, &mut rng);
        let mut cfg = CommonConfig::fast();
        cfg.epochs = 15;
        let mut model = RGcn::new(cfg);
        let data = FitData {
            graph: &split.train_graph,
            metapath_shapes: &dataset.metapath_shapes,
            val: &split.val,
        };
        model.fit(&data, &mut rng).expect("fit must succeed");
        let metrics = evaluate(&model, &split.test);
        assert!(
            metrics.roc_auc > 0.55,
            "R-GCN failed to learn: auc {}",
            metrics.roc_auc
        );
    }

    #[test]
    fn distmult_is_relation_sensitive() {
        let reps = Tensor::from_rows(&[&[1.0, 0.0], &[1.0, 1.0]]);
        let diag = Tensor::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]);
        let scores = EmbeddingScores::shared(reps).with_distmult(diag);
        let s0 = scores.score(NodeId(0), NodeId(1), RelationId(0));
        let s1 = scores.score(NodeId(0), NodeId(1), RelationId(1));
        assert!((s0 - 1.0).abs() < 1e-6);
        assert!(s1.abs() < 1e-6);
    }
}
