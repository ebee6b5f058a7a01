//! GraphSage baseline (Hamilton et al., NeurIPS 2017), mean-aggregator
//! variant with two layers and separate self/neighbor weights:
//!
//! `h¹_v = relu(x_v·W_s¹ + mean(x_N(v))·W_n¹)`
//! `h²_v = relu(h¹_v·W_s² + mean(h¹_N(v))·W_n²)`
//!
//! Heterogeneity is ignored (flattened neighborhoods), per the paper's
//! baseline protocol. Trained on the link logistic loss.

use mhg_autograd::{Graph, ParamId, ParamStore, Var};
use mhg_graph::{MultiplexGraph, NodeId, RelationId};
use mhg_tensor::InitKind;
use rand::rngs::StdRng;

use crate::agg::{mean_self_neighbors, sample_merged_neighbors};
use crate::common::{
    CommonConfig, EmbeddingScores, FitData, LinkPredictor, TrainError, TrainReport,
};
use crate::encoder::{fit_encoder, Encoder};

const FAN_OUT_1: usize = 6;
const FAN_OUT_2: usize = 4;
const BATCH: usize = 128;

/// The GraphSage baseline.
pub struct GraphSage {
    config: CommonConfig,
    scores: EmbeddingScores,
}

impl GraphSage {
    /// Creates an untrained model.
    pub fn new(config: CommonConfig) -> Self {
        Self {
            config,
            scores: EmbeddingScores::default(),
        }
    }
}

struct SageEncoder<'a> {
    graph: &'a MultiplexGraph,
    emb: ParamId,
    w_self1: ParamId,
    w_neigh1: ParamId,
    w_self2: ParamId,
    w_neigh2: ParamId,
}

impl SageEncoder<'_> {
    /// Layer-1 representation of `nodes` (an `n × d` variable).
    fn layer1(&self, g: &mut Graph<'_>, nodes: &[NodeId], rng: &mut StdRng) -> Var {
        let ids: Vec<u32> = nodes.iter().map(|n| n.0).collect();
        let self_emb = g.gather(self.emb, &ids);
        let neigh = mean_self_neighbors(g, self.emb, self.graph, nodes, FAN_OUT_1, rng);
        let ws = g.param(self.w_self1);
        let wn = g.param(self.w_neigh1);
        let a = g.matmul(self_emb, ws);
        let b = g.matmul(neigh, wn);
        let sum = g.add(a, b);
        g.relu(sum)
    }
}

impl Encoder for SageEncoder<'_> {
    const BATCH: usize = BATCH;
    const MAX_NEGATIVES: usize = 2;

    /// Two-layer representation of `nodes`.
    fn encode(&self, g: &mut Graph<'_>, nodes: &[NodeId], rng: &mut StdRng) -> Var {
        // h¹ of the nodes themselves.
        let h1_self = self.layer1(g, nodes, rng);
        // h¹ of each node's sampled neighborhood, mean-pooled per node.
        let rows: Vec<Var> = nodes
            .iter()
            .map(|&v| {
                let mut hood = sample_merged_neighbors(self.graph, v, FAN_OUT_2, rng);
                if hood.is_empty() {
                    hood.push(v); // isolated: fall back to self
                }
                let reps = self.layer1(g, &hood, rng);
                g.mean_rows(reps)
            })
            .collect();
        let h1_neigh = g.concat_rows(&rows);
        let ws = g.param(self.w_self2);
        let wn = g.param(self.w_neigh2);
        let a = g.matmul(h1_self, ws);
        let b = g.matmul(h1_neigh, wn);
        let sum = g.add(a, b);
        // Final layer is tanh so dot-product scores can be negative.
        g.tanh(sum)
    }
}

impl LinkPredictor for GraphSage {
    fn name(&self) -> &'static str {
        "GraphSage"
    }

    fn fit(&mut self, data: &FitData<'_>, rng: &mut StdRng) -> Result<TrainReport, TrainError> {
        let dim = self.config.dim;
        let mut params = ParamStore::new();
        let encoder = SageEncoder {
            graph: data.graph,
            emb: params.register(
                "emb",
                InitKind::Uniform {
                    limit: 0.5 / dim as f32,
                }
                .init(data.graph.num_nodes(), dim, rng),
            ),
            w_self1: params.register("w_self1", InitKind::XavierUniform.init(dim, dim, rng)),
            w_neigh1: params.register("w_neigh1", InitKind::XavierUniform.init(dim, dim, rng)),
            w_self2: params.register("w_self2", InitKind::XavierUniform.init(dim, dim, rng)),
            w_neigh2: params.register("w_neigh2", InitKind::XavierUniform.init(dim, dim, rng)),
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
    fn beats_random_on_planted_graph() {
        let dataset = DatasetKind::Amazon.generate(0.006, 12);
        let mut rng = StdRng::seed_from_u64(13);
        let split = EdgeSplit::default_split(&dataset.graph, &mut rng);
        let mut cfg = CommonConfig::fast();
        cfg.epochs = 5;
        let mut model = GraphSage::new(cfg);
        let data = FitData {
            graph: &split.train_graph,
            metapath_shapes: &dataset.metapath_shapes,
            val: &split.val,
        };
        model.fit(&data, &mut rng).expect("fit must succeed");
        let metrics = evaluate(&model, &split.test);
        assert!(
            metrics.roc_auc > 0.58,
            "GraphSage failed to learn: auc {}",
            metrics.roc_auc
        );
    }
}
