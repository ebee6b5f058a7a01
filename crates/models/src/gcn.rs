//! GCN baseline (Kipf & Welling, ICLR 2017).
//!
//! A single graph-convolution layer over the flattened graph (heterogeneity
//! ignored, as the paper specifies): `h_v = tanh(mean(x_{N(v) ∪ {v}}) · W)`,
//! trained end-to-end on the link logistic loss with sampled negatives.
//! Full-batch spectral propagation is replaced by sampled mean aggregation
//! with self-inclusion — the spatial approximation of the renormalised
//! adjacency the paper's own mini-batch setting implies.

use mhg_autograd::{Graph, ParamId, ParamStore, Var};
use mhg_graph::{MultiplexGraph, NodeId, RelationId};
use mhg_tensor::InitKind;
use rand::rngs::StdRng;

use crate::agg::mean_self_neighbors;
use crate::common::{
    CommonConfig, EmbeddingScores, FitData, LinkPredictor, TrainError, TrainReport,
};
use crate::encoder::{fit_encoder, Encoder};

const FAN_OUT: usize = 10;
const BATCH: usize = 256;

/// The GCN baseline.
pub struct Gcn {
    config: CommonConfig,
    scores: EmbeddingScores,
}

impl Gcn {
    /// Creates an untrained model.
    pub fn new(config: CommonConfig) -> Self {
        Self {
            config,
            scores: EmbeddingScores::default(),
        }
    }
}

struct GcnEncoder<'a> {
    graph: &'a MultiplexGraph,
    emb: ParamId,
    w1: ParamId,
}

impl Encoder for GcnEncoder<'_> {
    const BATCH: usize = BATCH;
    /// Uncapped: GCN takes the configured negatives as they are.
    const MAX_NEGATIVES: usize = usize::MAX;

    fn encode(&self, g: &mut Graph<'_>, nodes: &[NodeId], rng: &mut StdRng) -> Var {
        let agg = mean_self_neighbors(g, self.emb, self.graph, nodes, FAN_OUT, rng);
        let w = g.param(self.w1);
        let lin = g.matmul(agg, w);
        // tanh, not relu: a non-negative final layer could never score
        // negative pairs below zero under a dot-product decoder.
        g.tanh(lin)
    }
}

impl LinkPredictor for Gcn {
    fn name(&self) -> &'static str {
        "GCN"
    }

    fn fit(&mut self, data: &FitData<'_>, rng: &mut StdRng) -> Result<TrainReport, TrainError> {
        let dim = self.config.dim;
        let mut params = ParamStore::new();
        let encoder = GcnEncoder {
            graph: data.graph,
            emb: params.register(
                "emb",
                InitKind::Uniform {
                    limit: 0.5 / dim as f32,
                }
                .init(data.graph.num_nodes(), dim, rng),
            ),
            w1: params.register("w1", InitKind::XavierUniform.init(dim, dim, rng)),
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
        let dataset = DatasetKind::Amazon.generate(0.008, 10);
        let mut rng = StdRng::seed_from_u64(11);
        let split = EdgeSplit::default_split(&dataset.graph, &mut rng);
        let mut model = Gcn::new(CommonConfig::fast());
        let data = FitData {
            graph: &split.train_graph,
            metapath_shapes: &dataset.metapath_shapes,
            val: &split.val,
        };
        let report = model.fit(&data, &mut rng).expect("fit must succeed");
        assert!(report.epochs_run >= 1);
        let metrics = evaluate(&model, &split.test);
        assert!(
            metrics.roc_auc > 0.58,
            "GCN failed to learn: auc {}",
            metrics.roc_auc
        );
    }
}
