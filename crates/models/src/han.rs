//! HAN baseline (Wang et al., WWW 2019): hierarchical attention over
//! metapath-based neighbors.
//!
//! Node-level attention scores a node's metapath-reached neighbors (the
//! final layer of `N^K_P(v)`) under a per-metapath projection; semantic
//! attention combines the per-metapath summaries. HAN is non-multiplex: one
//! embedding per node, used for every relation — exactly the limitation the
//! paper's Table III records.

use mhg_autograd::{Graph, ParamStore, Var};
use mhg_graph::{MultiplexGraph, NodeId, RelationId};
use mhg_sampling::MetapathNeighborSampler;
use rand::rngs::StdRng;

use crate::attention::{dot_attention_pool, SchemeAttention};
use crate::common::{
    CommonConfig, EmbeddingScores, FitData, LinkPredictor, TrainError, TrainReport,
};
use crate::encoder::{fit_encoder, Encoder};

const FAN_OUT: usize = 4;
const MAX_LAYER: usize = 12;
const MAX_NEIGHBORS: usize = 10;
const BATCH: usize = 96;

/// The HAN baseline.
pub struct Han {
    config: CommonConfig,
    scores: EmbeddingScores,
}

impl Han {
    /// Creates an untrained model.
    pub fn new(config: CommonConfig) -> Self {
        Self {
            config,
            scores: EmbeddingScores::default(),
        }
    }
}

struct HanEncoder<'a> {
    graph: &'a MultiplexGraph,
    sampler: MetapathNeighborSampler<'a, MultiplexGraph>,
    block: SchemeAttention,
}

impl Encoder for HanEncoder<'_> {
    const BATCH: usize = BATCH;
    const MAX_NEGATIVES: usize = 2;

    /// Node-level attention per scheme: the node's projection attends over
    /// its projected metapath-reached neighbors.
    fn encode(&self, g: &mut Graph<'_>, nodes: &[NodeId], rng: &mut StdRng) -> Var {
        let emb = self.block.emb;
        self.block.encode(g, nodes, rng, |g, w, scheme, v, rng| {
            if self.graph.node_type(v) != scheme.source_type() {
                return None;
            }
            let layers = self.sampler.sample(v, scheme, rng);
            let finals = layers.last().filter(|_| layers.len() == scheme.len() + 1)?;
            let ids: Vec<u32> = finals.iter().take(MAX_NEIGHBORS).map(|n| n.0).collect();
            if ids.is_empty() {
                return None;
            }
            let w = g.param(w);
            let self_emb = g.gather(emb, &[v.0]);
            let query = g.matmul(self_emb, w);
            let neigh = g.gather(emb, &ids);
            let keys = g.matmul(neigh, w);
            Some(dot_attention_pool(g, query, keys))
        })
    }
}

impl LinkPredictor for Han {
    fn name(&self) -> &'static str {
        "HAN"
    }

    fn fit(&mut self, data: &FitData<'_>, rng: &mut StdRng) -> Result<TrainReport, TrainError> {
        let mut params = ParamStore::new();
        let encoder = HanEncoder {
            graph: data.graph,
            sampler: MetapathNeighborSampler::new(data.graph, FAN_OUT, MAX_LAYER),
            block: SchemeAttention::register(&mut params, data, self.config.dim, rng),
        };
        let (report, scores) = fit_encoder(encoder, params, &self.config, data, rng)?;
        self.scores = scores;
        Ok(report)
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
    fn beats_random_on_heterogeneous_graph() {
        let dataset = DatasetKind::Imdb.generate(0.02, 16);
        let mut rng = StdRng::seed_from_u64(17);
        let split = EdgeSplit::default_split(&dataset.graph, &mut rng);
        let mut cfg = CommonConfig::fast();
        cfg.epochs = 10;
        let mut model = Han::new(cfg);
        let data = FitData {
            graph: &split.train_graph,
            metapath_shapes: &dataset.metapath_shapes,
            val: &split.val,
        };
        model.fit(&data, &mut rng).expect("fit must succeed");
        let metrics = evaluate(&model, &split.test);
        assert!(
            metrics.roc_auc > 0.55,
            "HAN failed to learn: auc {}",
            metrics.roc_auc
        );
    }
}
