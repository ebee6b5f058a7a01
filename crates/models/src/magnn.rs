//! MAGNN baseline (Fu et al., WWW 2020): metapath aggregated GNN.
//!
//! Differs from HAN by encoding whole metapath *instances* (including the
//! intermediate nodes HAN discards): intra-metapath aggregation pools
//! sampled instance encodings with attention against the target node, then
//! inter-metapath (semantic) attention combines schemes. The instance
//! encoder is the mean of the node embeddings along the instance — the
//! mean-encoder variant of the original paper (its relational-rotation
//! encoder changes constants, not the comparison the tables make).

use mhg_autograd::{Graph, ParamStore, Var};
use mhg_graph::{MetapathScheme, MultiplexGraph, NodeId, RelationId};
use rand::rngs::StdRng;
use rand::Rng;

use crate::attention::{dot_attention_pool, SchemeAttention};
use crate::common::{
    CommonConfig, EmbeddingScores, FitData, LinkPredictor, TrainError, TrainReport,
};
use crate::encoder::{fit_encoder, Encoder};

const INSTANCES_PER_SCHEME: usize = 5;
const BATCH: usize = 96;

/// The MAGNN baseline.
pub struct Magnn {
    config: CommonConfig,
    scores: EmbeddingScores,
}

/// Samples one complete metapath instance starting at `v`, or `None` if the
/// walk gets stuck or `v` has the wrong type.
fn sample_instance<R: Rng + ?Sized>(
    graph: &MultiplexGraph,
    scheme: &MetapathScheme,
    v: NodeId,
    rng: &mut R,
) -> Option<Vec<NodeId>> {
    if graph.node_type(v) != scheme.source_type() {
        return None;
    }
    let mut path = Vec::with_capacity(scheme.len() + 1);
    path.push(v);
    let mut current = v;
    for (&r, &want) in scheme.relations().iter().zip(&scheme.node_types()[1..]) {
        let candidates: Vec<NodeId> = graph
            .neighbors(current, r)
            .iter()
            .copied()
            .filter(|&u| graph.node_type(u) == want)
            .collect();
        if candidates.is_empty() {
            return None;
        }
        current = candidates[rng.gen_range(0..candidates.len())];
        path.push(current);
    }
    Some(path)
}

impl Magnn {
    /// Creates an untrained model.
    pub fn new(config: CommonConfig) -> Self {
        Self {
            config,
            scores: EmbeddingScores::default(),
        }
    }
}

struct MagnnEncoder<'a> {
    graph: &'a MultiplexGraph,
    block: SchemeAttention,
}

impl Encoder for MagnnEncoder<'_> {
    const BATCH: usize = BATCH;
    const MAX_NEGATIVES: usize = 2;

    /// Intra-metapath aggregation per scheme: the node's projection attends
    /// over its projected sampled instances.
    fn encode(&self, g: &mut Graph<'_>, nodes: &[NodeId], rng: &mut StdRng) -> Var {
        let emb = self.block.emb;
        self.block.encode(g, nodes, rng, |g, w, scheme, v, rng| {
            // Encode each sampled instance as the mean of its node
            // embeddings (intermediate nodes included — MAGNN's point).
            let mut instance_rows: Vec<Var> = Vec::new();
            for _ in 0..INSTANCES_PER_SCHEME {
                let Some(path) = sample_instance(self.graph, scheme, v, rng) else {
                    continue;
                };
                let ids: Vec<u32> = path.iter().map(|n| n.0).collect();
                let gathered = g.gather(emb, &ids);
                instance_rows.push(g.mean_rows(gathered));
            }
            if instance_rows.is_empty() {
                return None;
            }
            let w = g.param(w);
            let instances = g.concat_rows(&instance_rows);
            let keys = g.matmul(instances, w);
            let self_emb = g.gather(emb, &[v.0]);
            let query = g.matmul(self_emb, w);
            Some(dot_attention_pool(g, query, keys))
        })
    }
}

impl LinkPredictor for Magnn {
    fn name(&self) -> &'static str {
        "MAGNN"
    }

    fn fit(&mut self, data: &FitData<'_>, rng: &mut StdRng) -> Result<TrainReport, TrainError> {
        let mut params = ParamStore::new();
        let encoder = MagnnEncoder {
            graph: data.graph,
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
    fn instance_sampling_follows_scheme() {
        let dataset = DatasetKind::Imdb.generate(0.02, 18);
        let g = &dataset.graph;
        let s = g.schema();
        let r = s.relation_id("to").unwrap();
        let scheme = MetapathScheme::intra(dataset.metapath_shapes[0].clone(), r);
        let mut rng = StdRng::seed_from_u64(19);
        let movie = scheme.source_type();
        let start = g.nodes_of_type(movie)[0];
        let mut found = false;
        for _ in 0..50 {
            if let Some(path) = sample_instance(g, &scheme, start, &mut rng) {
                assert_eq!(path.len(), scheme.len() + 1);
                assert!(scheme.matches_instance(g, &path));
                found = true;
            }
        }
        // The first movie may be isolated at tiny scale; only assert shape
        // when instances exist.
        let _ = found;
    }

    #[test]
    fn beats_random_on_heterogeneous_graph() {
        let dataset = DatasetKind::Imdb.generate(0.025, 20);
        let mut rng = StdRng::seed_from_u64(21);
        let split = EdgeSplit::default_split(&dataset.graph, &mut rng);
        let mut cfg = CommonConfig::fast();
        cfg.epochs = 12;
        let mut model = Magnn::new(cfg);
        let data = FitData {
            graph: &split.train_graph,
            metapath_shapes: &dataset.metapath_shapes,
            val: &split.val,
        };
        model.fit(&data, &mut rng).expect("fit must succeed");
        let metrics = evaluate(&model, &split.test);
        assert!(
            metrics.roc_auc > 0.55,
            "MAGNN failed to learn: auc {}",
            metrics.roc_auc
        );
    }
}
