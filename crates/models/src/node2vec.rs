//! node2vec baseline (Grover & Leskovec, KDD 2016).
//!
//! Identical to DeepWalk except walks are second-order biased with return
//! parameter `p = 1` and in-out parameter `q = 0.5`.

use mhg_graph::{NodeId, RelationId};
use mhg_sampling::{pairs_from_walk, NegativeSampler, Node2VecWalker, Pair};
use mhg_train::pair_batches;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use crate::common::{
    CommonConfig, EmbeddingScores, FitData, LinkPredictor, TrainError, TrainReport,
};
use crate::deepwalk::SGNS_BATCH;
use crate::sgns::{Sgns, SgnsStep};

/// Return parameter `p` of the standard bias.
const P: f32 = 1.0;
/// In-out parameter `q` of the standard bias (`q < 1` favours outward
/// exploration).
const Q: f32 = 0.5;

/// The node2vec baseline.
pub struct Node2Vec {
    config: CommonConfig,
    scores: EmbeddingScores,
}

impl Node2Vec {
    /// Creates an untrained model with the standard `p = 1, q = 0.5` bias
    /// (favouring outward exploration).
    pub fn new(config: CommonConfig) -> Self {
        Self {
            config,
            scores: EmbeddingScores::default(),
        }
    }
}

impl LinkPredictor for Node2Vec {
    fn name(&self) -> &'static str {
        "node2vec"
    }

    fn fit(&mut self, data: &FitData<'_>, rng: &mut StdRng) -> Result<TrainReport, TrainError> {
        let graph = data.graph;
        let cfg = &self.config;
        let walker = Node2VecWalker::new(graph, P, Q);
        let negatives = NegativeSampler::new(graph);
        let starts: Vec<NodeId> = graph.nodes().collect();

        // Full paper walk protocol (wall-clock-normalised budget: the
        // hand-rolled SGNS update is cheap enough for every pair).
        let sample = |_epoch: usize, rng: &mut StdRng| {
            let mut starts = starts.clone();
            starts.shuffle(rng);
            let mut tagged: Vec<(Pair, RelationId)> = Vec::new();
            for &start in &starts {
                for _ in 0..cfg.walks_per_node {
                    let walk = walker.walk(start, cfg.walk_length, rng);
                    tagged.extend(
                        pairs_from_walk(&walk, cfg.window)
                            .into_iter()
                            .map(|p| (p, RelationId(0))),
                    );
                }
            }
            tagged.shuffle(rng);
            Ok(pair_batches(
                graph,
                &negatives,
                tagged,
                cfg.negatives,
                SGNS_BATCH,
                rng,
            ))
        };

        let model = Sgns::new(graph.num_nodes(), cfg.dim, rng);
        let mut step = SgnsStep::new(model, cfg.lr, data.val);
        let (report, scores) = mhg_train::train(&cfg.train_options(), sample, &mut step, rng)?;
        self.scores = scores;
        Ok(report)
    }

    fn score(&self, u: NodeId, v: NodeId, r: mhg_graph::RelationId) -> f32 {
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
        let dataset = DatasetKind::Amazon.generate(0.01, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let split = EdgeSplit::default_split(&dataset.graph, &mut rng);
        let mut model = Node2Vec::new(CommonConfig::fast());
        let data = FitData {
            graph: &split.train_graph,
            metapath_shapes: &dataset.metapath_shapes,
            val: &split.val,
        };
        model.fit(&data, &mut rng).expect("fit must succeed");
        let metrics = evaluate(&model, &split.test);
        assert!(
            metrics.roc_auc > 0.6,
            "node2vec failed to learn: auc {}",
            metrics.roc_auc
        );
    }
}
