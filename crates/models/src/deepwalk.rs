//! DeepWalk baseline (Perozzi et al., KDD 2014).
//!
//! Uniform random walks over the flattened graph (node and edge types
//! ignored, as the paper specifies for this baseline) feed a skip-gram model
//! with negative sampling. One shared embedding per node.

use mhg_graph::{NodeId, RelationId};
use mhg_sampling::{pairs_from_walk, sharded_over_obs, NegativeSampler, Pair, UniformWalker};
use mhg_train::pair_batches;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::common::{
    CommonConfig, EmbeddingScores, FitData, LinkPredictor, TrainError, TrainReport,
};
use crate::sgns::{Sgns, SgnsStep};

/// Pairs per minibatch for the hand-rolled SGNS models (pure grouping: the
/// update is per-pair, so the batch size never changes results).
pub(crate) const SGNS_BATCH: usize = 1024;

/// The DeepWalk baseline.
pub struct DeepWalk {
    config: CommonConfig,
    scores: EmbeddingScores,
}

impl DeepWalk {
    /// Creates an untrained model.
    pub fn new(config: CommonConfig) -> Self {
        Self {
            config,
            scores: EmbeddingScores::default(),
        }
    }

    /// The trained embedding artefact (for inspection and regression tests).
    pub fn embedding_scores(&self) -> &EmbeddingScores {
        &self.scores
    }
}

impl LinkPredictor for DeepWalk {
    fn name(&self) -> &'static str {
        "DeepWalk"
    }

    fn fit(&mut self, data: &FitData<'_>, rng: &mut StdRng) -> Result<TrainReport, TrainError> {
        let graph = data.graph;
        let cfg = &self.config;
        let walker = UniformWalker::new(graph);
        let negatives = NegativeSampler::new(graph);
        let starts: Vec<NodeId> = graph.nodes().collect();

        // Full paper walk protocol (wall-clock-normalised budget: the
        // hand-rolled SGNS update is cheap enough for every pair). Walks are
        // generated in fixed shards with one derived sub-RNG each, so the
        // walk set is bit-identical for any thread count; the post-walk
        // shuffle keeps the SGD pair order random.
        let sample = |_epoch: usize, rng: &mut StdRng| {
            let base: u64 = rng.gen();
            let mut tagged: Vec<(Pair, RelationId)> =
                sharded_over_obs(&cfg.obs, base, &starts, |shard, rng| {
                    let mut out = Vec::new();
                    for &start in shard {
                        for _ in 0..cfg.walks_per_node {
                            let walk = walker.walk(start, cfg.walk_length, rng);
                            out.extend(
                                pairs_from_walk(&walk, cfg.window)
                                    .into_iter()
                                    .map(|p| (p, RelationId(0))),
                            );
                        }
                    }
                    out
                });
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
        let dataset = DatasetKind::Amazon.generate(0.01, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let split = EdgeSplit::default_split(&dataset.graph, &mut rng);
        let mut model = DeepWalk::new(CommonConfig::fast());
        let data = FitData {
            graph: &split.train_graph,
            metapath_shapes: &dataset.metapath_shapes,
            val: &split.val,
        };
        let report = model.fit(&data, &mut rng).expect("fit must succeed");
        assert!(report.epochs_run >= 1);
        let metrics = evaluate(&model, &split.test);
        assert!(
            metrics.roc_auc > 0.6,
            "DeepWalk failed to learn: auc {}",
            metrics.roc_auc
        );
    }
}
