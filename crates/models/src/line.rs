//! LINE baseline (Tang et al., WWW 2015).
//!
//! Trains two embedding halves: first-order proximity (direct edges score
//! high under a symmetric dot product) and second-order proximity (shared
//! neighborhoods, via a separate context table). The final embedding is the
//! concatenation of both halves, as in the original paper. Edge sampling
//! replaces walks; node and edge types are ignored.

use mhg_datasets::LabeledEdge;
use mhg_graph::{NodeId, RelationId};
use mhg_sampling::NegativeSampler;
use mhg_tensor::{sigmoid_scalar, InitKind, Tensor};
use mhg_train::{BatchLoss, TrainStep};
use rand::rngs::StdRng;
use rand::Rng;

use crate::common::{
    import_tensor_like, val_auc, CommonConfig, EmbeddingScores, FitData, LinkPredictor, TrainError,
    TrainReport,
};
use crate::sgns::Sgns;

/// Samples per LINE minibatch (pure grouping; the update is per-sample).
const LINE_BATCH: usize = 1024;

/// One pre-sampled LINE training example: an oriented edge with independent
/// negative sets for the first- and second-order halves.
struct LineExample {
    u: NodeId,
    v: NodeId,
    negs_first: Vec<NodeId>,
    negs_second: Vec<NodeId>,
}

/// The `TrainStep` for LINE: applies first-order + second-order updates per
/// example, evaluates the concatenated halves.
struct LineStep<'a> {
    first: Tensor,
    second: Sgns,
    lr: f32,
    val: &'a [LabeledEdge],
}

impl TrainStep for LineStep<'_> {
    type Batch = Vec<LineExample>;
    type Artefact = EmbeddingScores;

    fn step(&mut self, batch: Vec<LineExample>, _rng: &mut StdRng) -> BatchLoss {
        let mut loss_sum = 0.0f64;
        let denom = batch.len();
        for ex in batch {
            // First-order update: σ(e_u · e_v) toward 1, negatives to 0.
            loss_sum += first_order_step(&mut self.first, ex.u, ex.v, self.lr) as f64;
            for &neg in &ex.negs_first {
                loss_sum += first_order_neg_step(&mut self.first, ex.u, neg, self.lr) as f64;
            }
            // Second-order update via the shared SGNS core.
            loss_sum += self.second.train_pair(ex.u, ex.v, &ex.negs_second, self.lr) as f64;
        }
        BatchLoss { loss_sum, denom }
    }

    fn eval(&mut self, _rng: &mut StdRng) -> (f64, EmbeddingScores) {
        let scores = EmbeddingScores::shared(concat_halves(&self.first, self.second.embeddings()));
        (val_auc(&scores, self.val), scores)
    }

    fn export_state(&self, dict: &mut mhg_ckpt::StateDict) {
        dict.put_tensor("model/first", self.first.clone());
        self.second.export_state("model/second", dict);
    }

    fn import_state(&mut self, dict: &mhg_ckpt::StateDict) -> Result<(), mhg_ckpt::CkptError> {
        self.first = import_tensor_like(&self.first, "model/first", dict)?;
        self.second.import_state("model/second", dict)
    }
}

/// The LINE baseline (first + second order proximity).
pub struct Line {
    config: CommonConfig,
    scores: EmbeddingScores,
}

impl Line {
    /// Creates an untrained model.
    pub fn new(config: CommonConfig) -> Self {
        Self {
            config,
            scores: EmbeddingScores::default(),
        }
    }
}

impl LinkPredictor for Line {
    fn name(&self) -> &'static str {
        "LINE"
    }

    fn fit(&mut self, data: &FitData<'_>, rng: &mut StdRng) -> Result<TrainReport, TrainError> {
        let graph = data.graph;
        let cfg = &self.config;
        let half = (cfg.dim / 2).max(4);

        // First-order half: symmetric SGNS-style updates on direct edges.
        let limit = 0.5 / half as f32;
        let first = InitKind::Uniform { limit }.init(graph.num_nodes(), half, rng);
        // Second-order half: standard SGNS with edges as (center, context).
        let second = Sgns::new(graph.num_nodes(), half, rng);

        let negatives = NegativeSampler::new(graph);
        // Flatten the edge list once (LINE ignores types).
        let edges: Vec<(NodeId, NodeId)> = graph
            .schema()
            .relations()
            .flat_map(|r| graph.edges_in(r).collect::<Vec<_>>())
            .collect();
        if edges.is_empty() {
            self.scores = EmbeddingScores::shared(Tensor::zeros(graph.num_nodes(), 2 * half));
            return Ok(TrainReport::default());
        }

        // Full edge-sampling protocol (wall-clock-normalised budget; see
        // `pair_budget` for the tape-model counterpart).
        let samples_per_epoch = edges.len() * cfg.walks_per_node.max(1);
        let sample = |_epoch: usize, rng: &mut StdRng| {
            let mut batches: Vec<Vec<LineExample>> =
                Vec::with_capacity(samples_per_epoch.div_ceil(LINE_BATCH));
            let mut current = Vec::with_capacity(LINE_BATCH.min(samples_per_epoch));
            for _ in 0..samples_per_epoch {
                let &(u, v) = &edges[rng.gen_range(0..edges.len())];
                // Symmetrise direction.
                let (u, v) = if rng.gen::<bool>() { (u, v) } else { (v, u) };
                let ty = graph.node_type(v);
                current.push(LineExample {
                    u,
                    v,
                    negs_first: negatives.sample_many(ty, v, cfg.negatives, rng),
                    negs_second: negatives.sample_many(ty, v, cfg.negatives, rng),
                });
                if current.len() == LINE_BATCH {
                    batches.push(std::mem::take(&mut current));
                }
            }
            if !current.is_empty() {
                batches.push(current);
            }
            Ok(batches)
        };

        let mut step = LineStep {
            first,
            second,
            lr: cfg.lr,
            val: data.val,
        };
        let (report, scores) = mhg_train::train(&cfg.train_options(), sample, &mut step, rng)?;
        self.scores = scores;
        Ok(report)
    }

    fn score(&self, u: NodeId, v: NodeId, r: RelationId) -> f32 {
        self.scores.score(u, v, r)
    }
}

/// Symmetric positive update on the first-order table; returns the loss.
fn first_order_step(table: &mut Tensor, u: NodeId, v: NodeId, lr: f32) -> f32 {
    let s: f32 = table
        .row(u.index())
        .iter()
        .zip(table.row(v.index()))
        .map(|(a, b)| a * b)
        .sum();
    let p = sigmoid_scalar(s);
    let g = p - 1.0;
    let u_row: Vec<f32> = table.row(u.index()).to_vec();
    let v_row: Vec<f32> = table.row(v.index()).to_vec();
    for (x, gv) in table.row_mut(u.index()).iter_mut().zip(&v_row) {
        *x -= lr * g * gv;
    }
    for (x, gu) in table.row_mut(v.index()).iter_mut().zip(&u_row) {
        *x -= lr * g * gu;
    }
    -mhg_tensor::log_sigmoid(s)
}

/// Symmetric negative update; returns the loss.
fn first_order_neg_step(table: &mut Tensor, u: NodeId, neg: NodeId, lr: f32) -> f32 {
    if u == neg {
        return 0.0;
    }
    let s: f32 = table
        .row(u.index())
        .iter()
        .zip(table.row(neg.index()))
        .map(|(a, b)| a * b)
        .sum();
    let p = sigmoid_scalar(s);
    let g = p; // label 0
    let u_row: Vec<f32> = table.row(u.index()).to_vec();
    let n_row: Vec<f32> = table.row(neg.index()).to_vec();
    for (x, gv) in table.row_mut(u.index()).iter_mut().zip(&n_row) {
        *x -= lr * g * gv;
    }
    for (x, gu) in table.row_mut(neg.index()).iter_mut().zip(&u_row) {
        *x -= lr * g * gu;
    }
    -mhg_tensor::log_sigmoid(-s)
}

fn concat_halves(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rows(), b.rows());
    let mut out = Tensor::zeros(a.rows(), a.cols() + b.cols());
    for r in 0..a.rows() {
        out.row_mut(r)[..a.cols()].copy_from_slice(a.row(r));
        out.row_mut(r)[a.cols()..].copy_from_slice(b.row(r));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::evaluate;
    use mhg_datasets::{DatasetKind, EdgeSplit};
    use rand::SeedableRng;

    #[test]
    fn beats_random_on_planted_graph() {
        let dataset = DatasetKind::Amazon.generate(0.01, 8);
        let mut rng = StdRng::seed_from_u64(9);
        let split = EdgeSplit::default_split(&dataset.graph, &mut rng);
        let mut model = Line::new(CommonConfig::fast());
        let data = FitData {
            graph: &split.train_graph,
            metapath_shapes: &dataset.metapath_shapes,
            val: &split.val,
        };
        model.fit(&data, &mut rng).expect("fit must succeed");
        let metrics = evaluate(&model, &split.test);
        assert!(
            metrics.roc_auc > 0.6,
            "LINE failed to learn: auc {}",
            metrics.roc_auc
        );
    }

    #[test]
    fn concat_preserves_halves() {
        let a = Tensor::from_rows(&[&[1.0, 2.0]]);
        let b = Tensor::from_rows(&[&[3.0]]);
        let c = concat_halves(&a, &b);
        assert_eq!(c.row(0), &[1.0, 2.0, 3.0]);
    }
}
