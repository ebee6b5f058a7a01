//! The one training step of the GNN encoder baselines (GCN, GraphSage, HAN,
//! MAGNN, R-GCN).
//!
//! All five train the same way: link logistic loss on [`edge_batches`] with
//! sampled negatives, Adam, and a full-graph snapshot scored on the
//! validation edges. A model supplies only its [`Encoder`] — its batch
//! constants and its forward pass — and [`fit_encoder`] runs the rest.

use mhg_autograd::{Adam, Graph, Optimizer, ParamStore, Var};
use mhg_ckpt::{CkptError, StateDict};
use mhg_datasets::LabeledEdge;
use mhg_graph::{NodeId, RelationId};
use mhg_sampling::NegativeSampler;
use mhg_tensor::Tensor;
use mhg_train::{edge_batches, BatchLoss, EdgeBatch, TrainStep};
use rand::rngs::StdRng;

use crate::common::{val_auc, CommonConfig, EmbeddingScores, FitData, TrainError, TrainReport};

/// A GNN encoder: node representations on the autograd tape.
pub(crate) trait Encoder {
    /// Positive edges per training batch, and nodes per inference chunk.
    const BATCH: usize;
    /// Cap on the configured negatives per positive.
    const MAX_NEGATIVES: usize;

    /// Encodes `nodes` on `g`: one row per node, in order.
    fn encode(&self, g: &mut Graph<'_>, nodes: &[NodeId], rng: &mut StdRng) -> Var;

    /// Link logits for the aligned rows `hl`, `hr` of `batch`; the plain
    /// dot product unless the model has its own decoder.
    fn logits(&self, g: &mut Graph<'_>, hl: Var, hr: Var, _batch: &EdgeBatch) -> Var {
        g.row_dot(hl, hr)
    }

    /// The scoring artefact for a full-graph representation `table`,
    /// matching [`Encoder::logits`].
    fn scores(&self, _params: &ParamStore, table: Tensor) -> EmbeddingScores {
        EmbeddingScores::shared(table)
    }
}

/// The [`TrainStep`] every [`Encoder`] trains through: one tape per
/// [`EdgeBatch`], full-graph representation snapshot on improvement.
struct EncoderStep<'a, E> {
    encoder: E,
    params: ParamStore,
    opt: Adam,
    nodes: Vec<NodeId>,
    val: &'a [LabeledEdge],
    scores: &'a mut EmbeddingScores,
    staged: EmbeddingScores,
}

impl<E: Encoder> TrainStep for EncoderStep<'_, E> {
    type Batch = EdgeBatch;

    fn step(&mut self, batch: EdgeBatch, rng: &mut StdRng) -> BatchLoss {
        let mut g = Graph::new(&self.params);
        let hl = self.encoder.encode(&mut g, &batch.lefts, rng);
        let hr = self.encoder.encode(&mut g, &batch.rights, rng);
        let logits = self.encoder.logits(&mut g, hl, hr, &batch);
        let loss = g.logistic_loss(logits, &batch.labels);
        let loss_sum = g.scalar(loss) as f64;
        let grads = g.backward(loss);
        self.opt.step(&mut self.params, &grads);
        BatchLoss { loss_sum, denom: 1 }
    }

    /// Encodes every node in chunks of [`Encoder::BATCH`], each on a fresh
    /// tape so tapes stay small. Rows are independent, so the chunking
    /// changes no bit of the table.
    fn eval(&mut self, rng: &mut StdRng) -> f64 {
        let mut data = Vec::new();
        let mut cols = 0;
        for chunk in self.nodes.chunks(E::BATCH) {
            let mut g = Graph::new(&self.params);
            let rep = self.encoder.encode(&mut g, chunk, rng);
            let rep = g.value(rep);
            cols = rep.cols();
            data.extend_from_slice(rep.as_slice());
        }
        let table = Tensor::from_vec(self.nodes.len(), cols, data);
        self.staged = self.encoder.scores(&self.params, table);
        val_auc(&self.staged, self.val)
    }

    fn promote(&mut self) {
        *self.scores = std::mem::take(&mut self.staged);
    }

    fn is_fitted(&self) -> bool {
        self.scores.is_ready()
    }

    fn export_state(&self, dict: &mut StateDict) {
        self.params.export_state("model/params", dict);
        self.opt.export_state("model/opt", dict);
        self.scores.export_state("model/scores", dict);
    }

    fn import_state(&mut self, dict: &StateDict) -> Result<(), CkptError> {
        self.params.import_state("model/params", dict)?;
        self.opt.import_state("model/opt", dict)?;
        self.scores.import_state("model/scores", dict)
    }
}

/// Trains `encoder` (whose parameters are registered in `params`) on every
/// training edge of `data`, committing the best snapshot to `scores`.
pub(crate) fn fit_encoder<E: Encoder>(
    encoder: E,
    params: ParamStore,
    cfg: &CommonConfig,
    data: &FitData<'_>,
    scores: &mut EmbeddingScores,
    rng: &mut StdRng,
) -> Result<TrainReport, TrainError> {
    let graph = data.graph;
    let negatives = NegativeSampler::new(graph);
    let edges: Vec<(NodeId, NodeId, RelationId)> = graph
        .schema()
        .relations()
        .flat_map(|r| graph.edges_in(r).map(move |(u, v)| (u, v, r)))
        .collect();
    let k = cfg.negatives.min(E::MAX_NEGATIVES);
    let sample = |_epoch: usize, rng: &mut StdRng| {
        Ok(edge_batches(graph, &negatives, &edges, k, E::BATCH, rng))
    };
    let mut step = EncoderStep {
        encoder,
        params,
        opt: Adam::new(cfg.lr.min(0.01)),
        nodes: graph.nodes().collect(),
        val: data.val,
        scores,
        staged: EmbeddingScores::default(),
    };
    mhg_train::train(&cfg.train_options(), sample, &mut step, rng)
}
