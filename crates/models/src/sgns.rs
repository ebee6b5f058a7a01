//! Skip-gram with negative sampling (SGNS) — the shared training core of
//! the random-walk baselines (DeepWalk, node2vec, LINE's second-order half).
//!
//! Gradients are hand-rolled (the classic word2vec update): the loop runs
//! over millions of pairs per epoch, so avoiding tape construction per pair
//! matters far more than code reuse with the autograd engine. The autograd
//! engine remains the substrate for every model whose architecture is
//! non-trivial (GNNs, attention models).

use mhg_datasets::LabeledEdge;
use mhg_graph::NodeId;
use mhg_tensor::{sigmoid_scalar, InitKind, Tensor};
use mhg_train::{BatchLoss, PairExample, TrainStep};
use rand::rngs::StdRng;
use rand::Rng;

use crate::common::{val_auc, EmbeddingScores};

/// A pair of embedding tables trained with the SGNS objective.
#[derive(Clone, Debug)]
pub struct Sgns {
    emb: Tensor,
    ctx: Tensor,
}

impl Sgns {
    /// Initialises tables for `num_nodes` nodes with dimension `dim`
    /// (word2vec convention: uniform targets, zero contexts).
    pub fn new<R: Rng + ?Sized>(num_nodes: usize, dim: usize, rng: &mut R) -> Self {
        let limit = 0.5 / dim as f32;
        Self {
            emb: InitKind::Uniform { limit }.init(num_nodes, dim, rng),
            ctx: Tensor::zeros(num_nodes, dim),
        }
    }

    /// One SGNS step on `(center, context)` with sampled negatives.
    ///
    /// Returns the pair's loss `−log σ(s⁺) − Σ log σ(−s⁻)`.
    pub fn train_pair(
        &mut self,
        center: NodeId,
        context: NodeId,
        negatives: &[NodeId],
        lr: f32,
    ) -> f32 {
        let dim = self.emb.cols();
        let mut center_grad = vec![0.0f32; dim];
        let mut loss = 0.0f32;

        {
            // Positive target.
            let s = dot(self.emb.row(center.index()), self.ctx.row(context.index()));
            let p = sigmoid_scalar(s);
            loss -= mhg_tensor::log_sigmoid(s);
            let g = p - 1.0; // d loss / d s
            accumulate(&mut center_grad, self.ctx.row(context.index()), g);
            let (emb, ctx) = (&self.emb, &mut self.ctx);
            update_row(
                ctx.row_mut(context.index()),
                emb.row(center.index()),
                -lr * g,
            );
        }

        for &neg in negatives {
            if neg == context {
                continue;
            }
            let s = dot(self.emb.row(center.index()), self.ctx.row(neg.index()));
            let p = sigmoid_scalar(s);
            loss -= mhg_tensor::log_sigmoid(-s);
            let g = p; // label 0
            accumulate(&mut center_grad, self.ctx.row(neg.index()), g);
            let (emb, ctx) = (&self.emb, &mut self.ctx);
            update_row(ctx.row_mut(neg.index()), emb.row(center.index()), -lr * g);
        }

        update_row(self.emb.row_mut(center.index()), &center_grad, -lr);
        loss
    }

    /// The trained target-embedding table.
    pub fn embeddings(&self) -> &Tensor {
        &self.emb
    }

    /// Consumes the model, returning the target table.
    pub fn into_embeddings(self) -> Tensor {
        self.emb
    }

    /// The context table (LINE's second-order half uses it).
    pub fn contexts(&self) -> &Tensor {
        &self.ctx
    }

    /// Serialises both tables into `dict` under `prefix`.
    pub fn export_state(&self, prefix: &str, dict: &mut mhg_ckpt::StateDict) {
        dict.put_tensor(format!("{prefix}/emb"), self.emb.clone());
        dict.put_tensor(format!("{prefix}/ctx"), self.ctx.clone());
    }

    /// Restores tables exported by [`Sgns::export_state`]; the stored
    /// shapes must match the current (config-determined) ones.
    pub fn import_state(
        &mut self,
        prefix: &str,
        dict: &mhg_ckpt::StateDict,
    ) -> Result<(), mhg_ckpt::CkptError> {
        self.emb = crate::common::import_tensor_like(&self.emb, &format!("{prefix}/emb"), dict)?;
        self.ctx = crate::common::import_tensor_like(&self.ctx, &format!("{prefix}/ctx"), dict)?;
        Ok(())
    }
}

/// The shared `TrainStep` of the plain-SGNS walk baselines (DeepWalk,
/// node2vec): consumes pre-sampled [`PairExample`] batches, evaluates the
/// target+context tables.
pub(crate) struct SgnsStep<'a> {
    model: Sgns,
    lr: f32,
    val: &'a [LabeledEdge],
}

impl<'a> SgnsStep<'a> {
    /// Wraps an initialized SGNS model.
    pub(crate) fn new(model: Sgns, lr: f32, val: &'a [LabeledEdge]) -> Self {
        Self { model, lr, val }
    }
}

impl TrainStep for SgnsStep<'_> {
    type Batch = Vec<PairExample>;
    type Artefact = EmbeddingScores;

    fn step(&mut self, batch: Vec<PairExample>, _rng: &mut StdRng) -> BatchLoss {
        let mut loss_sum = 0.0f64;
        let denom = batch.len();
        for ex in batch {
            loss_sum += self
                .model
                .train_pair(ex.center, ex.context, &ex.negatives, self.lr)
                as f64;
        }
        BatchLoss { loss_sum, denom }
    }

    fn eval(&mut self, _rng: &mut StdRng) -> (f64, EmbeddingScores) {
        let scores = EmbeddingScores::shared(self.model.embeddings().clone())
            .with_context(self.model.contexts().clone());
        (val_auc(&scores, self.val), scores)
    }

    fn export_state(&self, dict: &mut mhg_ckpt::StateDict) {
        self.model.export_state("model/sgns", dict);
    }

    fn import_state(&mut self, dict: &mhg_ckpt::StateDict) -> Result<(), mhg_ckpt::CkptError> {
        self.model.import_state("model/sgns", dict)
    }
}

#[inline]
fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[inline]
fn accumulate(acc: &mut [f32], src: &[f32], scale: f32) {
    for (a, s) in acc.iter_mut().zip(src) {
        *a += scale * s;
    }
}

#[inline]
fn update_row(row: &mut [f32], grad: &[f32], step: f32) {
    for (r, g) in row.iter_mut().zip(grad) {
        *r += step * g;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Two clusters {0,1,2} and {3,4,5}; pairs within clusters. SGNS should
    /// place intra-cluster dots above inter-cluster dots.
    #[test]
    fn learns_cluster_structure() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut model = Sgns::new(6, 16, &mut rng);
        let negatives_pool = [0u32, 1, 2, 3, 4, 5];
        for _ in 0..4000 {
            let cluster = rng.gen_range(0..2u32);
            let a = NodeId(cluster * 3 + rng.gen_range(0..3));
            let mut b = NodeId(cluster * 3 + rng.gen_range(0..3));
            while b == a {
                b = NodeId(cluster * 3 + rng.gen_range(0..3));
            }
            let negs: Vec<NodeId> = (0..3)
                .map(|_| NodeId(negatives_pool[rng.gen_range(0..6)]))
                .filter(|&n| n != b)
                .collect();
            model.train_pair(a, b, &negs, 0.05);
        }
        let emb = model.embeddings();
        let intra = emb.row_dot(0, emb, 1);
        let inter = emb.row_dot(0, emb, 4);
        assert!(
            intra > inter + 0.1,
            "intra {intra} should exceed inter {inter}"
        );
    }

    #[test]
    fn loss_decreases() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut model = Sgns::new(4, 8, &mut rng);
        let mut first = 0.0;
        let mut last = 0.0;
        for i in 0..500 {
            let l = model.train_pair(NodeId(0), NodeId(1), &[NodeId(2), NodeId(3)], 0.1);
            if i == 0 {
                first = l;
            }
            last = l;
        }
        assert!(last < first, "loss did not decrease: {first} → {last}");
    }

    #[test]
    fn negative_equal_to_context_skipped() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut model = Sgns::new(3, 4, &mut rng);
        // Would be contradictory updates if not skipped; just verify finite.
        let loss = model.train_pair(NodeId(0), NodeId(1), &[NodeId(1), NodeId(2)], 0.1);
        assert!(loss.is_finite());
        assert!(model.embeddings().all_finite());
    }
}
