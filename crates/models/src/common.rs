//! The shared model interface, hyper-parameters and training utilities.

use std::path::PathBuf;

use mhg_ckpt::{CkptError, StateDict};
use mhg_datasets::LabeledEdge;
use mhg_graph::{GraphStore, MultiplexGraph, NodeId, NodeTypeId, RelationId};
use mhg_tensor::Tensor;
use mhg_train::{Artefact, TrainOptions};
use rand::rngs::StdRng;

pub use mhg_obs::{EventValue, Obs, ObsConfig};
pub use mhg_train::{
    pair_budget, EarlyStopper, RecoveryCounters, StopDecision, TimingBreakdown, TrainError,
    TrainReport,
};

/// Everything a model sees during training: the **training** graph (held-out
/// edges removed), the dataset's metapath shapes (Table II), and the
/// validation edges used for early stopping.
///
/// Generic over the [`GraphStore`] backend (defaulting to the in-RAM
/// [`MultiplexGraph`], which keeps every existing `FitData<'_>` signature
/// unchanged) so models that support it can train directly over the paged
/// `ShardedCsr` — the chaos-soak path.
pub struct FitData<'a, G: GraphStore = MultiplexGraph> {
    /// Training graph (same node set/schema as the full graph).
    pub graph: &'a G,
    /// Metapath type shapes for metapath-based models.
    pub metapath_shapes: &'a [Vec<NodeTypeId>],
    /// Labelled validation edges.
    pub val: &'a [LabeledEdge],
}

/// Hyper-parameters shared by all models — defaults follow the paper's
/// experimental settings (§IV-C) and its sensitivity analysis (Fig. 3:
/// `d_m = 128`, `d_e = 8`, 5 negatives).
#[derive(Clone, Debug)]
pub struct CommonConfig {
    /// Base embedding dimension `d_m`.
    pub dim: usize,
    /// Edge/relation-specific embedding dimension `d_e` (GATNE, HybridGNN).
    pub edge_dim: usize,
    /// Maximum training epochs.
    pub epochs: usize,
    /// Walks started per node per epoch.
    pub walks_per_node: usize,
    /// Nodes per walk.
    pub walk_length: usize,
    /// Skip-gram window radius `δ`.
    pub window: usize,
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// Learning rate.
    pub lr: f32,
    /// Early-stopping patience (epochs without validation improvement).
    pub patience: usize,
    /// Run each model's sampling recipe on a background worker thread,
    /// double-buffered against the compute stage. Bit-identical results to
    /// inline sampling (see `mhg-train`); purely a throughput knob.
    pub background_sampling: bool,
    /// Worker threads for the `mhg-par` kernel pool and sharded walk
    /// generation; `0` (the default) inherits the process-wide setting
    /// (`MHG_THREADS` env, else available parallelism). Like
    /// `background_sampling`, purely a throughput knob: results are
    /// bit-identical for any value.
    pub threads: usize,
    /// Checkpoint the full training state every this many epochs (`0` = no
    /// per-epoch cadence; a final checkpoint is still written when
    /// `checkpoint_dir` is set). See `mhg_train::TrainOptions`.
    pub checkpoint_every: usize,
    /// Directory for atomic, checksummed training checkpoints; `None`
    /// disables persistence.
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume from the latest checkpoint in `checkpoint_dir` before
    /// training. A resumed run is bit-identical to an uninterrupted one.
    pub resume: bool,
    /// Observability handle threaded into the training pipeline and the
    /// walk sampler: per-epoch metrics, stage spans, recovery events.
    /// Defaults to whatever the `MHG_OBS` environment variable configures
    /// (nothing, when unset). Recording never changes a result: metrics
    /// are clock/atomic side channels outside every RNG stream.
    pub obs: Obs,
}

impl Default for CommonConfig {
    fn default() -> Self {
        Self {
            dim: 128,
            edge_dim: 8,
            epochs: 30,
            walks_per_node: 20,
            walk_length: 10,
            window: 5,
            negatives: 5,
            lr: 0.025,
            patience: 5,
            background_sampling: true,
            threads: 0,
            checkpoint_every: 0,
            checkpoint_dir: None,
            resume: false,
            obs: Obs::from_env(),
        }
    }
}

impl CommonConfig {
    /// A fast configuration for tests and smoke runs.
    pub fn fast() -> Self {
        Self {
            dim: 32,
            edge_dim: 8,
            epochs: 8,
            walks_per_node: 6,
            walk_length: 8,
            window: 3,
            negatives: 3,
            lr: 0.05,
            patience: 3,
            background_sampling: true,
            threads: 0,
            checkpoint_every: 0,
            checkpoint_dir: None,
            resume: false,
            obs: Obs::from_env(),
        }
    }

    /// The pipeline options this configuration implies.
    pub fn train_options(&self) -> TrainOptions {
        TrainOptions {
            epochs: self.epochs,
            patience: self.patience,
            background: self.background_sampling,
            threads: self.threads,
            checkpoint_every: self.checkpoint_every,
            checkpoint_dir: self.checkpoint_dir.clone(),
            resume: self.resume,
            obs: self.obs.clone(),
        }
    }
}

/// A trained link predictor: scores candidate edges under a relation.
pub trait LinkPredictor {
    /// The model's display name (matches the paper's tables).
    fn name(&self) -> &'static str;

    /// Trains on `data`, deterministically under `rng`. Errors are typed:
    /// a bad sampling configuration, an unrecoverable checkpoint failure,
    /// or a run that stayed divergent through its rollback budget.
    fn fit(&mut self, data: &FitData<'_>, rng: &mut StdRng) -> Result<TrainReport, TrainError>;

    /// Scores the candidate edge `(u, v)` under relation `r` (higher =
    /// more likely). Must only be called after [`LinkPredictor::fit`].
    fn score(&self, u: NodeId, v: NodeId, r: RelationId) -> f32;
}

/// Relation-aware (or shared) node embeddings with dot-product scoring —
/// the final artefact every model in this crate produces.
///
/// Skip-gram-trained models can additionally register their context table;
/// scoring then uses the symmetrised train-consistent decoder
/// `½(e_u·c_v + c_u·e_v)` instead of `e_u·e_v`, which matches the objective
/// those models actually optimised. R-GCN registers its relation diagonals
/// instead, for the DistMult decoder `Σ_d e_u[d]·e_v[d]·R_r[d]`.
#[derive(Clone, Debug, Default)]
pub struct EmbeddingScores {
    /// One `num_nodes × dim` table per relation, or a single shared table.
    tables: Vec<Tensor>,
    decoder: Decoder,
}

/// How [`EmbeddingScores::score`] combines two embedding rows.
#[derive(Clone, Debug, Default)]
enum Decoder {
    /// `e_u·e_v`.
    #[default]
    Dot,
    /// `½(e_u·c_v + c_u·e_v)` over a skip-gram context table shared across
    /// relations.
    Context(Tensor),
    /// DistMult over a relation-diagonal table (`L × d`).
    DistMult(Tensor),
}

impl EmbeddingScores {
    /// A single table shared across relations (homogeneous models).
    pub fn shared(table: Tensor) -> Self {
        Self {
            tables: vec![table],
            decoder: Decoder::Dot,
        }
    }

    /// One table per relation (multiplex models).
    pub fn per_relation(tables: Vec<Tensor>) -> Self {
        assert!(!tables.is_empty(), "need at least one table");
        Self {
            tables,
            decoder: Decoder::Dot,
        }
    }

    /// Attaches the skip-gram context table, switching scoring to the
    /// symmetrised `½(e_u·c_v + c_u·e_v)` decoder.
    pub fn with_context(mut self, context: Tensor) -> Self {
        self.decoder = Decoder::Context(context);
        self
    }

    /// Attaches one diagonal row per relation (`L × d`), switching scoring
    /// to the DistMult decoder `Σ_d e_u[d]·e_v[d]·R_r[d]`.
    pub fn with_distmult(mut self, diag: Tensor) -> Self {
        self.decoder = Decoder::DistMult(diag);
        self
    }

    /// The embedding row for `v` under `r`.
    pub fn embedding(&self, v: NodeId, r: RelationId) -> &[f32] {
        let t = if self.tables.len() == 1 {
            &self.tables[0]
        } else {
            &self.tables[r.index()]
        };
        t.row(v.index())
    }

    /// Scores `(u, v)` under `r` with the attached decoder.
    ///
    /// # Panics
    ///
    /// Panics if the artefact is uninitialised (the model was never fitted).
    pub fn score(&self, u: NodeId, v: NodeId, r: RelationId) -> f32 {
        assert!(!self.tables.is_empty(), "score() before fit()");
        let (eu, ev) = (self.embedding(u, r), self.embedding(v, r));
        match &self.decoder {
            Decoder::Dot => dot(eu, ev),
            Decoder::Context(ctx) => {
                0.5 * (dot(eu, ctx.row(v.index())) + dot(ctx.row(u.index()), ev))
            }
            Decoder::DistMult(diag) => eu
                .iter()
                .zip(ev)
                .zip(diag.row(r.index()))
                .map(|((a, b), d)| a * b * d)
                .sum(),
        }
    }
}

/// The checkpoint encoding every model's scores share, under `model/scores`:
/// a table count, the tables, and the decoder's extra table if it has one.
/// No artefact yet is a table count of 0.
impl Artefact for EmbeddingScores {
    fn export_state(best: Option<&Self>, dict: &mut StateDict) {
        let tables = best.map_or(&[][..], |b| b.tables.as_slice());
        dict.put_u64("model/scores/ntables", tables.len() as u64);
        for (i, t) in tables.iter().enumerate() {
            dict.put_tensor(format!("model/scores/table/{i}"), t.clone());
        }
        match best.map(|b| &b.decoder) {
            None | Some(Decoder::Dot) => {}
            Some(Decoder::Context(c)) => dict.put_tensor("model/scores/context", c.clone()),
            Some(Decoder::DistMult(d)) => dict.put_tensor("model/scores/diag", d.clone()),
        }
    }

    fn import_state(dict: &StateDict) -> Result<Option<Self>, CkptError> {
        let n = dict.u64("model/scores/ntables")? as usize;
        if n == 0 {
            return Ok(None);
        }
        let mut tables = Vec::new();
        for i in 0..n {
            tables.push(dict.tensor(&format!("model/scores/table/{i}"))?.clone());
        }
        let decoder = if dict.contains("model/scores/context") {
            Decoder::Context(dict.tensor("model/scores/context")?.clone())
        } else if dict.contains("model/scores/diag") {
            Decoder::DistMult(dict.tensor("model/scores/diag")?.clone())
        } else {
            Decoder::Dot
        };
        Ok(Some(Self { tables, decoder }))
    }
}

/// Fetches `name` from `dict`, requiring the stored tensor to have the
/// same shape as `current` — the typed-error guard every model uses when
/// restoring raw tables, so a checkpoint from a different configuration
/// surfaces as [`CkptError::ShapeMismatch`] instead of corrupting state.
pub(crate) fn import_tensor_like(
    current: &Tensor,
    name: &str,
    dict: &StateDict,
) -> Result<Tensor, CkptError> {
    let stored = dict.tensor(name)?;
    if stored.rows() != current.rows() || stored.cols() != current.cols() {
        return Err(CkptError::ShapeMismatch(format!(
            "{name}: checkpoint is {}x{}, model expects {}x{}",
            stored.rows(),
            stored.cols(),
            current.rows(),
            current.cols()
        )));
    }
    Ok(stored.clone())
}

#[inline]
fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Validation ROC-AUC of an embedding table over labelled edges.
pub fn val_auc(scores: &EmbeddingScores, val: &[LabeledEdge]) -> f64 {
    if val.is_empty() {
        return 0.5;
    }
    let s: Vec<f32> = val
        .iter()
        .map(|e| scores.score(e.u, e.v, e.relation))
        .collect();
    let l: Vec<bool> = val.iter().map(|e| e.label).collect();
    mhg_eval::roc_auc(&s, &l)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_embedding_scoring() {
        let table = Tensor::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[0.0, 1.0]]);
        let es = EmbeddingScores::shared(table);
        let r = RelationId(3); // any relation maps to the shared table
        assert_eq!(es.score(NodeId(0), NodeId(1), r), 1.0);
        assert_eq!(es.score(NodeId(0), NodeId(2), r), 0.0);
    }

    #[test]
    fn per_relation_scoring_differs() {
        let t0 = Tensor::from_rows(&[&[1.0, 0.0], &[1.0, 0.0]]);
        let t1 = Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let es = EmbeddingScores::per_relation(vec![t0, t1]);
        assert_eq!(es.score(NodeId(0), NodeId(1), RelationId(0)), 1.0);
        assert_eq!(es.score(NodeId(0), NodeId(1), RelationId(1)), 0.0);
    }

    #[test]
    #[should_panic(expected = "score() before fit()")]
    fn scoring_before_fit_panics_with_a_message() {
        EmbeddingScores::default().score(NodeId(0), NodeId(1), RelationId(0));
    }

    #[test]
    fn default_config_matches_paper() {
        let c = CommonConfig::default();
        assert_eq!(c.dim, 128);
        assert_eq!(c.edge_dim, 8);
        assert_eq!(c.walks_per_node, 20);
        assert_eq!(c.walk_length, 10);
        assert_eq!(c.window, 5);
        assert_eq!(c.negatives, 5);
    }
}
