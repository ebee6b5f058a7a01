//! Baseline link-prediction models for the HybridGNN reproduction.
//!
//! Implements the nine baselines of the paper's Tables IV–V behind one
//! [`LinkPredictor`] trait:
//!
//! | family | models |
//! |---|---|
//! | network embedding | [`DeepWalk`], [`Node2Vec`], [`Line`] |
//! | homogeneous GNN | [`Gcn`], [`GraphSage`] |
//! | heterogeneous GNN | [`Han`], [`Magnn`] |
//! | multiplex heterogeneous GNN | [`RGcn`], [`Gatne`] |
//!
//! All models train on the same [`FitData`] (training graph + validation
//! edges) and produce relation-aware dot-product scores.
// Library code must not panic; clippy.toml exempts `#[cfg(test)]` code.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

mod agg;
mod attention;
mod common;
mod deepwalk;
mod encoder;
mod evaluate;
mod gatne;
mod gcn;
mod graphsage;
mod han;
mod line;
mod magnn;
mod node2vec;
mod rgcn;
mod sgns;

pub use common::{
    pair_budget, val_auc, CommonConfig, EarlyStopper, EmbeddingScores, EventValue, FitData,
    LinkPredictor, Obs, ObsConfig, RecoveryCounters, StopDecision, TimingBreakdown, TrainError,
    TrainReport,
};
pub use deepwalk::DeepWalk;
pub use evaluate::{evaluate, ranking_queries, ModelMetrics};
pub use gatne::Gatne;
pub use gcn::Gcn;
pub use graphsage::GraphSage;
pub use han::Han;
pub use line::Line;
pub use magnn::Magnn;
pub use node2vec::Node2Vec;
pub use rgcn::RGcn;
pub use sgns::Sgns;
