//! **HybridGNN** — a from-scratch Rust reproduction of
//! *"HybridGNN: Learning Hybrid Representation for Recommendation in
//! Multiplex Heterogeneous Networks"* (ICDE 2022).
//!
//! The model learns one embedding per node **per relationship** in a
//! multiplex heterogeneous network, for relationship-specific link
//! prediction (recommendation). Three mechanisms work together:
//!
//! 1. **Randomized inter-relationship exploration** (§III-B, Eq. 1–2) — a
//!    two-phase walk that crosses relation-specific subgraphs, supplying
//!    the inter-relationship signal intra-relationship metapaths miss.
//! 2. **Hybrid aggregation flows** (§III-C, Eq. 3–5) — per-metapath
//!    leaves-to-root aggregation of sampled `N^k_P(v)` neighbor layers,
//!    plus one flow over the randomized exploration.
//! 3. **Hierarchical attention** (§III-D, Eq. 6–9) — metapath-level
//!    self-attention over the flow stack, then relationship-level
//!    self-attention over the per-relation summaries;
//!    `e*_{v,r} = e_v + e_{v,r}·W_r` (Eq. 10).
//!
//! Training uses the heterogeneous skip-gram objective with negative
//! sampling over metapath-based walks (§III-E, Eq. 12–13).
//!
//! # Example
//!
//! ```
//! use hybridgnn::{HybridConfig, HybridGnn};
//! use mhg_datasets::{DatasetKind, EdgeSplit};
//! use mhg_models::{FitData, LinkPredictor};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let dataset = DatasetKind::Taobao.generate(0.005, 42);
//! let mut rng = StdRng::seed_from_u64(7);
//! let split = EdgeSplit::default_split(&dataset.graph, &mut rng);
//!
//! let mut cfg = HybridConfig::fast();
//! cfg.common.epochs = 2;
//! let mut model = HybridGnn::new(cfg);
//! let data = FitData {
//!     graph: &split.train_graph,
//!     metapath_shapes: &dataset.metapath_shapes,
//!     val: &split.val,
//! };
//! model.fit(&data, &mut rng);
//! let e = split.test[0];
//! let _score = model.score(e.u, e.v, e.relation);
//! ```
// Library code must not panic; clippy.toml exempts `#[cfg(test)]` code.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

mod config;
pub mod embeddings;
mod flows;
mod model;

pub use config::HybridConfig;
pub use model::{AttentionProfile, HybridGnn};
