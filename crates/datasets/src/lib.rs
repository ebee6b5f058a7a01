//! Synthetic multiplex heterogeneous datasets calibrated to the five graphs
//! in the HybridGNN paper's Table II.
//!
//! The paper evaluates on Amazon, YouTube, IMDb, Taobao and a proprietary
//! Kuaishou log. None ship with this reproduction, so each is substituted by
//! a planted-community generator that preserves the property the paper's
//! experiments measure (see `DESIGN.md` §1 for the per-dataset argument):
//!
//! * matching type/relation structure and (scaled) node/edge counts;
//! * heavy-tailed degrees;
//! * correlated relations over shared communities — the inter-relationship
//!   signal HybridGNN exploits;
//! * graded relation density (Taobao/Kuaishou), making sparse relations
//!   predictable from dense ones.
//!
//! # Example
//!
//! ```
//! use mhg_datasets::{DatasetKind, EdgeSplit};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let dataset = DatasetKind::Taobao.generate(0.01, 42);
//! assert_eq!(dataset.graph.schema().num_relations(), 4);
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let split = EdgeSplit::default_split(&dataset.graph, &mut rng);
//! assert!(split.test.iter().any(|e| e.label) && split.test.iter().any(|e| !e.label));
//! ```
// Library code must not panic; clippy.toml exempts `#[cfg(test)]` code.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

mod amazon;
mod dataset;
mod imdb;
mod kuaishou;
mod split;
mod synth;
mod taobao;
mod tier;
mod youtube;

pub use dataset::{Dataset, DatasetKind};
pub use split::{EdgeSplit, LabeledEdge, SplitConfig};
pub use synth::{zipf_activity, Communities, EdgeSampler};
pub use tier::SyntheticTier;
