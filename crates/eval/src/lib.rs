//! Evaluation metrics for the HybridGNN reproduction.
//!
//! Everything the paper's evaluation section reports:
//!
//! * [`roc_auc`], [`pr_auc`], [`f1_at`] / [`best_f1_threshold`] — the link
//!   prediction metrics of Tables IV–V;
//! * [`topk_metrics`] (PR@K / HR@K) — the top-K recommendation metrics;
//! * [`welch_t_test`] — the `p < 0.01` significance check;
//! * [`degree_buckets`] — the degree-cluster case study (Fig. 5, Table IX).
//!
//! # Example
//!
//! ```
//! use mhg_eval::{roc_auc, pr_auc};
//!
//! let scores = [0.9, 0.8, 0.3, 0.1];
//! let labels = [true, true, false, false];
//! assert_eq!(roc_auc(&scores, &labels), 1.0);
//! assert_eq!(pr_auc(&scores, &labels), 1.0);
//! ```
// Library code must not panic; clippy.toml exempts `#[cfg(test)]` code.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

mod classification;
mod degree;
mod ranking;
mod stats;

pub use classification::{best_f1_threshold, f1_at, pr_auc, roc_auc};
pub use degree::{degree_buckets, DegreeBucket};
pub use ranking::{rank_candidates, topk_metrics, RankedQuery, TopKMetrics};
pub use stats::{mean, std_dev, variance, welch_t_test, TTest};
