//! Reverse-mode automatic differentiation for the HybridGNN reproduction.
//!
//! The paper's model (and every baseline) is trained by gradient descent on
//! losses built from a small set of dense operations. This crate provides:
//!
//! * [`ParamStore`] — owns all trainable tensors; embedding tables are only
//!   ever *gathered* onto the tape, never copied whole.
//! * [`Graph`] — a per-step tape recording the forward computation, with
//!   [`Graph::backward`] producing a [`GradStore`].
//! * [`Adam`] — the optimizer; it performs lazy (per-row) updates for
//!   sparse embedding gradients.
//! * [`gradcheck`] — finite-difference verification used by the test suite.
//!
//! # Example
//!
//! ```
//! use mhg_autograd::{Adam, Graph, Optimizer, ParamStore};
//! use mhg_tensor::Tensor;
//!
//! let mut params = ParamStore::new();
//! let w = params.register("w", Tensor::zeros(1, 1));
//! let mut opt = Adam::new(0.1);
//! for _ in 0..200 {
//!     let mut g = Graph::new(&params);
//!     let wv = g.param(w);
//!     let t = g.constant(Tensor::from_vec(1, 1, vec![2.0]));
//!     let d = g.sub(wv, t);
//!     let sq = g.mul(d, d);
//!     let loss = g.sum_all(sq);
//!     let grads = g.backward(loss);
//!     opt.step(&mut params, &grads);
//! }
//! assert!((params.value(w)[(0, 0)] - 2.0).abs() < 0.05);
//! ```
// Library code must not panic; clippy.toml exempts `#[cfg(test)]` code.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

mod backward;
pub mod gradcheck;
mod graph;
mod optim;
mod store;
mod validate;

pub use graph::{Graph, Var};
pub use optim::{Adam, Optimizer};
pub use store::{Grad, GradStore, ParamId, ParamStore, RowGrad};
