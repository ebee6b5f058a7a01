//! Dense 2-D `f32` tensor substrate for the HybridGNN reproduction.
//!
//! The paper's model is built from a handful of dense operations — matrix
//! multiplication, elementwise arithmetic, row-softmax, reductions and
//! embedding-row gathers. This crate provides exactly those, in a small,
//! allocation-conscious, BLAS-free package. Everything is row-major `f32`;
//! vectors are represented as `1 × n` matrices.
//!
//! The companion crate [`mhg-autograd`] layers reverse-mode differentiation
//! on top of these kernels.
//!
//! # Example
//!
//! ```
//! use mhg_tensor::Tensor;
//!
//! let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! ```
// Library code must not panic; clippy.toml exempts `#[cfg(test)]` code.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

mod init;
mod ops;
mod shape;
mod tensor;

pub use init::{xavier_uniform, InitKind};
pub use ops::{log_sigmoid, sigmoid_scalar, GEMM_MR, GEMM_NR, GEMM_NR_AVX2};
pub use shape::Shape;
pub use tensor::Tensor;

/// Crate-wide numeric tolerance used by tests and debug assertions.
pub const EPS: f32 = 1e-6;
