//! Sampling machinery for the HybridGNN reproduction.
//!
//! Everything the paper's training pipeline draws at random lives here:
//!
//! * [`AliasTable`] — O(1) categorical sampling.
//! * [`UniformWalker`] / [`Node2VecWalker`] / [`MetapathWalker`] — the walk
//!   generators behind DeepWalk, node2vec and the paper's metapath-based
//!   training walks (§III-E).
//! * [`InterRelationshipExplorer`] — the paper's randomized two-phase
//!   inter-relationship exploration (§III-B, Eq. 1–2).
//! * [`MetapathNeighborSampler`] / [`UniformNeighborSampler`] — layered
//!   `N^k_P(v)` sets consumed by the hybrid aggregation flows (Eq. 3–4).
//! * [`NegativeSampler`] — heterogeneous (type-aware) unigram^0.75 negative
//!   sampling.
//! * [`pairs_from_walk`] — windowed skip-gram pair generation.
//! * [`run_prefetched`] — double-buffered background batch production for
//!   the training pipeline in `mhg-train`.
//! * [`sharded`] / [`sharded_over`] — fixed-shard parallel walk generation
//!   with one derived sub-RNG per shard (bit-identical for any thread
//!   count).
//!
//! Walkers, samplers and the explorer are generic over the
//! [`mhg_graph::GraphStore`] backend (defaulting to the in-RAM
//! [`mhg_graph::MultiplexGraph`]). Because every RNG draw is conditioned
//! only on degrees and sorted neighbor lists — which the contract requires
//! all backends to report identically — walk and sample streams are
//! bit-identical between the in-RAM graph and the chunk-paged
//! [`mhg_graph::ShardedCsr`], for any shard layout and any thread count.
// Library code must not panic; clippy.toml exempts `#[cfg(test)]` code.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

mod alias;
mod errors;
mod explore;
mod negative;
mod neighbors;
mod pairs;
mod prefetch;
mod shard;
mod walks;

pub use alias::AliasTable;
pub use errors::SampleError;
pub use explore::InterRelationshipExplorer;
pub use negative::{NegativeSampler, UNIGRAM_POWER};
pub use neighbors::{LayeredNeighbors, MetapathNeighborSampler, UniformNeighborSampler};
pub use pairs::{pairs_from_walk, pairs_from_walks, Pair};
pub use prefetch::{classify_panic, run_prefetched};
pub use shard::{
    derive_seed, sharded, sharded_over, sharded_over_obs, walk_shards, STARTS_PER_SHARD,
};
pub use walks::{MetapathWalker, Node2VecWalker, UniformWalker, Walk};
