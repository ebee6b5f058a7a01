//! Multiplex heterogeneous graph substrate for the HybridGNN reproduction.
//!
//! Implements the paper's Definitions 1–5: heterogeneous networks with typed
//! nodes (`O`) and multiple relations (`R`) where a pair of nodes may be
//! connected under several relations simultaneously (the *multiplexity*
//! property), plus metapath schemes and relation-specific subgraphs.
//!
//! Storage comes in two interchangeable backends behind the [`GraphStore`]
//! trait: the in-RAM [`MultiplexGraph`] (one undirected CSR per relation,
//! O(1) neighbor slices, O(log d) membership tests) and the chunk-paged
//! [`ShardedCsr`] (per-relation CSR shards on disk, paged through a
//! byte-budgeted cache, for graphs larger than RAM). Every sampler in
//! `mhg-sampling` is written against the trait and produces bit-identical
//! walk streams over either backend. The sharded backend self-heals:
//! failed page reads are retried with clock-driven backoff, corrupt shards
//! are rebuilt in place from the original [`EdgeSource`], and
//! unrecoverable shards are quarantined (see [`heal`]).
//!
//! # Example
//!
//! ```
//! use mhg_graph::{GraphBuilder, MetapathScheme, Schema};
//!
//! let mut schema = Schema::new();
//! let user = schema.add_node_type("user");
//! let video = schema.add_node_type("video");
//! let like = schema.add_relation("like");
//! let comment = schema.add_relation("comment");
//!
//! let mut b = GraphBuilder::new(schema);
//! let u = b.add_node(user);
//! let v = b.add_node(video);
//! b.add_edge(u, v, like);
//! b.add_edge(u, v, comment); // multiplex: same pair, second relation
//! let g = b.build();
//!
//! assert!(g.has_edge(u, v, like) && g.has_edge(u, v, comment));
//! let uvu = MetapathScheme::intra(vec![user, video, user], like);
//! assert!(uvu.is_intra_relationship());
//! ```
// Library code must not panic; clippy.toml exempts `#[cfg(test)]` code.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

mod csr;
mod graph;
pub mod heal;
mod ids;
mod metapath;
pub mod persist;
mod schema;
pub mod shard_codec;
mod sharded;
mod stats;
mod store;

pub use csr::Csr;
pub use graph::{GraphBuilder, MultiplexGraph};
pub use heal::{FsckFinding, FsckReport, HealPolicy, HealStats, RepairReport};
pub use ids::{NodeId, NodeTypeId, RelationId};
pub use metapath::MetapathScheme;
pub use schema::Schema;
pub use shard_codec::ShardError;
pub use sharded::{
    EdgeSource, PageStats, ShardedCsr, ShardedCsrOptions, StoreFailure, MANIFEST_FILE,
};
pub use stats::GraphStats;
pub use store::GraphStore;
