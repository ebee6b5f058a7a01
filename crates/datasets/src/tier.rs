//! The 10×-scale synthetic tier: a functionally-defined edge stream for
//! graphs too large to hold as edge lists.
//!
//! The five Table-II generators materialise a [`MultiplexGraph`] in RAM,
//! which caps them at a few hundred thousand edges. [`SyntheticTier`]
//! instead *is* the graph definition: every edge is a pure function of
//! `(seed, relation, chunk, draw)`, so the stream can be replayed any
//! number of times at a fixed cost of O(1) memory. That is exactly the
//! [`EdgeSource`] contract the sharded store's wave builder needs — it
//! re-streams one relation per wave instead of spilling edges to disk, and
//! each relation is its own seeded stream, so a pass over one relation
//! generates no edge of another.
//!
//! The planted structure mirrors `synth.rs` in spirit with arithmetic in
//! place of tables: node `i` of a group belongs to community `i mod k`, and
//! an edge keeps its endpoints in one community with probability
//! `1 − noise_r`. Relations share the assignment, so the inter-relationship
//! correlation the paper's uplift experiment measures survives the scale-up.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mhg_graph::{EdgeSource, GraphBuilder, MultiplexGraph, NodeId, NodeTypeId, RelationId, Schema};
use mhg_sampling::derive_seed;

/// Edges drawn per RNG chunk. Fixed so the stream decomposition — and the
/// stream itself — never depends on thread count or caller batching.
const EDGE_CHUNK: usize = 1 << 16;

/// A deterministic, re-streamable user–item multiplex graph defined by its
/// generator parameters instead of stored edges.
#[derive(Clone, Debug)]
pub struct SyntheticTier {
    schema: Schema,
    num_users: usize,
    num_items: usize,
    edges_per_relation: Vec<usize>,
    noise_per_relation: Vec<f32>,
    num_communities: usize,
    seed: u64,
}

impl SyntheticTier {
    /// Taobao-shaped tier at `scale` of the 10×-target size: at
    /// `scale = 1.0` this is 800k users, 200k items and 10M candidate edges
    /// over the four behaviour relations (`view`/`cart`/`buy`/`fav`, graded
    /// 64/16/12/8%). Small scales (`0.001`) are cheap enough for unit tests.
    ///
    /// # Panics
    ///
    /// Panics unless `scale` is positive and finite.
    pub fn taobao(scale: f64, seed: u64) -> Self {
        assert!(
            scale.is_finite() && scale > 0.0,
            "scale must be positive, got {scale}"
        );
        let scaled = |base: usize, floor: usize| ((base as f64 * scale) as usize).max(floor);
        let mut schema = Schema::new();
        schema.add_node_type("user");
        schema.add_node_type("item");
        for name in ["view", "cart", "buy", "fav"] {
            schema.add_relation(name);
        }
        let num_communities = scaled(800, 8);
        Self {
            schema,
            num_users: scaled(800_000, 4 * num_communities),
            num_items: scaled(200_000, 2 * num_communities),
            edges_per_relation: vec![
                scaled(6_400_000, 64),
                scaled(1_600_000, 16),
                scaled(1_200_000, 12),
                scaled(800_000, 8),
            ],
            noise_per_relation: vec![0.10, 0.05, 0.05, 0.15],
            num_communities,
            seed,
        }
    }

    /// Candidate edges across all relations (before CSR deduplication).
    pub fn total_edges(&self) -> usize {
        self.edges_per_relation.iter().sum()
    }

    /// Candidate edges per relation, in relation-id order.
    pub fn edges_per_relation(&self) -> &[usize] {
        &self.edges_per_relation
    }

    /// The generator seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Builds the equivalent in-RAM graph by replaying the stream through
    /// [`GraphBuilder`]. Intended for small scales (tests, parity checks);
    /// at full scale use `ShardedCsr::build(&tier, …)` instead.
    pub fn materialize(&self) -> MultiplexGraph {
        let mut b = GraphBuilder::new(self.schema.clone());
        let user = NodeTypeId(0);
        let item = NodeTypeId(1);
        for _ in 0..self.num_users {
            b.add_node(user);
        }
        for _ in 0..self.num_items {
            b.add_node(item);
        }
        for r in self.schema.relations() {
            self.for_each_edge_of(r, &mut |u, v| {
                b.add_edge(u, v, r);
            });
        }
        b.build()
    }
}

impl EdgeSource for SyntheticTier {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn num_nodes(&self) -> usize {
        self.num_users + self.num_items
    }

    fn node_type_of(&self, v: NodeId) -> NodeTypeId {
        if v.index() < self.num_users {
            NodeTypeId(0)
        } else {
            NodeTypeId(1)
        }
    }

    fn for_each_edge_of(&self, relation: RelationId, f: &mut dyn FnMut(NodeId, NodeId)) {
        let ri = relation.index();
        let (Some(&count), Some(&noise)) = (
            self.edges_per_relation.get(ri),
            self.noise_per_relation.get(ri),
        ) else {
            return;
        };
        let k = self.num_communities;
        // Items with local index ≡ `c` (mod `k`), `ceil((num_items − c) / k)`,
        // without a division per edge: `q + 1` for the first `rem` residues
        // and `q` for the rest.
        let (q, rem) = (self.num_items / k, self.num_items % k);
        let rel_seed = derive_seed(self.seed, ri as u64);
        let chunks = count.div_ceil(EDGE_CHUNK);
        for chunk in 0..chunks {
            let mut rng = StdRng::seed_from_u64(derive_seed(rel_seed, chunk as u64));
            let lo = chunk * EDGE_CHUNK;
            let hi = (lo + EDGE_CHUNK).min(count);
            for _ in lo..hi {
                let u_local = rng.gen_range(0..self.num_users);
                let c = u_local % k;
                let v_local = if rng.gen::<f32>() < noise {
                    rng.gen_range(0..self.num_items)
                } else {
                    c + rng.gen_range(0..q + usize::from(c < rem)) * k
                };
                f(
                    NodeId(u_local as u32),
                    NodeId((self.num_users + v_local) as u32),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Edge = (RelationId, NodeId, NodeId);

    /// Every edge of `source`, relation by relation.
    fn edges_of(source: &dyn EdgeSource) -> Vec<Edge> {
        let mut out = Vec::new();
        for r in source.schema().relations() {
            source.for_each_edge_of(r, &mut |u, v| out.push((r, u, v)));
        }
        out
    }

    /// FNV-1a 64 over each edge's relation (`u16`) and endpoints (`u32`),
    /// little-endian.
    fn stream_hash(edges: &[Edge]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &(r, u, v) in edges {
            let bytes = r.0.to_le_bytes().into_iter();
            for b in bytes.chain(u.0.to_le_bytes()).chain(v.0.to_le_bytes()) {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn stream_is_replayable_bit_identically() {
        let tier = SyntheticTier::taobao(0.001, 7);
        let a = edges_of(&tier);
        assert_eq!(a, edges_of(&tier));
        assert_eq!(a.len(), tier.total_edges());
        for (ri, &count) in tier.edges_per_relation().iter().enumerate() {
            let r = RelationId(ri as u16);
            assert_eq!(a.iter().filter(|e| e.0 == r).count(), count);
        }
        // Taken in relation order, the per-relation streams of the tier and
        // of its materialised graph replay the whole-graph sequences that
        // the single-stream source yielded, pinned by their hashes.
        assert_eq!(stream_hash(&a), 0x7e47_9122_76b6_7bc5);
        let g = edges_of(&tier.materialize());
        assert_eq!(g.len(), 9_170);
        assert_eq!(stream_hash(&g), 0xf532_00f7_0394_a1ce);
    }

    #[test]
    fn a_relation_outside_the_schema_streams_nothing() {
        let tier = SyntheticTier::taobao(0.001, 7);
        let mut n = 0usize;
        tier.for_each_edge_of(RelationId(4), &mut |_, _| n += 1);
        assert_eq!(n, 0);
    }

    #[test]
    fn endpoints_respect_types_and_ranges() {
        let tier = SyntheticTier::taobao(0.001, 7);
        let users = tier.num_users;
        let total = tier.num_nodes();
        for (_, u, v) in edges_of(&tier) {
            assert!(u.index() < users, "left endpoint must be a user");
            assert!(
                (users..total).contains(&v.index()),
                "right endpoint must be an item"
            );
        }
        assert_eq!(tier.node_type_of(NodeId(0)), NodeTypeId(0));
        assert_eq!(tier.node_type_of(NodeId(users as u32)), NodeTypeId(1));
    }

    #[test]
    fn materialized_graph_matches_stream_counts() {
        let tier = SyntheticTier::taobao(0.001, 11);
        let g = tier.materialize();
        assert_eq!(g.num_nodes(), tier.num_nodes());
        assert_eq!(g.schema().num_relations(), 4);
        // CSR dedup can only shrink the candidate counts.
        for (ri, &cand) in tier.edges_per_relation().iter().enumerate() {
            let stored = g.num_edges_in(RelationId(ri as u16));
            assert!(stored <= cand, "relation {ri}: {stored} > {cand}");
            assert!(stored > 0, "relation {ri} is empty");
        }
    }

    #[test]
    fn communities_correlate_relations() {
        // With low noise, most edges stay within a community, so the
        // community residues of the two endpoints agree far more often
        // than the 1/k chance level.
        let tier = SyntheticTier::taobao(0.001, 13);
        let k = tier.num_communities;
        let edges = edges_of(&tier);
        let same = edges
            .iter()
            .filter(|&&(_, u, v)| u.index() % k == (v.index() - tier.num_users) % k)
            .count();
        assert!(
            same as f64 / edges.len() as f64 > 0.5,
            "community correlation lost: {same}/{}",
            edges.len()
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticTier::taobao(0.001, 1);
        let b = SyntheticTier::taobao(0.001, 2);
        assert_ne!(edges_of(&a), edges_of(&b));
    }
}
