//! Random-walk generators.
//!
//! Three walkers cover every model in the reproduction:
//!
//! * [`UniformWalker`] — DeepWalk-style first-order walks over the flattened
//!   graph (all relations merged).
//! * [`Node2VecWalker`] — second-order p/q-biased walks (node2vec baseline).
//! * [`MetapathWalker`] — the paper's training walks (§III-E): walks under a
//!   single relation whose node types cycle through a metapath scheme, with
//!   the transition probability `T(v_{t+1} | v_t)` uniform over typed
//!   neighbors.

use rand::Rng;

use mhg_graph::{GraphStore, MetapathScheme, MultiplexGraph, NodeId, RelationId};

use crate::errors::SampleError;

/// A generated random walk.
pub type Walk = Vec<NodeId>;

/// DeepWalk-style uniform walker over the flattened multiplex graph:
/// at each step a uniform neighbor across *all* relations is chosen.
///
/// Generic over the [`GraphStore`] backend; the RNG draw sequence depends
/// only on degrees and sorted neighbor lists, so walks are bit-identical
/// between the in-RAM and sharded stores.
pub struct UniformWalker<'g, G: GraphStore = MultiplexGraph> {
    graph: &'g G,
}

impl<'g, G: GraphStore> UniformWalker<'g, G> {
    /// Creates a walker over `graph`.
    pub fn new(graph: &'g G) -> Self {
        Self { graph }
    }

    /// Generates a walk of at most `length` nodes starting at `start`.
    /// Stops early at sinks (isolated nodes).
    pub fn walk<R: Rng + ?Sized>(&self, start: NodeId, length: usize, rng: &mut R) -> Walk {
        let mut walk = Vec::with_capacity(length);
        walk.push(start);
        let mut current = start;
        while walk.len() < length {
            let Some(next) = uniform_any_neighbor(self.graph, current, rng) else {
                break;
            };
            walk.push(next);
            current = next;
        }
        walk
    }
}

/// Samples a uniform neighbor of `v` across all relations (degree-weighted
/// over relations, i.e. uniform over the multiset of incident edges).
#[expect(
    clippy::unreachable,
    reason = "`pick < total`, the summed degree, so the relation scan returns inside the loop"
)]
fn uniform_any_neighbor<G: GraphStore, R: Rng + ?Sized>(
    graph: &G,
    v: NodeId,
    rng: &mut R,
) -> Option<NodeId> {
    let total = graph.total_degree(v);
    if total == 0 {
        return None;
    }
    let mut pick = rng.gen_range(0..total);
    for r in graph.schema().relations() {
        let d = graph.degree(v, r);
        if pick < d {
            return Some(graph.neighbor_at(v, r, pick));
        }
        pick -= d;
    }
    unreachable!("pick exceeded total degree")
}

/// node2vec second-order walker with return parameter `p` and in-out
/// parameter `q`, operating on the flattened graph.
pub struct Node2VecWalker<'g, G: GraphStore = MultiplexGraph> {
    graph: &'g G,
    p: f32,
    q: f32,
}

impl<'g, G: GraphStore> Node2VecWalker<'g, G> {
    /// Creates a walker with the given bias parameters.
    ///
    /// # Panics
    ///
    /// Panics unless `p > 0` and `q > 0`.
    pub fn new(graph: &'g G, p: f32, q: f32) -> Self {
        assert!(p > 0.0 && q > 0.0, "p and q must be positive");
        Self { graph, p, q }
    }

    /// Generates a walk of at most `length` nodes starting at `start`.
    pub fn walk<R: Rng + ?Sized>(&self, start: NodeId, length: usize, rng: &mut R) -> Walk {
        let mut walk = Vec::with_capacity(length);
        walk.push(start);
        let Some(first) = uniform_any_neighbor(self.graph, start, rng) else {
            return walk;
        };
        if length > 1 {
            walk.push(first);
        }
        while walk.len() < length {
            let prev = walk[walk.len() - 2];
            let current = walk[walk.len() - 1];
            let Some(next) = self.biased_step(prev, current, rng) else {
                break;
            };
            walk.push(next);
        }
        walk
    }

    /// One rejection-sampled second-order step (the standard trick: accept a
    /// uniform candidate with probability proportional to its bias weight).
    fn biased_step<R: Rng + ?Sized>(
        &self,
        prev: NodeId,
        current: NodeId,
        rng: &mut R,
    ) -> Option<NodeId> {
        if self.graph.total_degree(current) == 0 {
            return None;
        }
        let max_w = (1.0f32 / self.p).max(1.0).max(1.0 / self.q);
        // Bounded rejection sampling; falls back to the last candidate.
        for _ in 0..32 {
            let cand = uniform_any_neighbor(self.graph, current, rng)?;
            let w = if cand == prev {
                1.0 / self.p
            } else if self.graph.has_any_edge(cand, prev) {
                1.0
            } else {
                1.0 / self.q
            };
            if rng.gen::<f32>() * max_w <= w {
                return Some(cand);
            }
        }
        uniform_any_neighbor(self.graph, current, rng)
    }
}

/// The paper's metapath-based training walker (§III-E): walks stay under one
/// relation `r` while node types follow a scheme cyclically. The transition
/// `T(v_{t+1}|v_t)` is uniform over `N_r(v_t) ∩ κ(next type)`.
pub struct MetapathWalker<'g, G: GraphStore = MultiplexGraph> {
    graph: &'g G,
    scheme: MetapathScheme,
    relation: RelationId,
}

impl<'g, G: GraphStore> MetapathWalker<'g, G> {
    /// Creates a walker for an intra-relationship scheme; a scheme that is
    /// not intra-relationship or does not fit the graph's schema is a typed
    /// [`SampleError`], surfaced through the training pipeline instead of
    /// aborting the process.
    pub fn new(graph: &'g G, scheme: MetapathScheme) -> Result<Self, SampleError> {
        if !scheme.is_intra_relationship() {
            return Err(SampleError::InvalidScheme(
                "training walks use intra-relationship schemes".to_string(),
            ));
        }
        scheme
            .validate(graph.schema())
            .map_err(|e| SampleError::InvalidScheme(e.to_string()))?;
        let relation = scheme.relations()[0];
        Ok(Self {
            graph,
            scheme,
            relation,
        })
    }

    /// The scheme driving this walker.
    pub fn scheme(&self) -> &MetapathScheme {
        &self.scheme
    }

    /// Generates a walk of at most `length` nodes starting at `start`,
    /// cycling through the scheme's node types. Returns a single-node walk
    /// if `start` has the wrong type.
    pub fn walk<R: Rng + ?Sized>(&self, start: NodeId, length: usize, rng: &mut R) -> Walk {
        let mut walk = Vec::with_capacity(length);
        walk.push(start);
        if self.graph.node_type(start) != self.scheme.source_type() {
            return walk;
        }
        let types = self.scheme.node_types();
        // Position in the cyclic scheme. The scheme ends on its source type
        // for symmetric paths; cycling restarts after the last hop.
        let mut pos = 0usize;
        let mut current = start;
        while walk.len() < length {
            let next_pos = if pos + 1 < types.len() { pos + 1 } else { 1 };
            let want = types[next_pos];
            let candidates: Vec<NodeId> = self.graph.with_neighbors(current, self.relation, |ns| {
                ns.iter()
                    .copied()
                    .filter(|&u| self.graph.node_type(u) == want)
                    .collect()
            });
            if candidates.is_empty() {
                break;
            }
            current = candidates[rng.gen_range(0..candidates.len())];
            walk.push(current);
            pos = next_pos;
        }
        walk
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhg_graph::{GraphBuilder, Schema};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// users u0,u1 — videos v0,v1; u0-v0, u0-v1 (like); u1-v0 (like);
    /// u1-v1 (comment).
    fn bipartite() -> MultiplexGraph {
        let mut schema = Schema::new();
        let user = schema.add_node_type("user");
        let video = schema.add_node_type("video");
        let like = schema.add_relation("like");
        let comment = schema.add_relation("comment");
        let mut b = GraphBuilder::new(schema);
        let u0 = b.add_node(user);
        let u1 = b.add_node(user);
        let v0 = b.add_node(video);
        let v1 = b.add_node(video);
        b.add_edge(u0, v0, like);
        b.add_edge(u0, v1, like);
        b.add_edge(u1, v0, like);
        b.add_edge(u1, v1, comment);
        b.build()
    }

    #[test]
    fn uniform_walk_stays_on_edges() {
        let g = bipartite();
        let w = UniformWalker::new(&g);
        let mut rng = StdRng::seed_from_u64(5);
        for start in g.nodes() {
            let walk = w.walk(start, 12, &mut rng);
            assert_eq!(walk[0], start);
            for pair in walk.windows(2) {
                assert!(g.has_any_edge(pair[0], pair[1]));
            }
        }
    }

    #[test]
    fn uniform_walk_on_isolated_node() {
        let mut schema = Schema::new();
        let t = schema.add_node_type("x");
        schema.add_relation("r");
        let mut b = GraphBuilder::new(schema);
        let n = b.add_node(t);
        let g = b.build();
        let w = UniformWalker::new(&g);
        let mut rng = StdRng::seed_from_u64(6);
        assert_eq!(w.walk(n, 10, &mut rng), vec![n]);
    }

    #[test]
    fn node2vec_walk_valid() {
        let g = bipartite();
        let w = Node2VecWalker::new(&g, 0.5, 2.0);
        let mut rng = StdRng::seed_from_u64(7);
        let walk = w.walk(NodeId(0), 15, &mut rng);
        assert!(walk.len() > 1);
        for pair in walk.windows(2) {
            assert!(g.has_any_edge(pair[0], pair[1]));
        }
    }

    #[test]
    fn node2vec_low_p_returns_more() {
        // With p → 0 the walker should revisit the previous node much more
        // often than with p → ∞.
        let g = bipartite();
        let mut revisits = [0usize; 2];
        for (i, p) in [(0usize, 0.05f32), (1usize, 20.0)] {
            let w = Node2VecWalker::new(&g, p, 1.0);
            let mut rng = StdRng::seed_from_u64(99);
            for _ in 0..300 {
                let walk = w.walk(NodeId(0), 8, &mut rng);
                for win in walk.windows(3) {
                    if win[0] == win[2] {
                        revisits[i] += 1;
                    }
                }
            }
        }
        assert!(
            revisits[0] > revisits[1],
            "low p should revisit more: {revisits:?}"
        );
    }

    #[test]
    fn metapath_walk_alternates_types() {
        let g = bipartite();
        let schema = g.schema();
        let user = schema.node_type_id("user").unwrap();
        let video = schema.node_type_id("video").unwrap();
        let like = schema.relation_id("like").unwrap();
        let scheme = MetapathScheme::intra(vec![user, video, user], like);
        let w = MetapathWalker::new(&g, scheme).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let walk = w.walk(NodeId(0), 9, &mut rng);
        assert!(walk.len() >= 3, "walk too short: {walk:?}");
        for (i, &v) in walk.iter().enumerate() {
            let expected = if i % 2 == 0 { user } else { video };
            assert_eq!(g.node_type(v), expected, "position {i}");
        }
        // All steps must stay under the like relation.
        for pair in walk.windows(2) {
            assert!(g.has_edge(pair[0], pair[1], like));
        }
    }

    #[test]
    fn metapath_walk_wrong_start_type() {
        let g = bipartite();
        let schema = g.schema();
        let user = schema.node_type_id("user").unwrap();
        let video = schema.node_type_id("video").unwrap();
        let like = schema.relation_id("like").unwrap();
        let scheme = MetapathScheme::intra(vec![user, video, user], like);
        let w = MetapathWalker::new(&g, scheme).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        // v0 is a video — walk must stop immediately.
        assert_eq!(w.walk(NodeId(2), 9, &mut rng), vec![NodeId(2)]);
    }

    #[test]
    fn metapath_walk_respects_relation() {
        // u1's only comment edge is to v1; under the like relation the walk
        // from u1 must never use the comment edge.
        let g = bipartite();
        let schema = g.schema();
        let user = schema.node_type_id("user").unwrap();
        let video = schema.node_type_id("video").unwrap();
        let like = schema.relation_id("like").unwrap();
        let scheme = MetapathScheme::intra(vec![user, video, user], like);
        let w = MetapathWalker::new(&g, scheme).unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..50 {
            let walk = w.walk(NodeId(1), 5, &mut rng);
            for pair in walk.windows(2) {
                assert!(g.has_edge(pair[0], pair[1], like));
            }
        }
    }
}
