//! Shared tape-building helpers for the GNN baselines: sampled neighbor
//! aggregation expressed on the autograd graph.

use mhg_autograd::{Graph, ParamId, Var};
use mhg_graph::{MultiplexGraph, NodeId, RelationId};
use rand::Rng;

/// Samples up to `fan_out` neighbors of `v` merged across all relations,
/// passing each to `emit` in draw order.
pub(crate) fn sample_merged_neighbors<R: Rng + ?Sized>(
    graph: &MultiplexGraph,
    v: NodeId,
    fan_out: usize,
    rng: &mut R,
    mut emit: impl FnMut(NodeId),
) {
    let total = graph.total_degree(v);
    if total == 0 {
        return;
    }
    for _ in 0..fan_out {
        let mut pick = rng.gen_range(0..total);
        for r in graph.schema().relations() {
            let d = graph.degree(v, r);
            if pick < d {
                emit(graph.neighbors(v, r)[pick]);
                break;
            }
            pick -= d;
        }
    }
}

/// Appends up to `fan_out` sampled neighbors of `v` under a single relation
/// to `out`.
fn sample_relation_neighbors<R: Rng + ?Sized>(
    graph: &MultiplexGraph,
    v: NodeId,
    r: RelationId,
    fan_out: usize,
    rng: &mut R,
    out: &mut Vec<u32>,
) {
    let ns = graph.neighbors(v, r);
    if ns.is_empty() {
        return;
    }
    out.extend((0..fan_out.min(ns.len())).map(|_| ns[rng.gen_range(0..ns.len())].0));
}

/// Builds an `n × d` variable whose row `i` is the mean embedding of
/// `{nodes[i]} ∪ sampled-neighbors(nodes[i])` (GCN-style aggregation with
/// self-inclusion). Neighbors are merged across relations. Records one tape
/// node.
pub(crate) fn mean_self_neighbors<R: Rng + ?Sized>(
    g: &mut Graph<'_>,
    emb: ParamId,
    graph: &MultiplexGraph,
    nodes: &[NodeId],
    fan_out: usize,
    rng: &mut R,
) -> Var {
    segment_mean(g, emb, nodes, |v, ids| {
        ids.push(v.0);
        sample_merged_neighbors(graph, v, fan_out, rng, |n| ids.push(n.0));
    })
}

/// Builds an `n × d` variable whose row `i` is the mean embedding of
/// sampled neighbors of `nodes[i]` under relation `r` (zero row when the
/// node is isolated under `r`). Records one tape node.
pub(crate) fn mean_relation_neighbors<R: Rng + ?Sized>(
    g: &mut Graph<'_>,
    emb: ParamId,
    graph: &MultiplexGraph,
    nodes: &[NodeId],
    r: RelationId,
    fan_out: usize,
    rng: &mut R,
) -> Var {
    segment_mean(g, emb, nodes, |v, ids| {
        sample_relation_neighbors(graph, v, r, fan_out, rng, ids);
    })
}

/// One [`Graph::gather_segment_mean`] node over the segments `sample`
/// appends for each of `nodes` in turn; an empty segment yields its node's
/// row times zero.
fn segment_mean(
    g: &mut Graph<'_>,
    emb: ParamId,
    nodes: &[NodeId],
    mut sample: impl FnMut(NodeId, &mut Vec<u32>),
) -> Var {
    let mut ids = Vec::new();
    let mut offsets = Vec::with_capacity(nodes.len() + 1);
    offsets.push(0);
    for &v in nodes {
        sample(v, &mut ids);
        offsets.push(ids.len());
    }
    let centers = nodes.iter().map(|n| n.0).collect();
    g.gather_segment_mean(emb, ids, offsets, centers)
}

/// Gathers the raw embedding rows of `nodes`.
pub(crate) fn gather_nodes(g: &mut Graph<'_>, emb: ParamId, nodes: &[NodeId]) -> Var {
    let ids: Vec<u32> = nodes.iter().map(|n| n.0).collect();
    g.gather(emb, &ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhg_autograd::ParamStore;
    use mhg_graph::{GraphBuilder, Schema};
    use mhg_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn path_graph() -> MultiplexGraph {
        let mut schema = Schema::new();
        let t = schema.add_node_type("x");
        let r = schema.add_relation("r");
        let mut b = GraphBuilder::new(schema);
        let ids: Vec<_> = (0..4).map(|_| b.add_node(t)).collect();
        b.add_edge(ids[0], ids[1], r);
        b.add_edge(ids[1], ids[2], r);
        b.add_edge(ids[2], ids[3], r);
        b.build()
    }

    #[test]
    fn mean_self_neighbors_shapes_and_values() {
        let graph = path_graph();
        let mut params = ParamStore::new();
        // Embedding: node i has constant row i.
        let emb = params.register(
            "emb",
            Tensor::from_rows(&[&[0.0, 0.0], &[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]),
        );
        let mut g = Graph::new(&params);
        let mut rng = StdRng::seed_from_u64(1);
        let rep = mean_self_neighbors(&mut g, emb, &graph, &[NodeId(0), NodeId(3)], 4, &mut rng);
        let t = g.value(rep);
        assert_eq!(t.rows(), 2);
        // Node 0's only neighbor is 1 → mean of rows {0, 1, 1, ...} ∈ (0, 1].
        assert!(t[(0, 0)] > 0.0 && t[(0, 0)] <= 1.0);
        // Node 3's only neighbor is 2 → mean of {3, 2, ...} ∈ [2, 3).
        assert!(t[(1, 0)] >= 2.0 && t[(1, 0)] < 3.0);
    }

    #[test]
    fn isolated_node_gets_zero_relation_row() {
        let mut schema = Schema::new();
        let t = schema.add_node_type("x");
        let r = schema.add_relation("r");
        let mut b = GraphBuilder::new(schema);
        let a = b.add_node(t);
        let c = b.add_node(t);
        let iso = b.add_node(t);
        b.add_edge(a, c, r);
        let graph = b.build();

        let mut params = ParamStore::new();
        let emb = params.register("emb", Tensor::full(3, 2, 5.0));
        let mut g = Graph::new(&params);
        let mut rng = StdRng::seed_from_u64(2);
        let rep = mean_relation_neighbors(
            &mut g,
            emb,
            &graph,
            &[iso, a],
            mhg_graph::RelationId(0),
            3,
            &mut rng,
        );
        let t = g.value(rep);
        assert_eq!(t.row(0), &[0.0, 0.0]);
        assert_eq!(t.row(1), &[5.0, 5.0]);
    }

    #[test]
    fn merged_sampling_covers_relations() {
        let mut schema = Schema::new();
        let t = schema.add_node_type("x");
        let r0 = schema.add_relation("a");
        let r1 = schema.add_relation("b");
        let mut b = GraphBuilder::new(schema);
        let center = b.add_node(t);
        let via_a = b.add_node(t);
        let via_b = b.add_node(t);
        b.add_edge(center, via_a, r0);
        b.add_edge(center, via_b, r1);
        let graph = b.build();
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..60 {
            sample_merged_neighbors(&graph, center, 2, &mut rng, |n| {
                seen.insert(n.0);
            });
        }
        assert!(seen.contains(&1) && seen.contains(&2));
    }
}
