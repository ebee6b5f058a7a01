//! Hybrid aggregation flows (paper §III-C, Eq. 3–5) and the hierarchical
//! attention (§III-D, Eq. 6–10) of a batch of centres, in two stages:
//!
//! 1. **Draws** ([`Draws::draw`]): every centre's neighbour sets, drawn
//!    from the caller's RNG before any tape node exists, into one flat id
//!    list with step and flow offsets.
//! 2. **Tape** ([`Draws::record`]): four batched nodes over the whole
//!    batch — the flow towers (Eqs. 3–4), metapath-level attention with its
//!    mean pool (Eqs. 6–7), relationship-level attention (Eq. 9) and the
//!    projection (Eq. 10). Recording never reads the graph.

use mhg_autograd::{Graph, ParamId, Towers, Var};
use mhg_graph::{GraphStore, MetapathScheme, NodeId, NodeTypeId};
use mhg_sampling::{InterRelationshipExplorer, MetapathNeighborSampler, UniformNeighborSampler};
use rand::rngs::StdRng;

use crate::config::HybridConfig;

/// Per-parent fan-out when sampling metapath-guided, uniform and
/// exploration neighbors.
const FAN_OUT: usize = 4;
/// Per-layer cap on sampled neighbor sets.
const MAX_LAYER: usize = 16;

/// The model's parameters.
pub(crate) struct Params {
    pub base: ParamId,
    pub ctx: ParamId,
    pub flow: ParamId,
    /// Per metapath shape (shared across relations; the attention layers
    /// provide relation-specific mixing).
    pub w_shape: Vec<ParamId>,
    pub w_rand: ParamId,
    pub w_self: ParamId,
    pub mq: ParamId,
    pub mk: ParamId,
    pub mv: ParamId,
    pub rq: ParamId,
    pub rk: ParamId,
    pub rv: ParamId,
    pub w_out: Vec<ParamId>,
}

/// The metapath shapes of a fit, prepared once: the draw stage's schemes
/// and the Fig. 4 labels.
pub(crate) struct FlowPlan {
    /// Table II shapes, source node type first.
    shapes: Vec<Vec<NodeTypeId>>,
    /// `schemes[r][s]`: shape `s` as an intra-relationship scheme of
    /// relation `r`.
    schemes: Vec<Vec<MetapathScheme>>,
    /// Each shape's label, like `"user-item-user"`.
    labels: Vec<String>,
}

impl FlowPlan {
    /// Builds every (relation, shape) scheme and every label.
    pub fn new<G: GraphStore>(graph: &G, shapes: &[Vec<NodeTypeId>]) -> Self {
        let schema = graph.schema();
        Self {
            shapes: shapes.to_vec(),
            schemes: schema
                .relations()
                .map(|r| {
                    shapes
                        .iter()
                        .map(|shape| MetapathScheme::intra(shape.clone(), r))
                        .collect()
                })
                .collect(),
            labels: shapes
                .iter()
                .map(|shape| {
                    shape
                        .iter()
                        .map(|&t| schema.node_type_name(t))
                        .collect::<Vec<_>>()
                        .join("-")
                })
                .collect(),
        }
    }

    /// Number of metapath shapes.
    pub fn num_shapes(&self) -> usize {
        self.shapes.len()
    }

    /// `schemes[r][s]`, for the training walks.
    pub fn schemes(&self) -> &[Vec<MetapathScheme>] {
        &self.schemes
    }

    /// A flow's Fig. 4 label.
    pub fn label(&self, flow: Flow) -> &str {
        match flow {
            Flow::Shape(s) => &self.labels[s],
            Flow::Random => "random",
            Flow::Own => "self",
        }
    }
}

/// Where a flow's layers came from.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Flow {
    /// The metapath-guided flow of a shape (Eq. 3), or its uniform stand-in
    /// when hybrid flows are ablated.
    Shape(usize),
    /// The randomized-exploration flow (Eq. 4).
    Random,
    /// The centre alone, when no other flow applies.
    Own,
}

/// One batch's neighbour sets, drawn before any tape node is recorded.
pub(crate) struct Draws {
    /// The batch's centres, in order.
    centres: Vec<u32>,
    /// Every flow's layers, root layer first, back to back.
    ids: Vec<u32>,
    /// One tower per flow over `ids`.
    towers: Towers,
    /// Centre `c`'s flows for relation `r` are towers
    /// `segments[c·L + r]..segments[c·L + r + 1]`.
    segments: Vec<usize>,
    /// Each tower's flow.
    flows: Vec<Flow>,
}

/// A batch's recorded forward pass.
pub(crate) struct Recorded {
    /// `e*` (Eq. 10): one row per pick.
    pub e: Var,
    /// The metapath-level node (Eqs. 6–7), one row per (centre, relation),
    /// which keeps the attention weights.
    pub h: Var,
    /// As [`Draws`]' fields of the same names.
    pub segments: Vec<usize>,
    pub flows: Vec<Flow>,
}

impl Draws {
    /// Draws every centre's flows, centre by centre, relation by relation:
    /// the metapath-guided (or, ablated, uniform) flow of each shape that
    /// starts at the centre's type, then the exploration flow. A flow with
    /// no layer beyond the centre is dropped; a relation left with none
    /// gets the centre's own flow.
    pub fn draw<G: GraphStore>(
        graph: &G,
        config: &HybridConfig,
        plan: &FlowPlan,
        p: &Params,
        centres: Vec<u32>,
        rng: &mut StdRng,
    ) -> Self {
        let metapath = MetapathNeighborSampler::new(graph, FAN_OUT, MAX_LAYER);
        let uniform = UniformNeighborSampler::new(graph, FAN_OUT, MAX_LAYER);
        let explorer = InterRelationshipExplorer::new(graph);
        let mut draws = Self {
            centres: Vec::new(),
            ids: Vec::new(),
            towers: Towers::new(),
            segments: vec![0],
            flows: Vec::new(),
        };
        for &c in &centres {
            let v = NodeId(c);
            let node_type = graph.node_type(v);
            for r in graph.schema().relations() {
                let first = draws.flows.len();
                for (s, shape) in plan.shapes.iter().enumerate() {
                    if shape[0] != node_type {
                        continue;
                    }
                    let layers = if config.use_hybrid_flows {
                        metapath.sample(v, &plan.schemes[r.index()][s], rng)
                    } else {
                        uniform.sample(v, shape.len() - 1, rng)
                    };
                    draws.push(&layers, p.w_shape[s], Flow::Shape(s));
                }
                if config.use_randomized_exploration {
                    let layers = explorer.layered_neighbors(
                        v,
                        config.exploration_depth,
                        FAN_OUT,
                        MAX_LAYER,
                        rng,
                    );
                    draws.push(&layers, p.w_rand, Flow::Random);
                }
                if draws.flows.len() == first {
                    draws.push_tower(&[vec![v]], p.w_self, Flow::Own);
                }
                draws.segments.push(draws.flows.len());
            }
        }
        draws.centres = centres;
        draws
    }

    /// Adds a flow, unless it has no layer beyond the centre.
    fn push(&mut self, layers: &[Vec<NodeId>], weight: ParamId, flow: Flow) {
        if layers.len() > 1 {
            self.push_tower(layers, weight, flow);
        }
    }

    fn push_tower(&mut self, layers: &[Vec<NodeId>], weight: ParamId, flow: Flow) {
        for layer in layers {
            self.ids.extend(layer.iter().map(|n| n.0));
            self.towers.end_step(self.ids.len());
        }
        self.towers.end_tower(weight);
        self.flows.push(flow);
    }

    /// Records the batch's forward pass: flows (Eqs. 3–5), metapath-level
    /// attention and mean (Eqs. 6–7; the plain mean when ablated),
    /// relationship-level attention (Eq. 9; skipped when ablated), and
    /// `e*_{v,r} = e_v + e_{v,r} · W_r` (Eq. 10) of the rows `picks`
    /// names, row `c·L + r` standing for centre `c` and relation `r`.
    pub fn record(
        self,
        g: &mut Graph<'_>,
        config: &HybridConfig,
        p: &Params,
        picks: Vec<u32>,
    ) -> Recorded {
        let num_rel = p.w_out.len();
        let flows = g.mean_towers(p.flow, self.ids, self.towers);
        let attention = config.use_metapath_attention.then_some([p.mq, p.mk, p.mv]);
        let h = g.segment_mean_rows(flows, self.segments.clone(), attention);
        let u = if config.use_relationship_attention {
            let per_centre = (0..=self.centres.len()).map(|c| c * num_rel).collect();
            g.segment_attention(h, per_centre, [p.rq, p.rk, p.rv])
        } else {
            h
        };
        let e = g.project_residual(u, p.base, self.centres, p.w_out.clone(), picks);
        Recorded {
            e,
            h,
            segments: self.segments,
            flows: self.flows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhg_autograd::ParamStore;
    use mhg_datasets::DatasetKind;
    use mhg_tensor::{InitKind, Tensor};
    use rand::SeedableRng;

    fn qkv(params: &mut ParamStore, d: usize, rng: &mut StdRng) -> [ParamId; 3] {
        ["wq", "wk", "wv"]
            .map(|name| params.register(name, InitKind::XavierUniform.init(d, d, rng)))
    }

    /// §III-F, case G₂: with a single relation the relationship-level
    /// softmax is 1×1 and its weight is identically 1 — the attention
    /// mechanism carries no information on such graphs.
    #[test]
    fn single_row_attention_weight_is_one() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut params = ParamStore::new();
        let w = qkv(&mut params, 3, &mut rng);
        let x = params.register("x", Tensor::from_rows(&[&[0.3, -0.7, 1.1]]));
        let mut g = Graph::new(&params);
        let xv = g.param(x);
        let out = g.segment_attention(xv, vec![0, 1], w);
        assert_eq!(g.attention_weights(out, 0), Some(&[1.0][..]));
    }

    #[test]
    fn attention_rows_are_distributions() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut params = ParamStore::new();
        let w = qkv(&mut params, 3, &mut rng);
        let x = params.register("x", InitKind::Uniform { limit: 1.0 }.init(6, 3, &mut rng));
        let mut g = Graph::new(&params);
        let xv = g.param(x);
        let out = g.segment_mean_rows(xv, vec![0, 4, 6], Some(w));
        assert_eq!(g.value(out).rows(), 2);
        for (segment, n) in [(0, 4), (1, 2)] {
            let a = g
                .attention_weights(out, segment)
                .expect("an attending node");
            assert_eq!(a.len(), n * n);
            for row in a.chunks_exact(n) {
                assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-5);
            }
        }
        assert_eq!(g.attention_weights(out, 2), None);
        assert_eq!(g.attention_weights(xv, 0), None);
    }

    #[test]
    fn draws_give_every_centre_one_segment_per_relation() {
        let dataset = DatasetKind::Taobao.generate(0.004, 3);
        let graph = &dataset.graph;
        let mut rng = StdRng::seed_from_u64(5);
        let plan = FlowPlan::new(graph, &dataset.metapath_shapes);
        let mut params = ParamStore::new();
        let mut weight = |name: &str| params.register(name, Tensor::zeros(8, 8));
        let p = Params {
            base: weight("base"),
            ctx: weight("ctx"),
            flow: weight("flow"),
            w_shape: (0..plan.num_shapes())
                .map(|s| weight(&format!("w{s}")))
                .collect(),
            w_rand: weight("w_rand"),
            w_self: weight("w_self"),
            mq: weight("mq"),
            mk: weight("mk"),
            mv: weight("mv"),
            rq: weight("rq"),
            rk: weight("rk"),
            rv: weight("rv"),
            w_out: vec![weight("w_out")],
        };
        let centres: Vec<u32> = graph.node_id_range().take(40).collect();
        let config = HybridConfig::fast();
        let draws = Draws::draw(graph, &config, &plan, &p, centres.clone(), &mut rng);
        let num_rel = graph.schema().num_relations();
        assert_eq!(draws.segments.len(), centres.len() * num_rel + 1);
        assert_eq!(draws.flows.len(), draws.towers.len());
        for (s, seg) in draws.segments.windows(2).enumerate() {
            assert!(seg[0] < seg[1], "segment {s} has no flow");
            for t in seg[0]..seg[1] {
                // Every flow's root step is its centre alone.
                let root = draws.towers.tower_offsets[t];
                let at = draws.towers.step_offsets[root];
                assert_eq!(draws.towers.step_offsets[root + 1], at + 1);
                assert_eq!(draws.ids[at], centres[s / num_rel]);
                let own = matches!(draws.flows[t], Flow::Own);
                let steps = draws.towers.tower_offsets[t + 1] - root;
                assert_eq!(own, steps == 1, "flow {t}: {:?}", draws.flows[t]);
            }
        }
    }
}
