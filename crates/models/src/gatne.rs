//! GATNE baseline (Cen et al., KDD 2019) — transductive GATNE-T.
//!
//! Each node has a shared *base embedding* plus one *edge embedding* per
//! relation. A node's relation-specific representation aggregates its
//! neighbors' edge embeddings under every relation, combines them with
//! relation-specific self-attention, projects into the base space and adds
//! the base embedding:
//!
//! `m_{v,r} = b_v + (aᵣ-weighted Σ_s agg_s(v)) · M_r`
//!
//! Training follows the original recipe: relation-restricted random walks →
//! heterogeneous skip-gram with negative sampling, scored against a context
//! table. This is the strongest published baseline and the runner-up in
//! every table of the paper.

use mhg_autograd::{Adam, Graph, Optimizer, ParamId, ParamStore, Var};
use mhg_datasets::LabeledEdge;
use mhg_graph::{MultiplexGraph, NodeId, RelationId};
use mhg_sampling::{pairs_from_walk, NegativeSampler, Pair};
use mhg_tensor::{InitKind, Tensor};
use mhg_train::{pair_batches, BatchLoss, PairExample, TrainStep};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::common::{
    CommonConfig, EmbeddingScores, FitData, LinkPredictor, TrainError, TrainReport,
};

const NEIGHBOR_FAN: usize = 6;
const BATCH: usize = 64;

/// The GATNE-T baseline.
pub struct Gatne {
    config: CommonConfig,
    scores: EmbeddingScores,
}

pub(crate) struct GatneParams {
    pub base: ParamId,
    pub ctx: ParamId,
    /// Per relation: edge-embedding table (`N × d_e`).
    pub edge: Vec<ParamId>,
    /// Per relation: attention projection (`d_e × d_a`) and vector (`d_a × 1`).
    pub att_w: Vec<ParamId>,
    pub att_v: Vec<ParamId>,
    /// Per relation: output projection (`d_e × d`).
    pub proj: Vec<ParamId>,
}

/// Uniform random walk restricted to one relation-specific subgraph `g_r`.
pub(crate) fn walk_in_relation<R: Rng + ?Sized>(
    graph: &MultiplexGraph,
    r: RelationId,
    start: NodeId,
    length: usize,
    rng: &mut R,
) -> Vec<NodeId> {
    let mut walk = Vec::with_capacity(length);
    walk.push(start);
    let mut current = start;
    while walk.len() < length {
        let ns = graph.neighbors(current, r);
        if ns.is_empty() {
            break;
        }
        current = ns[rng.gen_range(0..ns.len())];
        walk.push(current);
    }
    walk
}

impl Gatne {
    /// Creates an untrained model.
    pub fn new(config: CommonConfig) -> Self {
        Self {
            config,
            scores: EmbeddingScores::default(),
        }
    }

    /// Registers all parameters.
    fn init_params(
        graph: &MultiplexGraph,
        dim: usize,
        edge_dim: usize,
        rng: &mut StdRng,
    ) -> (ParamStore, GatneParams) {
        let n = graph.num_nodes();
        let num_rel = graph.schema().num_relations();
        let da = edge_dim.max(4);
        let mut params = ParamStore::new();
        let p = GatneParams {
            base: params.register(
                "base",
                InitKind::Uniform {
                    limit: 0.5 / dim as f32,
                }
                .init(n, dim, rng),
            ),
            ctx: params.register("ctx", Tensor::zeros(n, dim)),
            edge: (0..num_rel)
                .map(|i| {
                    params.register(
                        format!("edge_r{i}"),
                        InitKind::Uniform {
                            limit: 0.5 / edge_dim as f32,
                        }
                        .init(n, edge_dim, rng),
                    )
                })
                .collect(),
            att_w: (0..num_rel)
                .map(|i| {
                    params.register(
                        format!("att_w_r{i}"),
                        InitKind::XavierUniform.init(edge_dim, da, rng),
                    )
                })
                .collect(),
            att_v: (0..num_rel)
                .map(|i| {
                    params.register(
                        format!("att_v_r{i}"),
                        InitKind::XavierUniform.init(da, 1, rng),
                    )
                })
                .collect(),
            proj: (0..num_rel)
                .map(|i| {
                    params.register(
                        format!("proj_r{i}"),
                        InitKind::XavierUniform.init(edge_dim, dim, rng),
                    )
                })
                .collect(),
        };
        (params, p)
    }

    /// Relation-specific representation of `v` under `r` on the tape.
    pub(crate) fn represent_node(
        g: &mut Graph<'_>,
        p: &GatneParams,
        graph: &MultiplexGraph,
        v: NodeId,
        r: RelationId,
        rng: &mut StdRng,
    ) -> Var {
        // One aggregated edge embedding per relation s.
        let rows: Vec<Var> = graph
            .schema()
            .relations()
            .map(|s| {
                let ns = graph.neighbors(v, s);
                let ids: Vec<u32> = if ns.is_empty() {
                    vec![v.0]
                } else {
                    (0..NEIGHBOR_FAN.min(ns.len()))
                        .map(|_| ns[rng.gen_range(0..ns.len())].0)
                        .collect()
                };
                let gathered = g.gather(p.edge[s.index()], &ids);
                g.mean_rows(gathered)
            })
            .collect();
        let u_stack = g.concat_rows(&rows); // L×d_e

        // Relation-r attention over the stacked relations.
        let w = g.param(p.att_w[r.index()]);
        let vq = g.param(p.att_v[r.index()]);
        let t = {
            let lin = g.matmul(u_stack, w);
            g.tanh(lin)
        };
        let scores = g.matmul(t, vq); // L×1
        let row = g.transpose(scores);
        let attn = g.softmax_rows(row); // 1×L
        let pooled = g.matmul(attn, u_stack); // 1×d_e

        let m = g.param(p.proj[r.index()]);
        let projected = g.matmul(pooled, m); // 1×d
        let base = g.gather(p.base, &[v.0]);
        g.add(base, projected)
    }

    /// Batched representations of `(node, relation)` pairs.
    fn represent_batch(
        g: &mut Graph<'_>,
        p: &GatneParams,
        graph: &MultiplexGraph,
        items: &[(NodeId, RelationId)],
        rng: &mut StdRng,
    ) -> Var {
        let rows: Vec<Var> = items
            .iter()
            .map(|&(v, r)| Self::represent_node(g, p, graph, v, r, rng))
            .collect();
        g.concat_rows(&rows)
    }

    /// Per-relation full inference tables.
    fn full_inference(
        params: &ParamStore,
        p: &GatneParams,
        graph: &MultiplexGraph,
        rng: &mut StdRng,
    ) -> Vec<Tensor> {
        let dim = params.value(p.base).cols();
        let nodes: Vec<NodeId> = graph.nodes().collect();
        graph
            .schema()
            .relations()
            .map(|r| {
                let mut table = Tensor::zeros(nodes.len(), dim);
                for (ci, chunk) in nodes.chunks(BATCH).enumerate() {
                    let items: Vec<(NodeId, RelationId)> = chunk.iter().map(|&v| (v, r)).collect();
                    let mut g = Graph::new(params);
                    let rep = Self::represent_batch(&mut g, p, graph, &items, rng);
                    for (i, row) in g.value(rep).rows_iter().enumerate() {
                        table.set_row(ci * BATCH + i, row);
                    }
                }
                table
            })
            .collect()
    }
}

/// The `TrainStep` for GATNE: relation-specific center representations
/// scored against the context table, evaluated as per-relation tables.
struct GatneStep<'a> {
    params: ParamStore,
    p: GatneParams,
    graph: &'a MultiplexGraph,
    opt: Adam,
    val: &'a [LabeledEdge],
}

impl TrainStep for GatneStep<'_> {
    type Batch = Vec<PairExample>;
    type Artefact = EmbeddingScores;

    fn step(&mut self, batch: Vec<PairExample>, rng: &mut StdRng) -> BatchLoss {
        let mut centers = Vec::with_capacity(batch.len());
        let mut targets: Vec<u32> = Vec::new();
        let mut labels: Vec<f32> = Vec::new();
        // How many rows (1 positive + negatives) reuse each center.
        let mut row_counts = Vec::with_capacity(batch.len());
        for ex in &batch {
            centers.push((ex.center, ex.relation));
            targets.push(ex.context.0);
            labels.push(1.0);
            for &neg in &ex.negatives {
                targets.push(neg.0);
                labels.push(-1.0);
            }
            row_counts.push(1 + ex.negatives.len());
        }
        let mut g = Graph::new(&self.params);
        // Each center representation is computed once and its tape row
        // reused for the positive and all its negatives.
        let center_reps = Gatne::represent_batch(&mut g, &self.p, self.graph, &centers, rng);
        let mut expanded_rows = Vec::with_capacity(targets.len());
        for (ci, &count) in row_counts.iter().enumerate() {
            for _ in 0..count {
                expanded_rows.push(g.slice_rows(center_reps, ci, ci + 1));
            }
        }
        let left = g.concat_rows(&expanded_rows);
        let right = g.gather(self.p.ctx, &targets);
        let scores = g.row_dot(left, right);
        let loss = g.logistic_loss(scores, &labels);
        let loss_sum = g.scalar(loss) as f64;
        let grads = g.backward(loss);
        self.opt.step(&mut self.params, &grads);
        BatchLoss { loss_sum, denom: 1 }
    }

    fn eval(&mut self, rng: &mut StdRng) -> (f64, EmbeddingScores) {
        let tables = Gatne::full_inference(&self.params, &self.p, self.graph, rng);
        let scores = EmbeddingScores::per_relation(tables)
            .with_context(self.params.value(self.p.ctx).clone());
        (crate::common::val_auc(&scores, self.val), scores)
    }

    fn export_state(&self, dict: &mut mhg_ckpt::StateDict) {
        self.params.export_state("model/params", dict);
        self.opt.export_state("model/opt", dict);
    }

    fn import_state(&mut self, dict: &mhg_ckpt::StateDict) -> Result<(), mhg_ckpt::CkptError> {
        self.params.import_state("model/params", dict)?;
        self.opt.import_state("model/opt", dict)
    }
}

impl LinkPredictor for Gatne {
    fn name(&self) -> &'static str {
        "GATNE"
    }

    fn fit(&mut self, data: &FitData<'_>, rng: &mut StdRng) -> Result<TrainReport, TrainError> {
        let graph = data.graph;
        let cfg = &self.config;
        let (params, p) = Self::init_params(graph, cfg.dim, cfg.edge_dim, rng);
        let negatives = NegativeSampler::new(graph);

        let pair_budget = crate::common::pair_budget(graph.num_edges());

        // Generate relation-tagged skip-gram pairs from walks in g_r.
        let sample = |_epoch: usize, rng: &mut StdRng| {
            let mut tagged: Vec<(Pair, RelationId)> = Vec::new();
            for r in graph.schema().relations() {
                for start in graph.nodes() {
                    if graph.degree(start, r) == 0 {
                        continue;
                    }
                    for _ in 0..cfg.walks_per_node.min(4) {
                        let walk = walk_in_relation(graph, r, start, cfg.walk_length, rng);
                        for pair in pairs_from_walk(&walk, cfg.window) {
                            tagged.push((pair, r));
                        }
                    }
                }
            }
            tagged.shuffle(rng);
            tagged.truncate(pair_budget);
            Ok(pair_batches(
                graph,
                &negatives,
                tagged,
                cfg.negatives,
                BATCH,
                rng,
            ))
        };

        let mut step = GatneStep {
            params,
            p,
            graph,
            opt: Adam::new(cfg.lr.min(0.01)),
            val: data.val,
        };
        let (report, scores) = mhg_train::train(&cfg.train_options(), sample, &mut step, rng)?;
        self.scores = scores;
        Ok(report)
    }

    fn score(&self, u: NodeId, v: NodeId, r: RelationId) -> f32 {
        self.scores.score(u, v, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::evaluate;
    use mhg_datasets::{DatasetKind, EdgeSplit};
    use rand::SeedableRng;

    #[test]
    fn relation_walks_stay_in_subgraph() {
        let dataset = DatasetKind::Taobao.generate(0.004, 22);
        let g = &dataset.graph;
        let mut rng = StdRng::seed_from_u64(23);
        for r in g.schema().relations() {
            let Some(start) = g.nodes().find(|&v| g.degree(v, r) > 0) else {
                continue;
            };
            let walk = walk_in_relation(g, r, start, 8, &mut rng);
            for pair in walk.windows(2) {
                assert!(g.has_edge(pair[0], pair[1], r));
            }
        }
    }

    #[test]
    fn beats_random_on_multiplex_graph() {
        let dataset = DatasetKind::Amazon.generate(0.008, 24);
        let mut rng = StdRng::seed_from_u64(25);
        let split = EdgeSplit::default_split(&dataset.graph, &mut rng);
        let mut cfg = CommonConfig::fast();
        cfg.epochs = 4;
        let mut model = Gatne::new(cfg);
        let data = FitData {
            graph: &split.train_graph,
            metapath_shapes: &dataset.metapath_shapes,
            val: &split.val,
        };
        model.fit(&data, &mut rng).expect("fit must succeed");
        let metrics = evaluate(&model, &split.test);
        assert!(
            metrics.roc_auc > 0.55,
            "GATNE failed to learn: auc {}",
            metrics.roc_auc
        );
    }
}
