//! The HybridGNN model (paper §III): randomized inter-relationship
//! exploration + hybrid aggregation flows + hierarchical attention, trained
//! with the heterogeneous skip-gram objective over metapath-based walks.

use std::collections::{BTreeMap, HashMap};

use mhg_autograd::{Adam, Graph, Optimizer, ParamId, ParamStore, Var};
use mhg_ckpt::frame::{Reader, Writer};
use mhg_ckpt::{CkptError, StateDict};
use mhg_datasets::LabeledEdge;
use mhg_graph::{GraphStore, MetapathScheme, NodeId, NodeTypeId, RelationId};
use mhg_models::{EmbeddingScores, FitData, LinkPredictor, TrainError, TrainReport};
use mhg_sampling::{
    derive_seed, pairs_from_walk, sharded_over_obs, InterRelationshipExplorer,
    MetapathNeighborSampler, MetapathWalker, NegativeSampler, Pair, UniformNeighborSampler,
};
use mhg_tensor::{InitKind, Tensor};
use mhg_train::{pair_batches, Artefact, BatchLoss, PairExample, TrainStep};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::config::HybridConfig;
use crate::flows::{flow_embedding, self_attention};

const BATCH: usize = 48;
/// Per-parent fan-out when sampling metapath-guided, uniform and
/// exploration neighbors.
const FAN_OUT: usize = 4;
/// Per-layer cap on sampled neighbor sets.
const MAX_LAYER: usize = 16;

/// Averaged metapath-level attention mass per flow, per relation — the data
/// behind the paper's Fig. 4.
pub type AttentionProfile = Vec<Vec<(String, f64)>>;

/// The HybridGNN link predictor.
pub struct HybridGnn {
    config: HybridConfig,
    scores: EmbeddingScores,
    attention: AttentionProfile,
}

struct Params {
    base: ParamId,
    ctx: ParamId,
    flow: ParamId,
    /// Per metapath shape (shared across relations; the attention layers
    /// provide relation-specific mixing).
    w_shape: Vec<ParamId>,
    w_rand: ParamId,
    w_self: ParamId,
    mq: ParamId,
    mk: ParamId,
    mv: ParamId,
    rq: ParamId,
    rk: ParamId,
    rv: ParamId,
    w_out: Vec<ParamId>,
}

/// Static per-fit context shared by forward passes.
struct ForwardCtx<'a, G: GraphStore> {
    graph: &'a G,
    config: &'a HybridConfig,
    /// Table II shapes with human-readable labels.
    shapes: &'a [(Vec<NodeTypeId>, String)],
}

impl HybridGnn {
    /// Creates an untrained model.
    pub fn new(config: HybridConfig) -> Self {
        Self {
            config,
            scores: EmbeddingScores::default(),
            attention: Vec::new(),
        }
    }

    /// The model's configuration.
    pub fn config(&self) -> &HybridConfig {
        &self.config
    }

    /// The averaged metapath-level attention scores per relation observed
    /// during the final inference pass (Fig. 4). Empty before `fit`, or if
    /// metapath-level attention is ablated away.
    pub fn attention_profile(&self) -> &AttentionProfile {
        &self.attention
    }

    /// The final per-relation embedding of `v` (after `fit`).
    pub fn embedding(&self, v: NodeId, r: RelationId) -> &[f32] {
        self.scores.embedding(v, r)
    }

    fn init_params<G: GraphStore>(
        graph: &G,
        config: &HybridConfig,
        num_shapes: usize,
        rng: &mut StdRng,
    ) -> (ParamStore, Params) {
        let n = graph.num_nodes();
        let d_m = config.common.dim;
        let d_h = config.common.edge_dim;
        let num_rel = graph.schema().num_relations();
        let mut params = ParamStore::new();
        let p = Params {
            base: params.register(
                "base",
                InitKind::Uniform {
                    limit: 0.5 / d_m as f32,
                }
                .init(n, d_m, rng),
            ),
            ctx: params.register("ctx", Tensor::zeros(n, d_m)),
            flow: params.register(
                "flow",
                InitKind::Uniform {
                    limit: 0.5 / d_h as f32,
                }
                .init(n, d_h, rng),
            ),
            w_shape: (0..num_shapes)
                .map(|i| {
                    params.register(
                        format!("w_shape{i}"),
                        InitKind::XavierUniform.init(d_h, d_h, rng),
                    )
                })
                .collect(),
            w_rand: params.register("w_rand", InitKind::XavierUniform.init(d_h, d_h, rng)),
            w_self: params.register("w_self", InitKind::XavierUniform.init(d_h, d_h, rng)),
            mq: params.register("mq", InitKind::XavierUniform.init(d_h, d_h, rng)),
            mk: params.register("mk", InitKind::XavierUniform.init(d_h, d_h, rng)),
            mv: params.register("mv", InitKind::XavierUniform.init(d_h, d_h, rng)),
            rq: params.register("rq", InitKind::XavierUniform.init(d_h, d_h, rng)),
            rk: params.register("rk", InitKind::XavierUniform.init(d_h, d_h, rng)),
            rv: params.register("rv", InitKind::XavierUniform.init(d_h, d_h, rng)),
            w_out: (0..num_rel)
                .map(|i| {
                    params.register(
                        format!("w_out_r{i}"),
                        InitKind::XavierUniform.init(d_h, d_m, rng),
                    )
                })
                .collect(),
        };
        (params, p)
    }

    /// Forward pass for one node: returns `e*_{v,r}` for every relation
    /// (each a `1 × d_m` variable), plus per-relation `(label, mass)`
    /// attention observations when metapath attention is active.
    #[allow(clippy::type_complexity)]
    fn forward_node<G: GraphStore>(
        g: &mut Graph<'_>,
        p: &Params,
        ctx: &ForwardCtx<'_, G>,
        v: NodeId,
        rng: &mut StdRng,
        collect_attention: bool,
    ) -> (Vec<Var>, Vec<Vec<(String, f64)>>) {
        let cfg = ctx.config;
        let graph = ctx.graph;
        let metapath_sampler = MetapathNeighborSampler::new(graph, FAN_OUT, MAX_LAYER);
        let uniform_sampler = UniformNeighborSampler::new(graph, FAN_OUT, MAX_LAYER);
        let explorer = InterRelationshipExplorer::new(graph);

        let mut rel_rows: Vec<Var> = Vec::with_capacity(graph.schema().num_relations());
        let mut attn_obs: Vec<Vec<(String, f64)>> = Vec::new();

        for r in graph.schema().relations() {
            let mut rows: Vec<Var> = Vec::new();
            let mut labels: Vec<String> = Vec::new();

            for (si, (shape, label)) in ctx.shapes.iter().enumerate() {
                if shape[0] != graph.node_type(v) {
                    continue;
                }
                let layers = if cfg.use_hybrid_flows {
                    // Intra-relationship metapath-guided flow (Eq. 3).
                    let scheme = MetapathScheme::intra(shape.clone(), r);
                    metapath_sampler.sample(v, &scheme, rng)
                } else {
                    // Ablation: random-neighbor aggregation of the same
                    // depth replaces the metapath guidance.
                    uniform_sampler.sample(v, shape.len() - 1, rng)
                };
                if layers.len() <= 1 {
                    continue;
                }
                rows.push(flow_embedding(g, p.flow, p.w_shape[si], &layers));
                labels.push(label.clone());
            }

            if cfg.use_randomized_exploration {
                let layers =
                    explorer.layered_neighbors(v, cfg.exploration_depth, FAN_OUT, MAX_LAYER, rng);
                if layers.len() > 1 {
                    rows.push(flow_embedding(g, p.flow, p.w_rand, &layers));
                    labels.push("random".to_string());
                }
            }

            if rows.is_empty() {
                // Isolated node or no applicable scheme: self flow.
                let layers = vec![vec![v]];
                rows.push(flow_embedding(g, p.flow, p.w_self, &layers));
                labels.push("self".to_string());
            }

            let h = g.concat_rows(&rows); // F×d_h  (Eq. 5)
            let pooled = if cfg.use_metapath_attention {
                let (h_hat, attn) = self_attention(g, h, p.mq, p.mk, p.mv); // Eq. 6
                if collect_attention {
                    // Mean attention mass received per flow (column means).
                    let a = g.value(attn);
                    let mut obs = Vec::with_capacity(labels.len());
                    for (c, label) in labels.iter().enumerate() {
                        let mass: f32 =
                            (0..a.rows()).map(|rr| a[(rr, c)]).sum::<f32>() / a.rows() as f32;
                        obs.push((label.clone(), mass as f64));
                    }
                    attn_obs.push(obs);
                }
                g.mean_rows(h_hat) // Eq. 7
            } else {
                if collect_attention {
                    attn_obs.push(Vec::new());
                }
                g.mean_rows(h)
            };
            rel_rows.push(pooled);
        }

        let u = g.concat_rows(&rel_rows); // L×d_k  (Eq. 8)
        let u_hat = if cfg.use_relationship_attention {
            self_attention(g, u, p.rq, p.rk, p.rv).0 // Eq. 9
        } else {
            u
        };

        let base = g.gather(p.base, &[v.0]);
        let e_stars = graph
            .schema()
            .relations()
            .map(|r| {
                // Eq. 10: e*_{v,r} = e_v + e_{v,r} · W_r
                let row = g.slice_rows(u_hat, r.index(), r.index() + 1);
                let w = g.param(p.w_out[r.index()]);
                let proj = g.matmul(row, w);
                g.add(base, proj)
            })
            .collect();
        (e_stars, attn_obs)
    }

    /// Full-graph inference: per-relation embedding tables, plus the
    /// averaged attention profile.
    fn full_inference<G: GraphStore>(
        params: &ParamStore,
        p: &Params,
        ctx: &ForwardCtx<'_, G>,
        rng: &mut StdRng,
    ) -> (Vec<Tensor>, AttentionProfile) {
        let graph = ctx.graph;
        let d_m = ctx.config.common.dim;
        let num_rel = graph.schema().num_relations();
        let mut tables = vec![Tensor::zeros(graph.num_nodes(), d_m); num_rel];
        // label → (mass sum, count), per relation.
        let mut acc: Vec<BTreeMap<String, (f64, usize)>> = vec![BTreeMap::new(); num_rel];

        let nodes: Vec<NodeId> = graph.node_id_range().map(NodeId).collect();
        for chunk in nodes.chunks(BATCH) {
            let mut g = Graph::new(params);
            for &v in chunk {
                let (e_stars, attn) = Self::forward_node(&mut g, p, ctx, v, rng, true);
                for (ri, e) in e_stars.iter().enumerate() {
                    tables[ri].set_row(v.index(), g.value(*e).row(0));
                }
                for (ri, obs) in attn.iter().enumerate() {
                    for (label, mass) in obs {
                        let entry = acc[ri].entry(label.clone()).or_insert((0.0, 0));
                        entry.0 += mass;
                        entry.1 += 1;
                    }
                }
            }
        }

        let attention = acc
            .into_iter()
            .map(|m| {
                // BTreeMap iterates label-sorted, so the profile rows come
                // out in the same order the old explicit sort produced.
                let rows: Vec<(String, f64)> = m
                    .into_iter()
                    .map(|(label, (sum, count))| (label, sum / count.max(1) as f64))
                    .collect();
                rows
            })
            .collect();
        (tables, attention)
    }
}

/// HybridGNN's best snapshot: the scores and the attention profile of one
/// inference pass.
struct HybridArtefact {
    scores: EmbeddingScores,
    attention: AttentionProfile,
}

/// The shared `model/scores` encoding plus the profile under
/// `model/attention` (empty when there is no artefact yet).
impl Artefact for HybridArtefact {
    fn export_state(best: Option<&Self>, dict: &mut StateDict) {
        EmbeddingScores::export_state(best.map(|b| &b.scores), dict);
        let attention = best.map_or(&[][..], |b| b.attention.as_slice());
        dict.put_bytes("model/attention", encode_attention(attention));
    }

    fn import_state(dict: &StateDict) -> Result<Option<Self>, CkptError> {
        let scores = EmbeddingScores::import_state(dict)?;
        let attention = decode_attention(dict.bytes("model/attention")?)?;
        Ok(scores.map(|scores| Self { scores, attention }))
    }
}

/// The `TrainStep` for HybridGNN: hybrid-flow forward per pair batch with a
/// per-center tape cache, a (scores, attention) artefact per validation
/// pass.
struct HybridStep<'a, G: GraphStore> {
    params: ParamStore,
    p: Params,
    graph: &'a G,
    config: HybridConfig,
    shapes: Vec<(Vec<NodeTypeId>, String)>,
    opt: Adam,
    val: &'a [LabeledEdge],
}

impl<G: GraphStore> TrainStep for HybridStep<'_, G> {
    type Batch = Vec<PairExample>;
    type Artefact = HybridArtefact;

    fn step(&mut self, batch: Vec<PairExample>, rng: &mut StdRng) -> BatchLoss {
        let ctx = ForwardCtx {
            graph: self.graph,
            config: &self.config,
            shapes: &self.shapes,
        };
        let mut g = Graph::new(&self.params);
        // One forward per distinct center in the batch.
        let mut center_cache: HashMap<NodeId, Vec<Var>> = HashMap::new();
        let mut lefts: Vec<Var> = Vec::new();
        let mut targets: Vec<u32> = Vec::new();
        let mut labels: Vec<f32> = Vec::new();
        for ex in &batch {
            let e_stars = center_cache.entry(ex.center).or_insert_with(|| {
                HybridGnn::forward_node(&mut g, &self.p, &ctx, ex.center, rng, false).0
            });
            let e = e_stars[ex.relation.index()];
            lefts.push(e);
            targets.push(ex.context.0);
            labels.push(1.0);
            for &neg in &ex.negatives {
                lefts.push(e);
                targets.push(neg.0);
                labels.push(-1.0);
            }
        }
        let left = g.concat_rows(&lefts);
        let right = g.gather(self.p.ctx, &targets);
        let scores = g.row_dot(left, right);
        let loss = g.logistic_loss(scores, &labels);
        let loss_sum = g.scalar(loss) as f64;
        let grads = g.backward(loss);
        self.opt.step(&mut self.params, &grads);
        BatchLoss { loss_sum, denom: 1 }
    }

    fn eval(&mut self, rng: &mut StdRng) -> (f64, HybridArtefact) {
        let ctx = ForwardCtx {
            graph: self.graph,
            config: &self.config,
            shapes: &self.shapes,
        };
        let (tables, attention) = HybridGnn::full_inference(&self.params, &self.p, &ctx, rng);
        let scores = EmbeddingScores::per_relation(tables)
            .with_context(self.params.value(self.p.ctx).clone());
        let auc = mhg_models::val_auc(&scores, self.val);
        (auc, HybridArtefact { scores, attention })
    }

    fn export_state(&self, dict: &mut StateDict) {
        self.params.export_state("model/params", dict);
        self.opt.export_state("model/opt", dict);
    }

    fn import_state(&mut self, dict: &StateDict) -> Result<(), CkptError> {
        self.params.import_state("model/params", dict)?;
        self.opt.import_state("model/opt", dict)
    }
}

/// Byte layout for an [`AttentionProfile`], a plain (unframed) cursor
/// nested inside the MHGC checkpoint: all integers are u64 LE — relation
/// count, then per relation an entry count, then per entry a label length +
/// UTF-8 bytes + the f64 mass as raw bits.
fn encode_attention(profile: &[Vec<(String, f64)>]) -> Vec<u8> {
    let mut w = Writer::plain();
    w.u64(profile.len() as u64);
    for rel in profile {
        w.u64(rel.len() as u64);
        for (label, mass) in rel {
            w.u64(label.len() as u64);
            w.bytes(label.as_bytes());
            w.u64(mass.to_bits());
        }
    }
    w.into_bytes()
}

/// Inverse of [`encode_attention`]; every read is length-guarded, so
/// corrupted payloads surface as typed errors, never panics or huge
/// allocations.
fn decode_attention(buf: &[u8]) -> Result<AttentionProfile, CkptError> {
    let mut r = Reader::plain(buf);
    let num_rel = r.u64()?;
    // Each relation needs at least its entry count; each entry its label
    // length and mass.
    let mut profile = Vec::with_capacity(r.count(num_rel, 8)?);
    for _ in 0..num_rel {
        let num_entries = r.u64()?;
        let mut rel = Vec::with_capacity(r.count(num_entries, 16)?);
        for _ in 0..num_entries {
            let label_len = r.u64()?;
            let label = r.str(r.count(label_len, 1)?)?;
            rel.push((label, f64::from_bits(r.u64()?)));
        }
        profile.push(rel);
    }
    r.finish()?;
    Ok(profile)
}

impl HybridGnn {
    /// Trains over any [`GraphStore`] backend — the in-RAM graph (what
    /// [`LinkPredictor::fit`] delegates to) or the paged `ShardedCsr`,
    /// whose self-healing ladder runs underneath the samplers while this
    /// loop trains. Results are bit-identical across conforming backends
    /// (the store determinism contract pins the walk streams).
    pub fn fit_store<G: GraphStore>(
        &mut self,
        data: &FitData<'_, G>,
        rng: &mut StdRng,
    ) -> Result<TrainReport, TrainError> {
        let graph = data.graph;
        let cfg = self.config.clone();
        let common = &cfg.common;

        // Label shapes like "user-item-user" from schema names.
        let shapes: Vec<(Vec<NodeTypeId>, String)> = data
            .metapath_shapes
            .iter()
            .map(|shape| {
                let label = shape
                    .iter()
                    .map(|&t| graph.schema().node_type_name(t))
                    .collect::<Vec<_>>()
                    .join("-");
                (shape.clone(), label)
            })
            .collect();

        let (params, p) = Self::init_params(graph, &cfg, shapes.len(), rng);
        let negatives = NegativeSampler::new(graph);
        let pair_budget = mhg_models::pair_budget(graph.num_edges());

        // Metapath-based training walks per relation (§III-E). These same
        // walks drive the aggregation sampling statistics. Each (relation,
        // shape) stream generates its walks in fixed shards with one derived
        // sub-RNG per shard, so the walk set is bit-identical for any thread
        // count; the post-walk shuffle keeps the SGD pair order random.
        let sample = |_epoch: usize, rng: &mut StdRng| {
            let base: u64 = rng.gen();
            let mut tagged: Vec<(Pair, RelationId)> = Vec::new();
            for r in graph.schema().relations() {
                for (shape_idx, (shape, _)) in shapes.iter().enumerate() {
                    let scheme = MetapathScheme::intra(shape.clone(), r);
                    let walker = MetapathWalker::new(graph, scheme)?;
                    let starts: Vec<NodeId> = graph
                        .nodes_of_type(shape[0])
                        .iter()
                        .copied()
                        .filter(|&start| graph.degree(start, r) > 0)
                        .collect();
                    let stream = ((r.index() as u64) << 32) | shape_idx as u64;
                    tagged.extend(sharded_over_obs(
                        &common.obs,
                        derive_seed(base, stream),
                        &starts,
                        |shard, rng| {
                            let mut out = Vec::new();
                            for &start in shard {
                                for _ in 0..common.walks_per_node.min(3) {
                                    let walk = walker.walk(start, common.walk_length, rng);
                                    out.extend(
                                        pairs_from_walk(&walk, common.window)
                                            .into_iter()
                                            .map(|pair| (pair, r)),
                                    );
                                }
                            }
                            out
                        },
                    ));
                }
            }
            tagged.shuffle(rng);
            tagged.truncate(pair_budget);
            Ok(pair_batches(
                graph,
                &negatives,
                tagged,
                common.negatives,
                BATCH,
                rng,
            ))
        };

        let mut step = HybridStep {
            params,
            p,
            graph,
            config: cfg.clone(),
            shapes: shapes.clone(),
            opt: Adam::new(common.lr.min(0.01)),
            val: data.val,
        };
        let (report, best) = mhg_train::train(&common.train_options(), sample, &mut step, rng)?;
        self.scores = best.scores;
        self.attention = best.attention;
        Ok(report)
    }
}

impl LinkPredictor for HybridGnn {
    fn name(&self) -> &'static str {
        "HybridGNN"
    }

    fn fit(&mut self, data: &FitData<'_>, rng: &mut StdRng) -> Result<TrainReport, TrainError> {
        self.fit_store(data, rng)
    }

    fn score(&self, u: NodeId, v: NodeId, r: RelationId) -> f32 {
        self.scores.score(u, v, r)
    }
}
