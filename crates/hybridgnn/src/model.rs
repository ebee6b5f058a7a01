//! The HybridGNN model (paper §III): randomized inter-relationship
//! exploration + hybrid aggregation flows + hierarchical attention, trained
//! with the heterogeneous skip-gram objective over metapath-based walks.

use std::collections::BTreeMap;

use mhg_autograd::{Adam, Graph, Optimizer, ParamStore, Var};
use mhg_ckpt::frame::{Reader, Writer};
use mhg_ckpt::{CkptError, StateDict};
use mhg_datasets::LabeledEdge;
use mhg_graph::{GraphStore, NodeId, RelationId};
use mhg_models::{EmbeddingScores, FitData, LinkPredictor, TrainError, TrainReport};
use mhg_sampling::{
    derive_seed, pairs_from_walk, sharded_over_obs, MetapathWalker, NegativeSampler, Pair,
};
use mhg_tensor::{InitKind, Tensor};
use mhg_train::{pair_batches, Artefact, BatchLoss, PairExample, TrainStep};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::config::HybridConfig;
use crate::flows::{Draws, FlowPlan, Params};

const BATCH: usize = 48;

/// Averaged metapath-level attention mass per flow, per relation — the data
/// behind the paper's Fig. 4.
pub type AttentionProfile = Vec<Vec<(String, f64)>>;

/// The HybridGNN link predictor.
pub struct HybridGnn {
    config: HybridConfig,
    scores: EmbeddingScores,
    attention: AttentionProfile,
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

    /// Full-graph inference, one [`BATCH`]-node chunk per tape: the
    /// per-relation embedding tables, plus the averaged attention profile.
    fn full_inference<G: GraphStore>(
        params: &ParamStore,
        p: &Params,
        graph: &G,
        config: &HybridConfig,
        plan: &FlowPlan,
        rng: &mut StdRng,
    ) -> (Vec<Tensor>, AttentionProfile) {
        let num_rel = graph.schema().num_relations();
        let mut tables = vec![Tensor::zeros(graph.num_nodes(), config.common.dim); num_rel];
        // label → (mass sum, count), per relation.
        let mut acc: Vec<BTreeMap<&str, (f64, usize)>> = vec![BTreeMap::new(); num_rel];

        let nodes: Vec<u32> = graph.node_id_range().collect();
        for chunk in nodes.chunks(BATCH) {
            let draws = Draws::draw(graph, config, plan, p, chunk.to_vec(), rng);
            let picks = (0..chunk.len() * num_rel).map(|k| k as u32).collect();
            let mut g = Graph::new(params);
            let rec = draws.record(&mut g, config, p, picks);
            let e = g.value(rec.e);
            for (c, &v) in chunk.iter().enumerate() {
                for (r, table) in tables.iter_mut().enumerate() {
                    table.set_row(v as usize, e.row(c * num_rel + r));
                }
            }
            // Mean attention mass received per flow (column means), per
            // (centre, relation) segment; none when the attention is ablated.
            for (s, seg) in rec.segments.windows(2).enumerate() {
                let Some(a) = g.attention_weights(rec.h, s) else {
                    break;
                };
                let n = seg[1] - seg[0];
                for (c, &flow) in rec.flows[seg[0]..seg[1]].iter().enumerate() {
                    let mass: f32 = (0..n).map(|rr| a[rr * n + c]).sum::<f32>() / n as f32;
                    let entry = acc[s % num_rel].entry(plan.label(flow)).or_insert((0.0, 0));
                    entry.0 += mass as f64;
                    entry.1 += 1;
                }
            }
        }

        let attention = acc
            .into_iter()
            .map(|m| {
                // BTreeMap iterates label-sorted, so the profile rows come
                // out in the same order the old explicit sort produced.
                m.into_iter()
                    .map(|(label, (sum, count))| (label.to_string(), sum / count.max(1) as f64))
                    .collect()
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

/// The `TrainStep` for HybridGNN: one batched forward per pair batch (its
/// neighbour sets drawn first, then four tape nodes), a (scores,
/// attention) artefact per validation pass.
struct HybridStep<'a, G: GraphStore> {
    params: ParamStore,
    p: Params,
    graph: &'a G,
    config: HybridConfig,
    plan: &'a FlowPlan,
    opt: Adam,
    val: &'a [LabeledEdge],
}

impl<G: GraphStore> HybridStep<'_, G> {
    /// Records a pair batch's skip-gram loss (Eq. 13) on `g`: the
    /// neighbour sets of its distinct centres are drawn first, in
    /// first-appearance order, then the forward pass takes four tape nodes
    /// and the loss three.
    fn record_loss(&self, g: &mut Graph<'_>, batch: &[PairExample], rng: &mut StdRng) -> Var {
        let num_rel = self.p.w_out.len();
        // Distinct centres in first-appearance order; each example scores
        // its centre's row for its relation.
        let mut centres: Vec<u32> = Vec::new();
        let mut picks: Vec<u32> = Vec::new();
        let mut targets: Vec<u32> = Vec::new();
        let mut labels: Vec<f32> = Vec::new();
        for ex in batch {
            let c = match centres.iter().position(|&c| c == ex.center.0) {
                Some(c) => c,
                None => {
                    centres.push(ex.center.0);
                    centres.len() - 1
                }
            };
            let row = (c * num_rel + ex.relation.index()) as u32;
            picks.push(row);
            targets.push(ex.context.0);
            labels.push(1.0);
            for &neg in &ex.negatives {
                picks.push(row);
                targets.push(neg.0);
                labels.push(-1.0);
            }
        }
        let draws = Draws::draw(self.graph, &self.config, self.plan, &self.p, centres, rng);
        let left = draws.record(g, &self.config, &self.p, picks).e;
        let right = g.gather(self.p.ctx, &targets);
        let scores = g.row_dot(left, right);
        g.logistic_loss(scores, &labels)
    }
}

impl<G: GraphStore> TrainStep for HybridStep<'_, G> {
    type Batch = Vec<PairExample>;
    type Artefact = HybridArtefact;

    fn step(&mut self, batch: Vec<PairExample>, rng: &mut StdRng) -> BatchLoss {
        let mut g = Graph::new(&self.params);
        let loss = self.record_loss(&mut g, &batch, rng);
        let loss_sum = g.scalar(loss) as f64;
        let grads = g.backward(loss);
        self.opt.step(&mut self.params, &grads);
        BatchLoss { loss_sum, denom: 1 }
    }

    fn eval(&mut self, rng: &mut StdRng) -> (f64, HybridArtefact) {
        let (tables, attention) = HybridGnn::full_inference(
            &self.params,
            &self.p,
            self.graph,
            &self.config,
            self.plan,
            rng,
        );
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

        let plan = FlowPlan::new(graph, data.metapath_shapes);
        let (params, p) = Self::init_params(graph, &cfg, plan.num_shapes(), rng);
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
            for (r, schemes) in graph.schema().relations().zip(plan.schemes()) {
                for (shape_idx, scheme) in schemes.iter().enumerate() {
                    let walker = MetapathWalker::new(graph, scheme.clone())?;
                    let starts: Vec<NodeId> = graph
                        .nodes_of_type(scheme.source_type())
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
            plan: &plan,
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

#[cfg(test)]
mod tests {
    use super::*;
    use mhg_datasets::DatasetKind;
    use rand::SeedableRng;

    /// The step's tape does not grow with the batch: four forward nodes and
    /// three for the loss, whatever the number of centres (the per-node
    /// composition recorded ≈100 nodes per centre).
    #[test]
    fn tape_length_does_not_grow_with_the_batch() {
        let dataset = DatasetKind::Amazon.generate(0.01, 3);
        let graph = &dataset.graph;
        let mut rng = StdRng::seed_from_u64(4);
        let plan = FlowPlan::new(graph, &dataset.metapath_shapes);
        let mut config = HybridConfig::fast();
        config.common.dim = 16;
        let (params, p) = HybridGnn::init_params(graph, &config, plan.num_shapes(), &mut rng);
        let step = HybridStep {
            params,
            p,
            graph,
            config,
            plan: &plan,
            opt: Adam::new(0.01),
            val: &[],
        };
        let num_rel = graph.schema().num_relations();
        let examples: Vec<PairExample> = graph
            .nodes()
            .take(BATCH)
            .enumerate()
            .map(|(i, v)| PairExample {
                center: v,
                context: NodeId((v.0 + 1) % graph.num_nodes() as u32),
                relation: RelationId((i % num_rel) as u16),
                negatives: vec![NodeId(0), NodeId(1)],
            })
            .collect();
        assert_eq!(examples.len(), BATCH);
        let mut tape_len = |batch: &[PairExample]| {
            let mut g = Graph::new(&step.params);
            step.record_loss(&mut g, batch, &mut rng);
            g.len()
        };
        let one = tape_len(&examples[..1]);
        assert_eq!(tape_len(&examples), one);
        assert_eq!(one, 7);
        assert!(one <= 200);
    }
}
