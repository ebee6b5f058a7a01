//! The four workloads: inputs generated from the seed, set-up, the timed
//! op, output checks, and the traced run's per-layer readings.
//!
//! An *op* is what one end-to-end timing covers: one training epoch
//! (measured as a fit of `epochs` epochs, wall clock ÷ epochs, including
//! evaluation and checkpoints) or one batch of uniform random walks.

use std::path::{Path, PathBuf};
use std::time::Instant;

use hybridgnn::{HybridConfig, HybridGnn};
use mhg_datasets::{DatasetKind, EdgeSplit, LabeledEdge, SyntheticTier};
use mhg_graph::{
    EdgeSource, GraphStore, MultiplexGraph, NodeId, NodeTypeId, PageStats, ShardedCsr,
    ShardedCsrOptions,
};
use mhg_models::{CommonConfig, FitData, LinkPredictor, RGcn, TrainReport};
use mhg_obs::{MetricValue, Obs, ObsConfig};
use mhg_sampling::{derive_seed, sharded_over_obs, UniformWalker, Walk};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::probes;
use crate::stats::{self, summarize, Fnv};
use crate::timed_store::{CallStats, TimedStore};
use crate::trace::Trace;

/// The seed the output goldens are pinned at.
pub const DEFAULT_SEED: u64 = 2022;
/// Width of the `mhg-par` pool in every workload.
pub const THREADS: usize = 2;
/// Nodes per random walk.
const WALK_LEN: usize = 10;
/// Stream tags keeping the seed's uses independent of each other.
const FIT_STREAM: u64 = 1;
const WALK_STREAM: u64 = 2;
/// Batch indices of the traced run's extra walk passes, far from the
/// measured batches.
const ATTRIBUTION_BATCH: usize = 1 << 20;
const REFERENCE_BATCH: usize = 2 << 20;
/// Walks in the 1-thread hit/miss attribution pass.
const ATTRIBUTION_WALKS: usize = 2_000;
/// Batches in the RAM-vs-sharded reference pass of the training workloads.
const REFERENCE_BATCHES: usize = 2;

/// The workloads, in the order the orchestrator runs them.
pub const NAMES: [&str; 4] = [
    "hybrid-ram",
    "rgcn-ram",
    "hybrid-sharded",
    "walks-10m-sharded",
];

/// What a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// HybridGNN on the in-RAM Amazon graph.
    HybridRam,
    /// R-GCN on the in-RAM Amazon graph.
    RgcnRam,
    /// HybridGNN on a `ShardedCsr` of a Taobao-tier training split.
    HybridSharded,
    /// Uniform walks over a `ShardedCsr` of the Taobao tier.
    Walks,
}

/// One workload's sizes and pinned output.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// What it runs.
    pub kind: Kind,
    /// Amazon scale (RAM workloads) or `SyntheticTier::taobao` scale.
    pub scale: f64,
    /// Embedding width `d_m`.
    pub dim: usize,
    /// Epochs per fit (training workloads).
    pub epochs: usize,
    /// Store options: the workload's store, or the traced mirror of a RAM
    /// workload's training graph.
    pub store: ShardedCsrOptions,
    /// Walks per walk batch (the walk workload's op and every reference
    /// pass).
    pub walks_per_batch: usize,
    /// Fewest ops per run; the walk golden covers this many batches.
    pub min_ops: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Output hash at [`DEFAULT_SEED`]: final embeddings (HybridGNN),
    /// validation scores (R-GCN) or the first `min_ops` batches' walks.
    pub golden: Option<u64>,
    /// Seconds each layer-probe row measures.
    pub probe_budget_s: f64,
}

/// The spec of workload `name`; `smoke` shrinks every size so all four
/// finish in seconds (no goldens are checked then).
pub fn spec(name: &str, smoke: bool) -> Option<Spec> {
    let mirror = ShardedCsrOptions {
        shard_target_cap: 512,
        page_budget_bytes: 32 << 10,
        build_budget_bytes: 1 << 20,
    };
    let full = match name {
        "hybrid-ram" => Spec {
            name: "hybrid-ram",
            kind: Kind::HybridRam,
            scale: 0.25,
            dim: 128,
            epochs: 1,
            store: mirror,
            walks_per_batch: 2_000,
            min_ops: 1,
            setup_reps: 7,
            golden: Some(0x424f_e250_9d53_30e9),
            probe_budget_s: 0.12,
        },
        "rgcn-ram" => Spec {
            name: "rgcn-ram",
            kind: Kind::RgcnRam,
            scale: 0.25,
            dim: 128,
            epochs: 1,
            store: mirror,
            walks_per_batch: 2_000,
            min_ops: 1,
            setup_reps: 7,
            golden: Some(0xfb0b_82b7_3dac_6d71),
            probe_budget_s: 0.12,
        },
        "hybrid-sharded" => Spec {
            name: "hybrid-sharded",
            kind: Kind::HybridSharded,
            scale: 0.005,
            dim: 128,
            epochs: 1,
            store: ShardedCsrOptions {
                shard_target_cap: 2_048,
                page_budget_bytes: 320 << 10,
                build_budget_bytes: 32 << 20,
            },
            walks_per_batch: 2_000,
            min_ops: 1,
            setup_reps: 5,
            golden: Some(0x6128_448c_622b_3c05),
            probe_budget_s: 0.12,
        },
        "walks-10m-sharded" => Spec {
            name: "walks-10m-sharded",
            kind: Kind::Walks,
            scale: 1.0,
            dim: 0,
            epochs: 0,
            store: ShardedCsrOptions {
                shard_target_cap: 1 << 16,
                page_budget_bytes: 64 << 20,
                build_budget_bytes: 32 << 20,
            },
            walks_per_batch: 2_000,
            min_ops: 8,
            setup_reps: 3,
            golden: Some(0x4005_2cd6_371a_789b),
            probe_budget_s: 0.12,
        },
        _ => return None,
    };
    Some(if smoke { full.smoke() } else { full })
}

impl Spec {
    fn smoke(self) -> Self {
        let scale = match self.kind {
            Kind::HybridRam | Kind::RgcnRam => 0.003,
            Kind::HybridSharded => 0.0001,
            Kind::Walks => 0.001,
        };
        Self {
            scale,
            dim: self.dim.min(16),
            epochs: self.epochs.min(1),
            store: ShardedCsrOptions {
                shard_target_cap: 256,
                page_budget_bytes: 4 << 10,
                build_budget_bytes: 1 << 20,
            },
            walks_per_batch: 100,
            min_ops: 1,
            setup_reps: 2,
            golden: None,
            probe_budget_s: 0.002,
            ..self
        }
    }
}

/// The inputs a workload's ops run on.
pub enum Graphs {
    /// An Amazon graph and its split, in RAM.
    Ram {
        split: EdgeSplit,
        shapes: Vec<Vec<NodeTypeId>>,
    },
    /// A Taobao-tier split whose training graph is also sharded on disk.
    Sharded {
        split: EdgeSplit,
        shapes: Vec<Vec<NodeTypeId>>,
        store: ShardedCsr,
    },
    /// The Taobao tier, sharded on disk straight from its edge stream.
    Tier {
        tier: SyntheticTier,
        store: ShardedCsr,
    },
}

impl Graphs {
    fn store(&self) -> Option<&ShardedCsr> {
        match self {
            Self::Ram { .. } => None,
            Self::Sharded { store, .. } | Self::Tier { store, .. } => Some(store),
        }
    }
}

/// Seconds spent in each part of one set-up.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// The whole set-up.
    pub total_s: f64,
    /// `ShardedCsr::build` (0 for RAM workloads).
    pub build_s: f64,
    /// `ShardedCsr::open`.
    pub open_s: f64,
    /// `ShardedCsr::verify`.
    pub verify_s: f64,
}

/// Taobao's metapath shapes (paper Table II) over the tier's schema, where
/// node type 0 is `user` and 1 is `item`: U-I-U and I-U-I.
fn taobao_shapes() -> Vec<Vec<NodeTypeId>> {
    let (user, item) = (NodeTypeId(0), NodeTypeId(1));
    vec![vec![user, item, user], vec![item, user, item]]
}

/// Builds a store from `source` under `dir` (replacing whatever was
/// there), reopens it and verifies every shard: the shard write path.
fn shard(
    source: &impl EdgeSource,
    dir: &Path,
    opts: ShardedCsrOptions,
    trace: &mut Trace,
    times: &mut SetupTimes,
) -> Result<ShardedCsr, String> {
    let _ = std::fs::remove_dir_all(dir);
    let (built, build_s) = trace.time("setup/build", || ShardedCsr::build(source, dir, opts));
    drop(built.map_err(|e| format!("shard build: {e}"))?);
    let (store, open_s) = trace.time("setup/open", || ShardedCsr::open(dir, opts));
    let store = store.map_err(|e| format!("shard open: {e}"))?;
    let (verified, verify_s) = trace.time("setup/verify", || store.verify());
    verified.map_err(|e| format!("shard verify: {e}"))?;
    times.build_s = build_s;
    times.open_s = open_s;
    times.verify_s = verify_s;
    Ok(store)
}

/// Everything before the first timed op: data generation, the split, and
/// for sharded workloads the store's build, open and verify.
pub fn setup(
    spec: &Spec,
    seed: u64,
    dir: &Path,
    trace: &mut Trace,
) -> Result<(Graphs, SetupTimes), String> {
    let root = trace.begin("setup");
    let mut times = SetupTimes::default();
    let split_of = |trace: &mut Trace, graph: &MultiplexGraph| {
        trace
            .time("setup/split", || {
                EdgeSplit::default_split(graph, &mut StdRng::seed_from_u64(seed))
            })
            .0
    };
    let graphs = match spec.kind {
        Kind::HybridRam | Kind::RgcnRam => {
            let (data, _) = trace.time("setup/data", || {
                DatasetKind::Amazon.generate(spec.scale, seed)
            });
            let split = split_of(trace, &data.graph);
            Graphs::Ram {
                split,
                shapes: data.metapath_shapes,
            }
        }
        Kind::HybridSharded => {
            let (graph, _) = trace.time("setup/data", || {
                SyntheticTier::taobao(spec.scale, seed).materialize()
            });
            let split = split_of(trace, &graph);
            drop(graph);
            let store = shard(&split.train_graph, dir, spec.store, trace, &mut times)?;
            Graphs::Sharded {
                split,
                shapes: taobao_shapes(),
                store,
            }
        }
        Kind::Walks => {
            let tier = SyntheticTier::taobao(spec.scale, seed);
            let store = shard(&tier, dir, spec.store, trace, &mut times)?;
            Graphs::Tier { tier, store }
        }
    };
    times.total_s = trace.end(root);
    Ok((graphs, times))
}

fn common(spec: &Spec, obs: &Obs, checkpoint_dir: Option<PathBuf>) -> CommonConfig {
    CommonConfig {
        dim: spec.dim,
        epochs: spec.epochs,
        // Patience ≥ epochs: every fit runs all its epochs.
        patience: spec.epochs,
        background_sampling: true,
        threads: THREADS,
        checkpoint_every: usize::from(checkpoint_dir.is_some()),
        checkpoint_dir,
        resume: false,
        obs: obs.clone(),
        ..CommonConfig::default()
    }
}

/// A fit's wall clock, and its report plus output hash or its error.
type FitOutcome = (f64, Result<(TrainReport, u64), String>);

/// Trains HybridGNN over `graph`; the output hash covers every final
/// embedding (node × relation).
fn fit_hybrid<G: GraphStore>(
    spec: &Spec,
    graph: &G,
    shapes: &[Vec<NodeTypeId>],
    val: &[LabeledEdge],
    seed: u64,
    obs: &Obs,
    checkpoint_dir: Option<PathBuf>,
) -> FitOutcome {
    let mut model = HybridGnn::new(HybridConfig {
        common: common(spec, obs, checkpoint_dir),
        ..HybridConfig::default()
    });
    let data = FitData {
        graph,
        metapath_shapes: shapes,
        val,
    };
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, FIT_STREAM));
    let t = Instant::now();
    let fitted = model.fit_store(&data, &mut rng);
    let secs = t.elapsed().as_secs_f64();
    let out = fitted.map_err(|e| e.to_string()).map(|report| {
        let mut h = Fnv::default();
        for v in graph.node_id_range() {
            for r in graph.schema().relations() {
                for &x in model.embedding(NodeId(v), r) {
                    h.f32(x);
                }
            }
        }
        (report, h.finish())
    });
    (secs, out)
}

/// Trains R-GCN; the output hash covers its score of every validation
/// edge.
fn fit_rgcn(
    spec: &Spec,
    split: &EdgeSplit,
    shapes: &[Vec<NodeTypeId>],
    seed: u64,
    obs: &Obs,
) -> FitOutcome {
    let mut model = RGcn::new(common(spec, obs, None));
    let data = FitData {
        graph: &split.train_graph,
        metapath_shapes: shapes,
        val: &split.val,
    };
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, FIT_STREAM));
    let t = Instant::now();
    let fitted = model.fit(&data, &mut rng);
    let secs = t.elapsed().as_secs_f64();
    let out = fitted.map_err(|e| e.to_string()).map(|report| {
        let mut h = Fnv::default();
        for e in &split.val {
            h.f32(model.score(e.u, e.v, e.relation));
        }
        (report, h.finish())
    });
    (secs, out)
}

/// The start nodes of walk batch `batch`: uniform over all nodes, a pure
/// function of `(seed, batch)`.
fn batch_starts(num_nodes: usize, seed: u64, batch: usize, walks: usize) -> Vec<NodeId> {
    let base = derive_seed(seed, WALK_STREAM) ^ batch as u64;
    (0..walks)
        .map(|i| NodeId((derive_seed(base, i as u64) % num_nodes as u64) as u32))
        .collect()
}

/// Walks batch `batch` over `graph` with the pool's threads; returns the
/// walks and the seconds they took.
fn walk_batch<G: GraphStore>(
    graph: &G,
    seed: u64,
    batch: usize,
    walks: usize,
    obs: &Obs,
) -> (Vec<Walk>, f64) {
    let starts = batch_starts(graph.num_nodes(), seed, batch, walks);
    let walker = UniformWalker::new(graph);
    let walk_seed = derive_seed(derive_seed(seed, WALK_STREAM), batch as u64);
    let t = Instant::now();
    let out = sharded_over_obs(obs, walk_seed, &starts, |chunk, rng| {
        chunk
            .iter()
            .map(|&s| walker.walk(s, WALK_LEN, rng))
            .collect::<Vec<Walk>>()
    });
    (out, t.elapsed().as_secs_f64())
}

/// Feeds a walk stream into `h`, each walk closed by `u32::MAX` (no node
/// id reaches it) — the convention of the store-parity goldens.
fn hash_walks(h: &mut Fnv, walks: &[Walk]) {
    for w in walks {
        for v in w {
            h.u32(v.0);
        }
        h.u32(u32::MAX);
    }
}

fn steps(walks: &[Walk]) -> usize {
    walks.iter().map(Vec::len).sum()
}

/// Checks a batch against its starts: one walk per start, beginning there,
/// at most [`WALK_LEN`] nodes, all in range; the first walk must follow
/// edges and may stop short only at a node without neighbours.
fn check_walks<G: GraphStore>(graph: &G, starts: &[NodeId], walks: &[Walk]) -> Result<(), String> {
    if walks.len() != starts.len() {
        return Err(format!("{} walks for {} starts", walks.len(), starts.len()));
    }
    let n = graph.num_nodes();
    for (w, &s) in walks.iter().zip(starts) {
        if w.first() != Some(&s) || w.len() > WALK_LEN || w.iter().any(|v| v.index() >= n) {
            return Err(format!("malformed walk from node {}", s.0));
        }
    }
    if let Some(w) = walks.first() {
        if w.windows(2).any(|p| !graph.has_any_edge(p[0], p[1])) {
            return Err(format!(
                "walk from node {} leaves the graph's edges",
                w[0].0
            ));
        }
        if let Some(&last) = w.last() {
            if w.len() < WALK_LEN && graph.total_degree(last) > 0 {
                return Err(format!("walk from node {} stopped early", w[0].0));
            }
        }
    }
    Ok(())
}

/// One timed walk batch kept for the RAM reference pass.
struct BatchRecord {
    batch: usize,
    hash: u64,
    steps: usize,
    secs: f64,
}

/// A named metric value with its unit.
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: String,
    /// The value.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one run of one workload produced.
pub struct Outcome {
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Ops attempted: epochs, or walks.
    pub attempted: u64,
    /// Ops that failed a check.
    pub failed: u64,
    /// The run's span tree and detail rows.
    pub trace: Trace,
}

/// Per-op readings summed over the traced ops.
#[derive(Default)]
struct Readings {
    /// Ops (epochs or batches) traced.
    ops: usize,
    /// Their wall clock in nanoseconds (whole fits, or walk batches).
    wall_ns: f64,
    /// Neighbour reads seen by the [`TimedStore`].
    calls: CallStats,
}

/// Runs ops and checks their outputs, holding the state one run shares.
struct Runner<'a> {
    spec: &'a Spec,
    seed: u64,
    graphs: &'a Graphs,
    work: &'a Path,
    trace: Trace,
    attempted: u64,
    failed: u64,
    /// Fits run so far (names checkpoint directories).
    fits: usize,
    /// The first fit's output hash; every later fit must reproduce it.
    first_hash: Option<u64>,
    /// Walk workload: the next batch index.
    next_batch: usize,
    /// Walk workload: hash of the first `min_ops` batches.
    stream: Fnv,
    /// Walk workload: untraced batches, for the RAM reference pass.
    untraced_batches: Vec<BatchRecord>,
    readings: Readings,
}

impl<'a> Runner<'a> {
    fn new(spec: &'a Spec, seed: u64, graphs: &'a Graphs, work: &'a Path, trace: Trace) -> Self {
        Self {
            spec,
            seed,
            graphs,
            work,
            trace,
            attempted: 0,
            failed: 0,
            fits: 0,
            first_hash: None,
            next_batch: 0,
            stream: Fnv::default(),
            untraced_batches: Vec::new(),
            readings: Readings::default(),
        }
    }

    fn fail(&mut self, ops: u64, why: String) {
        eprintln!("# {}: FAILED: {why}", self.spec.name);
        self.failed += ops;
    }

    /// Counts `ops` attempted, and failed if `verdict` is an error.
    fn tally(&mut self, ops: u64, verdict: Result<(), String>) {
        self.attempted += ops;
        if let Err(why) = verdict {
            self.fail(ops, why);
        }
    }

    fn check_golden(&self, hash: u64) -> Result<(), String> {
        eprintln!("# {}: output hash {hash:#018x}", self.spec.name);
        match self.spec.golden {
            Some(golden) if self.seed == DEFAULT_SEED && golden != hash => Err(format!(
                "output hash {hash:#018x} differs from the golden {golden:#018x} \
                 pinned at seed {DEFAULT_SEED}"
            )),
            _ => Ok(()),
        }
    }

    /// Self-healing must never have fired: any retry, repair or quarantine
    /// means a read failed.
    fn check_heal(&self) -> Result<(), String> {
        let Some(store) = self.graphs.store() else {
            return Ok(());
        };
        let heal = store.heal_stats();
        let quarantined = store.quarantined().len();
        if heal.retries + heal.repairs + heal.repair_failures > 0 || quarantined > 0 {
            return Err(format!(
                "store healed during the run: {heal:?}, {quarantined} shards quarantined"
            ));
        }
        Ok(())
    }

    /// One op; returns its seconds (per epoch for training).
    fn op(&mut self, phase: &str, obs: &Obs, traced: bool) -> f64 {
        let id = self
            .trace
            .begin(format!("op/{phase}/{}", self.fits + self.next_batch));
        let secs = if self.spec.kind == Kind::Walks {
            self.walk_op(obs, traced)
        } else {
            self.train_op(obs, traced)
        };
        self.trace.end(id);
        secs
    }

    fn hybrid_on<G: GraphStore>(
        &mut self,
        graph: &G,
        shapes: &[Vec<NodeTypeId>],
        val: &[LabeledEdge],
        obs: &Obs,
        traced: bool,
    ) -> FitOutcome {
        let ckpt = (self.spec.kind == Kind::HybridRam)
            .then(|| self.work.join(format!("ckpt-{}", self.fits)));
        let out = if traced {
            let timed = TimedStore::new(graph);
            let out = fit_hybrid(self.spec, &timed, shapes, val, self.seed, obs, ckpt.clone());
            self.absorb(&timed);
            out
        } else {
            fit_hybrid(self.spec, graph, shapes, val, self.seed, obs, ckpt.clone())
        };
        if let Some(dir) = ckpt {
            let _ = std::fs::remove_dir_all(dir);
        }
        out
    }

    fn absorb<G: GraphStore>(&mut self, timed: &TimedStore<'_, G>) {
        let c = timed.calls();
        self.readings.calls.count += c.count;
        self.readings.calls.sum_ns += c.sum_ns;
        for line in timed.render("op/") {
            self.trace.line(line);
        }
    }

    fn train_op(&mut self, obs: &Obs, traced: bool) -> f64 {
        let spec = self.spec;
        let graphs = self.graphs;
        let (secs, out) = match graphs {
            Graphs::Ram { split, shapes } if spec.kind == Kind::RgcnRam => {
                fit_rgcn(spec, split, shapes, self.seed, obs)
            }
            Graphs::Ram { split, shapes } => {
                self.hybrid_on(&split.train_graph, shapes, &split.val, obs, traced)
            }
            Graphs::Sharded {
                split,
                shapes,
                store,
            } => self.hybrid_on(store, shapes, &split.val, obs, traced),
            Graphs::Tier { .. } => unreachable!("the walk workload does not train"),
        };
        self.fits += 1;
        if traced {
            self.readings.ops += spec.epochs;
            self.readings.wall_ns += secs * 1e9;
        }
        let verdict = out.and_then(|(report, hash)| {
            if !report.final_loss.is_finite() {
                return Err(format!("non-finite final loss {}", report.final_loss));
            }
            if report.epochs_run != spec.epochs {
                return Err(format!(
                    "{} epochs run, {} configured",
                    report.epochs_run, spec.epochs
                ));
            }
            self.check_heal()?;
            match self.first_hash {
                None => self.first_hash = Some(hash),
                Some(first) if first != hash => {
                    return Err(format!(
                        "output hash {hash:#018x} differs from this run's first fit {first:#018x}"
                    ))
                }
                Some(_) => return Ok(()),
            }
            self.check_golden(hash)
        });
        self.tally(spec.epochs as u64, verdict);
        secs / spec.epochs as f64
    }

    fn walk_op(&mut self, obs: &Obs, traced: bool) -> f64 {
        let Graphs::Tier { store, .. } = self.graphs else {
            unreachable!("only the walk workload walks batches")
        };
        let (batch, n) = (self.next_batch, self.spec.walks_per_batch);
        self.next_batch += 1;
        let (walks, secs) = if traced {
            let timed = TimedStore::new(store);
            let out = walk_batch(&timed, self.seed, batch, n, obs);
            self.absorb(&timed);
            self.readings.ops += 1;
            self.readings.wall_ns += out.1 * 1e9;
            out
        } else {
            walk_batch(store, self.seed, batch, n, obs)
        };
        let starts = batch_starts(store.num_nodes(), self.seed, batch, n);
        let mut verdict = check_walks(store, &starts, &walks).and_then(|()| self.check_heal());
        let mut h = Fnv::default();
        hash_walks(&mut h, &walks);
        if !traced {
            self.untraced_batches.push(BatchRecord {
                batch,
                hash: h.finish(),
                steps: steps(&walks),
                secs,
            });
        }
        if batch < self.spec.min_ops {
            hash_walks(&mut self.stream, &walks);
            if batch + 1 == self.spec.min_ops {
                verdict = verdict.and_then(|()| self.check_golden(self.stream.finish()));
            }
        }
        self.tally(n as u64, verdict);
        secs
    }
}

/// A run's options.
pub struct RunOpts {
    /// Input seed.
    pub seed: u64,
    /// Seconds of ops to measure.
    pub seconds: f64,
    /// The traced run (per-layer metrics) instead of the end-to-end run.
    pub traced: bool,
    /// Scratch directory for stores and checkpoints.
    pub work: PathBuf,
}

/// Runs workload `spec` once.
pub fn run(spec: &Spec, opts: &RunOpts) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.work).map_err(|e| format!("work dir: {e}"))?;
    let _pool = mhg_par::scoped_threads(THREADS);
    let mut trace = Trace::new();
    let root = trace.begin(spec.name);
    let store_dir = opts.work.join("store");
    let reps = if opts.traced { 1 } else { spec.setup_reps };
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..reps {
        // Drop the previous set-up first: a sharded rebuild replaces its
        // files.
        drop(prepared.take());
        let (graphs, times) = setup(spec, opts.seed, &store_dir, &mut trace)?;
        setups.push(times.total_s);
        prepared = Some((graphs, times));
    }
    let (graphs, times) = prepared.ok_or("no set-up ran")?;
    let mut runner = Runner::new(spec, opts.seed, &graphs, &opts.work, trace);
    let disabled = Obs::disabled();
    let metrics = if opts.traced {
        traced(&mut runner, opts, times)?
    } else {
        // Peak RSS is read once set-up and one op have run: a fixed amount
        // of work, so the reading does not drift with how many ops the
        // machine's speed allowed (repeated fits fragment the heap).
        let mut peak_rss = None;
        let took = stats::repeat_for(opts.seconds, spec.min_ops, || {
            let secs = runner.op("e2e", &disabled, false);
            if peak_rss.is_none() {
                peak_rss = Some(stats::peak_rss_mb());
            }
            secs
        });
        vec![
            metric("setup_s", summarize(&setups).median, "s"),
            metric("op_s", summarize(&took).median, "s"),
            metric(
                "peak_rss_mb",
                peak_rss.flatten().ok_or("no VmHWM in /proc/self/status")?,
                "MiB",
            ),
        ]
    };
    let Runner {
        mut trace,
        attempted,
        failed,
        ..
    } = runner;
    trace.end(root);
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        trace,
    })
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// What `obs` recorded under `name`: a counter's total or a histogram's
/// sum (nanoseconds, for spans); 0 when nothing was recorded.
fn recorded(obs: &Obs, name: &str) -> f64 {
    obs.metrics()
        .into_iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, v)| match v {
            MetricValue::Counter(c) => c as f64,
            MetricValue::Histogram(h) => h.sum as f64,
            MetricValue::Gauge(g) => g,
        })
}

/// Mean size of the store's shard files in bytes, for `graph.mb_read`.
fn mean_shard_bytes(store: &ShardedCsr) -> Result<f64, String> {
    let (mut files, mut bytes) = (0u64, 0u64);
    let entries = std::fs::read_dir(store.dir()).map_err(|e| format!("store dir: {e}"))?;
    for entry in entries.flatten() {
        if entry.path().extension().is_some_and(|x| x == "shard") {
            files += 1;
            bytes += entry.metadata().map_or(0, |m| m.len());
        }
    }
    Ok(bytes as f64 / files.max(1) as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The traced run: half the window untraced, half with a recording `Obs`
/// and a [`TimedStore`], then the graph-layer passes, the reference
/// checks and the layer probes. Returns the per-layer metrics.
fn traced(
    runner: &mut Runner<'_>,
    opts: &RunOpts,
    times: SetupTimes,
) -> Result<Vec<Metric>, String> {
    let spec = runner.spec;
    let graphs = runner.graphs;
    let half = opts.seconds / 2.0;
    let disabled = Obs::disabled();
    let untraced = stats::repeat_for(half, spec.min_ops, || {
        runner.op("untraced", &disabled, false)
    });

    // A sink path switches recording on; the file itself is never written
    // (the trace file embeds `render_jsonl` instead).
    let obs = ObsConfig {
        jsonl: Some(opts.work.join("obs.jsonl")),
        ..ObsConfig::default()
    }
    .build();
    let pages_before = graphs.store().map(ShardedCsr::page_stats);
    let traced_ops = stats::repeat_for(half, 1, || runner.op("traced", &obs, true));
    let pages = match (graphs.store(), pages_before) {
        (Some(store), Some(before)) => {
            let after = store.page_stats();
            PageStats {
                loads: after.loads - before.loads,
                hits: after.hits - before.hits,
                ..after
            }
        }
        _ => PageStats::default(),
    };
    for line in obs.render_jsonl().lines() {
        runner.trace.line(line.to_string());
    }

    let r = &runner.readings;
    let ops = r.ops.max(1) as f64;
    let mut m = Vec::new();
    let train = |name: &str| ratio(recorded(&obs, name), r.wall_ns);
    let compute = train("train/compute");
    let eval = train("train/eval");
    let sample = train("train/sample");
    let ckpt = train("train/ckpt");
    m.push(metric("train.compute_share", compute, "1"));
    m.push(metric("train.eval_share", eval, "1"));
    m.push(metric("train.sample_share", sample, "1"));
    m.push(metric("train.ckpt_share", ckpt, "1"));
    // A one-epoch fit waits for its only sample, so the four stages run
    // one after another and should cover the fit's wall clock.
    let unattributed = if spec.kind == Kind::Walks {
        0.0
    } else {
        1.0 - (sample + compute + eval + ckpt)
    };
    m.push(metric("train.unattributed_share", unattributed, "1"));
    m.push(metric(
        "sampling.walk_items",
        recorded(&obs, "sampling/walk_items") / ops,
        "count",
    ));
    m.push(metric(
        "graph.neighbor_calls",
        r.calls.count as f64 / ops,
        "count",
    ));
    m.push(metric(
        "graph.store_share",
        ratio(r.calls.sum_ns as f64, r.wall_ns),
        "1",
    ));
    let shard_mib = match graphs.store() {
        Some(store) => mean_shard_bytes(store)? / f64::from(1u32 << 20),
        None => 0.0,
    };
    m.push(metric(
        "graph.page_loads",
        pages.loads as f64 / ops,
        "count",
    ));
    m.push(metric(
        "graph.mb_read",
        pages.loads as f64 * shard_mib / ops,
        "MiB",
    ));
    m.push(metric(
        "graph.hit_ratio",
        ratio(pages.hits as f64, (pages.hits + pages.loads) as f64),
        "1",
    ));
    m.extend(graph_layer(runner, opts, times)?);
    if spec.kind == Kind::HybridSharded {
        ram_training_parity(runner);
    }

    let rows = probe_rows(spec, &opts.work, &mut runner.trace)?;
    m.extend(
        rows.into_iter()
            .map(|row| metric(&row.name, row.value, row.unit)),
    );
    m.push(metric(
        "trace.overhead",
        summarize(&traced_ops).median / summarize(&untraced).median - 1.0,
        "1",
    ));
    Ok(m)
}

/// The graph-layer passes of the traced run, over the workload's store or,
/// for a RAM workload, over a sharded mirror of its training graph built
/// here:
///
/// * build/open/verify seconds and on-disk size of that store;
/// * a 1-thread attribution pass over a freshly opened (cold) copy: mean
///   nanoseconds of a `with_neighbors` call served from the page cache,
///   and mean microseconds of one that paged a shard in;
/// * the RAM reference: the same walks over the in-RAM graph, whose
///   stream must match the sharded one bit for bit.
fn graph_layer(
    runner: &mut Runner<'_>,
    opts: &RunOpts,
    times: SetupTimes,
) -> Result<Vec<Metric>, String> {
    let spec = runner.spec;
    let graphs = runner.graphs;
    let mirror;
    let (store, times) = match graphs {
        Graphs::Ram { split, .. } => {
            let mut mirror_times = SetupTimes::default();
            let id = runner.trace.begin("trace/mirror");
            mirror = shard(
                &split.train_graph,
                &opts.work.join("mirror"),
                spec.store,
                &mut runner.trace,
                &mut mirror_times,
            )?;
            runner.trace.end(id);
            (&mirror, mirror_times)
        }
        Graphs::Sharded { store, .. } | Graphs::Tier { store, .. } => (store, times),
    };
    let on_disk = store
        .on_disk_bytes()
        .map_err(|e| format!("store size: {e}"))?;
    let mut m = vec![
        metric("graph.build_s", times.build_s, "s"),
        metric("graph.open_s", times.open_s, "s"),
        metric("graph.verify_s", times.verify_s, "s"),
        metric(
            "graph.on_disk_mb",
            on_disk as f64 / f64::from(1u32 << 20),
            "MiB",
        ),
    ];

    let cold = ShardedCsr::open(store.dir(), spec.store).map_err(|e| format!("reopen: {e}"))?;
    let attributing = TimedStore::attributing(&cold);
    let id = runner.trace.begin("trace/attribution");
    mhg_par::with_threads(1, || {
        walk_batch(
            &attributing,
            runner.seed,
            ATTRIBUTION_BATCH,
            ATTRIBUTION_WALKS.min(spec.walks_per_batch * 2),
            &Obs::disabled(),
        )
    });
    runner.trace.end(id);
    for line in attributing.render("attribution/") {
        runner.trace.line(line);
    }
    m.push(metric(
        "graph.page_in_us",
        attributing.misses().mean_ns() / 1e3,
        "us",
    ));
    m.push(metric("graph.hit_ns", attributing.hits().mean_ns(), "ns"));

    let (ram_rate, sharded_rate) = ram_reference(runner, store)?;
    m.push(metric("graph.ram_walk_steps_per_s", ram_rate, "1/s"));
    m.push(metric(
        "graph.sharded_vs_ram",
        ratio(ram_rate, sharded_rate),
        "1",
    ));
    Ok(m)
}

/// Walks the same batches over the in-RAM graph and the sharded store and
/// checks the streams match; returns both walk rates in steps/s. The walk
/// workload replays its own untraced batches against the materialised
/// tier; the training workloads walk [`REFERENCE_BATCHES`] fresh batches
/// over both backends.
fn ram_reference(runner: &mut Runner<'_>, store: &ShardedCsr) -> Result<(f64, f64), String> {
    let spec = runner.spec;
    let graphs = runner.graphs;
    let seed = runner.seed;
    let n = spec.walks_per_batch;
    let id = runner.trace.begin("trace/ram_reference");
    let materialized;
    let ram: &MultiplexGraph = match graphs {
        Graphs::Ram { split, .. } | Graphs::Sharded { split, .. } => &split.train_graph,
        Graphs::Tier { tier, .. } => {
            materialized = runner
                .trace
                .time("trace/materialize", || tier.materialize())
                .0;
            &materialized
        }
    };
    let sharded: Vec<BatchRecord> = if spec.kind == Kind::Walks {
        std::mem::take(&mut runner.untraced_batches)
    } else {
        (0..REFERENCE_BATCHES)
            .map(|b| {
                let (walks, secs) =
                    walk_batch(store, seed, REFERENCE_BATCH + b, n, &Obs::disabled());
                let mut h = Fnv::default();
                hash_walks(&mut h, &walks);
                BatchRecord {
                    batch: REFERENCE_BATCH + b,
                    hash: h.finish(),
                    steps: steps(&walks),
                    secs,
                }
            })
            .collect()
    };
    let (mut ram_secs, mut ram_steps) = (0.0, 0usize);
    for rec in &sharded {
        let (walks, secs) = walk_batch(ram, seed, rec.batch, n, &Obs::disabled());
        ram_secs += secs;
        ram_steps += steps(&walks);
        let mut h = Fnv::default();
        hash_walks(&mut h, &walks);
        let verdict = if h.finish() == rec.hash {
            Ok(())
        } else {
            Err(format!(
                "walk batch {} differs between RAM ({:#018x}) and sharded ({:#018x}) stores",
                rec.batch,
                h.finish(),
                rec.hash
            ))
        };
        runner.tally(n as u64, verdict);
    }
    runner.trace.end(id);
    let sharded_secs: f64 = sharded.iter().map(|r| r.secs).sum();
    let sharded_steps: usize = sharded.iter().map(|r| r.steps).sum();
    Ok((
        ratio(ram_steps as f64, ram_secs),
        ratio(sharded_steps as f64, sharded_secs),
    ))
}

/// hybrid-sharded only: the same training on the in-RAM split must give
/// bit-identical embeddings.
fn ram_training_parity(runner: &mut Runner<'_>) {
    let Graphs::Sharded { split, shapes, .. } = runner.graphs else {
        return;
    };
    let id = runner.trace.begin("trace/ram_training");
    let (_, out) = fit_hybrid(
        runner.spec,
        &split.train_graph,
        shapes,
        &split.val,
        runner.seed,
        &Obs::disabled(),
        None,
    );
    runner.trace.end(id);
    let first = runner.first_hash;
    let verdict = out.and_then(|(_, hash)| match first {
        Some(sharded) if sharded != hash => Err(format!(
            "RAM training gives {hash:#018x}, sharded training {sharded:#018x}"
        )),
        _ => Ok(()),
    });
    runner.tally(runner.spec.epochs as u64, verdict);
}

/// The substrate probes, each row also written to the trace.
fn probe_rows(spec: &Spec, work: &Path, trace: &mut Trace) -> Result<Vec<probes::Row>, String> {
    let budget = spec.probe_budget_s;
    let cpus = stats::cpus();
    if cpus < THREADS {
        eprintln!(
            "# {}: {cpus} CPU(s): the .t2 tensor rows need {THREADS} and are not reported",
            spec.name
        );
    }
    let id = trace.begin("trace/probes");
    let mut rows = probes::tensor_rows(budget, cpus);
    rows.extend(probes::autograd_rows(budget));
    rows.push(probes::par_row(budget));
    rows.push(probes::ckpt_row(&work.join("ckpt-probe"), budget)?);
    trace.end(id);
    for row in &rows {
        trace.line(row.json());
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_hash(walks: &[Walk]) -> u64 {
        let mut h = Fnv::default();
        hash_walks(&mut h, walks);
        h.finish()
    }

    /// Timing a store, plain or attributing hits and misses, leaves the
    /// walk stream bit-identical to walking the in-RAM graph directly.
    #[test]
    fn timed_store_leaves_walk_hash_unchanged() {
        let tier = SyntheticTier::taobao(0.001, 5);
        let ram = tier.materialize();
        let dir = PathBuf::from(".bench_e2e_work/test-timed-store");
        let opts = ShardedCsrOptions {
            shard_target_cap: 256,
            page_budget_bytes: 4 << 10,
            build_budget_bytes: 1 << 20,
        };
        let store = ShardedCsr::build(&tier, &dir, opts).expect("tiny tier builds");
        let obs = Obs::disabled();
        let plain = stream_hash(&walk_batch(&ram, 9, 0, 300, &obs).0);

        let timed = TimedStore::new(&ram);
        assert_eq!(stream_hash(&walk_batch(&timed, 9, 0, 300, &obs).0), plain);
        assert!(timed.calls().count > 0);

        let attributing = TimedStore::attributing(&store);
        let walks = mhg_par::with_threads(1, || walk_batch(&attributing, 9, 0, 300, &obs).0);
        assert_eq!(stream_hash(&walks), plain);
        let (hits, misses) = (attributing.hits(), attributing.misses());
        assert!(misses.count > 0, "a cold 4 KiB cache must miss");
        assert_eq!(hits.count + misses.count, attributing.calls().count);

        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
