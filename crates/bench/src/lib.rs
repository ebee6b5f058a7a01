//! Shared experiment-harness machinery for the table/figure binaries.
//!
//! Every binary in `src/bin/` reproduces one table or figure of the paper;
//! this library holds what they share: CLI parsing, the model zoo, the
//! train-and-evaluate pipeline, and table formatting. See `DESIGN.md` §3
//! for the experiment index.
// Library code must not panic; clippy.toml exempts `#[cfg(test)]` code.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use std::path::{Path, PathBuf};

use hybridgnn::{HybridConfig, HybridGnn};
use mhg_datasets::{Dataset, DatasetKind, EdgeSplit};
use mhg_eval::{topk_metrics, TopKMetrics};
use mhg_graph::{persist, MultiplexGraph, ShardedCsr, ShardedCsrOptions};
use mhg_models::{
    evaluate, ranking_queries, CommonConfig, DeepWalk, EventValue, FitData, Gatne, Gcn, GraphSage,
    Han, Line, LinkPredictor, Magnn, ModelMetrics, Node2Vec, Obs, ObsConfig, RGcn, TrainError,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The ten model names of Tables IV–V, in the paper's row order. This is
/// the vocabulary of the `--models` filter.
pub const MODEL_NAMES: [&str; 10] = [
    "DeepWalk",
    "node2vec",
    "LINE",
    "GCN",
    "GraphSage",
    "HAN",
    "MAGNN",
    "R-GCN",
    "GATNE",
    "HybridGNN",
];

/// Which graph-store backend the experiment exercises (`--graph-store`).
///
/// Models always train against the in-RAM [`MultiplexGraph`] — the backend
/// choice controls whether [`prepare`] additionally builds a sharded,
/// chunk-paged mirror of each training graph and proves it byte-identical
/// (via the canonical MHG1 encoding) before any model sees the data. That
/// keeps every exp_* binary able to regression-test the `ShardedCsr`
/// substrate without forking the experiment pipeline.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GraphStoreKind {
    /// In-RAM CSR only (the default).
    Ram,
    /// Build + verify a sharded on-disk mirror of every training graph.
    Sharded,
}

impl GraphStoreKind {
    /// Parses the `--graph-store` vocabulary (`ram` / `sharded`).
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "ram" => Some(Self::Ram),
            "sharded" => Some(Self::Sharded),
            _ => None,
        }
    }
}

/// Common experiment options, parsed from `std::env::args`.
///
/// Flags: `--scale <f64>`, `--seed <u64>`, `--epochs <usize>`,
/// `--dim <usize>`, `--runs <usize>`, `--k <usize>`, `--datasets a,b,c`,
/// `--models a,b,c`, `--resume-dir <path>`, `--checkpoint-every <n>`,
/// `--metrics-out <path>`, `--graph-store ram|sharded`.
#[derive(Clone, Debug)]
pub struct ExpConfig {
    /// Dataset scale relative to the paper's published sizes.
    pub scale: f64,
    /// Base RNG seed; run `i` uses `seed + i`.
    pub seed: u64,
    /// Training epochs per model.
    pub epochs: usize,
    /// Embedding dimension `d_m` used by the harness (the paper's 128 is a
    /// flag away; 64 keeps default runs fast).
    pub dim: usize,
    /// Independent repetitions (needed for the t-test columns).
    pub runs: usize,
    /// K for PR@K / HR@K.
    pub k: usize,
    /// Candidate-pool size per ranking query.
    pub pool: usize,
    /// Maximum ranking queries per dataset.
    pub max_queries: usize,
    /// Dataset filter (empty = the experiment's default set).
    pub datasets: Vec<DatasetKind>,
    /// Model filter, canonical [`MODEL_NAMES`] entries (empty = all ten).
    pub models: Vec<String>,
    /// Crash-safe experiment state directory. When set, every completed
    /// (dataset, model, run) cell persists its metrics as an atomic marker
    /// file, training checkpoints land next to them, and a re-run with the
    /// same directory skips finished cells and resumes the interrupted one.
    pub resume_dir: Option<PathBuf>,
    /// Epoch cadence for training checkpoints (0 = only on `--resume-dir`
    /// runs, where it defaults to every epoch).
    pub checkpoint_every: usize,
    /// Checkpoint directory for the cell currently training. Set by
    /// [`ExpConfig::for_cell`], not by a CLI flag.
    pub cell_checkpoint_dir: Option<PathBuf>,
    /// Write the experiment's metrics as JSON lines to this path (see the
    /// README's "Reading metrics.jsonl"). Merged into — and overriding —
    /// whatever `MHG_OBS` configures.
    pub metrics_out: Option<PathBuf>,
    /// Graph-store backend under test (see [`GraphStoreKind`]).
    pub graph_store: GraphStoreKind,
    /// Observability handle shared by every model run of the experiment.
    /// Built by [`ExpConfig::from_args`] from `MHG_OBS` + `--metrics-out`,
    /// with stderr progress notes always on (this is a human harness).
    pub obs: Obs,
}

impl Default for ExpConfig {
    fn default() -> Self {
        Self {
            scale: 0.05,
            seed: 42,
            epochs: 12,
            dim: 64,
            runs: 1,
            k: 10,
            pool: 200,
            max_queries: 150,
            datasets: Vec::new(),
            models: Vec::new(),
            resume_dir: None,
            checkpoint_every: 0,
            cell_checkpoint_dir: None,
            metrics_out: None,
            graph_store: GraphStoreKind::Ram,
            obs: harness_obs(None),
        }
    }
}

/// The harness observability handle: `MHG_OBS` settings plus an optional
/// `--metrics-out` JSONL override, with progress notes forced on.
fn harness_obs(metrics_out: Option<PathBuf>) -> Obs {
    let mut oc = ObsConfig::from_env();
    oc.notes = true;
    if metrics_out.is_some() {
        oc.jsonl = metrics_out;
    }
    oc.build()
}

impl ExpConfig {
    /// Parses CLI flags, falling back to defaults.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed flags.
    #[expect(
        clippy::panic,
        clippy::expect_used,
        reason = "malformed flags abort by design: this runs at the top of the `exp_*` \
                  drivers, before any work starts"
    )]
    pub fn from_args() -> Self {
        let mut cfg = Self::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            let value = args.get(i + 1).cloned();
            let parse_f64 = |v: &Option<String>| -> f64 {
                v.as_ref()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("{flag} requires a numeric value"))
            };
            let parse_usize = |v: &Option<String>| -> usize {
                v.as_ref()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("{flag} requires an integer value"))
            };
            match flag {
                "--scale" => cfg.scale = parse_f64(&value),
                "--seed" => cfg.seed = parse_usize(&value) as u64,
                "--epochs" => cfg.epochs = parse_usize(&value),
                "--dim" => cfg.dim = parse_usize(&value),
                "--runs" => cfg.runs = parse_usize(&value),
                "--k" => cfg.k = parse_usize(&value),
                "--pool" => cfg.pool = parse_usize(&value),
                "--max-queries" => cfg.max_queries = parse_usize(&value),
                "--checkpoint-every" => cfg.checkpoint_every = parse_usize(&value),
                "--resume-dir" => {
                    cfg.resume_dir = Some(PathBuf::from(
                        value.as_ref().expect("--resume-dir requires a path"),
                    ));
                }
                "--metrics-out" => {
                    cfg.metrics_out = Some(PathBuf::from(
                        value.as_ref().expect("--metrics-out requires a path"),
                    ));
                }
                "--graph-store" => {
                    cfg.graph_store = value
                        .as_ref()
                        .and_then(|s| GraphStoreKind::parse(s))
                        .unwrap_or_else(|| panic!("unknown graph store {value:?} (ram|sharded)"));
                }
                "--datasets" => {
                    cfg.datasets = value
                        .as_ref()
                        .expect("--datasets requires a comma list")
                        .split(',')
                        .map(|s| {
                            DatasetKind::parse(s).unwrap_or_else(|| panic!("unknown dataset {s:?}"))
                        })
                        .collect();
                }
                "--models" => {
                    cfg.models = value
                        .as_ref()
                        .expect("--models requires a comma list")
                        .split(',')
                        .map(|s| {
                            MODEL_NAMES
                                .iter()
                                .find(|n| n.eq_ignore_ascii_case(s.trim()))
                                .unwrap_or_else(|| panic!("unknown model {s:?} (see --help)"))
                                .to_string()
                        })
                        .collect();
                }
                "--help" | "-h" => {
                    println!(
                        "flags: --scale f --seed n --epochs n --dim n --runs n --k n \
                         --pool n --max-queries n --datasets a,b,c --models a,b,c \
                         --resume-dir path --checkpoint-every n --metrics-out path \
                         --graph-store ram|sharded\n\
                         models: {}",
                        MODEL_NAMES.join(",")
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other:?} (try --help)"),
            }
            i += 2;
        }
        cfg.obs = harness_obs(cfg.metrics_out.clone());
        cfg
    }

    /// The experiment's dataset list: the CLI override, or `default_set`.
    pub fn dataset_set(&self, default_set: &[DatasetKind]) -> Vec<DatasetKind> {
        if self.datasets.is_empty() {
            default_set.to_vec()
        } else {
            self.datasets.clone()
        }
    }

    /// Whether the `--models` filter selects `name` (empty filter = all).
    pub fn selects(&self, name: &str) -> bool {
        self.models.is_empty() || self.models.iter().any(|m| m.eq_ignore_ascii_case(name))
    }

    /// Shared model hyper-parameters derived from the experiment flags.
    pub fn common(&self) -> CommonConfig {
        CommonConfig {
            dim: self.dim,
            epochs: self.epochs,
            checkpoint_every: self.checkpoint_every,
            checkpoint_dir: self.cell_checkpoint_dir.clone(),
            resume: self.cell_checkpoint_dir.is_some(),
            obs: self.obs.clone(),
            ..CommonConfig::default()
        }
    }

    /// A copy of this configuration pointing one experiment cell at its own
    /// checkpoint directory under `--resume-dir` (no-op without the flag).
    pub fn for_cell(&self, kind: DatasetKind, model: &str, run: usize) -> Self {
        let mut cell = self.clone();
        if let Some(dir) = &self.resume_dir {
            cell.checkpoint_every = self.checkpoint_every.max(1);
            // `common()` below threads these into every model's TrainOptions.
            cell.cell_checkpoint_dir =
                Some(dir.join(format!("ckpt-{}-{model}-run{run}", kind.name())));
        }
        cell
    }

    /// HybridGNN configuration derived from the experiment flags.
    pub fn hybrid(&self) -> HybridConfig {
        HybridConfig {
            common: self.common(),
            ..HybridConfig::default()
        }
    }
}

/// The ten models of Tables IV–V, in the paper's row order.
pub fn model_zoo(cfg: &ExpConfig) -> Vec<Box<dyn LinkPredictor>> {
    let c = cfg.common();
    vec![
        Box::new(DeepWalk::new(c.clone())),
        Box::new(Node2Vec::new(c.clone())),
        Box::new(Line::new(c.clone())),
        Box::new(Gcn::new(c.clone())),
        Box::new(GraphSage::new(c.clone())),
        Box::new(Han::new(c.clone())),
        Box::new(Magnn::new(c.clone())),
        Box::new(RGcn::new(c.clone())),
        Box::new(Gatne::new(c)),
        Box::new(HybridGnn::new(cfg.hybrid())),
    ]
}

/// The model zoo after the `--models` filter.
pub fn filtered_zoo(cfg: &ExpConfig) -> Vec<Box<dyn LinkPredictor>> {
    model_zoo(cfg)
        .into_iter()
        .filter(|m| cfg.selects(m.name()))
        .collect()
}

/// All five metric columns of Tables IV–V.
#[derive(Clone, Copy, Debug, Default)]
pub struct FullMetrics {
    /// ROC-AUC (%).
    pub roc_auc: f64,
    /// PR-AUC (%).
    pub pr_auc: f64,
    /// F1 (%).
    pub f1: f64,
    /// PR@K.
    pub pr_at_k: f64,
    /// HR@K.
    pub hr_at_k: f64,
}

/// Generates a dataset and its split, deterministically.
///
/// Under `--graph-store sharded` this additionally round-trips the training
/// graph through the chunk-paged [`ShardedCsr`] backend and aborts the
/// experiment unless the mirror verifies and encodes byte-identically — see
/// [`GraphStoreKind`].
pub fn prepare(kind: DatasetKind, cfg: &ExpConfig, run: usize) -> (Dataset, EdgeSplit) {
    let dataset = kind.generate(cfg.scale, cfg.seed + run as u64);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5151 ^ run as u64);
    let split = EdgeSplit::default_split(&dataset.graph, &mut rng);
    if cfg.graph_store == GraphStoreKind::Sharded {
        mirror_sharded(kind, cfg, run, &split.train_graph);
    }
    (dataset, split)
}

/// Builds a sharded on-disk mirror of `graph`, verifies every shard
/// checksum, and proves backend parity by comparing the canonical MHG1
/// encodings. The mirror lives in a per-process temp directory and is
/// removed on success; any failure aborts the experiment — publishing
/// numbers from a store that disagrees with the in-RAM graph would poison
/// every downstream comparison.
#[expect(
    clippy::panic,
    reason = "the mirror is a correctness gate: a store that fails to build or verify \
              aborts the experiment rather than let models train on unproven data"
)]
fn mirror_sharded(kind: DatasetKind, cfg: &ExpConfig, run: usize, graph: &MultiplexGraph) {
    let dir = std::env::temp_dir().join(format!(
        "mhg-exp-store-{}-{}-run{run}",
        std::process::id(),
        kind.name()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let sharded = ShardedCsr::build(graph, &dir, ShardedCsrOptions::default())
        .unwrap_or_else(|e| panic!("sharded mirror build for {} failed: {e}", kind.name()));
    sharded
        .verify()
        .unwrap_or_else(|e| panic!("sharded mirror verify for {} failed: {e}", kind.name()));
    assert_eq!(
        persist::encode(graph),
        persist::encode(&sharded),
        "sharded mirror of {} run {run} diverged from the in-RAM graph",
        kind.name()
    );
    let on_disk = sharded.on_disk_bytes().unwrap_or(0);
    cfg.obs.note(&format!(
        "  {} run {run}: sharded mirror verified ({} nodes, {} edges, {on_disk} bytes on disk)",
        kind.name(),
        graph.num_nodes(),
        graph.num_edges(),
    ));
    drop(sharded);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Trains one model and evaluates the full metric set.
///
/// Surfaces the pipeline's per-epoch timing breakdown on stderr, and smoke-
/// checks the [`mhg_models::TrainReport`]: a NaN loss or a zero-epoch report
/// under a non-zero epoch budget aborts the experiment instead of publishing
/// garbage numbers.
pub fn run_model(
    model: &mut dyn LinkPredictor,
    dataset: &Dataset,
    split: &EdgeSplit,
    cfg: &ExpConfig,
    run: usize,
) -> Result<FullMetrics, TrainError> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x77aa ^ run as u64);
    let data = FitData {
        graph: &split.train_graph,
        metapath_shapes: &dataset.metapath_shapes,
        val: &split.val,
    };
    let report = model.fit(&data, &mut rng)?;
    assert!(
        !report.final_loss.is_nan(),
        "{}: training diverged (final loss is NaN)",
        model.name()
    );
    assert!(
        report.epochs_run > 0 || cfg.epochs == 0,
        "{}: zero-epoch report for a {}-epoch config",
        model.name(),
        cfg.epochs
    );
    let per = report.timing.per_epoch(report.epochs_run);
    cfg.obs.note(&format!(
        "    {}: {} epoch(s), loss {:.4}, best val AUC {:.4}, per-epoch \
         sample {:.0}ms / compute {:.0}ms / eval {:.0}ms",
        model.name(),
        report.epochs_run,
        report.final_loss,
        report.best_val_auc,
        per.sample_ms,
        per.compute_ms,
        per.eval_ms
    ));
    cfg.obs.event(
        "model_report",
        &[
            ("model", EventValue::Str(model.name().to_string())),
            ("run", EventValue::U64(run as u64)),
            ("epochs_run", EventValue::U64(report.epochs_run as u64)),
            ("final_loss", EventValue::F64(f64::from(report.final_loss))),
            ("best_val_auc", EventValue::F64(report.best_val_auc)),
        ],
    );
    Ok(classification_and_ranking(model, dataset, split, cfg, run))
}

/// Marker-file path recording that one (dataset, model, run) cell finished.
fn cell_marker(dir: &Path, kind: DatasetKind, model: &str, run: usize) -> PathBuf {
    dir.join(format!("done-{}-{model}-run{run}.mhgc", kind.name()))
}

/// Persists a finished cell's metrics atomically so a killed experiment can
/// skip the cell on re-run. Errors are reported, not fatal: losing a marker
/// only costs recomputation.
pub fn save_cell(
    obs: &Obs,
    dir: &Path,
    kind: DatasetKind,
    model: &str,
    run: usize,
    m: &FullMetrics,
) {
    let mut dict = mhg_ckpt::StateDict::new();
    dict.put_f64("roc_auc", m.roc_auc);
    dict.put_f64("pr_auc", m.pr_auc);
    dict.put_f64("f1", m.f1);
    dict.put_f64("pr_at_k", m.pr_at_k);
    dict.put_f64("hr_at_k", m.hr_at_k);
    let path = cell_marker(dir, kind, model, run);
    let write = std::fs::create_dir_all(dir)
        .and_then(|()| mhg_ckpt::atomic_write_retry(&path, &mhg_ckpt::encode(&dict), 3));
    if let Err(e) = write {
        obs.note(&format!(
            "warning: could not persist cell marker {}: {e}",
            path.display()
        ));
    }
}

/// Loads a previously persisted cell, if its marker exists and decodes
/// cleanly. A corrupt or truncated marker is treated as absent.
pub fn load_cell(dir: &Path, kind: DatasetKind, model: &str, run: usize) -> Option<FullMetrics> {
    let bytes = mhg_ckpt::read_file(cell_marker(dir, kind, model, run)).ok()?;
    let dict = mhg_ckpt::decode(&bytes).ok()?;
    Some(FullMetrics {
        roc_auc: dict.f64("roc_auc").ok()?,
        pr_auc: dict.f64("pr_auc").ok()?,
        f1: dict.f64("f1").ok()?,
        pr_at_k: dict.f64("pr_at_k").ok()?,
        hr_at_k: dict.f64("hr_at_k").ok()?,
    })
}

/// Evaluates an already-trained model.
pub fn classification_and_ranking(
    model: &dyn LinkPredictor,
    dataset: &Dataset,
    split: &EdgeSplit,
    cfg: &ExpConfig,
    run: usize,
) -> FullMetrics {
    let cls: ModelMetrics = evaluate(model, &split.test);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x99bb ^ run as u64);
    let queries = ranking_queries(
        model,
        &dataset.graph,
        &split.test,
        cfg.pool,
        cfg.max_queries,
        &mut rng,
    );
    let ranked: Vec<_> = queries.into_iter().map(|q| q.query).collect();
    let topk: TopKMetrics = topk_metrics(&ranked, cfg.k);
    FullMetrics {
        roc_auc: cls.roc_auc * 100.0,
        pr_auc: cls.pr_auc * 100.0,
        f1: cls.f1 * 100.0,
        pr_at_k: topk.precision,
        hr_at_k: topk.hit_ratio,
    }
}

/// Prints a Tables IV/V-style header.
pub fn print_header(dataset: &str, k: usize) {
    println!("\n== {dataset} ==");
    println!(
        "{:<12} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "model",
        "ROC-AUC",
        "PR-AUC",
        "F1",
        format!("PR@{k}"),
        format!("HR@{k}")
    );
}

/// Prints one model row.
pub fn print_row(name: &str, m: &FullMetrics) {
    println!(
        "{:<12} {:>8.2} {:>8.2} {:>8.2} {:>8.4} {:>8.4}",
        name, m.roc_auc, m.pr_auc, m.f1, m.pr_at_k, m.hr_at_k
    );
}

/// Runs the Tables IV/V link-prediction comparison over `default_sets`:
/// the selected models × all metrics, averaged over `cfg.runs` repetitions,
/// with a Welch t-test of HybridGNN against the best baseline when
/// `runs ≥ 2` and HybridGNN is among the selected models.
pub fn link_prediction_experiment(cfg: &ExpConfig, default_sets: &[DatasetKind]) {
    for kind in cfg.dataset_set(default_sets) {
        let model_names: Vec<&'static str> = filtered_zoo(cfg).iter().map(|m| m.name()).collect();
        let mut results: Vec<Vec<FullMetrics>> = vec![Vec::new(); model_names.len()];

        for run in 0..cfg.runs {
            let (dataset, split) = prepare(kind, cfg, run);
            for (mi, name) in model_names.iter().enumerate() {
                if let Some(dir) = &cfg.resume_dir {
                    if let Some(metrics) = load_cell(dir, kind, name, run) {
                        // The exact message text is part of the resume-smoke
                        // CI contract (grepped from the harness stderr).
                        cfg.obs
                            .note(&format!("[{kind} run {run}] {name} restored from marker"));
                        results[mi].push(metrics);
                        continue;
                    }
                }
                let cell_cfg = cfg.for_cell(kind, name, run);
                let mut zoo = filtered_zoo(&cell_cfg);
                let model = zoo[mi].as_mut();
                #[expect(clippy::disallowed_methods, reason = "progress note, not a result")]
                let started = std::time::Instant::now();
                #[expect(
                    clippy::panic,
                    reason = "a partly filled results table is worse than a loud failure, and the \
                              per-cell markers make the rerun cheap"
                )]
                let metrics = run_model(model, &dataset, &split, &cell_cfg, run)
                    .unwrap_or_else(|e| panic!("{name} on {kind}: {e}"));
                cfg.obs.note(&format!(
                    "[{kind} run {run}] {name} done in {:.1?}",
                    started.elapsed()
                ));
                if let Some(dir) = &cfg.resume_dir {
                    save_cell(&cfg.obs, dir, kind, name, run, &metrics);
                }
                results[mi].push(metrics);
            }
        }

        print_header(kind.name(), cfg.k);
        for (mi, name) in model_names.iter().enumerate() {
            print_row(name, &mean_metrics(&results[mi]));
        }

        if cfg.runs >= 2 {
            let Some(hybrid_idx) = model_names.iter().position(|n| *n == "HybridGNN") else {
                continue; // HybridGNN filtered out: nothing to compare
            };
            let hybrid: Vec<f64> = results[hybrid_idx].iter().map(|m| m.roc_auc).collect();
            // Runner-up = best baseline by mean ROC-AUC. NaN-free because
            // ROC-AUC is bounded; total_cmp keeps the fold total anyway.
            let best = results[..hybrid_idx]
                .iter()
                .enumerate()
                .map(|(i, ms)| {
                    (
                        i,
                        mhg_eval::mean(&ms.iter().map(|m| m.roc_auc).collect::<Vec<_>>()),
                    )
                })
                .max_by(|a, b| a.1.total_cmp(&b.1));
            let Some((best_idx, _)) = best else {
                continue; // no baselines configured for this dataset
            };
            let baseline: Vec<f64> = results[best_idx].iter().map(|m| m.roc_auc).collect();
            if let Some(t) = mhg_eval::welch_t_test(&hybrid, &baseline) {
                println!(
                    "t-test HybridGNN vs {} (ROC-AUC over {} runs): t={:.3}, p={:.4}{}",
                    model_names[best_idx],
                    cfg.runs,
                    t.t,
                    t.p_two_tailed,
                    if t.p_two_tailed < 0.01 {
                        "  (p<0.01 *)"
                    } else {
                        ""
                    }
                );
            }
        }
    }
}

/// Flushes the experiment's observability output: writes `metrics.jsonl`
/// when `--metrics-out` (or `MHG_OBS=jsonl=...`) was given and prints the
/// stderr summary when requested. Every `exp_*` binary calls this last.
pub fn finish_metrics(cfg: &ExpConfig) {
    match cfg.obs.finish() {
        Ok(Some(path)) => println!("metrics written to {}", path.display()),
        Ok(None) => {}
        Err(e) => cfg
            .obs
            .note(&format!("warning: could not write metrics: {e}")),
    }
}

/// Component-wise mean of repeated metric measurements.
pub fn mean_metrics(ms: &[FullMetrics]) -> FullMetrics {
    let n = ms.len().max(1) as f64;
    FullMetrics {
        roc_auc: ms.iter().map(|m| m.roc_auc).sum::<f64>() / n,
        pr_auc: ms.iter().map(|m| m.pr_auc).sum::<f64>() / n,
        f1: ms.iter().map(|m| m.f1).sum::<f64>() / n,
        pr_at_k: ms.iter().map(|m| m.pr_at_k).sum::<f64>() / n,
        hr_at_k: ms.iter().map(|m| m.hr_at_k).sum::<f64>() / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_sane() {
        let cfg = ExpConfig::default();
        assert!(cfg.scale > 0.0 && cfg.runs >= 1 && cfg.k == 10);
    }

    #[test]
    fn zoo_has_ten_models_in_paper_order() {
        let cfg = ExpConfig {
            epochs: 1,
            ..ExpConfig::default()
        };
        let zoo = model_zoo(&cfg);
        let names: Vec<&str> = zoo.iter().map(|m| m.name()).collect();
        assert_eq!(
            names,
            vec![
                "DeepWalk",
                "node2vec",
                "LINE",
                "GCN",
                "GraphSage",
                "HAN",
                "MAGNN",
                "R-GCN",
                "GATNE",
                "HybridGNN"
            ]
        );
    }

    #[test]
    fn models_filter_selects_case_insensitively() {
        let mut cfg = ExpConfig {
            epochs: 1,
            ..ExpConfig::default()
        };
        assert!(cfg.selects("HybridGNN"), "empty filter selects everything");
        cfg.models = vec!["deepwalk".to_string(), "GATNE".to_string()];
        let names: Vec<&str> = filtered_zoo(&cfg).iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["DeepWalk", "GATNE"]);
        assert!(!cfg.selects("HybridGNN"));
    }

    #[test]
    fn dataset_set_override() {
        let mut cfg = ExpConfig::default();
        assert_eq!(
            cfg.dataset_set(&[DatasetKind::Amazon]),
            vec![DatasetKind::Amazon]
        );
        cfg.datasets = vec![DatasetKind::Imdb];
        assert_eq!(
            cfg.dataset_set(&[DatasetKind::Amazon]),
            vec![DatasetKind::Imdb]
        );
    }

    #[test]
    fn end_to_end_tiny_run() {
        let cfg = ExpConfig {
            scale: 0.005,
            epochs: 2,
            dim: 16,
            pool: 20,
            max_queries: 10,
            ..ExpConfig::default()
        };
        let (dataset, split) = prepare(DatasetKind::Amazon, &cfg, 0);
        let mut model = DeepWalk::new(cfg.common());
        let m = run_model(&mut model, &dataset, &split, &cfg, 0).expect("fit must succeed");
        assert!(m.roc_auc > 0.0 && m.roc_auc <= 100.0);
        assert!((0.0..=1.0).contains(&m.pr_at_k));
    }
}
