//! `hybridgnn-cli` — train and serve HybridGNN on graph snapshots.
//!
//! Subcommands:
//!
//! ```text
//! hybridgnn-cli generate  --dataset taobao --scale 0.05 --out graph.mhg
//! hybridgnn-cli stats     --graph graph.mhg
//! hybridgnn-cli train     --graph graph.mhg --out model.emb \
//!                         [--epochs 15 --dim 64 --seed 42 --shapes user-item-user,item-user-item]
//! hybridgnn-cli recommend --graph graph.mhg --model model.emb \
//!                         --node 17 --relation purchase --k 10
//! ```
//!
//! `generate` materialises one of the five paper datasets; `train` fits
//! HybridGNN on an 85/5/10 split, reports held-out metrics, and saves the
//! per-relation embedding tables; `recommend` ranks type-compatible
//! candidates for a node under a relation.
#![expect(clippy::disallowed_macros, reason = "a CLI reports errors on stderr")]

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use hybridgnn_repro::datasets::{DatasetKind, EdgeSplit, SyntheticTier};
use hybridgnn_repro::eval;
use hybridgnn_repro::graph::{
    persist, GraphStats, MultiplexGraph, NodeId, NodeTypeId, ShardedCsr, ShardedCsrOptions,
};
use hybridgnn_repro::model::{embeddings, HybridConfig, HybridGnn};
use hybridgnn_repro::models::{FitData, LinkPredictor};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        name => match COMMANDS.iter().find(|(n, _, _)| *n == name) {
            Some((_, allowed, run)) => parse_flags(allowed, &args[1..]).and_then(|f| run(&f)),
            None => Err(format!("unknown command {name:?}\n{USAGE}")),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: hybridgnn-cli <generate|stats|train|recommend|graph-fsck> [flags]
  generate   --dataset <name> --out <file.mhg> [--scale f] [--seed n]
  stats      --graph <file.mhg>
  train      --graph <file.mhg> --out <file.emb> [--epochs n] [--dim n]
             [--seed n] [--shapes type-type-type,...]
             [--checkpoint-dir dir] [--checkpoint-every n] [--resume true]
             [--metrics-out <file.jsonl>]
  recommend  --graph <file.mhg> --model <file.emb> --node <id>
             --relation <name> [--k n]
  graph-fsck --dir <store-dir> [--repair true]
             [--source-graph <file.mhg> | --source-tier taobao [--scale f] [--seed n]]";

/// A subcommand's `--key value` flags, keyed without the dashes.
type Flags = BTreeMap<String, String>;

/// Each subcommand with the flags `USAGE` lists for it.
type Command = (
    &'static str,
    &'static [&'static str],
    fn(&Flags) -> Result<(), String>,
);

const COMMANDS: &[Command] = &[
    (
        "generate",
        &["dataset", "out", "scale", "seed"],
        cmd_generate,
    ),
    ("stats", &["graph"], cmd_stats),
    (
        "train",
        &[
            "graph",
            "out",
            "epochs",
            "dim",
            "seed",
            "shapes",
            "checkpoint-dir",
            "checkpoint-every",
            "resume",
            "metrics-out",
        ],
        cmd_train,
    ),
    (
        "recommend",
        &["graph", "model", "node", "relation", "k"],
        cmd_recommend,
    ),
    (
        "graph-fsck",
        &[
            "dir",
            "repair",
            "source-graph",
            "source-tier",
            "scale",
            "seed",
        ],
        cmd_graph_fsck,
    ),
];

/// Parses `--key value` pairs. A flag `allowed` does not list, and a flag
/// whose value is missing or is the next `--flag`, is an error naming it.
fn parse_flags(allowed: &[&str], args: &[String]) -> Result<Flags, String> {
    let mut out = Flags::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let Some(key) = arg.strip_prefix("--").filter(|k| allowed.contains(k)) else {
            return Err(format!("unknown flag {arg:?}\n{USAGE}"));
        };
        match args.next() {
            Some(value) if !value.starts_with("--") => out.insert(key.to_string(), value.clone()),
            _ => return Err(format!("flag --{key} needs a value")),
        };
    }
    Ok(out)
}

fn required<'a>(flags: &'a Flags, key: &str) -> Result<&'a str, String> {
    flags
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required flag --{key}"))
}

fn parsed<T: std::str::FromStr>(flags: &Flags, key: &str, default: T) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value for --{key}: {v}")),
    }
}

fn cmd_generate(flags: &Flags) -> Result<(), String> {
    let name = required(flags, "dataset")?;
    let out: PathBuf = required(flags, "out")?.into();
    let scale: f64 = parsed(flags, "scale", 0.05)?;
    let seed: u64 = parsed(flags, "seed", 42)?;
    let kind = DatasetKind::parse(name).ok_or_else(|| format!("unknown dataset {name:?}"))?;
    let dataset = kind.generate(scale, seed);
    persist::save(&dataset.graph, &out).map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({} nodes, {} edges) to {}",
        kind.name(),
        dataset.graph.num_nodes(),
        dataset.graph.num_edges(),
        out.display()
    );
    println!(
        "metapath shapes: {}",
        shapes_to_string(&dataset.graph, &dataset.metapath_shapes)
    );
    Ok(())
}

fn cmd_stats(flags: &Flags) -> Result<(), String> {
    let graph = load_graph(flags)?;
    println!("{}", GraphStats::compute(&graph));
    println!("node types: {:?}", graph.schema().node_type_names());
    println!("relations:  {:?}", graph.schema().relation_names());
    Ok(())
}

fn cmd_train(flags: &Flags) -> Result<(), String> {
    let checkpoint_dir = flags.get("checkpoint-dir").map(PathBuf::from);
    let resume: bool = parsed(flags, "resume", false)?;
    if resume && checkpoint_dir.is_none() {
        return Err("--resume true needs --checkpoint-dir: the directory to resume from".into());
    }
    let graph = load_graph(flags)?;
    let out: PathBuf = required(flags, "out")?.into();
    let seed: u64 = parsed(flags, "seed", 42)?;
    let epochs: usize = parsed(flags, "epochs", 15)?;
    let dim: usize = parsed(flags, "dim", 64)?;

    let shapes = match flags.get("shapes") {
        Some(spec) => parse_shapes(&graph, spec)?,
        None => default_shapes(&graph),
    };
    if shapes.is_empty() {
        return Err("no metapath shapes (pass --shapes type-type-type,...)".into());
    }
    println!("metapath shapes: {}", shapes_to_string(&graph, &shapes));

    let mut rng = StdRng::seed_from_u64(seed);
    let split = EdgeSplit::default_split(&graph, &mut rng);

    let mut config = HybridConfig::default();
    config.common.epochs = epochs;
    config.common.dim = dim;
    config.common.checkpoint_every = parsed(flags, "checkpoint-every", 0)?;
    config.common.checkpoint_dir = checkpoint_dir;
    config.common.resume = resume;
    if config.common.checkpoint_dir.is_some() && config.common.checkpoint_every == 0 {
        config.common.checkpoint_every = 1;
    }
    if let Some(path) = flags.get("metrics-out") {
        let mut oc = hybridgnn_repro::obs::ObsConfig::from_env();
        oc.jsonl = Some(PathBuf::from(path));
        config.common.obs = oc.build();
    }
    let obs = config.common.obs.clone();
    let mut model = HybridGnn::new(config);
    let report = model
        .fit(
            &FitData {
                graph: &split.train_graph,
                metapath_shapes: &shapes,
                val: &split.val,
            },
            &mut rng,
        )
        .map_err(|e| e.to_string())?;
    if let Some(resumed) = report.recovery.resumed_from {
        println!("resumed from checkpoint at epoch {resumed}");
    }
    println!(
        "trained {} epochs (best val ROC-AUC {:.4})",
        report.epochs_run, report.best_val_auc
    );

    let scores: Vec<f32> = split
        .test
        .iter()
        .map(|e| model.score(e.u, e.v, e.relation))
        .collect();
    let labels: Vec<bool> = split.test.iter().map(|e| e.label).collect();
    println!(
        "held-out test: ROC-AUC {:.4}, PR-AUC {:.4}",
        eval::roc_auc(&scores, &labels),
        eval::pr_auc(&scores, &labels)
    );

    embeddings::save(&out, &embeddings::tables(&model, &graph)).map_err(|e| e.to_string())?;
    println!("wrote embeddings to {}", out.display());
    if let Some(path) = obs.finish().map_err(|e| e.to_string())? {
        println!("metrics written to {}", path.display());
    }
    Ok(())
}

fn cmd_recommend(flags: &Flags) -> Result<(), String> {
    let graph = load_graph(flags)?;
    let model_path: PathBuf = required(flags, "model")?.into();
    let node_id: u32 = required(flags, "node")?
        .trim_start_matches('n')
        .parse()
        .map_err(|_| "invalid --node id".to_string())?;
    let rel_name = required(flags, "relation")?;
    let k: usize = parsed(flags, "k", 10)?;

    if node_id as usize >= graph.num_nodes() {
        return Err(format!("node {node_id} out of range"));
    }
    let node = NodeId(node_id);
    let relation = graph
        .schema()
        .relation_id(rel_name)
        .ok_or_else(|| format!("unknown relation {rel_name:?}"))?;

    let tables = embeddings::load(&model_path)
        .map_err(|e| format!("loading {}: {e}", model_path.display()))?;
    if tables.len() != graph.schema().num_relations()
        || tables.iter().any(|t| t.rows() != graph.num_nodes())
    {
        return Err(format!(
            "embedding file {} does not match the graph's relations and nodes",
            model_path.display()
        ));
    }
    if tables.iter().any(|t| !t.all_finite()) {
        return Err(format!(
            "embedding file {} holds non-finite values",
            model_path.display()
        ));
    }
    let table = &tables[relation.index()];

    // Candidate targets: the node types observed opposite `node`'s type
    // under this relation (e.g. items for a user under page-view); all
    // other nodes if the relation carries no such evidence.
    let source_ty = graph.node_type(node);
    let mut target_types: Vec<NodeTypeId> = Vec::new();
    for (u, v) in graph.edges_in(relation).take(5000) {
        for (a, b) in [(u, v), (v, u)] {
            if graph.node_type(a) == source_ty && !target_types.contains(&graph.node_type(b)) {
                target_types.push(graph.node_type(b));
            }
        }
    }
    let source_row = table.row(node.index());
    let mut scored: Vec<(NodeId, f32)> = graph
        .nodes()
        .filter(|&v| v != node && !graph.has_edge(node, v, relation))
        .filter(|&v| target_types.is_empty() || target_types.contains(&graph.node_type(v)))
        .map(|v| {
            let dot: f32 = source_row
                .iter()
                .zip(table.row(v.index()))
                .map(|(a, b)| a * b)
                .sum();
            (v, dot)
        })
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1));

    println!("top-{k} {rel_name} recommendations for {node}:");
    for (rank, (v, score)) in scored.iter().take(k).enumerate() {
        println!(
            "  {:>2}. {v} ({})  score {score:+.4}",
            rank + 1,
            graph.schema().node_type_name(graph.node_type(*v))
        );
    }
    Ok(())
}

/// `graph-fsck`: verify every shard of a sharded store against its
/// checksums and manifest, optionally rebuilding corrupt shards in place
/// from a re-streamable edge source. Exits nonzero while any shard remains
/// corrupt, so the command doubles as a CI health check.
fn cmd_graph_fsck(flags: &Flags) -> Result<(), String> {
    let dir: PathBuf = required(flags, "dir")?.into();
    let repair: bool = parsed(flags, "repair", false)?;
    let mut store = ShardedCsr::open(&dir, ShardedCsrOptions::default())
        .map_err(|e| format!("opening {}: {e}", dir.display()))?;
    if let Some(path) = flags.get("source-graph") {
        let source = persist::load(PathBuf::from(path))
            .map_err(|e| format!("loading source graph {path}: {e}"))?;
        store = store.with_heal_source(Arc::new(source));
    } else if let Some(tier) = flags.get("source-tier") {
        if tier != "taobao" {
            return Err(format!("unknown --source-tier {tier:?} (only taobao)"));
        }
        let scale: f64 = parsed(flags, "scale", 1.0)?;
        let seed: u64 = parsed(flags, "seed", 2022)?;
        store = store.with_heal_source(Arc::new(SyntheticTier::taobao(scale, seed)));
    }

    let report = store.verify_all();
    println!(
        "graph-fsck: checked {} shard(s), {} corrupt",
        report.checked,
        report.corrupt.len()
    );
    for f in &report.corrupt {
        println!("  r{}-s{}: {}", f.relation, f.shard, f.error);
    }
    if report.is_clean() {
        println!("store is clean");
        return Ok(());
    }
    if !repair {
        return Err(format!(
            "{} corrupt shard(s); re-run with --repair true and a \
             --source-graph/--source-tier to rebuild them",
            report.corrupt.len()
        ));
    }
    let outcome = store.repair();
    for (r, s) in &outcome.repaired {
        println!("  repaired r{r}-s{s} (checksum re-verified from disk)");
    }
    for f in &outcome.failed {
        println!("  UNREPAIRED r{}-s{}: {}", f.relation, f.shard, f.error);
    }
    if outcome.is_complete() {
        println!("all corrupt shards repaired");
        Ok(())
    } else {
        Err(format!(
            "{} shard(s) could not be repaired (quarantine state: {:?})",
            outcome.failed.len(),
            store.quarantined()
        ))
    }
}

fn load_graph(flags: &Flags) -> Result<MultiplexGraph, String> {
    let path: PathBuf = required(flags, "graph")?.into();
    persist::load(&path).map_err(|e| format!("loading {}: {e}", path.display()))
}

/// Default shapes: every 3-hop `a-b-a` combination over connected type
/// pairs (covers the Table II shapes for all five generators).
fn default_shapes(graph: &MultiplexGraph) -> Vec<Vec<NodeTypeId>> {
    let schema = graph.schema();
    let mut connected: Vec<(NodeTypeId, NodeTypeId)> = Vec::new();
    for r in schema.relations() {
        for (u, v) in graph.edges_in(r).take(2000) {
            let (a, b) = (graph.node_type(u), graph.node_type(v));
            if !connected.contains(&(a, b)) {
                connected.push((a, b));
            }
            if !connected.contains(&(b, a)) {
                connected.push((b, a));
            }
        }
    }
    connected.into_iter().map(|(a, b)| vec![a, b, a]).collect()
}

fn parse_shapes(graph: &MultiplexGraph, spec: &str) -> Result<Vec<Vec<NodeTypeId>>, String> {
    spec.split(',')
        .map(|shape| {
            shape
                .split('-')
                .map(|ty| {
                    graph
                        .schema()
                        .node_type_id(ty)
                        .ok_or_else(|| format!("unknown node type {ty:?} in --shapes"))
                })
                .collect::<Result<Vec<_>, _>>()
        })
        .collect()
}

fn shapes_to_string(graph: &MultiplexGraph, shapes: &[Vec<NodeTypeId>]) -> String {
    shapes
        .iter()
        .map(|s| {
            s.iter()
                .map(|&t| graph.schema().node_type_name(t))
                .collect::<Vec<_>>()
                .join("-")
        })
        .collect::<Vec<_>>()
        .join(", ")
}
