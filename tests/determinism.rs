//! Determinism regression tests for the `mhg-train` pipeline.
//!
//! Two knobs must be purely throughput knobs, never semantics knobs:
//!
//! * the background sampler (double-buffered prefetch thread) — with the
//!   same seed, training with background sampling on and off must produce
//!   **byte-identical** embeddings. The pipeline guarantees this by
//!   deriving each epoch's sampler RNG from a per-run base seed
//!   (`epoch_seed`), independent of when the sampling actually executes;
//! * the `mhg-par` worker count (`MHG_THREADS`) — kernels partition work
//!   into fixed ranges and walk generation uses fixed shards with one
//!   derived sub-RNG each, so 1 thread and 4 threads must also produce
//!   byte-identical embeddings.
//!
//! Each test also pins a golden FNV-1a hash of the final embedding bits so
//! that *any* unintended change to the sampling order, seeding scheme or
//! numeric path fails loudly. If a PR changes the training pipeline's RNG
//! contract on purpose, re-pin the constants from the failure message.

use hybridgnn_repro::datasets::{DatasetKind, EdgeSplit};
use hybridgnn_repro::graph::MultiplexGraph;
use hybridgnn_repro::model::{HybridConfig, HybridGnn};
use hybridgnn_repro::models::{
    CommonConfig, DeepWalk, EmbeddingScores, FitData, Gatne, Gcn, GraphSage, Han, Line,
    LinkPredictor, Magnn, Node2Vec, RGcn,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over a stream of `u32` words (little-endian byte order).
fn fnv1a(words: impl Iterator<Item = u32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Hashes every embedding bit of `scores` over all nodes × relations.
fn hash_embeddings(scores: &EmbeddingScores, graph: &MultiplexGraph) -> u64 {
    let mut bits: Vec<u32> = Vec::new();
    for v in graph.nodes() {
        for r in graph.schema().relations() {
            bits.extend(scores.embedding(v, r).iter().map(|x| x.to_bits()));
        }
    }
    fnv1a(bits.into_iter())
}

fn deepwalk_hash(background: bool) -> u64 {
    let dataset = DatasetKind::Amazon.generate(0.006, 7);
    let mut rng = StdRng::seed_from_u64(7);
    let split = EdgeSplit::default_split(&dataset.graph, &mut rng);
    let mut cfg = CommonConfig::fast();
    cfg.epochs = 3;
    cfg.dim = 16;
    cfg.background_sampling = background;
    let mut model = DeepWalk::new(cfg);
    let data = FitData {
        graph: &split.train_graph,
        metapath_shapes: &dataset.metapath_shapes,
        val: &split.val,
    };
    let report = model.fit(&data, &mut rng).expect("fit must succeed");
    assert!(report.epochs_run > 0, "DeepWalk ran zero epochs");
    hash_embeddings(model.embedding_scores(), &split.train_graph)
}

fn hybridgnn_hash(background: bool) -> u64 {
    let dataset = DatasetKind::Amazon.generate(0.004, 9);
    let mut rng = StdRng::seed_from_u64(9);
    let split = EdgeSplit::default_split(&dataset.graph, &mut rng);
    let mut cfg = HybridConfig {
        common: CommonConfig::fast(),
        ..HybridConfig::default()
    };
    cfg.common.epochs = 2;
    cfg.common.dim = 16;
    cfg.common.background_sampling = background;
    let mut model = HybridGnn::new(cfg);
    let data = FitData {
        graph: &split.train_graph,
        metapath_shapes: &dataset.metapath_shapes,
        val: &split.val,
    };
    let report = model.fit(&data, &mut rng).expect("fit must succeed");
    assert!(report.epochs_run > 0, "HybridGNN ran zero epochs");
    let graph = &split.train_graph;
    let mut bits: Vec<u32> = Vec::new();
    for v in graph.nodes() {
        for r in graph.schema().relations() {
            bits.extend(model.embedding(v, r).iter().map(|x| x.to_bits()));
        }
    }
    fnv1a(bits.into_iter())
}

/// Pinned from the current pipeline; re-pin only on an intentional change
/// to the sampling/seeding contract. (Last re-pin: walk generation moved to
/// fixed shards with per-shard derived RNGs for the `mhg-par` pool.)
const DEEPWALK_GOLDEN: u64 = 0x3efb_bf03_adea_3a51;
const HYBRIDGNN_GOLDEN: u64 = 0x5ba1_2d5b_9c5c_91de;

/// Fits `model` on a small `kind` graph (`scale`, seed `seed`) and hashes
/// the score of every validation and test edge.
fn score_hash(model: &mut dyn LinkPredictor, kind: DatasetKind, scale: f64, seed: u64) -> u64 {
    let dataset = kind.generate(scale, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let split = EdgeSplit::default_split(&dataset.graph, &mut rng);
    let data = FitData {
        graph: &split.train_graph,
        metapath_shapes: &dataset.metapath_shapes,
        val: &split.val,
    };
    let report = model.fit(&data, &mut rng).expect("fit must succeed");
    assert!(report.epochs_run > 0, "{} ran zero epochs", model.name());
    let edges = split.val.iter().chain(&split.test);
    fnv1a(edges.map(|e| model.score(e.u, e.v, e.relation).to_bits()))
}

/// The fast config at 2 epochs and embedding dimension `dim`.
fn encoder_config(dim: usize) -> CommonConfig {
    let mut cfg = CommonConfig::fast();
    cfg.epochs = 2;
    cfg.dim = dim;
    cfg
}

/// R-GCN on a small Amazon graph: every step multiplies batch sides of
/// hundreds of rows by `dim × dim` relation weights, so unlike the two
/// recipes above it runs the register-tiled GEMM path (and its tile
/// edges: `dim` 20 is not a multiple of the tile width).
fn rgcn_hash() -> u64 {
    score_hash(
        &mut RGcn::new(encoder_config(20)),
        DatasetKind::Amazon,
        0.01,
        11,
    )
}

/// Pinned before the GEMM kernels were rewritten; a kernel change that
/// reassociates any dot product fails here.
const RGCN_GOLDEN: u64 = 0xf7b7_0acc_5496_768f;

/// The other four GNN encoder baselines, each on the recipe of
/// [`rgcn_hash`]: GCN and GraphSage on Amazon, HAN and MAGNN on IMDB
/// (whose metapath shapes give them several schemes per node). Every graph
/// has more nodes than the model's inference chunk, so the full-graph
/// snapshot spans several tapes. A change that reorders any op on their
/// tapes, any RNG draw, or the parameter registration order fails here.
fn gcn_hash() -> u64 {
    score_hash(
        &mut Gcn::new(encoder_config(20)),
        DatasetKind::Amazon,
        0.03,
        11,
    )
}

fn graphsage_hash() -> u64 {
    score_hash(
        &mut GraphSage::new(encoder_config(16)),
        DatasetKind::Amazon,
        0.015,
        12,
    )
}

fn han_hash() -> u64 {
    score_hash(
        &mut Han::new(encoder_config(16)),
        DatasetKind::Imdb,
        0.02,
        16,
    )
}

fn magnn_hash() -> u64 {
    score_hash(
        &mut Magnn::new(encoder_config(16)),
        DatasetKind::Imdb,
        0.02,
        20,
    )
}

/// Pinned before the five encoders moved onto one shared training step.
const GCN_GOLDEN: u64 = 0xd29d_b0b2_997f_b3b2;
const GRAPHSAGE_GOLDEN: u64 = 0xfc95_564c_2ecc_8465;
const HAN_GOLDEN: u64 = 0xf981_1875_2205_5bb3;
const MAGNN_GOLDEN: u64 = 0x76bf_c475_892b_cdac;

/// node2vec on a small Amazon graph: its second-order walks draw from the
/// `p`/`q`-biased transition, so a change to the bias or to the walker's
/// RNG draws fails here.
fn node2vec_hash() -> u64 {
    score_hash(
        &mut Node2Vec::new(encoder_config(16)),
        DatasetKind::Amazon,
        0.01,
        13,
    )
}

/// Pinned before the bias parameters became constants of `Node2Vec::new`.
const NODE2VEC_GOLDEN: u64 = 0x4823_f519_dc3b_443d;

/// GATNE on a small Amazon graph: relation-restricted walks, the
/// per-relation attention forward and the context-table decoder.
fn gatne_hash() -> u64 {
    score_hash(
        &mut Gatne::new(encoder_config(16)),
        DatasetKind::Amazon,
        0.004,
        14,
    )
}

/// LINE on a small Amazon graph: edge sampling, the hand-rolled
/// first-order update and the SGNS second-order half. Its validation AUC
/// peaks at the second of three epochs, so the hash is of the kept best
/// snapshot, not of the last epoch.
fn line_hash() -> u64 {
    let mut cfg = encoder_config(16);
    cfg.epochs = 3;
    score_hash(&mut Line::new(cfg), DatasetKind::Amazon, 0.01, 15)
}

/// Pinned before the best-validation snapshot moved from the model steps
/// into the training loop.
const GATNE_GOLDEN: u64 = 0xfd6a_537a_0525_04fc;
const LINE_GOLDEN: u64 = 0x4103_0661_0dde_224e;

/// FNV-1a over raw bytes (for hashing a rendered `metrics.jsonl`).
fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The [`hybridgnn_hash`] recipe instrumented with a deterministic fake
/// clock (`Obs::deterministic`, 1ms per reading); returns the rendered
/// `metrics.jsonl` text instead of the embedding hash.
fn hybridgnn_metrics_jsonl(background: bool) -> String {
    let dataset = DatasetKind::Amazon.generate(0.004, 9);
    let mut rng = StdRng::seed_from_u64(9);
    let split = EdgeSplit::default_split(&dataset.graph, &mut rng);
    let mut cfg = HybridConfig {
        common: CommonConfig::fast(),
        ..HybridConfig::default()
    };
    cfg.common.epochs = 2;
    cfg.common.dim = 16;
    cfg.common.background_sampling = background;
    let obs = hybridgnn_repro::obs::Obs::deterministic(1_000_000);
    cfg.common.obs = obs.clone();
    let mut model = HybridGnn::new(cfg);
    let data = FitData {
        graph: &split.train_graph,
        metapath_shapes: &dataset.metapath_shapes,
        val: &split.val,
    };
    let report = model.fit(&data, &mut rng).expect("fit must succeed");
    assert!(report.epochs_run > 0, "HybridGNN ran zero epochs");
    obs.render_jsonl()
}

/// Pinned from the 2-epoch HybridGNN run above under the fake clock; the
/// rendered metrics.jsonl contains only durations (never absolute
/// timestamps) and is recorded from deterministic coordinating threads, so
/// it must be byte-identical across reruns, `MHG_THREADS` values, and the
/// background-sampling toggle. Re-pin only when the instrumentation schema
/// changes on purpose.
const METRICS_GOLDEN: u64 = 0xc3ca_b3bd_c0fc_f6dc;

/// A fresh, empty checkpoint directory unique to `tag` (and this process).
fn fresh_ckpt_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mhg_resume_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// DeepWalk trained as two processes would run it: fit 1 of 3 epochs with
/// checkpointing on, drop everything, then a *fresh* model — seeded with an
/// unrelated RNG — resumes from the checkpoint directory and finishes the
/// 3-epoch budget. Must hash identically to the uninterrupted run.
fn deepwalk_split_hash(background: bool, tag: &str) -> u64 {
    let dir = fresh_ckpt_dir(tag);
    let configure = |epochs: usize, resume: bool| {
        let mut cfg = CommonConfig::fast();
        cfg.epochs = epochs;
        cfg.dim = 16;
        cfg.background_sampling = background;
        cfg.checkpoint_every = 1;
        cfg.checkpoint_dir = Some(dir.clone());
        cfg.resume = resume;
        cfg
    };
    // Phase 1: the "crashed" run — 1 epoch, checkpointed.
    {
        let dataset = DatasetKind::Amazon.generate(0.006, 7);
        let mut rng = StdRng::seed_from_u64(7);
        let split = EdgeSplit::default_split(&dataset.graph, &mut rng);
        let mut model = DeepWalk::new(configure(1, false));
        let data = FitData {
            graph: &split.train_graph,
            metapath_shapes: &dataset.metapath_shapes,
            val: &split.val,
        };
        model
            .fit(&data, &mut rng)
            .expect("phase-1 fit must succeed");
    }
    // Phase 2: a fresh model resumes; its own RNG seed (999) must be
    // irrelevant because the checkpoint restores the full loop state.
    let dataset = DatasetKind::Amazon.generate(0.006, 7);
    let mut split_rng = StdRng::seed_from_u64(7);
    let split = EdgeSplit::default_split(&dataset.graph, &mut split_rng);
    let mut model = DeepWalk::new(configure(3, true));
    let data = FitData {
        graph: &split.train_graph,
        metapath_shapes: &dataset.metapath_shapes,
        val: &split.val,
    };
    let mut rng = StdRng::seed_from_u64(999);
    let report = model
        .fit(&data, &mut rng)
        .expect("resumed fit must succeed");
    assert_eq!(
        report.recovery.resumed_from,
        Some(1),
        "resume must pick up after the checkpointed epoch"
    );
    let hash = hash_embeddings(model.embedding_scores(), &split.train_graph);
    let _ = std::fs::remove_dir_all(&dir);
    hash
}

/// HybridGNN variant of [`deepwalk_split_hash`]: 1 of 2 epochs, then resume.
fn hybridgnn_split_hash(background: bool, tag: &str) -> u64 {
    let dir = fresh_ckpt_dir(tag);
    let configure = |epochs: usize, resume: bool| {
        let mut cfg = HybridConfig {
            common: CommonConfig::fast(),
            ..HybridConfig::default()
        };
        cfg.common.epochs = epochs;
        cfg.common.dim = 16;
        cfg.common.background_sampling = background;
        cfg.common.checkpoint_every = 1;
        cfg.common.checkpoint_dir = Some(dir.clone());
        cfg.common.resume = resume;
        cfg
    };
    {
        let dataset = DatasetKind::Amazon.generate(0.004, 9);
        let mut rng = StdRng::seed_from_u64(9);
        let split = EdgeSplit::default_split(&dataset.graph, &mut rng);
        let mut model = HybridGnn::new(configure(1, false));
        let data = FitData {
            graph: &split.train_graph,
            metapath_shapes: &dataset.metapath_shapes,
            val: &split.val,
        };
        model
            .fit(&data, &mut rng)
            .expect("phase-1 fit must succeed");
    }
    let dataset = DatasetKind::Amazon.generate(0.004, 9);
    let mut split_rng = StdRng::seed_from_u64(9);
    let split = EdgeSplit::default_split(&dataset.graph, &mut split_rng);
    let mut model = HybridGnn::new(configure(2, true));
    let data = FitData {
        graph: &split.train_graph,
        metapath_shapes: &dataset.metapath_shapes,
        val: &split.val,
    };
    let mut rng = StdRng::seed_from_u64(999);
    let report = model
        .fit(&data, &mut rng)
        .expect("resumed fit must succeed");
    assert_eq!(report.recovery.resumed_from, Some(1));
    let graph = &split.train_graph;
    let mut bits: Vec<u32> = Vec::new();
    for v in graph.nodes() {
        for r in graph.schema().relations() {
            bits.extend(model.embedding(v, r).iter().map(|x| x.to_bits()));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    fnv1a(bits.into_iter())
}

#[test]
fn hybridgnn_metrics_jsonl_is_byte_identical_across_threads_and_modes() {
    // Fault injection rewrites the event stream (nan_rollback / retry
    // events) by design; the golden only holds on the clean path.
    if hybridgnn_repro::faults::is_active() {
        return;
    }
    let base = hybridgnn_repro::par::with_threads(1, || hybridgnn_metrics_jsonl(false));
    assert!(
        base.lines().any(|l| l.contains("\"event\":\"epoch\"")),
        "metrics.jsonl must contain per-epoch events:\n{base}"
    );
    assert!(
        !base.contains("\"loss\":null"),
        "non-finite loss leaked into the golden run:\n{base}"
    );
    for (threads, background) in [(1, true), (4, false), (4, true)] {
        let other =
            hybridgnn_repro::par::with_threads(threads, || hybridgnn_metrics_jsonl(background));
        assert_eq!(
            base, other,
            "metrics.jsonl changed under threads={threads}, background={background}"
        );
    }
    let rerun = hybridgnn_repro::par::with_threads(1, || hybridgnn_metrics_jsonl(false));
    assert_eq!(base, rerun, "metrics.jsonl not reproducible across reruns");
    assert_eq!(
        fnv1a_bytes(base.as_bytes()),
        METRICS_GOLDEN,
        "metrics.jsonl drifted from the golden hash: got {:#018x}\n{base}",
        fnv1a_bytes(base.as_bytes())
    );
}

#[test]
fn deepwalk_is_bit_identical_with_and_without_background_sampling() {
    let inline = deepwalk_hash(false);
    let background = deepwalk_hash(true);
    assert_eq!(
        inline, background,
        "background sampling changed DeepWalk's result: inline {inline:#018x} vs background {background:#018x}"
    );
    assert_eq!(
        inline, DEEPWALK_GOLDEN,
        "DeepWalk embeddings drifted from the golden hash: got {inline:#018x}"
    );
}

#[test]
fn hybridgnn_is_bit_identical_with_and_without_background_sampling() {
    let inline = hybridgnn_hash(false);
    let background = hybridgnn_hash(true);
    assert_eq!(
        inline, background,
        "background sampling changed HybridGNN's result: inline {inline:#018x} vs background {background:#018x}"
    );
    assert_eq!(
        inline, HYBRIDGNN_GOLDEN,
        "HybridGNN embeddings drifted from the golden hash: got {inline:#018x}"
    );
}

#[test]
fn deepwalk_resume_is_bit_identical_to_uninterrupted_run() {
    for background in [false, true] {
        let split_run = deepwalk_split_hash(background, &format!("dw_bg{background}"));
        assert_eq!(
            split_run, DEEPWALK_GOLDEN,
            "checkpoint/resume changed DeepWalk's result (background={background}): \
             got {split_run:#018x}"
        );
    }
}

#[test]
fn hybridgnn_resume_is_bit_identical_to_uninterrupted_run() {
    for background in [false, true] {
        let split_run = hybridgnn_split_hash(background, &format!("hy_bg{background}"));
        assert_eq!(
            split_run, HYBRIDGNN_GOLDEN,
            "checkpoint/resume changed HybridGNN's result (background={background}): \
             got {split_run:#018x}"
        );
    }
}

#[test]
fn resume_is_bit_identical_across_thread_counts() {
    let dw_one = hybridgnn_repro::par::with_threads(1, || deepwalk_split_hash(true, "dw_t1"));
    let dw_four = hybridgnn_repro::par::with_threads(4, || deepwalk_split_hash(true, "dw_t4"));
    assert_eq!(dw_one, DEEPWALK_GOLDEN, "1-thread resume drifted");
    assert_eq!(dw_four, DEEPWALK_GOLDEN, "4-thread resume drifted");
    let hy_one = hybridgnn_repro::par::with_threads(1, || hybridgnn_split_hash(true, "hy_t1"));
    let hy_four = hybridgnn_repro::par::with_threads(4, || hybridgnn_split_hash(true, "hy_t4"));
    assert_eq!(hy_one, HYBRIDGNN_GOLDEN, "1-thread resume drifted");
    assert_eq!(hy_four, HYBRIDGNN_GOLDEN, "4-thread resume drifted");
}

#[test]
fn deepwalk_is_bit_identical_across_thread_counts() {
    let one = hybridgnn_repro::par::with_threads(1, || deepwalk_hash(true));
    let four = hybridgnn_repro::par::with_threads(4, || deepwalk_hash(true));
    assert_eq!(
        one, four,
        "thread count changed DeepWalk's result: 1 thread {one:#018x} vs 4 threads {four:#018x}"
    );
    assert_eq!(
        one, DEEPWALK_GOLDEN,
        "DeepWalk embeddings drifted from the golden hash under the thread matrix: got {one:#018x}"
    );
}

#[test]
fn hybridgnn_is_bit_identical_across_thread_counts() {
    let one = hybridgnn_repro::par::with_threads(1, || hybridgnn_hash(true));
    let four = hybridgnn_repro::par::with_threads(4, || hybridgnn_hash(true));
    assert_eq!(
        one, four,
        "thread count changed HybridGNN's result: 1 thread {one:#018x} vs 4 threads {four:#018x}"
    );
    assert_eq!(
        one, HYBRIDGNN_GOLDEN,
        "HybridGNN embeddings drifted from the golden hash under the thread matrix: got {one:#018x}"
    );
}

/// The [`hybridgnn_hash`] recipe with `configure` applied, on `kind`: hashes
/// the final embeddings and then the attention profile (per relation its
/// entry count, per entry the label's bytes and the mass's bits), so a
/// change to any flow, either attention level, the Eq. 10 projection or
/// the Fig. 4 export fails here.
fn hybridgnn_variant_hash(kind: DatasetKind, configure: fn(&mut HybridConfig)) -> u64 {
    let dataset = kind.generate(0.004, 9);
    let mut rng = StdRng::seed_from_u64(9);
    let split = EdgeSplit::default_split(&dataset.graph, &mut rng);
    let mut cfg = HybridConfig::fast();
    cfg.common.epochs = 2;
    cfg.common.dim = 16;
    configure(&mut cfg);
    let mut model = HybridGnn::new(cfg);
    let data = FitData {
        graph: &split.train_graph,
        metapath_shapes: &dataset.metapath_shapes,
        val: &split.val,
    };
    let report = model.fit(&data, &mut rng).expect("fit must succeed");
    assert!(report.epochs_run > 0, "HybridGNN ran zero epochs");
    let graph = &split.train_graph;
    let mut words: Vec<u32> = Vec::new();
    for v in graph.nodes() {
        for r in graph.schema().relations() {
            words.extend(model.embedding(v, r).iter().map(|x| x.to_bits()));
        }
    }
    for rel in model.attention_profile() {
        words.push(rel.len() as u32);
        for (label, mass) in rel {
            words.extend(label.bytes().map(u32::from));
            let bits = mass.to_bits();
            words.extend([(bits >> 32) as u32, bits as u32]);
        }
    }
    fnv1a(words.into_iter())
}

/// One HybridGNN variant: a name, what it changes, and its golden hash.
type Variant = (&'static str, fn(&mut HybridConfig), DatasetKind, u64);

/// Each ablation switch of Table VIII off, the exploration depths either
/// side of the default 2, the default config on a two-node-type graph
/// (Taobao: user and item, so only some metapath shapes start at a node),
/// and the default config itself, whose attention profile
/// [`HYBRIDGNN_GOLDEN`] does not cover.
/// Pinned before the HybridGNN step moved onto batched tape nodes.
const HYBRIDGNN_VARIANTS: [Variant; 8] = [
    (
        "w/o metapath attention",
        |c| c.use_metapath_attention = false,
        DatasetKind::Amazon,
        0x16b1_134c_3cf2_4ad3,
    ),
    (
        "w/o relationship attention",
        |c| c.use_relationship_attention = false,
        DatasetKind::Amazon,
        0xe90f_c51e_15b1_90d8,
    ),
    (
        "w/o randomized exploration",
        |c| c.use_randomized_exploration = false,
        DatasetKind::Amazon,
        0x3e21_9ef5_7eb1_1481,
    ),
    (
        "w/o hybrid flows",
        |c| c.use_hybrid_flows = false,
        DatasetKind::Amazon,
        0x8e5c_e6ae_aa1b_2630,
    ),
    (
        "exploration depth 1",
        |c| c.exploration_depth = 1,
        DatasetKind::Amazon,
        0xd1e7_6724_d4bb_7ee7,
    ),
    (
        "exploration depth 3",
        |c| c.exploration_depth = 3,
        DatasetKind::Amazon,
        0xc569_575d_edd0_6e5c,
    ),
    ("Taobao", |_| {}, DatasetKind::Taobao, 0xfaef_73b1_6270_4a2b),
    (
        "default",
        |_| {},
        DatasetKind::Amazon,
        0x8e66_13be_63d1_7e49,
    ),
];

#[test]
fn hybridgnn_variants_are_bit_identical_across_thread_counts() {
    let mut drifted = Vec::new();
    for (name, configure, kind, golden) in HYBRIDGNN_VARIANTS {
        let one = hybridgnn_repro::par::with_threads(1, || hybridgnn_variant_hash(kind, configure));
        let four =
            hybridgnn_repro::par::with_threads(4, || hybridgnn_variant_hash(kind, configure));
        assert_eq!(
            one, four,
            "thread count changed HybridGNN ({name})'s result: 1 thread {one:#018x} vs 4 threads {four:#018x}"
        );
        if one != golden {
            drifted.push(format!("{name}: got {one:#018x}, pinned {golden:#018x}"));
        }
    }
    assert!(
        drifted.is_empty(),
        "HybridGNN variants drifted from their golden hashes:\n{}",
        drifted.join("\n")
    );
}

/// Runs `recipe` at 1 and 4 worker threads; both must hash to `golden`.
fn assert_golden_across_thread_counts(name: &str, recipe: fn() -> u64, golden: u64) {
    let one = hybridgnn_repro::par::with_threads(1, recipe);
    let four = hybridgnn_repro::par::with_threads(4, recipe);
    assert_eq!(
        one, four,
        "thread count changed {name}'s result: 1 thread {one:#018x} vs 4 threads {four:#018x}"
    );
    assert_eq!(
        one, golden,
        "{name} scores drifted from the golden hash: got {one:#018x}"
    );
}

#[test]
fn rgcn_is_bit_identical_across_thread_counts() {
    assert_golden_across_thread_counts("R-GCN", rgcn_hash, RGCN_GOLDEN);
}

#[test]
fn gcn_is_bit_identical_across_thread_counts() {
    assert_golden_across_thread_counts("GCN", gcn_hash, GCN_GOLDEN);
}

#[test]
fn graphsage_is_bit_identical_across_thread_counts() {
    assert_golden_across_thread_counts("GraphSage", graphsage_hash, GRAPHSAGE_GOLDEN);
}

#[test]
fn han_is_bit_identical_across_thread_counts() {
    assert_golden_across_thread_counts("HAN", han_hash, HAN_GOLDEN);
}

#[test]
fn magnn_is_bit_identical_across_thread_counts() {
    assert_golden_across_thread_counts("MAGNN", magnn_hash, MAGNN_GOLDEN);
}

#[test]
fn node2vec_is_bit_identical_across_thread_counts() {
    assert_golden_across_thread_counts("node2vec", node2vec_hash, NODE2VEC_GOLDEN);
}

#[test]
fn gatne_is_bit_identical_across_thread_counts() {
    assert_golden_across_thread_counts("GATNE", gatne_hash, GATNE_GOLDEN);
}

#[test]
fn line_is_bit_identical_across_thread_counts() {
    assert_golden_across_thread_counts("LINE", line_hash, LINE_GOLDEN);
}
