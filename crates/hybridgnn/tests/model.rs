//! End-to-end tests for the HybridGNN model: learnability, ablations, and
//! the inter-relationship uplift mechanism.

use hybridgnn::{HybridConfig, HybridGnn};
use mhg_datasets::{DatasetKind, EdgeSplit};
use mhg_models::{evaluate, FitData, LinkPredictor};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fit_and_auc(cfg: HybridConfig, kind: DatasetKind, scale: f64, seed: u64) -> (HybridGnn, f64) {
    let dataset = kind.generate(scale, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xabc);
    let split = EdgeSplit::default_split(&dataset.graph, &mut rng);
    let mut model = HybridGnn::new(cfg);
    let data = FitData {
        graph: &split.train_graph,
        metapath_shapes: &dataset.metapath_shapes,
        val: &split.val,
    };
    model.fit(&data, &mut rng).expect("fit must succeed");
    let auc = evaluate(&model, &split.test).roc_auc;
    (model, auc)
}

#[test]
fn learns_taobao_structure() {
    let mut cfg = HybridConfig::fast();
    cfg.common.epochs = 15;
    cfg.common.patience = 8;
    let (_, auc) = fit_and_auc(cfg, DatasetKind::Taobao, 0.015, 31);
    assert!(auc > 0.55, "HybridGNN failed to learn: auc {auc}");
}

#[test]
fn learns_amazon_structure() {
    let mut cfg = HybridConfig::fast();
    cfg.common.epochs = 8;
    let (_, auc) = fit_and_auc(cfg, DatasetKind::Amazon, 0.008, 32);
    assert!(auc > 0.6, "HybridGNN failed to learn: auc {auc}");
}

#[test]
fn attention_profile_populated() {
    let mut cfg = HybridConfig::fast();
    cfg.common.epochs = 2;
    let (model, _) = fit_and_auc(cfg, DatasetKind::Taobao, 0.006, 33);
    let profile = model.attention_profile();
    assert_eq!(profile.len(), 4, "one entry per relation");
    for rel in profile {
        assert!(!rel.is_empty(), "no attention observations");
        for (label, mass) in rel {
            assert!(
                (0.0..=1.0).contains(mass),
                "attention mass {mass} for {label} out of range"
            );
        }
        // The random-exploration flow must appear by default.
        assert!(rel.iter().any(|(l, _)| l == "random"), "{rel:?}");
    }
}

#[test]
fn all_ablations_run_and_learn_something() {
    for (name, cfg) in [
        (
            "w/o metapath attn",
            HybridConfig::fast().without_metapath_attention(),
        ),
        (
            "w/o relationship attn",
            HybridConfig::fast().without_relationship_attention(),
        ),
        (
            "w/o randomized",
            HybridConfig::fast().without_randomized_exploration(),
        ),
        (
            "w/o hybrid flows",
            HybridConfig::fast().without_hybrid_flows(),
        ),
    ] {
        let mut cfg = cfg;
        cfg.common.epochs = 6;
        let (_, auc) = fit_and_auc(cfg, DatasetKind::Taobao, 0.01, 34);
        assert!(auc > 0.5, "{name}: auc {auc}");
    }
}

#[test]
fn exploration_depths_all_work() {
    for depth in 1..=3 {
        let mut cfg = HybridConfig::fast();
        cfg.common.epochs = 3;
        cfg.exploration_depth = depth;
        let (_, auc) = fit_and_auc(cfg, DatasetKind::Amazon, 0.006, 35);
        assert!(auc > 0.5, "depth {depth}: auc {auc}");
    }
}

#[test]
fn relation_specific_embeddings_differ() {
    let mut cfg = HybridConfig::fast();
    cfg.common.epochs = 3;
    let (model, _) = fit_and_auc(cfg, DatasetKind::Taobao, 0.006, 37);
    // Same node, two relations: the multiplex representations must not be
    // identical (Eq. 10 applies a per-relation projection).
    use mhg_graph::{NodeId, RelationId};
    let a = model.embedding(NodeId(0), RelationId(0)).to_vec();
    let b = model.embedding(NodeId(0), RelationId(1)).to_vec();
    assert_ne!(a, b);
}
