//! Diagnostic driver: fits each baseline on a tiny synthetic dataset and
//! prints per-model ROC-AUC, for quick eyeballing during development.

use mhg_datasets::{DatasetKind, EdgeSplit};
use mhg_models::*;
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let which = args.get(1).map(|s| s.as_str()).unwrap_or("gcn");
    let scale: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(0.01);
    let epochs: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(15);
    let ds = args.get(4).map(|s| s.as_str()).unwrap_or("Amazon");
    let dataset = DatasetKind::parse(ds).unwrap().generate(scale, 10);
    println!(
        "{} nodes {} edges",
        dataset.graph.num_nodes(),
        dataset.graph.num_edges()
    );
    let mut rng = StdRng::seed_from_u64(11);
    let split = EdgeSplit::default_split(&dataset.graph, &mut rng);
    let mut cfg = CommonConfig::fast();
    cfg.epochs = epochs;
    cfg.patience = 100;
    let mut model: Box<dyn LinkPredictor> = match which {
        "gcn" => Box::new(Gcn::new(cfg)),
        "sage" => Box::new(GraphSage::new(cfg)),
        "rgcn" => Box::new(RGcn::new(cfg)),
        "magnn" => Box::new(Magnn::new(cfg)),
        "gatne" => Box::new(Gatne::new(cfg)),
        "han" => Box::new(Han::new(cfg)),
        _ => panic!(),
    };
    let data = FitData {
        graph: &split.train_graph,
        metapath_shapes: &dataset.metapath_shapes,
        val: &split.val,
    };
    #[expect(clippy::disallowed_methods, reason = "a dev driver timing itself")]
    let t0 = std::time::Instant::now();
    let report = model.fit(&data, &mut rng).expect("fit must succeed");
    let m = evaluate(model.as_ref(), &split.test);
    println!(
        "{}: epochs {} loss {:.4} best_val {:.4} test_auc {:.4} ({:?})",
        which,
        report.epochs_run,
        report.final_loss,
        report.best_val_auc,
        m.roc_auc,
        t0.elapsed()
    );
}
