//! End-to-end fault-injection suite: every model in the zoo must survive a
//! combined fault plan (background-sampler panic + NaN epoch loss) and still
//! produce a valid training report, and the recovery machinery must keep
//! faulted runs bit-identical to clean runs.
//!
//! All tests hold [`hybridgnn_repro::faults::test_guard`] because the fault
//! plan and its occurrence counters are process-global.
#![expect(clippy::disallowed_methods, reason = "tests damage files on purpose")]

use hybridgnn_repro::datasets::{DatasetKind, EdgeSplit};
use hybridgnn_repro::faults::{self, FaultPlan, FaultSite};
use hybridgnn_repro::model::{HybridConfig, HybridGnn};
use hybridgnn_repro::models::{
    CommonConfig, DeepWalk, FitData, Gatne, Gcn, GraphSage, Han, Line, LinkPredictor, Magnn,
    Node2Vec, RGcn, TrainError, TrainReport,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Tiny shared training config: 2 epochs, dim 8, background sampling on so
/// the sampler-panic site is actually exercised.
fn tiny_common() -> CommonConfig {
    let mut cfg = CommonConfig::fast();
    cfg.epochs = 2;
    cfg.dim = 8;
    cfg.background_sampling = true;
    cfg
}

/// The full ten-model zoo under the tiny config, in paper order.
fn tiny_zoo() -> Vec<Box<dyn LinkPredictor>> {
    let c = tiny_common();
    vec![
        Box::new(DeepWalk::new(c.clone())),
        Box::new(Node2Vec::new(c.clone())),
        Box::new(Line::new(c.clone())),
        Box::new(Gcn::new(c.clone())),
        Box::new(GraphSage::new(c.clone())),
        Box::new(Han::new(c.clone())),
        Box::new(Magnn::new(c.clone())),
        Box::new(RGcn::new(c.clone())),
        Box::new(Gatne::new(c.clone())),
        Box::new(HybridGnn::new(HybridConfig {
            common: c,
            ..HybridConfig::default()
        })),
    ]
}

/// Fits `model` on a small Amazon-style graph and returns its report.
fn fit_tiny(model: &mut dyn LinkPredictor, seed: u64) -> Result<TrainReport, TrainError> {
    let dataset = DatasetKind::Amazon.generate(0.004, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let split = EdgeSplit::default_split(&dataset.graph, &mut rng);
    let data = FitData {
        graph: &split.train_graph,
        metapath_shapes: &dataset.metapath_shapes,
        val: &split.val,
    };
    model.fit(&data, &mut rng)
}

#[test]
fn every_model_survives_sampler_panic_and_nan_loss() {
    let _guard = faults::test_guard();
    for model in tiny_zoo().iter_mut() {
        faults::install(
            FaultPlan::new()
                .inject(FaultSite::SamplerPanic, 1)
                .inject(FaultSite::NanLoss, 1),
        );
        let report = fit_tiny(model.as_mut(), 5)
            .unwrap_or_else(|e| panic!("{} died under the fault plan: {e}", model.name()));
        let fired = faults::fired();
        faults::clear();
        assert!(
            report.epochs_run > 0,
            "{} ran zero epochs under faults",
            model.name()
        );
        assert!(
            fired.contains(&(FaultSite::SamplerPanic, 1)),
            "{}: sampler panic never fired (site not exercised)",
            model.name()
        );
        assert!(
            fired.contains(&(FaultSite::NanLoss, 1)),
            "{}: NaN loss never fired (site not exercised)",
            model.name()
        );
        assert!(
            report.recovery.sampler_fallbacks >= 1,
            "{}: sampler panic fired but no inline fallback was recorded",
            model.name()
        );
        assert!(
            report.recovery.nan_rollbacks >= 1,
            "{}: NaN loss fired but no rollback was recorded",
            model.name()
        );
    }
}

/// Runs `fit` once clean and once under a sampler panic plus a NaN loss
/// in the second epoch, returning both results.
fn clean_and_faulted<T>(fit: impl Fn() -> T) -> (T, T) {
    faults::clear();
    let clean = fit();
    faults::install(
        FaultPlan::new()
            .inject(FaultSite::SamplerPanic, 1)
            .inject(FaultSite::NanLoss, 2),
    );
    let faulted = fit();
    faults::clear();
    (clean, faulted)
}

/// A faulted run must end in exactly the same place as a clean run: the
/// inline fallback replays the same epoch and the NaN rollback restores the
/// exact pre-epoch state before the deterministic re-run. DeepWalk restores
/// raw embedding tables; R-GCN restores its encoder parameters and the
/// scoring snapshot with its DistMult relation diagonals.
#[test]
fn faulted_run_is_bit_identical_to_clean_run() {
    let _guard = faults::test_guard();
    let split = || {
        let dataset = DatasetKind::Amazon.generate(0.004, 11);
        let mut rng = StdRng::seed_from_u64(11);
        EdgeSplit::default_split(&dataset.graph, &mut rng)
    };
    let (clean, faulted) = clean_and_faulted(|| {
        let mut model = DeepWalk::new(tiny_common());
        fit_tiny(&mut model, 11).expect("fit must succeed");
        let split = split();
        let graph = &split.train_graph;
        let mut bits: Vec<u32> = Vec::new();
        for v in graph.nodes() {
            for r in graph.schema().relations() {
                bits.extend(
                    model
                        .embedding_scores()
                        .embedding(v, r)
                        .iter()
                        .map(|x| x.to_bits()),
                );
            }
        }
        bits
    });
    assert_eq!(
        clean, faulted,
        "fault recovery changed DeepWalk's final embeddings bit-for-bit"
    );
    let (clean, faulted) = clean_and_faulted(|| {
        let mut model = RGcn::new(tiny_common());
        let report = fit_tiny(&mut model, 11).expect("fit must succeed");
        let split = split();
        let edges = split.val.iter().chain(&split.test);
        let bits: Vec<u32> = edges
            .map(|e| model.score(e.u, e.v, e.relation).to_bits())
            .collect();
        (bits, report.recovery.nan_rollbacks)
    });
    assert!(faulted.1 >= 1, "R-GCN: no NaN rollback was recorded");
    assert_eq!(
        clean.0, faulted.0,
        "fault recovery changed R-GCN's final scores bit-for-bit"
    );
}

/// An injected write failure during checkpointing is absorbed by the bounded
/// retry; the run completes and the directory still resumes cleanly.
#[test]
fn checkpoint_write_fault_is_retried_and_training_completes() {
    let _guard = faults::test_guard();
    let dir = std::env::temp_dir().join(format!("mhg_fault_iowrite_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    faults::install(FaultPlan::new().inject(FaultSite::IoWrite, 1));
    let mut cfg = tiny_common();
    cfg.checkpoint_every = 1;
    cfg.checkpoint_dir = Some(dir.clone());
    let mut model = DeepWalk::new(cfg.clone());
    let report = fit_tiny(&mut model, 13).expect("write fault must be retried, not fatal");
    assert!(faults::fired().contains(&(FaultSite::IoWrite, 1)));
    faults::clear();
    assert!(report.epochs_run > 0);
    // The surviving checkpoints must still be loadable: a resumed run over
    // the same directory restores instead of restarting.
    cfg.resume = true;
    let mut resumed = DeepWalk::new(cfg);
    let resumed_report = fit_tiny(&mut resumed, 13).expect("resume after write fault");
    assert!(resumed_report.recovery.resumed_from.is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

/// An injected read failure while restoring surfaces as a typed checkpoint
/// error — never a panic.
#[test]
fn checkpoint_read_fault_on_resume_is_a_typed_error() {
    let _guard = faults::test_guard();
    let dir = std::env::temp_dir().join(format!("mhg_fault_ioread_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = tiny_common();
    cfg.checkpoint_every = 1;
    cfg.checkpoint_dir = Some(dir.clone());
    let mut model = DeepWalk::new(cfg.clone());
    fit_tiny(&mut model, 17).expect("seed run must succeed");
    faults::install(FaultPlan::new().inject(FaultSite::IoRead, 1));
    cfg.resume = true;
    let mut resumed = DeepWalk::new(cfg);
    let err = fit_tiny(&mut resumed, 17).expect_err("injected read fault must surface");
    faults::clear();
    assert!(
        matches!(err, TrainError::Checkpoint(_)),
        "expected a typed checkpoint error, got: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupt checkpoint on disk (torn write, bit rot) surfaces as a typed
/// error on resume — never a panic, never silent acceptance.
#[test]
fn corrupt_checkpoint_file_on_resume_is_a_typed_error() {
    let _guard = faults::test_guard();
    let dir = std::env::temp_dir().join(format!("mhg_fault_corrupt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = tiny_common();
    cfg.checkpoint_every = 1;
    cfg.checkpoint_dir = Some(dir.clone());
    let mut model = DeepWalk::new(cfg.clone());
    fit_tiny(&mut model, 19).expect("seed run must succeed");
    // Corrupt the newest checkpoint: flip bytes in the middle of the file.
    let newest = std::fs::read_dir(&dir)
        .expect("checkpoint dir must exist")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "mhgc"))
        .max()
        .expect("at least one checkpoint must exist");
    let mut bytes = std::fs::read(&newest).expect("read checkpoint");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&newest, &bytes).expect("corrupt checkpoint");
    cfg.resume = true;
    let mut resumed = DeepWalk::new(cfg);
    let err = fit_tiny(&mut resumed, 19).expect_err("corrupt checkpoint must surface");
    assert!(
        matches!(err, TrainError::Checkpoint(_)),
        "expected a typed checkpoint error, got: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
