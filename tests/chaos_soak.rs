//! End-to-end chaos soak: full HybridGNN training on the sharded graph
//! store while the storage layer is actively failing underneath it.
//!
//! The soak damages **every** shard file on disk (bit flips, a truncation,
//! a deletion) and layers a seeded `mhg-faults` schedule over the per-shard
//! read, decode and io-read sites, then trains end to end. The pipeline
//! must absorb all of it through the self-healing ladder — bounded retries,
//! rebuild-from-source repair, checksum re-verification — and produce
//! embeddings **bit-identical** to a clean run, with the retries and
//! repairs visible as `mhg-obs` counters in the rendered `metrics.jsonl`.
//!
//! Scheduled fault occurrences are spaced at least three apart per site so
//! the 3-attempt retry budget (page loads *and* the repair re-verify loop)
//! always absorbs the worst-case consecutive hits; closer spacing would be
//! testing quarantine, which `graph/tests/heal.rs` covers separately.
//!
//! CI runs this under `MHG_THREADS=1` and `MHG_THREADS=4`; when
//! `MHG_SOAK_METRICS_OUT` is set, the faulted run's metrics stream is
//! written there as a build artifact.
//!
//! All tests hold [`hybridgnn_repro::faults::test_guard`] because the fault
//! plan and its occurrence counters are process-global.
#![expect(clippy::disallowed_methods, reason = "tests damage files on purpose")]

use std::path::PathBuf;
use std::sync::Arc;

use hybridgnn_repro::datasets::{EdgeSplit, LabeledEdge, SyntheticTier};
use hybridgnn_repro::faults::{self, FaultPlan, FaultSite};
use hybridgnn_repro::graph::{
    GraphStore, HealPolicy, MultiplexGraph, NodeTypeId, ShardError, ShardedCsr, ShardedCsrOptions,
};
use hybridgnn_repro::model::{HybridConfig, HybridGnn};
use hybridgnn_repro::models::{CommonConfig, FitData};
use hybridgnn_repro::obs::Obs;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 2022;

/// Small shards + a tight page budget: the training run pages shards in
/// and out continuously, so the read/decode fault sites fire mid-epoch,
/// not just at warm-up.
fn soak_opts() -> ShardedCsrOptions {
    ShardedCsrOptions {
        shard_target_cap: 512,
        page_budget_bytes: 4096,
        build_budget_bytes: 1 << 20,
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mhg_chaos_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The train/val material shared by every run in the soak: a tiny
/// Taobao-shaped tier materialised in RAM, split, and the user–item–user
/// metapath shape the model trains on.
struct SoakData {
    train_graph: MultiplexGraph,
    val: Vec<LabeledEdge>,
    shapes: Vec<Vec<NodeTypeId>>,
}

fn soak_data() -> SoakData {
    let ram = SyntheticTier::taobao(0.0005, SEED).materialize();
    let mut rng = StdRng::seed_from_u64(SEED);
    let split = EdgeSplit::default_split(&ram, &mut rng);
    SoakData {
        train_graph: split.train_graph,
        val: split.val,
        shapes: vec![vec![NodeTypeId(0), NodeTypeId(1), NodeTypeId(0)]],
    }
}

/// Trains HybridGNN over `graph` with the fixed soak seed and returns the
/// final embedding bits over every (node, relation) of `ram`.
fn fit_bits<G: GraphStore>(graph: &G, data: &SoakData, obs: &Obs) -> Vec<u32> {
    let mut cfg = HybridConfig {
        common: CommonConfig::fast(),
        ..HybridConfig::default()
    };
    cfg.common.epochs = 2;
    cfg.common.dim = 8;
    cfg.common.background_sampling = true;
    cfg.common.obs = obs.clone();
    let mut model = HybridGnn::new(cfg);
    let fit = FitData {
        graph,
        metapath_shapes: &data.shapes,
        val: &data.val,
    };
    let mut rng = StdRng::seed_from_u64(SEED);
    let report = model
        .fit_store(&fit, &mut rng)
        .expect("soak fit must succeed");
    assert!(report.epochs_run > 0, "soak ran zero epochs");
    let ram = &data.train_graph;
    let mut bits: Vec<u32> = Vec::new();
    for v in ram.nodes() {
        for r in ram.schema().relations() {
            bits.extend(model.embedding(v, r).iter().map(|x| x.to_bits()));
        }
    }
    bits
}

fn shard_files(dir: &PathBuf) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("store dir must exist")
        .map(|e| e.expect("read_dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "shard"))
        .collect();
    files.sort();
    files
}

/// Opens the store with the soak's heal source, policy and obs attached.
fn healing_store(dir: &PathBuf, data: &SoakData, obs: &Obs) -> ShardedCsr {
    ShardedCsr::open(dir, soak_opts())
        .expect("store must open")
        .with_heal_source(Arc::new(data.train_graph.clone()))
        .with_heal_policy(HealPolicy::default())
        .with_heal_obs(obs.clone())
}

/// The centerpiece: damage the whole store, layer a seeded fault schedule
/// on top, train end to end, and demand a bit-identical result.
#[test]
fn training_on_a_failing_store_is_bit_identical_to_clean_runs() {
    let _guard = faults::test_guard();
    faults::clear();
    let data = soak_data();
    let dir = fresh_dir("soak");
    drop(ShardedCsr::build(&data.train_graph, &dir, soak_opts()).expect("build store"));

    // Reference runs: the in-RAM backend and the pristine sharded store
    // must already agree (the store determinism contract).
    let ram_bits = fit_bits(&data.train_graph, &data, &Obs::deterministic(1_000_000));
    let clean_store = healing_store(&dir, &data, &Obs::deterministic(1_000_000));
    let clean_bits = fit_bits(&clean_store, &data, &Obs::deterministic(1_000_000));
    drop(clean_store);
    assert_eq!(
        ram_bits, clean_bits,
        "pristine sharded store diverged from the in-RAM backend"
    );

    // Damage every shard file: one payload bit flipped each, the first
    // additionally truncated to half, the last deleted outright.
    let files = shard_files(&dir);
    assert!(
        files.len() >= 4,
        "soak needs several shards, got {}",
        files.len()
    );
    for file in &files {
        let mut bytes = std::fs::read(file).expect("read shard");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(file, &bytes).expect("damage shard");
    }
    let bytes = std::fs::read(&files[0]).expect("read first shard");
    std::fs::write(&files[0], &bytes[..bytes.len() / 2]).expect("truncate shard");
    std::fs::remove_file(files.last().expect("nonempty")).expect("delete shard");

    // The faulted run: open over the wreckage, then schedule transient
    // faults on the shard read/decode/io sites (occurrences ≥3 apart per
    // site — see the module docs) and train with the same seed.
    let obs = Obs::deterministic(1_000_000);
    let store = healing_store(&dir, &data, &obs);
    faults::install(
        FaultPlan::new()
            .inject(FaultSite::ShardRead, 1)
            .inject(FaultSite::ShardRead, 5)
            .inject(FaultSite::ShardRead, 9)
            .inject(FaultSite::ShardDecode, 2)
            .inject(FaultSite::ShardDecode, 7)
            .inject(FaultSite::ShardDecode, 12)
            .inject(FaultSite::IoRead, 4)
            .inject(FaultSite::IoRead, 11),
    );
    let faulted_bits = fit_bits(&store, &data, &obs);
    let fired = faults::fired();
    faults::clear();
    assert_eq!(
        clean_bits, faulted_bits,
        "self-healing changed the final embeddings bit-for-bit"
    );
    assert!(
        fired.contains(&(FaultSite::ShardRead, 1)),
        "shard_read site never exercised: {fired:?}"
    );
    assert!(
        fired.contains(&(FaultSite::IoRead, 4)),
        "io_read site never exercised under paging: {fired:?}"
    );

    // The ladder's work is observable: retries and rebuilds happened, and
    // nothing was bad enough to quarantine.
    let stats = store.heal_stats();
    assert!(stats.retries > 0, "damaged store trained without any retry");
    assert!(
        stats.repairs > 0,
        "damaged store trained without any repair"
    );
    assert!(
        store.quarantined().is_empty(),
        "transient faults must not quarantine: {:?}",
        store.quarantined()
    );

    // Operator sweep after the storm: any shard training never touched is
    // still damaged, so fsck+repair the remainder, after which the whole
    // store re-verifies from disk — including with a fresh, heal-less open.
    let leftover = store.verify_all();
    if !leftover.is_clean() {
        let outcome = store.repair();
        assert!(outcome.is_complete(), "repair failed: {:?}", outcome.failed);
    }
    assert!(store.verify_all().is_clean());
    ShardedCsr::open(&dir, soak_opts())
        .expect("reopen")
        .verify()
        .expect("repaired store must verify without a heal source");

    // The retries/repairs surfaced as obs counters in the JSONL stream;
    // export it when CI asked for an artifact.
    let jsonl = obs.render_jsonl();
    for counter in ["graph/shard_retries", "graph/shard_repairs"] {
        assert!(
            jsonl.contains(counter),
            "{counter} missing from metrics:\n{jsonl}"
        );
    }
    if let Some(out) = std::env::var_os("MHG_SOAK_METRICS_OUT") {
        std::fs::write(&out, &jsonl).expect("write soak metrics artifact");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An injected read fault while opening the manifest surfaces as a typed
/// error — and the very next open succeeds, because nothing was mutated.
#[test]
fn injected_open_fault_is_typed_and_the_store_reopens_cleanly() {
    let _guard = faults::test_guard();
    faults::clear();
    let data = soak_data();
    let dir = fresh_dir("open_fault");
    drop(ShardedCsr::build(&data.train_graph, &dir, soak_opts()).expect("build store"));

    faults::install(FaultPlan::new().inject(FaultSite::IoRead, 1));
    let err = match ShardedCsr::open(&dir, soak_opts()) {
        Err(e) => e,
        Ok(_) => panic!("injected open fault must surface"),
    };
    faults::clear();
    assert!(
        matches!(err, ShardError::Io(_)),
        "expected a typed I/O error at open, got {err}"
    );
    ShardedCsr::open(&dir, soak_opts())
        .expect("store must reopen once the fault clears")
        .verify()
        .expect("store content untouched by the failed open");
    let _ = std::fs::remove_dir_all(&dir);
}
