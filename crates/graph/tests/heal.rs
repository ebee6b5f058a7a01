//! Self-healing integration tests for the sharded store: transparent
//! rebuild-from-source repair under bit flips, truncation and deleted
//! files, fsck reporting, quarantine of unrepairable shards, and the
//! deterministic fake-clock backoff.
#![expect(clippy::disallowed_methods, reason = "tests damage files on purpose")]

use std::path::PathBuf;
use std::sync::Arc;

use mhg_graph::{
    GraphBuilder, GraphStore, HealPolicy, MultiplexGraph, NodeId, RelationId, Schema, ShardError,
    ShardedCsr, ShardedCsrOptions,
};
use mhg_obs::Obs;

/// 12 users, 6 items, 2 relations populated by arithmetic rules (the same
/// fixture as `sharded.rs`, so shard layouts are well exercised).
fn fixture() -> MultiplexGraph {
    let mut schema = Schema::new();
    let user = schema.add_node_type("user");
    let item = schema.add_node_type("item");
    schema.add_relation("buy");
    schema.add_relation("view");
    let mut b = GraphBuilder::new(schema);
    b.add_nodes(user, 12);
    b.add_nodes(item, 6);
    for u in 0..12u32 {
        for i in 0..6u32 {
            if (u * 5 + i) % 3 == 0 {
                b.add_edge(NodeId(u), NodeId(12 + i), RelationId(0));
            }
            if (u + i * 7) % 4 == 1 {
                b.add_edge(NodeId(u), NodeId(12 + i), RelationId(1));
            }
        }
    }
    b.build()
}

fn small_opts() -> ShardedCsrOptions {
    ShardedCsrOptions {
        shard_target_cap: 8,
        page_budget_bytes: 256,
        build_budget_bytes: 512,
    }
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mhg_heal_test").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn shard_files(dir: &PathBuf) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "shard"))
        .collect();
    files.sort();
    files
}

/// No-backoff policy so hostile-input sweeps stay fast.
fn fast_policy() -> HealPolicy {
    HealPolicy {
        backoff_base_ns: 0,
        ..HealPolicy::default()
    }
}

/// Opens the store with the fixture attached as heal source.
fn healing_store(ram: &MultiplexGraph, dir: &PathBuf) -> ShardedCsr {
    ShardedCsr::open(dir, small_opts())
        .unwrap()
        .with_heal_source(Arc::new(ram.clone()))
        .with_heal_policy(fast_policy())
}

/// Full sweep asserting parity with the in-RAM fixture.
fn assert_parity(store: &ShardedCsr, ram: &MultiplexGraph) {
    for r in ram.schema().relations() {
        for v in ram.nodes() {
            let expect = ram.neighbors(v, r).to_vec();
            let got = store.with_neighbors(v, r, |ns| ns.to_vec());
            assert_eq!(got, expect, "node {v:?} relation {r:?}");
        }
    }
}

#[test]
fn bit_flipped_shards_are_rebuilt_transparently() {
    let _guard = mhg_faults::test_guard();
    mhg_faults::clear();
    let ram = fixture();
    let dir = fresh_dir("bitflip_heal");
    drop(ShardedCsr::build(&ram, &dir, small_opts()).unwrap());

    // Damage every shard file: flip one payload bit each.
    let files = shard_files(&dir);
    assert!(files.len() > 1, "fixture must produce several shards");
    for file in &files {
        let mut bytes = std::fs::read(file).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(file, &bytes).unwrap();
    }

    let store = healing_store(&ram, &dir);
    let report = store.verify_all();
    assert_eq!(report.checked, files.len());
    assert_eq!(report.corrupt.len(), files.len(), "every shard is damaged");

    // Plain trait access repairs each shard on first touch — neighbor
    // lists are bit-identical to the clean build.
    assert_parity(&store, &ram);
    assert_eq!(store.heal_stats().repairs as usize, files.len());
    assert!(store.quarantined().is_empty());

    // Every repaired file re-verifies from disk, and a fresh open (no heal
    // source at all) sees a fully healthy store.
    assert!(store.verify_all().is_clean());
    ShardedCsr::open(&dir, small_opts())
        .unwrap()
        .verify()
        .unwrap();
}

#[test]
fn truncated_and_missing_shards_are_rebuilt() {
    let _guard = mhg_faults::test_guard();
    mhg_faults::clear();
    let ram = fixture();
    let dir = fresh_dir("truncate_heal");
    drop(ShardedCsr::build(&ram, &dir, small_opts()).unwrap());

    let files = shard_files(&dir);
    assert!(files.len() >= 2);
    // Truncate the first shard to half, delete the last one entirely.
    let bytes = std::fs::read(&files[0]).unwrap();
    std::fs::write(&files[0], &bytes[..bytes.len() / 2]).unwrap();
    std::fs::remove_file(files.last().unwrap()).unwrap();

    let store = healing_store(&ram, &dir);
    assert_eq!(store.verify_all().corrupt.len(), 2);

    // An explicit fsck+repair run rebuilds both without touching the rest.
    let report = store.repair();
    assert!(report.is_complete(), "failed: {:?}", report.failed);
    assert_eq!(report.repaired.len(), 2);
    assert!(store.verify_all().is_clean());
    assert_parity(&store, &ram);
}

#[test]
fn corruption_without_source_quarantines() {
    let _guard = mhg_faults::test_guard();
    mhg_faults::clear();
    let ram = fixture();
    let dir = fresh_dir("no_source");
    drop(ShardedCsr::build(&ram, &dir, small_opts()).unwrap());

    let files = shard_files(&dir);
    let mut bytes = std::fs::read(&files[0]).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&files[0], &bytes).unwrap();

    let store = ShardedCsr::open(&dir, small_opts())
        .unwrap()
        .with_heal_policy(fast_policy());
    let err = store.verify().unwrap_err();
    assert!(
        matches!(err, ShardError::Quarantined { .. }),
        "expected quarantine, got {err}"
    );
    assert_eq!(store.quarantined().len(), 1);
    assert!(store.heal_stats().repair_failures >= 1);
    // Repair without a source cannot rebuild: the shard stays quarantined.
    let report = store.repair();
    assert!(!report.is_complete());
    assert_eq!(store.quarantined().len(), 1);
}

#[test]
fn drifted_source_is_rejected_not_written() {
    let _guard = mhg_faults::test_guard();
    mhg_faults::clear();
    let ram = fixture();
    let dir = fresh_dir("drift");
    drop(ShardedCsr::build(&ram, &dir, small_opts()).unwrap());

    let files = shard_files(&dir);
    let pristine = std::fs::read(&files[0]).unwrap();
    let mut bytes = pristine.clone();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&files[0], &bytes).unwrap();

    // A source whose edges drifted from the manifest must be rejected by
    // the degree cross-check — a wrong rebuild is worse than none.
    let drifted = {
        let mut schema = Schema::new();
        let user = schema.add_node_type("user");
        let item = schema.add_node_type("item");
        schema.add_relation("buy");
        schema.add_relation("view");
        let mut b = GraphBuilder::new(schema);
        b.add_nodes(user, 12);
        b.add_nodes(item, 6);
        // A star on item 12: per-node degrees disagree with the fixture.
        for u in 0..12u32 {
            b.add_edge(NodeId(u), NodeId(12), RelationId(0));
        }
        b.build()
    };
    let store = ShardedCsr::open(&dir, small_opts())
        .unwrap()
        .with_heal_source(Arc::new(drifted))
        .with_heal_policy(fast_policy());
    let report = store.repair();
    assert!(!report.is_complete());
    assert!(report.failed[0].error.contains("contradicts"));
    assert!(
        store.quarantined().is_empty(),
        "repair() fsck path does not quarantine"
    );
    // The damaged file was not overwritten with drifted data.
    assert_eq!(std::fs::read(&files[0]).unwrap(), bytes);
}

#[test]
fn degree_preserving_drift_is_rejected_not_written() {
    let _guard = mhg_faults::test_guard();
    mhg_faults::clear();
    let ram = fixture();
    let dir = fresh_dir("degree_drift");
    drop(ShardedCsr::build(&ram, &dir, small_opts()).unwrap());

    // Damage the shard holding users 0 and 1 under "buy".
    let files = shard_files(&dir);
    let mut bytes = std::fs::read(&files[0]).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&files[0], &bytes).unwrap();

    // A source that swaps two "buy" targets — (0, 12), (1, 13) become
    // (0, 13), (1, 12) — keeps every degree and target count, so only the
    // content check can tell it from the edges the store was built from.
    let buy = RelationId(0);
    let swap = |u: NodeId, v: NodeId| match (u.0, v.0) {
        (0, 12) => (u, NodeId(13)),
        (1, 13) => (u, NodeId(12)),
        _ => (u, v),
    };
    let drifted = {
        let mut b = GraphBuilder::new(ram.schema().clone());
        for v in ram.nodes() {
            b.add_node(ram.node_type(v));
        }
        for r in ram.schema().relations() {
            for (u, v) in ram.edges_in(r) {
                let (u, v) = if r == buy { swap(u, v) } else { (u, v) };
                b.add_edge(u, v, r);
            }
        }
        b.build()
    };
    for r in ram.schema().relations() {
        for v in ram.nodes() {
            assert_eq!(drifted.degree(v, r), ram.degree(v, r), "{v:?} {r:?}");
        }
    }
    assert_ne!(
        drifted.neighbors(NodeId(0), buy),
        ram.neighbors(NodeId(0), buy)
    );

    let store = ShardedCsr::open(&dir, small_opts())
        .unwrap()
        .with_heal_source(Arc::new(drifted))
        .with_heal_policy(fast_policy());
    let report = store.repair();
    assert!(!report.is_complete(), "a drifted rebuild was accepted");
    assert!(
        report.failed[0].error.contains("contradicts"),
        "{}",
        report.failed[0].error
    );
    // The damaged file was not overwritten with drifted data, and a
    // page-in refuses it rather than serve swapped targets.
    assert_eq!(std::fs::read(&files[0]).unwrap(), bytes);
    assert!(matches!(
        store.try_with_neighbors(NodeId(0), buy, |ns| ns.to_vec()),
        Err(ShardError::Quarantined { .. })
    ));
}

#[test]
fn backoff_is_deterministic_on_a_fake_clock_and_counted() {
    let _guard = mhg_faults::test_guard();
    mhg_faults::clear();
    let ram = fixture();
    let dir = fresh_dir("fake_clock");
    drop(ShardedCsr::build(&ram, &dir, small_opts()).unwrap());

    let obs = Obs::deterministic(1_000);
    let store = ShardedCsr::open(&dir, small_opts())
        .unwrap()
        .with_heal_source(Arc::new(ram.clone()))
        .with_heal_policy(HealPolicy {
            read_attempts: 3,
            backoff_base_ns: 50_000, // 50 fake-clock steps, then 100
            repair_write_attempts: 3,
        })
        .with_heal_obs(obs.clone());

    mhg_faults::install(
        mhg_faults::FaultPlan::new()
            .inject(mhg_faults::FaultSite::ShardRead, 1)
            .inject(mhg_faults::FaultSite::ShardDecode, 2),
    );
    assert_parity(&store, &ram);
    mhg_faults::clear();
    assert_eq!(store.heal_stats().retries, 2);

    // The retries surfaced as obs counters in the JSONL metrics stream.
    let jsonl = obs.render_jsonl();
    assert!(
        jsonl.contains("graph/shard_retries"),
        "retry counter missing from metrics: {jsonl}"
    );
}

/// One relation whose single shard spans three blocks: user 0 follows
/// users 1..=1500, so user 0's list fills block 0 and part of block 1, and
/// the 1,500 one-target lists of the others fill the rest.
fn three_block_star() -> MultiplexGraph {
    let mut schema = Schema::new();
    let user = schema.add_node_type("user");
    schema.add_relation("follow");
    let mut b = GraphBuilder::new(schema);
    b.add_nodes(user, 1501);
    for v in 1..=1500 {
        b.add_edge(NodeId(0), NodeId(v), RelationId(0));
    }
    b.build()
}

/// A cached shard file is dropped when a read of it fails and when a
/// rebuild renames a new file over it; without either, a stale descriptor
/// keeps reading the damaged inode and every later miss costs retries.
#[test]
fn a_cached_shard_file_is_dropped_after_a_failed_read_and_a_rebuild() {
    let _guard = mhg_faults::test_guard();
    mhg_faults::clear();
    let ram = three_block_star();
    let dir = fresh_dir("fd_cache");
    // One frame: every block read below that is not the last one read is a
    // miss.
    let opts = ShardedCsrOptions {
        shard_target_cap: 1 << 16,
        page_budget_bytes: 4096,
        build_budget_bytes: 1 << 20,
    };
    drop(ShardedCsr::build(&ram, &dir, opts).unwrap());
    let store = ShardedCsr::open(&dir, opts)
        .unwrap()
        .with_heal_source(Arc::new(ram.clone()))
        .with_heal_policy(fast_policy());
    let files = shard_files(&dir);
    assert_eq!(files.len(), 1);
    let file = &files[0];
    let pristine = std::fs::read(file).unwrap();
    let follow = RelationId(0);
    // User 1's list lies in block 1, user 1500's in block 2.
    let (in_block_1, in_block_2) = (NodeId(1), NodeId(1500));
    let read = |v: NodeId| {
        let got = store.with_neighbors(v, follow, |ns| ns.to_vec());
        assert_eq!(got, ram.neighbors(v, follow), "node {v:?}");
    };
    let truncate_in_place = || {
        let f = std::fs::OpenOptions::new().write(true).open(file).unwrap();
        f.set_len(100).unwrap();
    };

    // A miss in block 1 opens the shard file and keeps it open. Truncated in
    // place, the same inode loses block 2: the ladder retries, rebuilds and
    // reads the new file.
    read(in_block_1);
    truncate_in_place();
    read(in_block_2);
    let healed = store.heal_stats();
    assert_eq!((healed.retries, healed.repairs), (2, 1));
    // Every other miss reads the new file, not the truncated inode.
    for v in ram.nodes() {
        read(v);
    }
    assert_eq!(store.heal_stats(), healed, "a miss read a stale file");

    // The file is cached again; an fsck repair renames a new one over it.
    read(in_block_1);
    truncate_in_place();
    let report = store.repair();
    assert_eq!((report.repaired.len(), report.failed.len()), (1, 0));
    read(in_block_2);
    let repaired = store.heal_stats();
    assert_eq!(
        (repaired.retries, repaired.repairs),
        (healed.retries, 2),
        "the miss after the rename read the renamed-over file"
    );

    // The cached inode is truncated while the path is restored behind it:
    // one failed read drops the file, and the retry reopens the path.
    read(in_block_1);
    truncate_in_place();
    let tmp = dir.join("restore.tmp");
    std::fs::write(&tmp, &pristine).unwrap();
    std::fs::rename(&tmp, file).unwrap();
    read(in_block_2);
    let restored = store.heal_stats();
    assert_eq!(
        (restored.retries, restored.repairs),
        (repaired.retries + 1, repaired.repairs),
        "one retry reopens the restored path"
    );
    assert!(store.verify_all().is_clean());
}
