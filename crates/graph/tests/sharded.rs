//! Integration tests for the sharded, chunk-paged graph store: parity with
//! the in-RAM backend, paging-budget behaviour, and hostile-input handling
//! (bit flips, truncation, forged lengths, injected IO faults) through the
//! whole store; `tests/persisted_formats.rs` covers the codecs themselves.
//!
//! Every test holds `mhg_faults::test_guard()`: store reads and writes pass
//! through the IO fault sites, so an unguarded test running alongside a
//! fault test would consume that test's scheduled occurrences.
#![expect(clippy::disallowed_methods, reason = "tests damage files on purpose")]

use std::path::PathBuf;

use mhg_graph::{
    persist, GraphBuilder, GraphStore, HealPolicy, MultiplexGraph, NodeId, RelationId, Schema,
    ShardError, ShardedCsr, ShardedCsrOptions, MANIFEST_FILE,
};

/// 12 users, 6 items, 2 relations populated by arithmetic rules.
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

/// Tiny caps: many shards, tiny pages, constant eviction pressure.
fn small_opts() -> ShardedCsrOptions {
    ShardedCsrOptions {
        shard_target_cap: 8,
        page_budget_bytes: 256,
        build_budget_bytes: 512,
    }
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mhg_sharded_test").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// All store files: the manifest plus every shard.
fn store_files(dir: &PathBuf) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_string_lossy();
            name == MANIFEST_FILE || name.ends_with(".shard")
        })
        .collect();
    files.sort();
    files
}

/// Opening + verifying must fail with a typed error (any variant but Io is
/// fine — the point is no panic, no garbage graph).
fn open_and_verify(dir: &PathBuf) -> Result<(), ShardError> {
    ShardedCsr::open(dir, small_opts())?.verify()
}

#[test]
fn neighbor_lists_and_snapshot_match_in_ram() {
    let _guard = mhg_faults::test_guard();
    let ram = fixture();
    let dir = fresh_dir("parity");
    let sharded = ShardedCsr::build(&ram, &dir, small_opts()).unwrap();

    assert_eq!(GraphStore::num_nodes(&sharded), ram.num_nodes());
    assert_eq!(GraphStore::num_edges(&sharded), ram.num_edges());
    for r in ram.schema().relations() {
        for v in ram.nodes() {
            assert_eq!(GraphStore::degree(&sharded, v, r), ram.degree(v, r));
            let expect = ram.neighbors(v, r).to_vec();
            let got = sharded.with_neighbors(v, r, |ns| ns.to_vec());
            assert_eq!(got, expect, "node {v:?} relation {r:?}");
        }
    }
    for ty in ram.schema().node_types() {
        assert_eq!(
            GraphStore::nodes_of_type(&sharded, ty),
            ram.nodes_of_type(ty)
        );
    }
    // The generic MHG1 encoder sees both backends identically.
    assert_eq!(persist::encode(&ram), persist::encode(&sharded));
}

#[test]
fn reopen_without_build_is_identical() {
    let _guard = mhg_faults::test_guard();
    let ram = fixture();
    let dir = fresh_dir("reopen");
    drop(ShardedCsr::build(&ram, &dir, small_opts()).unwrap());
    let reopened = ShardedCsr::open(&dir, small_opts()).unwrap();
    reopened.verify().unwrap();
    assert_eq!(persist::encode(&ram), persist::encode(&reopened));
}

#[test]
fn paging_stays_inside_budget_and_evicts() {
    let _guard = mhg_faults::test_guard();
    let ram = fixture();
    let dir = fresh_dir("paging");
    let sharded = ShardedCsr::build(&ram, &dir, small_opts()).unwrap();

    // Sweep all neighbor lists a few times in different orders to force
    // repeated page-ins.
    for pass in 0..3 {
        for r in ram.schema().relations() {
            for v in ram.nodes() {
                let v = if pass % 2 == 0 {
                    v
                } else {
                    NodeId(ram.num_nodes() as u32 - 1 - v.0)
                };
                sharded.with_neighbors(v, r, |ns| ns.len());
            }
        }
    }
    let stats = sharded.page_stats();
    assert!(stats.loads > 0, "no pages loaded: {stats:?}");
    assert!(stats.hits > 0, "cache never hit: {stats:?}");
    assert!(
        stats.evictions > 0,
        "budget never forced eviction: {stats:?}"
    );
    assert!(
        stats.peak_bytes <= small_opts().page_budget_bytes,
        "peak {} exceeded budget: {stats:?}",
        stats.peak_bytes
    );

    // The working set (page budget + resident metadata) undercuts the
    // on-disk size even at this toy scale — the property that lets a 10M
    // edge graph stream under a RAM cap below its file size.
    let on_disk = sharded.on_disk_bytes().unwrap();
    let working = small_opts().page_budget_bytes + sharded.resident_metadata_bytes();
    assert!(
        (working as u64) < on_disk,
        "working set {working} not below on-disk {on_disk}"
    );
}

#[test]
fn a_nested_read_that_evicts_the_outer_frame_leaves_its_list_intact() {
    let _guard = mhg_faults::test_guard();
    let ram = fixture();
    let dir = fresh_dir("one_frame");
    // A budget below one frame still keeps exactly one.
    let opts = ShardedCsrOptions {
        page_budget_bytes: 1,
        ..small_opts()
    };
    let sharded = ShardedCsr::build(&ram, &dir, opts).unwrap();
    // Lists of different relations live in different blocks.
    let (outer, buy) = (NodeId(0), RelationId(0));
    let (inner, view) = (NodeId(12), RelationId(1));
    sharded.with_neighbors(outer, buy, |ns| {
        let evictions = sharded.page_stats().evictions;
        let nested = sharded.with_neighbors(inner, view, |ns| ns.to_vec());
        assert_eq!(nested, ram.neighbors(inner, view));
        assert_eq!(
            sharded.page_stats().evictions,
            evictions + 1,
            "the nested read took the outer list's frame"
        );
        assert_eq!(ns, ram.neighbors(outer, buy));
    });
}

#[test]
fn resident_metadata_counts_every_per_node_table() {
    let _guard = mhg_faults::test_guard();
    // Many nodes and one edge: the per-node tables dominate the metadata.
    let mut schema = Schema::new();
    let user = schema.add_node_type("user");
    schema.add_relation("follow");
    let mut b = GraphBuilder::new(schema);
    b.add_nodes(user, 1000);
    b.add_edge(NodeId(0), NodeId(1), RelationId(0));
    let sharded = ShardedCsr::build(&b.build(), fresh_dir("metadata"), small_opts()).unwrap();
    // Per node: a 2-byte type, a 4-byte entry in its type's node list and
    // a 4-byte offset per relation.
    let per_node = 2 + 4 + 4;
    let metadata = sharded.resident_metadata_bytes();
    assert!(
        metadata >= 1000 * per_node,
        "{metadata} B of metadata leaves out a per-node table"
    );
}

#[test]
fn every_bit_flip_is_detected() {
    let _guard = mhg_faults::test_guard();
    let ram = fixture();
    let dir = fresh_dir("bitflip");
    drop(ShardedCsr::build(&ram, &dir, small_opts()).unwrap());

    for file in store_files(&dir) {
        let pristine = std::fs::read(&file).unwrap();
        for byte in 0..pristine.len() {
            for bit in 0..8 {
                let mut corrupt = pristine.clone();
                corrupt[byte] ^= 1 << bit;
                std::fs::write(&file, &corrupt).unwrap();
                assert!(
                    open_and_verify(&dir).is_err(),
                    "flip of {file:?} byte {byte} bit {bit} went undetected"
                );
            }
        }
        std::fs::write(&file, &pristine).unwrap();
    }
    open_and_verify(&dir).unwrap();
}

#[test]
fn truncation_at_every_cut_is_detected() {
    let _guard = mhg_faults::test_guard();
    let ram = fixture();
    let dir = fresh_dir("truncate");
    drop(ShardedCsr::build(&ram, &dir, small_opts()).unwrap());

    for file in store_files(&dir) {
        let pristine = std::fs::read(&file).unwrap();
        for cut in 0..pristine.len() {
            std::fs::write(&file, &pristine[..cut]).unwrap();
            assert!(
                open_and_verify(&dir).is_err(),
                "truncating {file:?} to {cut} bytes went undetected"
            );
        }
        std::fs::write(&file, &pristine).unwrap();
    }
    open_and_verify(&dir).unwrap();
}

#[test]
fn forged_target_count_is_rejected_before_allocation() {
    let _guard = mhg_faults::test_guard();
    let ram = fixture();
    let dir = fresh_dir("hostile");
    drop(ShardedCsr::build(&ram, &dir, small_opts()).unwrap());

    // Forge an absurd target count in one shard header and re-sign the file
    // so the checksum passes: the length guards themselves must reject it,
    // without attempting a 16 GiB allocation.
    let shard = store_files(&dir)
        .into_iter()
        .find(|p| p.extension().is_some_and(|e| e == "shard"))
        .unwrap();
    let mut bytes = std::fs::read(&shard).unwrap();
    // Layout: magic(4) version(2) relation(2) shard(4) start(4) end(4)
    // then the u32 target count at offset 20.
    bytes[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
    let body = bytes.len() - 8;
    let sum = mhg_ckpt::frame::checksum(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&shard, &bytes).unwrap();

    let err = open_and_verify(&dir).unwrap_err();
    assert!(
        !matches!(
            err,
            ShardError::Frame(mhg_ckpt::FrameError::ChecksumMismatch { .. })
        ),
        "length guard should fire before (re-signed) checksum: {err}"
    );
}

#[test]
fn io_read_fault_surfaces_on_open() {
    let _guard = mhg_faults::test_guard();
    let ram = fixture();
    let dir = fresh_dir("fault_open");
    mhg_faults::clear();
    drop(ShardedCsr::build(&ram, &dir, small_opts()).unwrap());

    mhg_faults::install(mhg_faults::FaultPlan::new().inject(mhg_faults::FaultSite::IoRead, 1));
    let err = match ShardedCsr::open(&dir, small_opts()) {
        Ok(_) => panic!("open should fail under the injected IoRead fault"),
        Err(e) => e,
    };
    mhg_faults::clear();
    assert!(matches!(err, ShardError::Io(_)), "expected Io, got {err}");
}

#[test]
fn io_read_fault_surfaces_on_page_load_without_retries() {
    let _guard = mhg_faults::test_guard();
    let ram = fixture();
    let dir = fresh_dir("fault_page");
    mhg_faults::clear();
    // Retries disabled: the injected error must surface typed through the
    // fallible accessor (the infallible trait path would abort by contract
    // instead of returning garbage). With no heal source, the failed shard
    // is quarantined, so the *first* access shows the underlying Io error
    // wrapped in the repair outcome. Two scheduled occurrences: the repair
    // stage re-checks the file before rebuilding (a shard healthy again
    // after a transient fault is released, not quarantined), so the
    // quarantine path needs the pre-check read to fail too.
    let sharded = ShardedCsr::build(&ram, &dir, small_opts())
        .unwrap()
        .with_heal_policy(HealPolicy {
            read_attempts: 1,
            backoff_base_ns: 0,
            repair_write_attempts: 1,
        });

    let v = NodeId(0);
    let r = RelationId(0);
    assert!(ram.degree(v, r) > 0, "fixture node must have neighbors");
    mhg_faults::install(
        mhg_faults::FaultPlan::new()
            .inject(mhg_faults::FaultSite::IoRead, 1)
            .inject(mhg_faults::FaultSite::IoRead, 2),
    );
    let res = sharded.try_with_neighbors(v, r, |ns| ns.len());
    mhg_faults::clear();
    let err = res.unwrap_err();
    assert!(
        matches!(err, ShardError::Quarantined { .. }),
        "expected quarantine after exhausted read, got {err}"
    );
    assert_eq!(sharded.quarantined().len(), 1);

    // Quarantine is sticky: the shard stays dead until repaired...
    let err = sharded.try_with_neighbors(v, r, |ns| ns.len()).unwrap_err();
    assert!(matches!(err, ShardError::Quarantined { .. }));
    // ...and `repair` lifts it: the file on disk was never damaged (the
    // fault was transient), so the fsck pass finds nothing corrupt and the
    // shard is released once it verifies clean.
    assert!(sharded.verify_all().is_clean());
    let report = sharded.repair();
    assert!(report.is_complete());
    assert!(sharded.quarantined().is_empty());
    let len = sharded.try_with_neighbors(v, r, |ns| ns.len()).unwrap();
    assert_eq!(len, ram.degree(v, r));
}

#[test]
fn transient_read_faults_are_absorbed_by_retry() {
    let _guard = mhg_faults::test_guard();
    let ram = fixture();
    let dir = fresh_dir("fault_retry");
    mhg_faults::clear();
    let sharded = ShardedCsr::build(&ram, &dir, small_opts())
        .unwrap()
        .with_heal_policy(HealPolicy {
            read_attempts: 3,
            backoff_base_ns: 0,
            repair_write_attempts: 1,
        });

    let v = NodeId(0);
    let r = RelationId(0);
    // Two consecutive faults on the same page-in (one io_read, one
    // shard_read): the third attempt succeeds, no error escapes.
    mhg_faults::install(
        mhg_faults::FaultPlan::new()
            .inject(mhg_faults::FaultSite::IoRead, 1)
            .inject(mhg_faults::FaultSite::ShardRead, 2),
    );
    let len = sharded.try_with_neighbors(v, r, |ns| ns.len());
    mhg_faults::clear();
    assert_eq!(len.unwrap(), ram.degree(v, r));
    assert_eq!(sharded.heal_stats().retries, 2);
    assert!(sharded.quarantined().is_empty());
}
