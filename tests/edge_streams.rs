//! Each pass of the sharded store's build and heal ladder streams only the
//! relation it keeps. A counting `EdgeSource` wraps the 10×-tier generator
//! at a small scale and records, per relation, how often it was streamed
//! and how many edges it delivered.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use hybridgnn_repro::datasets::SyntheticTier;
use hybridgnn_repro::graph::{
    EdgeSource, GraphStore, HealPolicy, NodeId, NodeTypeId, RelationId, Schema, ShardedCsr,
    ShardedCsrOptions,
};

/// A [`SyntheticTier`] that counts, per relation, the streams it served and
/// the edges it delivered.
struct Counting {
    tier: SyntheticTier,
    /// Per relation: (streams, edges).
    seen: Mutex<Vec<(u64, u64)>>,
}

impl Counting {
    fn new(tier: SyntheticTier) -> Self {
        let relations = tier.edges_per_relation().len();
        Self {
            tier,
            seen: Mutex::new(vec![(0, 0); relations]),
        }
    }

    /// The counts so far, which are then reset.
    fn take(&self) -> Vec<(u64, u64)> {
        let mut seen = self.seen.lock().unwrap();
        let out = seen.clone();
        seen.fill((0, 0));
        out
    }
}

impl EdgeSource for Counting {
    fn schema(&self) -> &Schema {
        self.tier.schema()
    }

    fn num_nodes(&self) -> usize {
        self.tier.num_nodes()
    }

    fn node_type_of(&self, v: NodeId) -> NodeTypeId {
        self.tier.node_type_of(v)
    }

    fn for_each_edge_of(&self, relation: RelationId, f: &mut dyn FnMut(NodeId, NodeId)) {
        let mut n = 0u64;
        self.tier.for_each_edge_of(relation, &mut |u, v| {
            n += 1;
            f(u, v);
        });
        let seen = &mut self.seen.lock().unwrap()[relation.index()];
        seen.0 += 1;
        seen.1 += n;
    }
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mhg_streams_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn remove_shard(dir: &Path, relation: u16, shard: u32) {
    std::fs::remove_file(dir.join(format!("r{relation}-s{shard}.shard"))).unwrap();
}

#[test]
fn every_pass_streams_only_its_relation() {
    let _guard = hybridgnn_repro::faults::test_guard();
    hybridgnn_repro::faults::clear();
    let source = Arc::new(Counting::new(SyntheticTier::taobao(0.001, 2022)));
    let per_relation: Vec<u64> = source
        .tier
        .edges_per_relation()
        .iter()
        .map(|&n| n as u64)
        .collect();
    let opts = ShardedCsrOptions {
        shard_target_cap: 1_024,
        page_budget_bytes: 64 << 10,
        build_budget_bytes: 16 << 10,
    };
    let dir = fresh_dir("counting");

    // The build streams each relation whole: once to count its degree
    // bounds, once per wave. `view` needs several waves, and no pass
    // streams a relation it does not keep.
    drop(ShardedCsr::build(&*source, &dir, opts).unwrap());
    let built = source.take();
    for (r, (&(streams, edges), &n)) in built.iter().zip(&per_relation).enumerate() {
        assert!(streams >= 2, "relation {r}: {streams} streams");
        assert_eq!(edges, streams * n, "relation {r}");
    }
    assert!(built[0].0 >= 3, "view took {} streams", built[0].0);

    // One damaged shard of `buy`, healed on a page-in: the rebuild streams
    // `buy` once and nothing else.
    let buy = RelationId(2);
    let mut expect = vec![(0, 0); per_relation.len()];
    expect[buy.index()] = (1, per_relation[buy.index()]);
    let store = ShardedCsr::open(&dir, opts)
        .unwrap()
        .with_heal_source(Arc::clone(&source) as Arc<dyn EdgeSource + Send + Sync>)
        .with_heal_policy(HealPolicy {
            backoff_base_ns: 0,
            ..HealPolicy::default()
        });
    // Shard 0 starts at node 0, so it holds the first node with a list.
    let v = (0..store.num_nodes() as u32)
        .map(NodeId)
        .find(|&v| store.degree(v, buy) > 0)
        .unwrap();
    remove_shard(&dir, 2, 0);
    let listed = store.with_neighbors(v, buy, <[NodeId]>::len);
    assert_eq!(listed, store.degree(v, buy));
    assert_eq!(store.heal_stats().repairs, 1);
    assert_eq!(source.take(), expect, "page-in rebuild");

    // The same through `repair()`.
    remove_shard(&dir, 2, 1);
    let report = store.repair();
    assert_eq!(report.repaired, vec![(2, 1)]);
    assert!(report.failed.is_empty());
    assert_eq!(source.take(), expect, "repair() rebuild");
    assert!(store.verify_all().is_clean());
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
