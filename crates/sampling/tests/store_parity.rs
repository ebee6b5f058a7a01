//! Golden-hash parity: walk streams must be byte-identical between the
//! in-RAM `MultiplexGraph` and the chunk-paged `ShardedCsr`, at any thread
//! count.
//!
//! This is the determinism contract of the `GraphStore` refactor: a
//! conforming backend presents the same degrees and sorted neighbor lists,
//! so every RNG draw — and therefore every walk — is bit-identical. The
//! hashes are pinned as constants so a regression in either backend (or in
//! the shard builder's sort/dedup semantics) fails loudly instead of
//! silently shifting all downstream training results.
//!
//! A second fixture has shards of several 4 KiB blocks, the pager's unit:
//! its lists straddle block edges and one spans at least three blocks. It
//! checks neighbor lists and walks against RAM, and that a damaged block
//! fails only the lists it holds.

use std::sync::Arc;

use mhg_graph::shard_codec::{block_offset, BLOCK_TARGETS};
use mhg_graph::{
    GraphBuilder, GraphStore, HealPolicy, MetapathScheme, MultiplexGraph, NodeId, RelationId,
    Schema, ShardError, ShardedCsr, ShardedCsrOptions,
};
use mhg_par::{par_map_collect, with_threads};
use mhg_sampling::{sharded_over, MetapathWalker, UniformWalker, Walk};

/// FNV-1a over the concatenated walk stream (walks delimited by a marker
/// that cannot collide with a node id in this graph).
fn hash_walks(walks: &[Walk]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u32| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for w in walks {
        for &v in w {
            eat(v.0);
        }
        eat(u32::MAX);
    }
    h
}

/// A fixed bipartite multiplex graph: 40 users, 20 items, two relations
/// populated by arithmetic rules — no RNG, so the golden hashes below are
/// functions of the sampler code alone.
fn fixture() -> MultiplexGraph {
    let mut schema = Schema::new();
    let user = schema.add_node_type("user");
    let item = schema.add_node_type("item");
    schema.add_relation("r0");
    schema.add_relation("r1");
    let mut b = GraphBuilder::new(schema);
    b.add_nodes(user, 40);
    b.add_nodes(item, 20);
    for u in 0..40u32 {
        for i in 0..20u32 {
            if (u * 7 + i * 3) % 5 == 0 {
                b.add_edge(NodeId(u), NodeId(40 + i), RelationId(0));
            }
            if (u * 11 + i) % 7 == 1 {
                b.add_edge(NodeId(u), NodeId(40 + i), RelationId(1));
            }
        }
    }
    b.build()
}

fn sharded_fixture(g: &MultiplexGraph, name: &str) -> ShardedCsr {
    let dir = std::env::temp_dir().join("mhg_store_parity").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    // Tiny caps force many shards and constant paging, the regime where a
    // backend divergence would actually show.
    let opts = ShardedCsrOptions {
        shard_target_cap: 16,
        page_budget_bytes: 256,
        build_budget_bytes: 1024,
    };
    ShardedCsr::build(g, &dir, opts).expect("shard build")
}

/// 300 starts cycling over the users: > 4 shards of 64, so the sharded walk
/// decomposition is exercised, not just a single serial stream.
fn starts() -> Vec<NodeId> {
    (0..300).map(|i| NodeId(i % 40)).collect()
}

fn uniform_stream<G: GraphStore>(g: &G) -> Vec<Walk> {
    let w = UniformWalker::new(g);
    sharded_over(42, &starts(), |chunk, rng| {
        chunk.iter().map(|&s| w.walk(s, 12, rng)).collect()
    })
}

fn metapath_stream<G: GraphStore>(g: &G, scheme: &MetapathScheme) -> Vec<Walk> {
    let w = MetapathWalker::new(g, scheme.clone()).expect("valid scheme");
    sharded_over(43, &starts(), |chunk, rng| {
        chunk.iter().map(|&s| w.walk(s, 9, rng)).collect()
    })
}

const GOLDEN_UNIFORM: u64 = 0x6fd2_e148_2616_e23d;
const GOLDEN_METAPATH: u64 = 0xc273_c9be_87bb_9800;

#[test]
fn uniform_walks_identical_across_backends_and_threads() {
    let ram = fixture();
    let sharded = sharded_fixture(&ram, "uniform");
    for threads in [1usize, 4] {
        let h_ram = with_threads(threads, || hash_walks(&uniform_stream(&ram)));
        let h_sharded = with_threads(threads, || hash_walks(&uniform_stream(&sharded)));
        assert_eq!(
            h_ram, h_sharded,
            "uniform walk streams diverged at {threads} threads"
        );
        assert_eq!(
            h_ram, GOLDEN_UNIFORM,
            "uniform walk stream drifted from golden at {threads} threads: {h_ram:#018x}"
        );
    }
}

#[test]
fn metapath_walks_identical_across_backends_and_threads() {
    let ram = fixture();
    let sharded = sharded_fixture(&ram, "metapath");
    let schema = ram.schema();
    let scheme = MetapathScheme::intra(
        vec![
            schema.node_type_id("user").expect("user type"),
            schema.node_type_id("item").expect("item type"),
            schema.node_type_id("user").expect("user type"),
        ],
        schema.relation_id("r0").expect("r0"),
    );
    for threads in [1usize, 4] {
        let h_ram = with_threads(threads, || hash_walks(&metapath_stream(&ram, &scheme)));
        let h_sharded = with_threads(threads, || hash_walks(&metapath_stream(&sharded, &scheme)));
        assert_eq!(
            h_ram, h_sharded,
            "metapath walk streams diverged at {threads} threads"
        );
        assert_eq!(
            h_ram, GOLDEN_METAPATH,
            "metapath walk stream drifted from golden at {threads} threads: {h_ram:#018x}"
        );
    }
}

/// 3,000 users and 200 items under two relations. Under `r0` each user
/// links to ≈18 items, so many lists straddle a block edge, and item 0
/// (node 3,000) links to every user: one list of 3,000 targets, over at
/// least three blocks.
fn multi_block_fixture() -> MultiplexGraph {
    let mut schema = Schema::new();
    let user = schema.add_node_type("user");
    let item = schema.add_node_type("item");
    schema.add_relation("r0");
    schema.add_relation("r1");
    let mut b = GraphBuilder::new(schema);
    b.add_nodes(user, 3_000);
    b.add_nodes(item, 200);
    for u in 0..3_000u32 {
        for i in 0..200u32 {
            if i == 0 || (u * 7 + i * 13) % 11 == 0 {
                b.add_edge(NodeId(u), NodeId(3_000 + i), RelationId(0));
            }
            if (u + i * 5) % 23 == 3 {
                b.add_edge(NodeId(u), NodeId(3_000 + i), RelationId(1));
            }
        }
    }
    b.build()
}

/// Shards of up to eight blocks; a four-page budget keeps evicting.
fn multi_block_opts() -> ShardedCsrOptions {
    ShardedCsrOptions {
        shard_target_cap: 8 * BLOCK_TARGETS,
        page_budget_bytes: 16 << 10,
        build_budget_bytes: 64 << 10,
    }
}

fn multi_block_store(g: &MultiplexGraph, name: &str) -> ShardedCsr {
    let dir = std::env::temp_dir().join("mhg_store_parity").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    ShardedCsr::build(g, &dir, multi_block_opts()).expect("shard build")
}

/// Every `(node, relation)` pair of `g`.
fn all_lists(g: &MultiplexGraph) -> Vec<(NodeId, RelationId)> {
    g.schema()
        .relations()
        .flat_map(|r| g.nodes().map(move |v| (v, r)))
        .collect()
}

#[test]
fn multi_block_lists_match_ram_across_threads() {
    let ram = multi_block_fixture();
    let store = multi_block_store(&ram, "multi_block_lists");
    let lists = all_lists(&ram);

    // One serial pass counts the blocks each list touches: the fixture
    // must reach lists that straddle a block edge and one over ≥ 3 blocks.
    let (mut straddling, mut widest) = (0usize, 0u64);
    for &(v, r) in &lists {
        let before = store.page_stats();
        let got = store.with_neighbors(v, r, |ns| ns.to_vec());
        assert_eq!(got, ram.neighbors(v, r), "node {v:?} relation {r:?}");
        let after = store.page_stats();
        let touched = (after.hits + after.loads) - (before.hits + before.loads);
        straddling += usize::from(touched >= 2);
        widest = widest.max(touched);
    }
    assert!(straddling >= 10, "only {straddling} lists straddle a block");
    assert!(widest >= 3, "the widest list touched {widest} blocks");
    assert!(store.page_stats().evictions > 0, "the budget never evicted");

    for threads in [1usize, 4] {
        let got = with_threads(threads, || {
            par_map_collect(lists.len(), |i| {
                let (v, r) = lists[i];
                store.with_neighbors(v, r, |ns| ns.to_vec())
            })
        });
        for (&(v, r), got) in lists.iter().zip(&got) {
            assert_eq!(got, ram.neighbors(v, r), "{threads} threads: {v:?} {r:?}");
        }
    }
}

/// Uniform walks from users and from the hub item, so walks cross the
/// long list.
fn multi_block_stream<G: GraphStore>(g: &G) -> Vec<Walk> {
    let starts: Vec<NodeId> = (0..600).map(|i| NodeId((i * 37) % 3_001)).collect();
    let w = UniformWalker::new(g);
    sharded_over(44, &starts, |chunk, rng| {
        chunk.iter().map(|&s| w.walk(s, 16, rng)).collect()
    })
}

#[test]
fn multi_block_uniform_walks_match_ram() {
    let ram = multi_block_fixture();
    let store = multi_block_store(&ram, "multi_block_walks");
    for threads in [1usize, 4] {
        let h_ram = with_threads(threads, || hash_walks(&multi_block_stream(&ram)));
        let h_store = with_threads(threads, || hash_walks(&multi_block_stream(&store)));
        assert_eq!(h_ram, h_store, "walk streams diverged at {threads} threads");
    }
}

#[test]
#[expect(clippy::disallowed_methods, reason = "the test damages a shard file")]
fn a_damaged_block_fails_only_its_own_lists() {
    let ram = multi_block_fixture();
    let r0 = RelationId(0);
    let dir = std::env::temp_dir()
        .join("mhg_store_parity")
        .join("damaged_block");
    let _ = std::fs::remove_dir_all(&dir);
    drop(ShardedCsr::build(&ram, &dir, multi_block_opts()).expect("shard build"));

    // Shard 0 of r0 starts at node 0 and holds ≈8K targets, so a list's
    // place in it is the sum of the degrees before it. Pick a list inside
    // block 0 and one inside block 1, and flip a bit of the second.
    let mut start = vec![0usize];
    for v in ram.nodes() {
        start.push(start[v.index()] + ram.degree(v, r0));
    }
    let inside = |lo: usize, hi: usize| {
        ram.nodes()
            .find(|v| {
                let (s, e) = (start[v.index()], start[v.index() + 1]);
                s < e && s >= lo && e <= hi
            })
            .expect("a list inside the block")
    };
    let in_block0 = inside(0, BLOCK_TARGETS);
    let in_block1 = inside(BLOCK_TARGETS, 2 * BLOCK_TARGETS);
    let file = dir.join("r0-s0.shard");
    let mut bytes = std::fs::read(&file).expect("read shard");
    let at = block_offset(1) as usize + 4 * (start[in_block1.index()] - BLOCK_TARGETS);
    bytes[at] ^= 0x01;
    std::fs::write(&file, &bytes).expect("damage shard");

    let policy = HealPolicy {
        backoff_base_ns: 0,
        ..HealPolicy::default()
    };
    let read = |store: &ShardedCsr, v: NodeId| store.try_with_neighbors(v, r0, |ns| ns.to_vec());

    // Without a heal source: block 0 still reads, block 1 is refused typed.
    let bare = ShardedCsr::open(&dir, multi_block_opts())
        .expect("open")
        .with_heal_policy(policy);
    assert_eq!(
        read(&bare, in_block0).unwrap(),
        ram.neighbors(in_block0, r0)
    );
    assert!(
        matches!(
            read(&bare, in_block1),
            Err(ShardError::Quarantined {
                relation: 0,
                shard: 0
            })
        ),
        "a damaged block must fail typed"
    );
    // The whole-frame checks see the flip too.
    let report = bare.verify_all();
    assert_eq!(report.corrupt.len(), 1, "{:?}", report.corrupt);
    assert_eq!(
        (report.corrupt[0].relation, report.corrupt[0].shard),
        (0, 0)
    );
    let fresh = ShardedCsr::open(&dir, multi_block_opts())
        .expect("open")
        .with_heal_policy(policy);
    assert!(fresh.verify().is_err(), "verify must reject the flip");

    // With a source: block 0 reads as it is, block 1 is rebuilt.
    let healing = ShardedCsr::open(&dir, multi_block_opts())
        .expect("open")
        .with_heal_source(Arc::new(ram.clone()))
        .with_heal_policy(policy);
    assert_eq!(
        read(&healing, in_block0).unwrap(),
        ram.neighbors(in_block0, r0)
    );
    assert_eq!(healing.heal_stats().repairs, 0);
    assert_eq!(
        read(&healing, in_block1).unwrap(),
        ram.neighbors(in_block1, r0)
    );
    assert_eq!(healing.heal_stats().repairs, 1);
    ShardedCsr::open(&dir, multi_block_opts())
        .expect("reopen")
        .verify()
        .expect("the rebuilt shard verifies");
}
