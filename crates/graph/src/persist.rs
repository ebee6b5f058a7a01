//! Binary snapshot persistence for [`MultiplexGraph`].
//!
//! A snapshot is an MHG1 v2 [`mhg_ckpt::frame`] (body layout in the
//! "Persisted formats" table of DESIGN.md §2.11): the schema, the node
//! types and one CSR per relation. `hybridgnn-cli generate` writes one, and
//! every other CLI command reads its graph from one.
//!
//! The frame checksums every byte and guards every length prefix against
//! the bytes actually remaining before any allocation, so corrupt or
//! truncated snapshots produce a typed [`FrameError`] — never a panic, an
//! attempted multi-gigabyte allocation, or a silently different graph.
//! Content that is well framed but inconsistent (an id out of range, CSR
//! offsets that are not monotone, do not start at 0 or do not end at the
//! target count) reports [`FrameError::Inconsistent`]. Version 1
//! snapshots (a one-byte version, no checksum) are rejected with
//! [`FrameError::UnsupportedVersion`]; a snapshot is a cache, so regenerate
//! it. Writes go through [`mhg_ckpt::atomic_write`], so a crash mid-save
//! leaves the previous snapshot intact; reads through
//! [`mhg_ckpt::read_file`], the `IoRead` fault-injection site.

use std::io;
use std::path::Path;

use mhg_ckpt::frame::{FrameError, Reader, Writer};

use crate::csr::Csr;
use crate::store::GraphStore;
use crate::{MultiplexGraph, NodeId, NodeTypeId, Schema};

const MAGIC: &[u8; 4] = b"MHG1";
const VERSION: u16 = 2;

/// Serialises any graph store to bytes.
///
/// The CSR sections are reconstructed from the [`GraphStore`] contract
/// (degrees and sorted neighbor lists), so a [`crate::ShardedCsr`] snapshots
/// to bytes identical to the in-RAM graph built from the same edges.
pub fn encode<G: GraphStore>(graph: &G) -> Vec<u8> {
    let n = graph.num_nodes();
    let body = n
        .saturating_mul(6)
        .saturating_add(graph.num_edges().saturating_mul(10));
    let mut w = Writer::new(MAGIC, VERSION, body);

    let schema = graph.schema();
    w.str_list(schema.node_type_names());
    w.str_list(schema.relation_names());

    w.len_u32(n, "node count");
    for v in graph.node_id_range().map(NodeId) {
        w.u16(graph.node_type(v).0);
    }

    for r in schema.relations() {
        w.len_u32(n.saturating_add(1), "CSR offset count");
        let mut off = 0usize;
        w.u32(0);
        for v in graph.node_id_range().map(NodeId) {
            off = off.saturating_add(graph.degree(v, r));
            w.len_u32(off, "CSR offset");
        }
        w.len_u32(graph.num_directed_edges_in(r), "CSR target count");
        for v in graph.node_id_range().map(NodeId) {
            graph.with_neighbors(v, r, |ns| w.u32s(ns.iter().map(|t| t.0)));
        }
    }
    w.finish()
}

/// Deserialises a graph from bytes.
pub fn decode(buf: &[u8]) -> Result<MultiplexGraph, FrameError> {
    let mut r = Reader::open(buf, MAGIC, VERSION)?;
    let node_type_names = r.str_list()?;
    let relation_names = r.str_list()?;
    let mut schema = Schema::new();
    for n in &node_type_names {
        schema.add_node_type(n);
    }
    for rel in &relation_names {
        schema.add_relation(rel);
    }

    let num_nodes = r.u32()? as usize;
    let raw_types = r.u16s(num_nodes)?;
    let mut node_types = Vec::with_capacity(raw_types.len());
    for t in raw_types {
        if t as usize >= schema.num_node_types() {
            return Err(FrameError::Inconsistent("node type out of range"));
        }
        node_types.push(NodeTypeId(t));
    }

    let mut adjacency = Vec::with_capacity(schema.num_relations());
    for _ in 0..schema.num_relations() {
        if r.u32()? as usize != num_nodes + 1 {
            return Err(FrameError::Inconsistent(
                "CSR offset count is not node count + 1",
            ));
        }
        let offsets: Vec<u32> = r.u32s(num_nodes + 1)?.collect();
        let n_tgt = r.u32()?;
        if offsets.first() != Some(&0) {
            return Err(FrameError::Inconsistent("CSR offsets must start at zero"));
        }
        if offsets.last() != Some(&n_tgt) || !offsets.windows(2).all(|w| w[0] <= w[1]) {
            return Err(FrameError::Inconsistent(
                "CSR offsets not monotone up to the target count",
            ));
        }
        let raw = r.u32s(n_tgt as usize)?;
        let mut targets = Vec::with_capacity(raw.len());
        for t in raw {
            if t as usize >= num_nodes {
                return Err(FrameError::Inconsistent("CSR target out of range"));
            }
            targets.push(NodeId(t));
        }
        adjacency.push(Csr::from_parts(offsets, targets));
    }
    r.finish()?;

    Ok(MultiplexGraph::from_parts(schema, node_types, adjacency))
}

/// Writes a snapshot to a file atomically (write-temp + fsync + rename):
/// a crash mid-save never leaves a half-written snapshot at `path`.
pub fn save(graph: &MultiplexGraph, path: impl AsRef<Path>) -> io::Result<()> {
    mhg_ckpt::atomic_write(path, &encode(graph))
}

/// Reads a snapshot from a file.
pub fn load(path: impl AsRef<Path>) -> io::Result<MultiplexGraph> {
    let data = mhg_ckpt::read_file(path)?;
    decode(&data).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn sample_graph() -> MultiplexGraph {
        let mut schema = Schema::new();
        let user = schema.add_node_type("user");
        let item = schema.add_node_type("item");
        let view = schema.add_relation("view");
        let buy = schema.add_relation("buy");
        let mut b = GraphBuilder::new(schema);
        let u0 = b.add_node(user);
        let u1 = b.add_node(user);
        let i0 = b.add_node(item);
        let i1 = b.add_node(item);
        b.add_edge(u0, i0, view);
        b.add_edge(u0, i0, buy);
        b.add_edge(u1, i1, view);
        b.add_edge(u0, i1, view);
        b.build()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let g = sample_graph();
        let bytes = encode(&g);
        let g2 = decode(&bytes).expect("decode");
        assert_eq!(g.num_nodes(), g2.num_nodes());
        assert_eq!(g.num_edges(), g2.num_edges());
        assert_eq!(g.schema(), g2.schema());
        for v in g.nodes() {
            assert_eq!(g.node_type(v), g2.node_type(v));
            for r in g.schema().relations() {
                assert_eq!(g.neighbors(v, r), g2.neighbors(v, r));
            }
        }
    }

    #[test]
    fn file_roundtrip() {
        let _guard = mhg_faults::test_guard(); // save() has injectable IO sites
        let g = sample_graph();
        let dir = std::env::temp_dir().join("mhg_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.mhg");
        save(&g, &path).unwrap();
        let g2 = load(&path).unwrap();
        assert_eq!(g.num_edges(), g2.num_edges());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_garbage_and_v1_snapshots() {
        assert_eq!(decode(b"nope").unwrap_err(), FrameError::Truncated);
        let mut bytes = encode(&sample_graph());
        bytes[0] = b'X';
        assert_eq!(decode(&bytes).unwrap_err(), FrameError::BadMagic);
        // A v1 snapshot starts `MHG1 01` followed by the u16 node-type
        // count, so its version field reads `01 nn` — never 2.
        let mut v1 = b"MHG1\x01\x02\x00".to_vec();
        v1.resize(64, 0);
        assert_eq!(
            decode(&v1).unwrap_err(),
            FrameError::UnsupportedVersion(0x0201)
        );
    }

    #[test]
    fn load_surfaces_an_injected_read_fault() {
        use mhg_faults::FaultSite;
        let _guard = mhg_faults::test_guard();
        let dir = std::env::temp_dir().join("mhg_persist_read_fault_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.mhg");
        save(&sample_graph(), &path).unwrap();
        mhg_faults::install(mhg_faults::FaultPlan::new().inject(FaultSite::IoRead, 1));
        let res = load(&path);
        mhg_faults::clear();
        let err = res.expect_err("injected read fault must surface");
        assert!(err.to_string().contains("injected fault"), "got {err}");
        assert!(load(&path).is_ok(), "the fault is transient");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn save_is_atomic_under_injected_io_faults() {
        use mhg_faults::FaultSite;
        let _guard = mhg_faults::test_guard();
        let g = sample_graph();
        let dir = std::env::temp_dir().join("mhg_persist_atomic_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.mhg");
        save(&g, &path).unwrap();

        // With a write fault armed, the failed save must leave the previous
        // snapshot readable.
        mhg_faults::install(mhg_faults::FaultPlan::new().inject(FaultSite::IoWrite, 1));
        assert!(
            save(&g, &path).is_err(),
            "injected write fault must surface"
        );
        mhg_faults::clear();
        let g2 = load(&path).expect("previous snapshot must survive a failed save");
        assert_eq!(g.num_edges(), g2.num_edges());
        std::fs::remove_file(path).ok();
    }
}
