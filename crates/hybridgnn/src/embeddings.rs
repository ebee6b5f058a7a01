//! Exported embedding tables: the MHE1 file `hybridgnn-cli train` writes
//! and `hybridgnn-cli recommend` reads.
//!
//! One `num_nodes × dim` table per relation, as an MHE1 v1
//! [`mhg_ckpt::frame`] (body layout in the "Persisted formats" table of
//! DESIGN.md §2.11). Files written before the format carried a version and
//! a checksum are rejected with a typed [`FrameError`]; re-run `train` to
//! regenerate them.

use std::io;
use std::path::Path;

use mhg_ckpt::frame::{FrameError, Reader, Writer};
use mhg_graph::{GraphStore, NodeId};
use mhg_tensor::Tensor;

use crate::HybridGnn;

const MAGIC: &[u8; 4] = b"MHE1";
const VERSION: u16 = 1;

/// The fitted model's per-relation tables over `graph`: row `v` of table
/// `r` is [`HybridGnn::embedding`]`(v, r)`.
pub fn tables<G: GraphStore>(model: &HybridGnn, graph: &G) -> Vec<Tensor> {
    let n = graph.num_nodes();
    graph
        .schema()
        .relations()
        .map(|r| {
            let data: Vec<f32> = graph
                .node_id_range()
                .flat_map(|v| model.embedding(NodeId(v), r).iter().copied())
                .collect();
            let dim = data.len().checked_div(n).unwrap_or(0);
            Tensor::from_vec(n, dim, data)
        })
        .collect()
}

/// Serialises per-relation tables, which must all share one shape.
pub fn encode(tables: &[Tensor]) -> Vec<u8> {
    let (n, dim) = tables.first().map_or((0, 0), |t| (t.rows(), t.cols()));
    assert!(
        tables.iter().all(|t| t.rows() == n && t.cols() == dim),
        "encode: embedding tables must share one shape"
    );
    let values = n.saturating_mul(dim).saturating_mul(tables.len());
    let mut w = Writer::new(MAGIC, VERSION, 12 + values.saturating_mul(4));
    w.len_u32(tables.len(), "relation count");
    w.len_u32(n, "node count");
    w.len_u32(dim, "embedding dim");
    for t in tables {
        w.u32s(t.as_slice().iter().map(|x| x.to_bits()));
    }
    w.finish()
}

/// Deserialises per-relation tables.
pub fn decode(buf: &[u8]) -> Result<Vec<Tensor>, FrameError> {
    let mut r = Reader::open(buf, MAGIC, VERSION)?;
    let num_rel = r.u32()?;
    let n = r.u32()? as usize;
    let dim = r.u32()? as usize;
    let per_table = n.checked_mul(dim).ok_or(FrameError::Truncated)?;
    // Guard the table count before sizing anything by it; a table is
    // charged at least one byte so empty tables cannot dodge the guard.
    let table_bytes = per_table.checked_mul(4).ok_or(FrameError::Truncated)?;
    let mut tables = Vec::with_capacity(r.count(num_rel.into(), table_bytes.max(1))?);
    for _ in 0..num_rel {
        let data = r.u32s(per_table)?.map(f32::from_bits).collect();
        tables.push(Tensor::from_vec(n, dim, data));
    }
    r.finish()?;
    Ok(tables)
}

/// Writes tables to a file atomically (write-temp + fsync + rename).
pub fn save(path: impl AsRef<Path>, tables: &[Tensor]) -> io::Result<()> {
    mhg_ckpt::atomic_write(path, &encode(tables))
}

/// Reads tables from a file.
pub fn load(path: impl AsRef<Path>) -> io::Result<Vec<Tensor>> {
    let data = mhg_ckpt::read_file(path)?;
    decode(&data).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_is_exact() {
        let tables = vec![
            Tensor::from_vec(2, 3, vec![1.0, -2.0, 0.5, f32::MIN_POSITIVE, 3.0, -0.0]),
            Tensor::from_vec(2, 3, vec![0.0; 6]),
        ];
        let back = decode(&encode(&tables)).unwrap();
        assert_eq!(back, tables);
    }

    #[test]
    fn pre_version_files_are_rejected() {
        // The old layout: magic, then u32 relation/node/dim counts and raw
        // f32s, with no version and no trailer.
        let mut old = b"MHE1".to_vec();
        for v in [4u32, 1, 1] {
            old.extend_from_slice(&v.to_le_bytes());
        }
        old.extend_from_slice(&[0; 16]);
        assert_eq!(decode(&old).unwrap_err(), FrameError::UnsupportedVersion(4));
    }
}
