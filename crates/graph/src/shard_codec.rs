//! On-disk wire format for the sharded CSR store.
//!
//! Two [`mhg_ckpt::frame`] formats, laid out in the "Persisted formats"
//! table of DESIGN.md §2.11: the manifest (`manifest.mhgs`, magic `MHGS`)
//! and one file per shard (`r{R}-s{S}.shard`, magic `MHSH`). Writes go
//! through `mhg_ckpt::atomic_write`; reads through `mhg_ckpt::read_file`
//! (which carries the `mhg-faults` io_read injection site).
//!
//! The frame owns the byte mechanics. This module owns the semantic
//! cross-checks: manifest table validation, and shard identity, node range
//! and target bounds against the manifest metadata the caller already
//! holds. Corrupt, truncated or hostile input always yields a typed
//! [`ShardError`], never a panic or a runaway allocation.

use mhg_ckpt::frame::{FrameError, Reader, Writer};

use crate::{NodeId, NodeTypeId, Schema};

/// Magic bytes of the manifest file.
pub const MANIFEST_MAGIC: &[u8; 4] = b"MHGS";
/// Magic bytes of a shard file.
pub const SHARD_MAGIC: &[u8; 4] = b"MHSH";
/// Current format version (shared by manifest and shards).
pub const VERSION: u16 = 1;

/// Errors produced by the sharded-store codec and loader.
#[derive(Debug)]
pub enum ShardError {
    /// An underlying filesystem read or write failed.
    Io(std::io::Error),
    /// The bytes of a manifest or shard file are not a valid frame.
    Frame(FrameError),
    /// Structurally valid bytes that contradict themselves or the manifest.
    Inconsistent(&'static str),
    /// The shard exhausted its read retries and could not be rebuilt from
    /// the heal source; it is quarantined until [`crate::ShardedCsr::repair`]
    /// succeeds.
    Quarantined {
        /// Relation index of the quarantined shard.
        relation: u16,
        /// Shard index within the relation.
        shard: u32,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Io(e) => write!(f, "shard store I/O error: {e}"),
            ShardError::Frame(e) => write!(f, "corrupt shard store file: {e}"),
            ShardError::Inconsistent(what) => write!(f, "inconsistent shard data: {what}"),
            ShardError::Quarantined { relation, shard } => write!(
                f,
                "shard r{relation}-s{shard} quarantined: retries exhausted and repair failed"
            ),
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::Io(e) => Some(e),
            ShardError::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ShardError {
    fn from(e: std::io::Error) -> Self {
        ShardError::Io(e)
    }
}

impl From<FrameError> for ShardError {
    fn from(e: FrameError) -> Self {
        ShardError::Frame(e)
    }
}

/// Metadata of one shard: the contiguous node range `[start, end)` whose
/// neighbor lists it holds, and the (deduplicated) target count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardMeta {
    /// First node id covered by the shard.
    pub start: u32,
    /// One past the last node id covered.
    pub end: u32,
    /// Number of targets stored (sum of covered degrees).
    pub num_targets: u32,
}

/// Decoded manifest: everything the store keeps resident in RAM.
#[derive(Debug)]
pub struct Manifest {
    /// The graph schema (node-type and relation vocabularies).
    pub schema: Schema,
    /// Per-node type tags.
    pub node_types: Vec<NodeTypeId>,
    /// Per-relation shard tables.
    pub shards: Vec<Vec<ShardMeta>>,
    /// Per-relation global CSR offsets (`num_nodes + 1` entries each).
    pub offsets: Vec<Vec<u32>>,
}

/// Serialises a manifest.
pub fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut w = Writer::new(
        MANIFEST_MAGIC,
        VERSION,
        64 + m.node_types.len().saturating_mul(6),
    );
    w.str_list(m.schema.node_type_names());
    w.str_list(m.schema.relation_names());
    w.len_u32(m.node_types.len(), "node count");
    for &t in &m.node_types {
        w.u16(t.0);
    }
    for (shards, offsets) in m.shards.iter().zip(&m.offsets) {
        w.len_u32(shards.len(), "shard count");
        for s in shards {
            w.u32s([s.start, s.end, s.num_targets]);
        }
        w.u32s(offsets.iter().copied());
    }
    w.finish()
}

/// Deserialises and validates a manifest.
pub fn decode_manifest(data: &[u8]) -> Result<Manifest, ShardError> {
    let mut r = Reader::open(data, MANIFEST_MAGIC, VERSION)?;
    let node_type_names = r.str_list()?;
    let relation_names = r.str_list()?;
    let mut schema = Schema::new();
    for n in &node_type_names {
        schema.add_node_type(n);
    }
    for rel in &relation_names {
        schema.add_relation(rel);
    }
    if schema.num_node_types() != node_type_names.len()
        || schema.num_relations() != relation_names.len()
    {
        // Duplicate names collapsed by interning — the manifest is corrupt.
        return Err(ShardError::Inconsistent("duplicate schema names"));
    }

    let num_nodes = r.u32()? as usize;
    let raw_types = r.u16s(num_nodes)?;
    let mut node_types = Vec::with_capacity(raw_types.len());
    for t in raw_types {
        if t as usize >= schema.num_node_types() {
            return Err(ShardError::Inconsistent("node type out of range"));
        }
        node_types.push(NodeTypeId(t));
    }

    let mut shards = Vec::with_capacity(schema.num_relations());
    let mut offsets = Vec::with_capacity(schema.num_relations());
    for _ in 0..schema.num_relations() {
        let n_shards = r.u32()?;
        let mut table = Vec::with_capacity(r.count(n_shards.into(), 12)?);
        for _ in 0..n_shards {
            table.push(ShardMeta {
                start: r.u32()?,
                end: r.u32()?,
                num_targets: r.u32()?,
            });
        }
        let off: Vec<u32> = r.u32s(num_nodes + 1)?.collect();
        validate_relation(num_nodes, &table, &off)?;
        shards.push(table);
        offsets.push(off);
    }
    r.finish()?;

    Ok(Manifest {
        schema,
        node_types,
        shards,
        offsets,
    })
}

/// Structural checks tying a relation's shard table to its offsets: shards
/// are contiguous, cover `[0, num_nodes)`, and each shard's target count
/// equals the offset span of its node range.
fn validate_relation(num_nodes: usize, table: &[ShardMeta], off: &[u32]) -> Result<(), ShardError> {
    if !off.windows(2).all(|w| w[0] <= w[1]) {
        return Err(ShardError::Inconsistent("offsets not monotone"));
    }
    if off[0] != 0 {
        return Err(ShardError::Inconsistent("offsets must start at zero"));
    }
    let mut cursor = 0u32;
    for s in table {
        if s.start != cursor || s.end <= s.start || s.end as usize > num_nodes {
            return Err(ShardError::Inconsistent("shard ranges not contiguous"));
        }
        let span = off[s.end as usize] - off[s.start as usize];
        if span != s.num_targets {
            return Err(ShardError::Inconsistent("shard target count mismatch"));
        }
        cursor = s.end;
    }
    let covered = cursor as usize == num_nodes;
    let empty_ok = table.is_empty() && off[num_nodes] == 0;
    if !covered && !empty_ok {
        return Err(ShardError::Inconsistent("shards do not cover node range"));
    }
    Ok(())
}

/// Serialises one shard's targets.
pub fn encode_shard(relation: u16, shard: u32, meta: &ShardMeta, targets: &[NodeId]) -> Vec<u8> {
    assert!(
        targets.len() == meta.num_targets as usize,
        "encode: shard target slice must match its metadata"
    );
    let mut w = Writer::new(SHARD_MAGIC, VERSION, 14 + targets.len().saturating_mul(4));
    w.u16(relation);
    w.u32s([shard, meta.start, meta.end]);
    w.len_u32(targets.len(), "shard target count");
    w.u32s(targets.iter().map(|t| t.0));
    w.finish()
}

/// Deserialises one shard, cross-checking every header field against the
/// manifest metadata the caller already trusts.
pub fn decode_shard(
    data: &[u8],
    relation: u16,
    shard: u32,
    meta: &ShardMeta,
    num_nodes: usize,
) -> Result<Vec<NodeId>, ShardError> {
    let mut r = Reader::open(data, SHARD_MAGIC, VERSION)?;
    if r.u16()? != relation || r.u32()? != shard {
        return Err(ShardError::Inconsistent("shard identity mismatch"));
    }
    if r.u32()? != meta.start || r.u32()? != meta.end {
        return Err(ShardError::Inconsistent("shard node range mismatch"));
    }
    // A hostile count is caught twice: against the bytes actually present,
    // then against the manifest, both before the allocation below.
    let count = r.u32()?;
    let raw = r.u32s(count as usize)?;
    if count != meta.num_targets {
        return Err(ShardError::Inconsistent("shard target count mismatch"));
    }
    let mut targets = Vec::with_capacity(raw.len());
    for t in raw {
        if t as usize >= num_nodes {
            return Err(ShardError::Inconsistent("target node out of range"));
        }
        targets.push(NodeId(t));
    }
    r.finish()?;
    Ok(targets)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_manifest() -> Manifest {
        let mut schema = Schema::new();
        schema.add_node_type("user");
        schema.add_node_type("item");
        schema.add_relation("view");
        Manifest {
            schema,
            node_types: vec![NodeTypeId(0), NodeTypeId(0), NodeTypeId(1)],
            shards: vec![vec![
                ShardMeta {
                    start: 0,
                    end: 2,
                    num_targets: 2,
                },
                ShardMeta {
                    start: 2,
                    end: 3,
                    num_targets: 2,
                },
            ]],
            offsets: vec![vec![0, 1, 2, 4]],
        }
    }

    #[test]
    fn manifest_roundtrip() {
        let m = sample_manifest();
        let bytes = encode_manifest(&m);
        let m2 = decode_manifest(&bytes).expect("decode");
        assert_eq!(m2.schema, m.schema);
        assert_eq!(m2.node_types, m.node_types);
        assert_eq!(m2.shards, m.shards);
        assert_eq!(m2.offsets, m.offsets);
    }

    #[test]
    fn shard_roundtrip() {
        let meta = ShardMeta {
            start: 0,
            end: 2,
            num_targets: 2,
        };
        let targets = vec![NodeId(2), NodeId(2)];
        let bytes = encode_shard(0, 0, &meta, &targets);
        let back = decode_shard(&bytes, 0, 0, &meta, 3).expect("decode");
        assert_eq!(back, targets);
    }

    #[test]
    fn shard_identity_cross_checked() {
        let meta = ShardMeta {
            start: 0,
            end: 2,
            num_targets: 2,
        };
        let bytes = encode_shard(0, 0, &meta, &[NodeId(2), NodeId(2)]);
        assert!(matches!(
            decode_shard(&bytes, 1, 0, &meta, 3),
            Err(ShardError::Inconsistent(_))
        ));
        assert!(matches!(
            decode_shard(&bytes, 0, 7, &meta, 3),
            Err(ShardError::Inconsistent(_))
        ));
    }

    #[test]
    fn manifest_rejects_incoherent_tables() {
        let mut m = sample_manifest();
        m.shards[0][1].num_targets = 9; // contradicts the offsets
        let bytes = encode_manifest(&m);
        assert!(matches!(
            decode_manifest(&bytes),
            Err(ShardError::Inconsistent(_))
        ));
    }
}
