//! On-disk wire format for the sharded CSR store.
//!
//! Two [`mhg_ckpt::frame`] formats, laid out in the "Persisted formats"
//! table of DESIGN.md §2.11: the manifest (`manifest.mhgs`, magic `MHGS`)
//! and one file per shard (`r{R}-s{S}.shard`, magic `MHSH`). Writes go
//! through `mhg_ckpt::atomic_write`. The manifest is streamed through a
//! [`StreamReader`] (`read_manifest`), so the 18 MB manifest of the
//! 10M-edge tier is never held whole; whole shard files are read through
//! `mhg_ckpt::read_file`. Every read the store makes carries the
//! `mhg-faults` io_read injection site.
//!
//! The frame owns the byte mechanics. This module owns the semantic
//! cross-checks: manifest table validation, and shard identity, node range
//! and target bounds against the manifest metadata the caller already
//! holds. Corrupt, truncated or hostile input always yields a typed
//! [`ShardError`], never a panic or a runaway allocation.
//!
//! A shard's targets are also cut into blocks of [`BLOCK_TARGETS`], and the
//! manifest records the [`frame::checksum`] of each block's little-endian
//! bytes. The pager reads one block at a time at a fixed offset of the shard
//! file ([`block_offset`]) and checks it against that sum
//! (`decode_block`); a whole-frame read checks the trailer and then every
//! block sum (`check_block_sums`).
// Persisted lengths are narrowed through the frame's checked helpers.
#![deny(clippy::cast_possible_truncation)]

use std::io::Read;

use mhg_ckpt::frame::{self, FrameError, Reader, StreamReader, Writer, TRAILER_LEN};

use crate::{NodeId, NodeTypeId, Schema};

/// Magic bytes of the manifest file.
pub const MANIFEST_MAGIC: &[u8; 4] = b"MHGS";
/// Magic bytes of a shard file.
pub const SHARD_MAGIC: &[u8; 4] = b"MHSH";
/// Current format version (shared by manifest and shards).
pub const VERSION: u16 = 3;

/// Targets per block: the unit the pager reads, checksums and caches.
pub const BLOCK_TARGETS: usize = 1024;
/// Bytes of one full block of targets.
const BLOCK_BYTES: usize = BLOCK_TARGETS * 4;
/// Bytes of a shard frame before its first target: magic, version,
/// relation, shard, start, end and target count.
pub(crate) const SHARD_HEADER_BYTES: usize = 24;

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
    /// Per relation, the block checksums of every shard, in shard order:
    /// `ceil(num_targets / BLOCK_TARGETS)` sums per shard.
    pub block_sums: Vec<Vec<u64>>,
}

/// Number of blocks a shard of `num_targets` targets is cut into.
pub(crate) fn num_blocks(num_targets: u32) -> usize {
    (num_targets as usize).div_ceil(BLOCK_TARGETS)
}

/// Byte offset of block `block` inside its shard file.
pub fn block_offset(block: usize) -> u64 {
    SHARD_HEADER_BYTES as u64 + block as u64 * BLOCK_BYTES as u64
}

/// The little-endian target bytes of an encoded shard frame: everything
/// between its header and its trailer.
fn target_bytes(frame: &[u8]) -> &[u8] {
    let end = frame.len().saturating_sub(TRAILER_LEN);
    frame.get(SHARD_HEADER_BYTES..end).unwrap_or_default()
}

/// The manifest sums of an encoded shard frame: [`frame::checksum`] of
/// each block of its target bytes.
pub(crate) fn block_sums(frame: &[u8]) -> impl Iterator<Item = u64> + '_ {
    target_bytes(frame).chunks(BLOCK_BYTES).map(frame::checksum)
}

/// Checks every block of an encoded shard frame against its manifest
/// `sums`. The header and trailer are [`decode_shard`]'s to check.
pub(crate) fn check_block_sums(frame: &[u8], sums: &[u64]) -> Result<(), ShardError> {
    if target_bytes(frame).len().div_ceil(BLOCK_BYTES) != sums.len() {
        return Err(ShardError::Inconsistent("shard block count mismatch"));
    }
    for (computed, &stored) in block_sums(frame).zip(sums) {
        if computed != stored {
            return Err(FrameError::ChecksumMismatch { stored, computed }.into());
        }
    }
    Ok(())
}

/// Decodes one block read from a shard file into `targets`, after checking
/// its bytes against the manifest sum `stored`. `targets` is cleared first;
/// on error its contents are unspecified.
pub(crate) fn decode_block(
    bytes: &[u8],
    stored: u64,
    num_nodes: usize,
    targets: &mut Vec<NodeId>,
) -> Result<(), ShardError> {
    let computed = frame::checksum(bytes);
    if computed != stored {
        return Err(FrameError::ChecksumMismatch { stored, computed }.into());
    }
    let mut r = Reader::plain(bytes);
    let raw = r.u32s(bytes.len() / 4)?;
    r.finish()?;
    decode_targets(raw, num_nodes, targets)
}

/// Fills `targets` with `raw` in one bulk copy, then range-checks them in
/// one branch-free scan: the largest target bounds every other one.
/// `reserve_exact` keeps the pager's per-thread decode buffer at the size
/// of the largest block it has held.
fn decode_targets(
    raw: impl ExactSizeIterator<Item = u32>,
    num_nodes: usize,
    targets: &mut Vec<NodeId>,
) -> Result<(), ShardError> {
    targets.clear();
    targets.reserve_exact(raw.len());
    targets.extend(raw.map(NodeId));
    let max = targets.iter().fold(0, |m, t| m.max(t.0));
    if !targets.is_empty() && max as usize >= num_nodes {
        return Err(ShardError::Inconsistent("target node out of range"));
    }
    Ok(())
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
    for ((shards, offsets), sums) in m.shards.iter().zip(&m.offsets).zip(&m.block_sums) {
        w.len_u32(shards.len(), "shard count");
        for s in shards {
            w.u32s([s.start, s.end, s.num_targets]);
        }
        w.u32s(offsets.iter().copied());
        for &sum in sums {
            w.u64(sum);
        }
    }
    w.finish()
}

/// Deserialises and validates a manifest held in memory.
pub fn decode_manifest(data: &[u8]) -> Result<Manifest, ShardError> {
    read_manifest(data, data.len() as u64)
}

/// Reads and validates a manifest of `len` bytes from `src` through a
/// [`StreamReader`]: only the decoded tables and one bounded window are
/// held, never the whole file. The trailer is checked as the bytes stream
/// past, and a mismatch outranks any error the fields raised.
pub(crate) fn read_manifest(src: impl Read, len: u64) -> Result<Manifest, ShardError> {
    let mut s = StreamReader::open(src, len, MANIFEST_MAGIC, VERSION)?;
    let body = manifest_body(&mut s);
    s.finish(body)
}

fn manifest_body(s: &mut StreamReader<impl Read, ShardError>) -> Result<Manifest, ShardError> {
    let node_type_names = s.str_list()?;
    let relation_names = s.str_list()?;
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

    let num_nodes = s.take(4)?.u32()? as usize;
    let num_types = schema.num_node_types();
    let mut node_types = Vec::with_capacity(s.count(num_nodes as u64, 2)?);
    s.runs(num_nodes, 2, |mut r, k| {
        for t in r.u16s(k)? {
            if t as usize >= num_types {
                return Err(ShardError::Inconsistent("node type out of range"));
            }
            node_types.push(NodeTypeId(t));
        }
        Ok(())
    })?;

    let mut shards = Vec::with_capacity(schema.num_relations());
    let mut offsets = Vec::with_capacity(schema.num_relations());
    let mut block_sums = Vec::with_capacity(schema.num_relations());
    for _ in 0..schema.num_relations() {
        let n_shards = s.take(4)?.u32()?;
        let mut table = Vec::with_capacity(s.count(n_shards.into(), 12)?);
        s.runs(n_shards as usize, 12, |mut r, k| {
            for _ in 0..k {
                table.push(ShardMeta {
                    start: r.u32()?,
                    end: r.u32()?,
                    num_targets: r.u32()?,
                });
            }
            Ok(())
        })?;
        let mut off = Vec::with_capacity(s.count(num_nodes as u64 + 1, 4)?);
        s.runs(num_nodes + 1, 4, |mut r, k| {
            off.extend(r.u32s(k)?);
            Ok(())
        })?;
        validate_relation(num_nodes, &table, &off)?;
        // The validated target counts fix the number of sums; `count`
        // checks that many are present before any is collected.
        let n_sums = table
            .iter()
            .map(|s| num_blocks(s.num_targets))
            .sum::<usize>();
        let mut sums = Vec::with_capacity(s.count(n_sums as u64, 8)?);
        s.runs(n_sums, 8, |mut r, k| {
            sums.extend(r.u64s(k)?);
            Ok(())
        })?;
        block_sums.push(sums);
        shards.push(table);
        offsets.push(off);
    }

    Ok(Manifest {
        schema,
        node_types,
        shards,
        offsets,
        block_sums,
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

/// Reads the identity and node range fields of a shard header and checks
/// them against the manifest.
fn check_identity(
    r: &mut Reader<'_>,
    relation: u16,
    shard: u32,
    meta: &ShardMeta,
) -> Result<(), ShardError> {
    if r.u16()? != relation || r.u32()? != shard {
        return Err(ShardError::Inconsistent("shard identity mismatch"));
    }
    if r.u32()? != meta.start || r.u32()? != meta.end {
        return Err(ShardError::Inconsistent("shard node range mismatch"));
    }
    Ok(())
}

/// Checks the header of a shard file — the `SHARD_HEADER_BYTES` before
/// block 0 — against the manifest: magic, version, identity, node range
/// and target count. A page-in of block 0 reads the header with it, so a
/// damaged header fails on the page-in path too, not only in a
/// whole-frame read.
pub(crate) fn check_shard_header(
    header: &[u8],
    relation: u16,
    shard: u32,
    meta: &ShardMeta,
) -> Result<(), ShardError> {
    let mut r = Reader::plain(header);
    if r.bytes(SHARD_MAGIC.len())? != SHARD_MAGIC {
        return Err(FrameError::BadMagic.into());
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(FrameError::UnsupportedVersion(version).into());
    }
    check_identity(&mut r, relation, shard, meta)?;
    if r.u32()? != meta.num_targets {
        return Err(ShardError::Inconsistent("shard target count mismatch"));
    }
    r.finish()?;
    Ok(())
}

/// Deserialises one shard into `targets`, cross-checking every header field
/// against the manifest metadata the caller already trusts.
///
/// `targets` is cleared first and reused. On success it holds exactly the
/// shard's targets; on error its contents are unspecified. The block sums
/// are checked separately, by `check_block_sums`.
pub fn decode_shard(
    data: &[u8],
    relation: u16,
    shard: u32,
    meta: &ShardMeta,
    num_nodes: usize,
    targets: &mut Vec<NodeId>,
) -> Result<(), ShardError> {
    let mut r = Reader::open(data, SHARD_MAGIC, VERSION)?;
    check_identity(&mut r, relation, shard, meta)?;
    // A hostile count is caught twice: against the bytes actually present,
    // then against the manifest, both before `targets` grows below.
    let count = r.u32()?;
    let raw = r.u32s(count as usize)?;
    if count != meta.num_targets {
        return Err(ShardError::Inconsistent("shard target count mismatch"));
    }
    r.finish()?;
    decode_targets(raw, num_nodes, targets)
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
            block_sums: vec![vec![11, 22]],
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
        assert_eq!(m2.block_sums, m.block_sums);
    }

    #[test]
    fn blocks_are_checked_against_their_manifest_sums() {
        // 2.5 blocks: two full ones and a short tail.
        let count = u32::try_from(2 * BLOCK_TARGETS + 512).unwrap();
        let targets: Vec<NodeId> = (0..count).map(NodeId).collect();
        let meta = ShardMeta {
            start: 0,
            end: 1,
            num_targets: count,
        };
        let frame = encode_shard(0, 0, &meta, &targets);
        let sums: Vec<u64> = block_sums(&frame).collect();
        assert_eq!(sums.len(), num_blocks(meta.num_targets));
        assert_eq!(sums.len(), 3);
        check_block_sums(&frame, &sums).unwrap();
        let n = targets.len();
        let mut out = Vec::new();
        for (b, &sum) in sums.iter().enumerate() {
            let at = usize::try_from(block_offset(b)).unwrap();
            let len = (n - b * BLOCK_TARGETS).min(BLOCK_TARGETS) * 4;
            decode_block(&frame[at..at + len], sum, n, &mut out).unwrap();
            assert_eq!(out, targets[b * BLOCK_TARGETS..][..len / 4]);
        }

        // A changed target fails its block's sum, in a whole frame and in
        // a block read alike.
        let mut drifted = targets.clone();
        drifted[BLOCK_TARGETS + 7] = NodeId(0);
        assert!(matches!(
            check_block_sums(&encode_shard(0, 0, &meta, &drifted), &sums),
            Err(ShardError::Frame(FrameError::ChecksumMismatch { .. }))
        ));
        assert!(matches!(
            check_block_sums(&frame, &sums[..2]),
            Err(ShardError::Inconsistent(_))
        ));
        let at = usize::try_from(block_offset(1)).unwrap();
        let mut block = frame[at..at + BLOCK_BYTES].to_vec();
        block[9] ^= 1;
        assert!(matches!(
            decode_block(&block, sums[1], n, &mut out),
            Err(ShardError::Frame(FrameError::ChecksumMismatch { .. }))
        ));
        // A block whose sum matches still has its targets range-checked.
        assert!(matches!(
            decode_block(&frame[at..at + BLOCK_BYTES], sums[1], 10, &mut out),
            Err(ShardError::Inconsistent("target node out of range"))
        ));
    }

    #[test]
    fn shard_headers_are_checked_against_the_manifest() {
        let meta = ShardMeta {
            start: 0,
            end: 2,
            num_targets: 2,
        };
        let frame = encode_shard(0, 5, &meta, &[NodeId(2), NodeId(2)]);
        let header = &frame[..SHARD_HEADER_BYTES];
        check_shard_header(header, 0, 5, &meta).unwrap();
        assert!(check_shard_header(header, 0, 4, &meta).is_err());
        let other = ShardMeta {
            num_targets: 3,
            ..meta
        };
        assert!(check_shard_header(header, 0, 5, &other).is_err());
        for byte in 0..SHARD_HEADER_BYTES {
            let mut flipped = header.to_vec();
            flipped[byte] ^= 0x10;
            assert!(
                check_shard_header(&flipped, 0, 5, &meta).is_err(),
                "header byte {byte}"
            );
        }
    }

    #[test]
    fn manifest_sums_are_length_guarded() {
        let mut m = sample_manifest();
        m.block_sums[0].pop();
        assert!(matches!(
            decode_manifest(&encode_manifest(&m)),
            Err(ShardError::Frame(FrameError::Truncated))
        ));
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
        // A reused buffer's old contents never leak into the shard.
        let mut back = vec![NodeId(9); 5];
        decode_shard(&bytes, 0, 0, &meta, 3, &mut back).expect("decode");
        assert_eq!(back, targets);
        assert!(matches!(
            decode_shard(&bytes, 0, 0, &meta, 2, &mut back),
            Err(ShardError::Inconsistent("target node out of range"))
        ));
    }

    #[test]
    fn shard_identity_cross_checked() {
        let meta = ShardMeta {
            start: 0,
            end: 2,
            num_targets: 2,
        };
        let bytes = encode_shard(0, 0, &meta, &[NodeId(2), NodeId(2)]);
        let mut out = Vec::new();
        assert!(matches!(
            decode_shard(&bytes, 1, 0, &meta, 3, &mut out),
            Err(ShardError::Inconsistent(_))
        ));
        assert!(matches!(
            decode_shard(&bytes, 0, 7, &meta, 3, &mut out),
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
