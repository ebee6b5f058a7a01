//! One corruption property suite over every persisted format: checkpoints
//! (MHGC), the shard manifest (MHGS), shard files (MHSH), graph snapshots
//! (MHG1) and exported embeddings (MHE1).
//!
//! For each format: every single-bit flip is rejected, every truncation is
//! rejected, every swap of two distinct 8-byte body words and every move of
//! a word to another lane of its 32-byte checksum stripe fails the trailer,
//! and a length field forged to `u32::MAX` (trailer re-signed, so the
//! checksum passes) is rejected as `Truncated` without any large
//! allocation. Each fixture frames at least 64 bytes, so every format
//! reaches the trailer's stripe loop. A pinning test fixes the bytes of
//! every format at its current version and checks that a file of the
//! previous version is rejected as `UnsupportedVersion`, and a last test
//! checks that a re-signed graph snapshot whose CSR does not start at
//! offset 0 is rejected as `Inconsistent`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use std::path::{Path, PathBuf};

use hybridgnn_repro::ckpt::{self, Checkpointer, CkptError, FrameError, StateDict};
use hybridgnn_repro::graph::shard_codec::{self, Manifest, ShardError, ShardMeta};
use hybridgnn_repro::graph::{
    persist, GraphBuilder, MultiplexGraph, NodeId, NodeTypeId, Schema, ShardedCsr,
    ShardedCsrOptions, MANIFEST_FILE,
};
use hybridgnn_repro::model::embeddings;
use hybridgnn_repro::tensor::Tensor;

/// Records the largest single allocation the current thread requests while
/// armed; everything else passes straight through to the system allocator.
struct LargestAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees carry over. The bookkeeping only touches
// const-initialised thread-local `Cell`s, which have no destructor and never
// allocate, so it cannot re-enter the allocator.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.with(Cell::get) {
            LARGEST.with(|l| l.set(l.get().max(layout.size())));
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.with(Cell::get) {
            LARGEST.with(|l| l.set(l.get().max(new_size)));
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

/// Runs `f` and returns its result plus the largest allocation it asked for.
fn largest_alloc_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, LARGEST.with(Cell::get))
}

/// A decoder under test: `Err(Some(e))` is a frame error, `Err(None)` a
/// domain error raised by the format's owner.
type Decode = fn(&[u8]) -> Result<(), Option<FrameError>>;

struct Format {
    name: &'static str,
    bytes: Vec<u8>,
    decode: Decode,
    /// Offset of a `u32` length field that sizes an allocation.
    len_at: usize,
}

fn ckpt_frame(e: CkptError) -> Option<FrameError> {
    match e {
        CkptError::Frame(f) => Some(f),
        _ => None,
    }
}

fn shard_frame(e: ShardError) -> Option<FrameError> {
    match e {
        ShardError::Frame(f) => Some(f),
        _ => None,
    }
}

/// Frame header bytes: magic plus version.
const HEADER: usize = 6;
/// Frame trailer bytes: the checksum.
const TRAILER: usize = 8;

/// Encoded size of a frame string list.
fn str_list_len(items: &[String]) -> usize {
    2 + items.iter().map(|s| 2 + s.len()).sum::<usize>()
}

/// Encoded size of a schema: its node-type and relation name lists.
fn schema_len(schema: &Schema) -> usize {
    str_list_len(schema.node_type_names()) + str_list_len(schema.relation_names())
}

/// Recomputes a frame's trailer with `sum` after its bytes were edited.
fn resign_with(frame: &mut [u8], sum: fn(&[u8]) -> u64) {
    let body = frame.len() - TRAILER;
    let sum = sum(&frame[..body]);
    frame[body..].copy_from_slice(&sum.to_le_bytes());
}

/// Rewrites a frame as an earlier version wrote it: the same body under
/// version field `version`, re-signed with that version's trailer `sum`.
fn as_version(frame: &mut [u8], version: u16, sum: fn(&[u8]) -> u64) {
    frame[4..HEADER].copy_from_slice(&version.to_le_bytes());
    resign_with(frame, sum);
}

/// Recomputes a frame's checksum trailer after its body was edited, so the
/// frame passes `Reader::open` and only the decoder's own checks remain.
fn resign(frame: &mut [u8]) {
    resign_with(frame, ckpt::frame::checksum);
}

fn state_dict() -> StateDict {
    let mut d = StateDict::new();
    d.put_u64s("a/rng", vec![1, u64::MAX, 3, 4]);
    d.put_f64("loop/best", -0.123456789);
    d.put_u64("loop/epoch", 42);
    d.put_bytes("model/blob", vec![0xde, 0xad, 0xbe, 0xef]);
    d.put_tensor(
        "model/emb",
        Tensor::from_vec(2, 3, vec![1.0, -2.5, 0.0, 3.5, f32::MIN_POSITIVE, 7.0]),
    );
    d
}

fn manifest() -> Manifest {
    let mut schema = Schema::new();
    schema.add_node_type("user");
    schema.add_node_type("item");
    schema.add_relation("view");
    schema.add_relation("buy");
    let meta = |start, end, num_targets| ShardMeta {
        start,
        end,
        num_targets,
    };
    Manifest {
        schema,
        node_types: vec![NodeTypeId(0), NodeTypeId(0), NodeTypeId(1), NodeTypeId(1)],
        shards: vec![vec![meta(0, 2, 2), meta(2, 4, 2)], vec![]],
        offsets: vec![vec![0, 1, 2, 3, 4], vec![0, 0, 0, 0, 0]],
        // One block per shard of relation 0, none for the empty relation.
        block_sums: vec![vec![0x0123_4567_89ab_cdef, u64::MAX], vec![]],
    }
}

const SHARD_META: ShardMeta = ShardMeta {
    start: 4,
    end: 6,
    num_targets: 12,
};

fn shard() -> Vec<u8> {
    let targets = [7, 0, 9, 3, 3, 1, 8, 2, 5, 4, 6, 0].map(NodeId);
    shard_codec::encode_shard(1, 3, &SHARD_META, &targets)
}

fn graph() -> MultiplexGraph {
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

fn formats() -> Vec<Format> {
    let m = manifest();
    let g = graph();
    let tables = vec![
        Tensor::from_vec(2, 3, vec![0.5, -1.0, 2.0, 0.0, 1e-3, 9.0]),
        Tensor::from_vec(2, 3, vec![1.0; 6]),
    ];
    vec![
        Format {
            name: "MHGC",
            bytes: ckpt::encode(&state_dict()),
            decode: |b| ckpt::decode(b).map(drop).map_err(ckpt_frame),
            // entry count, name length, "a/rng", tag, then the u64 array
            // length.
            len_at: HEADER + 4 + 2 + 5 + 1,
        },
        Format {
            name: "MHGS",
            bytes: shard_codec::encode_manifest(&m),
            decode: |b| {
                shard_codec::decode_manifest(b)
                    .map(drop)
                    .map_err(shard_frame)
            },
            // The node count after the two name lists.
            len_at: HEADER + schema_len(&m.schema),
        },
        Format {
            name: "MHSH",
            bytes: shard(),
            decode: |b| {
                shard_codec::decode_shard(b, 1, 3, &SHARD_META, 10, &mut Vec::new())
                    .map_err(shard_frame)
            },
            // relation, shard, start, end, then the target count.
            len_at: HEADER + 2 + 4 + 4 + 4,
        },
        Format {
            name: "MHG1",
            bytes: persist::encode(&g),
            decode: |b| persist::decode(b).map(drop).map_err(Some),
            len_at: HEADER + schema_len(g.schema()),
        },
        Format {
            name: "MHE1",
            bytes: embeddings::encode(&tables),
            decode: |b| embeddings::decode(b).map(drop).map_err(Some),
            // relation count, node count, then `dim`.
            len_at: HEADER + 4 + 4,
        },
    ]
}

#[test]
fn every_single_bit_flip_is_rejected() {
    for f in formats() {
        assert_eq!(
            (f.decode)(&f.bytes),
            Ok(()),
            "{} fixture must decode",
            f.name
        );
        assert!(
            f.bytes.len() - TRAILER >= 64,
            "{} fixture frames only {} bytes",
            f.name,
            f.bytes.len() - TRAILER
        );
        for byte in 0..f.bytes.len() {
            for bit in 0..8 {
                let mut corrupt = f.bytes.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(
                    (f.decode)(&corrupt).is_err(),
                    "{}: flip at byte {byte} bit {bit} decoded",
                    f.name
                );
            }
        }
    }
}

#[test]
fn every_truncation_is_rejected() {
    for f in formats() {
        for cut in 0..f.bytes.len() {
            assert!(
                (f.decode)(&f.bytes[..cut]).is_err(),
                "{}: truncation to {cut} bytes decoded",
                f.name
            );
        }
    }
}

/// Asserts that `edited`, a copy of a fixture with body words rearranged,
/// fails the trailer check.
fn assert_checksum_rejects(f: &Format, edited: &[u8], what: &str) {
    assert!(
        matches!(
            (f.decode)(edited),
            Err(Some(FrameError::ChecksumMismatch { .. }))
        ),
        "{}: {what} passed the checksum",
        f.name
    );
}

/// Byte offsets of the 8-byte words of a frame that lie wholly in its body.
/// Words are counted from the frame start, as the checksum's lanes are.
fn body_words(f: &Format) -> impl Iterator<Item = usize> {
    (HEADER.div_ceil(8) * 8..=f.bytes.len() - TRAILER - 8).step_by(8)
}

#[test]
fn swapped_body_words_are_rejected() {
    for f in formats() {
        for a in body_words(&f) {
            for b in body_words(&f).filter(|&b| b > a) {
                if f.bytes[a..a + 8] == f.bytes[b..b + 8] {
                    continue;
                }
                let mut edited = f.bytes.clone();
                let (head, tail) = edited.split_at_mut(b);
                head[a..a + 8].swap_with_slice(&mut tail[..8]);
                assert_checksum_rejects(&f, &edited, &format!("swap of words {a} and {b}"));
            }
        }
    }
}

#[test]
fn words_moved_across_lanes_are_rejected() {
    for f in formats() {
        let framed = f.bytes.len() - TRAILER;
        for stripe in (0..=framed - 32).step_by(32) {
            // Moving a word from lane `from` to lane `to` shifts the lanes
            // between them by one: a rotation of that run of words.
            for from in 0..4 {
                for to in (0..4).filter(|&to| to != from) {
                    let (lo, hi) = (from.min(to), from.max(to));
                    let run = stripe + 8 * lo..stripe + 8 * (hi + 1);
                    if run.start < HEADER {
                        continue;
                    }
                    let mut edited = f.bytes.clone();
                    if from < to {
                        edited[run].rotate_left(8);
                    } else {
                        edited[run].rotate_right(8);
                    }
                    if edited == f.bytes {
                        continue;
                    }
                    assert_checksum_rejects(
                        &f,
                        &edited,
                        &format!("stripe {stripe}: lane {from} moved to lane {to}"),
                    );
                }
            }
        }
    }
}

#[test]
fn forged_lengths_are_truncated_before_any_allocation() {
    for f in formats() {
        let mut forged = f.bytes.clone();
        forged[f.len_at..f.len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        resign(&mut forged);

        let (res, largest) = largest_alloc_of(|| (f.decode)(&forged));
        assert_eq!(res, Err(Some(FrameError::Truncated)), "{}", f.name);
        assert!(
            largest < 4096,
            "{}: decoding a forged length allocated {largest} bytes",
            f.name
        );
    }
}

#[test]
fn snapshot_csr_offsets_must_start_at_zero() {
    let g = graph();
    let mut bytes = persist::encode(&g);
    // The schema, the node count, one u16 type per node, then the first
    // relation's offset count and its first offset.
    let first = HEADER + schema_len(g.schema()) + 4 + 2 * g.num_nodes() + 4;
    assert_eq!(bytes[first..first + 4], 0u32.to_le_bytes());
    bytes[first..first + 4].copy_from_slice(&1u32.to_le_bytes());
    resign(&mut bytes);
    assert_eq!(
        persist::decode(&bytes).map(drop),
        Err(FrameError::Inconsistent("CSR offsets must start at zero"))
    );
}

/// FNV-1a of the encoding of fixed inputs at each format's current
/// version. Bytes may move only with a version bump: a file of the
/// previous version — the same body under its old version field and the
/// trailer that version carried (FNV-1a 64, or XXH64 for MHGS/MHSH v2) —
/// is rejected as `UnsupportedVersion`, never misread and never reported
/// as a checksum mismatch.
#[test]
fn checkpoint_and_shard_store_bytes_are_pinned() {
    // Per format: the hash of its current bytes, its previous version and
    // that version's trailer, and, for the fixtures unchanged since then,
    // the hash of the bytes that version wrote.
    type Pin = (&'static str, u64, u16, fn(&[u8]) -> u64, Option<u64>);
    let fnv: fn(&[u8]) -> u64 = ckpt::fnv1a64;
    let xxh: fn(&[u8]) -> u64 = ckpt::frame::checksum;
    let pinned: [Pin; 5] = [
        (
            "MHGC",
            0xb478_06ac_0366_94df,
            1,
            fnv,
            Some(0x88c1_1216_5247_9b5e),
        ),
        // v3 added the per-block checksums to the manifest.
        ("MHGS", 0x3839_65d9_f047_6f43, 2, xxh, None),
        // v3 shards keep the v2 body; only the version moved.
        (
            "MHSH",
            0x1864_c796_e7b1_7620,
            2,
            xxh,
            Some(0x0462_73b5_8b32_97d1),
        ),
        ("MHG1", 0xb05e_ff43_594a_3027, 2, fnv, None),
        ("MHE1", 0x5b41_c2a7_62ab_7cce, 1, fnv, None),
    ];
    for (f, (name, hash, old, old_sum, old_hash)) in formats().iter().zip(pinned) {
        assert_eq!(f.name, name);
        assert_eq!(
            ckpt::fnv1a64(&f.bytes),
            hash,
            "{name}: {:#018x}",
            ckpt::fnv1a64(&f.bytes)
        );
        assert_eq!(
            u16::from_le_bytes([f.bytes[4], f.bytes[5]]),
            old + 1,
            "{name}: version"
        );
        let mut previous = f.bytes.clone();
        as_version(&mut previous, old, old_sum);
        if let Some(old_hash) = old_hash {
            assert_eq!(ckpt::fnv1a64(&previous), old_hash, "{name}: v{old} bytes");
        }
        assert_eq!(
            (f.decode)(&previous),
            Err(Some(FrameError::UnsupportedVersion(old))),
            "{name}"
        );
    }
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mhg_formats_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Rewrites the frame file at `path` as version `version` wrote it, with
/// that version's trailer `sum`.
fn downgrade(path: &Path, version: u16, sum: fn(&[u8]) -> u64) {
    let mut bytes = ckpt::read_file(path).unwrap();
    as_version(&mut bytes, version, sum);
    ckpt::atomic_write(path, &bytes).unwrap();
}

/// Rewrites the frame file at `path` as version 1 wrote it.
fn downgrade_to_v1(path: &Path) {
    downgrade(path, 1, ckpt::fnv1a64);
}

#[test]
fn a_v1_shard_store_is_rejected_on_open() {
    let dir = fresh_dir("v1_store");
    drop(ShardedCsr::build(&graph(), &dir, ShardedCsrOptions::default()).unwrap());
    downgrade_to_v1(&dir.join(MANIFEST_FILE));
    let res = ShardedCsr::open(&dir, ShardedCsrOptions::default()).map(drop);
    assert!(
        matches!(
            res,
            Err(ShardError::Frame(FrameError::UnsupportedVersion(1)))
        ),
        "{res:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_v2_shard_store_is_rejected_on_open() {
    let dir = fresh_dir("v2_store");
    drop(ShardedCsr::build(&graph(), &dir, ShardedCsrOptions::default()).unwrap());
    downgrade(&dir.join(MANIFEST_FILE), 2, ckpt::frame::checksum);
    let res = ShardedCsr::open(&dir, ShardedCsrOptions::default()).map(drop);
    assert!(
        matches!(
            res,
            Err(ShardError::Frame(FrameError::UnsupportedVersion(2)))
        ),
        "{res:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_v1_checkpoint_is_rejected_on_resume() {
    let ck = Checkpointer::create(fresh_dir("v1_ckpt")).unwrap();
    ck.save(3, &state_dict()).unwrap();
    downgrade_to_v1(&ck.path_for(3));
    let res = ck.load_latest().map(drop);
    assert!(
        matches!(
            res,
            Err(CkptError::Frame(FrameError::UnsupportedVersion(1)))
        ),
        "{res:?}"
    );
    let _ = std::fs::remove_dir_all(ck.dir());
}
