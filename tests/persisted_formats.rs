//! One corruption property suite over every persisted format: checkpoints
//! (MHGC), the shard manifest (MHGS), shard files (MHSH), graph snapshots
//! (MHG1) and exported embeddings (MHE1).
//!
//! For each format: every single-bit flip is rejected, every truncation is
//! rejected, and a length field forged to `u32::MAX` (trailer re-signed, so
//! the checksum passes) is rejected as `Truncated` without any large
//! allocation. A second test pins the bytes of the three formats that must
//! never move (MHGC, MHGS, MHSH), and a third checks that a re-signed graph
//! snapshot whose CSR does not start at offset 0 is rejected as
//! `Inconsistent`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hybridgnn_repro::ckpt::{self, CkptError, FrameError, StateDict};
use hybridgnn_repro::graph::shard_codec::{self, Manifest, ShardError, ShardMeta};
use hybridgnn_repro::graph::{persist, GraphBuilder, MultiplexGraph, NodeId, NodeTypeId, Schema};
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

/// Encoded size of a frame string list.
fn str_list_len(items: &[String]) -> usize {
    2 + items.iter().map(|s| 2 + s.len()).sum::<usize>()
}

/// Encoded size of a schema: its node-type and relation name lists.
fn schema_len(schema: &Schema) -> usize {
    str_list_len(schema.node_type_names()) + str_list_len(schema.relation_names())
}

/// Recomputes a frame's checksum trailer after its body was edited, so the
/// frame passes `Reader::open` and only the decoder's own checks remain.
fn resign(frame: &mut [u8]) {
    let body = frame.len() - 8;
    let sum = ckpt::fnv1a64(&frame[..body]);
    frame[body..].copy_from_slice(&sum.to_le_bytes());
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
    }
}

const SHARD_META: ShardMeta = ShardMeta {
    start: 4,
    end: 6,
    num_targets: 3,
};

fn shard() -> Vec<u8> {
    shard_codec::encode_shard(1, 3, &SHARD_META, &[NodeId(7), NodeId(0), NodeId(9)])
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
                shard_codec::decode_shard(b, 1, 3, &SHARD_META, 10)
                    .map(drop)
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

/// FNV-1a of the encoding of fixed inputs, computed with the codecs these
/// formats were first written by: checkpoint directories and shard stores
/// on disk stay readable only while these hold.
#[test]
fn checkpoint_and_shard_store_bytes_are_pinned() {
    assert_eq!(
        ckpt::fnv1a64(&ckpt::encode(&state_dict())),
        0x88c1_1216_5247_9b5e
    );
    assert_eq!(
        ckpt::fnv1a64(&shard_codec::encode_manifest(&manifest())),
        0xa706_045e_f544_cda6
    );
    assert_eq!(ckpt::fnv1a64(&shard()), 0x39a0_4186_1fa1_87ac);
}
