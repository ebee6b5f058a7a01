//! [`ShardedCsr`]: a chunk-paged, on-disk CSR store for graphs larger than
//! RAM.
//!
//! The store keeps only compact metadata resident — schema, per-node type
//! tags, per-relation global CSR offsets, the shard tables and one checksum
//! per block — while the target arrays live in per-`(relation, shard)`
//! files. Each shard covers a *contiguous node range*, so every neighbor
//! list lives entirely inside one shard. The pager's unit is a block of
//! [`BLOCK_TARGETS`] targets of one shard: a miss reads just that block
//! with one positioned read, checks it against its manifest sum and copies
//! it into a frame of one fixed arena, evicting frames in FIFO order. Every
//! access copies its list out of the frames, under the lock, into a
//! per-thread scratch buffer, and runs the caller's closure on that copy
//! with the lock released.
//!
//! Building never materialises the whole graph: [`ShardedCsr::build`]
//! consumes a re-streamable [`EdgeSource`] in waves. Pass A streams the
//! edges once to count per-node degree upper bounds and plan shard
//! boundaries; each wave then re-streams the edges, collects only the
//! directed edges landing in the wave's node ranges, sorts + dedups each
//! neighbor list with exactly the semantics of `Csr::from_directed_edges`,
//! and atomically writes the finished shard files. Peak memory is bounded
//! by the wave budget plus the resident metadata — independent of the
//! graph's total edge count.
//!
//! Determinism: neighbor lists are bit-identical to the in-RAM
//! [`MultiplexGraph`] built from the same edges, so samplers driven by
//! `derive_seed`-derived streams produce byte-identical walks over either
//! backend (pinned by `crates/sampling/tests/store_parity.rs`).

use std::cell::Cell;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

use mhg_ckpt::frame::{size_u16, size_u32};

use crate::heal::HealState;
use crate::shard_codec::{self, Manifest, ShardError, ShardMeta, BLOCK_TARGETS};
use crate::store::GraphStore;
use crate::{MultiplexGraph, NodeId, NodeTypeId, RelationId, Schema};

/// Tuning knobs for building and paging a [`ShardedCsr`].
#[derive(Clone, Copy, Debug)]
pub struct ShardedCsrOptions {
    /// Upper bound on directed targets per shard (pre-dedup). It sets the
    /// number of files, not the cost of a miss: a miss reads one block of
    /// at most [`BLOCK_TARGETS`] targets whatever the shard size.
    pub shard_target_cap: usize,
    /// Byte budget of the page cache. It is cut into frames the size of
    /// the store's largest block (at most 4 KiB), rounded down to whole
    /// frames; at least one frame is always kept, so a budget below that
    /// still loads.
    pub page_budget_bytes: usize,
    /// Byte budget of the build-time wave buffers (directed-edge staging).
    pub build_budget_bytes: usize,
}

impl Default for ShardedCsrOptions {
    fn default() -> Self {
        Self {
            // 64K targets ≈ 256 KiB per shard file.
            shard_target_cap: 1 << 16,
            page_budget_bytes: 32 << 20,
            build_budget_bytes: 64 << 20,
        }
    }
}

/// A streamable, repeatable source of undirected multiplex edges.
///
/// `for_each_edge` must be deterministic: the builder streams the source
/// several times (once to count, once per wave) and every pass must observe
/// the same edges. Duplicate edges are fine — they are deduplicated per
/// neighbor list exactly as `GraphBuilder::build` does.
pub trait EdgeSource: Sync {
    /// The schema of the streamed graph.
    fn schema(&self) -> &Schema;
    /// Number of nodes.
    fn num_nodes(&self) -> usize;
    /// The type of node `v`.
    fn node_type_of(&self, v: NodeId) -> NodeTypeId;
    /// Streams every undirected edge `(r, u, v)` exactly once per call, in
    /// a deterministic order.
    fn for_each_edge(&self, f: &mut dyn FnMut(RelationId, NodeId, NodeId));
}

impl EdgeSource for MultiplexGraph {
    fn schema(&self) -> &Schema {
        MultiplexGraph::schema(self)
    }

    fn num_nodes(&self) -> usize {
        MultiplexGraph::num_nodes(self)
    }

    fn node_type_of(&self, v: NodeId) -> NodeTypeId {
        self.node_type(v)
    }

    fn for_each_edge(&self, f: &mut dyn FnMut(RelationId, NodeId, NodeId)) {
        for r in self.schema().relations() {
            for (u, v) in self.edges_in(r) {
                f(r, u, v);
            }
        }
    }
}

/// Page-cache counters, exposed for the memory-bound tests and the graph
/// benchmark. A page is one block of [`BLOCK_TARGETS`] targets (the last
/// block of a shard may be shorter), held in one frame of the pager's
/// arena. Byte figures count whole frames (4 bytes per target a frame
/// holds), whatever the block inside is. A neighbor list that straddles
/// blocks counts one hit or load per block it touches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PageStats {
    /// Blocks read and decoded from disk.
    pub loads: u64,
    /// Block accesses served from the cache.
    pub hits: u64,
    /// Pages evicted to stay inside the budget.
    pub evictions: u64,
    /// Bytes currently resident.
    pub resident_bytes: usize,
    /// High-water mark of resident bytes.
    pub peak_bytes: usize,
}

/// The empty entry of both pager tables: no frame, or no block.
const EMPTY: u32 = u32::MAX;

struct PagerState {
    /// Targets per frame: the store's largest block.
    frame_len: usize,
    /// The frames, back to back, `frame_len` targets each. Capacity for
    /// every frame is reserved up front; a frame is written, and its memory
    /// touched, only when it is first used.
    arena: Vec<NodeId>,
    /// The frame holding each block, indexed by global block id.
    block_frame: Vec<u32>,
    /// The block held by each frame.
    frame_block: Vec<u32>,
    /// The next frame to fill. Frames fill in ring order, so the frame at
    /// the hand holds the oldest resident block: evicting it is FIFO.
    hand: usize,
    stats: PageStats,
}

impl PagerState {
    /// The frame holding block `id`, if it is resident.
    fn frame_of(&self, id: usize) -> Option<usize> {
        let frame = self.block_frame[id];
        (frame != EMPTY).then_some(frame as usize)
    }

    /// Copies `block` into the frame at the hand, evicting the block there,
    /// and advances the hand. A block never outgrows a frame: `open` sizes
    /// frames to the largest block the manifest lists.
    fn insert(&mut self, id: usize, block: &[NodeId]) -> usize {
        let frame = self.hand;
        self.hand = (frame + 1) % self.frame_block.len();
        let old = self.frame_block[frame];
        if old != EMPTY {
            self.block_frame[old as usize] = EMPTY;
            self.stats.evictions += 1;
        }
        let at = frame * self.frame_len;
        if self.arena.len() == at {
            // First use of this frame: the ring fills frames in order.
            self.arena.resize(at + self.frame_len, NodeId(0));
            self.stats.resident_bytes = self.arena.len().saturating_mul(4);
            self.stats.peak_bytes = self.stats.resident_bytes;
        }
        self.arena[at..at + self.frame_len][..block.len()].copy_from_slice(block);
        // `ShardedCsr::open` keeps every block id below `EMPTY`.
        self.frame_block[frame] = id as u32;
        self.block_frame[id] = frame as u32;
        frame
    }
}

/// FIFO page cache over the blocks of every shard file: one arena cut into
/// equal frames, and two tables mapping block id → frame and frame → block,
/// under one mutex.
struct Pager(Mutex<PagerState>);

impl Pager {
    /// A pager of `budget / (4 * frame_len)` frames, at least one and at
    /// most one per block.
    fn new(budget: usize, frame_len: usize, num_blocks: usize) -> Self {
        let frame_len = frame_len.max(1);
        let frames = (budget / frame_len.saturating_mul(4)).clamp(1, num_blocks.max(1));
        Self(Mutex::new(PagerState {
            frame_len,
            arena: Vec::with_capacity(frames.saturating_mul(frame_len)),
            block_frame: vec![EMPTY; num_blocks],
            frame_block: vec![EMPTY; frames],
            hand: 0,
            stats: PageStats::default(),
        }))
    }

    /// Recovers the lock even if a panic poisoned it: the guarded state is
    /// a cache plus counters, both safe to reuse after an unwound access.
    fn lock(&self) -> MutexGuard<'_, PagerState> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends `part` of global block `id` to `out`, copied out of the
    /// block's frame under the lock. A miss has `load` decode the block into
    /// `buf` with the lock released, then copies it into the frame at the
    /// hand.
    fn read(
        &self,
        id: usize,
        part: Range<usize>,
        out: &mut Vec<NodeId>,
        buf: &mut Vec<NodeId>,
        load: impl FnOnce(&mut Vec<NodeId>) -> Result<(), ShardError>,
    ) -> Result<(), ShardError> {
        let mut st = self.lock();
        let frame = if let Some(frame) = st.frame_of(id) {
            st.stats.hits += 1;
            frame
        } else {
            drop(st);
            // Load outside the lock: a slow disk read must not serialize
            // hits on other blocks.
            load(buf)?;
            st = self.lock();
            st.stats.loads += 1;
            // A racing thread loaded the same block meanwhile: serve its
            // frame and evict nothing.
            match st.frame_of(id) {
                Some(frame) => frame,
                None => st.insert(id, buf),
            }
        };
        // `part` lies inside the block: its list's offsets were checked
        // against the shard's target count.
        let at = frame * st.frame_len;
        out.extend_from_slice(&st.arena[at..at + st.frame_len][part]);
        Ok(())
    }
}

thread_local! {
    /// This thread's copy-out buffers: the neighbor list handed to `f`, and
    /// the block a miss decodes. A call takes them and puts them back, so a
    /// call nested inside `f` gets buffers of its own.
    static SCRATCH: Cell<(Vec<NodeId>, Vec<NodeId>)> = const { Cell::new((Vec::new(), Vec::new())) };
}

/// A sharded, chunk-paged CSR multiplex graph store.
///
/// Resident memory: schema + 2 bytes/node (types) + 4 bytes/node (the
/// per-type node lists) + 4 bytes/node/relation (offsets) + shard tables +
/// 12 bytes/block (its checksum and frame entry) + 4 bytes/frame (its block
/// entry). Target arrays are paged through a byte-budgeted frame arena, so
/// graphs larger than RAM stream through walk generation.
pub struct ShardedCsr {
    pub(crate) dir: PathBuf,
    schema: Schema,
    pub(crate) node_types: Vec<NodeTypeId>,
    nodes_by_type: Vec<Vec<NodeId>>,
    pub(crate) shards: Vec<Vec<ShardMeta>>,
    pub(crate) offsets: Vec<Vec<u32>>,
    /// Per relation, the global block id of each shard's first block; a
    /// shard's blocks have consecutive ids.
    block_base: Vec<Vec<usize>>,
    /// The manifest checksum of every block, indexed by global block id.
    block_sums: Vec<u64>,
    pager: Pager,
    pub(crate) heal: HealState,
}

/// File name of the manifest inside a store directory.
pub const MANIFEST_FILE: &str = "manifest.mhgs";

pub(crate) fn shard_file(dir: &Path, relation: u16, shard: u32) -> PathBuf {
    dir.join(format!("r{relation}-s{shard}.shard"))
}

impl ShardedCsr {
    /// Builds a sharded store under `dir` by streaming `source`, then opens
    /// it. Existing shard files in `dir` are overwritten atomically.
    pub fn build(
        source: &impl EdgeSource,
        dir: impl AsRef<Path>,
        opts: ShardedCsrOptions,
    ) -> Result<Self, ShardError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let num_nodes = source.num_nodes();
        let schema = source.schema().clone();
        let num_relations = schema.num_relations();

        // Pass A: stream once, counting a per-node directed-degree upper
        // bound per relation (duplicates still counted — dedup happens at
        // shard build, so these are upper bounds for buffer sizing).
        let mut ub: Vec<Vec<u32>> = (0..num_relations).map(|_| vec![0u32; num_nodes]).collect();
        source.for_each_edge(&mut |r, u, v| {
            let c = &mut ub[r.index()];
            c[u.index()] = c[u.index()].saturating_add(1);
            c[v.index()] = c[v.index()].saturating_add(1);
        });

        // Plan contiguous shard ranges per relation under the target cap.
        let cap = opts.shard_target_cap.max(1) as u64;
        let mut plan: Vec<Vec<ShardMeta>> = Vec::with_capacity(num_relations);
        for counts in &ub {
            let mut table = Vec::new();
            let mut start = 0usize;
            let mut acc = 0u64;
            let mut any = false;
            for (v, &c) in counts.iter().enumerate() {
                if acc + u64::from(c) > cap && v > start {
                    table.push(ShardMeta {
                        start: size_u32(start, "shard start"),
                        end: size_u32(v, "shard end"),
                        num_targets: 0, // final count filled per wave
                    });
                    start = v;
                    acc = 0;
                }
                acc += u64::from(c);
                any = any || c > 0;
            }
            if num_nodes > start && any {
                table.push(ShardMeta {
                    start: size_u32(start, "shard start"),
                    end: size_u32(num_nodes, "shard end"),
                    num_targets: 0,
                });
            }
            plan.push(table);
        }

        // Wave passes: materialise a bounded run of consecutive shards of
        // one relation, re-streaming the source once per wave.
        let mut offsets: Vec<Vec<u32>> = (0..num_relations)
            .map(|_| Vec::with_capacity(num_nodes + 1))
            .collect();
        for off in &mut offsets {
            off.push(0);
        }
        let budget_targets = (opts.build_budget_bytes / 4).max(opts.shard_target_cap.max(1));
        let mut block_sums: Vec<Vec<u64>> = vec![Vec::new(); num_relations];
        for rel in 0..num_relations {
            let table = &mut plan[rel];
            let counts = &ub[rel];
            let mut next_shard = 0usize;
            while next_shard < table.len() {
                // Extend the wave while the summed upper bounds fit.
                let wave_start = next_shard;
                let node_start = table[wave_start].start as usize;
                let mut wave_targets = 0u64;
                while next_shard < table.len() {
                    let s = &table[next_shard];
                    let ub_sum: u64 = counts[s.start as usize..s.end as usize]
                        .iter()
                        .map(|&c| u64::from(c))
                        .sum();
                    if next_shard > wave_start && wave_targets + ub_sum > budget_targets as u64 {
                        break;
                    }
                    wave_targets += ub_sum;
                    next_shard += 1;
                }
                let node_end = table[next_shard - 1].end as usize;

                // Counting-sort staging: local offsets from the upper-bound
                // degrees, then a second stream drops each target in place.
                let span = node_end - node_start;
                let mut local_off = vec![0u64; span + 1];
                for (i, &c) in counts[node_start..node_end].iter().enumerate() {
                    local_off[i + 1] = local_off[i] + u64::from(c);
                }
                let total = usize::try_from(local_off[span])
                    .map_err(|_| ShardError::Inconsistent("wave too large"))?;
                let mut staging = vec![NodeId(0); total];
                let mut cursor: Vec<u64> = local_off[..span].to_vec();
                let rel_id = RelationId(size_u16(rel, "relation id"));
                source.for_each_edge(&mut |r, u, v| {
                    if r != rel_id {
                        return;
                    }
                    for (src, dst) in [(u, v), (v, u)] {
                        let i = src.index();
                        if i >= node_start && i < node_end {
                            let c = &mut cursor[i - node_start];
                            staging[*c as usize] = dst;
                            *c += 1;
                        }
                    }
                });

                // Per node: sort + dedup (the `Csr::from_directed_edges`
                // semantics), compacting in place and extending the global
                // offsets; then slice out and write each finished shard.
                let mut compact = 0usize;
                let mut shard_bounds = Vec::with_capacity(next_shard - wave_start);
                let mut si = wave_start;
                let mut shard_base = 0usize;
                for local in 0..span {
                    let (s, e) = (local_off[local] as usize, cursor[local] as usize);
                    staging[s..e].sort_unstable();
                    let mut w = compact;
                    for idx in s..e {
                        // The list is sorted: a duplicate follows its twin.
                        if w == compact || staging[w - 1] != staging[idx] {
                            staging[w] = staging[idx];
                            w += 1;
                        }
                    }
                    let prev_off = *offsets[rel].last().unwrap_or(&0);
                    let next_off = u32::try_from(w - compact)
                        .ok()
                        .and_then(|d| prev_off.checked_add(d))
                        .ok_or(ShardError::Inconsistent("offsets overflow u32"))?;
                    offsets[rel].push(next_off);
                    compact = w;
                    if node_start + local + 1 == table[si].end as usize {
                        shard_bounds.push((si, shard_base, compact));
                        shard_base = compact;
                        si += 1;
                    }
                }
                for (shard_idx, lo, hi) in shard_bounds {
                    table[shard_idx].num_targets = size_u32(hi - lo, "shard target count");
                    let meta = table[shard_idx];
                    let bytes = shard_codec::encode_shard(
                        size_u16(rel, "relation id"),
                        size_u32(shard_idx, "shard index"),
                        &meta,
                        &staging[lo..hi],
                    );
                    block_sums[rel].extend(shard_codec::block_sums(&bytes));
                    mhg_ckpt::atomic_write(shard_file(dir, rel as u16, shard_idx as u32), &bytes)?;
                }
            }
            // Nodes past the last shard (or all nodes of an edgeless
            // relation) have zero degree.
            let tail = *offsets[rel].last().unwrap_or(&0);
            offsets[rel].resize(num_nodes + 1, tail);
        }

        // Node types are collected last (2 bytes/node, resident anyway).
        let node_types: Vec<NodeTypeId> = (0..num_nodes)
            .map(|i| source.node_type_of(NodeId(i as u32)))
            .collect();
        let manifest = Manifest {
            schema,
            node_types,
            shards: plan,
            offsets,
            block_sums,
        };
        mhg_ckpt::atomic_write(
            dir.join(MANIFEST_FILE),
            &shard_codec::encode_manifest(&manifest),
        )?;
        Self::open(dir, opts)
    }

    /// Opens an existing sharded store. The manifest is read through
    /// `mhg_ckpt::read_file` (the `mhg-faults` io_read site) and fully
    /// validated; each block is checked against its manifest sum when it is
    /// paged in.
    pub fn open(dir: impl AsRef<Path>, opts: ShardedCsrOptions) -> Result<Self, ShardError> {
        let dir = dir.as_ref().to_path_buf();
        let bytes = mhg_ckpt::read_file(dir.join(MANIFEST_FILE))?;
        let m = shard_codec::decode_manifest(&bytes)?;
        let mut nodes_by_type = vec![Vec::new(); m.schema.num_node_types()];
        for (i, &ty) in m.node_types.iter().enumerate() {
            nodes_by_type[ty.index()].push(NodeId(i as u32));
        }
        let mut block_base = Vec::with_capacity(m.shards.len());
        // Global block ids, and the pager's frame: the largest block.
        let (mut next, mut frame_len) = (0usize, 0);
        for table in &m.shards {
            let mut bases = Vec::with_capacity(table.len());
            for meta in table {
                bases.push(next);
                next += shard_codec::num_blocks(meta.num_targets);
                frame_len = frame_len.max((meta.num_targets as usize).min(BLOCK_TARGETS));
            }
            block_base.push(bases);
        }
        // The pager's `u32` tables reserve `EMPTY`.
        if next >= EMPTY as usize {
            return Err(ShardError::Inconsistent("too many blocks to page"));
        }
        Ok(Self {
            dir,
            schema: m.schema,
            node_types: m.node_types,
            nodes_by_type,
            shards: m.shards,
            offsets: m.offsets,
            pager: Pager::new(opts.page_budget_bytes, frame_len, next),
            block_base,
            block_sums: m.block_sums.concat(),
            heal: HealState::new(),
        })
    }

    /// The directory holding the manifest and shard files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current page-cache counters.
    pub fn page_stats(&self) -> PageStats {
        self.pager.lock().stats
    }

    /// Bytes of metadata held resident (node types, per-type node lists,
    /// offsets, shard tables, block checksums and the pager's two tables).
    pub fn resident_metadata_bytes(&self) -> usize {
        let offs: usize = self.offsets.iter().map(|o| o.len().saturating_mul(4)).sum();
        let shards: usize = self.shards.iter().map(Vec::len).sum();
        let frames = self.pager.lock().frame_block.len();
        // Per node: its type and its entry in its type's node list. Per
        // shard: its table entry and first block id. Per block: its checksum
        // and frame. Per frame: its block.
        self.node_types.len().saturating_mul(2 + 4)
            + offs
            + shards.saturating_mul(12 + 8)
            + self.block_sums.len().saturating_mul(8 + 4)
            + frames.saturating_mul(4)
    }

    /// Total size of the on-disk files (manifest + shards), in bytes.
    pub fn on_disk_bytes(&self) -> Result<u64, ShardError> {
        let mut total = std::fs::metadata(self.dir.join(MANIFEST_FILE))?.len();
        for (rel, table) in self.shards.iter().enumerate() {
            for shard in 0..table.len() {
                total += std::fs::metadata(shard_file(&self.dir, rel as u16, shard as u32))?.len();
            }
        }
        Ok(total)
    }

    /// Reads every shard file whole and checks it: the frame trailer, the
    /// header against the manifest, and every block against its manifest
    /// sum. A failed shard runs the heal ladder. Nothing enters the page
    /// cache. A freshly copied or possibly damaged store can be validated up
    /// front instead of failing mid-walk.
    pub fn verify(&self) -> Result<(), ShardError> {
        let mut targets = Vec::new();
        for (rel, table) in self.shards.iter().enumerate() {
            for (shard, meta) in table.iter().enumerate() {
                self.load_healing(rel as u16, shard as u32, meta, None, &mut targets)?;
            }
        }
        Ok(())
    }

    /// The manifest sums of the blocks of one shard.
    pub(crate) fn shard_sums(&self, relation: u16, shard: u32) -> &[u64] {
        let base = self.block_base[relation as usize][shard as usize];
        let meta = &self.shards[relation as usize][shard as usize];
        &self.block_sums[base..base + shard_codec::num_blocks(meta.num_targets)]
    }

    /// The manifest sum of block `block` of one shard.
    pub(crate) fn block_sum(&self, relation: u16, shard: u32, block: usize) -> u64 {
        self.block_sums[self.block_base[relation as usize][shard as usize] + block]
    }

    /// Fallible neighbor access: `f` runs over a copy of the sorted
    /// neighbor list, or a typed error surfaces if the backing shard is
    /// missing or corrupt.
    pub fn try_with_neighbors<T>(
        &self,
        v: NodeId,
        r: RelationId,
        f: impl FnOnce(&[NodeId]) -> T,
    ) -> Result<T, ShardError> {
        let off = &self.offsets[r.index()];
        let (s, e) = (off[v.index()] as usize, off[v.index() + 1] as usize);
        if s == e {
            return Ok(f(&[]));
        }
        let si = self.shard_slot(v, r);
        let meta = match self.shards[r.index()].get(si) {
            Some(m) if m.start <= v.0 => m,
            _ => return Err(ShardError::Inconsistent("node outside every shard")),
        };
        let base = off[meta.start as usize] as usize;
        let (lo, hi) = (s - base, e - base);
        if hi > meta.num_targets as usize || lo > hi {
            return Err(ShardError::Inconsistent("offsets exceed shard payload"));
        }
        let (first, last) = (lo / BLOCK_TARGETS, (hi - 1) / BLOCK_TARGETS);
        let shard_base = self.block_base[r.index()][si];
        let (mut list, mut buf) = SCRATCH.take();
        list.clear();
        let read = (first..=last).try_for_each(|b| {
            // The block's part of `lo..hi`, relative to the block's start.
            let at = b * BLOCK_TARGETS;
            let part = lo.max(at) - at..hi.min(at + BLOCK_TARGETS) - at;
            // A miss runs the self-healing ladder: retries with backoff, a
            // rebuild from source, then quarantine (see `heal.rs`).
            self.pager
                .read(shard_base + b, part, &mut list, &mut buf, |buf| {
                    self.load_healing(r.0, si as u32, meta, Some(b), buf)
                })
        });
        let out = read.map(|()| f(&list));
        SCRATCH.set((list, buf));
        out
    }

    /// Index of the shard whose node range holds `v` under `r` (the first
    /// shard ending past `v`; shard ranges are contiguous and sorted).
    fn shard_slot(&self, v: NodeId, r: RelationId) -> usize {
        self.shards[r.index()].partition_point(|m| m.end <= v.0)
    }
}

/// The panic payload of a paged store failure escaping the infallible
/// [`GraphStore`] API, raised with [`std::panic::panic_any`]. The training
/// pipeline's sampler-panic containment downcasts it
/// (`mhg_sampling::classify_panic`) to classify the panic as a storage
/// failure (deterministic — not worth an inline replay) rather than a
/// generic worker crash. Callers wanting typed errors without unwinding use
/// [`ShardedCsr::try_with_neighbors`] or [`ShardedCsr::verify`] instead.
#[derive(Debug)]
pub struct StoreFailure {
    /// Relation of the failed neighbor access.
    pub relation: u16,
    /// Index of the shard holding the accessed node.
    pub shard: u32,
    /// What went wrong.
    pub error: ShardError,
}

impl std::fmt::Display for StoreFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sharded graph store failure at r{}-s{}: {}",
            self.relation, self.shard, self.error
        )
    }
}

impl std::error::Error for StoreFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

impl GraphStore for ShardedCsr {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn num_nodes(&self) -> usize {
        self.node_types.len()
    }

    #[inline]
    fn node_type(&self, v: NodeId) -> NodeTypeId {
        self.node_types[v.index()]
    }

    fn nodes_of_type(&self, ty: NodeTypeId) -> &[NodeId] {
        &self.nodes_by_type[ty.index()]
    }

    #[inline]
    fn degree(&self, v: NodeId, r: RelationId) -> usize {
        let off = &self.offsets[r.index()];
        (off[v.index() + 1] - off[v.index()]) as usize
    }

    fn num_directed_edges_in(&self, r: RelationId) -> usize {
        self.offsets[r.index()].last().copied().unwrap_or(0) as usize
    }

    #[expect(
        clippy::panic,
        reason = "the infallible `GraphStore` API raises a failed page-in as a `StoreFailure` \
                  payload; ROADMAP item 7 turns it into a returned error"
    )]
    fn with_neighbors<T>(&self, v: NodeId, r: RelationId, f: impl FnOnce(&[NodeId]) -> T) -> T {
        match self.try_with_neighbors(v, r, f) {
            Ok(t) => t,
            Err(error) => std::panic::panic_any(StoreFailure {
                relation: r.0,
                shard: size_u32(self.shard_slot(v, r), "shard index"),
                error,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A load that fills the buffer with `targets`, as `decode_block` does:
    /// cleared first, so a reused buffer's contents never leak.
    fn fill(targets: &[u32]) -> impl FnOnce(&mut Vec<NodeId>) -> Result<(), ShardError> + '_ {
        move |buf| {
            buf.clear();
            buf.extend(targets.iter().map(|&t| NodeId(t)));
            Ok(())
        }
    }

    /// Reads all of block `id`, a block of two targets.
    fn read(
        pager: &Pager,
        id: usize,
        load: impl FnOnce(&mut Vec<NodeId>) -> Result<(), ShardError>,
    ) -> Vec<NodeId> {
        let mut out = Vec::new();
        pager
            .read(id, 0..2, &mut out, &mut Vec::new(), load)
            .unwrap();
        out
    }

    #[test]
    fn a_duplicate_load_serves_the_resident_page() {
        // The budget holds exactly one frame of two targets.
        let pager = Pager::new(8, 2, 1);
        // The outer miss loads with the lock released; inside it a second
        // reader misses the same block and inserts it first.
        let outer = read(&pager, 0, |buf| {
            assert_eq!(read(&pager, 0, fill(&[7, 8])), [NodeId(7), NodeId(8)]);
            fill(&[0, 1])(buf)
        });
        assert_eq!(
            outer,
            [NodeId(7), NodeId(8)],
            "the resident frame is served"
        );
        let stats = pager.lock().stats;
        assert_eq!(
            (stats.loads, stats.evictions, stats.resident_bytes),
            (2, 0, 8)
        );
        assert_eq!(read(&pager, 0, |_| panic!("resident")), outer);
        assert_eq!(pager.lock().stats.hits, 1);
    }

    #[test]
    fn the_oldest_block_is_evicted_and_its_slot_emptied() {
        // The budget holds two frames of two targets.
        let pager = Pager::new(16, 2, 4);
        for block in 0..3 {
            read(&pager, block, fill(&[0, 1]));
        }
        {
            let st = pager.lock();
            // Block 2 took block 0's frame; the hand now points at block 1.
            assert_eq!(st.block_frame, [EMPTY, 1, 0, EMPTY]);
            assert_eq!((st.frame_block.as_slice(), st.hand), ([2, 1].as_slice(), 1));
            assert_eq!((st.stats.evictions, st.stats.resident_bytes), (1, 16));
        }
        read(&pager, 3, fill(&[0, 1]));
        let st = pager.lock();
        assert_eq!(st.block_frame, [EMPTY, EMPTY, 0, 1]);
        assert_eq!((st.stats.evictions, st.stats.peak_bytes), (2, 16));
    }
}
