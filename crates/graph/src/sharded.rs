//! [`ShardedCsr`]: a chunk-paged, on-disk CSR store for graphs larger than
//! RAM.
//!
//! The store keeps only compact metadata resident — schema, per-node type
//! tags, per-relation global CSR offsets, the shard tables and one checksum
//! per block — while the target arrays live in per-`(relation, shard)`
//! files. Each shard covers a *contiguous node range*, so every neighbor
//! list lives entirely inside one shard. The pager's unit is a block of
//! [`BLOCK_TARGETS`] targets of one shard: a miss reads just that block
//! with one positioned read, checks it against its manifest sum and caches
//! it in a byte-budgeted FIFO. A list inside one block is served as a slice
//! of the cached page; a list that straddles blocks is stitched into a
//! scratch buffer.
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

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

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
    /// Byte budget of the page cache. A page is one block of at most
    /// 4 KiB; at least one page is always kept, so a budget below that
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
/// block of a shard may be shorter). All byte figures count target payloads
/// (4 bytes per entry) of cached pages. A neighbor list that straddles
/// blocks counts one hit or load per block it touches. Up to four evicted
/// page buffers (`SPARE_PAGES`) are kept for reuse by the next miss; they
/// are not counted in `resident_bytes` or `peak_bytes`.
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

/// Most evicted page buffers the pager keeps for reuse. A miss that
/// refills a spare skips an allocation and a cross-thread free; that makes
/// `walks-10m-sharded` ≈7% faster and its high-water mark after a long run
/// ≈3 MiB lower (DESIGN.md §2.14, "Page buffers are recycled").
const SPARE_PAGES: usize = 4;

struct PagerState {
    /// The resident page of each block, indexed by global block id.
    slots: Vec<Option<Arc<Vec<NodeId>>>>,
    fifo: VecDeque<usize>,
    /// Evicted page buffers no reader still held, for the next miss.
    spare: Vec<Vec<NodeId>>,
    stats: PageStats,
}

impl PagerState {
    /// Keeps `buf` for the next miss while the spare list has room.
    fn recycle(&mut self, buf: Vec<NodeId>) {
        if self.spare.len() < SPARE_PAGES {
            self.spare.push(buf);
        }
    }
}

/// Byte-budgeted FIFO page cache over the blocks of every shard file: a
/// flat slot table indexed by global block id, under one mutex.
struct Pager {
    budget: usize,
    state: Mutex<PagerState>,
}

impl Pager {
    fn new(budget: usize, num_blocks: usize) -> Self {
        Self {
            budget: budget.max(1),
            state: Mutex::new(PagerState {
                slots: vec![None; num_blocks],
                fifo: VecDeque::new(),
                spare: Vec::new(),
                stats: PageStats::default(),
            }),
        }
    }

    /// Fetches the page of global block `block`. On a miss, `load` fills a
    /// buffer taken from the spare list (or a new one), and pages are
    /// evicted oldest-first past the byte budget.
    fn get(
        &self,
        block: usize,
        load: impl FnOnce(&mut Vec<NodeId>) -> Result<(), ShardError>,
    ) -> Result<Arc<Vec<NodeId>>, ShardError> {
        let mut st = lock_pager(&self.state);
        if let Some(page) = st.slots[block].as_ref().map(Arc::clone) {
            st.stats.hits += 1;
            return Ok(page);
        }
        let mut buf = st.spare.pop().unwrap_or_default();
        drop(st);
        // Load outside the lock: a slow disk read must not serialize hits
        // on other pages.
        load(&mut buf)?;
        let bytes = buf.len().saturating_mul(4);
        let mut st = lock_pager(&self.state);
        st.stats.loads += 1;
        // A racing thread loaded the same page meanwhile: serve its copy,
        // evict nothing and keep this buffer for the next miss.
        if let Some(page) = st.slots[block].as_ref().map(Arc::clone) {
            st.recycle(buf);
            return Ok(page);
        }
        // Make room first, so resident_bytes (and its high-water mark) never
        // exceeds the budget unless a single page is itself oversized.
        while st.stats.resident_bytes.saturating_add(bytes) > self.budget {
            let Some(old) = st.fifo.pop_front() else {
                break;
            };
            if let Some(evicted) = st.slots[old].take() {
                let freed = evicted.len().saturating_mul(4);
                st.stats.resident_bytes = st.stats.resident_bytes.saturating_sub(freed);
                st.stats.evictions += 1;
                // A page some reader still holds is freed by that reader.
                if let Ok(spare) = Arc::try_unwrap(evicted) {
                    st.recycle(spare);
                }
            }
        }
        let page = Arc::new(buf);
        st.slots[block] = Some(Arc::clone(&page));
        st.fifo.push_back(block);
        st.stats.resident_bytes = st.stats.resident_bytes.saturating_add(bytes);
        st.stats.peak_bytes = st.stats.peak_bytes.max(st.stats.resident_bytes);
        Ok(page)
    }

    fn stats(&self) -> PageStats {
        lock_pager(&self.state).stats
    }
}

/// Recovers the pager mutex even if a panic poisoned it: the guarded state
/// is a cache plus counters, both safe to reuse after an unwound access.
fn lock_pager(m: &Mutex<PagerState>) -> std::sync::MutexGuard<'_, PagerState> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A sharded, chunk-paged CSR multiplex graph store.
///
/// Resident memory: schema + 2 bytes/node (types) + 4 bytes/node/relation
/// (offsets) + shard tables + 16 bytes/block (its checksum and page slot).
/// Target arrays are paged through a byte-budgeted cache, so graphs larger
/// than RAM stream through walk generation.
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
                let mut local_off = Vec::with_capacity(span + 1);
                local_off.push(0u64);
                for &c in &counts[node_start..node_end] {
                    let last = *local_off.last().unwrap_or(&0);
                    local_off.push(last + u64::from(c));
                }
                let total = usize::try_from(*local_off.last().unwrap_or(&0))
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
                    let mut prev: Option<NodeId> = None;
                    let mut w = compact;
                    for idx in s..e {
                        let t = staging[idx];
                        if prev != Some(t) {
                            staging[w] = t;
                            w += 1;
                            prev = Some(t);
                        }
                    }
                    let deg = w - compact;
                    compact = w;
                    let node = node_start + local;
                    let prev_off = *offsets[rel].last().unwrap_or(&0);
                    let deg32 = u32::try_from(deg)
                        .ok()
                        .and_then(|d| prev_off.checked_add(d))
                        .ok_or(ShardError::Inconsistent("offsets overflow u32"))?;
                    offsets[rel].push(deg32);
                    if node + 1 == table[si].end as usize {
                        shard_bounds.push((si, shard_base, compact));
                        shard_base = compact;
                        si += 1;
                    }
                }
                for (shard_idx, lo, hi) in shard_bounds {
                    let meta = ShardMeta {
                        start: table[shard_idx].start,
                        end: table[shard_idx].end,
                        num_targets: size_u32(hi - lo, "shard target count"),
                    };
                    table[shard_idx] = meta;
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
            while offsets[rel].len() < num_nodes + 1 {
                offsets[rel].push(tail);
            }
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
        let mut next = 0usize;
        for table in &m.shards {
            block_base.push(
                table
                    .iter()
                    .map(|meta| {
                        let base = next;
                        next += shard_codec::num_blocks(meta.num_targets);
                        base
                    })
                    .collect(),
            );
        }
        let block_sums: Vec<u64> = m.block_sums.concat();
        Ok(Self {
            dir,
            schema: m.schema,
            node_types: m.node_types,
            nodes_by_type,
            shards: m.shards,
            offsets: m.offsets,
            pager: Pager::new(opts.page_budget_bytes, block_sums.len()),
            block_base,
            block_sums,
            heal: HealState::new(),
        })
    }

    /// The directory holding the manifest and shard files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current page-cache counters.
    pub fn page_stats(&self) -> PageStats {
        self.pager.stats()
    }

    /// Bytes of metadata held resident (node types, offsets, shard tables,
    /// block checksums and the pager's slot table).
    pub fn resident_metadata_bytes(&self) -> usize {
        let offs: usize = self.offsets.iter().map(|o| o.len().saturating_mul(4)).sum();
        let tables: usize = self.shards.iter().map(|t| t.len().saturating_mul(12)).sum();
        let bases: usize = self
            .block_base
            .iter()
            .map(|b| b.len().saturating_mul(8))
            .sum();
        // Per block: its checksum and its pager slot.
        let slot = std::mem::size_of::<Option<Arc<Vec<NodeId>>>>();
        let blocks = self.block_sums.len().saturating_mul(8 + slot);
        self.node_types.len().saturating_mul(2) + offs + tables + bases + blocks
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

    /// Fallible neighbor access: `f` runs over the sorted neighbor slice,
    /// or a typed error surfaces if the backing shard is missing or
    /// corrupt.
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
        // Each block's part of `lo..hi`, relative to the block's start.
        let part = |b: usize| {
            let at = b * BLOCK_TARGETS;
            lo.max(at) - at..hi.min(at + BLOCK_TARGETS) - at
        };
        let short = || ShardError::Inconsistent("offsets exceed block payload");
        if first == last {
            let page = self.load_block(r.0, si as u32, meta, first)?;
            return Ok(f(page.get(part(first)).ok_or_else(short)?));
        }
        let mut stitched = Vec::with_capacity(hi - lo);
        for b in first..=last {
            let page = self.load_block(r.0, si as u32, meta, b)?;
            stitched.extend_from_slice(page.get(part(b)).ok_or_else(short)?);
        }
        Ok(f(&stitched))
    }

    /// Index of the shard whose node range holds `v` under `r` (the first
    /// shard ending past `v`; shard ranges are contiguous and sorted).
    fn shard_slot(&self, v: NodeId, r: RelationId) -> usize {
        self.shards[r.index()].partition_point(|m| m.end <= v.0)
    }

    fn load_block(
        &self,
        relation: u16,
        shard: u32,
        meta: &ShardMeta,
        block: usize,
    ) -> Result<Arc<Vec<NodeId>>, ShardError> {
        let id = self.block_base[relation as usize][shard as usize] + block;
        // A page-in on a cache miss runs the full self-healing ladder:
        // bounded retries with backoff, rebuild-from-source repair, and
        // quarantine on exhaustion (see `heal.rs`).
        self.pager.get(id, |buf| {
            self.load_healing(relation, shard, meta, Some(block), buf)
        })
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

    /// A load that fills the buffer with `n` targets, as `decode_block`
    /// does: cleared first, so a recycled buffer's contents never leak.
    fn fill(n: u32) -> impl Fn(&mut Vec<NodeId>) -> Result<(), ShardError> + Copy {
        move |buf| {
            buf.clear();
            buf.extend((0..n).map(NodeId));
            Ok(())
        }
    }

    #[test]
    fn a_duplicate_load_serves_the_resident_page() {
        // The budget holds exactly one two-target page.
        let pager = Pager::new(8, 1);
        let key = 0;
        // The outer miss loads with the lock released; inside it a second
        // reader misses the same page and inserts it first.
        let outer = pager
            .get(key, |buf| {
                let inner = pager.get(key, fill(2))?;
                assert_eq!(*inner, [NodeId(0), NodeId(1)]);
                fill(2)(buf)
            })
            .unwrap();
        let stats = pager.stats();
        assert_eq!(stats.loads, 2);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.resident_bytes, 8);
        let again = pager.get(key, |_| panic!("resident")).unwrap();
        assert!(Arc::ptr_eq(&outer, &again), "the resident page is served");
        assert_eq!(lock_pager(&pager.state).spare.len(), 1);
    }

    #[test]
    fn the_oldest_block_is_evicted_and_its_slot_emptied() {
        // The budget holds two two-target pages.
        let pager = Pager::new(16, 3);
        for block in 0..3 {
            drop(pager.get(block, fill(2)).unwrap());
        }
        let st = lock_pager(&pager.state);
        let resident: Vec<bool> = st.slots.iter().map(Option::is_some).collect();
        assert_eq!(resident, [false, true, true]);
        assert_eq!(st.fifo, [1, 2]);
        assert_eq!((st.stats.evictions, st.stats.resident_bytes), (1, 16));
    }

    #[test]
    fn only_unheld_evicted_pages_are_recycled_up_to_the_bound() {
        let pager = Pager::new(6 * 8, 8);
        let held = pager.get(0, fill(2)).unwrap();
        for block in 1..6 {
            drop(pager.get(block, fill(2)).unwrap());
        }
        // A page the size of the whole budget evicts all six.
        drop(pager.get(6, fill(12)).unwrap());
        let stats = pager.stats();
        assert_eq!((stats.evictions, stats.resident_bytes), (6, 48));
        // Five were unheld, but the spare list keeps only its bound; the
        // held page stays with its reader.
        assert_eq!(lock_pager(&pager.state).spare.len(), SPARE_PAGES);
        assert_eq!(Arc::strong_count(&held), 1);
        // The next miss loads into a spare instead of a new buffer.
        let reused = pager.get(7, |buf| {
            assert!(buf.capacity() >= 2, "a fresh buffer, not a spare");
            fill(1)(buf)
        });
        assert_eq!(*reused.unwrap(), [NodeId(0)]);
    }
}
