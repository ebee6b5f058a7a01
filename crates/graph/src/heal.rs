//! Self-healing for the sharded graph store: retry, quarantine, repair.
//!
//! Production storage lies — reads fail transiently, files get truncated,
//! bits rot. This module turns those events from terminal [`ShardError`]s
//! into a graded recovery ladder on every block page-in and every
//! whole-shard [`ShardedCsr::verify`] read:
//!
//! 1. **Retry with backoff.** A failed read/decode is retried up to
//!    [`HealPolicy::read_attempts`] times. The backoff waits on the
//!    `mhg-obs` [`mhg_obs::Clock`] of the attached [`Obs`] handle, so tests
//!    running on a fake clock get deterministic (and instant) backoff while
//!    production waits real nanoseconds.
//! 2. **Rebuild-from-source repair.** Every store is built from a
//!    re-streamable [`EdgeSource`]; when one is attached via
//!    [`ShardedCsr::with_heal_source`], a shard that exhausts its retries
//!    is regenerated in place — the relation's edges are re-streamed for
//!    exactly the shard's node range, cross-checked against the manifest
//!    degrees and block checksums, atomically rewritten, and checksum
//!    re-verified — without touching healthy shards.
//! 3. **Quarantine.** A shard that cannot be repaired is quarantined:
//!    further accesses fail fast with [`ShardError::Quarantined`] instead
//!    of hammering a dead disk. [`ShardedCsr::repair`] lifts the quarantine
//!    once a rebuild succeeds.
//!
//! Every rung is observable: retries, repairs, repair failures and
//! quarantines increment `graph/shard_*` counters on the attached [`Obs`]
//! handle (merge-order independent, safe from any worker thread), and the
//! fsck-style [`ShardedCsr::verify_all`] / [`ShardedCsr::repair`] APIs —
//! also exposed as the `graph-fsck` CLI subcommand — emit events from the
//! coordinating thread.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, MutexGuard};

use mhg_obs::{EventValue, Obs};

use crate::shard_codec::{self, ShardError, ShardMeta, BLOCK_TARGETS, SHARD_HEADER_BYTES};
use crate::sharded::{shard_file, EdgeSource, ShardedCsr};
use crate::{NodeId, RelationId};

/// Retry/backoff policy for shard block and whole-frame reads.
#[derive(Clone, Copy, Debug)]
pub struct HealPolicy {
    /// Total read attempts per page-in (at least 1; 1 disables retries).
    pub read_attempts: u32,
    /// Backoff before retry `k` is `backoff_base_ns << (k - 1)` (shift
    /// capped at 8). Zero disables the wait entirely.
    pub backoff_base_ns: u64,
    /// Write-attempt budget for the atomic rewrite during repair.
    pub repair_write_attempts: u32,
}

impl Default for HealPolicy {
    fn default() -> Self {
        Self {
            read_attempts: 3,
            backoff_base_ns: 100_000, // 100 µs, doubling per retry
            repair_write_attempts: 3,
        }
    }
}

/// Cumulative self-healing counters, mirrored as `graph/shard_*` obs
/// counters when a recording [`Obs`] handle is attached.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HealStats {
    /// Read attempts that failed and were retried.
    pub retries: u64,
    /// Shards successfully rebuilt from the heal source.
    pub repairs: u64,
    /// Rebuild attempts that failed (no source, source mismatch, or IO).
    pub repair_failures: u64,
}

/// Internal per-store heal state.
pub(crate) struct HealState {
    pub(crate) policy: HealPolicy,
    pub(crate) obs: Obs,
    pub(crate) source: Option<Arc<dyn EdgeSource + Send + Sync>>,
    pub(crate) quarantined: Mutex<BTreeSet<(u16, u32)>>,
    pub(crate) stats: Mutex<HealStats>,
    /// Serializes rebuilds: two workers missing the same damaged shard
    /// would otherwise race on the shard file's single `*.tmp` sibling and
    /// the loser's rename would fail, quarantining a healthy shard.
    pub(crate) rebuild_serial: Mutex<()>,
}

impl HealState {
    pub(crate) fn new() -> Self {
        Self {
            policy: HealPolicy::default(),
            obs: Obs::disabled(),
            source: None,
            quarantined: Mutex::new(BTreeSet::new()),
            stats: Mutex::new(HealStats::default()),
            rebuild_serial: Mutex::new(()),
        }
    }
}

/// Recovers a heal-state mutex even if a panic poisoned it: the guarded
/// values are counters and a shard set, both safe to reuse.
fn lock_heal<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// One corrupt shard found by [`ShardedCsr::verify_all`].
#[derive(Clone, Debug)]
pub struct FsckFinding {
    /// Relation index of the damaged shard file.
    pub relation: u16,
    /// Shard index within the relation.
    pub shard: u32,
    /// Human-readable error from the failed read/decode.
    pub error: String,
}

/// Result of an fsck pass over every shard file.
#[derive(Clone, Debug, Default)]
pub struct FsckReport {
    /// Number of shard files checked.
    pub checked: usize,
    /// The shards that failed to read or decode.
    pub corrupt: Vec<FsckFinding>,
}

impl FsckReport {
    /// Whether every shard verified.
    pub fn is_clean(&self) -> bool {
        self.corrupt.is_empty()
    }
}

/// Result of a [`ShardedCsr::repair`] pass.
#[derive(Clone, Debug, Default)]
pub struct RepairReport {
    /// Shards rebuilt from the source and checksum re-verified.
    pub repaired: Vec<(u16, u32)>,
    /// Shards that could not be rebuilt (still quarantined).
    pub failed: Vec<FsckFinding>,
}

impl RepairReport {
    /// Whether every corrupt shard was rebuilt.
    pub fn is_complete(&self) -> bool {
        self.failed.is_empty()
    }
}

impl ShardedCsr {
    /// Attaches a re-streamable edge source enabling rebuild-from-source
    /// repair. The source must stream exactly the edges the store was built
    /// from; a mismatch is detected against the manifest degrees and block
    /// checksums and the repair rejected.
    pub fn with_heal_source(mut self, source: Arc<dyn EdgeSource + Send + Sync>) -> Self {
        self.heal.source = Some(source);
        self
    }

    /// Overrides the retry/backoff policy.
    pub fn with_heal_policy(mut self, policy: HealPolicy) -> Self {
        self.heal.policy = HealPolicy {
            read_attempts: policy.read_attempts.max(1),
            ..policy
        };
        self
    }

    /// Attaches an [`Obs`] handle: its clock drives the retry backoff
    /// (deterministic under a fake clock) and its registry receives the
    /// `graph/shard_*` heal counters.
    pub fn with_heal_obs(mut self, obs: Obs) -> Self {
        self.heal.obs = obs;
        self
    }

    /// Cumulative retry/repair counters since open.
    pub fn heal_stats(&self) -> HealStats {
        *lock_heal(&self.heal.stats)
    }

    /// The `(relation, shard)` pairs currently quarantined.
    pub fn quarantined(&self) -> Vec<(u16, u32)> {
        lock_heal(&self.heal.quarantined).iter().copied().collect()
    }

    /// Fsck pass: reads and fully checks every shard file — trailer, header
    /// and every block sum (bypassing the page cache and the heal ladder) —
    /// and reports the corrupt ones. Emits
    /// a `graph_fsck` event on the attached obs handle; call from the
    /// coordinating thread.
    pub fn verify_all(&self) -> FsckReport {
        let mut report = FsckReport::default();
        let mut targets = Vec::new();
        for (rel, table) in self.shards.iter().enumerate() {
            for (shard, meta) in table.iter().enumerate() {
                report.checked += 1;
                if let Err(e) = self.read_frame(rel as u16, shard as u32, meta, &mut targets) {
                    report.corrupt.push(FsckFinding {
                        relation: rel as u16,
                        shard: shard as u32,
                        error: e.to_string(),
                    });
                }
            }
        }
        self.heal.obs.event(
            "graph_fsck",
            &[
                ("checked", EventValue::U64(report.checked as u64)),
                ("corrupt", EventValue::U64(report.corrupt.len() as u64)),
            ],
        );
        report
    }

    /// Rebuilds every corrupt shard found by [`Self::verify_all`] from the
    /// attached heal source, lifting quarantines for shards that verify
    /// again. Emits a `graph_repair` event; call from the coordinating
    /// thread.
    pub fn repair(&self) -> RepairReport {
        let mut out = RepairReport::default();
        let mut targets = Vec::new();
        for finding in self.verify_all().corrupt {
            let meta = self.shards[finding.relation as usize][finding.shard as usize];
            match self.rebuild_shard(finding.relation, finding.shard, &meta, &mut targets) {
                Ok(_) => {
                    lock_heal(&self.heal.quarantined).remove(&(finding.relation, finding.shard));
                    out.repaired.push((finding.relation, finding.shard));
                }
                Err(e) => out.failed.push(FsckFinding {
                    error: e.to_string(),
                    ..finding
                }),
            }
        }
        // A shard quarantined by a transient fault burst may verify clean
        // now that the storm has passed; release it without a rebuild.
        for (relation, shard) in self.quarantined() {
            let meta = self.shards[relation as usize][shard as usize];
            if self
                .read_frame(relation, shard, &meta, &mut targets)
                .is_ok()
            {
                lock_heal(&self.heal.quarantined).remove(&(relation, shard));
            }
        }
        self.heal.obs.event(
            "graph_repair",
            &[
                ("repaired", EventValue::U64(out.repaired.len() as u64)),
                ("failed", EventValue::U64(out.failed.len() as u64)),
            ],
        );
        out
    }

    /// The healing read ladder: bounded retries with clock backoff, then
    /// rebuild-from-source, then quarantine. `block` names the block a
    /// page-in reads (the pager's load closure, with the page buffer to
    /// fill); `None` reads and checks the whole shard file, as
    /// [`ShardedCsr::verify`] does. On success `targets` holds the block's or
    /// the shard's targets.
    pub(crate) fn load_healing(
        &self,
        relation: u16,
        shard: u32,
        meta: &ShardMeta,
        block: Option<usize>,
        targets: &mut Vec<NodeId>,
    ) -> Result<(), ShardError> {
        if lock_heal(&self.heal.quarantined).contains(&(relation, shard)) {
            return Err(ShardError::Quarantined { relation, shard });
        }
        let attempts = self.heal.policy.read_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            let read = match block {
                Some(b) => self.read_block_once(relation, shard, meta, b, targets),
                None => self.read_frame(relation, shard, meta, targets),
            };
            match read {
                Ok(()) => return Ok(()),
                Err(_) if attempt.saturating_add(1) < attempts => {
                    attempt += 1;
                    lock_heal(&self.heal.stats).retries += 1;
                    self.heal.obs.counter_add("graph/shard_retries", 1);
                    self.backoff(attempt);
                }
                Err(_) => break,
            }
        }
        // Retries exhausted: regenerate the shard in place from the source.
        match self.rebuild_shard(relation, shard, meta, targets) {
            Ok(()) => {
                if let Some(b) = block {
                    // Keep only the block's part of the rebuilt shard.
                    let at = b * BLOCK_TARGETS;
                    targets.truncate(at + BLOCK_TARGETS);
                    targets.drain(..at.min(targets.len()));
                    targets.shrink_to_fit();
                }
                Ok(())
            }
            Err(_) => {
                lock_heal(&self.heal.quarantined).insert((relation, shard));
                self.heal.obs.counter_add("graph/shard_quarantined", 1);
                Err(ShardError::Quarantined { relation, shard })
            }
        }
    }

    /// One positioned read of block `block` of a shard file, checked
    /// against its manifest sum and decoded into `targets`; a read of block
    /// 0 also checks the shard header. The per-block
    /// `ShardRead`/`ShardDecode` fault sites fire here, on the page-in path
    /// only, so a scheduled page fault cannot masquerade as a failed
    /// repair or fsck. A failure closes the shard's cached file, so the
    /// ladder's next attempt reopens the path.
    fn read_block_once(
        &self,
        relation: u16,
        shard: u32,
        meta: &ShardMeta,
        block: usize,
        targets: &mut Vec<NodeId>,
    ) -> Result<(), ShardError> {
        self.read_block_from_file(relation, shard, meta, block, targets)
            .inspect_err(|_| self.close_shard_file(relation, shard))
    }

    fn read_block_from_file(
        &self,
        relation: u16,
        shard: u32,
        meta: &ShardMeta,
        block: usize,
        targets: &mut Vec<NodeId>,
    ) -> Result<(), ShardError> {
        mhg_faults::io_error_if_scheduled(mhg_faults::FaultSite::ShardRead, "shard read")?;
        let at = block * BLOCK_TARGETS;
        let len = (meta.num_targets as usize)
            .checked_sub(at)
            .ok_or(ShardError::Inconsistent("block past the shard's targets"))?
            .min(BLOCK_TARGETS);
        // Block 0 is read together with the header that precedes it.
        let header = if block == 0 { SHARD_HEADER_BYTES } else { 0 };
        let mut buf = [0u8; SHARD_HEADER_BYTES + BLOCK_TARGETS * 4];
        let read = &mut buf[..header + len * 4];
        self.read_shard_at(
            relation,
            shard,
            shard_codec::block_offset(block) - header as u64,
            read,
        )?;
        let (head, bytes) = read.split_at_mut(header);
        if block == 0 {
            shard_codec::check_shard_header(head, relation, shard, meta)?;
        }
        if mhg_faults::should_inject(mhg_faults::FaultSite::ShardDecode) {
            // Bit rot in the block just read: its manifest sum rejects it.
            if let Some(b) = bytes.last_mut() {
                *b ^= 1;
            }
        }
        shard_codec::decode_block(
            bytes,
            self.block_sum(relation, shard, block),
            self.node_types.len(),
            targets,
        )
    }

    /// One whole-frame read of a shard file into `targets`: the trailer,
    /// the header against the manifest, and every block against its
    /// manifest sum. The repair, fsck and verify paths read this way.
    fn read_frame(
        &self,
        relation: u16,
        shard: u32,
        meta: &ShardMeta,
        targets: &mut Vec<NodeId>,
    ) -> Result<(), ShardError> {
        let bytes = mhg_ckpt::read_file(shard_file(&self.dir, relation, shard))?;
        shard_codec::decode_shard(
            &bytes,
            relation,
            shard,
            meta,
            self.node_types.len(),
            targets,
        )?;
        shard_codec::check_block_sums(&bytes, self.shard_sums(relation, shard))
    }

    /// Regenerates one shard from the heal source: re-streams the
    /// relation's edges for exactly the shard's node range, cross-checks
    /// the per-node degrees against the manifest offsets and every block
    /// against its manifest sum, atomically rewrites the file and
    /// re-verifies it from disk into `out`.
    /// Rebuilds are serialized store-wide and preceded by a re-check read,
    /// so a shard another worker already repaired — or one healthy again
    /// after a transient fault — is read as-is instead of rewritten.
    fn rebuild_shard(
        &self,
        relation: u16,
        shard: u32,
        meta: &ShardMeta,
        out: &mut Vec<NodeId>,
    ) -> Result<(), ShardError> {
        let fail = |state: &HealState, e: ShardError| -> ShardError {
            lock_heal(&state.stats).repair_failures += 1;
            state.obs.counter_add("graph/shard_repair_failures", 1);
            e
        };
        // One rebuild at a time: concurrent page-ins of the same damaged
        // shard must not race on the shard file. Whoever waited here may
        // find the shard already rebuilt — a plain read settles it without
        // touching the disk again (and without counting a second repair).
        let _serial = lock_heal(&self.heal.rebuild_serial);
        if self.read_frame(relation, shard, meta, out).is_ok() {
            return Ok(());
        }
        let Some(source) = self.heal.source.as_ref() else {
            return Err(fail(
                &self.heal,
                ShardError::Inconsistent("no heal source attached"),
            ));
        };
        let rel = RelationId(relation);
        let (lo, hi) = (meta.start as usize, meta.end as usize);
        // Collect the directed edges landing in the shard's node range;
        // sorting by (source, target) and deduplicating reproduces the
        // `Csr::from_directed_edges` per-node sort + dedup semantics.
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        source.for_each_edge_of(rel, &mut |u, v| {
            for (src, dst) in [(u, v), (v, u)] {
                let i = src.index();
                if i >= lo && i < hi {
                    pairs.push((src.0, dst.0));
                }
            }
        });
        pairs.sort_unstable();
        pairs.dedup();

        // Degree cross-check against the manifest the store already
        // trusts: a drifted source must be rejected, not written.
        let off = &self.offsets[rel.index()];
        let mut targets = Vec::with_capacity(meta.num_targets as usize);
        let mut idx = 0usize;
        for node in lo..hi {
            let want = off[node + 1].saturating_sub(off[node]) as usize;
            let mut got = 0usize;
            while idx < pairs.len() && pairs[idx].0 as usize == node {
                targets.push(NodeId(pairs[idx].1));
                idx += 1;
                got += 1;
            }
            if got != want {
                return Err(fail(
                    &self.heal,
                    ShardError::Inconsistent("heal source contradicts manifest degrees"),
                ));
            }
        }
        if idx != pairs.len() || targets.len() != meta.num_targets as usize {
            return Err(fail(
                &self.heal,
                ShardError::Inconsistent("heal source contradicts shard target count"),
            ));
        }
        let bytes = shard_codec::encode_shard(relation, shard, meta, &targets);
        // Content cross-check: a source that moved targets between lists
        // but kept every degree fails a block sum.
        if shard_codec::check_block_sums(&bytes, self.shard_sums(relation, shard)).is_err() {
            return Err(fail(
                &self.heal,
                ShardError::Inconsistent("heal source contradicts manifest block checksums"),
            ));
        }
        let path = shard_file(&self.dir, relation, shard);
        let written = mhg_ckpt::atomic_write_retry(
            &path,
            &bytes,
            self.heal.policy.repair_write_attempts.max(1),
        );
        // A cached file is the old inode, damaged or unlinked by the rename.
        self.close_shard_file(relation, shard);
        if let Err(e) = written {
            return Err(fail(&self.heal, ShardError::Io(e)));
        }
        // Re-verify from disk (retried, since the read itself can fault)
        // before declaring the repair good.
        let attempts = self.heal.policy.read_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            match self.read_frame(relation, shard, meta, out) {
                Ok(()) => break,
                Err(_) if attempt.saturating_add(1) < attempts => {
                    attempt += 1;
                    self.backoff(attempt);
                }
                Err(e) => return Err(fail(&self.heal, e)),
            }
        }
        if *out != targets {
            return Err(fail(
                &self.heal,
                ShardError::Inconsistent("rebuilt shard reads back different targets"),
            ));
        }
        lock_heal(&self.heal.stats).repairs += 1;
        self.heal.obs.counter_add("graph/shard_repairs", 1);
        Ok(())
    }

    /// Waits `backoff_base_ns << (attempt - 1)` nanoseconds on the obs
    /// clock. Under a [`mhg_obs::FakeClock`] every reading advances the
    /// calling thread's time, so the wait is a short deterministic loop;
    /// under the real clock it is a bounded busy-yield.
    fn backoff(&self, attempt: u32) {
        let base = self.heal.policy.backoff_base_ns;
        if base == 0 {
            return;
        }
        let delay = base.saturating_mul(1u64 << attempt.saturating_sub(1).min(8));
        let deadline = self.heal.obs.now_ns().saturating_add(delay);
        while self.heal.obs.now_ns() < deadline {
            std::thread::yield_now();
        }
    }
}
