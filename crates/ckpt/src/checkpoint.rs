//! Epoch-indexed checkpoint management on top of the codec and atomic IO.

use std::fs;
use std::path::{Path, PathBuf};

use crate::atomic::{atomic_write_retry, read_file, DEFAULT_WRITE_ATTEMPTS};
use crate::codec::{decode, encode, StateDict};
use crate::error::CkptError;

const CKPT_PREFIX: &str = "ckpt-";
const CKPT_SUFFIX: &str = ".mhgc";

/// Default retention: how many newest checkpoints a save leaves behind.
pub const DEFAULT_RETENTION: usize = 3;

/// Writes and discovers epoch checkpoints inside one directory.
///
/// Files are named `ckpt-<epoch>.mhgc`. Writes are atomic with a bounded
/// deterministic retry, so a crash (or an injected IO fault) never leaves a
/// half-written checkpoint under the final name.
///
/// Each successful save also garbage-collects old checkpoints down to the
/// retention budget (default [`DEFAULT_RETENTION`], `0` = keep everything).
/// The GC runs strictly *after* the new checkpoint is durably in place and
/// always keeps the newest file, so a crash at any point leaves at least
/// one loadable checkpoint — `last_good` is never removed.
#[derive(Debug, Clone)]
pub struct Checkpointer {
    dir: PathBuf,
    attempts: u32,
    retention: usize,
}

impl Checkpointer {
    /// Opens (creating if needed) the checkpoint directory.
    pub fn create(dir: impl Into<PathBuf>) -> Result<Self, CkptError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            attempts: DEFAULT_WRITE_ATTEMPTS,
            retention: DEFAULT_RETENTION,
        })
    }

    /// Overrides the per-save write-attempt budget.
    pub fn with_attempts(mut self, attempts: u32) -> Self {
        self.attempts = attempts.max(1);
        self
    }

    /// Overrides the retention budget: keep the `keep` newest checkpoints
    /// after every save (`0` disables GC and keeps everything).
    pub fn with_retention(mut self, keep: usize) -> Self {
        self.retention = keep;
        self
    }

    /// The directory this checkpointer manages.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file path of epoch `epoch`'s checkpoint.
    pub fn path_for(&self, epoch: usize) -> PathBuf {
        self.dir
            .join(format!("{CKPT_PREFIX}{epoch:06}{CKPT_SUFFIX}"))
    }

    /// Atomically writes `dict` as the checkpoint for `epoch`, then
    /// garbage-collects old checkpoints down to the retention budget.
    pub fn save(&self, epoch: usize, dict: &StateDict) -> Result<(), CkptError> {
        let bytes = encode(dict);
        atomic_write_retry(self.path_for(epoch), &bytes, self.attempts)?;
        self.collect_garbage()
    }

    /// Deletes the oldest checkpoints beyond the retention budget. The
    /// newest checkpoint is always kept regardless of the budget; removal
    /// failures of individual files are typed errors, but the checkpoint
    /// just saved is already durable by the time GC runs.
    fn collect_garbage(&self) -> Result<(), CkptError> {
        if self.retention == 0 {
            return Ok(());
        }
        let epochs = self.epochs()?;
        let keep = self.retention.max(1);
        if epochs.len() <= keep {
            return Ok(());
        }
        for &old in &epochs[..epochs.len() - keep] {
            fs::remove_file(self.path_for(old))?;
        }
        Ok(())
    }

    /// Loads and verifies the checkpoint for `epoch`.
    pub fn load_epoch(&self, epoch: usize) -> Result<StateDict, CkptError> {
        decode(&read_file(self.path_for(epoch))?)
    }

    /// The epochs that have a checkpoint file, sorted ascending.
    pub fn epochs(&self) -> Result<Vec<usize>, CkptError> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(stem) = name
                .strip_prefix(CKPT_PREFIX)
                .and_then(|s| s.strip_suffix(CKPT_SUFFIX))
            else {
                continue;
            };
            if let Ok(epoch) = stem.parse::<usize>() {
                out.push(epoch);
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Loads the newest checkpoint, or `None` when the directory holds no
    /// checkpoint files. A corrupt or version-mismatched newest file is a
    /// typed error, never a silent skip: atomic writes mean corruption is
    /// external damage worth surfacing, not a crash artefact.
    pub fn load_latest(&self) -> Result<Option<(usize, StateDict)>, CkptError> {
        match self.epochs()?.last() {
            None => Ok(None),
            Some(&epoch) => Ok(Some((epoch, self.load_epoch(epoch)?))),
        }
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests damage files on purpose")]
mod tests {
    use super::*;
    use crate::test_support::faults_guard;
    use mhg_faults::{FaultPlan, FaultSite};

    fn fresh_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("mhg_ckpt_mgr").join(name);
        fs::remove_dir_all(&dir).ok();
        dir
    }

    fn sample(epoch: u64) -> StateDict {
        let mut d = StateDict::new();
        d.put_u64("loop/epoch", epoch);
        d.put_u64s("loop/rng", vec![epoch, 2, 3, 4]);
        d
    }

    #[test]
    fn save_load_roundtrip_and_latest_discovery() {
        let _g = faults_guard();
        mhg_faults::clear();
        let ck = Checkpointer::create(fresh_dir("roundtrip")).unwrap();
        assert!(ck.load_latest().unwrap().is_none());
        ck.save(1, &sample(1)).unwrap();
        ck.save(3, &sample(3)).unwrap();
        ck.save(2, &sample(2)).unwrap();
        assert_eq!(ck.epochs().unwrap(), vec![1, 2, 3]);
        let (epoch, dict) = ck.load_latest().unwrap().unwrap();
        assert_eq!(epoch, 3);
        assert_eq!(dict.u64("loop/epoch").unwrap(), 3);
        fs::remove_dir_all(ck.dir()).ok();
    }

    #[test]
    fn corrupt_newest_checkpoint_is_a_typed_error() {
        let _g = faults_guard();
        mhg_faults::clear();
        let ck = Checkpointer::create(fresh_dir("corrupt")).unwrap();
        ck.save(5, &sample(5)).unwrap();
        // Flip one byte in place — external damage, not a partial write.
        let path = ck.path_for(5);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        match ck.load_latest() {
            Err(CkptError::Frame(crate::FrameError::ChecksumMismatch { .. })) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
        fs::remove_dir_all(ck.dir()).ok();
    }

    #[test]
    fn stray_files_are_ignored_by_discovery() {
        let _g = faults_guard();
        mhg_faults::clear();
        let ck = Checkpointer::create(fresh_dir("stray")).unwrap();
        ck.save(7, &sample(7)).unwrap();
        fs::write(ck.dir().join("notes.txt"), b"hi").unwrap();
        fs::write(ck.dir().join("ckpt-xyz.mhgc"), b"junk").unwrap();
        fs::write(ck.dir().join("ckpt-000009.mhgc.tmp"), b"partial").unwrap();
        assert_eq!(ck.epochs().unwrap(), vec![7]);
        let (epoch, _) = ck.load_latest().unwrap().unwrap();
        assert_eq!(epoch, 7);
        fs::remove_dir_all(ck.dir()).ok();
    }

    #[test]
    fn retention_keeps_the_newest_n_checkpoints() {
        let _g = faults_guard();
        mhg_faults::clear();
        let ck = Checkpointer::create(fresh_dir("retention")).unwrap();
        for epoch in 1..=7 {
            ck.save(epoch, &sample(epoch as u64)).unwrap();
        }
        // Default retention is 3: only the newest three survive.
        assert_eq!(ck.epochs().unwrap(), vec![5, 6, 7]);
        let (epoch, dict) = ck.load_latest().unwrap().unwrap();
        assert_eq!(epoch, 7);
        assert_eq!(dict.u64("loop/epoch").unwrap(), 7);
        fs::remove_dir_all(ck.dir()).ok();
    }

    #[test]
    fn retention_is_configurable_and_zero_keeps_everything() {
        let _g = faults_guard();
        mhg_faults::clear();
        let keep1 = Checkpointer::create(fresh_dir("keep1"))
            .unwrap()
            .with_retention(1);
        for epoch in 1..=4 {
            keep1.save(epoch, &sample(epoch as u64)).unwrap();
        }
        assert_eq!(
            keep1.epochs().unwrap(),
            vec![4],
            "keep-1 leaves only the newest"
        );
        fs::remove_dir_all(keep1.dir()).ok();

        let keep_all = Checkpointer::create(fresh_dir("keep0"))
            .unwrap()
            .with_retention(0);
        for epoch in 1..=5 {
            keep_all.save(epoch, &sample(epoch as u64)).unwrap();
        }
        assert_eq!(keep_all.epochs().unwrap(), vec![1, 2, 3, 4, 5]);
        fs::remove_dir_all(keep_all.dir()).ok();
    }

    #[test]
    fn gc_runs_after_the_save_and_never_removes_the_newest() {
        let _g = faults_guard();
        // A save whose *write* exhausts its retry budget fails before GC
        // touches anything: the previously retained files all survive, so
        // the last good checkpoint is intact.
        let ck = Checkpointer::create(fresh_dir("crash_safe"))
            .unwrap()
            .with_attempts(1)
            .with_retention(2);
        mhg_faults::clear();
        ck.save(1, &sample(1)).unwrap();
        ck.save(2, &sample(2)).unwrap();
        mhg_faults::install(FaultPlan::new().inject(FaultSite::IoWrite, 1));
        let err = ck.save(3, &sample(3));
        mhg_faults::clear();
        assert!(
            err.is_err(),
            "single-attempt save must fail under the fault"
        );
        assert_eq!(ck.epochs().unwrap(), vec![1, 2], "failed save must not GC");
        let (epoch, _) = ck.load_latest().unwrap().unwrap();
        assert_eq!(epoch, 2, "last good checkpoint survives");
        fs::remove_dir_all(ck.dir()).ok();
    }

    #[test]
    fn save_retries_through_injected_io_faults() {
        let _g = faults_guard();
        let ck = Checkpointer::create(fresh_dir("faulty")).unwrap();
        mhg_faults::install(FaultPlan::new().inject(FaultSite::IoWrite, 1));
        ck.save(1, &sample(1)).unwrap();
        mhg_faults::clear();
        assert_eq!(ck.load_epoch(1).unwrap().u64("loop/epoch").unwrap(), 1);
        fs::remove_dir_all(ck.dir()).ok();
    }
}
