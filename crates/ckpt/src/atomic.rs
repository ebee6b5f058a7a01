//! Atomic, fault-injectable file IO.
//!
//! Every durable write in the workspace goes through [`atomic_write`]
//! (enforced by the `atomic-write` lint rule): the payload lands in a
//! `*.tmp` sibling, is fsynced, and is renamed over the destination. A
//! crash at any point leaves either the old file or the new file — never a
//! half-written one.
//!
//! Transient failures are handled by [`atomic_write_retry`] with a bounded,
//! *deterministic* retry policy: the retry decision depends only on the
//! attempt count, never on wall-clock time, so fault-injected runs replay
//! identically. The inter-attempt backoff is a bounded busy-yield — a side
//! effect only, invisible to the decision path.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use mhg_faults::FaultSite;

/// Default attempt budget for [`atomic_write_retry`].
pub const DEFAULT_WRITE_ATTEMPTS: u32 = 3;

/// Process-wide count of transient write failures absorbed by
/// [`atomic_write_retry`]. Read by the observability layer's run summary.
static WRITE_RETRIES: AtomicU64 = AtomicU64::new(0);

/// Total transient write failures absorbed (retried) by
/// [`atomic_write_retry`] since process start. Failures that exhausted the
/// retry budget are surfaced as errors, not counted here.
pub fn write_retries() -> u64 {
    WRITE_RETRIES.load(Ordering::Relaxed)
}

fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Writes `bytes` to `path` atomically: tmp file + fsync + rename.
///
/// Subject to [`FaultSite::IoWrite`] injection (one occurrence per call).
pub fn atomic_write(path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    let path = path.as_ref();
    mhg_faults::io_error_if_scheduled(FaultSite::IoWrite, &path.display().to_string())?;
    let tmp = tmp_sibling(path);
    {
        #[expect(clippy::disallowed_methods, reason = "this is the atomic writer")]
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    // Make the rename itself durable where the platform allows syncing a
    // directory handle; failure here is not fatal to atomicity.
    if let Some(dir) = path.parent() {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// [`atomic_write`] with up to `attempts` tries. Transient errors (like
/// injected [`FaultSite::IoWrite`] faults) are counted in [`write_retries`]
/// and retried; the last error is returned once the budget is exhausted.
pub fn atomic_write_retry(path: impl AsRef<Path>, bytes: &[u8], attempts: u32) -> io::Result<()> {
    let path = path.as_ref();
    let attempts = attempts.max(1);
    let mut attempt = 0;
    loop {
        attempt += 1;
        match atomic_write(path, bytes) {
            Ok(()) => return Ok(()),
            Err(_) if attempt < attempts => {
                WRITE_RETRIES.fetch_add(1, Ordering::Relaxed);
                backoff(attempt);
            }
            Err(e) => return Err(e),
        }
    }
}

/// Deterministically bounded backoff: yields the scheduler a number of
/// times that grows with the attempt index. No clocks, no randomness.
fn backoff(attempt: u32) {
    for _ in 0..(1u32 << attempt.min(8)) {
        std::thread::yield_now();
    }
}

/// Reads a file fully. Subject to [`FaultSite::IoRead`] injection.
pub fn read_file(path: impl AsRef<Path>) -> io::Result<Vec<u8>> {
    let path = path.as_ref();
    mhg_faults::io_error_if_scheduled(FaultSite::IoRead, &path.display().to_string())?;
    fs::read(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::faults_guard;
    use mhg_faults::FaultPlan;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("mhg_ckpt_atomic").join(name);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_then_read_roundtrips() {
        let _g = faults_guard();
        mhg_faults::clear();
        let path = tmp_dir("roundtrip").join("f.bin");
        atomic_write(&path, b"payload").unwrap();
        assert_eq!(read_file(&path).unwrap(), b"payload");
        assert!(
            !tmp_sibling(&path).exists(),
            "tmp sibling must not survive a successful write"
        );
        fs::remove_file(&path).ok();
    }

    #[test]
    fn overwrite_is_atomic_replacement() {
        let _g = faults_guard();
        mhg_faults::clear();
        let path = tmp_dir("overwrite").join("f.bin");
        atomic_write(&path, b"old").unwrap();
        atomic_write(&path, b"new").unwrap();
        assert_eq!(read_file(&path).unwrap(), b"new");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn retry_survives_injected_transient_faults() {
        let _g = faults_guard();
        let path = tmp_dir("retry").join("f.bin");
        fs::remove_file(&path).ok();
        // Fail the first two attempts; the third succeeds.
        mhg_faults::install(
            FaultPlan::new()
                .inject(FaultSite::IoWrite, 1)
                .inject(FaultSite::IoWrite, 2),
        );
        let retries_before = write_retries();
        atomic_write_retry(&path, b"survived", 3).unwrap();
        mhg_faults::clear();
        assert_eq!(
            write_retries() - retries_before,
            2,
            "both absorbed faults must be counted"
        );
        assert_eq!(read_file(&path).unwrap(), b"survived");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn retry_budget_is_bounded() {
        let _g = faults_guard();
        let path = tmp_dir("budget").join("f.bin");
        fs::remove_file(&path).ok();
        mhg_faults::install(
            FaultPlan::new()
                .inject(FaultSite::IoWrite, 1)
                .inject(FaultSite::IoWrite, 2)
                .inject(FaultSite::IoWrite, 3),
        );
        let err = atomic_write_retry(&path, b"doomed", 3).unwrap_err();
        mhg_faults::clear();
        assert!(err.to_string().contains("injected fault"));
        assert!(!path.exists(), "no partial file after exhausted retries");
    }
}
