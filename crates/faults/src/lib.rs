//! Deterministic fault injection for robustness testing.
//!
//! A [`FaultPlan`] schedules faults by *occurrence index*, not by time: the
//! plan "fail the 2nd checkpoint write" fires when the process hits its 2nd
//! write, wherever and whenever that happens. Schedules are therefore a pure
//! function of the plan (and, via [`FaultPlan::seeded`], of a seed), which
//! keeps fault runs exactly reproducible — the property the recovery tests
//! rely on.
//!
//! Injection sites live in the production crates (`mhg-sampling`'s prefetch
//! worker, `mhg-ckpt`'s IO paths, `mhg-train`'s loss accounting) and are
//! compiled in unconditionally: when no plan is installed the only cost is
//! one relaxed atomic load. A plan is installed either programmatically
//! ([`install`], used by the test suites) or from the `MHG_FAULTS`
//! environment variable (used by the CI fault matrix), e.g.
//!
//! ```text
//! MHG_FAULTS="sampler_panic:1,nan_loss:2,io_write:1" cargo test
//! ```
//!
//! meaning: panic the 1st background-sampler buffer production, turn the 2nd
//! epoch loss into NaN, and fail the 1st atomic file write. The recovery
//! machinery is designed so that any such plan still produces bit-identical
//! final results — fault runs can assert the same golden hashes as clean
//! runs.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, Once, OnceLock};

/// Number of distinct injection sites (length of the per-site tables).
const NUM_SITES: usize = 6;

/// Where a fault can be injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// Panic inside the background sampling worker, mid-production.
    SamplerPanic,
    /// IO error in an atomic file write (checkpoint / graph persist).
    IoWrite,
    /// IO error when reading a persisted file back.
    IoRead,
    /// Replace an epoch's training loss with NaN.
    NanLoss,
    /// IO error reading one block of a shard file of the sharded graph
    /// store at page-in time (counted per block read, independent of
    /// `IoRead`).
    ShardRead,
    /// Corruption detected in a block that was read successfully (surfaces
    /// as a checksum mismatch to the heal path).
    ShardDecode,
}

impl FaultSite {
    /// All sites, in schedule-table order.
    pub const ALL: [FaultSite; NUM_SITES] = [
        FaultSite::SamplerPanic,
        FaultSite::IoWrite,
        FaultSite::IoRead,
        FaultSite::NanLoss,
        FaultSite::ShardRead,
        FaultSite::ShardDecode,
    ];

    fn index(self) -> usize {
        match self {
            FaultSite::SamplerPanic => 0,
            FaultSite::IoWrite => 1,
            FaultSite::IoRead => 2,
            FaultSite::NanLoss => 3,
            FaultSite::ShardRead => 4,
            FaultSite::ShardDecode => 5,
        }
    }

    /// The spec token used by `MHG_FAULTS`.
    pub fn token(self) -> &'static str {
        match self {
            FaultSite::SamplerPanic => "sampler_panic",
            FaultSite::IoWrite => "io_write",
            FaultSite::IoRead => "io_read",
            FaultSite::NanLoss => "nan_loss",
            FaultSite::ShardRead => "shard_read",
            FaultSite::ShardDecode => "shard_decode",
        }
    }

    fn from_token(token: &str) -> Option<FaultSite> {
        FaultSite::ALL.iter().copied().find(|s| s.token() == token)
    }
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

/// A malformed `MHG_FAULTS` specification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSpecError(String);

impl std::fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad fault spec: {}", self.0)
    }
}

impl std::error::Error for FaultSpecError {}

/// A deterministic fault schedule: per site, the sorted 1-based occurrence
/// indices at which the fault fires.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    schedule: [Vec<u64>; NUM_SITES],
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `site` to fire at its `occurrence`-th hit (1-based).
    pub fn inject(mut self, site: FaultSite, occurrence: u64) -> Self {
        let slot = &mut self.schedule[site.index()];
        if occurrence >= 1 && !slot.contains(&occurrence) {
            slot.push(occurrence);
            slot.sort_unstable();
        }
        self
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.schedule.iter().all(Vec::is_empty)
    }

    /// Parses a comma-separated `site:occurrence` list, e.g.
    /// `"sampler_panic:1,io_write:2,nan_loss:1"`. Whitespace around entries
    /// is ignored; an empty spec yields an empty plan.
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultSpecError> {
        let mut plan = FaultPlan::new();
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (token, occ) = entry
                .split_once(':')
                .ok_or_else(|| FaultSpecError(format!("entry `{entry}` is not `site:occ`")))?;
            let site = FaultSite::from_token(token.trim())
                .ok_or_else(|| FaultSpecError(format!("unknown site `{token}`")))?;
            let occurrence: u64 = occ
                .trim()
                .parse()
                .map_err(|_| FaultSpecError(format!("bad occurrence `{occ}`")))?;
            if occurrence == 0 {
                return Err(FaultSpecError("occurrences are 1-based".into()));
            }
            plan = plan.inject(site, occurrence);
        }
        Ok(plan)
    }

    /// Derives a plan from a seed: `per_site` occurrences per site, each in
    /// `1..=horizon`. Same seed → same plan, always.
    pub fn seeded(seed: u64, per_site: usize, horizon: u64) -> FaultPlan {
        let mut plan = FaultPlan::new();
        let horizon = horizon.max(1);
        let mut state = seed;
        for site in FaultSite::ALL {
            for _ in 0..per_site {
                let occurrence = 1 + splitmix64(&mut state) % horizon;
                plan = plan.inject(site, occurrence);
            }
        }
        plan
    }

    /// The scheduled occurrence indices for `site` (sorted, 1-based).
    pub fn occurrences(&self, site: FaultSite) -> &[u64] {
        &self.schedule[site.index()]
    }

    /// Renders the plan back into `MHG_FAULTS` spec syntax. The output is
    /// canonical (site-table order, occurrences ascending) and round-trips
    /// through [`FaultPlan::parse`]: `parse(&plan.to_spec()) == plan` for
    /// every plan, pinned by the property tests in `crates/faults`.
    pub fn to_spec(&self) -> String {
        let mut out = String::new();
        for site in FaultSite::ALL {
            for &occ in self.occurrences(site) {
                if !out.is_empty() {
                    out.push(',');
                }
                out.push_str(site.token());
                out.push(':');
                out.push_str(&occ.to_string());
            }
        }
        out
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct ActiveState {
    plan: FaultPlan,
    counters: [u64; NUM_SITES],
    fired: Vec<(FaultSite, u64)>,
}

static ANY_ACTIVE: AtomicBool = AtomicBool::new(false);
static ENV_BOOTSTRAP: Once = Once::new();

fn active() -> &'static Mutex<Option<ActiveState>> {
    static ACTIVE: OnceLock<Mutex<Option<ActiveState>>> = OnceLock::new();
    ACTIVE.get_or_init(|| Mutex::new(None))
}

fn lock_active() -> std::sync::MutexGuard<'static, Option<ActiveState>> {
    active().lock().unwrap_or_else(|e| e.into_inner())
}

/// Installs `plan` process-wide, resetting all occurrence counters.
pub fn install(plan: FaultPlan) {
    let empty = plan.is_empty();
    *lock_active() = Some(ActiveState {
        plan,
        counters: [0; NUM_SITES],
        fired: Vec::new(),
    });
    ANY_ACTIVE.store(!empty, Ordering::Release);
}

/// Removes any installed plan (faults stop firing; counters are dropped).
pub fn clear() {
    *lock_active() = None;
    ANY_ACTIVE.store(false, Ordering::Release);
}

/// Serializes tests that install process-global fault plans: hold the
/// returned guard for the whole test so concurrently running tests in the
/// same binary cannot consume each other's scheduled occurrences. A
/// poisoned guard (a previous holder panicked) is recovered, not
/// propagated, so one failing test doesn't cascade.
pub fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
    GUARD
        .get_or_init(|| std::sync::Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Whether a non-empty plan is currently installed.
pub fn is_active() -> bool {
    ensure_env_bootstrap();
    ANY_ACTIVE.load(Ordering::Acquire)
}

/// The `(site, occurrence)` events that have fired since [`install`].
pub fn fired() -> Vec<(FaultSite, u64)> {
    lock_active()
        .as_ref()
        .map(|s| s.fired.clone())
        .unwrap_or_default()
}

fn ensure_env_bootstrap() {
    ENV_BOOTSTRAP.call_once(|| {
        let Ok(spec) = std::env::var("MHG_FAULTS") else {
            return;
        };
        match FaultPlan::parse(&spec) {
            Ok(plan) if !plan.is_empty() => {
                // Only bootstrap if nothing was installed programmatically.
                // Activation is visible through `is_active` / `fired` (the
                // observability layer reports it) rather than stderr noise.
                if lock_active().is_none() {
                    install(plan);
                }
            }
            // A malformed spec is ignored; `is_active()` stays false, which
            // the fault-matrix CI legs would surface immediately.
            Ok(_) | Err(_) => {}
        }
    });
}

/// Reports (and consumes) one hit of `site`: returns `true` when the
/// schedule says this occurrence must fault. Counts from 1 on each
/// [`install`]; always `false` when no plan is installed.
pub fn should_inject(site: FaultSite) -> bool {
    ensure_env_bootstrap();
    if !ANY_ACTIVE.load(Ordering::Acquire) {
        return false;
    }
    let mut guard = lock_active();
    let Some(state) = guard.as_mut() else {
        return false;
    };
    let idx = site.index();
    state.counters[idx] += 1;
    let occurrence = state.counters[idx];
    if state.plan.schedule[idx].contains(&occurrence) {
        // The injection is recorded in `fired` for the observability
        // layer's summary; no direct stderr reporting from this crate.
        state.fired.push((site, occurrence));
        true
    } else {
        false
    }
}

/// Panics if the schedule injects at this hit of `site` (used inside the
/// background sampler, where the pipeline contains the unwind).
pub fn panic_if_scheduled(site: FaultSite) {
    if should_inject(site) {
        panic!("injected fault: {site}");
    }
}

/// Returns an injected IO error if the schedule fires at this hit of
/// `site`; `Ok(())` otherwise. `what` names the operation for the message;
/// it is formatted only when the fault fires, so a caller can pass
/// `path.display()` on a hot path for free.
pub fn io_error_if_scheduled(site: FaultSite, what: impl std::fmt::Display) -> io::Result<()> {
    if should_inject(site) {
        return Err(io::Error::other(format!("injected fault: {site} ({what})")));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    // The plan registry is process-global; serialize the tests that use it.
    fn registry_guard() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn parse_roundtrips_tokens() {
        let plan = FaultPlan::parse("sampler_panic:2, io_write:1,nan_loss:3").unwrap();
        assert_eq!(plan.occurrences(FaultSite::SamplerPanic), &[2]);
        assert_eq!(plan.occurrences(FaultSite::IoWrite), &[1]);
        assert_eq!(plan.occurrences(FaultSite::IoRead), &[] as &[u64]);
        assert_eq!(plan.occurrences(FaultSite::NanLoss), &[3]);
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(FaultPlan::parse("bogus_site:1").is_err());
        assert!(FaultPlan::parse("io_write").is_err());
        assert!(FaultPlan::parse("io_write:zero").is_err());
        assert!(FaultPlan::parse("io_write:0").is_err());
    }

    #[test]
    fn seeded_plans_are_reproducible_and_bounded() {
        let a = FaultPlan::seeded(99, 2, 10);
        let b = FaultPlan::seeded(99, 2, 10);
        assert_eq!(a, b);
        let c = FaultPlan::seeded(100, 2, 10);
        assert_ne!(a, c, "different seeds should differ (overwhelmingly)");
        for site in FaultSite::ALL {
            assert!(a.occurrences(site).iter().all(|&o| (1..=10).contains(&o)));
        }
    }

    #[test]
    fn occurrence_counting_fires_exactly_on_schedule() {
        let _g = registry_guard();
        install(FaultPlan::new().inject(FaultSite::NanLoss, 2));
        assert!(!should_inject(FaultSite::NanLoss)); // occurrence 1
        assert!(should_inject(FaultSite::NanLoss)); // occurrence 2
        assert!(!should_inject(FaultSite::NanLoss)); // occurrence 3
        assert!(!should_inject(FaultSite::SamplerPanic));
        assert_eq!(fired(), vec![(FaultSite::NanLoss, 2)]);
        clear();
        assert!(!should_inject(FaultSite::NanLoss));
    }

    #[test]
    fn to_spec_is_canonical_and_roundtrips() {
        let plan = FaultPlan::new()
            .inject(FaultSite::ShardDecode, 3)
            .inject(FaultSite::SamplerPanic, 2)
            .inject(FaultSite::ShardRead, 1)
            .inject(FaultSite::ShardRead, 4);
        let spec = plan.to_spec();
        assert_eq!(
            spec,
            "sampler_panic:2,shard_read:1,shard_read:4,shard_decode:3"
        );
        assert_eq!(FaultPlan::parse(&spec).unwrap(), plan);
        assert_eq!(FaultPlan::new().to_spec(), "");
    }

    #[test]
    fn io_helper_surfaces_typed_error() {
        let _g = registry_guard();
        install(FaultPlan::new().inject(FaultSite::IoWrite, 1));
        let err = io_error_if_scheduled(FaultSite::IoWrite, "test write").unwrap_err();
        assert!(err.to_string().contains("injected fault"));
        assert!(io_error_if_scheduled(FaultSite::IoWrite, "again").is_ok());
        clear();
    }
}
