//! Monotonic clocks behind the span timers.
//!
//! [`RealClock`] reads `std::time::Instant` for humans. [`FakeClock`]
//! advances a fixed step per reading **per thread**: a leaf span (one whose
//! body takes no nested clock readings on its own thread) always measures
//! exactly one step no matter which thread runs it — the property that
//! makes metric output byte-identical across `MHG_THREADS` settings and
//! background-sampling modes.

use std::collections::HashMap;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// A monotonic nanosecond clock. `Send + Sync` so one clock instance can
/// serve every thread of a run.
pub trait Clock: Send + Sync {
    /// Nanoseconds since an arbitrary per-clock origin.
    fn now_ns(&self) -> u64;
}

/// Wall clock anchored at construction time.
#[derive(Debug)]
pub struct RealClock {
    origin: Instant,
}

impl RealClock {
    /// A wall clock whose origin is "now".
    #[expect(clippy::disallowed_methods, reason = "the one sanctioned clock read")]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for RealClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for RealClock {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Deterministic test clock: every reading advances the *calling thread's*
/// private counter by a fixed step.
///
/// All threads start from the same origin (0), so durations depend only on
/// the structure of the instrumented code — how many readings happen on the
/// measuring thread between start and stop — never on scheduling, thread
/// count, or wall time. A span with no nested readings measures exactly one
/// step wherever it runs.
#[derive(Debug)]
pub struct FakeClock {
    step_ns: u64,
    ticks: Mutex<HashMap<ThreadId, u64>>,
}

impl FakeClock {
    /// A fake clock advancing `step_ns` (clamped to at least 1) per reading
    /// per thread.
    pub fn new(step_ns: u64) -> Self {
        Self {
            step_ns: step_ns.max(1),
            ticks: Mutex::new(HashMap::new()),
        }
    }
}

impl Clock for FakeClock {
    fn now_ns(&self) -> u64 {
        let mut ticks = self.ticks.lock().unwrap_or_else(|e| e.into_inner());
        let slot = ticks.entry(std::thread::current().id()).or_insert(0);
        let now = *slot;
        *slot += self.step_ns;
        now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_is_monotonic() {
        let c = RealClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn fake_clock_steps_per_reading() {
        let c = FakeClock::new(5);
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.now_ns(), 5);
        assert_eq!(c.now_ns(), 10);
    }

    #[test]
    fn fake_clock_zero_step_is_clamped() {
        let c = FakeClock::new(0);
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.now_ns(), 1);
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "needs a second OS thread")]
    fn fake_clock_counters_are_per_thread() {
        let c = FakeClock::new(7);
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.now_ns(), 7);
        // A fresh thread starts from the shared origin, not from where the
        // main thread left off.
        std::thread::scope(|s| {
            s.spawn(|| {
                assert_eq!(c.now_ns(), 0);
                assert_eq!(c.now_ns(), 7);
            });
        });
        assert_eq!(c.now_ns(), 14);
    }
}
