//! Deterministic observability for the HybridGNN reproduction (`mhg-obs`).
//!
//! One [`Obs`] handle per run is threaded through `CommonConfig` →
//! `TrainOptions` and carries:
//!
//! * a [`Registry`] of typed counters, gauges and fixed-bucket
//!   [`Histogram`]s whose recorded state is integer atomics, so totals are
//!   merge-order independent under concurrent recording;
//! * a monotonic [`Clock`] — [`RealClock`] for humans, a per-thread
//!   [`FakeClock`] for tests, which makes every duration a pure function of
//!   the instrumented code path (byte-identical output across reruns,
//!   `MHG_THREADS` settings and background-sampling modes);
//! * RAII [`Span`] timers recording into duration histograms;
//! * insertion-ordered structured events ([`Obs::event`]);
//! * sinks: a JSONL event/metric file written atomically through
//!   `mhg_ckpt::atomic_write` on [`Obs::finish`], plus a human stderr
//!   summary / notes channel. This crate is the only sanctioned
//!   `eprintln!` site in the workspace outside binary entry points: the
//!   workspace `clippy.toml` bans the macro everywhere else.
//!
//! Metric names are namespaced `<stage>/<metric>` (`train/sample`,
//! `sampling/shard_occupancy`, …); the full scheme is documented in
//! DESIGN.md §2.12 and in the README's "Reading metrics.jsonl" section.
#![expect(clippy::disallowed_macros, reason = "this crate owns the stderr sink")]
// Library code must not panic; clippy.toml exempts `#[cfg(test)]` code.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

mod clock;
mod config;
mod registry;
mod sink;
mod span;

pub use clock::{Clock, FakeClock, RealClock};
pub use config::ObsConfig;
pub use registry::{Histogram, HistogramSnapshot, MetricValue, Registry, HISTOGRAM_BUCKETS};
pub use span::Span;

use std::fmt;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// A JSON-serialisable event field value.
#[derive(Debug, Clone, PartialEq)]
pub enum EventValue {
    /// Unsigned integer.
    U64(u64),
    /// Float; non-finite values serialise as `null`.
    F64(f64),
    /// String (JSON-escaped).
    Str(String),
    /// Boolean.
    Bool(bool),
}

struct Shared {
    clock: Box<dyn Clock>,
    record: bool,
    notes: bool,
    summary: bool,
    jsonl: Option<PathBuf>,
    registry: Registry,
    events: Mutex<Vec<String>>,
}

/// Cloneable observability handle (see the crate docs). Clones are cheap
/// and share the same registry, clock, event log and sinks.
#[derive(Clone)]
pub struct Obs {
    inner: Arc<Shared>,
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs")
            .field("record", &self.inner.record)
            .field("notes", &self.inner.notes)
            .field("summary", &self.inner.summary)
            .field("jsonl", &self.inner.jsonl)
            .finish_non_exhaustive()
    }
}

impl Default for Obs {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Obs {
    pub(crate) fn assemble(
        clock: Box<dyn Clock>,
        record: bool,
        notes: bool,
        summary: bool,
        jsonl: Option<PathBuf>,
    ) -> Self {
        Self {
            inner: Arc::new(Shared {
                clock,
                record,
                notes,
                summary,
                jsonl,
                registry: Registry::new(),
                events: Mutex::new(Vec::new()),
            }),
        }
    }

    /// A no-sink handle: spans still measure real time (so timing reports
    /// keep working) but nothing is recorded or printed.
    pub fn disabled() -> Self {
        ObsConfig::default().build()
    }

    /// The handle the `MHG_OBS` environment variable describes.
    pub fn from_env() -> Self {
        ObsConfig::from_env().build()
    }

    /// A recording handle on a [`FakeClock`] advancing `step_ns` per
    /// reading per thread, with no output sinks — metric state is a pure
    /// function of the instrumented code path; read it back with
    /// [`Obs::metrics`] or [`Obs::render_jsonl`].
    pub fn deterministic(step_ns: u64) -> Self {
        ObsConfig {
            fake_step_ns: Some(step_ns),
            ..ObsConfig::default()
        }
        .build()
    }

    /// Whether metrics and events are being recorded.
    pub fn is_recording(&self) -> bool {
        self.inner.record
    }

    /// Current clock reading, in nanoseconds from the handle's origin.
    pub fn now_ns(&self) -> u64 {
        self.inner.clock.now_ns()
    }

    /// Starts a [`Span`] that records into histogram `name` when stopped
    /// or dropped.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        Span::begin(self, name)
    }

    /// Adds `n` to counter `name`.
    pub fn counter_add(&self, name: &str, n: u64) {
        if self.inner.record {
            self.inner.registry.counter_add(name, n);
        }
    }

    /// Sets gauge `name` to `value` (last write wins; call from a single
    /// coordinating thread when determinism matters).
    pub fn gauge_set(&self, name: &str, value: f64) {
        if self.inner.record {
            self.inner.registry.gauge_set(name, value);
        }
    }

    /// Records `value` into histogram `name`.
    pub fn record_value(&self, name: &str, value: u64) {
        if self.inner.record {
            self.inner.registry.record(name, value);
        }
    }

    /// Records a duration in nanoseconds into histogram `name`.
    pub fn record_duration_ns(&self, name: &str, ns: u64) {
        self.record_value(name, ns);
    }

    /// Appends a structured event; events keep insertion order in the JSONL
    /// output, so only emit them from a deterministic (coordinating) thread.
    pub fn event(&self, name: &str, fields: &[(&str, EventValue)]) {
        if !self.inner.record {
            return;
        }
        let line = sink::render_event(name, fields);
        self.inner
            .events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(line);
    }

    /// A human progress note: printed verbatim to stderr when notes are
    /// enabled, otherwise dropped. Notes never enter the JSONL output.
    pub fn note(&self, msg: &str) {
        if self.inner.notes {
            eprintln!("{msg}");
        }
    }

    /// Number of events recorded so far.
    pub fn event_count(&self) -> usize {
        self.inner
            .events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// All recorded metrics, sorted by name.
    pub fn metrics(&self) -> Vec<(String, MetricValue)> {
        self.inner.registry.snapshot()
    }

    /// Renders the JSONL document: every event line in insertion order,
    /// then one line per metric sorted by name. Under a [`FakeClock`] the
    /// result is byte-identical across reruns, thread counts and
    /// background-sampling modes (pinned in `tests/determinism.rs`).
    pub fn render_jsonl(&self) -> String {
        let events = self
            .inner
            .events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        sink::render_jsonl(&events, &self.metrics())
    }

    /// Flushes the sinks: writes the JSONL file (if configured)
    /// atomically and prints the stderr summary (if enabled). Returns the
    /// JSONL path written, if any. Idempotent — calling again rewrites the
    /// file with the current state.
    pub fn finish(&self) -> io::Result<Option<PathBuf>> {
        if let Some(path) = &self.inner.jsonl {
            mhg_ckpt::atomic_write(path, self.render_jsonl().as_bytes())?;
        }
        if self.inner.summary {
            sink::print_summary(self);
        }
        Ok(self.inner.jsonl.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing_but_still_ticks() {
        let obs = Obs::disabled();
        obs.counter_add("a/c", 1);
        obs.record_value("a/h", 5);
        obs.event("e", &[]);
        assert!(obs.metrics().is_empty());
        assert_eq!(obs.event_count(), 0);
        let t0 = obs.now_ns();
        let t1 = obs.now_ns();
        assert!(t1 >= t0);
    }

    #[test]
    fn render_jsonl_orders_events_then_sorted_metrics() {
        let obs = Obs::deterministic(1_000);
        obs.event("first", &[("k", EventValue::U64(1))]);
        obs.event("second", &[]);
        obs.counter_add("z/c", 2);
        obs.counter_add("a/c", 1);
        let text = obs.render_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("{\"event\":\"first\""));
        assert!(lines[1].starts_with("{\"event\":\"second\""));
        assert!(lines[2].starts_with("{\"metric\":\"a/c\""));
        assert!(lines[3].starts_with("{\"metric\":\"z/c\""));
    }

    #[test]
    fn render_jsonl_is_identical_across_reruns() {
        let render = || {
            let obs = Obs::deterministic(1_000);
            obs.span("t/a").stop_ms();
            obs.event("done", &[("ok", EventValue::Bool(true))]);
            obs.render_jsonl()
        };
        assert_eq!(render(), render());
    }

    #[test]
    fn finish_writes_jsonl_atomically() {
        let dir = std::env::temp_dir().join("mhg_obs_finish");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.jsonl");
        let obs = ObsConfig {
            jsonl: Some(path.clone()),
            fake_step_ns: Some(1_000),
            ..ObsConfig::default()
        }
        .build();
        obs.counter_add("a/c", 3);
        let written = obs.finish().unwrap();
        assert_eq!(written, Some(path.clone()));
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, obs.render_jsonl());
        std::fs::remove_file(&path).ok();
    }
}
