//! Deterministic schedule-exploring race harness (a poor-man's loom).
//!
//! The workspace's concurrency claim — `mhg-obs` registry updates converge
//! under any interleaving of their Relaxed atomic steps — is a
//! *linearizability-by-commutativity* argument. This crate checks it by
//! brute force: it enumerates **every** interleaving of the threads' atomic
//! sub-operations for small thread counts (≤3) and asserts each schedule's
//! outcome equals the serial replay.
//!
//! Schedules are executed on a single OS thread: a schedule is a sequence
//! of thread indices, and "running" it steps the named thread's next
//! sub-operation. Each sub-operation models one hardware-atomic step (a
//! single `fetch_add` / `fetch_max` / `load` / `store`), so interleaving at
//! sub-operation granularity is exactly the set of behaviours a weakly
//! ordered machine can produce for these data-race-free programs. No real
//! threads are spawned, so every run explores the full schedule space and
//! the suite is deterministic.
//!
//! The models live in [`hist`]: the four-step `mhg_obs::Histogram::record`
//! decomposition (bucket, count, sum, max), verified against the real
//! histogram's serial snapshot; plus a deliberately broken load-then-store
//! counter the harness must catch.

/// Enumerates every interleaving of `counts[t]` steps per thread `t`,
/// calling `f` with each complete schedule (a sequence of thread indices).
///
/// The number of schedules is the multinomial coefficient
/// `(Σcounts)! / Π(counts[t]!)` — see [`num_schedules`]. Keep totals small:
/// three threads of four steps each is already 34 650 schedules.
pub fn for_each_schedule<F: FnMut(&[usize])>(counts: &[usize], mut f: F) {
    let total: usize = counts.iter().sum();
    let mut remaining = counts.to_vec();
    let mut prefix = Vec::with_capacity(total);
    descend(&mut remaining, &mut prefix, total, &mut f);
}

fn descend<F: FnMut(&[usize])>(
    remaining: &mut [usize],
    prefix: &mut Vec<usize>,
    total: usize,
    f: &mut F,
) {
    if prefix.len() == total {
        f(prefix);
        return;
    }
    for t in 0..remaining.len() {
        if remaining[t] > 0 {
            remaining[t] -= 1;
            prefix.push(t);
            descend(remaining, prefix, total, f);
            prefix.pop();
            remaining[t] += 1;
        }
    }
}

/// The exact number of schedules [`for_each_schedule`] visits for
/// `counts`: the multinomial coefficient `(Σcounts)! / Π(counts[t]!)`.
///
/// # Panics
///
/// Panics if the count overflows `u64` (far beyond anything enumerable).
pub fn num_schedules(counts: &[usize]) -> u64 {
    let mut result: u128 = 1;
    let mut seen: u128 = 0;
    for &c in counts {
        for k in 1..=c as u128 {
            seen += 1;
            result = result * seen / k; // exact: binomial prefix products
        }
    }
    assert!(
        result <= u128::from(u64::MAX),
        "schedule count overflows u64"
    );
    result as u64
}

/// A program counter per thread over per-thread step lists, driven by a
/// schedule. `steps[t]` is thread `t`'s ordered sub-operation list; the
/// schedule names which thread takes its next step.
pub fn run_schedule<S, St: Copy, F: FnMut(&mut S, usize, St)>(
    state: &mut S,
    steps: &[Vec<St>],
    schedule: &[usize],
    mut apply: F,
) {
    let mut pc = vec![0usize; steps.len()];
    for &t in schedule {
        let op = steps[t][pc[t]];
        pc[t] += 1;
        apply(state, t, op);
    }
    for (t, &done) in pc.iter().enumerate() {
        assert!(
            done == steps[t].len(),
            "schedule did not drain thread {t}: {done}/{} steps",
            steps[t].len()
        );
    }
}

pub mod hist {
    //! Sub-operation models of the `mhg-obs` registry cells.

    use mhg_obs::{Histogram, HistogramSnapshot, Registry, HISTOGRAM_BUCKETS};

    /// One hardware-atomic step of [`mhg_obs::Histogram::record`], in the
    /// order `record` performs them. A concurrent reader can observe the
    /// state between any two of these; the design claim is that the *final*
    /// state (once all recorders finish) is interleaving-invariant.
    #[derive(Clone, Copy, Debug)]
    pub enum SubOp {
        /// `buckets[bucket_index(v)].fetch_add(1, Relaxed)`.
        Bucket(u64),
        /// `count.fetch_add(1, Relaxed)`.
        Count,
        /// `sum.fetch_add(v, Relaxed)` (wrapping, like the real cell).
        Sum(u64),
        /// `max.fetch_max(v, Relaxed)`.
        Max(u64),
    }

    /// Plain-integer model of a histogram's cells. Each [`SubOp`] applies
    /// as one indivisible step — exactly the atomicity the real `AtomicU64`
    /// RMW operations guarantee — so single-threaded schedule execution
    /// covers every cross-thread interleaving of those steps.
    #[derive(Debug, Default, Clone, PartialEq, Eq)]
    pub struct HistModel {
        /// Per-bucket observation counts, indexed like the real histogram.
        pub buckets: Vec<u64>,
        /// Observation count cell.
        pub count: u64,
        /// Value sum cell (wrapping).
        pub sum: u64,
        /// Maximum cell.
        pub max: u64,
    }

    impl HistModel {
        /// A model with every bucket zeroed, shaped like the real histogram.
        pub fn new() -> Self {
            Self {
                buckets: vec![0; HISTOGRAM_BUCKETS],
                ..Self::default()
            }
        }

        /// Applies one atomic step.
        pub fn apply(&mut self, op: SubOp) {
            match op {
                SubOp::Bucket(v) => self.buckets[Histogram::bucket_index(v)] += 1,
                SubOp::Count => self.count += 1,
                SubOp::Sum(v) => self.sum = self.sum.wrapping_add(v),
                SubOp::Max(v) => self.max = self.max.max(v),
            }
        }

        /// The model state in the real snapshot's shape, for comparison
        /// against `Histogram::snapshot()` of a serial replay.
        pub fn snapshot(&self) -> HistogramSnapshot {
            HistogramSnapshot {
                count: self.count,
                sum: self.sum,
                max: self.max,
                buckets: self
                    .buckets
                    .iter()
                    .enumerate()
                    .filter_map(|(i, &n)| (n > 0).then_some((i, n)))
                    .collect(),
            }
        }
    }

    /// Thread `t`'s step list for recording `values` into a histogram:
    /// the four sub-operations of each `record`, in program order.
    pub fn record_steps(values: &[u64]) -> Vec<SubOp> {
        values
            .iter()
            .flat_map(|&v| [SubOp::Bucket(v), SubOp::Count, SubOp::Sum(v), SubOp::Max(v)])
            .collect()
    }

    /// The serial-replay reference: every thread's values recorded into a
    /// real `mhg_obs::Histogram` (obtained through a [`Registry`], the only
    /// public constructor path), in thread order.
    pub fn serial_snapshot(per_thread_values: &[Vec<u64>]) -> HistogramSnapshot {
        let h = Registry::new().histogram("race-model");
        for values in per_thread_values {
            for &v in values {
                h.record(v);
            }
        }
        h.snapshot()
    }

    /// A **deliberately broken** counter whose increment is a non-atomic
    /// load-then-store pair. The harness must find schedules where
    /// increments are lost — proving it can detect real races, not just
    /// bless correct code.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct TornCounter {
        /// The shared cell.
        pub cell: u64,
        /// Per-thread temporaries holding the loaded value (index = thread).
        pub loaded: [u64; 3],
    }

    /// One step of the broken read-modify-write.
    #[derive(Clone, Copy, Debug)]
    pub enum TornOp {
        /// `loaded[t] = cell` (the read half).
        Load,
        /// `cell = loaded[t] + 1` (the write half).
        Store,
    }

    impl TornCounter {
        /// Applies thread `t`'s step.
        pub fn apply(&mut self, t: usize, op: TornOp) {
            match op {
                TornOp::Load => self.loaded[t] = self.cell,
                TornOp::Store => self.cell = self.loaded[t] + 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_counts_match_the_multinomial() {
        assert_eq!(num_schedules(&[1]), 1);
        assert_eq!(num_schedules(&[2, 2]), 6);
        assert_eq!(num_schedules(&[4, 4]), 70);
        assert_eq!(num_schedules(&[4, 4, 4]), 34_650);
        let mut seen = 0u64;
        for_each_schedule(&[2, 2, 1], |_| seen += 1);
        assert_eq!(seen, num_schedules(&[2, 2, 1]));
    }

    #[test]
    fn schedules_are_distinct_and_complete() {
        let mut all: Vec<Vec<usize>> = Vec::new();
        for_each_schedule(&[2, 1], |s| all.push(s.to_vec()));
        assert_eq!(all, vec![vec![0, 0, 1], vec![0, 1, 0], vec![1, 0, 0],]);
    }

    #[test]
    fn run_schedule_drains_every_thread() {
        let steps = vec![vec![1u64, 2], vec![10u64]];
        let mut log = Vec::new();
        run_schedule(&mut log, &steps, &[1, 0, 0], |log, t, op| {
            log.push((t, op));
        });
        assert_eq!(log, vec![(1, 10), (0, 1), (0, 2)]);
    }
}
