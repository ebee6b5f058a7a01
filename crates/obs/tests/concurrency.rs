//! Property test: registry totals are invariant under concurrent recording.
//!
//! Counters and histogram cells are relaxed atomics whose only operations
//! are commutative (`fetch_add`, `fetch_max`), so any interleaving of N
//! recording threads must produce exactly the totals of a serial replay.
//! This is the property that lets the kernel layer and the background
//! sampler record from worker threads without locks or coordination.
#![expect(clippy::disallowed_methods, reason = "needs real concurrent threads")]

use mhg_obs::{MetricValue, Obs, Registry, HISTOGRAM_BUCKETS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic per-thread workload: `(counter_increment, histogram_value)`
/// pairs derived from a seeded RNG, so the expected totals are a pure
/// function of `(seed, threads, per_thread)`.
fn workload(seed: u64, thread: usize, per_thread: usize) -> Vec<(u64, u64)> {
    let mut rng = StdRng::seed_from_u64(seed ^ (thread as u64).wrapping_mul(0x9E37_79B9));
    (0..per_thread)
        .map(|_| {
            // Histogram values span many orders of magnitude so several
            // log2 buckets are exercised, including bucket 0 (value 0).
            let exp = rng.gen_range(0..40u32);
            (rng.gen_range(0..100u64), rng.gen::<u64>() >> exp >> 24)
        })
        .collect()
}

fn run_concurrent(seed: u64, threads: usize, per_thread: usize) -> Registry {
    let registry = Registry::default();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let registry = &registry;
            scope.spawn(move || {
                for (add, value) in workload(seed, t, per_thread) {
                    registry.counter_add("events", add);
                    registry.counter_add("records", 1);
                    registry.record("latency", value);
                }
            });
        }
    });
    registry
}

#[test]
fn totals_and_buckets_match_serial_replay_for_any_thread_count() {
    for (seed, threads, per_thread) in [(1u64, 2usize, 500usize), (2, 4, 400), (3, 8, 250)] {
        // Serial oracle: replay every thread's workload on one thread.
        let mut events = 0u64;
        let mut records = 0u64;
        let mut sum = 0u64;
        let mut max = 0u64;
        let mut buckets = vec![0u64; HISTOGRAM_BUCKETS];
        let oracle = Registry::default();
        for t in 0..threads {
            for (add, value) in workload(seed, t, per_thread) {
                events += add;
                records += 1;
                sum += value;
                max = max.max(value);
                oracle.record("latency", value);
            }
        }
        let MetricValue::Histogram(serial_hist) = oracle.snapshot().remove(0).1 else {
            panic!("oracle registry lost its histogram");
        };
        for &(i, c) in &serial_hist.buckets {
            buckets[i] = c;
        }

        let registry = run_concurrent(seed, threads, per_thread);
        let snap = registry.snapshot();
        let get = |name: &str| {
            snap.iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("missing metric {name}"))
        };
        assert_eq!(
            get("events"),
            MetricValue::Counter(events),
            "seed {seed}, {threads} threads"
        );
        assert_eq!(get("records"), MetricValue::Counter(records));
        let MetricValue::Histogram(h) = get("latency") else {
            panic!("latency must be a histogram");
        };
        assert_eq!(h.count, records, "seed {seed}, {threads} threads");
        assert_eq!(h.sum, sum);
        assert_eq!(h.max, max);
        for &(i, c) in &h.buckets {
            assert_eq!(c, buckets[i], "bucket {i}, seed {seed}, {threads} threads");
        }
        assert_eq!(
            h.buckets.iter().map(|&(_, c)| c).sum::<u64>(),
            records,
            "sparse buckets must cover every record"
        );
    }
}

/// The same invariance holds through the full `Obs` front-end: concurrent
/// spans and counters produce a snapshot identical to the serial replay
/// (the fake clock's per-thread tick counter keeps span durations exact).
#[test]
fn obs_front_end_is_merge_order_independent() {
    let concurrent = Obs::deterministic(1_000);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let obs = &concurrent;
            scope.spawn(move || {
                for _ in 0..100 {
                    let span = obs.span("work");
                    obs.counter_add("iterations", 1);
                    span.stop_ms();
                }
            });
        }
    });

    let serial = Obs::deterministic(1_000);
    for _ in 0..400 {
        let span = serial.span("work");
        serial.counter_add("iterations", 1);
        span.stop_ms();
    }

    // Leaf spans measure exactly one fake step on every thread, so even the
    // duration histogram is byte-identical, not just the counters.
    assert_eq!(concurrent.render_jsonl(), serial.render_jsonl());
}
