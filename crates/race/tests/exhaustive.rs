//! Exhaustive-interleaving verification of the workspace's concurrency
//! contracts.
//!
//! Every test enumerates **all** schedules of its thread programs'
//! atomic sub-operations — no sampling, no real threads — and compares
//! each outcome against a serial replay on the real `mhg-obs` code
//! paths. Negative tests run deliberately broken variants
//! and assert the harness finds a diverging schedule, proving the
//! enumeration has teeth.

use mhg_race::hist::{record_steps, serial_snapshot, HistModel, TornCounter, TornOp};
use mhg_race::{for_each_schedule, num_schedules, run_schedule};

/// Counter merge: each thread is a sequence of indivisible `fetch_add`
/// steps. Every interleaving of up to 3 threads must reach the serial
/// total (commutativity of addition ⇒ schedule-invariance).
#[test]
fn counter_fetch_add_is_schedule_invariant() {
    let per_thread: [Vec<u64>; 3] = [vec![1, 2, 3], vec![10, 20, 30], vec![100, 200, 300]];
    let serial: u64 = per_thread.iter().flatten().sum();
    let counts = [3, 3, 3];
    assert_eq!(num_schedules(&counts), 1_680);

    let mut explored = 0u64;
    for_each_schedule(&counts, |schedule| {
        let mut cell = 0u64;
        run_schedule(&mut cell, &per_thread, schedule, |cell, _t, v| {
            *cell += v; // one indivisible fetch_add
        });
        assert_eq!(cell, serial, "diverged on schedule {schedule:?}");
        explored += 1;
    });
    assert_eq!(explored, 1_680);
}

/// Histogram merge: threads interleaved at the granularity of
/// `record`'s four atomic sub-operations (bucket, count, sum, max).
/// Every schedule must match the serial replay of the *real*
/// `mhg_obs::Histogram`. Two shapes: three threads of one record each
/// (34 650 schedules) and two threads of two + one records (495),
/// covering bucket collisions, bucket boundaries (7 vs 8) and `u64::MAX`
/// (wrapping sum, max saturation).
#[test]
fn histogram_record_subops_are_schedule_invariant() {
    let shapes: [Vec<Vec<u64>>; 2] = [
        vec![vec![7], vec![8], vec![u64::MAX]],
        vec![vec![0, 7], vec![1_000]],
    ];
    let expected_counts = [34_650u64, 495];

    for (per_thread, want) in shapes.iter().zip(expected_counts) {
        let reference = serial_snapshot(per_thread);
        let steps: Vec<_> = per_thread.iter().map(|v| record_steps(v)).collect();
        let counts: Vec<usize> = steps.iter().map(Vec::len).collect();
        assert_eq!(num_schedules(&counts), want);

        let mut explored = 0u64;
        for_each_schedule(&counts, |schedule| {
            let mut model = HistModel::new();
            run_schedule(&mut model, &steps, schedule, |m, _t, op| m.apply(op));
            assert_eq!(
                model.snapshot(),
                reference,
                "diverged on schedule {schedule:?}"
            );
            explored += 1;
        });
        assert_eq!(explored, want);
    }
}

/// The harness must *detect* a real race: a counter whose increment is a
/// non-atomic load-then-store pair loses updates under some schedules.
#[test]
fn torn_counter_race_is_detected() {
    // Three threads, one increment each = one Load + one Store per thread.
    let steps: Vec<Vec<TornOp>> = (0..3).map(|_| vec![TornOp::Load, TornOp::Store]).collect();
    let counts = [2, 2, 2];
    assert_eq!(num_schedules(&counts), 90);

    let mut lost_updates = 0u64;
    let mut correct = 0u64;
    for_each_schedule(&counts, |schedule| {
        let mut state = TornCounter::default();
        run_schedule(&mut state, &steps, schedule, |s, t, op| s.apply(t, op));
        if state.cell == 3 {
            correct += 1;
        } else {
            assert!(state.cell < 3, "a torn counter can only lose updates");
            lost_updates += 1;
        }
    });
    // The fully serialized schedules (and only a minority overall) reach 3.
    assert!(correct >= 6, "serialized schedules must still be correct");
    assert!(
        lost_updates > 0,
        "harness failed to find the lost-update schedules of a torn counter"
    );
}

/// `num_schedules` agrees with actual enumeration on every shape the
/// suite uses, and `for_each_schedule` produces distinct schedules.
#[test]
fn schedule_enumeration_is_complete_and_distinct() {
    for counts in [vec![2, 2], vec![3, 1], vec![2, 2, 2], vec![1, 1, 1]] {
        let mut seen = std::collections::BTreeSet::new();
        for_each_schedule(&counts, |s| {
            assert!(seen.insert(s.to_vec()), "duplicate schedule {s:?}");
        });
        assert_eq!(
            seen.len() as u64,
            num_schedules(&counts),
            "shape {counts:?}"
        );
    }
}
