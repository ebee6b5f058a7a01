//! Double-buffered background batch production.
//!
//! [`run_prefetched`] runs a producer closure on a scoped worker thread, one
//! buffer ahead of the consumer: while the consumer processes buffer `e`,
//! the worker generates buffer `e + 1`. The hand-off channel is a rendezvous
//! (`sync_channel(0)`), so the worker can never run further ahead than one
//! buffer — exactly double buffering, with bounded memory.
//!
//! Determinism is the producer's responsibility: `produce(i)` must be a pure
//! function of `i` (e.g. by seeding an RNG from the buffer index, as
//! `mhg-train` does), so the buffer stream is identical to calling
//! `produce(0..n)` inline on the consumer thread.
//!
//! A panicking producer is *contained*: the unwind is caught on the worker,
//! converted into [`SampleError::WorkerPanicked`] and delivered in-band to
//! the consumer, which can fall back to producing the remaining buffers
//! inline — never a hung rendezvous or a process abort. The worker is also
//! a fault-injection site ([`mhg_faults::FaultSite::SamplerPanic`]) so the
//! containment path stays exercised.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;

use crate::errors::SampleError;

/// Runs `consume` on the current thread while a scoped worker thread runs
/// `produce(0), produce(1), …, produce(count - 1)` one buffer ahead.
///
/// `consume` receives a puller that yields the produced buffers in order
/// and returns `None` after all `count` buffers were delivered. A buffer of
/// `Err(SampleError::WorkerPanicked)` means the producer panicked; the
/// worker has exited and no further buffers will arrive — the consumer
/// decides how to recover. The consumer may also stop pulling early (early
/// stopping): remaining buffers are abandoned and the worker exits after at
/// most one more in-flight `produce` call.
///
/// Returns `consume`'s result once the worker has shut down.
pub fn run_prefetched<B, P, C, R>(count: usize, produce: &P, consume: C) -> R
where
    B: Send,
    P: Fn(usize) -> B + Sync,
    C: FnOnce(&mut dyn FnMut() -> Option<Result<B, SampleError>>) -> R,
{
    #[expect(clippy::disallowed_methods, reason = "the one producer thread")]
    thread::scope(|scope| {
        let (tx, rx) = mpsc::sync_channel::<Result<B, SampleError>>(0);
        scope.spawn(move || {
            for idx in 0..count {
                let buffer = catch_unwind(AssertUnwindSafe(|| {
                    mhg_faults::panic_if_scheduled(mhg_faults::FaultSite::SamplerPanic);
                    produce(idx)
                }));
                match buffer {
                    Ok(b) => {
                        // A failed send means the consumer hung up: stop.
                        if tx.send(Ok(b)).is_err() {
                            break;
                        }
                    }
                    Err(payload) => {
                        // Deliver the panic as a recoverable error, then
                        // exit — the producer's state is gone.
                        let _ = tx.send(Err(classify_panic(payload.as_ref())));
                        break;
                    }
                }
            }
        });
        let mut puller = move || rx.recv().ok();
        let result = consume(&mut puller);
        // Drop the receiver before the scope joins the worker, so a worker
        // blocked in `send` fails out instead of deadlocking the join.
        drop(puller);
        result
    })
}

/// Classifies a caught producer panic: a sharded-store failure (a
/// [`mhg_graph::StoreFailure`] payload) becomes [`SampleError::Storage`] —
/// the store's quarantine makes it deterministic, so an inline replay would
/// fail identically — while anything else stays a generic
/// [`SampleError::WorkerPanicked`] that the pipeline retries inline.
pub fn classify_panic(payload: &(dyn std::any::Any + Send)) -> SampleError {
    match payload.downcast_ref::<mhg_graph::StoreFailure>() {
        Some(failure) => SampleError::Storage(failure.to_string()),
        None => SampleError::WorkerPanicked(panic_message(payload)),
    }
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_all_buffers_in_order() {
        let produce = |i: usize| i * i;
        let collected = run_prefetched(5, &produce, |next| {
            let mut got = Vec::new();
            while let Some(v) = next() {
                got.push(v.expect("no panic expected"));
            }
            got
        });
        assert_eq!(collected, vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn zero_buffers_is_immediately_exhausted() {
        let produce = |i: usize| i;
        let pulled = run_prefetched(0, &produce, |next| next());
        assert!(pulled.is_none());
    }

    #[test]
    fn early_stop_does_not_deadlock() {
        let produce = |i: usize| vec![i; 3];
        // Pull only 2 of 100 buffers, then hang up.
        let got = run_prefetched(100, &produce, |next| {
            let a = next().expect("first buffer").expect("ok");
            let b = next().expect("second buffer").expect("ok");
            (a, b)
        });
        assert_eq!(got, (vec![0; 3], vec![1; 3]));
    }

    #[test]
    fn borrows_consumer_state_across_threads() {
        let base = [10usize, 20, 30];
        let produce = |i: usize| base[i] + 1;
        let sum = run_prefetched(3, &produce, |next| {
            let mut s = 0usize;
            while let Some(v) = next() {
                s += v.expect("ok");
            }
            s
        });
        assert_eq!(sum, 63);
    }

    fn quarantined(relation: u16, shard: u32) -> mhg_graph::StoreFailure {
        mhg_graph::StoreFailure {
            relation,
            shard,
            error: mhg_graph::ShardError::Quarantined { relation, shard },
        }
    }

    #[test]
    fn storage_panics_classify_as_storage_errors() {
        let failure = quarantined(0, 1);
        let msg = failure.to_string();
        match classify_panic(&failure as &(dyn std::any::Any + Send)) {
            SampleError::Storage(m) => assert_eq!(m, msg),
            other => panic!("expected Storage, got {other:?}"),
        }
        // A string that merely looks like a store failure is not one.
        match classify_panic(&msg.clone() as &(dyn std::any::Any + Send)) {
            SampleError::WorkerPanicked(m) => assert_eq!(m, msg),
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        match classify_panic(&"index out of bounds" as &(dyn std::any::Any + Send)) {
            SampleError::WorkerPanicked(m) => assert_eq!(m, "index out of bounds"),
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn storage_panic_on_the_worker_is_delivered_typed() {
        let produce = |i: usize| {
            if i == 1 {
                std::panic::panic_any(quarantined(0, 0));
            }
            i
        };
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let got = run_prefetched(3, &produce, |next| {
            let mut last = None;
            while let Some(r) = next() {
                match r {
                    Ok(_) => {}
                    Err(e) => {
                        last = Some(e);
                        break;
                    }
                }
            }
            last
        });
        std::panic::set_hook(prev_hook);
        match got {
            Some(SampleError::Storage(m)) => assert!(m.contains("quarantined")),
            other => panic!("expected Storage, got {other:?}"),
        }
    }

    #[test]
    fn producer_panic_surfaces_as_recoverable_error() {
        let produce = |i: usize| {
            if i == 2 {
                panic!("boom at {i}");
            }
            i
        };
        // Suppress the default panic-hook backtrace noise for this test.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let got = run_prefetched(5, &produce, |next| {
            let mut ok = Vec::new();
            let mut err = None;
            while let Some(r) = next() {
                match r {
                    Ok(v) => ok.push(v),
                    Err(e) => {
                        err = Some(e);
                        break;
                    }
                }
            }
            (ok, err)
        });
        std::panic::set_hook(prev_hook);
        assert_eq!(got.0, vec![0, 1], "buffers before the panic still arrive");
        match got.1 {
            Some(SampleError::WorkerPanicked(msg)) => assert!(msg.contains("boom at 2")),
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn after_panic_the_stream_ends_without_hanging() {
        let produce = |i: usize| {
            if i == 0 {
                panic!("immediate");
            }
            i
        };
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let events = run_prefetched(3, &produce, |next| {
            let mut events = Vec::new();
            while let Some(r) = next() {
                events.push(r.is_ok());
            }
            events
        });
        std::panic::set_hook(prev_hook);
        assert_eq!(events, vec![false], "one error, then clean exhaustion");
    }
}
