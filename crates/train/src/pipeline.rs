//! The epoch control flow: Sampler → Batcher → Step → Validator/EarlyStop,
//! plus crash-safe checkpointing and deterministic fault recovery.

use std::path::PathBuf;

use mhg_ckpt::{Checkpointer, CkptError, FrameError, StateDict};
use mhg_faults::FaultSite;
use mhg_obs::{EventValue, Obs};
use mhg_sampling::{run_prefetched, SampleError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::TrainError;
use crate::report::{EarlyStopper, RecoveryCounters, StopDecision, TrainReport};

/// Loop-level options shared by every model.
#[derive(Clone, Debug)]
pub struct TrainOptions {
    /// Maximum epochs.
    pub epochs: usize,
    /// Early-stopping patience (epochs without validation improvement).
    pub patience: usize,
    /// Run the sampling recipe on a background worker thread, double-
    /// buffered against the step stage. Bit-identical to inline sampling.
    pub background: bool,
    /// Worker threads for the `mhg-par` kernel pool and sharded walk
    /// generation during this run; `0` inherits the process-wide setting
    /// (`MHG_THREADS` env, else available parallelism). Bit-identical for
    /// any value by the pool's determinism contract.
    pub threads: usize,
    /// Snapshot the full pipeline state every this many completed epochs
    /// (`0` = no per-epoch cadence; a final checkpoint is still written
    /// when `checkpoint_dir` is set). The cadence also refreshes the
    /// in-memory rollback anchor used for divergence recovery, so it is
    /// meaningful even without a checkpoint directory.
    pub checkpoint_every: usize,
    /// Directory for on-disk checkpoints (atomic, checksummed `.mhgc`
    /// files via `mhg-ckpt`). `None` disables persistence entirely.
    pub checkpoint_dir: Option<PathBuf>,
    /// Restore from the latest checkpoint in `checkpoint_dir` before
    /// training, if one exists. The restored state is authoritative: the
    /// continuation is bit-identical to an uninterrupted run regardless of
    /// how the resuming process seeded its RNG or re-initialized the model.
    pub resume: bool,
    /// Observability handle: the loop times its sample/compute/eval/ckpt
    /// stages through its clock and records per-epoch metrics and recovery
    /// events into its registry. [`mhg_obs::Obs::disabled`] keeps timing
    /// functional with zero recording.
    pub obs: Obs,
}

/// Loss contribution of one minibatch step.
///
/// `denom` is whatever the model normalises its epoch loss by: the item
/// count for per-pair update models (SGNS), `1` for tape models whose loss
/// op already returns a batch mean.
#[derive(Clone, Copy, Debug)]
pub struct BatchLoss {
    /// Summed loss over the batch (in the model's own normalisation).
    pub loss_sum: f64,
    /// Number of units `loss_sum` accumulates over.
    pub denom: usize,
}

/// What a model's validation pass produces and the loop keeps as the best
/// snapshot: the scoring tables the fitted model answers queries from.
///
/// The loop writes the best artefact into every snapshot it takes — the
/// on-disk checkpoint and the in-memory rollback anchor — through this
/// trait, under the artefact's own fixed keys (conventionally `model/…`).
pub trait Artefact: Sized {
    /// Serialises `best` into `dict`. `None` — no validation pass committed
    /// yet — has an encoding of its own.
    fn export_state(best: Option<&Self>, dict: &mut StateDict);

    /// Restores what [`Artefact::export_state`] wrote.
    fn import_state(dict: &StateDict) -> Result<Option<Self>, CkptError>;
}

/// The per-model half of the pipeline: one optimizer step per minibatch,
/// plus the validation pass the Validator stage drives.
///
/// Contract: [`TrainStep::eval`] scores the *current* parameters on the
/// validation set and returns the metric (ROC-AUC) with the artefact those
/// parameters produce. The pipeline keeps the artefact of the best
/// validation pass (the first pass always counts as best) and returns it
/// from [`train`]; a step holds no snapshot of its own.
///
/// [`TrainStep::export_state`] / [`TrainStep::import_state`] serialise
/// everything the step owns that training mutates — parameters and
/// optimizer moments — under the model's own key prefix (conventionally
/// `model/…`). Restoring an export and continuing must be bit-identical to
/// never having stopped; this is what checkpoint/resume and divergence
/// rollback are built on.
pub trait TrainStep {
    /// One epoch's minibatch unit, produced by the sampling recipe.
    /// `Send` so batches can cross from the prefetch worker thread.
    type Batch: Send;

    /// The best-snapshot artefact [`TrainStep::eval`] produces.
    type Artefact: Artefact;

    /// Performs one forward/backward/optimizer step on `batch`.
    fn step(&mut self, batch: Self::Batch, rng: &mut StdRng) -> BatchLoss;

    /// Evaluates the current parameters on the validation set; returns the
    /// validation metric (ROC-AUC) and the artefact it was measured on.
    fn eval(&mut self, rng: &mut StdRng) -> (f64, Self::Artefact);

    /// Serialises all training-mutable step state into `dict`.
    fn export_state(&self, dict: &mut StateDict);

    /// Restores state exported by [`TrainStep::export_state`].
    fn import_state(&mut self, dict: &StateDict) -> Result<(), CkptError>;
}

/// Derives the sampler seed for `epoch` from `base` (splitmix64 finalizer).
///
/// Sampling RNG streams are a pure function of `(base, epoch)` — never of
/// training progress — which is what lets the background worker run one
/// epoch ahead of the step stage without changing any result, and what
/// makes every recovery path below replayable: re-sampling an epoch after
/// a rollback or a sampler fallback reproduces its batches exactly.
pub fn epoch_seed(base: u64, epoch: u64) -> u64 {
    // Same mixer as the per-shard walk seeds; see mhg_sampling::derive_seed.
    mhg_sampling::derive_seed(base, epoch)
}

/// Rollback budget for non-finite epoch losses. Injected faults are
/// occurrence-consumed, so one rollback per injection suffices; a *real*
/// divergence replays identically every attempt and exhausts this budget
/// into [`TrainError::Diverged`].
const MAX_NAN_ROLLBACKS: usize = 4;

/// Checkpoint format version for the loop-level snapshot keys.
const SNAPSHOT_FORMAT: u64 = 1;

/// Everything the epoch loop itself owns; model state lives in the step.
struct LoopState<A> {
    /// Base seed all per-epoch sampler seeds derive from.
    base: u64,
    /// Next epoch to run (== completed epoch count).
    epoch: usize,
    report: TrainReport,
    stopper: EarlyStopper,
    /// Early stopping fired; persisted so a resumed run does not continue.
    stopped: bool,
    /// The artefact of the best validation pass so far.
    best: Option<A>,
}

/// Captures the complete pipeline state (loop + RNG + model + `best`)
/// after a completed epoch boundary.
fn snapshot<T: TrainStep>(
    st: &LoopState<T::Artefact>,
    best: Option<&T::Artefact>,
    rng: &StdRng,
    step: &T,
) -> StateDict {
    let mut dict = StateDict::new();
    dict.put_u64("loop/format", SNAPSHOT_FORMAT);
    dict.put_u64("loop/base", st.base);
    dict.put_u64("loop/epoch", st.epoch as u64);
    dict.put_u64("loop/stopped", u64::from(st.stopped));
    dict.put_u64s("loop/rng", rng.to_state().to_vec());
    st.stopper.export_state("loop/stopper", &mut dict);
    dict.put_u64("loop/report/epochs_run", st.report.epochs_run as u64);
    dict.put_u64(
        "loop/report/final_loss",
        u64::from(st.report.final_loss.to_bits()),
    );
    // Wall-clock totals are persisted for report fidelity but are the one
    // part of a resumed report outside the bit-identity contract.
    dict.put_f64("loop/report/sample_ms", st.report.timing.sample_ms);
    dict.put_f64("loop/report/compute_ms", st.report.timing.compute_ms);
    dict.put_f64("loop/report/eval_ms", st.report.timing.eval_ms);
    step.export_state(&mut dict);
    T::Artefact::export_state(best, &mut dict);
    dict
}

/// Restores a [`snapshot`]; the restored state is authoritative over
/// whatever the caller had (base seed, RNG stream, model parameters).
fn restore<T: TrainStep>(
    st: &mut LoopState<T::Artefact>,
    rng: &mut StdRng,
    step: &mut T,
    dict: &StateDict,
) -> Result<(), CkptError> {
    let format = dict.u64("loop/format")?;
    if format != SNAPSHOT_FORMAT {
        // A format past `u16` saturates rather than wrapping onto a
        // supported version number.
        return Err(CkptError::Frame(FrameError::UnsupportedVersion(
            u16::try_from(format).unwrap_or(u16::MAX),
        )));
    }
    let rng_state = dict.u64s("loop/rng")?;
    if rng_state.len() != 4 {
        return Err(CkptError::ShapeMismatch(format!(
            "loop/rng has {} words, expected 4",
            rng_state.len()
        )));
    }
    st.base = dict.u64("loop/base")?;
    st.epoch = dict.u64("loop/epoch")? as usize;
    st.stopped = dict.u64("loop/stopped")? != 0;
    *rng = StdRng::from_state([rng_state[0], rng_state[1], rng_state[2], rng_state[3]]);
    st.stopper = EarlyStopper::import_state("loop/stopper", dict)?;
    st.report.epochs_run = dict.u64("loop/report/epochs_run")? as usize;
    st.report.final_loss = f32::from_bits(dict.u64("loop/report/final_loss")? as u32);
    st.report.timing.sample_ms = dict.f64("loop/report/sample_ms")?;
    st.report.timing.compute_ms = dict.f64("loop/report/compute_ms")?;
    st.report.timing.eval_ms = dict.f64("loop/report/eval_ms")?;
    step.import_state(dict)?;
    st.best = T::Artefact::import_state(dict)?;
    Ok(())
}

/// How one contiguous stretch of epochs ended.
enum SpanExit {
    /// Epoch budget exhausted or early stopping fired.
    Finished,
    /// The sampling stage failed (worker panic or recipe error).
    SamplerFailed(SampleError),
    /// A non-finite epoch loss was detected before committing the epoch.
    Diverged,
}

/// Outcome of stepping + validating one epoch's batches.
enum EpochOutcome {
    Committed,
    Stopped,
    Diverged,
}

/// Runs the full training loop: samples each epoch with `sample` (inline or
/// double-buffered on a background thread per `opts.background`), steps
/// `step` over the produced batches, validates, early-stops, checkpoints at
/// the configured cadence, and returns a uniformly initialized and
/// finalized [`TrainReport`] with the artefact of the best validation pass.
///
/// `sample(epoch, rng)` receives an RNG seeded by [`epoch_seed`] from a
/// base drawn once from `rng`; `step` hooks receive `rng` itself. The two
/// streams are independent, so background and inline sampling produce
/// byte-identical models.
///
/// # Crash safety and recovery
///
/// With `checkpoint_dir` set, the loop persists atomic checksummed
/// snapshots; `resume: true` restores the latest one, and
/// `train(k)` → crash → `train(n)` with resume is bit-identical to a
/// single `train(n)`. Independently of persistence, the loop survives a
/// panicking background sampler (inline fallback over the same epochs), a
/// non-finite epoch loss (rollback to the last good state, bounded by a
/// deterministic retry budget), and transient checkpoint-write IO errors
/// (bounded retry inside `mhg-ckpt`) — all without changing any result.
pub fn train<S, T>(
    opts: &TrainOptions,
    sample: S,
    step: &mut T,
    rng: &mut StdRng,
) -> Result<(TrainReport, T::Artefact), TrainError>
where
    T: TrainStep,
    S: Fn(usize, &mut StdRng) -> Result<Vec<T::Batch>, SampleError> + Sync,
{
    // Size the kernel/walk worker pool for the whole run (0 = inherit).
    let _pool = mhg_par::scoped_threads(opts.threads);
    let mut st = LoopState {
        base: rng.gen(),
        epoch: 0,
        report: TrainReport::default(),
        stopper: EarlyStopper::new(opts.patience),
        stopped: false,
        best: None,
    };
    let mut recovery = RecoveryCounters::default();

    let ckpt = match &opts.checkpoint_dir {
        Some(dir) => Some(Checkpointer::create(dir)?),
        None => None,
    };
    if opts.resume {
        if let Some(c) = &ckpt {
            if let Some((epoch, dict)) = c.load_latest()? {
                restore(&mut st, rng, step, &dict).map_err(TrainError::Checkpoint)?;
                recovery.resumed_from = Some(epoch);
                opts.obs
                    .event("resumed", &[("epoch", EventValue::U64(epoch as u64))]);
                opts.obs.note(&format!(
                    "[mhg-train] resumed from checkpoint at epoch {epoch}"
                ));
            }
        }
    }

    // In-memory rollback anchor for divergence recovery; refreshed at the
    // checkpoint cadence so it works with or without a checkpoint dir.
    let mut last_good = snapshot(&st, st.best.as_ref(), rng, step);
    let mut last_saved: Option<usize> = None;
    let mut background = opts.background;

    while !st.stopped && st.epoch < opts.epochs {
        let exit = run_span(
            opts,
            &sample,
            step,
            rng,
            &mut st,
            background,
            ckpt.as_ref(),
            &mut last_good,
            &mut last_saved,
        )?;
        match exit {
            SpanExit::Finished => break,
            SpanExit::SamplerFailed(e) => {
                if let SampleError::Storage(detail) = e {
                    // A dead (quarantined) shard fails identically on every
                    // replay — falling back to inline sampling would only
                    // re-read the same quarantined shard. Surface it typed.
                    opts.obs.event(
                        "storage_exhausted",
                        &[
                            ("epoch", EventValue::U64(st.epoch as u64)),
                            ("error", EventValue::Str(detail.clone())),
                        ],
                    );
                    opts.obs.note(&format!(
                        "[mhg-train] graph storage exhausted self-healing at epoch {}: {detail}",
                        st.epoch
                    ));
                    return Err(TrainError::StorageExhausted {
                        epoch: st.epoch,
                        detail,
                    });
                }
                if background {
                    opts.obs.event(
                        "sampler_fallback",
                        &[
                            ("epoch", EventValue::U64(st.epoch as u64)),
                            ("error", EventValue::Str(e.to_string())),
                        ],
                    );
                    opts.obs.note(&format!(
                        "[mhg-train] background sampler failed at epoch {}: {e}; \
                         falling back to inline sampling",
                        st.epoch
                    ));
                    recovery.sampler_fallbacks += 1;
                    background = false;
                } else {
                    return Err(TrainError::Sample(e));
                }
            }
            SpanExit::Diverged => {
                recovery.nan_rollbacks += 1;
                if recovery.nan_rollbacks > MAX_NAN_ROLLBACKS {
                    return Err(TrainError::Diverged {
                        epoch: st.epoch,
                        rollbacks: recovery.nan_rollbacks - 1,
                    });
                }
                opts.obs.event(
                    "nan_rollback",
                    &[("epoch", EventValue::U64(st.epoch as u64))],
                );
                opts.obs.note(&format!(
                    "[mhg-train] non-finite epoch loss at epoch {}; \
                     rolling back to last good state",
                    st.epoch
                ));
                restore(&mut st, rng, step, &last_good).map_err(TrainError::Checkpoint)?;
            }
        }
    }

    let best = match st.best.take() {
        Some(best) => best,
        None => {
            // 0-epoch runs (and runs whose every validation AUC was NaN):
            // still produce the final artefact and a real validation score
            // from the current parameters, so every report is finalized the
            // same way. (Otherwise the first eval improves on −∞ and is
            // kept.)
            let span = opts.obs.span("train/eval");
            let (auc, artefact) = step.eval(rng);
            st.report.timing.eval_ms += span.stop_ms();
            st.stopper.update(auc);
            artefact
        }
    };
    st.report.best_val_auc = st.stopper.best();
    if let Some(c) = &ckpt {
        // Final checkpoint so a finished run resumes as a no-op; skipped if
        // the cadence already saved this exact boundary (the cadence
        // snapshot runs after the stopped flag is set, so it never misses
        // an early stop).
        if last_saved != Some(st.epoch) {
            let snap = snapshot(&st, Some(&best), rng, step);
            let span = opts.obs.span("train/ckpt");
            c.save(st.epoch, &snap)?;
            span.stop_ms();
            opts.obs
                .event("checkpoint", &[("epoch", EventValue::U64(st.epoch as u64))]);
        }
    }
    st.report.recovery = recovery;
    opts.obs.event(
        "train_end",
        &[
            ("epochs_run", EventValue::U64(st.report.epochs_run as u64)),
            (
                "final_loss",
                EventValue::F64(f64::from(st.report.final_loss)),
            ),
            ("best_val_auc", EventValue::F64(st.report.best_val_auc)),
            (
                "sampler_fallbacks",
                EventValue::U64(st.report.recovery.sampler_fallbacks as u64),
            ),
            (
                "nan_rollbacks",
                EventValue::U64(st.report.recovery.nan_rollbacks as u64),
            ),
        ],
    );
    Ok((st.report, best))
}

/// Runs epochs from `st.epoch` until the budget, early stopping, or a
/// recoverable fault ends the span. Sampling runs on a background worker
/// when `background` holds, inline otherwise — bit-identical either way.
#[allow(clippy::too_many_arguments)]
fn run_span<S, T>(
    opts: &TrainOptions,
    sample: &S,
    step: &mut T,
    rng: &mut StdRng,
    st: &mut LoopState<T::Artefact>,
    background: bool,
    ckpt: Option<&Checkpointer>,
    last_good: &mut StateDict,
    last_saved: &mut Option<usize>,
) -> Result<SpanExit, TrainError>
where
    T: TrainStep,
    S: Fn(usize, &mut StdRng) -> Result<Vec<T::Batch>, SampleError> + Sync,
{
    let start = st.epoch;
    let budget = opts.epochs - start;
    let base = st.base;

    // Sampling stage: timed where it runs (worker thread or inline). The
    // duration is measured with raw clock readings, not a span, so the
    // `train/sample` histogram entry is recorded by the consuming epoch —
    // a prefetched-but-never-consumed buffer leaves no metric behind.
    let obs = opts.obs.clone();
    let produce = move |offset: usize| -> Result<(Vec<T::Batch>, u64), SampleError> {
        let epoch = start + offset;
        let t0 = obs.now_ns();
        let mut sample_rng = StdRng::seed_from_u64(epoch_seed(base, epoch as u64));
        let batches = sample(epoch, &mut sample_rng)?;
        Ok((batches, obs.now_ns().saturating_sub(t0)))
    };

    if background && budget > 0 {
        run_prefetched(budget, &produce, |next| {
            pump(
                opts,
                step,
                rng,
                st,
                ckpt,
                last_good,
                last_saved,
                &mut || next().map(|r| r.and_then(|b| b)),
            )
        })
    } else {
        let mut offset = 0usize;
        pump(
            opts,
            step,
            rng,
            st,
            ckpt,
            last_good,
            last_saved,
            &mut || {
                if offset >= budget {
                    return None;
                }
                // A sharded-store failure escapes the infallible GraphStore
                // API as a panic; contain it here exactly like the prefetch
                // worker does, so the inline path also surfaces a typed
                // `SampleError::Storage` instead of aborting the process.
                // Any other panic is a real bug and keeps unwinding.
                let buffer = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    produce(offset)
                })) {
                    Ok(b) => b,
                    Err(payload) => match mhg_sampling::classify_panic(payload.as_ref()) {
                        e @ SampleError::Storage(_) => Err(e),
                        _ => std::panic::resume_unwind(payload),
                    },
                };
                offset += 1;
                Some(buffer)
            },
        )
    }
}

/// One sampled buffer: the epoch's batches plus the sample-stage duration
/// in nanoseconds (measured on whichever thread ran the recipe).
type SampledBuffer<B> = Result<(Vec<B>, u64), SampleError>;

/// The span body shared between the inline and background paths: `next`
/// yields `(batches, sample_ms)` buffers (or a sampling error) until the
/// span ends.
#[allow(clippy::too_many_arguments)]
fn pump<T: TrainStep>(
    opts: &TrainOptions,
    step: &mut T,
    rng: &mut StdRng,
    st: &mut LoopState<T::Artefact>,
    ckpt: Option<&Checkpointer>,
    last_good: &mut StateDict,
    last_saved: &mut Option<usize>,
    next: &mut dyn FnMut() -> Option<SampledBuffer<T::Batch>>,
) -> Result<SpanExit, TrainError> {
    while let Some(buffer) = next() {
        let (batches, sample_ns) = match buffer {
            Ok(b) => b,
            Err(e) => return Ok(SpanExit::SamplerFailed(e)),
        };
        let outcome = drive_epoch(&opts.obs, step, rng, st, batches, sample_ns);
        match outcome {
            EpochOutcome::Diverged => return Ok(SpanExit::Diverged),
            EpochOutcome::Committed | EpochOutcome::Stopped => {
                let completed = st.epoch;
                if opts.checkpoint_every > 0 && completed.is_multiple_of(opts.checkpoint_every) {
                    let snap = snapshot(st, st.best.as_ref(), rng, step);
                    if let Some(c) = ckpt {
                        let span = opts.obs.span("train/ckpt");
                        c.save(completed, &snap)?;
                        span.stop_ms();
                        opts.obs.event(
                            "checkpoint",
                            &[("epoch", EventValue::U64(completed as u64))],
                        );
                        *last_saved = Some(completed);
                    }
                    *last_good = snap;
                }
                if matches!(outcome, EpochOutcome::Stopped) {
                    return Ok(SpanExit::Finished);
                }
            }
        }
    }
    Ok(SpanExit::Finished)
}

/// Steps one epoch's batches, validates, and commits the epoch (keeping the
/// validation artefact if it is the best so far) — unless the epoch loss
/// comes out non-finite, in which case nothing is committed and the caller
/// rolls back.
///
/// All per-epoch timing flows through `obs` spans (satellite of the
/// `TimingBreakdown` contract): the histogram record and the
/// `report.timing` accumulation come from the same clock reading.
fn drive_epoch<T: TrainStep>(
    obs: &Obs,
    step: &mut T,
    rng: &mut StdRng,
    st: &mut LoopState<T::Artefact>,
    batches: Vec<T::Batch>,
    sample_ns: u64,
) -> EpochOutcome {
    obs.record_duration_ns("train/sample", sample_ns);
    let sample_ms = sample_ns as f64 / 1e6;
    st.report.timing.sample_ms += sample_ms;

    let batch_count = batches.len();
    let compute = obs.span("train/compute");
    let mut loss_sum = 0.0f64;
    let mut denom = 0usize;
    for batch in batches {
        let batch_span = obs.span("train/step");
        let loss = step.step(batch, rng);
        batch_span.stop_ms();
        loss_sum += loss.loss_sum;
        denom += loss.denom;
    }
    let compute_ms = compute.stop_ms();
    st.report.timing.compute_ms += compute_ms;

    let mut epoch_loss = (loss_sum / denom.max(1) as f64) as f32;
    if mhg_faults::should_inject(FaultSite::NanLoss) {
        epoch_loss = f32::NAN;
    }
    if !epoch_loss.is_finite() {
        return EpochOutcome::Diverged;
    }
    st.report.epochs_run += 1;
    st.report.final_loss = epoch_loss;
    st.epoch += 1;

    let eval_span = obs.span("train/eval");
    let (auc, artefact) = step.eval(rng);
    let eval_ms = eval_span.stop_ms();
    st.report.timing.eval_ms += eval_ms;

    obs.counter_add("train/epochs", 1);
    obs.counter_add("train/batches", batch_count as u64);
    obs.counter_add("train/examples", denom as u64);
    let examples_per_sec = if compute_ms > 0.0 {
        denom as f64 * 1e3 / compute_ms
    } else {
        0.0
    };
    obs.event(
        "epoch",
        &[
            ("epoch", EventValue::U64((st.epoch - 1) as u64)),
            ("loss", EventValue::F64(f64::from(epoch_loss))),
            ("batches", EventValue::U64(batch_count as u64)),
            ("examples", EventValue::U64(denom as u64)),
            ("sample_ms", EventValue::F64(sample_ms)),
            ("compute_ms", EventValue::F64(compute_ms)),
            ("eval_ms", EventValue::F64(eval_ms)),
            ("examples_per_sec", EventValue::F64(examples_per_sec)),
            ("val_auc", EventValue::F64(auc)),
        ],
    );
    match st.stopper.update(auc) {
        StopDecision::Improved => {
            st.best = Some(artefact);
            EpochOutcome::Committed
        }
        StopDecision::Continue => EpochOutcome::Committed,
        StopDecision::Stop => {
            st.stopped = true;
            EpochOutcome::Stopped
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// Fault plans are process-global; tests that install one (or rely on
    /// none being installed) serialize on this guard.
    fn faults_guard() -> MutexGuard<'static, ()> {
        static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
        GUARD
            .get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    fn fresh_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("mhg_train_pipeline").join(name);
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// Toy step: the "model" is a counter; validation improves for the
    /// first `peak` epochs then plateaus, triggering early stopping.
    #[derive(Debug)]
    struct CountingStep {
        steps: usize,
        evals: usize,
        peak: usize,
        trace: Vec<u64>,
        /// When set, every epoch loss comes out NaN (real divergence).
        diverge: bool,
        /// When set, every validation AUC comes out NaN.
        nan_auc: bool,
    }

    impl CountingStep {
        fn new(peak: usize) -> Self {
            Self {
                steps: 0,
                evals: 0,
                peak,
                trace: Vec::new(),
                diverge: false,
                nan_auc: false,
            }
        }
    }

    /// The toy artefact: the 1-based index of the eval that produced it.
    #[derive(Debug, PartialEq)]
    struct EvalIndex(u64);

    impl Artefact for EvalIndex {
        fn export_state(best: Option<&Self>, dict: &mut StateDict) {
            dict.put_u64("model/best", best.map_or(0, |b| b.0));
        }

        fn import_state(dict: &StateDict) -> Result<Option<Self>, CkptError> {
            let index = dict.u64("model/best")?;
            Ok((index != 0).then_some(Self(index)))
        }
    }

    impl TrainStep for CountingStep {
        type Batch = Vec<u64>;
        type Artefact = EvalIndex;

        fn step(&mut self, batch: Vec<u64>, _rng: &mut StdRng) -> BatchLoss {
            self.steps += 1;
            self.trace.extend(batch.iter().copied());
            BatchLoss {
                loss_sum: if self.diverge {
                    f64::NAN
                } else {
                    batch.len() as f64
                },
                denom: batch.len(),
            }
        }

        fn eval(&mut self, _rng: &mut StdRng) -> (f64, EvalIndex) {
            self.evals += 1;
            let auc = if self.nan_auc {
                f64::NAN
            } else {
                self.evals.min(self.peak) as f64
            };
            (auc, EvalIndex(self.evals as u64))
        }

        fn export_state(&self, dict: &mut StateDict) {
            dict.put_u64("model/steps", self.steps as u64);
            dict.put_u64("model/evals", self.evals as u64);
            dict.put_u64s("model/trace", self.trace.clone());
        }

        fn import_state(&mut self, dict: &StateDict) -> Result<(), CkptError> {
            self.steps = dict.u64("model/steps")? as usize;
            self.evals = dict.u64("model/evals")? as usize;
            self.trace = dict.u64s("model/trace")?.to_vec();
            Ok(())
        }
    }

    fn recipe(epoch: usize, rng: &mut StdRng) -> Result<Vec<Vec<u64>>, SampleError> {
        // Two batches per epoch whose content depends on the epoch RNG.
        Ok(vec![
            vec![epoch as u64, rng.gen()],
            vec![rng.gen(), rng.gen(), rng.gen()],
        ])
    }

    fn opts(background: bool, epochs: usize) -> TrainOptions {
        TrainOptions {
            epochs,
            patience: 2,
            background,
            threads: 0,
            checkpoint_every: 0,
            checkpoint_dir: None,
            resume: false,
            obs: Obs::disabled(),
        }
    }

    type Run = (TrainReport, CountingStep, EvalIndex);

    fn run(background: bool, epochs: usize, peak: usize) -> Run {
        run_with(&opts(background, epochs), peak, 7).expect("clean run must succeed")
    }

    fn run_with(o: &TrainOptions, peak: usize, seed: u64) -> Result<Run, TrainError> {
        let mut step = CountingStep::new(peak);
        let mut rng = StdRng::seed_from_u64(seed);
        let (report, best) = train(o, recipe, &mut step, &mut rng)?;
        Ok((report, step, best))
    }

    #[test]
    fn background_matches_inline_exactly() {
        let _g = faults_guard();
        mhg_faults::clear();
        let (r_in, s_in, best_in) = run(false, 6, 10);
        let (r_bg, s_bg, best_bg) = run(true, 6, 10);
        assert_eq!(s_in.trace, s_bg.trace, "batch streams must be identical");
        assert_eq!(best_in, best_bg);
        assert_eq!(r_in.epochs_run, r_bg.epochs_run);
        assert_eq!(r_in.final_loss, r_bg.final_loss);
        assert_eq!(r_in.best_val_auc, r_bg.best_val_auc);
    }

    #[test]
    fn early_stopping_cuts_the_run() {
        let _g = faults_guard();
        mhg_faults::clear();
        // Improves for 3 epochs, patience 2 → stops at epoch 5, keeping
        // the artefact of the third eval, not of the last.
        let (report, step, best) = run(false, 30, 3);
        assert_eq!(report.epochs_run, 5);
        assert_eq!(step.evals, 5);
        assert_eq!(best, EvalIndex(3));
        assert!((report.best_val_auc - 3.0).abs() < 1e-12);
        let (report_bg, _, _) = run(true, 30, 3);
        assert_eq!(report_bg.epochs_run, 5);
    }

    #[test]
    fn zero_epoch_run_is_finalized_uniformly() {
        let _g = faults_guard();
        mhg_faults::clear();
        for background in [false, true] {
            let (report, step, best) = run(background, 0, 10);
            assert_eq!(report.epochs_run, 0);
            assert_eq!(report.final_loss, 0.0);
            // Still evaluated once from initial parameters, and that
            // artefact is returned.
            assert_eq!(step.evals, 1);
            assert_eq!(best, EvalIndex(1));
            assert!((report.best_val_auc - 1.0).abs() < 1e-12);
        }
    }

    /// A run whose every validation AUC is NaN never improves on −∞: it
    /// early-stops, then returns the artefact of one final eval; resuming
    /// it evaluates nothing more.
    #[test]
    fn all_nan_auc_run_returns_its_final_eval() {
        let _g = faults_guard();
        mhg_faults::clear();
        let dir = fresh_dir("nan_auc");
        let mut o = opts(false, 30);
        o.checkpoint_dir = Some(dir.clone());
        let run_nan = |o: &TrainOptions| {
            let mut step = CountingStep::new(10);
            step.nan_auc = true;
            let mut rng = StdRng::seed_from_u64(7);
            let (report, best) = train(o, recipe, &mut step, &mut rng).expect("NaN AUC run");
            (report, step, best)
        };
        let (report, step, best) = run_nan(&o);
        // Patience 2: two non-improving epochs, then the final eval.
        assert_eq!(report.epochs_run, 2);
        assert_eq!(step.evals, 3);
        assert_eq!(best, EvalIndex(3));
        assert_eq!(report.best_val_auc, f64::NEG_INFINITY);
        o.resume = true;
        let (_, resumed_step, resumed_best) = run_nan(&o);
        assert_eq!(resumed_step.evals, 3, "no extra evaluation");
        assert_eq!(resumed_best, EvalIndex(3));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn epoch_seed_is_stable_and_spread() {
        assert_eq!(epoch_seed(42, 0), epoch_seed(42, 0));
        assert_ne!(epoch_seed(42, 0), epoch_seed(42, 1));
        assert_ne!(epoch_seed(42, 1), epoch_seed(43, 1));
    }

    #[test]
    fn timing_is_accumulated() {
        let _g = faults_guard();
        mhg_faults::clear();
        let (report, _, _) = run(false, 3, 10);
        // Totals are non-negative and finite; exact values are wall-clock.
        assert!(report.timing.sample_ms >= 0.0);
        assert!(report.timing.compute_ms >= 0.0);
        assert!(report.timing.eval_ms >= 0.0);
        assert!(report
            .timing
            .per_epoch(report.epochs_run)
            .sample_ms
            .is_finite());
    }

    /// The core resume contract: train(k) → new process → resume → train(n)
    /// is bit-identical to an uninterrupted train(n), even when the
    /// resuming process seeds its RNG differently.
    #[test]
    fn split_run_with_resume_matches_uninterrupted_run() {
        let _g = faults_guard();
        mhg_faults::clear();
        for background in [false, true] {
            let (full_report, full_step, full_best) = run(background, 6, 10);

            let dir = fresh_dir(if background { "split_bg" } else { "split_in" });
            let mut part1 = opts(background, 3);
            part1.checkpoint_every = 1;
            part1.checkpoint_dir = Some(dir.clone());
            run_with(&part1, 10, 7).expect("part 1 must succeed");

            // "New process": fresh step, *different* RNG seed — the restored
            // checkpoint must be authoritative over both.
            let mut part2 = opts(background, 6);
            part2.checkpoint_every = 1;
            part2.checkpoint_dir = Some(dir.clone());
            part2.resume = true;
            let (resumed_report, resumed_step, resumed_best) =
                run_with(&part2, 10, 999).expect("resumed run must succeed");

            assert_eq!(resumed_report.recovery.resumed_from, Some(3));
            assert_eq!(full_step.trace, resumed_step.trace);
            assert_eq!(full_best, resumed_best);
            assert_eq!(full_report.epochs_run, resumed_report.epochs_run);
            assert_eq!(full_report.final_loss, resumed_report.final_loss);
            assert_eq!(full_report.best_val_auc, resumed_report.best_val_auc);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// Resuming a run that already hit its epoch budget (or early-stopped)
    /// is a no-op: no extra steps, no re-evaluation, same report.
    #[test]
    fn resume_of_finished_run_is_a_noop() {
        let _g = faults_guard();
        mhg_faults::clear();
        let dir = fresh_dir("finished");
        let mut o = opts(false, 4);
        o.checkpoint_dir = Some(dir.clone());
        let (first, step1, best1) = run_with(&o, 10, 7).expect("first run");
        o.resume = true;
        let (second, step2, best2) = run_with(&o, 10, 123).expect("resume");
        assert_eq!(second.recovery.resumed_from, Some(4));
        assert_eq!(step1.steps, step2.steps, "no epochs may re-run");
        assert_eq!(step1.evals, step2.evals, "no extra evaluation");
        assert_eq!(best1, best2);
        assert_eq!(first.epochs_run, second.epochs_run);
        assert_eq!(first.best_val_auc, second.best_val_auc);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An early-stopped run persists its `stopped` flag: resuming with a
    /// *larger* epoch budget still refuses to continue past the stop.
    #[test]
    fn resume_honors_a_persisted_early_stop() {
        let _g = faults_guard();
        mhg_faults::clear();
        let dir = fresh_dir("stopped");
        let mut o = opts(false, 30);
        o.checkpoint_dir = Some(dir.clone());
        let (first, _, _) = run_with(&o, 3, 7).expect("first run");
        assert_eq!(first.epochs_run, 5, "peak 3 + patience 2");
        let mut o2 = opts(false, 100);
        o2.checkpoint_dir = Some(dir.clone());
        o2.resume = true;
        let (second, step2, best2) = run_with(&o2, 3, 7).expect("resume");
        assert_eq!(second.epochs_run, 5, "stopped flag must hold");
        assert_eq!(step2.steps, 10, "restored steps only, no new ones");
        assert_eq!(best2, EvalIndex(3), "the best eval, not the last");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An injected NaN loss rolls back to the last good state and replays
    /// deterministically: the final trace and report match a clean run.
    #[test]
    fn injected_nan_loss_rolls_back_and_replays_bit_identically() {
        let _g = faults_guard();
        let (clean_report, clean_step, clean_best) = {
            mhg_faults::clear();
            run(false, 5, 10)
        };
        let plan = mhg_faults::FaultPlan::new().inject(FaultSite::NanLoss, 3);
        mhg_faults::install(plan);
        let mut o = opts(false, 5);
        o.checkpoint_every = 1; // refresh the rollback anchor every epoch
        let (faulted_report, faulted_step, faulted_best) =
            run_with(&o, 10, 7).expect("must recover");
        mhg_faults::clear();
        assert_eq!(faulted_report.recovery.nan_rollbacks, 1);
        assert_eq!(clean_step.trace, faulted_step.trace);
        assert_eq!(clean_best, faulted_best);
        assert_eq!(clean_report.epochs_run, faulted_report.epochs_run);
        assert_eq!(clean_report.final_loss, faulted_report.final_loss);
        assert_eq!(clean_report.best_val_auc, faulted_report.best_val_auc);
    }

    /// Rollback works even with no cadence: the anchor is the run start.
    #[test]
    fn nan_rollback_to_run_start_still_recovers() {
        let _g = faults_guard();
        let (clean_report, clean_step, clean_best) = {
            mhg_faults::clear();
            run(false, 4, 10)
        };
        let plan = mhg_faults::FaultPlan::new().inject(FaultSite::NanLoss, 2);
        mhg_faults::install(plan);
        let (faulted_report, faulted_step, faulted_best) =
            run_with(&opts(false, 4), 10, 7).expect("must recover");
        mhg_faults::clear();
        assert_eq!(faulted_report.recovery.nan_rollbacks, 1);
        assert_eq!(clean_step.trace, faulted_step.trace);
        assert_eq!(clean_best, faulted_best);
        assert_eq!(clean_report.final_loss, faulted_report.final_loss);
    }

    /// A *real* divergence (every replay reproduces the NaN) exhausts the
    /// rollback budget into a typed error instead of looping forever.
    #[test]
    fn real_divergence_exhausts_rollbacks_into_typed_error() {
        let _g = faults_guard();
        mhg_faults::clear();
        let mut step = CountingStep::new(10);
        step.diverge = true;
        let mut rng = StdRng::seed_from_u64(7);
        let err = train(&opts(false, 3), recipe, &mut step, &mut rng)
            .expect_err("must report divergence");
        match err {
            TrainError::Diverged { epoch, rollbacks } => {
                assert_eq!(epoch, 0, "never commits an epoch");
                assert_eq!(rollbacks, MAX_NAN_ROLLBACKS);
            }
            other => panic!("expected Diverged, got {other}"),
        }
    }

    /// A panicking background sampler degrades to inline sampling of the
    /// same epochs — run completes with an identical result.
    #[test]
    fn sampler_panic_falls_back_inline_bit_identically() {
        let _g = faults_guard();
        let (clean_report, clean_step, clean_best) = {
            mhg_faults::clear();
            run(true, 5, 10)
        };
        let plan = mhg_faults::FaultPlan::new().inject(FaultSite::SamplerPanic, 2);
        mhg_faults::install(plan);
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the injected panic
        let result = run_with(&opts(true, 5), 10, 7);
        std::panic::set_hook(prev_hook);
        mhg_faults::clear();
        let (faulted_report, faulted_step, faulted_best) = result.expect("must fall back");
        assert_eq!(faulted_report.recovery.sampler_fallbacks, 1);
        assert_eq!(clean_step.trace, faulted_step.trace);
        assert_eq!(clean_best, faulted_best);
        assert_eq!(clean_report.epochs_run, faulted_report.epochs_run);
        assert_eq!(clean_report.final_loss, faulted_report.final_loss);
        assert_eq!(clean_report.best_val_auc, faulted_report.best_val_auc);
    }

    /// A sharded-store failure during sampling is terminal — no inline
    /// fallback, no process abort — and typed, on both sampling paths.
    #[test]
    fn storage_failure_is_terminal_and_typed_on_both_paths() {
        let _g = faults_guard();
        mhg_faults::clear();
        for background in [false, true] {
            let sample = |epoch: usize, rng: &mut StdRng| {
                if epoch == 2 {
                    // What `ShardedCsr::with_neighbors` panics with once a
                    // shard is quarantined and repair failed.
                    std::panic::panic_any(mhg_graph::StoreFailure {
                        relation: 0,
                        shard: 1,
                        error: mhg_graph::ShardError::Quarantined {
                            relation: 0,
                            shard: 1,
                        },
                    });
                }
                recipe(epoch, rng)
            };
            let mut step = CountingStep::new(10);
            let mut rng = StdRng::seed_from_u64(7);
            let prev_hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let err = train(&opts(background, 5), sample, &mut step, &mut rng)
                .expect_err("dead shard must surface");
            std::panic::set_hook(prev_hook);
            match err {
                TrainError::StorageExhausted { epoch, detail } => {
                    assert_eq!(epoch, 2, "background={background}");
                    assert!(detail.contains("quarantined"), "got {detail}");
                }
                other => panic!("expected StorageExhausted, got {other} (background={background})"),
            }
        }
    }

    /// Checkpoint writes retry through injected IO faults without changing
    /// the training result.
    #[test]
    fn checkpoint_io_faults_are_retried_transparently() {
        let _g = faults_guard();
        let (clean_report, clean_step, clean_best) = {
            mhg_faults::clear();
            run(false, 4, 10)
        };
        let dir = fresh_dir("io_retry");
        let plan = mhg_faults::FaultPlan::new()
            .inject(FaultSite::IoWrite, 1)
            .inject(FaultSite::IoWrite, 3);
        mhg_faults::install(plan);
        let mut o = opts(false, 4);
        o.checkpoint_every = 1;
        o.checkpoint_dir = Some(dir.clone());
        let result = run_with(&o, 10, 7);
        mhg_faults::clear();
        let (faulted_report, faulted_step, faulted_best) =
            result.expect("retries must absorb IO faults");
        assert_eq!(clean_step.trace, faulted_step.trace);
        assert_eq!(clean_best, faulted_best);
        assert_eq!(clean_report.final_loss, faulted_report.final_loss);
        // The checkpoints landed despite the injected write failures.
        assert!(Path::new(&dir).join("ckpt-000004.mhgc").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A corrupt latest checkpoint surfaces as a typed error, not a panic.
    #[test]
    #[expect(clippy::disallowed_methods, reason = "the test damages a checkpoint")]
    fn corrupt_checkpoint_on_resume_is_a_typed_error() {
        let _g = faults_guard();
        mhg_faults::clear();
        let dir = fresh_dir("corrupt");
        let mut o = opts(false, 3);
        o.checkpoint_dir = Some(dir.clone());
        run_with(&o, 10, 7).expect("first run");
        // Flip a byte in the newest checkpoint.
        let path = Path::new(&dir).join("ckpt-000003.mhgc");
        let mut bytes = std::fs::read(&path).expect("read checkpoint");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).expect("rewrite checkpoint");
        o.resume = true;
        let err = run_with(&o, 10, 7).expect_err("corruption must surface");
        assert!(
            matches!(
                err,
                TrainError::Checkpoint(CkptError::Frame(FrameError::ChecksumMismatch { .. }))
            ),
            "got {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_snapshot_of_another_format_is_rejected_with_its_number() {
        let mut step = CountingStep::new(1);
        let mut rng = StdRng::seed_from_u64(7);
        let mut st = LoopState {
            base: 0,
            epoch: 0,
            report: TrainReport::default(),
            stopper: EarlyStopper::new(2),
            stopped: false,
            best: None,
        };
        let mut dict = snapshot(&st, None, &rng, &step);
        // 65,537 would wrap onto the supported format 1.
        for (format, reported) in [(2, 2), (65_537, u16::MAX)] {
            dict.put_u64("loop/format", format);
            let err = restore(&mut st, &mut rng, &mut step, &dict).expect_err("format mismatch");
            assert!(
                matches!(
                    err,
                    CkptError::Frame(FrameError::UnsupportedVersion(v)) if v == reported
                ),
                "format {format}: got {err}"
            );
        }
    }
}
