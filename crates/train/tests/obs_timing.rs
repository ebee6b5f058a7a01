//! Metrics-verified timing tests for the training pipeline (DESIGN.md
//! §2.12): under a deterministic [`Obs::deterministic`] clock, the
//! per-epoch `TimingBreakdown` and the `train/*` span histograms are exact,
//! identical between inline and background sampling, and bounded by an
//! externally measured run time.
//!
//! The fake clock advances one fixed step per reading on each thread, so a
//! leaf span (begin + stop, no nested readings) always measures exactly one
//! step regardless of which thread runs it — the arithmetic below is exact,
//! not approximate.

use mhg_ckpt::{CkptError, StateDict};
use mhg_obs::{MetricValue, Obs};
use mhg_sampling::SampleError;
use mhg_train::{train, Artefact, BatchLoss, TrainOptions, TrainStep};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fake-clock step: 1ms per reading, so span milliseconds are integers.
const STEP_NS: u64 = 1_000_000;
/// Batches per epoch produced by [`recipe`].
const BATCHES: u64 = 2;

/// Minimal model whose validation score improves every epoch (no early
/// stopping interferes with the epoch count).
struct TickStep {
    evals: usize,
}

/// The artefact of [`TickStep`]: the 1-based index of its eval.
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

impl TrainStep for TickStep {
    type Batch = Vec<u64>;
    type Artefact = EvalIndex;

    fn step(&mut self, batch: Vec<u64>, _rng: &mut StdRng) -> BatchLoss {
        BatchLoss {
            loss_sum: batch.len() as f64,
            denom: batch.len(),
        }
    }

    fn eval(&mut self, _rng: &mut StdRng) -> (f64, EvalIndex) {
        self.evals += 1;
        (self.evals as f64, EvalIndex(self.evals as u64))
    }

    fn export_state(&self, dict: &mut StateDict) {
        dict.put_u64("model/evals", self.evals as u64);
    }

    fn import_state(&mut self, dict: &StateDict) -> Result<(), CkptError> {
        self.evals = dict.u64("model/evals")? as usize;
        Ok(())
    }
}

fn recipe(epoch: usize, rng: &mut StdRng) -> Result<Vec<Vec<u64>>, SampleError> {
    // Two batches per epoch; contents depend on the epoch RNG as usual.
    Ok(vec![
        vec![epoch as u64, rng.gen()],
        vec![rng.gen(), rng.gen()],
    ])
}

fn run(background: bool, epochs: usize) -> (Obs, mhg_train::TrainReport) {
    let obs = Obs::deterministic(STEP_NS);
    let opts = TrainOptions {
        epochs,
        patience: 2,
        background,
        threads: 0,
        checkpoint_every: 0,
        checkpoint_dir: None,
        resume: false,
        obs: obs.clone(),
    };
    let mut step = TickStep { evals: 0 };
    let mut rng = StdRng::seed_from_u64(11);
    let (report, _) = train(&opts, recipe, &mut step, &mut rng).expect("train");
    (obs, report)
}

fn histogram(obs: &Obs, name: &str) -> mhg_obs::HistogramSnapshot {
    match obs
        .metrics()
        .into_iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v)
    {
        Some(MetricValue::Histogram(h)) => h,
        other => panic!("expected histogram {name}, got {other:?}"),
    }
}

/// Under the fake clock each span measures an exact number of steps:
/// the sample stage is one leaf measurement (1ms), the compute span nests
/// one leaf span per batch (2·B + 1 ms), and eval is a leaf span (1ms).
#[test]
fn timing_breakdown_is_exact_under_fake_clock() {
    let epochs = 3usize;
    let (obs, report) = run(false, epochs);
    let e = epochs as f64;
    assert_eq!(report.epochs_run, epochs);
    assert_eq!(report.timing.sample_ms, e);
    assert_eq!(report.timing.compute_ms, (2.0 * BATCHES as f64 + 1.0) * e);
    assert_eq!(report.timing.eval_ms, e);

    let sample = histogram(&obs, "train/sample");
    assert_eq!(
        (sample.count, sample.sum),
        (epochs as u64, epochs as u64 * STEP_NS)
    );
    let compute = histogram(&obs, "train/compute");
    assert_eq!(
        (compute.count, compute.sum),
        (epochs as u64, epochs as u64 * (2 * BATCHES + 1) * STEP_NS)
    );
    let eval = histogram(&obs, "train/eval");
    assert_eq!(
        (eval.count, eval.sum),
        (epochs as u64, epochs as u64 * STEP_NS)
    );
    let step = histogram(&obs, "train/step");
    assert_eq!(
        (step.count, step.sum),
        (epochs as u64 * BATCHES, epochs as u64 * BATCHES * STEP_NS)
    );
}

/// The sample + compute + eval stage times must fit inside an external
/// measurement taken around the whole run on the same clock — the stages
/// are sub-intervals of the run, on any clock.
#[test]
fn stage_spans_sum_within_external_run_measurement() {
    let obs = Obs::deterministic(STEP_NS);
    let opts = TrainOptions {
        epochs: 4,
        patience: 2,
        background: false,
        threads: 0,
        checkpoint_every: 0,
        checkpoint_dir: None,
        resume: false,
        obs: obs.clone(),
    };
    let mut step = TickStep { evals: 0 };
    let mut rng = StdRng::seed_from_u64(11);
    let t0 = obs.now_ns();
    let (report, _) = train(&opts, recipe, &mut step, &mut rng).expect("train");
    let total_ms = (obs.now_ns() - t0) as f64 / 1e6;
    let stages = report.timing.sample_ms + report.timing.compute_ms + report.timing.eval_ms;
    assert!(
        stages <= total_ms,
        "stage sum {stages}ms exceeds run total {total_ms}ms"
    );
}

/// Background prefetch must not change a single recorded byte: the sample
/// stage is measured on whichever thread runs it, and the fake clock's
/// per-thread step counter makes that measurement thread-invariant.
#[test]
fn metrics_are_identical_inline_and_background() {
    let (inline_obs, inline_report) = run(false, 3);
    let (bg_obs, bg_report) = run(true, 3);
    assert_eq!(inline_report.epochs_run, bg_report.epochs_run);
    assert_eq!(inline_report.timing.sample_ms, bg_report.timing.sample_ms);
    assert_eq!(inline_report.timing.compute_ms, bg_report.timing.compute_ms);
    assert_eq!(inline_report.timing.eval_ms, bg_report.timing.eval_ms);
    assert_eq!(
        inline_obs.render_jsonl(),
        bg_obs.render_jsonl(),
        "metrics.jsonl must be byte-identical between inline and background sampling"
    );
}
