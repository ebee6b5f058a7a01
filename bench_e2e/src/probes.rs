//! Per-layer probes of the substrate crates, timed at the shapes the
//! training workloads run: `mhg-tensor` kernels at 1 and 2 threads,
//! `mhg-autograd` tape and optimizer costs, `mhg-par` dispatch and the
//! `mhg-ckpt` save path. Every probe calls public API only.
//!
//! Shapes: an R-GCN batch is 256 edges × (1 positive + 3 negatives) =
//! 1024 rows of width 128 per side, so its dense kernels are
//! 1024×128 · 128×128; its backward pass forms `dB = Aᵀ·dC` with
//! transpose + `matmul` (128×1024 · 1024×128, the same multiply-add
//! count). A HybridGNN step is thousands of tape ops on 1×8 rows and 8×8
//! weights, with 6×6 attention softmaxes.

use std::hint::black_box;
use std::path::Path;

use mhg_autograd::{Adam, GradStore, Graph, Optimizer, ParamId, ParamStore};
use mhg_ckpt::{Checkpointer, StateDict};
use mhg_tensor::{InitKind, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::{per_call_ns, Summary};

/// Rows of one R-GCN batch side: 256 edges × (1 + 3 negatives).
const RGCN_ROWS: usize = 1024;
/// Model width `d_m` of every training workload.
const DIM: usize = 128;
/// Flow width `d_e` of HybridGNN.
const EDGE_DIM: usize = 8;
/// Embedding-table rows for the gather/scatter rows: large enough that
/// the table (5 MiB) does not sit in a core's private caches.
const TABLE_ROWS: usize = 10_000;
/// Node count of the hybrid-ram graph (Amazon at scale 0.25).
const HYBRID_NODES: usize = 2_525;
/// Context rows one HybridGNN batch gathers: 48 pairs × (1 + 5 negatives).
const HYBRID_CTX_ROWS: usize = 288;
/// `par_chunks_mut` fans out only above 16 384 estimated scalar ops per
/// worker (`MIN_WORK_PER_WORKER` in `mhg-par`); two units just above it
/// make the smallest job that still dispatches to two threads.
const PAR_WORK_PER_UNIT: usize = 16_385;
/// Multiply-adds chained per tape-cost probe.
const TAPE_CHAIN: usize = 64;

/// One probe result: a per-layer metric plus the detail behind it.
pub struct Row {
    /// Metric name as declared in `BENCHMARK.json`.
    pub name: String,
    /// Metric value in `unit`.
    pub value: f64,
    /// Metric unit.
    pub unit: &'static str,
    /// Work per call, in words (shape, FLOPs or bytes).
    pub work: String,
    /// `mhg-par` pool width during the probe.
    pub threads: usize,
    /// Per-call nanoseconds over the probe's repeats.
    pub ns: Summary,
    /// Calls timed.
    pub calls: usize,
}

impl Row {
    /// The row as one JSONL line for the trace file.
    pub fn json(&self) -> String {
        format!(
            "{{\"row\":{},\"value\":{},\"unit\":{},\"work\":{},\"threads\":{},\"cpus\":{},\
             \"calls\":{},\"median_ns\":{},\"q1_ns\":{},\"q3_ns\":{}}}",
            crate::trace::json_str(&self.name),
            self.value,
            crate::trace::json_str(self.unit),
            crate::trace::json_str(&self.work),
            self.threads,
            crate::stats::cpus(),
            self.calls,
            self.ns.median,
            self.ns.q1,
            self.ns.q3
        )
    }
}

fn uniform(rows: usize, cols: usize, rng: &mut StdRng) -> Tensor {
    InitKind::Uniform { limit: 0.5 }.init(rows, cols, rng)
}

/// Times `f` with the pool at `threads` and turns the median into a row.
/// `per_call` maps median nanoseconds per call to the reported value.
fn row(
    name: String,
    unit: &'static str,
    work: String,
    threads: usize,
    budget_s: f64,
    per_call: impl Fn(f64) -> f64,
    f: impl FnMut(),
) -> Row {
    let (ns, calls) = mhg_par::with_threads(threads, || per_call_ns(budget_s, f));
    Row {
        name,
        value: per_call(ns.median),
        unit,
        work,
        threads,
        ns,
        calls,
    }
}

/// The `mhg-tensor` rows, each at 1 thread and (with at least 2 CPUs) at
/// 2 threads. Dense products report GFLOP/s (2 FLOPs per multiply-add),
/// gather and scatter-add report GB/s of row bytes moved, and the tiny
/// HybridGNN-shaped ops report nanoseconds per call.
pub fn tensor_rows(budget_s: f64, cpus: usize) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(7);
    let a = uniform(RGCN_ROWS, DIM, &mut rng);
    let w = uniform(DIM, DIM, &mut rng);
    let dc = uniform(RGCN_ROWS, DIM, &mut rng);
    let x = uniform(1, EDGE_DIM, &mut rng);
    let w8 = uniform(EDGE_DIM, EDGE_DIM, &mut rng);
    let s6 = uniform(6, 6, &mut rng);
    let table = uniform(TABLE_ROWS, DIM, &mut rng);
    let idx: Vec<usize> = (0..RGCN_ROWS).map(|i| (i * 7919) % TABLE_ROWS).collect();
    let idx32: Vec<u32> = idx.iter().map(|&i| i as u32).collect();

    let flops = (2 * RGCN_ROWS * DIM * DIM) as f64;
    let gflops = move |ns: f64| flops / ns;
    let row_bytes = (RGCN_ROWS * DIM * 4) as f64;
    let dense = format!("{RGCN_ROWS}x{DIM}x{DIM}, {flops} FLOP");

    let mut rows = Vec::new();
    for threads in [1usize, 2] {
        if threads > cpus {
            continue;
        }
        let t = format!("t{threads}");
        rows.push(row(
            format!("tensor.matmul.rgcn.gflops.{t}"),
            "GFLOP/s",
            format!("matmul {dense}"),
            threads,
            budget_s,
            gflops,
            || drop(black_box(a.matmul(&w))),
        ));
        rows.push(row(
            format!("tensor.matmul_t.rgcn.gflops.{t}"),
            "GFLOP/s",
            format!("matmul_transposed {dense}"),
            threads,
            budget_s,
            gflops,
            || drop(black_box(a.matmul_transposed(&w))),
        ));
        rows.push(row(
            format!("tensor.matmul_at.rgcn.gflops.{t}"),
            "GFLOP/s",
            format!("transpose + matmul {DIM}x{RGCN_ROWS}x{DIM}, {flops} FLOP"),
            threads,
            budget_s,
            gflops,
            || drop(black_box(a.transpose().matmul(&dc))),
        ));
        rows.push(row(
            format!("tensor.matmul.tiny.ns.{t}"),
            "ns",
            format!("matmul 1x{EDGE_DIM}x{EDGE_DIM}"),
            threads,
            budget_s,
            |ns| ns,
            || drop(black_box(x.matmul(&w8))),
        ));
        rows.push(row(
            format!("tensor.matmul_t.tiny.ns.{t}"),
            "ns",
            format!("matmul_transposed 1x{EDGE_DIM}x{EDGE_DIM}"),
            threads,
            budget_s,
            |ns| ns,
            || drop(black_box(x.matmul_transposed(&w8))),
        ));
        rows.push(row(
            format!("tensor.softmax.tiny.ns.{t}"),
            "ns",
            "softmax_rows 6x6".to_string(),
            threads,
            budget_s,
            |ns| ns,
            || drop(black_box(s6.softmax_rows())),
        ));
        rows.push(row(
            format!("tensor.gather.gbps.{t}"),
            "GB/s",
            format!(
                "gather_rows {RGCN_ROWS} rows of {TABLE_ROWS}x{DIM}, {} B read + written",
                2.0 * row_bytes
            ),
            threads,
            budget_s,
            move |ns| 2.0 * row_bytes / ns,
            || drop(black_box(table.gather_rows(&idx))),
        ));
        let mut acc = table.clone();
        rows.push(row(
            format!("tensor.scatter_add.gbps.{t}"),
            "GB/s",
            format!(
                "scatter_add_rows {RGCN_ROWS} rows into {TABLE_ROWS}x{DIM}, {} B moved",
                3.0 * row_bytes
            ),
            threads,
            budget_s,
            move |ns| 3.0 * row_bytes / ns,
            || acc.scatter_add_rows(black_box(&idx32), &dc),
        ));
    }
    rows
}

/// Registers a HybridGNN-shaped parameter set (Amazon at scale 0.25):
/// node tables plus the 8×8 flow and attention weights and two 8×128
/// output projections.
fn hybrid_params(rng: &mut StdRng) -> (ParamStore, [ParamId; 3], Vec<ParamId>) {
    let mut store = ParamStore::new();
    let base = store.register("base", uniform(HYBRID_NODES, DIM, rng));
    let ctx = store.register("ctx", uniform(HYBRID_NODES, DIM, rng));
    let flow = store.register("flow", uniform(HYBRID_NODES, EDGE_DIM, rng));
    let mut small: Vec<ParamId> = (0..9)
        .map(|i| store.register(format!("w{i}"), uniform(EDGE_DIM, EDGE_DIM, rng)))
        .collect();
    for r in 0..2 {
        small.push(store.register(format!("w_out_r{r}"), uniform(EDGE_DIM, DIM, rng)));
    }
    (store, [base, ctx, flow], small)
}

/// The `mhg-autograd` rows.
///
/// * `autograd.tape_op_ns` — record + backward cost per tape node over a
///   chain of 1×8 matmul/tanh ops on a fresh `Graph`.
/// * `autograd.adam_step_us` — one lazy `Adam` step over HybridGNN-shaped
///   parameters: 48 base rows, 288 context and flow rows, dense 8×8
///   weights.
/// * `autograd.backward_rgcn_ms` — forward + backward of an R-GCN-shaped
///   tape (two sides of 1024 gathered rows, two relations, DistMult).
pub fn autograd_rows(budget_s: f64) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(11);
    let mut rows = Vec::new();

    let mut chain = ParamStore::new();
    let x = chain.register("x", uniform(1, EDGE_DIM, &mut rng));
    let w = chain.register("w", uniform(EDGE_DIM, EDGE_DIM, &mut rng));
    let tape = |chain: &ParamStore| {
        let mut g = Graph::new(chain);
        let mut h = g.param(x);
        let wv = g.param(w);
        for _ in 0..TAPE_CHAIN {
            let m = g.matmul(h, wv);
            h = g.tanh(m);
        }
        let loss = g.sum_all(h);
        let nodes = g.len();
        drop(black_box(g.backward(loss)));
        nodes
    };
    let nodes = tape(&chain) as f64;
    rows.push(row(
        "autograd.tape_op_ns".to_string(),
        "ns",
        format!("{nodes} tape nodes of 1x{EDGE_DIM} matmul/tanh, record + backward"),
        1,
        budget_s,
        |ns| ns / nodes,
        || {
            tape(&chain);
        },
    ));

    let (mut params, [base, ctx, flow], small) = hybrid_params(&mut rng);
    let mut grads = GradStore::new();
    let centers: Vec<u32> = (0..48u32).map(|i| (i * 7) % HYBRID_NODES as u32).collect();
    let targets: Vec<u32> = (0..HYBRID_CTX_ROWS as u32)
        .map(|i| (i * 13) % HYBRID_NODES as u32)
        .collect();
    grads.accumulate_gather(base, &centers, &uniform(centers.len(), DIM, &mut rng));
    grads.accumulate_gather(ctx, &targets, &uniform(targets.len(), DIM, &mut rng));
    grads.accumulate_gather(flow, &targets, &uniform(targets.len(), EDGE_DIM, &mut rng));
    for &id in &small {
        let shape = params.value(id).shape();
        grads.accumulate_dense(id, uniform(shape.rows, shape.cols, &mut rng));
    }
    let mut adam = Adam::new(0.01);
    rows.push(row(
        "autograd.adam_step_us".to_string(),
        "us",
        format!("lazy Adam, {HYBRID_NODES}-node HybridGNN parameters, {HYBRID_CTX_ROWS}-row gather gradient"),
        1,
        budget_s,
        |ns| ns / 1e3,
        || adam.step(&mut params, &grads),
    ));

    let mut rg = ParamStore::new();
    let emb = rg.register("emb", uniform(HYBRID_NODES, DIM, &mut rng));
    let w_self = rg.register("w_self", uniform(DIM, DIM, &mut rng));
    let w_rel: Vec<ParamId> = (0..2)
        .map(|r| rg.register(format!("w_r{r}"), uniform(DIM, DIM, &mut rng)))
        .collect();
    let diag = rg.register("diag", uniform(2, DIM, &mut rng));
    let side = |g: &mut Graph<'_>, salt: usize| {
        let ids = |k: usize| -> Vec<u32> {
            (0..RGCN_ROWS)
                .map(|i| ((i * 31 + k * 17 + salt) % HYBRID_NODES) as u32)
                .collect()
        };
        let x = g.gather(emb, &ids(0));
        let w0 = g.param(w_self);
        let mut acc = g.matmul(x, w0);
        for (r, &wr) in w_rel.iter().enumerate() {
            let neigh = g.gather(emb, &ids(r + 1));
            let wv = g.param(wr);
            let proj = g.matmul(neigh, wv);
            acc = g.add(acc, proj);
        }
        g.tanh(acc)
    };
    let rel_ids: Vec<u32> = (0..RGCN_ROWS as u32).map(|i| i % 2).collect();
    let labels: Vec<f32> = (0..RGCN_ROWS)
        .map(|i| if i % 4 == 0 { 1.0 } else { -1.0 })
        .collect();
    rows.push(row(
        "autograd.backward_rgcn_ms".to_string(),
        "ms",
        format!("R-GCN tape, 2 sides x {RGCN_ROWS} rows x {DIM}, 2 relations, forward + backward"),
        2,
        budget_s,
        |ns| ns / 1e6,
        || {
            let mut g = Graph::new(&rg);
            let hl = side(&mut g, 0);
            let hr = side(&mut g, 5);
            let d = g.gather(diag, &rel_ids);
            let weighted = g.mul(hl, d);
            let scores = g.row_dot(weighted, hr);
            let loss = g.logistic_loss(scores, &labels);
            drop(black_box(g.backward(loss)));
        },
    ));
    rows
}

/// `par.dispatch_us`: the fixed cost of fanning a no-op job out to two
/// workers with `par_chunks_mut`.
pub fn par_row(budget_s: f64) -> Row {
    let mut buf = [0u8; 2];
    row(
        "par.dispatch_us".to_string(),
        "us",
        format!("par_chunks_mut, 2 units x {PAR_WORK_PER_UNIT} est. ops, no-op body"),
        2,
        budget_s,
        |ns| ns / 1e3,
        || {
            mhg_par::par_chunks_mut(&mut buf, 1, PAR_WORK_PER_UNIT, |_, c| {
                black_box(c);
            });
        },
    )
}

/// `ckpt.save_mb_per_s`: `Checkpointer::save` of HybridGNN-shaped
/// parameters into `dir` (encode, checksum, atomic write with fsync).
pub fn ckpt_row(dir: &Path, budget_s: f64) -> Result<Row, String> {
    let mut rng = StdRng::seed_from_u64(13);
    let (params, _, _) = hybrid_params(&mut rng);
    let mut dict = StateDict::new();
    params.export_state("model/params", &mut dict);
    let ckpt = Checkpointer::create(dir).map_err(|e| format!("checkpoint dir: {e}"))?;
    let mut epoch = 0usize;
    let mut failure = None;
    let (ns, calls) = per_call_ns(budget_s, || {
        epoch += 1;
        if let Err(e) = ckpt.save(epoch, &dict) {
            failure.get_or_insert(e.to_string());
        }
    });
    if let Some(e) = failure {
        return Err(format!("checkpoint save: {e}"));
    }
    let bytes = std::fs::metadata(ckpt.path_for(epoch))
        .map_err(|e| format!("checkpoint size: {e}"))?
        .len() as f64;
    let mb = bytes / f64::from(1u32 << 20);
    Ok(Row {
        name: "ckpt.save_mb_per_s".to_string(),
        value: mb / (ns.median / 1e9),
        unit: "MiB/s",
        work: format!("Checkpointer::save of {bytes} B"),
        threads: 1,
        ns,
        calls,
    })
}
