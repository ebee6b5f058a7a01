//! `bench_e2e`: the end-to-end benchmark of the HybridGNN reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path bench_e2e/Cargo.toml -- \
//!     [--workload W] [--seed S] [--seconds T] [--trace [0|1]] [--runs N] \
//!     [--smoke] [--trace-out PATH]
//! ```
//!
//! With `--workload` and no `--runs`, one run of that workload happens in
//! this process: it prints `workload metric value unit` lines and, last,
//! one JSON result line. Otherwise the command runs every selected
//! workload `--runs` times (default 1), each run in its own child process,
//! one after another, and prints each metric's median and quartiles.
//! `--trace` switches from the end-to-end metrics to the traced run's
//! per-layer metrics. See README.md for the workloads and metrics.

mod probes;
mod stats;
mod timed_store;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use workload::{Outcome, RunOpts, DEFAULT_SEED, NAMES, THREADS};

/// Seconds of ops per run unless `--seconds` says otherwise; the same
/// value as `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// Scratch space for stores and checkpoints, relative to the working
/// directory; each run uses and then removes its own subdirectory.
const WORK_DIR: &str = ".bench_e2e_work";

/// End-to-end metrics: what a user of the trainer sees.
const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("op_s", "s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics of the traced run.
const PER_LAYER: &[(&str, &str)] = &[
    ("train.compute_share", "1"),
    ("train.eval_share", "1"),
    ("train.sample_share", "1"),
    ("train.ckpt_share", "1"),
    ("train.unattributed_share", "1"),
    ("sampling.walk_items", "count"),
    ("graph.neighbor_calls", "count"),
    ("graph.store_share", "1"),
    ("graph.page_loads", "count"),
    ("graph.mb_read", "MiB"),
    ("graph.hit_ratio", "1"),
    ("graph.build_s", "s"),
    ("graph.open_s", "s"),
    ("graph.verify_s", "s"),
    ("graph.on_disk_mb", "MiB"),
    ("graph.page_in_us", "us"),
    ("graph.hit_ns", "ns"),
    ("graph.ram_walk_steps_per_s", "1/s"),
    ("graph.sharded_vs_ram", "1"),
    ("tensor.matmul.rgcn.gflops.t1", "GFLOP/s"),
    ("tensor.matmul_t.rgcn.gflops.t1", "GFLOP/s"),
    ("tensor.matmul_at.rgcn.gflops.t1", "GFLOP/s"),
    ("tensor.matmul.tiny.ns.t1", "ns"),
    ("tensor.matmul_t.tiny.ns.t1", "ns"),
    ("tensor.softmax.tiny.ns.t1", "ns"),
    ("tensor.gather.gbps.t1", "GB/s"),
    ("tensor.scatter_add.gbps.t1", "GB/s"),
    ("tensor.matmul.rgcn.gflops.t2", "GFLOP/s"),
    ("tensor.matmul_t.rgcn.gflops.t2", "GFLOP/s"),
    ("tensor.matmul_at.rgcn.gflops.t2", "GFLOP/s"),
    ("tensor.matmul.tiny.ns.t2", "ns"),
    ("tensor.matmul_t.tiny.ns.t2", "ns"),
    ("tensor.softmax.tiny.ns.t2", "ns"),
    ("tensor.gather.gbps.t2", "GB/s"),
    ("tensor.scatter_add.gbps.t2", "GB/s"),
    ("autograd.tape_op_ns", "ns"),
    ("autograd.adam_step_us", "us"),
    ("autograd.backward_rgcn_ms", "ms"),
    ("par.dispatch_us", "us"),
    ("ckpt.save_mb_per_s", "MiB/s"),
    ("trace.overhead", "1"),
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    runs: Option<usize>,
    smoke: bool,
    trace_out: Option<PathBuf>,
}

const USAGE: &str = "usage: bench_e2e [--workload W] [--seed S] [--seconds T] \
[--trace [0|1]] [--runs N] [--smoke] [--trace-out PATH]";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        runs: None,
        smoke: false,
        trace_out: None,
    };
    let mut it = raw.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--runs" => args.runs = Some(value()?.parse().map_err(|e| format!("--runs: {e}"))?),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--smoke" => args.smoke = true,
            "--trace" => {
                args.traced = true;
                match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        args.traced = false;
                        it.next();
                    }
                    Some("1") => {
                        it.next();
                    }
                    _ => {}
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &args.workload {
        if !NAMES.contains(&w.as_str()) {
            return Err(format!("unknown workload {w:?}; one of {NAMES:?}"));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (&args.workload, args.runs) {
        (Some(name), None) => single(name, &args),
        _ => orchestrate(&args),
    }
}

/// The metrics a run should carry.
fn declared(traced: bool) -> &'static [(&'static str, &'static str)] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Problems with the emitted metric set: a declared metric missing or
/// with another unit, an undeclared one, or a non-finite value.
fn metric_set_problems(outcome: &Outcome, traced: bool) -> Vec<String> {
    let want: BTreeMap<&str, &str> = declared(traced).iter().copied().collect();
    let mut got: BTreeMap<&str, &str> = BTreeMap::new();
    let mut problems = Vec::new();
    for m in &outcome.metrics {
        if got.insert(m.name.as_str(), m.unit).is_some() {
            problems.push(format!("metric {} emitted twice", m.name));
        }
        if !m.value.is_finite() {
            problems.push(format!("metric {} is not finite: {}", m.name, m.value));
        }
    }
    for (name, unit) in &want {
        if got.get(name) != Some(unit) {
            problems.push(format!("declared metric {name} ({unit}) not emitted"));
        }
    }
    for (name, unit) in &got {
        if want.get(name) != Some(unit) {
            problems.push(format!("undeclared metric {name} ({unit}) emitted"));
        }
    }
    problems
}

/// One run of one workload in this process.
fn single(name: &str, args: &Args) -> ExitCode {
    let Some(spec) = workload::spec(name, args.smoke) else {
        eprintln!("bench_e2e: unknown workload {name:?}");
        return ExitCode::from(2);
    };
    let work = PathBuf::from(WORK_DIR).join(format!("{}-{name}", std::process::id()));
    let result = workload::run(
        &spec,
        &RunOpts {
            seed: args.seed,
            seconds: args.seconds,
            traced: args.traced,
            work: work.clone(),
        },
    );
    let _ = std::fs::remove_dir_all(&work);
    // Removes the shared parent only once no other run still uses it.
    let _ = std::fs::remove_dir(WORK_DIR);
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bench_e2e: {name}: {e}");
            return ExitCode::from(1);
        }
    };
    let problems = metric_set_problems(&outcome, args.traced);
    for p in &problems {
        eprintln!("# {name}: FAILED: {p}");
    }
    if let Some(path) = &args.trace_out {
        outcome.trace.line(format!(
            "{{\"meta\":{},\"seed\":{},\"seconds\":{},\"traced\":{},\"cpus\":{},\"threads\":{THREADS}}}",
            trace::json_str(name),
            args.seed,
            args.seconds,
            args.traced,
            stats::cpus()
        ));
        if let Err(e) = outcome.trace.write(path) {
            eprintln!("bench_e2e: writing {}: {e}", path.display());
        }
    }

    for m in &outcome.metrics {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
    }
    println!("{name} ops {} count", outcome.attempted);
    println!("{name} failed_ops {} count", outcome.failed);
    println!("{name} cpus {} count", stats::cpus());
    println!("{name} threads {THREADS} count");

    let correct = problems.is_empty() && outcome.failed == 0 && outcome.attempted > 0;
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_string()
            };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                trace::json_str(&m.name),
                trace::json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs each selected workload `--runs` times, each run a child process,
/// and prints every metric's median and quartiles.
fn orchestrate(args: &Args) -> ExitCode {
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => NAMES.to_vec(),
    };
    let runs = args.runs.unwrap_or(1).max(1);
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("bench_e2e: cannot locate own executable: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "# seed {} seconds {} runs {runs} traced {} cpus {} threads {THREADS}",
        args.seed,
        args.seconds,
        args.traced,
        stats::cpus()
    );
    let mut all_ok = true;
    for name in names {
        let mut values: BTreeMap<String, (Vec<f64>, String)> = BTreeMap::new();
        for run in 0..runs {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.traced { "1" } else { "0" }])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit());
            if args.smoke {
                cmd.arg("--smoke");
            }
            if let Some(path) = &args.trace_out {
                let mut file = path.clone().into_os_string();
                file.push(format!(".{name}.{run}.jsonl"));
                cmd.arg("--trace-out").arg(file);
            }
            // `output` waits for the child to exit.
            let out = match cmd.output() {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("bench_e2e: starting {name}: {e}");
                    return ExitCode::from(1);
                }
            };
            if !out.status.success() {
                eprintln!("# {name}: run {run} failed ({})", out.status);
                all_ok = false;
            }
            for line in String::from_utf8_lossy(&out.stdout).lines() {
                let tokens: Vec<&str> = line.split_whitespace().collect();
                if let [w, metric, value, unit] = tokens[..] {
                    if let (true, Ok(v)) = (w == name, value.parse::<f64>()) {
                        values
                            .entry(metric.to_string())
                            .or_insert_with(|| (Vec::new(), unit.to_string()))
                            .0
                            .push(v);
                    }
                }
            }
        }
        for (metric, (vals, unit)) in &values {
            let s = stats::summarize(vals);
            println!(
                "{name} {metric} {} {unit} (q1 {}, q3 {}, n {})",
                s.median, s.q1, s.q3, s.n
            );
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric in one array of `BENCHMARK.json`.
    /// A minimal scan: each metric object there sits on one line holding
    /// `"name": "…"` and `"unit": "…"`.
    fn benchmark_json_metrics(array: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{array}\""))
            .expect("array present in BENCHMARK.json");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("array closes")];
        let field = |line: &str, key: &str| -> Option<String> {
            let tag = format!("\"{key}\": \"");
            let rest = &line[line.find(&tag)? + tag.len()..];
            Some(rest[..rest.find('"')?].to_string())
        };
        body.lines()
            .filter_map(|line| Some((field(line, "name")?, field(line, "unit")?)))
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect()
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        assert_eq!(benchmark_json_metrics("end_to_end"), owned(END_TO_END));
        assert_eq!(benchmark_json_metrics("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn trace_flag_takes_an_optional_value() {
        let parse = |s: &str| {
            let raw: Vec<String> = s.split_whitespace().map(String::from).collect();
            parse_args(&raw)
        };
        assert!(parse("--trace").unwrap().traced);
        assert!(parse("--trace 1 --seed 3").unwrap().traced);
        let a = parse("--workload rgcn-ram --trace 0 --seconds 2").unwrap();
        assert!(!a.traced);
        assert_eq!(a.seconds, 2.0);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seconds -1").is_err());
    }

    /// Every workload at smoke size, end-to-end and traced, emits exactly
    /// the declared metrics and passes its checks, all within 15 seconds.
    #[test]
    fn smoke_runs_every_workload_quickly() {
        let start = std::time::Instant::now();
        for name in NAMES {
            let spec = workload::spec(name, true).expect("known workload");
            for traced in [false, true] {
                let work = PathBuf::from(WORK_DIR).join(format!("test-smoke-{name}-{traced}"));
                let outcome = workload::run(
                    &spec,
                    &RunOpts {
                        seed: 7,
                        seconds: 0.0,
                        traced,
                        work: work.clone(),
                    },
                )
                .expect("smoke run");
                let _ = std::fs::remove_dir_all(&work);
                assert_eq!(metric_set_problems(&outcome, traced), Vec::<String>::new());
                assert!(outcome.attempted > 0, "{name}: nothing attempted");
                assert_eq!(outcome.failed, 0, "{name}: failed ops (see stderr)");
            }
        }
        let _ = std::fs::remove_dir(WORK_DIR);
        let secs = start.elapsed().as_secs_f64();
        assert!(secs < 15.0, "smoke took {secs:.1}s");
    }
}
