//! End-to-end tests for `hybridgnn-cli`: generate → stats → train →
//! recommend over a temp directory.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hybridgnn-cli"))
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hybridgnn_cli_tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

#[test]
fn full_workflow() {
    let graph_path = temp_path("workflow.mhg");
    let model_path = temp_path("workflow.emb");

    // generate
    let out = cli()
        .args([
            "generate",
            "--dataset",
            "taobao",
            "--scale",
            "0.005",
            "--seed",
            "3",
            "--out",
        ])
        .arg(&graph_path)
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(graph_path.exists());

    // stats
    let out = cli()
        .args(["stats", "--graph"])
        .arg(&graph_path)
        .output()
        .expect("run stats");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("|R|=4"), "{text}");
    assert!(text.contains("page-view"), "{text}");

    // train (tiny budget)
    let out = cli()
        .args(["train", "--graph"])
        .arg(&graph_path)
        .args(["--epochs", "2", "--dim", "16", "--out"])
        .arg(&model_path)
        .output()
        .expect("run train");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ROC-AUC"), "{text}");
    assert!(model_path.exists());

    // recommend
    let out = cli()
        .args(["recommend", "--graph"])
        .arg(&graph_path)
        .args(["--model"])
        .arg(&model_path)
        .args(["--node", "0", "--relation", "page-view", "--k", "3"])
        .output()
        .expect("run recommend");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("top-3"), "{text}");

    std::fs::remove_file(graph_path).ok();
    std::fs::remove_file(model_path).ok();
}

#[test]
fn helpful_errors() {
    // Unknown command.
    let out = cli().arg("frobnicate").output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // Missing flags.
    let out = cli().arg("train").output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--graph"));

    // Unknown dataset.
    let out = cli()
        .args(["generate", "--dataset", "nope", "--out", "/tmp/x.mhg"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown dataset"));

    // Unknown relation on a real graph.
    let graph_path = temp_path("errors.mhg");
    let out = cli()
        .args([
            "generate",
            "--dataset",
            "amazon",
            "--scale",
            "0.005",
            "--out",
        ])
        .arg(&graph_path)
        .output()
        .expect("run");
    assert!(out.status.success());
    let out = cli()
        .args(["recommend", "--graph"])
        .arg(&graph_path)
        .args([
            "--model",
            "/nonexistent.emb",
            "--node",
            "0",
            "--relation",
            "buy",
        ])
        .output()
        .expect("run");
    assert!(!out.status.success());
    std::fs::remove_file(graph_path).ok();
}

#[test]
fn unknown_and_valueless_flags_are_rejected() {
    let graph_path = temp_path("flags.mhg");
    let out = cli()
        .args([
            "generate",
            "--dataset",
            "amazon",
            "--scale",
            "0.005",
            "--out",
        ])
        .arg(&graph_path)
        .output()
        .expect("run generate");
    assert!(out.status.success());
    let graph = graph_path.to_str().expect("utf-8 temp path");

    // Each case exits 1 before doing any work, naming the offending flag:
    // unknown flags (misspelt, owned by another command, or a switch this
    // CLI does not have, in either position) and flags with no value (at
    // the end, or followed by the next flag). `--epoch` used to train the
    // default 15 epochs silently.
    let out_path = "/nonexistent/x.emb";
    let cases: [(&[&str], &str); 7] = [
        (&["stats", "--graph", graph, "--grpah", "x"], "--grpah"),
        (&["stats", "--graph", graph, "--k", "3"], "--k"),
        (&["stats", "--graph", graph, "--verbose"], "--verbose"),
        (&["stats", "--verbose", "--graph", graph], "--verbose"),
        (&["stats", "--graph"], "--graph"),
        (
            &["train", "--graph", graph, "--epochs", "--out", out_path],
            "--epochs",
        ),
        (
            &["train", "--graph", graph, "--out", out_path, "--epoch", "2"],
            "--epoch",
        ),
    ];
    for (args, flag) in cases {
        let out = cli().args(args).output().expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        // The usage text that follows lists `--epochs` and `--k` itself.
        let error = stderr.lines().next().unwrap_or("");
        assert!(error.contains(flag), "{args:?} must name {flag}: {stderr}");
    }
    std::fs::remove_file(graph_path).ok();
}

/// `train --resume true` with no checkpoint directory has nothing to
/// resume from; it exits 1 naming both flags instead of silently training
/// from scratch.
#[test]
fn resume_without_a_checkpoint_dir_is_rejected() {
    let graph_path = temp_path("resume.mhg");
    let model_path = temp_path("resume.emb");
    std::fs::remove_file(&model_path).ok();
    let out = cli()
        .args([
            "generate",
            "--dataset",
            "amazon",
            "--scale",
            "0.005",
            "--out",
        ])
        .arg(&graph_path)
        .output()
        .expect("run generate");
    assert!(out.status.success());
    let out = cli()
        .args(["train", "--graph"])
        .arg(&graph_path)
        .args(["--epochs", "1", "--dim", "8", "--resume", "true", "--out"])
        .arg(&model_path)
        .output()
        .expect("run train");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("--resume") && stderr.contains("--checkpoint-dir"),
        "{stderr}"
    );
    assert!(!model_path.exists(), "nothing may be trained");
    std::fs::remove_file(graph_path).ok();
}

#[test]
fn recommend_rejects_a_non_finite_embedding_file() {
    use hybridgnn_repro::graph::{persist, RelationId};
    use hybridgnn_repro::model::embeddings;
    use hybridgnn_repro::tensor::Tensor;

    let graph_path = temp_path("non_finite.mhg");
    let model_path = temp_path("non_finite.emb");
    let out = cli()
        .args([
            "generate",
            "--dataset",
            "amazon",
            "--scale",
            "0.005",
            "--out",
        ])
        .arg(&graph_path)
        .output()
        .expect("run generate");
    assert!(out.status.success());

    // A well-formed MHE1 file whose tables carry a NaN in the query row:
    // the frame checks pass, so only the value check can catch it.
    let graph = persist::load(&graph_path).expect("load graph");
    let mut tables: Vec<Tensor> = graph
        .schema()
        .relations()
        .map(|_| Tensor::full(graph.num_nodes(), 4, 0.5))
        .collect();
    tables[0][(0, 0)] = f32::NAN;
    embeddings::save(&model_path, &tables).expect("save tables");

    let relation = graph.schema().relation_name(RelationId(0));
    let out = cli()
        .args(["recommend", "--graph"])
        .arg(&graph_path)
        .arg("--model")
        .arg(&model_path)
        .args(["--node", "0", "--relation", relation])
        .output()
        .expect("run recommend");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("non-finite"), "{stderr}");

    std::fs::remove_file(graph_path).ok();
    std::fs::remove_file(model_path).ok();
}
