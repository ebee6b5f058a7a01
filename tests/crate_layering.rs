//! The substrate DAG: every `[dependencies]` edge in a `crates/*/Cargo.toml`
//! must follow it, keeping tensor/autograd/par below train/models/bench.
//! Cargo rejects source references to undeclared crates, so the manifests
//! are the whole dependency graph. Dev-dependencies are not checked: a test
//! may reach anywhere.

use std::path::Path;

/// Which workspace crates each crate (its directory under `crates/`) may
/// list under `[dependencies]`. A crate absent from the table is itself a
/// finding: extend the table when adding a crate.
const ALLOWED_DEPS: &[(&str, &[&str])] = &[
    ("par", &[]),
    ("faults", &[]),
    ("tensor", &["par"]),
    ("ckpt", &["tensor", "faults"]),
    ("autograd", &["tensor", "par", "ckpt"]),
    ("graph", &["ckpt", "faults", "obs"]),
    ("obs", &["ckpt", "faults"]),
    ("sampling", &["graph", "par", "faults", "obs"]),
    ("datasets", &["graph", "sampling"]),
    ("eval", &["graph"]),
    (
        "train",
        &["par", "graph", "sampling", "ckpt", "faults", "obs"],
    ),
    (
        "models",
        &[
            "tensor", "autograd", "graph", "sampling", "train", "obs", "ckpt", "datasets", "eval",
        ],
    ),
    (
        "hybridgnn",
        &[
            "tensor", "autograd", "graph", "sampling", "datasets", "eval", "models", "train",
            "ckpt", "par", "obs",
        ],
    ),
    (
        "bench",
        &[
            "tensor",
            "autograd",
            "graph",
            "sampling",
            "datasets",
            "eval",
            "models",
            "train",
            "ckpt",
            "par",
            "obs",
            "faults",
            "hybridgnn",
        ],
    ),
];

/// The workspace crate a dependency key names: `mhg-x` → `x`, `hybridgnn`
/// → `hybridgnn`; `None` for third-party crates.
fn workspace_crate(dep: &str) -> Option<&str> {
    dep.strip_prefix("mhg-")
        .or_else(|| (dep == "hybridgnn").then_some(dep))
}

/// The 1-based lines of `manifest` (crate `krate`'s `Cargo.toml`) that break
/// the DAG, each with its message. A crate missing from the table is one
/// finding on line 1.
fn layering_findings(krate: &str, manifest: &str) -> Vec<(usize, String)> {
    let Some((_, allowed)) = ALLOWED_DEPS.iter().find(|(k, _)| *k == krate) else {
        return vec![(
            1,
            format!("crate `{krate}` is missing from the substrate DAG: add it to ALLOWED_DEPS"),
        )];
    };
    let mut out = Vec::new();
    let mut in_deps = false;
    for (idx, raw) in manifest.lines().enumerate() {
        let line = raw.trim();
        let key = if let Some(header) = line.strip_prefix('[') {
            let header = header.trim_end_matches(']').trim();
            in_deps = header == "dependencies"
                || (header.starts_with("target.") && header.ends_with(".dependencies"));
            header.strip_prefix("dependencies.")
        } else if in_deps {
            line.split(['=', '.']).next()
        } else {
            None
        };
        let Some(dep) = key.and_then(|k| workspace_crate(k.trim().trim_matches('"'))) else {
            continue;
        };
        if !allowed.contains(&dep) {
            out.push((
                idx + 1,
                format!(
                    "crate `{krate}` must not depend on `{dep}`: the substrate DAG only allows [{}]",
                    allowed.join(", ")
                ),
            ));
        }
    }
    out
}

fn lines(findings: &[(usize, String)]) -> Vec<usize> {
    findings.iter().map(|(line, _)| *line).collect()
}

#[test]
fn every_crate_manifest_follows_the_substrate_dag() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut names: Vec<String> = std::fs::read_dir(&crates)
        .expect("list crates/")
        .map(|e| e.expect("crates/ entry").path())
        .filter(|dir| dir.join("Cargo.toml").is_file())
        .map(|dir| {
            let name = dir.file_name().expect("a crate directory name");
            name.to_string_lossy().into_owned()
        })
        .collect();
    names.sort();
    let mut findings = Vec::new();
    for name in &names {
        let manifest = std::fs::read_to_string(crates.join(name).join("Cargo.toml"))
            .expect("read a crate manifest");
        for (line, message) in layering_findings(name, &manifest) {
            findings.push(format!("crates/{name}/Cargo.toml:{line}: {message}"));
        }
    }
    assert!(findings.is_empty(), "{}", findings.join("\n"));
    let mut table: Vec<&str> = ALLOWED_DEPS.iter().map(|(k, _)| *k).collect();
    table.sort_unstable();
    assert_eq!(table, names, "ALLOWED_DEPS must name exactly the crates");
}

#[test]
fn edges_outside_the_dag_are_flagged() {
    let models = "[package]\nname = \"mhg-models\"\n\n[dependencies]\nrand.workspace = true\nmhg-train.workspace = true\nhybridgnn.workspace = true\n";
    assert_eq!(lines(&layering_findings("models", models)), [7]);
    let tensor = "[dependencies]\n\"mhg-par\" = { path = \"../par\" }\n\n[dependencies.mhg-train]\npath = \"../train\"\n[target.'cfg(unix)'.dependencies]\nmhg-models.workspace = true\n";
    assert_eq!(lines(&layering_findings("tensor", tensor)), [4, 7]);
}

#[test]
fn dev_dependencies_are_not_checked() {
    let tensor = "[dependencies]\nmhg-par.workspace = true\n\n[dev-dependencies]\nmhg-train.workspace = true\nhybridgnn.workspace = true\n";
    assert!(layering_findings("tensor", tensor).is_empty());
}

#[test]
fn a_crate_missing_from_the_dag_is_flagged() {
    let findings = layering_findings("serve", "[package]\nname = \"mhg-serve\"\n");
    assert_eq!(lines(&findings), [1]);
}
