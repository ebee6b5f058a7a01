//! Lint rules: the per-file token-stream analysis passes and the manifest
//! layering check.
//!
//! Each source rule is a pass over a [`FileTokens`] view of one source
//! file. [`classify`] decides which passes apply to which workspace file;
//! [`scan_file`] runs them and returns [`Diagnostic`]s. [`scan_manifest`]
//! checks one crate's `Cargo.toml` against the substrate DAG.

use std::fmt;

use crate::engine::{needle, FileTokens};
use crate::lexer::TokenKind;

/// A lint rule identifier.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rule {
    /// Multi-tensor op entry point without a shape assertion.
    ShapeAssert,
    /// Hand-rolled training epoch loop outside `crates/train`.
    EpochLoop,
    /// Atomic memory-ordering use outside the sanctioned pattern.
    AtomicOrdering,
    /// Unchecked length/size arithmetic on a persistence path.
    UncheckedArith,
    /// Manifest dependency violating the substrate DAG.
    CrateLayering,
    /// `lint.allow` entry that matches no current finding.
    DeadAllow,
    /// `lint.allow` entry with no justification comment above it.
    UnjustifiedAllow,
}

impl Rule {
    /// Stable rule name used in reports and the allowlist.
    pub fn name(self) -> &'static str {
        match self {
            Rule::ShapeAssert => "shape-assert",
            Rule::EpochLoop => "epoch-loop",
            Rule::AtomicOrdering => "atomic-ordering",
            Rule::UncheckedArith => "unchecked-arith",
            Rule::CrateLayering => "crate-layering",
            Rule::DeadAllow => "dead-allow",
            Rule::UnjustifiedAllow => "unjustified-allow",
        }
    }
}

/// A single finding: file, position, rule and message.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column number.
    pub col: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
    /// Trimmed source line, used for allowlist matching.
    pub snippet: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file,
            self.line,
            self.col,
            self.rule.name(),
            self.message
        )
    }
}

/// Which rules apply to a given file.
#[derive(Debug, Clone, Default)]
pub struct FileClass {
    /// Shape-assertion rule applies.
    pub shape_assert: bool,
    /// Epoch-loop rule applies.
    pub epoch_loop: bool,
    /// `Ordering::Relaxed` is permitted without an allowlist entry.
    pub atomic_relaxed_ok: bool,
    /// Unchecked-arithmetic rule applies (persistence paths).
    pub unchecked_arith: bool,
}

/// Decides which rules apply to `rel_path` (workspace-relative, `/`
/// separators). Returns `None` for files the linter does not scan.
pub fn classify(rel_path: &str) -> Option<FileClass> {
    if !rel_path.ends_with(".rs") || !rel_path.starts_with("crates/") {
        return None;
    }
    let rest = &rel_path["crates/".len()..];
    let (krate, tail) = rest.split_once('/')?;
    if !tail.starts_with("src/") {
        return None;
    }
    Some(FileClass {
        shape_assert: rel_path == "crates/tensor/src/ops.rs"
            || rel_path == "crates/tensor/src/tensor.rs",
        epoch_loop: krate != "train",
        atomic_relaxed_ok: krate == "obs",
        unchecked_arith: krate == "ckpt"
            || rel_path == "crates/graph/src/sharded.rs"
            || rel_path == "crates/graph/src/heal.rs",
    })
}

/// Builds a diagnostic anchored at significant token `i`.
fn diag_at(
    ft: &FileTokens<'_>,
    rel_path: &str,
    i: usize,
    rule: Rule,
    message: String,
) -> Diagnostic {
    Diagnostic {
        file: rel_path.to_string(),
        line: ft.sig_line(i),
        col: ft.sig_col(i),
        rule,
        message,
        snippet: ft.snippet_at(i).to_string(),
    }
}

/// Scans one file's source and returns every finding.
///
/// `rel_path` selects the applicable rules via [`classify`]; files the
/// linter does not cover yield no findings.
pub fn scan_file(rel_path: &str, source: &str) -> Vec<Diagnostic> {
    let Some(class) = classify(rel_path) else {
        return Vec::new();
    };
    let ft = FileTokens::new(source);
    let mut diags = Vec::new();

    if class.epoch_loop {
        epoch_pass(&ft, rel_path, &mut diags);
    }
    if class.shape_assert {
        shape_pass(&ft, rel_path, &mut diags);
    }
    atomic_pass(&ft, &class, rel_path, &mut diags);
    if class.unchecked_arith {
        unchecked_pass(&ft, rel_path, &mut diags);
    }

    diags.sort_by(|a, b| (a.line, a.col, a.rule.name()).cmp(&(b.line, b.col, b.rule.name())));
    diags
}

/// Epoch-loop: a `for epoch in` loop (matched as a token needle, so line
/// breaks and whitespace cannot hide it) outside `#[cfg(test)]` code.
fn epoch_pass(ft: &FileTokens<'_>, rel_path: &str, out: &mut Vec<Diagnostic>) {
    for i in needle("for epoch in").find_all(ft) {
        if !ft.sig_in_test(i) {
            out.push(diag_at(
                ft,
                rel_path,
                i,
                Rule::EpochLoop,
                "hand-rolled epoch loop — drive training through `mhg_train::train`".to_string(),
            ));
        }
    }
}

/// Index of the `>` matching the `<` at `open` (fn signatures only, where
/// every `<`/`>` between the name and the parameter list is a generic
/// delimiter).
fn matching_angle(ft: &FileTokens<'_>, open: usize) -> Option<usize> {
    let mut depth = 0i64;
    for j in open..ft.sig_len() {
        match ft.sig_text(j) {
            "<" => depth += 1,
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

/// Shape-assert: a `pub fn` combining two or more tensors must assert in
/// its body.
fn shape_pass(ft: &FileTokens<'_>, rel_path: &str, out: &mut Vec<Diagnostic>) {
    let n = ft.sig_len();
    for i in 0..n {
        if ft.sig_text(i) != "pub" || ft.sig_in_test(i) {
            continue;
        }
        let mut j = i + 1;
        while matches!(ft.sig_text(j), "const" | "unsafe") {
            j += 1;
        }
        if ft.sig_text(j) != "fn" {
            continue;
        }
        let mut k = j + 2; // past the fn name
        if ft.sig_text(k) == "<" {
            let Some(close) = matching_angle(ft, k) else {
                continue;
            };
            k = close + 1;
        }
        if ft.sig_text(k) != "(" {
            continue;
        }
        let Some(close) = ft.matching(k, "(", ")") else {
            continue;
        };
        let mut tensors = 0usize;
        let mut has_self = false;
        for p in k + 1..close {
            match ft.sig_text(p) {
                "Tensor" => {
                    // A slice of tensors combines at least two.
                    let slice = p >= 2
                        && ft.sig_text(p - 1) == "&"
                        && ft.sig_text(p - 2) == "["
                        && ft.sig_text(p + 1) == "]";
                    tensors += if slice { 2 } else { 1 };
                }
                "self" => has_self = true,
                _ => {}
            }
        }
        if has_self {
            tensors += 1; // methods on Tensor: the receiver is a tensor
        }
        if tensors < 2 {
            continue;
        }
        // Body: the first `{` after the parameter list (a `;` first means a
        // bodiless declaration).
        let mut b = close + 1;
        while b < n && ft.sig_text(b) != "{" && ft.sig_text(b) != ";" {
            b += 1;
        }
        if b >= n || ft.sig_text(b) == ";" {
            continue;
        }
        let Some(bclose) = ft.matching(b, "{", "}") else {
            continue;
        };
        let asserted = (b..bclose).any(|p| ft.sig_text(p).contains("assert"));
        if !asserted {
            out.push(diag_at(
                ft,
                rel_path,
                i,
                Rule::ShapeAssert,
                "multi-tensor op entry point without a shape assertion".to_string(),
            ));
        }
    }
}

/// The atomic memory orderings the audit recognises.
const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Atomic-ordering audit: `Ordering::Relaxed` counters are free only in
/// `crates/obs`; every other ordering use needs a justified allowlist entry.
fn atomic_pass(ft: &FileTokens<'_>, class: &FileClass, rel_path: &str, out: &mut Vec<Diagnostic>) {
    for i in 0..ft.sig_len() {
        if ft.sig_text(i) != "Ordering" || ft.sig_text(i + 1) != ":" || ft.sig_text(i + 2) != ":" {
            continue;
        }
        let kind = ft.sig_text(i + 3);
        if !ATOMIC_ORDERINGS.contains(&kind) || ft.sig_in_test(i) {
            continue;
        }
        if kind == "Relaxed" && class.atomic_relaxed_ok {
            continue;
        }
        let message = if kind == "Relaxed" {
            "`Ordering::Relaxed` outside crates/obs — atomics belong in the obs \
             registry; justify exceptions in lint.allow"
                .to_string()
        } else {
            format!(
                "`Ordering::{kind}` — stronger-than-Relaxed ordering needs a justified \
                 lint.allow entry explaining the happens-before edge it creates"
            )
        };
        out.push(diag_at(ft, rel_path, i, Rule::AtomicOrdering, message));
    }
}

/// Size accessors whose narrowing must be checked on persistence paths.
const SIZE_ACCESSORS: &[&str] = &["len", "rows", "cols", "num_nodes", "num_edges"];

/// Idents that mark a statement as already overflow-aware.
fn overflow_aware(t: &str) -> bool {
    t.starts_with("checked_")
        || t.starts_with("saturating_")
        || t == "with_capacity"
        || t == "reserve"
        || t.contains("assert")
        || t == "try_from"
}

/// Whether the statement around significant token `i` is overflow-aware.
/// The left edge is widened past unmatched openers to the enclosing
/// `;`/`{`/`}` so a wrapping call like `Vec::with_capacity(…)` is visible
/// from an argument expression.
fn stmt_overflow_aware(ft: &FileTokens<'_>, i: usize) -> bool {
    let (s, e) = ft.statement_range(i);
    let mut s2 = s;
    while s2 > 0 && !matches!(ft.sig_text(s2 - 1), ";" | "{" | "}") {
        s2 -= 1;
    }
    (s2..=e).any(|j| overflow_aware(ft.sig_text(j)))
}

/// Unchecked-arithmetic: on persistence paths, length/size narrowing and
/// length multiplication must go through checked helpers.
fn unchecked_pass(ft: &FileTokens<'_>, rel_path: &str, out: &mut Vec<Diagnostic>) {
    for i in 0..ft.sig_len() {
        if ft.sig_in_test(i) {
            continue;
        }
        let t = ft.sig_text(i);
        // `len() as u32` style narrowing of a size accessor.
        if SIZE_ACCESSORS.contains(&t)
            && ft.sig_text(i + 1) == "("
            && ft.sig_text(i + 2) == ")"
            && ft.sig_text(i + 3) == "as"
            && matches!(ft.sig_text(i + 4), "u16" | "u32")
        {
            if !stmt_overflow_aware(ft, i) {
                out.push(diag_at(
                    ft,
                    rel_path,
                    i,
                    Rule::UncheckedArith,
                    format!(
                        "unchecked narrowing `{}() as {}` on a persistence path — use a \
                         checked conversion helper",
                        t,
                        ft.sig_text(i + 4)
                    ),
                ));
            }
            continue;
        }
        // Binary `*` in a statement that computes with a length.
        if t == "*" {
            let binary = i > 0
                && (matches!(
                    ft.sig_kind(i - 1),
                    Some(TokenKind::Ident) | Some(TokenKind::NumLit)
                ) || matches!(ft.sig_text(i - 1), ")" | "]"));
            if !binary {
                continue;
            }
            let (s, e) = ft.statement_range(i);
            let has_len = (s..e).any(|j| {
                ft.sig_text(j) == "len" && ft.sig_text(j + 1) == "(" && ft.sig_text(j + 2) == ")"
            });
            if has_len && !stmt_overflow_aware(ft, i) {
                out.push(diag_at(
                    ft,
                    rel_path,
                    i,
                    Rule::UncheckedArith,
                    "unchecked length multiplication on a persistence path — use \
                     checked_mul"
                        .to_string(),
                ));
            }
        }
    }
}

/// The substrate DAG: which workspace crates each crate may list under
/// `[dependencies]`. A crate absent from the table is itself a finding
/// (extend the table when adding a crate).
const ALLOWED_DEPS: &[(&str, &[&str])] = &[
    ("par", &[]),
    ("faults", &[]),
    ("lint", &[]),
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

/// Crate-layering: checks the `[dependencies]` of one `crates/<x>/Cargo.toml`
/// (`rel_path`, workspace-relative) against the substrate DAG. Cargo rejects
/// source references to undeclared crates, so the manifest edges are the
/// whole dependency graph. Dev-dependencies are not checked: a test may
/// reach anywhere. Other paths yield no findings.
pub fn scan_manifest(rel_path: &str, text: &str) -> Vec<Diagnostic> {
    let Some(krate) = rel_path
        .strip_prefix("crates/")
        .and_then(|r| r.strip_suffix("/Cargo.toml"))
        .filter(|k| !k.contains('/'))
    else {
        return Vec::new();
    };
    let finding = |line: usize, snippet: &str, message: String| Diagnostic {
        file: rel_path.to_string(),
        line,
        col: 1,
        rule: Rule::CrateLayering,
        message,
        snippet: snippet.trim().to_string(),
    };
    let Some((_, allowed)) = ALLOWED_DEPS.iter().find(|(k, _)| *k == krate) else {
        return vec![finding(
            1,
            text.lines().next().unwrap_or(""),
            format!("crate `{krate}` is missing from the substrate DAG — add it to ALLOWED_DEPS"),
        )];
    };
    let mut out = Vec::new();
    let mut in_deps = false;
    for (idx, raw) in text.lines().enumerate() {
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
            out.push(finding(
                idx + 1,
                line,
                format!(
                    "layering violation: crate `{krate}` must not depend on `{dep}` — the \
                     substrate DAG only allows [{}]",
                    allowed.join(", ")
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_selects_rules_by_crate() {
        let t = classify("crates/tensor/src/ops.rs").expect("tensor file is scanned");
        assert!(t.shape_assert && t.epoch_loop);
        assert!(!t.atomic_relaxed_ok && !t.unchecked_arith);
        let b = classify("crates/bench/src/bin/exp_table4.rs").expect("bin file is scanned");
        assert!(b.epoch_loop && !b.shape_assert);
        let p = classify("crates/train/src/pipeline.rs").expect("train file is scanned");
        assert!(!p.epoch_loop, "the train crate owns the epoch loop");
        let o = classify("crates/obs/src/registry.rs").expect("obs file is scanned");
        assert!(o.atomic_relaxed_ok);
        let c = classify("crates/ckpt/src/frame.rs").expect("ckpt file is scanned");
        assert!(c.unchecked_arith);
        let s = classify("crates/graph/src/sharded.rs").expect("sharded file is scanned");
        assert!(s.unchecked_arith);
        let p = classify("crates/graph/src/persist.rs").expect("persist file is scanned");
        assert!(
            !p.unchecked_arith,
            "the frame does the snapshot's narrowing"
        );
        assert!(classify("crates/lint/tests/fixtures/x.rs").is_none());
        assert!(classify("third_party/rand/src/lib.rs").is_none());
    }

    #[test]
    fn cfg_test_blocks_are_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { for epoch in 0..2 {} }\n}\nfn tail() { for epoch in 0..2 {} }\n";
        let diags = scan_file("crates/eval/src/fake.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 6);
    }

    #[test]
    fn atomic_pass_permits_relaxed_only_in_obs() {
        let src = "fn f(c: &std::sync::atomic::AtomicU64) {\n    c.fetch_add(1, Ordering::Relaxed);\n    c.load(Ordering::SeqCst);\n}\n";
        let obs = scan_file("crates/obs/src/fake.rs", src);
        assert_eq!(obs.len(), 1, "{obs:?}");
        assert_eq!(obs[0].rule, Rule::AtomicOrdering);
        assert_eq!(obs[0].line, 3);
        let other = scan_file("crates/eval/src/fake.rs", src);
        assert_eq!(other.len(), 2, "{other:?}");
    }

    #[test]
    fn unchecked_pass_flags_narrowing_and_mul() {
        let src = "fn f(v: &[u8], out: &mut Vec<u8>) {\n    let n = v.len() as u32;\n    let bytes = 4 * v.len();\n    out.push(n as u8);\n    let _ = bytes;\n}\n";
        let diags = scan_file("crates/ckpt/src/fake.rs", src);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.rule == Rule::UncheckedArith));
    }

    #[test]
    fn unchecked_pass_accepts_checked_helpers() {
        let src = "fn f(v: &[u8]) -> u32 {\n    assert!(v.len() <= u32::MAX as usize);\n    let n = u32::try_from(v.len()).unwrap_or(u32::MAX);\n    n\n}\n";
        let diags: Vec<_> = scan_file("crates/ckpt/src/fake.rs", src)
            .into_iter()
            .filter(|d| d.rule == Rule::UncheckedArith)
            .collect();
        assert!(diags.is_empty(), "{diags:?}");
    }

    fn layering(rel_path: &str, manifest: &str) -> Vec<usize> {
        scan_manifest(rel_path, manifest)
            .iter()
            .map(|d| d.line)
            .collect()
    }

    #[test]
    fn manifest_layering_flags_edges_outside_the_dag() {
        let models = "[package]\nname = \"mhg-models\"\n\n[dependencies]\nrand.workspace = true\nmhg-train.workspace = true\nhybridgnn.workspace = true\n";
        assert_eq!(layering("crates/models/Cargo.toml", models), vec![7]);
        let tensor = "[dependencies]\n\"mhg-par\" = { path = \"../par\" }\n\n[dependencies.mhg-train]\npath = \"../train\"\n[target.'cfg(unix)'.dependencies]\nmhg-models.workspace = true\n";
        assert_eq!(layering("crates/tensor/Cargo.toml", tensor), vec![4, 7]);
        // Only crate manifests are checked.
        assert!(layering("crates/tensor/tests/Cargo.toml", tensor).is_empty());
    }

    #[test]
    fn manifest_layering_ignores_dev_dependencies() {
        let tensor = "[dependencies]\nmhg-par.workspace = true\n\n[dev-dependencies]\nmhg-train.workspace = true\nhybridgnn.workspace = true\n";
        assert!(layering("crates/tensor/Cargo.toml", tensor).is_empty());
    }

    #[test]
    fn manifest_layering_flags_crates_missing_from_the_dag() {
        let diags = scan_manifest(
            "crates/serve/Cargo.toml",
            "[package]\nname = \"mhg-serve\"\n",
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!((diags[0].rule, diags[0].line), (Rule::CrateLayering, 1));
    }
}
