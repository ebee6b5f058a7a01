//! End-to-end checks for the lint rules against known-bad fixture files,
//! plus a guard that the real workspace is clean under `lint.allow`.
//!
//! The fixtures live in `tests/fixtures/*.rs` and are never compiled; they
//! are fed to [`mhg_lint::scan_file`] under fabricated workspace-relative
//! paths so each rule's scoping applies as it would in the real tree.

use mhg_lint::{scan_file, Rule};

fn rules_fired(rel_path: &str, source: &str) -> Vec<(Rule, usize)> {
    scan_file(rel_path, source)
        .into_iter()
        .map(|d| (d.rule, d.line))
        .collect()
}

fn count(fired: &[(Rule, usize)], rule: Rule) -> usize {
    fired.iter().filter(|(r, _)| *r == rule).count()
}

#[test]
fn shape_fixture_fires_shape_assert_on_tensor_entry_points() {
    let src = include_str!("fixtures/bad_shape.rs");
    let in_ops = rules_fired("crates/tensor/src/ops.rs", src);
    // `unchecked_add` has no assert; `checked_mul` has one.
    assert_eq!(
        count(&in_ops, Rule::ShapeAssert),
        1,
        "diagnostics: {in_ops:?}"
    );
    // The rule only covers the tensor kernel files.
    let elsewhere = rules_fired("crates/models/src/ops.rs", src);
    assert_eq!(
        count(&elsewhere, Rule::ShapeAssert),
        0,
        "diagnostics: {elsewhere:?}"
    );
}

#[test]
fn clean_fixture_passes_every_rule() {
    // Scan under the strictest scoping: a tensor kernel file gets every rule.
    let fired = rules_fired(
        "crates/tensor/src/clean.rs",
        include_str!("fixtures/clean.rs"),
    );
    assert!(fired.is_empty(), "diagnostics: {fired:?}");
}

/// This needle is split across a line break, so a line-oriented scanner
/// cannot see it — prove that, then prove the token-stream engine does.
#[test]
fn multiline_needles_invisible_to_line_scanner_are_caught() {
    let src = include_str!("fixtures/bad_multiline.rs");
    // A line scanner's view: no single line contains these needles.
    let needle = "Ordering::SeqCst";
    assert!(
        !src.lines().any(|l| l.contains(needle)),
        "fixture drifted: `{needle}` fits on one line again"
    );
    let fired = rules_fired("crates/models/src/bad_multiline.rs", src);
    assert_eq!(fired, vec![(Rule::AtomicOrdering, 10)]);
}

#[test]
fn atomics_fixture_fires_outside_obs_only_for_relaxed() {
    let src = include_str!("fixtures/bad_atomics.rs");
    // Outside obs: Relaxed + Release + Acquire + SeqCst all fire; the
    // `#[cfg(test)]` SeqCst is exempt.
    let fired = rules_fired("crates/models/src/bad_atomics.rs", src);
    assert_eq!(
        count(&fired, Rule::AtomicOrdering),
        4,
        "diagnostics: {fired:?}"
    );
    // Inside obs: Relaxed is the blessed idiom, stronger orderings still
    // need justification.
    let in_obs = rules_fired("crates/obs/src/bad_atomics.rs", src);
    assert_eq!(
        count(&in_obs, Rule::AtomicOrdering),
        3,
        "diagnostics: {in_obs:?}"
    );
}

#[test]
fn unchecked_fixture_fires_on_persistence_paths_only() {
    let src = include_str!("fixtures/bad_unchecked.rs");
    // In ckpt: the bare `len() as u32`, `rows() as u16` and `8 * len()`.
    let in_ckpt = rules_fired("crates/ckpt/src/bad_unchecked.rs", src);
    assert_eq!(
        count(&in_ckpt, Rule::UncheckedArith),
        3,
        "diagnostics: {in_ckpt:?}"
    );
    // Outside the persistence paths the rule does not apply.
    let in_models = rules_fired("crates/models/src/bad_unchecked.rs", src);
    assert_eq!(
        count(&in_models, Rule::UncheckedArith),
        0,
        "diagnostics: {in_models:?}"
    );
}

#[test]
fn shard_len_fixture_fires_on_shard_store_paths() {
    let src = include_str!("fixtures/bad_shard_len.rs");
    // In the shard store: the bare `len() as u32` and `4 * len()`.
    for path in [
        "crates/graph/src/sharded.rs",
        "crates/graph/src/heal.rs",
        "crates/ckpt/src/frame.rs",
    ] {
        let fired = rules_fired(path, src);
        assert_eq!(
            count(&fired, Rule::UncheckedArith),
            2,
            "diagnostics for {path}: {fired:?}"
        );
    }
    // Other graph sources, the frame's callers included, are outside it.
    for path in [
        "crates/graph/src/csr.rs",
        "crates/graph/src/shard_codec.rs",
        "crates/graph/src/persist.rs",
    ] {
        let fired = rules_fired(path, src);
        assert_eq!(
            count(&fired, Rule::UncheckedArith),
            0,
            "diagnostics for {path}: {fired:?}"
        );
    }
}

#[test]
fn heal_fixture_fires_on_repair_codec_path() {
    let src = include_str!("fixtures/bad_heal_len.rs");
    // The rebuild-from-source repair path follows the same unchecked-arith
    // discipline as the codec it rewrites shards with.
    let fired = rules_fired("crates/graph/src/heal.rs", src);
    assert_eq!(
        count(&fired, Rule::UncheckedArith),
        2,
        "diagnostics: {fired:?}"
    );
    // The repair discipline does not leak into non-persistence graph code.
    let in_csr = rules_fired("crates/graph/src/csr.rs", src);
    assert_eq!(
        count(&in_csr, Rule::UncheckedArith),
        0,
        "diagnostics: {in_csr:?}"
    );
}

#[test]
fn dead_and_unjustified_allowlist_entries_are_reported() {
    let allow = mhg_lint::parse_allowlist(
        "# justified but matches nothing\n\
         atomic-ordering crates/models/src/gone.rs SeqCst\n\
         \n\
         atomic-ordering crates/models/src/bad_atomics.rs SeqCst\n",
    );
    let diags = mhg_lint::scan_file(
        "crates/models/src/bad_atomics.rs",
        include_str!("fixtures/bad_atomics.rs"),
    );
    let audit = mhg_lint::audit_allowlist(&allow, &diags);
    let rules: Vec<&str> = audit.iter().map(|d| d.rule.name()).collect();
    assert!(rules.contains(&"dead-allow"), "audit: {audit:?}");
    assert!(rules.contains(&"unjustified-allow"), "audit: {audit:?}");
}

fn workspace_root() -> std::path::PathBuf {
    let manifest_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest_dir
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

#[test]
fn workspace_is_clean_under_allowlist() {
    let root = workspace_root();
    let diags = mhg_lint::scan_workspace(&root).expect("scan the workspace");
    let allow_text = std::fs::read_to_string(root.join("lint.allow")).expect("read lint.allow");
    let allow = mhg_lint::parse_allowlist(&allow_text);
    let (allowed, open): (Vec<_>, Vec<_>) =
        diags.iter().partition(|d| mhg_lint::is_allowed(d, &allow));
    // The scan must have seen the code the allowlist exists for: a wrong
    // root or an empty allowlist would otherwise pass with nothing scanned.
    assert!(
        !allow.is_empty() && allowed.len() >= allow.len(),
        "{} allowlist entries but only {} allowlisted findings",
        allow.len(),
        allowed.len()
    );
    assert!(
        open.is_empty(),
        "workspace has unsuppressed lint violations:\n{}",
        open.iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n"),
    );
    // The allowlist itself must be healthy: every entry matches a live
    // diagnostic and carries a justification comment.
    let audit = mhg_lint::audit_allowlist(&allow, &diags);
    assert!(
        audit.is_empty(),
        "lint.allow has dead or unjustified entries:\n{}",
        audit
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n"),
    );
}

#[test]
fn missing_allowlist_is_an_error_not_an_empty_list() {
    let root = workspace_root();
    let result = mhg_lint::run(&root, &root.join("no-such-lint.allow"));
    assert!(result.is_err(), "got {result:?}");
}
