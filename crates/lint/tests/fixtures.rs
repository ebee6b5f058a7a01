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
fn panic_fixture_fires_no_panic_only_outside_tests() {
    let fired = rules_fired(
        "crates/models/src/bad_panics.rs",
        include_str!("fixtures/bad_panics.rs"),
    );
    // unwrap, expect, panic!, todo!, unreachable! — one each, and the
    // unwrap inside `#[cfg(test)]` must NOT count.
    assert_eq!(count(&fired, Rule::NoPanic), 5, "diagnostics: {fired:?}");
}

#[test]
fn panic_fixture_is_exempt_in_bin_targets() {
    let fired = rules_fired(
        "crates/bench/src/bin/bad_panics.rs",
        include_str!("fixtures/bad_panics.rs"),
    );
    assert_eq!(count(&fired, Rule::NoPanic), 0, "diagnostics: {fired:?}");
}

#[test]
fn write_fixture_fires_raw_file_write_outside_ckpt() {
    let src = include_str!("fixtures/bad_write.rs");
    // File::create + fs::write outside tests; the #[cfg(test)] write is
    // exempt.
    let fired = rules_fired("crates/bench/src/bad_write.rs", src);
    assert_eq!(
        count(&fired, Rule::RawFileWrite),
        2,
        "diagnostics: {fired:?}"
    );
    // The ckpt crate owns the atomic writer and is exempt.
    let in_ckpt = rules_fired("crates/ckpt/src/bad_write.rs", src);
    assert_eq!(
        count(&in_ckpt, Rule::RawFileWrite),
        0,
        "diagnostics: {in_ckpt:?}"
    );
    // Bin targets are NOT exempt: result writers must also be atomic.
    let in_bin = rules_fired("crates/bench/src/bin/bad_write.rs", src);
    assert_eq!(
        count(&in_bin, Rule::RawFileWrite),
        2,
        "diagnostics: {in_bin:?}"
    );
}

#[test]
fn eprintln_fixture_fires_outside_obs_and_bins() {
    let src = include_str!("fixtures/bad_eprintln.rs");
    // Two raw eprintln!s outside tests; the #[cfg(test)] one is exempt.
    let fired = rules_fired("crates/train/src/bad_eprintln.rs", src);
    assert_eq!(count(&fired, Rule::NoEprintln), 2, "diagnostics: {fired:?}");
    // The obs crate owns the stderr sink and is exempt.
    let in_obs = rules_fired("crates/obs/src/bad_eprintln.rs", src);
    assert_eq!(
        count(&in_obs, Rule::NoEprintln),
        0,
        "diagnostics: {in_obs:?}"
    );
    // Binary entry points talk to humans directly and are exempt.
    let in_bin = rules_fired("crates/bench/src/bin/bad_eprintln.rs", src);
    assert_eq!(
        count(&in_bin, Rule::NoEprintln),
        0,
        "diagnostics: {in_bin:?}"
    );
    let in_main = rules_fired("crates/lint/src/main.rs", src);
    assert_eq!(
        count(&in_main, Rule::NoEprintln),
        0,
        "diagnostics: {in_main:?}"
    );
}

#[test]
fn rng_fixture_fires_unseeded_rng() {
    let fired = rules_fired(
        "crates/sampling/src/bad_rng.rs",
        include_str!("fixtures/bad_rng.rs"),
    );
    // thread_rng, from_entropy, rand::random.
    assert_eq!(
        count(&fired, Rule::UnseededRng),
        3,
        "diagnostics: {fired:?}"
    );
}

#[test]
fn clock_fixture_fires_wall_clock_in_model_crates_only() {
    let src = include_str!("fixtures/bad_clock.rs");
    // std::time (use + return type), Instant::now, SystemTime::now.
    let in_models = rules_fired("crates/models/src/bad_clock.rs", src);
    assert_eq!(
        count(&in_models, Rule::WallClock),
        4,
        "diagnostics: {in_models:?}"
    );
    // The eval crate is allowed to measure wall-clock time.
    let in_eval = rules_fired("crates/eval/src/bad_clock.rs", src);
    assert_eq!(
        count(&in_eval, Rule::WallClock),
        0,
        "diagnostics: {in_eval:?}"
    );
}

#[test]
fn docs_fixture_fires_missing_docs_in_substrate_crates_only() {
    let src = include_str!("fixtures/bad_docs.rs");
    let in_tensor = rules_fired("crates/tensor/src/bad_docs.rs", src);
    // Only `undocumented` — the documented and private fns are fine.
    assert_eq!(
        count(&in_tensor, Rule::MissingDocs),
        1,
        "diagnostics: {in_tensor:?}"
    );
    // Doc coverage is not (yet) enforced outside tensor/autograd/graph.
    let in_models = rules_fired("crates/models/src/bad_docs.rs", src);
    assert_eq!(
        count(&in_models, Rule::MissingDocs),
        0,
        "diagnostics: {in_models:?}"
    );
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
fn epoch_fixture_fires_everywhere_but_the_train_crate() {
    let src = include_str!("fixtures/bad_epoch.rs");
    // One loop in library code; the `#[cfg(test)]` loop is exempt.
    let in_models = rules_fired("crates/models/src/bad_epoch.rs", src);
    assert_eq!(
        count(&in_models, Rule::EpochLoop),
        1,
        "diagnostics: {in_models:?}"
    );
    // Experiment binaries must not hand-roll epoch loops either.
    let in_bin = rules_fired("crates/bench/src/bin/bad_epoch.rs", src);
    assert_eq!(
        count(&in_bin, Rule::EpochLoop),
        1,
        "diagnostics: {in_bin:?}"
    );
    // The pipeline crate owns the loop.
    let in_train = rules_fired("crates/train/src/bad_epoch.rs", src);
    assert_eq!(
        count(&in_train, Rule::EpochLoop),
        0,
        "diagnostics: {in_train:?}"
    );
}

#[test]
fn thread_fixture_fires_raw_thread_outside_pool_crates() {
    let src = include_str!("fixtures/bad_thread.rs");
    // thread::spawn + thread::scope in library code; the `#[cfg(test)]`
    // spawn is exempt.
    let in_models = rules_fired("crates/models/src/bad_thread.rs", src);
    assert_eq!(
        count(&in_models, Rule::RawThread),
        2,
        "diagnostics: {in_models:?}"
    );
    // The pool crate and the pipeline crate own their threads.
    let in_par = rules_fired("crates/par/src/bad_thread.rs", src);
    assert_eq!(
        count(&in_par, Rule::RawThread),
        0,
        "diagnostics: {in_par:?}"
    );
    let in_train = rules_fired("crates/train/src/bad_thread.rs", src);
    assert_eq!(
        count(&in_train, Rule::RawThread),
        0,
        "diagnostics: {in_train:?}"
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

/// Satellite 1 regression: these needles are split across line breaks, so a
/// line-oriented scanner cannot see them — prove that, then prove the
/// token-stream engine does.
#[test]
fn multiline_needles_invisible_to_line_scanner_are_caught() {
    let src = include_str!("fixtures/bad_multiline.rs");
    // The old scanner's view: no single line contains these needles.
    for needle in [".expect(", "for epoch in"] {
        assert!(
            !src.lines().any(|l| l.contains(needle)),
            "fixture drifted: `{needle}` fits on one line again"
        );
    }
    // The only single-line occurrences of `fs::write` / `rand::random` are
    // the *false-positive* bait inside `memfs::write` / `my_rand::random` —
    // a substring scanner would flag those and miss the real split call.
    for (needle, bait) in [("fs::write", "memfs"), ("rand::random", "my_rand")] {
        assert!(
            src.lines()
                .filter(|l| l.contains(needle))
                .all(|l| l.contains(bait)),
            "fixture drifted: `{needle}` appears outside its `{bait}` bait line"
        );
    }
    let fired = rules_fired("crates/models/src/bad_multiline.rs", src);
    assert_eq!(count(&fired, Rule::NoPanic), 1, "diagnostics: {fired:?}");
    assert_eq!(count(&fired, Rule::EpochLoop), 1, "diagnostics: {fired:?}");
    // Exactly the split `std::fs::↵write` call — not the `memfs::write` bait.
    let writes: Vec<usize> = fired
        .iter()
        .filter(|(r, _)| *r == Rule::RawFileWrite)
        .map(|&(_, line)| line)
        .collect();
    assert_eq!(writes.len(), 1, "diagnostics: {fired:?}");
    // Identifier-boundary exactness: `my_rand::random` must NOT fire.
    assert_eq!(
        count(&fired, Rule::UnseededRng),
        0,
        "diagnostics: {fired:?}"
    );
}

#[test]
fn hash_iter_fixture_fires_ordered_iteration() {
    let fired = rules_fired(
        "crates/models/src/bad_hash_iter.rs",
        include_str!("fixtures/bad_hash_iter.rs"),
    );
    // The for-loop and the `.keys()` chain; the sorted, BTreeMap and
    // `#[cfg(test)]` iterations are exempt.
    assert_eq!(
        count(&fired, Rule::OrderedIteration),
        2,
        "diagnostics: {fired:?}"
    );
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
fn layering_fixture_fires_on_inverted_dependencies() {
    let src = include_str!("fixtures/bad_layering.rs");
    // tensor must not reach up into train or bench; par is fine.
    let in_tensor = rules_fired("crates/tensor/src/bad_layering.rs", src);
    assert_eq!(
        count(&in_tensor, Rule::CrateLayering),
        2,
        "diagnostics: {in_tensor:?}"
    );
    // models may depend on train, but not on bench — and not on par, which
    // it reaches only indirectly through the train pipeline.
    let in_models = rules_fired("crates/models/src/bad_layering.rs", src);
    assert_eq!(
        count(&in_models, Rule::CrateLayering),
        2,
        "diagnostics: {in_models:?}"
    );
}

#[test]
fn dead_and_unjustified_allowlist_entries_are_reported() {
    let allow = mhg_lint::parse_allowlist(
        "# justified but matches nothing\n\
         no-panic crates/models/src/gone.rs .unwrap()\n\
         \n\
         unseeded-rng crates/models/src/bad_rng.rs thread_rng\n",
    );
    let diags = mhg_lint::scan_file(
        "crates/models/src/bad_rng.rs",
        include_str!("fixtures/bad_rng.rs"),
    );
    let audit = mhg_lint::audit_allowlist(&allow, &diags);
    let rules: Vec<&str> = audit.iter().map(|d| d.rule.name()).collect();
    assert!(rules.contains(&"dead-allow"), "audit: {audit:?}");
    assert!(rules.contains(&"unjustified-allow"), "audit: {audit:?}");
}

#[test]
fn workspace_is_clean_under_allowlist() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(std::path::Path::to_path_buf)
        .unwrap_or_default();
    let diags = mhg_lint::scan_workspace(&root).unwrap_or_default();
    let allow_text = std::fs::read_to_string(root.join("lint.allow")).unwrap_or_default();
    let allow = mhg_lint::parse_allowlist(&allow_text);
    let open: Vec<_> = diags
        .iter()
        .filter(|d| !mhg_lint::is_allowed(d, &allow))
        .collect();
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
