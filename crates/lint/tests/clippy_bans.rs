//! Coverage for the workspace `clippy.toml` path bans: each test calls one
//! banned path under `#[expect]`. Deleting or misspelling a `clippy.toml`
//! entry leaves its expectation unfulfilled, which fails
//! `cargo clippy --all-targets -- -D warnings`. The calls are harmless, so
//! the tests also pass under plain `cargo test`.
//!
//! The panic lints need a test of their own:
//! `every_library_crate_denies_the_panic_lints` below.

use std::path::{Path, PathBuf};

fn scratch_file(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mhg_lint_clippy_bans_{name}"))
}

#[test]
#[expect(clippy::disallowed_methods, reason = "exercises the ban")]
fn instant_now_is_banned() {
    let _ = std::time::Instant::now();
}

#[test]
#[expect(clippy::disallowed_methods, reason = "exercises the ban")]
fn system_time_now_is_banned() {
    let _ = std::time::SystemTime::now();
}

#[test]
#[expect(clippy::disallowed_methods, reason = "exercises the ban")]
fn thread_spawn_is_banned() {
    std::thread::spawn(|| {}).join().expect("empty thread");
}

#[test]
#[expect(clippy::disallowed_methods, reason = "exercises the ban")]
fn thread_scope_is_banned() {
    std::thread::scope(|_| {});
}

#[test]
#[expect(clippy::disallowed_methods, reason = "exercises the ban")]
fn file_create_is_banned() {
    let path = scratch_file("create");
    std::fs::File::create(&path).expect("create a temp file");
    std::fs::remove_file(&path).ok();
}

#[test]
#[expect(clippy::disallowed_methods, reason = "exercises the ban")]
fn fs_write_is_banned() {
    let path = scratch_file("write");
    std::fs::write(&path, b"x").expect("write a temp file");
    std::fs::remove_file(&path).ok();
}

#[test]
#[expect(clippy::disallowed_methods, reason = "exercises the ban")]
fn f32_mul_add_is_banned() {
    assert_eq!(2.0f32.mul_add(3.0, 1.0), 7.0);
}

#[test]
#[expect(clippy::disallowed_methods, reason = "exercises the ban")]
fn f64_mul_add_is_banned() {
    assert_eq!(2.0f64.mul_add(3.0, 1.0), 7.0);
}

#[test]
#[expect(clippy::disallowed_macros, reason = "exercises the ban")]
fn eprintln_is_banned() {
    eprintln!();
}

/// The panic lints are denied by a `#![deny]` in each library crate root.
/// An `#[expect(clippy::panic, …)]` raises its lint by itself, so deleting a
/// crate's `#![deny]` leaves every expectation fulfilled and clippy green
/// while new panics slip in. This test fails instead.
#[test]
fn every_library_crate_denies_the_panic_lints() {
    const DENY: &str = "#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]";
    let crates = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("crates/lint sits in crates/");
    let mut libs: Vec<PathBuf> = std::fs::read_dir(crates)
        .expect("list crates/")
        .map(|e| e.expect("crates/ entry").path().join("src/lib.rs"))
        .filter(|lib| lib.is_file())
        .collect();
    libs.sort();
    assert!(!libs.is_empty(), "no crates/*/src/lib.rs found");
    for lib in libs {
        let src = std::fs::read_to_string(&lib).expect("read lib.rs");
        assert!(src.contains(DENY), "{} must carry\n{DENY}", lib.display());
    }
}
