//! Coverage for the workspace `clippy.toml` bans: each test uses one banned
//! path or type under `#[expect]`. Deleting or misspelling a `clippy.toml`
//! entry leaves its expectation unfulfilled, which fails
//! `cargo clippy --all-targets -- -D warnings`. The uses are harmless, so
//! the tests also pass under plain `cargo test`.
//!
//! The lints denied by attributes need tests of their own, because an
//! `#[expect]` raises its lint by itself:
//! `every_library_crate_denies_the_panic_lints`,
//! `the_workspace_denies_unsafe_code` and
//! `the_codecs_deny_truncating_casts` below.

use std::path::{Path, PathBuf};

fn scratch_file(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mhg_clippy_bans_{name}"))
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

#[test]
#[expect(clippy::disallowed_types, reason = "exercises the ban")]
fn atomic_bool_is_banned() {
    let _ = std::sync::atomic::AtomicBool::new(false);
}

#[test]
#[expect(clippy::disallowed_types, reason = "exercises the ban")]
fn atomic_i8_is_banned() {
    let _ = std::sync::atomic::AtomicI8::new(0);
}

#[test]
#[expect(clippy::disallowed_types, reason = "exercises the ban")]
fn atomic_i16_is_banned() {
    let _ = std::sync::atomic::AtomicI16::new(0);
}

#[test]
#[expect(clippy::disallowed_types, reason = "exercises the ban")]
fn atomic_i32_is_banned() {
    let _ = std::sync::atomic::AtomicI32::new(0);
}

#[test]
#[expect(clippy::disallowed_types, reason = "exercises the ban")]
fn atomic_i64_is_banned() {
    let _ = std::sync::atomic::AtomicI64::new(0);
}

#[test]
#[expect(clippy::disallowed_types, reason = "exercises the ban")]
fn atomic_isize_is_banned() {
    let _ = std::sync::atomic::AtomicIsize::new(0);
}

#[test]
#[expect(clippy::disallowed_types, reason = "exercises the ban")]
fn atomic_u8_is_banned() {
    let _ = std::sync::atomic::AtomicU8::new(0);
}

#[test]
#[expect(clippy::disallowed_types, reason = "exercises the ban")]
fn atomic_u16_is_banned() {
    let _ = std::sync::atomic::AtomicU16::new(0);
}

#[test]
#[expect(clippy::disallowed_types, reason = "exercises the ban")]
fn atomic_u32_is_banned() {
    let _ = std::sync::atomic::AtomicU32::new(0);
}

#[test]
#[expect(clippy::disallowed_types, reason = "exercises the ban")]
fn atomic_u64_is_banned() {
    let _ = std::sync::atomic::AtomicU64::new(0);
}

#[test]
#[expect(clippy::disallowed_types, reason = "exercises the ban")]
fn atomic_usize_is_banned() {
    let _ = std::sync::atomic::AtomicUsize::new(0);
}

#[test]
#[expect(clippy::disallowed_types, reason = "exercises the ban")]
fn atomic_ptr_is_banned() {
    let _ = std::sync::atomic::AtomicPtr::new(std::ptr::null_mut::<u8>());
}

/// The panic lints are denied by a `#![deny]` in each library crate root.
/// An `#[expect(clippy::panic, …)]` raises its lint by itself, so deleting a
/// crate's `#![deny]` leaves every expectation fulfilled and clippy green
/// while new panics slip in. This test fails instead.
#[test]
fn every_library_crate_denies_the_panic_lints() {
    const DENY: &str = "#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]";
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut libs: Vec<PathBuf> = std::fs::read_dir(&crates)
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

/// `unsafe_code` is denied once, in the root manifest's
/// `[workspace.lints.rust]`, and the one `unsafe` call (the AVX2 instance
/// of the tiled GEMM) carries an `#[expect(unsafe_code, …)]`. That
/// expectation raises the lint by itself, so deleting the workspace line
/// would leave the build green while new `unsafe` slipped in anywhere.
/// This test fails instead.
#[test]
fn the_workspace_denies_unsafe_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("read Cargo.toml");
    let section: Vec<&str> = manifest
        .lines()
        .skip_while(|l| l.trim() != "[workspace.lints.rust]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(str::trim)
        .collect();
    assert!(
        section.contains(&r#"unsafe_code = "deny""#),
        "the root Cargo.toml's [workspace.lints.rust] must carry unsafe_code = \"deny\", found {section:?}"
    );
}

/// Persisted lengths are narrowed only through `mhg_ckpt::frame`'s asserted
/// `size_u32`/`size_u16`, whose casts carry an
/// `#[expect(clippy::cast_possible_truncation, …)]`. The lint is denied in
/// `mhg-ckpt` and in the graph's two codec modules; as with the panic
/// lints, deleting a deny would leave those expectations fulfilled and
/// clippy green while a bare `len() as u32` slipped in. This test fails
/// instead.
#[test]
fn the_codecs_deny_truncating_casts() {
    const DENY: &str = "#![deny(clippy::cast_possible_truncation)]";
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for file in [
        "crates/ckpt/src/lib.rs",
        "crates/graph/src/shard_codec.rs",
        "crates/graph/src/persist.rs",
    ] {
        let src = std::fs::read_to_string(root.join(file)).expect("read a codec source");
        assert!(
            src.lines().any(|l| l.trim() == DENY),
            "{file} must carry {DENY}"
        );
    }
}
