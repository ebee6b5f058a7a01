//! Coverage for the workspace `clippy.toml` path bans: each test calls one
//! banned path under `#[expect]`. Deleting or misspelling a `clippy.toml`
//! entry leaves its expectation unfulfilled, which fails
//! `cargo clippy --all-targets -- -D warnings`. The calls are harmless, so
//! the tests also pass under plain `cargo test`.

use std::path::PathBuf;

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
