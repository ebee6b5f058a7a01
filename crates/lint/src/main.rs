//! CLI for the workspace linter: `cargo run -p mhg-lint` (or `cargo lint`).
//!
//! Scans `crates/*/src/**.rs` and `crates/*/Cargo.toml` from the workspace
//! root, applies and audits the `lint.allow` allowlist, prints diagnostics
//! and exits nonzero when unsuppressed violations remain.
//!
//! Options:
//!
//! * `--root <dir>` — workspace root to scan (default: the root the binary
//!   was built in).
//! * `--allowlist <file>` — allowlist path (default: `<root>/lint.allow`);
//!   a missing file is an i/o error (exit 2).
#![expect(clippy::disallowed_macros, reason = "a CLI reports errors on stderr")]

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: mhg-lint [--root <dir>] [--allowlist <file>]";

fn main() -> ExitCode {
    let default_root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from);
    let mut root = default_root;
    let mut allowlist: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage("--root requires a directory"),
            },
            "--allowlist" => match args.next() {
                Some(v) => allowlist = Some(PathBuf::from(v)),
                None => return usage("--allowlist requires a file"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let Some(root) = root else {
        return usage("could not determine the workspace root; pass --root");
    };
    let allowlist = allowlist.unwrap_or_else(|| root.join("lint.allow"));

    match mhg_lint::run(&root, &allowlist) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mhg-lint: i/o error: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("mhg-lint: {problem}\n{USAGE}");
    ExitCode::from(2)
}
