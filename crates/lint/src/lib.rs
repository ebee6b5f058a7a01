//! Workspace-specific static checks for the HybridGNN reproduction.
//!
//! `cargo run -p mhg-lint` (or the `cargo lint` alias) walks every
//! `crates/*/src/**.rs` file and `crates/*/Cargo.toml` manifest and enforces
//! the invariants that rustc and clippy cannot express for us. The scanner
//! is a real lossless lexer ([`lexer`]) — every byte of the source lands in
//! exactly one token, so raw strings, block comments and multi-line
//! expressions can neither hide nor fabricate findings — with structural
//! analyses ([`engine`]) layered on the significant-token stream.
//!
//! The other workspace bans belong to the compiler. `missing_docs = "deny"`
//! and `clippy::iter_over_hash_type` (no iteration over a `HashMap` or
//! `HashSet`, whose per-process order would leak into results) come from
//! `[workspace.lints]`. Every `crates/*/src/lib.rs` denies clippy's panic
//! family (`unwrap_used`, `expect_used`, `panic`, `unreachable`, `todo`,
//! `unimplemented`), which `clippy.toml` relaxes for test code. The
//! workspace `clippy.toml` bans the wall clock (`Instant::now`,
//! `SystemTime::now`), raw threads (`thread::spawn`, `thread::scope`), raw
//! file writes (`File::create`, `fs::write`) and `eprintln!`. Each
//! sanctioned site carries an `#[expect(clippy::…, reason = "…")]`. The
//! `rand` shim exports no entropy-seeded constructor, so rustc rejects
//! unseeded randomness.
//!
//! Rules ([`rules`]):
//!
//! * **shape-assert** — every tensor-op entry point combining two or more
//!   tensors (in `crates/tensor/src/{ops,tensor}.rs`) contains a shape
//!   assertion in its body.
//! * **atomic-ordering** — `Ordering::Relaxed` counters are permitted only
//!   in `crates/obs`; every other atomic-ordering use anywhere (including
//!   `Acquire`/`Release`/`SeqCst`) needs a justified `lint.allow` entry
//!   naming the happens-before edge it creates.
//! * **unchecked-arith** — length/size narrowing and length multiplication
//!   on persistence paths (`crates/ckpt`, `crates/graph/src/{sharded,heal}.rs`)
//!   must go through checked helpers: a silently wrapped length corrupts
//!   the archive instead of failing loudly.
//! * **crate-layering** — every `[dependencies]` edge in a crate manifest
//!   must follow the substrate DAG; `tensor`/`autograd`/`par` can never
//!   depend on `train`/`models`/`bench`, and a crate missing from the DAG
//!   is a finding.
//! * **dead-allow** / **unjustified-allow** — `lint.allow` entries that
//!   match no current finding, or carry no justification comment in their
//!   block, are findings themselves.
//!
//! Findings that are individually justified live in the `lint.allow` file
//! at the workspace root; see [`parse_allowlist`] for the format and
//! justification policy. The CLI prints one `file:line:col: [rule] message`
//! line per finding, the shape CI's problem matcher parses.
// Library code must not panic; clippy.toml exempts `#[cfg(test)]` code.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod engine;
pub mod lexer;
pub mod report;
pub mod rules;

pub use report::{audit_allowlist, is_allowed, parse_allowlist, run, scan_workspace, AllowEntry};
pub use rules::{classify, scan_file, Diagnostic, FileClass, Rule};
