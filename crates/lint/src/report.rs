//! Allowlist handling, workspace scanning and report rendering.
//!
//! The allowlist format is one entry per line, `rule <path-suffix>
//! <needle…>`, with `#` comments and blank lines ignored. Every entry must
//! be *justified* — its contiguous block of non-blank lines must contain at
//! least one comment explaining why the finding is acceptable — and *live* —
//! it must suppress at least one current finding. Violations of either
//! policy are findings themselves ([`Rule::UnjustifiedAllow`],
//! [`Rule::DeadAllow`]) so the allowlist cannot silently rot.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::rules::{classify, scan_file, scan_manifest, Diagnostic, Rule};

/// One allowlist entry: `rule path-suffix needle…`.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule name the entry suppresses.
    pub rule: String,
    /// Suffix the diagnostic's file path must end with.
    pub path_suffix: String,
    /// Substring the offending source line must contain.
    pub needle: String,
    /// 1-based line of the entry in the allowlist file.
    pub line: usize,
    /// A comment line exists in the entry's contiguous block.
    pub justified: bool,
}

/// Parses the allowlist format: one entry per line,
/// `rule <path-suffix> <needle…>`, with `#` comments and blank lines
/// ignored. The needle is the rest of the line (it may contain spaces) and
/// is matched as a substring of the offending source line, so entries
/// survive unrelated line-number churn. A comment anywhere in an entry's
/// contiguous non-blank block counts as its justification.
pub fn parse_allowlist(text: &str) -> Vec<AllowEntry> {
    let mut entries = Vec::new();
    let mut block_has_comment = false;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            block_has_comment = false;
            continue;
        }
        if line.starts_with('#') {
            block_has_comment = true;
            continue;
        }
        let mut parts = line.splitn(3, char::is_whitespace);
        let (Some(rule), Some(path), Some(needle)) = (parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        entries.push(AllowEntry {
            rule: rule.to_string(),
            path_suffix: path.to_string(),
            needle: needle.trim().to_string(),
            line: idx + 1,
            justified: block_has_comment,
        });
    }
    entries
}

/// Whether one entry suppresses one diagnostic.
fn entry_matches(entry: &AllowEntry, diag: &Diagnostic) -> bool {
    entry.rule == diag.rule.name()
        && diag.file.ends_with(&entry.path_suffix)
        && diag.snippet.contains(&entry.needle)
}

/// Whether a diagnostic is suppressed by the allowlist.
pub fn is_allowed(diag: &Diagnostic, allow: &[AllowEntry]) -> bool {
    allow.iter().any(|e| entry_matches(e, diag))
}

/// Policy findings for the allowlist itself: entries that match no current
/// diagnostic are dead; entries whose block carries no comment are
/// unjustified. `all` must be the *unfiltered* scan results.
pub fn audit_allowlist(allow: &[AllowEntry], all: &[Diagnostic]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for entry in allow {
        let snippet = format!("{} {} {}", entry.rule, entry.path_suffix, entry.needle);
        if !all.iter().any(|d| entry_matches(entry, d)) {
            out.push(Diagnostic {
                file: "lint.allow".to_string(),
                line: entry.line,
                col: 1,
                rule: Rule::DeadAllow,
                message: format!(
                    "dead allowlist entry — no current `{}` finding matches `{}` / `{}`; \
                     delete it",
                    entry.rule, entry.path_suffix, entry.needle
                ),
                snippet: snippet.clone(),
            });
        }
        if !entry.justified {
            out.push(Diagnostic {
                file: "lint.allow".to_string(),
                line: entry.line,
                col: 1,
                rule: Rule::UnjustifiedAllow,
                message: "allowlist entry without a justification comment in its block".to_string(),
                snippet,
            });
        }
    }
    out
}

/// Recursively collects `.rs` and `Cargo.toml` files under `dir`.
fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") || path.ends_with("Cargo.toml") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scans every `crates/*/src/**.rs` file and `crates/*/Cargo.toml` manifest
/// under `root` and returns all findings (before allowlist filtering),
/// sorted by path and line.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    collect_files(&root.join("crates"), &mut files)?;
    files.sort();
    let mut diags = Vec::new();
    for file in files {
        let rel: String = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        if rel.ends_with("/Cargo.toml") {
            diags.extend(scan_manifest(&rel, &fs::read_to_string(&file)?));
        } else if classify(&rel).is_some() {
            diags.extend(scan_file(&rel, &fs::read_to_string(&file)?));
        }
    }
    Ok(diags)
}

/// Scans the workspace, applies and audits the allowlist, and prints one
/// `file:line:col: [rule] message` line per finding plus a summary line to
/// stdout.
///
/// Returns `Ok(true)` when no unsuppressed finding remains (allowlist
/// policy findings — dead or unjustified entries — count as findings). A
/// missing allowlist is an error, not an empty list: a mistyped path must
/// not turn every justified finding into a violation report.
pub fn run(root: &Path, allowlist_path: &Path) -> io::Result<bool> {
    let text = fs::read_to_string(allowlist_path)
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", allowlist_path.display())))?;
    let allow = parse_allowlist(&text);
    let all = scan_workspace(root)?;
    let (suppressed, mut reported): (Vec<_>, Vec<_>) =
        all.iter().cloned().partition(|d| is_allowed(d, &allow));
    reported.extend(audit_allowlist(&allow, &all));
    for d in &reported {
        println!("{d}");
    }
    println!(
        "mhg-lint: {} violation(s), {} allowlisted",
        reported.len(),
        suppressed.len()
    );
    Ok(reported.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowlist_roundtrip() {
        let entries = parse_allowlist(
            "# justified: the pool start reads a config cell\natomic-ordering crates/par/src/lib.rs Ordering::Relaxed\n",
        );
        assert_eq!(entries.len(), 1);
        assert!(entries[0].justified);
        assert_eq!(entries[0].line, 2);
        let diag = Diagnostic {
            file: "crates/par/src/lib.rs".to_string(),
            line: 10,
            col: 13,
            rule: Rule::AtomicOrdering,
            message: String::new(),
            snippet: "THREADS.load(Ordering::Relaxed)".to_string(),
        };
        assert!(is_allowed(&diag, &entries));
    }

    #[test]
    fn blank_line_resets_justification() {
        let entries = parse_allowlist("# a comment\n\nepoch-loop crates/x/src/a.rs for epoch\n");
        assert_eq!(entries.len(), 1);
        assert!(!entries[0].justified);
    }

    #[test]
    fn audit_flags_dead_and_unjustified_entries() {
        let entries = parse_allowlist(
            "# live and justified\nepoch-loop crates/x/src/a.rs for epoch\nshape-assert crates/x/src/a.rs pub fn add(\n\nepoch-loop crates/x/src/b.rs for epoch\n",
        );
        let all = vec![Diagnostic {
            file: "crates/x/src/a.rs".to_string(),
            line: 1,
            col: 1,
            rule: Rule::EpochLoop,
            message: String::new(),
            snippet: "for epoch in 0..n {".to_string(),
        }];
        let audit = audit_allowlist(&entries, &all);
        let dead: Vec<_> = audit.iter().filter(|d| d.rule == Rule::DeadAllow).collect();
        let unjust: Vec<_> = audit
            .iter()
            .filter(|d| d.rule == Rule::UnjustifiedAllow)
            .collect();
        assert_eq!(dead.len(), 2, "{audit:?}");
        assert_eq!(unjust.len(), 1, "{audit:?}");
        assert_eq!(unjust[0].line, 5);
    }
}
