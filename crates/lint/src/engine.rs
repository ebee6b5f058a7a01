//! Token-stream analysis context shared by every lint rule.
//!
//! [`FileTokens`] wraps one file's lexed token stream with the structural
//! facts the rules need: the significant-token view (whitespace and
//! comments dropped), `#[cfg(test)]` region marking at item granularity,
//! statement boundaries, and whitespace-insensitive needle matching over
//! token sequences.

use crate::lexer::{lex, Token, TokenKind};

/// One file's token stream plus derived structure.
pub struct FileTokens<'s> {
    /// The source text.
    pub src: &'s str,
    /// The complete lossless token stream.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of significant (non-trivia) tokens.
    pub sig: Vec<usize>,
    /// Per-*significant*-token flag: inside a `#[cfg(test)]` item.
    pub in_test: Vec<bool>,
    /// Raw source lines, for diagnostic snippets.
    pub lines: Vec<&'s str>,
}

impl<'s> FileTokens<'s> {
    /// Lexes `src` and computes the derived structure.
    pub fn new(src: &'s str) -> Self {
        let tokens = lex(src);
        let sig: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.is_significant().then_some(i))
            .collect();
        let mut ft = Self {
            src,
            tokens,
            sig,
            in_test: Vec::new(),
            lines: src.lines().collect(),
        };
        ft.in_test = ft.mark_test_regions();
        ft
    }

    /// The text of significant token `i` (an index into `self.sig`).
    pub fn sig_text(&self, i: usize) -> &'s str {
        self.sig
            .get(i)
            .and_then(|&ti| self.tokens.get(ti))
            .map_or("", |t| t.text(self.src))
    }

    /// The kind of significant token `i`.
    pub fn sig_kind(&self, i: usize) -> Option<TokenKind> {
        self.sig
            .get(i)
            .and_then(|&ti| self.tokens.get(ti))
            .map(|t| t.kind)
    }

    /// The 1-based line of significant token `i`.
    pub fn sig_line(&self, i: usize) -> usize {
        self.sig
            .get(i)
            .and_then(|&ti| self.tokens.get(ti))
            .map_or(1, |t| t.line)
    }

    /// The 1-based column of significant token `i`.
    pub fn sig_col(&self, i: usize) -> usize {
        self.sig
            .get(i)
            .and_then(|&ti| self.tokens.get(ti))
            .map_or(1, |t| t.col)
    }

    /// Number of significant tokens.
    pub fn sig_len(&self) -> usize {
        self.sig.len()
    }

    /// Whether significant token `i` is inside a `#[cfg(test)]` item.
    pub fn sig_in_test(&self, i: usize) -> bool {
        self.in_test.get(i).copied().unwrap_or(false)
    }

    /// The trimmed source line containing significant token `i`.
    pub fn snippet_at(&self, i: usize) -> &'s str {
        let line = self.sig_line(i);
        self.lines
            .get(line.saturating_sub(1))
            .map_or("", |l| l.trim())
    }

    /// Marks significant tokens covered by `#[cfg(test)]` items: from the
    /// attribute's `#` through the matching `}` of the item's body (or the
    /// `;` of a braceless item). Handles `cfg(all(test, …))`; deliberately
    /// ignores `cfg_attr(test, …)` because that item still exists in
    /// non-test builds.
    fn mark_test_regions(&self) -> Vec<bool> {
        let n = self.sig.len();
        let mut in_test = vec![false; n];
        let mut i = 0usize;
        while i < n {
            if self.sig_text(i) == "#" && self.sig_text(i + 1) == "[" {
                let Some(close) = self.matching(i + 1, "[", "]") else {
                    break;
                };
                if self.attr_is_cfg_test(i + 2, close) {
                    let end = self.item_end_after(close + 1).unwrap_or(n - 1);
                    for flag in in_test.iter_mut().take(end + 1).skip(i) {
                        *flag = true;
                    }
                    i = end + 1;
                    continue;
                }
                i = close + 1;
                continue;
            }
            i += 1;
        }
        in_test
    }

    /// Whether the attribute tokens in `(start..close)` spell a `cfg(…)`
    /// whose arguments mention the bare `test` predicate.
    fn attr_is_cfg_test(&self, start: usize, close: usize) -> bool {
        if self.sig_text(start) != "cfg" {
            return false;
        }
        (start + 1..close).any(|j| self.sig_text(j) == "test")
    }

    /// Finds the end of the item starting at significant index `from`
    /// (skipping any further attributes): the matching `}` of its first
    /// brace, or the `;` of a braceless item.
    fn item_end_after(&self, mut from: usize) -> Option<usize> {
        let n = self.sig.len();
        // Skip stacked attributes between the cfg and the item itself.
        while from < n && self.sig_text(from) == "#" && self.sig_text(from + 1) == "[" {
            from = self.matching(from + 1, "[", "]")? + 1;
        }
        let mut j = from;
        while j < n {
            match self.sig_text(j) {
                ";" => return Some(j),
                "{" => return self.matching(j, "{", "}"),
                "(" => j = self.matching(j, "(", ")")? + 1,
                "[" => j = self.matching(j, "[", "]")? + 1,
                _ => j += 1,
            }
        }
        None
    }

    /// Index of the significant token matching the opener at `open`
    /// (`open_t` / `close_t` are single-char delimiter texts).
    pub fn matching(&self, open: usize, open_t: &str, close_t: &str) -> Option<usize> {
        let mut depth = 0i64;
        let n = self.sig.len();
        let mut j = open;
        while j < n {
            let t = self.sig_text(j);
            if t == open_t {
                depth += 1;
            } else if t == close_t {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            j += 1;
        }
        None
    }

    /// The significant-index range of the statement containing `i`:
    /// expands left to just after the previous `;`/`{`/`}` at the same
    /// nesting depth, and right to the next `;` at the same depth (or a
    /// closing delimiter that dedents past the start). Both ends inclusive.
    pub fn statement_range(&self, i: usize) -> (usize, usize) {
        let n = self.sig.len();
        // Left scan.
        let mut start = i;
        let mut depth = 0i64;
        while start > 0 {
            let t = self.sig_text(start - 1);
            match t {
                ")" | "]" | "}" => depth += 1,
                "(" | "[" | "{" => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                ";" if depth == 0 => break,
                _ => {}
            }
            start -= 1;
        }
        // Right scan.
        let mut end = i;
        let mut depth = 0i64;
        while end + 1 < n {
            let t = self.sig_text(end);
            match t {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                }
                ";" if depth == 0 => break,
                _ => {}
            }
            end += 1;
        }
        (start, end)
    }
}

/// A rule needle: a sequence of significant token texts, produced by lexing
/// the needle source itself, so matching is whitespace- and line-break-
/// insensitive and identifier-boundary-exact.
#[derive(Debug, Clone)]
pub struct Needle {
    parts: Vec<String>,
}

/// Compiles a needle from its source form (e.g. `".unwrap()"` becomes the
/// token sequence `. unwrap ( )`).
pub fn needle(src: &str) -> Needle {
    let toks = lex(src);
    Needle {
        parts: toks
            .iter()
            .filter(|t| t.is_significant())
            .map(|t| t.text(src).to_string())
            .collect(),
    }
}

impl Needle {
    /// Whether the needle matches at significant index `at`.
    pub fn matches_at(&self, ft: &FileTokens<'_>, at: usize) -> bool {
        !self.parts.is_empty()
            && self
                .parts
                .iter()
                .enumerate()
                .all(|(k, p)| ft.sig_text(at + k) == p)
    }

    /// All significant indices where the needle matches.
    pub fn find_all(&self, ft: &FileTokens<'_>) -> Vec<usize> {
        if self.parts.is_empty() {
            return Vec::new();
        }
        (0..ft.sig_len())
            .filter(|&i| self.matches_at(ft, i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn needles_match_across_lines_and_whitespace() {
        let ft = FileTokens::new("fn f() { x\n    .expect\n    (\"msg\"); }");
        let n = needle(".expect(");
        assert_eq!(n.find_all(&ft).len(), 1);
    }

    #[test]
    fn needles_respect_identifier_boundaries() {
        let ft = FileTokens::new("memfs::write(a); fs::write(b);");
        let n = needle("fs::write");
        let hits = n.find_all(&ft);
        assert_eq!(hits.len(), 1, "memfs must not match fs");
        assert_eq!(ft.sig_col(hits[0]), 18);
    }

    #[test]
    fn cfg_test_regions_cover_items() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn tail() { y.unwrap(); }\n";
        let ft = FileTokens::new(src);
        let n = needle(".unwrap()");
        let hits = n.find_all(&ft);
        assert_eq!(hits.len(), 2);
        assert!(ft.sig_in_test(hits[0]));
        assert!(!ft.sig_in_test(hits[1]));
    }

    #[test]
    fn cfg_test_on_braceless_item_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn f() { x.unwrap(); }\n";
        let ft = FileTokens::new(src);
        let hits = needle(".unwrap()").find_all(&ft);
        assert_eq!(hits.len(), 1);
        assert!(!ft.sig_in_test(hits[0]));
    }

    #[test]
    fn cfg_all_test_counts_but_cfg_attr_does_not() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nmod a { fn t() { x.unwrap(); } }\n#[cfg_attr(test, allow(dead_code))]\nfn b() { y.unwrap(); }\n";
        let ft = FileTokens::new(src);
        let hits = needle(".unwrap()").find_all(&ft);
        assert_eq!(hits.len(), 2);
        assert!(ft.sig_in_test(hits[0]));
        assert!(!ft.sig_in_test(hits[1]));
    }

    #[test]
    fn statement_ranges_stop_at_semicolons() {
        let ft = FileTokens::new("let a = 1; let b = f(x, y); b.sort();");
        // Find the `f` call token.
        let f_at = (0..ft.sig_len()).find(|&i| ft.sig_text(i) == "f");
        let Some(f_at) = f_at else {
            panic!("token exists");
        };
        let (s, e) = ft.statement_range(f_at);
        let stmt: Vec<&str> = (s..=e).map(|i| ft.sig_text(i)).collect();
        assert_eq!(
            stmt,
            vec!["let", "b", "=", "f", "(", "x", ",", "y", ")", ";"]
        );
    }
}
