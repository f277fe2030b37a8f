//! Workspace source lints.
//!
//! A deliberately small, dependency-free lint pass over the workspace's
//! `.rs` files, covering the two hazards this codebase has actually hit
//! or is structurally exposed to:
//!
//! * [`LINT_SAFETY`] — an `unsafe` block, impl, or fn without an adjacent
//!   `// SAFETY:` comment (or, for `unsafe fn` declarations, a `# Safety`
//!   doc section) stating the invariant that makes it sound;
//! * [`LINT_UNWRAP`] — `.unwrap()` (or an `.expect` with a vacuous
//!   message) in `crates/comm` / `crates/core` / `crates/solvers`
//!   non-test code, where a panic takes down a rank mid-collective.
//!
//! The scanner is line-based with a small token-level pass that strips
//! comments and string literals, so lints fire on code, not prose. Each
//! finding carries a `--fix`-style suggestion; an allowlist file
//! (`crates/verify/lint.allow`) can suppress known-good findings.

use std::fmt;
use std::path::{Path, PathBuf};

/// Lint id: `unsafe` without a `// SAFETY:` comment.
pub const LINT_SAFETY: &str = "safety-comment";
/// Lint id: `.unwrap()` / vacuous `.expect` in hot crates.
pub const LINT_UNWRAP: &str = "unwrap";

/// All lint ids, in reporting order.
pub const ALL_LINTS: [&str; 2] = [LINT_SAFETY, LINT_UNWRAP];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The lint that fired (one of [`ALL_LINTS`]).
    pub lint: &'static str,
    /// File the finding is in, workspace-relative.
    pub path: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// What is wrong.
    pub message: String,
    /// A `--fix`-style suggestion.
    pub suggestion: String,
    /// The trimmed source line (allowlist matching).
    pub snippet: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.lint,
            self.message
        )
    }
}

/// One allowlist entry: `lint-id | path-substring | line-substring`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Lint id the entry suppresses.
    pub lint: String,
    /// Substring the finding's path must contain.
    pub path: String,
    /// Substring the finding's source line must contain.
    pub snippet: String,
}

/// Parses an allowlist file: one `lint-id | path-sub | line-sub` entry per
/// line, `#` comments and blank lines ignored.
pub fn parse_allowlist(text: &str) -> Vec<AllowEntry> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.splitn(3, '|').map(str::trim);
            Some(AllowEntry {
                lint: parts.next()?.to_string(),
                path: parts.next()?.to_string(),
                snippet: parts.next()?.to_string(),
            })
        })
        .collect()
}

/// Whether `allow` suppresses `f`.
pub fn is_allowed(f: &Finding, allow: &[AllowEntry]) -> bool {
    allow.iter().any(|a| {
        a.lint == f.lint
            && f.path.to_string_lossy().contains(&a.path)
            && f.snippet.contains(&a.snippet)
    })
}

// -- source scanning --------------------------------------------------------

/// One source line split into its code and comment parts, with string and
/// char literal *contents* blanked out of the code part (the quotes stay,
/// so `.expect("msg")` still shows its argument boundaries — literal text
/// is recovered via [`string_literals`]).
#[derive(Debug, Clone, Default)]
pub struct LineView {
    /// Code with literal contents blanked.
    pub code: String,
    /// Comment text (line and block comments).
    pub comment: String,
}

/// Splits a file into per-line code/comment views, tracking multi-line
/// block comments and (non-nested) raw strings across lines.
pub fn scan_lines(text: &str) -> Vec<LineView> {
    let mut out = Vec::new();
    let mut in_block = 0usize; // block-comment nesting depth
    for line in text.lines() {
        let mut code = String::new();
        let mut comment = String::new();
        let bytes: Vec<char> = line.chars().collect();
        let mut i = 0;
        while i < bytes.len() {
            if in_block > 0 {
                if bytes[i] == '*' && bytes.get(i + 1) == Some(&'/') {
                    in_block -= 1;
                    i += 2;
                } else if bytes[i] == '/' && bytes.get(i + 1) == Some(&'*') {
                    in_block += 1;
                    i += 2;
                } else {
                    comment.push(bytes[i]);
                    i += 1;
                }
                continue;
            }
            match bytes[i] {
                '/' if bytes.get(i + 1) == Some(&'/') => {
                    comment.extend(&bytes[i..]);
                    break;
                }
                '/' if bytes.get(i + 1) == Some(&'*') => {
                    in_block += 1;
                    i += 2;
                }
                '"' => {
                    code.push('"');
                    i += 1;
                    while i < bytes.len() {
                        match bytes[i] {
                            '\\' => i += 2,
                            '"' => {
                                code.push('"');
                                i += 1;
                                break;
                            }
                            _ => {
                                code.push('\u{1}'); // placeholder, keeps lengths
                                i += 1;
                            }
                        }
                    }
                }
                '\'' => {
                    // char literal vs lifetime: a closing quote within two
                    // chars (or after an escape) means a literal.
                    let lit = match (bytes.get(i + 1), bytes.get(i + 2), bytes.get(i + 3)) {
                        (Some('\\'), _, Some('\'')) => Some(4),
                        (Some(_), Some('\''), _) => Some(3),
                        _ => None,
                    };
                    match lit {
                        Some(n) => {
                            code.push('\'');
                            for _ in 1..n {
                                code.push('\u{1}');
                            }
                            i += n;
                        }
                        None => {
                            code.push('\'');
                            i += 1;
                        }
                    }
                }
                c => {
                    code.push(c);
                    i += 1;
                }
            }
        }
        out.push(LineView { code, comment });
    }
    out
}

/// Extracts every `"..."` string literal from a source text (comments
/// excluded), as `(1-based line, contents)` pairs. Used by the unwrap
/// lint to read `.expect` messages.
pub fn string_literals(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let views = scan_lines(text);
    for (ln, (view, raw)) in views.iter().zip(text.lines()).enumerate() {
        // Walk the code view; literal spans are `"` + placeholders + `"`,
        // recover the real text from the raw line by column.
        let cv: Vec<char> = view.code.chars().collect();
        let rv: Vec<char> = raw.chars().collect();
        let mut i = 0;
        while i < cv.len() {
            if cv[i] == '"' {
                let start = i + 1;
                let mut j = start;
                while j < cv.len() && cv[j] != '"' {
                    j += 1;
                }
                if j < cv.len() && j <= rv.len() {
                    out.push((ln + 1, rv[start..j].iter().collect()));
                }
                i = j + 1;
            } else {
                i += 1;
            }
        }
    }
    out
}

/// Marks the lines of `views` that belong to `#[cfg(test)]` items by brace
/// tracking: from the attribute, through the item's opening brace, to the
/// matching close.
pub fn test_region_mask(views: &[LineView]) -> Vec<bool> {
    let mut mask = vec![false; views.len()];
    let mut depth = 0i64;
    let mut pending = false; // saw #[cfg(test)], waiting for the item's {
    let mut region_floor: Option<i64> = None;
    for (ln, v) in views.iter().enumerate() {
        let code = v.code.trim();
        if region_floor.is_none() && code.starts_with("#[cfg(test)]") {
            pending = true;
        }
        if pending || region_floor.is_some() {
            mask[ln] = true;
        }
        for c in v.code.chars() {
            match c {
                '{' => {
                    if pending {
                        region_floor = Some(depth);
                        pending = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if region_floor == Some(depth) {
                        region_floor = None;
                    }
                }
                _ => {}
            }
        }
    }
    mask
}

/// Whether `code` contains `needle` starting at a word boundary on both
/// sides (so `unsafe` does not match inside an identifier).
fn word_find(code: &str, needle: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(p) = code[from..].find(needle) {
        let at = from + p;
        let before_ok = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + needle.len();
        let after_ok = after >= code.len()
            || !code[after..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + needle.len();
    }
    None
}

// -- lint 1: unsafe without SAFETY comment ----------------------------------

/// Lints one file for `unsafe` sites lacking a `// SAFETY:` comment.
pub fn lint_safety(path: &Path, text: &str) -> Vec<Finding> {
    let views = scan_lines(text);
    let raw: Vec<&str> = text.lines().collect();
    let mut findings = Vec::new();
    for (ln, v) in views.iter().enumerate() {
        let Some(at) = word_find(&v.code, "unsafe") else {
            continue;
        };
        let rest = v.code[at + "unsafe".len()..].trim_start();
        let is_fn_decl = rest.starts_with("fn") || rest.starts_with("trait");
        // Same-line comment?
        if v.comment.contains("SAFETY:") {
            continue;
        }
        // Walk upward over comments, attributes, and a contiguous run of
        // sibling unsafe sites (one comment may cover the whole run).
        let mut satisfied = false;
        let mut k = ln;
        while k > 0 {
            k -= 1;
            let above = &views[k];
            let code = above.code.trim();
            let is_annotation = code.is_empty() || code.starts_with("#[") || code.starts_with("#!");
            if above.comment.contains("SAFETY:")
                || (is_fn_decl && above.comment.contains("# Safety"))
            {
                satisfied = true;
                break;
            }
            let in_run = word_find(code, "unsafe").is_some();
            // Pass through anything that isn't the end of an earlier
            // statement or block: expression prefixes (`let x =` above an
            // `unsafe {` line) and enclosing block openers (a comment above
            // a loop covers the unsafe inside it).
            let continuation = !code.is_empty() && !code.ends_with(';') && !code.ends_with('}');
            if !(is_annotation || in_run || continuation || !above.comment.is_empty()) {
                break;
            }
            if !is_annotation && !in_run && !continuation && !code.is_empty() {
                break; // trailing comment on an unrelated code line: stop
            }
        }
        if satisfied {
            continue;
        }
        let (message, suggestion) = if is_fn_decl {
            (
                "`unsafe fn` without a `# Safety` doc section or `// SAFETY:` comment".to_string(),
                "document the caller contract: add a `/// # Safety` section above the declaration"
                    .to_string(),
            )
        } else {
            (
                "`unsafe` without an adjacent `// SAFETY:` comment".to_string(),
                format!(
                    "insert `// SAFETY: <invariant that makes this sound>` above line {}",
                    ln + 1
                ),
            )
        };
        findings.push(Finding {
            lint: LINT_SAFETY,
            path: path.to_path_buf(),
            line: ln + 1,
            message,
            suggestion,
            snippet: raw.get(ln).map_or(String::new(), |s| s.trim().to_string()),
        });
    }
    findings
}

// -- lint 2: unwrap in hot crates -------------------------------------------

/// Shortest `.expect("...")` message that states an invariant rather than
/// restating the call.
const MIN_EXPECT_MESSAGE: usize = 8;

/// Whether this path is subject to the unwrap lint: the comm layer, the
/// engine, and the solvers that call the engine's fallible API.
pub fn unwrap_lint_applies(path: &Path) -> bool {
    let p = path.to_string_lossy().replace('\\', "/");
    [
        "crates/comm/src/",
        "crates/core/src/",
        "crates/solvers/src/",
    ]
    .iter()
    .any(|dir| p.contains(dir))
}

/// Lints one hot-crate file for `.unwrap()` and vacuous `.expect`.
pub fn lint_unwrap(path: &Path, text: &str) -> Vec<Finding> {
    let views = scan_lines(text);
    let mask = test_region_mask(&views);
    let raw: Vec<&str> = text.lines().collect();
    let lits = string_literals(text);
    let mut findings = Vec::new();
    for (ln, v) in views.iter().enumerate() {
        if mask[ln] {
            continue;
        }
        if v.code.contains(".unwrap()") {
            findings.push(Finding {
                lint: LINT_UNWRAP,
                path: path.to_path_buf(),
                line: ln + 1,
                message: "`.unwrap()` in non-test hot-path code".to_string(),
                suggestion: "replace with `.expect(\"<invariant>\")`, or propagate a typed \
                             `CommError`/matrix error on checked paths"
                    .to_string(),
                snippet: raw.get(ln).map_or(String::new(), |s| s.trim().to_string()),
            });
        }
        if v.code.contains(".expect(\"") {
            let vacuous = lits
                .iter()
                .filter(|(l, _)| *l == ln + 1)
                .any(|(_, s)| s.len() < MIN_EXPECT_MESSAGE)
                && lits.iter().filter(|(l, _)| *l == ln + 1).count() == 1;
            if vacuous {
                findings.push(Finding {
                    lint: LINT_UNWRAP,
                    path: path.to_path_buf(),
                    line: ln + 1,
                    message: "`.expect` message too thin to state an invariant".to_string(),
                    suggestion: "say *why* the value must exist, not that it does".to_string(),
                    snippet: raw.get(ln).map_or(String::new(), |s| s.trim().to_string()),
                });
            }
        }
    }
    findings
}

// -- driver -----------------------------------------------------------------

/// Finds the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// All `.rs` files under `root`, workspace-relative, skipping build and
/// VCS directories. Sorted for stable output.
pub fn rust_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            let name = e.file_name();
            let name = name.to_string_lossy();
            if p.is_dir() {
                if name != "target" && name != ".git" {
                    stack.push(p);
                }
            } else if name.ends_with(".rs") {
                out.push(
                    p.strip_prefix(root)
                        .map(Path::to_path_buf)
                        .unwrap_or(p.clone()),
                );
            }
        }
    }
    out.sort();
    out
}

/// Runs every lint (or just `only`) over the workspace at `root`.
/// Returns unsuppressed findings; I/O errors skip the file.
pub fn run_lints(root: &Path, only: Option<&str>) -> Vec<Finding> {
    let wants = |l: &str| only.is_none_or(|o| o == l);
    let mut findings = Vec::new();
    for rel in rust_files(root) {
        let Ok(text) = std::fs::read_to_string(root.join(&rel)) else {
            continue;
        };
        if wants(LINT_SAFETY) {
            findings.extend(lint_safety(&rel, &text));
        }
        if wants(LINT_UNWRAP) && unwrap_lint_applies(&rel) {
            findings.extend(lint_unwrap(&rel, &text));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn safety_lint_accepts_annotated_blocks() {
        let ok = r#"
fn f(p: *mut f64) {
    // SAFETY: p points into a live, disjoint allocation.
    unsafe { *p = 1.0 };
}
"#;
        assert!(lint_safety(Path::new("a.rs"), ok).is_empty());
    }

    #[test]
    fn safety_lint_flags_bare_unsafe() {
        let bad = "fn f(p: *mut f64) {\n    unsafe { *p = 1.0 };\n}\n";
        let f = lint_safety(Path::new("a.rs"), bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 2);
        assert_eq!(f[0].lint, LINT_SAFETY);
    }

    #[test]
    fn safety_lint_accepts_fn_with_safety_doc() {
        let ok = r#"
/// Does raw things.
///
/// # Safety
/// Caller must uphold the aliasing rules.
pub unsafe fn raw() {}
"#;
        assert!(lint_safety(Path::new("a.rs"), ok).is_empty());
    }

    #[test]
    fn safety_lint_ignores_unsafe_in_strings_and_comments() {
        let ok = "fn f() {\n    let s = \"unsafe\"; // unsafe mentioned here\n}\n";
        assert!(lint_safety(Path::new("a.rs"), ok).is_empty());
    }

    #[test]
    fn safety_lint_accepts_same_line_comment() {
        let ok = "fn f(p: *const u8) -> u8 {\n    unsafe { *p } // SAFETY: caller contract.\n}\n";
        assert!(lint_safety(Path::new("a.rs"), ok).is_empty());
    }

    #[test]
    fn unwrap_lint_skips_test_modules() {
        let text = r#"
fn hot() {
    let v: Option<u8> = None;
    v.unwrap();
}
#[cfg(test)]
mod tests {
    fn t() {
        let v: Option<u8> = None;
        v.unwrap();
    }
}
"#;
        let f = lint_unwrap(Path::new("crates/comm/src/x.rs"), text);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn unwrap_lint_flags_thin_expect() {
        let text = "fn f(v: Option<u8>) {\n    v.expect(\"oops\");\n    v.expect(\"send buffer sized at construction\");\n}\n";
        let f = lint_unwrap(Path::new("crates/core/src/x.rs"), text);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn unwrap_lint_covers_comm_engine_and_solvers() {
        for p in [
            "crates/comm/src/world.rs",
            "crates/core/src/engine.rs",
            "crates/solvers/src/operator.rs",
        ] {
            assert!(unwrap_lint_applies(Path::new(p)), "{p}");
        }
        for p in [
            "crates/solvers/tests/x.rs",
            "crates/bench/src/lib.rs",
            "tests/chaos.rs",
        ] {
            assert!(!unwrap_lint_applies(Path::new(p)), "{p}");
        }
    }

    #[test]
    fn allowlist_suppresses_matching_findings() {
        let f = Finding {
            lint: LINT_UNWRAP,
            path: PathBuf::from("crates/comm/src/world.rs"),
            line: 10,
            message: "m".into(),
            suggestion: "s".into(),
            snippet: "let x = q.unwrap();".into(),
        };
        let allow = parse_allowlist("# comment\nunwrap | comm/src/world.rs | q.unwrap()\n");
        assert!(is_allowed(&f, &allow));
        let other = parse_allowlist("unwrap | core/src/engine.rs | q.unwrap()\n");
        assert!(!is_allowed(&f, &other));
    }

    #[test]
    fn test_region_mask_tracks_braces() {
        let views = scan_lines("fn a() {}\n#[cfg(test)]\nmod t {\n    fn b() {}\n}\nfn c() {}\n");
        let mask = test_region_mask(&views);
        assert_eq!(mask, vec![false, true, true, true, true, false]);
    }
}
