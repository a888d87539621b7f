//! Repo-specific static analysis for the simsub workspace.
//!
//! `cargo xtask lint` enforces invariants that rustc and clippy cannot see
//! because they are conventions of *this* codebase:
//!
//! - [`rules::STD_SYNC_IMPORT`]: facade-covered crates must route sync
//!   primitives through their `sync` facade module (which swaps in the
//!   loom shim under `--cfg simsub_loom`), never `std::sync` directly.
//! - [`rules::LOCK_UNWRAP`]: serve-path code must not unwrap/expect a
//!   poisoned lock — poison recovery goes through the named helpers in
//!   `fault.rs` (`lock_recover` and friends) so the policy is greppable.
//! - [`rules::KERNEL_CLOCK`]: DP kernels must not read wall clocks;
//!   timing hooks live in the scan driver, behind explicit gates.
//! - [`rules::ORDERING_COMMENT`]: every `Ordering::SeqCst` /
//!   `Ordering::Relaxed` use carries a `// ordering:` justification within
//!   two lines, so atomics-ordering decisions are documented at the site
//!   the model checker's relaxed-reliance report points at.
//! - [`rules::UNSAFE_COMMENT`]: every `unsafe` token (block, fn, impl)
//!   carries a `// Safety:` or `// SAFETY:` justification within two
//!   lines, so each unsafe site states why it is sound.
//!
//! False positives are suppressed via `xtask/lint-allow.txt`; every entry
//! names the rule, a path suffix, and (optionally) a substring of the
//! offending line, so entries survive line-number churn.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

pub mod lint;
pub mod rules;
pub mod scan;

/// CLI usage, shared by `main` and error paths.
pub const USAGE: &str = "usage: cargo xtask lint [--allowlist <file>] [<repo-root>]";

/// One lint finding, pointing at a specific file and line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Rule identifier (stable, used in allowlist entries).
    pub rule: &'static str,
    /// Path relative to the repo root.
    pub path: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub text: String,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message,
            self.text
        )
    }
}

/// One allowlist entry: `rule path-suffix [line-substring]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule identifier the entry applies to.
    pub rule: String,
    /// Matched against the end of the violation's path.
    pub path_suffix: String,
    /// When present, must also be a substring of the offending line.
    pub line_contains: Option<String>,
}

/// Parses the allowlist format: one entry per line, `#` comments,
/// whitespace-separated fields (rule, path suffix, optional substring —
/// the substring may itself contain spaces).
pub fn parse_allowlist(content: &str) -> Vec<AllowEntry> {
    content
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|line| {
            let mut parts = line.splitn(3, char::is_whitespace);
            let rule = parts.next()?.to_string();
            let path_suffix = parts.next()?.to_string();
            let line_contains = parts.next().map(|s| s.trim().to_string());
            Some(AllowEntry {
                rule,
                path_suffix,
                line_contains,
            })
        })
        .collect()
}

/// Whether `v` is suppressed by any allowlist entry.
pub fn is_allowed(v: &Violation, allow: &[AllowEntry]) -> bool {
    let path = v.path.to_string_lossy().replace('\\', "/");
    allow.iter().any(|a| {
        a.rule == v.rule
            && path.ends_with(&a.path_suffix)
            && a.line_contains
                .as_ref()
                .map(|s| v.text.contains(s.as_str()))
                .unwrap_or(true)
    })
}

/// Lints a single file's content. `rel` is the path relative to the repo
/// root; rules scope themselves by path.
pub fn lint_file(rel: &Path, content: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    for rule in rules::ALL {
        if (rule.applies)(rel) {
            (rule.check)(rel, content, &mut out);
        }
    }
    out
}

/// Recursively lints every `.rs` file under the scoped directories of
/// `root`, returning unsuppressed violations.
pub fn lint_root(root: &Path, allow: &[AllowEntry]) -> std::io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    for dir in rules::SCOPED_DIRS {
        let abs = root.join(dir);
        if abs.is_dir() {
            collect_rs(&abs, &mut files)?;
        }
    }
    files.sort();
    let mut out = Vec::new();
    for file in files {
        let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
        let content = std::fs::read_to_string(&file)?;
        out.extend(
            lint_file(&rel, &content)
                .into_iter()
                .filter(|v| !is_allowed(v, allow)),
        );
    }
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Entry point used by both the binary and tests: returns success iff the
/// tree is clean.
pub fn run_lint(root: &Path, allowlist: &Path) -> ExitCode {
    let allow = match std::fs::read_to_string(allowlist) {
        Ok(content) => parse_allowlist(&content),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => {
            eprintln!("xtask lint: cannot read {}: {e}", allowlist.display());
            return ExitCode::FAILURE;
        }
    };
    match lint_root(root, &allow) {
        Ok(violations) if violations.is_empty() => {
            println!("xtask lint: clean");
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            for v in &violations {
                eprintln!("{v}");
            }
            eprintln!("xtask lint: {} violation(s)", violations.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask lint: {e}");
            ExitCode::FAILURE
        }
    }
}
