//! The lint rules and their path scopes.

use std::path::Path;

use crate::scan::scan;
use crate::Violation;

/// Rule id: no direct `std::sync` in facade-covered crates.
pub const STD_SYNC_IMPORT: &str = "std-sync-import";
/// Rule id: no `lock().unwrap()`-style poison handling on the serve path.
pub const LOCK_UNWRAP: &str = "lock-unwrap";
/// Rule id: no wall clocks inside DP kernels.
pub const KERNEL_CLOCK: &str = "kernel-clock";
/// Rule id: atomics orderings need a `// ordering:` justification.
pub const ORDERING_COMMENT: &str = "ordering-comment";
/// Rule id: every `unsafe` needs a `// Safety:` justification.
pub const UNSAFE_COMMENT: &str = "unsafe-comment";
/// Rule id: environment variables are read only at allowlisted sites.
pub const ENV_READ: &str = "env-read";

/// Directories scanned by `lint_root`, relative to the repo root. Scoping
/// the walk (rather than walking the whole tree) keeps fixture files and
/// vendored shims out of the default run.
pub const SCOPED_DIRS: &[&str] = &[
    "crates/service/src",
    "crates/core/src",
    "crates/measures/src",
    // The vendored epoll shim backs the reactor front end: it is leaf
    // code below the sync facade (so std-sync-import does not apply),
    // but lock handling and atomics orderings in it are serve-path
    // concerns like any other.
    "crates/shims/polling/src",
];

/// A lint rule: a path predicate plus a checker.
pub struct Rule {
    /// Stable rule identifier.
    pub id: &'static str,
    /// Whether the rule applies to this repo-relative path.
    pub applies: fn(&Path) -> bool,
    /// Appends violations for `content` to `out`.
    pub check: fn(&Path, &str, &mut Vec<Violation>),
}

/// Every rule, in reporting order.
pub const ALL: &[Rule] = &[
    Rule {
        id: STD_SYNC_IMPORT,
        applies: applies_std_sync,
        check: check_std_sync,
    },
    Rule {
        id: LOCK_UNWRAP,
        applies: applies_lock_unwrap,
        check: check_lock_unwrap,
    },
    Rule {
        id: KERNEL_CLOCK,
        applies: applies_kernel_clock,
        check: check_kernel_clock,
    },
    Rule {
        id: ORDERING_COMMENT,
        applies: applies_ordering,
        check: check_ordering,
    },
    Rule {
        id: UNSAFE_COMMENT,
        applies: applies_unsafe,
        check: check_unsafe,
    },
    Rule {
        id: ENV_READ,
        applies: applies_env_read,
        check: check_env_read,
    },
];

fn norm(path: &Path) -> String {
    path.to_string_lossy().replace('\\', "/")
}

fn in_dirs(path: &Path, dirs: &[&str]) -> bool {
    let p = norm(path);
    dirs.iter().any(|d| p.starts_with(d))
}

// ---------------------------------------------------------------------------
// std-sync-import
// ---------------------------------------------------------------------------

fn applies_std_sync(path: &Path) -> bool {
    let p = norm(path);
    in_dirs(path, &["crates/service/src", "crates/core/src"])
        // The facade modules themselves are the one sanctioned spot.
        && !p.ends_with("/sync.rs")
}

fn check_std_sync(path: &Path, content: &str, out: &mut Vec<Violation>) {
    let (stream, views) = scan(content);
    for line in stream.find_all("std::sync::") {
        push(out, STD_SYNC_IMPORT, path, line, &views,
            "direct std::sync use in a facade-covered crate; import from the crate's `sync` facade so `--cfg simsub_loom` can swap in the model checker");
    }
}

// ---------------------------------------------------------------------------
// lock-unwrap
// ---------------------------------------------------------------------------

fn applies_lock_unwrap(path: &Path) -> bool {
    in_dirs(path, &["crates/service/src"])
}

fn check_lock_unwrap(path: &Path, content: &str, out: &mut Vec<Violation>) {
    let (stream, views) = scan(content);
    // `.read()`/`.write()` with *empty* parens are RwLock acquisitions;
    // io::Read/Write calls always take arguments, so they never match.
    for acquire in [".lock()", ".read()", ".write()"] {
        for handler in [".unwrap()", ".expect(", ".unwrap_or_else("] {
            let needle = format!("{acquire}{handler}");
            for line in stream.find_all(&needle) {
                push(out, LOCK_UNWRAP, path, line, &views,
                    "poisoned-lock handling inline on the serve path; use the named recovery helpers (fault::lock_recover / read_recover / write_recover)");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// kernel-clock
// ---------------------------------------------------------------------------

fn applies_kernel_clock(path: &Path) -> bool {
    in_dirs(path, &["crates/measures/src", "crates/core/src"])
}

fn check_kernel_clock(path: &Path, content: &str, out: &mut Vec<Violation>) {
    let (stream, views) = scan(content);
    for needle in ["Instant::now", "SystemTime"] {
        for line in stream.find_all(needle) {
            push(out, KERNEL_CLOCK, path, line, &views,
                "wall-clock read inside kernel code; timing belongs in the scan driver behind an explicit gate so kernels stay deterministic");
        }
    }
}

// ---------------------------------------------------------------------------
// ordering-comment
// ---------------------------------------------------------------------------

fn applies_ordering(path: &Path) -> bool {
    in_dirs(path, &["crates/service/src", "crates/core/src"])
}

/// How far above the use an `// ordering:` or `// Safety:` comment may
/// sit (in lines).
const JUSTIFICATION_REACH: usize = 2;

/// Whether a line comment within [`JUSTIFICATION_REACH`] lines above
/// line `idx` (or on it) contains one of `markers`.
fn justified(views: &[crate::scan::LineView<'_>], idx: usize, markers: &[&str]) -> bool {
    let lo = idx.saturating_sub(JUSTIFICATION_REACH);
    views[lo..=idx]
        .iter()
        .any(|v| markers.iter().any(|m| v.comment.contains(m)))
}

fn check_ordering(path: &Path, content: &str, out: &mut Vec<Violation>) {
    let (_, views) = scan(content);
    for (idx, view) in views.iter().enumerate() {
        if !(view.code.contains("Ordering::SeqCst") || view.code.contains("Ordering::Relaxed")) {
            continue;
        }
        if !justified(&views, idx, &["ordering:"]) {
            push(out, ORDERING_COMMENT, path, idx + 1, &views,
                "SeqCst/Relaxed use without a `// ordering:` justification within 2 lines; say why this ordering is (in)sufficient");
        }
    }
}

// ---------------------------------------------------------------------------
// unsafe-comment
// ---------------------------------------------------------------------------

fn applies_unsafe(path: &Path) -> bool {
    in_dirs(path, SCOPED_DIRS)
}

/// Whether `code` holds the keyword `unsafe` as a whole token (not
/// `unsafe_code` or `is_unsafe`).
fn has_unsafe_token(code: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    code.match_indices("unsafe").any(|(at, word)| {
        let before = code[..at].chars().next_back();
        let after = code[at + word.len()..].chars().next();
        !before.is_some_and(ident) && !after.is_some_and(ident)
    })
}

fn check_unsafe(path: &Path, content: &str, out: &mut Vec<Violation>) {
    let (_, views) = scan(content);
    for (idx, view) in views.iter().enumerate() {
        if has_unsafe_token(&view.code) && !justified(&views, idx, &["Safety:", "SAFETY:"]) {
            push(out, UNSAFE_COMMENT, path, idx + 1, &views,
                "`unsafe` without a `// Safety:` (or `// SAFETY:`) justification within 2 lines; say what makes the unsafe operation sound");
        }
    }
}

// ---------------------------------------------------------------------------
// env-read
// ---------------------------------------------------------------------------

fn applies_env_read(path: &Path) -> bool {
    in_dirs(path, SCOPED_DIRS)
}

fn check_env_read(path: &Path, content: &str, out: &mut Vec<Violation>) {
    let (stream, views) = scan(content);
    // `env::var` also prefixes `var_os`, `vars` and `vars_os`.
    for line in stream.find_all("env::var") {
        push(out, ENV_READ, path, line, &views,
            "environment read outside the allowlist; a behaviour switch belongs in an explicit argument or config field, not a process-wide hatch");
    }
}

// ---------------------------------------------------------------------------

fn push(
    out: &mut Vec<Violation>,
    rule: &'static str,
    path: &Path,
    line: usize,
    views: &[crate::scan::LineView<'_>],
    message: &str,
) {
    let text = views
        .get(line - 1)
        .map(|v| v.raw.trim().to_string())
        .unwrap_or_default();
    out.push(Violation {
        rule,
        path: path.to_path_buf(),
        line,
        text,
        message: message.to_string(),
    });
}
