//! End-to-end linter tests over seeded fixture trees.
//!
//! `tests/fixtures/` mirrors the scoped directory layout
//! (`crates/*/src`) with files that deliberately violate each rule —
//! plus in-comment/in-string decoys that must *not* fire. The tests pin
//! the exact (rule, file, line) set so a regression in the scanner or a
//! rule's scope shows up as a diff, not a green run.

use std::path::{Path, PathBuf};

use xtask::rules::{
    ENV_READ, KERNEL_CLOCK, LOCK_UNWRAP, ORDERING_COMMENT, STD_SYNC_IMPORT, UNSAFE_COMMENT,
};
use xtask::{is_allowed, lint_root, parse_allowlist, AllowEntry, Violation};

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Sorted (rule, path, line) keys for set comparison.
fn keys(violations: &[Violation]) -> Vec<(String, String, usize)> {
    let mut out: Vec<_> = violations
        .iter()
        .map(|v| {
            (
                v.rule.to_string(),
                v.path.to_string_lossy().replace('\\', "/"),
                v.line,
            )
        })
        .collect();
    out.sort();
    out
}

fn expected() -> Vec<(String, String, usize)> {
    let mut want: Vec<(String, String, usize)> = [
        (STD_SYNC_IMPORT, "crates/service/src/bad.rs", 3),
        (LOCK_UNWRAP, "crates/service/src/bad.rs", 6),
        (LOCK_UNWRAP, "crates/service/src/bad.rs", 10),
        (LOCK_UNWRAP, "crates/service/src/bad.rs", 15),
        (ORDERING_COMMENT, "crates/service/src/bad.rs", 19),
        (ORDERING_COMMENT, "crates/service/src/bad.rs", 26),
        (KERNEL_CLOCK, "crates/core/src/kernel.rs", 3),
        (KERNEL_CLOCK, "crates/measures/src/clocked.rs", 3),
        (KERNEL_CLOCK, "crates/measures/src/clocked.rs", 4),
        (UNSAFE_COMMENT, "crates/core/src/unsafety.rs", 5),
        (UNSAFE_COMMENT, "crates/core/src/unsafety.rs", 12),
        (UNSAFE_COMMENT, "crates/core/src/unsafety.rs", 15),
        (ENV_READ, "crates/core/src/env_hatch.rs", 4),
        (ENV_READ, "crates/core/src/env_hatch.rs", 8),
    ]
    .into_iter()
    .map(|(r, p, l)| (r.to_string(), p.to_string(), l))
    .collect();
    want.sort();
    want
}

#[test]
fn each_rule_fires_at_the_seeded_file_and_line_and_decoys_stay_silent() {
    let violations = lint_root(&fixtures_root(), &[]).unwrap();
    assert_eq!(keys(&violations), expected());
}

#[test]
fn cross_line_match_reports_the_line_where_the_acquisition_starts() {
    let violations = lint_root(&fixtures_root(), &[]).unwrap();
    let v = violations
        .iter()
        .find(|v| v.rule == LOCK_UNWRAP && v.line == 10)
        .expect("cross-line lock-unwrap violation");
    assert_eq!(v.text, "*m.lock()");
}

#[test]
fn facade_module_is_exempt_from_the_std_sync_rule() {
    let violations = lint_root(&fixtures_root(), &[]).unwrap();
    assert!(
        violations
            .iter()
            .all(|v| !v.path.to_string_lossy().ends_with("sync.rs")),
        "facade fixture must not produce violations"
    );
}

#[test]
fn allowlist_suppresses_by_rule_and_path() {
    let allow = parse_allowlist("lock-unwrap service/src/bad.rs\n");
    let violations = lint_root(&fixtures_root(), &allow).unwrap();
    let got = keys(&violations);
    assert!(got.iter().all(|(r, _, _)| r != LOCK_UNWRAP));
    assert_eq!(got.len(), expected().len() - 3);
}

#[test]
fn allowlist_substring_narrows_to_single_sites() {
    // Suppress only the SeqCst ordering violation (line 19), not the
    // Relaxed one (line 26) in the same file.
    let allow = parse_allowlist("ordering-comment service/src/bad.rs Ordering::SeqCst\n");
    let violations = lint_root(&fixtures_root(), &allow).unwrap();
    let ordering: Vec<usize> = violations
        .iter()
        .filter(|v| v.rule == ORDERING_COMMENT)
        .map(|v| v.line)
        .collect();
    assert_eq!(ordering, vec![26]);
}

#[test]
fn env_read_fires_on_a_decoy_and_stays_silent_on_the_allowlisted_line() {
    let allow = parse_allowlist("env-read core/src/env_hatch.rs SIMSUB_ALLOWED\n");
    let violations = lint_root(&fixtures_root(), &allow).unwrap();
    let env_reads: Vec<(usize, &str)> = violations
        .iter()
        .filter(|v| v.rule == ENV_READ)
        .map(|v| (v.line, v.text.as_str()))
        .collect();
    assert_eq!(
        env_reads,
        vec![(4, "std::env::var(\"SIMSUB_DECOY\").is_ok()")]
    );
}

#[test]
fn allowlist_parser_skips_comments_and_keeps_spaced_substrings() {
    let entries = parse_allowlist(
        "# a comment\n\n  kernel-clock core/src/topk.rs Instant :: now\nlock-unwrap fault.rs\n",
    );
    assert_eq!(
        entries,
        vec![
            AllowEntry {
                rule: "kernel-clock".into(),
                path_suffix: "core/src/topk.rs".into(),
                line_contains: Some("Instant :: now".into()),
            },
            AllowEntry {
                rule: "lock-unwrap".into(),
                path_suffix: "fault.rs".into(),
                line_contains: None,
            },
        ]
    );
}

#[test]
fn is_allowed_requires_all_three_fields_to_match() {
    let v = Violation {
        rule: "lock-unwrap",
        path: PathBuf::from("crates/service/src/fault.rs"),
        line: 396,
        text: "lock.lock()".to_string(),
        message: String::new(),
    };
    let hit = parse_allowlist("lock-unwrap service/src/fault.rs lock.\n");
    let wrong_rule = parse_allowlist("kernel-clock service/src/fault.rs lock.\n");
    let wrong_path = parse_allowlist("lock-unwrap service/src/engine.rs lock.\n");
    let wrong_text = parse_allowlist("lock-unwrap service/src/fault.rs unwrap_or_else\n");
    assert!(is_allowed(&v, &hit));
    assert!(!is_allowed(&v, &wrong_rule));
    assert!(!is_allowed(&v, &wrong_path));
    assert!(!is_allowed(&v, &wrong_text));
}

/// The committed tree must be clean under the committed allowlist — the
/// same invariant CI enforces by running `cargo xtask lint`.
#[test]
fn repo_tree_is_clean_under_committed_allowlist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask sits under the repo root")
        .to_path_buf();
    let allow = parse_allowlist(
        &std::fs::read_to_string(root.join("xtask/lint-allow.txt")).expect("committed allowlist"),
    );
    let violations = lint_root(&root, &allow).unwrap();
    assert!(
        violations.is_empty(),
        "workspace has lint violations:\n{}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
