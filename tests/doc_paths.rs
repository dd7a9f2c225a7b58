//! The docs cannot drift from the tree: every repo path that README.md,
//! DESIGN.md, EXPERIMENTS.md and the verify skill name under one of the
//! tree's top-level directories must exist. Globs (`results/BENCH_*.json`)
//! and brace patterns (`crates/tier/tests/{coherence,offload}.rs`) name
//! sets, not files, and are skipped, as are paths `.gitignore` marks as
//! generated output (`results/server_bench.json` exists only after a run).

use std::path::Path;

const DOCS: [&str; 4] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
];

const ROOTS: [&str; 7] = [
    "crates/",
    "tests/",
    "results/",
    "benchmark/",
    "compat/",
    "p4/",
    "examples/",
];

/// A character that can continue a path token.
fn in_path(c: char) -> bool {
    c.is_ascii_alphanumeric() || "_./-{},*".contains(c)
}

/// Every token of `text` that starts with one of [`ROOTS`] at a word
/// boundary, trailing punctuation trimmed.
fn repo_paths(text: &str) -> Vec<&str> {
    let mut paths = Vec::new();
    for (start, c) in text.char_indices() {
        if text[..start].ends_with(in_path) || !c.is_ascii_alphanumeric() {
            continue;
        }
        let rest = &text[start..];
        if !ROOTS.iter().any(|root| rest.starts_with(root)) {
            continue;
        }
        let end = rest.find(|c| !in_path(c)).unwrap_or(rest.len());
        paths.push(rest[..end].trim_end_matches(['.', ',', '-']));
    }
    paths
}

/// The `.gitignore` entries, as repo-relative paths.
fn ignored(root: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(root.join(".gitignore")).expect("read .gitignore");
    text.lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| line.trim_matches('/').to_owned())
        .collect()
}

#[test]
fn every_path_the_docs_name_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let ignored = ignored(root);
    let generated = |path: &str| {
        let path = path.trim_end_matches('/');
        ignored
            .iter()
            .any(|entry| path == entry || path.starts_with(&format!("{entry}/")))
    };
    let mut checked = 0;
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("read a doc");
        for (line_no, line) in text.lines().enumerate() {
            for path in repo_paths(line) {
                if path.contains(['*', '{']) || generated(path) {
                    continue;
                }
                checked += 1;
                if !root.join(path).exists() {
                    missing.push(format!("{doc}:{}: {path}", line_no + 1));
                }
            }
        }
    }
    assert!(
        checked > 100,
        "only {checked} paths found: the scan is broken"
    );
    assert!(
        missing.is_empty(),
        "{} doc paths name nothing in the tree:\n{}",
        missing.len(),
        missing.join("\n")
    );
}

#[test]
fn the_scan_finds_paths_and_skips_what_is_not_one() {
    let line = "see `crates/tier/src/switch.rs:110`, crates/server/tests/reactor.rs \
                and results/BENCH_*.json; not p4lru/x or --examples/y, (p4/a.p4).";
    assert_eq!(
        repo_paths(line),
        [
            "crates/tier/src/switch.rs",
            "crates/server/tests/reactor.rs",
            "results/BENCH_*.json",
            "p4/a.p4",
        ]
    );
}
