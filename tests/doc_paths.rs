//! The docs cannot drift from the tree: every repo path that README.md,
//! DESIGN.md, EXPERIMENTS.md and the verify skill name under one of the
//! tree's top-level directories must exist. Globs (`results/BENCH_*.json`)
//! and brace patterns (`crates/tier/tests/{coherence,offload}.rs`) name
//! sets, not files, and are skipped, as are paths `.gitignore` marks as
//! generated output (`results/server_bench.json` exists only after a run).
//! The same docs and the CI workflow name only binaries that exist: what
//! follows `target/release/` or `--bin ` is a `crates/*/src/bin/` file's
//! name or the benchmark harness's `p4lru_benchmark`.

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

/// Every binary name that follows `target/release/` or `--bin ` in `text`
/// (a marker with no name after it, as in prose about the markers, names
/// nothing).
fn binary_names(text: &str) -> Vec<&str> {
    let name_end =
        |rest: &str| rest.find(|c: char| !c.is_ascii_alphanumeric() && !"_-".contains(c));
    ["target/release/", "--bin "]
        .iter()
        .flat_map(|marker| {
            text.match_indices(marker)
                .map(|(at, m)| &text[at + m.len()..])
        })
        .map(|rest| &rest[..name_end(rest).unwrap_or(rest.len())])
        .filter(|name| !name.is_empty())
        .collect()
}

/// The binaries the workspace builds, and the benchmark harness's.
fn binaries(root: &Path) -> Vec<String> {
    let mut names = vec!["p4lru_benchmark".to_owned()];
    for krate in std::fs::read_dir(root.join("crates")).expect("read crates/") {
        let bins = krate.expect("a crate entry").path().join("src/bin");
        for bin in std::fs::read_dir(bins).into_iter().flatten() {
            let path = bin.expect("a bin entry").path();
            if path.extension().is_some_and(|ext| ext == "rs") {
                names.push(path.file_stem().unwrap().to_string_lossy().into_owned());
            }
        }
    }
    names
}

#[test]
fn every_binary_the_docs_and_ci_name_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let binaries = binaries(root);
    let (mut checked, mut missing) = (0, Vec::new());
    for doc in DOCS.iter().chain([&".github/workflows/ci.yml"]) {
        let text = std::fs::read_to_string(root.join(doc)).expect("read a doc");
        for (line_no, line) in text.lines().enumerate() {
            for name in binary_names(line) {
                checked += 1;
                if !binaries.iter().any(|bin| bin == name) {
                    missing.push(format!("{doc}:{}: {name}", line_no + 1));
                }
            }
        }
    }
    assert!(
        checked > 50,
        "only {checked} binary names found: the scan is broken"
    );
    assert!(
        missing.is_empty(),
        "names that build nothing:\n{}",
        missing.join("\n")
    );
}

#[test]
fn the_binary_scan_reads_release_paths_and_bin_flags() {
    let line = "cargo build -p p4lru-server --bin p4lru_serverd --bin loadgen && \
                ./target/release/cluster_top --bins; benchmark/target/release/p4lru_benchmark \
                (not `target/release/` alone)";
    assert_eq!(
        binary_names(line),
        ["cluster_top", "p4lru_benchmark", "p4lru_serverd", "loadgen"]
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
