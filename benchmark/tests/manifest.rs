//! Guards on the files that must agree with each other: the release
//! profile here and at the root, and `BENCHMARK.json` against the tables
//! it is rendered from.

use std::path::Path;

use patchsim_benchmark::metrics::{self, END_TO_END, EXACT, PER_LAYER};
use patchsim_benchmark::workloads;

fn read(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `key = value` lines of `[section]`, sorted.
fn section(manifest: &str, section: &str) -> Vec<String> {
    let mut lines: Vec<String> = manifest
        .lines()
        .skip_while(|l| l.trim() != section)
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| l.split('#').next().unwrap_or_default().trim().to_string())
        .filter(|l| !l.is_empty())
        .collect();
    lines.sort();
    lines
}

#[test]
fn release_profile_matches_the_root_manifest() {
    let root = section(&read("../Cargo.toml"), "[profile.release]");
    assert!(!root.is_empty(), "the root manifest sets a release profile");
    assert_eq!(
        root,
        section(&read("Cargo.toml"), "[profile.release]"),
        "benchmark/Cargo.toml must copy the root [profile.release]: the crates under test \
         are compiled with the profile of the workspace that builds them"
    );
}

#[test]
fn benchmark_json_is_rendered_from_the_tables() {
    assert_eq!(
        read("../BENCHMARK.json"),
        metrics::manifest(),
        "regenerate with: cargo run --release --manifest-path benchmark/Cargo.toml -- manifest \
         > BENCHMARK.json"
    );
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn tables_are_within_the_contract() {
    assert!((2..=8).contains(&workloads::ALL.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    assert!((1..=60).contains(&metrics::RUN_SECONDS));
    assert!(metrics::manifest().len() <= 64 * 1024);
    let mut names: Vec<&str> = Vec::new();
    for w in &workloads::ALL {
        let why = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
        assert!(is_name(w.name) && why.len() <= 200, "{}", w.name);
        names.push(w.name);
    }
    for m in &END_TO_END {
        assert!(is_name(m.name) && is_unit(m.unit), "{}", m.name);
        assert!(["lower", "higher"].contains(&m.better), "{}", m.name);
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        names.push(m.name);
    }
    for &(name, unit, better) in &PER_LAYER {
        assert!(is_name(name) && is_unit(unit), "{name}");
        assert!(["lower", "higher"].contains(&better), "{name}");
        names.push(name);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s carries the largest bound"
    );
    let count = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(count, names.len(), "a name is used once");
    for exact in EXACT {
        assert!(PER_LAYER.iter().any(|&(n, _, _)| n == exact), "{exact}");
    }
}
