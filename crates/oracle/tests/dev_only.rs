//! The oracle is test code: no crate may ship it. Every `Cargo.toml` in
//! the repository may name `netsyn-oracle` only as a dev-dependency.

use std::path::{Path, PathBuf};

/// Every `Cargo.toml` under `dir`, skipping build output and hidden
/// directories.
fn manifests(dir: &Path, found: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|err| panic!("read {}: {err}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                manifests(&path, found);
            }
        } else if name == "Cargo.toml" {
            found.push(path);
        }
    }
}

/// The sections of `manifest` that declare `netsyn-oracle`, as written in
/// their `[...]` headers: either an entry keyed `netsyn-oracle` (plain,
/// dotted or inline-table form) or a `[<section>.netsyn-oracle]` table.
fn sections_naming_the_oracle(manifest: &str) -> Vec<String> {
    let mut section = String::new();
    let mut found = Vec::new();
    for line in manifest.lines() {
        let line = line.trim();
        if let Some(header) = line.strip_prefix('[') {
            section = header.trim_end_matches(']').trim().to_string();
            if let Some(table) = section.strip_suffix(".netsyn-oracle") {
                found.push(table.to_string());
            }
            continue;
        }
        let key = line.split(['=', '.']).next().unwrap_or("").trim();
        if key == "netsyn-oracle" || key == "\"netsyn-oracle\"" {
            found.push(section.clone());
        }
    }
    found
}

#[test]
fn netsyn_oracle_is_only_a_dev_dependency() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut found = Vec::new();
    manifests(&root, &mut found);
    assert!(
        found
            .iter()
            .any(|p| p.ends_with("crates/oracle/Cargo.toml")),
        "the walk must reach the workspace crates"
    );
    let mut dev_uses = 0;
    for path in &found {
        let manifest = std::fs::read_to_string(path).expect("manifest is readable");
        for section in sections_naming_the_oracle(&manifest) {
            assert!(
                section == "dev-dependencies" || section.ends_with(".dev-dependencies"),
                "{} names netsyn-oracle under [{section}]; only [dev-dependencies] may",
                path.display()
            );
            dev_uses += 1;
        }
    }
    assert!(dev_uses > 0, "some crate dev-depends on the oracle");
}

#[test]
fn the_manifest_scan_sees_every_declaration_form() {
    let manifest = r#"
[package]
name = "netsyn-oracle"

[dependencies]
netsyn-oracle.workspace = true

[build-dependencies]
netsyn-oracle = { path = "../oracle" }

[target.'cfg(unix)'.dependencies.netsyn-oracle]
path = "../oracle"

[dev-dependencies]
netsyn-oracle = { path = "../oracle" }
"#;
    assert_eq!(
        sections_naming_the_oracle(manifest),
        vec![
            "dependencies".to_string(),
            "build-dependencies".to_string(),
            "target.'cfg(unix)'.dependencies".to_string(),
            "dev-dependencies".to_string(),
        ]
    );
}
