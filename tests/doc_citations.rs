//! Every `*.md` file a Rust source cites must exist.
//!
//! Comments such as "DESIGN.md records the substitution" are promises to
//! a reader. This test walks every `.rs` file in the repository (build
//! output and hidden directories excluded), collects each markdown file name it
//! mentions, and checks that a file of that name exists at the
//! repository root or next to the citing file.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir`, skipping build output and hidden
/// directories.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            let name = name.to_string_lossy();
            if !(name.starts_with('.') || name == "target" || name == "out") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The `*.md` names cited in `text`: maximal runs of path characters
/// ending in `.md`.
fn cited(text: &str) -> BTreeSet<String> {
    let is_name = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | '/');
    let mut names = BTreeSet::new();
    for (at, _) in text.match_indices(".md") {
        let end = at + ".md".len();
        if text[end..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_') {
            continue; // `.mdx`, `.md_foo`: not a markdown citation
        }
        let start = text[..at].rfind(|c: char| !is_name(c)).map_or(0, |i| i + 1);
        let name = &text[start..end];
        if name.len() > ".md".len() {
            names.insert(name.to_string());
        }
    }
    names
}

#[test]
fn every_cited_markdown_file_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(root, &mut files);
    assert!(files.len() > 50, "found only {} .rs files", files.len());

    let mut missing = Vec::new();
    let mut checked = 0;
    for file in &files {
        let text = fs::read_to_string(file).expect("readable source");
        for name in cited(&text) {
            checked += 1;
            let beside = file.parent().map(|dir| dir.join(&name));
            if !root.join(&name).is_file() && !beside.is_some_and(|p| p.is_file()) {
                let shown = file.strip_prefix(root).unwrap_or(file);
                missing.push(format!("{} cites {name}", shown.display()));
            }
        }
    }
    assert!(checked > 0, "no citations found; the scan is broken");
    assert!(
        missing.is_empty(),
        "cited files do not exist:\n{}",
        missing.join("\n")
    );
}

#[test]
fn citation_scan_finds_names_in_prose() {
    let found = cited("see DESIGN.md, and `benchmark/README.md`; not foo.mdx or .md alone");
    let want: BTreeSet<String> = ["DESIGN.md", "benchmark/README.md"]
        .into_iter()
        .map(String::from)
        .collect();
    assert_eq!(found, want);
}
