//! The docs a reader starts from stay small and their cross-references
//! resolve: README.md, DESIGN.md and EXPERIMENTS.md together fit a byte
//! budget, every `DESIGN.md §n` and every quoted DESIGN.md / EXPERIMENTS.md
//! section name the code cites is a heading, every `ci.sh step n` cited
//! is a step ci.sh runs, every `--bin` / `--example` the docs name exists,
//! and README's Layout table has one row per crate.

use std::fs;
use std::path::{Path, PathBuf};

/// README.md + DESIGN.md + EXPERIMENTS.md, bytes.
const DOCS_BUDGET: u64 = 160_000;

/// The docs the budget and the command check cover.
const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];

/// Where citations of the docs are looked for.
const CITING_DIRS: [&str; 6] = ["crates", "src", "tests", "examples", "scripts", ".claude"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// Every file under `dir` whose extension is one of `exts`, skipping build
/// output.
fn files_under(dir: &Path, exts: &[&str], out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if !matches!(entry.file_name().to_str(), Some("target" | "out")) {
                files_under(&path, exts, out);
            }
        } else if path
            .extension()
            .and_then(|e| e.to_str())
            .is_some_and(|e| exts.contains(&e))
        {
            out.push(path);
        }
    }
}

/// `text` with each line break, and the indentation and comment markers
/// after it, folded into one space, so a citation wrapped across comment
/// lines reads as one run.
fn unwrap_comments(text: &str) -> String {
    text.lines()
        .map(|line| line.trim_start().trim_start_matches(['/', '!', '#']).trim())
        .collect::<Vec<_>>()
        .join(" ")
}

/// The heading texts of a Markdown document, `#`s and spaces trimmed.
fn headings(doc: &str) -> Vec<String> {
    doc.lines()
        .filter(|l| l.starts_with('#'))
        .map(|l| l.trim_start_matches('#').trim().to_string())
        .collect()
}

/// The quoted names right after each `doc` mention in `text`:
/// `DOC, "A"`, `DOC ("A")` and `DOC, "A", "B"` all name sections.
fn quoted_names(text: &str, doc: &str) -> Vec<String> {
    let mut names = Vec::new();
    for (at, _) in text.match_indices(doc) {
        let mut rest = &text[at + doc.len()..];
        loop {
            // A separator must come first: `"DESIGN.md", "…"` is a list
            // of file names, not a citation.
            let trimmed = rest.trim_start_matches([',', ' ', '(']);
            if trimmed.len() == rest.len() {
                break;
            }
            let Some((name, after)) = trimmed
                .strip_prefix('"')
                .and_then(|quoted| quoted.split_once('"'))
            else {
                break;
            };
            names.push(name.to_string());
            rest = after;
        }
    }
    names
}

/// The section numbers cited as `DESIGN.md §n` (or `DESIGN.md, §n`).
fn design_section_numbers(text: &str) -> Vec<u32> {
    text.match_indices("DESIGN.md")
        .filter_map(|(at, doc)| {
            let rest = text[at + doc.len()..].trim_start_matches([',', ' ', '(']);
            let digits: String = rest
                .strip_prefix('§')?
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse().ok()
        })
        .collect()
}

/// The step numbers cited as `ci.sh step n`, `ci.sh steps n, m and k` or
/// `ci.sh steps n–m`.
fn ci_step_numbers(text: &str) -> Vec<u32> {
    let mut numbers = Vec::new();
    for (at, doc) in text.match_indices("ci.sh") {
        let rest = text[at + doc.len()..].trim_start_matches(['`', ' ']);
        let Some(mut rest) = rest
            .strip_prefix("steps")
            .or_else(|| rest.strip_prefix("step"))
        else {
            continue;
        };
        loop {
            rest = rest.trim_start_matches([' ', ',', '-', '–']);
            if let Some(after) = rest.strip_prefix("and ") {
                rest = after;
            }
            let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
            let Ok(n) = rest[..digits].parse() else {
                break;
            };
            numbers.push(n);
            rest = &rest[digits..];
        }
    }
    numbers
}

/// The word after each `flag` in `text`, backticks and punctuation
/// trimmed; placeholders such as `<name>` are skipped.
fn flag_values(text: &str, flag: &str) -> Vec<String> {
    let mut words = text.split_whitespace();
    let mut values = Vec::new();
    while let Some(word) = words.next() {
        if word.trim_matches('`') == flag {
            if let Some(word) = words.next().filter(|w| !w.contains('<')) {
                let value = word.trim_matches(|c: char| !(c.is_alphanumeric() || c == '_'));
                if !value.is_empty() {
                    values.push(value.to_string());
                }
            }
        }
    }
    values
}

fn stems(paths: &[PathBuf]) -> Vec<String> {
    paths
        .iter()
        .filter_map(|p| p.file_stem()?.to_str().map(str::to_string))
        .collect()
}

#[test]
fn the_docs_fit_their_byte_budget() {
    let sizes: Vec<(&str, u64)> = DOCS
        .iter()
        .map(|d| (*d, fs::metadata(root().join(d)).unwrap().len()))
        .collect();
    let total: u64 = sizes.iter().map(|(_, n)| n).sum();
    assert!(
        total <= DOCS_BUDGET,
        "{sizes:?} total {total} bytes, budget {DOCS_BUDGET}: say it once, or say less"
    );
    assert!(
        !root().join("CHANGELOG.md").exists(),
        "CHANGES.md is the one change log"
    );
}

#[test]
fn every_cited_section_is_a_heading() {
    let design = read("DESIGN.md");
    let design_headings = headings(&design);
    let experiments_headings = headings(&read("EXPERIMENTS.md"));
    let mut sources = Vec::new();
    for dir in CITING_DIRS {
        files_under(&root().join(dir), &["rs", "sh", "md", "toml"], &mut sources);
    }
    assert!(!sources.is_empty());
    let mut dangling = Vec::new();
    for path in &sources {
        let text = unwrap_comments(&fs::read_to_string(path).unwrap());
        let file = path.strip_prefix(root()).unwrap().display();
        for n in design_section_numbers(&text) {
            let prefix = format!("{n}. ");
            if !design_headings.iter().any(|h| h.starts_with(&prefix)) {
                dangling.push(format!("{file}: DESIGN.md §{n}"));
            }
        }
        for (doc, heads) in [
            ("DESIGN.md", &design_headings),
            ("EXPERIMENTS.md", &experiments_headings),
        ] {
            for name in quoted_names(&text, doc) {
                if !heads.iter().any(|h| h.starts_with(&name)) {
                    dangling.push(format!("{file}: {doc}, \"{name}\""));
                }
            }
        }
    }
    assert!(
        dangling.is_empty(),
        "citations without a heading: {dangling:#?}"
    );
}

#[test]
fn every_cited_ci_step_exists() {
    let steps = read("scripts/ci.sh")
        .lines()
        .filter(|l| l.starts_with("step "))
        .count() as u32;
    let mut sources: Vec<PathBuf> = DOCS
        .iter()
        .chain(&["Cargo.toml"])
        .map(|d| root().join(d))
        .collect();
    for dir in CITING_DIRS {
        files_under(&root().join(dir), &["rs", "sh", "md", "toml"], &mut sources);
    }
    let mut dangling = Vec::new();
    for path in &sources {
        let text = unwrap_comments(&fs::read_to_string(path).unwrap());
        for n in ci_step_numbers(&text) {
            if n == 0 || n > steps {
                let file = path.strip_prefix(root()).unwrap().display();
                dangling.push(format!("{file}: ci.sh step {n}"));
            }
        }
    }
    assert!(
        dangling.is_empty(),
        "ci.sh has {steps} step lines; cited past them: {dangling:#?}"
    );
}

#[test]
fn every_bin_and_example_the_docs_name_exists() {
    let mut bins = Vec::new();
    for dir in ["crates", "benchmarks"] {
        let mut found = Vec::new();
        files_under(&root().join(dir), &["rs"], &mut found);
        found.retain(|p| p.parent().is_some_and(|d| d.ends_with("src/bin")));
        bins.extend(stems(&found));
    }
    // A package whose binary is its `src/main.rs` is run by its name.
    bins.push("foldbench".to_string());
    let mut examples = Vec::new();
    files_under(&root().join("examples"), &["rs"], &mut examples);
    let examples = stems(&examples);
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = read(doc);
        for (flag, known) in [("--bin", &bins), ("--example", &examples)] {
            for name in flag_values(&text, flag) {
                if !known.contains(&name) {
                    missing.push(format!("{doc}: {flag} {name}"));
                }
            }
        }
    }
    assert!(missing.is_empty(), "named but not built: {missing:?}");
}

/// The `crates/<name>` each row of README's Layout table links, in order.
fn layout_crates(readme: &str) -> Vec<String> {
    readme
        .lines()
        .skip_while(|l| l.trim() != "## Layout")
        .skip(1)
        .take_while(|l| !l.starts_with("## "))
        .filter_map(|l| l.strip_prefix("| [`crates/")?.split_once('`'))
        .map(|(name, _)| name.to_string())
        .collect()
}

#[test]
fn the_layout_table_has_one_row_per_crate() {
    let mut rows = layout_crates(&read("README.md"));
    let mut crates: Vec<String> = fs::read_dir(root().join("crates"))
        .unwrap()
        .flatten()
        .filter(|e| e.path().is_dir())
        .filter_map(|e| e.file_name().into_string().ok())
        .collect();
    rows.sort();
    crates.sort();
    assert_eq!(
        rows, crates,
        "README's Layout table must list each crates/* directory exactly once"
    );
}

#[test]
fn the_citation_scanners_read_wrapped_and_listed_citations() {
    let text = unwrap_comments(
        "// see EXPERIMENTS.md,\n    // \"Row math record\", \"Other record\"; DESIGN.md §14\n",
    );
    assert_eq!(
        quoted_names(&text, "EXPERIMENTS.md"),
        ["Row math record", "Other record"]
    );
    assert_eq!(design_section_numbers(&text), [14]);
    assert_eq!(
        ci_step_numbers("ci.sh step 4's test, `ci.sh` steps 6–10, ci.sh steps 2, 3 and 9."),
        [4, 6, 10, 2, 3, 9]
    );
    assert!(ci_step_numbers("scripts/ci.sh chaos, ci.sh step N").is_empty());
    assert_eq!(
        flag_values("run `--bin fig13_accuracy` and --example <name>", "--bin"),
        ["fig13_accuracy"]
    );
    let readme = "## Layout\n\n| Path | What |\n|---|---|\n\
        | [`crates/a`](crates/a) | x |\n| [`examples/`](examples) | y |\n\
        | [`crates/b`](crates/b) | z |\n\n## Next\n| [`crates/c`](crates/c) | w |\n";
    assert_eq!(layout_crates(readme), ["a", "b"]);
}
