//! Pass 1: hermeticity lint over every `Cargo.toml` in the workspace.
//!
//! The invariant: the workspace builds with an empty cargo registry
//! cache and no network. Concretely, every entry in a dependency table
//! must be either a `path` dependency or `workspace = true` (inheriting
//! a `[workspace.dependencies]` entry, which must itself be a path
//! dependency). `git`, `registry`, and bare-version dependencies are
//! violations, as are `[patch]`/`[replace]` tables.
//!
//! The pass also requires every manifest to opt in to the root's
//! `[workspace.lints]` tables (`[lints] workspace = true`): a crate that
//! skips the opt-in would build without the workspace's source policy.

use std::fs;
use std::path::Path;

/// Runs the pass. Returns one message per violation.
pub fn run(root: &Path) -> Result<Vec<String>, String> {
    let mut manifests = vec![root.join("Cargo.toml")];
    let crates = root.join("crates");
    let entries =
        fs::read_dir(&crates).map_err(|e| format!("cannot list {}: {e}", crates.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read crates/ entry: {e}"))?;
        let manifest = entry.path().join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }

    let mut violations = Vec::new();
    for manifest in &manifests {
        let text = fs::read_to_string(manifest)
            .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
        let rel = manifest
            .strip_prefix(root)
            .unwrap_or(manifest)
            .display()
            .to_string();
        check_manifest(&rel, &text, &mut violations);
        check_lint_opt_in(&rel, &text, &mut violations);
    }
    Ok(violations)
}

/// True for section headers whose key/value entries are dependency
/// specifications: `[dependencies]`, `[dev-dependencies]`,
/// `[build-dependencies]`, `[workspace.dependencies]`, and the
/// `[target.'cfg'.dependencies]` family.
fn is_dep_table(section: &str) -> bool {
    section == "dependencies"
        || section.ends_with(".dependencies")
        || section.ends_with("-dependencies")
}

/// A `[dependencies.foo]` style sub-table: the dependency spec is spread
/// over the following lines rather than an inline table.
fn dep_subtable(section: &str) -> Option<&str> {
    for table in ["dependencies.", "dev-dependencies.", "build-dependencies."] {
        if let Some(name) = section.strip_prefix(table) {
            return Some(name);
        }
    }
    section
        .strip_prefix("workspace.dependencies.")
        .or_else(|| section.find(".dependencies.").map(|i| &section[i + 14..]))
}

fn check_manifest(file: &str, text: &str, out: &mut Vec<String>) {
    let mut section = String::new();
    // For `[dependencies.foo]` sub-tables: the dependency name and
    // whether a `path`/`workspace` key has been seen yet.
    let mut open_subtable: Option<(String, bool)> = None;

    let flush = |sub: &mut Option<(String, bool)>, out: &mut Vec<String>| {
        if let Some((name, hermetic)) = sub.take() {
            if !hermetic {
                out.push(format!(
                    "{file}: dependency `{name}` has no `path` or `workspace = true` key"
                ));
            }
        }
    };

    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let lineno = idx + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
            flush(&mut open_subtable, out);
            section = line.trim_matches(['[', ']']).trim_matches('"').to_string();
            if section == "patch" || section.starts_with("patch.") || section == "replace" {
                out.push(format!(
                    "{file}:{lineno}: `[{section}]` tables can redirect to non-path sources"
                ));
            }
            if let Some(name) = dep_subtable(&section) {
                open_subtable = Some((name.to_string(), false));
            }
            continue;
        }
        if let Some((name, hermetic)) = open_subtable.as_mut() {
            let key = line.split('=').next().unwrap_or("").trim();
            match key {
                "path" => *hermetic = true,
                "workspace" if line.contains("true") => *hermetic = true,
                "git" | "registry" | "registry-index" => out.push(format!(
                    "{file}:{lineno}: dependency `{name}` uses non-path source key `{key}`"
                )),
                _ => {}
            }
            continue;
        }
        if !is_dep_table(&section) {
            continue;
        }
        // An inline dependency entry: `name = <spec>` or the dotted
        // shorthand `name.workspace = true` / `name.path = "..."`.
        let Some((lhs, rhs)) = line.split_once('=') else {
            continue;
        };
        let (lhs, rhs) = (lhs.trim(), rhs.trim());
        let (name, dotted_key) = match lhs.split_once('.') {
            Some((n, k)) => (n.trim_matches('"'), Some(k)),
            None => (lhs.trim_matches('"'), None),
        };
        let hermetic = match dotted_key {
            Some("workspace") => rhs.starts_with("true"),
            Some("path") => true,
            Some(_) => false,
            None => rhs.contains("path") || (rhs.contains("workspace") && rhs.contains("true")),
        };
        let non_path_source = rhs.contains("git") || rhs.contains("registry");
        if non_path_source {
            out.push(format!(
                "{file}:{lineno}: dependency `{name}` names a git/registry source"
            ));
        } else if !hermetic {
            out.push(format!(
                "{file}:{lineno}: dependency `{name}` is not a path dependency \
                 (spec: `{rhs}`) — the workspace must build offline"
            ));
        }
    }
    flush(&mut open_subtable, out);
}

/// Flags a manifest that does not opt in to the workspace lints, either
/// as `workspace = true` under `[lints]` or as the top-level dotted key
/// `lints.workspace = true`.
fn check_lint_opt_in(file: &str, text: &str, out: &mut Vec<String>) {
    let mut section = "";
    for raw in text.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            section = line;
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let opt_in_key = match section {
            "" => "lints.workspace",
            "[lints]" => "workspace",
            _ => continue,
        };
        if key.trim() == opt_in_key && value.trim().starts_with("true") {
            return;
        }
    }
    out.push(format!(
        "{file}: no `[lints] workspace = true` — the crate would skip the workspace's declared lints"
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn violations(text: &str) -> Vec<String> {
        let mut out = Vec::new();
        check_manifest("test/Cargo.toml", text, &mut out);
        out
    }

    #[test]
    fn path_and_workspace_deps_pass() {
        let v = violations(
            "[dependencies]\n\
             a = { path = \"../a\" }\n\
             b.workspace = true\n\
             c = { workspace = true }\n\
             [dev-dependencies]\n\
             d = { path = \"../d\", features = [\"x\"] }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn registry_version_dep_fails() {
        let v = violations("[dependencies]\nserde = \"1.0\"\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("serde"));
    }

    #[test]
    fn git_dep_fails() {
        let v = violations("[dependencies]\nfoo = { git = \"https://example.com/foo\" }\n");
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn dep_subtable_without_path_fails() {
        let v = violations("[dependencies.foo]\nversion = \"1\"\n\n[features]\nx = []\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("foo"));
    }

    #[test]
    fn dep_subtable_with_path_passes() {
        let v = violations("[dependencies.foo]\npath = \"../foo\"\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn patch_table_fails() {
        let v = violations("[patch.crates-io]\nfoo = { path = \"f\" }\n");
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn non_dep_tables_ignored() {
        let v = violations(
            "[package]\nname = \"x\"\nversion = \"0.1.0\"\n\
             [features]\nproptest = []\n\
             [[bench]]\nname = \"b\"\nharness = false\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    fn lint_violations(text: &str) -> Vec<String> {
        let mut out = Vec::new();
        check_lint_opt_in("test/Cargo.toml", text, &mut out);
        out
    }

    #[test]
    fn manifest_without_lint_opt_in_fails() {
        for text in [
            "[package]\nname = \"x\"\n",
            "[lints]\nworkspace = false\n",
            "[package]\nlints.workspace = true\n",
        ] {
            let v = lint_violations(text);
            assert_eq!(v.len(), 1, "{text:?}: {v:?}");
            assert!(v[0].contains("[lints] workspace = true"), "{v:?}");
        }
    }

    #[test]
    fn lints_table_opt_in_passes() {
        let v = lint_violations("[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn dotted_lints_opt_in_passes() {
        let v = lint_violations("lints.workspace = true\n\n[package]\nname = \"x\"\n");
        assert!(v.is_empty(), "{v:?}");
    }
}
