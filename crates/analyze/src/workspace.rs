//! Workspace loading: walks every `src/` tree (the root facade crate
//! plus `crates/*/src`, including `xtask` and this crate itself) and
//! indexes each `.rs` file.

use std::fs;
use std::path::{Path, PathBuf};

use crate::scan::FileIndex;

/// Every indexed source file of the workspace.
pub struct Workspace {
    /// Indexed files, sorted by path.
    pub files: Vec<FileIndex>,
}

impl Workspace {
    /// Walks and indexes the workspace rooted at `root`.
    ///
    /// # Errors
    /// Unreadable directories or files.
    pub fn load(root: &Path) -> Result<Workspace, String> {
        let mut trees: Vec<PathBuf> = vec![root.join("src")];
        let crates = root.join("crates");
        if crates.is_dir() {
            let entries = fs::read_dir(&crates)
                .map_err(|e| format!("cannot list {}: {e}", crates.display()))?;
            for entry in entries {
                let entry = entry.map_err(|e| format!("cannot read crates/ entry: {e}"))?;
                let src = entry.path().join("src");
                if src.is_dir() {
                    trees.push(src);
                }
            }
        }
        let mut paths = Vec::new();
        for tree in &trees {
            if tree.is_dir() {
                collect_rs_files(tree, &mut paths)?;
            }
        }
        paths.sort();
        let mut files = Vec::with_capacity(paths.len());
        for path in paths {
            let text = fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            files.push(FileIndex::new(rel, text));
        }
        Ok(Workspace { files })
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read dir entry: {e}"))?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
