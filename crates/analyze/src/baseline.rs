//! The checked-in suppression baseline: `analyze.allow` at the
//! workspace root.
//!
//! Format, one entry per line:
//!
//! ```text
//! # comments and blank lines are ignored
//! P004 crates/demo/src/export.rs  the export format stores f32 by spec
//! ```
//!
//! i.e. `<RULE_ID> <path> <justification…>` — the justification is
//! mandatory. An entry that matches no finding is *stale* and fails the
//! gate (same contract as the old `UNWRAP_ALLOWANCES`): the list can
//! only shrink.

use std::collections::BTreeSet;
use std::path::Path;

/// One parsed `analyze.allow` entry.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Rule ID the entry suppresses (`P004`).
    pub rule: String,
    /// Workspace-relative file path.
    pub path: String,
    /// Why the finding is deliberate.
    pub reason: String,
    /// 1-based line in `analyze.allow` (for stale messages).
    pub line: u32,
}

/// The parsed baseline plus per-entry usage tracking.
#[derive(Debug, Default)]
pub struct Baseline {
    entries: Vec<Entry>,
    used: std::cell::RefCell<BTreeSet<usize>>,
}

impl Baseline {
    /// Parses baseline text.
    ///
    /// # Errors
    /// Malformed lines (fewer than three fields) are errors: a
    /// justification-free suppression is not a suppression.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, char::is_whitespace);
            let (rule, path, reason) = match (parts.next(), parts.next(), parts.next()) {
                (Some(r), Some(p), Some(why)) if !why.trim().is_empty() => {
                    (r.to_string(), p.to_string(), why.trim().to_string())
                }
                _ => {
                    return Err(format!(
                        "analyze.allow:{}: want `<RULE_ID> <path> <justification>`, got `{raw}`",
                        idx + 1
                    ))
                }
            };
            entries.push(Entry {
                rule,
                path,
                reason,
                line: u32::try_from(idx + 1).unwrap_or(u32::MAX),
            });
        }
        Ok(Baseline {
            entries,
            used: std::cell::RefCell::new(BTreeSet::new()),
        })
    }

    /// Loads `<root>/analyze.allow`; a missing file is an empty
    /// baseline.
    ///
    /// # Errors
    /// Unreadable or malformed baseline files.
    pub fn load(root: &Path) -> Result<Baseline, String> {
        let path = root.join("analyze.allow");
        if !path.is_file() {
            return Ok(Baseline::default());
        }
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Baseline::parse(&text)
    }

    /// True when `(rule, file)` has an entry; marks nothing.
    pub fn is_listed(&self, rule: &str, file: &str) -> bool {
        self.entries
            .iter()
            .any(|e| e.rule == rule && e.path == file)
    }

    /// Consumes a suppression for `(rule, file)`: returns true when an
    /// entry matches, and marks that entry used (for stale detection).
    pub fn suppress(&self, rule: &str, file: &str) -> bool {
        for (i, e) in self.entries.iter().enumerate() {
            if e.rule == rule && e.path == file {
                self.used.borrow_mut().insert(i);
                return true;
            }
        }
        false
    }

    /// Entries that never matched a finding — these fail the gate.
    pub fn stale(&self) -> Vec<String> {
        let used = self.used.borrow();
        self.entries
            .iter()
            .enumerate()
            .filter(|(i, _)| !used.contains(i))
            .map(|(_, e)| {
                format!(
                    "analyze.allow:{}: `{} {}` ({}) matches no finding — delete the entry",
                    e.line, e.rule, e.path, e.reason
                )
            })
            .collect()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the baseline has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_suppresses() {
        let b = Baseline::parse(
            "# header comment\n\
             \n\
             P003 crates/core/src/stream.rs placeholder kept by design\n\
             P001 crates/demo/src/a.rs legacy unwraps\n",
        )
        .expect("parses");
        assert_eq!(b.len(), 2);
        assert!(b.suppress("P003", "crates/core/src/stream.rs"));
        assert!(!b.suppress("P003", "crates/core/src/engine.rs"));
        assert!(b.is_listed("P001", "crates/demo/src/a.rs"));
        // P001 never *suppressed*, only listed — it is stale.
        let stale = b.stale();
        assert_eq!(stale.len(), 1, "{stale:?}");
        assert!(stale[0].contains("P001"), "{stale:?}");
    }

    #[test]
    fn justification_is_mandatory() {
        assert!(Baseline::parse("P002 crates/a/src/x.rs\n").is_err());
        assert!(Baseline::parse("P002\n").is_err());
        assert!(Baseline::parse("P002 crates/a/src/x.rs   \n").is_err());
    }

    #[test]
    fn missing_file_is_empty() {
        let b = Baseline::load(Path::new("/nonexistent/nowhere")).expect("ok");
        assert!(b.is_empty());
        assert!(b.stale().is_empty());
    }
}
