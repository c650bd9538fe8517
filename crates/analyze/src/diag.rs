//! Diagnostics: stable rule IDs and `file:line:col` spans.

use std::fmt;

/// The severity label every rendered finding carries.
const SEVERITY: &str = "error";

/// A stable rule: the ID names it in every finding.
#[derive(Debug)]
pub struct Rule {
    /// Stable ID (`P001`…). Never renumber.
    pub id: &'static str,
    /// Short kebab-case name (`unwrap-ban`).
    pub name: &'static str,
}

/// One finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The violated rule.
    pub rule: &'static Rule,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human message (no trailing period, no span — the renderer adds
    /// those).
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{SEVERITY} {} [{}] {}:{}:{}: {}",
            self.rule.id, self.rule.name, self.file, self.line, self.col, self.message
        )
    }
}

/// The passes' outcome: every finding, sorted by location.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings, sorted by location.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Sorts diagnostics by file/line/col/rule and drops exact
    /// duplicates.
    pub fn sort(&mut self) {
        self.diagnostics
            .sort_by_key(|d| (d.file.clone(), d.line, d.col, d.rule.id));
        self.diagnostics.dedup_by(|a, b| {
            a.rule.id == b.rule.id
                && a.file == b.file
                && a.line == b.line
                && a.col == b.col
                && a.message == b.message
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static DEMO: Rule = Rule {
        id: "T001",
        name: "demo",
    };

    fn diag(file: &str, line: u32) -> Diagnostic {
        Diagnostic {
            rule: &DEMO,
            file: file.into(),
            line,
            col: 1,
            message: "a \"quoted\" message".into(),
        }
    }

    #[test]
    fn report_sorts_by_location_and_drops_duplicates() {
        let mut report = Report::default();
        report.diagnostics.push(diag("z.rs", 9));
        report.diagnostics.push(diag("a.rs", 4));
        report.diagnostics.push(diag("a.rs", 2));
        report.diagnostics.push(diag("z.rs", 9));
        report.sort();
        let at: Vec<(&str, u32)> = report
            .diagnostics
            .iter()
            .map(|d| (d.file.as_str(), d.line))
            .collect();
        assert_eq!(at, vec![("a.rs", 2), ("a.rs", 4), ("z.rs", 9)]);
    }
}
