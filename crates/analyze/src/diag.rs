//! Diagnostics: stable rule IDs, `file:line:col` spans, and human +
//! JSON rendering. The JSON writer is hand-rolled (this crate
//! depends on nothing, not even `etm-support`).

use std::fmt;

/// The severity label every finding carries in the human and JSON
/// output: every rule is an error, and each finding gates the build.
const SEVERITY: &str = "error";

/// How `analyze.allow` entries apply to a rule's diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineMode {
    /// An entry `(rule, file)` suppresses every diagnostic of the rule
    /// in that file.
    PerFile,
    /// The pass itself consults the baseline (the unwrap rule: an entry
    /// only relaxes "never" to "with an adjacent `// unwrap-ok:`
    /// justification comment").
    InPass,
}

/// A stable rule: the ID is part of the tool's contract (`analyze.allow`
/// entries and suppression docs reference it).
#[derive(Debug)]
pub struct Rule {
    /// Stable ID (`P001`…). Never renumber.
    pub id: &'static str,
    /// Short kebab-case name (`unwrap-ban`).
    pub name: &'static str,
    /// One-line summary for `--help`-style listings and the JSON report.
    pub brief: &'static str,
    /// How baseline entries interact with this rule.
    pub baseline: BaselineMode,
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

/// The gate's outcome: surviving diagnostics, what the baseline
/// suppressed, and baseline hygiene failures.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed findings, sorted by location.
    pub diagnostics: Vec<Diagnostic>,
    /// Findings matched (and silenced) by an `analyze.allow` entry.
    pub suppressed: Vec<Diagnostic>,
    /// Stale-baseline messages: entries that matched nothing must be
    /// deleted, so the allow list can only shrink.
    pub stale: Vec<String>,
    /// Number of files analyzed.
    pub files: usize,
}

impl Report {
    /// True when the gate passes: nothing to report and no stale
    /// suppressions.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty() && self.stale.is_empty()
    }

    /// Sorts diagnostics by file/line/col/rule and drops exact
    /// duplicates.
    pub fn sort(&mut self) {
        let key = |d: &Diagnostic| (d.file.clone(), d.line, d.col, d.rule.id);
        self.diagnostics.sort_by_key(key);
        self.suppressed.sort_by_key(key);
        let same = |a: &mut Diagnostic, b: &mut Diagnostic| {
            a.rule.id == b.rule.id
                && a.file == b.file
                && a.line == b.line
                && a.col == b.col
                && a.message == b.message
        };
        self.diagnostics.dedup_by(same);
        self.suppressed.dedup_by(same);
    }

    /// Human rendering: one `severity RULE file:line:col: message` line
    /// per finding plus a summary.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!("{d}\n"));
        }
        for s in &self.stale {
            out.push_str(&format!("stale analyze.allow: {s}\n"));
        }
        out.push_str(&format!(
            "{} finding(s), {} suppressed by analyze.allow, {} stale entr(ies) over {} files\n",
            self.diagnostics.len(),
            self.suppressed.len(),
            self.stale.len(),
            self.files
        ));
        out
    }

    /// Machine rendering: the full report as a JSON object.
    pub fn render_json(&self, rules: &[&'static Rule]) -> String {
        let mut w = JsonWriter::new();
        w.obj(|w| {
            w.field("schema", |w| w.num(1.0));
            w.field("files", |w| w.num(self.files as f64));
            w.field("clean", |w| w.bool(self.is_clean()));
            w.field("rules", |w| {
                w.arr(self.diagnostics.len().max(rules.len()), |w, i| {
                    if i < rules.len() {
                        let r = rules[i];
                        w.obj(|w| {
                            w.field("id", |w| w.str(r.id));
                            w.field("name", |w| w.str(r.name));
                            w.field("severity", |w| w.str(SEVERITY));
                            w.field("brief", |w| w.str(r.brief));
                        });
                        true
                    } else {
                        false
                    }
                })
            });
            w.field("diagnostics", |w| diags_json(w, &self.diagnostics));
            w.field("suppressed", |w| diags_json(w, &self.suppressed));
            w.field("stale_baseline", |w| {
                w.arr(self.stale.len(), |w, i| {
                    w.str(&self.stale[i]);
                    true
                })
            });
        });
        w.finish()
    }
}

fn diags_json(w: &mut JsonWriter, diags: &[Diagnostic]) {
    w.arr(diags.len(), |w, i| {
        let d = &diags[i];
        w.obj(|w| {
            w.field("rule", |w| w.str(d.rule.id));
            w.field("name", |w| w.str(d.rule.name));
            w.field("severity", |w| w.str(SEVERITY));
            w.field("file", |w| w.str(&d.file));
            w.field("line", |w| w.num(f64::from(d.line)));
            w.field("col", |w| w.num(f64::from(d.col)));
            w.field("message", |w| w.str(&d.message));
        });
        true
    });
}

/// A tiny streaming JSON writer: objects, arrays, strings with RFC 8259
/// escaping, finite numbers, booleans. Enough for the report — this
/// crate stays dependency-free.
struct JsonWriter {
    buf: String,
    needs_comma: Vec<bool>,
}

impl JsonWriter {
    fn new() -> JsonWriter {
        JsonWriter {
            buf: String::new(),
            needs_comma: vec![false],
        }
    }

    fn finish(self) -> String {
        self.buf
    }

    fn sep(&mut self) {
        if let Some(need) = self.needs_comma.last_mut() {
            if *need {
                self.buf.push(',');
            }
            *need = true;
        }
    }

    fn obj(&mut self, f: impl FnOnce(&mut JsonWriter)) {
        self.sep();
        self.buf.push('{');
        self.needs_comma.push(false);
        f(self);
        self.needs_comma.pop();
        self.buf.push('}');
    }

    fn field(&mut self, name: &str, f: impl FnOnce(&mut JsonWriter)) {
        self.sep();
        self.push_escaped(name);
        self.buf.push(':');
        // The value itself must not emit a leading comma.
        if let Some(need) = self.needs_comma.last_mut() {
            *need = false;
        }
        f(self);
        if let Some(need) = self.needs_comma.last_mut() {
            *need = true;
        }
    }

    /// Emits up to `n` elements; `f` returns false to stop early.
    fn arr(&mut self, n: usize, mut f: impl FnMut(&mut JsonWriter, usize) -> bool) {
        self.sep();
        self.buf.push('[');
        self.needs_comma.push(false);
        for i in 0..n {
            if !f(self, i) {
                break;
            }
        }
        self.needs_comma.pop();
        self.buf.push(']');
    }

    fn str(&mut self, s: &str) {
        self.sep();
        self.push_escaped(s);
    }

    fn num(&mut self, v: f64) {
        self.sep();
        if v.fract() == 0.0 && v.abs() < 1e15 {
            self.buf.push_str(&format!("{}", v as i64));
        } else {
            self.buf.push_str(&format!("{v}"));
        }
    }

    fn bool(&mut self, v: bool) {
        self.sep();
        self.buf.push_str(if v { "true" } else { "false" });
    }

    fn push_escaped(&mut self, s: &str) {
        self.buf.push('"');
        for c in s.chars() {
            match c {
                '"' => self.buf.push_str("\\\""),
                '\\' => self.buf.push_str("\\\\"),
                '\n' => self.buf.push_str("\\n"),
                '\r' => self.buf.push_str("\\r"),
                '\t' => self.buf.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    self.buf.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.buf.push(c),
            }
        }
        self.buf.push('"');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static DEMO: Rule = Rule {
        id: "T001",
        name: "demo",
        brief: "demo rule",
        baseline: BaselineMode::PerFile,
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
    fn json_escapes_and_shapes() {
        let mut report = Report {
            diagnostics: vec![diag("a.rs", 3)],
            suppressed: vec![diag("b.rs", 9)],
            stale: vec!["entry x".into()],
            files: 2,
        };
        report.sort();
        let json = report.render_json(&[&DEMO]);
        assert!(json.contains("\"schema\":1"), "{json}");
        assert!(json.contains("\\\"quoted\\\""), "{json}");
        assert!(json.contains("\"stale_baseline\":[\"entry x\"]"), "{json}");
        assert!(json.contains("\"clean\":false"), "{json}");
        // Balanced braces/brackets (cheap structural sanity).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count(),
            "{json}"
        );
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
