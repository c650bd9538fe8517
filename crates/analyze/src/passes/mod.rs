//! The pass framework: a [`Pass`] inspects the [`Workspace`] and emits
//! [`Diagnostic`]s through a [`Context`]. The context applies the
//! `analyze.allow` baseline for rules with [`BaselineMode::PerFile`];
//! rules with [`BaselineMode::InPass`] consult the baseline themselves
//! (the unwrap rule's allowance-plus-justification contract).

pub mod policy;

use crate::baseline::Baseline;
use crate::diag::{BaselineMode, Diagnostic, Rule};
use crate::scan::FileIndex;
use crate::workspace::Workspace;

/// One analysis pass: owns a rule and emits its diagnostics.
pub trait Pass {
    /// The rule this pass enforces.
    fn rule(&self) -> &'static Rule;
    /// Runs the pass over the whole workspace.
    fn run(&self, ws: &Workspace, ctx: &mut Context<'_>);
}

/// Shared emission state threaded through the passes.
pub struct Context<'a> {
    baseline: &'a Baseline,
    /// Findings that survived the baseline.
    pub diagnostics: Vec<Diagnostic>,
    /// Findings silenced by an `analyze.allow` entry.
    pub suppressed: Vec<Diagnostic>,
}

impl<'a> Context<'a> {
    /// A fresh context over `baseline`.
    pub fn new(baseline: &'a Baseline) -> Context<'a> {
        Context {
            baseline,
            diagnostics: Vec::new(),
            suppressed: Vec::new(),
        }
    }

    /// The active baseline (for [`BaselineMode::InPass`] rules).
    pub fn baseline(&self) -> &Baseline {
        self.baseline
    }

    /// Emits a finding; `PerFile` rules route it through the baseline.
    pub fn emit(&mut self, rule: &'static Rule, file: &str, line: u32, col: u32, message: String) {
        let d = Diagnostic {
            rule,
            file: file.to_string(),
            line,
            col,
            message,
        };
        let suppressed =
            rule.baseline == BaselineMode::PerFile && self.baseline.suppress(rule.id, file);
        if suppressed {
            self.suppressed.push(d);
        } else {
            self.diagnostics.push(d);
        }
    }

    /// Emits a finding anchored at token `tok` of `file`.
    pub fn emit_at(&mut self, rule: &'static Rule, file: &FileIndex, tok: usize, message: String) {
        let t = &file.tokens[tok];
        self.emit(rule, &file.path, t.line, t.col, message);
    }

    /// Records a finding as baseline-suppressed without consulting the
    /// baseline — for `InPass` rules that did their own matching.
    pub fn record_suppressed(
        &mut self,
        rule: &'static Rule,
        file: &FileIndex,
        tok: usize,
        message: String,
    ) {
        let t = &file.tokens[tok];
        self.suppressed.push(Diagnostic {
            rule,
            file: file.path.clone(),
            line: t.line,
            col: t.col,
            message,
        });
    }
}
