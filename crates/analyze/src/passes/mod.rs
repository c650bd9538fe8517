//! The pass framework: a [`Pass`] inspects the [`Workspace`] and emits
//! [`Diagnostic`]s through a [`Context`].

pub mod policy;

use crate::diag::{Diagnostic, Rule};
use crate::scan::FileIndex;
use crate::workspace::Workspace;

/// One analysis pass: owns a rule and emits its diagnostics.
pub trait Pass {
    /// The rule this pass enforces.
    fn rule(&self) -> &'static Rule;
    /// Runs the pass over the whole workspace.
    fn run(&self, ws: &Workspace, ctx: &mut Context);
}

/// Shared emission state threaded through the passes.
#[derive(Default)]
pub struct Context {
    /// Every finding, in emission order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Context {
    /// Emits a finding.
    pub fn emit(&mut self, rule: &'static Rule, file: &str, line: u32, col: u32, message: String) {
        self.diagnostics.push(Diagnostic {
            rule,
            file: file.to_string(),
            line,
            col,
            message,
        });
    }

    /// Emits a finding anchored at token `tok` of `file`.
    pub fn emit_at(&mut self, rule: &'static Rule, file: &FileIndex, tok: usize, message: String) {
        let t = &file.tokens[tok];
        self.emit(rule, &file.path, t.line, t.col, message);
    }
}
