//! P-series policy passes: the old line-regex `srclint` rules, re-hosted
//! on the token stream. Being token-aware fixes the classic lies of the
//! regex lint: `.unwrap()` inside comments, doc comments, or string
//! literals no longer counts as code.
//!
//! * **P001** `unwrap-ban` — `.unwrap()` is banned in non-test code.
//! * **P002** `bin-expect-ban` — `.expect(` is banned in binary roots
//!   (`src/bin/**`) outside tests.
//! * **P003** `no-placeholders` — `todo!` / `unimplemented!` are banned
//!   everywhere, tests included.
//! * **P004** `no-f32-narrowing` — `as f32` is banned in the numerics
//!   crates (`crates/lsq`, `crates/core`).
//! * **P005** `crate-headers` — crate roots carry
//!   `#![deny(unsafe_code)]`; every `lib.rs` additionally
//!   `#![warn(missing_docs)]`.

use crate::diag::Rule;
use crate::scan::FileIndex;
use crate::workspace::Workspace;

use super::{Context, Pass};

/// The P001 rule.
pub static UNWRAP_BAN: Rule = Rule {
    id: "P001",
    name: "unwrap-ban",
};

/// The P002 rule.
pub static BIN_EXPECT_BAN: Rule = Rule {
    id: "P002",
    name: "bin-expect-ban",
};

/// The P003 rule.
pub static NO_PLACEHOLDERS: Rule = Rule {
    id: "P003",
    name: "no-placeholders",
};

/// The P004 rule.
pub static NO_F32_NARROWING: Rule = Rule {
    id: "P004",
    name: "no-f32-narrowing",
};

/// The P005 rule.
pub static CRATE_HEADERS: Rule = Rule {
    id: "P005",
    name: "crate-headers",
};

/// Crate directories where `as f32` narrowing is banned.
const NO_F32_CRATES: &[&str] = &["lsq", "core"];

/// True for `lib.rs` / `main.rs` / `src/bin/*` roots.
fn is_crate_root(path: &str) -> bool {
    path.ends_with("src/lib.rs") || path.ends_with("src/main.rs") || path.contains("src/bin/")
}

/// True when token `i` is `name` called as a method: `.name(…)`.
fn is_method_call(file: &FileIndex, i: usize, name: &str) -> bool {
    file.is_ident(i, name)
        && file.prev_nt(i).is_some_and(|p| file.is_punct(p, '.'))
        && file.next_nt(i).is_some_and(|n| file.is_punct(n, '('))
}

/// P001: the unwrap ban.
pub struct UnwrapBanPass;

impl Pass for UnwrapBanPass {
    fn rule(&self) -> &'static Rule {
        &UNWRAP_BAN
    }

    fn run(&self, ws: &Workspace, ctx: &mut Context) {
        for file in &ws.files {
            for i in 0..file.tokens.len() {
                if is_method_call(file, i, "unwrap") && !file.is_test_token(i) {
                    ctx.emit_at(
                        &UNWRAP_BAN,
                        file,
                        i,
                        "`.unwrap()` in library code — return a Result or use \
                         `expect(\"why this cannot fail\")`"
                            .to_string(),
                    );
                }
            }
        }
    }
}

/// P002: no `.expect(` in binary roots.
pub struct BinExpectPass;

impl Pass for BinExpectPass {
    fn rule(&self) -> &'static Rule {
        &BIN_EXPECT_BAN
    }

    fn run(&self, ws: &Workspace, ctx: &mut Context) {
        for file in &ws.files {
            if !file.path.contains("src/bin/") {
                continue;
            }
            for i in 0..file.tokens.len() {
                if is_method_call(file, i, "expect") && !file.is_test_token(i) {
                    ctx.emit_at(
                        &BIN_EXPECT_BAN,
                        file,
                        i,
                        "`.expect(` in a binary root — report the error and exit nonzero, \
                         or move panic-happy diagnostics to `examples/`"
                            .to_string(),
                    );
                }
            }
        }
    }
}

/// P003: no shipped placeholders.
pub struct PlaceholderPass;

impl Pass for PlaceholderPass {
    fn rule(&self) -> &'static Rule {
        &NO_PLACEHOLDERS
    }

    fn run(&self, ws: &Workspace, ctx: &mut Context) {
        for file in &ws.files {
            for i in 0..file.tokens.len() {
                let is_macro = (file.is_ident(i, "todo") || file.is_ident(i, "unimplemented"))
                    && file.next_nt(i).is_some_and(|n| file.is_punct(n, '!'));
                if is_macro {
                    ctx.emit_at(
                        &NO_PLACEHOLDERS,
                        file,
                        i,
                        format!("`{}!` must not ship", file.text_of(i)),
                    );
                }
            }
        }
    }
}

/// P004: no f32 narrowing in numerics crates.
pub struct F32NarrowingPass;

impl Pass for F32NarrowingPass {
    fn rule(&self) -> &'static Rule {
        &NO_F32_NARROWING
    }

    fn run(&self, ws: &Workspace, ctx: &mut Context) {
        for file in &ws.files {
            let banned = NO_F32_CRATES
                .iter()
                .any(|c| file.path.starts_with(&format!("crates/{c}/")));
            if !banned {
                continue;
            }
            for i in 0..file.tokens.len() {
                if file.is_ident(i, "as")
                    && file.next_nt(i).is_some_and(|n| file.is_ident(n, "f32"))
                {
                    ctx.emit_at(
                        &NO_F32_NARROWING,
                        file,
                        i,
                        "`as f32` narrows f64 model math; keep f64 end to end".to_string(),
                    );
                }
            }
        }
    }
}

/// P005: required crate-root lint headers.
pub struct CrateHeadersPass;

impl Pass for CrateHeadersPass {
    fn rule(&self) -> &'static Rule {
        &CRATE_HEADERS
    }

    fn run(&self, ws: &Workspace, ctx: &mut Context) {
        for file in &ws.files {
            if !is_crate_root(&file.path) {
                continue;
            }
            if !has_inner_attr(file, "deny", "unsafe_code") {
                ctx.emit(
                    &CRATE_HEADERS,
                    &file.path,
                    1,
                    1,
                    "crate root is missing `#![deny(unsafe_code)]`".to_string(),
                );
            }
            if file.path.ends_with("src/lib.rs") && !has_inner_attr(file, "warn", "missing_docs") {
                ctx.emit(
                    &CRATE_HEADERS,
                    &file.path,
                    1,
                    1,
                    "lib.rs is missing `#![warn(missing_docs)]`".to_string(),
                );
            }
        }
    }
}

/// True when the file contains `#![<level>(<lint>)]` as real tokens.
fn has_inner_attr(file: &FileIndex, level: &str, lint: &str) -> bool {
    (0..file.tokens.len()).any(|i| {
        file.is_punct(i, '#')
            && file.next_nt(i).is_some_and(|b| file.is_punct(b, '!'))
            && file
                .next_nt(i)
                .and_then(|b| file.next_nt(b))
                .is_some_and(|br| file.is_punct(br, '['))
            && {
                let inner = file
                    .next_nt(i)
                    .and_then(|b| file.next_nt(b))
                    .and_then(|br| file.next_nt(br));
                inner.is_some_and(|l| {
                    file.is_ident(l, level)
                        && file
                            .next_nt(l)
                            .and_then(|o| file.next_nt(o))
                            .is_some_and(|arg| file.is_ident(arg, lint))
                })
            }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::Workspace;

    fn run(pass: &dyn Pass, src: &str) -> Vec<String> {
        let ws = Workspace::from_sources(vec![("crates/demo/src/a.rs".into(), src.into())]);
        let mut ctx = Context::default();
        pass.run(&ws, &mut ctx);
        ctx.diagnostics.iter().map(|d| d.to_string()).collect()
    }

    #[test]
    fn unwrap_in_library_code_flagged() {
        let got = run(&UnwrapBanPass, "fn f() { x().unwrap(); }\n");
        assert_eq!(got.len(), 1, "{got:?}");
    }

    #[test]
    fn unwrap_in_tests_exempt() {
        let got = run(
            &UnwrapBanPass,
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { x().unwrap(); }\n}\n",
        );
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn expect_flagged_only_in_bin_roots() {
        let ws = Workspace::from_sources(vec![
            (
                "crates/demo/src/bin/tool.rs".into(),
                "fn main() { x().expect(\"boom\"); }\n".into(),
            ),
            (
                "crates/demo/src/lib.rs".into(),
                "fn f() { x().expect(\"why\"); }\n".into(),
            ),
        ]);
        let mut ctx = Context::default();
        BinExpectPass.run(&ws, &mut ctx);
        assert_eq!(ctx.diagnostics.len(), 1, "{:?}", ctx.diagnostics);
        assert!(
            ctx.diagnostics[0].file.contains("bin"),
            "{:?}",
            ctx.diagnostics
        );
    }

    #[test]
    fn todo_flagged_even_in_tests() {
        let got = run(
            &PlaceholderPass,
            "#[cfg(test)]\nmod tests {\n    fn g() { todo!() }\n}\n",
        );
        assert_eq!(got.len(), 1, "{got:?}");
    }

    #[test]
    fn as_f32_only_in_numerics_crates() {
        let src = "fn f(x: f64) -> f32 { x as f32 }\n";
        for (path, expect_hit) in [
            ("crates/lsq/src/a.rs", true),
            ("crates/core/src/a.rs", true),
            ("crates/sim/src/a.rs", false),
        ] {
            let ws = Workspace::from_sources(vec![(path.into(), src.into())]);
            let mut ctx = Context::default();
            F32NarrowingPass.run(&ws, &mut ctx);
            assert_eq!(!ctx.diagnostics.is_empty(), expect_hit, "{path}");
        }
    }

    #[test]
    fn headers_checked_on_crate_roots() {
        let ws = Workspace::from_sources(vec![(
            "crates/demo/src/lib.rs".into(),
            "//! docs\npub fn f() {}\n".into(),
        )]);
        let mut ctx = Context::default();
        CrateHeadersPass.run(&ws, &mut ctx);
        assert_eq!(ctx.diagnostics.len(), 2, "{:?}", ctx.diagnostics);

        let ws = Workspace::from_sources(vec![(
            "crates/demo/src/lib.rs".into(),
            "#![deny(unsafe_code)]\n#![warn(missing_docs)]\npub fn f() {}\n".into(),
        )]);
        let mut ctx = Context::default();
        CrateHeadersPass.run(&ws, &mut ctx);
        assert!(ctx.diagnostics.is_empty(), "{:?}", ctx.diagnostics);
    }
}
