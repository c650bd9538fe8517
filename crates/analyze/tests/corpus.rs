//! Corpus tests: the lexer must be lossless over every `.rs` file in
//! the real workspace, with byte-accurate spans — plus regression tests
//! for the token-blindness bugs of the old line-regex lint.

use std::path::Path;

use etm_analyze::lexer::{lex, TokenKind};
use etm_analyze::passes::{policy, Context, Pass};
use etm_analyze::Workspace;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/analyze sits two levels under the workspace root")
}

#[test]
fn every_workspace_file_round_trips() {
    let ws = Workspace::load(repo_root()).expect("workspace loads");
    assert!(
        ws.files.len() >= 20,
        "suspiciously small workspace: {} files",
        ws.files.len()
    );
    for file in &ws.files {
        let rebuilt: String = file.tokens.iter().map(|t| t.text(&file.text)).collect();
        assert_eq!(rebuilt, file.text, "lossy lex of {}", file.path);
    }
}

#[test]
fn every_workspace_token_tiles_and_spans_accurately() {
    let ws = Workspace::load(repo_root()).expect("workspace loads");
    for file in &ws.files {
        // Tiling: tokens cover the byte range exactly, in order.
        let mut expect_start = 0usize;
        for t in &file.tokens {
            assert_eq!(t.start, expect_start, "gap/overlap in {}", file.path);
            assert!(t.end > t.start, "empty token in {}", file.path);
            expect_start = t.end;
        }
        assert_eq!(expect_start, file.text.len(), "tail gap in {}", file.path);

        // Spans: recompute line/col (1-based, byte columns) from the
        // raw text and compare.
        let bytes = file.text.as_bytes();
        let (mut line, mut col) = (1u32, 1u32);
        let mut pos = 0usize;
        for t in &file.tokens {
            while pos < t.start {
                if bytes[pos] == b'\n' {
                    line += 1;
                    col = 1;
                } else {
                    col += 1;
                }
                pos += 1;
            }
            assert_eq!(
                (t.line, t.col),
                (line, col),
                "span drift at byte {} of {}",
                t.start,
                file.path
            );
        }
    }
}

#[test]
fn marker_comments_report_exact_spans() {
    let src = "fn f() {\n    let x = 1; // MARK-A\n}\n/* MARK-B */\n";
    let toks = lex(src);
    let a = toks
        .iter()
        .find(|t| t.text(src).contains("MARK-A"))
        .expect("MARK-A");
    assert_eq!(a.kind, TokenKind::LineComment);
    assert_eq!((a.line, a.col), (2, 16));
    let b = toks
        .iter()
        .find(|t| t.text(src).contains("MARK-B"))
        .expect("MARK-B");
    assert_eq!(b.kind, TokenKind::BlockComment);
    assert_eq!((b.line, b.col), (4, 1));
    assert_eq!(&src[b.start..b.end], "/* MARK-B */");
}

/// Runs P001 over one in-memory file.
fn unwrap_diags(src: &str) -> Vec<String> {
    let ws = Workspace::from_sources(vec![("crates/demo/src/a.rs".to_string(), src.to_string())]);
    let mut ctx = Context::default();
    policy::UnwrapBanPass.run(&ws, &mut ctx);
    ctx.diagnostics.iter().map(|d| d.to_string()).collect()
}

// ---- regression: the old line-regex lint miscounted all of these ----

#[test]
fn unwrap_in_line_comment_is_not_code() {
    let got = unwrap_diags("fn f() {\n    // call .unwrap() here? never.\n    g();\n}\n");
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn unwrap_in_doc_comment_is_not_code() {
    let got = unwrap_diags("/// Returns `x.unwrap()` semantics without the panic.\nfn f() {}\n");
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn unwrap_in_string_literal_is_not_code() {
    let got = unwrap_diags("fn f() -> &'static str { \"do not call .unwrap() in prod\" }\n");
    assert!(got.is_empty(), "{got:?}");
    let got = unwrap_diags("fn f() -> &'static str { r#\"raw .unwrap() text\"# }\n");
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn commented_out_unwrap_does_not_trip_even_with_marker_nearby() {
    // `// x().unwrap()  // unwrap-ok: dead code` — no code at all.
    let got = unwrap_diags("fn f() {\n    // x().unwrap()  // unwrap-ok: dead code\n}\n");
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn code_after_single_cfg_test_item_is_still_linted() {
    // The old lint treated everything after the first `#[cfg(test)]`
    // line as tests; the scanner gates only the attributed item.
    let got = unwrap_diags(
        "#[cfg(test)]\nmod tests {\n    fn t() { x().unwrap(); }\n}\n\
         fn shipped() { y().unwrap(); }\n",
    );
    assert_eq!(got.len(), 1, "{got:?}");
    assert!(got[0].contains(":5:"), "should point at shipped(): {got:?}");
}
