//! Corpus tests: the lexer must be lossless over every `.rs` file in
//! the real workspace, with byte-accurate spans.

use std::path::Path;

use etm_analyze::lexer::{lex, TokenKind};
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
