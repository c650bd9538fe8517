//! Item scanner: a lightweight structural layer over the token stream.
//!
//! No AST — just enough shape recovery to tell test code from the
//! rest: matched delimiter pairs and `#[cfg(test)]` / `#[test]`
//! regions, found precisely (the old line-regex lint assumed
//! "everything after the first `#[cfg(test)]` line is tests", which is
//! wrong for files with a single cfg-gated item).

use std::collections::HashMap;

use crate::lexer::{lex, Token, TokenKind};

/// A lexed and structurally indexed source file.
pub struct FileIndex {
    /// Workspace-relative path (`crates/core/src/engine.rs`).
    pub path: String,
    /// The file's full text.
    pub text: String,
    /// Lossless token stream.
    pub tokens: Vec<Token>,
    /// Token-index ranges (inclusive) covered by test-gated items.
    test_ranges: Vec<(usize, usize)>,
}

impl FileIndex {
    /// Lexes and indexes one file.
    pub fn new(path: String, text: String) -> FileIndex {
        let tokens = lex(&text);
        let pairs = match_delimiters(&tokens, &text);
        let test_ranges = scan_items(&tokens, &text, &pairs);
        FileIndex {
            path,
            text,
            tokens,
            test_ranges,
        }
    }

    /// The text of token `i`.
    pub fn text_of(&self, i: usize) -> &str {
        self.tokens[i].text(&self.text)
    }

    /// True when token `i` is inside a test-gated item.
    pub fn is_test_token(&self, i: usize) -> bool {
        self.test_ranges.iter().any(|&(a, b)| a <= i && i <= b)
    }

    /// True when token `i` is an identifier with exactly this text.
    pub fn is_ident(&self, i: usize, text: &str) -> bool {
        self.tokens[i].kind == TokenKind::Ident && self.text_of(i) == text
    }
}

/// Matches `()`, `[]`, `{}` pairs over the token stream. Delimiters
/// inside strings/comments/chars are whole tokens of those kinds, so
/// only real structural delimiters participate. Unbalanced input
/// degrades gracefully (unmatched opens simply have no entry).
fn match_delimiters(tokens: &[Token], text: &str) -> HashMap<usize, usize> {
    let mut pairs = HashMap::new();
    let mut stack: Vec<(usize, char)> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Punct {
            continue;
        }
        match t.text(text) {
            "(" => stack.push((i, ')')),
            "[" => stack.push((i, ']')),
            "{" => stack.push((i, '}')),
            s @ (")" | "]" | "}") => {
                let want = s.chars().next().expect("one char");
                // Pop to the innermost matching open; tolerate junk.
                if let Some(top) = stack.last() {
                    if top.1 == want {
                        let (open, _) = stack.pop().expect("non-empty");
                        pairs.insert(open, i);
                    }
                }
            }
            _ => {}
        }
    }
    pairs
}

/// Finds the token ranges of test-gated items in one walk: each item
/// that follows a `#[...]` attribute mentioning `test` (`#[test]`,
/// `#[cfg(test)]`, `#[cfg(all(test, ...))]`). The walk does not jump
/// over item bodies, so gated items nested inside them are found too.
fn scan_items(tokens: &[Token], text: &str, pairs: &HashMap<usize, usize>) -> Vec<(usize, usize)> {
    let nt: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_trivia())
        .collect();
    let is_punct = |i: usize, c: char| {
        tokens[i].kind == TokenKind::Punct && tokens[i].text(text).starts_with(c)
    };

    let mut test_ranges: Vec<(usize, usize)> = Vec::new();
    // Pending `#[test]` / `#[cfg(test)]`-style attribute for the next item.
    let mut pending_test_attr = false;

    let mut p = 0usize; // position in `nt`
    while p < nt.len() {
        let i = nt[p];
        // Attributes: `#[...]` (outer) and `#![...]` (inner).
        if is_punct(i, '#') {
            let mut q = p + 1;
            if q < nt.len() && is_punct(nt[q], '!') {
                q += 1; // inner attribute — skip, never test-gates an item
            }
            if q < nt.len() && is_punct(nt[q], '[') {
                let open = nt[q];
                if let Some(&close) = pairs.get(&open) {
                    let mentions_test = (open..=close).any(|k| {
                        tokens[k].kind == TokenKind::Ident && tokens[k].text(text) == "test"
                    });
                    if mentions_test && !is_punct(nt[p + 1], '!') {
                        pending_test_attr = true;
                    }
                    // Resume after the `]`.
                    while p < nt.len() && nt[p] <= close {
                        p += 1;
                    }
                    continue;
                }
            }
            p += 1;
            continue;
        }
        // A test-gated item: mark its full token extent.
        if pending_test_attr {
            pending_test_attr = false;
            if let Some(end) = item_end(tokens, text, pairs, &nt, p) {
                test_ranges.push((i, end));
            }
        }
        p += 1;
    }
    test_ranges
}

/// The token index where the item starting at `nt[p]` ends: the close
/// of its first top-level `{…}` block, or its terminating `;`. `(…)`
/// and `[…]` groups are jumped so a `;` inside `[u8; 3]` does not end
/// the item early.
fn item_end(
    tokens: &[Token],
    text: &str,
    pairs: &HashMap<usize, usize>,
    nt: &[usize],
    p: usize,
) -> Option<usize> {
    let mut q = p;
    while q < nt.len() {
        let i = nt[q];
        if tokens[i].kind == TokenKind::Punct {
            match tokens[i].text(text) {
                "{" => return pairs.get(&i).copied(),
                "(" | "[" => {
                    if let Some(&close) = pairs.get(&i) {
                        while q < nt.len() && nt[q] <= close {
                            q += 1;
                        }
                        continue;
                    }
                }
                ";" => return Some(i),
                "}" => return None, // ran off the enclosing block
                _ => {}
            }
        }
        q += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index(src: &str) -> FileIndex {
        FileIndex::new("crates/demo/src/a.rs".into(), src.into())
    }

    /// Whether the first identifier token `name` sits in a test region.
    fn in_test(ix: &FileIndex, name: &str) -> bool {
        let tok = (0..ix.tokens.len())
            .find(|&i| ix.is_ident(i, name))
            .unwrap_or_else(|| panic!("no identifier `{name}`"));
        ix.is_test_token(tok)
    }

    #[test]
    fn cfg_test_region_is_precise() {
        let ix = index(
            "fn lib_code() {}\n\
             #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\n\
             fn after_tests() {}\n",
        );
        assert!(!in_test(&ix, "lib_code"));
        assert!(in_test(&ix, "t"));
        assert!(!in_test(&ix, "after_tests"));
    }

    #[test]
    fn single_cfg_test_item_does_not_poison_rest_of_file() {
        // The old line-based lint treated everything after the first
        // `#[cfg(test)]` as tests; the scanner gates only the one item.
        let ix = index(
            "#[cfg(test)]\nuse std::fmt;\n\
             fn real_code() {}\n",
        );
        assert!(in_test(&ix, "fmt"));
        assert!(!in_test(&ix, "real_code"));
    }

    #[test]
    fn delimiters_in_strings_do_not_confuse_matching() {
        // The braces inside the string and char literals must not close
        // the gated fn early (or late).
        let ix = index(
            "#[test]\nfn f() { let s = \"}{)(\"; let c = '{'; tail(); }\n\
             fn g() {}\n",
        );
        assert!(in_test(&ix, "tail"));
        assert!(!in_test(&ix, "g"));
    }
}
