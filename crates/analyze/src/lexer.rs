//! A lossless Rust lexer: every byte of the input is covered by exactly
//! one token, so `tokens.map(text).concat() == input` for any input —
//! including malformed source (unterminated strings and comments run to
//! end of file rather than erroring).
//!
//! The lexer understands the parts of Rust's lexical grammar that a
//! line-regex cannot: nested block comments, raw strings with arbitrary
//! hash fences, byte/C strings, raw identifiers, and the char-literal /
//! lifetime ambiguity (`'a'` vs `'a`). Spans are byte-accurate and every
//! token records the 1-based line/column where it starts.

/// Lexical class of one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Horizontal/vertical whitespace run.
    Whitespace,
    /// `// ...` to end of line (doc variants `///`, `//!` included).
    LineComment,
    /// `/* ... */`, nesting respected (doc variants `/**`, `/*!` too).
    BlockComment,
    /// Identifier or keyword (`fn`, `state`, `r#match`, `_`).
    Ident,
    /// A lifetime such as `'a` or `'static` (no closing quote).
    Lifetime,
    /// A char or byte-char literal: `'x'`, `'\n'`, `b'0'`.
    Char,
    /// Any string-ish literal: `"…"`, `r#"…"#`, `b"…"`, `br"…"`, `c"…"`.
    Str,
    /// Numeric literal (integer or float, suffixes attached).
    Number,
    /// A single punctuation character (`.`, `{`, `<`, …).
    Punct,
}

/// One token: a kind plus its byte span and starting line/column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// Lexical class.
    pub kind: TokenKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line of the first byte.
    pub line: u32,
    /// 1-based column (in bytes) of the first byte on its line.
    pub col: u32,
}

impl Token {
    /// The token's text within the source it was lexed from.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start..self.end]
    }

    /// True for whitespace and comments — tokens the item scanner skips
    /// over.
    pub fn is_trivia(&self) -> bool {
        matches!(
            self.kind,
            TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
        )
    }
}

/// Lexes `src` into a lossless token stream.
pub fn lex(src: &str) -> Vec<Token> {
    let mut tokens = Vec::with_capacity(src.len() / 4);
    let mut pos = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;
    while pos < src.len() {
        let start = pos;
        let (start_line, start_col) = (line, col);
        let kind = scan_token(src, &mut pos);
        debug_assert!(pos > start, "lexer must always make progress");
        for b in src.as_bytes()[start..pos].iter() {
            if *b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        tokens.push(Token {
            kind,
            start,
            end: pos,
            line: start_line,
            col: start_col,
        });
    }
    tokens
}

fn char_at(src: &str, pos: usize) -> Option<char> {
    src[pos..].chars().next()
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// Scans one token starting at `*pos`, advancing `*pos` past it.
fn scan_token(src: &str, pos: &mut usize) -> TokenKind {
    let c = char_at(src, *pos).expect("scan_token called at end of input");
    // Whitespace run.
    if c.is_whitespace() {
        while let Some(c) = char_at(src, *pos) {
            if !c.is_whitespace() {
                break;
            }
            *pos += c.len_utf8();
        }
        return TokenKind::Whitespace;
    }
    // Comments.
    if c == '/' {
        if src[*pos..].starts_with("//") {
            let rest = &src[*pos..];
            let len = rest.find('\n').unwrap_or(rest.len());
            *pos += len;
            return TokenKind::LineComment;
        }
        if src[*pos..].starts_with("/*") {
            scan_block_comment(src, pos);
            return TokenKind::BlockComment;
        }
    }
    // Plain strings.
    if c == '"' {
        *pos += 1;
        scan_string_body(src, pos);
        return TokenKind::Str;
    }
    // r-prefixed: raw string (`r"…"`, `r#"…"#`) or raw ident (`r#match`).
    if c == 'r' {
        if let Some(kind) = scan_r_prefixed(src, pos) {
            return kind;
        }
    }
    // b/c-prefixed literals: b"…", b'…', br#"…"#, c"…", cr"…".
    if c == 'b' || c == 'c' {
        if let Some(kind) = scan_bc_prefixed(src, pos, c == 'b') {
            return kind;
        }
    }
    // Lifetime vs char literal.
    if c == '\'' {
        return scan_quote(src, pos);
    }
    // Numbers.
    if c.is_ascii_digit() {
        scan_number(src, pos);
        return TokenKind::Number;
    }
    // Identifiers and keywords.
    if is_ident_start(c) {
        scan_ident(src, pos);
        return TokenKind::Ident;
    }
    // Anything else is one punctuation character.
    *pos += c.len_utf8();
    TokenKind::Punct
}

/// `/* … */` with nesting; unterminated comments run to end of input.
fn scan_block_comment(src: &str, pos: &mut usize) {
    *pos += 2; // consume `/*`
    let mut depth = 1usize;
    while *pos < src.len() {
        if src[*pos..].starts_with("/*") {
            depth += 1;
            *pos += 2;
        } else if src[*pos..].starts_with("*/") {
            depth -= 1;
            *pos += 2;
            if depth == 0 {
                return;
            }
        } else {
            *pos += char_at(src, *pos).map_or(1, char::len_utf8);
        }
    }
}

/// Body of a `"…"` string, `*pos` just past the opening quote.
/// Backslash escapes any single following character (enough to keep
/// `\"` and `\\` from ending the literal early).
fn scan_string_body(src: &str, pos: &mut usize) {
    while *pos < src.len() {
        let c = char_at(src, *pos).expect("in bounds");
        *pos += c.len_utf8();
        if c == '\\' {
            if let Some(esc) = char_at(src, *pos) {
                *pos += esc.len_utf8();
            }
        } else if c == '"' {
            return;
        }
    }
}

/// `r"…"` / `r#"…"#` raw strings and `r#ident` raw identifiers. Returns
/// `None` when the `r` begins an ordinary identifier (`run`, `rx`).
fn scan_r_prefixed(src: &str, pos: &mut usize) -> Option<TokenKind> {
    let after_r = *pos + 1;
    let mut hashes = 0usize;
    while src.as_bytes().get(after_r + hashes) == Some(&b'#') {
        hashes += 1;
    }
    match char_at(src, after_r + hashes) {
        Some('"') => {
            *pos = after_r + hashes + 1;
            scan_raw_string_body(src, pos, hashes);
            Some(TokenKind::Str)
        }
        Some(c) if hashes == 1 && is_ident_start(c) => {
            *pos = after_r + 1;
            scan_ident(src, pos);
            Some(TokenKind::Ident)
        }
        _ => None,
    }
}

/// Body of a raw string: ends at `"` followed by `hashes` `#`s. No
/// escapes. Unterminated raw strings run to end of input.
fn scan_raw_string_body(src: &str, pos: &mut usize, hashes: usize) {
    while *pos < src.len() {
        let c = char_at(src, *pos).expect("in bounds");
        *pos += c.len_utf8();
        if c == '"' {
            let mut n = 0usize;
            while n < hashes && src.as_bytes().get(*pos + n) == Some(&b'#') {
                n += 1;
            }
            if n == hashes {
                *pos += n;
                return;
            }
        }
    }
}

/// `b"…"`, `b'…'`, `br"…"`, `c"…"`, `cr#"…"#` — byte and C literals.
/// Returns `None` when the `b`/`c` begins an ordinary identifier.
fn scan_bc_prefixed(src: &str, pos: &mut usize, allow_char: bool) -> Option<TokenKind> {
    let next = char_at(src, *pos + 1);
    match next {
        Some('"') => {
            *pos += 2;
            scan_string_body(src, pos);
            Some(TokenKind::Str)
        }
        Some('\'') if allow_char => {
            *pos += 1;
            // `b'x'` — scan_quote handles the rest (never a lifetime:
            // byte chars always close).
            Some(scan_quote(src, pos))
        }
        Some('r') => {
            // br"…" / cr#"…"# — reuse the raw-string scanner one byte in.
            let save = *pos;
            *pos += 1;
            match scan_r_prefixed(src, pos) {
                Some(TokenKind::Str) => Some(TokenKind::Str),
                _ => {
                    *pos = save;
                    None
                }
            }
        }
        _ => None,
    }
}

/// Disambiguates `'a` (lifetime) from `'a'` (char literal), `*pos` at
/// the opening quote.
fn scan_quote(src: &str, pos: &mut usize) -> TokenKind {
    *pos += 1; // opening quote
    let Some(c1) = char_at(src, *pos) else {
        return TokenKind::Char; // lone trailing quote
    };
    if c1 == '\\' {
        // Escaped char literal: consume the escape, then everything up
        // to the closing quote (covers `'\u{1F600}'`).
        *pos += 1;
        if let Some(esc) = char_at(src, *pos) {
            *pos += esc.len_utf8();
        }
        while let Some(c) = char_at(src, *pos) {
            *pos += c.len_utf8();
            if c == '\'' {
                break;
            }
        }
        return TokenKind::Char;
    }
    if is_ident_start(c1) {
        // Could be `'a'` (char) or `'a` / `'static` (lifetime): consume
        // the ident run, then look for a closing quote.
        let mut p = *pos;
        while let Some(c) = char_at(src, p) {
            if !is_ident_continue(c) {
                break;
            }
            p += c.len_utf8();
        }
        if char_at(src, p) == Some('\'') {
            *pos = p + 1;
            return TokenKind::Char;
        }
        *pos = p;
        return TokenKind::Lifetime;
    }
    // Punctuation/digit char literal like `'('` or `'0'` — or an empty
    // `''`. Consume one char and the closing quote if present.
    *pos += c1.len_utf8();
    if c1 != '\'' && char_at(src, *pos) == Some('\'') {
        *pos += 1;
    }
    TokenKind::Char
}

/// Numeric literal: decimal/hex/octal/binary integers, floats with
/// fraction and exponent, type suffixes. Method calls (`1.max(2)`) and
/// ranges (`0..n`) are *not* swallowed: a `.` is only part of the
/// number when a digit follows it.
fn scan_number(src: &str, pos: &mut usize) {
    let bytes = src.as_bytes();
    if src[*pos..].starts_with("0x")
        || src[*pos..].starts_with("0X")
        || src[*pos..].starts_with("0o")
        || src[*pos..].starts_with("0b")
    {
        *pos += 2;
        while bytes
            .get(*pos)
            .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
        {
            *pos += 1;
        }
        return;
    }
    while bytes
        .get(*pos)
        .is_some_and(|b| b.is_ascii_digit() || *b == b'_')
    {
        *pos += 1;
    }
    if bytes.get(*pos) == Some(&b'.') && bytes.get(*pos + 1).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
        while bytes
            .get(*pos)
            .is_some_and(|b| b.is_ascii_digit() || *b == b'_')
        {
            *pos += 1;
        }
    }
    if bytes.get(*pos) == Some(&b'e') || bytes.get(*pos) == Some(&b'E') {
        let sign = usize::from(matches!(bytes.get(*pos + 1), Some(b'+') | Some(b'-')));
        if bytes.get(*pos + 1 + sign).is_some_and(u8::is_ascii_digit) {
            *pos += 1 + sign;
            while bytes
                .get(*pos)
                .is_some_and(|b| b.is_ascii_digit() || *b == b'_')
            {
                *pos += 1;
            }
        }
    }
    // Type suffix (`u32`, `f64`, `usize`).
    while let Some(c) = char_at(src, *pos) {
        if !is_ident_continue(c) {
            break;
        }
        *pos += c.len_utf8();
    }
}

/// Identifier run, `*pos` at its first character.
fn scan_ident(src: &str, pos: &mut usize) {
    while let Some(c) = char_at(src, *pos) {
        if !is_ident_continue(c) {
            break;
        }
        *pos += c.len_utf8();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src)
            .into_iter()
            .filter(|t| !t.is_trivia())
            .map(|t| (t.kind, t.text(src).to_string()))
            .collect()
    }

    fn round_trip(src: &str) {
        let rebuilt: String = lex(src).iter().map(|t| t.text(src)).collect();
        assert_eq!(rebuilt, src);
    }

    #[test]
    fn lossless_on_tricky_inputs() {
        for src in [
            "",
            "fn main() {}",
            "let s = \"a \\\" quote\";",
            "let r = r#\"raw \" inside\"#;",
            "let r = r##\"nested \"# fence\"##;",
            "let b = b\"bytes\"; let c = b'x';",
            "/* outer /* inner */ still comment */ fn f() {}",
            "// line with \"string\" and 'quote\n let x = 1;",
            "let lt: &'static str = \"s\"; let c = 'a'; let nl = '\\n';",
            "let e = '\\u{1F600}'; let tick = '\\'';",
            "let n = 0x_FF_u32 + 1_000.5e-3f64 + 0b1010;",
            "let unterminated = \"runs to eof",
            "/* unterminated comment",
            "let raw_id = r#match; let not_raw = rx;",
            "for i in 0..10 { x = i.max(3); }",
            "let shifted = 1 << 2 >> 3;",
            "émoji_idents_работают(); // ünïcode",
        ] {
            round_trip(src);
        }
    }

    #[test]
    fn comments_and_strings_classified() {
        let src = "// c1\n/// doc .unwrap()\n/* b */ \"s .unwrap()\" r\"raw\"";
        let toks = lex(src);
        let kinds: Vec<TokenKind> = toks
            .iter()
            .filter(|t| !matches!(t.kind, TokenKind::Whitespace))
            .map(|t| t.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![
                TokenKind::LineComment,
                TokenKind::LineComment,
                TokenKind::BlockComment,
                TokenKind::Str,
                TokenKind::Str,
            ]
        );
    }

    #[test]
    fn lifetime_vs_char() {
        let got = kinds("'a 'static 'a' '\\n' '_' b'z'");
        assert_eq!(
            got,
            vec![
                (TokenKind::Lifetime, "'a".into()),
                (TokenKind::Lifetime, "'static".into()),
                (TokenKind::Char, "'a'".into()),
                (TokenKind::Char, "'\\n'".into()),
                // `'_'` (with the closing quote) is a char literal of
                // the underscore; only a bare `'_` is a lifetime.
                (TokenKind::Char, "'_'".into()),
                (TokenKind::Char, "b'z'".into()),
            ]
        );
        let got = kinds("&'_ str");
        assert!(got.contains(&(TokenKind::Lifetime, "'_".into())), "{got:?}");
    }

    #[test]
    fn nested_block_comment_is_one_token() {
        let src = "/* a /* b */ c */X";
        let toks = lex(src);
        assert_eq!(toks[0].kind, TokenKind::BlockComment);
        assert_eq!(toks[0].text(src), "/* a /* b */ c */");
        assert_eq!(toks[1].text(src), "X");
    }

    #[test]
    fn raw_string_with_fence_is_one_token() {
        let src = "r##\"has \"# inside\"## tail";
        let toks = lex(src);
        assert_eq!(toks[0].kind, TokenKind::Str);
        assert_eq!(toks[0].text(src), "r##\"has \"# inside\"##");
    }

    #[test]
    fn numbers_do_not_swallow_methods_or_ranges() {
        let got = kinds("1.max(2) 0..3 1.5e3 2.0f64");
        assert_eq!(got[0], (TokenKind::Number, "1".into()));
        assert_eq!(got[1], (TokenKind::Punct, ".".into()));
        assert_eq!(got[2], (TokenKind::Ident, "max".into()));
        assert!(got.contains(&(TokenKind::Number, "0".into())));
        assert!(got.contains(&(TokenKind::Number, "1.5e3".into())));
        assert!(got.contains(&(TokenKind::Number, "2.0f64".into())));
    }

    #[test]
    fn line_and_column_tracking() {
        let src = "ab\n  cd \"s\"\n'x'";
        let toks: Vec<Token> = lex(src).into_iter().filter(|t| !t.is_trivia()).collect();
        assert_eq!((toks[0].line, toks[0].col), (1, 1)); // ab
        assert_eq!((toks[1].line, toks[1].col), (2, 3)); // cd
        assert_eq!((toks[2].line, toks[2].col), (2, 6)); // "s"
        assert_eq!((toks[3].line, toks[3].col), (3, 1)); // 'x'
    }
}
