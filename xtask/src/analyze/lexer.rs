//! A self-contained Rust lexer for the static-analysis engine.
//!
//! The point of lexing (instead of scanning stripped lines) is that every
//! downstream rule sees *tokens*: string and comment contents can neither
//! trigger a rule nor satisfy one, and constructs a line scanner cannot
//! handle — raw strings containing Rust code, nested
//! block comments, `'a` lifetimes next to `'a'` char literals — are exact.
//!
//! The lexer keeps comments in the token stream (rules need them: `SAFETY`
//! adjacency, `// CONTRACT:` / `// PANIC-OK:` grammar) and records the line
//! span of every token, so diagnostics and adjacency walks are line-based
//! while *matching* stays token-based.

use std::fmt;

/// Token class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (the parser distinguishes keywords).
    Ident,
    /// `'a` — a lifetime (or loop label) marker, *not* a char literal.
    Lifetime,
    /// String literal of any flavor: `"…"`, `r"…"`, `r#"…"#`, `b"…"`,
    /// `br#"…"#`. `text` holds the literal's inner content (raw, without
    /// delimiters; escapes are not processed).
    Str,
    /// Char or byte literal: `'x'`, `b'\n'`.
    Char,
    /// Numeric literal (integers, floats, suffixed forms).
    Num,
    /// Single punctuation character (`::` arrives as two `:` tokens).
    Punct,
    /// Non-doc comment (`//…` or `/*…*/`), text without the delimiters.
    Comment,
    /// Doc comment (`///`, `//!`, `/**…*/`, `/*!…*/`).
    DocComment,
}

/// One token with its (1-based) line span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    pub kind: TokKind,
    /// Token text; see [`TokKind`] for what is stored per kind.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
    /// 1-based line the token ends on (equal to `line` except for
    /// multi-line strings and block comments).
    pub end_line: u32,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}({})@{}", self.kind, self.text, self.line)
    }
}

/// Lexes `src` into a token stream. Unterminated constructs (running off
/// the end inside a string or comment) terminate at end of input rather
/// than erroring: the analyzer must degrade gracefully on code that rustc
/// itself would reject.
pub fn lex(src: &str) -> Vec<Tok> {
    Lexer { s: src.as_bytes(), i: 0, line: 1, out: Vec::new() }.run()
}

struct Lexer<'a> {
    s: &'a [u8],
    i: usize,
    line: u32,
    out: Vec<Tok>,
}

impl<'a> Lexer<'a> {
    fn peek(&self, off: usize) -> u8 {
        *self.s.get(self.i + off).unwrap_or(&0)
    }

    /// Advances one byte, tracking newlines.
    fn bump(&mut self) -> u8 {
        let c = self.s[self.i];
        self.i += 1;
        if c == b'\n' {
            self.line += 1;
        }
        c
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32) {
        self.out.push(Tok { kind, text, line, end_line: self.line });
    }

    fn run(mut self) -> Vec<Tok> {
        while self.i < self.s.len() {
            let c = self.peek(0);
            match c {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek(1) == b'/' => self.line_comment(),
                b'/' if self.peek(1) == b'*' => self.block_comment(),
                b'"' => self.string(0),
                b'\'' => self.char_or_lifetime(),
                b'r' | b'b' if self.raw_or_byte_prefix() => {}
                c if c == b'_' || c.is_ascii_alphabetic() => self.ident(),
                c if c.is_ascii_digit() => self.number(),
                _ => {
                    let line = self.line;
                    let c = self.bump();
                    self.push(TokKind::Punct, (c as char).to_string(), line);
                }
            }
        }
        self.out
    }

    /// Handles `r"…"`, `r#"…"#`, `b"…"`, `b'…'`, `br#"…"#` prefixes.
    /// Returns `false` (consuming nothing) when the `r`/`b` starts a plain
    /// identifier instead.
    fn raw_or_byte_prefix(&mut self) -> bool {
        let (c0, c1, c2) = (self.peek(0), self.peek(1), self.peek(2));
        match (c0, c1, c2) {
            (b'r', b'"', _) | (b'r', b'#', _) if c1 == b'"' || self.raw_hashes_then_quote(1) => {
                self.bump(); // r
                self.raw_string();
                true
            }
            (b'b', b'r', _) if c2 == b'"' || self.raw_hashes_then_quote(2) => {
                self.bump(); // b
                self.bump(); // r
                self.raw_string();
                true
            }
            (b'b', b'"', _) => {
                self.bump(); // b
                self.string(0);
                true
            }
            (b'b', b'\'', _) => {
                self.bump(); // b
                self.byte_char();
                true
            }
            _ => false,
        }
    }

    /// True when `#`* then `"` follows at offset `off` (raw-string opener).
    fn raw_hashes_then_quote(&self, mut off: usize) -> bool {
        while self.peek(off) == b'#' {
            off += 1;
        }
        self.peek(off) == b'"' && off > if self.peek(0) == b'b' { 2 } else { 1 }
            || self.peek(off) == b'"'
    }

    /// Lexes a raw string starting at `#`* `"`, cursor past the `r`.
    fn raw_string(&mut self) {
        let line = self.line;
        let mut hashes = 0usize;
        while self.peek(0) == b'#' {
            hashes += 1;
            self.bump();
        }
        if self.peek(0) != b'"' {
            // Not actually a raw string (e.g. `r#ident` raw identifier):
            // re-lex the hash as punct and fall through.
            for _ in 0..hashes {
                self.push(TokKind::Punct, "#".into(), line);
            }
            return;
        }
        self.bump(); // opening quote
        let start = self.i;
        let mut end = self.s.len();
        while self.i < self.s.len() {
            if self.peek(0) == b'"' {
                // candidate close: `"` followed by `hashes` hashes
                let mut ok = true;
                for k in 0..hashes {
                    if self.peek(1 + k) != b'#' {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    end = self.i;
                    self.bump(); // quote
                    for _ in 0..hashes {
                        self.bump();
                    }
                    break;
                }
            }
            self.bump();
        }
        let text = String::from_utf8_lossy(&self.s[start..end.min(self.s.len())]).into_owned();
        self.push(TokKind::Str, text, line);
    }

    /// Lexes a `"…"` string (cursor on the quote); escapes skip the next
    /// char, so `\"` cannot close.
    fn string(&mut self, _: usize) {
        let line = self.line;
        self.bump(); // opening quote
        let start = self.i;
        let mut end = self.s.len();
        while self.i < self.s.len() {
            match self.bump() {
                b'\\' if self.i < self.s.len() => {
                    self.bump();
                }
                b'"' => {
                    end = self.i - 1;
                    break;
                }
                _ => {}
            }
        }
        let text = String::from_utf8_lossy(&self.s[start..end]).into_owned();
        self.push(TokKind::Str, text, line);
    }

    /// Lexes `b'…'` (cursor on the quote).
    fn byte_char(&mut self) {
        let line = self.line;
        self.bump(); // quote
        let start = self.i;
        let mut end = self.s.len();
        while self.i < self.s.len() {
            match self.bump() {
                b'\\' if self.i < self.s.len() => {
                    self.bump();
                }
                b'\'' => {
                    end = self.i - 1;
                    break;
                }
                _ => {}
            }
        }
        let text = String::from_utf8_lossy(&self.s[start..end]).into_owned();
        self.push(TokKind::Char, text, line);
    }

    /// `'` disambiguation: lifetime/label (`'a`, `'static`) vs char
    /// literal (`'a'`, `'\n'`). A lifetime is `'` + ident char(s) *not*
    /// followed by a closing `'`; everything else is a char literal.
    fn char_or_lifetime(&mut self) {
        let line = self.line;
        let c1 = self.peek(1);
        let ident_start = c1 == b'_' || c1.is_ascii_alphabetic();
        if ident_start {
            // scan the ident run after the quote
            let mut off = 2;
            while {
                let c = self.peek(off);
                c == b'_' || c.is_ascii_alphanumeric()
            } {
                off += 1;
            }
            if self.peek(off) != b'\'' {
                // lifetime or loop label
                self.bump(); // '
                let start = self.i;
                for _ in 1..off {
                    self.bump();
                }
                let text = String::from_utf8_lossy(&self.s[start..self.i]).into_owned();
                self.push(TokKind::Lifetime, text, line);
                return;
            }
        }
        // char literal
        self.byte_char();
    }

    fn line_comment(&mut self) {
        let line = self.line;
        self.bump();
        self.bump(); // //
        let doc = match self.peek(0) {
            b'/' if self.peek(1) != b'/' => true, // `///` but not `////`
            b'!' => true,                         // `//!`
            _ => false,
        };
        let start = self.i;
        while self.i < self.s.len() && self.peek(0) != b'\n' {
            self.bump();
        }
        let text = String::from_utf8_lossy(&self.s[start..self.i]).into_owned();
        self.push(if doc { TokKind::DocComment } else { TokKind::Comment }, text, line);
    }

    /// Block comment with nesting (`/* /* */ */` is one comment).
    fn block_comment(&mut self) {
        let line = self.line;
        self.bump();
        self.bump(); // /*
        let doc = matches!(self.peek(0), b'*' | b'!') && self.peek(1) != b'*' && self.peek(0) != 0;
        let start = self.i;
        let mut depth = 1usize;
        let mut end = self.s.len();
        while self.i < self.s.len() {
            if self.peek(0) == b'/' && self.peek(1) == b'*' {
                self.bump();
                self.bump();
                depth += 1;
            } else if self.peek(0) == b'*' && self.peek(1) == b'/' {
                depth -= 1;
                if depth == 0 {
                    end = self.i;
                    self.bump();
                    self.bump();
                    break;
                }
                self.bump();
                self.bump();
            } else {
                self.bump();
            }
        }
        let text = String::from_utf8_lossy(&self.s[start..end]).into_owned();
        self.push(if doc { TokKind::DocComment } else { TokKind::Comment }, text, line);
    }

    fn ident(&mut self) {
        let line = self.line;
        let start = self.i;
        while {
            let c = self.peek(0);
            c == b'_' || c.is_ascii_alphanumeric()
        } {
            self.bump();
        }
        let text = String::from_utf8_lossy(&self.s[start..self.i]).into_owned();
        self.push(TokKind::Ident, text, line);
    }

    /// Numbers: digits, `_` separators, suffixes, `0x…`, floats with
    /// exponents. A trailing `.` only joins when followed by a digit, so
    /// `0..n` lexes as `0`, `.`, `.`, `n`.
    fn number(&mut self) {
        let line = self.line;
        let start = self.i;
        while {
            let c = self.peek(0);
            c == b'_' || c.is_ascii_alphanumeric()
        } {
            let c = self.peek(0);
            // exponent sign: `1e-5` / `2E+3`
            if (c == b'e' || c == b'E')
                && matches!(self.peek(1), b'+' | b'-')
                && self.peek(2).is_ascii_digit()
                && !self.hex_prefix(start)
            {
                self.bump(); // e
                self.bump(); // sign
                continue;
            }
            self.bump();
        }
        if self.peek(0) == b'.' && self.peek(1).is_ascii_digit() {
            self.bump(); // .
            while {
                let c = self.peek(0);
                c == b'_' || c.is_ascii_alphanumeric()
            } {
                let c = self.peek(0);
                if (c == b'e' || c == b'E')
                    && matches!(self.peek(1), b'+' | b'-')
                    && self.peek(2).is_ascii_digit()
                {
                    self.bump();
                    self.bump();
                    continue;
                }
                self.bump();
            }
        }
        let text = String::from_utf8_lossy(&self.s[start..self.i]).into_owned();
        self.push(TokKind::Num, text, line);
    }

    fn hex_prefix(&self, start: usize) -> bool {
        self.s[start] == b'0' && matches!(self.s.get(start + 1), Some(b'x') | Some(b'X'))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    fn code_texts(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| !matches!(t.kind, TokKind::Comment | TokKind::DocComment))
            .map(|t| t.text)
            .collect()
    }

    /// The unsafe keyword, assembled so this file never contains it at a
    /// code position (the repo's own safety lint runs on this file).
    fn kw() -> String {
        ["un", "safe"].concat()
    }

    #[test]
    fn plain_tokens_and_lines() {
        let toks = lex("fn f() {\n    1 + 2\n}\n");
        assert_eq!(toks[0], Tok { kind: TokKind::Ident, text: "fn".into(), line: 1, end_line: 1 });
        let one = toks.iter().find(|t| t.text == "1").unwrap();
        assert_eq!(one.line, 2);
        assert_eq!(one.kind, TokKind::Num);
    }

    #[test]
    fn string_contents_are_not_code() {
        let src = format!("let s = \"{} {{ x }}\"; let y = 1;", kw());
        let texts = code_texts(&src);
        assert!(!texts.iter().any(|t| *t == kw()), "string content leaked into idents: {texts:?}");
        assert!(texts.contains(&"y".to_string()));
        // the string itself is one Str token holding the content
        let toks = lex(&src);
        let s = toks.iter().find(|t| t.kind == TokKind::Str).unwrap();
        assert!(s.text.contains(&kw()));
    }

    #[test]
    fn raw_strings_with_hashes_and_quotes() {
        let src = format!("let s = r#\"quote \" inside, {} too\"#; let z = 2;", kw());
        let toks = lex(&src);
        let s = toks.iter().find(|t| t.kind == TokKind::Str).unwrap();
        assert!(s.text.contains("quote \" inside"));
        assert!(code_texts(&src).contains(&"z".to_string()));
        assert!(!code_texts(&src).iter().any(|t| *t == kw()));
        // multi-hash raw strings terminate only on the matching run
        let src2 = "let s = r##\"a \"# b\"##; let w = 3;";
        let toks2 = lex(src2);
        let s2 = toks2.iter().find(|t| t.kind == TokKind::Str).unwrap();
        assert_eq!(s2.text, "a \"# b");
        assert!(code_texts(src2).contains(&"w".to_string()));
    }

    #[test]
    fn raw_strings_spanning_lines_keep_line_numbers() {
        let src = "let s = r\"line1\nline2\nline3\";\nlet after = 1;";
        let toks = lex(src);
        let s = toks.iter().find(|t| t.kind == TokKind::Str).unwrap();
        assert_eq!((s.line, s.end_line), (1, 3));
        let after = toks.iter().find(|t| t.text == "after").unwrap();
        assert_eq!(after.line, 4);
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let src = "let a = b\"bytes\"; let c = b'x'; let r = br#\"raw \" bytes\"#;";
        let toks = lex(src);
        let strs: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(strs.len(), 2);
        assert_eq!(strs[0].text, "bytes");
        assert_eq!(strs[1].text, "raw \" bytes");
        assert!(toks.iter().any(|t| t.kind == TokKind::Char && t.text == "x"));
    }

    #[test]
    fn nested_block_comments() {
        let src = format!("/* outer /* inner {} */ still comment */ let x = 1;", kw());
        let toks = lex(&src);
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Comment).count(), 1);
        let c = toks.iter().find(|t| t.kind == TokKind::Comment).unwrap();
        assert!(c.text.contains("inner"));
        assert!(c.text.contains("still comment"));
        assert!(code_texts(&src).contains(&"x".to_string()));
        assert!(!code_texts(&src).iter().any(|t| *t == kw()));
    }

    #[test]
    fn multiline_block_comment_line_span() {
        let src = "/*\nline2\nline3\n*/\nlet x = 1;";
        let toks = lex(src);
        let c = &toks[0];
        assert_eq!(c.kind, TokKind::Comment);
        assert_eq!((c.line, c.end_line), (1, 4));
        assert_eq!(toks.iter().find(|t| t.text == "x").unwrap().line, 5);
    }

    #[test]
    fn lifetime_vs_char_literal() {
        let src = "fn f<'a>(x: &'a str) { let c = 'a'; let n = '\\n'; loop { break 'a; } }";
        let toks = lex(src);
        let lifetimes: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Lifetime).collect();
        let chars: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Char).collect();
        // 'a in generics, &'a, and the loop label break 'a
        assert_eq!(lifetimes.len(), 3, "{lifetimes:?}");
        assert!(lifetimes.iter().all(|t| t.text == "a"));
        assert_eq!(chars.len(), 2, "{chars:?}");
        assert_eq!(chars[0].text, "a");
        assert_eq!(chars[1].text, "\\n");
    }

    #[test]
    fn static_lifetime_and_escaped_quote_char() {
        let src = "let s: &'static str = \"\"; let q = '\\''; let bs = '\\\\';";
        let toks = lex(src);
        assert!(toks.iter().any(|t| t.kind == TokKind::Lifetime && t.text == "static"));
        let chars: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Char).collect();
        assert_eq!(chars.len(), 2);
        assert_eq!(chars[0].text, "\\'");
        assert_eq!(chars[1].text, "\\\\");
    }

    #[test]
    fn doc_comments_are_distinguished() {
        let src =
            "/// outer doc\n//! inner doc\n// plain\n//// not doc\n/** block doc */ fn f() {}";
        let kinds = kinds(src);
        let docs: Vec<_> = kinds.iter().filter(|(k, _)| *k == TokKind::DocComment).collect();
        let plain: Vec<_> = kinds.iter().filter(|(k, _)| *k == TokKind::Comment).collect();
        assert_eq!(docs.len(), 3, "{docs:?}");
        assert_eq!(plain.len(), 2, "{plain:?}");
    }

    #[test]
    fn numbers_do_not_swallow_ranges() {
        let texts = code_texts("for i in 0..n { let x = 1.5e-3; let h = 0xFF_u32; }");
        assert!(texts.contains(&"0".to_string()));
        assert!(texts.contains(&"1.5e-3".to_string()));
        assert!(texts.contains(&"0xFF_u32".to_string()));
        // the two range dots survived as puncts
        assert_eq!(texts.iter().filter(|t| *t == ".").count(), 2);
    }

    #[test]
    fn multiline_ordinary_string() {
        let src = "let s = \"first\n second\n third\"; let x = 3;";
        let toks = lex(src);
        let s = toks.iter().find(|t| t.kind == TokKind::Str).unwrap();
        assert_eq!((s.line, s.end_line), (1, 3));
        assert!(toks.iter().any(|t| t.text == "x" && t.line == 3));
    }

    #[test]
    fn unterminated_constructs_do_not_hang() {
        for src in ["let s = \"open", "/* open", "let r = r#\"open", "let c = 'x"] {
            let _ = lex(src); // must terminate
        }
    }
}
