//! Hand-rolled Rust token stream — the substrate both simlint rules run on.
//!
//! A line scrubber that blanks strings and comments breaks on multi-line
//! strings, nested block comments and `r#"…"#` forms. This lexer produces
//! a real token sequence — identifiers, number literals with suffixes,
//! multi-char operators, comments, string/char literals — each carrying a
//! 1-based `(line, col)` span and the brace-nesting depth at its position.
//! It is a lexer, not a parser: good enough to drive token-pattern rules,
//! with zero external dependencies (workspace policy).
//!
//! Fidelity notes (deliberate simplifications, safe for linting):
//! * keywords and lifetimes (`'a`) are plain [`Kind::Ident`] tokens — rules
//!   match on text;
//! * char and byte literals (`'['`, `b'\n'`) are [`Kind::Str`] tokens, so
//!   a bracket or quote inside one never leaks;
//! * raw identifiers `r#type` lex as the bare identifier;
//! * `>>`/`<<` are shift tokens even inside generics — consumers that count
//!   angle nesting count the *characters* of punct tokens instead.

/// Lexical class of a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Identifier, keyword or lifetime (`'a`, quote included).
    Ident,
    /// Number literal (integer or float, any base), suffix included in the
    /// text.
    Num,
    /// String, char or byte literal (`"…"`, `r#"…"#`, `b"…"`, `'x'`,
    /// `b'\n'`), quotes and contents included; may span lines.
    Str,
    /// `// …` comment (to end of line) or `/* … */` comment (nesting
    /// handled; may span lines).
    Comment,
    /// Operator or delimiter; multi-char operators are single tokens.
    Punct,
}

/// One token with its source span and nesting context.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Lexical class.
    pub kind: Kind,
    /// Source text (see [`Kind`] for per-class conventions).
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based character column of the token's first character.
    pub col: u32,
    /// Brace (`{}`) nesting depth *outside* the token: an opening `{` and
    /// its matching `}` carry the same depth.
    pub depth: u32,
}

/// Multi-character operators, longest first so maximal munch wins.
const OPS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "..",
];

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

struct Lexer {
    chars: Vec<char>,
    i: usize,
    line: u32,
    col: u32,
    depth: u32,
    out: Vec<Tok>,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    /// Advance one char, maintaining line/col.
    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.i).copied()?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: Kind, text: String, line: u32, col: u32, depth: u32) {
        self.out.push(Tok {
            kind,
            text,
            line,
            col,
            depth,
        });
    }

    /// Consume `n` chars into a String.
    fn take(&mut self, n: usize) -> String {
        let mut s = String::new();
        for _ in 0..n {
            if let Some(c) = self.bump() {
                s.push(c);
            }
        }
        s
    }

    /// Consume a `//` comment to end of line.
    fn line_comment(&mut self) -> String {
        let mut s = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            s.push(c);
            self.bump();
        }
        s
    }

    /// Consume a `/* … */` comment with nesting.
    fn block_comment(&mut self) -> String {
        let mut s = self.take(2); // the opening /*
        let mut level = 1usize;
        while level > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('*'), Some('/')) => {
                    level -= 1;
                    s.push_str(&self.take(2));
                }
                (Some('/'), Some('*')) => {
                    level += 1;
                    s.push_str(&self.take(2));
                }
                (Some(_), _) => {
                    s.push_str(&self.take(1));
                }
                (None, _) => break,
            }
        }
        s
    }

    /// Consume a plain `"…"` string (escapes honored, may span lines).
    fn quoted_string(&mut self, mut s: String) -> String {
        s.push_str(&self.take(1)); // opening quote
        while let Some(c) = self.peek(0) {
            if c == '\\' {
                s.push_str(&self.take(2));
            } else if c == '"' {
                s.push_str(&self.take(1));
                break;
            } else {
                s.push_str(&self.take(1));
            }
        }
        s
    }

    /// Consume a raw string `r#*"…"#*` given the number of hashes; the
    /// prefix (`r`/`br` + hashes + quote) has already been consumed into `s`.
    fn raw_string_body(&mut self, mut s: String, hashes: usize) -> String {
        loop {
            match self.peek(0) {
                None => break,
                Some('"') => {
                    let closes = (0..hashes).all(|k| self.peek(1 + k) == Some('#'));
                    s.push_str(&self.take(1 + if closes { hashes } else { 0 }));
                    if closes {
                        break;
                    }
                }
                Some(_) => s.push_str(&self.take(1)),
            }
        }
        s
    }

    /// Try to lex a raw/byte string form starting at the current `r`/`b`.
    /// Returns `None` if the lookahead is not a string prefix.
    fn try_prefixed_string(&mut self) -> Option<(Kind, String)> {
        let c0 = self.peek(0)?;
        // Determine prefix length: r, b, br.
        let (prefix_len, raw_ok) = match c0 {
            'r' => (1, true),
            'b' => {
                if self.peek(1) == Some('r') {
                    (2, true)
                } else {
                    (1, false)
                }
            }
            _ => return None,
        };
        let after = self.peek(prefix_len);
        match after {
            Some('"') => {
                let s = self.take(prefix_len);
                if raw_ok && prefix_len >= 1 && (c0 == 'r' || prefix_len == 2) {
                    // r"…" / br"…": raw, zero hashes.
                    let mut s = s;
                    s.push_str(&self.take(1));
                    Some((Kind::Str, self.raw_string_body(s, 0)))
                } else {
                    // b"…": ordinary escapes.
                    Some((Kind::Str, self.quoted_string(s)))
                }
            }
            Some('#') if raw_ok => {
                // Count hashes; require a quote after them, else it is a raw
                // identifier (`r#type`) or plain ident followed by `#`.
                let mut hashes = 0;
                while self.peek(prefix_len + hashes) == Some('#') {
                    hashes += 1;
                }
                if self.peek(prefix_len + hashes) == Some('"') {
                    let s = self.take(prefix_len + hashes + 1);
                    Some((Kind::Str, self.raw_string_body(s, hashes)))
                } else if c0 == 'r' && hashes == 1 {
                    // Raw identifier r#ident: skip the prefix, lex the ident.
                    self.take(2);
                    let mut s = String::new();
                    while self.peek(0).is_some_and(is_ident_continue) {
                        s.push_str(&self.take(1));
                    }
                    Some((Kind::Ident, s))
                } else {
                    None
                }
            }
            Some('\'') if c0 == 'b' && prefix_len == 1 => {
                // Byte char b'x'.
                let mut s = self.take(2); // b'
                while let Some(c) = self.peek(0) {
                    if c == '\\' {
                        s.push_str(&self.take(2));
                    } else {
                        s.push_str(&self.take(1));
                        if c == '\'' {
                            break;
                        }
                    }
                }
                Some((Kind::Str, s))
            }
            _ => None,
        }
    }

    /// Lex a number starting at an ASCII digit. `after_dot` means the
    /// literal directly follows a `.` punct (tuple index position `a.0.1`):
    /// the fractional part must not be consumed there.
    fn number(&mut self, after_dot: bool) -> String {
        let mut s = String::new();
        if self.peek(0) == Some('0') && matches!(self.peek(1), Some('x' | 'o' | 'b')) {
            // Radix literal: consume prefix then alphanumerics/underscores
            // (the suffix, if any, merges into the text — fine for linting).
            s.push_str(&self.take(2));
            while self.peek(0).is_some_and(is_ident_continue) {
                s.push_str(&self.take(1));
            }
            return s;
        }
        while self.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
            s.push_str(&self.take(1));
        }
        if self.peek(0) == Some('.') && !after_dot {
            match self.peek(1) {
                // `1.5` — fractional part.
                Some(c) if c.is_ascii_digit() => {
                    s.push_str(&self.take(1));
                    while self.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
                        s.push_str(&self.take(1));
                    }
                }
                // `1.method()` / `0..n` — the dot is not ours.
                Some(c) if is_ident_start(c) || c == '.' => {}
                // `1.` — trailing-dot float.
                _ => s.push_str(&self.take(1)),
            }
        }
        if matches!(self.peek(0), Some('e' | 'E'))
            && (self.peek(1).is_some_and(|c| c.is_ascii_digit())
                || (matches!(self.peek(1), Some('+' | '-'))
                    && self.peek(2).is_some_and(|c| c.is_ascii_digit())))
        {
            s.push_str(&self.take(1));
            if matches!(self.peek(0), Some('+' | '-')) {
                s.push_str(&self.take(1));
            }
            while self.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
                s.push_str(&self.take(1));
            }
        }
        // Type suffix (f64, u32, usize, …).
        while self.peek(0).is_some_and(is_ident_continue) {
            s.push_str(&self.take(1));
        }
        s
    }

    fn run(mut self) -> Vec<Tok> {
        while let Some(c) = self.peek(0) {
            if c.is_whitespace() {
                self.bump();
                continue;
            }
            let (line, col, depth) = (self.line, self.col, self.depth);
            // Comments.
            if c == '/' && self.peek(1) == Some('/') {
                let text = self.line_comment();
                self.push(Kind::Comment, text, line, col, depth);
                continue;
            }
            if c == '/' && self.peek(1) == Some('*') {
                let text = self.block_comment();
                self.push(Kind::Comment, text, line, col, depth);
                continue;
            }
            // Raw/byte strings and raw identifiers share the `r`/`b` start.
            if (c == 'r' || c == 'b') && self.peek(1).is_some() {
                if let Some((kind, text)) = self.try_prefixed_string() {
                    self.push(kind, text, line, col, depth);
                    continue;
                }
            }
            if is_ident_start(c) {
                let mut s = String::new();
                while self.peek(0).is_some_and(is_ident_continue) {
                    s.push_str(&self.take(1));
                }
                self.push(Kind::Ident, s, line, col, depth);
                continue;
            }
            if c.is_ascii_digit() {
                let after_dot = self
                    .out
                    .last()
                    .is_some_and(|t| t.kind == Kind::Punct && t.text == ".");
                let text = self.number(after_dot);
                self.push(Kind::Num, text, line, col, depth);
                continue;
            }
            if c == '"' {
                let text = self.quoted_string(String::new());
                self.push(Kind::Str, text, line, col, depth);
                continue;
            }
            if c == '\'' {
                // Lifetime `'a` vs char literal `'a'` / `'\n'`.
                let next = self.peek(1);
                if next == Some('\\') {
                    // Escaped char literal.
                    let mut s = self.take(2);
                    while let Some(ch) = self.peek(0) {
                        s.push_str(&self.take(1));
                        if ch == '\'' {
                            break;
                        }
                    }
                    self.push(Kind::Str, s, line, col, depth);
                } else if next.is_some_and(is_ident_start) && self.peek(2) != Some('\'') {
                    let mut s = self.take(1);
                    while self.peek(0).is_some_and(is_ident_continue) {
                        s.push_str(&self.take(1));
                    }
                    self.push(Kind::Ident, s, line, col, depth);
                } else {
                    // 'x' (or a stray quote — consume defensively).
                    let mut s = self.take(1);
                    let mut took = 0;
                    while let Some(ch) = self.peek(0) {
                        s.push_str(&self.take(1));
                        took += 1;
                        if ch == '\'' || took > 2 {
                            break;
                        }
                    }
                    self.push(Kind::Str, s, line, col, depth);
                }
                continue;
            }
            // Punctuation: maximal-munch multi-char operators first.
            let mut matched = false;
            for op in OPS {
                if op
                    .chars()
                    .enumerate()
                    .all(|(k, oc)| self.peek(k) == Some(oc))
                {
                    let text = self.take(op.chars().count());
                    self.push(Kind::Punct, text, line, col, depth);
                    matched = true;
                    break;
                }
            }
            if matched {
                continue;
            }
            if c == '{' {
                self.depth += 1;
            } else if c == '}' {
                self.depth = self.depth.saturating_sub(1);
            }
            let d = if c == '{' { depth } else { self.depth };
            let text = self.take(1);
            self.push(Kind::Punct, text, line, col, d);
        }
        self.out
    }
}

/// Tokenize Rust source. Never fails: unrecognized bytes become single-char
/// [`Kind::Punct`] tokens, so the passes degrade instead of aborting.
pub fn lex(src: &str) -> Vec<Tok> {
    Lexer {
        chars: src.chars().collect(),
        i: 0,
        line: 1,
        col: 1,
        depth: 0,
        out: Vec::new(),
    }
    .run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(Kind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_numbers_ops() {
        let ts = kinds("let x_us = 1.5e-3 + y[0];");
        assert_eq!(ts[0], (Kind::Ident, "let".into()));
        assert_eq!(ts[1], (Kind::Ident, "x_us".into()));
        assert_eq!(ts[2], (Kind::Punct, "=".into()));
        assert_eq!(ts[3], (Kind::Num, "1.5e-3".into()));
        assert_eq!(ts[4], (Kind::Punct, "+".into()));
        assert_eq!(ts[6], (Kind::Punct, "[".into()));
        assert_eq!(ts[7], (Kind::Num, "0".into()));
    }

    #[test]
    fn tuple_index_is_not_a_float() {
        let ts = kinds("a.0.1");
        assert_eq!(
            ts,
            vec![
                (Kind::Ident, "a".into()),
                (Kind::Punct, ".".into()),
                (Kind::Num, "0".into()),
                (Kind::Punct, ".".into()),
                (Kind::Num, "1".into()),
            ]
        );
    }

    #[test]
    fn trailing_dot_float_and_method_on_literal() {
        assert_eq!(kinds("1.")[0], (Kind::Num, "1.".into()));
        let ts = kinds("1.max(2)");
        assert_eq!(ts[0], (Kind::Num, "1".into()));
        assert_eq!(ts[1], (Kind::Punct, ".".into()));
        assert_eq!(ts[2], (Kind::Ident, "max".into()));
    }

    #[test]
    fn suffixes_and_separators_stay_in_one_token() {
        assert_eq!(kinds("1f64")[0], (Kind::Num, "1f64".into()));
        assert_eq!(kinds("10_000u64")[0], (Kind::Num, "10_000u64".into()));
        assert_eq!(kinds("0xFF")[0], (Kind::Num, "0xFF".into()));
    }

    #[test]
    fn strings_do_not_leak_tokens() {
        let ts = kinds("let s = \"HashMap .unwrap() // not a comment\";");
        assert!(ts.iter().all(|(k, t)| *k != Kind::Ident || t != "HashMap"));
        assert_eq!(ts.iter().filter(|(k, _)| *k == Kind::Str).count(), 1);
    }

    #[test]
    fn multiline_and_raw_strings() {
        let src =
            "let a = \"line1\nline2\";\nlet b = r#\"raw \"inner\" body\n.unwrap()\"#;\nx.unwrap();";
        let ts = lex(src);
        // Exactly one real unwrap (after both strings close).
        let unwraps = ts
            .iter()
            .filter(|t| t.kind == Kind::Ident && t.text == "unwrap")
            .count();
        assert_eq!(unwraps, 1);
        let last = ts.iter().rfind(|t| t.text == "unwrap").unwrap();
        assert_eq!(last.line, 5);
    }

    #[test]
    fn nested_block_comments() {
        let ts = kinds("/* outer /* inner */ still comment */ fn f() {}");
        assert_eq!(ts[0].0, Kind::Comment);
        assert_eq!(ts[1], (Kind::Ident, "fn".into()));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let ts = kinds("&'a str; let c = 'x'; let n = '\\n'; let b = '[';");
        assert_eq!(ts[1], (Kind::Ident, "'a".into()));
        assert!(ts.iter().any(|(k, t)| *k == Kind::Str && t == "'x'"));
        assert!(ts.iter().any(|(k, t)| *k == Kind::Str && t == "'\\n'"));
        assert!(ts.iter().any(|(k, t)| *k == Kind::Str && t == "'['"));
        assert!(!ts.iter().any(|(k, t)| *k == Kind::Punct && t == "["));
    }

    #[test]
    fn byte_and_raw_forms() {
        assert_eq!(kinds("b\"bytes\"")[0].0, Kind::Str);
        assert_eq!(kinds("br#\"raw bytes\"#")[0].0, Kind::Str);
        assert_eq!(kinds("b'x'")[0].0, Kind::Str);
        // Raw identifier lexes as the bare ident.
        assert_eq!(kinds("r#type")[0], (Kind::Ident, "type".into()));
    }

    #[test]
    fn multichar_ops_are_single_tokens() {
        let ts = kinds("a == b != c <= d >= e && f || g :: h -> i => j ..= k");
        let ops: Vec<&str> = ts
            .iter()
            .filter(|(k, _)| *k == Kind::Punct)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(
            ops,
            vec!["==", "!=", "<=", ">=", "&&", "||", "::", "->", "=>", "..="]
        );
    }

    #[test]
    fn line_col_spans_are_accurate() {
        let ts = lex("fn f() {\n    x.unwrap();\n}\n");
        let unwrap = ts
            .iter()
            .find(|t| t.kind == Kind::Ident && t.text == "unwrap")
            .unwrap();
        assert_eq!((unwrap.line, unwrap.col), (2, 7));
    }

    #[test]
    fn brace_depth_matches_pairs() {
        let ts = lex("fn f() { if x { y(); } }");
        let opens: Vec<u32> = ts
            .iter()
            .filter(|t| t.text == "{")
            .map(|t| t.depth)
            .collect();
        let closes: Vec<u32> = ts
            .iter()
            .filter(|t| t.text == "}")
            .map(|t| t.depth)
            .collect();
        assert_eq!(opens, vec![0, 1]);
        assert_eq!(closes, vec![1, 0]);
    }

    #[test]
    fn comments_carry_their_line_span() {
        let ts = lex("x(); // trailing\n/* two\nlines */ y();\n");
        let c: Vec<(u32, usize)> = ts
            .iter()
            .filter(|t| t.kind == Kind::Comment)
            .map(|t| (t.line, t.text.matches('\n').count()))
            .collect();
        assert_eq!(c, [(1, 0), (2, 1)]);
    }
}
