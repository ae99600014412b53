//! Tokenizer for the WebdamLog surface syntax.

use crate::ParseError;

/// A lexical token kind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier (relation, peer or keyword — keywords resolved by parser).
    Ident(String),
    /// Variable `$name` (the `$` is stripped).
    Var(String),
    /// Integer literal.
    Int(i64),
    /// String literal (unescaped content).
    Str(String),
    /// Byte-blob literal `0x...` (decoded).
    Bytes(Vec<u8>),
    /// `@`
    At,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `:-`
    Turnstile,
    /// `:=`
    Bind,
    /// `/` (also division in expressions)
    Slash,
    /// `==`
    EqEq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `%`
    Percent,
    /// `++`
    Concat,
    /// End of input.
    Eof,
}

/// A token with its source position (1-based line and column).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    /// The kind and payload.
    pub kind: TokenKind,
    /// Line (1-based).
    pub line: usize,
    /// Column (1-based).
    pub col: usize,
}

pub(crate) struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    /// Tokenizes the whole input.
    pub(crate) fn tokenize(mut self) -> Result<Vec<Token>, ParseError> {
        let mut out = Vec::new();
        loop {
            let tok = self.next_token()?;
            let eof = tok.kind == TokenKind::Eof;
            out.push(tok);
            if eof {
                return Ok(out);
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn error(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            message: msg.into(),
            line: self.line,
            col: self.col,
        }
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'#') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => return,
            }
        }
    }

    fn next_token(&mut self) -> Result<Token, ParseError> {
        self.skip_trivia();
        let (line, col) = (self.line, self.col);
        let mk = |kind| Token { kind, line, col };
        let Some(c) = self.peek() else {
            return Ok(mk(TokenKind::Eof));
        };
        match c {
            b'@' => {
                self.bump();
                Ok(mk(TokenKind::At))
            }
            b'(' => {
                self.bump();
                Ok(mk(TokenKind::LParen))
            }
            b')' => {
                self.bump();
                Ok(mk(TokenKind::RParen))
            }
            b',' => {
                self.bump();
                Ok(mk(TokenKind::Comma))
            }
            b';' => {
                self.bump();
                Ok(mk(TokenKind::Semi))
            }
            b'*' => {
                self.bump();
                Ok(mk(TokenKind::Star))
            }
            b'%' => {
                self.bump();
                Ok(mk(TokenKind::Percent))
            }
            b'/' => {
                self.bump();
                Ok(mk(TokenKind::Slash))
            }
            b'+' => {
                self.bump();
                if self.peek() == Some(b'+') {
                    self.bump();
                    Ok(mk(TokenKind::Concat))
                } else {
                    Ok(mk(TokenKind::Plus))
                }
            }
            b'-' => {
                self.bump();
                // negative integer literal
                if self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    let n = self.lex_int()?;
                    return Ok(mk(TokenKind::Int(-n)));
                }
                Ok(mk(TokenKind::Minus))
            }
            b':' => {
                self.bump();
                match self.peek() {
                    Some(b'-') => {
                        self.bump();
                        Ok(mk(TokenKind::Turnstile))
                    }
                    Some(b'=') => {
                        self.bump();
                        Ok(mk(TokenKind::Bind))
                    }
                    _ => Err(self.error("expected `:-` or `:=` after `:`")),
                }
            }
            b'=' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Ok(mk(TokenKind::EqEq))
                } else {
                    Err(self.error("expected `==`"))
                }
            }
            b'!' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Ok(mk(TokenKind::Ne))
                } else {
                    Err(self.error("expected `!=`"))
                }
            }
            b'<' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Ok(mk(TokenKind::Le))
                } else {
                    Ok(mk(TokenKind::Lt))
                }
            }
            b'>' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Ok(mk(TokenKind::Ge))
                } else {
                    Ok(mk(TokenKind::Gt))
                }
            }
            b'$' => {
                self.bump();
                let name = self.lex_ident_raw();
                if name.is_empty() {
                    return Err(self.error("expected variable name after `$`"));
                }
                Ok(mk(TokenKind::Var(name)))
            }
            b'"' => {
                let s = self.lex_string()?;
                Ok(mk(TokenKind::Str(s)))
            }
            b'0' if self.peek2() == Some(b'x') => {
                self.bump();
                self.bump();
                let bytes = self.lex_hex()?;
                Ok(mk(TokenKind::Bytes(bytes)))
            }
            c if c.is_ascii_digit() => {
                let n = self.lex_int()?;
                Ok(mk(TokenKind::Int(n)))
            }
            c if is_ident_start(c) || c >= 0x80 => {
                let name = self.lex_ident_raw();
                if name.is_empty() {
                    return Err(self.error("invalid UTF-8 in identifier"));
                }
                Ok(mk(TokenKind::Ident(name)))
            }
            c => Err(self.error(format!("unexpected character `{}`", c as char))),
        }
    }

    fn lex_int(&mut self) -> Result<i64, ParseError> {
        let mut n: i64 = 0;
        let mut any = false;
        while let Some(c) = self.peek() {
            if !c.is_ascii_digit() {
                break;
            }
            any = true;
            n = n
                .checked_mul(10)
                .and_then(|n| n.checked_add(i64::from(c - b'0')))
                .ok_or_else(|| self.error("integer literal overflows i64"))?;
            self.bump();
        }
        if !any {
            return Err(self.error("expected digits"));
        }
        Ok(n)
    }

    fn lex_ident_raw(&mut self) -> String {
        let mut s = String::new();
        while let Some(c) = self.peek() {
            if is_ident_continue(c) {
                s.push(c as char);
                self.bump();
            } else if c >= 0x80 {
                // Accept multi-byte UTF-8 in identifiers (peer names like
                // "Émilien" in the paper).
                let start = self.pos;
                let mut end = self.pos + 1;
                while end < self.src.len() && (self.src[end] & 0xC0) == 0x80 {
                    end += 1;
                }
                if let Ok(frag) = std::str::from_utf8(&self.src[start..end]) {
                    s.push_str(frag);
                    for _ in start..end {
                        self.bump();
                    }
                } else {
                    break;
                }
            } else {
                break;
            }
        }
        s
    }

    fn lex_string(&mut self) -> Result<String, ParseError> {
        self.bump(); // opening quote
        let mut s = String::new();
        loop {
            let Some(c) = self.bump() else {
                return Err(self.error("unterminated string literal"));
            };
            match c {
                b'"' => return Ok(s),
                b'\\' => {
                    let Some(e) = self.bump() else {
                        return Err(self.error("unterminated escape"));
                    };
                    match e {
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'0' => s.push('\0'),
                        b'\\' => s.push('\\'),
                        b'"' => s.push('"'),
                        b'\'' => s.push('\''),
                        b'u' => {
                            if self.bump() != Some(b'{') {
                                return Err(self.error("expected `{` in \\u escape"));
                            }
                            let mut hex = String::new();
                            loop {
                                match self.bump() {
                                    Some(b'}') => break,
                                    Some(h) if h.is_ascii_hexdigit() => hex.push(h as char),
                                    _ => return Err(self.error("bad \\u escape")),
                                }
                            }
                            let code = u32::from_str_radix(&hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid unicode scalar"))?,
                            );
                        }
                        other => {
                            return Err(self.error(format!("unknown escape `\\{}`", other as char)))
                        }
                    }
                }
                c if c < 0x80 => s.push(c as char),
                c => {
                    // Re-assemble a UTF-8 sequence.
                    let mut buf = vec![c];
                    while self.peek().is_some_and(|b| (b & 0xC0) == 0x80) {
                        buf.push(self.bump().unwrap());
                    }
                    let frag = std::str::from_utf8(&buf)
                        .map_err(|_| self.error("invalid UTF-8 in string"))?;
                    s.push_str(frag);
                }
            }
        }
    }

    /// Decodes the digits after `0x` straight into bytes, two nibbles per
    /// byte, consuming every hex digit before checking the count.
    fn lex_hex(&mut self) -> Result<Vec<u8>, ParseError> {
        let mut out = Vec::new();
        let mut high: Option<u8> = None;
        while let Some(nibble) = self.peek().and_then(|c| char::from(c).to_digit(16)) {
            self.bump();
            let nibble = nibble as u8;
            match high.take() {
                Some(h) => out.push(h << 4 | nibble),
                None => high = Some(nibble),
            }
        }
        if high.is_some() {
            return Err(self.error("hex blob must have an even number of digits"));
        }
        Ok(out)
    }
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        Lexer::new(src)
            .tokenize()
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn basic_fact_tokens() {
        let ks = kinds(r#"pictures@sigmod(32, "sea.jpg");"#);
        assert_eq!(
            ks,
            vec![
                TokenKind::Ident("pictures".into()),
                TokenKind::At,
                TokenKind::Ident("sigmod".into()),
                TokenKind::LParen,
                TokenKind::Int(32),
                TokenKind::Comma,
                TokenKind::Str("sea.jpg".into()),
                TokenKind::RParen,
                TokenKind::Semi,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn operators_and_vars() {
        let ks = kinds("$r >= 4, $y := $x + 1, $s ++ $t");
        assert!(ks.contains(&TokenKind::Var("r".into())));
        assert!(ks.contains(&TokenKind::Ge));
        assert!(ks.contains(&TokenKind::Bind));
        assert!(ks.contains(&TokenKind::Plus));
        assert!(ks.contains(&TokenKind::Concat));
    }

    #[test]
    fn comments_are_skipped() {
        let ks = kinds("// a comment\n# another\nfoo");
        assert_eq!(ks, vec![TokenKind::Ident("foo".into()), TokenKind::Eof]);
    }

    #[test]
    fn string_escapes() {
        let ks = kinds(r#""a\nb\t\"\\ \u{e9}""#);
        assert_eq!(ks[0], TokenKind::Str("a\nb\t\"\\ é".into()));
    }

    #[test]
    fn hex_blob() {
        let ks = kinds("0xdeadBEEF");
        assert_eq!(ks[0], TokenKind::Bytes(vec![0xde, 0xad, 0xbe, 0xef]));
        assert_eq!(kinds("0x")[0], TokenKind::Bytes(vec![]));
        assert_eq!(kinds("0x0aF9")[0], TokenKind::Bytes(vec![0x0a, 0xf9]));
        let err = Lexer::new("0xabc").tokenize().unwrap_err();
        assert_eq!((err.line, err.col), (1, 6), "odd digit count at the end");
    }

    #[test]
    fn negative_ints_and_minus() {
        assert_eq!(kinds("-5")[0], TokenKind::Int(-5));
        assert_eq!(kinds("- 5")[0], TokenKind::Minus);
    }

    #[test]
    fn unicode_identifier() {
        let ks = kinds("pictures@Émilien");
        assert_eq!(ks[2], TokenKind::Ident("Émilien".into()));
    }

    #[test]
    fn turnstile_vs_bind() {
        assert_eq!(kinds(":-")[0], TokenKind::Turnstile);
        assert_eq!(kinds(":=")[0], TokenKind::Bind);
        assert!(Lexer::new(": x").tokenize().is_err());
    }

    #[test]
    fn positions_reported() {
        let toks = Lexer::new("a\n  b").tokenize().unwrap();
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(Lexer::new("\"abc").tokenize().is_err());
    }

    #[test]
    fn int_overflow_errors() {
        assert!(Lexer::new("99999999999999999999999").tokenize().is_err());
    }
}
