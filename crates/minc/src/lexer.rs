//! The MinC lexer.

use std::fmt;

use crate::token::{Spanned, Token};

/// A lexical error with its source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// 1-based source line.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LexError {}

struct Lexer<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Lexer<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn error(&self, message: impl Into<String>) -> LexError {
        LexError {
            line: self.line,
            message: message.into(),
        }
    }

    fn skip_trivia(&mut self) -> Result<(), LexError> {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let start_line = self.line;
                    self.bump();
                    self.bump();
                    loop {
                        match self.peek() {
                            None => {
                                return Err(LexError {
                                    line: start_line,
                                    message: "unterminated block comment".into(),
                                })
                            }
                            Some(b'*') if self.peek2() == Some(b'/') => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            _ => {
                                self.bump();
                            }
                        }
                    }
                }
                Some(b'#') => {
                    // Preprocessor-style lines (e.g. `#include`) are
                    // accepted and ignored, so paper listings paste in.
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn escape(&mut self) -> Result<u8, LexError> {
        match self.bump() {
            Some(b'n') => Ok(b'\n'),
            Some(b't') => Ok(b'\t'),
            Some(b'r') => Ok(b'\r'),
            Some(b'0') => Ok(0),
            Some(b'\\') => Ok(b'\\'),
            Some(b'\'') => Ok(b'\''),
            Some(b'"') => Ok(b'"'),
            Some(other) => Err(self.error(format!("unknown escape \\{}", other as char))),
            None => Err(self.error("unterminated escape")),
        }
    }

    fn next_token(&mut self) -> Result<Option<Spanned>, LexError> {
        self.skip_trivia()?;
        let line = self.line;
        let c = match self.bump() {
            None => return Ok(None),
            Some(c) => c,
        };
        let token = match c {
            b'(' => Token::LParen,
            b')' => Token::RParen,
            b'{' => Token::LBrace,
            b'}' => Token::RBrace,
            b'[' => Token::LBracket,
            b']' => Token::RBracket,
            b';' => Token::Semi,
            b',' => Token::Comma,
            b'^' => Token::Caret,
            b'+' => {
                if self.peek() == Some(b'+') {
                    self.bump();
                    Token::PlusPlus
                } else {
                    Token::Plus
                }
            }
            b'-' => {
                if self.peek() == Some(b'-') {
                    self.bump();
                    Token::MinusMinus
                } else {
                    Token::Minus
                }
            }
            b'*' => Token::Star,
            b'/' => Token::Slash,
            b'%' => Token::Percent,
            b'&' => {
                if self.peek() == Some(b'&') {
                    self.bump();
                    Token::AndAnd
                } else {
                    Token::Amp
                }
            }
            b'|' => {
                if self.peek() == Some(b'|') {
                    self.bump();
                    Token::OrOr
                } else {
                    Token::Pipe
                }
            }
            b'!' => {
                if self.peek() == Some(b'=') {
                    self.bump();
                    Token::Ne
                } else {
                    Token::Bang
                }
            }
            b'=' => {
                if self.peek() == Some(b'=') {
                    self.bump();
                    Token::EqEq
                } else {
                    Token::Assign
                }
            }
            b'<' => match self.peek() {
                Some(b'=') => {
                    self.bump();
                    Token::Le
                }
                Some(b'<') => {
                    self.bump();
                    Token::Shl
                }
                _ => Token::Lt,
            },
            b'>' => match self.peek() {
                Some(b'=') => {
                    self.bump();
                    Token::Ge
                }
                Some(b'>') => {
                    self.bump();
                    Token::Shr
                }
                _ => Token::Gt,
            },
            b'\'' => {
                let value = match self.bump() {
                    Some(b'\\') => self.escape()?,
                    Some(b'\'') => return Err(self.error("empty character constant")),
                    Some(c) => c,
                    None => return Err(self.error("unterminated character constant")),
                };
                if self.bump() != Some(b'\'') {
                    return Err(self.error("unterminated character constant"));
                }
                Token::Int(i64::from(value))
            }
            b'"' => {
                let mut s = Vec::new();
                loop {
                    match self.bump() {
                        None => return Err(self.error("unterminated string literal")),
                        Some(b'"') => break,
                        Some(b'\\') => s.push(self.escape()?),
                        Some(c) => s.push(c),
                    }
                }
                Token::Str(String::from_utf8_lossy(&s).into_owned())
            }
            b'0'..=b'9' => {
                let start = self.pos - 1;
                if c == b'0' && matches!(self.peek(), Some(b'x') | Some(b'X')) {
                    self.bump();
                    while matches!(self.peek(), Some(c) if c.is_ascii_hexdigit()) {
                        self.bump();
                    }
                    let text = std::str::from_utf8(&self.bytes[start + 2..self.pos])
                        .expect("hex digits are ascii");
                    let value = i64::from_str_radix(text, 16)
                        .map_err(|_| self.error("hex literal too large"))?;
                    Token::Int(value)
                } else {
                    while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                        self.bump();
                    }
                    let text = std::str::from_utf8(&self.bytes[start..self.pos])
                        .expect("digits are ascii");
                    let value = text
                        .parse::<i64>()
                        .map_err(|_| self.error("integer literal too large"))?;
                    Token::Int(value)
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = self.pos - 1;
                while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'_') {
                    self.bump();
                }
                let name = std::str::from_utf8(&self.bytes[start..self.pos])
                    .expect("identifier bytes are ascii");
                match name {
                    "int" => Token::KwInt,
                    "char" => Token::KwChar,
                    "void" => Token::KwVoid,
                    "if" => Token::KwIf,
                    "else" => Token::KwElse,
                    "while" => Token::KwWhile,
                    "for" => Token::KwFor,
                    "return" => Token::KwReturn,
                    "static" => Token::KwStatic,
                    "extern" => Token::KwExtern,
                    "break" => Token::KwBreak,
                    "continue" => Token::KwContinue,
                    _ => Token::Ident(name.to_string()),
                }
            }
            other => return Err(self.error(format!("unexpected character `{}`", other as char))),
        };
        Ok(Some(Spanned { token, line }))
    }
}

/// Tokenizes MinC source.
///
/// # Errors
///
/// Returns a [`LexError`] on malformed literals, comments or characters.
pub fn lex(source: &str) -> Result<Vec<Spanned>, LexError> {
    let mut lexer = Lexer {
        bytes: source.as_bytes(),
        pos: 0,
        line: 1,
    };
    // MinC sources run at about 0.4 tokens per byte.
    let mut tokens = Vec::with_capacity(source.len() / 2);
    while let Some(tok) = lexer.next_token()? {
        tokens.push(tok);
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token> {
        lex(src).unwrap().into_iter().map(|s| s.token).collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            toks("int x; static char buf"),
            vec![
                Token::KwInt,
                Token::Ident("x".into()),
                Token::Semi,
                Token::KwStatic,
                Token::KwChar,
                Token::Ident("buf".into()),
            ]
        );
    }

    #[test]
    fn numbers_decimal_hex_char() {
        assert_eq!(
            toks("42 0x2a 'A' '\\n'"),
            vec![
                Token::Int(42),
                Token::Int(42),
                Token::Int(65),
                Token::Int(10)
            ]
        );
    }

    #[test]
    fn operators_longest_match() {
        assert_eq!(
            toks("<= >= == != && || << >> ++ -- < >"),
            vec![
                Token::Le,
                Token::Ge,
                Token::EqEq,
                Token::Ne,
                Token::AndAnd,
                Token::OrOr,
                Token::Shl,
                Token::Shr,
                Token::PlusPlus,
                Token::MinusMinus,
                Token::Lt,
                Token::Gt,
            ]
        );
    }

    #[test]
    fn string_with_escapes() {
        assert_eq!(toks(r#""hi\n\0""#), vec![Token::Str("hi\n\0".into())]);
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("1 // line\n2 /* block\nover lines */ 3"),
            vec![Token::Int(1), Token::Int(2), Token::Int(3)]
        );
    }

    #[test]
    fn preprocessor_lines_ignored() {
        assert_eq!(toks("#include <stdio.h>\nint"), vec![Token::KwInt]);
    }

    #[test]
    fn line_numbers_tracked() {
        let spanned = lex("int\nx\n=\n1").unwrap();
        let lines: Vec<usize> = spanned.iter().map(|s| s.line).collect();
        assert_eq!(lines, vec![1, 2, 3, 4]);
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex("\"oops").is_err());
    }

    #[test]
    fn unterminated_comment_errors() {
        assert!(lex("/* never closed").is_err());
    }

    #[test]
    fn unexpected_character_errors() {
        let err = lex("int $x;").unwrap_err();
        assert!(err.message.contains('$'));
    }
}
