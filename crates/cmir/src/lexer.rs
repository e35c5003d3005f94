//! Lexer for the KC surface syntax.
//!
//! KC source is plain ASCII; `//` line comments and `/* ... */` block
//! comments are skipped. Integer literals may be decimal, hexadecimal
//! (`0x...`), or character literals (`'a'`, `'\n'`, `'\0'`).

use crate::error::{CmirError, Result};
use crate::span::{Pos, Span};
use crate::token::{Token, TokenKind};

/// Lexes a complete source string into tokens (including a trailing `Eof`).
pub fn lex(src: &str) -> Result<Vec<Token>> {
    lex_at(src, Pos::new(1, 1))
}

/// Lexes `src` as if it began at `start` of a larger file: every token
/// span is absolute, so tokens of a slice compare equal to the same
/// tokens lexed in place (used by [`crate::parser::reparse`]).
pub(crate) fn lex_at(src: &str, start: Pos) -> Result<Vec<Token>> {
    Lexer::new(src, start).run()
}

struct Lexer<'a> {
    chars: Vec<char>,
    idx: usize,
    line: u32,
    col: u32,
    src_len: usize,
    _src: &'a str,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str, start: Pos) -> Self {
        let chars: Vec<char> = src.chars().collect();
        Lexer {
            src_len: chars.len(),
            chars,
            idx: 0,
            line: start.line,
            col: start.col,
            _src: src,
        }
    }

    fn pos(&self) -> Pos {
        Pos::new(self.line, self.col)
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.idx).copied()
    }

    fn peek2(&self) -> Option<char> {
        self.chars.get(self.idx + 1).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.idx += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn run(mut self) -> Result<Vec<Token>> {
        let mut out = Vec::with_capacity(self.src_len / 4);
        loop {
            self.skip_trivia()?;
            let start = self.pos();
            let Some(c) = self.peek() else {
                out.push(Token {
                    kind: TokenKind::Eof,
                    span: Span::new(start, start),
                });
                return Ok(out);
            };
            let kind = if c.is_ascii_alphabetic() || c == '_' {
                self.lex_ident()
            } else if c.is_ascii_digit() {
                self.lex_number(start)?
            } else if c == '"' {
                self.lex_string(start)?
            } else if c == '\'' {
                self.lex_char(start)?
            } else {
                self.lex_punct(start)?
            };
            let end = self.pos();
            out.push(Token {
                kind,
                span: Span::new(start, end),
            });
        }
    }

    fn skip_trivia(&mut self) -> Result<()> {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some('/') if self.peek2() == Some('/') => {
                    while let Some(c) = self.peek() {
                        if c == '\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some('/') if self.peek2() == Some('*') => {
                    let start = self.pos();
                    self.bump();
                    self.bump();
                    loop {
                        match self.peek() {
                            Some('*') if self.peek2() == Some('/') => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            Some(_) => {
                                self.bump();
                            }
                            None => {
                                return Err(CmirError::lex(
                                    "unterminated block comment",
                                    Span::new(start, self.pos()),
                                ))
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn lex_ident(&mut self) -> TokenKind {
        let mut s = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == '_' {
                s.push(c);
                self.bump();
            } else {
                break;
            }
        }
        TokenKind::Ident(s)
    }

    fn lex_number(&mut self, start: Pos) -> Result<TokenKind> {
        let mut s = String::new();
        if self.peek() == Some('0') && matches!(self.peek2(), Some('x') | Some('X')) {
            self.bump();
            self.bump();
            while let Some(c) = self.peek() {
                if c.is_ascii_hexdigit() || c == '_' {
                    if c != '_' {
                        s.push(c);
                    }
                    self.bump();
                } else {
                    break;
                }
            }
            if s.is_empty() {
                return Err(CmirError::lex(
                    "empty hex literal",
                    Span::new(start, self.pos()),
                ));
            }
            return i64::from_str_radix(&s, 16)
                .map(TokenKind::Int)
                .map_err(|_| {
                    CmirError::lex("hex literal out of range", Span::new(start, self.pos()))
                });
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || c == '_' {
                if c != '_' {
                    s.push(c);
                }
                self.bump();
            } else {
                break;
            }
        }
        s.parse::<i64>().map(TokenKind::Int).map_err(|_| {
            CmirError::lex("integer literal out of range", Span::new(start, self.pos()))
        })
    }

    fn lex_string(&mut self, start: Pos) -> Result<TokenKind> {
        self.bump(); // opening quote
        let mut s = String::new();
        loop {
            match self.bump() {
                Some('"') => return Ok(TokenKind::Str(s)),
                Some('\\') => {
                    let esc = self.bump().ok_or_else(|| {
                        CmirError::lex("unterminated escape", Span::new(start, self.pos()))
                    })?;
                    s.push(unescape(esc, start, self.pos())?);
                }
                Some('\n') | None => {
                    return Err(CmirError::lex(
                        "unterminated string literal",
                        Span::new(start, self.pos()),
                    ))
                }
                Some(c) => s.push(c),
            }
        }
    }

    fn lex_char(&mut self, start: Pos) -> Result<TokenKind> {
        self.bump(); // opening quote
        let c = match self.bump() {
            Some('\\') => {
                let esc = self.bump().ok_or_else(|| {
                    CmirError::lex(
                        "unterminated character literal",
                        Span::new(start, self.pos()),
                    )
                })?;
                unescape(esc, start, self.pos())?
            }
            Some(c) if c != '\'' => c,
            _ => {
                return Err(CmirError::lex(
                    "empty character literal",
                    Span::new(start, self.pos()),
                ))
            }
        };
        if self.bump() != Some('\'') {
            return Err(CmirError::lex(
                "unterminated character literal",
                Span::new(start, self.pos()),
            ));
        }
        Ok(TokenKind::Int(c as i64))
    }

    fn lex_punct(&mut self, start: Pos) -> Result<TokenKind> {
        let c = self.bump().expect("peeked before");
        let two = |l: &mut Lexer<'_>, next: char, yes: TokenKind, no: TokenKind| {
            if l.peek() == Some(next) {
                l.bump();
                yes
            } else {
                no
            }
        };
        let kind = match c {
            '(' => TokenKind::LParen,
            ')' => TokenKind::RParen,
            '{' => TokenKind::LBrace,
            '}' => TokenKind::RBrace,
            '[' => TokenKind::LBracket,
            ']' => TokenKind::RBracket,
            ';' => TokenKind::Semi,
            ',' => TokenKind::Comma,
            ':' => TokenKind::Colon,
            '.' => TokenKind::Dot,
            '#' => TokenKind::Hash,
            '+' => TokenKind::Plus,
            '*' => TokenKind::Star,
            '/' => TokenKind::Slash,
            '%' => TokenKind::Percent,
            '^' => TokenKind::Caret,
            '~' => TokenKind::Tilde,
            '-' => two(self, '>', TokenKind::Arrow, TokenKind::Minus),
            '=' => {
                if self.peek() == Some('=') {
                    self.bump();
                    TokenKind::EqEq
                } else if self.peek() == Some('>') {
                    self.bump();
                    TokenKind::FatArrow
                } else {
                    TokenKind::Assign
                }
            }
            '!' => two(self, '=', TokenKind::NotEq, TokenKind::Bang),
            '<' => {
                if self.peek() == Some('<') {
                    self.bump();
                    TokenKind::Shl
                } else if self.peek() == Some('=') {
                    self.bump();
                    TokenKind::Le
                } else {
                    TokenKind::Lt
                }
            }
            '>' => {
                if self.peek() == Some('>') {
                    self.bump();
                    TokenKind::Shr
                } else if self.peek() == Some('=') {
                    self.bump();
                    TokenKind::Ge
                } else {
                    TokenKind::Gt
                }
            }
            '&' => two(self, '&', TokenKind::AndAnd, TokenKind::Amp),
            '|' => two(self, '|', TokenKind::OrOr, TokenKind::Pipe),
            other => {
                return Err(CmirError::lex(
                    format!("unexpected character `{other}`"),
                    Span::new(start, self.pos()),
                ))
            }
        };
        Ok(kind)
    }
}

fn unescape(esc: char, start: Pos, end: Pos) -> Result<char> {
    Ok(match esc {
        'n' => '\n',
        't' => '\t',
        'r' => '\r',
        '0' => '\0',
        '\\' => '\\',
        '"' => '"',
        '\'' => '\'',
        other => {
            return Err(CmirError::lex(
                format!("unknown escape `\\{other}`"),
                Span::new(start, end),
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::TokenKind as T;

    fn kinds(src: &str) -> Vec<T> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_identifiers_and_ints() {
        assert_eq!(
            kinds("foo 42 0x1F _bar9"),
            vec![
                T::Ident("foo".into()),
                T::Int(42),
                T::Int(31),
                T::Ident("_bar9".into()),
                T::Eof
            ]
        );
    }

    #[test]
    fn lexes_operators() {
        assert_eq!(
            kinds("a->b == c && d != e << 2 >= 1"),
            vec![
                T::Ident("a".into()),
                T::Arrow,
                T::Ident("b".into()),
                T::EqEq,
                T::Ident("c".into()),
                T::AndAnd,
                T::Ident("d".into()),
                T::NotEq,
                T::Ident("e".into()),
                T::Shl,
                T::Int(2),
                T::Ge,
                T::Int(1),
                T::Eof
            ]
        );
    }

    #[test]
    fn skips_comments() {
        let src = "a // line comment\n/* block\ncomment */ b";
        assert_eq!(
            kinds(src),
            vec![T::Ident("a".into()), T::Ident("b".into()), T::Eof]
        );
    }

    #[test]
    fn string_and_char_literals() {
        assert_eq!(
            kinds(r#""hello\n" 'x' '\0'"#),
            vec![T::Str("hello\n".into()), T::Int(120), T::Int(0), T::Eof]
        );
    }

    #[test]
    fn tracks_line_numbers() {
        let toks = lex("a\nb\n  c").unwrap();
        assert_eq!(toks[0].span.start.line, 1);
        assert_eq!(toks[1].span.start.line, 2);
        assert_eq!(toks[2].span.start.line, 3);
        assert_eq!(toks[2].span.start.col, 3);
    }

    #[test]
    fn reports_bad_input() {
        assert!(lex("a $ b").is_err());
        assert!(lex("\"unterminated").is_err());
        assert!(lex("/* unterminated").is_err());
        assert!(lex("0x").is_err());
    }

    #[test]
    fn underscores_in_numbers() {
        assert_eq!(kinds("1_000_000"), vec![T::Int(1_000_000), T::Eof]);
    }
}
