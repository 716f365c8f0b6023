//! Tokeniser for the query language.

use crate::{QueryError, Span};

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Identifier or keyword.
    Ident(String),
    /// Numeric literal with optional time unit, normalised to the raw
    /// value and unit string (`50`, `"ms"`).
    Number(f64, Option<String>),
    /// String literal (single or double quoted).
    Str(String),
    /// `.`
    Dot,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `=`
    Eq,
    /// `=>`
    FatArrow,
    /// `:`
    Colon,
    /// `-`
    Minus,
    /// `>=`
    Ge,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `<`
    Lt,
}

/// A token plus where it starts in the source — parser errors point at
/// these spans.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedToken {
    /// The token.
    pub tok: Token,
    /// 1-based line/column of the token's first character.
    pub span: Span,
}

/// Line/column bookkeeping for the byte cursor.
struct Cursor {
    line: u32,
    line_start: usize,
}

impl Cursor {
    fn span_at(&self, i: usize) -> Span {
        Span::new(self.line, (i - self.line_start + 1) as u32)
    }

    fn newline_at(&mut self, i: usize) {
        self.line += 1;
        self.line_start = i + 1;
    }
}

/// Tokenises `input` into spanned tokens.
///
/// # Errors
///
/// Returns [`QueryError::Lex`] on an unexpected character.
pub fn lex(input: &str) -> Result<Vec<SpannedToken>, QueryError> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut cur = Cursor {
        line: 1,
        line_start: 0,
    };
    let mut i = 0;
    let mut push = |tok: Token, cur: &Cursor, at: usize| {
        out.push(SpannedToken {
            tok,
            span: cur.span_at(at),
        });
    };
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            '\n' => {
                cur.newline_at(i);
                i += 1;
            }
            ' ' | '\t' | '\r' | ';' => i += 1,
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '.' => {
                push(Token::Dot, &cur, start);
                i += 1;
            }
            '(' => {
                push(Token::LParen, &cur, start);
                i += 1;
            }
            ')' => {
                push(Token::RParen, &cur, start);
                i += 1;
            }
            '[' => {
                push(Token::LBracket, &cur, start);
                i += 1;
            }
            ']' => {
                push(Token::RBracket, &cur, start);
                i += 1;
            }
            ',' => {
                push(Token::Comma, &cur, start);
                i += 1;
            }
            ':' => {
                push(Token::Colon, &cur, start);
                i += 1;
            }
            '-' => {
                push(Token::Minus, &cur, start);
                i += 1;
            }
            '=' => {
                if bytes.get(i + 1) == Some(&b'>') {
                    push(Token::FatArrow, &cur, start);
                    i += 2;
                } else {
                    push(Token::Eq, &cur, start);
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    push(Token::Ge, &cur, start);
                    i += 2;
                } else {
                    push(Token::Gt, &cur, start);
                    i += 1;
                }
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    push(Token::Le, &cur, start);
                    i += 2;
                } else {
                    push(Token::Lt, &cur, start);
                    i += 1;
                }
            }
            '"' | '\'' => {
                let quote = c;
                let sstart = i + 1;
                let mut j = sstart;
                while j < bytes.len() && bytes[j] as char != quote {
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(QueryError::Parse {
                        span: cur.span_at(start),
                        found: "end of input".into(),
                        message: "unterminated string".into(),
                    });
                }
                push(Token::Str(input[sstart..j].to_string()), &cur, start);
                i = j + 1;
            }
            c if c.is_ascii_digit() => {
                while i < bytes.len() && ((bytes[i] as char).is_ascii_digit() || bytes[i] == b'.') {
                    // A digit followed by `.` followed by a letter is a
                    // method call boundary, not a decimal point.
                    if bytes[i] == b'.'
                        && bytes
                            .get(i + 1)
                            .is_some_and(|&b| (b as char).is_ascii_alphabetic())
                    {
                        break;
                    }
                    i += 1;
                }
                let value: f64 = input[start..i].parse().map_err(|_| QueryError::Parse {
                    span: cur.span_at(start),
                    found: input[start..i].to_string(),
                    message: "bad number".into(),
                })?;
                // Optional unit suffix (ms, us, s, mb, kb...).
                let ustart = i;
                while i < bytes.len() && (bytes[i] as char).is_ascii_alphabetic() {
                    i += 1;
                }
                let unit = (ustart != i).then(|| input[ustart..i].to_lowercase());
                push(Token::Number(value, unit), &cur, start);
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                push(Token::Ident(input[start..i].to_string()), &cur, start);
            }
            _ => {
                // `c` is one byte widened; report the whole (possibly
                // multi-byte) character. Every arm above consumes ASCII
                // or skips to an ASCII byte, so `i` is a char boundary.
                return Err(QueryError::Lex {
                    span: cur.span_at(i),
                    found: input[i..].chars().next().unwrap_or(c),
                });
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(input: &str) -> Vec<Token> {
        lex(input).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn lexes_listing_one() {
        let toks = toks("var movements = stream.window(wsize=50ms).sbp()");
        assert!(toks.contains(&Token::Ident("stream".into())));
        assert!(toks.contains(&Token::Number(50.0, Some("ms".into()))));
        assert!(!toks.contains(&Token::FatArrow));
    }

    #[test]
    fn fat_arrow_and_comparisons() {
        let toks = toks("s => s.time >= -5000");
        assert!(toks.contains(&Token::FatArrow));
        assert!(toks.contains(&Token::Ge));
        assert!(toks.contains(&Token::Minus));
    }

    #[test]
    fn number_then_method_call() {
        // `5.sbp()` must not lex "5." as a decimal.
        let toks = toks("5.sbp()");
        assert_eq!(toks[0], Token::Number(5.0, None));
        assert_eq!(toks[1], Token::Dot);
    }

    #[test]
    fn strings_and_comments() {
        let toks = toks("q('hello') // trailing comment");
        assert!(toks.contains(&Token::Str("hello".into())));
        assert_eq!(toks.len(), 4);
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(lex("a ~ b"), Err(QueryError::Lex { .. })));
    }

    #[test]
    fn slice_tokens() {
        let toks = toks("w[-100ms:100ms]");
        assert!(toks.contains(&Token::LBracket));
        assert!(toks.contains(&Token::Colon));
        assert!(toks.contains(&Token::Number(100.0, Some("ms".into()))));
    }

    #[test]
    fn spans_track_lines_and_columns() {
        let spanned = lex("var q = stream\n  .sbp()").unwrap();
        assert_eq!(spanned[0].span, Span::new(1, 1)); // var
        assert_eq!(spanned[3].span, Span::new(1, 9)); // stream
        assert_eq!(spanned[4].span, Span::new(2, 3)); // the dot
        assert_eq!(spanned[5].span, Span::new(2, 4)); // sbp
    }

    #[test]
    fn lex_error_carries_line_and_column() {
        let err = lex("var q = stream\n  .sbp() ~").unwrap_err();
        assert_eq!(
            err,
            QueryError::Lex {
                span: Span::new(2, 10),
                found: '~'
            }
        );
        assert!(err.to_string().contains("line 2, column 10"), "{err}");
    }

    #[test]
    fn non_ascii_character_is_reported_whole() {
        let err = lex("stream.é()").unwrap_err();
        assert_eq!(
            err,
            QueryError::Lex {
                span: Span::new(1, 8),
                found: 'é'
            }
        );
        assert!(err.to_string().contains("'é'"), "{err}");
        // A four-byte character after multi-byte string content.
        let err = lex("q(\"ü\") 🧠").unwrap_err();
        assert!(
            matches!(err, QueryError::Lex { found: '🧠', .. }),
            "{err:?}"
        );
    }
}
