//! Parser: token stream → fluent-chain AST.
//!
//! Errors point at the offending token: every [`QueryError::Parse`]
//! carries the token's 1-based line/column [`Span`] and its
//! re-stringified text, so a clinician typo in a multi-line program is
//! reported as `parse error at line 2, column 14: expected ...`.

use crate::lexer::{lex, SpannedToken, Token};
use crate::{QueryError, Span};

/// An argument to an operator call.
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    /// A duration, normalised to milliseconds (`50ms`, `5s`, `200us`).
    Duration(f64),
    /// A bare number.
    Number(f64),
    /// A plain or dotted identifier (`kf_params`, `s.locID`).
    Ident(String),
    /// A string literal.
    Str(String),
    /// A named argument (`wsize=50ms`).
    Named(String, Box<Arg>),
    /// A lambda, captured as raw text (`s => s.time >= -5000`).
    Lambda(String),
    /// A time slice (`w[-100ms:100ms]`), in milliseconds.
    Slice {
        /// Start offset in ms (may be negative).
        from_ms: f64,
        /// End offset in ms.
        to_ms: f64,
    },
}

impl Arg {
    /// The duration in ms if this argument is one (directly or named).
    pub fn as_duration_ms(&self) -> Option<f64> {
        match self {
            Arg::Duration(ms) => Some(*ms),
            Arg::Named(_, inner) => inner.as_duration_ms(),
            _ => None,
        }
    }
}

/// One operator call in a chain.
#[derive(Debug, Clone, PartialEq)]
pub struct OpCall {
    /// Operator name, lower-cased.
    pub name: String,
    /// Arguments in order.
    pub args: Vec<Arg>,
}

impl OpCall {
    /// The value of named argument `key`, if present.
    pub fn named(&self, key: &str) -> Option<&Arg> {
        self.args.iter().find_map(|a| match a {
            Arg::Named(k, v) if k == key => Some(v.as_ref()),
            _ => None,
        })
    }
}

/// A parsed statement: `var <name> = stream.<op>()...`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryAst {
    /// Bound variable name.
    pub name: String,
    /// The operator chain, in order.
    pub ops: Vec<OpCall>,
}

struct Parser {
    tokens: Vec<SpannedToken>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|s| &s.tok)
    }

    fn peek_at(&self, off: usize) -> Option<&Token> {
        self.tokens.get(self.pos + off).map(|s| &s.tok)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|s| s.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// The span of the token at `pos` (for the just-consumed token, pass
    /// `pos - 1`); past the end, the position right after the last token.
    fn span_of(&self, pos: usize) -> Span {
        match self.tokens.get(pos) {
            Some(s) => s.span,
            None => self
                .tokens
                .last()
                .map(|s| Span::new(s.span.line, s.span.col + 1))
                .unwrap_or(Span::new(1, 1)),
        }
    }

    /// A parse error pointing at the token at `pos` (or end of input).
    fn err_at(&self, pos: usize, message: String) -> QueryError {
        QueryError::Parse {
            span: self.span_of(pos),
            found: match self.tokens.get(pos) {
                Some(s) => display_token(&s.tok),
                None => "end of input".into(),
            },
            message,
        }
    }

    /// A parse error pointing at the *current* token.
    fn err_here(&self, message: String) -> QueryError {
        self.err_at(self.pos, message)
    }

    fn expect_ident(&mut self) -> Result<String, QueryError> {
        match self.peek() {
            Some(Token::Ident(_)) => match self.next() {
                Some(Token::Ident(s)) => Ok(s),
                _ => unreachable!("peeked an identifier"),
            },
            _ => Err(self.err_here("expected identifier".into())),
        }
    }

    fn expect(&mut self, want: &Token) -> Result<(), QueryError> {
        if self.peek() == Some(want) {
            self.next();
            Ok(())
        } else {
            Err(self.err_here(format!("expected `{}`", display_token(want))))
        }
    }

    fn parse_statement(&mut self) -> Result<QueryAst, QueryError> {
        let kw_pos = self.pos;
        let kw = self.expect_ident()?;
        if kw != "var" {
            return Err(self.err_at(kw_pos, "expected `var`".into()));
        }
        let name = self.expect_ident()?;
        self.expect(&Token::Eq)?;
        let source_pos = self.pos;
        let source = self.expect_ident()?;
        if source != "stream" {
            return Err(self.err_at(source_pos, "chains must start at `stream`".into()));
        }
        let mut ops = Vec::new();
        while self.peek() == Some(&Token::Dot) {
            self.next();
            ops.push(self.parse_call()?);
        }
        Ok(QueryAst { name, ops })
    }

    fn parse_call(&mut self) -> Result<OpCall, QueryError> {
        let name = self.expect_ident()?.to_lowercase();
        self.expect(&Token::LParen)?;
        let mut args = Vec::new();
        if self.peek() != Some(&Token::RParen) {
            loop {
                args.push(self.parse_arg()?);
                match self.peek() {
                    Some(Token::Comma) => {
                        self.next();
                    }
                    _ => break,
                }
            }
        }
        self.expect(&Token::RParen)?;
        Ok(OpCall { name, args })
    }

    fn parse_arg(&mut self) -> Result<Arg, QueryError> {
        // Lambda: `ident => …` captured raw until `,` / `)` at depth 0.
        if let (Some(Token::Ident(_)), Some(Token::FatArrow)) = (self.peek(), self.peek_at(1)) {
            return Ok(Arg::Lambda(self.capture_raw()?));
        }
        let arg_pos = self.pos;
        match self.next() {
            Some(Token::Minus) => {
                let pos = self.pos;
                match self.next() {
                    Some(Token::Number(v, unit)) => Ok(number_arg(-v, unit)),
                    _ => Err(self.err_at(pos, "expected number after `-`".into())),
                }
            }
            Some(Token::Number(v, unit)) => Ok(number_arg(v, unit)),
            Some(Token::Str(s)) => Ok(Arg::Str(s)),
            Some(Token::Ident(name)) => {
                // Named argument? Its value is any argument but another
                // named one: rejecting `a=b=…` before recursing keeps the
                // parse depth at two whatever the input.
                if self.peek() == Some(&Token::Eq) {
                    self.next();
                    let nested = matches!(self.peek(), Some(Token::Ident(_)))
                        && self.peek_at(1) == Some(&Token::Eq);
                    if nested {
                        return Err(self.err_here("named arguments do not nest".into()));
                    }
                    let value = self.parse_arg()?;
                    return Ok(Arg::Named(name, Box::new(value)));
                }
                // Slice? `w[-100ms:100ms]`
                if self.peek() == Some(&Token::LBracket) {
                    self.next();
                    let from_ms = self.parse_signed_duration()?;
                    self.expect(&Token::Colon)?;
                    let to_ms = self.parse_signed_duration()?;
                    self.expect(&Token::RBracket)?;
                    return Ok(Arg::Slice { from_ms, to_ms });
                }
                // Dotted path? `s.locID` (not a call — no parens).
                let mut path = name;
                while self.peek() == Some(&Token::Dot) {
                    if let Some(Token::Ident(_)) = self.peek_at(1) {
                        if self.peek_at(2) == Some(&Token::LParen) {
                            break; // a method call, not a path
                        }
                        self.next();
                        path.push('.');
                        path.push_str(&self.expect_ident()?);
                    } else {
                        break;
                    }
                }
                Ok(Arg::Ident(path))
            }
            _ => Err(self.err_at(arg_pos, "expected an argument".into())),
        }
    }

    fn parse_signed_duration(&mut self) -> Result<f64, QueryError> {
        let sign = if self.peek() == Some(&Token::Minus) {
            self.next();
            -1.0
        } else {
            1.0
        };
        let pos = self.pos;
        match self.next() {
            Some(Token::Number(v, unit)) => match number_arg(sign * v, unit) {
                Arg::Duration(ms) => Ok(ms),
                Arg::Number(n) => Ok(n),
                _ => unreachable!("number_arg returns Duration or Number"),
            },
            _ => Err(self.err_at(pos, "expected duration".into())),
        }
    }

    /// Captures raw tokens (roughly re-stringified) until a `,` or `)` at
    /// nesting depth 0.
    fn capture_raw(&mut self) -> Result<String, QueryError> {
        let mut depth = 0i32;
        let mut parts: Vec<String> = Vec::new();
        loop {
            match self.peek() {
                None => return Err(self.err_here("unterminated lambda".into())),
                Some(Token::Comma) if depth == 0 => break,
                Some(Token::RParen) if depth == 0 => break,
                Some(t) => {
                    match t {
                        Token::LParen | Token::LBracket => depth += 1,
                        Token::RParen | Token::RBracket => depth -= 1,
                        _ => {}
                    }
                    parts.push(display_token(t));
                    self.next();
                }
            }
        }
        Ok(parts.join(" "))
    }
}

/// Re-stringifies one token (used for lambda capture and error text).
pub(crate) fn display_token(t: &Token) -> String {
    match t {
        Token::Ident(s) => s.clone(),
        Token::Number(v, Some(u)) => format!("{v}{u}"),
        Token::Number(v, None) => format!("{v}"),
        Token::Str(s) => format!("{s:?}"),
        Token::Dot => ".".into(),
        Token::LParen => "(".into(),
        Token::RParen => ")".into(),
        Token::LBracket => "[".into(),
        Token::RBracket => "]".into(),
        Token::Comma => ",".into(),
        Token::Eq => "=".into(),
        Token::FatArrow => "=>".into(),
        Token::Colon => ":".into(),
        Token::Minus => "-".into(),
        Token::Ge => ">=".into(),
        Token::Le => "<=".into(),
        Token::Gt => ">".into(),
        Token::Lt => "<".into(),
    }
}

fn number_arg(v: f64, unit: Option<String>) -> Arg {
    match unit.as_deref() {
        Some("ms") => Arg::Duration(v),
        Some("s") => Arg::Duration(v * 1_000.0),
        Some("us") => Arg::Duration(v / 1_000.0),
        Some("mb") => Arg::Number(v * 1024.0 * 1024.0),
        Some("kb") => Arg::Number(v * 1024.0),
        _ => Arg::Number(v),
    }
}

/// Parses one `var … = stream.…` statement.
///
/// # Errors
///
/// [`QueryError::Lex`] or [`QueryError::Parse`].
pub fn parse(input: &str) -> Result<QueryAst, QueryError> {
    let tokens = lex(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let ast = p.parse_statement()?;
    if p.pos != p.tokens.len() {
        return Err(p.err_here("expected end of input after statement".into()));
    }
    Ok(ast)
}

/// Parses a *program*: one or more `var` statements, in order. Used for
/// application mixes where each cadence gets its own chain (e.g. a 4 ms
/// seizure chain plus a 100 ms movement chain).
///
/// # Errors
///
/// [`QueryError::Lex`], [`QueryError::Parse`], or a parse error on an
/// empty program.
pub fn parse_program(input: &str) -> Result<Vec<QueryAst>, QueryError> {
    let tokens = lex(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut statements = Vec::new();
    if p.tokens.is_empty() {
        return Err(p.err_here("expected a `var` statement".into()));
    }
    while p.pos < p.tokens.len() {
        statements.push(p.parse_statement()?);
    }
    Ok(statements)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Listing 1 of the paper.
    const LISTING_1: &str =
        "var movements = stream.window(wsize=50ms).sbp().kf(kf_params).call_runtime()";

    /// Listing 2 of the paper.
    const LISTING_2: &str = "var seizure_data = stream.Map( \
         s => s.select(s => s.data), s.locID) \
         .window(wsize=4ms).select(w => w.time >= -5000) \
         .select(w => w.seizure_detect(), w[-100ms:100ms])";

    #[test]
    fn parses_listing_one() {
        let ast = parse(LISTING_1).unwrap();
        assert_eq!(ast.name, "movements");
        let names: Vec<&str> = ast.ops.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(names, ["window", "sbp", "kf", "call_runtime"]);
        assert_eq!(
            ast.ops[0].named("wsize").and_then(Arg::as_duration_ms),
            Some(50.0)
        );
        assert_eq!(ast.ops[2].args, vec![Arg::Ident("kf_params".into())]);
    }

    #[test]
    fn parses_listing_two() {
        let ast = parse(LISTING_2).unwrap();
        assert_eq!(ast.name, "seizure_data");
        let names: Vec<&str> = ast.ops.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(names, ["map", "window", "select", "select"]);
        // Map's second argument is the dotted grouping key.
        assert_eq!(ast.ops[0].args[1], Arg::Ident("s.locID".into()));
        // Final select carries the slice.
        assert_eq!(
            ast.ops[3].args[1],
            Arg::Slice {
                from_ms: -100.0,
                to_ms: 100.0
            }
        );
        // 4 ms window.
        assert_eq!(
            ast.ops[1].named("wsize").and_then(Arg::as_duration_ms),
            Some(4.0)
        );
    }

    #[test]
    fn lambda_is_captured_raw() {
        let ast = parse("var q = stream.select(w => w.time >= -5000)").unwrap();
        match &ast.ops[0].args[0] {
            Arg::Lambda(text) => assert!(text.contains(">="), "{text}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn seconds_normalise_to_ms() {
        let ast = parse("var q = stream.window(wsize=5s)").unwrap();
        assert_eq!(
            ast.ops[0].named("wsize").and_then(Arg::as_duration_ms),
            Some(5_000.0)
        );
    }

    #[test]
    fn rejects_non_stream_source() {
        assert!(parse("var q = foo.window()").is_err());
    }

    #[test]
    fn rejects_missing_var() {
        assert!(parse("q = stream.window()").is_err());
    }

    #[test]
    fn parses_two_statement_program() {
        let program = format!("{LISTING_1}\n{LISTING_2}");
        let statements = parse_program(&program).unwrap();
        assert_eq!(statements.len(), 2);
        assert_eq!(statements[0].name, "movements");
        assert_eq!(statements[1].name, "seizure_data");
        // A single statement is a one-entry program.
        assert_eq!(parse_program(LISTING_1).unwrap().len(), 1);
        // An empty program is an error, not an empty vec.
        assert!(parse_program("  // just a comment\n").is_err());
    }

    // The three most common malformed-query shapes, each asserting the
    // span and offending token the error must carry.

    #[test]
    fn malformed_missing_var_keyword_points_at_first_token() {
        let err = parse("movements = stream.sbp()").unwrap_err();
        assert_eq!(
            err,
            QueryError::Parse {
                span: Span::new(1, 1),
                found: "movements".into(),
                message: "expected `var`".into(),
            }
        );
        assert!(err.to_string().contains("line 1, column 1"), "{err}");
    }

    #[test]
    fn malformed_unclosed_call_points_past_last_token() {
        // A forgotten `)` on a multi-line program: the error lands at
        // end-of-input with the closing paren named.
        let err = parse("var q = stream\n  .window(wsize=4ms").unwrap_err();
        match &err {
            QueryError::Parse {
                span,
                found,
                message,
            } => {
                assert_eq!(span.line, 2, "{err}");
                assert_eq!(found, "end of input");
                assert!(message.contains("expected `)`"), "{err}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_bad_argument_points_at_offending_token() {
        // A stray `=` where an argument belongs.
        let err = parse("var q = stream.window(=4ms)").unwrap_err();
        assert_eq!(
            err,
            QueryError::Parse {
                span: Span::new(1, 23),
                found: "=".into(),
                message: "expected an argument".into(),
            }
        );
    }

    #[test]
    fn nested_named_argument_is_rejected_at_the_inner_name() {
        let err = parse("var q = stream.window(wsize=x=4ms)").unwrap_err();
        assert_eq!(
            err,
            QueryError::Parse {
                span: Span::new(1, 29),
                found: "x".into(),
                message: "named arguments do not nest".into(),
            }
        );
        // One level of naming still parses.
        assert!(parse("var q = stream.window(wsize=4ms)").is_ok());
    }

    /// Regression: 100,000 nested named arguments (a 200 KB program)
    /// used to recurse once per level and overflow the stack, aborting
    /// the process; the parser now refuses the second level outright.
    #[test]
    fn deeply_nested_named_arguments_fail_closed() {
        let src = format!("var q = stream.window({}1ms)", "x=".repeat(100_000));
        assert!(matches!(parse_program(&src), Err(QueryError::Parse { .. })));
    }

    #[test]
    fn trailing_tokens_are_spanned() {
        let err = parse("var q = stream.sbp() extra").unwrap_err();
        match err {
            QueryError::Parse { span, found, .. } => {
                assert_eq!(span, Span::new(1, 22));
                assert_eq!(found, "extra");
            }
            other => panic!("{other:?}"),
        }
    }
}
