//! Token cursor and the shared Pratt expression parser.
//!
//! Both front-ends and the directive grammar parse expressions through
//! [`parse_expr`]; the only language-dependent choice is whether
//! `ident(args)` denotes a call or an array element (Fortran overloads
//! parentheses — the front-end resolves using the intrinsic/runtime name
//! space, which is exactly what a real Fortran front-end's implicit
//! interface rules boil down to for the generated subset).

use crate::diag::ParseError;
use crate::lex::{Punct, SpannedTok, Tok};
use acc_ast::{BinOp, Expr, Name, ScalarType, Stmt, UnOp};
use acc_spec::Language;
use std::cell::Cell;

/// Names that denote calls (not array references) in Fortran expressions.
pub const FORTRAN_INTRINSICS: &[&str] = &[
    "mod", "iand", "ior", "ieor", "pow", "powf", "fabs", "fabsf", "sqrt", "sqrtf", "abs", "min",
    "max",
];

/// True when `name` is a callable (intrinsic or OpenACC runtime routine) in
/// Fortran expression position.
pub fn is_fortran_callable(name: &str) -> bool {
    FORTRAN_INTRINSICS.contains(&name) || name.starts_with("acc_")
}

/// Maximum parser recursion depth (expression nesting plus statement/block
/// nesting share one counter). Deeply nested input — e.g. a pathological
/// `((((…1…))))` pragma operand — must produce a [`ParseError`], not a stack
/// overflow that aborts the whole process and would defeat the executor's
/// panic isolation.
pub const MAX_PARSE_DEPTH: usize = 200;

/// Initial capacity of a parser's directive-payload token buffer: more
/// tokens than any generated directive has.
pub(crate) const PAYLOAD_TOKENS: usize = 32;

thread_local! {
    /// The statement stack of this thread's parses (see
    /// [`take_stmt_stack`]).
    static STMT_STACK: Cell<Vec<Stmt>> = const { Cell::new(Vec::new()) };
}

/// Take this thread's statement stack for one parse. The parsers keep the
/// statements of the blocks they are inside on one stack and move each
/// finished block off its top into an exactly sized `Vec`; handing the
/// stack from parse to parse reuses its capacity.
pub(crate) fn take_stmt_stack() -> Vec<Stmt> {
    STMT_STACK.take()
}

/// Return the stack [`take_stmt_stack`] gave, emptied, for the next parse.
pub(crate) fn return_stmt_stack(mut stack: Vec<Stmt>) {
    stack.clear();
    STMT_STACK.set(stack);
}

/// A cursor over a token stream. Tokens are `Copy` and borrow their text
/// from the source, so reading one never clones or allocates.
#[derive(Debug)]
pub struct Cursor<'a> {
    toks: &'a [SpannedTok<'a>],
    pos: usize,
    depth: usize,
}

impl<'a> Cursor<'a> {
    /// Wrap a token stream.
    pub fn new(toks: &'a [SpannedTok<'a>]) -> Self {
        Cursor {
            toks,
            pos: 0,
            depth: 0,
        }
    }

    /// Enter one recursion level; errors past [`MAX_PARSE_DEPTH`].
    pub fn descend(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            Err(ParseError::new(
                self.line(),
                format!("nesting exceeds the {MAX_PARSE_DEPTH}-level parser limit"),
            ))
        } else {
            Ok(())
        }
    }

    /// Leave one recursion level (paired with a successful [`Cursor::descend`]).
    pub fn ascend(&mut self) {
        self.depth = self.depth.saturating_sub(1);
    }

    /// Current token (Eof-padded).
    pub fn peek(&self) -> Tok<'a> {
        self.toks.get(self.pos).map_or(Tok::Eof, |t| t.tok)
    }

    /// Current 1-based line.
    pub fn line(&self) -> usize {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map(|t| t.line)
            .unwrap_or(0)
    }

    /// Advance and return the consumed token.
    #[allow(clippy::should_implement_trait)] // a cursor, not an Iterator
    pub fn next(&mut self) -> Tok<'a> {
        let t = self.peek();
        if self.pos < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    /// Consume the given punctuation if present; returns whether it was.
    pub fn eat_punct(&mut self, p: Punct) -> bool {
        if self.peek().is_punct(p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Consume the given identifier if present; returns whether it was.
    pub fn eat_ident(&mut self, k: &str) -> bool {
        if self.peek().is_ident(k) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Require the given punctuation.
    pub fn expect_punct(&mut self, p: Punct) -> Result<(), ParseError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(ParseError::new(
                self.line(),
                format!("expected {p:?}, found {:?}", self.peek()),
            ))
        }
    }

    /// Require any identifier and return it as the AST's [`Name`].
    pub fn expect_any_ident(&mut self) -> Result<Name, ParseError> {
        self.expect_ident_text().map(Name::new)
    }

    /// Require any identifier and return its text, borrowed from the
    /// source. Keyword-matching paths (directive/clause grammars) use this:
    /// it allocates nothing.
    pub fn expect_ident_text(&mut self) -> Result<&'a str, ParseError> {
        match self.next() {
            Tok::Ident(s) => Ok(s),
            other => Err(ParseError::new(
                self.line(),
                format!("expected identifier, found {other:?}"),
            )),
        }
    }

    /// Require the given identifier/keyword.
    pub fn expect_ident(&mut self, k: &str) -> Result<(), ParseError> {
        if self.eat_ident(k) {
            Ok(())
        } else {
            Err(ParseError::new(
                self.line(),
                format!("expected {k:?}, found {:?}", self.peek()),
            ))
        }
    }

    /// Skip any run of newline separators (Fortran).
    pub fn skip_newlines(&mut self) {
        while matches!(self.peek(), Tok::Newline) {
            self.pos += 1;
        }
    }

    /// True at end of input.
    pub fn at_eof(&self) -> bool {
        matches!(self.peek(), Tok::Eof)
    }
}

/// Parse a full expression.
pub fn parse_expr(c: &mut Cursor<'_>, lang: Language) -> Result<Expr, ParseError> {
    parse_bin(c, lang, 0)
}

fn punct_binop(p: Punct) -> Option<BinOp> {
    Some(match p {
        Punct::Plus => BinOp::Add,
        Punct::Minus => BinOp::Sub,
        Punct::Star => BinOp::Mul,
        Punct::Slash => BinOp::Div,
        Punct::Percent => BinOp::Rem,
        Punct::Lt => BinOp::Lt,
        Punct::Le => BinOp::Le,
        Punct::Gt => BinOp::Gt,
        Punct::Ge => BinOp::Ge,
        Punct::EqEq => BinOp::Eq,
        Punct::NotEq => BinOp::Ne,
        Punct::AndAnd => BinOp::And,
        Punct::OrOr => BinOp::Or,
        Punct::Amp => BinOp::BitAnd,
        Punct::Pipe => BinOp::BitOr,
        Punct::Caret => BinOp::BitXor,
        _ => return None,
    })
}

fn parse_bin(c: &mut Cursor<'_>, lang: Language, min_prec: u8) -> Result<Expr, ParseError> {
    c.descend()?;
    let r = parse_bin_inner(c, lang, min_prec);
    c.ascend();
    r
}

fn parse_bin_inner(c: &mut Cursor<'_>, lang: Language, min_prec: u8) -> Result<Expr, ParseError> {
    let mut lhs = parse_unary(c, lang)?;
    while let Tok::Punct(p) = c.peek() {
        let op = match punct_binop(p) {
            Some(op) if op.precedence() >= min_prec => op,
            _ => break,
        };
        c.next();
        let rhs = parse_bin(c, lang, op.precedence() + 1)?;
        lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
    }
    Ok(lhs)
}

fn parse_unary(c: &mut Cursor<'_>, lang: Language) -> Result<Expr, ParseError> {
    c.descend()?;
    let r = parse_unary_inner(c, lang);
    c.ascend();
    r
}

fn parse_unary_inner(c: &mut Cursor<'_>, lang: Language) -> Result<Expr, ParseError> {
    if c.eat_punct(Punct::Minus) {
        let inner = parse_unary(c, lang)?;
        // Fold -literal immediately so `(-1)` round-trips as Int(-1).
        return Ok(match inner {
            Expr::Int(v) => Expr::Int(-v),
            Expr::Real(v, t) => Expr::Real(-v, t),
            e => Expr::Unary(UnOp::Neg, Box::new(e)),
        });
    }
    if c.eat_punct(Punct::Not) {
        let inner = parse_unary(c, lang)?;
        return Ok(Expr::Unary(UnOp::Not, Box::new(inner)));
    }
    if c.eat_punct(Punct::Plus) {
        return parse_unary(c, lang);
    }
    parse_postfix(c, lang)
}

fn parse_postfix(c: &mut Cursor<'_>, lang: Language) -> Result<Expr, ParseError> {
    let line = c.line();
    match c.next() {
        Tok::Int(v) => Ok(Expr::Int(v)),
        Tok::Real(v, double) => Ok(Expr::Real(
            v,
            if double {
                ScalarType::Double
            } else {
                ScalarType::Float
            },
        )),
        Tok::Punct(Punct::LParen) => {
            let e = parse_expr(c, lang)?;
            c.expect_punct(Punct::RParen)?;
            Ok(e)
        }
        Tok::Ident(name) => {
            if name == "sizeof" && lang == Language::C {
                c.expect_punct(Punct::LParen)?;
                let ty = parse_scalar_type_name(c)?;
                c.expect_punct(Punct::RParen)?;
                return Ok(Expr::SizeOf(ty));
            }
            match lang {
                Language::C => {
                    if c.eat_punct(Punct::LParen) {
                        let args = parse_args(c, lang)?;
                        Ok(Expr::Call {
                            name: Name::new(name),
                            args,
                        })
                    } else if c.peek().is_punct(Punct::LBracket) {
                        let mut indices = Vec::new();
                        while c.eat_punct(Punct::LBracket) {
                            indices.push(parse_expr(c, lang)?);
                            c.expect_punct(Punct::RBracket)?;
                        }
                        Ok(Expr::Index {
                            base: Name::new(name),
                            indices,
                        })
                    } else {
                        Ok(Expr::Var(Name::new(name)))
                    }
                }
                Language::Fortran => {
                    if c.eat_punct(Punct::LParen) {
                        let args = parse_args(c, lang)?;
                        if is_fortran_callable(name) {
                            Ok(Expr::Call {
                                name: Name::new(name),
                                args,
                            })
                        } else {
                            Ok(Expr::Index {
                                base: Name::new(name),
                                indices: args,
                            })
                        }
                    } else {
                        Ok(Expr::Var(Name::new(name)))
                    }
                }
            }
        }
        other => Err(ParseError::new(
            line,
            format!("expected expression, found {other:?}"),
        )),
    }
}

/// Parse a call's or a Fortran index's arguments after the opening `(`,
/// through the closing `)`.
pub fn parse_args(c: &mut Cursor<'_>, lang: Language) -> Result<Vec<Expr>, ParseError> {
    let mut args = Vec::new();
    if c.eat_punct(Punct::RParen) {
        return Ok(args);
    }
    loop {
        args.push(parse_expr(c, lang)?);
        if c.eat_punct(Punct::Comma) {
            continue;
        }
        c.expect_punct(Punct::RParen)?;
        break;
    }
    Ok(args)
}

/// Parse a scalar type name (for `sizeof` and declarations).
pub fn parse_scalar_type_name(c: &mut Cursor<'_>) -> Result<ScalarType, ParseError> {
    let line = c.line();
    match c.expect_ident_text()? {
        "int" => Ok(ScalarType::Int),
        "float" => Ok(ScalarType::Float),
        "double" => Ok(ScalarType::Double),
        other => Err(ParseError::new(
            line,
            format!("unknown type name {other:?}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::{lex_c, lex_fortran};
    use acc_ast::cgen::expr_to_c;

    fn c_expr(src: &str) -> Expr {
        let lexed = lex_c(src).unwrap();
        let mut c = Cursor::new(&lexed.toks);
        parse_expr(&mut c, Language::C).unwrap()
    }

    fn f_expr(src: &str) -> Expr {
        let lexed = lex_fortran(src).unwrap();
        let mut c = Cursor::new(&lexed.toks);
        parse_expr(&mut c, Language::Fortran).unwrap()
    }

    #[test]
    fn precedence_c() {
        assert_eq!(expr_to_c(&c_expr("a + b * c")), "a + b * c");
        assert_eq!(expr_to_c(&c_expr("(a + b) * c")), "(a + b) * c");
        assert_eq!(expr_to_c(&c_expr("a - b - c")), "a - b - c");
        assert_eq!(expr_to_c(&c_expr("a - (b - c)")), "a - (b - c)");
    }

    #[test]
    fn logical_chain() {
        let e = c_expr("a == 1 && b != 0 || c");
        assert_eq!(expr_to_c(&e), "a == 1 && b != 0 || c");
    }

    #[test]
    fn calls_and_indexes_c() {
        let e = c_expr("powf(ft, i) + A[i][j]");
        assert_eq!(expr_to_c(&e), "powf(ft, i) + A[i][j]");
    }

    #[test]
    fn sizeof_c() {
        let e = c_expr("n * sizeof(float)");
        assert_eq!(
            e,
            Expr::mul(Expr::var("n"), Expr::SizeOf(ScalarType::Float))
        );
    }

    #[test]
    fn negative_literal_folds() {
        assert_eq!(c_expr("-1"), Expr::Int(-1));
        assert_eq!(c_expr("(-1)"), Expr::Int(-1));
        assert_eq!(c_expr("-1.5"), Expr::Real(-1.5, ScalarType::Double));
    }

    #[test]
    fn fortran_index_vs_call() {
        // `a(i)` is an index; `mod(i, 2)` and `acc_async_test(t)` are calls.
        assert_eq!(
            f_expr("a(i)"),
            Expr::Index {
                base: "a".into(),
                indices: vec![Expr::var("i")]
            }
        );
        assert!(matches!(f_expr("mod(i, 2)"), Expr::Call { .. }));
        assert!(matches!(f_expr("acc_async_test(t)"), Expr::Call { .. }));
    }

    #[test]
    fn fortran_two_dim_index() {
        assert_eq!(
            f_expr("m(i, j)"),
            Expr::Index {
                base: "m".into(),
                indices: vec![Expr::var("i"), Expr::var("j")]
            }
        );
    }

    #[test]
    fn fortran_logical_spellings() {
        let e = f_expr("a == 1 .and. .not. b");
        assert_eq!(expr_to_c(&e), "a == 1 && !b");
    }

    #[test]
    fn unary_plus_ignored() {
        assert_eq!(c_expr("+5"), Expr::Int(5));
    }

    #[test]
    fn error_on_garbage() {
        let lexed = lex_c("*;\n").unwrap();
        let mut c = Cursor::new(&lexed.toks);
        assert!(parse_expr(&mut c, Language::C).is_err());
    }

    #[test]
    fn pathological_paren_nesting_is_an_error_not_a_stack_overflow() {
        // Before the depth guard this recursed once per '(' and could blow
        // the stack — an abort no catch_unwind can isolate.
        let src = format!("{}1{}\n", "(".repeat(50_000), ")".repeat(50_000));
        let lexed = lex_c(&src).unwrap();
        let mut c = Cursor::new(&lexed.toks);
        let err = parse_expr(&mut c, Language::C).unwrap_err();
        assert!(err.to_string().contains("parser limit"), "{err}");
    }

    #[test]
    fn pathological_unary_nesting_is_an_error() {
        let src = format!("{}x\n", "!".repeat(50_000));
        let lexed = lex_c(&src).unwrap();
        let mut c = Cursor::new(&lexed.toks);
        assert!(parse_expr(&mut c, Language::C).is_err());
    }

    #[test]
    fn reasonable_nesting_still_parses() {
        let src = format!("{}1{}\n", "(".repeat(50), ")".repeat(50));
        let lexed = lex_c(&src).unwrap();
        let mut c = Cursor::new(&lexed.toks);
        assert_eq!(parse_expr(&mut c, Language::C).unwrap(), Expr::Int(1));
        // The counter unwinds fully: fresh parses have the whole budget.
        for _ in 0..3 {
            let lexed = lex_c(&src).unwrap();
            let mut c = Cursor::new(&lexed.toks);
            assert!(parse_expr(&mut c, Language::C).is_ok());
        }
    }
}
