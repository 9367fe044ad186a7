//! Line-oriented parser for the Fortran dialect emitted by
//! `acc_ast::fgen`.
//!
//! Normalizations performed while lowering to the shared AST:
//!
//! * `do v = a, b[, s]` becomes a half-open [`ForLoop`] with `to = b + 1`
//!   (peephole-simplified so `n - 1` bounds recover `n`).
//! * `!$acc parallel` … `!$acc end parallel` block sentinels become
//!   [`Stmt::AccBlock`] regions.
//! * The `fname = expr` / `return` pair in a function becomes
//!   [`Stmt::Return`].
//! * Declarations stay hoisted (the shared AST permits interleaving, but
//!   re-emission hoists again, so Fortran emit∘parse is a fixpoint).

use crate::cursor::{
    parse_args, parse_expr, return_stmt_stack, take_stmt_stack, Cursor, PAYLOAD_TOKENS,
};
use crate::diag::ParseError;
use crate::directive::parse_directive_with;
use crate::lex::{lex_fortran, Punct, SpannedTok, Tok};
use acc_ast::{
    fgen, AccDirective, Expr, ForLoop, Function, LValue, Name, Param, ParamKind, Program,
    ScalarType, Stmt, Type,
};
use acc_spec::{DirectiveKind, Language};

/// Parse Fortran source into a [`Program`]. Its name comes from the leading
/// `! test program: …` comment the generator emits.
pub fn parse_fortran(source: &str) -> Result<Program, ParseError> {
    let lexed = lex_fortran(source)?;
    let mut p = Parser {
        c: Cursor::new(&lexed.toks),
        payload: Vec::with_capacity(PAYLOAD_TOKENS),
        stmts: take_stmt_stack(),
    };
    let functions = p.parse_functions();
    return_stmt_stack(p.stmts);
    Ok(Program {
        name: Name::new(lexed.program_name.unwrap_or("unnamed")),
        language: Language::Fortran,
        functions: functions?,
    })
}

struct Parser<'a> {
    c: Cursor<'a>,
    /// Token buffer every directive payload is lexed into.
    payload: Vec<SpannedTok<'a>>,
    /// Statements of the bodies being parsed, innermost body on top (see
    /// [`Parser::parse_body_until`] and `cursor::take_stmt_stack`).
    stmts: Vec<Stmt>,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(self.c.line(), msg.into())
    }

    fn parse_functions(&mut self) -> Result<Vec<Function>, ParseError> {
        let mut functions = Vec::new();
        self.c.skip_newlines();
        while !self.c.at_eof() {
            functions.push(self.parse_function()?);
            self.c.skip_newlines();
        }
        Ok(functions)
    }

    fn end_of_stmt(&mut self) -> Result<(), ParseError> {
        match self.c.next() {
            Tok::Newline | Tok::Eof => Ok(()),
            other => Err(self.err(format!("expected end of statement, found {other:?}"))),
        }
    }

    fn parse_function(&mut self) -> Result<Function, ParseError> {
        // Header: `<type> function name(params)` or `subroutine name(params)`.
        let (ret, name) = match self.c.expect_ident_text()? {
            "subroutine" => (None, self.c.expect_any_ident()?),
            "integer" => {
                self.c.expect_ident("function")?;
                (Some(ScalarType::Int), self.c.expect_any_ident()?)
            }
            "real" => {
                self.c.expect_ident("function")?;
                (Some(ScalarType::Float), self.c.expect_any_ident()?)
            }
            "double" => {
                self.c.expect_ident("precision")?;
                self.c.expect_ident("function")?;
                (Some(ScalarType::Double), self.c.expect_any_ident()?)
            }
            other => return Err(self.err(format!("expected function header, found {other:?}"))),
        };
        self.c.expect_punct(Punct::LParen)?;
        let mut param_names = Vec::new();
        if !self.c.eat_punct(Punct::RParen) {
            loop {
                param_names.push(self.c.expect_any_ident()?);
                if self.c.eat_punct(Punct::Comma) {
                    continue;
                }
                self.c.expect_punct(Punct::RParen)?;
                break;
            }
        }
        self.end_of_stmt()?;
        self.c.skip_newlines();

        // Declaration section (also classifies parameters).
        // The declarations open the body: they go on the statement stack
        // first, and the executable statements follow them there.
        let mut params: Vec<Param> = Vec::new();
        let start = self.stmts.len();
        loop {
            self.c.skip_newlines();
            match self.c.peek() {
                Tok::Ident("implicit") => {
                    self.c.next();
                    self.c.expect_ident("none")?;
                    self.end_of_stmt()?;
                }
                // `double precision ::` is a decl; guard against the
                // (never-emitted) ambiguity with expressions.
                Tok::Ident("integer" | "real" | "double") => {
                    self.parse_decl_line(&param_names, &mut params)?;
                }
                _ => break,
            }
        }
        // Order params as in the header.
        params.sort_by_key(|p| {
            param_names
                .iter()
                .position(|n| *n == p.name)
                .unwrap_or(usize::MAX)
        });

        // Body.
        let body =
            self.parse_body_until(start, &|t: Tok| t.is_ident("end"), &name, ret.is_some())?;
        // Footer: `end function name` / `end subroutine name`.
        self.c.expect_ident("end")?;
        match ret {
            Some(_) => self.c.expect_ident("function")?,
            None => self.c.expect_ident("subroutine")?,
        }
        self.c.expect_ident(&name)?;
        self.end_of_stmt()?;
        Ok(Function {
            name,
            params,
            ret,
            body,
        })
    }

    fn parse_decl_line(
        &mut self,
        param_names: &[Name],
        params: &mut Vec<Param>,
    ) -> Result<(), ParseError> {
        let (scalar, is_ptr) = match self.c.expect_ident_text()? {
            "integer" => {
                if self.c.eat_punct(Punct::LParen) {
                    // `integer(8)` — device-pointer surrogate.
                    match self.c.next() {
                        Tok::Int(8) => {}
                        other => {
                            return Err(self.err(format!("unsupported integer kind {other:?}")))
                        }
                    }
                    self.c.expect_punct(Punct::RParen)?;
                    (ScalarType::Int, true)
                } else {
                    (ScalarType::Int, false)
                }
            }
            "real" => (ScalarType::Float, false),
            "double" => {
                self.c.expect_ident("precision")?;
                (ScalarType::Double, false)
            }
            other => return Err(self.err(format!("expected type, found {other:?}"))),
        };
        self.c.expect_punct(Punct::Colon)?;
        self.c.expect_punct(Punct::Colon)?;
        loop {
            let name = self.c.expect_any_ident()?;
            if self.c.eat_punct(Punct::LParen) {
                // Array bounds `0:hi` per dimension, or `0:*` for params.
                let mut dims = Vec::new();
                let mut assumed = false;
                loop {
                    match self.c.next() {
                        Tok::Int(0) => {}
                        other => {
                            return Err(self.err(format!(
                                "array declarations are 0-based in the dialect, found {other:?}"
                            )))
                        }
                    }
                    self.c.expect_punct(Punct::Colon)?;
                    match self.c.next() {
                        Tok::Int(hi) if hi >= 0 => dims.push(hi as usize + 1),
                        Tok::Punct(Punct::Star) => assumed = true,
                        other => return Err(self.err(format!("bad array bound {other:?}"))),
                    }
                    if self.c.eat_punct(Punct::Comma) {
                        continue;
                    }
                    self.c.expect_punct(Punct::RParen)?;
                    break;
                }
                if param_names.contains(&name) {
                    params.push(Param {
                        name,
                        kind: ParamKind::ArrayPtr(scalar),
                    });
                } else if assumed {
                    return Err(self.err("assumed-size array must be a parameter"));
                } else {
                    self.stmts.push(Stmt::DeclArray {
                        name,
                        elem: scalar,
                        dims,
                    });
                }
            } else if param_names.contains(&name) {
                params.push(Param {
                    name,
                    kind: ParamKind::Scalar(scalar),
                });
            } else {
                let ty = if is_ptr {
                    Type::Ptr(scalar)
                } else {
                    Type::Scalar(scalar)
                };
                self.stmts.push(Stmt::DeclScalar {
                    name,
                    ty,
                    init: None,
                });
            }
            if !self.c.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.end_of_stmt()?;
        Ok(())
    }

    /// Parse statements onto the statement stack until `stop` matches the
    /// current token (which is left unconsumed). Returns every statement
    /// the stack holds above `start` (any pushed before the call first) as
    /// one exactly sized `Vec`.
    fn parse_body_until(
        &mut self,
        start: usize,
        stop: &dyn Fn(Tok) -> bool,
        fname: &str,
        has_ret: bool,
    ) -> Result<Vec<Stmt>, ParseError> {
        loop {
            self.c.skip_newlines();
            if self.c.at_eof() || stop(self.c.peek()) {
                return Ok(self.stmts.drain(start..).collect());
            }
            let stmt = self.parse_stmt(fname, has_ret)?;
            // Merge `fname = e` + `return` into Return(e).
            let merges = has_ret
                && matches!(stmt, Stmt::Return(_))
                && self.stmts.len() > start
                && matches!(self.stmts.last(), Some(Stmt::Assign {
                    target: LValue::Var(v),
                    op: None,
                    ..
                }) if v == fname);
            if merges {
                if let Some(Stmt::Assign { value, .. }) = self.stmts.pop() {
                    self.stmts.push(Stmt::Return(value));
                }
                continue;
            }
            self.stmts.push(stmt);
        }
    }

    fn parse_stmt(&mut self, fname: &str, has_ret: bool) -> Result<Stmt, ParseError> {
        if let Tok::Directive(payload) = self.c.peek() {
            let line = self.c.line();
            self.c.next();
            self.end_of_stmt()?;
            if payload.starts_with("end") {
                return Err(self.err(format!("unmatched `!$acc {payload}`")));
            }
            let dir = parse_directive_with(payload, Language::Fortran, line, &mut self.payload)?;
            return self.parse_directive_stmt(dir, fname, has_ret);
        }
        match self.c.peek() {
            Tok::Ident(w) => match w {
                "do" => self.parse_do(fname, has_ret).map(Stmt::For),
                "if" => self.parse_if(fname, has_ret),
                "call" => {
                    self.c.next();
                    let name = self.c.expect_any_ident()?;
                    self.c.expect_punct(Punct::LParen)?;
                    let args = parse_args(&mut self.c, Language::Fortran)?;
                    self.end_of_stmt()?;
                    Ok(Stmt::Call { name, args })
                }
                "return" => {
                    self.c.next();
                    self.end_of_stmt()?;
                    // Placeholder value; merged with the preceding result
                    // assignment by `parse_body_until`.
                    Ok(Stmt::Return(Expr::int(0)))
                }
                _ => self.parse_assign(),
            },
            other => Err(self.err(format!("expected statement, found {other:?}"))),
        }
    }

    fn parse_directive_stmt(
        &mut self,
        dir: AccDirective,
        fname: &str,
        has_ret: bool,
    ) -> Result<Stmt, ParseError> {
        match dir.kind {
            DirectiveKind::Parallel
            | DirectiveKind::Kernels
            | DirectiveKind::Data
            | DirectiveKind::HostData => {
                // The block ends at exactly `!$acc end <kind>`.
                let kind = dir.kind.name();
                let stop =
                    |t: Tok| matches!(t, Tok::Directive(p) if p.strip_prefix("end ") == Some(kind));
                let body = self.parse_body_until(self.stmts.len(), &stop, fname, has_ret)?;
                match self.c.next() {
                    Tok::Directive(_) => {}
                    other => {
                        return Err(self.err(format!(
                            "missing `!$acc end {}`, found {other:?}",
                            dir.kind.name()
                        )))
                    }
                }
                self.end_of_stmt()?;
                Ok(Stmt::AccBlock { dir, body })
            }
            DirectiveKind::Loop | DirectiveKind::ParallelLoop | DirectiveKind::KernelsLoop => {
                self.c.skip_newlines();
                if !self.c.peek().is_ident("do") {
                    return Err(self.err("loop directive must be followed by a do loop"));
                }
                let l = self.parse_do(fname, has_ret)?;
                Ok(Stmt::AccLoop { dir, l })
            }
            _ => Ok(Stmt::AccStandalone { dir }),
        }
    }

    fn parse_do(&mut self, fname: &str, has_ret: bool) -> Result<ForLoop, ParseError> {
        self.c.expect_ident("do")?;
        let var = self.c.expect_any_ident()?;
        self.c.expect_punct(Punct::Assign)?;
        let from = parse_expr(&mut self.c, Language::Fortran)?;
        self.c.expect_punct(Punct::Comma)?;
        let hi = parse_expr(&mut self.c, Language::Fortran)?;
        let step = if self.c.eat_punct(Punct::Comma) {
            parse_expr(&mut self.c, Language::Fortran)?
        } else {
            Expr::int(1)
        };
        self.end_of_stmt()?;
        let stop = |t: Tok| t.is_ident("end");
        let body = self.parse_body_until(self.stmts.len(), &stop, fname, has_ret)?;
        self.c.expect_ident("end")?;
        self.c.expect_ident("do")?;
        self.end_of_stmt()?;
        // Inclusive upper bound -> exclusive.
        Ok(ForLoop {
            var,
            from,
            to: fgen::add_one(&hi),
            step,
            body,
        })
    }

    fn parse_if(&mut self, fname: &str, has_ret: bool) -> Result<Stmt, ParseError> {
        self.c.expect_ident("if")?;
        self.c.expect_punct(Punct::LParen)?;
        let cond = parse_expr(&mut self.c, Language::Fortran)?;
        self.c.expect_punct(Punct::RParen)?;
        self.c.expect_ident("then")?;
        self.end_of_stmt()?;
        let stop = |t: Tok| t.is_ident("else") || t.is_ident("end");
        let then_body = self.parse_body_until(self.stmts.len(), &stop, fname, has_ret)?;
        let mut else_body = Vec::new();
        if self.c.eat_ident("else") {
            self.end_of_stmt()?;
            let stop = |t: Tok| t.is_ident("end");
            else_body = self.parse_body_until(self.stmts.len(), &stop, fname, has_ret)?;
        }
        self.c.expect_ident("end")?;
        self.c.expect_ident("if")?;
        self.end_of_stmt()?;
        Ok(Stmt::If {
            cond,
            then_body,
            else_body,
        })
    }

    fn parse_assign(&mut self) -> Result<Stmt, ParseError> {
        let name = self.c.expect_any_ident()?;
        let target = if self.c.eat_punct(Punct::LParen) {
            let mut indices = Vec::new();
            loop {
                indices.push(parse_expr(&mut self.c, Language::Fortran)?);
                if self.c.eat_punct(Punct::Comma) {
                    continue;
                }
                self.c.expect_punct(Punct::RParen)?;
                break;
            }
            LValue::Index {
                base: name,
                indices,
            }
        } else {
            LValue::Var(name)
        };
        self.c.expect_punct(Punct::Assign)?;
        let value = parse_expr(&mut self.c, Language::Fortran)?;
        self.end_of_stmt()?;
        Ok(Stmt::Assign {
            target,
            op: None,
            value,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acc_ast::builder as b;
    use acc_ast::fgen::emit_fortran;
    use acc_ast::AccClause;

    /// Emit a program as Fortran, parse it back, and check the fixpoint
    /// property: emitting the reparsed program reproduces the text.
    fn check_fixpoint(p: &Program) -> Program {
        let src = emit_fortran(p);
        let q = parse_fortran(&src).unwrap_or_else(|e| panic!("{e}\n---\n{src}"));
        let src2 = emit_fortran(&q);
        assert_eq!(src, src2, "emit∘parse must be a fixpoint");
        q
    }

    #[test]
    fn minimal_function() {
        let p = Program::simple("t", Language::Fortran, vec![Stmt::Return(Expr::int(1))]);
        let q = check_fixpoint(&p);
        assert_eq!(q.entry().unwrap().body, vec![Stmt::Return(Expr::int(1))]);
    }

    #[test]
    fn do_loop_bounds_recover() {
        let p = Program::simple(
            "t",
            Language::Fortran,
            vec![
                b::decl_int("s", 0),
                b::for_upto("i", Expr::var("n"), vec![b::add("s", Expr::var("i"))]),
                Stmt::Return(Expr::var("s")),
            ],
        );
        let q = check_fixpoint(&p);
        // The do-loop upper bound `n - 1` must recover `to = n`.
        let for_stmt = q
            .entry()
            .unwrap()
            .body
            .iter()
            .find_map(|s| match s {
                Stmt::For(l) => Some(l.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(for_stmt.to, Expr::var("n"));
    }

    #[test]
    fn region_with_end_sentinel() {
        let p = Program::simple(
            "t",
            Language::Fortran,
            vec![
                b::decl_array("a", ScalarType::Int, 16),
                b::parallel_region(
                    vec![
                        AccClause::NumGangs(Expr::int(4)),
                        b::copy_sec("a", Expr::int(16)),
                    ],
                    vec![b::acc_loop(
                        vec![],
                        "i",
                        Expr::int(16),
                        vec![b::set1("a", Expr::var("i"), Expr::var("i"))],
                    )],
                ),
                Stmt::Return(Expr::int(1)),
            ],
        );
        let q = check_fixpoint(&p);
        assert_eq!(q.directives().len(), 2);
    }

    #[test]
    fn nested_regions() {
        let p = Program::simple(
            "t",
            Language::Fortran,
            vec![
                b::decl_array("a", ScalarType::Float, 8),
                b::data_region(
                    vec![b::copy_sec("a", Expr::int(8))],
                    vec![b::parallel_region(
                        vec![],
                        vec![b::acc_loop(
                            vec![],
                            "i",
                            Expr::int(8),
                            vec![b::set1(
                                "a",
                                Expr::var("i"),
                                Expr::Real(1.0, ScalarType::Float),
                            )],
                        )],
                    )],
                ),
                Stmt::Return(Expr::int(1)),
            ],
        );
        let q = check_fixpoint(&p);
        assert_eq!(q.directives().len(), 3);
    }

    #[test]
    fn if_else_and_logical_ops() {
        let p = Program::simple(
            "t",
            Language::Fortran,
            vec![
                b::decl_int("e", 0),
                Stmt::If {
                    cond: Expr::bin(
                        acc_ast::BinOp::And,
                        Expr::eq(Expr::var("x"), Expr::int(1)),
                        Expr::lt(Expr::var("y"), Expr::int(5)),
                    ),
                    then_body: vec![b::set("e", Expr::int(1))],
                    else_body: vec![b::set("e", Expr::int(2))],
                },
                Stmt::Return(Expr::var("e")),
            ],
        );
        check_fixpoint(&p);
    }

    #[test]
    fn subroutine_with_array_param() {
        let mut p = Program::simple("t", Language::Fortran, vec![Stmt::Return(Expr::int(1))]);
        p.functions.insert(
            0,
            Function {
                name: "scale2".into(),
                params: vec![
                    Param {
                        name: "a".into(),
                        kind: ParamKind::ArrayPtr(ScalarType::Float),
                    },
                    Param {
                        name: "n".into(),
                        kind: ParamKind::Scalar(ScalarType::Int),
                    },
                ],
                ret: None,
                body: vec![b::for_upto(
                    "i",
                    Expr::var("n"),
                    vec![Stmt::assign_op(
                        LValue::idx("a", Expr::var("i")),
                        acc_ast::BinOp::Mul,
                        Expr::int(2),
                    )],
                )],
            },
        );
        let q = check_fixpoint(&p);
        let helper = q.function("scale2").unwrap();
        assert_eq!(helper.params.len(), 2);
        assert_eq!(
            helper.params[0].kind,
            ParamKind::ArrayPtr(ScalarType::Float)
        );
        assert_eq!(helper.params[1].kind, ParamKind::Scalar(ScalarType::Int));
    }

    #[test]
    fn update_and_wait_standalone() {
        let p = Program::simple(
            "t",
            Language::Fortran,
            vec![
                b::decl_array("a", ScalarType::Int, 4),
                b::update(vec![b::data_whole(
                    acc_spec::ClauseKind::HostClause,
                    &["a"],
                )]),
                b::wait(Some(Expr::int(2))),
                Stmt::Return(Expr::int(1)),
            ],
        );
        let q = check_fixpoint(&p);
        let kinds: Vec<_> = q.directives().iter().map(|d| d.kind).collect();
        assert_eq!(kinds, vec![DirectiveKind::Update, DirectiveKind::Wait]);
    }

    #[test]
    fn reduction_clause_fortran() {
        let p = Program::simple(
            "t",
            Language::Fortran,
            vec![
                b::decl_int("s", 0),
                b::parallel_region(
                    vec![AccClause::Reduction(
                        acc_spec::ReductionOp::Add,
                        vec!["s".into()],
                    )],
                    vec![b::add("s", Expr::int(1))],
                ),
                Stmt::Return(Expr::var("s")),
            ],
        );
        let q = check_fixpoint(&p);
        match &q.directives()[0].clauses[0] {
            AccClause::Reduction(op, vars) => {
                assert_eq!(*op, acc_spec::ReductionOp::Add);
                assert_eq!(vars, &["s".to_string()]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn missing_end_sentinel_is_error() {
        let src = "! test program: t\ninteger function main()\n    implicit none\n!$acc parallel\n    main = 1\n    return\nend function main\n";
        assert!(parse_fortran(src).is_err());
    }

    #[test]
    fn program_name_recovered() {
        let src = "! test program: f_test\ninteger function main()\n    implicit none\n    main = 1\n    return\nend function main\n";
        let p = parse_fortran(src).unwrap();
        assert_eq!(p.name, "f_test");
    }
}
