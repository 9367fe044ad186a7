//! Recursive-descent parser for the C subset emitted by `acc_ast::cgen`.

use crate::cursor::{
    parse_args, parse_expr, return_stmt_stack, take_stmt_stack, Cursor, PAYLOAD_TOKENS,
};
use crate::diag::ParseError;
use crate::directive::parse_directive_with;
use crate::lex::{lex_c, Punct, SpannedTok, Tok};
use acc_ast::{
    AccDirective, BinOp, Expr, ForLoop, Function, LValue, Name, Param, ParamKind, Program,
    ScalarType, Stmt, Type,
};
use acc_spec::{DirectiveKind, Language};

/// Parse a C translation unit into a [`Program`]. Its name comes from the
/// leading `/* test program: … */` comment the generator emits.
pub fn parse_c(source: &str) -> Result<Program, ParseError> {
    let lexed = lex_c(source)?;
    let mut p = Parser {
        c: Cursor::new(&lexed.toks),
        payload: Vec::with_capacity(PAYLOAD_TOKENS),
        stmts: take_stmt_stack(),
    };
    let program = p.parse_unit(Name::new(lexed.program_name.unwrap_or("unnamed")));
    return_stmt_stack(p.stmts);
    program
}

struct Parser<'a> {
    c: Cursor<'a>,
    /// Token buffer every directive payload is lexed into.
    payload: Vec<SpannedTok<'a>>,
    /// Statements of the blocks being parsed, innermost block on top. A
    /// finished block moves its own statements off the top into one
    /// exactly sized `Vec`, instead of growing a `Vec` per block.
    stmts: Vec<Stmt>,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(self.c.line(), msg.into())
    }

    fn parse_unit(&mut self, name: Name) -> Result<Program, ParseError> {
        let mut functions = Vec::new();
        while !self.c.at_eof() {
            if let Some(f) = self.parse_toplevel()? {
                functions.push(f);
            }
        }
        Ok(Program {
            name,
            language: Language::C,
            functions,
        })
    }

    /// A top-level item: a prototype (skipped) or a function definition.
    fn parse_toplevel(&mut self) -> Result<Option<Function>, ParseError> {
        let ret = self.parse_ret_type()?;
        let name = self.c.expect_any_ident()?;
        self.c.expect_punct(Punct::LParen)?;
        let params = self.parse_params()?;
        self.c.expect_punct(Punct::RParen)?;
        if self.c.eat_punct(Punct::Semi) {
            return Ok(None); // prototype
        }
        self.c.expect_punct(Punct::LBrace)?;
        let body = self.parse_stmts_until_close()?;
        Ok(Some(Function {
            name,
            params,
            ret,
            body,
        }))
    }

    fn parse_ret_type(&mut self) -> Result<Option<ScalarType>, ParseError> {
        match self.c.expect_ident_text()? {
            "void" => Ok(None),
            "int" => Ok(Some(ScalarType::Int)),
            "float" => Ok(Some(ScalarType::Float)),
            "double" => Ok(Some(ScalarType::Double)),
            other => Err(self.err(format!("expected return type, found {other:?}"))),
        }
    }

    fn parse_params(&mut self) -> Result<Vec<Param>, ParseError> {
        let mut params = Vec::new();
        if self.c.peek().is_punct(Punct::RParen) {
            return Ok(params);
        }
        if self.c.eat_ident("void") {
            return Ok(params);
        }
        loop {
            let ty = self.parse_scalar_keyword()?;
            let is_ptr = self.c.eat_punct(Punct::Star);
            let name = self.c.expect_any_ident()?;
            params.push(Param {
                name,
                kind: if is_ptr {
                    ParamKind::ArrayPtr(ty)
                } else {
                    ParamKind::Scalar(ty)
                },
            });
            if !self.c.eat_punct(Punct::Comma) {
                break;
            }
        }
        Ok(params)
    }

    fn parse_scalar_keyword(&mut self) -> Result<ScalarType, ParseError> {
        let name = self.c.expect_ident_text()?;
        scalar_of(name).ok_or_else(|| self.err(format!("expected type, found {name:?}")))
    }

    fn parse_stmts_until_close(&mut self) -> Result<Vec<Stmt>, ParseError> {
        let start = self.stmts.len();
        while !self.c.eat_punct(Punct::RBrace) {
            if self.c.at_eof() {
                return Err(self.err("unexpected end of file in block"));
            }
            let stmt = self.parse_stmt()?;
            self.stmts.push(stmt);
        }
        Ok(self.stmts.drain(start..).collect())
    }

    /// A block `{ … }` or a single statement.
    fn parse_block_or_stmt(&mut self) -> Result<Vec<Stmt>, ParseError> {
        if self.c.eat_punct(Punct::LBrace) {
            self.parse_stmts_until_close()
        } else {
            Ok(vec![self.parse_stmt()?])
        }
    }

    fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        // Every statement-level recursion (nested blocks, if/for bodies,
        // directive regions) passes through here, so one depth guard turns
        // pathological nesting into a ParseError instead of a stack
        // overflow — which would abort the process and bypass the
        // executor's catch_unwind isolation.
        self.c.descend()?;
        let r = self.parse_stmt_inner();
        self.c.ascend();
        r
    }

    fn parse_stmt_inner(&mut self) -> Result<Stmt, ParseError> {
        match self.c.peek() {
            // Directive-introduced statements.
            Tok::Directive(payload) => {
                let line = self.c.line();
                self.c.next();
                let dir = parse_directive_with(payload, Language::C, line, &mut self.payload)?;
                self.parse_directive_stmt(dir)
            }
            Tok::Punct(Punct::LBrace) => {
                // Bare block: flatten into an If(true)? Keep structure simple:
                // the generator never emits bare blocks outside directives.
                self.c.next();
                let body = self.parse_stmts_until_close()?;
                // Represent as if(1) { body } to stay within the AST.
                Ok(Stmt::If {
                    cond: Expr::int(1),
                    then_body: body,
                    else_body: vec![],
                })
            }
            Tok::Ident(word) => match word {
                "int" | "float" | "double" => self.parse_decl(),
                "for" => self.parse_for().map(Stmt::For),
                "if" => self.parse_if(),
                "return" => {
                    self.c.next();
                    let e = parse_expr(&mut self.c, Language::C)?;
                    self.c.expect_punct(Punct::Semi)?;
                    Ok(Stmt::Return(e))
                }
                _ => self.parse_assign_or_call(),
            },
            other => Err(self.err(format!("expected statement, found {other:?}"))),
        }
    }

    fn parse_directive_stmt(&mut self, dir: AccDirective) -> Result<Stmt, ParseError> {
        match dir.kind {
            DirectiveKind::Parallel
            | DirectiveKind::Kernels
            | DirectiveKind::Data
            | DirectiveKind::HostData => {
                let body = self.parse_block_or_stmt()?;
                Ok(Stmt::AccBlock { dir, body })
            }
            DirectiveKind::Loop | DirectiveKind::ParallelLoop | DirectiveKind::KernelsLoop => {
                // The annotated loop may itself carry another directive
                // (nested loop pragmas) — but the grammar requires a `for`.
                if !self.c.peek().is_ident("for") {
                    return Err(self.err("loop directive must be followed by a for loop"));
                }
                let l = self.parse_for()?;
                Ok(Stmt::AccLoop { dir, l })
            }
            _ => Ok(Stmt::AccStandalone { dir }),
        }
    }

    fn parse_decl(&mut self) -> Result<Stmt, ParseError> {
        let ty = self.parse_scalar_keyword()?;
        let is_ptr = self.c.eat_punct(Punct::Star);
        let name = self.c.expect_any_ident()?;
        // Array declaration?
        if self.c.peek().is_punct(Punct::LBracket) {
            let mut dims = Vec::new();
            while self.c.eat_punct(Punct::LBracket) {
                match self.c.next() {
                    Tok::Int(v) if v > 0 => dims.push(v as usize),
                    other => {
                        return Err(self.err(format!(
                            "array dimension must be a positive integer literal, found {other:?}"
                        )))
                    }
                }
                self.c.expect_punct(Punct::RBracket)?;
            }
            self.c.expect_punct(Punct::Semi)?;
            return Ok(Stmt::DeclArray {
                name,
                elem: ty,
                dims,
            });
        }
        let declared = if is_ptr {
            Type::Ptr(ty)
        } else {
            Type::Scalar(ty)
        };
        let init = if self.c.eat_punct(Punct::Assign) {
            Some(parse_expr(&mut self.c, Language::C)?)
        } else {
            None
        };
        self.c.expect_punct(Punct::Semi)?;
        Ok(Stmt::DeclScalar {
            name,
            ty: declared,
            init,
        })
    }

    fn parse_for(&mut self) -> Result<ForLoop, ParseError> {
        self.c.expect_ident("for")?;
        self.c.expect_punct(Punct::LParen)?;
        let var = self.c.expect_any_ident()?;
        self.c.expect_punct(Punct::Assign)?;
        let from = parse_expr(&mut self.c, Language::C)?;
        self.c.expect_punct(Punct::Semi)?;
        if self.c.expect_ident_text()? != var {
            return Err(self.err(format!(
                "for-loop condition must test the induction variable {var:?}"
            )));
        }
        self.c.expect_punct(Punct::Lt)?;
        let to = parse_expr(&mut self.c, Language::C)?;
        self.c.expect_punct(Punct::Semi)?;
        if self.c.expect_ident_text()? != var {
            return Err(self.err("for-loop increment must update the induction variable"));
        }
        let step = if self.c.eat_punct(Punct::PlusPlus) {
            Expr::int(1)
        } else if self.c.eat_punct(Punct::PlusEq) {
            parse_expr(&mut self.c, Language::C)?
        } else {
            return Err(self.err("for-loop increment must be ++ or +="));
        };
        self.c.expect_punct(Punct::RParen)?;
        let body = self.parse_block_or_stmt()?;
        Ok(ForLoop {
            var,
            from,
            to,
            step,
            body,
        })
    }

    fn parse_if(&mut self) -> Result<Stmt, ParseError> {
        self.c.expect_ident("if")?;
        self.c.expect_punct(Punct::LParen)?;
        let cond = parse_expr(&mut self.c, Language::C)?;
        self.c.expect_punct(Punct::RParen)?;
        let then_body = self.parse_block_or_stmt()?;
        let else_body = if self.c.eat_ident("else") {
            self.parse_block_or_stmt()?
        } else {
            vec![]
        };
        Ok(Stmt::If {
            cond,
            then_body,
            else_body,
        })
    }

    fn parse_assign_or_call(&mut self) -> Result<Stmt, ParseError> {
        let name = self.c.expect_any_ident()?;
        // Call statement.
        if self.c.eat_punct(Punct::LParen) {
            let args = parse_args(&mut self.c, Language::C)?;
            self.c.expect_punct(Punct::Semi)?;
            return Ok(Stmt::Call { name, args });
        }
        // LValue: optional indices.
        let target = if self.c.peek().is_punct(Punct::LBracket) {
            let mut indices = Vec::new();
            while self.c.eat_punct(Punct::LBracket) {
                indices.push(parse_expr(&mut self.c, Language::C)?);
                self.c.expect_punct(Punct::RBracket)?;
            }
            LValue::Index {
                base: name,
                indices,
            }
        } else {
            LValue::Var(name)
        };
        // `x++;` sugar for `x += 1;`.
        if self.c.eat_punct(Punct::PlusPlus) {
            self.c.expect_punct(Punct::Semi)?;
            return Ok(Stmt::Assign {
                target,
                op: Some(BinOp::Add),
                value: Expr::int(1),
            });
        }
        let op = match self.c.next() {
            Tok::Punct(Punct::Assign) => None,
            Tok::Punct(Punct::PlusEq) => Some(BinOp::Add),
            Tok::Punct(Punct::MinusEq) => Some(BinOp::Sub),
            Tok::Punct(Punct::StarEq) => Some(BinOp::Mul),
            Tok::Punct(Punct::SlashEq) => Some(BinOp::Div),
            Tok::Punct(Punct::PercentEq) => Some(BinOp::Rem),
            Tok::Punct(Punct::AmpEq) => Some(BinOp::BitAnd),
            Tok::Punct(Punct::PipeEq) => Some(BinOp::BitOr),
            Tok::Punct(Punct::CaretEq) => Some(BinOp::BitXor),
            other => return Err(self.err(format!("expected assignment operator, found {other:?}"))),
        };
        let value = parse_expr(&mut self.c, Language::C)?;
        self.c.expect_punct(Punct::Semi)?;
        Ok(Stmt::Assign { target, op, value })
    }
}

fn scalar_of(name: &str) -> Option<ScalarType> {
    match name {
        "int" => Some(ScalarType::Int),
        "float" => Some(ScalarType::Float),
        "double" => Some(ScalarType::Double),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acc_ast::cgen::emit_c;

    fn round_trip(src: &str) -> String {
        let p = parse_c(src).unwrap();
        emit_c(&p)
    }

    #[test]
    fn parse_minimal_main() {
        let p = parse_c("int main(void) {\n    return 1;\n}\n").unwrap();
        assert_eq!(p.functions.len(), 1);
        assert_eq!(p.entry().unwrap().body, vec![Stmt::Return(Expr::int(1))]);
    }

    #[test]
    fn fig2_source_round_trips_exactly() {
        let prog = acc_ast::Program::simple(
            "fig2",
            Language::C,
            vec![
                acc_ast::builder::decl_int("error", 0),
                acc_ast::builder::decl_array("A", ScalarType::Int, 100),
                acc_ast::builder::parallel_region(
                    vec![
                        acc_ast::AccClause::NumGangs(Expr::int(10)),
                        acc_ast::builder::copy_sec("A", Expr::int(100)),
                    ],
                    vec![acc_ast::builder::acc_loop(
                        vec![],
                        "i",
                        Expr::int(100),
                        vec![acc_ast::builder::add1("A", Expr::var("i"), Expr::int(1))],
                    )],
                ),
                acc_ast::builder::return_error_check(),
            ],
        );
        let src = emit_c(&prog);
        let reparsed = parse_c(&src).unwrap();
        assert_eq!(
            emit_c(&reparsed),
            src,
            "emit∘parse must be identity on emitted text"
        );
        assert_eq!(reparsed.directives().len(), 2);
    }

    #[test]
    fn prototypes_are_skipped_definitions_kept() {
        let src = "void helper(float* a, int n);\n\nvoid helper(float* a, int n) {\n}\n\nint main(void) {\n    helper(b, 4);\n    return 1;\n}\n";
        let p = parse_c(src).unwrap();
        assert_eq!(p.functions.len(), 2);
        assert_eq!(p.functions[0].name, "helper");
        assert_eq!(
            p.functions[0].params[0].kind,
            ParamKind::ArrayPtr(ScalarType::Float)
        );
        assert_eq!(
            p.functions[0].params[1].kind,
            ParamKind::Scalar(ScalarType::Int)
        );
    }

    #[test]
    fn declarations_forms() {
        let src = "int main(void) {\n    int x;\n    int y = 3;\n    float* p = 0;\n    double m[10][20];\n    return 1;\n}\n";
        let p = parse_c(src).unwrap();
        let b = &p.entry().unwrap().body;
        assert_eq!(
            b[0],
            Stmt::DeclScalar {
                name: "x".into(),
                ty: Type::INT,
                init: None
            }
        );
        assert_eq!(
            b[1],
            Stmt::DeclScalar {
                name: "y".into(),
                ty: Type::INT,
                init: Some(Expr::int(3))
            }
        );
        assert_eq!(
            b[2],
            Stmt::DeclScalar {
                name: "p".into(),
                ty: Type::Ptr(ScalarType::Float),
                init: Some(Expr::int(0))
            }
        );
        assert_eq!(
            b[3],
            Stmt::DeclArray {
                name: "m".into(),
                elem: ScalarType::Double,
                dims: vec![10, 20]
            }
        );
    }

    #[test]
    fn for_loop_with_stride() {
        let src = "int main(void) {\n    for (i = 2; i < n; i += 2)\n    {\n        s += i;\n    }\n    return 1;\n}\n";
        let p = parse_c(src).unwrap();
        match &p.entry().unwrap().body[0] {
            Stmt::For(l) => {
                assert_eq!(l.from, Expr::int(2));
                assert_eq!(l.step, Expr::int(2));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn increment_statement_sugar() {
        let src = "int main(void) {\n    gang_num++;\n    return 1;\n}\n";
        let p = parse_c(src).unwrap();
        assert_eq!(
            p.entry().unwrap().body[0],
            Stmt::assign_op(LValue::var("gang_num"), BinOp::Add, Expr::int(1))
        );
    }

    #[test]
    fn standalone_directives() {
        let src = "int main(void) {\n    #pragma acc update host(a[0:10])\n    #pragma acc wait(3)\n    return 1;\n}\n";
        let p = parse_c(src).unwrap();
        let b = &p.entry().unwrap().body;
        assert!(matches!(&b[0], Stmt::AccStandalone { dir } if dir.kind == DirectiveKind::Update));
        assert!(matches!(&b[1], Stmt::AccStandalone { dir } if dir.kind == DirectiveKind::Wait));
    }

    #[test]
    fn combined_parallel_loop_attaches_to_for() {
        let src = "int main(void) {\n    #pragma acc parallel loop if(sum < N)\n    for (j = 0; j < N; j++)\n    {\n        C[j] += A[j] + B[j];\n    }\n    return 1;\n}\n";
        let p = parse_c(src).unwrap();
        match &p.entry().unwrap().body[0] {
            Stmt::AccLoop { dir, l } => {
                assert_eq!(dir.kind, DirectiveKind::ParallelLoop);
                assert_eq!(l.var, "j");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn loop_directive_requires_for() {
        let src = "int main(void) {\n    #pragma acc loop\n    x = 1;\n    return 1;\n}\n";
        assert!(parse_c(src).is_err());
    }

    #[test]
    fn nested_regions_round_trip() {
        let src = round_trip(
            "int main(void) {\n    #pragma acc data copy(a[0:10])\n    {\n        #pragma acc parallel\n        {\n            #pragma acc loop gang\n            for (i = 0; i < 10; i++)\n            {\n                a[i] = i;\n            }\n        }\n    }\n    return error == 0;\n}\n",
        );
        assert!(src.contains("#pragma acc data copy(a[0:10])"));
        assert!(src.contains("#pragma acc loop gang"));
    }

    #[test]
    fn call_statement_with_constants() {
        let src = "int main(void) {\n    acc_init(acc_device_default);\n    acc_set_device_type(acc_device_not_host);\n    return 1;\n}\n";
        let p = parse_c(src).unwrap();
        match &p.entry().unwrap().body[0] {
            Stmt::Call { name, args } => {
                assert_eq!(name, "acc_init");
                assert_eq!(args[0], Expr::var("acc_device_default"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn deeply_nested_pragma_operand_is_a_parse_error() {
        // A malformed template with a pathologically nested `#pragma acc`
        // operand used to drive the recursive-descent expression parser off
        // the stack; it must now fail with a ParseError the harness can
        // classify as a compile error.
        let deep = format!("{}8{}", "(".repeat(50_000), ")".repeat(50_000));
        let src = format!(
            "int main(void) {{\n    #pragma acc parallel num_gangs({deep})\n    {{\n    }}\n    return 1;\n}}\n"
        );
        let err = parse_c(&src).unwrap_err();
        assert!(err.to_string().contains("parser limit"), "{err}");
    }

    #[test]
    fn deeply_nested_blocks_are_a_parse_error() {
        let src = format!(
            "int main(void) {{\n{}{}    return 1;\n}}\n",
            "{\n".repeat(50_000),
            "}\n".repeat(50_000)
        );
        let err = parse_c(&src).unwrap_err();
        assert!(err.to_string().contains("parser limit"), "{err}");
    }

    #[test]
    fn program_name_recovered_from_comment() {
        let p =
            parse_c("/* test program: my_test */\nint main(void) {\n    return 1;\n}\n").unwrap();
        assert_eq!(p.name, "my_test");
    }
}
