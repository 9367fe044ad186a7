//! C code generation: renders a [`Program`] as a standalone C translation
//! unit with `#pragma acc` directive lines, in the style of the paper's
//! generated tests.
//!
//! The emitted subset is exactly what `acc-frontend`'s C parser accepts;
//! emit→parse→emit is a fixpoint (property-tested in `acc-frontend`).

use crate::acc::{AccClause, AccDirective, DataRef};
use crate::expr::{Expr, UnOp};
use crate::program::{Function, ParamKind, Program};
use crate::stmt::{ForLoop, LValue, Stmt};
use crate::types::{ScalarType, Type};
use acc_spec::Language;
use std::fmt::Write;

/// Render a whole program as C source.
pub fn emit_c(p: &Program) -> String {
    let mut out = String::with_capacity(p.rendered_size_hint());
    out.push_str("/* test program: ");
    out.push_str(&p.name);
    out.push_str(" */\n");
    out.push_str("#include <openacc.h>\n#include <math.h>\n#include <stdlib.h>\n\n");
    // Emit prototypes for helpers so call-before-def parses cleanly.
    for f in &p.functions {
        if f.name != "main" {
            write_signature(&mut out, f);
            out.push_str(";\n");
        }
    }
    if p.functions.iter().any(|f| f.name != "main") {
        out.push('\n');
    }
    let mut first = true;
    for f in &p.functions {
        if !first {
            out.push('\n');
        }
        first = false;
        emit_function(&mut out, f);
    }
    out
}

fn write_signature(out: &mut String, f: &Function) {
    out.push_str(f.ret.map(|t| t.c_name()).unwrap_or("void"));
    out.push(' ');
    out.push_str(&f.name);
    out.push('(');
    if f.params.is_empty() {
        out.push_str("void");
    }
    for (i, p) in f.params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match p.kind {
            ParamKind::Scalar(t) => write_decl(out, t, false, &p.name),
            ParamKind::ArrayPtr(t) => write_decl(out, t, true, &p.name),
        }
    }
    out.push(')');
}

/// `T name` or `T* name`.
fn write_decl(out: &mut String, t: ScalarType, ptr: bool, name: &str) {
    out.push_str(t.c_name());
    out.push_str(if ptr { "* " } else { " " });
    out.push_str(name);
}

fn emit_function(out: &mut String, f: &Function) {
    write_signature(out, f);
    out.push_str(" {\n");
    for s in &f.body {
        emit_stmt(out, s, 1);
    }
    out.push_str("}\n");
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

fn emit_block(out: &mut String, body: &[Stmt], level: usize) {
    indent(out, level);
    out.push_str("{\n");
    for s in body {
        emit_stmt(out, s, level + 1);
    }
    indent(out, level);
    out.push_str("}\n");
}

fn emit_stmt(out: &mut String, s: &Stmt, level: usize) {
    indent(out, level);
    match s {
        Stmt::DeclScalar { name, ty, init } => {
            match ty {
                Type::Scalar(t) => write_decl(out, *t, false, name),
                Type::Ptr(t) => write_decl(out, *t, true, name),
            }
            if let Some(e) = init {
                out.push_str(" = ");
                write_expr(out, e, 0);
            }
            out.push_str(";\n");
        }
        Stmt::DeclArray { name, elem, dims } => {
            write_decl(out, *elem, false, name);
            for &d in dims {
                out.push('[');
                push_uint(out, d as u64);
                out.push(']');
            }
            out.push_str(";\n");
        }
        Stmt::Assign { target, op, value } => {
            write_lvalue(out, target);
            out.push(' ');
            if let Some(op) = op {
                out.push_str(op.c_symbol());
            }
            out.push_str("= ");
            write_expr(out, value, 0);
            out.push_str(";\n");
        }
        Stmt::For(l) => emit_for(out, l, level),
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            out.push_str("if (");
            write_expr(out, cond, 0);
            out.push_str(")\n");
            emit_block(out, then_body, level);
            if !else_body.is_empty() {
                indent(out, level);
                out.push_str("else\n");
                emit_block(out, else_body, level);
            }
        }
        Stmt::Call { name, args } => {
            write_call(out, name, args);
            out.push_str(";\n");
        }
        Stmt::Return(e) => {
            out.push_str("return ");
            write_expr(out, e, 0);
            out.push_str(";\n");
        }
        Stmt::AccBlock { dir, body } => {
            write_pragma(out, dir);
            emit_block(out, body, level);
        }
        Stmt::AccLoop { dir, l } => {
            write_pragma(out, dir);
            indent(out, level);
            emit_for(out, l, level);
        }
        Stmt::AccStandalone { dir } => write_pragma(out, dir),
    }
}

/// `#pragma acc <directive>` and its newline.
fn write_pragma(out: &mut String, dir: &AccDirective) {
    out.push_str("#pragma acc ");
    dir.write_to(out, Language::C);
    out.push('\n');
}

/// The `for` header and body; the caller has written the indent.
fn emit_for(out: &mut String, l: &ForLoop, level: usize) {
    let v = &l.var;
    out.push_str("for (");
    out.push_str(v);
    out.push_str(" = ");
    write_expr(out, &l.from, 0);
    out.push_str("; ");
    out.push_str(v);
    out.push_str(" < ");
    write_expr(out, &l.to, 0);
    out.push_str("; ");
    out.push_str(v);
    match &l.step {
        Expr::Int(1) => out.push_str("++"),
        e => {
            out.push_str(" += ");
            write_expr(out, e, 0);
        }
    }
    out.push_str(")\n");
    emit_block(out, &l.body, level);
}

fn write_lvalue(out: &mut String, lv: &LValue) {
    match lv {
        LValue::Var(n) => out.push_str(n),
        LValue::Index { base, indices } => write_index(out, base, indices),
    }
}

/// `base[i][j]…`
fn write_index(out: &mut String, base: &str, indices: &[Expr]) {
    out.push_str(base);
    for e in indices {
        out.push('[');
        write_expr(out, e, 0);
        out.push(']');
    }
}

/// `name(a, b, …)`
fn write_call(out: &mut String, name: &str, args: &[Expr]) {
    out.push_str(name);
    out.push('(');
    for (i, a) in args.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_expr(out, a, 0);
    }
    out.push(')');
}

/// Render an expression in C syntax with minimal parentheses.
pub fn expr_to_c(e: &Expr) -> String {
    let mut out = String::new();
    write_expr(&mut out, e, 0);
    out
}

/// Write `e` in C syntax, parenthesized when it binds looser than
/// `parent_prec`.
pub(crate) fn write_expr(out: &mut String, e: &Expr, parent_prec: u8) {
    match e {
        Expr::Int(v) => write_int(out, *v),
        Expr::Real(v, ty) => write_real(out, *v, *ty),
        Expr::Var(n) => out.push_str(n),
        Expr::Index { base, indices } => write_index(out, base, indices),
        Expr::Unary(op, inner) => {
            out.push(match op {
                UnOp::Neg => '-',
                UnOp::Not => '!',
            });
            write_expr(out, inner, 11);
        }
        Expr::Binary(op, l, r) => {
            let prec = op.precedence();
            let paren = prec < parent_prec;
            if paren {
                out.push('(');
            }
            // Left-associative: the right operand needs prec+1.
            write_expr(out, l, prec);
            out.push(' ');
            out.push_str(op.c_symbol());
            out.push(' ');
            write_expr(out, r, prec + 1);
            if paren {
                out.push(')');
            }
        }
        Expr::Call { name, args } => write_call(out, name, args),
        Expr::SizeOf(t) => {
            out.push_str("sizeof(");
            out.push_str(t.c_name());
            out.push(')');
        }
    }
}

/// An integer literal; a negative one is parenthesized, in either language.
pub(crate) fn write_int(out: &mut String, v: i64) {
    if v < 0 {
        out.push_str("(-");
        push_uint(out, v.unsigned_abs());
        out.push(')');
    } else {
        push_uint(out, v.unsigned_abs());
    }
}

/// Append `n` in decimal, without the `fmt` machinery.
pub(crate) fn push_uint(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[i..].iter().map(|&d| char::from(d)));
}

fn write_real(out: &mut String, v: f64, ty: ScalarType) {
    // `{:?}` gives the shortest representation that round-trips the value.
    let start = out.len();
    let _ = write!(out, "{v:?}");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
    if ty == ScalarType::Float {
        out.push('f');
    }
}

/// Render a single clause in C clause syntax.
pub fn clause_to_c(c: &AccClause) -> String {
    let mut out = String::new();
    c.write_to(&mut out, Language::C);
    out
}

/// Render a data reference in C section syntax.
pub fn dataref_to_c(r: &DataRef) -> String {
    let mut out = String::new();
    r.write_to(&mut out, Language::C);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acc::AccDirective;
    use crate::expr::BinOp;
    use crate::program::Param;
    use acc_spec::{ClauseKind, DirectiveKind, Language, ReductionOp};

    #[test]
    fn minimal_parens() {
        // a + b * c needs no parens; (a + b) * c does.
        let e1 = Expr::add(Expr::var("a"), Expr::mul(Expr::var("b"), Expr::var("c")));
        assert_eq!(expr_to_c(&e1), "a + b * c");
        let e2 = Expr::mul(Expr::add(Expr::var("a"), Expr::var("b")), Expr::var("c"));
        assert_eq!(expr_to_c(&e2), "(a + b) * c");
    }

    #[test]
    fn left_associativity_parens() {
        // a - (b - c) must keep parens; (a - b) - c must not.
        let rhs_nested = Expr::sub(Expr::var("a"), Expr::sub(Expr::var("b"), Expr::var("c")));
        assert_eq!(expr_to_c(&rhs_nested), "a - (b - c)");
        let lhs_nested = Expr::sub(Expr::sub(Expr::var("a"), Expr::var("b")), Expr::var("c"));
        assert_eq!(expr_to_c(&lhs_nested), "a - b - c");
    }

    #[test]
    fn float_literals_get_suffix() {
        let real_to_c = |v, ty| expr_to_c(&Expr::Real(v, ty));
        assert_eq!(real_to_c(0.5, ScalarType::Float), "0.5f");
        assert_eq!(real_to_c(0.5, ScalarType::Double), "0.5");
        assert_eq!(real_to_c(1e-9, ScalarType::Double), "1e-9");
        assert_eq!(real_to_c(2.0, ScalarType::Double), "2.0");
    }

    #[test]
    fn negative_int_parenthesized() {
        assert_eq!(expr_to_c(&Expr::Int(-1)), "(-1)");
    }

    #[test]
    fn emits_paper_fig2_functional_test_shape() {
        let prog = Program::simple(
            "loop_test",
            Language::C,
            vec![
                Stmt::decl_int("i", Expr::int(0)),
                Stmt::AccBlock {
                    dir: AccDirective::new(DirectiveKind::Parallel)
                        .with(AccClause::NumGangs(Expr::int(10))),
                    body: vec![Stmt::AccLoop {
                        dir: AccDirective::new(DirectiveKind::Loop),
                        l: ForLoop::upto(
                            "i",
                            Expr::var("n"),
                            vec![Stmt::assign(
                                LValue::idx("A", Expr::var("i")),
                                Expr::add(Expr::idx("A", Expr::var("i")), Expr::int(1)),
                            )],
                        ),
                    }],
                },
                Stmt::Return(Expr::int(1)),
            ],
        );
        let src = emit_c(&prog);
        assert!(src.contains("#pragma acc parallel num_gangs(10)"));
        assert!(src.contains("#pragma acc loop"));
        assert!(src.contains("for (i = 0; i < n; i++)"));
        assert!(src.contains("A[i] = A[i] + 1;"));
        assert!(src.contains("int main(void) {"));
    }

    #[test]
    fn clause_rendering() {
        assert_eq!(
            clause_to_c(&AccClause::Reduction(ReductionOp::Add, vec!["s".into()])),
            "reduction(+:s)"
        );
        assert_eq!(
            clause_to_c(&AccClause::Data(
                ClauseKind::Copyin,
                vec![DataRef::section("A", Expr::int(0), Expr::var("N"))]
            )),
            "copyin(A[0:N])"
        );
        assert_eq!(clause_to_c(&AccClause::Async(None)), "async");
        assert_eq!(clause_to_c(&AccClause::DefaultNone), "default(none)");
    }

    #[test]
    fn helper_prototypes_emitted() {
        let mut p = Program::simple("t", Language::C, vec![Stmt::Return(Expr::int(1))]);
        p.functions.insert(
            0,
            Function {
                name: "vecadd".into(),
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
                body: vec![],
            },
        );
        let src = emit_c(&p);
        assert!(src.contains("void vecadd(float* a, int n);"));
    }

    #[test]
    fn sizeof_and_malloc_pattern() {
        let e = Expr::call(
            "acc_malloc",
            vec![Expr::mul(Expr::var("n"), Expr::SizeOf(ScalarType::Float))],
        );
        assert_eq!(expr_to_c(&e), "acc_malloc(n * sizeof(float))");
    }

    #[test]
    fn compound_assignment() {
        let mut out = String::new();
        emit_stmt(
            &mut out,
            &Stmt::assign_op(LValue::var("sum"), BinOp::Add, Expr::var("m")),
            0,
        );
        assert_eq!(out, "sum += m;\n");
    }

    #[test]
    fn if_else_rendering() {
        let mut out = String::new();
        emit_stmt(
            &mut out,
            &Stmt::If {
                cond: Expr::ne(Expr::var("x"), Expr::int(0)),
                then_body: vec![Stmt::assign(LValue::var("e"), Expr::int(1))],
                else_body: vec![Stmt::assign(LValue::var("e"), Expr::int(2))],
            },
            0,
        );
        assert!(out.contains("if (x != 0)"));
        assert!(out.contains("else"));
    }
}
