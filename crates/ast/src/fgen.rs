//! Fortran code generation: renders a [`Program`] as standalone Fortran
//! source with `!$acc` directive sentinels.
//!
//! ## The dialect
//!
//! The generated Fortran is a *dialect with C semantics*: values are
//! integers/reals, comparisons yield 1/0, and arrays are declared with
//! explicit 0-based bounds (`a(0:n-1)`) so both language variants of a test
//! index identically. This keeps the two front-ends semantically aligned
//! while exercising genuinely different surface syntax (`do` loops with
//! inclusive bounds, `!$acc end parallel` block terminators, `.and.`
//! operator spellings, `iand`/`mod` intrinsic calls, `d`-exponent double
//! literals, Fortran array sections `a(lo:hi)`). The paper's Fortran tests
//! differ from the C ones in exactly these surface dimensions.
//!
//! Because Fortran requires declarations before executable statements, the
//! generator hoists every declaration (including loop induction variables)
//! to the top of the enclosing function and replaces initialized
//! declarations with assignments in place.

use crate::cgen::{push_uint, write_int};
use crate::expr::{BinOp, Expr, UnOp};
use crate::program::{Function, ParamKind, Program};
use crate::stmt::{ForLoop, LValue, Stmt};
use crate::types::{ScalarType, Type};
use acc_spec::Language;
use std::collections::BTreeMap;
use std::fmt::Write;

/// Render a whole program as Fortran source.
pub fn emit_fortran(p: &Program) -> String {
    let mut out = String::with_capacity(p.rendered_size_hint());
    out.push_str("! test program: ");
    out.push_str(&p.name);
    out.push('\n');
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

/// A hoisted declaration.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Decl<'a> {
    Scalar(Type),
    Array(ScalarType, &'a [usize]),
}

fn collect_decls<'a>(body: &'a [Stmt], decls: &mut BTreeMap<&'a str, Decl<'a>>) {
    for s in body {
        match s {
            Stmt::DeclScalar { name, ty, .. } => {
                decls.entry(name).or_insert(Decl::Scalar(*ty));
            }
            Stmt::DeclArray { name, elem, dims } => {
                decls.entry(name).or_insert(Decl::Array(*elem, dims));
            }
            Stmt::For(l) | Stmt::AccLoop { l, .. } => {
                decls.entry(&l.var).or_insert(Decl::Scalar(Type::INT));
                collect_decls(&l.body, decls);
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                collect_decls(then_body, decls);
                collect_decls(else_body, decls);
            }
            Stmt::AccBlock { body, .. } => collect_decls(body, decls),
            _ => {}
        }
    }
}

fn emit_function(out: &mut String, f: &Function) {
    match f.ret {
        Some(t) => {
            out.push_str(t.fortran_name());
            out.push_str(" function ");
        }
        None => out.push_str("subroutine "),
    }
    out.push_str(&f.name);
    out.push('(');
    for (i, p) in f.params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&p.name);
    }
    out.push_str(")\n    implicit none\n");
    // Parameter declarations.
    for p in &f.params {
        match p.kind {
            ParamKind::Scalar(t) => write_decl(out, t.fortran_name(), &p.name, ""),
            ParamKind::ArrayPtr(t) => write_decl(out, t.fortran_name(), &p.name, "(0:*)"),
        }
    }
    // Hoisted local declarations.
    let mut decls = BTreeMap::new();
    collect_decls(&f.body, &mut decls);
    for p in &f.params {
        decls.remove(p.name.as_str());
    }
    for (name, d) in &decls {
        match d {
            Decl::Scalar(Type::Scalar(t)) => write_decl(out, t.fortran_name(), name, ""),
            // Device pointers surface as 8-byte integers in the dialect.
            Decl::Scalar(Type::Ptr(_)) => write_decl(out, "integer(8)", name, ""),
            Decl::Array(t, dims) => {
                out.push_str("    ");
                out.push_str(t.fortran_name());
                out.push_str(" :: ");
                out.push_str(name);
                out.push('(');
                for (i, &d) in dims.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str("0:");
                    push_uint(out, d as u64 - 1);
                }
                out.push_str(")\n");
            }
        }
    }
    for s in &f.body {
        emit_stmt(out, s, 1, f);
    }
    out.push_str(if f.ret.is_some() {
        "end function "
    } else {
        "end subroutine "
    });
    out.push_str(&f.name);
    out.push('\n');
}

/// `    <type> :: <name><suffix>` and its newline.
fn write_decl(out: &mut String, ty: &str, name: &str, suffix: &str) {
    out.push_str("    ");
    out.push_str(ty);
    out.push_str(" :: ");
    out.push_str(name);
    out.push_str(suffix);
    out.push('\n');
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

fn emit_body(out: &mut String, body: &[Stmt], level: usize, f: &Function) {
    for s in body {
        emit_stmt(out, s, level, f);
    }
}

fn emit_stmt(out: &mut String, s: &Stmt, level: usize, f: &Function) {
    match s {
        Stmt::DeclScalar { name, init, .. } => {
            // Declaration hoisted; emit only the initialization.
            if let Some(e) = init {
                indent(out, level);
                out.push_str(name);
                out.push_str(" = ");
                write_expr(out, e, 0);
                out.push('\n');
            }
        }
        Stmt::DeclArray { .. } => { /* hoisted, nothing to execute */ }
        Stmt::Assign { target, op, value } => {
            indent(out, level);
            write_lvalue(out, target);
            out.push_str(" = ");
            match op {
                // Fortran has no compound assignment; expand `t op= v` to
                // `t = t op v`.
                Some(op) => write_binary(out, *op, Operand::Target(target), value, 0),
                None => write_expr(out, value, 0),
            }
            out.push('\n');
        }
        Stmt::For(l) => emit_do(out, l, level, f),
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            indent(out, level);
            out.push_str("if (");
            write_expr(out, cond, 0);
            out.push_str(") then\n");
            emit_body(out, then_body, level + 1, f);
            if !else_body.is_empty() {
                indent(out, level);
                out.push_str("else\n");
                emit_body(out, else_body, level + 1, f);
            }
            indent(out, level);
            out.push_str("end if\n");
        }
        Stmt::Call { name, args } => {
            indent(out, level);
            out.push_str("call ");
            write_call(out, name, args);
            out.push('\n');
        }
        Stmt::Return(e) => {
            indent(out, level);
            if f.ret.is_some() {
                out.push_str(&f.name);
                out.push_str(" = ");
                write_expr(out, e, 0);
                out.push('\n');
                indent(out, level);
            }
            out.push_str("return\n");
        }
        Stmt::AccBlock { dir, body } => {
            indent(out, level);
            out.push_str("!$acc ");
            dir.write_to(out, Language::Fortran);
            out.push('\n');
            emit_body(out, body, level + 1, f);
            indent(out, level);
            out.push_str("!$acc end ");
            out.push_str(dir.kind.name());
            out.push('\n');
        }
        Stmt::AccLoop { dir, l } => {
            indent(out, level);
            out.push_str("!$acc ");
            dir.write_to(out, Language::Fortran);
            out.push('\n');
            emit_do(out, l, level, f);
        }
        Stmt::AccStandalone { dir } => {
            indent(out, level);
            out.push_str("!$acc ");
            dir.write_to(out, Language::Fortran);
            out.push('\n');
        }
    }
}

fn emit_do(out: &mut String, l: &ForLoop, level: usize, f: &Function) {
    indent(out, level);
    // `for (i = a; i < b; ...)` becomes the inclusive `do i = a, b-1`.
    out.push_str("do ");
    out.push_str(&l.var);
    out.push_str(" = ");
    write_expr(out, &l.from, 0);
    out.push_str(", ");
    write_sub_one(out, &l.to);
    if !matches!(l.step, Expr::Int(1)) {
        out.push_str(", ");
        write_expr(out, &l.step, 0);
    }
    out.push('\n');
    emit_body(out, &l.body, level + 1, f);
    indent(out, level);
    out.push_str("end do\n");
}

/// Write `e - 1`, peephole-simplified so that parse→emit is a fixpoint:
/// a constant folds, and `x + 1` writes back as `x`.
pub(crate) fn write_sub_one(out: &mut String, e: &Expr) {
    if let Some(v) = e.const_int() {
        return write_expr(out, &Expr::Int(v - 1), 0);
    }
    match e {
        Expr::Binary(BinOp::Add, l, r) if matches!(**r, Expr::Int(1)) => write_expr(out, l, 0),
        _ => write_binary(out, BinOp::Sub, Operand::Expr(e), &Expr::Int(1), 0),
    }
}

/// Symbolic `e + 1` with the mirror simplification (`(x - 1) + 1 == x`).
pub fn add_one(e: &Expr) -> Expr {
    if let Some(v) = e.const_int() {
        return Expr::Int(v + 1);
    }
    match e {
        Expr::Binary(BinOp::Sub, l, r) => {
            if let Expr::Int(1) = **r {
                return (**l).clone();
            }
            Expr::add(e.clone(), Expr::int(1))
        }
        _ => Expr::add(e.clone(), Expr::int(1)),
    }
}

fn write_lvalue(out: &mut String, lv: &LValue) {
    match lv {
        LValue::Var(n) => out.push_str(n),
        LValue::Index { base, indices } => write_call(out, base, indices),
    }
}

/// `name(a, b, …)`: a call, or an array element.
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

/// Render an expression in the Fortran dialect.
pub fn expr_to_f(e: &Expr) -> String {
    let mut out = String::new();
    write_expr(&mut out, e, 0);
    out
}

fn f_symbol(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
        BinOp::Eq => "==",
        BinOp::Ne => "/=",
        BinOp::And => ".and.",
        BinOp::Or => ".or.",
        // Rem and the bit ops render as intrinsic calls, handled separately.
        BinOp::Rem | BinOp::BitAnd | BinOp::BitOr | BinOp::BitXor => unreachable!(),
    }
}

fn intrinsic_name(op: BinOp) -> Option<&'static str> {
    match op {
        BinOp::Rem => Some("mod"),
        BinOp::BitAnd => Some("iand"),
        BinOp::BitOr => Some("ior"),
        BinOp::BitXor => Some("ieor"),
        _ => None,
    }
}

/// The left operand of a binary expression: an expression, or an
/// assignment target read as one (`t op= v` expands to `t = t op v`).
#[derive(Clone, Copy)]
enum Operand<'a> {
    Expr(&'a Expr),
    Target(&'a LValue),
}

impl Operand<'_> {
    fn write(self, out: &mut String, parent_prec: u8) {
        match self {
            Operand::Expr(e) => write_expr(out, e, parent_prec),
            // A variable or an element never needs parentheses.
            Operand::Target(t) => write_lvalue(out, t),
        }
    }
}

fn write_binary(out: &mut String, op: BinOp, l: Operand<'_>, r: &Expr, parent_prec: u8) {
    if let Some(name) = intrinsic_name(op) {
        out.push_str(name);
        out.push('(');
        l.write(out, 0);
        out.push_str(", ");
        write_expr(out, r, 0);
        out.push(')');
        return;
    }
    let prec = op.precedence();
    let paren = prec < parent_prec;
    if paren {
        out.push('(');
    }
    l.write(out, prec);
    out.push(' ');
    out.push_str(f_symbol(op));
    out.push(' ');
    write_expr(out, r, prec + 1);
    if paren {
        out.push(')');
    }
}

/// Write `e` in the Fortran dialect, parenthesized when it binds looser
/// than `parent_prec`.
pub(crate) fn write_expr(out: &mut String, e: &Expr, parent_prec: u8) {
    match e {
        Expr::Int(v) => write_int(out, *v),
        Expr::Real(v, ty) => write_real(out, *v, *ty),
        Expr::Var(n) => out.push_str(n),
        Expr::Index { base, indices } => write_call(out, base, indices),
        Expr::Unary(op, inner) => {
            out.push_str(match op {
                UnOp::Neg => "-",
                UnOp::Not => ".not. ",
            });
            write_expr(out, inner, 11);
        }
        Expr::Binary(op, l, r) => write_binary(out, *op, Operand::Expr(l), r, parent_prec),
        Expr::Call { name, args } => write_call(out, name, args),
        // sizeof folds to its byte count in the Fortran rendering.
        Expr::SizeOf(t) => push_uint(out, t.size_bytes() as u64),
    }
}

fn write_real(out: &mut String, v: f64, ty: ScalarType) {
    let start = out.len();
    let _ = write!(out, "{v:?}");
    if ty == ScalarType::Double {
        // A `d` exponent marks double precision: `1e-9` is `1d-9`, and a
        // literal without an exponent gets `d0`.
        match out[start..].find(['e', 'E']) {
            Some(pos) => out.replace_range(start + pos..start + pos + 1, "d"),
            None => out.push_str("d0"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acc::{AccClause, AccDirective, DataRef};
    use crate::program::Program;
    use acc_spec::{ClauseKind, DirectiveKind, ReductionOp};

    fn sub_one(e: &Expr) -> String {
        let mut out = String::new();
        write_sub_one(&mut out, e);
        out
    }

    fn real_to_f(v: f64, ty: ScalarType) -> String {
        expr_to_f(&Expr::Real(v, ty))
    }

    fn dataref_to_f(r: &DataRef) -> String {
        let mut out = String::new();
        r.write_to(&mut out, Language::Fortran);
        out
    }

    fn clause_to_f(c: &AccClause) -> String {
        let mut out = String::new();
        c.write_to(&mut out, Language::Fortran);
        out
    }

    fn directive_to_f(d: &AccDirective) -> String {
        let mut out = String::new();
        d.write_to(&mut out, Language::Fortran);
        out
    }

    #[test]
    fn do_loop_inclusive_bounds() {
        let p = Program::simple(
            "t",
            Language::Fortran,
            vec![Stmt::For(ForLoop::upto(
                "i",
                Expr::var("n"),
                vec![Stmt::assign(LValue::idx("a", Expr::var("i")), Expr::int(0))],
            ))],
        );
        let src = emit_fortran(&p);
        assert!(src.contains("do i = 0, n - 1"), "{src}");
        assert!(src.contains("end do"));
        assert!(src.contains("integer :: i"), "induction var hoisted: {src}");
    }

    #[test]
    fn constant_bound_collapses() {
        assert_eq!(sub_one(&Expr::int(10)), "9");
        assert_eq!(sub_one(&Expr::int(0)), "(-1)");
        // (x + 1) - 1 == x
        assert_eq!(sub_one(&Expr::add(Expr::var("x"), Expr::int(1))), "x");
        assert_eq!(sub_one(&Expr::var("n")), "n - 1");
        assert_eq!(
            sub_one(&Expr::sub(Expr::var("n"), Expr::var("m"))),
            "n - m - 1"
        );
        assert_eq!(
            sub_one(&Expr::bin(BinOp::BitAnd, Expr::var("n"), Expr::int(3))),
            "iand(n, 3) - 1"
        );
        // (x - 1) + 1 == x
        assert_eq!(
            add_one(&Expr::sub(Expr::var("x"), Expr::int(1))),
            Expr::var("x")
        );
    }

    #[test]
    fn block_directive_gets_end() {
        let p = Program::simple(
            "t",
            Language::Fortran,
            vec![Stmt::AccBlock {
                dir: AccDirective::new(DirectiveKind::Parallel)
                    .with(AccClause::NumGangs(Expr::int(4))),
                body: vec![],
            }],
        );
        let src = emit_fortran(&p);
        assert!(src.contains("!$acc parallel num_gangs(4)"));
        assert!(src.contains("!$acc end parallel"));
    }

    #[test]
    fn main_return_becomes_result_assignment() {
        let p = Program::simple("t", Language::Fortran, vec![Stmt::Return(Expr::int(1))]);
        let src = emit_fortran(&p);
        assert!(src.contains("integer function main()"), "{src}");
        assert!(src.contains("main = 1"));
        assert!(src.contains("return"));
        assert!(src.contains("end function main"));
    }

    #[test]
    fn compound_assign_expands() {
        let p = Program::simple(
            "t",
            Language::Fortran,
            vec![
                Stmt::decl_int("s", Expr::int(0)),
                Stmt::assign_op(LValue::var("s"), BinOp::Add, Expr::int(2)),
            ],
        );
        let src = emit_fortran(&p);
        assert!(src.contains("s = s + 2"), "{src}");
    }

    #[test]
    fn logical_operators_spelled_fortran() {
        let e = Expr::bin(
            BinOp::And,
            Expr::eq(Expr::var("a"), Expr::int(1)),
            Expr::var("b"),
        );
        assert_eq!(expr_to_f(&e), "a == 1 .and. b");
    }

    #[test]
    fn bit_ops_become_intrinsics() {
        let e = Expr::bin(BinOp::BitXor, Expr::var("a"), Expr::var("b"));
        assert_eq!(expr_to_f(&e), "ieor(a, b)");
        let m = Expr::bin(BinOp::Rem, Expr::var("a"), Expr::int(4));
        assert_eq!(expr_to_f(&m), "mod(a, 4)");
    }

    #[test]
    fn double_literals_get_d_exponent() {
        assert_eq!(real_to_f(0.5, ScalarType::Double), "0.5d0");
        assert_eq!(real_to_f(1e-9, ScalarType::Double), "1d-9");
        assert_eq!(real_to_f(0.5, ScalarType::Float), "0.5");
    }

    #[test]
    fn array_section_inclusive() {
        let r = DataRef::section("a", Expr::int(0), Expr::var("n"));
        assert_eq!(dataref_to_f(&r), "a(0:n - 1)");
        let r2 = DataRef::section("a", Expr::int(2), Expr::int(5));
        assert_eq!(dataref_to_f(&r2), "a(2:6)");
    }

    #[test]
    fn arrays_declared_zero_based() {
        let p = Program::simple(
            "t",
            Language::Fortran,
            vec![Stmt::DeclArray {
                name: "m".into(),
                elem: ScalarType::Float,
                dims: vec![10, 20],
            }],
        );
        let src = emit_fortran(&p);
        assert!(src.contains("real :: m(0:9, 0:19)"), "{src}");
    }

    #[test]
    fn reduction_clause_fortran_spelling() {
        let c = AccClause::Reduction(ReductionOp::LogicalAnd, vec!["ok".into()]);
        assert_eq!(clause_to_f(&c), "reduction(.and.:ok)");
    }

    #[test]
    fn update_standalone() {
        let d = AccDirective::new(DirectiveKind::Update).with(AccClause::Data(
            ClauseKind::HostClause,
            vec![DataRef::whole("a")],
        ));
        assert_eq!(directive_to_f(&d), "update host(a)");
    }
}
