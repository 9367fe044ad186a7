//! Statements of the mini-language.

use crate::acc::AccDirective;
use crate::expr::{BinOp, Expr};
use crate::name::Name;
use crate::types::{ScalarType, Type};

/// An assignable location.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// Scalar (or pointer) variable.
    Var(Name),
    /// Array element.
    Index {
        /// Array name.
        base: Name,
        /// One index per dimension, outermost first (C order).
        indices: Vec<Expr>,
    },
}

impl LValue {
    /// Scalar lvalue shorthand.
    pub fn var(name: impl Into<Name>) -> Self {
        LValue::Var(name.into())
    }

    /// 1-D element lvalue shorthand.
    pub fn idx(base: impl Into<Name>, i: Expr) -> Self {
        LValue::Index {
            base: base.into(),
            indices: vec![i],
        }
    }

    /// 2-D element lvalue shorthand.
    pub fn idx2(base: impl Into<Name>, i: Expr, j: Expr) -> Self {
        LValue::Index {
            base: base.into(),
            indices: vec![i, j],
        }
    }

    /// The variable the lvalue writes.
    pub fn base(&self) -> &str {
        match self {
            LValue::Var(n) => n,
            LValue::Index { base, .. } => base,
        }
    }
}

/// A counted `for`/`do` loop: `for (var = from; var < to; var += step)`.
///
/// The Fortran generator renders the equivalent inclusive `do var = from,
/// to-1, step` form; both front-ends normalize back to the exclusive-upper-
/// bound representation.
#[derive(Debug, Clone, PartialEq)]
pub struct ForLoop {
    /// Induction variable (always `int`).
    pub var: Name,
    /// Inclusive lower bound.
    pub from: Expr,
    /// Exclusive upper bound.
    pub to: Expr,
    /// Step (must be positive; tests use 1).
    pub step: Expr,
    /// Loop body.
    pub body: Vec<Stmt>,
}

impl ForLoop {
    /// `for (var = 0; var < to; var++)` shorthand.
    pub fn upto(var: impl Into<Name>, to: Expr, body: Vec<Stmt>) -> Self {
        ForLoop {
            var: var.into(),
            from: Expr::int(0),
            to,
            step: Expr::int(1),
            body,
        }
    }
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Scalar or pointer declaration with optional initializer.
    DeclScalar {
        /// Variable name.
        name: Name,
        /// Declared type.
        ty: Type,
        /// Optional initializer.
        init: Option<Expr>,
    },
    /// Statically-shaped array declaration.
    DeclArray {
        /// Array name.
        name: Name,
        /// Element type.
        elem: ScalarType,
        /// Dimension extents, outermost first (row-major in C rendering).
        dims: Vec<usize>,
    },
    /// Assignment, optionally compound (`op` = Some(Add) renders `+=`).
    Assign {
        /// Target location.
        target: LValue,
        /// Compound operator, if any.
        op: Option<BinOp>,
        /// Right-hand side.
        value: Expr,
    },
    /// Counted loop.
    For(ForLoop),
    /// Conditional.
    If {
        /// Condition (nonzero = true).
        cond: Expr,
        /// Then branch.
        then_body: Vec<Stmt>,
        /// Else branch (empty = absent).
        else_body: Vec<Stmt>,
    },
    /// Expression-statement call (e.g. `acc_init(acc_device_default);`).
    Call {
        /// Callee.
        name: Name,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `return expr;` — test programs return 1 on success, 0 on failure.
    Return(Expr),
    /// A directive opening a structured block (`parallel`, `kernels`,
    /// `data`, `host_data`).
    AccBlock {
        /// The directive.
        dir: AccDirective,
        /// Region body.
        body: Vec<Stmt>,
    },
    /// A `loop` (or combined `parallel loop` / `kernels loop`) directive
    /// attached to the following counted loop.
    AccLoop {
        /// The directive.
        dir: AccDirective,
        /// The annotated loop.
        l: ForLoop,
    },
    /// A standalone directive (`update`, `wait`, `declare`, `cache`,
    /// 2.0 `enter data` / `exit data`).
    AccStandalone {
        /// The directive.
        dir: AccDirective,
    },
}

impl Stmt {
    /// Assignment shorthand.
    pub fn assign(target: LValue, value: Expr) -> Stmt {
        Stmt::Assign {
            target,
            op: None,
            value,
        }
    }

    /// Compound-assignment shorthand (`target op= value`).
    pub fn assign_op(target: LValue, op: BinOp, value: Expr) -> Stmt {
        Stmt::Assign {
            target,
            op: Some(op),
            value,
        }
    }

    /// `int name = init;` shorthand.
    pub fn decl_int(name: impl Into<Name>, init: Expr) -> Stmt {
        Stmt::DeclScalar {
            name: name.into(),
            ty: Type::INT,
            init: Some(init),
        }
    }

    /// Walk all nested statements (pre-order), including directive bodies.
    pub fn visit(&self, f: &mut impl FnMut(&Stmt)) {
        f(self);
        match self {
            Stmt::For(l) => {
                for s in &l.body {
                    s.visit(f);
                }
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                for s in then_body.iter().chain(else_body) {
                    s.visit(f);
                }
            }
            Stmt::AccBlock { body, .. } => {
                for s in body {
                    s.visit(f);
                }
            }
            Stmt::AccLoop { l, .. } => {
                for s in &l.body {
                    s.visit(f);
                }
            }
            _ => {}
        }
    }

    /// Call `f` on every expression this statement holds itself: an
    /// initializer, an assignment's value and index, loop bounds, a
    /// condition, call arguments, a return value, its directive's
    /// expressions. Nested statements are [`visit`](Self::visit)'s.
    pub fn for_each_expr(&self, f: &mut impl FnMut(&Expr)) {
        let bounds = |l: &ForLoop, f: &mut dyn FnMut(&Expr)| {
            f(&l.from);
            f(&l.to);
            f(&l.step);
        };
        match self {
            Stmt::DeclScalar { init, .. } => {
                if let Some(e) = init {
                    f(e);
                }
            }
            Stmt::DeclArray { .. } => {}
            Stmt::Assign { target, value, .. } => {
                if let LValue::Index { indices, .. } = target {
                    indices.iter().for_each(&mut *f);
                }
                f(value);
            }
            Stmt::For(l) => bounds(l, f),
            Stmt::If { cond, .. } => f(cond),
            Stmt::Call { args, .. } => args.iter().for_each(f),
            Stmt::Return(e) => f(e),
            Stmt::AccBlock { dir, .. } | Stmt::AccStandalone { dir } => dir.for_each_expr(f),
            Stmt::AccLoop { dir, l } => {
                dir.for_each_expr(f);
                bounds(l, f);
            }
        }
    }

    /// Collect every directive in this statement tree (pre-order).
    pub fn directives(&self) -> Vec<&AccDirective> {
        let mut out: Vec<&AccDirective> = Vec::new();
        // Manual recursion because visit() hands out &Stmt without lifetimes
        // tied to self in a way we can push through the closure.
        fn go<'a>(s: &'a Stmt, out: &mut Vec<&'a AccDirective>) {
            match s {
                Stmt::AccBlock { dir, body } => {
                    out.push(dir);
                    for s in body {
                        go(s, out);
                    }
                }
                Stmt::AccLoop { dir, l } => {
                    out.push(dir);
                    for s in &l.body {
                        go(s, out);
                    }
                }
                Stmt::AccStandalone { dir } => out.push(dir),
                Stmt::For(l) => {
                    for s in &l.body {
                        go(s, out);
                    }
                }
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    for s in then_body.iter().chain(else_body) {
                        go(s, out);
                    }
                }
                _ => {}
            }
        }
        go(self, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acc_spec::DirectiveKind;

    fn sample_region() -> Stmt {
        Stmt::AccBlock {
            dir: AccDirective::new(DirectiveKind::Parallel),
            body: vec![Stmt::AccLoop {
                dir: AccDirective::new(DirectiveKind::Loop),
                l: ForLoop::upto(
                    "i",
                    Expr::var("n"),
                    vec![Stmt::assign_op(
                        LValue::idx("a", Expr::var("i")),
                        BinOp::Add,
                        Expr::int(1),
                    )],
                ),
            }],
        }
    }

    #[test]
    fn directives_collects_nested() {
        let s = sample_region();
        let dirs = s.directives();
        assert_eq!(dirs.len(), 2);
        assert_eq!(dirs[0].kind, DirectiveKind::Parallel);
        assert_eq!(dirs[1].kind, DirectiveKind::Loop);
    }

    #[test]
    fn visit_counts_statements() {
        let s = sample_region();
        let mut n = 0;
        s.visit(&mut |_| n += 1);
        // AccBlock + AccLoop + Assign
        assert_eq!(n, 3);
    }

    #[test]
    fn lvalue_base() {
        assert_eq!(LValue::var("x").base(), "x");
        assert_eq!(LValue::idx("a", Expr::int(0)).base(), "a");
        assert_eq!(LValue::idx2("m", Expr::int(0), Expr::int(1)).base(), "m");
    }

    #[test]
    fn forloop_upto_defaults() {
        let l = ForLoop::upto("i", Expr::int(10), vec![]);
        assert_eq!(l.from, Expr::int(0));
        assert_eq!(l.step, Expr::int(1));
    }
}
