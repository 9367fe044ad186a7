//! Expressions of the mini-language.

use crate::name::Name;
use crate::types::ScalarType;
use std::fmt;

/// Binary operators. Comparison and logical operators produce `int` 0/1,
/// exactly as C; the Fortran generator renders them with `.and.`-style
/// spellings and the Fortran front-end normalizes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%` (integer remainder)
    Rem,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&&`
    And,
    /// `||`
    Or,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
}

impl BinOp {
    /// C spelling.
    pub fn c_symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
        }
    }

    /// Binding power for the pretty-printer / parser (higher binds tighter).
    /// Mirrors C's precedence for the operators in the subset.
    pub fn precedence(self) -> u8 {
        match self {
            BinOp::Mul | BinOp::Div | BinOp::Rem => 10,
            BinOp::Add | BinOp::Sub => 9,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 8,
            BinOp::Eq | BinOp::Ne => 7,
            BinOp::BitAnd => 6,
            BinOp::BitXor => 5,
            BinOp::BitOr => 4,
            BinOp::And => 3,
            BinOp::Or => 2,
        }
    }

    /// True for comparison operators (result is logical 0/1).
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
        )
    }

    /// True for the short-circuit logical operators.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation `-x`.
    Neg,
    /// Logical not `!x`.
    Not,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Floating literal with its static type (Float renders with an `f`
    /// suffix in C).
    Real(f64, ScalarType),
    /// Variable reference. Named constants (`acc_device_host`, ...) are
    /// resolved by the semantic environment, not the grammar.
    Var(Name),
    /// Array element access `base[i]` / `base[i][j]` (C row-major order of
    /// indices; the Fortran generator emits `base(j,i)` column-major).
    Index {
        /// Array variable name.
        base: Name,
        /// One index per dimension, outermost first.
        indices: Vec<Expr>,
    },
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Call to a runtime routine, math intrinsic, or user helper function.
    Call {
        /// Callee name as spelled in source.
        name: Name,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// `sizeof(T)` — appears in `acc_malloc(n * sizeof(float))` patterns.
    SizeOf(ScalarType),
}

impl Expr {
    /// Shorthand integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Int(v)
    }

    /// Shorthand variable reference.
    pub fn var(name: impl Into<Name>) -> Expr {
        Expr::Var(name.into())
    }

    /// Shorthand 1-D index expression.
    pub fn idx(base: impl Into<Name>, i: Expr) -> Expr {
        Expr::Index {
            base: base.into(),
            indices: vec![i],
        }
    }

    /// Shorthand 2-D index expression.
    pub fn idx2(base: impl Into<Name>, i: Expr, j: Expr) -> Expr {
        Expr::Index {
            base: base.into(),
            indices: vec![i, j],
        }
    }

    /// Shorthand binary op.
    pub fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Binary(op, Box::new(l), Box::new(r))
    }

    /// `l + r`
    #[allow(clippy::should_implement_trait)] // builder shorthand, not arithmetic on Expr
    pub fn add(l: Expr, r: Expr) -> Expr {
        Expr::bin(BinOp::Add, l, r)
    }

    /// `l - r`
    #[allow(clippy::should_implement_trait)] // builder shorthand, not arithmetic on Expr
    pub fn sub(l: Expr, r: Expr) -> Expr {
        Expr::bin(BinOp::Sub, l, r)
    }

    /// `l * r`
    #[allow(clippy::should_implement_trait)] // builder shorthand, not arithmetic on Expr
    pub fn mul(l: Expr, r: Expr) -> Expr {
        Expr::bin(BinOp::Mul, l, r)
    }

    /// `l < r`
    pub fn lt(l: Expr, r: Expr) -> Expr {
        Expr::bin(BinOp::Lt, l, r)
    }

    /// `l == r`
    pub fn eq(l: Expr, r: Expr) -> Expr {
        Expr::bin(BinOp::Eq, l, r)
    }

    /// `l != r`
    pub fn ne(l: Expr, r: Expr) -> Expr {
        Expr::bin(BinOp::Ne, l, r)
    }

    /// Function call shorthand.
    pub fn call(name: impl Into<Name>, args: Vec<Expr>) -> Expr {
        Expr::Call {
            name: name.into(),
            args,
        }
    }

    /// Walk the expression tree, invoking `f` on every node (pre-order).
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Index { indices, .. } => {
                for i in indices {
                    i.visit(f);
                }
            }
            Expr::Unary(_, e) => e.visit(f),
            Expr::Binary(_, l, r) => {
                l.visit(f);
                r.visit(f);
            }
            Expr::Call { args, .. } => {
                for a in args {
                    a.visit(f);
                }
            }
            Expr::Int(_) | Expr::Real(..) | Expr::Var(_) | Expr::SizeOf(_) => {}
        }
    }

    /// All variable names referenced by the expression (including array
    /// bases and call arguments, excluding callee names).
    pub fn referenced_vars(&self) -> Vec<Name> {
        let mut out = Vec::new();
        self.visit(&mut |e| match e {
            Expr::Var(n) => out.push(n.clone()),
            Expr::Index { base, .. } => out.push(base.clone()),
            _ => {}
        });
        out.sort();
        out.dedup();
        out
    }

    /// Best-effort constant folding for integer expressions with no free
    /// variables. Used by directive validation (e.g. `collapse(2)` must be a
    /// constant) and by vendor bugs keyed on "constant vs variable
    /// expression" (§V-B CAPS `num_gangs`).
    pub fn const_int(&self) -> Option<i64> {
        match self {
            Expr::Int(v) => Some(*v),
            Expr::Unary(UnOp::Neg, e) => e.const_int().map(|v| -v),
            Expr::Unary(UnOp::Not, e) => e.const_int().map(|v| (v == 0) as i64),
            Expr::Binary(op, l, r) => {
                let (l, r) = (l.const_int()?, r.const_int()?);
                Some(match op {
                    BinOp::Add => l.wrapping_add(r),
                    BinOp::Sub => l.wrapping_sub(r),
                    BinOp::Mul => l.wrapping_mul(r),
                    BinOp::Div => l.checked_div(r)?,
                    BinOp::Rem => l.checked_rem(r)?,
                    BinOp::Lt => (l < r) as i64,
                    BinOp::Le => (l <= r) as i64,
                    BinOp::Gt => (l > r) as i64,
                    BinOp::Ge => (l >= r) as i64,
                    BinOp::Eq => (l == r) as i64,
                    BinOp::Ne => (l != r) as i64,
                    BinOp::And => ((l != 0) && (r != 0)) as i64,
                    BinOp::Or => ((l != 0) || (r != 0)) as i64,
                    BinOp::BitAnd => l & r,
                    BinOp::BitOr => l | r,
                    BinOp::BitXor => l ^ r,
                })
            }
            Expr::SizeOf(s) => Some(s.size_bytes() as i64),
            _ => None,
        }
    }

    /// True when the expression is a compile-time integer constant.
    pub fn is_const(&self) -> bool {
        self.const_int().is_some()
    }
}

impl fmt::Display for Expr {
    /// Displays in C surface syntax (the canonical debug form).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::cgen::expr_to_c(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_fold_arithmetic() {
        let e = Expr::add(Expr::mul(Expr::int(6), Expr::int(7)), Expr::int(0));
        assert_eq!(e.const_int(), Some(42));
    }

    #[test]
    fn const_fold_stops_at_vars() {
        let e = Expr::add(Expr::var("n"), Expr::int(1));
        assert_eq!(e.const_int(), None);
        assert!(!e.is_const());
    }

    #[test]
    fn const_fold_division_by_zero_is_none() {
        let e = Expr::bin(BinOp::Div, Expr::int(1), Expr::int(0));
        assert_eq!(e.const_int(), None);
    }

    #[test]
    fn const_fold_logic_and_comparisons() {
        assert_eq!(Expr::lt(Expr::int(1), Expr::int(2)).const_int(), Some(1));
        assert_eq!(
            Expr::bin(BinOp::And, Expr::int(1), Expr::int(0)).const_int(),
            Some(0)
        );
        assert_eq!(
            Expr::Unary(UnOp::Not, Box::new(Expr::int(0))).const_int(),
            Some(1)
        );
    }

    #[test]
    fn sizeof_folds() {
        assert_eq!(Expr::SizeOf(ScalarType::Float).const_int(), Some(4));
    }

    #[test]
    fn referenced_vars_deduped_and_sorted() {
        let e = Expr::add(
            Expr::idx("a", Expr::var("i")),
            Expr::add(Expr::var("i"), Expr::var("b")),
        );
        assert_eq!(e.referenced_vars(), vec!["a", "b", "i"]);
    }

    #[test]
    fn precedence_ordering() {
        assert!(BinOp::Mul.precedence() > BinOp::Add.precedence());
        assert!(BinOp::Add.precedence() > BinOp::Lt.precedence());
        assert!(BinOp::Lt.precedence() > BinOp::Eq.precedence());
        assert!(BinOp::BitAnd.precedence() > BinOp::BitXor.precedence());
        assert!(BinOp::BitXor.precedence() > BinOp::BitOr.precedence());
        assert!(BinOp::And.precedence() > BinOp::Or.precedence());
    }

    #[test]
    fn classification() {
        assert!(BinOp::Le.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(BinOp::Or.is_logical());
        assert!(!BinOp::BitOr.is_logical());
    }

    #[test]
    fn display_renders_c() {
        let e = Expr::add(Expr::var("x"), Expr::int(1));
        assert_eq!(e.to_string(), "x + 1");
    }
}
