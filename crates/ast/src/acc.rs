//! OpenACC directive syntax trees: a directive kind plus parsed clauses with
//! their argument expressions.

use crate::expr::Expr;
use crate::name::Name;
use crate::{cgen, fgen};
use acc_spec::{ClauseKind, DirectiveKind, Language, ReductionOp};
use std::fmt;

/// A reference to data in a data clause: a variable, optionally with an
/// array-section `[start:length]` (C) / `(start:end)` (Fortran, normalized to
/// start/length at parse time).
#[derive(Debug, Clone, PartialEq)]
pub struct DataRef {
    /// Variable name.
    pub name: Name,
    /// Optional section: (start, length).
    pub section: Option<(Expr, Expr)>,
}

impl DataRef {
    /// Whole-variable reference.
    pub fn whole(name: impl Into<Name>) -> Self {
        DataRef {
            name: name.into(),
            section: None,
        }
    }

    /// Section reference `name[start:len]`.
    pub fn section(name: impl Into<Name>, start: Expr, len: Expr) -> Self {
        DataRef {
            name: name.into(),
            section: Some((start, len)),
        }
    }
}

/// A parsed clause with its arguments.
#[derive(Debug, Clone, PartialEq)]
pub enum AccClause {
    /// `if(cond)`
    If(Expr),
    /// `async` / `async(tag)`
    Async(Option<Expr>),
    /// `num_gangs(n)`
    NumGangs(Expr),
    /// `num_workers(n)`
    NumWorkers(Expr),
    /// `vector_length(n)`
    VectorLength(Expr),
    /// `reduction(op:vars)`
    Reduction(ReductionOp, Vec<Name>),
    /// A data-movement clause (`copy`, `copyin`, ..., `present_or_create`,
    /// `device_resident`, `host`, `device`, `delete`) with its refs.
    Data(ClauseKind, Vec<DataRef>),
    /// `deviceptr(vars)`
    Deviceptr(Vec<Name>),
    /// `private(vars)`
    Private(Vec<Name>),
    /// `firstprivate(vars)`
    Firstprivate(Vec<Name>),
    /// `use_device(vars)`
    UseDevice(Vec<Name>),
    /// `gang` / `gang(n)`
    Gang(Option<Expr>),
    /// `worker` / `worker(n)`
    Worker(Option<Expr>),
    /// `vector` / `vector(n)`
    Vector(Option<Expr>),
    /// `seq`
    Seq,
    /// `independent`
    Independent,
    /// `collapse(n)`
    Collapse(Expr),
    /// 2.0 `default(none)`
    DefaultNone,
    /// 2.0 `auto`
    Auto,
}

impl AccClause {
    /// The clause kind, for validation against
    /// [`DirectiveKind::allowed_clauses`].
    pub fn kind(&self) -> ClauseKind {
        match self {
            AccClause::If(_) => ClauseKind::If,
            AccClause::Async(_) => ClauseKind::Async,
            AccClause::NumGangs(_) => ClauseKind::NumGangs,
            AccClause::NumWorkers(_) => ClauseKind::NumWorkers,
            AccClause::VectorLength(_) => ClauseKind::VectorLength,
            AccClause::Reduction(..) => ClauseKind::Reduction,
            AccClause::Data(k, _) => *k,
            AccClause::Deviceptr(_) => ClauseKind::Deviceptr,
            AccClause::Private(_) => ClauseKind::Private,
            AccClause::Firstprivate(_) => ClauseKind::Firstprivate,
            AccClause::UseDevice(_) => ClauseKind::UseDevice,
            AccClause::Gang(_) => ClauseKind::Gang,
            AccClause::Worker(_) => ClauseKind::Worker,
            AccClause::Vector(_) => ClauseKind::Vector,
            AccClause::Seq => ClauseKind::Seq,
            AccClause::Independent => ClauseKind::Independent,
            AccClause::Collapse(_) => ClauseKind::Collapse,
            AccClause::DefaultNone => ClauseKind::DefaultNone,
            AccClause::Auto => ClauseKind::Auto,
        }
    }
}

/// A full directive: kind plus clause list, plus an optional wait argument
/// for the `wait(tag)` directive form.
#[derive(Debug, Clone, PartialEq)]
pub struct AccDirective {
    /// Directive kind.
    pub kind: DirectiveKind,
    /// Clauses in source order.
    pub clauses: Vec<AccClause>,
    /// Argument of a standalone `wait(tag)` directive; `wait`'s optional tag
    /// is directive-level syntax rather than a clause.
    pub wait_arg: Option<Expr>,
    /// Array references of a `cache(refs)` directive; directive-level syntax
    /// like `wait_arg`.
    pub cache_args: Vec<DataRef>,
}

impl AccDirective {
    /// A directive with no clauses.
    pub fn new(kind: DirectiveKind) -> Self {
        AccDirective {
            kind,
            clauses: Vec::new(),
            wait_arg: None,
            cache_args: Vec::new(),
        }
    }

    /// Builder-style clause addition.
    pub fn with(mut self, clause: AccClause) -> Self {
        self.clauses.push(clause);
        self
    }

    /// First clause of the given kind, if present.
    pub fn find(&self, kind: ClauseKind) -> Option<&AccClause> {
        self.clauses.iter().find(|c| c.kind() == kind)
    }

    /// True when a clause of the given kind is present.
    pub fn has(&self, kind: ClauseKind) -> bool {
        self.find(kind).is_some()
    }

    /// All data clauses (`Data` variants plus `deviceptr`), in source order.
    pub fn data_clauses(&self) -> impl Iterator<Item = &AccClause> {
        self.clauses
            .iter()
            .filter(|c| matches!(c, AccClause::Data(..) | AccClause::Deviceptr(_)))
    }

    /// Call `f` on every expression the directive holds: clause arguments
    /// (`if`, `async`, the sizing clauses, `gang`/`worker`/`vector`,
    /// `collapse`), data-section bounds, the `wait` tag and the `cache`
    /// sections.
    pub fn for_each_expr(&self, f: &mut impl FnMut(&Expr)) {
        let sections = |refs: &[DataRef], f: &mut dyn FnMut(&Expr)| {
            for (start, len) in refs.iter().filter_map(|r| r.section.as_ref()) {
                f(start);
                f(len);
            }
        };
        for c in &self.clauses {
            match c {
                AccClause::If(e)
                | AccClause::NumGangs(e)
                | AccClause::NumWorkers(e)
                | AccClause::VectorLength(e)
                | AccClause::Collapse(e) => f(e),
                AccClause::Async(e)
                | AccClause::Gang(e)
                | AccClause::Worker(e)
                | AccClause::Vector(e) => {
                    if let Some(e) = e {
                        f(e);
                    }
                }
                AccClause::Data(_, refs) => sections(refs, f),
                AccClause::Reduction(..)
                | AccClause::Deviceptr(_)
                | AccClause::Private(_)
                | AccClause::Firstprivate(_)
                | AccClause::UseDevice(_)
                | AccClause::Seq
                | AccClause::Independent
                | AccClause::DefaultNone
                | AccClause::Auto => {}
            }
        }
        if let Some(e) = &self.wait_arg {
            f(e);
        }
        sections(&self.cache_args, f);
    }

    /// Clauses that are illegal on this directive per the 1.0 feature model.
    pub fn illegal_clauses(&self) -> Vec<ClauseKind> {
        self.clauses
            .iter()
            .map(|c| c.kind())
            .filter(|k| !self.kind.allows(*k))
            .collect()
    }

    /// Write the directive as it follows its sentinel (`#pragma acc ` or
    /// `!$acc `), in `lang`'s expression and array-section syntax.
    pub(crate) fn write_to(&self, out: &mut String, lang: Language) {
        out.push_str(self.kind.name());
        if let Some(arg) = &self.wait_arg {
            out.push('(');
            write_expr(out, arg, lang);
            out.push(')');
        }
        if !self.cache_args.is_empty() {
            out.push('(');
            write_datarefs(out, &self.cache_args, lang);
            out.push(')');
        }
        for c in &self.clauses {
            out.push(' ');
            c.write_to(out, lang);
        }
    }
}

impl AccClause {
    /// Write the clause in `lang`'s syntax.
    pub(crate) fn write_to(&self, out: &mut String, lang: Language) {
        match self {
            AccClause::If(e) => write_paren_expr(out, "if", e, lang),
            AccClause::Async(e) => write_opt_expr(out, "async", e, lang),
            AccClause::NumGangs(e) => write_paren_expr(out, "num_gangs", e, lang),
            AccClause::NumWorkers(e) => write_paren_expr(out, "num_workers", e, lang),
            AccClause::VectorLength(e) => write_paren_expr(out, "vector_length", e, lang),
            AccClause::Reduction(op, vars) => {
                out.push_str("reduction(");
                out.push_str(match lang {
                    Language::C => op.c_symbol(),
                    Language::Fortran => op.fortran_symbol(),
                });
                out.push(':');
                push_joined(out, vars);
                out.push(')');
            }
            AccClause::Data(kind, refs) => {
                out.push_str(kind.name());
                out.push('(');
                write_datarefs(out, refs, lang);
                out.push(')');
            }
            AccClause::Deviceptr(vars) => write_name_list(out, "deviceptr", vars),
            AccClause::Private(vars) => write_name_list(out, "private", vars),
            AccClause::Firstprivate(vars) => write_name_list(out, "firstprivate", vars),
            AccClause::UseDevice(vars) => write_name_list(out, "use_device", vars),
            AccClause::Gang(e) => write_opt_expr(out, "gang", e, lang),
            AccClause::Worker(e) => write_opt_expr(out, "worker", e, lang),
            AccClause::Vector(e) => write_opt_expr(out, "vector", e, lang),
            AccClause::Seq => out.push_str("seq"),
            AccClause::Independent => out.push_str("independent"),
            AccClause::Collapse(e) => write_paren_expr(out, "collapse", e, lang),
            AccClause::DefaultNone => out.push_str("default(none)"),
            AccClause::Auto => out.push_str("auto"),
        }
    }
}

impl DataRef {
    /// Write the reference in `lang`'s section syntax: C `a[start:len]`,
    /// Fortran's inclusive `a(lo:hi)`.
    pub(crate) fn write_to(&self, out: &mut String, lang: Language) {
        out.push_str(&self.name);
        let Some((start, len)) = &self.section else {
            return;
        };
        match lang {
            Language::C => {
                out.push('[');
                cgen::write_expr(out, start, 0);
                out.push(':');
                cgen::write_expr(out, len, 0);
                out.push(']');
            }
            Language::Fortran => {
                // Fortran sections are inclusive `lo:hi`; hi = start + len - 1.
                out.push('(');
                fgen::write_expr(out, start, 0);
                out.push(':');
                if matches!(start, Expr::Int(0)) {
                    fgen::write_sub_one(out, len);
                } else {
                    fgen::write_sub_one(out, &Expr::add(start.clone(), len.clone()));
                }
                out.push(')');
            }
        }
    }
}

fn write_expr(out: &mut String, e: &Expr, lang: Language) {
    match lang {
        Language::C => cgen::write_expr(out, e, 0),
        Language::Fortran => fgen::write_expr(out, e, 0),
    }
}

/// `name(expr)`
fn write_paren_expr(out: &mut String, name: &str, e: &Expr, lang: Language) {
    out.push_str(name);
    out.push('(');
    write_expr(out, e, lang);
    out.push(')');
}

/// `name` or `name(expr)`
fn write_opt_expr(out: &mut String, name: &str, e: &Option<Expr>, lang: Language) {
    match e {
        None => out.push_str(name),
        Some(e) => write_paren_expr(out, name, e, lang),
    }
}

/// `name(a, b, …)` over plain names.
fn write_name_list(out: &mut String, name: &str, vars: &[Name]) {
    out.push_str(name);
    out.push('(');
    push_joined(out, vars);
    out.push(')');
}

/// `items` joined by `", "`.
fn push_joined(out: &mut String, items: &[Name]) {
    for (i, v) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(v);
    }
}

fn write_datarefs(out: &mut String, refs: &[DataRef], lang: Language) {
    for (i, r) in refs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        r.write_to(out, lang);
    }
}

impl fmt::Display for AccDirective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::from("#pragma acc ");
        self.write_to(&mut s, Language::C);
        f.write_str(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clause_kinds_map() {
        assert_eq!(AccClause::Seq.kind(), ClauseKind::Seq);
        assert_eq!(
            AccClause::NumGangs(Expr::int(8)).kind(),
            ClauseKind::NumGangs
        );
        assert_eq!(
            AccClause::Data(ClauseKind::Copyin, vec![DataRef::whole("a")]).kind(),
            ClauseKind::Copyin
        );
    }

    #[test]
    fn find_and_has() {
        let d = AccDirective::new(DirectiveKind::Parallel)
            .with(AccClause::NumGangs(Expr::int(10)))
            .with(AccClause::If(Expr::var("flag")));
        assert!(d.has(ClauseKind::NumGangs));
        assert!(d.has(ClauseKind::If));
        assert!(!d.has(ClauseKind::Async));
        match d.find(ClauseKind::NumGangs) {
            Some(AccClause::NumGangs(e)) => assert_eq!(e.const_int(), Some(10)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn illegal_clause_detection() {
        let d = AccDirective::new(DirectiveKind::Kernels).with(AccClause::NumGangs(Expr::int(4)));
        assert_eq!(d.illegal_clauses(), vec![ClauseKind::NumGangs]);
        let ok = AccDirective::new(DirectiveKind::Parallel).with(AccClause::NumGangs(Expr::int(4)));
        assert!(ok.illegal_clauses().is_empty());
    }

    #[test]
    fn render_parallel_with_clauses() {
        let d = AccDirective::new(DirectiveKind::Parallel)
            .with(AccClause::NumGangs(Expr::int(10)))
            .with(AccClause::Data(
                ClauseKind::Copy,
                vec![DataRef::section("a", Expr::int(0), Expr::var("n"))],
            ));
        assert_eq!(
            d.to_string(),
            "#pragma acc parallel num_gangs(10) copy(a[0:n])"
        );
    }

    #[test]
    fn render_wait_with_tag() {
        let mut d = AccDirective::new(DirectiveKind::Wait);
        d.wait_arg = Some(Expr::int(3));
        assert_eq!(d.to_string(), "#pragma acc wait(3)");
    }

    #[test]
    fn data_clauses_iterator() {
        let d = AccDirective::new(DirectiveKind::Parallel)
            .with(AccClause::NumGangs(Expr::int(2)))
            .with(AccClause::Data(
                ClauseKind::Copyin,
                vec![DataRef::whole("a")],
            ))
            .with(AccClause::Deviceptr(vec!["p".into()]));
        assert_eq!(d.data_clauses().count(), 2);
    }
}
