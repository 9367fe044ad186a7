//! Cross-test derivation: transform a functional test base so the feature
//! under test is absent (or substituted), per §III.
//!
//! "The basic idea is that if we remove the directive being tested from the
//! test code, the cross test should yield an 'incorrect' result. … In some
//! instances, simply removing the directive being tested will not work. We
//! intentionally replace the directive being tested with another one."

use acc_ast::{AccClause, Program, Stmt};
use acc_spec::{ClauseKind, DirectiveKind};
use std::fmt;
use std::str::FromStr;

/// How to derive the cross variant from the functional test base.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrossRule {
    /// Delete every directive of the kind (keeping region bodies / loops).
    RemoveDirective(DirectiveKind),
    /// Strip a clause from every directive of the kind.
    RemoveClause(DirectiveKind, ClauseKind),
    /// Replace a clause kind with another that takes the same variable list
    /// (`firstprivate` → `private` is the paper's example).
    ReplaceClause {
        /// Directive carrying the clause.
        dir: DirectiveKind,
        /// Clause to replace.
        from: ClauseKind,
        /// Replacement.
        to: ClauseKind,
    },
    /// Force every `if` clause condition to the given constant truth value
    /// (the data-construct `if` methodology of §IV-B).
    ForceIf(bool),
}

impl CrossRule {
    /// Apply the rule to a program, producing the cross variant.
    pub fn apply(&self, base: &Program) -> Program {
        let mut p = base.clone();
        for f in &mut p.functions {
            rewrite_body(&mut f.body, self);
        }
        p.name = format!("{}_cross", p.name);
        p
    }
}

fn rewrite_body(body: &mut Vec<Stmt>, rule: &CrossRule) {
    let mut i = 0;
    while i < body.len() {
        // Dissolve the statement if the rule removes its directive: a
        // block leaves its body, a loop its `for`, a standalone nothing.
        let dissolve = match (&body[i], rule) {
            (
                Stmt::AccBlock { dir, .. }
                | Stmt::AccLoop { dir, .. }
                | Stmt::AccStandalone { dir },
                CrossRule::RemoveDirective(kind),
            ) => dir.kind == *kind,
            _ => false,
        };
        if dissolve {
            match body.remove(i) {
                Stmt::AccBlock { body: inner, .. } => {
                    body.splice(i..i, inner);
                }
                Stmt::AccLoop { l, .. } => body.insert(i, Stmt::For(l)),
                _ => {}
            }
            // Re-visit the spliced statements (they may contain nested
            // directives of the same kind).
        } else {
            rewrite_stmt(&mut body[i], rule);
            i += 1;
        }
    }
}

fn rewrite_stmt(s: &mut Stmt, rule: &CrossRule) {
    match s {
        Stmt::AccBlock { dir, body } => {
            rewrite_clauses(&mut dir.clauses, dir.kind, rule);
            rewrite_body(body, rule);
        }
        Stmt::AccLoop { dir, l } => {
            rewrite_clauses(&mut dir.clauses, dir.kind, rule);
            rewrite_body(&mut l.body, rule);
        }
        Stmt::AccStandalone { dir } => {
            rewrite_clauses(&mut dir.clauses, dir.kind, rule);
        }
        Stmt::For(l) => rewrite_body(&mut l.body, rule),
        Stmt::If {
            then_body,
            else_body,
            ..
        } => {
            rewrite_body(then_body, rule);
            rewrite_body(else_body, rule);
        }
        _ => {}
    }
}

fn rewrite_clauses(clauses: &mut Vec<AccClause>, dir_kind: DirectiveKind, rule: &CrossRule) {
    match rule {
        CrossRule::RemoveClause(dir, kind) if *dir == dir_kind => {
            clauses.retain(|c| c.kind() != *kind);
        }
        CrossRule::ReplaceClause { dir, from, to } if *dir == dir_kind => {
            for c in clauses.iter_mut() {
                let replacement = match (&c, to) {
                    _ if c.kind() != *from => None,
                    (AccClause::Firstprivate(vs), ClauseKind::Private) => {
                        Some(AccClause::Private(vs.clone()))
                    }
                    (AccClause::Private(vs), ClauseKind::Firstprivate) => {
                        Some(AccClause::Firstprivate(vs.clone()))
                    }
                    (AccClause::Data(_, refs), _) => Some(AccClause::Data(*to, refs.clone())),
                    (AccClause::Seq, ClauseKind::Independent) => Some(AccClause::Independent),
                    (AccClause::Independent, ClauseKind::Seq) => Some(AccClause::Seq),
                    (AccClause::Gang(_), ClauseKind::Seq)
                    | (AccClause::Worker(_), ClauseKind::Seq)
                    | (AccClause::Vector(_), ClauseKind::Seq) => Some(AccClause::Seq),
                    _ => None,
                };
                if let Some(r) = replacement {
                    *c = r;
                }
            }
        }
        CrossRule::ForceIf(v) => {
            for c in clauses.iter_mut() {
                if let AccClause::If(_) = c {
                    *c = AccClause::If(acc_ast::Expr::int(*v as i64));
                }
            }
        }
        _ => {}
    }
}

impl fmt::Display for CrossRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrossRule::RemoveDirective(d) => {
                write!(f, "remove-directive:{}", d.name().replace(' ', "_"))
            }
            CrossRule::RemoveClause(d, c) => {
                write!(
                    f,
                    "remove-clause:{}.{}",
                    d.name().replace(' ', "_"),
                    c.name()
                )
            }
            CrossRule::ReplaceClause { dir, from, to } => write!(
                f,
                "replace-clause:{}.{}->{}",
                dir.name().replace(' ', "_"),
                from.name(),
                to.name()
            ),
            CrossRule::ForceIf(v) => write!(f, "force-if:{}", *v as i64),
        }
    }
}

/// Error parsing a cross-rule specification string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossRuleParseError(pub String);

impl fmt::Display for CrossRuleParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid cross rule: {}", self.0)
    }
}

impl std::error::Error for CrossRuleParseError {}

fn directive_by_name(s: &str) -> Option<DirectiveKind> {
    DirectiveKind::ALL
        .iter()
        .copied()
        .find(|d| d.name().replace(' ', "_") == s)
}

impl FromStr for CrossRule {
    type Err = CrossRuleParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || CrossRuleParseError(s.to_string());
        if let Some(rest) = s.strip_prefix("remove-directive:") {
            return directive_by_name(rest)
                .map(CrossRule::RemoveDirective)
                .ok_or_else(err);
        }
        if let Some(rest) = s.strip_prefix("remove-clause:") {
            let (d, c) = rest.rsplit_once('.').ok_or_else(err)?;
            return Ok(CrossRule::RemoveClause(
                directive_by_name(d).ok_or_else(err)?,
                ClauseKind::from_name(c).ok_or_else(err)?,
            ));
        }
        if let Some(rest) = s.strip_prefix("replace-clause:") {
            let (head, to) = rest.split_once("->").ok_or_else(err)?;
            let (d, from) = head.rsplit_once('.').ok_or_else(err)?;
            return Ok(CrossRule::ReplaceClause {
                dir: directive_by_name(d).ok_or_else(err)?,
                from: ClauseKind::from_name(from).ok_or_else(err)?,
                to: ClauseKind::from_name(to).ok_or_else(err)?,
            });
        }
        if let Some(rest) = s.strip_prefix("force-if:") {
            return match rest {
                "0" | "false" => Ok(CrossRule::ForceIf(false)),
                "1" | "true" => Ok(CrossRule::ForceIf(true)),
                _ => Err(err()),
            };
        }
        Err(err())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acc_ast::builder as b;
    use acc_ast::Expr;
    use acc_spec::Language;

    fn fig2_base() -> Program {
        Program::simple(
            "loop_test",
            Language::C,
            vec![
                b::decl_array("A", acc_ast::ScalarType::Int, 16),
                b::parallel_region(
                    vec![AccClause::NumGangs(Expr::int(4))],
                    vec![b::acc_loop(
                        vec![],
                        "i",
                        Expr::int(16),
                        vec![b::add1("A", Expr::var("i"), Expr::int(1))],
                    )],
                ),
                Stmt::Return(Expr::int(1)),
            ],
        )
    }

    #[test]
    fn remove_directive_keeps_loop() {
        let base = fig2_base();
        let cross = CrossRule::RemoveDirective(DirectiveKind::Loop).apply(&base);
        assert_eq!(base.directives().len(), 2);
        let kinds: Vec<_> = cross.directives().iter().map(|d| d.kind).collect();
        assert_eq!(kinds, vec![DirectiveKind::Parallel]);
        // The for loop itself must survive.
        let src = acc_ast::render(&cross);
        assert!(src.contains("for (i = 0; i < 16; i++)"), "{src}");
        assert!(!src.contains("#pragma acc loop"));
        assert!(cross.name.ends_with("_cross"));
    }

    #[test]
    fn remove_block_directive_keeps_body() {
        let base = fig2_base();
        let cross = CrossRule::RemoveDirective(DirectiveKind::Parallel).apply(&base);
        let kinds: Vec<_> = cross.directives().iter().map(|d| d.kind).collect();
        assert_eq!(kinds, vec![DirectiveKind::Loop]);
    }

    #[test]
    fn remove_clause() {
        let base = fig2_base();
        let cross =
            CrossRule::RemoveClause(DirectiveKind::Parallel, ClauseKind::NumGangs).apply(&base);
        assert!(!cross.directives()[0].has(ClauseKind::NumGangs));
    }

    #[test]
    fn replace_firstprivate_with_private() {
        let mut base = fig2_base();
        if let Stmt::AccBlock { dir, .. } = &mut base.functions[0].body[1] {
            dir.clauses.push(AccClause::Firstprivate(vec!["x".into()]));
        }
        let rule = CrossRule::ReplaceClause {
            dir: DirectiveKind::Parallel,
            from: ClauseKind::Firstprivate,
            to: ClauseKind::Private,
        };
        let cross = rule.apply(&base);
        let d = &cross.directives()[0];
        assert!(d.has(ClauseKind::Private));
        assert!(!d.has(ClauseKind::Firstprivate));
    }

    #[test]
    fn force_if() {
        let mut base = fig2_base();
        if let Stmt::AccBlock { dir, .. } = &mut base.functions[0].body[1] {
            dir.clauses.push(AccClause::If(Expr::var("cond")));
        }
        let cross = CrossRule::ForceIf(false).apply(&base);
        match cross.directives()[0].find(ClauseKind::If) {
            Some(AccClause::If(e)) => assert_eq!(e.const_int(), Some(0)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn spec_strings_round_trip() {
        for s in [
            "remove-directive:loop",
            "remove-directive:parallel_loop",
            "remove-clause:parallel.num_gangs",
            "replace-clause:parallel.firstprivate->private",
            "replace-clause:data.copyin->copy",
            "force-if:0",
            "force-if:1",
        ] {
            let rule: CrossRule = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(
                rule.to_string(),
                s.replace("true", "1").replace("false", "0")
            );
        }
        assert!("banana".parse::<CrossRule>().is_err());
        assert!("remove-clause:nonsense".parse::<CrossRule>().is_err());
    }

    #[test]
    fn nested_removal_recurses() {
        // Removing `loop` inside a data region wrapped parallel region.
        let base = Program::simple(
            "nested",
            Language::C,
            vec![
                b::decl_array("A", acc_ast::ScalarType::Int, 8),
                b::data_region(
                    vec![b::copy_sec("A", Expr::int(8))],
                    vec![b::parallel_region(
                        vec![],
                        vec![b::acc_loop(vec![], "i", Expr::int(8), vec![])],
                    )],
                ),
                Stmt::Return(Expr::int(1)),
            ],
        );
        let cross = CrossRule::RemoveDirective(DirectiveKind::Loop).apply(&base);
        let kinds: Vec<_> = cross.directives().iter().map(|d| d.kind).collect();
        assert_eq!(kinds, vec![DirectiveKind::Data, DirectiveKind::Parallel]);
    }
}
