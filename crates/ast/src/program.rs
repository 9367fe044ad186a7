//! Programs and functions.

use crate::name::Name;
use crate::stmt::Stmt;
use crate::types::ScalarType;
use acc_spec::Language;

/// How a parameter is passed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamKind {
    /// By-value scalar.
    Scalar(ScalarType),
    /// Pointer to an array of the element type (C: `T*`; Fortran: assumed-
    /// size array). Used by the `host_data`/`use_device` helper-function
    /// tests.
    ArrayPtr(ScalarType),
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Name.
    pub name: Name,
    /// Passing kind.
    pub kind: ParamKind,
}

/// A function definition. `main` is the test entry point and must return
/// `int` (1 = pass, 0 = fail, matching the paper's `return (error == 0)`
/// convention).
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name.
    pub name: Name,
    /// Parameters.
    pub params: Vec<Param>,
    /// Return type; `None` renders `void` / a subroutine.
    pub ret: Option<ScalarType>,
    /// Body.
    pub body: Vec<Stmt>,
}

impl Function {
    /// A `int main()`-shaped entry point.
    pub fn main(body: Vec<Stmt>) -> Self {
        Function {
            name: Name::new("main"),
            params: Vec::new(),
            ret: Some(ScalarType::Int),
            body,
        }
    }
}

/// A complete standalone test program.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Program name (becomes the Fortran `program` name / a C comment).
    pub name: Name,
    /// Surface language to render/parse as.
    pub language: Language,
    /// Helper functions first, then `main` by convention; the entry point is
    /// located by name.
    pub functions: Vec<Function>,
}

impl Program {
    /// Single-function program wrapping `body` in `main`.
    pub fn simple(name: impl Into<Name>, language: Language, body: Vec<Stmt>) -> Self {
        Program {
            name: name.into(),
            language,
            functions: vec![Function::main(body)],
        }
    }

    /// The entry function.
    pub fn entry(&self) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == "main")
    }

    /// Look up a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// A cheap estimate of the program's rendered size in bytes, which the
    /// emitters size their output buffer by: a header plus an average line
    /// per statement (calibrated on the generated suite, where it errs a
    /// little high).
    pub(crate) fn rendered_size_hint(&self) -> usize {
        fn count(body: &[Stmt]) -> usize {
            body.iter()
                .map(|s| match s {
                    Stmt::For(l) | Stmt::AccLoop { l, .. } => 1 + count(&l.body),
                    Stmt::If {
                        then_body,
                        else_body,
                        ..
                    } => 1 + count(then_body) + count(else_body),
                    Stmt::AccBlock { body, .. } => 1 + count(body),
                    _ => 1,
                })
                .sum()
        }
        let stmts: usize = self.functions.iter().map(|f| count(&f.body)).sum();
        160 + 40 * stmts
    }

    /// Every directive anywhere in the program, in pre-order.
    pub fn directives(&self) -> Vec<&crate::acc::AccDirective> {
        self.functions
            .iter()
            .flat_map(|f| f.body.iter())
            .flat_map(|s| s.directives())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acc::AccDirective;
    use crate::expr::Expr;
    use acc_spec::DirectiveKind;

    #[test]
    fn simple_program_has_main() {
        let p = Program::simple("t", Language::C, vec![Stmt::Return(Expr::int(1))]);
        assert!(p.entry().is_some());
        assert_eq!(p.entry().unwrap().ret, Some(ScalarType::Int));
    }

    #[test]
    fn function_lookup() {
        let mut p = Program::simple("t", Language::C, vec![]);
        p.functions.push(Function {
            name: "helper".into(),
            params: vec![Param {
                name: "x".into(),
                kind: ParamKind::ArrayPtr(ScalarType::Float),
            }],
            ret: None,
            body: vec![],
        });
        assert!(p.function("helper").is_some());
        assert!(p.function("nonexistent").is_none());
    }

    #[test]
    fn program_directives_span_functions() {
        let region = Stmt::AccBlock {
            dir: AccDirective::new(DirectiveKind::Kernels),
            body: vec![],
        };
        let p = Program::simple("t", Language::Fortran, vec![region]);
        assert_eq!(p.directives().len(), 1);
        assert_eq!(p.directives()[0].kind, DirectiveKind::Kernels);
    }
}
