//! # acc-ast — the mini-language shared by both front-ends
//!
//! Generated test programs are "complete and standalone C/Fortran code"
//! (paper §I). This crate defines the abstract syntax both languages share —
//! a C-like structured subset with scalars, statically-shaped arrays, `for`
//! loops, `if`, function calls, and OpenACC directives attached to blocks and
//! loops — together with code generators that render a program as compilable
//! C (`#pragma acc`) or Fortran (`!$acc`) source text.
//!
//! The pipeline is intentionally honest: the testsuite builds programs as
//! ASTs, renders them to *source text*, and the simulated vendor compilers
//! re-parse that text with their own front-ends (`acc-frontend`). Rendering
//! and re-parsing round-trip, which is one of the crate's property-test
//! invariants.

#![warn(missing_docs)]

pub mod acc;
pub mod builder;
pub mod cgen;
pub mod expr;
pub mod fgen;
pub mod name;
pub mod program;
pub mod stmt;
pub mod types;

pub use acc::{AccClause, AccDirective, DataRef};
pub use expr::{BinOp, Expr, UnOp};
pub use name::Name;
pub use program::{Function, Param, ParamKind, Program};
pub use stmt::{ForLoop, LValue, Stmt};
pub use types::{ScalarType, Type};

/// Render a program as source text in its own language.
pub fn render(program: &Program) -> String {
    render_as(program, program.language)
}

/// Render a program as source text in `language`. The emitters never read
/// [`Program::language`], so one program renders as either language
/// without a copy.
pub fn render_as(program: &Program, language: acc_spec::Language) -> String {
    match language {
        acc_spec::Language::C => cgen::emit_c(program),
        acc_spec::Language::Fortran => fgen::emit_fortran(program),
    }
}
