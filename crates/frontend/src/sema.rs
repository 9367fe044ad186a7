//! Semantic analysis: the specification-conformance checks a front-end must
//! perform before lowering.
//!
//! The checks are deliberately those a conforming OpenACC 1.0 front-end
//! performs: clause legality per directive, rejection of 2.0-only syntax in
//! 1.0 mode, declaration-before-use, reduction-variable shape, and constant
//! `collapse` arguments. The simulated vendor compilers run this pass and
//! report compile-time errors from it — the paper's "compile-time errors are
//! assertion violations or other internal compilation errors … if the user
//! uses an OpenACC feature that is not yet supported" (§V).

use crate::cursor::is_fortran_callable;
use crate::diag::Diagnostic;
use acc_ast::{AccClause, AccDirective, Expr, Function, LValue, Program, Stmt};
use acc_spec::{DeviceType, FxHashSet, Language, SpecVersion};

/// C math intrinsics known to the runtime.
const C_INTRINSICS: &[&str] = &[
    "powf", "pow", "fabsf", "fabs", "sqrtf", "sqrt", "abs", "min", "max", "mod", "iand", "ior",
    "ieor", "malloc", "free",
];

/// Run all checks on a program. Returns the diagnostics; compilation should
/// be rejected if any has `Severity::Error`.
pub fn analyze(program: &Program, spec: SpecVersion) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let fn_names: FxHashSet<&str> = program.functions.iter().map(|f| f.name.as_str()).collect();
    for f in &program.functions {
        analyze_function(program, f, &fn_names, spec, &mut diags);
    }
    diags
}

/// True when a program has no error-severity diagnostics under `spec`.
pub fn conforms(program: &Program, spec: SpecVersion) -> bool {
    analyze(program, spec)
        .iter()
        .all(|d| d.severity < crate::diag::Severity::Error)
}

/// The names in scope in one function, borrowed from the program. The
/// predefined device-type constants (`acc_device_nvidia`, …) are scalars
/// in every scope without being stored in one.
struct Scope<'p> {
    vars: FxHashSet<&'p str>,
    arrays: FxHashSet<&'p str>,
    ptrs: FxHashSet<&'p str>,
}

impl Scope<'_> {
    /// A declared scalar or a predefined device-type constant.
    fn has_var(&self, name: &str) -> bool {
        self.vars.contains(name)
            || (name.starts_with("acc_device_") && DeviceType::from_symbol(name).is_some())
    }
}

fn analyze_function(
    program: &Program,
    f: &Function,
    fn_names: &FxHashSet<&str>,
    spec: SpecVersion,
    diags: &mut Vec<Diagnostic>,
) {
    let mut scope = Scope {
        vars: FxHashSet::default(),
        arrays: FxHashSet::default(),
        ptrs: FxHashSet::default(),
    };
    for p in &f.params {
        match p.kind {
            acc_ast::ParamKind::Scalar(_) => {
                scope.vars.insert(&p.name);
            }
            acc_ast::ParamKind::ArrayPtr(_) => {
                scope.arrays.insert(&p.name);
            }
        }
    }
    check_body(program, &f.body, &mut scope, fn_names, spec, diags);
}

fn check_body<'p>(
    program: &Program,
    body: &'p [Stmt],
    scope: &mut Scope<'p>,
    fn_names: &FxHashSet<&str>,
    spec: SpecVersion,
    diags: &mut Vec<Diagnostic>,
) {
    for s in body {
        match s {
            Stmt::DeclScalar { name, ty, init } => {
                if let Some(e) = init {
                    check_expr(program, e, scope, fn_names, diags);
                }
                scope.vars.insert(name);
                if matches!(ty, acc_ast::Type::Ptr(_)) {
                    scope.ptrs.insert(name);
                }
            }
            Stmt::DeclArray { name, dims, .. } => {
                if dims.is_empty() || dims.len() > 2 {
                    diags.push(Diagnostic::error(
                        0,
                        format!("array `{name}` must have one or two dimensions"),
                    ));
                }
                scope.arrays.insert(name);
            }
            Stmt::Assign { target, value, .. } => {
                check_lvalue(program, target, scope, fn_names, diags);
                check_expr(program, value, scope, fn_names, diags);
            }
            Stmt::For(l) => {
                check_expr(program, &l.from, scope, fn_names, diags);
                check_expr(program, &l.to, scope, fn_names, diags);
                check_expr(program, &l.step, scope, fn_names, diags);
                scope.vars.insert(&l.var);
                check_body(program, &l.body, scope, fn_names, spec, diags);
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                check_expr(program, cond, scope, fn_names, diags);
                check_body(program, then_body, scope, fn_names, spec, diags);
                check_body(program, else_body, scope, fn_names, spec, diags);
            }
            Stmt::Call { name, args } => {
                check_callee(program, name, fn_names, diags);
                for a in args {
                    check_expr(program, a, scope, fn_names, diags);
                }
            }
            Stmt::Return(e) => check_expr(program, e, scope, fn_names, diags),
            Stmt::AccBlock { dir, body } => {
                check_directive(program, dir, scope, fn_names, spec, diags);
                check_body(program, body, scope, fn_names, spec, diags);
            }
            Stmt::AccLoop { dir, l } => {
                check_directive(program, dir, scope, fn_names, spec, diags);
                check_expr(program, &l.from, scope, fn_names, diags);
                check_expr(program, &l.to, scope, fn_names, diags);
                scope.vars.insert(&l.var);
                check_body(program, &l.body, scope, fn_names, spec, diags);
            }
            Stmt::AccStandalone { dir } => {
                check_directive(program, dir, scope, fn_names, spec, diags);
            }
        }
    }
}

fn check_lvalue(
    program: &Program,
    lv: &LValue,
    scope: &Scope,
    fn_names: &FxHashSet<&str>,
    diags: &mut Vec<Diagnostic>,
) {
    match lv {
        LValue::Var(n) => {
            // Assignment to the function result name (Fortran) or a declared
            // scalar.
            if !scope.has_var(n) && !fn_names.contains(n.as_str()) {
                diags.push(Diagnostic::error(
                    0,
                    format!("assignment to undeclared variable `{n}`"),
                ));
            }
        }
        LValue::Index { base, indices } => {
            if !scope.arrays.contains(base.as_str()) && !scope.ptrs.contains(base.as_str()) {
                diags.push(Diagnostic::error(
                    0,
                    format!("indexing undeclared array `{base}`"),
                ));
            }
            for i in indices {
                check_expr(program, i, scope, fn_names, diags);
            }
        }
    }
}

fn check_callee(
    program: &Program,
    name: &str,
    fn_names: &FxHashSet<&str>,
    diags: &mut Vec<Diagnostic>,
) {
    let known = fn_names.contains(name)
        || name.starts_with("acc_")
        || C_INTRINSICS.contains(&name)
        || (program.language == Language::Fortran && is_fortran_callable(name));
    if !known {
        diags.push(Diagnostic::error(
            0,
            format!("call to undefined function `{name}`"),
        ));
    }
}

fn check_expr(
    program: &Program,
    e: &Expr,
    scope: &Scope,
    fn_names: &FxHashSet<&str>,
    diags: &mut Vec<Diagnostic>,
) {
    match e {
        Expr::Var(n) => {
            if !scope.has_var(n) && !scope.arrays.contains(n.as_str()) {
                diags.push(Diagnostic::error(
                    0,
                    format!("use of undeclared variable `{n}`"),
                ));
            }
        }
        Expr::Index { base, indices } => {
            if !scope.arrays.contains(base.as_str()) && !scope.ptrs.contains(base.as_str()) {
                diags.push(Diagnostic::error(
                    0,
                    format!("indexing undeclared array `{base}`"),
                ));
            }
            for i in indices {
                check_expr(program, i, scope, fn_names, diags);
            }
        }
        Expr::Unary(_, inner) => check_expr(program, inner, scope, fn_names, diags),
        Expr::Binary(_, l, r) => {
            check_expr(program, l, scope, fn_names, diags);
            check_expr(program, r, scope, fn_names, diags);
        }
        Expr::Call { name, args } => {
            check_callee(program, name, fn_names, diags);
            for a in args {
                check_expr(program, a, scope, fn_names, diags);
            }
        }
        Expr::Int(_) | Expr::Real(..) | Expr::SizeOf(_) => {}
    }
}

fn check_directive(
    program: &Program,
    dir: &AccDirective,
    scope: &Scope,
    fn_names: &FxHashSet<&str>,
    spec: SpecVersion,
    diags: &mut Vec<Diagnostic>,
) {
    // 2.0 syntax rejected under a 1.0 front-end.
    if dir.kind.introduced_in() > spec {
        diags.push(Diagnostic::error(
            0,
            format!(
                "directive `{}` requires OpenACC {}",
                dir.kind.name(),
                dir.kind.introduced_in()
            ),
        ));
    }
    for c in &dir.clauses {
        let kind = c.kind();
        if kind.introduced_in() > spec {
            diags.push(Diagnostic::error(
                0,
                format!(
                    "clause `{}` requires OpenACC {}",
                    kind.name(),
                    kind.introduced_in()
                ),
            ));
        } else if !dir.kind.allows(kind) {
            diags.push(Diagnostic::error(
                0,
                format!(
                    "clause `{}` is not allowed on `{}`",
                    kind.name(),
                    dir.kind.name()
                ),
            ));
        }
        match c {
            AccClause::If(e)
            | AccClause::NumGangs(e)
            | AccClause::NumWorkers(e)
            | AccClause::VectorLength(e)
            | AccClause::Async(Some(e))
            | AccClause::Gang(Some(e))
            | AccClause::Worker(Some(e))
            | AccClause::Vector(Some(e)) => check_expr(program, e, scope, fn_names, diags),
            AccClause::Collapse(e) => match e.const_int() {
                Some(n) if n >= 1 => {}
                Some(n) => diags.push(Diagnostic::error(
                    0,
                    format!("collapse({n}) must be a positive constant"),
                )),
                None => diags.push(Diagnostic::error(
                    0,
                    "collapse argument must be a compile-time constant".to_string(),
                )),
            },
            AccClause::Reduction(_, vars) => {
                for v in vars {
                    if scope.arrays.contains(v.as_str()) {
                        diags.push(Diagnostic::error(
                            0,
                            format!("reduction variable `{v}` must be scalar"),
                        ));
                    } else if !scope.has_var(v) {
                        diags.push(Diagnostic::error(
                            0,
                            format!("reduction variable `{v}` is not declared"),
                        ));
                    }
                }
            }
            AccClause::Private(vars)
            | AccClause::Firstprivate(vars)
            | AccClause::UseDevice(vars)
            | AccClause::Deviceptr(vars) => {
                for v in vars {
                    if !scope.has_var(v) && !scope.arrays.contains(v.as_str()) {
                        diags.push(Diagnostic::error(
                            0,
                            format!("variable `{v}` in `{}` clause is not declared", kind.name()),
                        ));
                    }
                }
            }
            AccClause::Data(_, refs) => {
                for r in refs {
                    if !scope.has_var(&r.name) && !scope.arrays.contains(r.name.as_str()) {
                        diags.push(Diagnostic::error(
                            0,
                            format!("variable `{}` in data clause is not declared", r.name),
                        ));
                    }
                    if let Some((start, len)) = &r.section {
                        check_expr(program, start, scope, fn_names, diags);
                        check_expr(program, len, scope, fn_names, diags);
                    }
                }
            }
            _ => {}
        }
    }
    if let Some(e) = &dir.wait_arg {
        check_expr(program, e, scope, fn_names, diags);
    }
    for r in &dir.cache_args {
        if !scope.arrays.contains(r.name.as_str()) {
            diags.push(Diagnostic::error(
                0,
                format!("cache reference `{}` is not a declared array", r.name),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cparse::parse_c;

    fn diag_count(src: &str, spec: SpecVersion) -> usize {
        let p = parse_c(src).unwrap();
        analyze(&p, spec).len()
    }

    #[test]
    fn clean_program_passes() {
        let src = "int main(void) {\n    int error = 0;\n    int a[10];\n    #pragma acc parallel copy(a[0:10])\n    {\n        #pragma acc loop\n        for (i = 0; i < 10; i++)\n        {\n            a[i] = i;\n        }\n    }\n    return error == 0;\n}\n";
        assert_eq!(diag_count(src, SpecVersion::V1_0), 0);
    }

    #[test]
    fn undeclared_variable_flagged() {
        let src = "int main(void) {\n    x = 3;\n    return 1;\n}\n";
        assert!(diag_count(src, SpecVersion::V1_0) > 0);
    }

    #[test]
    fn illegal_clause_flagged() {
        // num_gangs is not allowed on kernels.
        let src = "int main(void) {\n    #pragma acc kernels num_gangs(8)\n    {\n    }\n    return 1;\n}\n";
        let p = parse_c(src).unwrap();
        let diags = analyze(&p, SpecVersion::V1_0);
        assert!(diags.iter().any(|d| d.message.contains("not allowed")));
    }

    #[test]
    fn v2_directive_rejected_in_v1() {
        let src = "int main(void) {\n    int a[4];\n    #pragma acc enter data copyin(a[0:4])\n    return 1;\n}\n";
        let p = parse_c(src).unwrap();
        assert!(!conforms(&p, SpecVersion::V1_0));
        assert!(conforms(&p, SpecVersion::V2_0));
    }

    #[test]
    fn reduction_on_array_rejected() {
        let src = "int main(void) {\n    int a[4];\n    #pragma acc parallel reduction(+:a)\n    {\n    }\n    return 1;\n}\n";
        let p = parse_c(src).unwrap();
        assert!(!conforms(&p, SpecVersion::V1_0));
    }

    #[test]
    fn collapse_must_be_constant() {
        let src = "int main(void) {\n    int n = 2;\n    #pragma acc parallel\n    {\n        #pragma acc loop collapse(n)\n        for (i = 0; i < 4; i++)\n        {\n            n = n;\n        }\n    }\n    return 1;\n}\n";
        let p = parse_c(src).unwrap();
        assert!(!conforms(&p, SpecVersion::V1_0));
    }

    #[test]
    fn device_type_constants_predeclared() {
        let src = "int main(void) {\n    int t = 0;\n    acc_set_device_type(acc_device_not_host);\n    t = acc_get_device_type();\n    return t != acc_device_host;\n}\n";
        assert_eq!(diag_count(src, SpecVersion::V1_0), 0);
    }

    #[test]
    fn unknown_function_flagged() {
        let src = "int main(void) {\n    frobnicate(3);\n    return 1;\n}\n";
        assert!(diag_count(src, SpecVersion::V1_0) > 0);
    }

    #[test]
    fn helper_functions_resolve() {
        let src = "void helper(float* a, int n);\n\nvoid helper(float* a, int n) {\n    a[0] = n;\n}\n\nint main(void) {\n    float b[4];\n    helper(b, 4);\n    return 1;\n}\n";
        assert_eq!(diag_count(src, SpecVersion::V1_0), 0);
    }

    #[test]
    fn data_clause_undeclared_var_flagged() {
        let src = "int main(void) {\n    #pragma acc data copy(ghost[0:4])\n    {\n    }\n    return 1;\n}\n";
        assert!(diag_count(src, SpecVersion::V1_0) > 0);
    }
}
