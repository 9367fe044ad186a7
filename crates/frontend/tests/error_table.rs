//! Every parse-error text the front-ends print, pinned.
//!
//! `accvv expand` prints these messages for a malformed template, and a
//! vendor compile error carries them into reports, so their wording, the
//! token spelling inside them and their line numbers are user-visible.
//! Each row is one malformed C, Fortran or directive input and the exact
//! `ParseError` it yields.

use acc_frontend::parse;
use acc_spec::Language::{self, Fortran, C};

/// A C `main` around `body` (lines 1 and 2 are the header and `{`).
fn c_main(body: &str) -> String {
    format!("int main(void) {{\n{body}    return 1;\n}}\n")
}

/// A Fortran `main` around `body` (the body starts on line 3).
fn f_main(body: &str) -> String {
    format!("integer function main()\n    implicit none\n{body}    main = 1\n    return\nend function main\n")
}

fn rows() -> Vec<(&'static str, Language, String, &'static str)> {
    let deep = format!("{}1{}", "(".repeat(300), ")".repeat(300));
    vec![
        // `expected …, found {:?}` with each token kind.
        ("punct_found_ident", C, c_main("    x = 1\n    y = 2;\n"), "parse error at line 3: expected \";\", found Ident(\"y\")"),
        ("punct_found_int", C, c_main("    A[1 2] = 3;\n"), "parse error at line 2: expected \"]\", found Int(2)"),
        ("punct_found_real", C, c_main("    A[1 0.5] = 3;\n"), "parse error at line 2: expected \"]\", found Real(0.5, true)"),
        ("punct_found_punct", C, c_main("    x = (1;\n"), "parse error at line 2: expected \")\", found Punct(\";\")"),
        ("punct_found_directive", C, c_main("    x = (1\n    #pragma acc wait\n"), "parse error at line 3: expected \")\", found Directive(\"wait\")"),
        ("punct_found_eof", C, "int main(void) {\n    x = 1".to_string(), "parse error at line 3: expected \";\", found Eof"),
        ("punct_found_newline", Fortran, f_main("    call foo(1\n"), "parse error at line 3: expected \")\", found Newline"),
        ("end_of_stmt_found_int", Fortran, f_main("    main = 1 2\n"), "parse error at line 3: expected end of statement, found Int(2)"),
        ("end_of_stmt_found_real", Fortran, f_main("    main = 1 0.5d0\n"), "parse error at line 3: expected end of statement, found Real(0.5, true)"),
        ("end_of_stmt_found_punct", Fortran, f_main("    main = 1 )\n"), "parse error at line 3: expected end of statement, found Punct(\")\")"),
        ("any_ident_found_int", C, c_main("    int 5;\n"), "parse error at line 2: expected identifier, found Int(5)"),
        ("keyword_found_ident", Fortran, "double function main()\n".to_string(), "parse error at line 1: expected \"precision\", found Ident(\"function\")"),
        ("expression_found_punct", C, c_main("    x = ;\n"), "parse error at line 2: expected expression, found Punct(\";\")"),
        ("statement_found_punct", C, c_main("    ;\n"), "parse error at line 2: expected statement, found Punct(\";\")"),
        ("statement_found_int", Fortran, f_main("    5\n"), "parse error at line 3: expected statement, found Int(5)"),
        ("assignment_found_punct", C, c_main("    x < 3;\n"), "parse error at line 2: expected assignment operator, found Punct(\"<\")"),
        ("return_type", C, "long main(void) {\n}\n".to_string(), "parse error at line 1: expected return type, found \"long\""),
        ("param_type", C, "void f(long x);\n".to_string(), "parse error at line 1: expected type, found \"long\""),
        ("function_header", Fortran, "program main\n".to_string(), "parse error at line 1: expected function header, found \"program\""),
        ("array_dimension", C, c_main("    int A[0];\n"), "parse error at line 2: array dimension must be a positive integer literal, found Int(0)"),
        ("integer_kind", Fortran, f_main("    integer(4) :: p\n"), "parse error at line 3: unsupported integer kind Int(4)"),
        ("zero_based", Fortran, f_main("    integer :: a(1:4)\n"), "parse error at line 3: array declarations are 0-based in the dialect, found Int(1)"),
        ("array_bound", Fortran, f_main("    integer :: a(0:n)\n"), "parse error at line 3: bad array bound Ident(\"n\")"),
        // Directives: names, clauses, operators, and their arguments.
        ("unknown_directive", C, c_main("    #pragma acc banana\n"), "parse error at line 2: unknown OpenACC directive \"banana\""),
        ("unknown_clause", C, c_main("    #pragma acc parallel banana(3)\n    {\n    }\n"), "parse error at line 2: unknown OpenACC clause \"banana\""),
        ("unknown_reduction_symbol", C, c_main("    #pragma acc parallel loop reduction(-:s)\n"), "parse error at line 2: unknown reduction operator \"-\""),
        ("unknown_reduction_name", Fortran, f_main("!$acc parallel loop reduction(foo:s)\n"), "parse error at line 3: unknown reduction operator \"foo\""),
        ("reduction_found_int", C, c_main("    #pragma acc parallel loop reduction(3:s)\n"), "parse error at line 2: expected reduction operator, found Int(3)"),
        ("clause_paren_found_int", C, c_main("    #pragma acc parallel num_gangs 4\n"), "parse error at line 2: expected \"(\", found Int(4)"),
        ("clause_paren_found_eof", C, c_main("    #pragma acc parallel num_gangs(4\n"), "parse error at line 2: expected \")\", found Eof"),
        ("clause_section_found_eof", Fortran, f_main("!$acc data copy(a(0:\n"), "parse error at line 3: expected expression, found Eof"),
        ("enter_without_data", C, c_main("    #pragma acc enter foo\n"), "parse error at line 2: expected \"data\", found Ident(\"foo\")"),
        ("directive_without_name", C, c_main("    #pragma acc (\n"), "parse error at line 2: expected identifier, found Punct(\"(\")"),
        ("payload_lex_error", C, c_main("    #pragma acc parallel num_gangs(`)\n"), "parse error at line 2: in directive: unexpected character '`'"),
        // Lexical errors.
        ("unterminated_comment", C, c_main("    x = 1; /* open\n"), "parse error at line 2: unterminated /* comment"),
        ("unknown_dotted_operator", Fortran, f_main("    main = a .xor. b\n"), "parse error at line 3: unknown dotted operator near \".xor. b\""),
        ("integer_overflow", C, c_main("    x = 99999999999999999999;\n"), "parse error at line 2: bad integer literal \"99999999999999999999\""),
        ("unexpected_character", C, c_main("    x = `;\n"), "parse error at line 2: unexpected character '`'"),
        // Non-ASCII input names the real character. (These four once named
        // its first UTF-8 byte read as Latin-1: 'Ã', 'â', 'ï' and 'ð'.)
        ("non_ascii_two_bytes", C, c_main("    x = é;\n"), "parse error at line 2: unexpected character 'é'"),
        ("non_ascii_three_bytes", C, c_main("    x = €;\n"), "parse error at line 2: unexpected character '€'"),
        ("byte_order_mark", C, format!("\u{feff}{}", c_main("")), "parse error at line 1: unexpected character '\\u{feff}'"),
        ("non_ascii_fortran", Fortran, f_main("    main = 😀\n"), "parse error at line 3: unexpected character '😀'"),
        // Structure.
        ("nesting_limit", C, c_main(&format!("    x = {deep};\n")), "parse error at line 2: nesting exceeds the 200-level parser limit"),
        ("missing_end", Fortran, "integer function main()\n    implicit none\n!$acc parallel\n    main = 1\n".to_string(), "parse error at line 5: missing `!$acc end parallel`, found Eof"),
        ("missing_end_before_footer", Fortran, f_main("!$acc parallel\n"), "parse error at line 6: expected \"=\", found Ident(\"function\")"),
        ("unmatched_end", Fortran, f_main("!$acc end parallel\n"), "parse error at line 4: unmatched `!$acc end parallel`"),
        ("c_loop_without_for", C, c_main("    #pragma acc loop\n    x = 1;\n"), "parse error at line 3: loop directive must be followed by a for loop"),
        ("fortran_loop_without_do", Fortran, f_main("!$acc loop\n    main = 2\n"), "parse error at line 4: loop directive must be followed by a do loop"),
        ("unexpected_end_of_block", C, "int main(void) {\n    x = 1;\n".to_string(), "parse error at line 3: unexpected end of file in block"),
    ]
}

#[test]
fn every_malformed_input_yields_its_pinned_message() {
    let mut wrong = Vec::new();
    for (label, lang, src, want) in rows() {
        let got = match parse(&src, lang) {
            Ok(p) => format!("parsed: {p:?}"),
            Err(e) => e.to_string(),
        };
        if got != want {
            wrong.push(format!("{label}:\n   got: {got}\n  want: {want}"));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
