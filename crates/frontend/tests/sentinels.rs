//! Directive sentinels and the characters the lexer reports.
//!
//! `pragma` after `#` and `acc` after `#pragma` or `!$` must be whole
//! words, and the Fortran sentinel matches in any case, so an upper-case
//! directive line reaches the directive grammar instead of vanishing as a
//! comment. A character the lexer rejects is named whole, not by its
//! first UTF-8 byte.

use acc_frontend::lex::{lex_c, lex_fortran};
use acc_frontend::parse;
use acc_spec::Language::{Fortran, C};

fn lex_error(src: &str) -> String {
    lex_c(src).unwrap_err().to_string()
}

#[test]
fn a_two_byte_character_is_named_whole() {
    assert_eq!(
        lex_error("x = é;\n"),
        "parse error at line 1: unexpected character 'é'"
    );
}

#[test]
fn a_three_byte_character_is_named_whole() {
    assert_eq!(
        lex_error("x = €;\n"),
        "parse error at line 1: unexpected character '€'"
    );
}

#[test]
fn a_byte_order_mark_is_named_whole() {
    assert_eq!(
        lex_error("\u{feff}int main(void) {\n}\n"),
        "parse error at line 1: unexpected character '\\u{feff}'"
    );
    let f = lex_fortran("x = 😀\n").unwrap_err().to_string();
    assert_eq!(f, "parse error at line 1: unexpected character '😀'");
}

#[test]
fn a_pragma_whose_word_only_starts_with_acc_is_ignored() {
    let src = "int main(void) {\n    #pragma accel vectorize\n    return 1;\n}\n";
    let p = parse(src, C).unwrap();
    assert!(p.directives().is_empty());
    // `acc` followed by a non-word character still is the sentinel.
    let src = "int main(void) {\n    #pragma acc(\n    return 1;\n}\n";
    assert_eq!(
        parse(src, C).unwrap_err().to_string(),
        "parse error at line 2: expected identifier, found Punct(\"(\")"
    );
}

#[test]
fn a_preprocessor_word_that_only_starts_with_pragma_is_no_pragma() {
    let src = "int main(void) {\n    #pragmaacc parallel\n    {\n    }\n    return 1;\n}\n";
    let p = parse(src, C).unwrap();
    assert!(p.directives().is_empty());
    // Any whitespace may separate the two words.
    let src = "int main(void) {\n    #pragma\tacc parallel\n    {\n    }\n    return 1;\n}\n";
    assert_eq!(parse(src, C).unwrap().directives().len(), 1);
}

#[test]
fn a_fortran_comment_whose_word_only_starts_with_acc_is_a_comment() {
    let src = "integer function main()\n    implicit none\n!$accel parallel\n    main = 1\n    return\nend function main\n";
    let p = parse(src, Fortran).unwrap();
    assert!(p.directives().is_empty());
}

#[test]
fn an_upper_case_fortran_sentinel_reaches_the_directive_grammar() {
    // The dialect's keywords are lower case, so the region is an error,
    // not two comment lines that silently drop the directive.
    let src = "integer function main()\n    implicit none\n!$ACC PARALLEL\n    main = 1\n!$ACC END PARALLEL\n    return\nend function main\n";
    assert_eq!(
        parse(src, Fortran).unwrap_err().to_string(),
        "parse error at line 3: unknown OpenACC directive \"PARALLEL\""
    );
    // With lower-case keywords the sentinel's case does not matter.
    let src = "integer function main()\n    implicit none\n!$ACC parallel\n    main = 1\n!$Acc end parallel\n    return\nend function main\n";
    assert_eq!(parse(src, Fortran).unwrap().directives().len(), 1);
}
