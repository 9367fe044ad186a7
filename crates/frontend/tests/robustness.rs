//! Robustness fuzzing: the front-ends must never panic — arbitrary input
//! yields `Ok(program)` or a clean `ParseError`, and directive payloads of
//! any shape are likewise total.

use acc_spec::Language;
use proptest::prelude::*;

/// Characters weighted toward the language's own alphabet so the fuzzer
/// spends its budget inside the grammar, not on immediate lex errors.
fn soup() -> impl Strategy<Value = String> {
    let atom = prop_oneof![
        8 => prop::sample::select(vec![
            "int", "float", "double", "void", "main", "for", "if", "else", "return", "(", ")",
            "{", "}", "[", "]", ";", ",", "=", "+", "-", "*", "/", "%", "<", ">", "!", "&&",
            "||", "==", "!=", "+=", "0", "1", "42", "0.5f", "1e-9", "x", "A", "i", "n",
            "#pragma acc", "parallel", "kernels", "loop", "data", "copy", "copyin", "num_gangs",
            "reduction", "async", "wait", "acc_malloc", "sizeof", ":",
        ]).prop_map(str::to_string),
        2 => "[ -~]{0,6}".prop_map(|s| s),
        1 => prop::sample::select(vec![
            "do", "end", "function", "subroutine", "integer", "real", "implicit", "none",
            "call", "then", "!$acc", ".and.", ".or.", ".not.", "/=", "::",
            // Sentinel look-alikes: an upper-case sentinel, and `acc` as
            // the prefix of a longer word.
            "!$ACC", "#pragma accel", "!$accel",
        ]).prop_map(str::to_string),
    ];
    prop::collection::vec(atom, 0..60).prop_map(|parts| {
        let mut s = String::new();
        for (i, p) in parts.iter().enumerate() {
            s.push_str(p);
            s.push(if i % 7 == 6 { '\n' } else { ' ' });
        }
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn c_parser_is_total(src in soup()) {
        let _ = acc_frontend::parse(&src, Language::C);
    }

    #[test]
    fn fortran_parser_is_total(src in soup()) {
        let _ = acc_frontend::parse(&src, Language::Fortran);
    }

    #[test]
    fn directive_parser_is_total(payload in soup()) {
        let one_line = payload.replace('\n', " ");
        for lang in [Language::C, Language::Fortran] {
            let _ = acc_frontend::directive::parse_directive(&one_line, lang, 1);
        }
    }

    /// Printable ASCII plus the characters a byte-level lexer must not
    /// split: blanks, and UTF-8 of two, three and four bytes (a byte order
    /// mark among them). The stub enumerates a class, so it lists them.
    #[test]
    fn lexers_are_total(src in "[ -~\n\t\ré€😀\u{feff}]{0,200}") {
        let _ = acc_frontend::lex::lex_c(&src);
        let _ = acc_frontend::lex::lex_fortran(&src);
        let one_line = src.replace('\n', " ");
        for lang in [Language::C, Language::Fortran] {
            let _ = acc_frontend::parse(&src, lang);
            let _ = acc_frontend::directive::parse_directive(&one_line, lang, 1);
        }
    }

    #[test]
    fn sema_is_total_on_parsed_programs(src in soup()) {
        // Whatever parses must also be analyzable without panicking.
        if let Ok(p) = acc_frontend::parse(&src, Language::C) {
            let _ = acc_frontend::sema::analyze(&p, acc_spec::SpecVersion::V1_0);
        }
    }
}
