//! The shared OpenACC directive grammar.
//!
//! Directive payloads (the text after `#pragma acc` / `!$acc`) are language-
//! independent except for array-section syntax (`a[start:len]` in C,
//! `a(lo:hi)` inclusive in Fortran) and reduction-operator spellings. Both
//! front-ends normalize into the same [`AccDirective`] representation.

use crate::cursor::{parse_expr, Cursor};
use crate::diag::ParseError;
use crate::lex::{lex_payload, Punct, SpannedTok, Tok};
use acc_ast::{fgen, AccClause, AccDirective, DataRef, Expr, Name};
use acc_spec::{ClauseKind, DirectiveKind, Language, ReductionOp};

/// Parse a directive payload (text after the sentinel) into an
/// [`AccDirective`]. Errors report `line`, the directive's line.
pub fn parse_directive(
    payload: &str,
    lang: Language,
    line: usize,
) -> Result<AccDirective, ParseError> {
    parse_directive_with(payload, lang, line, &mut Vec::new())
}

/// [`parse_directive`], lexing the payload into `buf`: a parser that
/// passes the same buffer for every directive allocates tokens once.
pub(crate) fn parse_directive_with<'a>(
    payload: &'a str,
    lang: Language,
    line: usize,
    buf: &mut Vec<SpannedTok<'a>>,
) -> Result<AccDirective, ParseError> {
    // Every payload token, the closing `Eof` included, sits on `line`, so
    // every error below reports the directive's line.
    lex_payload(payload, lang, line, buf)?;
    let mut c = Cursor::new(buf);
    let kind = parse_kind(&mut c, line)?;
    let mut dir = AccDirective::new(kind);
    match kind {
        DirectiveKind::Wait if c.eat_punct(Punct::LParen) => {
            dir.wait_arg = Some(parse_expr(&mut c, lang)?);
            c.expect_punct(Punct::RParen)?;
        }
        DirectiveKind::Cache => {
            c.expect_punct(Punct::LParen)?;
            dir.cache_args = parse_dataref_list(&mut c, lang)?;
            c.expect_punct(Punct::RParen)?;
        }
        _ => {}
    }
    while !c.at_eof() {
        let clause = parse_clause(&mut c, lang, line)?;
        dir.clauses.push(clause);
    }
    Ok(dir)
}

fn parse_kind(c: &mut Cursor<'_>, line: usize) -> Result<DirectiveKind, ParseError> {
    let kind = match c.expect_ident_text()? {
        "parallel" => {
            if c.eat_ident("loop") {
                DirectiveKind::ParallelLoop
            } else {
                DirectiveKind::Parallel
            }
        }
        "kernels" => {
            if c.eat_ident("loop") {
                DirectiveKind::KernelsLoop
            } else {
                DirectiveKind::Kernels
            }
        }
        "data" => DirectiveKind::Data,
        "host_data" => DirectiveKind::HostData,
        "loop" => DirectiveKind::Loop,
        "cache" => DirectiveKind::Cache,
        "update" => DirectiveKind::Update,
        "wait" => DirectiveKind::Wait,
        "declare" => DirectiveKind::Declare,
        "enter" => {
            c.expect_ident("data")?;
            DirectiveKind::EnterData
        }
        "exit" => {
            c.expect_ident("data")?;
            DirectiveKind::ExitData
        }
        "routine" => DirectiveKind::Routine,
        other => {
            return Err(ParseError::new(
                line,
                format!("unknown OpenACC directive {other:?}"),
            ))
        }
    };
    Ok(kind)
}

fn parse_clause(c: &mut Cursor<'_>, lang: Language, line: usize) -> Result<AccClause, ParseError> {
    let clause = match c.expect_ident_text()? {
        "if" => AccClause::If(paren_expr(c, lang)?),
        "async" => {
            if c.eat_punct(Punct::LParen) {
                let e = parse_expr(c, lang)?;
                c.expect_punct(Punct::RParen)?;
                AccClause::Async(Some(e))
            } else {
                AccClause::Async(None)
            }
        }
        "num_gangs" => AccClause::NumGangs(paren_expr(c, lang)?),
        "num_workers" => AccClause::NumWorkers(paren_expr(c, lang)?),
        "vector_length" => AccClause::VectorLength(paren_expr(c, lang)?),
        "collapse" => AccClause::Collapse(paren_expr(c, lang)?),
        "reduction" => {
            c.expect_punct(Punct::LParen)?;
            let op = parse_reduction_op(c, line)?;
            c.expect_punct(Punct::Colon)?;
            let vars = parse_name_list(c)?;
            c.expect_punct(Punct::RParen)?;
            AccClause::Reduction(op, vars)
        }
        "private" => AccClause::Private(paren_name_list(c)?),
        "firstprivate" => AccClause::Firstprivate(paren_name_list(c)?),
        "deviceptr" => AccClause::Deviceptr(paren_name_list(c)?),
        "use_device" => AccClause::UseDevice(paren_name_list(c)?),
        "gang" => opt_width(c, lang, AccClause::Gang)?,
        "worker" => opt_width(c, lang, AccClause::Worker)?,
        "vector" => opt_width(c, lang, AccClause::Vector)?,
        "seq" => AccClause::Seq,
        "independent" => AccClause::Independent,
        "auto" => AccClause::Auto,
        "default" => {
            c.expect_punct(Punct::LParen)?;
            c.expect_ident("none")?;
            c.expect_punct(Punct::RParen)?;
            AccClause::DefaultNone
        }
        "host" => data_clause(c, lang, ClauseKind::HostClause)?,
        "device" => data_clause(c, lang, ClauseKind::DeviceClause)?,
        "delete" => data_clause(c, lang, ClauseKind::Delete)?,
        "device_resident" => data_clause(c, lang, ClauseKind::DeviceResident)?,
        other => match ClauseKind::from_name(other) {
            Some(kind)
                if matches!(
                    kind,
                    ClauseKind::Copy
                        | ClauseKind::Copyin
                        | ClauseKind::Copyout
                        | ClauseKind::Create
                        | ClauseKind::Present
                        | ClauseKind::PresentOrCopy
                        | ClauseKind::PresentOrCopyin
                        | ClauseKind::PresentOrCopyout
                        | ClauseKind::PresentOrCreate
                ) =>
            {
                data_clause(c, lang, kind)?
            }
            _ => {
                return Err(ParseError::new(
                    line,
                    format!("unknown OpenACC clause {other:?}"),
                ))
            }
        },
    };
    Ok(clause)
}

fn paren_expr(c: &mut Cursor<'_>, lang: Language) -> Result<Expr, ParseError> {
    c.expect_punct(Punct::LParen)?;
    let e = parse_expr(c, lang)?;
    c.expect_punct(Punct::RParen)?;
    Ok(e)
}

fn opt_width(
    c: &mut Cursor<'_>,
    lang: Language,
    mk: fn(Option<Expr>) -> AccClause,
) -> Result<AccClause, ParseError> {
    if c.peek().is_punct(Punct::LParen) {
        Ok(mk(Some(paren_expr(c, lang)?)))
    } else {
        Ok(mk(None))
    }
}

fn parse_name_list(c: &mut Cursor<'_>) -> Result<Vec<Name>, ParseError> {
    let mut names = vec![c.expect_any_ident()?];
    while c.eat_punct(Punct::Comma) {
        names.push(c.expect_any_ident()?);
    }
    Ok(names)
}

fn paren_name_list(c: &mut Cursor<'_>) -> Result<Vec<Name>, ParseError> {
    c.expect_punct(Punct::LParen)?;
    let names = parse_name_list(c)?;
    c.expect_punct(Punct::RParen)?;
    Ok(names)
}

fn data_clause(
    c: &mut Cursor<'_>,
    lang: Language,
    kind: ClauseKind,
) -> Result<AccClause, ParseError> {
    c.expect_punct(Punct::LParen)?;
    let refs = parse_dataref_list(c, lang)?;
    c.expect_punct(Punct::RParen)?;
    Ok(AccClause::Data(kind, refs))
}

/// Parse a comma-separated data-reference list (stops before the closing
/// `)` of the clause).
fn parse_dataref_list(c: &mut Cursor<'_>, lang: Language) -> Result<Vec<DataRef>, ParseError> {
    let mut refs = vec![parse_dataref(c, lang)?];
    while c.eat_punct(Punct::Comma) {
        refs.push(parse_dataref(c, lang)?);
    }
    Ok(refs)
}

fn parse_dataref(c: &mut Cursor<'_>, lang: Language) -> Result<DataRef, ParseError> {
    let name = c.expect_any_ident()?;
    let (open, close) = match lang {
        Language::C => (Punct::LBracket, Punct::RBracket),
        Language::Fortran => (Punct::LParen, Punct::RParen),
    };
    if !c.eat_punct(open) {
        return Ok(DataRef::whole(name));
    }
    let start = parse_expr(c, lang)?;
    c.expect_punct(Punct::Colon)?;
    let end = parse_expr(c, lang)?;
    c.expect_punct(close)?;
    let len = match lang {
        Language::C => end,
        // Normalize inclusive lo:hi to (start, length).
        Language::Fortran if matches!(start, Expr::Int(0)) => fgen::add_one(&end),
        Language::Fortran => fgen::add_one(&Expr::sub(end, start.clone())),
    };
    Ok(DataRef {
        name,
        section: Some((start, len)),
    })
}

fn parse_reduction_op(c: &mut Cursor<'_>, line: usize) -> Result<ReductionOp, ParseError> {
    // Operator may arrive as punctuation (C symbols, or Fortran `.and.`
    // already normalized to `&&` by the lexer) or an identifier
    // (`max`, `min`, `iand`, `ior`, `ieor`).
    match c.next() {
        Tok::Punct(p) => ReductionOp::from_c_symbol(p.as_str()).ok_or_else(|| {
            ParseError::new(line, format!("unknown reduction operator {:?}", p.as_str()))
        }),
        Tok::Ident(name) => match name {
            "max" => Ok(ReductionOp::Max),
            "min" => Ok(ReductionOp::Min),
            "iand" => Ok(ReductionOp::BitAnd),
            "ior" => Ok(ReductionOp::BitOr),
            "ieor" => Ok(ReductionOp::BitXor),
            other => Err(ParseError::new(
                line,
                format!("unknown reduction operator {other:?}"),
            )),
        },
        other => Err(ParseError::new(
            line,
            format!("expected reduction operator, found {other:?}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c_dir(payload: &str) -> AccDirective {
        parse_directive(payload, Language::C, 1).unwrap()
    }

    fn f_dir(payload: &str) -> AccDirective {
        parse_directive(payload, Language::Fortran, 1).unwrap()
    }

    #[test]
    fn parallel_with_clauses_round_trips() {
        let d = c_dir("parallel num_gangs(10) copy(A[0:100]) if(sum < N)");
        assert_eq!(d.kind, DirectiveKind::Parallel);
        assert_eq!(
            d.to_string(),
            "#pragma acc parallel num_gangs(10) copy(A[0:100]) if(sum < N)"
        );
    }

    #[test]
    fn combined_constructs() {
        assert_eq!(c_dir("parallel loop").kind, DirectiveKind::ParallelLoop);
        assert_eq!(c_dir("kernels loop").kind, DirectiveKind::KernelsLoop);
        assert_eq!(c_dir("parallel").kind, DirectiveKind::Parallel);
    }

    #[test]
    fn reduction_c_symbols() {
        for (src, op) in [
            ("loop reduction(+:s)", ReductionOp::Add),
            ("loop reduction(*:s)", ReductionOp::Mul),
            ("loop reduction(max:s)", ReductionOp::Max),
            ("loop reduction(&&:s)", ReductionOp::LogicalAnd),
            ("loop reduction(^:s)", ReductionOp::BitXor),
        ] {
            match &c_dir(src).clauses[0] {
                AccClause::Reduction(o, vars) => {
                    assert_eq!(*o, op);
                    assert_eq!(vars, &["s".to_string()]);
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn reduction_fortran_spellings() {
        for (src, op) in [
            ("loop reduction(.and.:ok)", ReductionOp::LogicalAnd),
            ("loop reduction(iand:m)", ReductionOp::BitAnd),
            ("loop reduction(ieor:m)", ReductionOp::BitXor),
        ] {
            match &f_dir(src).clauses[0] {
                AccClause::Reduction(o, _) => assert_eq!(*o, op),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn fortran_sections_normalize_to_start_len() {
        let d = f_dir("data copyin(a(0:n - 1))");
        match &d.clauses[0] {
            AccClause::Data(ClauseKind::Copyin, refs) => {
                let (start, len) = refs[0].section.clone().unwrap();
                assert_eq!(start, Expr::int(0));
                assert_eq!(len, Expr::var("n"));
            }
            other => panic!("{other:?}"),
        }
        let d = f_dir("data copy(a(2:6))");
        match &d.clauses[0] {
            AccClause::Data(_, refs) => {
                let (start, len) = refs[0].section.clone().unwrap();
                assert_eq!(start, Expr::int(2));
                assert_eq!(len, Expr::int(5));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn wait_directive_with_tag() {
        let d = c_dir("wait(tag)");
        assert_eq!(d.kind, DirectiveKind::Wait);
        assert_eq!(d.wait_arg, Some(Expr::var("tag")));
        let d = c_dir("wait");
        assert_eq!(d.wait_arg, None);
    }

    #[test]
    fn cache_directive() {
        let d = c_dir("cache(a[0:8], b)");
        assert_eq!(d.kind, DirectiveKind::Cache);
        assert_eq!(d.cache_args.len(), 2);
        assert_eq!(d.cache_args[1], DataRef::whole("b"));
    }

    #[test]
    fn update_host_device() {
        let d = c_dir("update host(a[0:n]) device(b)");
        assert_eq!(d.kind, DirectiveKind::Update);
        assert_eq!(d.clauses.len(), 2);
        assert_eq!(d.clauses[0].kind(), ClauseKind::HostClause);
        assert_eq!(d.clauses[1].kind(), ClauseKind::DeviceClause);
    }

    #[test]
    fn present_or_abbreviations() {
        let d = c_dir("data pcopy(a) pcopyin(b) pcreate(d)");
        let kinds: Vec<_> = d.clauses.iter().map(|c| c.kind()).collect();
        assert_eq!(
            kinds,
            vec![
                ClauseKind::PresentOrCopy,
                ClauseKind::PresentOrCopyin,
                ClauseKind::PresentOrCreate
            ]
        );
    }

    #[test]
    fn loop_schedule_clauses() {
        let d = c_dir("loop gang worker(4) vector(32) independent");
        assert!(d.has(ClauseKind::Gang));
        match d.find(ClauseKind::Worker) {
            Some(AccClause::Worker(Some(e))) => assert_eq!(e.const_int(), Some(4)),
            other => panic!("{other:?}"),
        }
        assert!(d.has(ClauseKind::Independent));
    }

    #[test]
    fn v2_directives_parse() {
        assert_eq!(c_dir("enter data copyin(a)").kind, DirectiveKind::EnterData);
        assert_eq!(c_dir("exit data delete(a)").kind, DirectiveKind::ExitData);
        assert_eq!(c_dir("routine seq").kind, DirectiveKind::Routine);
        assert_eq!(
            c_dir("parallel default(none)").clauses[0],
            AccClause::DefaultNone
        );
    }

    #[test]
    fn unknown_directive_and_clause_error() {
        assert!(parse_directive("banana", Language::C, 1).is_err());
        assert!(parse_directive("parallel banana(3)", Language::C, 1).is_err());
    }

    #[test]
    fn private_and_firstprivate() {
        let d = c_dir("parallel private(x, y) firstprivate(z)");
        match &d.clauses[0] {
            AccClause::Private(v) => assert_eq!(v, &["x".to_string(), "y".to_string()]),
            other => panic!("{other:?}"),
        }
        match &d.clauses[1] {
            AccClause::Firstprivate(v) => assert_eq!(v, &["z".to_string()]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn declare_with_create() {
        let d = c_dir("declare create(buf[0:256]) device_resident(tmp)");
        assert_eq!(d.kind, DirectiveKind::Declare);
        assert_eq!(d.clauses.len(), 2);
    }
}
