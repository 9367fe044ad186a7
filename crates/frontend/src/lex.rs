//! Lexing shared by the C and Fortran front-ends.
//!
//! Both front-ends lex to the same [`Tok`] alphabet; the differences are
//! which multi-character operators exist (`.and.` vs `&&`), how directive
//! lines are introduced (`#pragma acc` vs `!$acc`), and how comments are
//! spelled.
//!
//! The lexer makes one forward pass over the bytes of the source. It counts
//! lines as it goes, dispatches punctuation on its first byte (and the
//! second, for two-byte operators), and takes the program name from the
//! first `test program:` comment line it passes. Tokens borrow their text
//! from the source, so no token allocates.
//!
//! A directive line becomes one [`Tok::Directive`] holding its payload, the
//! text after the sentinel, borrowed from the source and not lexed here.
//! The directive grammar ([`crate::directive`]) lexes a payload with
//! `lex_payload` when it parses it, so a payload is lexed once, and a
//! malformed one fails where the parser reaches it.
//!
//! Sentinels: `acc` must be a whole word (`#pragma accel` is a non-acc
//! pragma and is ignored, `!$accel` is a comment). The Fortran sentinel
//! matches in any case (`!$ACC`, like `!$acc`); the C one is
//! case-sensitive, like the rest of C.
//!
//! Leading and trailing whitespace of a line is skipped by Unicode's rule
//! (`str::trim`); inside a line only ASCII blanks separate tokens.

use crate::diag::ParseError;
use acc_spec::Language;
use std::fmt;

/// An operator or punctuation mark, normalized to its C spelling where a C
/// equivalent exists (`.and.` lexes as [`Punct::AndAnd`], Fortran `/=` as
/// [`Punct::NotEq`]).
#[derive(Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // each variant is documented by its spelling in `as_str`
pub enum Punct {
    PlusPlus,
    MinusMinus,
    PlusEq,
    MinusEq,
    StarEq,
    SlashEq,
    PercentEq,
    AmpEq,
    PipeEq,
    CaretEq,
    EqEq,
    NotEq,
    Le,
    Ge,
    AndAnd,
    OrOr,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Lt,
    Gt,
    Assign,
    Not,
    Amp,
    Pipe,
    Caret,
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Comma,
    Semi,
    Colon,
}

impl Punct {
    /// The C spelling.
    pub const fn as_str(self) -> &'static str {
        match self {
            Punct::PlusPlus => "++",
            Punct::MinusMinus => "--",
            Punct::PlusEq => "+=",
            Punct::MinusEq => "-=",
            Punct::StarEq => "*=",
            Punct::SlashEq => "/=",
            Punct::PercentEq => "%=",
            Punct::AmpEq => "&=",
            Punct::PipeEq => "|=",
            Punct::CaretEq => "^=",
            Punct::EqEq => "==",
            Punct::NotEq => "!=",
            Punct::Le => "<=",
            Punct::Ge => ">=",
            Punct::AndAnd => "&&",
            Punct::OrOr => "||",
            Punct::Plus => "+",
            Punct::Minus => "-",
            Punct::Star => "*",
            Punct::Slash => "/",
            Punct::Percent => "%",
            Punct::Lt => "<",
            Punct::Gt => ">",
            Punct::Assign => "=",
            Punct::Not => "!",
            Punct::Amp => "&",
            Punct::Pipe => "|",
            Punct::Caret => "^",
            Punct::LParen => "(",
            Punct::RParen => ")",
            Punct::LBracket => "[",
            Punct::RBracket => "]",
            Punct::LBrace => "{",
            Punct::RBrace => "}",
            Punct::Comma => ",",
            Punct::Semi => ";",
            Punct::Colon => ":",
        }
    }

    /// The punctuation starting at `b[0]`, longest match first, with its
    /// byte length; `None` when `b[0]` starts no operator.
    fn at(b: &[u8]) -> Option<(Punct, usize)> {
        use Punct::*;
        let next = b.get(1).copied().unwrap_or(0);
        let two = |p| Some((p, 2));
        let one = |p| Some((p, 1));
        match (b[0], next) {
            (b'+', b'+') => two(PlusPlus),
            (b'+', b'=') => two(PlusEq),
            (b'+', _) => one(Plus),
            (b'-', b'-') => two(MinusMinus),
            (b'-', b'=') => two(MinusEq),
            (b'-', _) => one(Minus),
            (b'*', b'=') => two(StarEq),
            (b'*', _) => one(Star),
            (b'/', b'=') => two(SlashEq),
            (b'/', _) => one(Slash),
            (b'%', b'=') => two(PercentEq),
            (b'%', _) => one(Percent),
            (b'&', b'=') => two(AmpEq),
            (b'&', b'&') => two(AndAnd),
            (b'&', _) => one(Amp),
            (b'|', b'=') => two(PipeEq),
            (b'|', b'|') => two(OrOr),
            (b'|', _) => one(Pipe),
            (b'^', b'=') => two(CaretEq),
            (b'^', _) => one(Caret),
            (b'=', b'=') => two(EqEq),
            (b'=', _) => one(Assign),
            (b'!', b'=') => two(NotEq),
            (b'!', _) => one(Not),
            (b'<', b'=') => two(Le),
            (b'<', _) => one(Lt),
            (b'>', b'=') => two(Ge),
            (b'>', _) => one(Gt),
            (b'(', _) => one(LParen),
            (b')', _) => one(RParen),
            (b'[', _) => one(LBracket),
            (b']', _) => one(RBracket),
            (b'{', _) => one(LBrace),
            (b'}', _) => one(RBrace),
            (b',', _) => one(Comma),
            (b';', _) => one(Semi),
            (b':', _) => one(Colon),
            _ => None,
        }
    }
}

/// Prints the quoted spelling, so a message reads `found Punct(";")`.
impl fmt::Debug for Punct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// A lexical token, borrowing its text from the source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tok<'a> {
    /// Identifier or keyword (classification is the parser's job).
    Ident(&'a str),
    /// Integer literal.
    Int(i64),
    /// Real literal; `true` = double precision (C unsuffixed / Fortran `d`
    /// exponent).
    Real(f64, bool),
    /// Operator or punctuation.
    Punct(Punct),
    /// An OpenACC directive line: the payload after the sentinel, e.g.
    /// `parallel num_gangs(10)`. For Fortran `!$acc end parallel` lines the
    /// payload begins with `end `.
    Directive(&'a str),
    /// Statement separator (Fortran end-of-line; C does not emit these).
    Newline,
    /// End of input (of the directive payload, in a payload's stream).
    Eof,
}

impl Tok<'_> {
    /// True when the token is the given punctuation.
    pub fn is_punct(&self, p: Punct) -> bool {
        matches!(self, Tok::Punct(q) if *q == p)
    }

    /// True when the token is the given identifier/keyword.
    pub fn is_ident(&self, k: &str) -> bool {
        matches!(self, Tok::Ident(q) if *q == k)
    }
}

/// A token with its 1-based source line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpannedTok<'a> {
    /// The token.
    pub tok: Tok<'a>,
    /// 1-based source line.
    pub line: usize,
}

/// A lexed source file.
#[derive(Debug)]
pub struct Lexed<'a> {
    /// The tokens, ending with [`Tok::Eof`].
    pub toks: Vec<SpannedTok<'a>>,
    /// The name the first `test program:` comment line gives
    /// (`/* test program: NAME */` in C, `! test program: NAME` in
    /// Fortran), if any line does.
    pub program_name: Option<&'a str>,
}

/// Lex C source (as emitted by `acc_ast::cgen`) into tokens.
///
/// `#include` lines are skipped; `#pragma acc …` lines become
/// [`Tok::Directive`]; `/* … */` and `// …` comments are skipped.
pub fn lex_c(src: &str) -> Result<Lexed<'_>, ParseError> {
    lex_file(src, Language::C)
}

/// Lex Fortran source (as emitted by `acc_ast::fgen`) into tokens.
///
/// Every source line ends with a [`Tok::Newline`] (the statement separator);
/// `!$acc` lines become [`Tok::Directive`]; other `!` comments are skipped.
pub fn lex_fortran(src: &str) -> Result<Lexed<'_>, ParseError> {
    lex_file(src, Language::Fortran)
}

fn lex_file(src: &str, lang: Language) -> Result<Lexed<'_>, ParseError> {
    // About one token per four bytes of generated source.
    let mut toks = Vec::with_capacity(src.len() / 4 + 8);
    let mut lexer = Lexer {
        src,
        fortran: lang == Language::Fortran,
        payload: false,
        line: 1,
        out: &mut toks,
        program_name: None,
    };
    lexer.run()?;
    let program_name = lexer.program_name;
    Ok(Lexed { toks, program_name })
}

/// Lex a directive payload (the text after the sentinel, one line) into
/// `out`, which is cleared first. Every token, the closing [`Tok::Eof`]
/// included, carries `line`, the directive's line; no [`Tok::Newline`] is
/// emitted. A lexical error reads `in directive: …` at `line`.
pub(crate) fn lex_payload<'a>(
    payload: &'a str,
    lang: Language,
    line: usize,
    out: &mut Vec<SpannedTok<'a>>,
) -> Result<(), ParseError> {
    out.clear();
    Lexer {
        src: payload,
        fortran: lang == Language::Fortran,
        payload: true,
        line,
        out,
        program_name: None,
    }
    .run()
    .map_err(|e| ParseError::new(line, format!("in directive: {}", e.message)))
}

/// Bytes that continue an identifier: ASCII letters, digits and `_`.
const IDENT: [bool; 256] = {
    let mut table = [false; 256];
    let mut c = 0;
    while c < 256 {
        table[c] = (c as u8).is_ascii_alphanumeric() || c == b'_' as usize;
        c += 1;
    }
    table
};

struct Lexer<'a, 'o> {
    src: &'a str,
    fortran: bool,
    /// Lexing a directive payload: no newlines, `Eof` on the same line.
    payload: bool,
    /// The current 1-based line.
    line: usize,
    out: &'o mut Vec<SpannedTok<'a>>,
    program_name: Option<&'a str>,
}

impl<'a> Lexer<'a, '_> {
    fn push(&mut self, tok: Tok<'a>) {
        self.out.push(SpannedTok {
            tok,
            line: self.line,
        });
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(self.line, msg)
    }

    /// Index of the `\n` ending the line that holds `i`, or the source
    /// length.
    fn line_end(&self, i: usize) -> usize {
        self.src.as_bytes()[i..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(self.src.len(), |n| i + n)
    }

    fn run(&mut self) -> Result<(), ParseError> {
        let src = self.src;
        let b = src.as_bytes();
        let mut i = 0;
        while i < b.len() {
            i = self.skip_leading_space(i);
            if i < b.len() && b[i] != b'\n' {
                let before = self.out.len();
                i = match b[i] {
                    b'#' if !self.fortran => self.preprocessor_line(i),
                    b'!' if self.fortran => self.fortran_comment_line(i),
                    _ => {
                        let end = self.code_line(i)?;
                        if self.fortran && !self.payload && self.out.len() > before {
                            self.push(Tok::Newline);
                        }
                        end
                    }
                };
            }
            if i < b.len() {
                // `b[i]` is the line's `\n`.
                i += 1;
                self.line += 1;
            }
        }
        // `str::lines` counts a last line without a `\n`; `Eof` sits one
        // line past the last line.
        let eof_line = if self.payload || src.is_empty() || src.ends_with('\n') {
            self.line
        } else {
            self.line + 1
        };
        self.out.push(SpannedTok {
            tok: Tok::Eof,
            line: eof_line,
        });
        Ok(())
    }

    /// Skip whitespace at the start of a line (any `char::is_whitespace`,
    /// as `str::trim` does); stops at the line's `\n`.
    fn skip_leading_space(&self, mut i: usize) -> usize {
        let b = self.src.as_bytes();
        while let Some(&c) = b.get(i) {
            match c {
                b'\n' => break,
                b' ' | b'\t' | b'\r' | 0x0B | 0x0C => i += 1,
                c if c.is_ascii() => break,
                _ => match self.src[i..].chars().next() {
                    Some(ch) if ch.is_whitespace() => i += ch.len_utf8(),
                    _ => break,
                },
            }
        }
        i
    }

    /// A C line starting with `#`: `#pragma acc …` becomes a directive;
    /// every other preprocessor line is skipped.
    fn preprocessor_line(&mut self, i: usize) -> usize {
        let end = self.line_end(i);
        let rest = self.src[i + 1..end].trim_start();
        // Non-acc pragmas are ignored, like a real compiler would.
        if let Some(payload) = strip_word(rest, "pragma", false)
            .and_then(|pragma| strip_word(pragma.trim_start(), "acc", false))
        {
            self.push(Tok::Directive(payload.trim()));
        }
        end
    }

    /// A Fortran line starting with `!`: a `!$acc` directive, or a comment
    /// (which may name the program).
    fn fortran_comment_line(&mut self, i: usize) -> usize {
        let end = self.line_end(i);
        let line = &self.src[i..end];
        if let Some(payload) = line
            .strip_prefix("!$")
            .and_then(|rest| strip_word(rest, "acc", true))
        {
            self.push(Tok::Directive(payload.trim()));
            if !self.payload {
                self.push(Tok::Newline);
            }
        } else if self.program_name.is_none() {
            if let Some(name) = line.strip_prefix("! test program:") {
                self.program_name = Some(name.trim());
            }
        }
        end
    }

    /// Lex one line of executable code from `i`; returns the index of the
    /// line's `\n` (or the source length).
    fn code_line(&mut self, mut i: usize) -> Result<usize, ParseError> {
        let src = self.src;
        let b = src.as_bytes();
        if !self.fortran && b[i] == b'/' && self.program_name.is_none() {
            let line = src[i..self.line_end(i)].trim_end();
            if let Some(name) = line
                .strip_prefix("/* test program:")
                .and_then(|rest| rest.strip_suffix("*/"))
            {
                self.program_name = Some(name.trim());
            }
        }
        while let Some(&c) = b.get(i) {
            match c {
                b'\n' => break,
                b' ' | b'\t' | b'\r' | 0x0C => i += 1,
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                    let start = i;
                    i += 1;
                    while b.get(i).is_some_and(|&c| IDENT[c as usize]) {
                        i += 1;
                    }
                    self.push(Tok::Ident(&src[start..i]));
                }
                // Numbers (integers and reals). A leading '.' followed by a
                // digit is a real literal.
                b'0'..=b'9' => i += self.number(i)?,
                b'.' if next_is_digit(b, i + 1) => i += self.number(i)?,
                // Fortran dotted operators: .and. .or. .not.
                b'.' if self.fortran => {
                    let rest = &b[i..];
                    let (p, len) = if starts_with_ignore_case(rest, b".and.") {
                        (Punct::AndAnd, 5)
                    } else if starts_with_ignore_case(rest, b".or.") {
                        (Punct::OrOr, 4)
                    } else if starts_with_ignore_case(rest, b".not.") {
                        (Punct::Not, 5)
                    } else {
                        let near = src[i..self.line_end(i)].trim_end();
                        return Err(self.err(format!("unknown dotted operator near {near:?}")));
                    };
                    self.push(Tok::Punct(p));
                    i += len;
                }
                // Comments: C `//` and `/* … */` (one line only: the
                // generator never spans lines), Fortran trailing `!`.
                b'/' if !self.fortran && b.get(i + 1) == Some(&b'/') => return Ok(self.line_end(i)),
                b'/' if !self.fortran && b.get(i + 1) == Some(&b'*') => {
                    let end = self.line_end(i);
                    match src[i + 2..end].find("*/") {
                        Some(n) => i += 2 + n + 2,
                        None => return Err(self.err("unterminated /* comment")),
                    }
                }
                b'!' if self.fortran => return Ok(self.line_end(i)),
                // Fortran `/=` is C `!=`.
                b'/' if self.fortran && b.get(i + 1) == Some(&b'=') => {
                    self.push(Tok::Punct(Punct::NotEq));
                    i += 2;
                }
                _ => match Punct::at(&b[i..]) {
                    Some((p, len)) => {
                        self.push(Tok::Punct(p));
                        i += len;
                    }
                    None => {
                        let ch = src[i..].chars().next().unwrap_or_default();
                        let end = self.line_end(i);
                        // Trailing whitespace the ASCII blank test misses
                        // (a vertical tab, a no-break space) ends the line.
                        if ch.is_whitespace() && src[i..end].trim_start().is_empty() {
                            return Ok(end);
                        }
                        return Err(self.err(format!("unexpected character {ch:?}")));
                    }
                },
            }
        }
        Ok(i)
    }

    /// Lex the numeric literal at `i`; returns its byte length.
    fn number(&mut self, i: usize) -> Result<usize, ParseError> {
        let (tok, len) = lex_number(&self.src[i..], self.line, self.fortran)?;
        self.push(tok);
        Ok(len)
    }
}

/// `rest` without its leading `word` (`pragma` after `#`, the `acc`
/// sentinel after `#pragma` or `!$`); `None` unless `word` is a whole word
/// there. The Fortran sentinel matches in any case.
fn strip_word<'s>(rest: &'s str, word: &str, any_case: bool) -> Option<&'s str> {
    let head = rest.as_bytes().get(..word.len())?;
    let matched = if any_case {
        head.eq_ignore_ascii_case(word.as_bytes())
    } else {
        head == word.as_bytes()
    };
    if !matched {
        return None;
    }
    let tail = &rest[word.len()..];
    let continues_word = tail
        .chars()
        .next()
        .is_some_and(|c| c.is_alphanumeric() || c == '_');
    (!continues_word).then_some(tail)
}

fn starts_with_ignore_case(b: &[u8], word: &[u8]) -> bool {
    b.len() >= word.len() && b[..word.len()].eq_ignore_ascii_case(word)
}

fn next_is_digit(b: &[u8], i: usize) -> bool {
    i < b.len() && b[i].is_ascii_digit()
}

/// Lex a numeric literal. Returns the token and consumed byte length.
fn lex_number(s: &str, line_no: usize, fortran: bool) -> Result<(Tok<'static>, usize), ParseError> {
    let b = s.as_bytes();
    let mut i = 0;
    let mut has_dot = false;
    let mut has_exp = false;
    let mut is_double_exp = false;
    while i < b.len() {
        let c = b[i];
        if c.is_ascii_digit() {
            i += 1;
        } else if c == b'.' && !has_dot && !has_exp && next_is_digit(b, i + 1) {
            has_dot = true;
            i += 1;
        } else if c == b'.' && !has_dot && !has_exp {
            // Trailing dot followed by non-digit: in Fortran this could begin
            // `.and.`; stop the number here. In C the generator never emits
            // `1.` so stopping is also safe, unless followed by exponent.
            if fortran {
                break;
            }
            has_dot = true;
            i += 1;
        } else if (c == b'e' || c == b'E' || (fortran && (c == b'd' || c == b'D'))) && !has_exp {
            // Exponent must be followed by digits or a sign.
            let mut j = i + 1;
            if j < b.len() && (b[j] == b'+' || b[j] == b'-') {
                j += 1;
            }
            if next_is_digit(b, j) {
                is_double_exp = c == b'd' || c == b'D';
                has_exp = true;
                i = j;
            } else {
                break;
            }
        } else {
            break;
        }
    }
    let text = &s[..i];
    if !has_dot && !has_exp {
        // Only ASCII digits: fold them, failing on overflow as `str::parse`
        // does.
        let v = b[..i].iter().try_fold(0i64, |v, &d| {
            v.checked_mul(10)?.checked_add(i64::from(d - b'0'))
        });
        return match v {
            Some(v) => Ok((Tok::Int(v), i)),
            None => Err(ParseError::new(
                line_no,
                format!("bad integer literal {text:?}"),
            )),
        };
    }
    // Only a Fortran `d` exponent needs rewriting before `f64` parses it.
    let v: Result<f64, _> = if is_double_exp {
        text.replace(['d', 'D'], "e").parse()
    } else {
        text.parse()
    };
    let v = v.map_err(|_| ParseError::new(line_no, format!("bad real literal {text:?}")))?;
    // Real: check C `f` suffix.
    if !fortran && i < b.len() && (b[i] == b'f' || b[i] == b'F') {
        return Ok((Tok::Real(v, false), i + 1));
    }
    if fortran {
        // Fortran: `d` exponent or `d0` suffix means double; otherwise real.
        Ok((Tok::Real(v, is_double_exp), i))
    } else {
        Ok((Tok::Real(v, true), i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str, fortran: bool) -> Vec<Tok<'_>> {
        let v = if fortran {
            lex_fortran(src)
        } else {
            lex_c(src)
        }
        .unwrap();
        v.toks.into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn c_pragma_becomes_directive() {
        let t = toks("#pragma acc parallel num_gangs(10)\n{\n}\n", false);
        assert_eq!(t[0], Tok::Directive("parallel num_gangs(10)"));
        assert_eq!(t[1], Tok::Punct(Punct::LBrace));
        assert_eq!(t[2], Tok::Punct(Punct::RBrace));
        assert_eq!(t[3], Tok::Eof);
    }

    #[test]
    fn c_includes_skipped() {
        let t = toks("#include <openacc.h>\nint x;\n", false);
        assert_eq!(t[0], Tok::Ident("int"));
    }

    #[test]
    fn c_comments_skipped() {
        let t = toks("x = 1; /* inline */ y = 2; // trailing\n", false);
        let idents: Vec<_> = t
            .iter()
            .filter_map(|t| match t {
                Tok::Ident(s) => Some(*s),
                _ => None,
            })
            .collect();
        assert_eq!(idents, vec!["x", "y"]);
    }

    #[test]
    fn c_float_suffix() {
        let t = toks("a = 0.5f;\n", false);
        assert!(t.contains(&Tok::Real(0.5, false)));
        let t = toks("a = 0.5;\n", false);
        assert!(t.contains(&Tok::Real(0.5, true)));
        let t = toks("a = 1e-9;\n", false);
        assert!(t.contains(&Tok::Real(1e-9, true)));
    }

    #[test]
    fn c_multichar_ops() {
        let t = toks("a += b && c != d;\n", false);
        assert!(t.contains(&Tok::Punct(Punct::PlusEq)));
        assert!(t.contains(&Tok::Punct(Punct::AndAnd)));
        assert!(t.contains(&Tok::Punct(Punct::NotEq)));
    }

    #[test]
    fn every_operator_lexes_to_its_spelling() {
        // Longest match first: each spelling lexes back to itself alone.
        let all = [
            "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "==", "!=", "<=", ">=",
            "&&", "||", "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "(", ")", "[",
            "]", "{", "}", ",", ";", ":",
        ];
        for spelling in all {
            match toks(spelling, false).as_slice() {
                [Tok::Punct(p), Tok::Eof] => assert_eq!(p.as_str(), spelling),
                other => panic!("{spelling}: {other:?}"),
            }
        }
        assert_eq!(format!("{:?}", Tok::Punct(Punct::Semi)), "Punct(\";\")");
    }

    #[test]
    fn fortran_sentinel_and_end() {
        let t = toks("!$acc parallel\nx = 1\n!$acc end parallel\n", true);
        assert_eq!(t[0], Tok::Directive("parallel"));
        assert!(t.contains(&Tok::Directive("end parallel")));
    }

    #[test]
    fn fortran_dotted_ops_normalize() {
        let t = toks("ok = a .and. b .OR. .Not. c\n", true);
        assert!(t.contains(&Tok::Punct(Punct::AndAnd)));
        assert!(t.contains(&Tok::Punct(Punct::OrOr)));
        assert!(t.contains(&Tok::Punct(Punct::Not)));
    }

    #[test]
    fn fortran_ne_normalizes() {
        let t = toks("if (a /= b) then\n", true);
        assert!(t.contains(&Tok::Punct(Punct::NotEq)));
    }

    #[test]
    fn fortran_double_literals() {
        let t = toks("x = 0.5d0\n", true);
        assert!(t.contains(&Tok::Real(0.5, true)));
        let t = toks("x = 1d-9\n", true);
        assert!(t.contains(&Tok::Real(1e-9, true)));
        let t = toks("x = 0.5\n", true);
        assert!(t.contains(&Tok::Real(0.5, false)));
    }

    #[test]
    fn fortran_comment_lines_skipped() {
        let t = toks("! plain comment\nx = 1\n", true);
        assert_eq!(t[0], Tok::Ident("x"));
    }

    #[test]
    fn fortran_newlines_separate() {
        let t = toks("x = 1\ny = 2\n", true);
        let newlines = t.iter().filter(|t| **t == Tok::Newline).count();
        assert_eq!(newlines, 2);
    }

    #[test]
    fn number_stops_before_dotted_op_in_fortran() {
        let t = toks("ok = i == 1 .and. ok\n", true);
        assert!(t.contains(&Tok::Int(1)));
        assert!(t.contains(&Tok::Punct(Punct::AndAnd)));
    }

    #[test]
    fn negative_handled_by_parser_not_lexer() {
        let t = toks("x = -5;\n", false);
        assert!(t.contains(&Tok::Punct(Punct::Minus)));
        assert!(t.contains(&Tok::Int(5)));
    }

    #[test]
    fn unexpected_char_is_error() {
        assert!(lex_c("x = `;\n").is_err());
    }

    #[test]
    fn lines_are_counted_as_str_lines_counts_them() {
        for (src, eof) in [
            ("", 1),
            ("x", 2),
            ("x\n", 2),
            ("x\ny", 3),
            ("\n\n", 3),
            ("a\r\nb", 3),
        ] {
            let lexed = lex_c(src).unwrap();
            assert_eq!(lexed.toks.last().unwrap().line, eof, "{src:?}");
            assert_eq!(eof, src.lines().count() + 1, "{src:?}");
        }
        let lexed = lex_fortran("x = 1\n\n  y = 2\n").unwrap();
        let lines: Vec<_> = lexed.toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, [1, 1, 1, 1, 3, 3, 3, 3, 4]);
    }

    #[test]
    fn program_name_is_the_first_header_comment() {
        let c =
            lex_c("int x;\n  /* test program: first */  \n/* test program: second */\n").unwrap();
        assert_eq!(c.program_name, Some("first"));
        assert_eq!(
            lex_c("/* test program: x */ int y;\n")
                .unwrap()
                .program_name,
            None
        );
        let f = lex_fortran("! other\n! test program:  f_name \n! test program: later\n").unwrap();
        assert_eq!(f.program_name, Some("f_name"));
    }

    #[test]
    fn unicode_whitespace_trims_like_str_trim() {
        // Leading and trailing whitespace of any kind is skipped; inside a
        // line, only ASCII blanks separate tokens.
        let t = toks("\u{a0}x = 1;\u{2003}\u{b}\n", false);
        assert_eq!(
            t,
            [
                Tok::Ident("x"),
                Tok::Punct(Punct::Assign),
                Tok::Int(1),
                Tok::Punct(Punct::Semi),
                Tok::Eof
            ]
        );
        let err = lex_c("x =\u{a0}1;\n").unwrap_err();
        assert_eq!(err.message, "unexpected character '\\u{a0}'");
    }

    #[test]
    fn payload_tokens_sit_on_the_directive_line() {
        let mut out = Vec::new();
        lex_payload("parallel num_gangs(4)", Language::Fortran, 7, &mut out).unwrap();
        assert!(out.iter().all(|t| t.line == 7));
        assert_eq!(out.last().unwrap().tok, Tok::Eof);
        assert!(!out.iter().any(|t| t.tok == Tok::Newline));
        let err = lex_payload("copy(`)", Language::C, 3, &mut out).unwrap_err();
        assert_eq!(
            err.to_string(),
            "parse error at line 3: in directive: unexpected character '`'"
        );
    }
}
