//! The test-template format and expansion engine.
//!
//! §III: "The test code is written based on template, i.e., a test code is
//! written following an html syntax structure that includes the OpenACC
//! directive/clause to be tested. The test infrastructure … will then be
//! used to parse the template and automatically generate the associated
//! test codes" — both functional and cross, in C and Fortran, from one base.
//!
//! A template looks like:
//!
//! ```text
//! <acctest name="loop" feature="loop" cross="remove-directive:loop"
//!          languages="c,fortran" repetitions="3">
//! <description>loop directive shares iterations across gangs</description>
//! <env ACC_DEVICE_TYPE="NVIDIA"/>
//! <code>
//! int main(void) {
//!     ...
//! }
//! </code>
//! </acctest>
//! ```
//!
//! The `<code>` body is the test base in C syntax; the expansion engine
//! parses it with the reference front-end into the shared AST, from which
//! the four generated programs (functional/cross × C/Fortran) are rendered.
//! One file may contain any number of `<acctest>` elements.

use crate::case::{TestCase, DEFAULT_REPETITIONS};
use crate::cross::CrossRule;
use acc_spec::envvar::EnvConfig;
use acc_spec::Language;
use std::fmt;

/// Template parse/expansion failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemplateError {
    /// Offending template (if identified).
    pub template: String,
    /// Message.
    pub message: String,
}

impl fmt::Display for TemplateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.template.is_empty() {
            write!(f, "template error: {}", self.message)
        } else {
            write!(f, "template `{}`: {}", self.template, self.message)
        }
    }
}

impl std::error::Error for TemplateError {}

fn err(template: &str, message: impl Into<String>) -> TemplateError {
    TemplateError {
        template: template.to_string(),
        message: message.into(),
    }
}

/// Parse every `<acctest>` element in `input` into test cases.
pub fn parse_templates(input: &str) -> Result<Vec<TestCase>, TemplateError> {
    let mut cases = Vec::new();
    let mut rest = input;
    while let Some(start) = rest.find("<acctest") {
        let after = &rest[start..];
        let close = after
            .find("</acctest>")
            .ok_or_else(|| err("", "unterminated <acctest> element"))?;
        let element = &after[..close];
        cases.push(parse_one(element)?);
        rest = &after[close + "</acctest>".len()..];
    }
    if cases.is_empty() {
        return Err(err("", "no <acctest> elements found"));
    }
    Ok(cases)
}

fn parse_one(element: &str) -> Result<TestCase, TemplateError> {
    // Attribute head: up to the first '>' OUTSIDE quoted attribute values
    // (cross specs like `replace-clause:a.b->c` legitimately contain '>').
    let head_end = tag_close(element).ok_or_else(|| err("", "malformed <acctest> opening tag"))?;
    let head = &element["<acctest".len()..head_end];
    let body = &element[head_end + 1..];

    let attrs = parse_attrs(head);
    let name = attr(&attrs, "name").ok_or_else(|| err("", "<acctest> requires name=\"…\""))?;
    let feature = attr(&attrs, "feature").unwrap_or_else(|| name.clone());
    let cross = match attr(&attrs, "cross") {
        None => None,
        Some(s) if s == "none" => None,
        Some(s) => Some(
            s.parse::<CrossRule>()
                .map_err(|e| err(&name, e.to_string()))?,
        ),
    };
    let languages = match attr(&attrs, "languages") {
        None => vec![Language::C, Language::Fortran],
        Some(s) => {
            let mut langs = Vec::new();
            for part in s.split(',') {
                match part.trim() {
                    "c" | "C" => langs.push(Language::C),
                    "fortran" | "Fortran" | "f" | "F" => langs.push(Language::Fortran),
                    other => return Err(err(&name, format!("unknown language {other:?}"))),
                }
            }
            langs
        }
    };
    let repetitions = match attr(&attrs, "repetitions") {
        None => DEFAULT_REPETITIONS,
        Some(s) => s
            .parse::<u32>()
            .ok()
            .filter(|m| *m >= 1)
            .ok_or_else(|| err(&name, "repetitions must be a positive integer"))?,
    };

    let description = tag_body(body, "description").unwrap_or_default();
    // The test base may be authored in either language: `<code>` is C
    // syntax, `<code lang="fortran">` is the Fortran dialect. Both lower to
    // the same AST, from which all four programs are generated.
    let (code, code_lang) = match tag_body(body, "code") {
        Some(c) => (c, Language::C),
        None => match tag_body_with_attr(body, "code", "lang", "fortran") {
            Some(c) => (c, Language::Fortran),
            None => return Err(err(&name, "<acctest> requires a <code> body")),
        },
    };
    let env = match empty_tag_attrs(body, "env") {
        Some(pairs) => EnvConfig::from_pairs(pairs.iter().map(|(k, v)| (k.as_str(), v.as_str()))),
        None => EnvConfig::empty(),
    };

    // Parse the test base with the reference front-end for its language.
    let mut program =
        acc_frontend::parse(&code, code_lang).map_err(|e| err(&name, format!("in <code>: {e}")))?;
    // Normalize to the canonical (C-flavoured) AST carrier; rendering per
    // target language happens at generation time.
    program.language = Language::C;
    if program.name == "unnamed" {
        program.name = acc_ast::Name::new(&name);
    }

    let mut case = TestCase::new(name.clone(), feature, program, cross, description);
    case.languages = languages;
    case.env = env;
    case.repetitions = repetitions;
    Ok(case)
}

/// Render a test case back into template text (the canonical archival
/// form). `parse_templates ∘ render_template` preserves the generated
/// programs.
pub fn render_template(case: &TestCase) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "<acctest name=\"{}\" feature=\"{}\"",
        case.name, case.feature
    ));
    match &case.cross {
        Some(rule) => s.push_str(&format!(" cross=\"{rule}\"")),
        None => s.push_str(" cross=\"none\""),
    }
    let langs: Vec<&str> = case
        .languages
        .iter()
        .map(|l| match l {
            Language::C => "c",
            Language::Fortran => "fortran",
        })
        .collect();
    s.push_str(&format!(" languages=\"{}\"", langs.join(",")));
    s.push_str(&format!(" repetitions=\"{}\">\n", case.repetitions));
    if !case.description.is_empty() {
        s.push_str(&format!(
            "<description>{}</description>\n",
            case.description
        ));
    }
    if case.env.device_type.is_some() || case.env.device_num.is_some() {
        s.push_str("<env");
        if let Some(t) = case.env.device_type {
            s.push_str(&format!(" ACC_DEVICE_TYPE=\"{}\"", t.symbol()));
        }
        if let Some(n) = case.env.device_num {
            s.push_str(&format!(" ACC_DEVICE_NUM=\"{n}\""));
        }
        s.push_str("/>\n");
    }
    s.push_str("<code>\n");
    s.push_str(&case.source_for(Language::C));
    s.push_str("</code>\n</acctest>\n");
    s
}

/// Position of the first '>' outside double quotes.
fn tag_close(s: &str) -> Option<usize> {
    let mut in_quotes = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_quotes = !in_quotes,
            '>' if !in_quotes => return Some(i),
            _ => {}
        }
    }
    None
}

fn parse_attrs(head: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut rest = head.trim();
    while let Some(eq) = rest.find('=') {
        let key = rest[..eq].trim().to_string();
        let after = rest[eq + 1..].trim_start();
        if let Some(stripped) = after.strip_prefix('"') {
            if let Some(end) = stripped.find('"') {
                out.push((key, stripped[..end].to_string()));
                rest = &stripped[end + 1..];
                continue;
            }
        }
        break;
    }
    out
}

fn attr(attrs: &[(String, String)], key: &str) -> Option<String> {
    attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
}

/// Find `<tag key="value">…</tag>` and return the body.
fn tag_body_with_attr(body: &str, tag: &str, key: &str, value: &str) -> Option<String> {
    let open = format!("<{tag} {key}=\"{value}\">");
    let close = format!("</{tag}>");
    let start = body.find(&open)? + open.len();
    let end = body[start..].find(&close)? + start;
    Some(body[start..end].trim_start_matches('\n').to_string())
}

fn tag_body(body: &str, tag: &str) -> Option<String> {
    let open = format!("<{tag}>");
    let close = format!("</{tag}>");
    let start = body.find(&open)? + open.len();
    let end = body[start..].find(&close)? + start;
    Some(body[start..end].trim_start_matches('\n').to_string())
}

fn empty_tag_attrs(body: &str, tag: &str) -> Option<Vec<(String, String)>> {
    let open = format!("<{tag}");
    let start = body.find(&open)? + open.len();
    let end = body[start..].find("/>")? + start;
    Some(parse_attrs(&body[start..end]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use acc_spec::DirectiveKind;

    const LOOP_TEMPLATE: &str = r#"
<acctest name="loop" feature="loop" cross="remove-directive:loop" repetitions="4">
<description>loop directive shares iterations across gangs</description>
<code>
int main(void) {
    int error = 0;
    int A[16];
    for (i = 0; i < 16; i++)
    {
        A[i] = 0;
    }
    #pragma acc parallel num_gangs(4) copy(A[0:16])
    {
        #pragma acc loop
        for (i = 0; i < 16; i++)
        {
            A[i] = A[i] + 1;
        }
    }
    for (i = 0; i < 16; i++)
    {
        if (A[i] != 1)
        {
            error = error + 1;
        }
    }
    return error == 0;
}
</code>
</acctest>
"#;

    #[test]
    fn parses_single_template() {
        let cases = parse_templates(LOOP_TEMPLATE).unwrap();
        assert_eq!(cases.len(), 1);
        let c = &cases[0];
        assert_eq!(c.name, "loop");
        assert_eq!(c.feature, acc_spec::FeatureId::from("loop"));
        assert_eq!(c.repetitions, 4);
        assert_eq!(
            c.cross,
            Some(CrossRule::RemoveDirective(DirectiveKind::Loop))
        );
        assert_eq!(c.languages.len(), 2);
        assert!(c.description.contains("shares iterations"));
    }

    #[test]
    fn generates_all_four_programs() {
        let cases = parse_templates(LOOP_TEMPLATE).unwrap();
        let c = &cases[0];
        let fc = c.source_for(Language::C);
        let ff = c.source_for(Language::Fortran);
        let xc = c.cross_source_for(Language::C).unwrap();
        let xf = c.cross_source_for(Language::Fortran).unwrap();
        assert!(fc.contains("#pragma acc loop"));
        assert!(ff.contains("!$acc loop"));
        assert!(!xc.contains("#pragma acc loop"));
        assert!(!xf.contains("!$acc loop"));
        assert!(xf.contains("!$acc parallel"));
    }

    #[test]
    fn expanded_test_validates_against_reference() {
        let cases = parse_templates(LOOP_TEMPLATE).unwrap();
        let problems = crate::harness::validate_case(&cases[0]);
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn multiple_templates_in_one_file() {
        let two = format!(
            "{LOOP_TEMPLATE}\n{}",
            LOOP_TEMPLATE.replace("\"loop\"", "\"loop2\"")
        );
        let cases = parse_templates(&two).unwrap();
        assert_eq!(cases.len(), 2);
        assert_eq!(cases[1].name, "loop2");
    }

    #[test]
    fn env_and_language_attributes() {
        let t = r#"
<acctest name="env.ACC_DEVICE_TYPE" cross="none" languages="c">
<env ACC_DEVICE_TYPE="HOST"/>
<code>
int main(void) {
    int t = 0;
    t = acc_get_device_type();
    return t == acc_device_host;
}
</code>
</acctest>
"#;
        let cases = parse_templates(t).unwrap();
        let c = &cases[0];
        assert_eq!(c.env.device_type, Some(acc_spec::DeviceType::Host));
        assert_eq!(c.languages, vec![Language::C]);
        assert!(c.cross.is_none());
    }

    #[test]
    fn render_round_trips() {
        let cases = parse_templates(LOOP_TEMPLATE).unwrap();
        let rendered = render_template(&cases[0]);
        let reparsed = parse_templates(&rendered).unwrap();
        assert_eq!(reparsed[0].name, cases[0].name);
        assert_eq!(reparsed[0].cross, cases[0].cross);
        assert_eq!(
            reparsed[0].source_for(Language::C),
            cases[0].source_for(Language::C),
            "generated programs must be preserved"
        );
        assert_eq!(
            reparsed[0].source_for(Language::Fortran),
            cases[0].source_for(Language::Fortran)
        );
    }

    #[test]
    fn cross_spec_with_arrow_survives_tag_parsing() {
        // Regression: `->` inside the cross attribute must not terminate the
        // opening tag early (and silently drop the cross rule).
        let t = r#"<acctest name="x" cross="replace-clause:parallel.copy->create">
<code>
int main(void) {
    int A[4];
    #pragma acc parallel copy(A[0:4])
    {
        #pragma acc loop
        for (i = 0; i < 4; i++)
        {
            A[i] = i;
        }
    }
    return 1;
}
</code>
</acctest>"#;
        let case = &parse_templates(t).unwrap()[0];
        assert!(case.cross.is_some(), "cross rule must survive");
        let xs = case.cross_source_for(Language::C).unwrap();
        assert!(xs.contains("create(A[0:4])"), "{xs}");
    }

    #[test]
    fn fortran_authored_template() {
        // The same test base, written in the Fortran dialect: the engine
        // parses it with the Fortran front-end and still generates both
        // language variants.
        let t = r#"
<acctest name="f_authored" feature="loop" cross="remove-directive:loop">
<code lang="fortran">
! test program: f_authored
integer function main()
    implicit none
    integer :: A(0:15)
    integer :: error
    integer :: i
    error = 0
    do i = 0, 15
        A(i) = 0
    end do
    !$acc parallel num_gangs(4) copy(A(0:15))
        !$acc loop
        do i = 0, 15
            A(i) = A(i) + 1
        end do
    !$acc end parallel
    do i = 0, 15
        if (A(i) /= 1) then
            error = error + 1
        end if
    end do
    main = error == 0
    return
end function main
</code>
</acctest>
"#;
        let case = &parse_templates(t).unwrap()[0];
        // Both variants generate, and the case is healthy.
        assert!(case
            .source_for(Language::C)
            .contains("#pragma acc parallel"));
        assert!(case
            .source_for(Language::Fortran)
            .contains("!$acc parallel"));
        let problems = crate::harness::validate_case(case);
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse_templates("nothing here").is_err());
        let bad_code = r#"<acctest name="x"><code>@@@</code></acctest>"#;
        let e = parse_templates(bad_code).unwrap_err();
        assert!(e.message.contains("in <code>"), "{e}");
        let bad_cross =
            r#"<acctest name="x" cross="frob"><code>int main(void) { return 1; }</code></acctest>"#;
        assert!(parse_templates(bad_cross).is_err());
        let no_code = r#"<acctest name="x"></acctest>"#;
        assert!(parse_templates(no_code).is_err());
    }
}
