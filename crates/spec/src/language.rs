//! Base languages the OpenACC 1.0 specification covers and the testsuite
//! generates programs in.

use std::fmt;

/// Base language of a generated test program.
///
/// The paper's testsuite ships every test case twice — once as a C program
/// using `#pragma acc` lines and once as a Fortran program using `!$acc`
/// sentinels — because vendor front-ends are distinct per language and Table I
/// splits bug counts by language accordingly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Language {
    /// C (the specification also covers C++ through the same pragma syntax).
    C,
    /// Fortran, using `!$acc` directive sentinels and 1-based column-major
    /// arrays.
    Fortran,
}

impl Language {
    /// Both supported languages, in the order the paper tabulates them.
    pub const ALL: [Language; 2] = [Language::C, Language::Fortran];

    /// Parse a language as the CLI's `--lang` and the server's `lang` spell
    /// it (any case; `f` abbreviates `fortran`).
    pub fn from_cli(s: &str) -> Result<Language, String> {
        match s.to_ascii_lowercase().as_str() {
            "c" => Ok(Language::C),
            "f" | "fortran" => Ok(Language::Fortran),
            other => Err(format!("unknown language `{other}` (c|fortran)")),
        }
    }

    /// The directive sentinel that introduces an OpenACC directive line.
    pub fn sentinel(self) -> &'static str {
        match self {
            Language::C => "#pragma acc",
            Language::Fortran => "!$acc",
        }
    }

    /// Conventional source-file extension.
    pub fn extension(self) -> &'static str {
        match self {
            Language::C => "c",
            Language::Fortran => "f90",
        }
    }

    /// Lowest valid array index in the language's surface syntax.
    pub fn base_index(self) -> i64 {
        match self {
            Language::C => 0,
            Language::Fortran => 1,
        }
    }

    /// One-letter abbreviation used in the paper's Table I ("C" / "F").
    pub fn letter(self) -> &'static str {
        match self {
            Language::C => "C",
            Language::Fortran => "F",
        }
    }
}

impl fmt::Display for Language {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Language::C => write!(f, "C"),
            Language::Fortran => write!(f, "Fortran"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentinels_match_spec() {
        assert_eq!(Language::C.sentinel(), "#pragma acc");
        assert_eq!(Language::Fortran.sentinel(), "!$acc");
    }

    #[test]
    fn base_indices() {
        assert_eq!(Language::C.base_index(), 0);
        assert_eq!(Language::Fortran.base_index(), 1);
    }

    #[test]
    fn all_contains_both() {
        assert_eq!(Language::ALL.len(), 2);
        assert!(Language::ALL.contains(&Language::C));
        assert!(Language::ALL.contains(&Language::Fortran));
    }

    #[test]
    fn display_and_letter() {
        assert_eq!(Language::C.to_string(), "C");
        assert_eq!(Language::Fortran.to_string(), "Fortran");
        assert_eq!(Language::Fortran.letter(), "F");
    }

    #[test]
    fn extensions() {
        assert_eq!(Language::C.extension(), "c");
        assert_eq!(Language::Fortran.extension(), "f90");
    }
}
