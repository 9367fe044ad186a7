//! Seeded input generators. The seed picks the releases, the vendor order,
//! the kernel programs, the submission pool and the arrival times; the
//! system under test only ever sees the generated inputs.
//!
//! Every generator draws from its own stream (`stream`), so adding draws to
//! one workload never shifts another workload's inputs.

use acc_ast::builder as b;
use acc_ast::{BinOp, Expr, LValue, Program, ScalarType, Stmt};
use acc_compiler::VendorId;
use acc_spec::version::CompilerVersion;
use acc_spec::{Language, ReductionOp};
use acc_validation::TestCase;
use rand::prelude::*;

/// One compiler release: a vendor and one of its shipped versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Release {
    /// Product line.
    pub vendor: VendorId,
    /// Shipped version.
    pub version: CompilerVersion,
}

impl Release {
    /// The CLI spelling of the vendor (`caps`, `pgi`, `cray`, `reference`).
    pub fn vendor_arg(&self) -> &'static str {
        vendor_arg(self.vendor)
    }
}

/// The CLI spelling of a vendor.
pub fn vendor_arg(vendor: VendorId) -> &'static str {
    match vendor {
        VendorId::Caps => "caps",
        VendorId::Pgi => "pgi",
        VendorId::Cray => "cray",
        VendorId::Reference => "reference",
    }
}

fn rng(seed: u64, stream: u64) -> StdRng {
    // Decorrelate streams of one seed and seeds of one stream.
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.rotate_left(32))
}

/// Every release the suite knows: 24 commercial plus the reference.
pub fn all_releases() -> Vec<Release> {
    VendorId::COMMERCIAL
        .into_iter()
        .chain([VendorId::Reference])
        .flat_map(|vendor| {
            vendor
                .versions()
                .into_iter()
                .map(move |version| Release { vendor, version })
        })
        .collect()
}

/// `n` items drawn as back-to-back seeded permutations of `items`, so every
/// item appears equally often (up to the last, partial round) whatever the
/// seed; only the order depends on it.
fn balanced_sequence<T: Copy>(items: &[T], n: usize, rng: &mut StdRng) -> Vec<T> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut round = items.to_vec();
        round.shuffle(rng);
        out.extend(round.into_iter().take(n - out.len()));
    }
    out
}

/// The `release_cold` request sequence: `n` releases from the 25.
pub fn release_sequence(seed: u64, n: usize) -> Vec<Release> {
    balanced_sequence(&all_releases(), n, &mut rng(seed, 1))
}

/// The `fig8_panel` request sequence: `n` commercial vendors.
pub fn vendor_sequence(seed: u64, n: usize) -> Vec<VendorId> {
    balanced_sequence(&VendorId::COMMERCIAL, n, &mut rng(seed, 2))
}

/// The kernel families: each stresses device loops a different way.
pub const FAMILIES: [&str; 6] = [
    "elementwise",
    "reduction",
    "strided",
    "nested",
    "data_update",
    "async_wait",
];

/// The problem sizes: one that fits the caches comfortably and one 8×
/// larger.
pub const SIZES: [i64; 2] = [4096, 32768];

/// One generated, self-checking kernel program.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// `family-n-lang`, unique within a seed's set.
    pub name: String,
    /// Elements per array.
    pub n: i64,
    /// Source language.
    pub language: Language,
    /// The rendered source the compiler receives.
    pub source: String,
}

/// The 24 kernel programs of a seed: every family × size × language. The
/// seed picks the values (scales, moduli, offsets, gang counts, vector
/// lengths) but not the amount of work — strides and update rounds are
/// fixed — so every seed costs the same to run. The C and Fortran variants
/// of one family and size share their values, so both front-ends see the
/// same program.
pub fn kernels(seed: u64) -> Vec<Kernel> {
    let mut rng = rng(seed, 3);
    let mut out = Vec::new();
    for family in FAMILIES {
        for n in SIZES {
            let base = kernel_program(family, n, &mut rng);
            for language in [Language::C, Language::Fortran] {
                let mut program = base.clone();
                program.language = language;
                let source = match language {
                    Language::C => acc_ast::cgen::emit_c(&program),
                    Language::Fortran => acc_ast::fgen::emit_fortran(&program),
                };
                let lang = match language {
                    Language::C => "c",
                    Language::Fortran => "f",
                };
                out.push(Kernel {
                    name: format!("{family}-{n}-{lang}"),
                    n,
                    language,
                    source,
                });
            }
        }
    }
    out
}

/// Kernel runs: `n` indices into `kernels`, in rounds of one seeded
/// permutation each. A round runs every small program twice and every
/// large one once, so two thirds of the runs are small: the median then
/// falls inside the small programs' costs and the p90 inside the large
/// ones', rather than either landing in the gap between the two sizes.
pub fn kernel_runs(seed: u64, kernels: &[Kernel], n: usize) -> Vec<usize> {
    let round: Vec<usize> = kernels
        .iter()
        .enumerate()
        .flat_map(|(i, k)| std::iter::repeat_n(i, if k.n == SIZES[0] { 2 } else { 1 }))
        .collect();
    balanced_sequence(&round, n, &mut rng(seed, 8))
}

fn pick(rng: &mut StdRng, choices: &[i64]) -> i64 {
    choices[rng.gen_range(0..choices.len() as u64) as usize]
}

fn i_var() -> Expr {
    Expr::var("i")
}

/// `if (lhs != rhs) error++;`
fn check(lhs: Expr, rhs: Expr) -> Stmt {
    b::if_then(Expr::ne(lhs, rhs), vec![b::bump_error()])
}

fn rem(l: Expr, r: Expr) -> Expr {
    Expr::bin(BinOp::Rem, l, r)
}

fn kernel_program(family: &str, n: i64, rng: &mut StdRng) -> Program {
    let len = n as usize;
    let nn = || Expr::int(n);
    let gangs = pick(rng, &[4, 8, 16]);
    let mut body = vec![b::decl_int("error", 0)];
    match family {
        // Y = a·X + Y over copyin/copy sections.
        "elementwise" => {
            let (a, m, c) = (
                pick(rng, &[2, 3, 5]),
                pick(rng, &[7, 11, 13]),
                pick(rng, &[1, 4, 9]),
            );
            body.push(b::decl_array("X", ScalarType::Int, len));
            body.push(b::decl_array("Y", ScalarType::Int, len));
            body.push(b::for_upto(
                "i",
                nn(),
                vec![
                    b::set1("X", i_var(), rem(i_var(), Expr::int(m))),
                    b::set1("Y", i_var(), Expr::int(c)),
                ],
            ));
            body.push(b::parallel_loop(
                vec![
                    acc_ast::AccClause::NumGangs(Expr::int(gangs)),
                    b::copyin_sec("X", nn()),
                    b::copy_sec("Y", nn()),
                ],
                "i",
                nn(),
                vec![b::set1(
                    "Y",
                    i_var(),
                    Expr::add(
                        Expr::mul(Expr::int(a), Expr::idx("X", i_var())),
                        Expr::idx("Y", i_var()),
                    ),
                )],
            ));
            body.push(b::for_upto(
                "i",
                nn(),
                vec![check(
                    Expr::idx("Y", i_var()),
                    Expr::add(
                        Expr::mul(Expr::int(a), rem(i_var(), Expr::int(m))),
                        Expr::int(c),
                    ),
                )],
            ));
        }
        // A sum reduction whose exact result is known ahead of time.
        "reduction" => {
            let (k, m) = (pick(rng, &[3, 7, 13]), pick(rng, &[17, 29, 31]));
            let expected: i64 = (0..n).map(|i| (i * k) % m + 1).sum();
            body.push(b::decl_int("s", 0));
            body.push(b::decl_array("V", ScalarType::Int, len));
            body.push(b::for_upto(
                "i",
                nn(),
                vec![b::set1(
                    "V",
                    i_var(),
                    Expr::add(
                        rem(Expr::mul(i_var(), Expr::int(k)), Expr::int(m)),
                        Expr::int(1),
                    ),
                )],
            ));
            body.push(b::parallel_loop(
                vec![
                    acc_ast::AccClause::NumGangs(Expr::int(gangs)),
                    acc_ast::AccClause::Reduction(ReductionOp::Add, vec!["s".into()]),
                    b::copyin_sec("V", nn()),
                ],
                "i",
                nn(),
                vec![b::add("s", Expr::idx("V", i_var()))],
            ));
            body.push(check(Expr::var("s"), Expr::int(expected)));
        }
        // Writes every `stride`-th element; the rest must stay untouched.
        "strided" => {
            let (stride, base) = (4, pick(rng, &[1, 5, 10]));
            body.push(b::decl_array("A", ScalarType::Int, len));
            body.push(b::for_upto(
                "i",
                nn(),
                vec![b::set1("A", i_var(), Expr::int(0))],
            ));
            body.push(b::parallel_loop(
                vec![
                    acc_ast::AccClause::NumGangs(Expr::int(gangs)),
                    b::copy_sec("A", nn()),
                ],
                "i",
                Expr::int(n / stride),
                vec![b::set1(
                    "A",
                    Expr::mul(i_var(), Expr::int(stride)),
                    Expr::add(i_var(), Expr::int(base)),
                )],
            ));
            body.push(b::for_upto(
                "i",
                nn(),
                vec![Stmt::If {
                    cond: Expr::eq(rem(i_var(), Expr::int(stride)), Expr::int(0)),
                    then_body: vec![check(
                        Expr::idx("A", i_var()),
                        Expr::add(
                            Expr::bin(BinOp::Div, i_var(), Expr::int(stride)),
                            Expr::int(base),
                        ),
                    )],
                    else_body: vec![check(Expr::idx("A", i_var()), Expr::int(0))],
                }],
            ));
        }
        // A gang loop over rows with a vector loop over columns.
        "nested" => {
            let rows = 64;
            let cols = n / rows;
            let (vlen, off) = (pick(rng, &[32, 64, 128]), pick(rng, &[0, 3, 7]));
            let cell = || {
                Expr::add(
                    Expr::add(Expr::mul(i_var(), Expr::int(cols)), Expr::var("j")),
                    Expr::int(off),
                )
            };
            body.push(b::decl_matrix(
                "M",
                ScalarType::Int,
                rows as usize,
                cols as usize,
            ));
            body.push(b::parallel_region(
                vec![
                    acc_ast::AccClause::NumGangs(Expr::int(gangs)),
                    acc_ast::AccClause::VectorLength(Expr::int(vlen)),
                    acc_ast::AccClause::Data(
                        acc_spec::ClauseKind::Copyout,
                        vec![acc_ast::DataRef::whole("M")],
                    ),
                ],
                vec![b::acc_loop(
                    vec![acc_ast::AccClause::Gang(None)],
                    "i",
                    Expr::int(rows),
                    vec![b::acc_loop(
                        vec![acc_ast::AccClause::Vector(None)],
                        "j",
                        Expr::int(cols),
                        vec![Stmt::assign(
                            LValue::idx2("M", i_var(), Expr::var("j")),
                            cell(),
                        )],
                    )],
                )],
            ));
            body.push(b::for_upto(
                "i",
                Expr::int(rows),
                vec![b::for_upto(
                    "j",
                    Expr::int(cols),
                    vec![check(Expr::idx2("M", i_var(), Expr::var("j")), cell())],
                )],
            ));
        }
        // Device updates inside one data region, refreshed to the host
        // after every round.
        "data_update" => {
            let (rounds, init) = (3, pick(rng, &[0, 2, 6]));
            body.push(b::decl_int("t", 0));
            body.push(b::decl_array("A", ScalarType::Int, len));
            body.push(b::for_upto(
                "i",
                nn(),
                vec![b::set1("A", i_var(), Expr::int(init))],
            ));
            body.push(b::data_region(
                vec![b::copy_sec("A", nn())],
                vec![b::for_upto(
                    "t",
                    Expr::int(rounds),
                    vec![
                        b::parallel_loop(
                            vec![acc_ast::AccClause::NumGangs(Expr::int(gangs))],
                            "i",
                            nn(),
                            vec![b::add1("A", i_var(), Expr::int(1))],
                        ),
                        b::update(vec![acc_ast::AccClause::Data(
                            acc_spec::ClauseKind::HostClause,
                            vec![acc_ast::DataRef::section("A", Expr::int(0), nn())],
                        )]),
                        check(
                            Expr::idx("A", Expr::var("t")),
                            Expr::add(Expr::var("t"), Expr::int(init + 1)),
                        ),
                    ],
                )],
            ));
            body.push(b::for_upto(
                "i",
                nn(),
                vec![check(Expr::idx("A", i_var()), Expr::int(init + rounds))],
            ));
        }
        // Two loops on separate async queues, joined by one wait.
        "async_wait" => {
            let (a, f) = (pick(rng, &[1, 2, 3]), pick(rng, &[2, 3]));
            body.push(b::decl_array("A", ScalarType::Int, len));
            body.push(b::decl_array("B", ScalarType::Int, len));
            body.push(b::for_upto(
                "i",
                nn(),
                vec![
                    b::set1("A", i_var(), i_var()),
                    b::set1("B", i_var(), Expr::int(1)),
                ],
            ));
            for (arr, tag, value) in [
                ("A", 1, Expr::add(Expr::idx("A", i_var()), Expr::int(a))),
                ("B", 2, Expr::mul(Expr::idx("B", i_var()), Expr::int(f))),
            ] {
                body.push(b::parallel_loop(
                    vec![
                        acc_ast::AccClause::NumGangs(Expr::int(gangs)),
                        b::copy_sec(arr, nn()),
                        acc_ast::AccClause::Async(Some(Expr::int(tag))),
                    ],
                    "i",
                    nn(),
                    vec![b::set1(arr, i_var(), value)],
                ));
            }
            body.push(b::wait(None));
            body.push(b::for_upto(
                "i",
                nn(),
                vec![
                    check(Expr::idx("A", i_var()), Expr::add(i_var(), Expr::int(a))),
                    check(Expr::idx("B", i_var()), Expr::int(f)),
                ],
            ));
        }
        other => unreachable!("unknown kernel family `{other}`"),
    }
    body.push(b::return_error_check());
    Program::simple(format!("{family}_{n}"), Language::C, body)
}

/// One small submission of the serve pool, or a family run.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Spec {
    /// The release under test.
    pub release: Release,
    /// One language, or both when `None`.
    pub language: Option<Language>,
    /// Feature prefixes; empty selects the whole suite.
    pub features: Vec<String>,
}

impl Spec {
    /// The `POST /v1/submit` body.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"tenant\":\"bench\",\"vendor\":\"{}\",\"version\":\"{}\"",
            self.release.vendor_arg(),
            self.release.version
        );
        if let Some(lang) = self.language {
            s.push_str(&format!(",\"lang\":\"{}\"", lang_arg(lang)));
        }
        if !self.features.is_empty() {
            let quoted: Vec<String> = self.features.iter().map(|f| format!("\"{f}\"")).collect();
            s.push_str(&format!(",\"features\":[{}]", quoted.join(",")));
        }
        s.push('}');
        s
    }

    /// The equivalent `accvv run` arguments (without engine or cache flags).
    pub fn run_args(&self) -> Vec<String> {
        let mut args = vec![
            "run".to_string(),
            "--vendor".to_string(),
            self.release.vendor_arg().to_string(),
            "--version".to_string(),
            self.release.version.to_string(),
        ];
        if let Some(lang) = self.language {
            args.extend(["--lang".to_string(), lang_arg(lang).to_string()]);
        }
        if !self.features.is_empty() {
            args.extend(["--features".to_string(), self.features.join(",")]);
        }
        args
    }
}

fn lang_arg(lang: Language) -> &'static str {
    match lang {
        Language::C => "c",
        Language::Fortran => "fortran",
    }
}

/// Small specs in a serve pool.
pub const POOL_SPECS: usize = 40;

/// The suite's largest feature family: the top-level feature id (what
/// precedes the first `.`) that, as a prefix, selects the most cases; the
/// first in name order among equals.
pub fn largest_family(suite: &[TestCase]) -> String {
    let mut tops: Vec<&str> = suite
        .iter()
        .filter_map(|c| c.feature.as_str().split('.').next())
        .collect();
    tops.sort();
    tops.dedup();
    let selects = |top: &str| {
        suite
            .iter()
            .filter(|c| c.feature.as_str().starts_with(top))
            .count()
    };
    tops.into_iter()
        .rev()
        .max_by_key(|top| selects(top))
        .expect("the suite has cases")
        .to_string()
}

/// The suite's feature ids that, as prefixes, select exactly one case, and
/// that case has a `language` variant.
fn single_case_ids(suite: &[TestCase], language: Language) -> Vec<String> {
    suite
        .iter()
        .filter(|c| c.languages.contains(&language))
        .map(|c| c.feature.as_str().to_string())
        .filter(|id| {
            suite
                .iter()
                .filter(|c| c.feature.as_str().starts_with(id.as_str()))
                .count()
                == 1
        })
        .collect()
}

/// The serve pool: 40 small specs over 4 releases (a seeded version of each
/// vendor), each with one language and 1–2 feature prefixes drawn from the
/// suite's feature ids. Only ids that select a single case are drawn: a
/// family id such as `parallel` selects a score of cases, and a pool
/// holding a few of them would cost more to serve than one holding none,
/// whatever the server. One release per vendor keeps the pools of
/// different seeds alike in the same way.
pub fn spec_pool(seed: u64, suite: &[TestCase]) -> Vec<Spec> {
    let mut rng = rng(seed, 4);
    let releases: Vec<Release> = VendorId::COMMERCIAL
        .into_iter()
        .chain([VendorId::Reference])
        .map(|vendor| {
            let versions = vendor.versions();
            Release {
                vendor,
                version: versions[rng.gen_range(0..versions.len() as u64) as usize],
            }
        })
        .collect();
    let languages = [Language::C, Language::Fortran];
    let ids = languages.map(|l| single_case_ids(suite, l));
    (0..POOL_SPECS)
        .map(|i| {
            let lang = usize::from(rng.gen::<bool>());
            let take = 1 + rng.gen_range(0..2) as usize;
            let mut features: Vec<String> = (0..take)
                .map(|_| ids[lang][rng.gen_range(0..ids[lang].len() as u64) as usize].clone())
                .collect();
            features.sort();
            features.dedup();
            Spec {
                release: releases[i % releases.len()],
                language: Some(languages[lang]),
                features,
            }
        })
        .collect()
}

/// Gaps per round of [`arrivals`].
const ARRIVAL_ROUND: usize = 10;

/// `n` arrival offsets in seconds at `rate` per second, scaled so the last
/// one falls at exactly `n / rate`. The gaps are exponential, as in a
/// Poisson stream, but stratified: each round of [`ARRIVAL_ROUND`] gaps is
/// a seeded order of the same exponential quantiles, so every seed offers
/// the same bursts and lulls, in another order. With independent draws the
/// serve p90 was the seed's: one seed's arrivals read 76–83 ms over any
/// plan, another's 58–61 ms.
pub fn arrivals(seed: u64, stream: u64, rate: f64, n: usize) -> Vec<f64> {
    let quantiles: Vec<f64> = (0..ARRIVAL_ROUND)
        .map(|k| -(1.0 - (k as f64 + 0.5) / ARRIVAL_ROUND as f64).ln())
        .collect();
    let mut t = 0.0;
    let raw: Vec<f64> = balanced_sequence(&quantiles, n, &mut rng(seed, 5 + stream))
        .into_iter()
        .map(|gap| {
            t += gap;
            t
        })
        .collect();
    let scale = n as f64 / rate / t.max(f64::MIN_POSITIVE);
    raw.into_iter().map(|a| a * scale).collect()
}

/// One open-loop send: a submission, or (heavy traffic) a read pair.
#[derive(Debug, Clone, PartialEq)]
pub enum Send {
    /// `POST /v1/submit` of this spec.
    Submit(Spec),
    /// One `GET /v1/query` and one `GET /v1/history`.
    Reads,
}

/// `serve_light` traffic: `n` submissions drawn uniformly from the pool.
pub fn light_plan(seed: u64, pool: &[Spec], n: usize) -> Vec<Send> {
    let mut rng = rng(seed, 6);
    (0..n)
        .map(|_| Send::Submit(pool[rng.gen_range(0..pool.len() as u64) as usize].clone()))
        .collect()
}

/// `serve_heavy` traffic: `n` submissions in blocks of ten, each block a
/// seeded order of 6 small pool specs, 2 exact repeats of one of the last
/// 8 small specs submitted and 2 family slots: the first runs every case
/// of the suite's [`largest_family`] in both languages on a pool release
/// (the releases taking turns in seeded rounds), the second repeats it
/// exactly; plus one read pair after every 4th submission. Fixed
/// proportions keep every seed's load the same, and with 2 family runs in
/// 10 the p90 falls among them rather than on the edge between them and
/// the small specs.
///
/// A family run, not a whole-suite run: the server makes every verdict
/// durable with an fsync, and the ~240 of a whole-suite run made its time
/// follow the shared host's disk load (in runs alternating the two on one
/// seed, a busy disk raised the whole-suite p90 by 80% and the family's by
/// 10%).
pub fn heavy_plan(seed: u64, pool: &[Spec], family: &str, n: usize) -> Vec<Send> {
    #[derive(Clone, Copy)]
    enum Kind {
        Small,
        Repeat,
        Family,
    }
    let mut block = [Kind::Small; 10];
    block[6..8].fill(Kind::Repeat);
    block[8..].fill(Kind::Family);
    let mut rng = rng(seed, 7);
    let kinds = balanced_sequence(&block, n, &mut rng);
    let mut releases: Vec<Release> = pool.iter().map(|s| s.release).collect();
    releases.sort();
    releases.dedup();
    let mut family_runs = balanced_sequence(&releases, n.div_ceil(block.len()), &mut rng)
        .into_iter()
        .map(|release| Spec {
            release,
            language: None,
            features: vec![family.to_string()],
        });
    let mut recent: Vec<Spec> = Vec::new();
    // The block's family run, once its first family slot has come.
    let mut block_family: Option<(usize, Spec)> = None;
    let mut out = Vec::new();
    for (i, kind) in kinds.into_iter().enumerate() {
        let mut draw = |from: &[Spec]| from[rng.gen_range(0..from.len() as u64) as usize].clone();
        let block_no = i / block.len();
        let spec = match (kind, &block_family) {
            (Kind::Repeat, _) if !recent.is_empty() => draw(&recent),
            (Kind::Family, Some((b, family))) if *b == block_no => family.clone(),
            (Kind::Family, _) => family_runs.next().expect("one family run per block"),
            _ => draw(pool),
        };
        if spec.language.is_none() {
            block_family = Some((block_no, spec.clone()));
        } else {
            recent.push(spec.clone());
            if recent.len() > 8 {
                recent.remove(0);
            }
        }
        out.push(Send::Submit(spec));
        if i % 4 == 3 {
            out.push(Send::Reads);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use acc_compiler::exec::{ExecMode, RunKnobs};
    use acc_compiler::VendorCompiler;
    use acc_spec::envvar::EnvConfig;

    fn suite() -> Vec<TestCase> {
        acc_testsuite::full_suite()
    }

    fn sources(seed: u64) -> Vec<String> {
        kernels(seed).into_iter().map(|k| k.source).collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let suite = suite();
        assert_eq!(release_sequence(7, 60), release_sequence(7, 60));
        assert_eq!(vendor_sequence(7, 30), vendor_sequence(7, 30));
        assert_eq!(sources(7), sources(7));
        let ks = kernels(7);
        assert_eq!(kernel_runs(7, &ks, 100), kernel_runs(7, &ks, 100));
        let pool = spec_pool(7, &suite);
        assert_eq!(pool, spec_pool(7, &suite));
        assert_eq!(arrivals(7, 0, 20.0, 50), arrivals(7, 0, 20.0, 50));
        let family = largest_family(&suite);
        assert_eq!(
            heavy_plan(7, &pool, &family, 40),
            heavy_plan(7, &pool, &family, 40)
        );
        assert_eq!(light_plan(7, &pool, 40), light_plan(7, &pool, 40));
    }

    #[test]
    fn another_seed_changes_every_input() {
        let suite = suite();
        assert_ne!(release_sequence(1, 60), release_sequence(2, 60));
        assert_ne!(vendor_sequence(1, 30), vendor_sequence(2, 30));
        assert_ne!(sources(1), sources(2));
        let ks = kernels(1);
        assert_ne!(kernel_runs(1, &ks, 100), kernel_runs(2, &ks, 100));
        assert_ne!(spec_pool(1, &suite), spec_pool(2, &suite));
        assert_ne!(arrivals(1, 0, 20.0, 50), arrivals(2, 0, 20.0, 50));
    }

    #[test]
    fn sequences_cover_their_items_evenly() {
        let releases = release_sequence(3, 50);
        assert_eq!(all_releases().len(), 25);
        for r in all_releases() {
            assert_eq!(releases.iter().filter(|x| **x == r).count(), 2, "{r:?}");
        }
        let vendors = vendor_sequence(3, 30);
        for v in VendorId::COMMERCIAL {
            assert_eq!(vendors.iter().filter(|x| **x == v).count(), 10);
        }
    }

    #[test]
    fn arrivals_increase_and_end_at_n_over_rate() {
        let a = arrivals(5, 1, 20.0, 300);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!((a[299] - 15.0).abs() < 1e-9, "{}", a[299]);
        assert!(a[0] > 0.0);
    }

    #[test]
    fn every_round_of_arrivals_has_the_same_gaps() {
        // Each round's gaps, sorted.
        let rounds = |seed| -> Vec<Vec<f64>> {
            let a = arrivals(seed, 0, 10.0, 40);
            let gaps: Vec<f64> = a
                .iter()
                .scan(0.0, |prev, &t| {
                    let gap = t - *prev;
                    *prev = t;
                    Some(gap)
                })
                .collect();
            gaps.chunks(ARRIVAL_ROUND)
                .map(|round| {
                    let mut round = round.to_vec();
                    round.sort_by(f64::total_cmp);
                    round
                })
                .collect()
        };
        let same = |x: &[f64], y: &[f64]| x.iter().zip(y).all(|(p, q)| (p - q).abs() < 1e-9);
        let (one, two) = (rounds(1), rounds(2));
        assert!(one.iter().chain(&two).all(|r| same(r, &one[0])));
        assert_ne!(arrivals(1, 0, 10.0, 40), arrivals(2, 0, 10.0, 40));
    }

    #[test]
    fn a_kernel_round_runs_small_programs_twice() {
        let ks = kernels(4);
        let runs = kernel_runs(4, &ks, 36);
        for (i, k) in ks.iter().enumerate() {
            let want = if k.n == SIZES[0] { 2 } else { 1 };
            assert_eq!(runs.iter().filter(|&&r| r == i).count(), want, "{}", k.name);
        }
    }

    #[test]
    fn the_pool_and_plans_have_their_documented_shape() {
        let suite = suite();
        let pool = spec_pool(11, &suite);
        assert_eq!(pool.len(), POOL_SPECS);
        let mut releases: Vec<Release> = pool.iter().map(|s| s.release).collect();
        releases.sort();
        releases.dedup();
        assert_eq!(releases.len(), 4, "one release per vendor");
        for spec in &pool {
            let lang = spec.language.expect("small specs have one language");
            let selected = suite
                .iter()
                .filter(|c| {
                    c.languages.contains(&lang)
                        && spec
                            .features
                            .iter()
                            .any(|f| c.feature.as_str().starts_with(f.as_str()))
                })
                .count();
            assert_eq!(selected, spec.features.len(), "{spec:?}");
            assert!((1..=2).contains(&selected), "{spec:?}");
        }
        let family = largest_family(&suite);
        let in_family = |f: &str| {
            suite
                .iter()
                .filter(|c| c.feature.as_str().starts_with(f))
                .count()
        };
        assert!(in_family(&family) >= 20, "{family}: {}", in_family(&family));
        for c in &suite {
            let top = c.feature.as_str().split('.').next().expect("nonempty id");
            assert!(
                in_family(top) <= in_family(&family),
                "{top} outnumbers {family}"
            );
        }
        let heavy = heavy_plan(11, &pool, &family, 400);
        let submits: Vec<&Spec> = heavy
            .iter()
            .filter_map(|s| match s {
                Send::Submit(spec) => Some(spec),
                Send::Reads => None,
            })
            .collect();
        assert_eq!(submits.len(), 400);
        assert_eq!(heavy.len(), 500, "one read pair per 4 submissions");
        for block in submits.chunks(10) {
            let runs: Vec<&&Spec> = block.iter().filter(|s| s.language.is_none()).collect();
            assert_eq!(runs.len(), 2, "a family run and its repeat per block");
            assert_eq!(runs[0], runs[1]);
            assert_eq!(runs[0].features, std::slice::from_ref(&family));
        }
    }

    #[test]
    fn every_kernel_passes_on_the_default_engine_with_the_walkers_metrics() {
        let env = EnvConfig::empty();
        let compiler = VendorCompiler::reference();
        for seed in [1, 2] {
            let ks = kernels(seed);
            assert_eq!(ks.len(), 24);
            for k in ks {
                let exe = compiler
                    .compile(&k.source, k.language)
                    .unwrap_or_else(|e| panic!("{} does not compile: {e}\n{}", k.name, k.source));
                let vm = exe.run_with_knobs(&env, RunKnobs::default());
                let walk = exe.run_with_knobs(
                    &env,
                    RunKnobs {
                        exec_mode: ExecMode::Walk,
                        ..RunKnobs::default()
                    },
                );
                assert!(vm.outcome.passed(), "{} fails: {:?}", k.name, vm.outcome);
                assert_eq!(vm.outcome, walk.outcome, "{}", k.name);
                assert_eq!(vm.metrics, walk.metrics, "{}", k.name);
                assert!(vm.metrics.device_iterations >= k.n as u64 / 8, "{}", k.name);
            }
        }
    }
}
