//! Content-addressed compilation cache: compile once, run many.
//!
//! A validation campaign compiles the same generated source many times —
//! once per vendor version in a sweep, once more for every cross-test
//! repetition, and again on retries. The pipeline is deterministic, so all
//! of that work is redundant. [`CompileCache`] memoises it at one level,
//! keyed by `(language, spec version, source)`: each entry holds
//! everything about the source that no vendor profile changes, so one
//! entry serves *every* vendor and version. That is the parsed AST with
//! its resolved frame layouts; the summary of what the source uses that
//! defects can reach (directive/clause pairs, non-constant sizing
//! clauses, runtime routines called), built by the first release to
//! compile it; and the lowered bytecode image, built by the first release
//! whose compile-time check passes. An eight-version sweep pays for one
//! parse, one usage walk and at most one lowering per source. The entry
//! also holds the source's run memos, one per *observable profile*: a
//! release's profile without its name and without the defects the source
//! cannot reach, plus its device. Releases that agree on it run the source
//! to identical results, so they share one memo and a sweep executes the
//! source once per observable behaviour (DESIGN.md §15.2).
//!
//! What depends on the release — the compile-time verdict and the
//! [`Executable`] carrying its profile — is rebuilt around the entry on
//! every compile ([`crate::vendor::VendorCompiler::compile`]), so a PGI
//! executable is never served to Cray. That costs less than keying and
//! storing executables, which a campaign never asks for twice
//! (DESIGN.md §10). [`executable`](CompileCache::executable) still offers
//! such a level to callers outside the product.
//!
//! Keys embed the *full* source text (content addressing by exact match):
//! no hash collisions are possible, and lookups cost one hash of the
//! source — orders of magnitude below a parse. A front-end lookup hashes
//! the caller's text in place; only a miss copies it, into the new key.
//! Failures are cached too; compilation is deterministic, so a source that
//! failed once fails identically forever.
//!
//! The cache is `Mutex`-guarded and shared across the `--jobs` worker pool
//! via `Arc`. Compilation runs *outside* the lock; when two workers race to
//! compile the same key, the first insert wins and both get the same
//! `Arc`-shared artifact (the loser's work is discarded, not duplicated in
//! the cache). The hit/miss counters feed the stderr summary, `/metrics`
//! and the bench JSON, beside the run memos' hit/miss counters.
//!
//! Entries live as long as their cache. `accvv serve` attaches one cache
//! for the process to every submission's compiler, so later submissions
//! hit what earlier ones compiled; it holds one entry per distinct source.
//! A campaign's cache instead gives each case a [`scoped`]
//! (CompileCache::scoped) cache that counts into it: the case's sources
//! are shared by every release of a sweep and freed when the case ends,
//! so the campaign's own cache stays empty (DESIGN.md §10, "Entry
//! lifetime").

use acc_ast::Program;
use acc_frontend::ResolvedProgram;
use acc_spec::{FxHashMap, Language, SpecVersion};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::driver::{CompileFailure, Executable, FrontendUnit};

/// The front-end artifact: parsed AST plus resolved frame layouts.
type Frontend = (Arc<Program>, Arc<ResolvedProgram>);

/// Front-end entries by language and spec version, then by source text,
/// so a lookup borrows the caller's source instead of building a key.
type FrontendEntries = FxHashMap<
    (Language, SpecVersion),
    FxHashMap<Box<str>, Result<Arc<FrontendUnit>, CompileFailure>>,
>;

/// A thread-safe compilation cache.
///
/// Entries never go stale: keys are pure functions of their content, so an
/// entry could only become wrong if the compiler itself changed — which
/// can't happen within a process. An entry lives as long as its cache, so
/// the owner picks the lifetime: a process-wide cache keeps every entry
/// until exit, a [`scoped`](Self::scoped) one frees its entries when it
/// drops.
#[derive(Default)]
pub struct CompileCache {
    frontend: Mutex<FrontendEntries>,
    exec: Mutex<FxHashMap<String, Result<Arc<Executable>, CompileFailure>>>,
    counters: Arc<Counters>,
}

/// The hit/miss counters of one cache and of every cache scoped from it.
/// Run-memo lookups are counted where [`Executable::run_with_knobs`]
/// consults a memo of an executable compiled through one of them.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    frontend_hits: AtomicU64,
    frontend_misses: AtomicU64,
    exec_hits: AtomicU64,
    exec_misses: AtomicU64,
    memo_hits: AtomicU64,
    memo_misses: AtomicU64,
}

impl Counters {
    pub(crate) fn record_memo(&self, hit: bool) {
        let counter = if hit {
            &self.memo_hits
        } else {
            &self.memo_misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A point-in-time snapshot of the cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Front-end lookups served from cache.
    pub frontend_hits: u64,
    /// Front-end lookups that had to parse.
    pub frontend_misses: u64,
    /// [`CompileCache::executable`] lookups served from cache; the product
    /// makes none, so its reports and metrics leave this out.
    pub exec_hits: u64,
    /// [`CompileCache::executable`] lookups that had to compile.
    pub exec_misses: u64,
    /// Memoized runs replayed from a run memo.
    pub run_memo_hits: u64,
    /// Memoized runs that executed the program.
    pub run_memo_misses: u64,
}

impl CacheStats {
    /// Compile lookups: one per compile through the cache.
    pub fn lookups(&self) -> u64 {
        self.frontend_hits + self.frontend_misses
    }

    /// Compile hit rate in `[0, 1]`; 0 when no lookups happened. Run-memo
    /// lookups are not compiles and stay out of it.
    pub fn hit_rate(&self) -> f64 {
        acc_obs::metrics::CacheCounters::from(*self).hit_rate()
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "frontend {}/{} hits ({:.1}%), run memo {}/{} hits",
            self.frontend_hits,
            self.lookups(),
            self.hit_rate() * 100.0,
            self.run_memo_hits,
            self.run_memo_hits + self.run_memo_misses,
        )
    }
}

impl From<CacheStats> for acc_obs::metrics::CacheCounters {
    fn from(s: CacheStats) -> Self {
        acc_obs::metrics::CacheCounters {
            frontend_hits: s.frontend_hits,
            frontend_misses: s.frontend_misses,
            run_memo_hits: s.run_memo_hits,
            run_memo_misses: s.run_memo_misses,
        }
    }
}

impl CompileCache {
    /// An empty cache.
    pub fn new() -> Self {
        CompileCache::default()
    }

    /// An empty cache behind an `Arc`, ready to share across compilers and
    /// worker threads.
    pub fn shared() -> Arc<Self> {
        Arc::new(CompileCache::new())
    }

    /// An empty cache that counts into this one's counters: its lookups
    /// and run-memo hits show in this cache's [`stats`](Self::stats), its
    /// entries do not outlive it. A sweep gives each case one, so a
    /// source's artifacts are shared by every release that runs the case
    /// and freed when the case ends.
    pub fn scoped(&self) -> CompileCache {
        CompileCache {
            counters: Arc::clone(&self.counters),
            ..CompileCache::default()
        }
    }

    /// Get-or-compute the front-end artifact for `(language, spec, source)`.
    ///
    /// `compute` runs outside the cache lock; concurrent racers on the same
    /// key both compute, but the first insertion wins and is returned to
    /// everyone. The product calls [`frontend_unit`](Self::frontend_unit)
    /// instead; this view of the same entry serves callers that finish the
    /// compile themselves ([`crate::driver::finish_compile`]).
    pub fn frontend(
        &self,
        source: &str,
        language: Language,
        spec: SpecVersion,
        compute: impl FnOnce() -> Result<Frontend, CompileFailure>,
    ) -> Result<Frontend, CompileFailure> {
        self.frontend_unit(source, language, spec, compute)
            .map(|unit| (Arc::clone(&unit.program), Arc::clone(&unit.resolved)))
    }

    /// [`frontend`](Self::frontend), returning the whole entry: the
    /// artifact plus the usage summary, image and run memos every release
    /// compiling the source fills and shares. Every compile through a
    /// cache starts here.
    pub(crate) fn frontend_unit(
        &self,
        source: &str,
        language: Language,
        spec: SpecVersion,
        compute: impl FnOnce() -> Result<Frontend, CompileFailure>,
    ) -> Result<Arc<FrontendUnit>, CompileFailure> {
        let cached = self
            .frontend
            .lock()
            .unwrap()
            .get(&(language, spec))
            .and_then(|sources| sources.get(source))
            .cloned();
        if let Some(cached) = cached {
            self.counters.frontend_hits.fetch_add(1, Ordering::Relaxed);
            // Timing-class: which worker sees the hit depends on schedule.
            acc_obs::instant_timing("cache", "frontend", vec![acc_obs::s("outcome", "hit")]);
            return cached;
        }
        self.counters
            .frontend_misses
            .fetch_add(1, Ordering::Relaxed);
        acc_obs::instant_timing("cache", "frontend", vec![acc_obs::s("outcome", "miss")]);
        let fresh = compute().map(|(program, resolved)| {
            Arc::new(FrontendUnit::new(
                program,
                resolved,
                Some(Arc::clone(&self.counters)),
            ))
        });
        self.frontend
            .lock()
            .unwrap()
            .entry((language, spec))
            .or_default()
            .entry(Box::from(source))
            .or_insert(fresh)
            .clone()
    }

    /// Get-or-compute the executable for `(profile fingerprint, source)`.
    ///
    /// `fingerprint` must uniquely determine the vendor profile (vendor,
    /// version, target, extra defects, language) — see
    /// [`crate::vendor::VendorCompiler::fingerprint`]. The product no
    /// longer calls this: [`crate::vendor::VendorCompiler::compile`] builds
    /// each release's executable around the source's front-end entry. It
    /// stays for callers outside the product that still key executables.
    pub fn executable(
        &self,
        fingerprint: &str,
        source: &str,
        compute: impl FnOnce() -> Result<Executable, CompileFailure>,
    ) -> Result<Arc<Executable>, CompileFailure> {
        let key = format!("{fingerprint}\u{0}{source}");
        if let Some(cached) = self.exec.lock().unwrap().get(&key) {
            self.counters.exec_hits.fetch_add(1, Ordering::Relaxed);
            // Timing-class: which worker sees the hit depends on schedule.
            acc_obs::instant_timing("cache", "exec", vec![acc_obs::s("outcome", "hit")]);
            return cached.clone();
        }
        self.counters.exec_misses.fetch_add(1, Ordering::Relaxed);
        acc_obs::instant_timing("cache", "exec", vec![acc_obs::s("outcome", "miss")]);
        let fresh = compute().map(Arc::new);
        self.exec
            .lock()
            .unwrap()
            .entry(key)
            .or_insert(fresh)
            .clone()
    }

    /// Snapshot the hit/miss counters (shared with every cache scoped from
    /// this one).
    pub fn stats(&self) -> CacheStats {
        let c = &self.counters;
        CacheStats {
            frontend_hits: c.frontend_hits.load(Ordering::Relaxed),
            frontend_misses: c.frontend_misses.load(Ordering::Relaxed),
            exec_hits: c.exec_hits.load(Ordering::Relaxed),
            exec_misses: c.exec_misses.load(Ordering::Relaxed),
            run_memo_hits: c.memo_hits.load(Ordering::Relaxed),
            run_memo_misses: c.memo_misses.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct [`executable`](Self::executable) entries (one per
    /// profile × source pair seen). The product no longer calls this; it
    /// reads 0 for every cache the product fills.
    pub fn exec_entries(&self) -> usize {
        self.exec.lock().unwrap().len()
    }

    /// Number of distinct front-end entries (one per language × source pair
    /// seen).
    pub fn frontend_entries(&self) -> usize {
        self.frontend
            .lock()
            .unwrap()
            .values()
            .map(|sources| sources.len())
            .sum()
    }
}

impl fmt::Debug for CompileCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompileCache")
            .field("frontend_entries", &self.frontend_entries())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugs::BugCatalog;
    use crate::driver::FailureKind;
    use crate::vendor::{VendorCompiler, VendorId};
    use acc_device::{Defect, ExecProfile, TranslationTarget};

    const SRC: &str = "int main(void) {\n    int x = 1;\n    return x;\n}\n";

    #[test]
    fn frontend_level_shares_one_parse() {
        let cache = CompileCache::new();
        let mut calls = 0;
        for _ in 0..3 {
            let r = cache.frontend(SRC, Language::C, SpecVersion::V1_0, || {
                calls += 1;
                crate::driver::frontend_compile(SRC, Language::C)
            });
            assert!(r.is_ok());
        }
        assert_eq!(calls, 1, "parse ran once");
        let s = cache.stats();
        assert_eq!((s.frontend_hits, s.frontend_misses), (2, 1));
    }

    #[test]
    fn a_scoped_cache_counts_into_its_parent_and_keeps_its_entries() {
        let parent = CompileCache::new();
        {
            let scoped = parent.scoped();
            for _ in 0..2 {
                let r = scoped.frontend(SRC, Language::C, SpecVersion::V1_0, || {
                    crate::driver::frontend_compile(SRC, Language::C)
                });
                assert!(r.is_ok());
            }
            assert_eq!(scoped.frontend_entries(), 1);
            assert_eq!(scoped.stats(), parent.stats());
        }
        assert_eq!(parent.frontend_entries(), 0);
        let s = parent.stats();
        assert_eq!((s.frontend_hits, s.frontend_misses), (1, 1));
    }

    #[test]
    fn languages_do_not_collide() {
        let cache = CompileCache::new();
        let _ = cache.frontend(SRC, Language::C, SpecVersion::V1_0, || {
            crate::driver::frontend_compile(SRC, Language::C)
        });
        // Same source under Fortran is a distinct key (here it simply fails
        // to parse, which is itself cached).
        let r = cache.frontend(SRC, Language::Fortran, SpecVersion::V1_0, || {
            crate::driver::frontend_compile(SRC, Language::Fortran)
        });
        assert!(r.is_err());
        assert_eq!(cache.frontend_entries(), 2);
    }

    #[test]
    fn failures_are_cached() {
        let cache = CompileCache::new();
        let bad = "int main(void) {\n    @@@\n}\n";
        let mut calls = 0;
        for _ in 0..2 {
            let r = cache.frontend(bad, Language::C, SpecVersion::V1_0, || {
                calls += 1;
                crate::driver::frontend_compile(bad, Language::C)
            });
            assert!(r.is_err());
        }
        assert_eq!(calls, 1, "failed parse also ran once");
    }

    #[test]
    fn exec_level_keyed_by_fingerprint() {
        let cache = CompileCache::new();
        let pgi = VendorCompiler::latest(VendorId::Pgi);
        let cray = VendorCompiler::latest(VendorId::Cray);
        let a = cache
            .executable(&pgi.fingerprint(Language::C), SRC, || {
                pgi.compile(SRC, Language::C)
            })
            .unwrap();
        let b = cache
            .executable(&cray.fingerprint(Language::C), SRC, || {
                cray.compile(SRC, Language::C)
            })
            .unwrap();
        assert_eq!(cache.exec_entries(), 2, "distinct profiles, distinct keys");
        assert_ne!(a.profile.name, b.profile.name);
        // Re-asking for PGI is a hit and returns the same allocation.
        let a2 = cache
            .executable(&pgi.fingerprint(Language::C), SRC, || {
                pgi.compile(SRC, Language::C)
            })
            .unwrap();
        assert!(Arc::ptr_eq(&a, &a2));
        assert_eq!(cache.stats().exec_hits, 1);
    }

    #[test]
    fn releases_and_vendors_share_one_image_but_not_profiles() {
        let cache = CompileCache::shared();
        let compilers = [
            VendorCompiler::new(VendorId::Caps, "3.2.3".parse().unwrap()),
            VendorCompiler::latest(VendorId::Caps),
            VendorCompiler::latest(VendorId::Pgi),
            VendorCompiler::latest(VendorId::Cray),
        ]
        .map(|c| c.with_cache(Arc::clone(&cache)));
        let exes: Vec<Executable> = compilers
            .iter()
            .map(|c| c.compile(SRC, Language::C).unwrap())
            .collect();
        for (i, a) in exes.iter().enumerate() {
            assert!(Arc::ptr_eq(&a.profile, &compilers[i].profile(Language::C)));
            for b in &exes[i + 1..] {
                assert!(Arc::ptr_eq(&a.code, &b.code), "one image per source");
                assert_ne!(a.profile, b.profile, "one profile per release");
            }
        }
        assert_eq!(cache.frontend_entries(), 1);
        assert_eq!(cache.exec_entries(), 0, "executables are built, not cached");
        let s = cache.stats();
        assert_eq!((s.frontend_hits, s.frontend_misses), (3, 1));
        assert_eq!((s.exec_hits, s.exec_misses), (0, 0));
    }

    #[test]
    fn releases_that_observe_a_source_alike_share_one_run_memo() {
        use crate::exec::RunKnobs;
        use acc_spec::envvar::EnvConfig;
        let cache = CompileCache::shared();
        let compile = |c: VendorCompiler, src: &str| {
            c.with_cache(Arc::clone(&cache))
                .compile(src, Language::C)
                .unwrap()
        };
        let caps = |v: &str| VendorCompiler::new(VendorId::Caps, v.parse().unwrap());
        let pgi = VendorCompiler::new(VendorId::Pgi, "13.8".parse().unwrap());
        // SRC reaches no defect: releases differ only in what it cannot see.
        let caps_old = compile(caps("3.0.7"), SRC);
        let caps_new = compile(caps("3.3.4"), SRC);
        let pgi_new = compile(pgi, SRC);
        let reference = compile(VendorCompiler::reference(), SRC);
        let cray = compile(VendorCompiler::latest(VendorId::Cray), SRC);
        for (a, b) in [(&caps_old, &caps_new), (&pgi_new, &reference)] {
            assert!(Arc::ptr_eq(&a.run_memo, &b.run_memo));
            assert_ne!(a.profile, b.profile, "profiles stay per release");
        }
        for caps in [&caps_old, &caps_new] {
            for other in [&pgi_new, &reference, &cray] {
                assert!(!Arc::ptr_eq(&caps.run_memo, &other.run_memo));
            }
        }
        assert!(!Arc::ptr_eq(&cray.run_memo, &pgi_new.run_memo));

        // The second release replays the first's run.
        let knobs = RunKnobs {
            memo: true,
            ..RunKnobs::default()
        };
        let env = EnvConfig::empty();
        let first = caps_old.run_with_knobs(&env, knobs);
        assert_eq!(caps_new.run_with_knobs(&env, knobs), first);
        let s = cache.stats();
        assert_eq!((s.run_memo_hits, s.run_memo_misses), (1, 1));

        // A defect splits the memo only where the source can reach it.
        let update = "int main(void) {\n    int a[4];\n    #pragma acc data copy(a[0:4])\n    {\n        #pragma acc update host(a[0:4])\n    }\n    return 1;\n}\n";
        let noop = || VendorCompiler::reference().with_extra_defect(Defect::UpdateNoop);
        let plain = compile(noop(), SRC);
        assert!(Arc::ptr_eq(&plain.run_memo, &reference.run_memo));
        let with_update = compile(noop(), update);
        let without = compile(VendorCompiler::reference(), update);
        assert!(!Arc::ptr_eq(&with_update.run_memo, &without.run_memo));
    }

    #[test]
    fn a_rejecting_release_leaves_the_image_for_a_later_one() {
        let src = "int main(void) {\n    int gangs = 8;\n    #pragma acc parallel num_gangs(gangs)\n    {\n    }\n    return 1;\n}\n";
        let cache = CompileCache::shared();
        let release = |v: &str| {
            VendorCompiler::new(VendorId::Caps, v.parse().unwrap()).with_cache(Arc::clone(&cache))
        };
        let err = release("3.0.7").compile(src, Language::C).unwrap_err();
        assert_eq!(err.kind, FailureKind::InternalError);
        assert!(
            err.messages
                .iter()
                .any(|m| m.contains("`num_gangs` requires a constant expression")),
            "{err}"
        );
        let unit = cache
            .frontend_unit(src, Language::C, SpecVersion::V1_0, || {
                unreachable!("the rejecting compile filled the front-end entry")
            })
            .unwrap();
        assert!(
            unit.image.get().is_none(),
            "a rejected compile lowers nothing"
        );

        let exe = release("3.1.0").compile(src, Language::C).unwrap();
        let uncached = VendorCompiler::new(VendorId::Caps, "3.1.0".parse().unwrap())
            .compile(src, Language::C)
            .unwrap();
        assert_eq!(exe.disassemble(), uncached.disassemble());
        assert!(Arc::ptr_eq(unit.image.get().unwrap(), &exe.code));
    }

    #[test]
    fn builders_leave_the_profile_equal_to_a_fresh_build() {
        let vendor = VendorId::Pgi;
        let version = "12.6".parse().unwrap();
        let target = TranslationTarget::Opencl;
        let extra = Defect::TransientMemcpyFault {
            rate_pct: 35,
            seed: 7,
        };
        // Each order ends in a different builder, so each catches that
        // builder leaving a stale profile behind.
        let orders = [
            VendorCompiler::new(vendor, version)
                .with_target(target)
                .with_extra_defect(extra.clone()),
            VendorCompiler::new(vendor, version)
                .with_extra_defect(extra.clone())
                .with_target(target),
        ];
        for compiler in orders {
            for language in Language::ALL {
                let mut fresh =
                    ExecProfile::conforming(format!("PGI 12.6 ({language})"), vendor.mapping());
                fresh.worker_loop_policy = vendor.worker_loop_policy();
                fresh.target = target;
                for bug in BugCatalog::paper().active(vendor, version, language) {
                    fresh.inject(bug.defect.clone());
                }
                fresh.inject(extra.clone());
                assert_eq!(*compiler.profile(language), fresh, "{language}");
            }
        }
    }
}
