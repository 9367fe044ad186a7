//! Simulated vendor compiler product lines.
//!
//! §II of the paper documents how the three vendors legitimately differ in
//! their gang/worker/vector hardware mappings; §V-A evaluates eight released
//! versions of each. A [`VendorCompiler`] pairs a vendor's legitimate
//! implementation choices with the defects its version carries in the
//! [`crate::bugs::BugCatalog`].

use acc_device::{Defect, ExecProfile, TranslationTarget, WorkerLoopPolicy};
use acc_spec::version::CompilerVersion;
use acc_spec::{DeviceType, Language, SpecVersion, VendorMapping};
use std::fmt;
use std::sync::{Arc, LazyLock};

use crate::bugs::BugCatalog;
use crate::cache::CompileCache;
use crate::driver::{compile_with_profile, frontend_compile, CompileFailure, Executable};

/// The paper's catalog, built once per process: it is a constant, so every
/// compiler reads the same one, and a profile is determined by the
/// release, target and extra defects alone.
static CATALOG: LazyLock<BugCatalog> = LazyLock::new(BugCatalog::paper);

/// A compiler product line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VendorId {
    /// CAPS Enterprise HMPP-based OpenACC compiler.
    Caps,
    /// PGI Accelerator OpenACC compiler.
    Pgi,
    /// Cray CCE OpenACC compiler.
    Cray,
    /// The defect-free reference implementation the validation suite itself
    /// uses to compute expected results.
    Reference,
}

impl VendorId {
    /// The three commercial vendors the paper evaluates.
    pub const COMMERCIAL: [VendorId; 3] = [VendorId::Caps, VendorId::Pgi, VendorId::Cray];

    /// Parse a vendor as the CLI's `--vendor` and the server's `vendor`
    /// spell it (any case; `ref` abbreviates `reference`).
    pub fn from_cli(s: &str) -> Result<VendorId, String> {
        match s.to_ascii_lowercase().as_str() {
            "caps" => Ok(VendorId::Caps),
            "pgi" => Ok(VendorId::Pgi),
            "cray" => Ok(VendorId::Cray),
            "reference" | "ref" => Ok(VendorId::Reference),
            other => Err(format!(
                "unknown vendor `{other}` (caps|pgi|cray|reference)"
            )),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            VendorId::Caps => "CAPS",
            VendorId::Pgi => "PGI",
            VendorId::Cray => "Cray",
            VendorId::Reference => "Reference",
        }
    }

    /// The eight released versions the paper evaluates (Fig. 8 / Table I),
    /// oldest first.
    pub fn versions(self) -> Vec<CompilerVersion> {
        let strs: &[&str] = match self {
            VendorId::Caps => &[
                "3.0.7", "3.0.8", "3.1.0", "3.2.3", "3.2.4", "3.3.0", "3.3.3", "3.3.4",
            ],
            VendorId::Pgi => &[
                "12.6", "12.8", "12.9", "12.10", "13.2", "13.4", "13.6", "13.8",
            ],
            VendorId::Cray => &[
                "8.1.2", "8.1.3", "8.1.4", "8.1.5", "8.1.6", "8.1.7", "8.1.8", "8.2.0",
            ],
            VendorId::Reference => &["1.0.0"],
        };
        strs.iter()
            .map(|s| s.parse().expect("static version"))
            .collect()
    }

    /// Index of a version within [`versions`](Self::versions), if released.
    pub fn version_index(self, v: CompilerVersion) -> Option<usize> {
        self.versions().iter().position(|x| *x == v)
    }

    /// The newest released version.
    pub fn latest(self) -> CompilerVersion {
        *self.versions().last().expect("nonempty version line")
    }

    /// The vendor's gang/worker/vector mapping (§II).
    pub fn mapping(self) -> VendorMapping {
        match self {
            VendorId::Caps => VendorMapping::CAPS_STYLE,
            VendorId::Pgi | VendorId::Reference => VendorMapping::PGI_STYLE,
            VendorId::Cray => VendorMapping::CRAY_STYLE,
        }
    }

    /// The vendor's resolution of the Fig. 1 worker-without-gang ambiguity.
    pub fn worker_loop_policy(self) -> WorkerLoopPolicy {
        match self {
            VendorId::Caps => WorkerLoopPolicy::PerGangWorkers,
            // PGI ignores the worker level entirely.
            VendorId::Pgi | VendorId::Reference => WorkerLoopPolicy::SequentialPerGang,
            // Cray's forward analysis spreads the loop across all gangs.
            VendorId::Cray => WorkerLoopPolicy::SpreadAcrossGangs,
        }
    }

    /// The implementation-defined concrete device type (§V-C): what
    /// `acc_get_device_type` reports after selecting `acc_device_not_host`.
    pub fn concrete_device(self) -> DeviceType {
        match self {
            VendorId::Caps => DeviceType::Cuda,
            VendorId::Pgi => DeviceType::Nvidia,
            VendorId::Cray => DeviceType::Nvidia,
            VendorId::Reference => DeviceType::Nvidia,
        }
    }
}

impl fmt::Display for VendorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One vendor compiler at one released version for one target stack.
#[derive(Debug, Clone)]
pub struct VendorCompiler {
    /// Product line.
    pub vendor: VendorId,
    /// Release version.
    pub version: CompilerVersion,
    /// Software stack the node translates through.
    target: TranslationTarget,
    /// Extra defects injected on top of the catalog — used by the Titan
    /// harness to model faulty node software stacks.
    extra_defects: Vec<Defect>,
    /// The profile per language (C, Fortran), rebuilt by every builder that
    /// changes a field it depends on.
    profiles: [Arc<ExecProfile>; 2],
    cache: Option<Arc<CompileCache>>,
}

/// The execution profile of a release for each language (C, Fortran): the
/// vendor's legitimate choices plus the catalog's active defects and the
/// extra ones.
fn build_profiles(
    vendor: VendorId,
    version: CompilerVersion,
    target: TranslationTarget,
    extra_defects: &[Defect],
) -> [Arc<ExecProfile>; 2] {
    Language::ALL.map(|language| {
        let mut p = ExecProfile::conforming(
            format!("{} {version} ({language})", vendor.name()),
            vendor.mapping(),
        );
        p.worker_loop_policy = vendor.worker_loop_policy();
        p.target = target;
        for bug in CATALOG.active(vendor, version, language) {
            p.inject(bug.defect.clone());
        }
        for d in extra_defects {
            p.inject(d.clone());
        }
        Arc::new(p)
    })
}

impl VendorCompiler {
    /// A vendor compiler at a specific released version.
    ///
    /// Panics if the version was never released by the vendor (the paper
    /// only evaluates shipped releases).
    pub fn new(vendor: VendorId, version: CompilerVersion) -> Self {
        assert!(
            vendor.version_index(version).is_some(),
            "{vendor} never released {version}"
        );
        let target = TranslationTarget::Cuda;
        VendorCompiler {
            vendor,
            version,
            target,
            extra_defects: Vec::new(),
            profiles: build_profiles(vendor, version, target, &[]),
            cache: None,
        }
    }

    /// The latest release of a vendor.
    pub fn latest(vendor: VendorId) -> Self {
        VendorCompiler::new(vendor, vendor.latest())
    }

    /// The defect-free reference compiler.
    pub fn reference() -> Self {
        VendorCompiler::new(VendorId::Reference, VendorId::Reference.latest())
    }

    /// Select the translation stack (Titan harness, Fig. 13).
    pub fn with_target(mut self, target: TranslationTarget) -> Self {
        self.target = target;
        self.rebuild_profiles()
    }

    /// Inject an extra defect on top of the catalog (a faulty node stack in
    /// the Titan harness).
    pub fn with_extra_defect(mut self, d: Defect) -> Self {
        self.extra_defects.push(d);
        self.rebuild_profiles()
    }

    fn rebuild_profiles(mut self) -> Self {
        self.profiles = build_profiles(self.vendor, self.version, self.target, &self.extra_defects);
        self
    }

    /// Attach a shared compilation cache: [`compile`](Self::compile) then
    /// shares each source's front-end work, image and run memos through
    /// it. A suite run compiles through it rather than through its
    /// campaign's per-case scopes, so its entries outlive the run.
    pub fn with_cache(mut self, cache: Arc<CompileCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The attached compilation cache, if any.
    pub fn cache(&self) -> Option<&Arc<CompileCache>> {
        self.cache.as_ref()
    }

    /// Human-readable label ("PGI 13.4").
    pub fn label(&self) -> String {
        format!("{} {}", self.vendor.name(), self.version)
    }

    /// The execution profile for this release and language: the vendor's
    /// legitimate choices plus the catalog's active defects. Built when the
    /// compiler is configured and shared by every executable it compiles.
    pub fn profile(&self, language: Language) -> Arc<ExecProfile> {
        let slot = match language {
            Language::C => 0,
            Language::Fortran => 1,
        };
        Arc::clone(&self.profiles[slot])
    }

    /// Compile source text. Mirrors the real pipeline: front-end →
    /// conformance checks → vendor-specific internal errors → executable
    /// carrying the injected wrong-code defects.
    ///
    /// With a cache attached, the source's one entry in it supplies the
    /// front half (parse, sema, resolve), the defect-usage summary, the
    /// lowered bytecode image and the run memos, shared by every vendor
    /// and version that compiles the same source; only the compile-time
    /// check and the executable around the shared parts are per release.
    /// Identical results either way.
    pub fn compile(&self, source: &str, language: Language) -> Result<Executable, CompileFailure> {
        let (profile, device) = (self.profile(language), self.vendor.concrete_device());
        match &self.cache {
            None => compile_with_profile(source, language, profile, device),
            Some(cache) => cache
                .frontend_unit(source, language, SpecVersion::V1_0, || {
                    frontend_compile(source, language)
                })?
                .finish(profile, device),
        }
    }

    /// A string that uniquely determines this compiler's behaviour for a
    /// given language: vendor, version, translation target, extra defects,
    /// language, and spec version. The bug catalog is always
    /// [`BugCatalog::paper`], so these fields fully determine the profile.
    /// It keys [`CompileCache::executable`]; the product compiles through
    /// [`compile`](Self::compile) and calls neither.
    pub fn fingerprint(&self, language: Language) -> String {
        format!(
            "{:?}|{}|{:?}|{:?}|{:?}|{:?}",
            self.vendor,
            self.version,
            self.target,
            self.extra_defects,
            language,
            SpecVersion::V1_0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_lines_have_eight_releases() {
        for v in VendorId::COMMERCIAL {
            assert_eq!(v.versions().len(), 8, "{v}");
        }
    }

    #[test]
    fn version_index_lookup() {
        let v: CompilerVersion = "13.2".parse().unwrap();
        assert_eq!(VendorId::Pgi.version_index(v), Some(4));
        let never: CompilerVersion = "99.9".parse().unwrap();
        assert_eq!(VendorId::Pgi.version_index(never), None);
    }

    #[test]
    #[should_panic(expected = "never released")]
    fn unreleased_version_panics() {
        VendorCompiler::new(VendorId::Caps, "9.9.9".parse().unwrap());
    }

    #[test]
    fn reference_profile_is_defect_free() {
        let c = VendorCompiler::reference();
        for lang in Language::ALL {
            assert_eq!(c.profile(lang).defect_count(), 0, "{lang}");
        }
    }

    #[test]
    fn vendor_mappings_differ() {
        assert!(VendorId::Pgi
            .mapping()
            .honors(acc_spec::ParallelismLevel::Gang));
        assert!(!VendorId::Pgi
            .mapping()
            .honors(acc_spec::ParallelismLevel::Worker));
        assert!(VendorId::Caps
            .mapping()
            .honors(acc_spec::ParallelismLevel::Worker));
        assert!(VendorId::Cray
            .mapping()
            .honors(acc_spec::ParallelismLevel::Vector));
    }

    #[test]
    fn labels() {
        let c = VendorCompiler::new(VendorId::Pgi, "13.8".parse().unwrap());
        assert_eq!(c.label(), "PGI 13.8");
    }

    #[test]
    fn latest_versions() {
        assert_eq!(VendorId::Caps.latest().to_string(), "3.3.4");
        assert_eq!(VendorId::Pgi.latest().to_string(), "13.8");
        assert_eq!(VendorId::Cray.latest().to_string(), "8.2.0");
    }

    #[test]
    fn reference_compiles_and_runs_fig2() {
        let c = VendorCompiler::reference();
        let src = "int main(void) {\n    int error = 0;\n    int A[100];\n    for (i = 0; i < 100; i++)\n    {\n        A[i] = 0;\n    }\n    #pragma acc parallel num_gangs(10) copy(A[0:100])\n    {\n        #pragma acc loop\n        for (i = 0; i < 100; i++)\n        {\n            A[i] = A[i] + 1;\n        }\n    }\n    for (i = 0; i < 100; i++)\n    {\n        if (A[i] != 1)\n        {\n            error = error + 1;\n        }\n    }\n    return error == 0;\n}\n";
        let exe = c.compile(src, Language::C).unwrap();
        let result = exe.run();
        assert!(result.outcome.passed(), "{:?}", result.outcome);
        assert!(result.metrics.kernels_launched >= 1);
    }

    #[test]
    fn cross_test_signal_without_loop_directive() {
        // Fig. 2(b): removing the loop directive makes every gang run the
        // whole loop — each element is incremented 10 times.
        let c = VendorCompiler::reference();
        let src = "int main(void) {\n    int error = 0;\n    int A[100];\n    for (i = 0; i < 100; i++)\n    {\n        A[i] = 0;\n    }\n    #pragma acc parallel num_gangs(10) copy(A[0:100])\n    {\n        for (i = 0; i < 100; i++)\n        {\n            A[i] = A[i] + 1;\n        }\n    }\n    for (i = 0; i < 100; i++)\n    {\n        if (A[i] != 10)\n        {\n            error = error + 1;\n        }\n    }\n    return error == 0;\n}\n";
        let exe = c.compile(src, Language::C).unwrap();
        let result = exe.run();
        assert!(
            result.outcome.passed(),
            "redundant execution must increment 10x: {:?}",
            result.outcome
        );
    }
}
