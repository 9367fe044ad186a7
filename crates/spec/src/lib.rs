//! # acc-spec — the OpenACC 1.0 feature model
//!
//! This crate is the single source of truth for *what OpenACC 1.0 is*, as far
//! as the validation suite is concerned: the directives, the clauses each
//! directive admits, the reduction operators, the runtime library routines,
//! the environment variables, and the device types. Everything above this
//! crate (front-ends, compilers, the testsuite) keys its behaviour off these
//! enums, and the feature registry in [`feature`] gives every testable item a
//! stable identifier that the bug catalog and the report generator share.
//!
//! The crate also records, in [`resolution`], the specification ambiguities
//! the paper reports (§VI) together with how OpenACC 2.0 resolved them, which
//! the ambiguity-exploration tooling consumes.
//!
//! Nothing here executes anything; it is pure data and classification logic,
//! which keeps it dependency-free and lets every other crate share one model.
//! The one utility beside the model, [`fxhash`], lives here for the same
//! reason: every crate that keys maps by program identifiers depends on
//! this one.

#![warn(missing_docs)]

pub mod clause;
pub mod device_type;
pub mod directive;
pub mod envvar;
pub mod feature;
pub mod fxhash;
pub mod language;
pub mod parallelism;
pub mod reduction;
pub mod resolution;
pub mod routine;
pub mod version;

pub use clause::ClauseKind;
pub use device_type::DeviceType;
pub use directive::DirectiveKind;
pub use envvar::EnvVar;
pub use feature::{Feature, FeatureArea, FeatureId, FeatureRegistry};
pub use fxhash::{FxHashMap, FxHashSet};
pub use language::Language;
pub use parallelism::{HardwareAxis, ParallelismLevel, VendorMapping};
pub use reduction::ReductionOp;
pub use resolution::{Ambiguity, AmbiguityId};
pub use routine::RuntimeRoutine;
pub use version::SpecVersion;
