//! # acc-compiler — simulated vendor OpenACC compilers
//!
//! This crate stands in for the three commercial compiler product lines the
//! paper evaluates (CAPS, PGI, Cray) plus a defect-free reference
//! implementation. A [`vendor::VendorCompiler`] drives the real front-end
//! (`acc-frontend`), performs the specification conformance checks, applies
//! its version's entries from the [`bugs`] catalog — either as compile-time
//! rejections or as an [`acc_device::ExecProfile`] of injected wrong-code
//! defects — and produces an [`Executable`].
//!
//! The execution machine in [`exec`] then runs the executable against the simulated device:
//! it interprets host code, lowers compute regions per the vendor's
//! gang/worker/vector mapping, manages the present table for every data
//! clause, models asynchronous completion on the virtual clock, and
//! faithfully produces the paper's three runtime-error classes — wrong
//! results, crashes, and hangs (§V: "runtime errors include the generation
//! of an incorrect result; a code crash or if the code executes forever").
//!
//! The deterministic redundant-execution semantics (gangs run in sequence;
//! an unpartitioned loop in a 10-gang region increments every element ten
//! times) is exactly the signal the paper's cross tests rely on; see
//! DESIGN.md §4.

#![warn(missing_docs)]

mod arena;
pub mod bugs;
pub mod bytecode;
pub mod cache;
pub mod driver;
pub mod exec;
pub mod vendor;
mod vm;

pub use bugs::{BugCatalog, BugRecord};
pub use bytecode::BytecodeProgram;
pub use cache::{CacheStats, CompileCache};
pub use driver::{CompileFailure, Executable};
pub use exec::{ExecMode, RunKnobs, RunOutcome, RunResult};
pub use vendor::{VendorCompiler, VendorId};
