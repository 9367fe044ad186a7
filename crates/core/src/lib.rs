//! # acc-validation — the OpenACC validation testsuite infrastructure
//!
//! This crate is the paper's primary contribution (§III): a testing
//! infrastructure that validates OpenACC compiler implementations for
//! conformance, correctness and completeness.
//!
//! * **Templates** ([`template`]) — test bases are authored once, in an
//!   HTML-ish tag format wrapping a C-syntax program body. The expansion
//!   engine parses the body with the reference front-end and generates the
//!   complete standalone C *and* Fortran programs, for both the functional
//!   and the cross variant — the paper's "only one test base is needed for
//!   each of the OpenACC features being validated".
//! * **Functional and cross tests** ([`case`], [`cross`]) — the functional
//!   test checks the directive against a pre-calculated value; the cross
//!   test removes (or substitutes) the directive under test and must yield
//!   an *incorrect* result, confirming the functional pass was caused by the
//!   directive itself (§III, Fig. 2).
//! * **Statistical certainty** ([`stats`]) — cross runs are repeated M
//!   times; with `nf` failures, `p = nf/M`, the accidental-pass probability
//!   is `pa = (1-p)^M` and the certainty `pc = 1 - pa`; a feature is
//!   validated only at `pc = 100%`.
//! * **Harness** ([`harness`]) — compiles each generated program with the
//!   compiler under test, runs it, classifies the outcome (pass, wrong
//!   result, compile error, crash, timeout), and applies the cross
//!   methodology.
//! * **Fault-tolerant executor** ([`executor`]) — the one suite runner:
//!   wraps every case in panic isolation, watchdog budgets (interpreter
//!   step limit + wall-clock deadline), a retry policy with flake
//!   classification, and a bounded worker pool, so one broken case or
//!   transient device fault cannot take down or skew a campaign.
//! * **Durable journal** ([`journal`]) — a checksummed, append-only
//!   write-ahead log of every attempt and verdict, so an interrupted
//!   campaign resumes where it stopped (corrupted tails are detected and
//!   discarded) and all report writes are atomic.
//! * **Injectable filesystem** ([`vfs`]) — the seam all durability-critical
//!   I/O routes through: a real passthrough in production, and a
//!   deterministic fault-injecting filesystem (torn writes, EIO/ENOSPC,
//!   fsync loss, crash-after-op-N) for the crash-torture harness.
//! * **Campaigns and reports** ([`campaign`], [`report`]) — describe a
//!   run of the suite against one or many compiler releases, compute pass rates
//!   (Fig. 8), collect discovered-bug inventories (Table I), and render
//!   reports in plain text, CSV, or HTML with code snippets appended "for
//!   vendors' convenience".

#![warn(missing_docs)]

pub mod analysis;
pub mod campaign;
pub mod case;
pub mod config;
pub mod cross;
pub mod executor;
pub mod harness;
pub mod journal;
pub mod report;
pub mod stats;
pub mod template;
pub mod vfs;

pub use analysis::{attribute, Attribution};
pub use campaign::{Campaign, CampaignResult, FailureBreakdown, SuiteRun};
pub use case::{TestCase, TestStatus};
pub use config::SuiteConfig;
pub use cross::CrossRule;
pub use executor::{CancelToken, ExecStats, Executor, ExecutorPolicy, JobMeta};
pub use harness::{run_case, run_case_with, CasePolicy, CaseResult};
pub use journal::{
    atomic_write, fsync_dir, CompletedCase, FileJournal, JournalRecord, JournalSink, MemoryJournal,
    Replay,
};
pub use stats::Certainty;
pub use vfs::{
    atomic_write_via, DiskImage, FaultFs, FaultKind, Injection, OpKind, RealFs, Vfs, VfsFile,
};
