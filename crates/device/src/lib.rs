//! # acc-device — the simulated accelerator
//!
//! The paper's testbed is a 16-core Xeon host with an NVIDIA K20: a
//! *discrete-memory* accelerator behind a driver that offers asynchronous
//! work queues. This crate simulates exactly the properties the OpenACC 1.0
//! feature set observes:
//!
//! * **Discrete memory** ([`memory`]): device buffers are distinct from host
//!   storage; host writes are invisible on the device until an explicit
//!   transfer and vice versa. A present-table tracks which host symbols are
//!   mapped, with reference counts for nested data regions.
//! * **Asynchronous queues on a virtual clock** ([`queue`]): work enqueued
//!   with an `async(tag)` clause completes at a simulated timestamp;
//!   `acc_async_test` compares against the clock, `wait` advances it. No
//!   wall-clock sleeps, fully deterministic.
//! * **Uninitialized-memory modeling**: freshly created buffers are filled
//!   with a deterministic garbage pattern, so `copyout`-without-write tests
//!   observe "non-deterministic" values that differ from host data (§IV-B-3).
//! * **Execution profile** ([`profile`]): the knobs a simulated vendor
//!   compiler twists — gang/worker/vector hardware mapping, the
//!   worker-without-gang ambiguity policy, and injected wrong-code defects.
//! * **Metrics** ([`metrics`]): kernels launched, bytes moved, iterations
//!   executed — consumed by the benches and the Titan harness.

#![warn(missing_docs)]

pub mod memory;
pub mod metrics;
pub mod profile;
pub mod queue;
pub mod value;

pub use memory::{BufferId, DeviceBuffer, DeviceMemory, PresentEntry, PresentTable};
pub use metrics::Metrics;
pub use profile::{Defect, ExecProfile, TranslationTarget, WorkerLoopPolicy};
pub use queue::{AsyncQueues, VirtualClock};
pub use value::{ArrayData, Value};
