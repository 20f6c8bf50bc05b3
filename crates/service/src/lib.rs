//! `si-service`: a concurrent simulation job service for the
//! switched-current analysis engine.
//!
//! The engine crates solve one circuit at a time; this crate turns them
//! into a long-running service shaped for many clients asking overlapping
//! questions:
//!
//! - **Content-addressed results** — a job's identity is a process-stable
//!   hash of the circuit's structure and values plus the analysis
//!   parameters ([`jobspec::JobSpec::job_key`]). Ask the same question
//!   twice, pay for one solve.
//! - **Single-flight deduplication** — concurrent identical jobs coalesce
//!   onto one computation ([`cache::ResultCache`]).
//! - **Tiered persistence** — results live in a sharded memory tier and,
//!   when a cache directory is configured, a crash-safe checksummed disk
//!   tier that survives process restarts ([`disk::DiskTier`]).
//! - **Bounded admission** — a fixed worker pool behind a fixed-depth
//!   queue sheds load with a typed [`error::ServiceError::Overloaded`]
//!   instead of queueing without bound ([`pool::WorkerPool`]).
//! - **A std-only wire** — hand-rolled HTTP/1.1 and JSON ([`http`],
//!   [`json`]), because the build environment vendors no network or serde
//!   crates.
//! - **Fault tolerance** — worker panics are contained and retried,
//!   mutex poisoning is recovered instead of cascading, transient
//!   failures back off deterministically ([`retry::RetryPolicy`]), and a
//!   seedable chaos hook ([`fault::FaultInjector`]) proves it all under
//!   injected failure.
//! - **Scale-out** — [`router`] shards jobs across replica processes by
//!   consistent hash on the circuit's structure fingerprint, keeping
//!   each topology's symbolic factorization hot on exactly one replica,
//!   with readiness-driven failover and peer cache warming.
//!
//! ```
//! use si_service::jobspec::JobSpec;
//! use si_service::service::{ServiceConfig, SiService};
//!
//! let svc = SiService::new(ServiceConfig::default());
//! let spec = JobSpec::DelayLineDc { stages: 3, bias_ua: 20.0, input_ua: 1.0 };
//! let (first, cached) = svc.submit_blocking(&spec, None).unwrap();
//! assert!(!cached);
//! let (again, cached) = svc.submit_blocking(&spec, None).unwrap();
//! assert!(cached);
//! assert_eq!(first, again);
//! ```

#![warn(missing_docs)]
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod budget;
pub mod cache;
pub mod disk;
pub mod error;
pub mod fault;
pub mod http;
pub mod jobspec;
pub use si_analog::json;
pub mod pool;
pub mod retry;
pub mod router;
pub mod service;

pub use budget::{price_circuit, AdmissionBudget, CircuitCost};
pub use cache::{CacheTier, TierStats};
pub use disk::{DiskTier, DiskTierConfig};
pub use error::ServiceError;
pub use fault::{FaultInjector, FaultKind, FaultPlan, FaultStats};
pub use jobspec::{JobOutput, JobSpec};
pub use retry::RetryPolicy;
pub use router::{Router, RouterConfig, RouterServer};
pub use service::{ServiceConfig, SiService};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `m`, recovering from poisoning instead of cascading a panic.
///
/// Every mutex in this crate guards state that stays usable across a
/// holder that panicked mid-update: indexes and maps that are re-derived
/// or simply re-filled, pool handles and queues whose contents are still
/// sound. The result cache's own lock additionally counts recoveries for
/// `/metrics` and so keeps its own wrapper.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
