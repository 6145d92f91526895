//! One `Scenario` API: the unified workload/simulator/report surface.
//!
//! LLMServingSim serves in several shapes — a single replica, a routed
//! cluster, disaggregated prefill/decode pools, reshaping fleets — and
//! each used to come with its own config struct, report type, and CLI
//! plumbing, so every new serving technique paid an O(front-ends)
//! integration tax. This crate is one composable experiment surface
//! over them all (the direction LLMServingSim 2.0's "unified simulator"
//! takes):
//!
//! * [`Scenario`] — a typed, chainable, *declarative* description of an
//!   experiment: model, hardware, serving-technique knobs, fleet shape,
//!   workload. Cross-field constraints are validated at
//!   [`build`](Scenario::build) time with a typed [`ScenarioError`], and
//!   the value round-trips losslessly to TOML and JSON scenario files
//!   (unknown keys are schema drift and fail loudly).
//! * [`Scenario::build`] returns a [`FleetEngine`](llmss_core::FleetEngine)
//!   for every shape — a single replica is a one-replica fleet — and
//!   [`Scenario::run`] its [`FleetReport`](llmss_core::FleetReport),
//!   whose shape tag picks the artifact set, so drivers are written
//!   once.
//! * [`Sweep`] — cartesian parameter grids over a base scenario
//!   (`[sweep]` tables of a sweep file, or the [`Sweep::axis`] builder),
//!   one consolidated TSV row per point.
//!
//! # Examples
//!
//! Builder, file, and sweep are the same object:
//!
//! ```
//! use llmss_scenario::Scenario;
//! use llmss_sched::{Dataset, WorkloadSpec};
//!
//! let scenario = Scenario::model("gpt2").npus(1).tensor_parallel().workload(
//!     WorkloadSpec::Synthetic { dataset: Dataset::Alpaca, requests: 4, rate_per_s: 50.0, seed: 1 },
//! );
//! // ... serialize it for the repo ...
//! let file = scenario.to_toml();
//! // ... and a colleague reproduces the run from the file alone.
//! let report = Scenario::from_toml(&file)?.run()?;
//! assert_eq!(report.total_completions(), 4);
//! # Ok::<(), llmss_scenario::ScenarioError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chaos;
mod codec;
mod error;
mod fabric;
mod fleet;
mod scenario;
mod sweep;
mod telemetry;
pub mod toml;

pub use chaos::{ChaosSpec, LinkFaultSpec, ReplicaFaultSpec};
pub use error::ScenarioError;
pub use fabric::{FabricLink, FabricRoute, FabricSharing, FabricSpec};
pub use fleet::{FleetControlKind, FleetSpec, ReplicaOverride};
pub use scenario::{Scenario, ServingShape};
pub use sweep::{Sweep, SweepAxis, SweepPoint, SweepReport, SweepRow};
pub use telemetry::TelemetrySpec;
