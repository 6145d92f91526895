//! One fleet engine for every serving shape, a single replica included.
//!
//! The repo used to run three near-duplicate virtual-time event loops —
//! the single-replica step loop, the cluster's router interleave, and
//! the disaggregated pool/transfer interleave — so every fleet-level
//! feature (heterogeneous hardware, role flexing, autoscaling) would
//! have had to be implemented three times. This module collapses them
//! into one core:
//!
//! ```text
//!             ┌──────────────────────────────────────────────┐
//!             │                 FleetEngine                  │
//!             │  virtual-time loop · ReadyHeap · KV links    │
//!             └──────┬────────────┬──────────────┬───────────┘
//!        admit/pair  │            │ step         │ handoff
//!             ┌──────▼─────┐ ┌────▼───────┐ ┌────▼───────┐
//!             │ControlPlane│ │ Replica 0  │ │ Replica N  │
//!             │ static /   │ │ Serving-   │…│ Serving-   │
//!             │ flex /     │ │ Simulator  │ │ Simulator  │
//!             │ autoscale  │ │ + role     │ │ + role     │
//!             └────────────┘ └────────────┘ └────────────┘
//! ```
//!
//! * [`FleetEngine`] — the event loop: replica slots, KV-transfer links,
//!   control ticks, drain-safe reconfiguration.
//! * [`ControlPlane`] — the policy brain: admission (routing), pairing
//!   (KV handoff targets), and reconfiguration ([`FleetCommand`]).
//!   Shipped planes: [`StaticControl`], [`FlexPools`],
//!   [`AutoscaleControl`].
//! * [`ReadyHeap`] — the shared lazy-invalidation min-heap of replica
//!   ready-times.
//! * [`RoutingPolicy`] / [`ReplicaSnapshot`] / [`ReplicaRole`] — the
//!   router vocabulary.
//! * [`FleetShape`] — which constructor built the fleet:
//!   [`FleetEngine::cluster`] over one configuration (the single shape)
//!   or several, [`FleetEngine::disagg`] (configured by
//!   [`DisaggConfig`] and [`PairingPolicyKind`]), or any other.
//! * [`FleetReport`] — the one report for every shape; the shape only
//!   picks the artifact set it writes.

mod control;
mod engine;
mod heap;
mod report;
mod route;
mod shape;

pub use control::{
    AutoscaleConfig, AutoscaleControl, ControlPlane, FleetCommand, FleetStats, FlexPools,
    FlexPoolsConfig, ReplicaStatus, StaticControl,
};
#[cfg(test)]
pub(crate) use engine::FleetParts;
pub use engine::{FleetEngine, FleetTransfer, ReplicaSlot};
pub use heap::ReadyHeap;
pub use report::{FleetReplica, FleetReport, TtftComponents, TtftSplit};
pub use route::{
    LeastKvLoad, LeastOutstanding, PowerOfTwoChoices, ReplicaRole, ReplicaSnapshot, RoundRobin,
    RoutingPolicy, RoutingPolicyKind, Sticky,
};
pub use shape::{DisaggConfig, FleetShape, PairingPolicyKind};
