//! The serving shapes behind one value: [`AnySimulator`] and its
//! [`AnyReport`].
//!
//! `Scenario::build` returns an [`AnySimulator`]; callers drive it
//! through the [`Simulate`] trait without caring whether the scenario
//! described a single replica, a routed cluster, a disaggregated
//! deployment or a reshaping fleet — every multi-replica shape is one
//! [`FleetEngine`] — and the resulting [`AnyReport`] writes the artifact
//! set of the shape that built it.

use llmss_core::{
    FleetEngine, FleetReport, ReportOutput, ReuseStats, ServingSimulator, SimEvent, SimReport,
    Simulate, SloSummary, Telemetry,
};
use llmss_sched::{Request, TimePs};

/// A built scenario: one replica or a fleet, driven uniformly through
/// [`Simulate`].
#[derive(Debug)]
// One AnySimulator exists per run; variant size spread is irrelevant at
// that cardinality and boxing the fleet would tax every step call.
#[allow(clippy::large_enum_variant)]
pub enum AnySimulator {
    /// One unified serving replica (boxed: a `ServingSimulator` is an
    /// order of magnitude larger than a fleet handle).
    Single(Box<ServingSimulator>),
    /// Every multi-replica shape: a cluster behind a router, a
    /// disaggregated prefill/decode deployment, or a `[fleet]` scenario
    /// under an explicit control plane.
    Fleet(FleetEngine),
}

impl AnySimulator {
    /// The shape's short name (`single` | `cluster` | `disagg` | `fleet`).
    pub fn shape(&self) -> &'static str {
        match self {
            AnySimulator::Single(_) => "single",
            AnySimulator::Fleet(s) => s.shape().as_str(),
        }
    }

    /// Runs to completion and finalizes (the common whole-trace run).
    pub fn run(self) -> AnyReport {
        Simulate::run_to_completion(self)
    }

    /// Attaches a telemetry handle to whichever shape this is. A fleet
    /// fans it out per replica through its engine; the single shape
    /// scopes it to replica 0 and announces that replica so the
    /// timeline's live-replica series starts at one.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        match self {
            AnySimulator::Single(s) => {
                let scoped = telemetry.for_replica(0);
                scoped.emit(|| SimEvent::ReplicaActivated {
                    t_ps: 0,
                    replica: 0,
                    admit_from_ps: 0,
                });
                s.set_telemetry(scoped);
            }
            AnySimulator::Fleet(s) => s.set_telemetry(telemetry),
        }
    }

    /// Sets the worker-thread budget for windowed fleet stepping
    /// (byte-identical outcomes under any value; a single replica has
    /// nothing to shard, so `Single` ignores it).
    pub fn set_shards(&mut self, shards: usize) {
        if let AnySimulator::Fleet(s) = self {
            s.set_shards(shards);
        }
    }

    /// Arms the fleet-wide shared reuse cache (a single replica has no
    /// peer to share with, so `Single` ignores it).
    pub fn enable_shared_cache(&mut self) {
        if let AnySimulator::Fleet(s) = self {
            s.enable_shared_cache();
        }
    }
}

impl Simulate for AnySimulator {
    type Report = AnyReport;

    fn push_request(&mut self, request: Request) {
        match self {
            AnySimulator::Single(s) => Simulate::push_request(&mut **s, request),
            AnySimulator::Fleet(s) => Simulate::push_request(s, request),
        }
    }

    fn next_ready_ps(&self) -> Option<TimePs> {
        match self {
            AnySimulator::Single(s) => Simulate::next_ready_ps(&**s),
            AnySimulator::Fleet(s) => Simulate::next_ready_ps(s),
        }
    }

    fn clock_ps(&self) -> TimePs {
        match self {
            AnySimulator::Single(s) => Simulate::clock_ps(&**s),
            AnySimulator::Fleet(s) => Simulate::clock_ps(s),
        }
    }

    fn completed_requests(&self) -> usize {
        match self {
            AnySimulator::Single(s) => Simulate::completed_requests(&**s),
            AnySimulator::Fleet(s) => Simulate::completed_requests(s),
        }
    }

    fn step(&mut self) -> bool {
        match self {
            AnySimulator::Single(s) => Simulate::step(&mut **s),
            AnySimulator::Fleet(s) => Simulate::step(s),
        }
    }

    fn finalize(self) -> AnyReport {
        match self {
            AnySimulator::Single(s) => AnyReport::Single(Simulate::finalize(*s)),
            AnySimulator::Fleet(s) => AnyReport::Fleet(Simulate::finalize(s)),
        }
    }
}

/// The finished report of any serving shape, with the shape's native
/// artifacts and one shared metric surface for sweeps and comparisons.
#[derive(Debug, Clone)]
pub enum AnyReport {
    /// A single-replica [`SimReport`].
    Single(SimReport),
    /// A [`FleetReport`] (cluster, disaggregated, or `[fleet]`).
    Fleet(FleetReport),
}

impl AnyReport {
    /// The shape's short name (`single` | `cluster` | `disagg` | `fleet`).
    pub fn shape(&self) -> &'static str {
        match self {
            AnyReport::Single(_) => "single",
            AnyReport::Fleet(r) => r.shape.as_str(),
        }
    }

    /// Requests fully served.
    pub fn total_completions(&self) -> usize {
        match self {
            AnyReport::Single(r) => r.completions.len(),
            AnyReport::Fleet(r) => r.total_completions(),
        }
    }

    /// Simulated time until the last request finished anywhere.
    pub fn makespan_ps(&self) -> TimePs {
        match self {
            AnyReport::Single(r) => r.sim_duration_ps,
            AnyReport::Fleet(r) => r.makespan_ps(),
        }
    }

    /// Makespan in seconds.
    pub fn makespan_s(&self) -> f64 {
        self.makespan_ps() as f64 / 1e12
    }

    /// Generation throughput in tokens per simulated second.
    pub fn generation_throughput(&self) -> f64 {
        match self {
            AnyReport::Single(r) => r.generation_throughput(),
            AnyReport::Fleet(r) => r.generation_throughput(),
        }
    }

    /// The standard SLO percentile summaries (TTFT / TPOT / latency).
    pub fn slo(&self) -> SloSummary {
        match self {
            AnyReport::Single(r) => r.slo(),
            AnyReport::Fleet(r) => r.slo(),
        }
    }

    /// Merged reuse statistics (operator- and iteration-level, all
    /// replicas).
    pub fn reuse(&self) -> ReuseStats {
        match self {
            AnyReport::Single(r) => r.reuse,
            AnyReport::Fleet(r) => r.aggregate_reuse(),
        }
    }

    /// The single-replica report, if this run was one.
    pub fn as_single(&self) -> Option<&SimReport> {
        match self {
            AnyReport::Single(r) => Some(r),
            AnyReport::Fleet(_) => None,
        }
    }

    /// The fleet report, if this run built a fleet.
    pub fn as_fleet(&self) -> Option<&FleetReport> {
        match self {
            AnyReport::Single(_) => None,
            AnyReport::Fleet(r) => Some(r),
        }
    }
}

impl ReportOutput for AnyReport {
    fn summary(&self) -> String {
        match self {
            AnyReport::Single(r) => ReportOutput::summary(r),
            AnyReport::Fleet(r) => ReportOutput::summary(r),
        }
    }

    fn artifacts(&self) -> Vec<(&'static str, String)> {
        match self {
            AnyReport::Single(r) => r.artifacts(),
            AnyReport::Fleet(r) => r.artifacts(),
        }
    }
}
