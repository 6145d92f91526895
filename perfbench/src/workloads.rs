//! The three ledger workloads, built only from the public API of
//! `llmss_core` (`ServingSimulator`, `FleetEngine::with_fabric`,
//! `StaticControl`, `Fabric`/`FabricGraph`) and `llmss_sched` requests.

use llmss_baselines::{run_gpu_reference, GpuRefConfig};
use llmss_core::{
    Fabric, FabricGraph, FleetEngine, FleetReport, LeastKvLoad, LeastOutstanding, RoundRobin,
    ServingSimulator, SimConfig, SimReport, SloSummary, StaticControl,
};
use llmss_model::ModelSpec;
use llmss_net::LinkSpec;
use llmss_sched::Request;

use crate::trace::{sharegpt_poisson, Bursty};

/// Worker-thread budget of the windowed fleet; the engine further caps it
/// at the host's parallelism.
const FLEET_SHARDS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReplicaMiss,
    FleetMemo,
    DisaggFabric,
}

/// `replica-miss`: the paper's Fig. 6 GPT3-30B panel (TP 4, Poisson
/// 0.8 req/s). Varied ShareGPT lengths make nearly every iteration an
/// exact-memo miss, so host time goes to the converter and network DES.
const REPLICA_MISS_REQUESTS: usize = 256;
const REPLICA_MISS_RATE: f64 = 0.8;

/// `fleet-memo`: 64 round-robin GPT-2 replicas fed many small bursts of
/// 64 decode-heavy requests, so the bucketed memo answers nearly every
/// iteration and host time goes to scheduling, cache lookups and windowed
/// stepping.
const FLEET_MEMO_REPLICAS: usize = 64;
const FLEET_MEMO_TRACE: Bursty = Bursty {
    bursts: 96,
    burst_size: 64,
    burst_gap_ms: 40.0,
    intra_rate_per_s: 5_000.0,
    heavy_frac: 0.9,
    heavy: (32, 512),
    light: (32, 64),
};

/// `disagg-fabric`: 8 prefill + 8 decode GPT-2 replicas whose KV crosses
/// a fair-sharing hier4x4 fabric. Half the requests carry 1024-token
/// prompts. Bursts 80 ms apart load the 20 GB/s pod uplinks but stay below
/// saturation; 40 ms apart, the flows in flight grow without bound.
const DISAGG_POOL: usize = 8;
const DISAGG_ACCESS_GBPS: f64 = 32.0;
const DISAGG_TRUNK_GBPS: f64 = 20.0;
const DISAGG_TRACE: Bursty = Bursty {
    bursts: 256,
    burst_size: 64,
    burst_gap_ms: 80.0,
    intra_rate_per_s: 5_000.0,
    heavy_frac: 0.5,
    heavy: (1024, 8),
    light: (32, 48),
};

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::ReplicaMiss, Workload::FleetMemo, Workload::DisaggFabric];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReplicaMiss => "replica-miss",
            Workload::FleetMemo => "fleet-memo",
            Workload::DisaggFabric => "disagg-fabric",
        }
    }

    /// Worker threads the run asks for; above 1 the fleet steps through
    /// windows, at 1 through the serial event loop.
    pub fn shards(self) -> usize {
        match self {
            Workload::FleetMemo => FLEET_SHARDS,
            Workload::ReplicaMiss | Workload::DisaggFabric => 1,
        }
    }

    pub fn trace(self, seed: u64) -> Vec<Request> {
        match self {
            Workload::ReplicaMiss => {
                sharegpt_poisson(seed, REPLICA_MISS_REQUESTS, REPLICA_MISS_RATE)
            }
            Workload::FleetMemo => FLEET_MEMO_TRACE.generate(seed),
            Workload::DisaggFabric => DISAGG_TRACE.generate(seed),
        }
    }

    /// Constructs the simulator and arms shards and the shared cache —
    /// everything `setup_s` covers.
    pub fn build(self, trace: Vec<Request>) -> Sim {
        match self {
            Workload::ReplicaMiss => Sim::Single(
                ServingSimulator::new(replica_miss_config(), trace)
                    .expect("GPT3-30B fits four Table-I NPUs"),
            ),
            Workload::FleetMemo => {
                let configs = vec![gpt2_config().max_batch(32); FLEET_MEMO_REPLICAS];
                let control = StaticControl::new(
                    Box::new(RoundRobin::new()),
                    Box::new(RoundRobin::new()),
                );
                let mut fleet = FleetEngine::with_fabric(
                    configs,
                    Fabric::fifo(Vec::new()),
                    Box::new(control),
                    trace,
                )
                .expect("gpt2 fits one Table-I NPU");
                fleet.set_shards(FLEET_SHARDS);
                fleet.enable_shared_cache();
                Sim::Fleet(fleet)
            }
            Workload::DisaggFabric => {
                let mut configs = vec![gpt2_config().prefill_only(); DISAGG_POOL];
                configs.extend(vec![gpt2_config().decode_only(); DISAGG_POOL]);
                let control =
                    StaticControl::new(Box::new(LeastOutstanding), Box::new(LeastKvLoad));
                Sim::Fleet(
                    FleetEngine::with_fabric(
                        configs,
                        disagg_fabric(),
                        Box::new(control),
                        trace,
                    )
                    .expect("gpt2 fits one Table-I NPU"),
                )
            }
        }
    }

    /// Generation-throughput series of `gpu_ref` — an independent
    /// analytic GPU serving model, not hardware — on the same requests,
    /// split across replicas the way the simulated run placed them (fleet
    /// workloads: each request on the replica that generated its output;
    /// the reference models unified serving).
    pub fn reference_series(self, trace: &[Request], outcome: &Outcome) -> Vec<f64> {
        let (gpu, spec) = match self {
            Workload::ReplicaMiss => (GpuRefConfig::rtx3090(4), ModelSpec::gpt3_30b()),
            Workload::FleetMemo | Workload::DisaggFabric => {
                (GpuRefConfig::rtx3090(1), ModelSpec::gpt2())
            }
        };
        let reports: Vec<SimReport> = outcome
            .placement(trace)
            .into_iter()
            .map(|part| run_gpu_reference(&gpu, &spec, part))
            .collect();
        gen_series(reports.iter())
    }
}

/// Width of the throughput bins `ref_err_pct` compares, in simulated
/// seconds.
pub const REF_BIN_S: f64 = 1.0;

/// Generated tokens per second in each [`REF_BIN_S`] bin of simulated
/// time, summed over replicas.
pub fn gen_series<'a>(replicas: impl Iterator<Item = &'a SimReport>) -> Vec<f64> {
    let mut series: Vec<f64> = Vec::new();
    for r in replicas {
        let bins = r.throughput_series(REF_BIN_S);
        if series.len() < bins.len() {
            series.resize(bins.len(), 0.0);
        }
        for (total, bin) in series.iter_mut().zip(&bins) {
            *total += bin.gen_tps;
        }
    }
    series
}

fn gpt2_config() -> SimConfig {
    SimConfig::new(ModelSpec::gpt2()).npu_num(1).tensor_parallel().kv_bucket(64)
}

fn replica_miss_config() -> SimConfig {
    SimConfig::new(ModelSpec::gpt3_30b()).npu_num(4).tensor_parallel()
}

/// The disagg fabric: four pods of four endpoints (prefill replicas fill
/// pods 0–1, decode replicas pods 2–3), so every KV transfer crosses two
/// pod uplinks.
pub fn disagg_fabric() -> Fabric {
    let latency_ns = LinkSpec::cxl().latency_ns;
    let access = LinkSpec::new(DISAGG_ACCESS_GBPS, latency_ns);
    let trunk = LinkSpec::new(DISAGG_TRUNK_GBPS, latency_ns);
    Fabric::fair("hier4x4", FabricGraph::hier(4, 4, access, trunk))
}

/// A simulator under test.
// One exists at a time; boxing the larger variant would add an allocation
// to the timed set-up.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Sim {
    Single(ServingSimulator),
    Fleet(FleetEngine),
}

impl Sim {
    pub fn step(&mut self) -> bool {
        match self {
            Sim::Single(sim) => sim.step(),
            Sim::Fleet(fleet) => fleet.step(),
        }
    }

    pub fn into_outcome(self) -> Outcome {
        match self {
            Sim::Single(sim) => Outcome::Single(sim.into_report()),
            Sim::Fleet(fleet) => Outcome::Fleet(fleet.into_report()),
        }
    }
}

/// A finished run's report.
#[derive(Debug)]
pub enum Outcome {
    Single(SimReport),
    Fleet(FleetReport),
}

impl Outcome {
    pub fn summary_json(&self) -> String {
        match self {
            Outcome::Single(r) => r.summary_json(),
            Outcome::Fleet(r) => r.summary_json(),
        }
    }

    /// Every replica's own report.
    pub fn replicas(&self) -> Vec<&SimReport> {
        match self {
            Outcome::Single(r) => vec![r],
            Outcome::Fleet(r) => r.replicas.iter().map(|x| &x.report).collect(),
        }
    }

    /// Requests served end to end.
    pub fn completions(&self) -> usize {
        match self {
            Outcome::Single(r) => r.completions.len(),
            Outcome::Fleet(r) => r.completions.len(),
        }
    }

    pub fn slo(&self) -> SloSummary {
        match self {
            Outcome::Single(r) => r.slo(),
            Outcome::Fleet(r) => r.slo(),
        }
    }

    pub fn makespan_s(&self) -> f64 {
        match self {
            Outcome::Single(r) => r.sim_duration_s(),
            Outcome::Fleet(r) => r.makespan_s(),
        }
    }

    /// The trace split by the replica that served each request's output
    /// (the decode side of a KV handoff), with front-end arrivals.
    fn placement(&self, trace: &[Request]) -> Vec<Vec<Request>> {
        let Outcome::Fleet(report) = self else {
            return vec![trace.to_vec()];
        };
        let mut home: Vec<usize> = vec![0; trace.len()];
        for &(id, replica) in &report.assignments {
            home[id as usize] = replica;
        }
        for (id, t) in &report.transfers {
            home[*id as usize] = t.to;
        }
        let mut parts = vec![Vec::new(); report.replicas.len()];
        for r in trace {
            parts[home[r.id as usize]].push(*r);
        }
        parts.retain(|p| !p.is_empty());
        parts
    }
}
