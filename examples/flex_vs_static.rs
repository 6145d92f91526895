//! Role flexing vs a static disaggregated split on a phase-shifting
//! workload.
//!
//! The workload has two phases: a prefill-heavy opening (long prompts,
//! tiny decodes — the prefill pool is the bottleneck) followed by a
//! decode-heavy tail (short prompts, long streams — the decode pool is).
//! A static 2-prefill/1-decode fleet leaves both prefill replicas idle
//! through the whole second phase; the [`FlexPools`] control plane
//! notices the idleness, drains, and reassigns one prefill replica to
//! the decode pool (keeping `min_prefill` at home), then recalls it when
//! prefill pressure returns — improving p99 TPOT with the same hardware.
//!
//! ```text
//! cargo run --release --example flex_vs_static
//! ```

use llmss_core::{
    Fabric, FleetEngine, FleetReport, FlexPools, FlexPoolsConfig, LeastKvLoad,
    LeastOutstanding, ReplicaRole, SimConfig, StaticControl,
};
use llmss_model::ModelSpec;
use llmss_net::LinkSpec;
use llmss_sched::{bursty_trace, BurstyTraceSpec, Request};

/// Prefill-heavy burst, then a decode-heavy tail 5 ms later.
fn phase_shifting_trace() -> Vec<Request> {
    let prefill_phase = bursty_trace(&BurstyTraceSpec {
        bursts: 1,
        burst_size: 20,
        heavy_every: 1,
        heavy: (512, 4), // long prompts, almost no decode
        ..BurstyTraceSpec::default()
    });
    let decode_phase = bursty_trace(&BurstyTraceSpec {
        bursts: 1,
        burst_size: 20,
        heavy_every: 1,
        heavy: (16, 96), // short prompts, long streams
        ..BurstyTraceSpec::default()
    });
    let mut trace = prefill_phase;
    let shift = trace.last().expect("non-empty phase").arrival_ps + 5_000_000_000;
    let base_id = trace.len() as u64;
    trace.extend(decode_phase.into_iter().map(|r| {
        Request::new(base_id + r.id, r.input_len, r.output_len, r.arrival_ps + shift)
    }));
    trace
}

/// A 2-prefill + 1-decode GPT-2 fleet over a 32 GB/s KV link.
fn fleet(control_is_flex: bool) -> FleetEngine {
    let replica = SimConfig::new(ModelSpec::gpt2()).npu_num(1).tensor_parallel();
    let configs = vec![
        replica.clone().prefill_only(),
        replica.clone().prefill_only(),
        replica.decode_only(),
    ];
    let links = vec![LinkSpec::new(32.0, LinkSpec::cxl().latency_ns)];
    let control: Box<dyn llmss_core::ControlPlane> = if control_is_flex {
        Box::new(FlexPools::new(
            Box::new(LeastOutstanding),
            Box::new(LeastKvLoad),
            FlexPoolsConfig {
                tick_ps: 200_000_000, // 0.2 ms
                idle_ticks: 2,
                min_prefill: 1,
            },
        ))
    } else {
        Box::new(StaticControl::new(Box::new(LeastOutstanding), Box::new(LeastKvLoad)))
    };
    FleetEngine::with_fabric(configs, Fabric::fifo(links), control, phase_shifting_trace())
        .expect("gpt2 fits a single Table-I NPU")
}

fn p99_tpot_ms(report: &FleetReport) -> f64 {
    report.slo().tpot.expect("multi-token requests completed").p99_s * 1e3
}

fn main() {
    let static_report = fleet(false).run();
    let flex_report = fleet(true).run();

    println!("static: {}", static_report.summary());
    println!("flex:   {}", flex_report.summary());
    println!();

    let static_p99 = p99_tpot_ms(&static_report);
    let flex_p99 = p99_tpot_ms(&flex_report);
    println!("p99 TPOT  static 2P/1D : {static_p99:.3} ms");
    println!("p99 TPOT  flexed 2P/1D : {flex_p99:.3} ms");
    println!("improvement            : {:.2}x", static_p99 / flex_p99);

    let prefill_home = |r: &&llmss_core::FleetReplica| r.home_role == ReplicaRole::Prefill;
    let flexed =
        flex_report.replicas.iter().filter(prefill_home).filter(|r| r.paired > 0).count();
    let handoffs_on_prefill_home: usize =
        flex_report.replicas.iter().filter(prefill_home).map(|r| r.paired).sum();
    println!(
        "flexed replicas took {handoffs_on_prefill_home} KV handoffs \
         ({flexed} prefill-home replica(s) served decode work)"
    );

    assert_eq!(
        static_report.total_completions(),
        flex_report.total_completions(),
        "both fleets must serve the whole trace"
    );
    assert!(
        handoffs_on_prefill_home > 0,
        "the flexing plane never moved a prefill replica into the decode pool"
    );
    assert!(
        flex_p99 < static_p99,
        "flexing should improve p99 TPOT on a phase-shifting workload \
         (static {static_p99:.3} ms vs flex {flex_p99:.3} ms)"
    );
}
