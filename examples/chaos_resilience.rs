//! Failure-aware control planes vs a static fleet when a replica dies
//! at peak load.
//!
//! Both fleets start as two unified GPT-2 replicas and serve the same
//! bursty trace under the same deterministic fault: replica 1 crashes
//! in the middle of the opening burst and stays dead for 12 ms — its
//! in-flight requests are lost, re-enter admission through the retry
//! policy, and must be re-prefilled elsewhere. The static fleet rides
//! out the outage on the surviving replica; the autoscaling fleet sees
//! the crash as lost capacity (dead replicas do not count toward live
//! capacity in its hysteresis window) and backfills a fresh replica
//! while the dead one recovers — improving tail latency *and*
//! fleet-level availability with the same fault schedule.
//!
//! ```text
//! cargo run --release --example chaos_resilience
//! ```

use llmss_core::{
    AutoscaleConfig, AutoscaleControl, ChaosSchedule, ControlPlane, Fabric, FleetEngine,
    FleetReport, LeastKvLoad, LeastOutstanding, ReplicaFault, ReplicaFaultKind, SimConfig,
    StaticControl,
};
use llmss_model::ModelSpec;
use llmss_sched::{bursty_trace, BurstyTraceSpec, Request};

/// Two decode-heavy bursts (short prompts, long streams) 4 ms apart:
/// the crash lands mid-way through the first, so the second arrives
/// while the fleet is a replica short and everything is decoding.
fn peak_load_trace() -> Vec<Request> {
    bursty_trace(&BurstyTraceSpec {
        bursts: 2,
        burst_size: 24,
        burst_gap_ms: 4.0,
        heavy_every: 1,
        heavy: (32, 64),
        seed: 42,
        ..BurstyTraceSpec::default()
    })
}

/// Replica 1 dies 1 ms into the run and is gone for 24 ms — the whole
/// peak.
fn decode_killer() -> ChaosSchedule {
    ChaosSchedule::new().replica_fault(ReplicaFault {
        replica: 1,
        kind: ReplicaFaultKind::Crash,
        at_ps: 1_000_000_000,
        recover_ps: Some(25_000_000_000),
    })
}

fn fleet(control: Box<dyn ControlPlane>) -> FleetEngine {
    let replica = SimConfig::new(ModelSpec::gpt2()).npu_num(1).tensor_parallel();
    let mut engine = FleetEngine::with_fabric(
        vec![replica.clone(), replica],
        Fabric::fifo(Vec::new()),
        control,
        peak_load_trace(),
    )
    .expect("gpt2 fits a single Table-I NPU");
    engine.set_chaos(decode_killer());
    engine
}

fn static_fleet() -> FleetEngine {
    fleet(Box::new(StaticControl::new(Box::new(LeastOutstanding), Box::new(LeastKvLoad))))
}

fn autoscale_fleet() -> FleetEngine {
    fleet(Box::new(AutoscaleControl::new(
        Box::new(LeastOutstanding),
        AutoscaleConfig {
            tick_ps: 500_000_000, // 0.5 ms
            min_replicas: 2,
            max_replicas: 4,
            queue_high: 3.0,
            queue_low: 0.5,
            warmup_ps: 2_000_000_000, // 2 ms to warm a backfill replica
        },
    )))
}

fn p99_tpot_ms(report: &FleetReport) -> f64 {
    report.slo().tpot.expect("multi-token requests completed").p99_s * 1e3
}

fn availability(report: &FleetReport) -> f64 {
    report.availability().expect("chaos runs report availability")
}

fn main() {
    let total = peak_load_trace().len();
    let static_report = static_fleet().run();
    let auto_report = autoscale_fleet().run();

    println!("static:    {}", static_report.summary());
    println!("autoscale: {}", auto_report.summary());
    println!();

    for (name, report) in [("static", &static_report), ("autoscale", &auto_report)] {
        let res = report.resilience.as_ref().expect("chaos runs report resilience");
        println!(
            "{name:>9}: retried {} | abandoned {} | KV lost {} B | availability {:.2}% | \
             p99 TPOT {:.3} ms",
            res.requests_retried,
            res.requests_abandoned,
            res.kv_bytes_lost,
            availability(report) * 100.0,
            p99_tpot_ms(report),
        );
    }

    let backfilled = auto_report.replicas.len() > 2;
    println!();
    println!(
        "autoscale backfilled to {} replicas during the outage",
        auto_report.replicas.len()
    );

    for (name, report) in [("static", &static_report), ("autoscale", &auto_report)] {
        let res = report.resilience.as_ref().unwrap();
        assert_eq!(
            report.total_completions() + res.requests_abandoned,
            total,
            "{name}: every request must complete or be abandoned with a reason"
        );
        assert!(res.requests_retried > 0, "{name}: the crash must knock out in-flight work");
    }
    assert!(backfilled, "the autoscaler never backfilled the dead replica");
    assert!(
        p99_tpot_ms(&auto_report) < p99_tpot_ms(&static_report),
        "backfilling should beat riding out the outage on p99 TPOT \
         (static {:.3} ms vs autoscale {:.3} ms)",
        p99_tpot_ms(&static_report),
        p99_tpot_ms(&auto_report),
    );
    assert!(
        availability(&auto_report) > availability(&static_report),
        "backfilled capacity should lift fleet availability \
         (static {:.4} vs autoscale {:.4})",
        availability(&static_report),
        availability(&auto_report),
    );
}
