//! Unified vs. disaggregated serving A/B on a prefill-heavy bursty
//! trace, driven through the `Scenario` builder.
//!
//! The same two GPT-2 engines serve the same trace twice: as a 2-replica
//! *unified* cluster (each replica prefills and decodes), and as a 1+1
//! *disaggregated* deployment (one prefill replica, one decode replica,
//! KV caches shipped across an inter-pool link). The trace is 40%
//! long-prompt/short-decode: in unified mode every 1024-token prefill
//! stalls the decoders co-batched with it, inflating tail TPOT; the
//! disaggregated decode pool never sees a prefill, so its token cadence
//! stays tight. A bandwidth-starved KV link shows the cost side of the
//! trade: the transfer component of TTFT balloons.
//!
//! The two deployments are *one scenario with two shapes*: the A/B flips
//! `disagg`/`replicas` on a shared base, exactly what
//! `examples/scenarios/disagg_vs_unified.toml` spells with `--set`
//! overrides.
//!
//! Run with `cargo run --release --example disagg_vs_unified`.

use llmservingsim::prelude::*;

fn main() {
    let spec = BurstyTraceSpec::prefill_heavy_mix(0.4, 42);
    let trace = bursty_trace(&spec);
    let heavies = trace.iter().filter(|r| r.input_len == spec.heavy.0).count();
    println!(
        "trace: {} requests, {} prefill-heavy ({}in/{}out) vs {} light ({}in/{}out), \
         Poisson bursts\n",
        trace.len(),
        heavies,
        spec.heavy.0,
        spec.heavy.1,
        trace.len() - heavies,
        spec.light.0,
        spec.light.1,
    );

    // The shared base: same engine, same workload; only the shape flips.
    let base = || {
        Scenario::model("gpt2")
            .npus(1)
            .tensor_parallel()
            .seed(42)
            .workload(WorkloadSpec::from(spec))
    };

    // A: unified — two replicas, each serving requests end to end.
    let unified = base()
        .replicas(2)
        .routing(RoutingPolicyKind::LeastOutstanding)
        .run()
        .expect("gpt2 fits a single Table-I NPU");
    assert_eq!(unified.total_completions(), trace.len());
    assert_eq!(unified.shape.as_str(), "cluster", "replicas(2) is the cluster shape");

    // B: disaggregated — one prefill replica, one decode replica.
    let run_disagg = |gbps: f64| {
        let report = base()
            .disagg(1, 1)
            .kv_link_gbps(gbps)
            .run()
            .expect("gpt2 fits a single Table-I NPU");
        assert_eq!(report.total_completions(), trace.len());
        report
    };
    let disagg = run_disagg(128.0);
    assert_eq!(disagg.shape.as_str(), "disagg", "disagg(1, 1) is the disagg shape");

    let (u_slo, d_slo) = (unified.slo(), disagg.slo());
    let u_tpot = u_slo.tpot.expect("completions exist");
    let d_tpot = d_slo.tpot.expect("completions exist");
    let u_ttft = u_slo.ttft.expect("completions exist");
    let d_ttft = d_slo.ttft.expect("completions exist");

    println!("{:<26} {:>12} {:>12}", "metric", "unified 2R", "disagg 1P+1D");
    println!("{:<26} {:>11.4}s {:>11.4}s", "tpot p50", u_tpot.p50_s, d_tpot.p50_s);
    println!("{:<26} {:>11.4}s {:>11.4}s", "tpot p99", u_tpot.p99_s, d_tpot.p99_s);
    println!("{:<26} {:>11.4}s {:>11.4}s", "ttft p50", u_ttft.p50_s, d_ttft.p50_s);
    println!("{:<26} {:>11.4}s {:>11.4}s", "ttft p99", u_ttft.p99_s, d_ttft.p99_s);
    println!(
        "{:<26} {:>11.2}s {:>11.2}s",
        "makespan",
        unified.makespan_s(),
        disagg.makespan_s()
    );
    let split = disagg.ttft_split().expect("completions exist");
    println!(
        "\ndisagg TTFT split: {split} (total {:.4}s); KV shipped: {:.1} MiB; \
         pool util prefill={:.2} decode={:.2}",
        split.total_s(),
        disagg.total_kv_bytes() as f64 / (1u64 << 20) as f64,
        disagg.pool_utilization(ReplicaRole::Prefill),
        disagg.pool_utilization(ReplicaRole::Decode),
    );

    assert!(
        d_tpot.p99_s < u_tpot.p99_s,
        "disaggregation should cut p99 TPOT on a prefill-heavy trace \
         (disagg {:.4}s vs unified {:.4}s)",
        d_tpot.p99_s,
        u_tpot.p99_s
    );

    // The cost side: starve the KV link and watch the transfer component.
    let starved = run_disagg(1.0);
    let fast_split = split;
    let starved_split = starved.ttft_split().expect("completions exist");
    println!(
        "\nKV link 128 GB/s -> 1 GB/s: transfer component {:.4}s -> {:.4}s \
         (p99 {:.4}s -> {:.4}s)",
        fast_split.transfer_s,
        starved_split.transfer_s,
        disagg.component_percentiles(|c| c.transfer_ps).expect("completions exist").p99_s,
        starved.component_percentiles(|c| c.transfer_ps).expect("completions exist").p99_s,
    );
    assert!(
        starved_split.transfer_s > 10.0 * fast_split.transfer_s,
        "a 128x slower link should visibly inflate the transfer component \
         ({:.6}s vs {:.6}s)",
        starved_split.transfer_s,
        fast_split.transfer_s
    );

    println!(
        "\ndecode-pool iterations never carry a prefill, so token cadence stays \
         tight under prompt bursts; the KV link is the price, visible in TTFT."
    );
}
