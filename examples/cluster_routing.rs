//! Routing-policy shoot-out on a multi-replica cluster, driven through
//! the `Scenario` builder.
//!
//! Serves the same bursty, size-skewed trace on a 4-replica GPT-2 cluster
//! under each built-in routing policy and prints the cluster SLO metrics
//! side by side. The trace is adversarial to load-blind routing: every
//! 4th request is ~10x heavier, so round-robin funnels all heavy
//! requests to one replica while load-aware policies absorb them.
//!
//! The same experiment ships as a scenario file —
//! `examples/scenarios/cluster_routing.toml` — and as a sweep over all
//! policies (`examples/scenarios/sweep_routing.toml`); this example is
//! the builder-API spelling of it.
//!
//! Run with `cargo run --release --example cluster_routing`.

use llmservingsim::prelude::*;

fn main() {
    let spec = BurstyTraceSpec::default();
    println!(
        "trace: {} requests in {} bursts, heavy request every {} \
         ({}in/{}out vs {}in/{}out tokens)\n",
        spec.total_requests(),
        spec.bursts,
        spec.heavy_every,
        spec.heavy.0,
        spec.heavy.1,
        spec.light.0,
        spec.light.1,
    );

    println!(
        "{:<18} {:>9} {:>9} {:>9} {:>10} {:>10}",
        "policy", "ttft_p50", "ttft_p99", "lat_p99", "makespan", "imbalance"
    );
    for kind in RoutingPolicyKind::ALL {
        // One scenario per policy: everything else identical.
        let scenario = Scenario::model("gpt2")
            .npus(1)
            .tensor_parallel()
            .replicas(4)
            .routing(kind)
            .seed(42)
            .workload(WorkloadSpec::from(spec));
        let cluster = scenario.run().expect("gpt2 fits a single Table-I NPU");
        assert_eq!(cluster.total_completions(), spec.total_requests());
        assert_eq!(cluster.shape.as_str(), "cluster", "replicas(4) selects the cluster shape");
        let slo = cluster.slo();
        let ttft = slo.ttft.expect("every run completes requests");
        let lat = slo.latency.expect("every run completes requests");
        println!(
            "{:<18} {:>8.3}s {:>8.3}s {:>8.3}s {:>9.3}s {:>10.2}",
            kind.to_string(),
            ttft.p50_s,
            ttft.p99_s,
            lat.p99_s,
            cluster.makespan_s(),
            cluster.load_imbalance(),
        );
    }

    println!(
        "\nround-robin sends every heavy request to replica 0; \
         load-aware policies spread them, cutting the TTFT tail."
    );
}
