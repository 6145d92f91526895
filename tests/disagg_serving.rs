//! Acceptance tests for disaggregated prefill/decode serving: the
//! TPOT win over unified serving on prefill-heavy traffic, the transfer
//! cost of a bandwidth-starved KV link, and deterministic replay.

use llmservingsim::prelude::*;

fn replica_config() -> SimConfig {
    SimConfig::new(ModelSpec::gpt2()).npu_num(1).tensor_parallel()
}

fn prefill_heavy_trace() -> Vec<Request> {
    bursty_trace(&BurstyTraceSpec { bursts: 4, ..BurstyTraceSpec::prefill_heavy_mix(0.4, 42) })
}

fn run_disagg(config: DisaggConfig, trace: Vec<Request>) -> FleetReport {
    let fabric = Fabric::fifo(vec![config.kv_link]);
    FleetEngine::disagg(replica_config(), replica_config(), config, fabric, trace)
        .expect("gpt2 fits a single Table-I NPU")
        .run()
}

#[test]
fn disagg_beats_unified_p99_tpot_on_prefill_heavy_bursty_trace() {
    let trace = prefill_heavy_trace();

    // Same engine count both ways: 2 unified replicas vs 1 prefill + 1
    // decode. An adequate decode pool never co-batches a 1024-token
    // prefill with running decoders, so its token cadence stays tight.
    let unified = FleetEngine::cluster(
        vec![replica_config(); 2],
        RoutingPolicyKind::LeastOutstanding,
        7,
        trace.clone(),
    )
    .unwrap()
    .run();
    let disagg = run_disagg(DisaggConfig::new(1, 1).kv_link_gbps(128.0).seed(7), trace.clone());

    assert_eq!(unified.total_completions(), trace.len());
    assert_eq!(disagg.total_completions(), trace.len());

    let unified_tpot = unified.slo().tpot.unwrap();
    let disagg_tpot = disagg.slo().tpot.unwrap();
    assert!(
        disagg_tpot.p99_s < unified_tpot.p99_s,
        "disaggregated p99 TPOT ({:.4}s) should beat unified ({:.4}s) when prompt \
         bursts stall unified decode iterations",
        disagg_tpot.p99_s,
        unified_tpot.p99_s
    );
    // The decode pool runs pure decode batches: no disagg decode
    // iteration processes prompt tokens.
    for it in disagg.pool(ReplicaRole::Decode).flat_map(|r| &r.report.iterations) {
        assert_eq!(it.prompt_tokens, 0, "a prefill leaked into the decode pool");
    }
    // And the prefill pool never decodes: every completion leaves with
    // only its prefill token accounted for.
    for r in disagg.pool(ReplicaRole::Prefill) {
        assert!(!r.report.iterations.is_empty());
        assert!(r.report.completions.iter().all(|c| c.output_len == 1));
    }
}

#[test]
fn starved_kv_link_visibly_inflates_transfer_component_of_ttft() {
    let trace = prefill_heavy_trace();
    let fast = run_disagg(DisaggConfig::new(1, 1).kv_link_gbps(128.0).seed(7), trace.clone());
    let starved = run_disagg(DisaggConfig::new(1, 1).kv_link_gbps(1.0).seed(7), trace);

    let fast_split = fast.ttft_split().unwrap();
    let starved_split = starved.ttft_split().unwrap();
    assert!(
        starved_split.transfer_s > 10.0 * fast_split.transfer_s,
        "transfer component should balloon on a 128x slower link: \
         {:.6}s vs {:.6}s",
        starved_split.transfer_s,
        fast_split.transfer_s
    );
    let fast_p99 = fast.component_percentiles(|c| c.transfer_ps).unwrap().p99_s;
    let starved_p99 = starved.component_percentiles(|c| c.transfer_ps).unwrap().p99_s;
    assert!(starved_p99 > 10.0 * fast_p99, "{starved_p99:.6}s vs {fast_p99:.6}s");
    // The inflation must show up in end-to-end TTFT, not just the split.
    assert!(starved.slo().ttft.unwrap().p99_s > fast.slo().ttft.unwrap().p99_s);
}

#[test]
fn disagg_runs_are_deterministic_under_a_fixed_seed() {
    let signature = |r: &FleetReport| {
        r.handoffs()
            .map(|(c, t)| {
                (c.id, t.from, t.to, t.ready_ps, t.done_ps, c.first_token_ps, c.finish_ps)
            })
            .collect::<Vec<_>>()
    };
    for pairing in PairingPolicyKind::ALL {
        let run = || {
            run_disagg(DisaggConfig::new(2, 2).pairing(pairing).seed(11), prefill_heavy_trace())
        };
        let a = run();
        let b = run();
        assert_eq!(signature(&a), signature(&b), "pairing {pairing} is nondeterministic");
        assert_eq!(a.total_completions(), prefill_heavy_trace().len());
    }
}

#[test]
fn ttft_components_partition_ttft_for_every_request() {
    let report = run_disagg(DisaggConfig::new(2, 2).seed(3), prefill_heavy_trace());
    assert_eq!(
        report.handoffs().count(),
        report.total_completions(),
        "a request skipped its handoff"
    );
    for (c, t) in report.handoffs() {
        let split = TtftComponents::of(c, t);
        assert_eq!(
            split.prefill_ps + split.transfer_ps + split.decode_ps,
            c.ttft_ps(),
            "request {}: TTFT components do not partition TTFT",
            c.id
        );
    }
}
