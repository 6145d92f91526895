//! The `Scenario` API surface: serde round-trips, builder-chain
//! properties, and bit-identical equivalence between scenario-driven and
//! legacy-constructor runs across all three serving shapes.

use proptest::prelude::*;

use llmservingsim::core::{
    DisaggConfig, Fabric, FleetEngine, KvBucket, PairingPolicyKind, RoutingPolicyKind,
    ServingSimulator, SimConfig,
};
use llmservingsim::model::ModelSpec;
use llmservingsim::scenario::{Scenario, ScenarioError, Sweep};
use llmservingsim::sched::{Dataset, TraceGenerator, WorkloadSpec};

fn synthetic(requests: usize, rate: f64, seed: u64) -> WorkloadSpec {
    WorkloadSpec::Synthetic { dataset: Dataset::Alpaca, requests, rate_per_s: rate, seed }
}

/// The deterministic artifacts of a report's `(suffix, content)` list:
/// everything except the wall-clock `-simulation-time.tsv` (which
/// legitimately differs between any two runs).
fn deterministic_artifacts(
    artifacts: Vec<(&'static str, String)>,
) -> Vec<(&'static str, String)> {
    artifacts.into_iter().filter(|(suffix, _)| *suffix != "-simulation-time.tsv").collect()
}

#[test]
fn scenario_matches_legacy_unified_run_bit_identically() {
    let scenario = Scenario::model("gpt2")
        .npus(1)
        .tensor_parallel()
        .max_batch(16)
        .workload(synthetic(32, 40.0, 42));
    let via_scenario = scenario.run().unwrap();

    // The legacy path: hand-built SimConfig + TraceGenerator.
    let cfg = SimConfig::new(ModelSpec::gpt2()).npu_num(1).tensor_parallel().max_batch(16);
    let trace = TraceGenerator::new(Dataset::Alpaca, 42).rate_per_s(40.0).generate(32);
    let legacy = ServingSimulator::new(cfg, trace).unwrap().run();

    assert_eq!(
        deterministic_artifacts(via_scenario.artifacts()),
        deterministic_artifacts(legacy.artifacts()),
        "scenario and legacy unified runs must write byte-equal reports"
    );
}

#[test]
fn scenario_matches_legacy_cluster_run_bit_identically() {
    let scenario = Scenario::model("gpt2")
        .npus(1)
        .tensor_parallel()
        .replicas(3)
        .routing(RoutingPolicyKind::PowerOfTwoChoices)
        .seed(7)
        .workload(synthetic(24, 100.0, 7));
    let via_scenario = scenario.run().unwrap();

    let cfg = SimConfig::new(ModelSpec::gpt2()).npu_num(1).tensor_parallel();
    let trace = TraceGenerator::new(Dataset::Alpaca, 7).rate_per_s(100.0).generate(24);
    let legacy =
        FleetEngine::cluster(vec![cfg; 3], RoutingPolicyKind::PowerOfTwoChoices, 7, trace)
            .unwrap()
            .run();

    assert_eq!(
        deterministic_artifacts(via_scenario.artifacts()),
        deterministic_artifacts(legacy.artifacts())
    );
}

#[test]
fn scenario_matches_legacy_disagg_run_bit_identically() {
    let scenario = Scenario::model("gpt2")
        .npus(1)
        .tensor_parallel()
        .disagg(1, 1)
        .kv_link_gbps(32.0)
        .pairing(PairingPolicyKind::Sticky)
        .seed(9)
        .workload(synthetic(16, 200.0, 9));
    let via_scenario = scenario.run().unwrap();

    let cfg = SimConfig::new(ModelSpec::gpt2()).npu_num(1).tensor_parallel();
    let disagg = DisaggConfig::new(1, 1)
        .kv_link_gbps(32.0)
        .routing(RoutingPolicyKind::RoundRobin)
        .pairing(PairingPolicyKind::Sticky)
        .seed(9);
    let trace = TraceGenerator::new(Dataset::Alpaca, 9).rate_per_s(200.0).generate(16);
    let fabric = Fabric::fifo(vec![disagg.kv_link]);
    let legacy = FleetEngine::disagg(cfg.clone(), cfg, disagg, fabric, trace).unwrap().run();

    assert_eq!(
        deterministic_artifacts(via_scenario.artifacts()),
        deterministic_artifacts(legacy.artifacts())
    );
}

#[test]
fn checked_in_scenario_files_parse_build_and_round_trip() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/scenarios");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("examples/scenarios exists") {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !name.ends_with(".toml") {
            continue;
        }
        seen += 1;
        let text = std::fs::read_to_string(&path).unwrap();
        if name.starts_with("sweep_") {
            let sweep = Sweep::from_toml(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!sweep.is_empty(), "{name}: empty grid");
            // Every point must validate without running it.
            for point in sweep.points().unwrap_or_else(|e| panic!("{name}: {e}")) {
                point.scenario.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            }
        } else {
            // Schema-drift gate: parse -> build -> re-serialize must be
            // lossless, and the canonical text must be stable.
            let scenario = Scenario::from_toml(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            scenario.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            let canonical = scenario.to_toml();
            let back = Scenario::from_toml(&canonical).unwrap();
            assert_eq!(back, scenario, "{name}: TOML round trip is lossy");
            assert_eq!(back.to_toml(), canonical, "{name}: canonical form unstable");
            let json_back = Scenario::from_json(&scenario.to_json()).unwrap();
            assert_eq!(json_back, scenario, "{name}: JSON round trip is lossy");
        }
    }
    assert!(seen >= 5, "expected the checked-in scenario corpus, found {seen} files");
}

/// The canonical TOML and JSON text of every checked-in (non-sweep)
/// scenario, byte for byte, against `tests/golden/scenarios/`: the value
/// codec's output contract across commits, not only within one.
#[test]
fn checked_in_scenarios_print_their_golden_canonical_forms() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/scenarios");
    let goldens = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/scenarios");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("examples/scenarios exists") {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let Some(stem) = name.strip_suffix(".toml") else { continue };
        if stem.starts_with("sweep_") {
            continue;
        }
        seen += 1;
        let scenario = Scenario::from_path(path.to_str().unwrap())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        for (ext, text) in [("toml", scenario.to_toml()), ("json", scenario.to_json())] {
            let golden = std::fs::read_to_string(format!("{goldens}/{stem}.{ext}"))
                .unwrap_or_else(|e| panic!("{stem}.{ext}: {e}"));
            assert_eq!(text, golden, "{stem}.{ext} drifted from its canonical-form golden");
        }
    }
    assert_eq!(seen, 9, "every non-sweep scenario file has a golden pair");
}

#[test]
fn fleet_engine_drives_every_shape_through_one_surface() {
    // Push the same trace into each shape's FleetEngine through the same
    // calls — no shape-specific ones — and drain it. Pushed ids start at
    // 100 so they never collide with the scenario's own workload.
    let trace: Vec<_> = TraceGenerator::new(Dataset::Alpaca, 3)
        .rate_per_s(80.0)
        .generate(6)
        .into_iter()
        .map(|r| {
            llmservingsim::sched::Request::new(
                100 + r.id,
                r.input_len,
                r.output_len,
                r.arrival_ps,
            )
        })
        .collect();
    let scenarios = [
        Scenario::model("gpt2").npus(1).tensor_parallel().workload(synthetic(1, 1.0, 0)),
        Scenario::model("gpt2")
            .npus(1)
            .tensor_parallel()
            .replicas(2)
            .workload(synthetic(1, 1.0, 0)),
        Scenario::model("gpt2")
            .npus(1)
            .tensor_parallel()
            .disagg(1, 1)
            .workload(synthetic(1, 1.0, 0)),
    ];
    for scenario in scenarios {
        let mut sim = scenario.build().unwrap();
        for r in &trace {
            sim.push_request(*r);
        }
        assert!(sim.next_ready_ps().is_some());
        while sim.step() {}
        // 6 pushed + 1 from the scenario's own workload.
        assert_eq!(sim.completed_requests(), 7, "{}", scenario.shape());
        let report = sim.into_report();
        assert_eq!(report.total_completions(), 7);
        assert!(report.makespan_ps() > 0);
    }
}

#[test]
fn adaptive_bucket_scenario_runs_and_reports_annealed_bucket() {
    let scenario = Scenario::model("gpt2")
        .npus(1)
        .tensor_parallel()
        .max_batch(16)
        .kv_bucket(KvBucket::Adaptive {
            min_tokens: 1,
            max_tokens: 64,
            target_hit_rate: 0.8,
            window: 32,
        })
        .workload(WorkloadSpec::Bursty {
            spec: llmservingsim::sched::BurstyTraceSpec {
                bursts: 2,
                burst_size: 24,
                heavy_every: 0,
                heavy_frac: 0.9,
                heavy: (32, 128),
                light: (32, 24),
                poisson_rate_per_s: 5_000.0,
                seed: 7,
                ..Default::default()
            },
        });
    let report = scenario.run().unwrap();
    assert_eq!(report.total_completions(), 48);
    let reuse = report.replicas[0].report.reuse;
    assert!(reuse.kv_bucket_end > 1, "adaptive bucket never annealed");
    assert!(reuse.kv_bucket_end <= 64, "drift budget exceeded");
}

#[test]
fn typed_errors_cover_the_failure_modes() {
    // Unknown model.
    assert!(matches!(Scenario::model("nope").run(), Err(ScenarioError::UnknownModel { .. })));
    // Conflicting shape flags.
    assert!(matches!(
        Scenario::model("gpt2").replicas(2).disagg(1, 1).run(),
        Err(ScenarioError::Conflict { .. })
    ));
    // Unrealizable layout (16 stages on 12 layers).
    assert!(matches!(
        Scenario::model("gpt2").npus(16).pipeline_parallel().run(),
        Err(ScenarioError::Config(_))
    ));
    // Unreadable workload trace.
    let missing = Scenario::model("gpt2")
        .npus(1)
        .tensor_parallel()
        .workload(WorkloadSpec::TraceFile { path: "/nonexistent/trace.tsv".into() });
    assert!(matches!(missing.run(), Err(ScenarioError::Workload(_))));
    // Unknown keys and values from the string surface.
    let mut s = Scenario::default();
    assert!(matches!(s.set("replcas", "2"), Err(ScenarioError::UnknownKey { .. })));
    assert!(matches!(s.set("parallel", "diag"), Err(ScenarioError::UnknownValue { .. })));
}

/// A random-but-valid builder chain: any combination this strategy
/// produces must validate, build, and (for small workloads) run to
/// completion. This is the "any valid chain is runnable" contract.
fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        (
            0usize..3,  // parallelism flavor
            1usize..3,  // npu group count (hybrid splits)
            0usize..16, // max_batch
        ),
        (
            0usize..4, // shape: 0-1 single, 2 cluster, 3 disagg
            1usize..3, // replicas / pool size
            0usize..5, // routing policy index
        ),
        (
            1usize..5, // requests
            0u64..64,  // seed
            0usize..3, // kv bucket flavor: exact / fixed 32 / adaptive
        ),
    )
        .prop_map(
            |((par, groups, max_batch), (shape, fleet, route), (requests, seed, bucket))| {
                // npus chosen so every parallelism flavor is realizable
                // on gpt2 (12 layers).
                let npus = match par {
                    0 => 2,
                    1 => 4,
                    _ => 4,
                };
                let mut s = Scenario::model("gpt2")
                    .npus(npus)
                    .max_batch(max_batch)
                    .seed(seed)
                    .workload(synthetic(requests, 100.0, seed));
                s = match par {
                    0 => s.tensor_parallel(),
                    1 => s.pipeline_parallel(),
                    _ => s.hybrid_parallel(groups.min(npus)),
                };
                s = match shape {
                    2 => s.replicas(fleet + 1),
                    3 => s.disagg(fleet, fleet),
                    _ => s,
                };
                s = s.routing(RoutingPolicyKind::ALL[route]);
                match bucket {
                    0 => s,
                    1 => s.kv_bucket(32usize),
                    _ => s.kv_bucket(KvBucket::adaptive()),
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any valid builder chain produces a runnable scenario whose report
    /// serves the whole workload, and whose file form round-trips.
    #[test]
    fn valid_builder_chains_are_runnable_and_serializable(scenario in arb_scenario()) {
        prop_assert!(scenario.validate().is_ok(), "validate failed: {scenario:?}");
        let report = scenario.run().unwrap();
        let expected = match &scenario.workload {
            WorkloadSpec::Synthetic { requests, .. } => *requests,
            _ => unreachable!("strategy emits synthetic workloads"),
        };
        prop_assert_eq!(report.total_completions(), expected);
        let back = Scenario::from_toml(&scenario.to_toml()).unwrap();
        prop_assert_eq!(back, scenario);
    }
}

/// Every document the input-path properties splice into: the canonical
/// TOML/JSON goldens and the checked-in sweep files.
fn document_corpus() -> &'static [String] {
    static CORPUS: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();
    CORPUS.get_or_init(|| {
        let root = env!("CARGO_MANIFEST_DIR");
        let mut docs = Vec::new();
        for dir in ["tests/golden/scenarios", "examples/scenarios"] {
            let mut paths: Vec<_> = std::fs::read_dir(format!("{root}/{dir}"))
                .unwrap()
                .map(|e| e.unwrap().path())
                .filter(|p| dir.starts_with("tests") || p.to_string_lossy().contains("sweep_"))
                .collect();
            paths.sort();
            docs.extend(paths.iter().map(|p| std::fs::read_to_string(p).unwrap()));
        }
        docs
    })
}

/// The `i`-th (wrapping) item of a `|`-separated list.
fn pick(list: &'static str, i: usize) -> &'static str {
    let items: Vec<&str> = list.split('|').collect();
    items[i % items.len()]
}

/// Fragments that steer a splice into the codecs' edge cases.
const FRAGMENTS: &str = "[|]|[[|]]|{|}|=|\"|,|.|#|\n| |\\|null|none|-1|0|1e400|1e-12|nan|true|\
                         on|fleet|replica|[fleet]|[[fleet.replica]]|[sweep]|kv_bucket|x = |é|\0";

/// Well-formed values of the wrong shape, range, or type for most keys
/// (JSON spelling; TOML swaps use ` = ` inside inline tables).
const VALUES: &str = "null|\"none\"|\"on\"|true|-1|0|1.5|1e300|-5.0|1e-12|\"x\"|\"2x2\"|[]|\
                      [1, 2]|[\"a\", 1]|{}|{ \"a\": 1 }|[{}]|\"adaptive\"|\
                      99999999999999999999999999999999999999999";

/// Scenario-shaped text built from a corpus document: raw bytes, a
/// random span replaced by fragments and bytes, or well-formed values
/// swapped into random `key = value` / `"key": value` lines (which keeps
/// the syntax valid and reaches the schema readers).
fn arb_document() -> impl Strategy<Value = String> {
    (
        (0usize..3, 0usize..64),
        (0usize..10_000, 0usize..24),
        proptest::collection::vec(0usize..64, 0..6),
        proptest::collection::vec(0u8..=255, 0..24),
        proptest::collection::vec((0usize..10_000, 0usize..64), 1..4),
    )
        .prop_map(|((mode, which), (at, cut), fragments, bytes, swaps)| {
            let corpus = document_corpus();
            let raw = String::from_utf8_lossy(&bytes).into_owned();
            let doc = &corpus[which % corpus.len()];
            match mode {
                0 => raw,
                1 => {
                    let mut at = at * doc.len() / 10_000;
                    while !doc.is_char_boundary(at) {
                        at -= 1;
                    }
                    let mut end = (at + cut).min(doc.len());
                    while !doc.is_char_boundary(end) {
                        end += 1;
                    }
                    let splice: String =
                        fragments.iter().map(|&i| pick(FRAGMENTS, i)).collect();
                    format!("{}{splice}{raw}{}", &doc[..at], &doc[end..])
                }
                _ => {
                    let mut lines: Vec<String> = doc.lines().map(str::to_owned).collect();
                    for (line, value) in swaps {
                        let count = lines.len();
                        let line = &mut lines[line * count / 10_000];
                        let value = pick(VALUES, value);
                        let (sep, value) = if line.trim_start().starts_with('"') {
                            // JSON: keep a trailing comma.
                            (
                                "\": ",
                                format!(
                                    "{value}{}",
                                    if line.ends_with(',') { "," } else { "" }
                                ),
                            )
                        } else {
                            (" = ", value.replace(": ", " = "))
                        };
                        if let Some((key, _)) = line.split_once(sep) {
                            *line = format!("{key}{sep}{value}");
                        }
                    }
                    lines.join("\n")
                }
            }
        })
}

/// String-addressable keys beyond `Scenario::KEYS`: aliases, table
/// sub-keys, and a few that are not keys at all.
const SET_KEYS: &str = "npu_num|pim_type|fleet.control|fleet.tick_ms|fleet.flex_idle_ticks|\
                        fleet.min_prefill|fleet.min_replicas|fleet.max_replicas|fleet.queue_high|\
                        fleet.queue_low|fleet.warmup_ms|fleet.shards|fleet.shared_cache|\
                        fabric.topology|fabric.sharing|fabric.bw_gbps|fabric.latency_ns|\
                        fabric.trunk_gbps|telemetry.trace|telemetry.timeline|telemetry.window_ps|\
                        telemetry.slo_ttft_ms|telemetry.slo_tpot_ms|telemetry.requests|\
                        telemetry.replicas|chaos.seed|chaos.crash_rate_per_s|chaos.mttr_ms|\
                        chaos.horizon_ms|chaos.max_retries|chaos.retry_backoff_ms|\
                        chaos.retry_backoff_mult|workload.kind|workload.rate|workload.requests|\
                        workload.seed|workload.dataset|workload.bursts|workload.path|\
                        workload.heavy|fleet.nope|fabric.|nope.key||.|fleet.replica";

const SET_VALUES: &str =
    "|none|null|on|off|1|0|-1|2.5|1e-12|1e300|-5|NaN|inf|adaptive|auto|2x2|\
                          0x1|x|99999999999999999999999|star4|fair|autoscale|gpt2|1,2|1,,x|é|\
                          bursty";

/// A `(key, value)` override: a schema key or one of [`SET_KEYS`], and
/// one of [`SET_VALUES`] or a plain number.
fn arb_assignment() -> impl Strategy<Value = (String, String)> {
    ((0usize..2, 0usize..64), (0usize..2, 0usize..64, 0u64..1000)).prop_map(
        |((listed, k), (numeric, v, n))| {
            let key = if listed == 0 {
                Scenario::KEYS[k % Scenario::KEYS.len()]
            } else {
                pick(SET_KEYS, k)
            };
            let value =
                if numeric == 0 { n.to_string() } else { pick(SET_VALUES, v).to_owned() };
            (key.to_owned(), value)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Arbitrary input to the file codecs is a scenario or a typed error,
    /// never a panic.
    #[test]
    fn scenario_and_sweep_parsers_are_total(doc in arb_document()) {
        let _ = Scenario::from_toml(&doc);
        let _ = Scenario::from_json(&doc);
        let _ = Sweep::from_toml(&doc);
    }

    /// Any sequence of `--set` assignments returns `Ok` or a typed error,
    /// never a panic, and an unknown key is always `UnknownKey`.
    #[test]
    fn set_is_total(assignments in proptest::collection::vec(arb_assignment(), 1..6)) {
        let mut s = Scenario::default();
        for (key, value) in &assignments {
            match s.set(key, value) {
                Ok(()) | Err(ScenarioError::UnknownValue { .. }) => {}
                Err(ScenarioError::UnknownKey { key: unknown }) => {
                    prop_assert!(
                        unknown.contains("nope") || unknown.ends_with('.')
                            || key.is_empty() || key == "fleet.replica",
                        "{key} is a schema key but was rejected as unknown"
                    );
                }
                Err(other) => prop_assert!(false, "{key}={value}: unexpected {other:?}"),
            }
        }
    }
}
