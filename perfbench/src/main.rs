//! perfbench — the repository's performance ledger: end-to-end host-time
//! metrics of the simulator on three workloads, and a separate traced run
//! that splits the time by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <replica-miss|fleet-memo|disagg-fabric|all> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Each run generates its request trace from `--seed`, then repeats
//! offline replays (construct, step to drain, report) until `--seconds`
//! have passed and reports medians over the repetitions. `--trace 0`
//! prints the end-to-end metrics; `--trace 1` alternates untraced and
//! traced repetitions and prints the per-layer metrics, writing the
//! recorded spans to `perfbench/out/`. Every run checks the simulator's
//! outputs: every request completes, the summary digest repeats across
//! repetitions, and (disagg-fabric) a fresh fabric replays every KV
//! transfer to the same delivery time. A failed check is named on stderr
//! and the process exits with code 1. The last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod spans;
mod stats;
mod trace;
mod workloads;

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::time::Instant;

use llmss_core::{FleetTransfer, ReplicaRole, SimReport};
use llmss_sched::{Request, TimePs};

use spans::Tracer;
use stats::{digest_value, mape_pct, median, spread};
use workloads::{disagg_fabric, gen_series, Outcome, Workload};

/// Fewest measured repetitions per run, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Set-up samples behind the `setup_s` median.
const SETUP_SAMPLES: usize = 41;
/// Shortest host time one set-up sample may cover.
const SETUP_BATCH_S: f64 = 20e-3;

#[derive(Debug)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workloads = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Some(Workload::ALL.to_vec()),
            "--workload" => {
                let w = Workload::parse(&value)
                    .ok_or_else(|| format!("unknown workload '{value}'"))?;
                workloads = Some(vec![w]);
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must lie in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workloads = workloads.ok_or("--workload is required")?;
    Ok(Args { workloads, seed, seconds, trace })
}

/// Resets the kernel's peak-RSS mark so the next reading covers only
/// what follows (a no-op where the kernel does not support it).
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set since the last reset, in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn iterations(outcome: &Outcome) -> u64 {
    outcome.replicas().iter().map(|r| r.iterations.len() as u64).sum()
}

/// One untraced repetition.
#[derive(Debug)]
struct Rep {
    run_s: f64,
    step_s: f64,
    iterations: u64,
    completions: usize,
    digest: f64,
}

fn timed_rep(w: Workload, trace: &[Request]) -> (Rep, Outcome) {
    let requests = trace.to_vec();
    let t0 = Instant::now();
    let mut sim = w.build(requests);
    let t1 = Instant::now();
    while sim.step() {}
    let t2 = Instant::now();
    let outcome = std::hint::black_box(sim.into_outcome());
    let json = outcome.summary_json();
    let t3 = Instant::now();
    let rep = Rep {
        run_s: (t3 - t0).as_secs_f64(),
        step_s: (t2 - t1).as_secs_f64(),
        iterations: iterations(&outcome),
        completions: outcome.completions(),
        digest: digest_value(json.as_bytes()),
    };
    (rep, outcome)
}

/// The per-layer readings of one traced repetition.
#[derive(Debug, Default)]
struct Layers {
    run_s: f64,
    net_s: f64,
    convert_s: f64,
    engine_s: f64,
    sched_s: f64,
    step_calls: f64,
    step_s: f64,
    step_p50_us: f64,
    step_p99_us: f64,
    replica_cpu_s: f64,
    report_s: f64,
    unaccounted_s: f64,
    summary_bytes: f64,
    completions: usize,
    digest: f64,
}

fn traced_rep(w: Workload, trace: &[Request], tracer: &mut Tracer) -> Layers {
    let requests = trace.to_vec();
    let run = tracer.open("run", None);
    let setup = tracer.open("setup", Some(run));
    let mut sim = w.build(requests);
    tracer.close(setup);
    let steps = tracer.open("steps", Some(run));
    let step = tracer.aggregate("step", steps);
    loop {
        let a = tracer.now_ns();
        let more = sim.step();
        let b = tracer.now_ns();
        tracer.record(step, b - a);
        if !more {
            break;
        }
    }
    tracer.close(steps);
    let report = tracer.open("report", Some(run));
    let into = tracer.open("into_report", Some(report));
    let outcome = sim.into_outcome();
    tracer.close(into);
    let summary = tracer.open("summary_json", Some(report));
    let json = outcome.summary_json();
    tracer.close(summary);
    tracer.close(report);
    tracer.close(run);

    let walls: Vec<_> = outcome.replicas().iter().map(|r| r.wall).collect();
    let sum = |f: &dyn Fn(&llmss_core::WallBreakdown) -> std::time::Duration| -> f64 {
        walls.iter().map(|w| f(w).as_secs_f64()).sum()
    };
    let hist = tracer.hist(step);
    Layers {
        run_s: tracer.span(run).duration_s(),
        net_s: sum(&|w| w.network),
        convert_s: sum(&|w| w.converter),
        engine_s: sum(&|w| w.engine),
        sched_s: sum(&|w| w.scheduler),
        step_calls: hist.count() as f64,
        step_s: hist.sum_s(),
        step_p50_us: hist.percentile_ns(0.5) * 1e-3,
        step_p99_us: hist.percentile_ns(0.99) * 1e-3,
        replica_cpu_s: sum(&|w| w.total()),
        report_s: tracer.span(report).duration_s(),
        // Wall not under the setup, step or report spans.
        unaccounted_s: tracer.self_s(run) + tracer.self_s(steps),
        summary_bytes: json.len() as f64,
        completions: outcome.completions(),
        digest: digest_value(json.as_bytes()),
    }
}

/// `SETUP_SAMPLES` set-up times. Construction can take well under a
/// microsecond, near the clock's resolution, so each sample sums the
/// construction times of a batch of builds spanning at least
/// [`SETUP_BATCH_S`] and divides by the batch size. Each build is dropped
/// outside the clock before the next one starts.
fn setup_samples(w: Workload, trace: &[Request]) -> Vec<f64> {
    let build = || {
        let requests = trace.to_vec();
        let t0 = Instant::now();
        let sim = std::hint::black_box(w.build(requests));
        let elapsed = t0.elapsed().as_secs_f64();
        drop(sim);
        elapsed
    };
    let batch = ((SETUP_BATCH_S / build()).ceil() as usize).clamp(1, 10_000);
    (0..SETUP_SAMPLES)
        .map(|_| (0..batch).map(|_| build()).sum::<f64>() / batch as f64)
        .collect()
}

/// Result of replaying a run's KV transfers through a fresh fabric.
#[derive(Debug)]
struct Replay {
    flows: usize,
    peak_in_flight: usize,
    exact: bool,
}

/// Replays a fleet run's KV transfers through a fresh fabric and checks
/// that every delivery lands at the engine's picosecond.
///
/// The fair fabric integrates flows piecewise, so a delivery time depends
/// on where the caller splits time with `commit`/`advance`, not only on
/// what was committed. The replay therefore re-creates the engine's
/// serial interleaving from the report: fabric events go first, then
/// arrivals, then replica iterations; a transfer commits, in KV-ready
/// then id order, once the prefill iteration that produced it has run
/// and no unprocessed arrival or prefill iteration precedes its ready
/// time.
fn replay_fabric(trace: &[Request], outcome: &Outcome) -> Replay {
    let Outcome::Fleet(report) = outcome else {
        return Replay { flows: 0, peak_in_flight: 0, exact: true };
    };
    let mut arrivals: Vec<TimePs> = trace.iter().map(|r| r.arrival_ps).collect();
    arrivals.sort_unstable();
    // Prefill iterations as (start, end, replica), in the engine's pick
    // order, and the transfers each one released (by replica and end).
    let mut iterations: Vec<(TimePs, TimePs, usize)> = Vec::new();
    for (i, replica) in report.replicas.iter().enumerate() {
        if replica.role == ReplicaRole::Prefill {
            iterations.extend(
                replica
                    .report
                    .iterations
                    .iter()
                    .map(|it| (it.start_ps, it.start_ps + it.latency_ps, i)),
            );
        }
    }
    iterations.sort_unstable();
    let mut released: BTreeMap<(usize, TimePs), Vec<u64>> = BTreeMap::new();
    for (id, t) in &report.transfers {
        released.entry((t.from, t.ready_ps)).or_default().push(*id);
    }
    let transfers: BTreeMap<u64, &FleetTransfer> =
        report.transfers.iter().map(|(id, t)| (*id, t)).collect();

    let mut fabric = disagg_fabric();
    let mut delivered: BTreeMap<u64, TimePs> = BTreeMap::new();
    let mut pending: BinaryHeap<Reverse<(TimePs, u64)>> = BinaryHeap::new();
    let (mut next_arrival, mut next_iteration) = (0, 0);
    let mut peak_in_flight = 0;
    loop {
        let arrival = arrivals.get(next_arrival).copied();
        let iteration = iterations.get(next_iteration).map(|&(start, _, _)| start);
        let horizon = arrival.unwrap_or(TimePs::MAX).min(iteration.unwrap_or(TimePs::MAX));
        while let Some(&Reverse((ready, id))) = pending.peek() {
            if ready > horizon {
                break;
            }
            pending.pop();
            let t = transfers[&id];
            fabric.commit(id, t.from, t.to, t.bytes, ready);
            peak_in_flight = peak_in_flight.max(fabric.in_flight());
        }
        let event = fabric.next_event_ps();
        let at = if event.is_some_and(|e| e <= fabric.now_ps()) {
            Some(fabric.now_ps())
        } else {
            event
                .filter(|&e| arrival.is_none_or(|a| e <= a) && iteration.is_none_or(|i| e <= i))
        };
        if let Some(at) = at {
            delivered.extend(fabric.advance(at).into_iter().map(|d| (d.id, d.done_ps)));
        } else if arrival.is_some_and(|a| iteration.is_none_or(|i| a <= i)) {
            next_arrival += 1;
        } else if let Some(&(_, end, replica)) = iterations.get(next_iteration) {
            next_iteration += 1;
            for &id in released.get(&(replica, end)).into_iter().flatten() {
                pending.push(Reverse((end, id)));
            }
        } else {
            break;
        }
    }
    let exact = pending.is_empty()
        && report.transfers.iter().all(|(id, t)| delivered.get(id) == Some(&t.done_ps));
    Replay { flows: report.transfers.len(), peak_in_flight, exact }
}

/// A named metric value with its unit.
type Metric = (&'static str, f64, &'static str);

/// Collects failed checks; each names what broke.
#[derive(Debug, Default)]
struct Checks {
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
    digest: Option<f64>,
}

impl Checks {
    fn completions(&mut self, sent: usize, completed: usize) {
        self.attempted += sent as u64;
        if completed != sent {
            self.failed += sent.abs_diff(completed) as u64;
            self.fail(format!("completions: {completed} of {sent} requests completed"));
        }
    }

    fn digest(&mut self, digest: f64) {
        match self.digest {
            None => self.digest = Some(digest),
            Some(first) if first != digest => {
                self.fail(format!("digest: summary digest {digest} differs from {first}"))
            }
            Some(_) => {}
        }
    }

    fn fail(&mut self, message: String) {
        if !self.failures.contains(&message) {
            self.failures.push(message);
        }
    }
}

fn json_line(checks: &Checks, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failures.is_empty(),
        checks.attempted,
        checks.failed,
        body.join(", ")
    )
}

/// Runs one workload: the checks it made and the metrics to print.
fn run_workload(w: Workload, args: &Args) -> (Checks, Vec<Metric>) {
    let host_parallelism =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let trace = w.trace(args.seed);
    println!(
        "perfbench workload={} seed={} requests={} host_parallelism={} shards={} trace={}",
        w.name(),
        args.seed,
        trace.len(),
        host_parallelism,
        w.shards(),
        u8::from(args.trace)
    );
    let mut checks = Checks::default();

    // Warm-up repetition: untimed; its outcome feeds the checks that need
    // a full report (reference error, fabric replay). Being the first run
    // in a fresh process, it also gives the peak RSS: later repetitions
    // start from whatever heap the allocator kept, which varies.
    reset_peak_rss();
    let (rep, outcome) = timed_rep(w, &trace);
    let peak_rss_mb = peak_rss_mb();
    checks.completions(trace.len(), rep.completions);
    checks.digest(rep.digest);
    let ref_err_pct = mape_pct(
        &w.reference_series(&trace, &outcome),
        &gen_series(outcome.replicas().into_iter()),
    );
    if !ref_err_pct.is_finite() {
        checks.fail(format!("reference: error against gpu_ref is {ref_err_pct}"));
    }
    let replay_start = Instant::now();
    let replay = replay_fabric(&trace, &outcome);
    let replay_s = replay_start.elapsed().as_secs_f64();
    if w == Workload::DisaggFabric && (!replay.exact || replay.flows != trace.len()) {
        checks.fail(format!(
            "fabric replay: {} transfers, replay exact = {}",
            replay.flows, replay.exact
        ));
    }
    let sim_stats = SimStats::of(&outcome);
    drop(outcome);
    // Set-up is sampled at a fixed point in the process's history (after
    // exactly one run): after a host-speed-dependent number of timed
    // repetitions, the allocator's state, and with it construction time,
    // varies from run to run.
    let setups = setup_samples(w, &trace);

    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut traced: Vec<Layers> = Vec::new();
    let mut tracer = Tracer::default();
    while start.elapsed().as_secs_f64() < args.seconds
        || reps.len() < MIN_REPS
        || (args.trace && traced.len() < MIN_REPS)
    {
        if args.trace && traced.len() < reps.len() {
            let layers = traced_rep(w, &trace, &mut tracer);
            checks.completions(trace.len(), layers.completions);
            checks.digest(layers.digest);
            traced.push(layers);
        } else {
            let (rep, _) = timed_rep(w, &trace);
            checks.completions(trace.len(), rep.completions);
            checks.digest(rep.digest);
            reps.push(rep);
        }
    }
    let of = |f: fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let req_per_s = of(|r| r.completions as f64 / r.run_s);
    let iter_per_s = of(|r| r.iterations as f64 / r.step_s);
    eprintln!(
        "{}: 1 warm-up + {} timed + {} traced repetitions; spread (IQR/median) over \
         repetitions: req/s {:.3}, iter/s {:.3}, setup {:.3}\n  req/s by repetition: {:.2?}",
        w.name(),
        reps.len(),
        traced.len(),
        spread(&req_per_s),
        spread(&iter_per_s),
        spread(&setups),
        req_per_s
    );
    let metrics: Vec<Metric> =
        if !args.trace {
            vec![
                ("sim_req_per_s", median(&req_per_s), "1/s"),
                ("sim_iter_per_s", median(&iter_per_s), "1/s"),
                ("setup_s", median(&setups), "s"),
                ("peak_rss_mb", peak_rss_mb, "MiB"),
                ("ref_err_pct", ref_err_pct, "%"),
            ]
        } else {
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("spans-{}-seed{}.json", w.name(), args.seed));
            let written = std::fs::create_dir_all(path.parent().expect("out dir has a parent"))
                .and_then(|()| std::fs::write(&path, tracer.to_json()));
            match written {
                Ok(()) => eprintln!("spans written to {}", path.display()),
                Err(e) => checks.fail(format!("spans: cannot write {}: {e}", path.display())),
            }
            per_layer(w, &reps, &traced, &sim_stats, &replay, replay_s)
        };
    if metrics.iter().any(|(_, v, _)| !v.is_finite()) {
        checks.fail("metrics: a metric is not a finite number".into());
    }
    (checks, metrics)
}

/// Simulated statistics of a run (identical across repetitions).
#[derive(Debug)]
struct SimStats {
    iterations: u64,
    makespan_s: f64,
    batch_mean: f64,
    net_calls: u64,
    iter_lookups: u64,
    iter_hits: u64,
    op_hit_rate: f64,
    shared_hits: u64,
    ttft_p50_s: f64,
    ttft_p99_s: f64,
    tpot_p99_s: f64,
}

impl SimStats {
    fn of(outcome: &Outcome) -> Self {
        let replicas = outcome.replicas();
        let mut reuse = llmss_core::ReuseStats::default();
        for r in &replicas {
            reuse.merge(&r.reuse);
        }
        let iterations = iterations(outcome);
        let slo = outcome.slo();
        let batch_total: usize = replicas
            .iter()
            .flat_map(|r: &&SimReport| &r.iterations)
            .map(|i| i.batch_size)
            .sum();
        Self {
            iterations,
            makespan_s: outcome.makespan_s(),
            batch_mean: batch_total as f64 / iterations.max(1) as f64,
            net_calls: iterations - reuse.iteration_hits,
            iter_lookups: reuse.iteration_hits + reuse.iteration_misses,
            iter_hits: reuse.iteration_hits,
            op_hit_rate: reuse.hit_rate(),
            shared_hits: reuse.shared_hits,
            ttft_p50_s: slo.ttft.map_or(0.0, |s| s.p50_s),
            ttft_p99_s: slo.ttft.map_or(0.0, |s| s.p99_s),
            tpot_p99_s: slo.tpot.map_or(0.0, |s| s.p99_s),
        }
    }
}

fn per_layer(
    w: Workload,
    reps: &[Rep],
    traced: &[Layers],
    sim: &SimStats,
    replay: &Replay,
    replay_s: f64,
) -> Vec<Metric> {
    let m = |f: fn(&Layers) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let step_s = m(|l| l.step_s);
    let replica_cpu_s = m(|l| l.replica_cpu_s);
    let run_s = m(|l| l.run_s);
    let untraced_run_s = median(&reps.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let (self_s, parallel_eff) = if w.shards() > 1 {
        (0.0, replica_cpu_s / (step_s * w.shards() as f64))
    } else {
        (step_s - replica_cpu_s, 0.0)
    };
    vec![
        ("net.busy_s", m(|l| l.net_s), "s"),
        ("convert.busy_s", m(|l| l.convert_s), "s"),
        ("engine.busy_s", m(|l| l.engine_s), "s"),
        ("net.calls", sim.net_calls as f64, "count"),
        ("sched.busy_s", m(|l| l.sched_s), "s"),
        ("sched.iterations", sim.iterations as f64, "count"),
        ("sched.batch_mean", sim.batch_mean, "req"),
        ("reuse.iter_lookups", sim.iter_lookups as f64, "count"),
        ("reuse.iter_hit_rate", sim.iter_hits as f64 / sim.iter_lookups.max(1) as f64, "ratio"),
        ("reuse.op_hit_rate", sim.op_hit_rate, "ratio"),
        ("reuse.shared_hits", sim.shared_hits as f64, "count"),
        ("step.calls", m(|l| l.step_calls), "count"),
        ("step.busy_s", step_s, "s"),
        ("step.p50_us", m(|l| l.step_p50_us), "us"),
        ("step.p99_us", m(|l| l.step_p99_us), "us"),
        ("fleet.replica_cpu_s", replica_cpu_s, "s"),
        ("fleet.self_s", self_s, "s"),
        ("fleet.parallel_eff", parallel_eff, "ratio"),
        ("fabric.replay_s", replay_s, "s"),
        ("fabric.flows", replay.flows as f64, "count"),
        ("fabric.peak_in_flight", replay.peak_in_flight as f64, "count"),
        ("fabric.replay_exact", f64::from(u8::from(replay.exact)), "flag"),
        ("report.busy_s", m(|l| l.report_s), "s"),
        ("report.summary_bytes", m(|l| l.summary_bytes), "bytes"),
        ("sim.iterations", sim.iterations as f64, "count"),
        ("sim.makespan_s", sim.makespan_s, "sim_s"),
        ("sim.ttft_p50_s", sim.ttft_p50_s, "sim_s"),
        ("sim.ttft_p99_s", sim.ttft_p99_s, "sim_s"),
        ("sim.tpot_p99_s", sim.tpot_p99_s, "sim_s"),
        ("sim.digest", traced.first().map_or(0.0, |l| l.digest), "fnv1a52"),
        ("trace.overhead_pct", (run_s / untraced_run_s - 1.0) * 100.0, "%"),
        ("trace.unaccounted_pct", m(|l| l.unaccounted_s / l.run_s) * 100.0, "%"),
    ]
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <replica-miss|fleet-memo|disagg-fabric|all> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let mut ok = true;
    for &w in &args.workloads {
        let (checks, metrics) = run_workload(w, &args);
        for (name, value, unit) in &metrics {
            println!("  {:<24} {:>18.6} {unit}", name, value);
        }
        for failure in &checks.failures {
            eprintln!("perfbench: {}: check failed: {failure}", w.name());
        }
        ok &= checks.failures.is_empty();
        println!("{}", json_line(&checks, &metrics));
    }
    if !ok {
        std::process::exit(1);
    }
}
