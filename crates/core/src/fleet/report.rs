//! The fleet report — one report for every serving shape:
//! per-replica outcomes, end-to-end completions (KV handoffs joined back
//! to their original arrivals), committed transfers, and fleet-wide SLO
//! metrics.
//!
//! The report's [`FleetShape`] only picks the artifact set it writes:
//! the replica's own `-throughput.tsv`/`-simulation-time.tsv`/
//! `-summary.json` for a one-replica [`FleetEngine::cluster`],
//! `-cluster.tsv` for a larger one, `-disagg.tsv` plus
//! `-disagg-metrics.tsv` for [`FleetEngine::disagg`], `-fleet.tsv`
//! otherwise. The shape views (per-pool rows, the TTFT split at the KV
//! handoff) are derived from [`FleetReplica`] and the transfer records
//! when written, so assembling the report costs no per-request work
//! beyond the fleet view.
//!
//! [`FleetEngine::cluster`]: super::FleetEngine::cluster
//! [`FleetEngine::disagg`]: super::FleetEngine::disagg

use llmss_sched::{Completion, TimePs};

use crate::chaos::ResilienceStats;
use crate::fabric::FabricStats;
use crate::{
    percentile, percentiles_from_ps, PercentileSummary, ReuseStats, SimReport, SloSummary,
};

use super::engine::{FleetParts, FleetTransfer};
use super::route::ReplicaRole;
use super::shape::FleetShape;

/// One replica's outcome in a finished fleet run.
#[derive(Debug, Clone)]
pub struct FleetReplica {
    /// The replica's full serving report.
    pub report: SimReport,
    /// The role the replica held when the run finished.
    pub role: ReplicaRole,
    /// The role the replica was created with.
    pub home_role: ReplicaRole,
    /// Fresh arrivals routed here.
    pub routed: usize,
    /// KV handoffs paired to this replica.
    pub paired: usize,
    /// Whether the replica was retired (scaled down) at the end.
    pub retired: bool,
}

impl FleetReplica {
    /// Simulated time spent executing iterations.
    pub(crate) fn busy_ps(&self) -> TimePs {
        self.report.iterations.iter().map(|it| it.latency_ps).sum()
    }
}

/// One disaggregated request's time to first token, split at its KV
/// handoff. The three components partition TTFT exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TtftComponents {
    /// Front-end arrival to end-of-prefill (prefill-pool queueing + the
    /// prefill pass).
    pub prefill_ps: TimePs,
    /// End-of-prefill to KV landed (link queueing + wire time).
    pub transfer_ps: TimePs,
    /// KV landed to first token (decode-pool queueing + the first decode
    /// step).
    pub decode_ps: TimePs,
}

impl TtftComponents {
    /// Splits an end-to-end completion's TTFT at the transfer that fed
    /// its decode side.
    pub fn of(completion: &Completion, transfer: &FleetTransfer) -> Self {
        Self {
            prefill_ps: transfer.ready_ps.saturating_sub(completion.arrival_ps),
            transfer_ps: transfer.done_ps.saturating_sub(transfer.ready_ps),
            decode_ps: completion.first_token_ps.saturating_sub(transfer.done_ps),
        }
    }
}

/// Mean TTFT decomposition across all handed-off requests, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TtftSplit {
    /// Mean prefill component (queueing + prefill pass).
    pub prefill_s: f64,
    /// Mean transfer component (link queueing + wire time).
    pub transfer_s: f64,
    /// Mean decode component (queueing + first decode step).
    pub decode_s: f64,
}

impl TtftSplit {
    /// Total mean TTFT.
    pub fn total_s(&self) -> f64 {
        self.prefill_s + self.transfer_s + self.decode_s
    }
}

impl std::fmt::Display for TtftSplit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "prefill={:.4}s transfer={:.4}s decode={:.4}s",
            self.prefill_s, self.transfer_s, self.decode_s
        )
    }
}

/// The aggregated result of one fleet-engine run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// The constructor that built the fleet (picks the artifact set).
    pub shape: FleetShape,
    /// The control plane that drove the run.
    pub control: String,
    /// Per-replica outcomes, by fleet index (including replicas the
    /// autoscaler added or retired mid-run).
    pub replicas: Vec<FleetReplica>,
    /// End-to-end completions: one per served request, with KV-handoff
    /// requests joined back to their original front-end arrival (sorted
    /// by request id).
    pub completions: Vec<Completion>,
    /// Committed KV transfers, sorted by request id.
    pub transfers: Vec<(u64, FleetTransfer)>,
    /// `(request id, replica)` admissions in routing order.
    pub assignments: Vec<(u64, usize)>,
    /// Fabric usage when the fleet ran over a fair-sharing fabric
    /// (`None` for the legacy FIFO wire, keeping its reports
    /// byte-identical).
    pub fabric: Option<FabricStats>,
    /// Fault-injection outcome when the run armed a chaos schedule
    /// (`None` for chaos-free runs, keeping their reports
    /// byte-identical).
    pub resilience: Option<ResilienceStats>,
    makespan_ps: TimePs,
}

impl FleetReport {
    /// Assembles the report from a dismantled engine.
    pub(crate) fn from_parts(parts: FleetParts) -> Self {
        let makespan_ps =
            parts.replicas.iter().map(|r| r.report.sim_duration_ps).max().unwrap_or(0);
        // End-to-end completions: skip the prefill-side bookkeeping record
        // of each handoff (same id, `from` replica, finishing no later
        // than the KV-ready instant — exactly at it normally, earlier
        // when a partition parked the commit and stamped `ready_ps` at
        // recovery), and restore the original arrival on the decode-side
        // record (its scheduler-local arrival is the transfer-done
        // time). A flexed replica can be both sides of one handoff
        // (`from == to`), so the prefill-side record is keyed by its
        // finish time, not the replica index alone — the decode side
        // always finishes strictly after the transfer completed.
        let mut completions: Vec<Completion> = Vec::new();
        for (index, replica) in parts.replicas.iter().enumerate() {
            for c in &replica.report.completions {
                match parts.transfers.get(&c.id) {
                    Some(t) if t.from == index && c.finish_ps <= t.ready_ps => {}
                    Some(t) if t.to == index => {
                        let mut joined = *c;
                        joined.arrival_ps = parts.requests[&c.id].arrival_ps;
                        completions.push(joined);
                    }
                    Some(t) => {
                        debug_assert!(
                            false,
                            "request {} completed on replica {index}, which is neither \
                             side of its handoff {t:?}",
                            c.id
                        );
                    }
                    None => completions.push(*c),
                }
            }
        }
        // A retried request completed with its *retry* admission as the
        // scheduler-local arrival; latency must span the whole retry
        // chain, so restore the first front-end arrival.
        if let Some(res) = &parts.resilience {
            for c in &mut completions {
                if let Ok(i) = res.original_arrivals.binary_search_by_key(&c.id, |&(id, _)| id)
                {
                    c.arrival_ps = c.arrival_ps.min(res.original_arrivals[i].1);
                }
            }
        }
        completions.sort_by_key(|c| c.id);
        let mut transfers: Vec<(u64, FleetTransfer)> = parts.transfers.into_iter().collect();
        transfers.sort_by_key(|&(id, _)| id);
        Self {
            shape: parts.shape,
            control: parts.control,
            replicas: parts.replicas,
            completions,
            transfers,
            assignments: parts.assignments,
            fabric: parts.fabric,
            resilience: parts.resilience,
            makespan_ps,
        }
    }

    /// Contention percentiles over delivered transfers: the p50/p95/p99
    /// of the achieved-over-nominal slowdown ratio (1.0 = uncontended).
    /// `None` without any delivered transfer carrying a nominal.
    pub fn contention(&self) -> Option<(f64, f64, f64)> {
        let mut ratios: Vec<f64> =
            self.transfers.iter().filter_map(|(_, t)| t.contention()).collect();
        if ratios.is_empty() {
            return None;
        }
        Some((
            percentile(&mut ratios, 0.50),
            percentile(&mut ratios, 0.95),
            percentile(&mut ratios, 0.99),
        ))
    }

    /// Fleet makespan: the latest replica clock.
    pub fn makespan_ps(&self) -> TimePs {
        self.makespan_ps
    }

    /// Fleet makespan in seconds.
    pub fn makespan_s(&self) -> f64 {
        self.makespan_ps as f64 / 1e12
    }

    /// Requests served end to end.
    pub fn total_completions(&self) -> usize {
        self.completions.len()
    }

    /// Generation throughput in tokens per simulated second, over
    /// end-to-end completions.
    pub fn generation_throughput(&self) -> f64 {
        let s = self.makespan_s();
        if s == 0.0 {
            return 0.0;
        }
        let tokens: usize = self.completions.iter().map(|c| c.output_len).sum();
        tokens as f64 / s
    }

    /// The standard SLO percentile summaries (TTFT / TPOT / latency),
    /// fleet-wide over end-to-end completions.
    pub fn slo(&self) -> SloSummary {
        SloSummary::collect(self.completions.iter())
    }

    /// Fleet availability under fault injection: the fraction of
    /// replica-time outside crash/hang windows, over the whole run.
    /// `None` for chaos-free runs.
    pub fn availability(&self) -> Option<f64> {
        let res = self.resilience.as_ref()?;
        let replicas = self.replicas.len().max(1) as u128;
        let total = replicas * self.makespan_ps.max(1) as u128;
        let down: u128 = res.downtime.iter().map(|&d| d as u128).sum();
        Some(1.0 - down.min(total) as f64 / total as f64)
    }

    /// Re-prefill overhead: virtual time from each KV-destroying fault
    /// to the retried request's first token, summed over lost prefills
    /// that eventually completed. `None` for chaos-free runs.
    pub fn re_prefill_overhead_ps(&self) -> Option<TimePs> {
        let res = self.resilience.as_ref()?;
        let mut total: TimePs = 0;
        for &(id, fault_ps) in &res.lost_prefills {
            if let Ok(i) = self.completions.binary_search_by_key(&id, |c| c.id) {
                total += self.completions[i].first_token_ps.saturating_sub(fault_ps);
            }
        }
        Some(total)
    }

    /// SLO percentiles split by fault exposure: completions finishing
    /// inside any fault window versus in the clear. `None` for
    /// chaos-free runs.
    pub fn slo_by_fault_window(&self) -> Option<(SloSummary, SloSummary)> {
        let res = self.resilience.as_ref()?;
        let hit = |c: &Completion| {
            res.fault_windows.iter().any(|&(s, e)| s <= c.finish_ps && c.finish_ps < e)
        };
        let inside = SloSummary::collect(self.completions.iter().filter(|c| hit(c)));
        let clear = SloSummary::collect(self.completions.iter().filter(|c| !hit(c)));
        Some((inside, clear))
    }

    /// Fleet-wide reuse statistics (all replicas merged).
    pub fn aggregate_reuse(&self) -> ReuseStats {
        let mut total = ReuseStats::default();
        for r in &self.replicas {
            total.merge(&r.report.reuse);
        }
        total
    }

    /// Load imbalance as max/mean routed requests per replica (`1.0` is
    /// perfectly balanced; only meaningful once requests were routed).
    pub fn load_imbalance(&self) -> f64 {
        let max = self.replicas.iter().map(|r| r.routed).max().unwrap_or(0);
        let total: usize = self.replicas.iter().map(|r| r.routed).sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / self.replicas.len() as f64;
        max as f64 / mean
    }

    /// Coefficient of variation (stddev/mean) of per-replica busy time —
    /// `0.0` when every replica worked equally long.
    pub fn utilization_imbalance(&self) -> f64 {
        let busy: Vec<f64> = self.replicas.iter().map(|r| r.busy_ps() as f64).collect();
        let mean = busy.iter().sum::<f64>() / busy.len() as f64;
        if mean == 0.0 {
            return 0.0;
        }
        let var = busy.iter().map(|b| (b - mean) * (b - mean)).sum::<f64>() / busy.len() as f64;
        var.sqrt() / mean
    }

    /// Total KV bytes shipped between replicas.
    pub fn total_kv_bytes(&self) -> u64 {
        self.transfers.iter().map(|(_, t)| t.bytes).sum()
    }

    /// End-to-end completions joined with the KV transfer that fed their
    /// decode side, by request id (requests served without a handoff are
    /// skipped).
    pub fn handoffs(&self) -> impl Iterator<Item = (&Completion, &FleetTransfer)> + '_ {
        self.completions.iter().filter_map(|c| {
            let i = self.transfers.binary_search_by_key(&c.id, |&(id, _)| id).ok()?;
            Some((c, &self.transfers[i].1))
        })
    }

    /// Every handed-off request's TTFT split, by request id.
    fn ttft_components(&self) -> impl Iterator<Item = TtftComponents> + '_ {
        self.handoffs().map(|(c, t)| TtftComponents::of(c, t))
    }

    /// Mean TTFT decomposition (`None` without any handed-off
    /// completion).
    pub fn ttft_split(&self) -> Option<TtftSplit> {
        let n = self.ttft_components().count();
        if n == 0 {
            return None;
        }
        let mean = |part: fn(&TtftComponents) -> TimePs| {
            self.ttft_components().map(|c| part(&c) as f64).sum::<f64>() / n as f64 / 1e12
        };
        Some(TtftSplit {
            prefill_s: mean(|c| c.prefill_ps),
            transfer_s: mean(|c| c.transfer_ps),
            decode_s: mean(|c| c.decode_ps),
        })
    }

    /// p50/p95/p99 of one TTFT component over handed-off requests, e.g.
    /// `|c| c.transfer_ps` for the KV-transfer component (the number a
    /// bandwidth-starved link inflates).
    pub fn component_percentiles(
        &self,
        part: fn(&TtftComponents) -> TimePs,
    ) -> Option<PercentileSummary> {
        percentiles_from_ps(self.ttft_components().map(|c| part(&c) as f64))
    }

    /// The replicas created with `role`, by fleet index.
    pub fn pool(&self, role: ReplicaRole) -> impl Iterator<Item = &FleetReplica> + '_ {
        self.replicas.iter().filter(move |r| r.home_role == role)
    }

    /// Fraction of the makespan a replica spent executing iterations.
    fn utilization(&self, replica: &FleetReplica) -> f64 {
        replica.busy_ps() as f64 / self.makespan_ps.max(1) as f64
    }

    /// Mean utilization of the replicas created with `role` (`0.0` for an
    /// empty pool).
    pub fn pool_utilization(&self, role: ReplicaRole) -> f64 {
        self.mean_utilization(self.pool(role))
    }

    fn mean_utilization<'a>(&self, replicas: impl Iterator<Item = &'a FleetReplica>) -> f64 {
        let (sum, n) =
            replicas.fold((0.0, 0usize), |(sum, n), r| (sum + self.utilization(r), n + 1));
        if n == 0 {
            return 0.0;
        }
        sum / n as f64
    }

    /// One-paragraph human summary (what the CLI prints); a single
    /// replica prints its own [`SimReport::summary`].
    pub fn summary(&self) -> String {
        if self.shape == FleetShape::Single {
            return self.replicas[0].report.summary();
        }
        let slo = self.slo();
        let ttft = PercentileSummary::display_or_na(slo.ttft);
        let tpot = PercentileSummary::display_or_na(slo.tpot);
        let latency = PercentileSummary::display_or_na(slo.latency);
        let reuse = self.aggregate_reuse();
        let mut out = match self.shape {
            FleetShape::Single | FleetShape::Cluster => format!(
                "cluster policy={} replicas={} requests={} makespan={:.2}s \
                 gen_tput={:.1} tok/s ttft[{ttft}] tpot[{tpot}] latency[{latency}] \
                 imbalance={:.2} util_cv={:.3}",
                self.control,
                self.replicas.len(),
                self.total_completions(),
                self.makespan_s(),
                self.generation_throughput(),
                self.load_imbalance(),
                self.utilization_imbalance(),
            ),
            FleetShape::Disagg(pairing) => {
                let transfer = PercentileSummary::display_or_na(
                    self.component_percentiles(|c| c.transfer_ps),
                );
                let split =
                    self.ttft_split().map_or_else(|| "n/a".to_owned(), |s| s.to_string());
                format!(
                    "disagg {}P x {}D routing={} pairing={pairing} requests={} makespan={:.2}s \
                     gen_tput={:.1} tok/s kv_shipped={:.1} MiB ttft[{ttft}] ttft_split[{split}] \
                     transfer[{transfer}] tpot[{tpot}] util[prefill={:.2} decode={:.2}]",
                    self.pool(ReplicaRole::Prefill).count(),
                    self.pool(ReplicaRole::Decode).count(),
                    self.control,
                    self.total_completions(),
                    self.makespan_s(),
                    self.generation_throughput(),
                    self.total_kv_bytes() as f64 / (1u64 << 20) as f64,
                    self.pool_utilization(ReplicaRole::Prefill),
                    self.pool_utilization(ReplicaRole::Decode),
                )
            }
            FleetShape::Fleet => format!(
                "fleet control={} replicas={} (retired {}) requests={} transfers={} \
                 makespan={:.2}s gen_tput={:.1} tok/s ttft[{ttft}] tpot[{tpot}] \
                 latency[{latency}]",
                self.control,
                self.replicas.len(),
                self.replicas.iter().filter(|r| r.retired).count(),
                self.total_completions(),
                self.transfers.len(),
                self.makespan_s(),
                self.generation_throughput(),
            ),
        };
        out.push_str(&format!(
            " op_reuse={:.1}% iter_reuse={:.1}%",
            reuse.hit_rate() * 100.0,
            reuse.iteration_hit_rate() * 100.0,
        ));
        if reuse.shared_armed {
            out.push_str(&format!(
                " shared_hits={} local_iter_reuse={:.1}%",
                reuse.shared_hits,
                reuse.local_iteration_hit_rate() * 100.0,
            ));
        }
        if let Some(fabric) = &self.fabric {
            out.push_str(&format!(" fabric={}", fabric.label));
            if let Some((p50, _, p99)) = self.contention() {
                out.push_str(&format!(" contention[p50={p50:.2}x p99={p99:.2}x]"));
            }
        }
        if let Some(res) = &self.resilience {
            out.push_str(&format!(
                " chaos faults={} retried={} abandoned={} kv_lost={}B availability={:.2}%",
                res.faults_injected,
                res.requests_retried,
                res.requests_abandoned,
                res.kv_bytes_lost,
                self.availability().unwrap_or(1.0) * 100.0,
            ));
        }
        out
    }

    /// Machine-readable summary as pretty-printed JSON: fleet totals, SLO
    /// percentiles, merged reuse statistics, one entry per replica, the
    /// fabric section (links + contention) when the run used a
    /// fair-sharing fabric, and the resilience section for chaos runs. A
    /// disaggregated deployment adds its pairing policy and the TTFT
    /// split at the KV handoff.
    ///
    /// Virtual-time results only, so the artifact is byte-identical
    /// across runs of the same seed. A single replica writes its own
    /// [`SimReport::summary_json`].
    pub fn summary_json(&self) -> String {
        use serde::Value;

        use crate::json::obj;

        if self.shape == FleetShape::Single {
            return self.replicas[0].report.summary_json();
        }

        let replicas: Vec<Value> = self
            .replicas
            .iter()
            .enumerate()
            .map(|(i, r)| {
                obj(vec![
                    ("index", Value::Int(i as i128)),
                    ("role", Value::Str(r.role.to_string())),
                    ("home_role", Value::Str(r.home_role.to_string())),
                    ("retired", Value::Bool(r.retired)),
                    ("routed", Value::Int(r.routed as i128)),
                    ("paired", Value::Int(r.paired as i128)),
                    ("completed", Value::Int(r.report.completions.len() as i128)),
                    ("iterations", Value::Int(r.report.iterations.len() as i128)),
                    ("busy_s", Value::Float(r.busy_ps() as f64 / 1e12)),
                    ("utilization", Value::Float(self.utilization(r))),
                ])
            })
            .collect();
        let retired = self.replicas.iter().filter(|r| r.retired).count();
        let mut fields = vec![
            ("shape", Value::Str(self.shape.as_str().into())),
            ("control", Value::Str(self.control.clone())),
        ];
        if let FleetShape::Disagg(pairing) = self.shape {
            fields.push(("pairing", Value::Str(pairing.as_str().into())));
        }
        fields.extend([
            ("replica_count", Value::Int(self.replicas.len() as i128)),
            ("retired", Value::Int(retired as i128)),
            ("completions", Value::Int(self.total_completions() as i128)),
            ("transfers", Value::Int(self.transfers.len() as i128)),
            ("assignments", Value::Int(self.assignments.len() as i128)),
            ("makespan_ps", Value::Int(self.makespan_ps as i128)),
            ("makespan_s", Value::Float(self.makespan_s())),
            ("generation_tput_tok_s", Value::Float(self.generation_throughput())),
            ("slo", self.slo().json_value()),
        ]);
        if let FleetShape::Disagg(_) = self.shape {
            let split = match self.ttft_split() {
                Some(s) => obj(vec![
                    ("prefill_s", Value::Float(s.prefill_s)),
                    ("transfer_s", Value::Float(s.transfer_s)),
                    ("decode_s", Value::Float(s.decode_s)),
                ]),
                None => Value::Null,
            };
            let component = |part: fn(&TtftComponents) -> TimePs| {
                PercentileSummary::json_or_null(self.component_percentiles(part))
            };
            fields.extend([
                ("ttft_prefill", component(|c| c.prefill_ps)),
                ("ttft_transfer", component(|c| c.transfer_ps)),
                ("ttft_decode", component(|c| c.decode_ps)),
                ("ttft_split", split),
            ]);
        }
        fields.extend([
            ("reuse", self.aggregate_reuse().json_value()),
            ("replicas", Value::Array(replicas)),
            ("fabric", self.fabric_json()),
        ]);
        // The resilience key exists only for chaos runs; chaos-free
        // summaries stay byte-identical to the pre-chaos engine.
        if let (Some(res), Some((slo_in_fault, slo_clear))) =
            (&self.resilience, self.slo_by_fault_window())
        {
            let abandoned: Vec<Value> = res
                .abandoned
                .iter()
                .map(|(id, reason)| {
                    obj(vec![
                        ("id", Value::Int(*id as i128)),
                        ("reason", Value::Str(reason.clone())),
                    ])
                })
                .collect();
            let windows: Vec<Value> = res
                .fault_windows
                .iter()
                .map(|&(s, e)| {
                    obj(vec![
                        ("start_ps", Value::Int(s as i128)),
                        ("end_ps", Value::Int(e as i128)),
                    ])
                })
                .collect();
            let downtime: Vec<Value> =
                res.downtime.iter().map(|&d| Value::Float(d as f64 / 1e12)).collect();
            fields.push((
                "resilience",
                obj(vec![
                    ("faults_injected", Value::Int(res.faults_injected as i128)),
                    ("requests_retried", Value::Int(res.requests_retried as i128)),
                    ("requests_abandoned", Value::Int(res.requests_abandoned as i128)),
                    ("abandoned", Value::Array(abandoned)),
                    ("kv_bytes_lost", Value::Int(res.kv_bytes_lost as i128)),
                    (
                        "re_prefill_overhead_s",
                        Value::Float(self.re_prefill_overhead_ps().unwrap_or(0) as f64 / 1e12),
                    ),
                    ("availability", Value::Float(self.availability().unwrap_or(1.0))),
                    ("downtime_s", Value::Array(downtime)),
                    ("fault_windows", Value::Array(windows)),
                    ("slo_in_fault", slo_in_fault.json_value()),
                    ("slo_clear", slo_clear.json_value()),
                ]),
            ));
        }
        let v = obj(fields);
        crate::json::pretty(&v) + "\n"
    }

    /// The fabric section of the JSON summary: per-link utilization and
    /// contention percentiles (`null` on the legacy FIFO wire).
    fn fabric_json(&self) -> serde::Value {
        use serde::Value;

        use crate::json::obj;

        let Some(f) = &self.fabric else {
            return Value::Null;
        };
        let links: Vec<Value> = f
            .links
            .iter()
            .map(|l| {
                obj(vec![
                    ("name", Value::Str(l.name.clone())),
                    ("bw_gbps", Value::Float(l.bw_gbps)),
                    ("carried_bytes", Value::Float(l.carried_bytes)),
                    (
                        "utilization",
                        Value::Float(self.link_utilization(l.bw_gbps, l.carried_bytes)),
                    ),
                ])
            })
            .collect();
        let contention = match self.contention() {
            Some((p50, p95, p99)) => obj(vec![
                ("p50", Value::Float(p50)),
                ("p95", Value::Float(p95)),
                ("p99", Value::Float(p99)),
            ]),
            None => Value::Null,
        };
        obj(vec![
            ("label", Value::Str(f.label.clone())),
            ("links", Value::Array(links)),
            ("contention", contention),
        ])
    }

    /// A link's carried bytes over its capacity integral across the run
    /// (GB/s = 1e-3 B/ps).
    fn link_utilization(&self, bw_gbps: f64, carried_bytes: f64) -> f64 {
        let cap_bytes = bw_gbps / 1000.0 * self.makespan_ps.max(1) as f64;
        if cap_bytes > 0.0 {
            carried_bytes / cap_bytes
        } else {
            0.0
        }
    }

    /// The shape's per-replica TSV — the CLI's `{output}-cluster.tsv`,
    /// `{output}-disagg.tsv` or `{output}-fleet.tsv` — followed by the
    /// fabric section for fair-sharing runs and the resilience section
    /// for chaos runs. A single replica renders as a one-row cluster
    /// (this TSV is not among its artifacts).
    pub fn to_tsv(&self) -> String {
        let mut out = match self.shape {
            FleetShape::Single | FleetShape::Cluster => self.cluster_rows(),
            FleetShape::Disagg(_) => self.pool_rows(),
            FleetShape::Fleet => self.fleet_rows(),
        };
        // The fabric section exists only for fair-sharing runs; the
        // legacy FIFO wire emits exactly the pre-fabric TSV above.
        if let Some(fabric) = &self.fabric {
            out.push_str(&format!(
                "\nfabric\t{}\nlink\tbw_gbps\tcarried_mb\tutilization\n",
                fabric.label
            ));
            for l in &fabric.links {
                out.push_str(&format!(
                    "{}\t{:.1}\t{:.3}\t{:.4}\n",
                    l.name,
                    l.bw_gbps,
                    l.carried_bytes / 1e6,
                    self.link_utilization(l.bw_gbps, l.carried_bytes),
                ));
            }
            out.push_str("contention_p50\tcontention_p95\tcontention_p99\n");
            match self.contention() {
                Some((p50, p95, p99)) => {
                    out.push_str(&format!("{p50:.3}\t{p95:.3}\t{p99:.3}\n"));
                }
                None => out.push_str("-\t-\t-\n"),
            }
        }
        // The resilience section exists only for chaos runs; chaos-free
        // TSVs stay byte-identical to the pre-chaos engine.
        if let Some(res) = &self.resilience {
            out.push_str(&format!(
                "\nresilience\nfaults\tretried\tabandoned\tkv_bytes_lost\
                 \tre_prefill_s\tavailability\n{}\t{}\t{}\t{}\t{:.4}\t{:.6}\n",
                res.faults_injected,
                res.requests_retried,
                res.requests_abandoned,
                res.kv_bytes_lost,
                self.re_prefill_overhead_ps().unwrap_or(0) as f64 / 1e12,
                self.availability().unwrap_or(1.0),
            ));
            out.push_str("replica\tdowntime_s\n");
            for (i, &d) in res.downtime.iter().enumerate() {
                out.push_str(&format!("{i}\t{:.4}\n", d as f64 / 1e12));
            }
            if let Some((slo_in, slo_clear)) = self.slo_by_fault_window() {
                out.push_str(
                    "window\tttft_p50\tttft_p95\tttft_p99\tlat_p50\tlat_p95\tlat_p99\n",
                );
                for (label, slo) in [("in_fault", slo_in), ("clear", slo_clear)] {
                    let ttft = PercentileSummary::tsv_fields_or_dashes(slo.ttft);
                    let lat = PercentileSummary::tsv_fields_or_dashes(slo.latency);
                    out.push_str(&format!("{label}\t{ttft}\t{lat}\n"));
                }
            }
        }
        out
    }

    /// Fleet rows: one per replica (role, lifecycle, routing counters)
    /// plus a `fleet` totals row carrying the SLO percentiles.
    fn fleet_rows(&self) -> String {
        let mut out = String::from(
            "replica\trole\thome_role\tretired\trouted\tpaired\tcompleted\
             \titerations\tbusy_s\tutilization\tttft_p50\tttft_p95\tttft_p99\
             \tlat_p50\tlat_p95\tlat_p99\n",
        );
        for (i, r) in self.replicas.iter().enumerate() {
            let ttft = PercentileSummary::tsv_fields_or_dashes(r.report.ttft_percentiles());
            let lat = PercentileSummary::tsv_fields_or_dashes(r.report.latency_percentiles());
            out.push_str(&format!(
                "{i}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.4}\t{:.4}\t{ttft}\t{lat}\n",
                r.role,
                r.home_role,
                r.retired,
                r.routed,
                r.paired,
                r.report.completions.len(),
                r.report.iterations.len(),
                r.busy_ps() as f64 / 1e12,
                self.utilization(r),
            ));
        }
        let slo = self.slo();
        let ttft = PercentileSummary::tsv_fields_or_dashes(slo.ttft);
        let lat = PercentileSummary::tsv_fields_or_dashes(slo.latency);
        out.push_str(&format!(
            "fleet\t-\t-\t-\t{}\t{}\t{}\t{}\t{:.4}\t-\t{ttft}\t{lat}\n",
            self.assignments.len(),
            self.transfers.len(),
            self.total_completions(),
            self.replicas.iter().map(|r| r.report.iterations.len()).sum::<usize>(),
            self.replicas.iter().map(FleetReplica::busy_ps).sum::<TimePs>() as f64 / 1e12,
        ));
        out
    }

    /// Cluster rows: one per replica (routing counter, token totals) plus
    /// a `cluster` totals row carrying the SLO percentiles.
    fn cluster_rows(&self) -> String {
        let mut out = String::from(
            "replica\trouted\tcompleted\titerations\tbusy_s\tutilization\
             \tprompt_tok\tgen_tok\tttft_p50\tttft_p95\tttft_p99\
             \tlat_p50\tlat_p95\tlat_p99\n",
        );
        for (i, r) in self.replicas.iter().enumerate() {
            // A replica that finished nothing has no percentiles: dashes,
            // never NaN, so the TSV stays machine-parseable.
            let ttft = PercentileSummary::tsv_fields_or_dashes(r.report.ttft_percentiles());
            let lat = PercentileSummary::tsv_fields_or_dashes(r.report.latency_percentiles());
            out.push_str(&format!(
                "{i}\t{}\t{}\t{}\t{:.4}\t{:.4}\t{}\t{}\t{ttft}\t{lat}\n",
                r.routed,
                r.report.completions.len(),
                r.report.iterations.len(),
                r.busy_ps() as f64 / 1e12,
                self.utilization(r),
                r.report.total_prompt_tokens(),
                r.report.total_generated_tokens(),
            ));
        }
        let slo = self.slo();
        let ttft = PercentileSummary::tsv_fields_or_dashes(slo.ttft);
        let lat = PercentileSummary::tsv_fields_or_dashes(slo.latency);
        out.push_str(&format!(
            "cluster\t{}\t{}\t{}\t{:.4}\t{:.4}\t{}\t{}\t{ttft}\t{lat}\n",
            self.assignments.len(),
            self.total_completions(),
            self.replicas.iter().map(|r| r.report.iterations.len()).sum::<usize>(),
            self.replicas.iter().map(FleetReplica::busy_ps).sum::<TimePs>() as f64 / 1e12,
            // Mean, not sum: a fleet-level utilization above 1.0 would
            // read as nonsense in the totals row.
            self.mean_utilization(self.replicas.iter()),
            self.replicas.iter().map(|r| r.report.total_prompt_tokens()).sum::<u64>(),
            self.replicas.iter().map(|r| r.report.total_generated_tokens()).sum::<u64>(),
        ));
        out
    }

    /// Per-pool rows: one per pool member (indexed within its pool;
    /// `routed` counts arrivals on the prefill pool and KV handoffs on
    /// the decode pool) plus a `total` row per pool, whose utilization is
    /// the pool mean so it stays in `[0, 1]`.
    fn pool_rows(&self) -> String {
        let mut out =
            String::from("pool\treplica\trouted\tcompleted\titerations\tbusy_s\tutilization\n");
        for role in [ReplicaRole::Prefill, ReplicaRole::Decode] {
            let routed = |r: &FleetReplica| match role {
                ReplicaRole::Decode => r.paired,
                _ => r.routed,
            };
            for (i, r) in self.pool(role).enumerate() {
                out.push_str(&format!(
                    "{role}\t{i}\t{}\t{}\t{}\t{:.4}\t{:.4}\n",
                    routed(r),
                    r.report.completions.len(),
                    r.report.iterations.len(),
                    r.busy_ps() as f64 / 1e12,
                    self.utilization(r),
                ));
            }
            out.push_str(&format!(
                "{role}\ttotal\t{}\t{}\t{}\t{:.4}\t{:.4}\n",
                self.pool(role).map(routed).sum::<usize>(),
                self.pool(role).map(|r| r.report.completions.len()).sum::<usize>(),
                self.pool(role).map(|r| r.report.iterations.len()).sum::<usize>(),
                self.pool(role).map(FleetReplica::busy_ps).sum::<TimePs>() as f64 / 1e12,
                self.pool_utilization(role),
            ));
        }
        out
    }

    /// Metric TSV (the CLI's `{output}-disagg-metrics.tsv`): TTFT and its
    /// prefill/transfer/decode split, TPOT, and latency percentiles —
    /// dashes (never NaN) for undefined rows.
    pub(crate) fn metrics_tsv(&self) -> String {
        let slo = self.slo();
        let mut out = String::from("metric\tp50_s\tp95_s\tp99_s\n");
        let rows: [(&str, Option<PercentileSummary>); 6] = [
            ("ttft", slo.ttft),
            ("ttft_prefill", self.component_percentiles(|c| c.prefill_ps)),
            ("ttft_transfer", self.component_percentiles(|c| c.transfer_ps)),
            ("ttft_decode", self.component_percentiles(|c| c.decode_ps)),
            ("tpot", slo.tpot),
            ("latency", slo.latency),
        ];
        for (name, summary) in rows {
            out.push_str(&format!(
                "{name}\t{}\n",
                PercentileSummary::tsv_fields_or_dashes(summary)
            ));
        }
        out
    }

    /// `(file-name suffix, content)` pairs the CLI writes under its
    /// output prefix. The shape picks the set: a single replica writes
    /// its own [`SimReport::artifacts`]; every other shape writes its
    /// per-replica TSV, the disaggregated metrics TSV when disaggregated,
    /// and `-summary.json`.
    pub fn artifacts(&self) -> Vec<(&'static str, String)> {
        let tsv = match self.shape {
            FleetShape::Single => return self.replicas[0].report.artifacts(),
            FleetShape::Cluster => "-cluster.tsv",
            FleetShape::Disagg(_) => "-disagg.tsv",
            FleetShape::Fleet => "-fleet.tsv",
        };
        let mut artifacts = vec![(tsv, self.to_tsv())];
        if let FleetShape::Disagg(_) = self.shape {
            artifacts.push(("-disagg-metrics.tsv", self.metrics_tsv()));
        }
        artifacts.push(("-summary.json", self.summary_json()));
        artifacts
    }

    /// Writes every artifact under `prefix` (creating parent directories)
    /// and returns the paths written.
    ///
    /// # Errors
    ///
    /// Propagates the first filesystem error.
    pub fn write_artifacts(&self, prefix: &str) -> std::io::Result<Vec<String>> {
        if let Some(dir) = std::path::Path::new(prefix).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut paths = Vec::new();
        for (suffix, content) in self.artifacts() {
            let path = format!("{prefix}{suffix}");
            std::fs::write(&path, content)?;
            paths.push(path);
        }
        Ok(paths)
    }
}
