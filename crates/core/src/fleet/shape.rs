//! The serving shapes a fleet is built as: the [`FleetShape`] tag the
//! engine constructors set, and the disaggregated-deployment
//! configuration ([`DisaggConfig`], [`PairingPolicyKind`]) that
//! [`FleetEngine::disagg`](super::FleetEngine::disagg) takes.

use llmss_net::LinkSpec;

use super::route::{RoutingPolicy, RoutingPolicyKind};

/// Which engine constructor built a fleet (and, for a cluster, whether
/// it got exactly one configuration). Not a user option: it only picks
/// the artifact set the [`FleetReport`](super::FleetReport) writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetShape {
    /// [`FleetEngine::cluster`](super::FleetEngine::cluster) over exactly
    /// one configuration: one unified replica behind a trivial front end.
    /// The report writes the replica's own artifacts
    /// (`-throughput.tsv`, `-simulation-time.tsv`, `-summary.json`).
    Single,
    /// [`FleetEngine::cluster`](super::FleetEngine::cluster) over two or
    /// more configurations: replicas behind a router (`-cluster.tsv`).
    Cluster,
    /// [`FleetEngine::disagg`](super::FleetEngine::disagg): a prefill
    /// pool and a decode pool joined by a KV fabric, with the pairing
    /// policy that picks decode replicas (`-disagg.tsv` +
    /// `-disagg-metrics.tsv`).
    Disagg(PairingPolicyKind),
    /// Any other fleet, e.g. under a reshaping control plane
    /// (`-fleet.tsv`).
    Fleet,
}

impl FleetShape {
    /// The shape's short name (`single` | `cluster` | `disagg` | `fleet`).
    pub fn as_str(self) -> &'static str {
        match self {
            FleetShape::Single => "single",
            FleetShape::Cluster => "cluster",
            FleetShape::Disagg(_) => "disagg",
            FleetShape::Fleet => "fleet",
        }
    }
}

/// How a finished prefill picks its decode replica.
///
/// All three reuse the cluster [`RoutingPolicy`] machinery over
/// decode-pool snapshots; the decision runs at prefill-completion time,
/// before the transfer starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PairingPolicyKind {
    /// Ship to the decode replica with the fewest KV pages in use — the
    /// memory-pressure signal that matters most on a pool whose whole job
    /// is holding caches.
    LeastKvLoad,
    /// Ship to the decode replica with the fewest unfinished requests.
    LeastOutstanding,
    /// Session affinity: the request id picks the replica regardless of
    /// load (KV locality for multi-turn reuse).
    Sticky,
}

impl PairingPolicyKind {
    /// Every built-in pairing policy (for sweeps and exhaustive tests).
    pub const ALL: [PairingPolicyKind; 3] = [
        PairingPolicyKind::LeastKvLoad,
        PairingPolicyKind::LeastOutstanding,
        PairingPolicyKind::Sticky,
    ];

    /// Instantiates the policy as a cluster routing policy.
    pub fn build(self) -> Box<dyn RoutingPolicy> {
        match self {
            PairingPolicyKind::LeastKvLoad => RoutingPolicyKind::LeastKvLoad.build(0),
            PairingPolicyKind::LeastOutstanding => RoutingPolicyKind::LeastOutstanding.build(0),
            PairingPolicyKind::Sticky => RoutingPolicyKind::Sticky.build(0),
        }
    }

    /// The CLI spelling (`--pairing` flag values).
    pub fn as_str(&self) -> &'static str {
        match self {
            PairingPolicyKind::LeastKvLoad => "least-kv",
            PairingPolicyKind::LeastOutstanding => "least-outstanding",
            PairingPolicyKind::Sticky => "sticky",
        }
    }
}

impl std::fmt::Display for PairingPolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for PairingPolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "least-kv" | "kv" => Ok(PairingPolicyKind::LeastKvLoad),
            "least-outstanding" | "lor" => Ok(PairingPolicyKind::LeastOutstanding),
            "sticky" => Ok(PairingPolicyKind::Sticky),
            other => Err(format!(
                "unknown pairing policy '{other}' \
                 (expected least-kv | least-outstanding | sticky)"
            )),
        }
    }
}

/// Disaggregated-deployment configuration: pool sizes, routing/pairing
/// policies, and the inter-pool KV link.
///
/// # Examples
///
/// ```
/// use llmss_core::{DisaggConfig, PairingPolicyKind};
///
/// let cfg = DisaggConfig::new(2, 2)
///     .kv_link_gbps(32.0)
///     .pairing(PairingPolicyKind::Sticky)
///     .seed(7);
/// assert_eq!((cfg.prefill_replicas, cfg.decode_replicas), (2, 2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DisaggConfig {
    /// Prefill-pool size (≥ 1).
    pub prefill_replicas: usize,
    /// Decode-pool size (≥ 1).
    pub decode_replicas: usize,
    /// Front-end routing over the prefill pool.
    pub routing: RoutingPolicyKind,
    /// Decode-replica selection at prefill-completion time.
    pub pairing: PairingPolicyKind,
    /// The inter-pool KV-transfer link (shared, FIFO-serialized).
    pub kv_link: LinkSpec,
    /// Seed for randomized routing policies.
    pub seed: u64,
}

impl DisaggConfig {
    /// A `prefill`×`decode` deployment with least-outstanding routing,
    /// least-KV pairing, and a CXL-class KV link.
    ///
    /// # Panics
    ///
    /// Panics if either pool is empty.
    pub fn new(prefill: usize, decode: usize) -> Self {
        assert!(prefill > 0, "the prefill pool needs at least one replica");
        assert!(decode > 0, "the decode pool needs at least one replica");
        Self {
            prefill_replicas: prefill,
            decode_replicas: decode,
            routing: RoutingPolicyKind::LeastOutstanding,
            pairing: PairingPolicyKind::LeastKvLoad,
            kv_link: LinkSpec::cxl(),
            seed: 0,
        }
    }

    /// Sets the KV-link bandwidth in GB/s (latency stays CXL-class).
    pub fn kv_link_gbps(mut self, gbps: f64) -> Self {
        self.kv_link = LinkSpec::new(gbps, LinkSpec::cxl().latency_ns);
        self
    }

    /// Sets the full KV-link spec (bandwidth and latency).
    pub fn kv_link(mut self, link: LinkSpec) -> Self {
        self.kv_link = link;
        self
    }

    /// Sets the prefill-pool routing policy.
    pub fn routing(mut self, routing: RoutingPolicyKind) -> Self {
        self.routing = routing;
        self
    }

    /// Sets the decode-pairing policy.
    pub fn pairing(mut self, pairing: PairingPolicyKind) -> Self {
        self.pairing = pairing;
        self
    }

    /// Sets the routing seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}
