//! Seeded request-trace generators. The simulator only ever sees the
//! `Request`s these return.
//!
//! Lengths and inter-arrival gaps are drawn by stratified inverse-CDF
//! sampling: `n` draws take one uniform from each of `n` equal-probability
//! strata, and the seed decides the jitter inside each stratum and the
//! order the draws are dealt out in. Every seed therefore yields the same
//! marginal distribution (so total work, and with it host time, barely
//! moves between seeds) while request order, batch mixes and arrival
//! instants all change with the seed.

use llmss_sched::{Request, TimePs};

/// splitmix64: a tiny, well-mixed, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in the open interval (0, 1).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// `n` uniforms, one inside each stratum `[i/n, (i+1)/n)`, in seeded
/// random order.
pub fn stratified_uniforms(rng: &mut Rng, n: usize) -> Vec<f64> {
    let mut u: Vec<f64> = (0..n).map(|i| (i as f64 + rng.unit()) / n as f64).collect();
    rng.shuffle(&mut u);
    u
}

/// Standard normal quantile (Acklam's rational approximation, relative
/// error below 1.2e-9 — far finer than the token rounding applied to it).
pub fn normal_quantile(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const LOW: f64 = 0.024_25;
    let tail = |q: f64| {
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    if p < LOW {
        tail((-2.0 * p.ln()).sqrt())
    } else if p > 1.0 - LOW {
        -tail((-2.0 * (1.0 - p).ln()).sqrt())
    } else {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    }
}

/// A clamped log-normal token-length model.
#[derive(Debug, Clone, Copy)]
pub struct LogNormal {
    pub mu: f64,
    pub sigma: f64,
    pub min: usize,
    pub max: usize,
}

impl LogNormal {
    /// ShareGPT-like prompts (median ~160 tokens, heavy tail) — the same
    /// fit the simulator's own trace tooling uses.
    pub const SHAREGPT_PROMPT: Self = Self { mu: 5.1, sigma: 1.1, min: 4, max: 2048 };
    /// ShareGPT-like outputs (median ~200 tokens).
    pub const SHAREGPT_OUTPUT: Self = Self { mu: 5.3, sigma: 0.9, min: 4, max: 1024 };

    pub fn quantile(&self, u: f64) -> usize {
        let x = (self.mu + self.sigma * normal_quantile(u)).exp().round();
        (x as usize).clamp(self.min, self.max)
    }
}

fn ps(seconds: f64) -> TimePs {
    (seconds * 1e12).round() as TimePs
}

/// `n` ShareGPT-like requests with Poisson arrivals at `rate_per_s`
/// (stratified exponential gaps), ids `0..n` in arrival order.
pub fn sharegpt_poisson(seed: u64, n: usize, rate_per_s: f64) -> Vec<Request> {
    let mut rng = Rng::new(seed);
    let prompts = stratified_uniforms(&mut rng, n);
    let outputs = stratified_uniforms(&mut rng, n);
    let gaps = stratified_uniforms(&mut rng, n);
    let mut clock: TimePs = 0;
    (0..n)
        .map(|i| {
            let request = Request::new(
                i as u64,
                LogNormal::SHAREGPT_PROMPT.quantile(prompts[i]),
                LogNormal::SHAREGPT_OUTPUT.quantile(outputs[i]),
                clock,
            );
            clock += ps(-(1.0 - gaps[i]).ln() / rate_per_s).max(1);
            request
        })
        .collect()
}

/// A bursty two-class mix: `bursts` bursts of `burst_size` requests,
/// burst `b` opening at `b × burst_gap_ms`, with Poisson arrivals at
/// `intra_rate_per_s` inside a burst. Exactly `round(heavy_frac × n)`
/// requests are heavy; the seed places them.
#[derive(Debug, Clone, Copy)]
pub struct Bursty {
    pub bursts: usize,
    pub burst_size: usize,
    pub burst_gap_ms: f64,
    pub intra_rate_per_s: f64,
    pub heavy_frac: f64,
    /// `(input_len, output_len)` of a heavy request.
    pub heavy: (usize, usize),
    /// `(input_len, output_len)` of a light request.
    pub light: (usize, usize),
}

impl Bursty {
    pub fn len(&self) -> usize {
        self.bursts * self.burst_size
    }

    pub fn generate(&self, seed: u64) -> Vec<Request> {
        let n = self.len();
        let mut rng = Rng::new(seed);
        let heavy_count = (self.heavy_frac * n as f64).round() as usize;
        let mut heavy: Vec<bool> = (0..n).map(|i| i < heavy_count).collect();
        rng.shuffle(&mut heavy);
        let gaps = stratified_uniforms(&mut rng, n);
        let mut out = Vec::with_capacity(n);
        let mut clock: TimePs = 0;
        for b in 0..self.bursts {
            // A burst never opens behind the previous burst's tail.
            clock = clock.max(ps(b as f64 * self.burst_gap_ms * 1e-3));
            for slot in 0..self.burst_size {
                let id = b * self.burst_size + slot;
                if slot > 0 {
                    clock += ps(-(1.0 - gaps[id]).ln() / self.intra_rate_per_s).max(1);
                }
                let (input_len, output_len) = if heavy[id] { self.heavy } else { self.light };
                out.push(Request::new(id as u64, input_len, output_len, clock));
            }
            clock += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_seed_deterministic() {
        assert_eq!(sharegpt_poisson(7, 64, 0.8), sharegpt_poisson(7, 64, 0.8));
        assert_ne!(sharegpt_poisson(7, 64, 0.8), sharegpt_poisson(8, 64, 0.8));
        let spec = Bursty {
            bursts: 4,
            burst_size: 8,
            burst_gap_ms: 10.0,
            intra_rate_per_s: 5_000.0,
            heavy_frac: 0.5,
            heavy: (1024, 8),
            light: (32, 48),
        };
        assert_eq!(spec.generate(3), spec.generate(3));
        assert_ne!(spec.generate(3), spec.generate(4));
    }

    #[test]
    fn stratification_pins_the_marginals_across_seeds() {
        let total = |seed| -> usize {
            sharegpt_poisson(seed, 256, 1.0).iter().map(|r| r.input_len + r.output_len).sum()
        };
        let (a, b) = (total(1) as f64, total(2) as f64);
        assert!((a - b).abs() / a < 0.02, "{a} vs {b}");
        let spec = Bursty {
            bursts: 10,
            burst_size: 10,
            burst_gap_ms: 5.0,
            intra_rate_per_s: 1_000.0,
            heavy_frac: 0.9,
            heavy: (32, 512),
            light: (32, 64),
        };
        for seed in 0..4 {
            let trace = spec.generate(seed);
            assert_eq!(trace.iter().filter(|r| r.output_len == 512).count(), 90);
            assert!(trace.windows(2).all(|w| w[0].arrival_ps < w[1].arrival_ps));
        }
    }

    #[test]
    fn normal_quantile_matches_known_points() {
        assert!(normal_quantile(0.5).abs() < 1e-12);
        assert!((normal_quantile(0.975) - 1.959_963_985).abs() < 1e-6);
        assert!((normal_quantile(0.001) + 3.090_232_306).abs() < 1e-6);
    }
}
