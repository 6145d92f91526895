//! Small statistics kit: medians, interpolated percentiles, quartile
//! spread, a log-bucketed latency histogram and the FNV-1a digest.

/// Median of `values` (mean of the middle pair for even counts); NaN when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile, `p` in [0, 1]; NaN when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Cut points dividing `values` into `n` groups, by the same "exclusive"
/// method as Python's `statistics.quantiles`. Needs at least two values.
pub fn quantiles(values: &[f64], n: usize) -> Vec<f64> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    assert!(ld >= 2 && n >= 1, "quantiles need two values and one group");
    let m = ld + 1;
    (1..n)
        .map(|i| {
            let j = (i * m / n).clamp(1, ld - 1);
            let delta = (i * m) as f64 - (j * n) as f64;
            (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
        })
        .collect()
}

/// Interquartile range as a share of the median (0 below two values).
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let q = quantiles(values, 4);
    (q[2] - q[0]) / median(values).abs()
}

/// Mean absolute percentage error of `measured` against `reference`,
/// bin by bin, over the bins where the reference is non-zero (a missing
/// bin reads as zero) — Fig. 6's per-bin error.
pub fn mape_pct(reference: &[f64], measured: &[f64]) -> f64 {
    let at = |v: &[f64], i: usize| v.get(i).copied().unwrap_or(0.0);
    let bins: Vec<usize> = (0..reference.len()).filter(|&i| reference[i] != 0.0).collect();
    let total: f64 =
        bins.iter().map(|&i| ((at(measured, i) - reference[i]) / reference[i]).abs()).sum();
    total / bins.len() as f64 * 100.0
}

/// FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The digest as a JSON-safe number: the top 52 bits, which an f64 holds
/// exactly.
pub fn digest_value(bytes: &[u8]) -> f64 {
    (fnv1a(bytes) >> 12) as f64
}

/// Latency histogram with 32 log-linear buckets per power of two (~3%
/// resolution); exact count and sum.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u128,
}

const SUB: u32 = 5; // 2^5 buckets per octave

impl Histogram {
    fn index(ns: u64) -> usize {
        if ns < (1 << (SUB + 1)) {
            return ns as usize;
        }
        let e = 63 - ns.leading_zeros();
        let mantissa = (ns >> (e - SUB)) & ((1 << SUB) - 1);
        ((1 << (SUB + 1)) + ((e - SUB - 1) << SUB) as u64 + mantissa) as usize
    }

    /// Midpoint of bucket `i` in nanoseconds.
    fn value(i: usize) -> f64 {
        if i < (1 << (SUB + 1)) {
            return i as f64;
        }
        let k = i - (1 << (SUB + 1));
        let e = (k >> SUB) as u32 + SUB + 1;
        let mantissa = (k & ((1 << SUB) - 1)) as u64;
        let lo = (1u64 << e) + (mantissa << (e - SUB));
        lo as f64 + (1u64 << (e - SUB)) as f64 / 2.0
    }

    pub fn record(&mut self, ns: u64) {
        let i = Self::index(ns);
        if i >= self.buckets.len() {
            self.buckets.resize(i + 1, 0);
        }
        self.buckets[i] += 1;
        self.count += 1;
        self.sum_ns += u128::from(ns);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum_s(&self) -> f64 {
        self.sum_ns as f64 * 1e-9
    }

    /// Nearest-rank percentile in nanoseconds (bucket midpoint); 0 when
    /// empty.
    pub fn percentile_ns(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::value(i);
            }
        }
        Self::value(self.buckets.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&[10.0, 20.0, 30.0, 40.0, 50.0], 0.0), 10.0);
        assert_eq!(percentile(&[10.0, 20.0, 30.0, 40.0, 50.0], 0.99), 49.6);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quantiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, ..., 10], n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantiles(&data, 4), vec![2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quantiles(&[2.0, 1.0], 4), vec![0.75, 1.5, 2.25]);
        assert!((spread(&data) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_percentiles_land_within_a_bucket() {
        let mut h = Histogram::default();
        for ns in 1..=10_000u64 {
            h.record(ns * 100);
        }
        assert_eq!(h.count(), 10_000);
        assert!((h.sum_s() - 5.0005).abs() < 1e-9);
        let p50 = h.percentile_ns(0.5);
        let p99 = h.percentile_ns(0.99);
        assert!((p50 / 500_000.0 - 1.0).abs() < 0.04, "p50 {p50}");
        assert!((p99 / 990_000.0 - 1.0).abs() < 0.04, "p99 {p99}");
        for ns in [0u64, 1, 63, 64, 65, 1 << 20, u64::MAX >> 1] {
            let v = Histogram::value(Histogram::index(ns));
            assert!(ns < 64 && v == ns as f64 || (v / ns as f64 - 1.0).abs() < 0.04, "{ns}");
        }
    }

    #[test]
    fn mape_skips_empty_reference_bins() {
        assert_eq!(mape_pct(&[10.0, 0.0, 20.0], &[11.0, 5.0, 15.0]), 17.5);
        assert_eq!(mape_pct(&[4.0, 4.0], &[4.0]), 50.0);
        assert!(mape_pct(&[0.0], &[1.0]).is_nan());
    }

    #[test]
    fn digest_is_stable() {
        // Reference FNV-1a 64 vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(digest_value(b"foobar"), (0x8594_4171_f739_67e8u64 >> 12) as f64);
    }
}
