//! A fixed-size latency histogram with nanosecond resolution.
//!
//! Log-linear buckets: each power of two is split into 128 linear sub-buckets, so a
//! recorded value is known to within 1/128 (< 0.8%) of itself while the whole
//! histogram stays 42 KiB however many samples it holds. Storing every sample of a
//! cached-request loop would cost hundreds of MiB and show up in `peak_rss_mb`.

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
const OCTAVES: usize = 41; // values up to 2^47 ns (39 hours) keep their own bucket

#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum_ns: u128,
    max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; OCTAVES * SUB],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

fn bucket_of(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let octave = 63 - ns.leading_zeros(); // >= SUB_BITS
    let shift = octave - SUB_BITS;
    let sub = ((ns >> shift) as usize) & (SUB - 1);
    (((octave - SUB_BITS + 1) as usize) * SUB + sub).min(OCTAVES * SUB - 1)
}

/// The lowest value a bucket holds and how many integer values it spans.
fn bucket_range(index: usize) -> (f64, f64) {
    if index < SUB {
        return (index as f64, 1.0);
    }
    let octave = (index / SUB) as u32 + SUB_BITS - 1;
    let sub = (index % SUB) as u64;
    let shift = octave - SUB_BITS;
    let low = ((SUB as u64) | sub) << shift;
    (low as f64, (1u64 << shift) as f64)
}

/// The midpoint of a bucket's value range.
fn bucket_mid(index: usize) -> f64 {
    let (low, width) = bucket_range(index);
    low + (width - 1.0) / 2.0
}

impl Histogram {
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns as u128;
        self.max_ns = self.max_ns.max(ns);
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (nearest rank), in nanoseconds. Within its bucket the rank's
    /// value is interpolated, taking the bucket's samples as evenly spread, so the
    /// estimate moves with the data instead of sticking to a bucket midpoint.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (low, width) = bucket_range(i);
                let k = (rank - (seen - c)) as f64;
                let v = low + (width - 1.0) * (k - 0.5) / c as f64;
                return v.min(self.max_ns as f64);
            }
        }
        self.max_ns as f64
    }

    /// The Harrell–Davis estimate of the `q`-quantile, in nanoseconds: a Beta-weighted
    /// mean of all order statistics. On a few dozen requests of unequal goals the
    /// plain sample median jumps between the two samples nearest the middle; this
    /// estimate moves smoothly. Beyond 2000 samples the weights are so concentrated
    /// that it equals the nearest-rank quantile, which is returned instead.
    pub fn harrell_davis_ns(&self, q: f64) -> f64 {
        let n = self.count;
        if n == 0 || n > 2000 {
            return self.quantile_ns(q);
        }
        let (a, b) = ((n + 1) as f64 * q, (n + 1) as f64 * (1.0 - q));
        let mut below = 0u64;
        let mut estimate = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let lo = regularized_beta(below as f64 / n as f64, a, b);
            below += c;
            let hi = regularized_beta(below as f64 / n as f64, a, b);
            estimate += (hi - lo) * bucket_mid(i).min(self.max_ns as f64);
        }
        estimate
    }

    /// Samples strictly above the `q`-quantile: a percentile is reported only when
    /// at least ten samples lie beyond it.
    pub fn beyond(&self, q: f64) -> u64 {
        self.count - ((q * self.count as f64).ceil() as u64).min(self.count)
    }
}

/// ln Γ(x) for x > 0 (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let t = x + 7.5;
    let sum: f64 = C[0] + (1..9).map(|i| C[i] / (x + i as f64)).sum::<f64>();
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + sum.ln()
}

/// The regularized incomplete beta function I_x(a, b), by its continued fraction.
fn regularized_beta(x: f64, a: f64, b: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(x, a, b) / a
    } else {
        1.0 - front * beta_fraction(1.0 - x, b, a) / b
    }
}

/// Lentz's evaluation of the incomplete beta continued fraction.
fn beta_fraction(x: f64, a: f64, b: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut c = 1.0;
    let mut d = 1.0 - (a + b) * x / (a + 1.0);
    d = 1.0 / if d.abs() < TINY { TINY } else { d };
    let mut h = d;
    for m in 1..=300 {
        let m = m as f64;
        let num = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
        for (k, num) in [
            num,
            -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0)),
        ]
        .into_iter()
        .enumerate()
        {
            d = 1.0 + num * d;
            d = 1.0 / if d.abs() < TINY { TINY } else { d };
            c = 1.0 + num / c;
            if c.abs() < TINY {
                c = TINY;
            }
            let delta = c * d;
            h *= delta;
            if k == 1 && (delta - 1.0).abs() < 1e-14 {
                return h;
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incomplete_beta_matches_closed_forms() {
        // I_x(1, 1) = x; I_x(2, 2) = 3x² − 2x³; I_0.5(a, a) = 0.5.
        for x in [0.1, 0.35, 0.8] {
            assert!((regularized_beta(x, 1.0, 1.0) - x).abs() < 1e-12);
            let want = 3.0 * x * x - 2.0 * x * x * x;
            assert!((regularized_beta(x, 2.0, 2.0) - want).abs() < 1e-12);
        }
        assert!((regularized_beta(0.5, 12.5, 12.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn harrell_davis_median_is_central_and_smooth() {
        let mut h = Histogram::default();
        for v in [1u64, 2, 3, 4, 100] {
            h.record(v);
        }
        // Symmetric weights around the third order statistic, pulled up by 100.
        let hd = h.harrell_davis_ns(0.5);
        assert!(hd > 3.0 && hd < 10.0, "{hd}");
        let mut even = Histogram::default();
        for v in [10u64, 20, 30, 40] {
            even.record(v);
        }
        assert!((even.harrell_davis_ns(0.5) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_are_within_bucket_precision() {
        let mut h = Histogram::default();
        for v in 1..=10_000u64 {
            h.record(v * 1_000);
        }
        let p50 = h.quantile_ns(0.5);
        assert!((p50 - 5_000_000.0).abs() / 5_000_000.0 < 0.01, "{p50}");
        let p90 = h.quantile_ns(0.9);
        assert!((p90 - 9_000_000.0).abs() / 9_000_000.0 < 0.01, "{p90}");
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.beyond(0.9), 1_000);
    }

    #[test]
    fn small_values_are_exact_and_merge_adds() {
        let mut a = Histogram::default();
        a.record(3);
        let mut b = Histogram::default();
        b.record(5);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.quantile_ns(0.5), 3.0);
        assert_eq!(a.quantile_ns(1.0), 5.0);
        assert_eq!(a.mean_ns(), 4.0);
    }
}
