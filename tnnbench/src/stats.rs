//! Order statistics over measured samples.

/// Sorts `values` in place and returns the nearest-rank `q`-quantile
/// (`0 ≤ q ≤ 1`); 0 for an empty slice.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let idx = ((values.len() - 1) as f64 * q).round() as usize;
    values[idx.min(values.len() - 1)]
}

/// The median (sorts `values` in place).
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// The tail percentiles the benchmark may report, highest first.
const TAILS: [f64; 4] = [0.99, 0.95, 0.9, 0.75];

/// The highest tail percentile with at least ten samples beyond it, and
/// its value: a p99 needs 1,000 samples to rest on more than one slow
/// outlier. Returns the percentile as a fraction (`0.99`) beside the
/// value; the median when even a p75 lacks ten samples beyond it.
pub fn tail(values: &mut [f64]) -> (f64, f64) {
    let n = values.len() as f64;
    for q in TAILS {
        if n * (1.0 - q) >= 10.0 {
            return (q, quantile(values, q));
        }
    }
    (0.5, median(values))
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A fixed-size uniform sample of a stream (reservoir sampling): memory
/// stays flat however many values a run produces, so `peak_rss_mb` does
/// not grow with throughput. Percentiles read from it are unbiased.
#[derive(Debug, Clone)]
pub struct Reservoir {
    values: Vec<f64>,
    seen: u64,
    rng: crate::fixture::Rng,
}

/// Values a [`Reservoir`] keeps: a p99 rests on 2,000 samples beyond it.
pub const RESERVOIR: usize = 200_000;

impl Reservoir {
    /// An empty reservoir drawing its replacements from stream `stream`.
    pub fn new(stream: u64) -> Self {
        Reservoir {
            values: Vec::with_capacity(RESERVOIR),
            seen: 0,
            rng: crate::fixture::Rng::new(0x5E5E, stream),
        }
    }

    /// Offers one value.
    pub fn push(&mut self, value: f64) {
        self.seen += 1;
        if self.values.len() < RESERVOIR {
            self.values.push(value);
        } else {
            let j = self.rng.below(self.seen) as usize;
            if j < RESERVOIR {
                self.values[j] = value;
            }
        }
    }

    /// Merges another reservoir's sample in: each side keeps a uniform
    /// subset in proportion to the values it has seen.
    pub fn merge(&mut self, mut other: Reservoir) {
        let total = self.seen + other.seen;
        let keep = |n: u64| (RESERVOIR as u128 * n as u128 / total.max(1) as u128) as usize;
        let (mine, theirs) = (keep(self.seen), keep(other.seen));
        self.subsample(mine);
        other.subsample(theirs);
        self.values.extend(other.values);
        self.seen = total;
    }

    /// Keeps a uniform random subset of at most `m` values (a partial
    /// Fisher-Yates shuffle).
    fn subsample(&mut self, m: usize) {
        let n = self.values.len();
        if m >= n {
            return;
        }
        for i in 0..m {
            let j = i + self.rng.below((n - i) as u64) as usize;
            self.values.swap(i, j);
        }
        self.values.truncate(m);
    }

    /// The sample, for percentiles.
    pub fn values(&mut self) -> &mut [f64] {
        &mut self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let mut v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&mut v).0, 0.99);
        let mut v: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(tail(&mut v).0, 0.95);
        let mut v: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(tail(&mut v).0, 0.5);
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let mut v = vec![5.0, 1.0, 3.0];
        assert_eq!(median(&mut v), 3.0);
        assert_eq!(quantile(&mut v, 1.0), 5.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }
}
