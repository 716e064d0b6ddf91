//! Order statistics, a log-bucketed latency histogram, and the
//! process's peak resident set size.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Sub-buckets per power of two: values are kept to within ~3 %.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;

/// A log-linear histogram of nanosecond durations: exact below 32 ns,
/// then 32 buckets per power of two. Cheap to record into on the hot
/// path and to merge across cells and threads.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    fn index(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros();
        let shift = exp - SUB_BITS;
        ((shift as u64 + 1) * SUB + ((ns >> shift) - SUB)) as usize
    }

    /// The midpoint of bucket `index`, in nanoseconds.
    fn value(index: usize) -> f64 {
        let index = index as u64;
        if index < SUB {
            return index as f64;
        }
        let shift = index / SUB - 1;
        let low = (SUB + index % SUB) << shift;
        low as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
    }

    /// Records one duration.
    pub fn record(&mut self, ns: u64) {
        let i = Self::index(ns);
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.total += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// The `q`-quantile in nanoseconds (bucket midpoint); 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(i);
            }
        }
        Self::value(self.counts.len() - 1)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn histogram_is_within_three_percent() {
        let mut h = Histogram::default();
        for ns in 1..=100_000u64 {
            h.record(ns);
        }
        for q in [0.5, 0.9, 0.99] {
            let exact = q * 100_000.0;
            let got = h.quantile_ns(q);
            assert!(
                (got - exact).abs() / exact < 0.03,
                "q={q}: {got} vs {exact}"
            );
        }
        let mut merged = Histogram::default();
        merged.merge(&h);
        assert_eq!(merged.quantile_ns(0.5), h.quantile_ns(0.5));
    }
}
