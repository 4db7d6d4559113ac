//! An exact latency histogram, the one percentile implementation of the
//! serving stack and its campaign binaries.

use std::collections::BTreeMap;

/// Samples below this are counted per value; larger ones are kept.
const DENSE: u64 = 4096;

/// Bits of a kept sample stored per sample; the rest key its bucket.
const LOW_BITS: u32 = 16;

/// A latency distribution in cycles or nanoseconds, shared by the
/// campaign binaries (`recovery_campaign` per-tile cycle costs,
/// `pool_campaign` commit latencies, re-exported as
/// `dwt_bench::campaign::LatencyHistogram`), `dwt_serve::ServeReport`
/// and the layer ledger: collect samples, read exact nearest-rank
/// percentiles.
///
/// Samples below a small cutoff (cycle counts, retry counts) are
/// counted per distinct value, so recording them takes no memory after
/// the first sample of each value; larger samples (nanosecond
/// latencies) are kept exactly in two bytes each: their low 16 bits, in
/// a bucket per value of the bits above. A percentile neither clones
/// nor sorts: it walks the counts, then the buckets in order, then
/// selects within one bucket by radix (two byte-wide passes of 256
/// counters).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// `counts[v]` samples equal `v`, for `v < DENSE`.
    counts: Vec<u64>,
    /// Samples held in `counts`.
    counted: usize,
    /// Every sample `v` of at least `DENSE`: `large[&(v >> 16)]` holds
    /// `v`'s low 16 bits, in record order.
    large: BTreeMap<u64, Vec<u16>>,
    /// Samples held in `large`.
    kept: usize,
    /// Sum of all samples.
    sum: u128,
    /// Largest sample (0 when empty).
    max: u64,
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, cycles: u64) {
        if cycles < DENSE {
            let v = cycles as usize;
            if v >= self.counts.len() {
                self.counts.resize(v + 1, 0);
            }
            self.counts[v] += 1;
            self.counted += 1;
        } else {
            self.large.entry(cycles >> LOW_BITS).or_default().push(cycles as u16);
            self.kept += 1;
        }
        self.sum += u128::from(cycles);
        self.max = self.max.max(cycles);
    }

    /// Records every sample of an iterator.
    pub fn extend<I: IntoIterator<Item = u64>>(&mut self, samples: I) {
        for s in samples {
            self.record(s);
        }
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.counted + self.kept
    }

    /// Whether the histogram is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The nearest-rank percentile (`p` in `(0, 100]`): the smallest
    /// recorded sample with at least `p%` of the distribution at or
    /// below it. `None` on an empty histogram.
    #[must_use]
    pub fn percentile(&self, p: f64) -> Option<u64> {
        let n = self.len();
        if n == 0 {
            return None;
        }
        let mut rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
        if rank > self.counted {
            rank -= self.counted;
            for (&high, lows) in &self.large {
                if rank <= lows.len() {
                    return Some(high << LOW_BITS | u64::from(select(lows, rank)));
                }
                rank -= lows.len();
            }
            unreachable!("rank {rank} is within the {} kept samples", self.kept)
        }
        for (v, &c) in self.counts.iter().enumerate() {
            if rank <= c as usize {
                return Some(v as u64);
            }
            rank -= c as usize;
        }
        unreachable!("rank {rank} is within the {} counted samples", self.counted)
    }

    /// Median latency (nearest rank).
    #[must_use]
    pub fn p50(&self) -> Option<u64> {
        self.percentile(50.0)
    }

    /// Tail latency (nearest rank).
    #[must_use]
    pub fn p99(&self) -> Option<u64> {
        self.percentile(99.0)
    }

    /// Mean latency.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        Some(self.sum as f64 / self.len() as f64)
    }

    /// Largest recorded sample.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (!self.is_empty()).then_some(self.max)
    }
}

/// The `rank`-th smallest (1-based, `1..=samples.len()`) of `samples`,
/// found one byte at a time from the top: each pass counts the next
/// byte of the samples that share the bytes chosen so far, and picks
/// the byte whose bucket holds the rank.
fn select(samples: &[u16], mut rank: usize) -> u16 {
    let mut prefix = 0u16;
    for shift in [8, 0] {
        let high = u16::MAX.checked_shl(shift + 8).unwrap_or(0);
        let mut buckets = [0usize; 256];
        for &s in samples.iter().filter(|&&s| s & high == prefix) {
            buckets[(s >> shift) as usize & 0xff] += 1;
        }
        for (byte, &c) in buckets.iter().enumerate() {
            if rank <= c {
                prefix |= (byte as u16) << shift;
                break;
            }
            rank -= c;
        }
    }
    prefix
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_percentiles_use_nearest_rank() {
        let mut h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.p50(), None);
        assert_eq!(h.mean(), None);
        h.extend([40, 10, 30, 20, 50]);
        assert_eq!(h.len(), 5);
        assert_eq!(h.percentile(20.0), Some(10));
        assert_eq!(h.p50(), Some(30));
        assert_eq!(h.p99(), Some(50));
        assert_eq!(h.max(), Some(50));
        assert!((h.mean().unwrap() - 30.0).abs() < 1e-12);
        // A single sample is every percentile.
        let mut one = LatencyHistogram::new();
        one.record(7);
        assert_eq!(one.percentile(1.0), Some(7));
        assert_eq!(one.p99(), Some(7));
    }
}
