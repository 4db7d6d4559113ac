//! Metric records, the summary statistics behind them, and the one-line
//! JSON result the benchmark ends with.

use std::fmt::Write as _;

use dwt_bench::campaign::LatencyHistogram;

/// One named measurement with its unit and the number of samples it
/// summarises.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value (1 for a count or a single timing).
    pub samples: usize,
    /// Why the value is a placeholder, when the layer did not run.
    pub skipped: Option<String>,
}

impl Metric {
    /// A measured value.
    #[must_use]
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric { name, value, unit, samples, skipped: None }
    }

    /// A placeholder 0 for a layer that did not run, with the reason.
    #[must_use]
    pub fn skipped(name: &'static str, unit: &'static str, why: impl Into<String>) -> Self {
        Metric { name, value: 0.0, unit, samples: 0, skipped: Some(why.into()) }
    }
}

/// The result of one benchmark run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Operations attempted (requests, tiles, frames).
    pub attempted: u64,
    /// Operations that failed: a mismatch against the reference, an
    /// `Err`, or a refused submit.
    pub failed: u64,
    /// Every metric of the run, in report order.
    pub metrics: Vec<Metric>,
    /// Free-form lines printed before the result (digests, skips).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every attempted operation succeeded.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Human-readable lines: one per metric with its unit and sample
    /// count, then the notes.
    #[must_use]
    pub fn human(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            match &m.skipped {
                None => {
                    let _ = writeln!(
                        out,
                        "{:<28} {:>16.6} {:<6} (n={})",
                        m.name, m.value, m.unit, m.samples
                    );
                }
                Some(why) => {
                    let _ =
                        writeln!(out, "{:<28} {:>16} {:<6} (skipped: {why})", m.name, "-", m.unit);
                }
            }
        }
        for note in &self.notes {
            let _ = writeln!(out, "{note}");
        }
        let _ = writeln!(out, "attempted {} failed {}", self.attempted, self.failed);
        out
    }

    /// The single-line JSON result.
    #[must_use]
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Median of a sample set (mean of the middle two for an even count);
/// 0 for an empty set.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The share of slices, in percent, the timed metrics are read from: the
/// quietest twentieth of the run. The host's speed wanders by 1.4× and
/// more, for seconds or minutes, as its neighbours come and go; a run's
/// fastest few short slices repeat from run to run where its median
/// does not, and they still move with every change to the program's
/// own cost.
pub const QUIET: f64 = 5.0;

/// One full slice: its pairs, its busy time and its request latencies.
#[derive(Debug, Clone, Default)]
struct Slice {
    pairs: u64,
    busy_ns: u64,
    latency_ns: Vec<u64>,
}

impl Slice {
    fn rate(&self) -> f64 {
        self.pairs as f64 * 1e9 / self.busy_ns.max(1) as f64
    }
}

/// Completions grouped into slices of a fixed number of consecutive
/// requests. The quiet slices are the twentieth with the highest
/// throughput (pairs over busy time); the timed metrics are their
/// combined throughput and the latency percentiles of their requests.
/// The default keeps no slices.
#[derive(Debug, Clone, Default)]
pub struct Slices {
    per: usize,
    open: Slice,
    done: Vec<Slice>,
}

impl Slices {
    /// Slices of `per` requests each.
    #[must_use]
    pub fn new(per: usize) -> Self {
        Slices { per: per.max(1), ..Slices::default() }
    }

    /// Records one completed request: its pairs, its latency and the
    /// time it kept the caller busy (the call itself for a sequential
    /// caller, the time since the previous completion for a server).
    pub fn record(&mut self, pairs: u64, latency_ns: u64, busy_ns: u64) {
        if self.per == 0 {
            return;
        }
        self.open.pairs += pairs;
        self.open.busy_ns += busy_ns;
        self.open.latency_ns.push(latency_ns);
        if self.open.latency_ns.len() == self.per {
            self.done.push(std::mem::take(&mut self.open));
        }
    }

    /// Drops the requests of a slice not yet full (at the end of a
    /// window, so no slice spans two windows).
    pub fn discard_partial(&mut self) {
        self.open = Slice::default();
    }

    /// Full slices so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.done.len()
    }

    /// Whether no slice is full yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.done.is_empty()
    }

    /// The quiet slices: the twentieth (at least one) with the highest
    /// throughput.
    fn quiet(&self) -> Vec<&Slice> {
        let mut by_rate: Vec<&Slice> = self.done.iter().collect();
        by_rate.sort_by(|a, b| b.rate().total_cmp(&a.rate()));
        let n = (by_rate.len() as f64 * QUIET / 100.0).ceil() as usize;
        by_rate.truncate(n.max(1));
        by_rate
    }

    /// Combined throughput of the quiet slices, pairs per second.
    #[must_use]
    pub fn pairs_per_s(&self) -> f64 {
        let quiet = self.quiet();
        let pairs: u64 = quiet.iter().map(|s| s.pairs).sum();
        let busy: u64 = quiet.iter().map(|s| s.busy_ns).sum();
        if busy == 0 {
            0.0
        } else {
            pairs as f64 * 1e9 / busy as f64
        }
    }

    /// The `p`-th percentile of the latencies of the quiet slices'
    /// requests, milliseconds.
    #[must_use]
    pub fn latency_ms(&self, p: f64) -> f64 {
        let mut hist = LatencyHistogram::new();
        for s in self.quiet() {
            hist.extend(s.latency_ns.iter().copied());
        }
        percentile_ms(&hist, p)
    }

    /// Slice throughputs at the 10th, 50th and 90th percentile, for the
    /// run's notes.
    #[must_use]
    pub fn rate_note(&self) -> String {
        let mut rates = LatencyHistogram::new();
        rates.extend(self.done.iter().map(|s| s.rate().round() as u64));
        let q: Vec<String> = [10.0, 50.0, 90.0]
            .iter()
            .map(|&p| format!("p{p}={}", rates.percentile(p).unwrap_or(0)))
            .collect();
        format!("pairs/s over {} slices of {}: {}", self.len(), self.per, q.join(" "))
    }
}

/// Nearest-rank percentile of a histogram of nanoseconds, in
/// milliseconds (0 when empty).
#[must_use]
pub fn percentile_ms(hist: &LatencyHistogram, p: f64) -> f64 {
    hist.percentile(p).map_or(0.0, |ns| ns as f64 / 1e6)
}

/// The process's peak resident set so far, in MiB (Linux `VmHWM`; 0
/// where `/proc` is unavailable).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn slices_read_the_quietest_twentieth() {
        let mut s = Slices::new(2);
        // Forty slices of two requests, 1000 pairs each, taking 1..=40 ms
        // per request.
        for ms in 1..=40u64 {
            for _ in 0..2 {
                s.record(1000, ms * 1_000_000, ms * 1_000_000);
            }
        }
        s.record(1000, 1, 1); // a partial slice, dropped
        s.discard_partial();
        assert_eq!(s.len(), 40);
        // The quiet twentieth is the two fastest slices: 4000 pairs in 6 ms,
        // with requests of 1 and 2 ms.
        assert!((s.pairs_per_s() - 4000.0 / 0.006).abs() < 1e-6);
        assert_eq!(s.latency_ms(50.0), 1.0);
        assert_eq!(s.latency_ms(90.0), 2.0);
        assert!(Slices::default().is_empty());
    }

    #[test]
    fn json_is_one_line_with_every_metric() {
        let outcome = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![Metric::new("a", 1.5, "ms", 3), Metric::skipped("b", "ns", "n/a")],
            notes: vec![],
        };
        let js = outcome.json();
        assert!(!js.contains('\n'));
        assert!(js.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(js.contains("\"a\": {\"value\": 1.5, \"unit\": \"ms\"}"));
        assert!(js.contains("\"b\": {\"value\": 0.0, \"unit\": \"ns\"}"));
    }
}
