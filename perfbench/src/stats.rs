//! Metric arithmetic: nearest-rank percentiles, the tail rule, the
//! outside-execution derivation and the fold of the program's spans into
//! per-op figures. Pure functions, covered by this module's tests.

use std::collections::BTreeMap;

/// The tail percentile must leave at least this many samples beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank `p`-th percentile of an ascending slice (`p` in 0..=100).
/// Returns `None` on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Median by the nearest-rank rule.
pub fn median(sorted: &[f64]) -> Option<f64> {
    percentile(sorted, 50.0)
}

/// The tail figure of a sample: the highest nearest-rank percentile that
/// still has [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. 97.5.
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Sample count.
    pub n: usize,
}

/// Rank `n - TAIL_BEYOND` is the highest rank with `TAIL_BEYOND` samples
/// above it; its percentile is `100 (n - TAIL_BEYOND) / n`. `None` when
/// the sample is too small to have such a rank.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = n - TAIL_BEYOND;
    let pct = 100.0 * rank as f64 / n as f64;
    Some(Tail {
        pct,
        value: sorted[rank - 1],
        n,
    })
}

/// Sort a sample ascending (latencies are finite by construction).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Client-observed time not spent executing the job on the server: the
/// connection loop, framing, codec and TCP. A server `wall_ns` larger than
/// the client's own latency is impossible on one monotonic clock, so it
/// is returned as an error naming both readings.
pub fn outside_exec_ns(latency_ns: u64, wall_ns: u64) -> Result<u64, String> {
    latency_ns.checked_sub(wall_ns).ok_or_else(|| {
        format!("server wall_ns {wall_ns} exceeds the client latency {latency_ns} ns")
    })
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans folded in.
    pub calls: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of self time (duration minus direct children), ns.
    pub self_ns: u64,
}

/// The program's spans folded by name. Individual spans and the
/// recorder's pre-aggregated rows fold into the same totals, so memory
/// stays bounded by the number of distinct names.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanFold {
    by_name: BTreeMap<&'static str, SpanTotals>,
}

impl SpanFold {
    /// Fold `calls` spans named `name` lasting `total_ns` in all, of which
    /// `child_ns` is covered by their direct children.
    pub fn add(&mut self, name: &'static str, calls: u64, total_ns: u64, child_ns: u64) {
        let t = self.by_name.entry(name).or_default();
        t.calls += calls;
        t.total_ns += total_ns;
        t.self_ns += total_ns.saturating_sub(child_ns);
    }

    /// Add every row of `other`.
    pub fn merge(&mut self, other: &SpanFold) {
        for (&name, t) in &other.by_name {
            let mine = self.by_name.entry(name).or_default();
            mine.calls += t.calls;
            mine.total_ns += t.total_ns;
            mine.self_ns += t.self_ns;
        }
    }

    /// Totals for `name` (zero when no span of that name was seen).
    pub fn get(&self, name: &str) -> SpanTotals {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Calls of `name` per op.
    pub fn calls_per_op(&self, name: &str, ops: u64) -> f64 {
        per_op(self.get(name).calls as f64, ops)
    }

    /// Total ms of `name` per op.
    pub fn total_ms_per_op(&self, name: &str, ops: u64) -> f64 {
        per_op(self.get(name).total_ns as f64 / 1e6, ops)
    }

    /// Self ms of `name` per op.
    pub fn self_ms_per_op(&self, name: &str, ops: u64) -> f64 {
        per_op(self.get(name).self_ns as f64 / 1e6, ops)
    }

    /// Share of the pool's capacity spent in tasks while runs were open:
    /// Σ `exec/task` time ÷ (workers × Σ `exec/run` time).
    pub fn busy_frac(&self, workers: usize) -> f64 {
        let run = self.get("exec/run").total_ns as f64 * workers as f64;
        if run == 0.0 {
            return 0.0;
        }
        self.get("exec/task").total_ns as f64 / run
    }
}

fn per_op(x: f64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        x / ops as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(10);
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 91.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(median(&ramp(5)), Some(3.0));
        assert_eq!(median(&ramp(4)), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        assert_eq!(tail(&ramp(10)), None);
        let t = tail(&ramp(11)).unwrap();
        assert_eq!(t.value, 1.0);
        let t = tail(&ramp(200)).unwrap();
        assert_eq!(t.pct, 95.0);
        assert_eq!(t.value, 190.0);
        assert_eq!(t.n, 200);
        let v = ramp(1000);
        let t = tail(&v).unwrap();
        assert_eq!(t.pct, 99.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        // Any higher nearest-rank percentile leaves fewer than ten beyond.
        let above = percentile(&v, t.pct + 0.01).unwrap();
        assert!(v.iter().filter(|&&x| x > above).count() < TAIL_BEYOND);
    }

    #[test]
    fn tail_percentile_is_not_rounded() {
        let t = tail(&ramp(333)).unwrap();
        assert!((t.pct - 100.0 * 323.0 / 333.0).abs() < 1e-12);
        assert_eq!(t.value, 323.0);
    }

    #[test]
    fn outside_exec_flags_server_time_beyond_client_latency() {
        assert_eq!(outside_exec_ns(44_000_000, 20_000), Ok(43_980_000));
        assert_eq!(outside_exec_ns(5, 5), Ok(0));
        let err = outside_exec_ns(1_000, 1_001).unwrap_err();
        assert!(err.contains("1001") && err.contains("1000"), "{err}");
    }

    #[test]
    fn spans_fold_into_per_op_figures() {
        let mut f = SpanFold::default();
        // Two individual runs with a 1 ms child each, then an aggregated
        // row of 250 counts.
        f.add("exec/run", 1, 3_000_000, 1_000_000);
        f.add("exec/run", 1, 5_000_000, 1_000_000);
        f.add("noisy_count", 250, 50_000_000, 10_000_000);
        f.add("exec/task", 4, 12_000_000, 0);
        assert_eq!(
            f.get("exec/run"),
            SpanTotals {
                calls: 2,
                total_ns: 8_000_000,
                self_ns: 6_000_000,
            }
        );
        assert_eq!(f.calls_per_op("exec/run", 2), 1.0);
        assert_eq!(f.self_ms_per_op("exec/run", 2), 3.0);
        assert_eq!(f.calls_per_op("noisy_count", 2), 125.0);
        assert_eq!(f.self_ms_per_op("noisy_count", 2), 20.0);
        assert_eq!(f.total_ms_per_op("noisy_count", 2), 25.0);
        assert_eq!(f.busy_frac(2), 12.0 / 16.0);
        assert_eq!(f.get("plan/materialize"), SpanTotals::default());
        assert_eq!(f.calls_per_op("exec/run", 0), 0.0);
        assert_eq!(SpanFold::default().busy_frac(2), 0.0);
    }
}
