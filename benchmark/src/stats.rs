//! Exact-sample estimators: percentiles, 1-second windows, quartiles.
//!
//! Every latency and throughput number the benchmark prints is computed
//! here from raw nanosecond samples. Nothing is bucketed: a percentile is
//! one of the recorded values.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` (0..=1) of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of unordered values (mean of the two middle ones when the count
/// is even). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// which is what the acceptance rule for this benchmark uses. `None` below
/// two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Distance between the quartiles as a share of the median: the run-to-run
/// spread the acceptance rule compares with a metric's bound.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// One timed sample: when it is attributed (nanoseconds since the phase
/// began) and the measured value (nanoseconds).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample {
    /// Attribution instant: the reply instant in a closed loop, the due
    /// instant in an open loop.
    pub at_ns: u64,
    /// Measured latency.
    pub value_ns: u64,
}

/// Samples of one phase sorted into fixed windows that start after a
/// warm-up. Samples before the warm-up ends or after the last window are
/// dropped.
#[derive(Clone, Debug)]
pub struct Windows {
    /// Ascending latencies per window.
    per_window: Vec<Vec<u64>>,
}

impl Windows {
    /// Sorts `samples` into `count` windows of `window_ns` starting at
    /// `warmup_ns`.
    pub fn new(samples: &[Sample], warmup_ns: u64, window_ns: u64, count: usize) -> Self {
        let mut per_window = vec![Vec::new(); count];
        for s in samples {
            if s.at_ns < warmup_ns {
                continue;
            }
            let w = ((s.at_ns - warmup_ns) / window_ns) as usize;
            if let Some(bin) = per_window.get_mut(w) {
                bin.push(s.value_ns);
            }
        }
        for bin in &mut per_window {
            bin.sort_unstable();
        }
        Self { per_window }
    }

    /// Samples in window `w`.
    pub fn count(&self, w: usize) -> usize {
        self.per_window[w].len()
    }

    /// Samples in all windows.
    pub fn sample_count(&self) -> usize {
        self.per_window.iter().map(Vec::len).sum()
    }

    /// Median over the windows of the per-window sample count.
    pub fn median_count(&self) -> Option<f64> {
        let counts: Vec<f64> = self.per_window.iter().map(|w| w.len() as f64).collect();
        median(&counts)
    }

    /// Median over the non-empty windows of each window's `p` percentile.
    /// A stall that ruins one window moves this by one rank, not by the
    /// stall's length — which is why gated latencies use it.
    pub fn median_of_percentile(&self, p: f64) -> Option<f64> {
        let per_window: Vec<f64> = self
            .per_window
            .iter()
            .filter_map(|w| percentile(w, p).map(|v| v as f64))
            .collect();
        median(&per_window)
    }
}
