//! What a run reports: named metrics with units and sample counts, the
//! failure count, and the one-line JSON result.

use std::fmt::Write as _;

/// The end-to-end metrics: name, unit, whether higher is better, and the
/// share of the baseline by which each may worsen before it counts as a
/// regression. Mirrors `BENCHMARK.json` (a test holds the two together).
pub const END_TO_END: [(&str, &str, bool, f64); 5] = [
    ("setup_s", "s", false, 0.25),
    ("peak_ops_s", "ops/s", true, 0.25),
    ("p50_us", "us", false, 0.25),
    ("cpu_us_per_op", "us", false, 0.25),
    ("rss_mib", "MiB", false, 0.05),
];

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value, as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples (or windows, or ops) the value was computed from.
    pub samples: u64,
}

/// The outcome of one run of one workload.
#[derive(Clone, Debug)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Seed the tape was generated from.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Every metric of the run's kind, in listing order.
    pub metrics: Vec<Metric>,
    /// Ops sent, all phases.
    pub attempted: u64,
    /// Ops that errored, failed verification, were never answered, or
    /// were acknowledged and then lost in the crash sweep.
    pub failed: u64,
    /// First failure seen, if any.
    pub first_failure: Option<String>,
    /// Stale reads through the tier: counted, reported, not in `failed`
    /// (see [`crate::untraced::tally`]).
    pub stale_reads: u64,
    /// First stale read seen, if any.
    pub first_stale: Option<String>,
    /// Free-form lines printed under the table (budget tables, notes).
    pub notes: Vec<String>,
}

impl Report {
    /// An empty report.
    pub fn new(workload: &'static str, seed: u64, traced: bool) -> Self {
        Self {
            workload,
            seed,
            traced,
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            first_failure: None,
            stale_reads: 0,
            first_stale: None,
            notes: Vec::new(),
        }
    }

    /// Adds a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        self.metrics.push(Metric {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            samples,
        });
    }

    /// Adds an end-to-end metric, with the unit [`END_TO_END`] lists for it.
    pub fn push_end_to_end(&mut self, name: &'static str, value: f64, samples: u64) {
        let (_, unit, ..) = END_TO_END
            .iter()
            .find(|(n, ..)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not an end-to-end metric"));
        self.push(name, value, unit, samples);
    }

    /// The value of a metric by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Whether every output was correct.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Failed ops as a share of attempted ops.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The human-readable table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let kind = if self.traced { "traced" } else { "untraced" };
        let _ = writeln!(out, "== {} (seed {}, {kind}) ==", self.workload, self.seed);
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<34} {:>16.4} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        let _ = writeln!(
            out,
            "  {:<34} {:>16.9} {:<6} failed={} attempted={}",
            "failed_share",
            self.failed_share(),
            "ratio",
            self.failed,
            self.attempted
        );
        if let Some(why) = &self.first_failure {
            let _ = writeln!(out, "  first failure: {why}");
        }
        if self.stale_reads > 0 {
            let _ = writeln!(
                out,
                "  stale reads after an acked SET: {} (known failure of the tier, not in failed; first: {})",
                self.stale_reads,
                self.first_stale.as_deref().unwrap_or("?")
            );
        }
        for note in &self.notes {
            let _ = writeln!(out, "{note}");
        }
        out
    }

    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`. Values print with all their
    /// digits (`Display` for `f64` is the shortest decimal that round-trips,
    /// never exponent form, so it is valid JSON).
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}
