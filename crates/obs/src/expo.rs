//! Prometheus text-format (version 0.0.4) exposition.
//!
//! [`Expo`] is a small builder that renders `# HELP` / `# TYPE` metadata,
//! escaped label values, and histogram series with cumulative `le` buckets.
//! It writes the wire text directly: the server already owns its counters
//! and snapshots, and which families exist is decided at compile time by
//! the [`metric_set!`](crate::metric_set) tables (plus the few hand-written
//! families beside them), so the builder only has to get the format details
//! right:
//!
//! - label *values* escape `\` → `\\`, `"` → `\"`, and newline → `\n`
//!   (metric and label names are restricted to `[a-zA-Z_:][a-zA-Z0-9_:]*`
//!   and are asserted, not escaped);
//! - `# HELP` text escapes `\` and newlines;
//! - histogram `le` buckets are cumulative, end with `le="+Inf"` equal to
//!   `_count`, and are emitted in seconds (the log₂ nanosecond buckets
//!   convert as `2^i / 1e9`).

use crate::hist::{HistSnapshot, BUCKETS};

/// A Prometheus text-format document builder.
#[derive(Debug, Default)]
pub struct Expo {
    out: String,
}

/// A `name="value"` label pair (value escaped at render time).
pub type Label<'a> = (&'a str, &'a str);

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().enumerate().all(|(i, c)| {
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
        })
}

fn escape_label_value(v: &str, out: &mut String) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

fn escape_help(v: &str, out: &mut String) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Renders an `f64` the way Prometheus expects (`+Inf`/`-Inf`/`NaN`
/// spelled out, integers without a trailing `.0` is not required — plain
/// `{}` formatting is valid exposition).
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

impl Expo {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Emits `# HELP` and `# TYPE` metadata for `name`. Call once per
    /// metric family, before its samples.
    pub fn meta(&mut self, name: &str, kind: &str, help: &str) -> &mut Self {
        debug_assert!(valid_name(name), "invalid metric name {name:?}");
        self.out.push_str("# HELP ");
        self.out.push_str(name);
        self.out.push(' ');
        escape_help(help, &mut self.out);
        self.out.push('\n');
        self.out.push_str("# TYPE ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(kind);
        self.out.push('\n');
        self
    }

    fn labels(&mut self, labels: &[Label<'_>]) {
        if labels.is_empty() {
            return;
        }
        self.out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            debug_assert!(valid_name(k), "invalid label name {k:?}");
            if i > 0 {
                self.out.push(',');
            }
            self.out.push_str(k);
            self.out.push_str("=\"");
            escape_label_value(v, &mut self.out);
            self.out.push('"');
        }
        self.out.push('}');
    }

    /// Emits one sample line: `name{labels} value`.
    pub fn sample(&mut self, name: &str, labels: &[Label<'_>], value: f64) -> &mut Self {
        debug_assert!(valid_name(name), "invalid metric name {name:?}");
        self.out.push_str(name);
        self.labels(labels);
        self.out.push(' ');
        self.out.push_str(&fmt_value(value));
        self.out.push('\n');
        self
    }

    /// Emits a family of one unlabelled sample: metadata plus its value.
    pub fn scalar(&mut self, name: &str, kind: &str, help: &str, value: f64) -> &mut Self {
        self.meta(name, kind, help).sample(name, &[], value)
    }

    /// Emits a full histogram family from a log₂ nanosecond snapshot:
    /// cumulative `le` buckets in seconds (`le = 2^i / 1e9` for each
    /// non-empty boundary), `le="+Inf"`, `_sum` (seconds), and `_count`.
    /// Empty leading/trailing buckets are elided — only boundaries that
    /// change the cumulative count are emitted, plus `+Inf` — keeping the
    /// document small without breaking cumulativity.
    pub fn histogram(
        &mut self,
        name: &str,
        labels: &[Label<'_>],
        snap: &HistSnapshot,
    ) -> &mut Self {
        let bucket_name = format!("{name}_bucket");
        let mut cumulative = 0u64;
        for (i, &n) in snap.buckets.iter().take(BUCKETS).enumerate() {
            if n == 0 {
                continue;
            }
            cumulative += n;
            // Upper bound of bucket i is 2^(i+1) ns: it holds samples with
            // floor(log2(ns)) == i, i.e. ns < 2^(i+1).
            let le = ((1u128 << (i + 1)) as f64) / 1e9;
            let le_str = fmt_value(le);
            let mut all: Vec<Label<'_>> = labels.to_vec();
            all.push(("le", &le_str));
            self.sample(&bucket_name, &all, cumulative as f64);
        }
        let mut all: Vec<Label<'_>> = labels.to_vec();
        all.push(("le", "+Inf"));
        // +Inf must equal _count even if a racing recorder bumped `count`
        // between bucket loads; use the bucket total for both so the family
        // is internally consistent.
        let total: u64 = snap.buckets.iter().sum();
        self.sample(&bucket_name, &all, total as f64);
        self.sample(&format!("{name}_sum"), labels, snap.sum_ns as f64 / 1e9);
        self.sample(&format!("{name}_count"), labels, total as f64);
        self
    }

    /// The rendered document.
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::AtomicHistogram;

    #[test]
    fn renders_meta_and_samples() {
        let mut e = Expo::new();
        e.meta("p4lru_hits_total", "counter", "Cache hits.")
            .sample("p4lru_hits_total", &[("shard", "0")], 42.0)
            .sample("p4lru_hits_total", &[("shard", "1")], 7.0);
        let text = e.finish();
        assert!(text.contains("# HELP p4lru_hits_total Cache hits.\n"));
        assert!(text.contains("# TYPE p4lru_hits_total counter\n"));
        assert!(text.contains("p4lru_hits_total{shard=\"0\"} 42\n"));
        assert!(text.contains("p4lru_hits_total{shard=\"1\"} 7\n"));
    }

    #[test]
    fn escapes_label_values_and_help() {
        let mut e = Expo::new();
        e.meta("m", "gauge", "line1\nline2 \\ back")
            .sample("m", &[("path", "a\"b\\c\nd")], 1.0);
        let text = e.finish();
        assert!(text.contains("# HELP m line1\\nline2 \\\\ back\n"));
        assert!(text.contains("m{path=\"a\\\"b\\\\c\\nd\"} 1\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_inf_matches_count() {
        let h = AtomicHistogram::new();
        for ns in [100u64, 900, 900, 70_000, 3_000_000] {
            h.record_ns(ns);
        }
        let mut e = Expo::new();
        e.meta("p4lru_request_seconds", "histogram", "Request latency.")
            .histogram("p4lru_request_seconds", &[("op", "get")], &h.snapshot());
        let text = e.finish();

        // Parse back every bucket line and check monotonicity.
        let mut values = Vec::new();
        let mut inf = None;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("p4lru_request_seconds_bucket{") {
                let (labels, value) = rest.split_once("} ").unwrap();
                let v: f64 = value.parse().unwrap();
                if labels.contains("le=\"+Inf\"") {
                    inf = Some(v);
                } else {
                    values.push(v);
                }
            }
        }
        assert!(values.windows(2).all(|w| w[0] <= w[1]), "{values:?}");
        assert_eq!(inf, Some(5.0), "+Inf bucket equals the sample count");
        assert!(text.contains("p4lru_request_seconds_count{op=\"get\"} 5\n"));
        let sum_line = text
            .lines()
            .find(|l| l.starts_with("p4lru_request_seconds_sum"))
            .unwrap();
        let sum: f64 = sum_line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!((sum - (100.0 + 900.0 + 900.0 + 70_000.0 + 3_000_000.0) / 1e9).abs() < 1e-12);
    }

    #[test]
    fn histogram_le_bounds_are_powers_of_two_in_seconds() {
        let h = AtomicHistogram::new();
        h.record_ns(1_000); // bucket 9 → le = 2^10 ns = 1.024e-6 s
        let mut e = Expo::new();
        e.histogram("m", &[], &h.snapshot());
        let text = e.finish();
        assert!(text.contains("m_bucket{le=\"0.000001024\"} 1\n"), "{text}");
    }

    #[test]
    fn empty_histogram_still_emits_inf_sum_count() {
        let mut e = Expo::new();
        e.histogram("m", &[], &HistSnapshot::empty());
        let text = e.finish();
        assert!(text.contains("m_bucket{le=\"+Inf\"} 0\n"));
        assert!(text.contains("m_sum 0\n"));
        assert!(text.contains("m_count 0\n"));
    }

    #[test]
    fn special_values_render_spelled_out() {
        assert_eq!(fmt_value(f64::INFINITY), "+Inf");
        assert_eq!(fmt_value(f64::NEG_INFINITY), "-Inf");
        assert_eq!(fmt_value(f64::NAN), "NaN");
        assert_eq!(fmt_value(3.0), "3");
    }

    #[test]
    fn name_validation_rejects_leading_digits_and_bad_chars() {
        assert!(valid_name("p4lru_hits_total"));
        assert!(valid_name("up:rate"));
        assert!(!valid_name("4lru"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(""));
    }
}
