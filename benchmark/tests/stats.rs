//! Percentiles, window medians and quartiles on hand-built samples.

use p4lru_benchmark::stats::{median, percentile, quartiles, spread, Sample, Windows};

const SEC: u64 = 1_000_000_000;

fn sample(at_ns: u64, value_ns: u64) -> Sample {
    Sample { at_ns, value_ns }
}

#[test]
fn percentile_is_nearest_rank_and_exact() {
    let v = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100];
    assert_eq!(percentile(&v, 0.5), Some(50));
    assert_eq!(percentile(&v, 0.9), Some(90));
    assert_eq!(percentile(&v, 0.99), Some(100));
    assert_eq!(percentile(&v, 0.0), Some(10));
    assert_eq!(percentile(&v, 1.0), Some(100));
    // Every answer is a recorded sample, never a bucket midpoint.
    assert_eq!(percentile(&[759_250, 759_251], 0.5), Some(759_250));
}

#[test]
fn percentile_of_nothing_and_of_one() {
    assert_eq!(percentile(&[], 0.5), None);
    assert_eq!(percentile(&[7], 0.5), Some(7));
    assert_eq!(percentile(&[7], 0.999), Some(7));
}

#[test]
fn median_handles_even_odd_and_empty() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0]), Some(3.0));
    assert_eq!(median(&[4.0, 1.0, 3.0]), Some(3.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
    assert_eq!(quartiles(&[1.0]), None);
    assert_eq!(spread(&v), Some(1.0));
}

#[test]
fn windows_drop_warmup_and_overrun() {
    let samples = [
        sample(SEC / 2, 999),    // warm-up: dropped
        sample(SEC, 10),         // first instant of window 0
        sample(2 * SEC - 1, 30), // last instant of window 0
        sample(2 * SEC, 50),     // window 1
        sample(3 * SEC, 999),    // past the last window: dropped
    ];
    let w = Windows::new(&samples, SEC, SEC, 2);
    assert_eq!((w.count(0), w.count(1)), (2, 1));
    assert_eq!(w.sample_count(), 3);
    assert_eq!(w.median_count(), Some(1.5));
    // Window medians are 10 (nearest rank of [10, 30]) and 50.
    assert_eq!(w.median_of_percentile(0.5), Some(30.0));
}

#[test]
fn window_median_shrugs_off_one_ruined_window() {
    let mut samples = Vec::new();
    for w in 0..5u64 {
        for i in 0..100u64 {
            let stalled = w == 2;
            samples.push(sample(
                w * SEC + i,
                if stalled { 200_000_000 } else { 180_000 + i },
            ));
        }
    }
    let w = Windows::new(&samples, 0, SEC, 5);
    let p99 = w.median_of_percentile(0.99).unwrap();
    assert!(
        p99 < 181_000.0,
        "one stalled window moved the median: {p99}"
    );
}

#[test]
fn empty_and_short_windows() {
    let none = Windows::new(&[], 0, SEC, 3);
    assert_eq!(none.sample_count(), 0);
    assert_eq!(none.median_count(), Some(0.0));
    assert_eq!(none.median_of_percentile(0.5), None);

    // One window holds a single sample, the others nothing: the empty ones
    // are skipped, not read as zero latency.
    let one = Windows::new(&[sample(SEC + 5, 42)], 0, SEC, 3);
    assert_eq!((one.count(0), one.count(1), one.count(2)), (0, 1, 0));
    assert_eq!(one.median_of_percentile(0.5), Some(42.0));
    assert_eq!(one.median_of_percentile(0.999), Some(42.0));

    let zero = Windows::new(&[sample(0, 1)], 0, SEC, 0);
    assert_eq!(zero.sample_count(), 0);
    assert_eq!(zero.median_count(), None);
}
