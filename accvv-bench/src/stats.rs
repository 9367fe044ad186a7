//! Statistics for the benchmark's reported numbers.
//!
//! Percentiles are nearest-rank and refuse to report a tail that too few
//! samples support: a percentile needs at least [`MIN_BEYOND`] samples
//! strictly above its rank, so a p90 needs 100 samples.

/// Samples a reported percentile must have beyond its rank.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 100]`) of `samples`: the smallest
/// sample such that at least `p`% of the samples are at or below it.
/// Refuses when fewer than [`MIN_BEYOND`] samples lie beyond that rank.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
    let n = samples.len();
    // Multiply before dividing so whole ranks stay exact in floating point.
    let rank = ((p * n as f64 / 100.0).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} sample(s) has {beyond} beyond it; at least {MIN_BEYOND} are required"
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// The median of a small set of repeated measurements (set-up times),
/// which carry no tail claim: the middle value, or the mean of the two
/// middle values.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Open-loop latency in milliseconds: from when the request was *due* (not
/// when the generator got round to sending it) to when it completed, so a
/// stall that delays later sends is charged to those requests too. Times
/// are seconds since the run's start.
pub fn latency_from_due_ms(due_s: f64, done_s: f64) -> f64 {
    (done_s - due_s) * 1e3
}

/// How late the generator sent a request, in milliseconds (0 when on time
/// or early).
pub fn lateness_ms(due_s: f64, sent_s: f64) -> f64 {
    ((sent_s - due_s) * 1e3).max(0.0)
}

/// Relative spread of two medians: `|b − a| / a`.
pub fn spread(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        if b == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (b - a).abs() / a.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_on_hand_computed_cases() {
        // 1..=100: p50 has rank 50 (50 beyond), p90 rank 90 (10 beyond).
        let s = one_to(100);
        assert_eq!(percentile(&s, 50.0), Ok(50.0));
        assert_eq!(percentile(&s, 90.0), Ok(90.0));
        // Order does not matter.
        let mut rev = s.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 90.0), Ok(90.0));
        // 1..=25: p50 rank ceil(12.5) = 13 (12 beyond).
        assert_eq!(percentile(&one_to(25), 50.0), Ok(13.0));
        // 1..=120: p90 rank 108, 12 beyond.
        assert_eq!(percentile(&one_to(120), 90.0), Ok(108.0));
    }

    #[test]
    fn percentiles_without_ten_samples_beyond_are_refused() {
        // 99 samples: p90 has rank ceil(89.1) = 90, only 9 beyond.
        assert!(percentile(&one_to(99), 90.0).is_err());
        // 19 samples: p50 rank 10, 9 beyond.
        assert!(percentile(&one_to(19), 50.0).is_err());
        assert_eq!(percentile(&one_to(20), 50.0), Ok(10.0));
        assert!(percentile(&[], 50.0).is_err());
        // p100 never has anything beyond it.
        assert!(percentile(&one_to(1000), 100.0).is_err());
    }

    #[test]
    fn medians_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // Due at 1.000 s, sent late at 1.030 s, done at 1.050 s: the user
        // waited 50 ms, not the 20 ms the send-to-done interval shows.
        assert!((latency_from_due_ms(1.0, 1.05) - 50.0).abs() < 1e-9);
        assert!((lateness_ms(1.0, 1.03) - 30.0).abs() < 1e-9);
        // An early send is not negative lateness.
        assert_eq!(lateness_ms(2.0, 1.999), 0.0);
    }

    #[test]
    fn spread_is_relative_to_the_first_median() {
        assert!((spread(100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!((spread(100.0, 90.0) - 0.1).abs() < 1e-12);
        assert_eq!(spread(0.0, 0.0), 0.0);
        assert!(spread(0.0, 1.0).is_infinite());
    }
}
