//! Order statistics over the benchmark's own per-operation timings.
//!
//! Every percentile the benchmark reports comes from here, computed on the
//! exact samples it measured — never from the engine's bucketed
//! histograms, whose bucket bounds carry up to 50% error.

/// Samples that must lie strictly beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples, exact to a
/// tenth of a percent (so `99.9` of 10 000 is rank 9 990, not 9 991).
fn rank(p: f64, n: usize) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).max(1)
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `sorted`.
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(p, sorted.len()).min(sorted.len()) - 1]
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (nearest rank) of `samples`; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| nearest_rank(&sorted(samples), 50.0))
}

/// Percentiles a tail may be reported at, highest first.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// A tail: the highest percentile of [`TAIL_LADDER`] that has at least
/// [`TAIL_BEYOND`] samples ranked above it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The nearest-rank value at that percentile.
    pub value: f64,
    pub percentile: f64,
    /// Samples the tail was taken over.
    pub samples: usize,
}

/// The tail of `samples`, or `None` when even the median has fewer than
/// [`TAIL_BEYOND`] samples above it.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    let s = sorted(samples);
    TAIL_LADDER.iter().find_map(|&p| {
        let r = rank(p, n);
        (n >= r + TAIL_BEYOND).then(|| Tail {
            value: s[r - 1],
            percentile: p,
            samples: n,
        })
    })
}

/// Percentile `p` (nearest rank) of `samples`; `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    (!samples.is_empty()).then(|| nearest_rank(&sorted(samples), p))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the helpers must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn tail_needs_ten_samples_beyond_the_median() {
        assert_eq!(tail(&[]), None);
        assert_eq!(tail(&ramp(19)), None);
        let t = tail(&ramp(20)).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (50.0, 10.0, 20));
    }

    #[test]
    fn tail_climbs_the_ladder_with_the_sample_count() {
        // (samples, expected percentile): the highest rung that leaves at
        // least ten samples ranked above it.
        for (n, p) in [
            (39, 50.0),
            (40, 75.0),
            (99, 75.0),
            (100, 90.0),
            (199, 90.0),
            (200, 95.0),
            (999, 95.0),
            (1000, 99.0),
            (9999, 99.0),
            (10000, 99.9),
        ] {
            let s = ramp(n);
            let t = tail(&s).unwrap();
            assert_eq!(t.percentile, p, "n = {n}");
            let beyond = s.iter().filter(|&&x| x > t.value).count();
            assert!(beyond >= TAIL_BEYOND, "n = {n}: {beyond} beyond");
            // The value is that percentile's nearest-rank value.
            assert_eq!(percentile(&s, p), Some(t.value), "n = {n}");
        }
    }

    #[test]
    fn tail_of_exactly_ten_beyond() {
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.percentile, t.value), (99.0, 990.0));
        let t = tail(&ramp(100)).unwrap();
        assert_eq!((t.percentile, t.value), (90.0, 90.0));
    }

    #[test]
    fn tail_counts_ranks_not_distinct_values() {
        // Ties at the top: the value at the rank is reported even when the
        // samples ranked above it share it.
        let mut s = vec![1.0; 89];
        s.extend(std::iter::repeat_n(5.0, 11));
        assert_eq!(tail(&s).unwrap().value, 5.0);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&ramp(5)), Some(3.0));
        assert_eq!(percentile(&ramp(100), 99.0), Some(99.0));
        assert_eq!(percentile(&ramp(100), 100.0), Some(100.0));
        assert_eq!(percentile(&ramp(3), 0.1), Some(1.0));
    }
}
