//! Sample summaries: medians, interpolated percentiles, and how far up the
//! tail a sample can honestly be read.

/// Linear-interpolated quantile `q ∈ [0, 1]` of an ascending slice (the
/// "type 7" definition: `q = 0` is the minimum, `q = 1` the maximum).
/// `None` for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Median of an unsorted sample (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    Summary::new(samples).map(|s| s.p50)
}

/// One timing sample reduced to what the report prints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile (interpolated; see [`Self::p99_supported`]).
    pub p99: f64,
}

impl Summary {
    /// Summarises a sample; `None` when it is empty.
    pub fn new(samples: &[f64]) -> Option<Self> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Self {
            count: sorted.len(),
            p50: quantile_sorted(&sorted, 0.5)?,
            p99: quantile_sorted(&sorted, 0.99)?,
        })
    }

    /// Samples strictly above the p99 rank.
    pub fn beyond_p99(&self) -> usize {
        self.count - (self.count as f64 * 0.99).ceil() as usize
    }

    /// Sample count and tail support, for the report.
    pub fn describe(&self) -> String {
        if self.p99_supported() {
            format!("n={}, {} beyond p99", self.count, self.beyond_p99())
        } else {
            format!(
                "n={}, only {} beyond p99 (highest supported percentile {:.1})",
                self.count,
                self.beyond_p99(),
                self.highest_supported_percentile()
            )
        }
    }

    /// Whether the p99 rests on at least ten samples beyond it; below that
    /// the "p99" is really a near-maximum and the report says so.
    pub fn p99_supported(&self) -> bool {
        self.beyond_p99() >= 10
    }

    /// The highest percentile with at least ten samples beyond it (0 when
    /// the sample has ten or fewer points).
    pub fn highest_supported_percentile(&self) -> f64 {
        if self.count <= 10 {
            0.0
        } else {
            100.0 * (1.0 - 10.0 / self.count as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&sorted, 0.0), Some(1.0));
        assert_eq!(quantile_sorted(&sorted, 1.0), Some(4.0));
        assert_eq!(quantile_sorted(&sorted, 0.5), Some(2.5));
        assert_eq!(quantile_sorted(&[7.0], 0.99), Some(7.0));
        assert_eq!(quantile_sorted(&[], 0.5), None);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn summary_reports_count_and_tail_support() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::new(&samples).unwrap();
        assert_eq!(s.count, 1000);
        assert!((s.p50 - 500.5).abs() < 1e-9);
        assert!((s.p99 - 990.01).abs() < 1e-9);
        assert_eq!(s.beyond_p99(), 10);
        assert!(s.p99_supported());
        assert!((s.highest_supported_percentile() - 99.0).abs() < 1e-9);

        let small = Summary::new(&samples[..200]).unwrap();
        assert_eq!(small.count, 200);
        assert_eq!(small.beyond_p99(), 2);
        assert!(!small.p99_supported(), "200 samples cannot carry a p99");
        assert!((small.highest_supported_percentile() - 95.0).abs() < 1e-9);
        assert_eq!(
            Summary::new(&[3.0; 10])
                .unwrap()
                .highest_supported_percentile(),
            0.0
        );
        assert_eq!(s.describe(), "n=1000, 10 beyond p99");
        assert_eq!(
            small.describe(),
            "n=200, only 2 beyond p99 (highest supported percentile 95.0)"
        );
    }
}
