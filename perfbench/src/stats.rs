//! Aggregation: percentiles over samples that may include failures, the
//! rule that picks the tail percentile, and ratios that keep their base.

/// Percentiles a tail may be reported at, lowest first.
pub const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples a tail percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples, computed
/// in whole tenths of a percent so that ranks land exactly.
pub fn rank(p: f64, n: usize) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n.max(1))
}

/// The highest percentile of [`LADDER`] that leaves at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the median
/// does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n >= rank(p, n) + MIN_BEYOND)
}

/// Latency samples of one operation type. A failed or refused operation
/// is kept as a sample that sorts beyond every latency.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    ok: Vec<f64>,
    failed: usize,
}

/// Stands in for the latency of a failed operation in a JSON report:
/// larger than any latency, and still a finite number.
pub const FAILED_LATENCY: f64 = f64::MAX;

impl Samples {
    pub fn push(&mut self, latency: Option<f64>) {
        match latency {
            Some(v) => self.ok.push(v),
            None => self.failed += 1,
        }
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ok.extend_from_slice(&other.ok);
        self.failed += other.failed;
    }

    /// All samples, failures included.
    pub fn count(&self) -> usize {
        self.ok.len() + self.failed
    }

    pub fn failed(&self) -> usize {
        self.failed
    }

    /// Nearest-rank percentile over every sample; failures rank last, so
    /// a percentile that lands on one reads [`FAILED_LATENCY`]. `None`
    /// without samples.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let r = rank(p, n);
        if r > self.ok.len() {
            return Some(FAILED_LATENCY);
        }
        let mut ok = self.ok.clone();
        ok.sort_by(f64::total_cmp);
        Some(ok[r - 1])
    }
}

/// Median of a non-empty list (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A ratio that keeps its numerator and denominator, so every report of
/// it can state its base.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ratio {
    pub num: f64,
    pub den: f64,
}

impl Ratio {
    pub fn new(num: f64, den: f64) -> Ratio {
        Ratio { num, den }
    }

    /// `num / den`, or 0 over an empty base.
    pub fn value(&self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }

    /// `value (num / den)`.
    pub fn describe(&self) -> String {
        format!(
            "{:.4} ({} / {})",
            self.value(),
            trim(self.num),
            trim(self.den)
        )
    }
}

fn trim(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 20..5000 {
            let p = tail_percentile(n).expect("n >= 20 supports the median");
            assert!(n - rank(p, n) >= MIN_BEYOND, "n={n} p={p}");
            if let Some(&higher) = LADDER.iter().find(|&&q| q > p) {
                assert!(
                    n - rank(higher, n) < MIN_BEYOND,
                    "n={n}: {higher} also fits"
                );
            }
        }
    }

    #[test]
    fn failures_sort_beyond_every_latency() {
        let mut s = Samples::default();
        for v in 1..=8 {
            s.push(Some(v as f64 * 1000.0));
        }
        s.push(None);
        s.push(None);
        assert_eq!(s.count(), 10);
        assert_eq!(s.failed(), 2);
        assert_eq!(s.percentile(50.0), Some(5000.0));
        assert_eq!(s.percentile(80.0), Some(8000.0));
        assert_eq!(s.percentile(90.0), Some(FAILED_LATENCY));
        assert_eq!(s.percentile(100.0), Some(FAILED_LATENCY));
        // A failure outranks even a huge latency.
        s.push(Some(1e300));
        assert_eq!(s.percentile(100.0), Some(FAILED_LATENCY));
        assert_eq!(Samples::default().percentile(50.0), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut s = Samples::default();
        for v in [5.0, 1.0, 4.0, 2.0, 3.0] {
            s.push(Some(v));
        }
        assert_eq!(s.percentile(50.0), Some(3.0));
        assert_eq!(s.percentile(20.0), Some(1.0));
        assert_eq!(s.percentile(21.0), Some(2.0));
        assert_eq!(s.percentile(99.9), Some(5.0));
    }

    #[test]
    fn ratios_report_their_base() {
        let r = Ratio::new(4.0, 69.0);
        assert!((r.value() - 4.0 / 69.0).abs() < 1e-12);
        assert_eq!(r.describe(), "0.0580 (4 / 69)");
        assert_eq!(Ratio::new(3.0, 0.0).value(), 0.0);
        assert_eq!(Ratio::new(1.5, 2.0).describe(), "0.7500 (1.500 / 2)");
    }

    #[test]
    fn median_of_odd_and_even_lists() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
