//! Order statistics for repeated measurements.

/// Median, extremes and sample count of a set of measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Summarise `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let sorted = sorted(values);
        Some(Summary {
            median: median_sorted(&sorted)?,
            min: *sorted.first()?,
            max: *sorted.last()?,
            n: sorted.len(),
        })
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn median_sorted(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Median of `values`; `None` when there are none.
pub fn median(values: &[f64]) -> Option<f64> {
    median_sorted(&sorted(values))
}

/// Samples that must lie strictly above a reported percentile, so that a
/// tail figure never rests on a handful of points.
const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (nearest rank, `0 < p < 100`) of `values`, or
/// `None` when fewer than `MIN_BEYOND` (10) samples lie above it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    let value = sorted[rank - 1];
    let beyond = sorted.iter().filter(|&&v| v > value).count();
    (beyond >= MIN_BEYOND).then_some(value)
}

/// `num / den`, or 0 when the base is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn summary_carries_extremes_and_count() {
        let s = Summary::of(&[5.0, 1.0, 9.0, 3.0, 7.0]).unwrap();
        assert_eq!(
            s,
            Summary {
                median: 5.0,
                min: 1.0,
                max: 9.0,
                n: 5
            }
        );
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // 200 distinct samples: p95 is the 190th, with exactly 10 above.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), Some(190.0));
        assert_eq!(percentile(&v, 50.0), Some(100.0));
        // 199 samples leave only 9 above the p95 rank.
        assert_eq!(percentile(&v[..199], 95.0), None);
        // ties at the top do not count as lying beyond
        let mut flat = vec![1.0; 100];
        flat.extend(vec![2.0; 100]);
        assert_eq!(percentile(&flat, 95.0), None);
        assert_eq!(percentile(&flat, 50.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn ratio_of_empty_base_is_zero() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(3.0, 0.0), 0.0);
    }
}
