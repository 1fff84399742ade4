//! Order statistics over small sample sets.

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every metric has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The value three quarters of the way up the sorted samples, linearly
/// interpolated between neighbours.
pub fn upper_quartile(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "quartile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = 0.75 * (v.len() - 1) as f64;
    let below = v[at.floor() as usize];
    let above = v[at.ceil() as usize];
    below + (above - below) * at.fract()
}

/// `(max - min) / median`: the whole range of the samples as a share of
/// their median. 0 for a single sample or a zero median.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (max - min) / m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn upper_quartile_interpolates() {
        assert_eq!(upper_quartile(&[7.0]), 7.0);
        assert_eq!(upper_quartile(&[4.0, 1.0, 3.0, 2.0, 5.0]), 4.0);
        assert_eq!(upper_quartile(&[1.0, 2.0]), 1.75);
        // Two-valued samples: the larger value as soon as it is no rarer
        // than one in four.
        assert_eq!(
            upper_quartile(&[10.0, 10.0, 30.0, 10.0, 30.0, 10.0, 10.0, 10.0]),
            15.0
        );
        assert_eq!(
            upper_quartile(&[10.0, 30.0, 30.0, 10.0, 30.0, 10.0, 10.0, 10.0]),
            30.0
        );
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread(&[2.0]), 0.0);
        assert_eq!(spread(&[1.0, 2.0, 3.0]), 1.0);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }
}
