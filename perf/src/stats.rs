//! Order statistics over a run's repetitions.

/// Median / min / max of a set of repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The middle value (mean of the two middle values for even counts).
    pub median: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
}

/// Summarize a non-empty sample.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summary of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    let median = if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    };
    Summary {
        median,
        min: v[0],
        max: v[v.len() - 1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max_of_odd_and_even_samples() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.median, s.min, s.max), (2.0, 1.0, 3.0));
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.median, s.min, s.max), (2.5, 1.0, 4.0));
        let s = summarize(&[7.5]);
        assert_eq!((s.median, s.min, s.max), (7.5, 7.5, 7.5));
    }
}
