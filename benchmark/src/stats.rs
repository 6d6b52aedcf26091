//! Summaries of repeated measurements.

/// Median, extremes and count of a sample. No percentile is claimed: a run
/// takes fewer than ten samples of anything.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median = match n {
            0 => return None,
            n if n % 2 == 1 => sorted[n / 2],
            n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
        };
        Some(Summary {
            median,
            min: sorted[0],
            max: sorted[n - 1],
            n,
        })
    }

    /// A value that was counted, not sampled.
    pub fn exact(value: f64) -> Summary {
        Summary {
            median: value,
            min: value,
            max: value,
            n: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(Summary::of(&[3.0, 1.0, 2.0]).unwrap().median, 2.0);
        let s = Summary::of(&[4.0, 1.0, 2.0, 3.0]).unwrap();
        assert_eq!((s.median, s.min, s.max, s.n), (2.5, 1.0, 4.0, 4));
        assert!(Summary::of(&[]).is_none());
    }
}
