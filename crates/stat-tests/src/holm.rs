//! Holm–Bonferroni control of the family-wise error rate.
//!
//! The bias hunt performs thousands of hypothesis tests simultaneously (one per
//! position, or one per position pair). The paper controls the probability of
//! even a single false positive across all of them with Holm's step-down
//! method and then applies its `1e-4` rejection threshold to the *adjusted*
//! p-values.

/// Outcome of a Holm-adjusted hypothesis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HolmOutcome {
    /// Index of the hypothesis in the original input order.
    pub index: usize,
    /// The raw p-value.
    pub p_value: f64,
    /// The Holm-adjusted p-value.
    pub adjusted_p: f64,
    /// Whether the hypothesis is rejected at the requested alpha.
    pub rejected: bool,
}

/// Applies the Holm–Bonferroni procedure to `p_values` at level `alpha`.
///
/// Returns one [`HolmOutcome`] per input hypothesis, in the *original* order.
/// Adjusted p-values are computed as `adj_(i) = max_{j <= i} min(1, (m - j + 1) p_(j))`
/// over the sorted sequence, the standard step-down adjustment; rejection of
/// hypothesis `i` is equivalent to `adjusted_p < alpha`.
///
/// # Examples
///
/// ```
/// use stat_tests::holm::holm;
///
/// let outcomes = holm(&[0.001, 0.4, 0.03], 0.05);
/// assert!(outcomes[0].rejected);        // 0.001 * 3 = 0.003 < 0.05
/// assert!(!outcomes[1].rejected);
/// assert!(!outcomes[2].rejected);       // 0.03 * 2 = 0.06 >= 0.05
/// ```
pub fn holm(p_values: &[f64], alpha: f64) -> Vec<HolmOutcome> {
    let m = p_values.len();
    let mut order: Vec<usize> = (0..m).collect();
    order.sort_by(|&a, &b| {
        p_values[a]
            .partial_cmp(&p_values[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let mut outcomes = vec![
        HolmOutcome {
            index: 0,
            p_value: 0.0,
            adjusted_p: 0.0,
            rejected: false,
        };
        m
    ];

    let mut running_max = 0.0f64;
    let mut still_rejecting = true;
    for (rank, &idx) in order.iter().enumerate() {
        let p = p_values[idx];
        let scaled = ((m - rank) as f64 * p).min(1.0);
        running_max = running_max.max(scaled);
        // Step-down: once one hypothesis fails to reject, all later ones fail too.
        let reject = still_rejecting && running_max < alpha;
        if !reject {
            still_rejecting = false;
        }
        outcomes[idx] = HolmOutcome {
            index: idx,
            p_value: p,
            adjusted_p: running_max,
            rejected: reject,
        };
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input() {
        assert!(holm(&[], 0.05).is_empty());
    }

    #[test]
    fn single_hypothesis_is_plain_threshold() {
        let out = holm(&[0.01], 0.05);
        assert!(out[0].rejected);
        assert!((out[0].adjusted_p - 0.01).abs() < 1e-15);
        assert!(!holm(&[0.06], 0.05)[0].rejected);
    }

    #[test]
    fn textbook_example() {
        // p-values 0.01, 0.04, 0.03, 0.005 at alpha 0.05:
        // sorted: 0.005*4=0.02 reject, 0.01*3=0.03 reject, 0.03*2=0.06 stop, 0.04 not tested.
        let out = holm(&[0.01, 0.04, 0.03, 0.005], 0.05);
        assert!(out[0].rejected);
        assert!(!out[1].rejected);
        assert!(!out[2].rejected);
        assert!(out[3].rejected);
        let indices: Vec<usize> = out.iter().map(|o| o.index).collect();
        assert_eq!(indices, vec![0, 1, 2, 3], "outcomes keep the input order");
    }

    #[test]
    fn adjusted_p_values_are_monotone_in_sorted_order() {
        let ps = [0.001, 0.5, 0.0004, 0.02, 0.9, 0.0001];
        let out = holm(&ps, 0.05);
        let mut sorted: Vec<&HolmOutcome> = out.iter().collect();
        sorted.sort_by(|a, b| a.p_value.partial_cmp(&b.p_value).unwrap());
        for w in sorted.windows(2) {
            assert!(w[0].adjusted_p <= w[1].adjusted_p + 1e-15);
        }
    }

    #[test]
    fn step_down_stops_at_first_failure() {
        // Even if a later (larger) raw p-value would pass its own threshold,
        // it must not be rejected once an earlier one failed.
        let ps = [0.02, 0.021, 0.0001];
        // sorted: 0.0001*3 = 0.0003 reject; 0.02*2 = 0.04 >= alpha 0.03 -> stop.
        let out = holm(&ps, 0.03);
        assert!(out[2].rejected);
        assert!(!out[0].rejected);
        assert!(!out[1].rejected);
    }

    #[test]
    fn controls_family_wise_error_more_strictly_than_raw() {
        // 1000 true-null p-values uniformly spaced: raw thresholding at 0.05 would
        // "find" ~50 biases; Holm finds none.
        let ps: Vec<f64> = (1..=1000).map(|i| i as f64 / 1000.0).collect();
        assert!(holm(&ps, 0.05).iter().all(|o| !o.rejected));
    }
}
